//! End-to-end HTTP integration tests: save→load→serve round trip
//! (bit-identical to in-memory answers), fault-to-status mapping,
//! keep-alive latency and framing, and zero-downtime hot swap under
//! concurrent load.

use bear_core::{Bear, BearConfig, EngineConfig, QueryEngine};
use bear_graph::Graph;
use bear_serve::{client, ClientResponse, Registry, Server, ServerConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A star graph with a chord: small enough for instant preprocessing,
/// structured enough (hub + caves) that SlashBurn produces a real
/// partition.
fn test_graph() -> Graph {
    let mut edges = Vec::new();
    for v in 1..12 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    edges.push((5, 6));
    edges.push((6, 5));
    Graph::from_edges(12, &edges).unwrap()
}

/// `caves` five-node cliques, each node tied to one of `hubs` fully
/// interconnected hubs: large enough that a 16-seed batch answer is
/// hundreds of kilobytes.
fn cave_graph(hubs: usize, caves: usize) -> Graph {
    let mut edges = Vec::new();
    for a in 0..hubs {
        for b in 0..hubs {
            if a != b {
                edges.push((a, b));
            }
        }
    }
    for c in 0..caves {
        let base = hubs + 5 * c;
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    edges.push((base + i, base + j));
                }
            }
            let hub = (c + i) % hubs;
            edges.push((base + i, hub));
            edges.push((hub, base + i));
        }
    }
    Graph::from_edges(hubs + 5 * caves, &edges).unwrap()
}

fn engine_config() -> EngineConfig {
    EngineConfig::builder().threads(2).queue_capacity(64).block_width(8).build().unwrap()
}

/// Preprocesses the test graph, saves it, reloads it through the
/// persistence path, and serves the *reloaded* index — so every HTTP
/// assertion below also exercises save→load fidelity.
fn test_server(tag: &str) -> (ServerHandle, Bear, PathBuf) {
    serve_graph(&test_graph(), tag)
}

/// [`test_server`] over any graph.
fn serve_graph(graph: &Graph, tag: &str) -> (ServerHandle, Bear, PathBuf) {
    let reference = Bear::new(graph, &BearConfig::exact(0.15)).unwrap();
    let path = std::env::temp_dir().join(format!("bear_serve_{tag}.idx"));
    reference.save(&path).unwrap();
    let loaded = Arc::new(Bear::load(&path).unwrap());
    let engine = QueryEngine::new(loaded, engine_config()).unwrap();
    let registry = Arc::new(Registry::new());
    registry.publish("g", Arc::new(engine));
    let config =
        ServerConfig { http_threads: 4, engine_config: engine_config(), ..ServerConfig::default() };
    let handle = Server::start(registry, config).unwrap();
    (handle, reference, path)
}

#[test]
fn healthz_routes_and_method_mapping() {
    let (server, _, path) = test_server("health");
    let addr = server.addr();

    let resp = client::get(addr, "/healthz", &[]).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("ok 1 graph(s)"));

    let resp = client::get(addr, "/nope", &[]).unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.body_str().contains("not_found"));

    let resp = client::post(addr, "/v1/query?seed=0", &[]).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));

    let resp = client::get(addr, "/admin/load?graph=g&index=x", &[]).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The tentpole differential: every score served over HTTP from the
/// *reloaded* index is bit-identical to the in-memory `Bear::query`
/// answer on the original — persistence and the whole HTTP layer add
/// exactly zero numerical perturbation.
#[test]
fn save_load_serve_round_trip_is_bit_identical() {
    let (server, reference, path) = test_server("roundtrip");
    let addr = server.addr();
    let n = reference.num_nodes();
    for seed in 0..n {
        let resp = client::get(addr, &format!("/v1/query?graph=g&seed={seed}"), &[]).unwrap();
        assert_eq!(resp.status, 200, "seed {seed}: {}", resp.body_str());
        assert_eq!(resp.header("x-graph-version"), Some("1"));
        assert_eq!(resp.header("x-degraded"), None, "exact index must not degrade");
        let body = resp.body_str();
        let scores = client::json_number_array(&body, "scores").expect("scores array");
        let expected = reference.query(seed).unwrap();
        assert_eq!(scores.len(), expected.len());
        for (i, (got, want)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} node {i}: {got:?} != {want:?}");
        }
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn topk_and_batch_match_in_memory_answers() {
    let (server, reference, path) = test_server("topk_batch");
    let addr = server.addr();

    let expected = reference.query(3).unwrap();
    let ranked = bear_core::topk::top_k_excluding_seed(&expected, 3, 4);
    let resp = client::get(addr, "/v1/topk?graph=g&seed=3&k=4", &[]).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    for s in &ranked {
        let needle = format!("{{\"node\":{},\"score\":{}}}", s.node, s.score);
        assert!(body.contains(&needle), "missing {needle} in {body}");
    }

    let resp = client::get(addr, "/v1/batch?graph=g&seeds=0,5,0,11", &[]).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-degraded-count"), Some("0"));
    let body = resp.body_str();
    for seed in [0usize, 5, 11] {
        let expected = reference.query(seed).unwrap();
        let mut serialized = format!("{{\"seed\":{seed},\"scores\":[");
        for (i, v) in expected.iter().enumerate() {
            if i > 0 {
                serialized.push(',');
            }
            serialized.push_str(&format!("{v}"));
        }
        serialized.push_str("]}");
        assert!(body.contains(&serialized), "seed {seed} payload mismatch in {body}");
    }

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Sends one `GET target` on a keep-alive connection and reads the
/// answer off `reader`, which wraps the same socket.
fn keep_alive_get(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
) -> ClientResponse {
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes()).unwrap();
    let resp = client::read_response(reader).unwrap();
    assert_eq!(resp.header("connection"), Some("keep-alive"), "{target}");
    resp
}

/// Regression for the keep-alive stall: a response written as several
/// small writes waited on Nagle's algorithm for the client's delayed
/// ACK, about 40 ms a round trip. 50 sequential `/v1/topk` requests on
/// one connection must finish far inside 50 × 40 ms, every answer equal
/// to the in-memory ranking; after a multi-seed `/v1/batch` answer of
/// hundreds of kilobytes, the next response on the same connection
/// still frames correctly.
#[test]
fn keep_alive_requests_do_not_stall_and_stay_framed() {
    let (server, reference, path) = serve_graph(&cave_graph(8, 400), "keepalive");
    let n = reference.num_nodes();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Build the pruned top-k bound tables outside the timed loop.
    let warm = keep_alive_get(&mut stream, &mut reader, "/v1/topk?graph=g&seed=0&k=10");
    assert_eq!(warm.status, 200, "{}", warm.body_str());
    let seeds: Vec<usize> = (1..=50).map(|i| i * 37 % n).collect();
    let started = Instant::now();
    let bodies: Vec<String> = seeds
        .iter()
        .map(|seed| {
            let target = format!("/v1/topk?graph=g&seed={seed}&k=10");
            let resp = keep_alive_get(&mut stream, &mut reader, &target);
            assert_eq!(resp.status, 200, "{target}: {}", resp.body_str());
            resp.body_str()
        })
        .collect();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "50 keep-alive round trips took {elapsed:?}");
    for (&seed, body) in seeds.iter().zip(&bodies) {
        let ranked =
            bear_core::topk::top_k_excluding_seed(&reference.query(seed).unwrap(), seed, 10);
        let nodes: Vec<String> = ranked
            .iter()
            .map(|s| format!("{{\"node\":{},\"score\":{}}}", s.node, s.score))
            .collect();
        let expected =
            format!("{{\"version\":1,\"seed\":{seed},\"k\":10,\"nodes\":[{}]}}", nodes.join(","));
        assert_eq!(*body, expected, "seed {seed}");
    }

    let batch: Vec<usize> = (0..16).map(|i| i * 131 % n).collect();
    let list = batch.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
    let resp = keep_alive_get(&mut stream, &mut reader, &format!("/v1/batch?graph=g&seeds={list}"));
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert!(resp.body.len() > 256 * 1024, "batch body is only {} bytes", resp.body.len());
    let body = resp.body_str();
    let results: Vec<&str> = body.split("{\"seed\":").skip(1).collect();
    assert_eq!(results.len(), batch.len());
    for (result, &seed) in results.iter().zip(&batch) {
        assert!(result.starts_with(&format!("{seed},")), "results out of seed order");
        let scores = client::json_number_array(result, "scores").expect("scores array");
        let expected = reference.query(seed).unwrap();
        assert_eq!(scores.len(), expected.len());
        for (got, want) in scores.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}");
        }
    }
    let health = keep_alive_get(&mut stream, &mut reader, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), "ok 1 graph(s)\n");

    drop((stream, reader));
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A `/v1/batch` is one engine request: its distinct seeds are answered
/// in blocks of up to `block_width`, so `/metrics` reports a realized
/// block width above 1, and every vector stays bit-identical to
/// `Bear::query`.
#[test]
fn batch_is_answered_in_blocks_bit_identical() {
    let (server, reference, path) = test_server("blocks");
    let addr = server.addr();
    // 16 seeds over the 12-node graph: 12 distinct ones, solved as
    // blocks of 8 and 4; the 4 repeats are cache hits.
    let seeds: Vec<usize> = (0..12).chain(0..4).collect();
    let list = seeds.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
    let resp = client::get(addr, &format!("/v1/batch?graph=g&seeds={list}"), &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    let results: Vec<&str> = body.split("{\"seed\":").skip(1).collect();
    assert_eq!(results.len(), seeds.len());
    for (result, &seed) in results.iter().zip(&seeds) {
        assert!(result.starts_with(&format!("{seed},")), "results out of seed order: {body}");
        let scores = client::json_number_array(result, "scores").expect("scores array");
        let expected = reference.query(seed).unwrap();
        assert_eq!(scores.len(), expected.len());
        for (i, (got, want)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} node {i}: {got:?} != {want:?}");
        }
    }
    let width = scrape_metric(addr, "bear_avg_block_width");
    assert!(width > 1.0, "a 16-seed batch must be solved in blocks, got width {width}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Satellite regression over HTTP: an already-expired deadline budget
/// (`X-Deadline-Ms: 0`) fails fast at admission with the typed timeout
/// → `504`, never `429`, and is counted by the engine's metrics.
#[test]
fn expired_deadline_maps_to_504() {
    let (server, _, path) = test_server("deadline");
    let addr = server.addr();

    let resp = client::get(addr, "/v1/query?graph=g&seed=1", &[("X-Deadline-Ms", "0")]).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_str());
    assert!(resp.body_str().contains("timeout"));
    assert_eq!(resp.header("x-graph-version"), Some("1"));

    let resp = client::get(addr, "/v1/topk?graph=g&seed=1&k=3", &[("X-Deadline-Ms", "0")]).unwrap();
    assert_eq!(resp.status, 504);
    let resp = client::get(addr, "/v1/batch?graph=g&seeds=1,2", &[("X-Deadline-Ms", "0")]).unwrap();
    assert_eq!(resp.status, 504);

    let metrics = client::get(addr, "/metrics", &[]).unwrap().body_str();
    let timeouts = metrics
        .lines()
        .find(|l| l.starts_with("bear_timeouts_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert!(timeouts >= 3, "expired deadlines must be counted: {timeouts}");
    assert!(metrics.contains("bear_http_responses_504_total 3"), "{metrics}");
    // Fail-fast means admission never enqueued them: no queue shed.
    assert!(metrics.contains("bear_queue_rejections_total{graph=\"g\"} 0"), "{metrics}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_parameters_map_to_400_and_unknown_graph_to_404() {
    let (server, _, path) = test_server("badparams");
    let addr = server.addr();

    for target in [
        "/v1/query?graph=g",             // missing seed
        "/v1/query?graph=g&seed=banana", // malformed seed
        "/v1/query?graph=g&seed=99999",  // out-of-bounds seed
        "/v1/batch?graph=g",             // missing seeds
        "/v1/batch?graph=g&seeds=1,x",   // malformed seed list
        "/v1/topk?graph=g&seed=1&k=-3",  // malformed k
        "/v1/topk?graph=g&seed=1&k=0",   // k = 0 used to return an empty 200
    ] {
        let resp = client::get(addr, target, &[]).unwrap();
        assert_eq!(resp.status, 400, "{target}: {}", resp.body_str());
    }
    let resp = client::get(addr, "/v1/query?graph=g&seed=1", &[("X-Deadline-Ms", "soon")]).unwrap();
    assert_eq!(resp.status, 400);

    let resp = client::get(addr, "/v1/query?graph=missing&seed=1", &[]).unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.body_str().contains("unknown graph"));

    // Single registered graph: the parameter may be omitted.
    let resp = client::get(addr, "/v1/query?seed=1", &[]).unwrap();
    assert_eq!(resp.status, 200);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Satellite regression: the top-k cache keeps the largest-k answer per
/// seed and serves any smaller k' from it by prefix truncation — so a
/// `k=8` request followed by `k=3` for the same seed is a cache hit
/// whose payload is the exact 3-prefix of the `k=8` ranking.
#[test]
fn topk_smaller_k_is_served_from_cache_prefix() {
    let (server, _, path) = test_server("topk_prefix");
    let addr = server.addr();

    let big = client::get(addr, "/v1/topk?graph=g&seed=3&k=8", &[]).unwrap();
    assert_eq!(big.status, 200, "{}", big.body_str());
    let hits_after_big = scrape_cache_hits(addr);

    let small = client::get(addr, "/v1/topk?graph=g&seed=3&k=3", &[]).unwrap();
    assert_eq!(small.status, 200, "{}", small.body_str());
    assert_eq!(scrape_cache_hits(addr), hits_after_big + 1, "k' <= cached k must be a cache hit");

    // The k=3 payload is the exact character-level prefix of the k=8
    // node list (same nodes, same order, same shortest-round-trip f64s).
    let prefix_of = |body: &str| -> String {
        let start = body.find("\"nodes\":[").expect("nodes array") + "\"nodes\":[".len();
        let mut depth = 0usize;
        let mut objects = 0usize;
        let mut end = start;
        for (i, ch) in body[start..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        objects += 1;
                        if objects == 3 {
                            end = start + i + 1;
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        body[start..end].to_string()
    };
    assert_eq!(prefix_of(&small.body_str()), prefix_of(&big.body_str()));

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

fn scrape_cache_hits(addr: std::net::SocketAddr) -> u64 {
    scrape_metric(addr, "bear_cache_hits_total") as u64
}

/// The value of the first `/metrics` series named `name`.
fn scrape_metric(addr: std::net::SocketAddr, name: &str) -> f64 {
    let metrics = client::get(addr, "/metrics", &[]).unwrap().body_str();
    metrics
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} present"))
}

#[test]
fn admin_load_rejects_bad_index_and_keeps_serving() {
    let (server, _, path) = test_server("badload");
    let addr = server.addr();

    let resp = client::post(addr, "/admin/load?graph=g&index=/nonexistent/x.idx", &[]).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());

    // A corrupt index is rejected typed and the old version keeps serving.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let bad = std::env::temp_dir().join("bear_serve_badload_corrupt.idx");
    std::fs::write(&bad, &bytes).unwrap();
    let resp =
        client::post(addr, &format!("/admin/load?graph=g&index={}", bad.display()), &[]).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());

    let resp = client::get(addr, "/v1/query?graph=g&seed=1", &[]).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-graph-version"), Some("1"), "failed publish must not bump");

    server.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&bad).ok();
}

/// The hot-swap guarantee under concurrent load: while two new index
/// versions are published through `/admin/load`, every request from
/// every client thread succeeds with bit-identical scores — zero
/// dropped or incorrect responses — and each connection observes a
/// nondecreasing version sequence.
#[test]
fn hot_swap_under_load_drops_nothing() {
    let (server, reference, path) = test_server("hotswap");
    let addr = server.addr();
    let expected: Vec<Vec<f64>> =
        (0..reference.num_nodes()).map(|s| reference.query(s).unwrap()).collect();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut versions = Vec::new();
                let mut requests = 0u64;
                let n = expected.len();
                while !stop.load(Ordering::Relaxed) {
                    let seed = (requests as usize * 7 + t) % n;
                    let resp = client::get(addr, &format!("/v1/query?graph=g&seed={seed}"), &[])
                        .expect("request must not fail mid-swap");
                    assert_eq!(resp.status, 200, "mid-swap failure: {}", resp.body_str());
                    let version: u64 = resp.header("x-graph-version").unwrap().parse().unwrap();
                    versions.push(version);
                    let scores = client::json_number_array(&resp.body_str(), "scores").unwrap();
                    for (got, want) in scores.iter().zip(&expected[seed]) {
                        assert_eq!(got.to_bits(), want.to_bits(), "mid-swap corruption");
                    }
                    requests += 1;
                }
                (requests, versions)
            })
        })
        .collect();

    // Publish two fresh versions of the same index while traffic flows.
    for round in 0..2 {
        std::thread::sleep(std::time::Duration::from_millis(150));
        let resp =
            client::post(addr, &format!("/admin/load?graph=g&index={}", path.display()), &[])
                .unwrap();
        assert_eq!(resp.status, 200, "publish {round}: {}", resp.body_str());
    }
    std::thread::sleep(std::time::Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);

    let mut total = 0;
    let mut max_version = 0;
    for c in clients {
        let (requests, versions) = c.join().unwrap();
        total += requests;
        assert!(
            versions.windows(2).all(|w| w[0] <= w[1]),
            "versions must be nondecreasing per connection: {versions:?}"
        );
        max_version = max_version.max(versions.last().copied().unwrap_or(0));
    }
    assert!(total > 0, "load threads must have issued traffic");
    assert_eq!(max_version, 3, "both publishes must have become visible");

    let metrics = client::get(addr, "/metrics", &[]).unwrap().body_str();
    assert!(metrics.contains("bear_hot_swaps_total 2"), "{metrics}");
    assert!(metrics.contains("bear_graph_version{graph=\"g\"} 3"), "{metrics}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A request whose framing two parsers could read differently —
/// differing `Content-Length` values, or a chunked body this server does
/// not decode — is answered `400` and the connection closed, so the
/// body bytes (here a second, smuggled request) are never parsed as the
/// next request on the keep-alive stream.
#[test]
fn ambiguous_framing_is_refused_and_the_connection_closed() {
    let (server, _, path) = test_server("framing");
    let smuggled = "GET /v1/query?graph=g&seed=1 HTTP/1.1\r\nHost: test\r\n\r\n";
    let conflicting = format!(
        "GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nContent-Length: {}\r\n\r\n{smuggled}",
        smuggled.len()
    );
    let chunked = format!(
        "GET /healthz HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    );
    for raw in [conflicting, chunked] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = client::read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body_str());
        assert_eq!(resp.header("connection"), Some("close"));
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty(), "a second response followed: {}", String::from_utf8_lossy(&rest));
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
