//! The repository benchmark: drives a real `bear serve` process with one
//! of three named workloads and reports end-to-end metrics, or (with
//! `--trace 1`) per-layer metrics from a traced replay.
//!
//! ```text
//! bash perfbench/run.sh --workload topk_keepalive --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Every answer is checked bit for bit against an in-process `Bear`
//! built from the same edge list; a wrong answer, or a workload that
//! stops exercising the mechanism it exists for, exits non-zero.
//! Scratch files go to `.bench_work/` and span dumps to `.bench_out/`,
//! both under the current directory.

mod client;
mod layers;
mod openloop;
mod seeds;
mod server;
mod stats;
mod trace;
mod verify;
mod workloads;

use bear_core::{Bear, BearConfig};
use bear_graph::io::{read_edge_list, write_edge_list};
use server::{counter, Error, ServerProc};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Phase, Workload};

/// Restart probability, as `bear preprocess` defaults it.
const RESTART: f64 = 0.05;
/// Set-ups per untraced run, or one per server slice when there are
/// more; `setup_s` is their median.
const SETUPS: usize = 7;
/// Repetitions of each persistence and preprocessing step when traced.
const LAYER_REPEATS: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("seeds_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 27] = [
    ("serve.self_ms", "ms"),
    ("serve.conn_setup_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("engine.self_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.block_width_mean", "count"),
    ("engine.rejected", "count"),
    ("engine.degraded", "count"),
    ("query.kernel_us", "us"),
    ("query.factor_nnz", "count"),
    ("topk.kernel_us", "us"),
    ("topk.certified_ratio", "ratio"),
    ("topk.prune_ratio", "ratio"),
    ("topk.blocks_resolved", "count"),
    ("paging.self_us", "us"),
    ("paging.faults_per_query", "count"),
    ("paging.hit_ratio", "ratio"),
    ("paging.resident_bytes", "bytes"),
    ("persist.write_s", "s"),
    ("persist.load_s", "s"),
    ("persist.index_bytes", "bytes"),
    ("precompute.preprocess_s", "s"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.p50_ms", "ms"),
    ("trace.p99_ms", "ms"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workloads::by_name(&name).ok_or(format!("unknown workload '{name}'"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

/// The run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(w: &Workload, seed: u64) -> Result<Self, Error> {
        let dir =
            Path::new(".bench_work").join(format!("{}-{seed}-{}", w.name, std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run reports.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
    problems: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` holds (`null` if not finite).
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    format!("{v:?}")
}

/// Inputs shared by both run kinds: the edge list on disk, the
/// reference index built in-process from it, and the seed sampler.
struct Inputs {
    graph: PathBuf,
    reference: Bear,
    sampler: workloads::Sampler,
}

fn bear_config() -> BearConfig {
    BearConfig { threads: server::ENGINE_THREADS, ..BearConfig::approx(RESTART, 0.0) }
}

fn make_inputs(w: &Workload, seed: u64, work: &WorkDir) -> Result<Inputs, Error> {
    let spec = bear_datasets::dataset_by_name(w.dataset).ok_or("unknown dataset")?;
    let graph = work.path("graph.txt");
    write_edge_list(&spec.load(), &graph)?;
    let reference = Bear::new(&read_edge_list(&graph, None)?, &bear_config())?;
    let sampler = w.sampler(reference.num_nodes(), seed);
    Ok(Inputs { graph, reference, sampler })
}

/// Checks every answer of a phase against the reference. Returns the
/// number of correct requests and correctly answered seeds.
fn check_answers(w: &Workload, phase: &Phase, reference: &Bear) -> (usize, usize) {
    let mut gate = verify::Reference::new(reference);
    let mut ok_requests = 0;
    let mut ok_seeds = 0;
    for e in &phase.exchanges {
        let ok = match &e.reply {
            Ok(r) if r.status == 200 && !r.degraded => {
                if w.is_batch() {
                    gate.batch_matches(&e.item, &r.body)
                } else {
                    gate.topk_matches(e.item[0], workloads::TOP_K, &r.body)
                }
            }
            _ => false,
        };
        if ok {
            ok_requests += 1;
            ok_seeds += e.item.len();
        }
    }
    (ok_requests, ok_seeds)
}

/// The checks that keep a workload on the mechanism it exists for.
fn exercise_checks(w: &Workload, phase: &Phase, scrape: &[(String, f64)]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    match w.name {
        "topk_keepalive" => {
            let hit =
                counter(scrape, "bear_cache_hits_total") / counter(scrape, "bear_queries_total");
            require(hit > 0.3, format!("engine.cache_hit_ratio {hit} is not above 0.3"));
            let pruned = counter(scrape, "bear_topk_pruned_queries_total");
            let certified = counter(scrape, "bear_topk_certified_total");
            require(
                pruned > 0.0 && certified == pruned,
                format!("topk.certified_ratio {certified}/{pruned} is not 1"),
            );
        }
        "topk_rmat_oneshot" => {
            let pruned = counter(scrape, "bear_topk_pruned_queries_total");
            let certified = counter(scrape, "bear_topk_certified_total");
            require(
                certified < pruned,
                format!("topk.certified_ratio {certified}/{pruned} is not below 1"),
            );
            let swapped = !phase.swaps.is_empty()
                && phase.swaps.iter().all(|s| matches!(s, Ok(r) if r.status == 200));
            require(swapped, "a midpoint hot swap did not return 200".into());
            let seen = phase
                .exchanges
                .iter()
                .any(|e| matches!(&e.reply, Ok(r) if r.graph_version == Some(2)));
            require(seen, "no answer carried X-Graph-Version 2 after the hot swap".into());
        }
        _ => {
            let misses = counter(scrape, "bear_pager_misses_total");
            let evictions = counter(scrape, "bear_pager_evictions_total");
            require(
                misses > 0.0 && evictions > 0.0,
                format!("pager misses {misses}, evictions {evictions}"),
            );
        }
    }
    problems
}

/// What the timed phase measured, over all its server slices.
struct Measured {
    phase: Phase,
    /// `/metrics` counters summed over the slices' servers.
    scrape: Vec<(String, f64)>,
    /// Medians over the slices of each slice's median latency, tail
    /// latency and tail percentile: a burst of host noise in one slice
    /// cannot move them, while what every slice does (the hot swap) can.
    p50_ms: f64,
    tail_ms: f64,
    tail_q: f64,
    /// Median over the slices' servers of each one's peak RSS.
    rss_mb: f64,
}

/// Runs the timed phase: `seconds` split evenly over `w.servers` servers,
/// each produced by `start_server(slice)` and stopped after its slice.
/// The open loop hot-swaps `swap_index` in at the midpoint of every slice.
fn measure(
    w: &Workload,
    args: &Args,
    sampler: &workloads::Sampler,
    swap_index: &Path,
    mut start_server: impl FnMut(usize) -> Result<ServerProc, Error>,
) -> Result<Measured, Error> {
    let slice = Duration::from_secs(args.seconds) / w.servers as u32;
    let mut phase = Phase::default();
    let mut scrape: Vec<(String, f64)> = Vec::new();
    let mut rss = Vec::with_capacity(w.servers);
    let (mut p50s, mut tails, mut qs) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..w.servers {
        let server = start_server(i)?;
        let part =
            workloads::drive(w, server.addr, sampler, args.seed, i as u64, slice, swap_index);
        if part.exchanges.is_empty() {
            return Err("no request completed".into());
        }
        let sorted = stats::sorted(&part.latencies_ms());
        let (q, tail) = stats::tail(&sorted, 0.99, 10);
        p50s.push(stats::percentile(&sorted, 0.5));
        tails.push(tail);
        qs.push(q);
        phase.extend(part);
        let mut counters = server.metrics()?;
        // Averages do not sum across servers; their numerators do.
        let block_queries = counter(&counters, "bear_avg_block_width")
            * counter(&counters, "bear_block_solves_total");
        counters.push(("bear_block_queries_total".into(), block_queries));
        for (name, value) in counters {
            match scrape.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += value,
                None => scrape.push((name, value)),
            }
        }
        rss.push(server.peak_rss_mb()?);
    }
    Ok(Measured {
        phase,
        scrape,
        p50_ms: stats::median(&p50s),
        tail_ms: stats::median(&tails),
        tail_q: stats::median(&qs),
        rss_mb: stats::median(&rss),
    })
}

fn run_untraced(args: &Args) -> Result<Report, Error> {
    let w = args.workload;
    let work = WorkDir::create(w, args.seed)?;
    let inputs = make_inputs(w, args.seed, &work)?;
    // The hot swap loads an identical index under another name: a copy
    // of the first set-up's.
    let swap_index = work.path("index-swap.idx");
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut timed_set_up = |i: usize| {
        // From the edge list on disk to the first 200 from /readyz.
        let index = work.path(&format!("index-{i}.idx"));
        let start = Instant::now();
        server::preprocess(&inputs.graph, &index, w.paged_cap_mb.is_some())?;
        let preprocessed = start.elapsed().as_secs_f64();
        let server = ServerProc::start(&index, w.paged_cap_mb)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i == 0 {
            std::fs::copy(&index, &swap_index)?;
        }
        eprintln!(
            "perfbench: set-up {i}: preprocess {preprocessed:.3} s, then ready after {:.3} s",
            setup_s[setup_s.len() - 1] - preprocessed
        );
        Ok::<_, Error>(server)
    };
    // Set-ups beyond the servers the timed phase needs only count
    // towards `setup_s`.
    let first_timed = SETUPS.saturating_sub(w.servers);
    for i in 0..first_timed {
        drop(timed_set_up(i)?);
    }
    let m = measure(w, args, &inputs.sampler, &swap_index, |i| timed_set_up(first_timed + i))?;
    let phase = &m.phase;
    let (ok_requests, ok_seeds) = check_answers(w, phase, &inputs.reference);
    let attempted = phase.exchanges.len();
    let lags: Vec<f64> = phase.exchanges.iter().map(|e| e.lag_ms).collect();
    eprintln!(
        "perfbench: {attempted} requests over {} server(s); tail percentile p{:.2}; \
         loadgen.lag_ms_p99 {:.3}",
        w.servers,
        m.tail_q * 100.0,
        stats::percentile(&stats::sorted(&lags), 0.99)
    );
    let mut problems = exercise_checks(w, phase, &m.scrape);
    if ok_requests < attempted {
        problems.push(format!(
            "{} of {attempted} answers were wrong or failed",
            attempted - ok_requests
        ));
    }
    let values = [
        m.p50_ms,
        m.tail_ms,
        ok_seeds as f64 / phase.elapsed.as_secs_f64(),
        ok_requests as f64 / attempted as f64,
        stats::median(&setup_s),
        m.rss_mb,
    ];
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - ok_requests,
        metrics: END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, *u, v)).collect(),
        problems,
    })
}

/// Median over repetitions of a timed step.
fn timed_median(mut step: impl FnMut() -> Result<(), Error>) -> Result<f64, Error> {
    let mut secs = Vec::with_capacity(LAYER_REPEATS);
    for _ in 0..LAYER_REPEATS {
        let start = Instant::now();
        step()?;
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok(stats::median(&secs))
}

fn run_traced(args: &Args) -> Result<Report, Error> {
    let w = args.workload;
    let work = WorkDir::create(w, args.seed)?;
    let inputs = make_inputs(w, args.seed, &work)?;
    let bear = &inputs.reference;
    let mut tracer = Tracer::new();
    let mut problems = Vec::new();

    // precompute and persist, timed from outside through their public
    // entry points.
    let graph = read_edge_list(&inputs.graph, None)?;
    let preprocess_s =
        timed_median(|| Bear::new(&graph, &bear_config()).map(drop).map_err(Into::into))?;
    let index = work.path("index.idx");
    let write_s = timed_median(|| {
        if w.paged_cap_mb.is_some() { bear.save_v3(&index) } else { bear.save(&index) }
            .map_err(Into::into)
    })?;
    let load_s = timed_median(|| Bear::load(&index).map(drop).map_err(Into::into))?;
    let index_bytes = std::fs::metadata(&index)?.len() as f64;
    let swap_index = work.path("swap.idx");
    std::fs::copy(&index, &swap_index)?;

    let items = inputs.sampler.items(args.seed, 1, w.trace_items);
    let targets: Vec<String> = items.iter().map(|i| w.target(i)).collect();

    // HTTP on a cold server: the keep-alive pass sees the same cache
    // state as the cold in-process engine below; then keep-alive and
    // fresh connections alternate on the now-warm cache.
    let mut bodies = Vec::new();
    let mut requests = Vec::new();
    let mut http_ok = true;
    {
        let server = ServerProc::start(&index, w.paged_cap_mb)?;
        let mut conn = client::KeepAlive::new(server.addr);
        for (i, target) in targets.iter().enumerate() {
            let reply =
                tracer.span("http.keepalive", None, i as u64, || conn.send("GET", target))?;
            http_ok &= reply.status == 200;
            bodies.push(reply.body);
            requests.push(client::request_bytes("GET", target, server.addr, true));
        }
        for (i, target) in targets.iter().enumerate() {
            let warm =
                tracer.span("http.keepalive_warm", None, i as u64, || conn.send("GET", target))?;
            let fresh = tracer.span("http.fresh", None, i as u64, || {
                client::one_shot(server.addr, "GET", target)
            })?;
            http_ok &= warm.status == 200 && fresh.status == 200;
        }
    }
    if !http_ok {
        problems.push("a traced HTTP request did not return 200".into());
    }

    // The same workload, timed on fresh servers as in the untraced run,
    // with one span per request.
    let Measured { phase, scrape, p50_ms, tail_ms, .. } =
        measure(w, args, &inputs.sampler, &swap_index, |_| {
            ServerProc::start(&index, w.paged_cap_mb)
        })?;
    for (i, e) in phase.exchanges.iter().enumerate() {
        let start = e.start;
        let end = start + Duration::from_secs_f64(e.latency_ms / 1e3);
        tracer.record(trace::Span {
            name: "http.request",
            start,
            end,
            parent: None,
            request: i as u64,
        });
    }
    let (ok_requests, _) = check_answers(w, &phase, bear);
    problems.extend(exercise_checks(w, &phase, &scrape));

    let layers::Replay { all_miss, topk, paged } = layers::replay(w, &index, &items, &mut tracer)?;
    let response_bytes = layers::wire_leg(&requests, &bodies, &mut tracer);

    // Layer arithmetic: a layer's self time is its median minus the
    // median of the layer beneath it on the same items.
    let ms = |name: &str| tracer.micros(name).iter().map(|us| us / 1e3).collect::<Vec<_>>();
    let us = |name: &str| tracer.micros(name);
    // The engine sits on the paged kernel when the index is paged.
    let engine_us = us("engine");
    let kernel_us = us(if paged.is_some() { "kernel.paged" } else { "kernel" });
    let misses: Vec<usize> = (0..items.len()).filter(|&i| all_miss[i]).collect();
    let pick = |v: &[f64], idx: &[usize]| idx.iter().map(|&i| v[i]).collect::<Vec<_>>();
    let engine_self = if misses.is_empty() {
        stats::self_time(&engine_us, &kernel_us)
    } else {
        stats::self_time(&pick(&engine_us, &misses), &pick(&kernel_us, &misses))
    };
    let queries = counter(&scrape, "bear_queries_total");
    let (faults, hit_ratio, resident, paging_self) = match &paged {
        Some(p) => (
            p.misses as f64 / p.queries as f64,
            p.hits as f64 / (p.hits + p.misses).max(1) as f64,
            p.resident_bytes as f64,
            stats::self_time(&us("kernel.query_paged"), &us("kernel.query")),
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    if let Some(p) = &paged {
        if p.misses == 0 || p.evictions == 0 {
            problems.push(format!("paged leg: {} misses, {} evictions", p.misses, p.evictions));
        }
    }
    let lags = stats::sorted(&phase.exchanges.iter().map(|e| e.lag_ms).collect::<Vec<_>>());
    let per_topk = |v: f64| if topk.queries == 0 { 0.0 } else { v / topk.queries as f64 };
    let values = [
        stats::self_time(&ms("http.keepalive"), &ms("engine")),
        stats::self_time(&ms("http.fresh"), &ms("http.keepalive_warm")),
        stats::median(&us("serve.parse")),
        stats::median(&us("serve.write")),
        response_bytes,
        engine_self,
        counter(&scrape, "bear_cache_hits_total") / queries.max(1.0),
        counter(&scrape, "bear_block_queries_total")
            / counter(&scrape, "bear_block_solves_total").max(1.0),
        counter(&scrape, "bear_queue_rejections_total")
            + counter(&scrape, "bear_shed_jobs_total")
            + counter(&scrape, "bear_timeouts_total"),
        counter(&scrape, "bear_degraded_total"),
        stats::median(&us("kernel.query")),
        bear.stats().total_nnz() as f64,
        if topk.queries == 0 { 0.0 } else { stats::median(&us("kernel.topk")) },
        per_topk(topk.certified as f64),
        per_topk(topk.prune_ratio_sum),
        per_topk(topk.blocks_resolved_sum as f64),
        paging_self,
        faults,
        hit_ratio,
        resident,
        write_s,
        load_s,
        index_bytes,
        preprocess_s,
        stats::percentile(&lags, 0.99),
        p50_ms,
        tail_ms,
    ];
    std::fs::create_dir_all(".bench_out")?;
    tracer
        .write_tsv(&Path::new(".bench_out").join(format!("spans-{}-{}.tsv", w.name, args.seed)))?;
    let attempted = phase.exchanges.len();
    if ok_requests < attempted {
        problems.push(format!(
            "{} of {attempted} answers were wrong or failed",
            attempted - ok_requests
        ));
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - ok_requests,
        metrics: PER_LAYER.iter().zip(values).map(|((n, u), v)| (*n, *u, v)).collect(),
        problems,
    })
}

/// `host_cores` and the revision being measured, for the record.
fn provenance() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |r| r.trim().to_string());
    format!("host_cores={cores} rev={rev}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance()
    );
    let result = if args.trace { run_traced(&args) } else { run_untraced(&args) };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(1);
        }
    };
    for (name, unit, value) in &report.metrics {
        eprintln!("  {name:<26} {value:>16.6} {unit}");
    }
    for p in &report.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_names_match_the_benchmark_declaration() {
        let decl = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(decl.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workloads::WORKLOADS {
            assert!(decl.contains(&format!("\"name\": \"{}\"", w.name)));
        }
    }

    #[test]
    fn report_is_one_json_line_with_full_precision() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("p50_ms", "ms", 1.0 / 3.0)],
            problems: vec![],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }
}
