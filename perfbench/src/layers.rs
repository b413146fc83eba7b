//! The traced run's in-process legs: the same request items replayed
//! through the engine, the resident kernel, the paged kernel, and the
//! HTTP wire functions, each call wrapped in a span.

use crate::server::{BLOCK_WIDTH, ENGINE_THREADS};
use crate::trace::Tracer;
use crate::workloads::{Workload, TOP_K};
use bear_core::{
    Bear, EngineConfig, LoadOptions, QueryEngine, QueryOptions, QueryWorkspace, TopKPruneOptions,
};
use bear_serve::http::{read_request, Response};
use std::path::Path;
use std::sync::Arc;

type Error = crate::server::Error;

/// The engine configuration `bear serve` builds from the benchmark's
/// flags.
pub fn engine_config(w: &Workload) -> Result<EngineConfig, Error> {
    Ok(EngineConfig::builder()
        .threads(ENGINE_THREADS)
        .block_width(BLOCK_WIDTH)
        .spoke_residency_bytes(w.paged_cap_mb.map(|mb| mb << 20))
        .build()?)
}

/// What the pruned top-k kernel did over the replayed seeds.
#[derive(Default)]
pub struct TopKLeg {
    pub certified: usize,
    pub queries: usize,
    pub prune_ratio_sum: f64,
    pub blocks_resolved_sum: usize,
}

/// Pager counters over the paged leg.
pub struct PagedLeg {
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
}

/// What the replay measured besides its spans.
pub struct Replay {
    /// Per item, whether the engine answered it without any cache hit.
    pub all_miss: Vec<bool>,
    pub topk: TopKLeg,
    /// Only when the workload serves a paged index.
    pub paged: Option<PagedLeg>,
}

/// A kernel leg's index with the buffers an engine worker reuses: one
/// `QueryWorkspace` and one output vector.
struct Kernel {
    bear: Bear,
    ws: QueryWorkspace,
    out: Vec<f64>,
}

impl Kernel {
    fn new(bear: Bear) -> Self {
        let ws = QueryWorkspace::for_bear(&bear);
        let out = vec![0.0; bear.num_nodes()];
        Kernel { bear, ws, out }
    }
}

/// Replays `items` through each layer in turn, item by item, so that
/// host drift over the replay touches every layer alike. Each leg loads
/// its own copy of `index`, the file the server serves:
/// - `engine`: an engine built exactly as the server builds one, one
///   span per item;
/// - `kernel`: the resident index, per item what the engine computes for
///   it — a `kernel.topk` child (pruned top-k) on top-k workloads, one
///   `kernel.query` child (Algorithm 2) per seed of a batch; top-k seeds
///   also get a standalone `kernel.query`;
/// - `kernel.paged` (paged workloads): the index paged and capped like
///   the server's, one `kernel.query_paged` child per seed.
pub fn replay(
    w: &Workload,
    index: &Path,
    items: &[Vec<usize>],
    tracer: &mut Tracer,
) -> Result<Replay, Error> {
    let engine = QueryEngine::new(Arc::new(Bear::load(index)?), engine_config(w)?)?;
    let opts = QueryOptions::default();
    let prune = TopKPruneOptions::default();
    let resident = LoadOptions { resident: true, ..LoadOptions::default() };
    let mut kernel = Kernel::new(Bear::load_with(index, &resident)?);
    let mut paged = match w.paged_cap_mb {
        Some(mb) => {
            let bear = Bear::load(index)?;
            let pager = bear.pager().ok_or("a v3 index loads with a pager")?;
            pager.set_budget(Some(usize::try_from(mb << 20)?))?;
            let before = pager.stats();
            Some((Kernel::new(bear), before))
        }
        None => None,
    };
    let mut all_miss = Vec::with_capacity(items.len());
    let mut topk = TopKLeg::default();
    let mut paged_queries = 0;
    for (i, item) in items.iter().enumerate() {
        let request = i as u64;
        let hits = engine.metrics().cache_hits;
        tracer.span("engine", None, request, || {
            if w.is_batch() {
                engine.serve_batch(item, &opts).map(|v| v.len())
            } else {
                engine.query_top_k(item[0], TOP_K, &opts).map(|t| t.nodes.len())
            }
        })?;
        all_miss.push(engine.metrics().cache_hits == hits);

        let Kernel { bear, ws, out } = &mut kernel;
        let span = tracer.open("kernel", None, request);
        if w.is_batch() {
            for &seed in item {
                tracer
                    .span("kernel.query", Some(span), request, || bear.query_into(seed, ws, out))?;
            }
            tracer.close(span);
        } else {
            let (_, stats) = tracer.span("kernel.topk", Some(span), request, || {
                bear.query_top_k_pruned_in(item[0], TOP_K, &prune, ws)
            })?;
            tracer.close(span);
            tracer.span("kernel.query", None, request, || bear.query_into(item[0], ws, out))?;
            topk.queries += 1;
            topk.certified += usize::from(stats.certified);
            topk.prune_ratio_sum += stats.prune_ratio();
            topk.blocks_resolved_sum += stats.blocks_resolved;
        }

        if let Some((Kernel { bear, ws, out }, _)) = &mut paged {
            let span = tracer.open("kernel.paged", None, request);
            for &seed in item {
                tracer.span("kernel.query_paged", Some(span), request, || {
                    bear.query_into(seed, ws, out)
                })?;
                paged_queries += 1;
            }
            tracer.close(span);
        }
    }
    let paged = match &paged {
        Some((kernel, before)) => {
            let after = kernel.bear.pager().ok_or("a v3 index loads with a pager")?.stats();
            Some(PagedLeg {
                queries: paged_queries,
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                resident_bytes: after.resident_bytes,
            })
        }
        None => None,
    };
    Ok(Replay { all_miss, topk, paged })
}

/// Times `read_request` on each request's exact bytes and
/// `Response::write_to` into memory on each received body. Returns the
/// mean response size in bytes.
pub fn wire_leg(requests: &[Vec<u8>], bodies: &[Vec<u8>], tracer: &mut Tracer) -> f64 {
    const REPEAT: usize = 20;
    for (i, raw) in requests.iter().enumerate() {
        for _ in 0..REPEAT {
            let parsed = tracer.span("serve.parse", None, i as u64, || {
                read_request(&mut std::hint::black_box(&raw[..]))
            });
            assert!(matches!(parsed, Ok(Some(_))), "the benchmark's own request must parse");
        }
    }
    let mut bytes = 0usize;
    for (i, body) in bodies.iter().enumerate() {
        let response = Response::json(200, String::from_utf8_lossy(body).into_owned())
            .header("X-Graph-Version", "1");
        let mut wire = Vec::with_capacity(body.len() + 256);
        let written =
            tracer.span("serve.write", None, i as u64, || response.write_to(&mut wire, true));
        written.expect("writing into memory cannot fail");
        bytes += std::hint::black_box(&wire).len();
    }
    bytes as f64 / bodies.len().max(1) as f64
}
