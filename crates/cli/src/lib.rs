//! Implementation of the `bear` command-line tool.
//!
//! Subcommands:
//!
//! * `bear preprocess <graph.txt> <index.bear> [--c 0.05] [--xi 0]
//!   [--threads 0]` — read an edge list, run BEAR preprocessing (0
//!   threads = all cores; the index is bit-identical for any thread
//!   count), write the query index and report per-stage timings;
//! * `bear query <index.bear> <seed> [--top 10] [--threads 0]` — answer
//!   one RWR query from a saved index (0 threads = all cores);
//! * `bear batch <index.bear> <seed>... [--top 10] [--threads 0]` —
//!   answer many queries through the persistent [`QueryEngine`] pool;
//! * `bear serve <name=index.bear>... [--addr HOST:PORT]` — serve one or
//!   more saved indexes over HTTP through [`bear_serve`], with
//!   per-request deadlines (`X-Deadline-Ms`), typed fault-to-status
//!   mapping, and zero-downtime hot swap via `POST /admin/load`;
//! * `bear verify-index <index.bear>` — verify an index's checksums and
//!   structure without serving it (exit code 5 on corruption);
//! * `bear stats <graph.txt>` — graph and SlashBurn structure statistics;
//! * `bear generate <dataset> <out.txt>` — materialize a registry dataset
//!   as an edge list.
//!
//! `query` and `batch` both run through [`bear_core::QueryEngine`] and
//! finish by reporting its metrics (query count, cache hit rate, latency
//! percentiles, realized block widths, and fault counters). Both accept
//! the serving flags in [`ServeFlags`] (`--queue-cap`, `--deadline-ms`,
//! `--block-width`, `--fallback-graph`, `--c`); deadline and overload failures exit with
//! dedicated codes (see [`USAGE`] and [`exit_code`]), and with
//! `--fallback-graph` they degrade to a bounded power-method answer
//! instead of failing — including when the index itself cannot load.
//!
//! The library half exists so the command logic is unit-testable without
//! spawning processes; `main.rs` is a thin argv adapter.

use bear_core::topk::top_k_excluding_seed;
use bear_core::{
    Bear, BearConfig, DegradedInfo, EngineConfig, FallbackSolver, MetricsSnapshot, QueryEngine,
    QueryOptions, RwrConfig, Served, DEFAULT_FALLBACK_ITERATIONS,
};
use bear_graph::io::{read_edge_list, write_edge_list};
use bear_graph::{slashburn, SlashBurnConfig};
use bear_sparse::{Error, Result};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Preprocess an edge list into an index file.
    Preprocess {
        /// Input edge-list path.
        graph: String,
        /// Output index path.
        index: String,
        /// Restart probability.
        c: f64,
        /// Drop tolerance (0 = exact).
        xi: f64,
        /// Preprocessing worker threads (0 = all cores). The index is
        /// bit-identical for any thread count.
        threads: usize,
        /// Stream finished spoke units to the index file as they are
        /// factored (`--out-of-core`): peak preprocessing memory stays
        /// independent of the total factor size, and the written file is
        /// byte-for-byte identical to an in-memory `save`.
        out_of_core: bool,
    },
    /// Query a saved index.
    Query {
        /// Index path.
        index: String,
        /// Seed node.
        seed: usize,
        /// How many top nodes to print.
        top: usize,
        /// Worker threads for the query engine (0 = all cores).
        threads: usize,
        /// Serving options shared by `query` and `batch`.
        serve: ServeFlags,
    },
    /// Answer a batch of queries through the persistent engine pool.
    Batch {
        /// Index path.
        index: String,
        /// Seed nodes.
        seeds: Vec<usize>,
        /// How many top nodes to print per seed.
        top: usize,
        /// Worker threads for the query engine (0 = all cores).
        threads: usize,
        /// Serving options shared by `query` and `batch`.
        serve: ServeFlags,
    },
    /// Serve one or more saved indexes over HTTP.
    Serve {
        /// `name=index-path` pairs; each becomes a registered graph.
        graphs: Vec<(String, String)>,
        /// Bind address (`host:port`; port 0 picks a free one).
        addr: String,
        /// HTTP connection worker threads (0 = server default).
        http_threads: usize,
        /// Engine worker threads per graph (0 = all cores).
        threads: usize,
        /// Serving options shared with `query` and `batch`.
        serve: ServeFlags,
        /// Run for this many milliseconds then exit cleanly (0 = run
        /// until killed). Used by tests and smoke checks.
        for_ms: u64,
        /// Graceful-drain grace period in milliseconds for shutdown
        /// (0 = server default).
        drain_ms: u64,
    },
    /// Verify a saved index's checksums and structure without loading
    /// it into an engine.
    VerifyIndex {
        /// Index path.
        index: String,
    },
    /// Print graph statistics.
    Stats {
        /// Input edge-list path.
        graph: String,
    },
    /// Generate a registry dataset as an edge list.
    Generate {
        /// Dataset name (see `bear-datasets`).
        dataset: String,
        /// Output path.
        out: String,
    },
    /// Print usage.
    Help,
}

/// Fault-tolerance flags shared by `query` and `batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFlags {
    /// Admission-control bound on queued jobs (`--queue-cap`; 0 keeps
    /// the engine default).
    pub queue_cap: usize,
    /// Per-query deadline budget in milliseconds (`--deadline-ms`; 0
    /// means no deadline).
    pub deadline_ms: u64,
    /// `--block-width`: accepted for compatibility and passed to
    /// [`bear_core::engine::EngineConfig::block_width`], which does not
    /// use it (a request's distinct seeds are always one solve).
    pub block_width: usize,
    /// Edge-list path for the degraded fallback path
    /// (`--fallback-graph`). With it, deadline/overload/panic faults
    /// degrade to a bounded power-method answer, and a failed index load
    /// serves degraded-only instead of exiting.
    pub fallback_graph: Option<String>,
    /// Restart probability for the fallback solver when the index (and
    /// its stored `c`) could not be loaded (`--c`).
    pub c: f64,
    /// Resident-set cap in MiB for the spoke pager (`--resident-mb`). Set,
    /// the index loads paged under this cap; 0 (unset) loads every unit
    /// resident.
    pub resident_mb: u64,
}

impl Default for ServeFlags {
    fn default() -> Self {
        ServeFlags {
            queue_cap: 0,
            deadline_ms: 0,
            block_width: 0,
            fallback_graph: None,
            c: 0.05,
            resident_mb: 0,
        }
    }
}

/// Parses a float-valued flag (`--c`, `--xi`).
fn float_flag(args: &[String], name: &str, default: f64) -> Result<f64> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Error::InvalidStructure(format!("{name} needs a numeric value"))),
        None => Ok(default),
    }
}

/// Parses an integer-valued flag (`--top`, `--threads`, `--queue-cap`,
/// `--deadline-ms`). Unlike a float parse followed by a cast, fractional
/// or negative values (`--top 3.9`, `--threads -1`) are usage errors
/// rather than silent truncations.
fn int_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T> {
    match args.iter().position(|a| a == name) {
        Some(i) => args.get(i + 1).and_then(|v| v.parse().ok()).ok_or_else(|| {
            Error::InvalidStructure(format!("{name} needs a non-negative integer value"))
        }),
        None => Ok(default),
    }
}

fn parse_serve_flags(args: &[String]) -> Result<ServeFlags> {
    Ok(ServeFlags {
        queue_cap: int_flag(args, "--queue-cap", 0usize)?,
        deadline_ms: int_flag(args, "--deadline-ms", 0u64)?,
        block_width: int_flag(args, "--block-width", 0usize)?,
        fallback_graph: args
            .iter()
            .position(|a| a == "--fallback-graph")
            .and_then(|i| args.get(i + 1))
            .cloned(),
        c: float_flag(args, "--c", 0.05)?,
        resident_mb: int_flag(args, "--resident-mb", 0u64)?,
    })
}

/// Parses an argv-style token list (without the binary name).
pub fn parse_command(args: &[String]) -> Result<Command> {
    match args.first().map(|s| s.as_str()) {
        Some("preprocess") => {
            let graph = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| Error::InvalidStructure("preprocess needs <graph> <index>".into()))?
                .clone();
            let index = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| Error::InvalidStructure("preprocess needs <graph> <index>".into()))?
                .clone();
            Ok(Command::Preprocess {
                graph,
                index,
                c: float_flag(args, "--c", 0.05)?,
                xi: float_flag(args, "--xi", 0.0)?,
                threads: int_flag(args, "--threads", 0usize)?,
                out_of_core: args.iter().any(|a| a == "--out-of-core"),
            })
        }
        Some("query") => {
            let index = args
                .get(1)
                .ok_or_else(|| Error::InvalidStructure("query needs <index> <seed>".into()))?
                .clone();
            let seed: usize = args
                .get(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| Error::InvalidStructure("query needs a numeric seed".into()))?;
            let top = int_flag(args, "--top", 10usize)?;
            let threads = int_flag(args, "--threads", 0usize)?;
            Ok(Command::Query { index, seed, top, threads, serve: parse_serve_flags(args)? })
        }
        Some("batch") => {
            let index = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| Error::InvalidStructure("batch needs <index> <seed>...".into()))?
                .clone();
            // Positional seeds: everything after the index that is not a
            // flag or a flag's value.
            let mut seeds = Vec::new();
            let mut i = 2;
            while i < args.len() {
                if args[i].starts_with("--") {
                    i += 2; // skip the flag and its value
                    continue;
                }
                let seed: usize = args[i].parse().map_err(|_| {
                    Error::InvalidStructure(format!("batch seed '{}' is not a node id", args[i]))
                })?;
                seeds.push(seed);
                i += 1;
            }
            if seeds.is_empty() {
                return Err(Error::InvalidStructure("batch needs at least one seed".into()));
            }
            let top = int_flag(args, "--top", 10usize)?;
            let threads = int_flag(args, "--threads", 0usize)?;
            Ok(Command::Batch { index, seeds, top, threads, serve: parse_serve_flags(args)? })
        }
        Some("serve") => {
            // Positional graphs: `name=path` pairs anywhere before/among
            // the flags (same scan discipline as batch's seeds).
            let mut graphs = Vec::new();
            let mut i = 1;
            while i < args.len() {
                if args[i].starts_with("--") {
                    i += 2; // skip the flag and its value
                    continue;
                }
                let (name, path) = args[i].split_once('=').ok_or_else(|| {
                    Error::InvalidStructure(format!(
                        "serve graph '{}' must be name=index-path",
                        args[i]
                    ))
                })?;
                if name.is_empty() || path.is_empty() {
                    return Err(Error::InvalidStructure(format!(
                        "serve graph '{}' must be name=index-path",
                        args[i]
                    )));
                }
                graphs.push((name.to_string(), path.to_string()));
                i += 1;
            }
            if graphs.is_empty() {
                return Err(Error::InvalidStructure(
                    "serve needs at least one name=index-path graph".into(),
                ));
            }
            let addr = args
                .iter()
                .position(|a| a == "--addr")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7171".to_string());
            Ok(Command::Serve {
                graphs,
                addr,
                http_threads: int_flag(args, "--http-threads", 0usize)?,
                threads: int_flag(args, "--threads", 0usize)?,
                serve: parse_serve_flags(args)?,
                for_ms: int_flag(args, "--for-ms", 0u64)?,
                drain_ms: int_flag(args, "--drain-ms", 0u64)?,
            })
        }
        Some("verify-index") => Ok(Command::VerifyIndex {
            index: args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| Error::InvalidStructure("verify-index needs <index>".into()))?
                .clone(),
        }),
        Some("stats") => Ok(Command::Stats {
            graph: args
                .get(1)
                .ok_or_else(|| Error::InvalidStructure("stats needs <graph>".into()))?
                .clone(),
        }),
        Some("generate") => Ok(Command::Generate {
            dataset: args
                .get(1)
                .ok_or_else(|| Error::InvalidStructure("generate needs <dataset> <out>".into()))?
                .clone(),
            out: args
                .get(2)
                .ok_or_else(|| Error::InvalidStructure("generate needs <dataset> <out>".into()))?
                .clone(),
        }),
        Some("help") | Some("--help") | Some("-h") | None => Ok(Command::Help),
        Some(other) => Err(Error::InvalidStructure(format!("unknown command '{other}'"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
bear — block elimination approach for random walk with restart

USAGE:
  bear preprocess <graph.txt> <index.bear> [--c 0.05] [--xi 0] [--threads 0]
                  [--out-of-core]
  bear query <index.bear> <seed> [--top 10] [--threads 0] [serving flags]
  bear batch <index.bear> <seed>... [--top 10] [--threads 0] [serving flags]
  bear serve <name=index.bear>... [--addr 127.0.0.1:7171] [--http-threads 0]
             [--threads 0] [--for-ms 0] [--drain-ms 0] [serving flags]
  bear verify-index <index.bear>
  bear stats <graph.txt>
  bear generate <dataset> <out.txt>

PREPROCESS FLAGS:
  --c F                restart probability (default 0.05)
  --xi F               drop tolerance; 0 = exact BEAR (default 0)
  --threads N          preprocessing worker threads; 0 = all cores. The
                       written index is bit-identical for any N.
  --out-of-core        stream finished spoke units to the index file:
                       peak preprocessing memory is independent of the
                       total factor size, and the file is byte-identical
                       to an in-memory save

SERVING FLAGS (query/batch):
  --queue-cap N        admission-control bound on queued jobs (0 = default)
  --deadline-ms N      per-query deadline budget; 0 = none
  --block-width N      accepted and unused: a request's distinct seeds are
                       always one solve
  --fallback-graph P   edge list enabling graceful degradation: faults are
                       answered by a bounded power method, and a failed
                       index load serves degraded-only instead of exiting
  --c F                restart probability for the fallback when the index
                       (and its stored c) could not be loaded (default 0.05)
  --resident-mb N      load the index paged, with a resident-set cap (MiB)
                       on its spoke shards; shards beyond the cap are
                       paged from disk on demand, answers stay bit-identical.
                       0 (the default) loads every shard resident

SERVE FLAGS:
  --addr HOST:PORT     bind address (default 127.0.0.1:7171; port 0 picks
                       a free port)
  --http-threads N     HTTP connection workers (0 = server default)
  --for-ms N           run for N milliseconds then exit cleanly; 0 = run
                       until killed (used by tests and smoke checks)
  --drain-ms N         graceful-drain grace period on shutdown: in-flight
                       and admitted requests get N ms to finish before
                       force-close (0 = server default, 5000)
  The serving flags above also apply; --fallback-graph needs exactly one
  served graph. Endpoints: GET /v1/query?graph=NAME&seed=N,
  /v1/batch?seeds=..., /v1/topk?k=..., /healthz, /readyz (503 while
  warming or draining), /metrics, and POST
  /admin/load?graph=NAME&index=PATH for zero-downtime hot swap (a
  corrupt index is rejected and quarantined to <path>.corrupt).
  Per-request deadlines: X-Deadline-Ms header (504 on expiry; 429 on
  overload — the HTTP mirror of exit codes 3 and 4).

VERIFY-INDEX:
  Checks the on-disk artifact end to end — header, per-section CRC32,
  whole-file trailer checksum, and structural invariants — and prints a
  section report without building an engine. Exit code 0 means every
  byte checked out; 5 means corruption (the file is left in place).

EXIT CODES:
  0 success (possibly with degraded answers, reported in the output)
  1 error (load/compute failure with no fallback available)
  2 usage error
  3 deadline exceeded (typed timeout, no fallback available)
  4 overload (admission control rejected the query, no fallback available)
  5 corrupt index (checksum or structural verification failed)

Graphs are whitespace edge lists: 'src dst [weight]' per line, '#'
comments. Datasets: any name from the bear-datasets registry, e.g.
routing_like, email_like, rmat_0.7, small_routing.";

/// Maps an error to the exit code documented in [`USAGE`]: deadline and
/// overload faults get dedicated codes so callers can script retry
/// policies without parsing stderr.
pub fn exit_code(e: &Error) -> i32 {
    // Every `Error` variant is named (no `_` arm) so adding a variant
    // forces an exit-code decision here — the L5 lint checks exactly that.
    match e {
        Error::Timeout { .. } => 3,
        Error::QueueFull { .. } => 4,
        Error::CorruptIndex { .. } => 5,
        Error::DimensionMismatch { .. }
        | Error::IndexOutOfBounds { .. }
        | Error::InvalidStructure(_)
        | Error::SingularMatrix { .. }
        | Error::OutOfBudget { .. }
        | Error::DidNotConverge { .. }
        | Error::NonFiniteValue { .. }
        | Error::PoolShutDown
        | Error::WorkerPanicked { .. }
        | Error::Cancelled
        | Error::KernelPanicked { .. }
        | Error::InvalidConfig { .. } => 1,
    }
}

/// A loaded serving stack: the full engine (optionally with a fallback
/// attached), or — when the index failed to load but `--fallback-graph`
/// was given — the degraded-only iterative solver.
enum Service {
    /// Healthy path: the BEAR index answered the load.
    Full(Box<QueryEngine>),
    /// The index could not be loaded; every answer is degraded.
    DegradedOnly(FallbackSolver),
}

/// Builds the engine configuration shared by `query`, `batch`, and
/// `serve` from the common flags (`0` keeps each engine default).
fn engine_config_from(threads: usize, serve: &ServeFlags) -> Result<EngineConfig> {
    let mut builder = EngineConfig::builder();
    if threads > 0 {
        builder = builder.threads(threads);
    }
    if serve.queue_cap > 0 {
        builder = builder.queue_capacity(serve.queue_cap);
    }
    if serve.deadline_ms > 0 {
        builder = builder.default_deadline(Some(Duration::from_millis(serve.deadline_ms)));
    }
    if serve.block_width > 0 {
        builder = builder.block_width(serve.block_width);
    }
    if serve.resident_mb > 0 {
        builder = builder.spoke_residency_bytes(Some(serve.resident_mb.saturating_mul(1 << 20)));
    }
    builder.build()
}

/// The iterative fallback solver over the edge list at `g_path`.
fn fallback_for(g_path: &str, c: f64) -> Result<FallbackSolver> {
    let g = read_edge_list(Path::new(g_path), None)?;
    FallbackSolver::new(&g, &RwrConfig { c, ..RwrConfig::default() }, DEFAULT_FALLBACK_ITERATIONS)
}

/// The engine over `bear`, with the fallback over `--fallback-graph`
/// attached when the flag is given: what `query`, `batch` and `serve`
/// each serve a loaded index through.
fn engine_for(bear: Bear, config: EngineConfig, serve: &ServeFlags) -> Result<QueryEngine> {
    let bear = Arc::new(bear);
    match &serve.fallback_graph {
        Some(g_path) => {
            let fb = fallback_for(g_path, bear.restart_probability())?;
            QueryEngine::with_fallback(bear, config, Arc::new(fb))
        }
        None => QueryEngine::new(bear, config),
    }
}

/// Builds the serving stack for `query`/`batch`. `threads == 0` keeps
/// the default (all cores). Returns the service plus an optional notice
/// line to print (degraded-only mode names the load failure).
fn load_service(
    index: &str,
    threads: usize,
    serve: &ServeFlags,
) -> Result<(Service, Option<String>)> {
    let config = engine_config_from(threads, serve)?;
    match Bear::load_with(Path::new(index), &config.load_options()) {
        Ok(bear) => Ok((Service::Full(Box::new(engine_for(bear, config, serve)?)), None)),
        Err(load_err) => match &serve.fallback_graph {
            Some(g_path) => {
                let fb = fallback_for(g_path, serve.c)?;
                let notice = format!(
                    "WARNING: index unavailable ({load_err}); serving DEGRADED answers \
                     from the iterative fallback ({} iterations max)",
                    fb.max_iterations()
                );
                Ok((Service::DegradedOnly(fb), Some(notice)))
            }
            None => Err(load_err),
        },
    }
}

/// Answers one seed in degraded-only mode, shaped like an engine answer
/// so both paths print identically.
fn degraded_only_answer(fb: &FallbackSolver, seed: usize) -> Result<Served> {
    let ans = fb.solve(seed)?;
    let info = bear_core::DegradedInfo {
        reason: bear_core::DegradedReason::IndexUnavailable,
        residual: ans.residual,
        error_bound: ans.error_bound(),
        iterations: ans.iterations,
    };
    Ok(Served { scores: Arc::new(ans.scores), degraded: Some(info) })
}

/// One-line degradation tag appended to a served answer's header.
fn degraded_tag(degraded: Option<&DegradedInfo>) -> String {
    match degraded {
        None => String::new(),
        Some(info) => format!(
            " [DEGRADED: {} — {} iterations, error bound {:.3e}]",
            info.reason, info.iterations, info.error_bound
        ),
    }
}

/// Writes the one-line engine metrics report shared by `query` and
/// `batch`.
fn write_metrics(m: &MetricsSnapshot, out: &mut dyn std::io::Write) -> std::io::Result<()> {
    writeln!(
        out,
        "metrics: queries={} cache_hit_rate={:.1}% p50={:?} p95={:?} p99={:?} \
         avg_block_width={:.1} p50_amortized={:?} \
         timeouts={} rejected={} shed={} panics={} degraded={}",
        m.queries,
        m.cache_hit_rate() * 100.0,
        m.p50,
        m.p95,
        m.p99,
        m.avg_block_width(),
        m.p50_amortized,
        m.timeouts,
        m.queue_rejections,
        m.shed_jobs,
        m.worker_panics,
        m.degraded
    )
}

/// Executes a parsed command, writing human-readable output to `out`.
pub fn run(cmd: &Command, out: &mut dyn std::io::Write) -> Result<()> {
    let io_err = |e: std::io::Error| Error::InvalidStructure(format!("output error: {e}"));
    match cmd {
        Command::Help => writeln!(out, "{USAGE}").map_err(io_err),
        Command::Preprocess { graph, index, c, xi, threads, out_of_core } => {
            let g = read_edge_list(Path::new(graph), None)?;
            // `xi` passes through unconditionally (approx(c, 0) == exact(c))
            // so a NaN/negative/infinite tolerance reaches
            // `BearConfig::validate` instead of silently meaning "exact".
            let config = BearConfig { threads: *threads, ..BearConfig::approx(*c, *xi) };
            if *out_of_core {
                let start = std::time::Instant::now();
                bear_core::preprocess_to_disk(&g, &config, Path::new(index))?;
                let elapsed = start.elapsed().as_secs_f64();
                let report = bear_core::persist::verify_index(Path::new(index))?;
                return writeln!(
                    out,
                    "preprocessed {} nodes / {} edges in {elapsed:.3}s (streamed): \
                     n1={} n2={} segments={} bytes={} -> {index} (v{})",
                    g.num_nodes(),
                    g.num_edges(),
                    report.n1,
                    report.n2,
                    report.segments,
                    report.file_len,
                    report.version
                )
                .map_err(io_err);
            }
            let start = std::time::Instant::now();
            let bear = Bear::new(&g, &config)?;
            let elapsed = start.elapsed().as_secs_f64();
            bear.save(Path::new(index))?;
            let st = bear.stats();
            writeln!(
                out,
                "preprocessed {} nodes / {} edges in {elapsed:.3}s (threads={}): \
                 n1={} n2={} blocks={} nnz={} bytes={} -> {index}",
                g.num_nodes(),
                g.num_edges(),
                config.effective_threads(),
                st.n1,
                st.n2,
                st.num_blocks,
                st.total_nnz(),
                st.bytes
            )
            .map_err(io_err)?;
            writeln!(out, "stages: {}", bear.timings().summary()).map_err(io_err)
        }
        Command::Query { index, seed, top, threads, serve } => {
            let (service, notice) = load_service(index, *threads, serve)?;
            if let Some(notice) = notice {
                writeln!(out, "{notice}").map_err(io_err)?;
            }
            let start = std::time::Instant::now();
            // The engine path uses the pruned exact top-k solver; the
            // degraded-only fallback still ranks its full vector.
            let (ranked, degraded, metrics) = match &service {
                Service::Full(engine) => {
                    let served = engine.query_top_k(*seed, *top, &QueryOptions::default())?;
                    (served.nodes.to_vec(), served.degraded, Some(engine.metrics()))
                }
                Service::DegradedOnly(fb) => {
                    let served = degraded_only_answer(fb, *seed)?;
                    (top_k_excluding_seed(&served.scores, *seed, *top), served.degraded, None)
                }
            };
            let elapsed = start.elapsed().as_secs_f64();
            writeln!(
                out,
                "top {} nodes for seed {} ({elapsed:.6}s){}:",
                ranked.len(),
                seed,
                degraded_tag(degraded.as_ref())
            )
            .map_err(io_err)?;
            for s in &ranked {
                writeln!(out, "  {}\t{:.6e}", s.node, s.score).map_err(io_err)?;
            }
            match metrics {
                Some(m) => write_metrics(&m, out).map_err(io_err),
                None => Ok(()),
            }
        }
        Command::Batch { index, seeds, top, threads, serve } => {
            let (service, notice) = load_service(index, *threads, serve)?;
            if let Some(notice) = notice {
                writeln!(out, "{notice}").map_err(io_err)?;
            }
            let start = std::time::Instant::now();
            let (answers, metrics) = match &service {
                Service::Full(engine) => {
                    (engine.serve_batch(seeds, &QueryOptions::default())?, Some(engine.metrics()))
                }
                Service::DegradedOnly(fb) => {
                    let answers = seeds
                        .iter()
                        .map(|&seed| degraded_only_answer(fb, seed))
                        .collect::<Result<Vec<_>>>()?;
                    (answers, None)
                }
            };
            let elapsed = start.elapsed().as_secs_f64();
            let degraded = answers.iter().filter(|s| !s.is_exact()).count();
            writeln!(
                out,
                "answered {} queries in {elapsed:.6}s ({:.1} queries/s, {degraded} degraded):",
                seeds.len(),
                seeds.len() as f64 / elapsed.max(1e-12)
            )
            .map_err(io_err)?;
            for (&seed, served) in seeds.iter().zip(&answers) {
                let ranked = top_k_excluding_seed(&served.scores, seed, *top);
                let line = ranked
                    .iter()
                    .map(|s| format!("{}:{:.6e}", s.node, s.score))
                    .collect::<Vec<_>>()
                    .join(" ");
                writeln!(out, "  seed {seed}{}: {line}", degraded_tag(served.degraded.as_ref()))
                    .map_err(io_err)?;
            }
            match metrics {
                Some(m) => write_metrics(&m, out).map_err(io_err),
                None => Ok(()),
            }
        }
        Command::VerifyIndex { index } => {
            let report = bear_core::persist::verify_index(Path::new(index))?;
            writeln!(
                out,
                "{index}: OK (format v{}, {} bytes, n1={} n2={} c={})",
                report.version, report.file_len, report.n1, report.n2, report.c
            )
            .map_err(io_err)?;
            writeln!(out, "  spoke segments: {} shards, crc ok", report.segments)
                .map_err(io_err)?;
            for s in &report.sections {
                writeln!(out, "  section {}: {} bytes, crc ok", s.tag, s.len).map_err(io_err)?;
            }
            Ok(())
        }
        Command::Serve { graphs, addr, http_threads, threads, serve, for_ms, drain_ms } => {
            if serve.fallback_graph.is_some() && graphs.len() > 1 {
                return Err(Error::InvalidStructure(
                    "--fallback-graph applies to a single served graph".into(),
                ));
            }
            let engine_config = engine_config_from(*threads, serve)?;
            let registry = Arc::new(bear_serve::Registry::new());
            for (name, index) in graphs {
                let bear = Bear::load_with(Path::new(index), &engine_config.load_options())?;
                let engine = engine_for(bear, engine_config.clone(), serve)?;
                let nodes = engine.bear().num_nodes();
                registry.publish(name, Arc::new(engine));
                writeln!(out, "graph '{name}': {nodes} nodes from {index}").map_err(io_err)?;
            }
            let mut server_config = bear_serve::ServerConfig {
                addr: addr.clone(),
                engine_config,
                ..bear_serve::ServerConfig::default()
            };
            if *http_threads > 0 {
                server_config.http_threads = *http_threads;
            }
            if *drain_ms > 0 {
                server_config.drain = Duration::from_millis(*drain_ms);
            }
            let handle = bear_serve::Server::start(registry, server_config)?;
            writeln!(
                out,
                "serving {} graph(s) on http://{} — endpoints: /v1/query /v1/batch \
                 /v1/topk /admin/load /healthz /readyz /metrics",
                graphs.len(),
                handle.addr()
            )
            .map_err(io_err)?;
            out.flush().map_err(io_err)?;
            if *for_ms > 0 {
                std::thread::sleep(Duration::from_millis(*for_ms));
                handle.shutdown();
                writeln!(out, "shut down after {for_ms} ms").map_err(io_err)
            } else {
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        Command::Stats { graph } => {
            let g = read_edge_list(Path::new(graph), None)?;
            let ord = slashburn(&g, &SlashBurnConfig::paper_default(g.num_nodes()))?;
            writeln!(
                out,
                "nodes={} edges={} | slashburn: n1={} n2={} blocks={} \
                 max_block={} sum_block_sq={} iterations={}",
                g.num_nodes(),
                g.num_edges(),
                ord.n_spokes,
                ord.n_hubs,
                ord.block_sizes.len(),
                ord.block_sizes.iter().copied().max().unwrap_or(0),
                ord.sum_block_sq(),
                ord.iterations
            )
            .map_err(io_err)
        }
        Command::Generate { dataset, out: path } => {
            let spec = bear_datasets::dataset_by_name(dataset)
                .ok_or_else(|| Error::InvalidStructure(format!("unknown dataset '{dataset}'")))?;
            let g = spec.load();
            write_edge_list(&g, Path::new(path))?;
            writeln!(
                out,
                "generated {} ({} nodes, {} edges) -> {path}",
                dataset,
                g.num_nodes(),
                g.num_edges()
            )
            .map_err(io_err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Command> {
        parse_command(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_preprocess() {
        let cmd = parse(&[
            "preprocess",
            "g.txt",
            "g.idx",
            "--c",
            "0.1",
            "--xi",
            "1e-4",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Preprocess {
                graph: "g.txt".into(),
                index: "g.idx".into(),
                c: 0.1,
                xi: 1e-4,
                threads: 4,
                out_of_core: false,
            }
        );
        // --threads defaults to 0 (all cores).
        let cmd = parse(&["preprocess", "g.txt", "g.idx"]).unwrap();
        assert!(matches!(cmd, Command::Preprocess { threads: 0, out_of_core: false, .. }));
        // --out-of-core switches to the streamed writer.
        let cmd = parse(&["preprocess", "g.txt", "g.idx", "--out-of-core"]).unwrap();
        assert!(matches!(cmd, Command::Preprocess { out_of_core: true, .. }));
    }

    /// Integer flags are parsed as integers: fractional, negative, or
    /// non-numeric values are usage errors, never silent `as usize`
    /// truncations (`--top 3.9` used to mean `--top 3`).
    #[test]
    fn integer_flags_reject_non_integers() {
        for bad in [
            vec!["query", "g.idx", "1", "--top", "3.9"],
            vec!["query", "g.idx", "1", "--top", "-2"],
            vec!["query", "g.idx", "1", "--threads", "1.5"],
            vec!["batch", "g.idx", "1", "--threads", "-1"],
            vec!["query", "g.idx", "1", "--queue-cap", "64.0"],
            vec!["query", "g.idx", "1", "--deadline-ms", "abc"],
            vec!["batch", "g.idx", "1", "--block-width", "-4"],
            vec!["preprocess", "g.txt", "g.idx", "--threads", "2.5"],
        ] {
            let err = parse(&bad).unwrap_err();
            assert!(
                matches!(err, Error::InvalidStructure(ref m) if m.contains("integer")),
                "{bad:?}: unexpected {err:?}"
            );
        }
        // Well-formed integers still parse.
        assert!(parse(&["query", "g.idx", "1", "--top", "7", "--queue-cap", "64"]).is_ok());
    }

    #[test]
    fn parses_query_with_defaults() {
        let cmd = parse(&["query", "g.idx", "42"]).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                index: "g.idx".into(),
                seed: 42,
                top: 10,
                threads: 0,
                serve: ServeFlags::default(),
            }
        );
    }

    #[test]
    fn parses_batch_with_flags_anywhere() {
        let cmd =
            parse(&["batch", "g.idx", "1", "2", "--top", "3", "7", "--threads", "2"]).unwrap();
        assert_eq!(
            cmd,
            Command::Batch {
                index: "g.idx".into(),
                seeds: vec![1, 2, 7],
                top: 3,
                threads: 2,
                serve: ServeFlags::default(),
            }
        );
    }

    #[test]
    fn parses_serving_flags() {
        let cmd = parse(&[
            "query",
            "g.idx",
            "3",
            "--queue-cap",
            "64",
            "--deadline-ms",
            "250",
            "--block-width",
            "16",
            "--fallback-graph",
            "g.txt",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                index: "g.idx".into(),
                seed: 3,
                top: 10,
                threads: 0,
                serve: ServeFlags {
                    queue_cap: 64,
                    deadline_ms: 250,
                    block_width: 16,
                    fallback_graph: Some("g.txt".into()),
                    c: 0.05,
                    resident_mb: 0,
                },
            }
        );
        // Batch's positional-seed scan must skip the string flag too.
        let cmd = parse(&["batch", "g.idx", "1", "--fallback-graph", "g.txt", "2"]).unwrap();
        assert!(matches!(&cmd, Command::Batch { seeds, serve, .. }
                if *seeds == vec![1, 2] && serve.fallback_graph.as_deref() == Some("g.txt")));
    }

    #[test]
    fn parses_serve_command() {
        let cmd = parse(&[
            "serve",
            "web=web.idx",
            "mail=mail.idx",
            "--addr",
            "0.0.0.0:8080",
            "--http-threads",
            "8",
            "--threads",
            "2",
            "--deadline-ms",
            "100",
            "--for-ms",
            "500",
            "--drain-ms",
            "750",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                graphs: vec![("web".into(), "web.idx".into()), ("mail".into(), "mail.idx".into())],
                addr: "0.0.0.0:8080".into(),
                http_threads: 8,
                threads: 2,
                serve: ServeFlags { deadline_ms: 100, ..ServeFlags::default() },
                for_ms: 500,
                drain_ms: 750,
            }
        );
        // Defaults.
        let cmd = parse(&["serve", "g=g.idx"]).unwrap();
        assert!(
            matches!(cmd, Command::Serve { ref addr, http_threads: 0, for_ms: 0, drain_ms: 0, .. }
            if addr == "127.0.0.1:7171")
        );
        // Malformed pairs and empty graph lists are usage errors.
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", "justapath.idx"]).is_err());
        assert!(parse(&["serve", "=x.idx"]).is_err());
        assert!(parse(&["serve", "g="]).is_err());
    }

    /// End-to-end: preprocess a dataset, serve it over HTTP for a
    /// bounded window, and exercise the full request path (query +
    /// healthz) against the in-memory reference.
    #[test]
    fn serve_command_answers_http_until_deadline() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("bear_cli_serve.txt");
        let index_path = dir.join("bear_cli_serve.idx");
        let mut buf = Vec::new();
        run(
            &Command::Generate {
                dataset: "small_routing".into(),
                out: graph_path.to_string_lossy().into_owned(),
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Preprocess {
                graph: graph_path.to_string_lossy().into_owned(),
                index: index_path.to_string_lossy().into_owned(),
                c: 0.05,
                xi: 0.0,
                threads: 1,
                out_of_core: false,
            },
            &mut buf,
        )
        .unwrap();

        // Bind a registry+server through the library path the command
        // uses, on an ephemeral port we can read back.
        let cmd = Command::Serve {
            graphs: vec![("routing".into(), index_path.to_string_lossy().into_owned())],
            addr: "127.0.0.1:0".into(),
            http_threads: 2,
            threads: 1,
            serve: ServeFlags::default(),
            for_ms: 1200,
            drain_ms: 0,
        };
        // lint:allow(L4, test-capture writer, never contended)
        let out = Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
        let writer = SharedWriter(Arc::clone(&out));
        let server = std::thread::spawn(move || {
            let mut writer = writer;
            run(&cmd, &mut writer)
        });

        // Poll the shared buffer for the bound address.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr: std::net::SocketAddr = loop {
            assert!(std::time::Instant::now() < deadline, "server never reported its address");
            let text = String::from_utf8_lossy(&out.lock().unwrap()).into_owned();
            if let Some(rest) = text.split("http://").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    break addr.parse().unwrap();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let resp = bear_serve::client::get(addr, "/healthz", &[]).unwrap();
        assert_eq!(resp.status, 200);
        let resp = bear_serve::client::get(addr, "/v1/query?graph=routing&seed=0", &[]).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let scores = bear_serve::client::json_number_array(&resp.body_str(), "scores").unwrap();
        let reference = Bear::load(&index_path).unwrap().query(0).unwrap();
        assert_eq!(scores.len(), reference.len());
        for (got, want) in scores.iter().zip(&reference) {
            assert_eq!(got.to_bits(), want.to_bits());
        }

        server.join().unwrap().unwrap();
        let text = String::from_utf8_lossy(&out.lock().unwrap()).into_owned();
        assert!(text.contains("graph 'routing'"), "{text}");
        assert!(text.contains("shut down after 1200 ms"), "{text}");

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&index_path).ok();
    }

    /// `Write` adapter the serve test uses to watch command output from
    /// another thread.
    // lint:allow(L4, test-capture writer, never contended)
    struct SharedWriter(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn exit_codes_distinguish_fault_classes() {
        use std::time::Duration;
        assert_eq!(exit_code(&Error::Timeout { budget: Duration::from_millis(5) }), 3);
        assert_eq!(exit_code(&Error::QueueFull { capacity: 8 }), 4);
        assert_eq!(exit_code(&Error::PoolShutDown), 1);
        assert_eq!(exit_code(&Error::InvalidStructure("x".into())), 1);
        assert_eq!(
            exit_code(&Error::CorruptIndex { section: "meta", detail: "bad crc".into() }),
            5
        );
    }

    #[test]
    fn parses_verify_index() {
        assert_eq!(
            parse(&["verify-index", "g.idx"]).unwrap(),
            Command::VerifyIndex { index: "g.idx".into() }
        );
        assert!(parse(&["verify-index"]).is_err());
        assert!(parse(&["verify-index", "--flag"]).is_err());
    }

    /// `verify-index` reports every section of a fresh index, fails
    /// typed (exit code 5) on a corrupted one, and exit code 1 on a
    /// missing file — without quarantining anything.
    #[test]
    fn verify_index_distinguishes_ok_corrupt_and_missing() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("bear_cli_verify.txt");
        let index_path = dir.join("bear_cli_verify.idx");
        let mut buf = Vec::new();
        run(
            &Command::Generate {
                dataset: "small_routing".into(),
                out: graph_path.to_string_lossy().into_owned(),
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Preprocess {
                graph: graph_path.to_string_lossy().into_owned(),
                index: index_path.to_string_lossy().into_owned(),
                c: 0.05,
                xi: 0.0,
                threads: 1,
                out_of_core: false,
            },
            &mut buf,
        )
        .unwrap();

        let verify = Command::VerifyIndex { index: index_path.to_string_lossy().into_owned() };
        buf.clear();
        run(&verify, &mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains(": OK (format v4"), "{text}");
        assert!(text.contains("spoke segments: "), "{text}");
        assert!(text.contains("section META: 24 bytes, crc ok"), "{text}");
        assert!(text.contains("section H12M"), "{text}");

        // Flip one payload bit: typed corruption, exit code 5, and the
        // artifact stays where the operator can inspect it.
        let mut bytes = std::fs::read(&index_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&index_path, &bytes).unwrap();
        let err = run(&verify, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::CorruptIndex { .. }), "{err:?}");
        assert_eq!(exit_code(&err), 5);
        assert!(index_path.exists(), "verify must never quarantine");

        std::fs::remove_file(&index_path).ok();
        let err = run(&verify, &mut Vec::new()).unwrap_err();
        assert_eq!(exit_code(&err), 1, "missing file is an error, not corruption: {err:?}");
        std::fs::remove_file(&graph_path).ok();
    }

    /// `query`/`batch` and `serve` load an index resident without
    /// `--resident-mb`, and paged under the cap with it: the pager
    /// exists (and, after a query, has missed) only with the flag.
    #[test]
    fn serving_loads_resident_unless_resident_mb_is_set() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("bear_cli_residency.txt");
        let index_path = dir.join("bear_cli_residency.idx");
        let index = index_path.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let graph = graph_path.to_string_lossy().into_owned();
        run(&Command::Generate { dataset: "small_routing".into(), out: graph.clone() }, &mut buf)
            .unwrap();
        let preprocess = Command::Preprocess {
            graph,
            index: index.clone(),
            c: 0.05,
            xi: 0.0,
            threads: 1,
            out_of_core: false,
        };
        run(&preprocess, &mut buf).unwrap();
        for resident_mb in [0, 1] {
            let serve = ServeFlags { resident_mb, ..ServeFlags::default() };
            let Ok((Service::Full(engine), None)) = load_service(&index, 1, &serve) else {
                panic!("the index must load");
            };
            assert_eq!(engine.bear().pager().is_some(), resident_mb > 0, "{resident_mb} MiB");

            let cmd = Command::Serve {
                graphs: vec![("g".into(), index.clone())],
                addr: "127.0.0.1:0".into(),
                http_threads: 1,
                threads: 1,
                serve,
                for_ms: 1500,
                drain_ms: 0,
            };
            // lint:allow(L4, test-capture writer, never contended)
            let out = Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
            let writer = SharedWriter(Arc::clone(&out));
            let server = std::thread::spawn(move || run(&cmd, &mut { writer }));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let addr: std::net::SocketAddr = loop {
                assert!(std::time::Instant::now() < deadline, "server never reported its address");
                let text = String::from_utf8_lossy(&out.lock().unwrap()).into_owned();
                if let Some(rest) = text.split("http://").nth(1) {
                    break rest.split_whitespace().next().unwrap().parse().unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            };
            let resp = bear_serve::client::get(addr, "/v1/query?graph=g&seed=3", &[]).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
            let metrics = bear_serve::client::get(addr, "/metrics", &[]).unwrap().body_str();
            let misses = metrics
                .lines()
                .find_map(|l| l.strip_prefix("bear_pager_misses_total{graph=\"g\"} "))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap();
            assert_eq!(misses > 0, resident_mb > 0, "{resident_mb} MiB: {misses} misses");
            server.join().unwrap().unwrap();
        }
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&index_path).ok();
    }

    /// An index of a retired format (`BEARIDX1`, `BEARIDX2`, `BEARIDX3`)
    /// is no longer read: load, verification and the quarantining load
    /// all fail typed on the header with a detail that names the format
    /// and says how to replace the file, and `verify-index` exits with
    /// code 5.
    #[test]
    fn retired_index_formats_are_rejected_typed() {
        for (magic, v) in [(b"BEARIDX1", 1), (b"BEARIDX2", 2), (b"BEARIDX3", 3)] {
            let path = std::env::temp_dir().join(format!("bear_cli_v{v}.idx"));
            let quarantined = std::env::temp_dir().join(format!("bear_cli_v{v}.idx.corrupt"));
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&[7u8; 64]);
            std::fs::write(&path, &bytes).unwrap();
            let assert_header = |err: &Error| match err {
                Error::CorruptIndex { section: "header", detail } => assert!(
                    detail.contains(&format!("format v{v} (BEARIDX{v})"))
                        && detail.contains("bear preprocess"),
                    "detail must name the format and the fix: {detail}"
                ),
                other => panic!("want a typed header error, got {other:?}"),
            };
            assert_header(&Bear::load(&path).unwrap_err());
            assert_header(&bear_core::persist::verify_index(&path).unwrap_err());
            let verify = Command::VerifyIndex { index: path.to_string_lossy().into_owned() };
            let err = run(&verify, &mut Vec::new()).unwrap_err();
            assert_header(&err);
            assert_eq!(exit_code(&err), 5);

            std::fs::remove_file(&quarantined).ok();
            assert_header(&Bear::load_or_quarantine(&path).unwrap_err());
            assert!(!path.exists() && quarantined.exists(), "a v{v} file must be quarantined");
            std::fs::remove_file(&quarantined).ok();
        }
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&["preprocess", "only-one"]).is_err());
        assert!(parse(&["query", "idx", "notanumber"]).is_err());
        assert!(parse(&["batch", "idx"]).is_err());
        assert!(parse(&["batch", "idx", "3", "oops"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_generate_preprocess_query_stats() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("bear_cli_e2e.txt");
        let index_path = dir.join("bear_cli_e2e.idx");
        let mut buf = Vec::new();

        run(
            &Command::Generate {
                dataset: "small_routing".into(),
                out: graph_path.to_string_lossy().into_owned(),
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("generated small_routing"));

        buf.clear();
        run(
            &Command::Preprocess {
                graph: graph_path.to_string_lossy().into_owned(),
                index: index_path.to_string_lossy().into_owned(),
                c: 0.05,
                xi: 0.0,
                threads: 2,
                out_of_core: false,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("preprocessed"));
        assert!(text.contains("threads=2"));
        assert!(text.contains("stages:"), "missing stage timings: {text}");
        assert!(text.contains("factor_h11="));
        assert!(text.contains("total="));

        buf.clear();
        run(
            &Command::Query {
                index: index_path.to_string_lossy().into_owned(),
                seed: 0,
                top: 5,
                threads: 1,
                serve: ServeFlags::default(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("top 5 nodes for seed 0"));
        assert!(!text.contains("DEGRADED"), "healthy index must serve exact: {text}");
        assert_eq!(text.lines().count(), 7); // header + 5 rows + metrics
        assert!(text.contains("metrics: queries=1"));

        buf.clear();
        run(
            &Command::Batch {
                index: index_path.to_string_lossy().into_owned(),
                seeds: vec![0, 3, 0],
                top: 4,
                threads: 2,
                serve: ServeFlags::default(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("answered 3 queries"));
        assert!(text.contains("0 degraded"));
        assert!(text.contains("seed 0:"));
        assert!(text.contains("seed 3:"));
        // Duplicate seed 0 must register cache hits.
        assert!(text.contains("cache_hit_rate="));
        assert!(!text.contains("cache_hit_rate=0.0%"), "batch should hit the cache: {text}");

        buf.clear();
        run(&Command::Stats { graph: graph_path.to_string_lossy().into_owned() }, &mut buf)
            .unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("slashburn:"));

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&index_path).ok();
    }

    /// A NaN/negative/infinite `--xi` must be rejected by the config
    /// boundary, not silently collapse to exact mode.
    #[test]
    fn preprocess_rejects_invalid_drop_tolerance() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("bear_cli_bad_xi.txt");
        let mut buf = Vec::new();
        run(
            &Command::Generate {
                dataset: "small_routing".into(),
                out: graph_path.to_string_lossy().into_owned(),
            },
            &mut buf,
        )
        .unwrap();
        for xi in [f64::NAN, -0.5, f64::INFINITY] {
            let err = run(
                &Command::Preprocess {
                    graph: graph_path.to_string_lossy().into_owned(),
                    index: dir.join("bear_cli_bad_xi.idx").to_string_lossy().into_owned(),
                    c: 0.05,
                    xi,
                    threads: 1,
                    out_of_core: false,
                },
                &mut buf,
            )
            .unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig { param: "drop_tolerance", .. }),
                "xi = {xi}: unexpected {err:?}"
            );
        }
        std::fs::remove_file(&graph_path).ok();
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let mut buf = Vec::new();
        assert!(run(
            &Command::Generate { dataset: "nope".into(), out: "/tmp/x.txt".into() },
            &mut buf
        )
        .is_err());
    }

    #[test]
    fn query_rejects_missing_index() {
        let mut buf = Vec::new();
        assert!(run(
            &Command::Query {
                index: "/nonexistent/path.idx".into(),
                seed: 0,
                top: 5,
                threads: 0,
                serve: ServeFlags::default(),
            },
            &mut buf
        )
        .is_err());
    }

    /// With `--fallback-graph`, a missing/corrupt index serves degraded
    /// answers instead of exiting: the whole graceful-degradation ladder
    /// from the CLI's point of view.
    #[test]
    fn degraded_only_mode_serves_when_index_is_unavailable() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("bear_cli_degraded.txt");
        let mut buf = Vec::new();
        run(
            &Command::Generate {
                dataset: "small_routing".into(),
                out: graph_path.to_string_lossy().into_owned(),
            },
            &mut buf,
        )
        .unwrap();

        let serve = ServeFlags {
            fallback_graph: Some(graph_path.to_string_lossy().into_owned()),
            ..ServeFlags::default()
        };
        buf.clear();
        run(
            &Command::Query {
                index: "/nonexistent/path.idx".into(),
                seed: 0,
                top: 5,
                threads: 0,
                serve: serve.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("WARNING: index unavailable"));
        assert!(text.contains("DEGRADED: index unavailable"));
        assert!(text.contains("error bound"));

        buf.clear();
        run(
            &Command::Batch {
                index: "/nonexistent/path.idx".into(),
                seeds: vec![0, 1],
                top: 3,
                threads: 0,
                serve,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("2 degraded"));

        std::fs::remove_file(&graph_path).ok();
    }
}
