//! The serving layer: persistent worker pool, top-k result cache,
//! admission control, deadlines, and the public [`QueryEngine`] API.
//!
//! Everything here drives real OS threads and wall-clock timers, so the
//! whole module is compiled out under `cfg(loom)`; the synchronization
//! skeleton it is built on ([`JobQueue`], [`Metrics`]) lives in sibling
//! modules and *is* model-checked.
//!
//! # One request path
//!
//! [`QueryEngine::serve`], [`QueryEngine::serve_batch`] and
//! [`QueryEngine::query_top_k`] are thin wrappers over one pipeline:
//! validate the seeds, probe the top-k cache, admit the distinct misses
//! as one job, answer it, wait under the deadline, and degrade per seed.
//! A repeated seed within a request is solved once and its repeats count
//! as cache hits. One function answers a job, whether on a pool worker
//! or inline on the submitting thread: a request without a deadline runs
//! inline when the engine's spare buffers are free. A full-vector job is
//! one multi-RHS solve as wide as the job, so each of its spoke sweeps
//! fetches every touched shard once for all of the request's seeds
//! ([`EngineConfig::block_width`] is accepted and unused). The solve's
//! answers are bit-identical to width-1 answers at every width (see
//! DESIGN.md §13); [`Metrics`] records the realized block-width
//! histogram and per-query amortized latency.
//!
//! # Fault tolerance
//!
//! The engine can say "no" and "slower" instead of hanging or growing
//! without bound (see DESIGN.md §11):
//!
//! * **Admission control** — the job queue is bounded
//!   ([`EngineConfig::queue_capacity`]); overload either sheds load with
//!   [`Error::QueueFull`] ([`OverloadPolicy::Reject`]) or backpressures
//!   the caller up to its deadline budget ([`OverloadPolicy::Block`]).
//! * **Deadlines** — a per-request budget ([`QueryOptions::deadline`], or
//!   the engine-wide [`EngineConfig::default_deadline`]) is enforced at
//!   admission, on the caller's wait, *and* before a job's solve: a job
//!   whose deadline already passed is shed unanswered-by-computation,
//!   replying [`Error::Timeout`] instead of wasting pool time. A solve
//!   that has started runs to its end, but the caller's wait still
//!   returns [`Error::Timeout`] at the deadline.
//! * **Cancellation** — every job carries a [`CancelToken`]; a caller
//!   that gives up (or times out) cancels it so abandoned work stops
//!   consuming workers.
//! * **Degradation** — with a [`FallbackSolver`] attached
//!   ([`QueryEngine::with_fallback`]), timeouts, overload rejections, and
//!   worker panics become a bounded-iteration power-method answer tagged
//!   with a [`DegradedReason`] and residual, instead of an error.

use super::metrics::Metrics;
use super::queue::JobQueue;
use super::{MetricsSnapshot, QueryWorkspace};
use crate::fallback::{DegradedReason, FallbackSolver};
use crate::precompute::Bear;
use crate::query::Rhs;
use crate::topk::{top_k_excluding_seed, ScoredNode};
use crate::topk_pruned::TopKPruneOptions;
use bear_sparse::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
// Locks go through the `crate::sync` shim (L4): under `cfg(not(loom))` —
// the only configuration this module compiles in — it re-exports
// `std::sync::Mutex` unchanged, and keeping the import shim-shaped means
// any future move of this code into the loom-modeled core needs no
// rewrite.
use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Bounded LRU cache
// ---------------------------------------------------------------------------

/// Minimal bounded LRU: a `HashMap` with a monotonically increasing use
/// stamp per entry. Eviction scans for the stale entry — O(capacity), which
/// is fine for the small bounded capacities the engine uses and keeps the
/// implementation dependency-free.
struct LruCache<K, V> {
    capacity: usize,
    stamp: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    fn new(capacity: usize) -> Self {
        LruCache { capacity, stamp: 0, map: HashMap::with_capacity(capacity) }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(s, v)| {
            *s = stamp;
            v.clone()
        })
    }

    fn insert(&mut self, key: K, value: V) {
        // A zero-capacity cache stores nothing. Without this guard the
        // eviction scan below finds no victim on the empty map and the
        // insert proceeds anyway — growing the map without bound.
        if self.capacity == 0 {
            return;
        }
        self.stamp += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.stamp, value));
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// What [`QueryEngine`] does when a query arrives and the job queue is
/// already at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Shed load: fail the query immediately with [`Error::QueueFull`]
    /// (or degrade it, when a fallback is attached).
    #[default]
    Reject,
    /// Backpressure: block the submitting caller until space frees up or
    /// its deadline budget runs out ([`Error::Timeout`]).
    Block,
}

/// Configuration for [`QueryEngine`]. Validated at engine construction
/// ([`EngineConfig::validate`]); build one with [`EngineConfig::builder`]
/// to validate eagerly.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads in the persistent pool. Must be ≥ 1; rejected with
    /// [`Error::InvalidConfig`] otherwise (no silent clamping).
    pub threads: usize,
    /// How many seeds' top-k answers the cache holds; `0` disables it.
    /// Full score vectors are never cached.
    pub cache_capacity: usize,
    /// Admission-control bound on queued jobs. Must be ≥ 1. Queue memory
    /// is proportional to this bound no matter how overloaded the engine
    /// gets.
    pub queue_capacity: usize,
    /// What to do when the queue is full; see [`OverloadPolicy`].
    pub overload: OverloadPolicy,
    /// Deadline budget applied to queries that do not carry their own
    /// ([`QueryOptions::deadline`]). `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Accepted for compatibility and otherwise unused: a request's
    /// distinct misses are always one solve as wide as the request, so
    /// every spoke shard is fetched once per sweep for all of them. Must
    /// still be ≥ 1 ([`Error::InvalidConfig`] otherwise).
    pub block_width: usize,
    /// Resident-set cap (bytes) applied to the index's block pager at
    /// engine construction, when the [`Bear`] was loaded paged. `None`
    /// leaves the budget from load time untouched; `Some(bytes)` re-caps
    /// the pager (shrinking evicts immediately). Ignored — not an error
    /// — for resident indexes, so one config serves both. It also picks
    /// how a server loads an index ([`EngineConfig::load_options`]).
    pub spoke_residency_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: 1024,
            queue_capacity: 1024,
            overload: OverloadPolicy::Reject,
            default_deadline: None,
            block_width: 8,
            spoke_residency_bytes: None,
        }
    }
}

impl EngineConfig {
    /// How a server built on this configuration loads an index: every
    /// unit resident when no spoke residency cap is set, and paged (the
    /// cap applied by the engine) when one is. Every index-load site of
    /// the serving stack goes through it.
    pub fn load_options(&self) -> crate::LoadOptions {
        crate::LoadOptions {
            resident: self.spoke_residency_bytes.is_none(),
            ..crate::LoadOptions::default()
        }
    }

    /// A builder starting from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: EngineConfig::default() }
    }

    /// Rejects configurations the engine cannot honor.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::InvalidConfig {
                param: "threads",
                reason: "worker pool needs at least one thread".into(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(Error::InvalidConfig {
                param: "queue_capacity",
                reason: "a queue that admits nothing deadlocks every query".into(),
            });
        }
        if self.block_width == 0 {
            return Err(Error::InvalidConfig {
                param: "block_width",
                reason: "a zero-width block answers nothing; use 1 to answer seed by seed".into(),
            });
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`]; [`EngineConfigBuilder::build`] validates.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads in the persistent pool (must be ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Top-k cache capacity in seeds (`0` disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Admission-control bound on queued jobs (must be ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Overload policy when the queue is full.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.config.overload = policy;
        self
    }

    /// Default per-query deadline budget.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.default_deadline = deadline;
        self
    }

    /// Accepted for compatibility and unused (must be ≥ 1; see
    /// [`EngineConfig::block_width`]).
    pub fn block_width(mut self, width: usize) -> Self {
        self.config.block_width = width;
        self
    }

    /// Resident-set cap for a paged index; ignored for resident indexes.
    /// See [`EngineConfig::spoke_residency_bytes`].
    pub fn spoke_residency_bytes(mut self, bytes: Option<u64>) -> Self {
        self.config.spoke_residency_bytes = bytes;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

// ---------------------------------------------------------------------------
// Per-query options, cancellation, degradation tags
// ---------------------------------------------------------------------------

/// Cooperative cancellation handle shared between a caller and its
/// dispatched jobs. Cloning shares the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every job holding a clone observes it at
    /// dequeue and is shed instead of computed.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Per-request options for [`QueryEngine::serve`], [`QueryEngine::serve_batch`]
/// and [`QueryEngine::query_top_k`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Deadline budget for this call; `None` falls back to
    /// [`EngineConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Cancellation token observed before a job's solve. The engine
    /// creates an internal one when absent, so abandoning a timed-out
    /// request always stops its queued work.
    pub cancel: Option<CancelToken>,
}

/// How and why an answer was produced by the degraded path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedInfo {
    /// Which fault triggered the fallback.
    pub reason: DegradedReason,
    /// L1 change of the fallback's final power iteration.
    pub residual: f64,
    /// Upper bound on the L1 distance to the exact answer.
    pub error_bound: f64,
    /// Power iterations the fallback performed.
    pub iterations: usize,
}

/// One served answer: exact (from the BEAR index) when `degraded` is
/// `None`, otherwise a bounded-iteration approximation tagged with why.
#[derive(Debug, Clone)]
pub struct Served {
    /// RWR scores of every node w.r.t. the queried seed.
    pub scores: Arc<Vec<f64>>,
    /// Present iff the answer came from the degraded fallback path.
    pub degraded: Option<DegradedInfo>,
}

impl Served {
    /// Whether this is the exact BEAR answer.
    pub fn is_exact(&self) -> bool {
        self.degraded.is_none()
    }
}

/// One served top-k answer: exact ranks and scores when `degraded` is
/// `None`, otherwise the selection over a degraded full vector, tagged
/// with why.
#[derive(Debug, Clone)]
pub struct TopKServed {
    /// The best-scoring non-seed nodes, descending (ties by node id).
    pub nodes: Arc<Vec<ScoredNode>>,
    /// Present iff the answer came from the degraded fallback path.
    pub degraded: Option<DegradedInfo>,
}

impl TopKServed {
    /// Whether this is the exact BEAR answer.
    pub fn is_exact(&self) -> bool {
        self.degraded.is_none()
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// What a request asks for, per seed.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The full n-vector of RWR scores.
    Full,
    /// The top `k` non-seed nodes, exact, by the pruned top-k path.
    TopK(usize),
}

/// One seed's answer, shaped by the request's [`Kind`].
#[derive(Clone)]
enum Payload {
    Scores(Arc<Vec<f64>>),
    Ranked(Arc<Vec<ScoredNode>>),
}

impl Kind {
    /// Shapes `seed`'s full score vector into this kind's answer.
    fn shape(self, seed: usize, scores: Vec<f64>) -> Payload {
        match self {
            Kind::Full => Payload::Scores(Arc::new(scores)),
            Kind::TopK(k) => Payload::Ranked(Arc::new(top_k_excluding_seed(&scores, seed, k))),
        }
    }
}

/// A request's deadline and cancellation, checked before a job's solve
/// and again between its two halves.
#[derive(Clone)]
struct Limits {
    deadline: Option<Instant>,
    /// Original budget, for [`Error::Timeout`] reporting.
    budget: Option<Duration>,
    cancel: CancelToken,
}

impl Limits {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn timeout(&self) -> Error {
        Error::Timeout { budget: self.budget.unwrap_or_default() }
    }

    /// The error to shed a job with, counted in `metrics`, if the
    /// deadline passed or the caller cancelled; `Ok` otherwise.
    fn check(&self, metrics: &Metrics) -> Result<()> {
        let shed = if self.expired() {
            metrics.record_timeout();
            self.timeout()
        } else if self.cancel.is_cancelled() {
            Error::Cancelled
        } else {
            return Ok(());
        };
        metrics.record_shed();
        Err(shed)
    }
}

/// One admitted request's cache misses: distinct seeds that one thread
/// answers with one solve and one reply.
struct Job {
    seeds: Vec<usize>,
    kind: Kind,
    limits: Limits,
    reply: Sender<Reply>,
}

/// A job's seeds with their answers in the same order, or the fault
/// that stopped the job.
type Reply = (Vec<usize>, Result<Vec<Payload>>);

/// A request's solved seeds, each with the latency at which its answer
/// reached the caller.
type Solved = HashMap<usize, (Result<Payload>, Duration)>;

/// The workspace one thread answers jobs with, reused across requests
/// and allocated on first use.
struct Scratch {
    ws: Option<QueryWorkspace>,
}

impl Scratch {
    fn new() -> Self {
        Scratch { ws: None }
    }

    /// Exact answers for `seeds` (validated by the caller), in order:
    /// pruned top-k seed by seed, or else one multi-RHS solve of every
    /// seed, written straight into one fresh answer vector per seed,
    /// whose scores are bit-identical to [`Bear::query`]. Both run on
    /// the one workspace. The full solve checks `limits` again after its
    /// hub half and, if they ran out, is shed with their error instead
    /// of running the back sweep.
    fn solve(
        &mut self,
        bear: &Bear,
        seeds: &[usize],
        kind: Kind,
        limits: &Limits,
        metrics: &Metrics,
    ) -> Result<Vec<Payload>> {
        let ws = self.ws.get_or_insert_with(|| QueryWorkspace::for_bear(bear));
        if let Kind::TopK(k) = kind {
            return seeds
                .iter()
                .map(|&seed| {
                    let (nodes, stats) =
                        bear.query_top_k_pruned_in(seed, k, &TopKPruneOptions::default(), ws)?;
                    metrics.record_topk_pruned(&stats);
                    Ok(Payload::Ranked(Arc::new(nodes)))
                })
                .collect();
        }
        let rhs = Rhs::Seeds(seeds);
        let solved = bear.hub_half(rhs, ws).and_then(|()| limits.check(metrics)).and_then(|()| {
            let mut answers: Vec<Vec<f64>> =
                seeds.iter().map(|_| vec![0.0; bear.num_nodes()]).collect();
            bear.spoke_half_into(rhs, ws, &mut answers)?;
            Ok(answers)
        });
        if seeds.len() > RETAINED_WIDTH {
            self.ws = None;
        }
        Ok(solved?.into_iter().zip(seeds).map(|(scores, &seed)| kind.shape(seed, scores)).collect())
    }
}

/// The widest job whose workspace a thread keeps for the next one. A
/// wider job still runs as one solve, but its `n₁ × k` spoke block is
/// released afterwards. Measured on `bear serve` over `web_bs_like`
/// (2 MiB cap, two engine threads, RSS after three `/v1/batch` calls of
/// `W` seeds), releasing and keeping left the same RSS up to `W` = 65
/// (44–45 MiB, mostly answers and response bodies the allocator holds
/// on to), while at `W` = 128, 256 and 1,024 releasing left 58, 144 and
/// 147 MiB against 81, 151 and 226 MiB. So the threshold only has to
/// lie below about 128; 64 keeps the workspace of every request up to
/// four times `batch_paged`'s 16 seeds.
const RETAINED_WIDTH: usize = 64;

/// Persistent concurrent query server over a preprocessed [`Bear`] index.
///
/// Every call goes through one request path: validate the seeds, probe
/// the top-k cache, admit the distinct misses as one job, answer it with
/// one solve, wait under the deadline, and degrade per seed when a fallback
/// is attached. Workers are spawned once at construction and keep their
/// buffers for life; the submitting thread answers its own request
/// inline when it has no deadline and the engine's spare buffers are
/// free. Dropping the engine shuts the pool down cleanly.
///
/// ```
/// use std::sync::Arc;
/// use bear_core::{Bear, BearConfig};
/// use bear_core::engine::{EngineConfig, QueryEngine, QueryOptions};
/// use bear_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]).unwrap();
/// let bear = Arc::new(Bear::new(&g, &BearConfig::default()).unwrap());
/// let engine = QueryEngine::new(Arc::clone(&bear), EngineConfig::default()).unwrap();
/// let served = engine.serve(0, &QueryOptions::default()).unwrap();
/// assert_eq!(*served.scores, bear.query(0).unwrap()); // bit-identical
/// ```
pub struct QueryEngine {
    bear: Arc<Bear>,
    queue: Arc<JobQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Spare buffers with which a submitting thread answers its own
    /// request inline.
    caller: Mutex<Scratch>,
    topk_cache: Option<Mutex<TopKCache>>,
    metrics: Arc<Metrics>,
    fallback: Option<Arc<FallbackSolver>>,
    overload: OverloadPolicy,
    default_deadline: Option<Duration>,
}

/// Top-k answers keyed by seed, holding the *largest-k* entry computed
/// so far: any request for `k' ≤ len` is served by prefix truncation
/// (the selection order is a strict total order, so the k'-prefix of a
/// k-answer *is* the k'-answer). Keying by `(seed, k)` — the old scheme
/// — made a `(seed, 10)` entry useless for a later `(seed, 5)` request.
type TopKCache = LruCache<usize, Arc<Vec<ScoredNode>>>;

impl QueryEngine {
    /// Validates `config`, spawns the worker pool, and returns a
    /// ready-to-serve engine.
    pub fn new(bear: Arc<Bear>, config: EngineConfig) -> Result<Self> {
        Self::build(bear, config, None)
    }

    /// Like [`QueryEngine::new`], with a degraded-mode solver attached:
    /// timeouts, overload rejections, and worker panics are answered from
    /// `fallback` instead of failing.
    pub fn with_fallback(
        bear: Arc<Bear>,
        config: EngineConfig,
        fallback: Arc<FallbackSolver>,
    ) -> Result<Self> {
        if fallback.num_nodes() != bear.num_nodes() {
            return Err(Error::InvalidConfig {
                param: "fallback",
                reason: format!(
                    "fallback solver serves {} nodes but the index has {}",
                    fallback.num_nodes(),
                    bear.num_nodes()
                ),
            });
        }
        Self::build(bear, config, Some(fallback))
    }

    fn build(
        bear: Arc<Bear>,
        config: EngineConfig,
        fallback: Option<Arc<FallbackSolver>>,
    ) -> Result<Self> {
        config.validate()?;
        if let Some(bytes) = config.spoke_residency_bytes {
            if let Some(pager) = bear.spokes.pager() {
                let cap = usize::try_from(bytes).unwrap_or(usize::MAX);
                pager.set_budget(Some(cap))?;
            }
        }
        let queue = Arc::new(JobQueue::bounded(config.queue_capacity));
        let metrics = Arc::new(Metrics::new());
        let mut workers = Vec::with_capacity(config.threads);
        for i in 0..config.threads {
            let bear = Arc::clone(&bear);
            let worker_queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let spawned = std::thread::Builder::new()
                .name(format!("bear-query-{i}"))
                .spawn(move || worker_loop(&bear, &worker_queue, &metrics));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Typed error instead of a panic: close the queue so
                    // the workers already spawned exit their pop loops,
                    // join them, and report which spawn failed.
                    queue.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(Error::InvalidConfig {
                        param: "threads",
                        reason: format!("failed to spawn query worker {i}: {e}"),
                    });
                }
            }
        }
        Ok(QueryEngine {
            caller: Mutex::new(Scratch::new()),
            bear,
            queue,
            workers,
            topk_cache: (config.cache_capacity > 0)
                .then(|| Mutex::new(LruCache::new(config.cache_capacity))),
            metrics,
            fallback,
            overload: config.overload,
            default_deadline: config.default_deadline,
        })
    }

    /// The index this engine serves.
    pub fn bear(&self) -> &Bear {
        &self.bear
    }

    /// Point-in-time serving metrics. When the index is paged, the
    /// pager's counters are merged into the snapshot here; the
    /// [`Metrics`] sink itself stays pager-unaware.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(pager) = self.bear.spokes.pager() {
            let stats = pager.stats();
            snap.pager_hits = stats.hits;
            snap.pager_misses = stats.misses;
            snap.pager_evictions = stats.evictions;
            snap.pager_resident_bytes = stats.resident_bytes;
            snap.pager_resident_blocks = stats.resident_blocks;
        }
        snap
    }

    /// Jobs currently waiting in the (bounded) queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// RWR scores of every node w.r.t. `seed`, bit-identical to
    /// [`Bear::query`] — exact within the deadline budget when possible,
    /// otherwise, with a fallback attached, a bounded-iteration degraded
    /// answer tagged with the triggering fault. Without a fallback,
    /// faults surface as typed errors.
    pub fn serve(&self, seed: usize, opts: &QueryOptions) -> Result<Served> {
        self.serve_batch(&[seed], opts)?.pop().ok_or_else(|| internal("no answer"))
    }

    /// [`QueryEngine::serve`] over many seeds, in seed order, as one
    /// request: seeds are validated upfront, a repeated seed is solved
    /// once, and the distinct seeds are answered by one solve on one
    /// thread, which fetches each spoke shard once per sweep for all of
    /// them.
    /// The deadline budget covers the whole request; a seed its fault
    /// reaches degrades (or fails the call) on its own.
    pub fn serve_batch(&self, seeds: &[usize], opts: &QueryOptions) -> Result<Vec<Served>> {
        self.request(seeds, Kind::Full, opts)?
            .into_iter()
            .map(|(payload, degraded)| match payload {
                Payload::Scores(scores) => Ok(Served { scores, degraded }),
                Payload::Ranked(_) => Err(internal("ranked answer to a full request")),
            })
            .collect()
    }

    /// The `k` most relevant nodes w.r.t. `seed` (seed excluded) — ranks
    /// and scores identical to [`Bear::query_top_k`], computed by the
    /// pruned path ([`Bear::query_top_k_pruned_in`]) and cached per seed.
    ///
    /// Runs through the same request path as [`QueryEngine::serve`]: an
    /// expired deadline fails fast with [`Error::Timeout`], and with a
    /// fallback attached, faults produce a degraded selection tagged in
    /// [`TopKServed::degraded`] (never cached). `k = 0` returns an empty
    /// answer; HTTP callers reject it earlier with `400` (see the serve
    /// crate).
    pub fn query_top_k(&self, seed: usize, k: usize, opts: &QueryOptions) -> Result<TopKServed> {
        let n = self.bear.num_nodes();
        let k = k.min(n.saturating_sub(1));
        if k == 0 && seed < n {
            return Ok(TopKServed { nodes: Arc::new(Vec::new()), degraded: None });
        }
        let (payload, degraded) = self
            .request(&[seed], Kind::TopK(k), opts)?
            .pop()
            .ok_or_else(|| internal("no answer"))?;
        match payload {
            Payload::Ranked(nodes) => Ok(TopKServed { nodes, degraded }),
            Payload::Scores(_) => Err(internal("full answer to a top-k request")),
        }
    }

    /// The one request path: validates `seeds`, probes the top-k cache,
    /// admits the distinct misses as one job, waits for them under the
    /// deadline, and degrades per seed when a fallback is attached.
    /// Answers come back in seed order; a repeated seed is solved once,
    /// and each repeat counts as a cache hit.
    fn request(
        &self,
        seeds: &[usize],
        kind: Kind,
        opts: &QueryOptions,
    ) -> Result<Vec<(Payload, Option<DegradedInfo>)>> {
        let start = Instant::now();
        let n = self.bear.num_nodes();
        if let Some(&bad) = seeds.iter().find(|&&s| s >= n) {
            return Err(Error::IndexOutOfBounds { index: bad, bound: n });
        }
        let budget = opts.deadline.or(self.default_deadline);
        let limits = Limits {
            deadline: budget.map(|b| start + b),
            budget,
            cancel: opts.cancel.clone().unwrap_or_default(),
        };

        let mut hits = Vec::with_capacity(seeds.len());
        let mut misses = Vec::new();
        let mut missed = HashSet::new();
        for &seed in seeds {
            let hit = self.cached(seed, kind);
            if hit.is_some() {
                self.metrics.record(true, start.elapsed());
            } else if missed.insert(seed) {
                misses.push(seed);
            }
            hits.push(hit);
        }

        let mut solved = Solved::with_capacity(misses.len());
        let failure = if misses.is_empty() {
            None
        } else {
            self.dispatch(misses, kind, &limits, start, &mut solved).err()
        };
        match &failure {
            Some(Error::QueueFull { .. }) => self.metrics.record_queue_rejection(),
            Some(Error::Timeout { .. }) => self.metrics.record_timeout(),
            _ => {}
        }

        let mut counted = HashSet::with_capacity(solved.len());
        let mut answers = Vec::with_capacity(seeds.len());
        for (&seed, hit) in seeds.iter().zip(hits) {
            if let Some(payload) = hit {
                answers.push((payload, None));
                continue;
            }
            let (result, latency) = match solved.get(&seed) {
                Some((result, latency)) => (result.clone(), *latency),
                None => (
                    Err(failure.clone().unwrap_or_else(|| internal("unanswered seed"))),
                    start.elapsed(),
                ),
            };
            match result {
                Ok(payload) => {
                    let repeat = !counted.insert(seed);
                    if !repeat {
                        self.remember(seed, &payload);
                    }
                    self.metrics.record(repeat, latency);
                    answers.push((payload, None));
                }
                Err(e) => match (degraded_reason(&e), self.fallback.as_deref()) {
                    (Some(reason), Some(fallback)) => {
                        answers.push(self.degrade(fallback, seed, reason, kind)?);
                        self.metrics.record(false, start.elapsed());
                    }
                    _ => return Err(e),
                },
            }
        }
        Ok(answers)
    }

    /// The cached top-k answer for `seed` when it covers `kind`'s k,
    /// truncated to k. Full vectors are never cached.
    fn cached(&self, seed: usize, kind: Kind) -> Option<Payload> {
        let Kind::TopK(k) = kind else { return None };
        let hit = self.topk_cache.as_ref()?.lock().ok()?.get(&seed)?;
        if hit.len() < k {
            return None;
        }
        let nodes =
            if hit.len() == k { hit } else { Arc::new(hit.iter().take(k).copied().collect()) };
        Some(Payload::Ranked(nodes))
    }

    /// Caches an exact top-k answer, unless a longer one is already held
    /// for `seed` (replacing it would throw away prefix hits).
    fn remember(&self, seed: usize, payload: &Payload) {
        let (Some(cache), Payload::Ranked(nodes)) = (&self.topk_cache, payload) else { return };
        if let Ok(mut cache) = cache.lock() {
            if cache.get(&seed).is_none_or(|held| held.len() < nodes.len()) {
                cache.insert(seed, Arc::clone(nodes));
            }
        }
    }

    /// Admits `misses` as one job and files its reply in `solved`.
    /// Admission fails fast when the deadline already passed: a dead job
    /// would hold queue capacity until it is shed. The job then
    /// runs inline on this thread when it has no deadline (a solve cannot
    /// be abandoned midway) and the spare buffers are free, and on the
    /// pool otherwise. An `Err` is the admission or wait fault that
    /// stopped the request.
    fn dispatch(
        &self,
        misses: Vec<usize>,
        kind: Kind,
        limits: &Limits,
        start: Instant,
        solved: &mut Solved,
    ) -> Result<()> {
        crate::fail_point!("queue::push");
        if limits.expired() {
            return Err(limits.timeout());
        }
        let (reply, replies) = channel();
        let job = Job { seeds: misses, kind, limits: limits.clone(), reply };
        let inline = if limits.deadline.is_none() { self.caller.try_lock().ok() } else { None };
        match inline {
            Some(mut scratch) => answer(&self.bear, &mut scratch, job, &self.metrics),
            None => match self.overload {
                OverloadPolicy::Reject => self.queue.push(job)?,
                OverloadPolicy::Block => {
                    let remaining =
                        limits.deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    self.queue.push_blocking(job, remaining)?
                }
            },
        }
        let (seeds, result) = match limits.deadline {
            None => replies.recv().map_err(|_| Error::PoolShutDown)?,
            Some(at) => match replies.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Disconnected) => return Err(Error::PoolShutDown),
                Err(RecvTimeoutError::Timeout) => {
                    // Shed the job if it has not started.
                    limits.cancel.cancel();
                    return Err(limits.timeout());
                }
            },
        };
        let latency = start.elapsed();
        match result {
            Ok(payloads) => {
                solved.extend(seeds.into_iter().zip(payloads).map(|(s, p)| (s, (Ok(p), latency))))
            }
            Err(e) => solved.extend(seeds.into_iter().map(|s| (s, (Err(e.clone()), latency)))),
        }
        Ok(())
    }

    /// Answers one seed from `fallback`, tagged with `reason`. Callers
    /// hand the solver in (matched out of `self.fallback`), so "degrade
    /// without a fallback" is unrepresentable rather than a panic.
    fn degrade(
        &self,
        fallback: &FallbackSolver,
        seed: usize,
        reason: DegradedReason,
        kind: Kind,
    ) -> Result<(Payload, Option<DegradedInfo>)> {
        let answer = fallback.solve(seed)?;
        self.metrics.record_degraded();
        let info = DegradedInfo {
            reason,
            residual: answer.residual,
            error_bound: answer.error_bound(),
            iterations: answer.iterations,
        };
        Ok((kind.shape(seed, answer.scores), Some(info)))
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("nodes", &self.bear.num_nodes())
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.queue.capacity())
            .field("overload", &self.overload)
            .field("default_deadline", &self.default_deadline)
            .field("has_fallback", &self.fallback.is_some())
            .finish_non_exhaustive()
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        // Closing the queue ends every worker's pop loop.
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// An engine bug surfaced as a typed error rather than a panic on the
/// serving path.
fn internal(what: &str) -> Error {
    Error::InvalidStructure(format!("internal: {what}"))
}

/// Which degraded-mode reason (if any) corresponds to a serving fault.
/// `None` means the error is not degradable (e.g. an invalid seed, or a
/// caller-requested cancellation).
fn degraded_reason(e: &Error) -> Option<DegradedReason> {
    match e {
        Error::Timeout { .. } => Some(DegradedReason::DeadlineExceeded),
        Error::QueueFull { .. } => Some(DegradedReason::QueueFull),
        Error::WorkerPanicked { .. } => Some(DegradedReason::WorkerPanicked),
        Error::PoolShutDown => Some(DegradedReason::IndexUnavailable),
        _ => None,
    }
}

/// Worker body: answer jobs until the queue closes.
fn worker_loop(bear: &Bear, queue: &JobQueue<Job>, metrics: &Metrics) {
    let mut scratch = Scratch::new();
    while let Some(job) = queue.pop() {
        answer(bear, &mut scratch, job, metrics);
    }
}

/// Answers one job with one solve and one reply — the one compute
/// function, run by pool workers and by the submitting thread alike. A
/// full-vector job is one solve as wide as the job. Before the solve it
/// sheds the job unanswered if the deadline passed or the caller
/// cancelled: computing answers nobody can use only starves the requests
/// still inside their budget. A full-vector solve checks once more
/// after its hub half (its first spoke sweep), so an abandoned wide job
/// skips its back sweep; a solve is not interrupted otherwise. A panic
/// fails the job, with [`Error::WorkerPanicked`], so the pool survives.
fn answer(bear: &Bear, scratch: &mut Scratch, job: Job, metrics: &Metrics) {
    // Failpoint `queue::pop`: simulate a slow dequeue path so jobs age
    // past their deadline. Only the Delay action makes sense here — pop
    // has no error channel — so that's all this site honors.
    #[cfg(feature = "failpoints")]
    if let Some(crate::failpoints::FailAction::Delay(d)) = crate::failpoints::armed("queue::pop") {
        std::thread::sleep(d);
    }
    let Job { seeds, kind, limits, reply } = job;
    if let Err(e) = limits.check(metrics) {
        let _ = reply.send((seeds, Err(e)));
        return;
    }
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        crate::fail_point!("engine::run_job");
        scratch.solve(bear, &seeds, kind, &limits, metrics)
    }))
    .unwrap_or_else(|_| {
        metrics.record_worker_panic();
        Err(Error::WorkerPanicked { seed: seeds.first().copied().unwrap_or_default() })
    });
    metrics.record_block(seeds.len(), start.elapsed());
    // A caller that hung up no longer wants the answers.
    let _ = reply.send((seeds, result));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::BearConfig;
    use crate::rwr::RwrConfig;
    use bear_graph::Graph;

    fn test_graph(n: usize) -> Graph {
        // Hub-spoke graph with a little extra structure.
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v));
            edges.push((v, 0));
        }
        for v in (1..n.saturating_sub(1)).step_by(3) {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn test_bear(n: usize) -> Arc<Bear> {
        Arc::new(Bear::new(&test_graph(n), &BearConfig::exact(0.15)).unwrap())
    }

    fn config(threads: usize, cache_capacity: usize) -> EngineConfig {
        EngineConfig { threads, cache_capacity, ..EngineConfig::default() }
    }

    fn scores(engine: &QueryEngine, seed: usize) -> Vec<f64> {
        engine.serve(seed, &QueryOptions::default()).unwrap().scores.to_vec()
    }

    fn batch(engine: &QueryEngine, seeds: &[usize]) -> Vec<Vec<f64>> {
        let served = engine.serve_batch(seeds, &QueryOptions::default()).unwrap();
        assert!(served.iter().all(Served::is_exact));
        served.iter().map(|s| s.scores.to_vec()).collect()
    }

    #[test]
    fn engine_matches_sequential_query_bitwise() {
        let bear = test_bear(30);
        let engine = QueryEngine::new(Arc::clone(&bear), config(4, 0)).unwrap();
        for seed in 0..30 {
            assert_eq!(scores(&engine, seed), bear.query(seed).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn engine_batch_matches_sequential_in_order() {
        let bear = test_bear(25);
        let engine = QueryEngine::new(Arc::clone(&bear), config(3, 32)).unwrap();
        let seeds: Vec<usize> = (0..25).rev().collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        assert_eq!(batch(&engine, &seeds), want);
        // A second pass is solved again and stays bit-identical.
        assert_eq!(batch(&engine, &seeds), want);
    }

    #[test]
    fn engine_validates_batch_seeds_upfront() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(2, 4)).unwrap();
        let before = engine.metrics().queries;
        let err = engine.serve_batch(&[0, 3, 99, 5], &QueryOptions::default()).unwrap_err();
        assert_eq!(err, Error::IndexOutOfBounds { index: 99, bound: 10 });
        // Nothing was dispatched: no query was counted.
        assert_eq!(engine.metrics().queries, before);
    }

    /// Full score vectors are never cached: a repeat across requests is
    /// solved again, and only top-k answers count hits.
    #[test]
    fn full_vectors_are_solved_per_request() {
        let bear = test_bear(12);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 16)).unwrap();
        let first = engine.serve(3, &QueryOptions::default()).unwrap();
        let second = engine.serve(3, &QueryOptions::default()).unwrap();
        assert!(!Arc::ptr_eq(&first.scores, &second.scores));
        assert_eq!(*first.scores, bear.query(3).unwrap());
        assert_eq!(*second.scores, *first.scores);
        let m = engine.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, 2);
    }

    /// Within one request a repeated seed is solved once — one column per
    /// distinct seed — and each repeat counts as a cache hit.
    #[test]
    fn repeated_seed_is_solved_once_and_counted_as_hit() {
        let bear = test_bear(12);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 0)).unwrap();
        let got = batch(&engine, &[2, 5, 2]);
        for (g, seed) in got.iter().zip([2, 5, 2]) {
            assert_eq!(*g, bear.query(seed).unwrap(), "seed {seed}");
        }
        let m = engine.metrics();
        assert_eq!(m.block_queries, 2, "one solved column per distinct seed");
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 2);
    }

    #[test]
    fn top_k_matches_bear_and_caches() {
        let bear = test_bear(15);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 16)).unwrap();
        let want = bear.query_top_k(2, 5).unwrap();
        let got = engine.query_top_k(2, 5, &QueryOptions::default()).unwrap();
        assert!(got.is_exact());
        assert_eq!(*got.nodes, want);
        let again = engine.query_top_k(2, 5, &QueryOptions::default()).unwrap();
        assert!(Arc::ptr_eq(&got.nodes, &again.nodes));
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1);
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top_k_smaller_k_hits_cache_with_exact_prefix() {
        let bear = test_bear(15);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 16)).unwrap();
        let full = engine.query_top_k(2, 8, &QueryOptions::default()).unwrap();
        let before = engine.metrics();
        let small = engine.query_top_k(2, 3, &QueryOptions::default()).unwrap();
        let after = engine.metrics();
        assert_eq!(after.cache_hits, before.cache_hits + 1, "k' <= cached k is a hit");
        assert_eq!(small.nodes.len(), 3);
        // The prefix must be the cached answer's prefix, bit for bit.
        for (a, b) in small.nodes.iter().zip(full.nodes.iter()) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // A larger k than cached is a miss and replaces the entry.
        let bigger = engine.query_top_k(2, 10, &QueryOptions::default()).unwrap();
        assert_eq!(bigger.nodes.len(), 10);
        let m2 = engine.metrics();
        assert_eq!(m2.cache_misses, after.cache_misses + 1);
    }

    #[test]
    fn top_k_matches_full_solve_and_selection() {
        let bear = test_bear(15);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 0)).unwrap();
        for seed in 0..15 {
            for k in [1, 4, 14, 20] {
                let got = engine.query_top_k(seed, k, &QueryOptions::default()).unwrap();
                let want = bear.query_top_k(seed, k).unwrap();
                assert_eq!(got.nodes.len(), want.len());
                for (x, y) in got.nodes.iter().zip(want.iter()) {
                    assert_eq!(x.node, y.node);
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
        }
        let m = engine.metrics();
        assert!(m.topk_pruned_queries > 0, "engine records pruning stats");
    }

    #[test]
    fn top_k_zero_k_is_empty_and_uncached() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(1, 16)).unwrap();
        let served = engine.query_top_k(4, 0, &QueryOptions::default()).unwrap();
        assert!(served.nodes.is_empty());
        assert!(served.is_exact());
        let m = engine.metrics();
        assert_eq!(m.cache_hits + m.cache_misses, 0, "k = 0 never touches cache or pool");
        let err = engine.query_top_k(10, 0, &QueryOptions::default()).unwrap_err();
        assert_eq!(err, Error::IndexOutOfBounds { index: 10, bound: 10 });
    }

    #[test]
    fn metrics_percentiles_populate() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(2, 0)).unwrap();
        for seed in 0..10 {
            scores(&engine, seed);
        }
        let m = engine.metrics();
        assert_eq!(m.queries, 10);
        assert_eq!(m.cache_misses, 10);
        assert!(m.p50 > Duration::ZERO);
        assert!(m.p95 >= m.p50);
        assert!(m.p99 >= m.p95);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let bear = test_bear(8);
        let engine = QueryEngine::new(bear, config(1, 0)).unwrap();
        engine.query_top_k(1, 3, &QueryOptions::default()).unwrap();
        engine.query_top_k(1, 3, &QueryOptions::default()).unwrap();
        assert_eq!(engine.metrics().cache_hits, 0);
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache: LruCache<usize, usize> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10)); // refresh 1
        cache.insert(3, 30); // evicts 2
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.len(), 2);
    }

    /// Satellite regression: a zero-capacity cache must store nothing.
    /// Before the guard, the eviction scan found no victim on the empty
    /// map and inserts grew it without bound.
    #[test]
    fn lru_cache_zero_capacity_is_a_hard_noop() {
        let mut cache: LruCache<usize, usize> = LruCache::new(0);
        for i in 0..1000 {
            cache.insert(i, i);
        }
        assert_eq!(cache.len(), 0, "zero-capacity cache must stay empty");
        assert_eq!(cache.get(&0), None);
        assert_eq!(cache.get(&999), None);
    }

    /// Satellite regression: cache hits must be attributed their own
    /// (tiny) latency, not that of the solves around them.
    #[test]
    fn cache_hits_are_attributed_their_own_latency() {
        let bear = test_bear(20);
        let engine = QueryEngine::new(bear, config(2, 64)).unwrap();
        for pass in 0..2 {
            for seed in 0..20 {
                engine.query_top_k(seed, 5, &QueryOptions::default()).unwrap();
            }
            assert_eq!(engine.metrics().cache_hits, pass * 20);
        }
        let m = engine.metrics();
        assert_eq!(m.cache_misses, 20);
        assert!(
            m.p50_hit <= m.p50_miss,
            "hit p50 {:?} must not exceed miss p50 {:?}",
            m.p50_hit,
            m.p50_miss
        );
    }

    #[test]
    fn config_rejects_zero_threads_and_zero_queue() {
        let bear = test_bear(6);
        let err = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig { threads: 0, ..EngineConfig::default() },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "threads", .. }), "{err}");
        let err =
            QueryEngine::new(bear, EngineConfig { queue_capacity: 0, ..EngineConfig::default() })
                .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "queue_capacity", .. }), "{err}");
    }

    #[test]
    fn config_rejects_zero_block_width_and_accepts_overlarge() {
        let bear = test_bear(6);
        let err = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig { block_width: 0, ..EngineConfig::default() },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "block_width", .. }), "{err}");
        // Any positive width is accepted (and unused).
        let cfg = EngineConfig {
            threads: 2,
            queue_capacity: 4,
            block_width: 1_000_000,
            ..EngineConfig::default()
        };
        let engine = QueryEngine::new(Arc::clone(&bear), cfg).unwrap();
        assert_eq!(scores(&engine, 2), bear.query(2).unwrap());
    }

    #[test]
    fn config_builder_validates() {
        let cfg = EngineConfig::builder()
            .threads(2)
            .cache_capacity(8)
            .queue_capacity(16)
            .overload(OverloadPolicy::Block)
            .default_deadline(Some(Duration::from_millis(500)))
            .block_width(4)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.overload, OverloadPolicy::Block);
        assert_eq!(cfg.default_deadline, Some(Duration::from_millis(500)));
        assert_eq!(cfg.block_width, 4);
        assert!(EngineConfig::builder().threads(0).build().is_err());
        assert!(EngineConfig::builder().queue_capacity(0).build().is_err());
        assert!(EngineConfig::builder().block_width(0).build().is_err());
    }

    #[test]
    fn coalesced_batch_is_bitwise_identical_and_counted() {
        let bear = test_bear(40);
        let engine = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig {
                threads: 1,
                cache_capacity: 0,
                queue_capacity: 64,
                block_width: 8,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let seeds: Vec<usize> = (0..40).chain(0..40).collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        assert_eq!(batch(&engine, &seeds), want);
        let m = engine.metrics();
        // The 40 distinct seeds were answered by one width-40 solve; the
        // 40 repeats were hits.
        assert_eq!(m.block_queries, 40);
        assert_eq!(m.block_solves, 1);
        assert_eq!(m.avg_block_width(), 40.0);
        assert_eq!(m.cache_hits, 40);
        let widths: u64 = m.block_width_histogram.iter().sum();
        assert_eq!(widths, m.block_solves);
    }

    /// A request with a deadline never runs inline: its job goes to the
    /// pool, which answers it with one solve all the same.
    #[test]
    fn deadline_request_is_answered_in_blocks_on_the_pool() {
        let bear = test_bear(20);
        let engine = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig { threads: 1, cache_capacity: 0, block_width: 8, ..Default::default() },
        )
        .unwrap();
        let seeds: Vec<usize> = (0..20).collect();
        let opts = QueryOptions { deadline: Some(Duration::from_secs(60)), cancel: None };
        let served = engine.serve_batch(&seeds, &opts).unwrap();
        for (s, &seed) in served.iter().zip(&seeds) {
            assert!(s.is_exact());
            assert_eq!(*s.scores, bear.query(seed).unwrap(), "seed {seed}");
        }
        let m = engine.metrics();
        assert_eq!(m.block_solves, 1, "one solve as wide as the job");
        assert_eq!(m.block_queries, 20);
    }

    /// A thread keeps its workspace across jobs up to
    /// [`RETAINED_WIDTH`] seeds and releases it after a wider one, whose
    /// answers are still bit-identical.
    #[test]
    fn wide_job_releases_its_workspace() {
        let bear = test_bear(RETAINED_WIDTH + 10);
        let metrics = Metrics::new();
        let mut scratch = Scratch::new();
        for width in [RETAINED_WIDTH, RETAINED_WIDTH + 1] {
            let seeds: Vec<usize> = (0..width).collect();
            let answers = scratch.solve(&bear, &seeds, Kind::Full, &no_limits(), &metrics).unwrap();
            for (payload, &seed) in answers.iter().zip(&seeds) {
                let Payload::Scores(scores) = payload else { panic!("ranked answer") };
                assert_eq!(**scores, bear.query(seed).unwrap(), "seed {seed}");
            }
            assert_eq!(scratch.ws.is_some(), width <= RETAINED_WIDTH, "width {width}");
        }
    }

    /// Limits that never shed: no deadline, never cancelled.
    fn no_limits() -> Limits {
        Limits { deadline: None, budget: None, cancel: CancelToken::new() }
    }

    /// A full-vector job whose caller cancels during its solve is shed
    /// after the hub half, with the caller's error and counted as shed,
    /// instead of running its back sweep; the thread's next job is still
    /// answered exactly on the same workspace.
    #[test]
    fn job_cancelled_mid_solve_skips_its_back_sweep() {
        let bear = test_bear(20);
        let metrics = Metrics::new();
        let mut scratch = Scratch::new();
        let seeds: Vec<usize> = (0..12).collect();
        let cancelled = no_limits();
        cancelled.cancel.cancel();
        let err = scratch.solve(&bear, &seeds, Kind::Full, &cancelled, &metrics).err();
        assert_eq!(err, Some(Error::Cancelled));
        let expired = Limits { deadline: Some(Instant::now()), ..no_limits() };
        let err = scratch.solve(&bear, &seeds, Kind::Full, &expired, &metrics).err();
        assert!(matches!(err, Some(Error::Timeout { .. })), "{err:?}");
        let m = metrics.snapshot();
        assert_eq!((m.shed_jobs, m.timeouts), (2, 1));
        let answers = scratch.solve(&bear, &seeds, Kind::Full, &no_limits(), &metrics).unwrap();
        for (payload, &seed) in answers.iter().zip(&seeds) {
            let Payload::Scores(scores) = payload else { panic!("ranked answer") };
            assert_eq!(**scores, bear.query(seed).unwrap(), "seed {seed}");
        }
    }

    /// A hub (node 0) joined to `chains` chains of `len` nodes each:
    /// every chain is its own spoke block.
    fn chains_graph(chains: usize, len: usize) -> Graph {
        let mut edges = Vec::new();
        for ch in 0..chains {
            let first = 1 + ch * len;
            edges.extend([(0, first), (first, 0)]);
            for i in first..first + len - 1 {
                edges.extend([(i, i + 1), (i + 1, i)]);
            }
        }
        Graph::from_edges(1 + chains * len, &edges).unwrap()
    }

    /// Pager fetches (hits plus misses) so far.
    fn fetches(bear: &Bear) -> u64 {
        let st = bear.pager().unwrap().stats();
        st.hits + st.misses
    }

    /// A 16-seed batch at `block_width` 8 on an index paged under a
    /// budget of three shards is one solve: bit-identical to
    /// [`Bear::query`], with exactly the shard fetches of one width-16
    /// `query_block_into` on an equally cold pager, and fewer than two
    /// width-8 calls make. Each spoke sweep fetches a touched shard once
    /// for the whole request, not once per eight seeds.
    #[test]
    fn batch_on_a_paged_index_sweeps_once_per_request() {
        let bear = Bear::new(&chains_graph(48, 30), &BearConfig::exact(0.15)).unwrap();
        let probe = bear.paged_in_memory(None).unwrap();
        let dir = probe.pager().unwrap().directory();
        assert!(dir.len() >= 5, "shards: {dir:?}");
        let budget = 3 * dir.iter().map(|m| m.resident_bytes()).max().unwrap();
        let cold = || bear.paged_in_memory(Some(budget)).unwrap();
        let seeds: Vec<usize> = (0..16).map(|i| 1 + i * 89).collect();

        let engine = QueryEngine::new(
            Arc::new(cold()),
            EngineConfig { threads: 1, cache_capacity: 0, block_width: 8, ..Default::default() },
        )
        .unwrap();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        assert_eq!(batch(&engine, &seeds), want);
        let one_request = fetches(engine.bear());
        let m = engine.metrics();
        assert_eq!((m.block_solves, m.block_queries), (1, 16), "one solve per request");

        let (width_16, two_width_8) = (cold(), cold());
        let mut ws = QueryWorkspace::for_bear(&bear);
        let mut out = bear_sparse::DenseBlock::zeros(bear.num_nodes(), 16);
        width_16.query_block_into(&seeds, &mut ws, &mut out).unwrap();
        out.reset(bear.num_nodes(), 8);
        for half in seeds.chunks(8) {
            two_width_8.query_block_into(half, &mut ws, &mut out).unwrap();
        }
        assert_eq!(one_request, fetches(&width_16));
        assert!(one_request < fetches(&two_width_8), "{one_request} vs {}", fetches(&two_width_8));
    }

    #[test]
    fn empty_batch_returns_empty_without_dispatch() {
        let bear = test_bear(8);
        let engine = QueryEngine::new(bear, config(2, 4)).unwrap();
        assert!(batch(&engine, &[]).is_empty());
        let m = engine.metrics();
        assert_eq!(m.queries, 0);
        assert_eq!(m.block_solves, 0);
    }

    #[test]
    fn serve_returns_exact_answers_when_healthy() {
        let bear = test_bear(12);
        let engine = QueryEngine::new(Arc::clone(&bear), config(2, 8)).unwrap();
        let served = engine.serve(3, &QueryOptions::default()).unwrap();
        assert!(served.is_exact());
        assert_eq!(*served.scores, bear.query(3).unwrap());
        assert_eq!(batch(&engine, &[1, 2, 3]).len(), 3);
    }

    #[test]
    fn serve_degrades_on_pool_shutdown() {
        let g = test_graph(16);
        let bear = Arc::new(Bear::new(&g, &BearConfig::exact(0.15)).unwrap());
        let fallback = Arc::new(
            FallbackSolver::new(&g, &RwrConfig { c: 0.15, ..RwrConfig::default() }, 200).unwrap(),
        );
        let engine = QueryEngine::with_fallback(Arc::clone(&bear), config(1, 0), fallback).unwrap();
        // Sabotage: close the queue out from under the engine, as if the
        // pool died. The exact path now fails (a deadline sends the request
        // to the pool rather than inline), but serve() still answers,
        // tagged degraded.
        engine.queue.close();
        let opts = QueryOptions { deadline: Some(Duration::from_secs(60)), cancel: None };
        let served = engine.serve(2, &opts).unwrap();
        let info = served.degraded.expect("must be degraded");
        assert_eq!(info.reason, DegradedReason::IndexUnavailable);
        assert!(info.residual >= 0.0);
        assert!(info.error_bound >= info.residual);
        let exact = bear.query(2).unwrap();
        let l1: f64 = exact.iter().zip(served.scores.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 1e-6, "degraded answer far from exact: {l1}");
        assert_eq!(engine.metrics().degraded, 1);
    }

    #[test]
    fn with_fallback_rejects_mismatched_solver() {
        let bear = test_bear(10);
        let other = test_graph(11);
        let fallback = Arc::new(FallbackSolver::new(&other, &RwrConfig::default(), 10).unwrap());
        let err = QueryEngine::with_fallback(bear, config(1, 0), fallback).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { param: "fallback", .. }));
    }

    #[test]
    fn cancelled_query_is_shed_not_computed() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(1, 0)).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let opts = QueryOptions { deadline: None, cancel: Some(token) };
        // The job is already cancelled when answered: shed with
        // Error::Cancelled, no compute.
        let err = engine.serve(1, &opts).unwrap_err();
        assert_eq!(err, Error::Cancelled);
        assert!(engine.metrics().shed_jobs >= 1);
        assert_eq!(engine.metrics().block_solves, 0);
    }

    /// Satellite regression: an already-expired (zero-budget) deadline
    /// fails fast with the typed `Timeout` at *admission* — the job is
    /// never enqueued, so nothing is shed at dequeue and no queue
    /// capacity is occupied by work nobody can use.
    #[test]
    fn already_expired_deadline_times_out_with_typed_error() {
        let bear = test_bear(10);
        let engine = QueryEngine::new(bear, config(1, 0)).unwrap();
        let opts = QueryOptions { deadline: Some(Duration::ZERO), cancel: None };
        let err = engine.serve(2, &opts).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err}");
        let m = engine.metrics();
        assert!(m.timeouts >= 1, "fail-fast timeout must be counted");
        assert_eq!(m.shed_jobs, 0, "dead job must not be enqueued then shed at dequeue");
        assert_eq!(engine.queue_depth(), 0);
    }

    /// Regression for a seed flake: a batch larger than the queue
    /// capacity must not trip `QueueFull` on its *own* backlog, so it
    /// completes in bounded memory with answers still bit-identical and
    /// in order.
    #[test]
    fn batch_larger_than_queue_capacity_completes_exactly() {
        let bear = test_bear(30);
        let engine = QueryEngine::new(
            Arc::clone(&bear),
            EngineConfig {
                threads: 1,
                cache_capacity: 0,
                queue_capacity: 4,
                block_width: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let seeds: Vec<usize> = (0..30).chain(0..30).collect();
        let want: Vec<Vec<f64>> = seeds.iter().map(|&s| bear.query(s).unwrap()).collect();
        assert_eq!(batch(&engine, &seeds), want);
        // Self-inflicted overload is not overload: no rejections counted.
        assert_eq!(engine.metrics().queue_rejections, 0);
    }

    #[test]
    fn queue_depth_is_bounded_and_observable() {
        let bear = test_bear(8);
        let engine = QueryEngine::new(
            bear,
            EngineConfig { threads: 1, cache_capacity: 0, queue_capacity: 2, ..Default::default() },
        )
        .unwrap();
        assert_eq!(engine.queue_depth(), 0);
        scores(&engine, 1);
        assert_eq!(engine.queue_depth(), 0, "drained after answering");
    }
}
