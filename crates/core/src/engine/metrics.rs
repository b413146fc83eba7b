//! Lock-free serving metrics.
//!
//! All counters are atomics imported through the `crate::sync` shim, so
//! recording never blocks the query path and the counter protocol is
//! model-checked by the loom suite (`metrics_are_consistent` in
//! `crates/core/tests/loom_engine.rs`).

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::topk_pruned::{TopKFallbackReason, TopKPruneStats};
use std::time::Duration;

/// Nanoseconds of `elapsed` as a `u64`, saturating at `u64::MAX`.
///
/// `elapsed.as_nanos() as u64` *wraps* above ~584 years of nanoseconds,
/// so a pathological clock step (NTP jump, suspended VM, `Duration::MAX`
/// from a saturating subtraction) would land in an arbitrary low bucket
/// and poison the percentile estimates; saturating pins it to the
/// open-ended top bucket instead.
fn saturating_nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Number of log₂ latency buckets (covers 1ns .. ~584 years).
pub(crate) const LATENCY_BUCKETS: usize = 64;

/// Number of log₂ block-width buckets: bucket `i` counts blocked solves
/// of width in `[2^i, 2^(i+1))`, with the last bucket open-ended
/// (width ≥ 128).
pub const BLOCK_WIDTH_BUCKETS: usize = 8;

/// Lock-free serving metrics: query count, cache hit/miss counts, fault
/// counters, and per-class (hit vs. miss) fixed-bucket log₂ latency
/// histograms for percentile estimates. All counters are atomics, so
/// recording never blocks the query path.
pub struct Metrics {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Worker panics converted to typed errors (the pool survived).
    worker_panics: AtomicU64,
    /// Queries that exhausted their deadline budget.
    timeouts: AtomicU64,
    /// Jobs rejected at admission because the queue was full.
    queue_rejections: AtomicU64,
    /// Jobs shed unsolved, or after their hub half, because their
    /// deadline had passed or their caller cancelled.
    shed_jobs: AtomicU64,
    /// Queries answered by the degraded (iterative fallback) path.
    degraded: AtomicU64,
    /// `hit_histogram[i]` counts cache-hit queries with latency in
    /// `[2^i, 2^(i+1))` ns; `miss_histogram` likewise for computed ones.
    hit_histogram: [AtomicU64; LATENCY_BUCKETS],
    miss_histogram: [AtomicU64; LATENCY_BUCKETS],
    /// Blocked solves executed by the pool (a width-1 solve counts too).
    block_solves: AtomicU64,
    /// Queries answered through blocked solves (sum of block widths).
    block_queries: AtomicU64,
    /// Log₂ histogram of blocked-solve widths.
    block_width_histogram: [AtomicU64; BLOCK_WIDTH_BUCKETS],
    /// Per-query *amortized* compute latency (solve wall time divided by
    /// block width), weighted by width so each query contributes once.
    amortized_histogram: [AtomicU64; LATENCY_BUCKETS],
    /// Top-k queries answered through the pruned path (certified or not).
    topk_pruned_queries: AtomicU64,
    /// Pruned top-k queries whose answer was certified by the bound pass.
    topk_certified: AtomicU64,
    /// Pruned top-k queries that fell back to the full solve.
    topk_fallbacks: AtomicU64,
    /// `topk_fallbacks` by reason, in the order of
    /// [`TopKFallbackReason::ALL`].
    topk_fallback_reasons: [AtomicU64; TopKFallbackReason::ALL.len()],
    /// Candidates surviving pruning, summed over pruned top-k queries.
    topk_candidates: AtomicU64,
    /// Nodes never scored thanks to pruning, summed over pruned queries.
    topk_nodes_pruned: AtomicU64,
}

impl Metrics {
    /// All counters zeroed.
    pub fn new() -> Self {
        Metrics {
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            queue_rejections: AtomicU64::new(0),
            shed_jobs: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            hit_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            miss_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            block_solves: AtomicU64::new(0),
            block_queries: AtomicU64::new(0),
            block_width_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            amortized_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            topk_pruned_queries: AtomicU64::new(0),
            topk_certified: AtomicU64::new(0),
            topk_fallbacks: AtomicU64::new(0),
            topk_fallback_reasons: std::array::from_fn(|_| AtomicU64::new(0)),
            topk_candidates: AtomicU64::new(0),
            topk_nodes_pruned: AtomicU64::new(0),
        }
    }

    /// Accounts one answered query.
    pub fn record(&self, cache_hit: bool, elapsed: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let histogram = if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            &self.hit_histogram
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            &self.miss_histogram
        };
        let nanos = saturating_nanos(elapsed).max(1);
        let bucket = (63 - nanos.leading_zeros()) as usize;
        histogram[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one blocked solve of `width` coalesced queries that took
    /// `elapsed` wall time: bumps the block-size histogram and credits
    /// each of the `width` queries an amortized latency of
    /// `elapsed / width` in the amortized histogram.
    pub fn record_block(&self, width: usize, elapsed: Duration) {
        if width == 0 {
            return;
        }
        self.block_solves.fetch_add(1, Ordering::Relaxed);
        self.block_queries.fetch_add(width as u64, Ordering::Relaxed);
        let wbucket =
            ((usize::BITS - 1 - width.leading_zeros()) as usize).min(BLOCK_WIDTH_BUCKETS - 1);
        self.block_width_histogram[wbucket].fetch_add(1, Ordering::Relaxed);
        let per_query =
            u64::try_from(elapsed.as_nanos() / width as u128).unwrap_or(u64::MAX).max(1);
        let bucket = (63 - per_query.leading_zeros()) as usize;
        self.amortized_histogram[bucket].fetch_add(width as u64, Ordering::Relaxed);
    }

    /// Accounts a worker panic (converted into a typed error).
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts a query that ran out of deadline budget.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts an admission-control rejection (queue full).
    pub fn record_queue_rejection(&self) {
        self.queue_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts a job shed before its solve or its back sweep (deadline
    /// already passed, or its caller cancelled it).
    pub fn record_shed(&self) {
        self.shed_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts a query answered by the degraded fallback path.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one pruned top-k query: whether the bound pass certified
    /// the answer (vs. falling back, and why), how many candidates
    /// survived pruning, and how many nodes were never scored.
    pub fn record_topk_pruned(&self, stats: &TopKPruneStats) {
        self.topk_pruned_queries.fetch_add(1, Ordering::Relaxed);
        if stats.certified {
            self.topk_certified.fetch_add(1, Ordering::Relaxed);
        } else {
            self.topk_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let reason =
            stats.fallback.and_then(|r| TopKFallbackReason::ALL.iter().position(|&a| a == r));
        if let Some(slot) = reason.and_then(|i| self.topk_fallback_reasons.get(i)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.topk_candidates.fetch_add(stats.candidates as u64, Ordering::Relaxed);
        self.topk_nodes_pruned.fetch_add(stats.nodes_pruned as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hit: Vec<u64> = self.hit_histogram.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let miss: Vec<u64> =
            self.miss_histogram.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let combined: Vec<u64> = hit.iter().zip(&miss).map(|(a, b)| a + b).collect();
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            shed_jobs: self.shed_jobs.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            p50: percentile_from(&combined, 0.50),
            p95: percentile_from(&combined, 0.95),
            p99: percentile_from(&combined, 0.99),
            p50_hit: percentile_from(&hit, 0.50),
            p50_miss: percentile_from(&miss, 0.50),
            block_solves: self.block_solves.load(Ordering::Relaxed),
            block_queries: self.block_queries.load(Ordering::Relaxed),
            block_width_histogram: std::array::from_fn(|i| {
                self.block_width_histogram[i].load(Ordering::Relaxed)
            }),
            p50_amortized: {
                let amortized: Vec<u64> =
                    self.amortized_histogram.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                percentile_from(&amortized, 0.50)
            },
            topk_pruned_queries: self.topk_pruned_queries.load(Ordering::Relaxed),
            topk_certified: self.topk_certified.load(Ordering::Relaxed),
            topk_fallbacks: self.topk_fallbacks.load(Ordering::Relaxed),
            topk_fallback_reasons: std::array::from_fn(|i| {
                self.topk_fallback_reasons[i].load(Ordering::Relaxed)
            }),
            topk_candidates: self.topk_candidates.load(Ordering::Relaxed),
            topk_nodes_pruned: self.topk_nodes_pruned.load(Ordering::Relaxed),
            pager_hits: 0,
            pager_misses: 0,
            pager_evictions: 0,
            pager_resident_bytes: 0,
            pager_resident_blocks: 0,
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Percentile estimate from a log₂ histogram: the upper bound of the
/// bucket containing the percentile rank (an overestimate by at most 2×,
/// the bucket resolution).
pub(crate) fn percentile_from(histogram: &[u64], p: f64) -> Duration {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return Duration::ZERO;
    }
    let rank = ((total as f64 * p).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &count) in histogram.iter().enumerate() {
        seen += count;
        if seen >= rank {
            let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            return Duration::from_nanos(upper);
        }
    }
    Duration::from_nanos(u64::MAX)
}

/// Frozen view of [`Metrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Total queries answered (cache hits included).
    pub queries: u64,
    /// Queries answered from a cache.
    pub cache_hits: u64,
    /// Queries that required computation.
    pub cache_misses: u64,
    /// Worker panics converted to typed errors (the pool survived).
    pub worker_panics: u64,
    /// Queries that exhausted their deadline budget.
    pub timeouts: u64,
    /// Jobs rejected at admission because the queue was full.
    pub queue_rejections: u64,
    /// Jobs shed before their solve or their back sweep (expired
    /// deadline or cancelled caller).
    pub shed_jobs: u64,
    /// Queries answered by the degraded fallback path.
    pub degraded: u64,
    /// Median latency over all queries (upper bound of the bucket).
    pub p50: Duration,
    /// 95th-percentile latency over all queries.
    pub p95: Duration,
    /// 99th-percentile latency over all queries.
    pub p99: Duration,
    /// Median latency of cache hits only.
    pub p50_hit: Duration,
    /// Median latency of computed (cache-miss) queries only.
    pub p50_miss: Duration,
    /// Blocked solves executed by the pool (width-1 fallbacks included).
    pub block_solves: u64,
    /// Queries answered through blocked solves (sum of block widths).
    pub block_queries: u64,
    /// Log₂ histogram of blocked-solve widths: entry `i` counts solves of
    /// width in `[2^i, 2^(i+1))`, last entry open-ended.
    pub block_width_histogram: [u64; BLOCK_WIDTH_BUCKETS],
    /// Median per-query *amortized* compute latency (solve wall time
    /// divided by block width, each query weighted once).
    pub p50_amortized: Duration,
    /// Top-k queries answered through the pruned path (certified or not).
    pub topk_pruned_queries: u64,
    /// Pruned top-k queries certified by the bound pass.
    pub topk_certified: u64,
    /// Pruned top-k queries that fell back to the full solve.
    pub topk_fallbacks: u64,
    /// `topk_fallbacks` by reason, in the order of
    /// [`TopKFallbackReason::ALL`]; exported as
    /// `bear_topk_fallbacks_by_reason_total{reason="…"}`.
    pub topk_fallback_reasons: [u64; TopKFallbackReason::ALL.len()],
    /// Candidates surviving pruning, summed over pruned top-k queries.
    pub topk_candidates: u64,
    /// Nodes never scored thanks to pruning, summed over pruned queries.
    pub topk_nodes_pruned: u64,
    /// Spoke-shard cache hits (paged index only; zero otherwise). These
    /// five are merged in from the block pager at snapshot time —
    /// [`Metrics`] itself stays pager-unaware.
    pub pager_hits: u64,
    /// Spoke shards read and decoded from disk.
    pub pager_misses: u64,
    /// Spoke shards evicted to stay within the residency budget.
    pub pager_evictions: u64,
    /// Bytes of spoke factors currently resident in the pager cache.
    pub pager_resident_bytes: u64,
    /// Spoke shards (one per unit of consecutive blocks) currently
    /// resident in the pager cache; exported as
    /// `bear_pager_resident_blocks`.
    pub pager_resident_blocks: u64,
}

impl MetricsSnapshot {
    /// Fraction of queries served from cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean number of queries answered per blocked solve (1.0 when no
    /// coalescing happened, 0.0 before any solve ran).
    pub fn avg_block_width(&self) -> f64 {
        if self.block_solves == 0 {
            0.0
        } else {
            self.block_queries as f64 / self.block_solves as f64
        }
    }

    /// Fraction of candidate nodes the pruned top-k path never scored,
    /// over all pruned queries: `nodes_pruned / (candidates + pruned)`.
    /// `0.0` before any pruned query ran.
    pub fn topk_prune_ratio(&self) -> f64 {
        let total = self.topk_candidates + self.topk_nodes_pruned;
        if total == 0 {
            0.0
        } else {
            self.topk_nodes_pruned as f64 / total as f64
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn percentile_math_on_known_histogram() {
        let mut histogram = vec![0u64; LATENCY_BUCKETS];
        histogram[4] = 50; // 16..31 ns
        histogram[10] = 50; // 1024..2047 ns
        assert_eq!(percentile_from(&histogram, 0.50), Duration::from_nanos(31));
        assert_eq!(percentile_from(&histogram, 0.95), Duration::from_nanos(2047));
        assert_eq!(percentile_from(&histogram, 0.0), Duration::from_nanos(31));
        assert_eq!(percentile_from(&[0; LATENCY_BUCKETS], 0.5), Duration::ZERO);
    }

    #[test]
    fn record_fills_expected_bucket() {
        let m = Metrics::new();
        m.record(false, Duration::from_nanos(20)); // bucket 4: 16..31
        m.record(true, Duration::from_nanos(1500)); // bucket 10: 1024..2047
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.p50, Duration::from_nanos(31));
        assert_eq!(s.p99, Duration::from_nanos(2047));
    }

    #[test]
    fn per_class_percentiles_are_attributed() {
        let m = Metrics::new();
        // Hits are fast, misses are slow; the combined histogram must
        // not bleed one class into the other's percentile.
        for _ in 0..10 {
            m.record(true, Duration::from_nanos(20));
            m.record(false, Duration::from_micros(100));
        }
        let s = m.snapshot();
        assert_eq!(s.p50_hit, Duration::from_nanos(31));
        assert!(s.p50_miss >= Duration::from_micros(64));
        assert!(s.p50_hit < s.p50_miss);
    }

    #[test]
    fn block_histogram_and_amortized_latency() {
        let m = Metrics::new();
        m.record_block(1, Duration::from_nanos(20)); // bucket 0
        m.record_block(4, Duration::from_nanos(80)); // bucket 2, 20ns/query
        m.record_block(7, Duration::from_nanos(140)); // bucket 2
        m.record_block(1000, Duration::from_micros(20)); // clamped to last bucket
        m.record_block(0, Duration::ZERO); // ignored
        let s = m.snapshot();
        assert_eq!(s.block_solves, 4);
        assert_eq!(s.block_queries, 1 + 4 + 7 + 1000);
        assert_eq!(s.block_width_histogram[0], 1);
        assert_eq!(s.block_width_histogram[2], 2);
        assert_eq!(s.block_width_histogram[BLOCK_WIDTH_BUCKETS - 1], 1);
        assert!((s.avg_block_width() - 1012.0 / 4.0).abs() < 1e-12);
        // All 1012 queries were credited 20 ns each: bucket 4 → 31 ns cap.
        assert_eq!(s.p50_amortized, Duration::from_nanos(31));
    }

    /// Satellite regression: a pathological clock step (here the worst
    /// case, `Duration::MAX`) must saturate into the open-ended top
    /// bucket. With the old `as u64` cast it *wrapped* into an arbitrary
    /// low bucket and dragged the percentile estimates down.
    #[test]
    fn pathological_clock_step_saturates_into_top_bucket() {
        let m = Metrics::new();
        m.record(false, Duration::MAX);
        m.record_block(3, Duration::MAX);
        let s = m.snapshot();
        assert_eq!(s.p50, Duration::from_nanos(u64::MAX));
        assert_eq!(s.p99, Duration::from_nanos(u64::MAX));
        assert_eq!(s.p50_amortized, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn fault_counters_record() {
        let m = Metrics::new();
        m.record_worker_panic();
        m.record_timeout();
        m.record_timeout();
        m.record_queue_rejection();
        m.record_shed();
        m.record_degraded();
        let s = m.snapshot();
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.timeouts, 2);
        assert_eq!(s.queue_rejections, 1);
        assert_eq!(s.shed_jobs, 1);
        assert_eq!(s.degraded, 1);
    }
}
