//! The spoke factors as the query kernels see them, and their paging
//! (DESIGN.md §18).
//!
//! BEAR's preprocessed index is dominated by `L₁⁻¹`/`U₁⁻¹`, the inverted
//! factors of the block-diagonal spoke matrix `H₁₁`. On large graphs
//! those factors outgrow RAM — which is exactly why approximate
//! successors (TPA, BePI) trade exactness for memory. This module keeps
//! the *exact* query path while letting the spoke factors live on disk,
//! with one unit of storage everywhere:
//!
//! * a **unit** is a run of consecutive diagonal blocks that grows while
//!   it stays within `UNIT_ROWS` rows and `UNIT_BYTES` of factor
//!   bytes (a larger block is a unit alone), held as one run-local
//!   [`FactorPair`]. `UnitBuilder` groups blocks into units as
//!   preprocessing finishes them;
//! * the index format (`persist.rs`) stores one framed, individually
//!   CRC'd **shard per unit**;
//! * [`BlockPager`] materializes shards lazily via a [`SegmentSource`]
//!   (`pread` on a file handle; plain `std`, no mmap dependency) into a
//!   resident set capped by a byte budget, evicting the most recently
//!   used unit other than the one just faulted (scan-resistant; see
//!   `evict_to_limit`);
//! * `SpokeFactors` is the dispatch point the query kernels run
//!   through: the `Resident` variant holds every unit's pair, the
//!   `Paged` variant fetches them through the pager. Both run every
//!   spoke solve through one sweep over the units with the
//!   seed-interleaved kernel `CscMatrix::interleaved_block_into`.
//!
//! # Bit-identity
//!
//! The unit sweep is **bit-identical** to applying the whole factors
//! with `CscMatrix::matvec_into` one seed at a time, which is what
//! `tests/paging_identity.rs` proves exhaustively. The argument:
//! `matvec_acc` visits columns in ascending order and skips exact-zero
//! inputs; because the factors are block diagonal (Lemma 1), every
//! output element `y[r]` receives contributions only from columns inside
//! `r`'s block, and a run of consecutive blocks is block diagonal too.
//! Iterating units in ascending order and, within each unit, local
//! columns in ascending order therefore replays the exact same additions
//! in the exact same order into every `y[r]`. A unit whose inputs are
//! all zero contributes nothing, so it can skip its *fetch* entirely
//! (the paging win: a one-hot seed touches one unit in the first sweep);
//! inside a touched unit, a seed whose input is zero where another's is
//! not adds `±0`, which changes no bits (DESIGN.md §13). The same
//! locality lets one sweep apply both factors: `L₁⁻¹`'s output on a unit
//! is exactly `U₁⁻¹`'s input on it, so `SpokeFactors::solve_into`
//! fetches each touched unit once and runs `L` then `U` on it before
//! moving on. The top-k resolve of one block is the same step on the
//! block's rows of its unit.
//!
//! # Concurrency
//!
//! [`BlockPager`] is shared by all engine workers. Fetches take a single
//! mutex over the resident map; shard I/O and decoding happen *outside*
//! the lock, so concurrent misses on different units overlap. Eviction
//! removes entries from the map only — in-flight queries hold `Arc`s, so
//! a unit evicted mid-query stays valid until the last user drops it
//! (forced mid-query eviction is exercised by the identity suite with a
//! one-unit budget). Hit/miss/eviction counters are atomics surfaced
//! through [`PagerStats`] and the serving `/metrics`.

use crate::sync::{Mutex, MutexGuard};
use bear_sparse::mem::{sparse_bytes, MemoryUsage};
use bear_sparse::{BlockDiagBuilder, CscMatrix, Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows up to which a unit grows (see `UnitBuilder`).
pub(crate) const UNIT_ROWS: usize = 256;
/// Factor bytes (`sparse_bytes` of both run-local factors) up to which a
/// unit grows (see `UnitBuilder`).
pub(crate) const UNIT_BYTES: usize = 64 * 1024;

pub(crate) fn corrupt_shard(shard: usize, detail: impl std::fmt::Display) -> Error {
    Error::CorruptIndex { section: "spoke_segment", detail: format!("shard {shard}: {detail}") }
}

/// One unit's inverted factors, stored run-locally: both matrices are
/// `dim × dim` CSC over the unit's rows, block diagonal with the unit's
/// `blocks` consecutive diagonal blocks.
#[derive(Debug, Clone)]
pub struct FactorPair {
    pub(crate) l1: CscMatrix,
    pub(crate) u1: CscMatrix,
    blocks: usize,
}

impl FactorPair {
    /// Builds a pair spanning `blocks` diagonal blocks from run-local
    /// factors, validating the shapes.
    pub(crate) fn new(l1: CscMatrix, u1: CscMatrix, blocks: usize) -> Result<Self> {
        let dim = l1.nrows();
        if l1.ncols() != dim || u1.nrows() != dim || u1.ncols() != dim {
            return Err(Error::DimensionMismatch {
                op: "spoke factor pair",
                lhs: (l1.nrows(), l1.ncols()),
                rhs: (u1.nrows(), u1.ncols()),
            });
        }
        Ok(FactorPair { l1, u1, blocks })
    }

    /// Unit dimension: the rows of its blocks together.
    pub fn dim(&self) -> usize {
        self.l1.nrows()
    }

    /// Diagonal blocks the unit spans.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    fn memory_bytes(&self) -> usize {
        self.l1.memory_bytes() + self.u1.memory_bytes()
    }
}

/// Groups diagonal blocks into units as they arrive in block order. A
/// unit grows while it stays within [`UNIT_ROWS`] rows and
/// [`UNIT_BYTES`] of factor bytes; a block larger than either cap is a
/// unit alone. It holds at most the one open unit, so the streamed
/// writer never holds more.
#[derive(Debug, Default)]
pub(crate) struct UnitBuilder {
    l1: BlockDiagBuilder,
    u1: BlockDiagBuilder,
    blocks: usize,
}

impl UnitBuilder {
    /// Adds the next block's factors, returning the unit it closes when
    /// the block does not fit in the open one.
    pub(crate) fn push(&mut self, l1: &CscMatrix, u1: &CscMatrix) -> Result<Option<FactorPair>> {
        let rows = self.l1.dim() + l1.nrows();
        let bytes = sparse_bytes(rows, self.l1.nnz() + l1.nnz())
            + sparse_bytes(rows, self.u1.nnz() + u1.nnz());
        let closed = if rows > UNIT_ROWS || bytes > UNIT_BYTES { self.take()? } else { None };
        self.l1.push(l1);
        self.u1.push(u1);
        self.blocks += 1;
        Ok(closed)
    }

    /// The open unit, if it holds any block; the builder is then empty.
    pub(crate) fn take(&mut self) -> Result<Option<FactorPair>> {
        if self.blocks == 0 {
            return Ok(None);
        }
        let UnitBuilder { l1, u1, blocks } = std::mem::take(self);
        FactorPair::new(l1.finish(), u1.finish(), blocks).map(Some)
    }

    /// Bytes of the open unit's factors.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.l1.memory_bytes() + self.u1.memory_bytes()
    }
}

/// Directory entry locating one unit's shard inside an index image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Absolute file offset of the shard frame (first tag byte).
    pub offset: u64,
    /// Whole frame length: tag + length + payload + crc.
    pub frame_len: u64,
    /// CRC32 of the payload (duplicated inside the frame itself).
    pub crc: u32,
    /// The unit's first diagonal block.
    pub first_block: u64,
    /// Diagonal blocks the unit spans.
    pub blocks: u64,
    /// Unit dimension; must match the sum of its blocks' sizes.
    pub dim: u64,
    /// Stored nonzeros of the unit's `L₁⁻¹`.
    pub l1_nnz: u64,
    /// Stored nonzeros of the unit's `U₁⁻¹`.
    pub u1_nnz: u64,
}

impl SegmentMeta {
    /// Logical (decoded) byte footprint of this shard's matrices.
    pub fn resident_bytes(&self) -> usize {
        let dim = usize::try_from(self.dim).unwrap_or(usize::MAX);
        let l1 = usize::try_from(self.l1_nnz).unwrap_or(usize::MAX);
        let u1 = usize::try_from(self.u1_nnz).unwrap_or(usize::MAX);
        sparse_bytes(dim, l1).saturating_add(sparse_bytes(dim, u1))
    }
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// Where the diagonal blocks and the units start.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Prefix sums of the block sizes (`len = blocks + 1`).
    starts: Vec<usize>,
    /// The first block of each unit, then the block count
    /// (`len = units + 1`).
    unit_blocks: Vec<usize>,
    /// The first row of each unit, then `n₁` (`len = units + 1`).
    unit_rows: Vec<usize>,
}

impl Layout {
    /// Diagonal blocks of `block_sizes` grouped into units of
    /// `(blocks, dim)` each, in order. Errors (as a corrupt segment
    /// directory naming the shard) unless every unit spans at least one
    /// block, its dimension is its blocks' sizes together, and the units
    /// tile the blocks.
    pub(crate) fn new(
        block_sizes: &[usize],
        units: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Layout> {
        let bad = |detail: String| Error::CorruptIndex { section: "segment_directory", detail };
        let mut starts = Vec::with_capacity(block_sizes.len() + 1);
        starts.push(0usize);
        for &sz in block_sizes {
            let next = starts.last().and_then(|&s| s.checked_add(sz));
            starts.push(next.ok_or_else(|| bad("block sizes overflow".into()))?);
        }
        let (mut unit_blocks, mut unit_rows) = (vec![0usize], vec![0usize]);
        for (s, (blocks, dim)) in units.into_iter().enumerate() {
            let first = unit_blocks.last().copied().unwrap_or(0);
            let end = first.checked_add(blocks).filter(|&e| blocks > 0 && e <= block_sizes.len());
            let Some(end) = end else {
                return Err(bad(format!(
                    "shard {s}: {blocks} blocks from block {first} do not fit the {} blocks",
                    block_sizes.len()
                )));
            };
            let rows = match (starts.get(first), starts.get(end)) {
                (Some(&lo), Some(&hi)) => hi - lo,
                _ => 0,
            };
            if rows != dim {
                return Err(bad(format!(
                    "shard {s}: dimension {dim} does not match its blocks' {rows} rows"
                )));
            }
            unit_blocks.push(end);
            unit_rows.push(starts.get(end).copied().unwrap_or(0));
        }
        if unit_blocks.last() != Some(&block_sizes.len()) {
            return Err(bad(format!(
                "shards cover {} of {} blocks",
                unit_blocks.last().copied().unwrap_or(0),
                block_sizes.len()
            )));
        }
        Ok(Layout { starts, unit_blocks, unit_rows })
    }

    /// The units a segment directory names: each entry's first block must
    /// be where the previous one ended.
    pub(crate) fn from_directory(block_sizes: &[usize], dir: &[SegmentMeta]) -> Result<Layout> {
        let mut next = 0u64;
        let mut units = Vec::with_capacity(dir.len());
        for (s, meta) in dir.iter().enumerate() {
            if meta.first_block != next {
                return Err(Error::CorruptIndex {
                    section: "segment_directory",
                    detail: format!(
                        "shard {s}: first block {} (expected {next})",
                        meta.first_block
                    ),
                });
            }
            next = next.saturating_add(meta.blocks);
            let fits = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
            units.push((fits(meta.blocks), fits(meta.dim)));
        }
        Layout::new(block_sizes, units)
    }

    /// Spoke dimension `n₁`.
    pub(crate) fn n1(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// Number of units.
    pub(crate) fn num_units(&self) -> usize {
        self.unit_rows.len().saturating_sub(1)
    }

    /// `[bs, be)` of block `b` in the permuted spoke space.
    pub(crate) fn block_range(&self, b: usize) -> Result<(usize, usize)> {
        range_of(&self.starts, b)
    }

    /// `[us, ue)` of unit `u`'s rows.
    pub(crate) fn unit_range(&self, u: usize) -> Result<(usize, usize)> {
        range_of(&self.unit_rows, u)
    }

    /// The blocks of unit `u`.
    pub(crate) fn unit_blocks(&self, u: usize) -> Result<Range<usize>> {
        range_of(&self.unit_blocks, u).map(|(first, end)| first..end)
    }

    /// The unit holding block `b`.
    pub(crate) fn unit_of(&self, b: usize) -> usize {
        self.unit_blocks.partition_point(|&first| first <= b).saturating_sub(1)
    }

    /// Checks that every entry of unit `u`'s run-local `pair` lies inside
    /// its column's diagonal block: the sweeps read each block's rows
    /// only, so an entry across a block boundary would be lost.
    pub(crate) fn audit(&self, u: usize, pair: &FactorPair) -> Result<()> {
        let (us, _) = self.unit_range(u)?;
        for b in self.unit_blocks(u)? {
            let (bs, be) = self.block_range(b)?;
            let (lo, hi) = (bs - us, be - us);
            for (which, m) in [("l1_inv", &pair.l1), ("u1_inv", &pair.u1)] {
                for c in lo..hi {
                    let (rows, _) = m.col(c);
                    if rows.first().is_some_and(|&r| r < lo)
                        || rows.last().is_some_and(|&r| r >= hi)
                    {
                        return Err(corrupt_shard(
                            u,
                            format!(
                                "{which} column {} has an entry outside block {b} [{bs}, {be})",
                                us + c
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `[bs, be)` of entry `b` of prefix sums `starts`.
fn range_of(starts: &[usize], b: usize) -> Result<(usize, usize)> {
    match (starts.get(b), starts.get(b + 1)) {
        (Some(&bs), Some(&be)) => Ok((bs, be)),
        _ => Err(Error::IndexOutOfBounds { index: b, bound: starts.len().saturating_sub(1) }),
    }
}

/// Splits diagonal blocks of `block_sizes` into runs of consecutive
/// blocks: a run grows while its rows stay within `cap`, and a block
/// larger than that is a run alone. Yields `(block range, row range)`
/// per run. Preprocessing walks runs of
/// [`crate::precompute::RUN_ROWS`] rows.
pub(crate) fn runs(
    block_sizes: &[usize],
    cap: usize,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
    let (mut first, mut r0) = (0, 0);
    std::iter::from_fn(move || {
        let &size = block_sizes.get(first)?;
        let (mut last, mut r1) = (first + 1, r0 + size);
        while let Some(&next) = block_sizes.get(last) {
            if r1 - r0 + next > cap {
                break;
            }
            r1 += next;
            last += 1;
        }
        let run = (first..last, r0..r1);
        (first, r0) = (last, r1);
        Some(run)
    })
}

// ---------------------------------------------------------------------------
// Segment sources
// ---------------------------------------------------------------------------

/// Positional reads over an immutable byte store — the only capability
/// the pager needs. Implemented with `pread` for files (no shared seek
/// cursor, so concurrent fetches never interleave) and by plain slicing
/// for in-memory images (tests).
pub trait SegmentSource: Send + Sync + std::fmt::Debug {
    /// Fills `buf` from `offset`; short reads are errors.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
}

/// File-backed segment source.
#[derive(Debug)]
pub struct FileSource {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: Mutex<std::fs::File>,
}

impl FileSource {
    /// Wraps an open file.
    pub fn new(file: std::fs::File) -> Self {
        #[cfg(unix)]
        {
            FileSource { file }
        }
        #[cfg(not(unix))]
        {
            FileSource { file: Mutex::new(file) }
        }
    }
}

fn read_err(e: std::io::Error) -> Error {
    Error::CorruptIndex { section: "spoke_segment", detail: format!("segment read failed: {e}") }
}

impl SegmentSource for FileSource {
    #[cfg(unix)]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset).map_err(read_err)
    }

    #[cfg(not(unix))]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self
            .file
            .lock()
            .map_err(|_| Error::InvalidStructure("segment source lock poisoned".into()))?;
        file.seek(SeekFrom::Start(offset)).map_err(read_err)?;
        file.read_exact(buf).map_err(read_err)
    }
}

/// In-memory segment source (tests and benchmarks).
#[derive(Debug)]
pub struct MemSource(pub Vec<u8>);

impl SegmentSource for MemSource {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let start = usize::try_from(offset).map_err(|_| Error::CorruptIndex {
            section: "spoke_segment",
            detail: format!("segment offset {offset} does not fit in usize"),
        })?;
        let src = start.checked_add(buf.len()).and_then(|end| self.0.get(start..end)).ok_or_else(
            || Error::CorruptIndex {
                section: "spoke_segment",
                detail: format!(
                    "segment read [{start}, +{}) beyond image of {} bytes",
                    buf.len(),
                    self.0.len()
                ),
            },
        )?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The pager
// ---------------------------------------------------------------------------

/// Snapshot of the pager's counters and residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagerStats {
    /// Fetches answered from the resident set.
    pub hits: u64,
    /// Fetches that read and decoded a shard.
    pub misses: u64,
    /// Shards evicted to stay under the budget.
    pub evictions: u64,
    /// Bytes currently held by the resident set.
    pub resident_bytes: u64,
    /// Shards currently resident.
    pub resident_blocks: u64,
}

struct ResidentEntry {
    pair: Arc<FactorPair>,
    bytes: usize,
    last_used: u64,
}

struct ResidentSet {
    map: HashMap<usize, ResidentEntry>,
    /// The resident shards keyed by their `last_used` tick (ticks are
    /// unique), so the most recently used shard is the last entry and
    /// eviction picks its victim in `O(log n)`.
    by_use: BTreeMap<u64, usize>,
    bytes: usize,
    tick: u64,
    /// Byte cap on `bytes`; `None` is unlimited. A single shard larger
    /// than the cap is still admitted (the query could not run
    /// otherwise) — it just evicts everything else.
    limit: Option<usize>,
}

impl ResidentSet {
    /// The next use tick; every fetch takes one.
    fn next_tick(&mut self) -> u64 {
        let tick = self.tick;
        self.tick += 1;
        tick
    }

    /// Marks shard `s` used now and returns it, if resident.
    fn touch(&mut self, s: usize) -> Option<Arc<FactorPair>> {
        let tick = self.next_tick();
        let entry = self.map.get_mut(&s)?;
        self.by_use.remove(&entry.last_used);
        entry.last_used = tick;
        self.by_use.insert(tick, s);
        Some(entry.pair.clone())
    }

    /// Admits shard `s` as used now. Returns whether it replaced a
    /// resident copy.
    fn insert(&mut self, s: usize, pair: Arc<FactorPair>, bytes: usize) -> bool {
        let tick = self.next_tick();
        self.by_use.insert(tick, s);
        self.bytes = self.bytes.saturating_add(bytes);
        let Some(old) = self.map.insert(s, ResidentEntry { pair, bytes, last_used: tick }) else {
            return false;
        };
        self.by_use.remove(&old.last_used);
        self.bytes = self.bytes.saturating_sub(old.bytes);
        true
    }
}

struct PagerInner {
    source: Box<dyn SegmentSource>,
    dir: Vec<SegmentMeta>,
    layout: Layout,
    state: Mutex<ResidentSet>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PagerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagerInner")
            .field("shards", &self.dir.len())
            .field("dim", &self.layout.n1())
            .finish()
    }
}

/// Lazy loader of spoke shards (one per unit) under a byte budget, shared
/// (cheap `Clone`, one underlying cache) by every worker of an engine.
/// Over the budget it evicts the most recently used shard other than the
/// one just faulted, which keeps a stable resident set under the
/// ascending sweeps of the query kernels.
#[derive(Debug, Clone)]
pub struct BlockPager {
    inner: Arc<PagerInner>,
}

impl BlockPager {
    /// Builds a pager over `source` described by `dir`, whose shards must
    /// tile the diagonal blocks of `block_sizes` in order; `budget_bytes`
    /// caps the resident set (`None` = unlimited).
    pub fn new(
        source: Box<dyn SegmentSource>,
        dir: Vec<SegmentMeta>,
        block_sizes: &[usize],
        budget_bytes: Option<usize>,
    ) -> Result<Self> {
        let layout = Layout::from_directory(block_sizes, &dir)?;
        Ok(Self::with_layout(source, dir, layout, budget_bytes))
    }

    /// [`BlockPager::new`] with the directory's layout already checked.
    pub(crate) fn with_layout(
        source: Box<dyn SegmentSource>,
        dir: Vec<SegmentMeta>,
        layout: Layout,
        budget_bytes: Option<usize>,
    ) -> Self {
        BlockPager {
            inner: Arc::new(PagerInner {
                source,
                dir,
                layout,
                state: Mutex::new(ResidentSet {
                    map: HashMap::new(),
                    by_use: BTreeMap::new(),
                    bytes: 0,
                    tick: 0,
                    limit: budget_bytes,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// Spoke dimension `n₁` (sum of block sizes).
    pub fn dim(&self) -> usize {
        self.inner.layout.n1()
    }

    /// Number of shards (units).
    pub fn num_shards(&self) -> usize {
        self.inner.dir.len()
    }

    /// The segment directory.
    pub fn directory(&self) -> &[SegmentMeta] {
        &self.inner.dir
    }

    fn lock(&self) -> Result<MutexGuard<'_, ResidentSet>> {
        self.inner
            .state
            .lock()
            .map_err(|_| Error::InvalidStructure("pager state lock poisoned".into()))
    }

    /// Re-caps the resident-set budget, evicting immediately if the new
    /// cap is tighter (`None` = unlimited).
    pub fn set_budget(&self, budget_bytes: Option<usize>) -> Result<()> {
        let mut st = self.lock()?;
        st.limit = budget_bytes;
        let evicted = evict_to_limit(&mut st, None);
        drop(st);
        self.inner.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(())
    }

    /// Current counters and residency.
    pub fn stats(&self) -> PagerStats {
        let (bytes, blocks) = match self.inner.state.lock() {
            Ok(st) => (st.bytes as u64, st.map.len() as u64),
            Err(_) => (0, 0),
        };
        PagerStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            resident_bytes: bytes,
            resident_blocks: blocks,
        }
    }

    /// Fetches shard `s`, reading, checking and decoding it on a miss.
    /// The returned `Arc` stays valid across evictions.
    pub fn fetch(&self, s: usize) -> Result<Arc<FactorPair>> {
        {
            let mut st = self.lock()?;
            if let Some(pair) = st.touch(s) {
                drop(st);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(pair);
            }
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let meta = self
            .inner
            .dir
            .get(s)
            .ok_or(Error::IndexOutOfBounds { index: s, bound: self.inner.dir.len() })?;
        let inner = &*self.inner;
        let pair = Arc::new(crate::persist::load_shard(&*inner.source, meta, s, &inner.layout)?);
        let bytes = pair.memory_bytes();
        let mut st = self.lock()?;
        let mut evicted = 0u64;
        if st.insert(s, pair.clone(), bytes) {
            // A concurrent fetch of the same shard won the race; its copy
            // (identical decoded content) is replaced by ours and counts
            // as an eviction so `misses - resident == evictions` stays
            // exact under contention.
            evicted += 1;
        }
        evicted += evict_to_limit(&mut st, Some(s));
        drop(st);
        self.inner.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(pair)
    }
}

/// The pager's one eviction rule, run by [`BlockPager::fetch`] and
/// [`BlockPager::set_budget`] alike: while the set is over its limit,
/// evict the most recently used shard other than `keep` (the shard the
/// caller just faulted in), and never the last shard (a single shard
/// larger than the budget must stay usable). Returns how many were
/// evicted. Each victim is read off the end of the use-ordered index,
/// in `O(log n)` for `n` resident shards.
///
/// Queries sweep the units in ascending order, so strict LRU would
/// evict exactly the shard the next sweep needs first and hit nothing on
/// a cyclic scan. Evicting the most recent shard instead keeps the rest
/// of the resident set stable: once the cap is full, a sweep over more
/// shards than fit cycles through one slot and hits on the others.
fn evict_to_limit(st: &mut ResidentSet, keep: Option<usize>) -> u64 {
    let Some(limit) = st.limit else { return 0 };
    let mut evicted = 0u64;
    while st.bytes > limit && st.map.len() > 1 {
        // `keep` is at most one entry, so this looks at two at most.
        let victim = st.by_use.iter().rev().find(|&(_, &s)| Some(s) != keep);
        let Some((&tick, &victim)) = victim else { break };
        st.by_use.remove(&tick);
        if let Some(e) = st.map.remove(&victim) {
            st.bytes = st.bytes.saturating_sub(e.bytes);
            evicted += 1;
        }
    }
    evicted
}

// ---------------------------------------------------------------------------
// SpokeFactors: the kernel dispatch point
// ---------------------------------------------------------------------------

/// The spoke factors `L₁⁻¹`/`U₁⁻¹` as the query kernels see them: every
/// unit's run-local pair held in memory, or fetched per unit through a
/// [`BlockPager`]. Both variants hold the same pairs and produce
/// bit-identical results (module docs); they differ only in residency.
#[derive(Debug, Clone)]
pub(crate) enum SpokeFactors {
    /// Every unit's pair in memory, in unit order.
    Resident { units: Vec<FactorPair>, layout: Box<Layout> },
    /// Per-unit shards paged on demand.
    Paged { pager: BlockPager },
}

/// One unit's two factors as a sweep applies them: borrowed from a
/// resident index, or fetched through the pager.
pub(crate) enum Unit<'a> {
    Held(&'a FactorPair),
    Fetched(Arc<FactorPair>),
}

impl std::ops::Deref for Unit<'_> {
    type Target = FactorPair;

    fn deref(&self) -> &FactorPair {
        match self {
            Unit::Held(pair) => pair,
            Unit::Fetched(pair) => pair,
        }
    }
}

impl SpokeFactors {
    /// Resident factors from every unit's pair, in unit order, over the
    /// diagonal blocks of `block_sizes`.
    pub(crate) fn resident(units: Vec<FactorPair>, block_sizes: &[usize]) -> Result<Self> {
        let layout = Layout::new(block_sizes, units.iter().map(|p| (p.blocks, p.dim())))?;
        Ok(SpokeFactors::Resident { units, layout: Box::new(layout) })
    }

    /// The pager, when paged.
    pub(crate) fn pager(&self) -> Option<&BlockPager> {
        match self {
            SpokeFactors::Resident { .. } => None,
            SpokeFactors::Paged { pager } => Some(pager),
        }
    }

    fn layout(&self) -> &Layout {
        match self {
            SpokeFactors::Resident { layout, .. } => layout,
            SpokeFactors::Paged { pager } => &pager.inner.layout,
        }
    }

    /// Stored nonzeros of `L₁⁻¹` and of `U₁⁻¹` (from the directory when
    /// paged).
    pub(crate) fn nnz(&self) -> (usize, usize) {
        match self {
            SpokeFactors::Resident { units, .. } => {
                units.iter().fold((0, 0), |(l1, u1), p| (l1 + p.l1.nnz(), u1 + p.u1.nnz()))
            }
            SpokeFactors::Paged { pager } => pager
                .directory()
                .iter()
                .fold((0, 0), |(l1, u1), m| (l1 + m.l1_nnz as usize, u1 + m.u1_nnz as usize)),
        }
    }

    /// Logical byte footprint of both factors: `sparse_bytes(n₁, nnz)`
    /// each, as the whole block-diagonal matrices would take, whatever
    /// the representation and residency (the paper's space-accounting
    /// convention; actual resident bytes are in [`PagerStats`]).
    pub(crate) fn memory_bytes(&self) -> usize {
        let (l1, u1) = self.nnz();
        let n1 = self.layout().n1();
        sparse_bytes(n1, l1) + sparse_bytes(n1, u1)
    }

    /// Prefix sums of the block sizes (`len = blocks + 1`).
    pub(crate) fn starts(&self) -> &[usize] {
        &self.layout().starts
    }

    /// `[bs, be)` of block `b` in the permuted spoke space.
    pub(crate) fn block_range(&self, b: usize) -> Result<(usize, usize)> {
        self.layout().block_range(b)
    }

    /// Number of units.
    pub(crate) fn num_units(&self) -> usize {
        self.layout().num_units()
    }

    /// `[us, ue)` of unit `u`'s rows, and its blocks.
    pub(crate) fn unit_span(&self, u: usize) -> Result<((usize, usize), Range<usize>)> {
        let layout = self.layout();
        Ok((layout.unit_range(u)?, layout.unit_blocks(u)?))
    }

    /// Stored nonzeros of unit `u`'s two factors (the directory's
    /// `l1_nnz + u1_nnz` when paged): the work one right-hand side does
    /// in it.
    pub(crate) fn unit_nnz(&self, u: usize) -> u64 {
        match self {
            SpokeFactors::Resident { units, .. } => {
                units.get(u).map_or(0, |p| (p.l1.nnz() + p.u1.nnz()) as u64)
            }
            SpokeFactors::Paged { pager } => {
                pager.directory().get(u).map_or(0, |m| m.l1_nnz.saturating_add(m.u1_nnz))
            }
        }
    }

    /// Unit `u`'s factors: borrowed when resident, fetched through the
    /// pager when paged.
    pub(crate) fn unit(&self, u: usize) -> Result<Unit<'_>> {
        match self {
            SpokeFactors::Resident { units, .. } => units
                .get(u)
                .map(Unit::Held)
                .ok_or(Error::IndexOutOfBounds { index: u, bound: units.len() }),
            SpokeFactors::Paged { pager } => pager.fetch(u).map(Unit::Fetched),
        }
    }

    /// `X ← U₁⁻¹ L₁⁻¹ X` in place on the row-major `n₁ × k` block `x`
    /// (row `i`'s `k` values contiguous, one per right-hand side): the
    /// spoke solve of both halves of Algorithm 2 and of the Schur
    /// refresh. Right-hand side `j` of the result is bit-identical to
    /// `CscMatrix::matvec_into` applied twice with the whole factors to
    /// right-hand side `j` of the input.
    ///
    /// Every solve, resident or paged and at any width, walks the units
    /// once ([`Part::sweep`]). Each unit's rows are one contiguous
    /// stretch of `x`, and [`SpokeFactors::unit_step`] applies both of
    /// the unit's factors to all `k` lanes of it with the
    /// seed-interleaved kernel `CscMatrix::interleaved_block_into`. When
    /// paged it fetches each touched unit a single time per sweep,
    /// however many seeds touch it (Lemma 1: the factors are block
    /// diagonal, so a unit of the result depends only on that unit of
    /// the input); units whose input rows are all zero are never fetched.
    /// `scratch` holds the sweep's intermediate buffers from call to
    /// call. With `split`, a sweep whose touched units hold more than
    /// [`SPLIT_SWEEP_FLOOR`] stored nonzeros runs as two contiguous unit
    /// ranges `[0, s)` and `[s, units)`, balanced by those nonzeros and
    /// run by [`bear_sparse::parallel::run_chunked`] (the lower range on
    /// the calling thread), each over its own side of `x` split at the
    /// first row of the upper range. Each row belongs to exactly one unit
    /// and each unit to exactly one range, so every row is still written
    /// by the same kernel call in the same order, and each touched unit
    /// is still fetched once per sweep: the output bits are the same
    /// either way.
    pub(crate) fn solve_into(
        &self,
        x: &mut [f64],
        k: usize,
        scratch: &mut SweepScratch,
        split: bool,
    ) -> Result<()> {
        let n1 = self.layout().n1();
        if k == 0 || n1.checked_mul(k) != Some(x.len()) {
            return Err(Error::DimensionMismatch {
                op: "spoke solve",
                lhs: (n1, k),
                rhs: (x.len().checked_div(k).unwrap_or(0), k),
            });
        }
        let at = if split { split_unit_of(self, x, k)? } else { None };
        if let Some(s) = at {
            return self.sweep_in_two(s, x, k, scratch);
        }
        let [whole, _] = &mut scratch.mids;
        Part { units: 0..self.num_units(), base: 0, k, x, mid: whole }.sweep(self)
    }

    /// The split arm of [`SpokeFactors::solve_into`]: units `[0, s)` on
    /// the calling thread and `[s, units)` on a scoped helper, each over
    /// its own side of `x` split at the first row of unit `s`. Unlike an
    /// unsplit sweep it allocates, listing the two parts.
    fn sweep_in_two(
        &self,
        s: usize,
        x: &mut [f64],
        k: usize,
        scratch: &mut SweepScratch,
    ) -> Result<()> {
        let row = self.layout().unit_range(s)?.0;
        let (lo, hi) = x.split_at_mut((row * k).min(x.len()));
        let [lower, upper] = &mut scratch.mids;
        let parts = vec![
            Part { units: 0..s, base: 0, k, x: lo, mid: lower },
            Part { units: s..self.num_units(), base: row, k, x: hi, mid: upper },
        ];
        bear_sparse::parallel::run_chunked(parts, "spoke sweep", |part| part.sweep(self))?;
        Ok(())
    }

    /// The pruned top-k resolve of block `b`, in place on the width-1
    /// spoke vector `x`: over its rows `[bs, be)`,
    /// `x[bs..be] ← U₁⁻¹ L₁⁻¹ x[bs..be]`, bit-identical to the same rows
    /// of [`SpokeFactors::solve_into`]. It applies the block's part of its
    /// unit, borrowed when resident and fetched once when paged (never,
    /// if the block's input rows are all zero).
    pub(crate) fn solve_block(
        &self,
        b: usize,
        x: &mut [f64],
        scratch: &mut SweepScratch,
    ) -> Result<()> {
        let layout = self.layout();
        let (bs, be) = layout.block_range(b)?;
        let u = layout.unit_of(b);
        let base = bs.checked_sub(layout.unit_range(u)?.0).ok_or_else(|| out_of_bounds(bs, be))?;
        let xb = x.get_mut(bs..be).ok_or_else(|| out_of_bounds(bs, be))?;
        let [mid, _] = &mut scratch.mids;
        self.unit_step(u, base, 1, xb, mid)
    }

    /// The one per-unit step of every spoke solve: `x ← U₁⁻¹ L₁⁻¹ x` on
    /// rows of unit `u` starting `base` rows into it (the whole unit in a
    /// sweep, one block in a top-k resolve), with `x` those rows' `k`
    /// lanes each, row-major. When every input is an exact zero the unit
    /// is skipped, never fetched, and its rows are written `+0.0`, as the
    /// per-seed kernel leaves them. Otherwise `L` runs from `x` into
    /// `mid` (grown on first use to the widest unit and never shrunk) and
    /// `U` from `mid` back over `x`. A lane whose inputs are zero where
    /// another's are not adds only `±0`, and every output element still
    /// sums its block's columns in ascending order whatever the width,
    /// which is all bit-identity needs (DESIGN.md §13).
    fn unit_step(
        &self,
        u: usize,
        base: usize,
        k: usize,
        x: &mut [f64],
        mid: &mut Vec<f64>,
    ) -> Result<()> {
        if all_zero(x) {
            x.fill(0.0);
            return Ok(());
        }
        if mid.len() < x.len() {
            mid.resize(x.len(), 0.0);
        }
        let t = mid.get_mut(..x.len()).ok_or_else(|| out_of_bounds(base, base + x.len()))?;
        let unit = self.unit(u)?;
        unit.l1.interleaved_block_into(base, k, x, t)?;
        unit.u1.interleaved_block_into(base, k, t, x)
    }
}

/// Stored nonzeros (`l1_nnz + u1_nnz` of each unit) that the touched
/// units of a swept solve must exceed before the sweep is split in
/// two: below it, a scoped helper thread costs more than half the sweep
/// saves. A `web_bs_like` back sweep touches every unit, about 406,000
/// nonzeros in all.
pub const SPLIT_SWEEP_FLOOR: u64 = 1 << 15;

/// The buffers a spoke sweep keeps from one [`SpokeFactors::solve_into`]
/// call to the next: `L`'s row-major output, one per sweep part (a
/// split sweep has two). Each grows on first use to the widest unit
/// times the width and is never shrunk, so repeated solves of one index
/// at one width allocate nothing here.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    mids: [Vec<f64>; 2],
}

/// Where to split a sweep over the row-major `k`-lane block `x`: the
/// unit `s` that starts the upper range, chosen so the touched units'
/// nonzeros on either side are as even as unit boundaries allow, or
/// `None` when the touched units hold no more than [`SPLIT_SWEEP_FLOOR`]
/// or one side would hold none of them.
fn split_unit_of(spokes: &SpokeFactors, x: &[f64], k: usize) -> Result<Option<usize>> {
    let layout = spokes.layout();
    let cost = |u: usize| -> Result<u64> {
        let (us, ue) = layout.unit_range(u)?;
        if x.get(us * k..ue * k).is_some_and(all_zero) {
            return Ok(0);
        }
        Ok(spokes.unit_nnz(u))
    };
    let units = layout.num_units();
    let mut total = 0u64;
    for u in 0..units {
        total = total.saturating_add(cost(u)?);
    }
    if total <= SPLIT_SWEEP_FLOOR {
        return Ok(None);
    }
    let mut below = 0u64;
    for u in 0..units {
        let through = below.saturating_add(cost(u)?);
        if through.saturating_mul(2) >= total {
            // Split before or after unit `u`, whichever is more even.
            let (s, lower) =
                if total - 2 * below < 2 * through - total { (u, below) } else { (u + 1, through) };
            return Ok((lower > 0 && lower < total).then_some(s));
        }
        below = through;
    }
    Ok(None)
}

/// One range of units of a swept solve: the part's rows of the row-major
/// `k`-lane block it solves in place, from row `base` to the end of its
/// range, and its own intermediate buffer.
struct Part<'a> {
    units: Range<usize>,
    base: usize,
    k: usize,
    x: &'a mut [f64],
    mid: &'a mut Vec<f64>,
}

impl Part<'_> {
    /// One ascending sweep over the part's units, in place, each by
    /// [`SpokeFactors::unit_step`] on the unit's rows. Every row belongs
    /// to one unit, so no input is read after it was replaced.
    fn sweep(self, spokes: &SpokeFactors) -> Result<()> {
        let Part { units, base, k, x, mid } = self;
        for u in units {
            let (us, ue) = spokes.layout().unit_range(u)?;
            let rows = us
                .checked_sub(base)
                .zip(ue.checked_sub(base))
                .and_then(|(lo, hi)| x.get_mut(lo * k..hi * k))
                .ok_or_else(|| out_of_bounds(us, ue))?;
            spokes.unit_step(u, 0, k, rows, mid)?;
        }
        Ok(())
    }
}

fn out_of_bounds(bs: usize, be: usize) -> Error {
    Error::InvalidStructure(format!("spoke block [{bs}, {be}) out of bounds"))
}

/// Whether a unit's (or block's) input rows are all exact zeros: the
/// kernels then skip it without fetching it.
fn all_zero(x: &[f64]) -> bool {
    x.iter().all(|&v| v == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{decode_shard, encode_shard};

    fn toy_pair(dim: usize, seed: f64) -> FactorPair {
        // Lower-triangular L with unit diagonal, upper-triangular U.
        let mut lp = vec![0usize];
        let mut li = Vec::new();
        let mut lv = Vec::new();
        let mut up = vec![0usize];
        let mut ui = Vec::new();
        let mut uv = Vec::new();
        for c in 0..dim {
            li.push(c);
            lv.push(1.0);
            if c + 1 < dim {
                li.push(c + 1);
                lv.push(seed * 0.25 + c as f64 * 0.01);
            }
            lp.push(li.len());
            if c > 0 {
                ui.push(c - 1);
                uv.push(-seed * 0.5);
            }
            ui.push(c);
            uv.push(1.0 + seed);
            up.push(ui.len());
        }
        FactorPair::new(
            CscMatrix::try_from_parts(dim, dim, lp, li, lv).unwrap(),
            CscMatrix::try_from_parts(dim, dim, up, ui, uv).unwrap(),
            1,
        )
        .unwrap()
    }

    /// Builds an in-memory image of framed shards, one block each, plus
    /// the directory and the block sizes.
    fn build_image(pairs: &[FactorPair]) -> (Vec<u8>, Vec<SegmentMeta>, Vec<usize>) {
        let mut image = vec![0u8; 8]; // pretend 8-byte header
        let mut dir = Vec::new();
        for (b, pair) in pairs.iter().enumerate() {
            let (frame, meta) = crate::persist::shard_frame(b, pair, image.len() as u64);
            image.extend_from_slice(&frame);
            dir.push(meta);
        }
        (image, dir, pairs.iter().map(FactorPair::dim).collect())
    }

    fn pager_over(pairs: &[FactorPair], budget: Option<usize>) -> BlockPager {
        let (image, dir, sizes) = build_image(pairs);
        BlockPager::new(Box::new(MemSource(image)), dir, &sizes, budget).unwrap()
    }

    /// The directory entry and layout of a lone one-block shard `s`
    /// holding `pair`.
    fn lone(s: usize, pair: &FactorPair) -> (SegmentMeta, Layout) {
        let (_, meta) = crate::persist::shard_frame(s, pair, 0);
        let mut sizes = vec![1; s];
        sizes.push(pair.dim());
        let mut units = vec![(1, 1); s];
        units.push((1, pair.dim()));
        (meta, Layout::new(&sizes, units).unwrap())
    }

    #[test]
    fn codec_round_trip_is_exact() {
        let pair = toy_pair(5, 0.3);
        let bytes = encode_shard(2, &pair);
        let (meta, layout) = lone(2, &pair);
        let back = decode_shard(&bytes, 2, &meta, &layout).unwrap();
        assert_eq!(back.l1, pair.l1);
        assert_eq!(back.u1, pair.u1);
        // Wrong expectations are typed shard corruption.
        for wrong in [
            SegmentMeta { first_block: 3, ..meta },
            SegmentMeta { blocks: 2, ..meta },
            SegmentMeta { dim: 6, ..meta },
        ] {
            assert!(matches!(
                decode_shard(&bytes, 2, &wrong, &layout),
                Err(Error::CorruptIndex { section: "spoke_segment", .. })
            ));
        }
    }

    #[test]
    fn fetch_hits_after_miss_and_counters_add_up() {
        let pairs = [toy_pair(4, 0.1), toy_pair(3, 0.2)];
        let pager = pager_over(&pairs, None);
        for _ in 0..3 {
            pager.fetch(0).unwrap();
            pager.fetch(1).unwrap();
        }
        let st = pager.stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.hits, 4);
        assert_eq!(st.hits + st.misses, 6);
        assert_eq!(st.resident_blocks, 2);
        assert_eq!(st.evictions, 0);
    }

    /// `misses − resident_blocks == evictions`: every miss inserts a
    /// shard, and every shard that leaves the set was evicted.
    /// The use-ordered index holds exactly the resident shards.
    fn assert_conserved(pager: &BlockPager) {
        let st = pager.stats();
        assert_eq!(st.misses - st.resident_blocks, st.evictions, "{st:?}");
        let set = pager.lock().unwrap();
        let mut indexed: Vec<usize> = set.by_use.values().copied().collect();
        indexed.sort_unstable();
        let mut resident: Vec<usize> = set.map.keys().copied().collect();
        resident.sort_unstable();
        assert_eq!(indexed, resident);
    }

    #[test]
    fn tiny_budget_evicts_most_recent_but_keeps_the_faulted_block() {
        let pairs = [toy_pair(6, 0.1), toy_pair(6, 0.2), toy_pair(6, 0.3)];
        let pager = pager_over(&pairs, Some(1)); // smaller than any shard
        let a = pager.fetch(0).unwrap();
        pager.fetch(1).unwrap();
        pager.fetch(2).unwrap();
        let st = pager.stats();
        assert_eq!(st.resident_blocks, 1, "budget of one byte keeps exactly one shard");
        assert_eq!(st.evictions, 2);
        // The shard just faulted is the one kept: fetching it again hits.
        pager.fetch(2).unwrap();
        assert_eq!(pager.stats().hits, 1);
        assert_conserved(&pager);
        // The Arc handed out before eviction is still fully usable.
        assert_eq!(a.dim(), 6);
        assert_eq!(a.l1.nnz(), pairs[0].l1.nnz());
    }

    /// The cyclic scan the query kernels produce: ascending sweeps over
    /// `N` shards under a cap that fits `C` of them. Strict LRU evicts
    /// exactly the shard the next sweep needs first and gets 0 hits per
    /// sweep; the most-recently-used rule keeps `C − 1` shards resident
    /// across sweeps.
    #[test]
    fn repeated_sweeps_hit_a_stable_resident_set() {
        const N: usize = 12;
        let pairs: Vec<FactorPair> = (0..N).map(|b| toy_pair(5, 0.1 * b as f64)).collect();
        let block_bytes = pairs[0].memory_bytes();
        assert!(pairs.iter().all(|p| p.memory_bytes() == block_bytes));
        for fit in [1usize, 2, 3, 5, 11] {
            let pager = pager_over(&pairs, Some(fit * block_bytes));
            for sweep in 0..6 {
                let before = pager.stats().hits;
                for b in 0..N {
                    pager.fetch(b).unwrap();
                }
                let hits = pager.stats().hits - before;
                if sweep > 0 {
                    assert!(hits as usize >= fit - 1, "cap {fit}, sweep {sweep}: {hits} hits");
                }
                assert!(pager.stats().resident_bytes as usize <= fit * block_bytes);
                assert_conserved(&pager);
            }
        }
    }

    #[test]
    fn conservation_holds_across_fetches_and_budget_changes() {
        let pairs: Vec<FactorPair> = (1..=7).map(|d| toy_pair(d, 0.05 * d as f64)).collect();
        let total: usize = pairs.iter().map(FactorPair::memory_bytes).sum();
        let pager = pager_over(&pairs, Some(total / 3));
        let budgets = [Some(1), None, Some(total / 2), Some(pairs[6].memory_bytes()), Some(0)];
        let mut x = 7usize;
        for step in 0..200 {
            x = (x * 31 + 11) % 97;
            pager.fetch(x % pairs.len()).unwrap();
            if step % 17 == 0 {
                pager.set_budget(budgets[(step / 17) % budgets.len()]).unwrap();
            }
            assert_conserved(&pager);
            assert!(pager.stats().resident_blocks >= 1);
        }
    }

    /// A hub (node 0) joined to `chains` chains of `len` nodes each:
    /// SlashBurn removes the hub and every chain is its own spoke block.
    fn hub_and_chains(chains: usize, len: usize) -> bear_graph::Graph {
        let mut edges = Vec::new();
        for ch in 0..chains {
            let first = 1 + ch * len;
            edges.push((0, first));
            for i in first..first + len - 1 {
                edges.push((i, i + 1));
            }
        }
        let sym: Vec<(usize, usize)> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        bear_graph::Graph::from_edges(1 + chains * len, &sym).unwrap()
    }

    fn fetches(pager: &BlockPager) -> u64 {
        let st = pager.stats();
        st.hits + st.misses
    }

    /// One width-k paged solve runs two spoke sweeps (the hub half and
    /// the spoke half), and each sweep fetches a touched unit once:
    /// `hits + misses ≤ 2 × units touched` (applying `L₁⁻¹` and `U₁⁻¹`
    /// in separate sweeps took up to 4×). Unlimited budget, so every
    /// touched unit misses exactly once.
    #[test]
    fn fused_solve_fetches_each_touched_block_once_per_sweep() {
        use crate::precompute::{Bear, BearConfig};
        let bear = Bear::new(&hub_and_chains(30, 30), &BearConfig::exact(0.15)).unwrap();
        assert!(bear.spokes.num_units() >= 3, "blocks: {:?}", bear.block_sizes);
        for seeds in
            [vec![0], vec![2], vec![1, 40, 170, 400, 531, 650, 777, 899], vec![880, 880, 5]]
        {
            let paged = bear.paged_in_memory(None).unwrap();
            let pager = paged.pager().unwrap();
            assert_eq!(paged.query_block(&seeds).unwrap(), bear.query_block(&seeds).unwrap());
            let touched = pager.stats().misses;
            assert!(touched >= 1);
            assert!(fetches(pager) <= 2 * touched, "seeds {seeds:?}: {:?}", pager.stats());
        }
    }

    /// The pruned top-k resolve of one block fetches its unit exactly
    /// once, and matches the resident resolve bit for bit.
    #[test]
    fn top_k_block_resolve_fetches_once() {
        use crate::precompute::{Bear, BearConfig};
        let bear = Bear::new(&hub_and_chains(40, 10), &BearConfig::exact(0.15)).unwrap();
        assert!(bear.spokes.num_units() >= 2, "blocks: {:?}", bear.block_sizes);
        let paged = bear.paged_in_memory(None).unwrap();
        let pager = paged.pager().unwrap();
        let n1 = pager.dim();
        for b in 0..bear.block_sizes.len() {
            let (bs, be) = bear.spokes.block_range(b).unwrap();
            let mut x = vec![0.0; n1];
            for (i, v) in x[bs..be].iter_mut().enumerate() {
                *v = 0.5 + i as f64;
            }
            let mut y = x.clone();
            let before = fetches(pager);
            paged.spokes.solve_block(b, &mut y, &mut SweepScratch::default()).unwrap();
            assert_eq!(fetches(pager) - before, 1, "block {b}");
            let mut y_res = x.clone();
            bear.spokes.solve_block(b, &mut y_res, &mut SweepScratch::default()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y[bs..be]), bits(&y_res[bs..be]), "block {b}");
        }
    }

    /// Directory nonzeros of every shard together.
    fn total_nnz(pager: &BlockPager) -> u64 {
        pager.directory().iter().map(|m| m.l1_nnz + m.u1_nnz).sum()
    }

    /// The whole block-diagonal factors, assembled from the units.
    fn whole(spokes: &SpokeFactors) -> (CscMatrix, CscMatrix) {
        let (mut l1, mut u1) = (BlockDiagBuilder::default(), BlockDiagBuilder::default());
        for u in 0..spokes.num_units() {
            let unit = spokes.unit(u).unwrap();
            l1.push(&unit.l1);
            u1.push(&unit.u1);
        }
        (l1.finish(), u1.finish())
    }

    /// A row-major width-`k` input with nonzeros in every block (a back
    /// sweep's `c·q₁ − H₁₂ r₂` is dense) and a few exact zeros.
    fn dense_input(n1: usize, k: usize) -> Vec<f64> {
        let mut x = vec![0.0; n1 * k];
        for (at, v) in x.iter_mut().enumerate() {
            let (i, j) = (at / k, at % k);
            if (i + j) % 7 != 3 {
                *v = 0.25 + ((i * 31 + j * 17) % 13) as f64 / 8.0;
            }
        }
        x
    }

    /// A row-major width-`k` input with two nonzeros per seed, one of
    /// them negative, in rows spread so that seeds share few blocks: a
    /// unit then holds seeds whose rows are zero in some of its blocks
    /// and not in others.
    fn sparse_input(n1: usize, k: usize) -> Vec<f64> {
        let mut x = vec![0.0; n1 * k];
        for j in 0..k {
            x[(j * 41 + 5) % n1 * k + j] = 1.0;
            x[(j * 97 + 11) % n1 * k + j] = -0.5;
        }
        x
    }

    /// Units merge consecutive blocks until one more would pass
    /// [`UNIT_ROWS`] rows or [`UNIT_BYTES`] of factor bytes, a block past
    /// either cap is a unit alone, and the units cover every block in
    /// order.
    #[test]
    fn units_grow_up_to_both_caps() {
        /// Dense lower- and upper-triangular factors of dimension `dim`.
        fn dense(dim: usize) -> (CscMatrix, CscMatrix) {
            let tri = |lower: bool| {
                let (mut indptr, mut indices) = (vec![0], Vec::new());
                for c in 0..dim {
                    indices.extend(if lower { c..dim } else { 0..c + 1 });
                    indptr.push(indices.len());
                }
                let values = vec![1.0; indices.len()];
                CscMatrix::try_from_parts(dim, dim, indptr, indices, values).unwrap()
            };
            (tri(true), tri(false))
        }
        let cut = |dims: &[usize]| -> Vec<(usize, usize)> {
            let mut b = UnitBuilder::default();
            let mut units = Vec::new();
            for &d in dims {
                let (l1, u1) = dense(d);
                units.extend(b.push(&l1, &u1).unwrap().map(|p| (p.blocks(), p.dim())));
            }
            units.extend(b.take().unwrap().map(|p| (p.blocks(), p.dim())));
            assert!(b.take().unwrap().is_none());
            units
        };
        assert_eq!(cut(&[]), vec![]);
        // Tiny blocks: the row cap binds.
        assert_eq!(cut(&[1; 3]), vec![(3, 3)]);
        assert_eq!(cut(&[2; 129]), vec![(128, UNIT_ROWS), (1, 2)]);
        assert_eq!(cut(&[3, UNIT_ROWS + 1, 3]), vec![(1, 3), (1, UNIT_ROWS + 1), (1, 3)]);
        // Dense 40-row blocks take 26,896 bytes: two fit in 64 KiB, and
        // a third would not, well inside the 256-row cap.
        assert_eq!(cut(&[40; 5]), vec![(2, 80), (2, 80), (1, 40)]);
        // A block past the byte cap alone is a unit alone.
        assert_eq!(cut(&[2, 100, 2]), vec![(1, 2), (1, 100), (1, 2)]);
    }

    /// The split in-place sweep over a row-major block, resident and
    /// paged, against two whole-factor `matvec_into` calls per seed:
    /// widths 1, 8 and 16, on dense inputs and on inputs with two
    /// nonzeros a seed, under unlimited, a third of the factors, and
    /// one-byte budgets, on a graph whose units cross
    /// [`SPLIT_SWEEP_FLOOR`] (a dense sweep splits) and on one below it
    /// (it does not). Units hold several blocks on both. Every output bit
    /// matches, a fresh unlimited pager fetches each touched unit exactly
    /// once per split sweep whatever the width, and the counters
    /// reconcile. One sweep scratch serves every solve, so buffers left
    /// by a wider or different-index solve are reused.
    #[test]
    fn split_sweep_is_bit_identical_and_fetches_each_block_once() {
        use crate::precompute::{Bear, BearConfig};
        let bits = |m: &[f64]| m.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut scratch = SweepScratch::default();
        for (chains, len, splits) in [(48, 30, true), (10, 3, false)] {
            let bear = Bear::new(&hub_and_chains(chains, len), &BearConfig::exact(0.15)).unwrap();
            let n1 = bear.n1;
            let probe = bear.paged_in_memory(None).unwrap();
            let pager = probe.pager().unwrap();
            assert!(bear.block_sizes.len() >= 8, "blocks: {:?}", bear.block_sizes);
            assert!(pager.num_shards() < bear.block_sizes.len(), "{:?}", pager.directory());
            assert_eq!(total_nnz(pager) > SPLIT_SWEEP_FLOOR, splits, "{:?}", pager.directory());
            let total: usize = pager.directory().iter().map(SegmentMeta::resident_bytes).sum();
            let (l1, u1) = whole(&bear.spokes);
            let inputs = |k| [(dense_input(n1, k), true), (sparse_input(n1, k), false)];
            for (k, (x, dense)) in [1, 8, 16].into_iter().flat_map(|k| inputs(k).map(|i| (k, i))) {
                let columns: Vec<Vec<f64>> =
                    (0..k).map(|j| x.iter().skip(j).step_by(k).copied().collect()).collect();
                let touched: Vec<usize> = (0..pager.num_shards())
                    .filter(|&s| {
                        let (us, ue) = pager.inner.layout.unit_range(s).unwrap();
                        columns.iter().any(|col| !all_zero(&col[us..ue]))
                    })
                    .collect();
                let dir = pager.directory();
                let touched_nnz: u64 = touched.iter().map(|&s| dir[s].l1_nnz + dir[s].u1_nnz).sum();
                let split = split_unit_of(&probe.spokes, &x, k).unwrap();
                assert_eq!(
                    split.is_some(),
                    touched_nnz > SPLIT_SWEEP_FLOOR && touched.len() > 1,
                    "k {k}, {dense}"
                );
                if dense {
                    assert_eq!(split.is_some(), splits, "k {k}");
                }
                let touched = touched.len() as u64;
                let mut want = vec![0.0; n1 * k];
                for (j, col) in columns.iter().enumerate() {
                    let (mut t, mut y) = (vec![0.0; n1], vec![0.0; n1]);
                    l1.matvec_into(col, &mut t).unwrap();
                    u1.matvec_into(&t, &mut y).unwrap();
                    for (slot, v) in want.iter_mut().skip(j).step_by(k).zip(y) {
                        *slot = v;
                    }
                }
                let mut resident = x.clone();
                bear.spokes.solve_into(&mut resident, k, &mut scratch, true).unwrap();
                assert_eq!(bits(&resident), bits(&want), "resident k {k}, {dense}");
                for budget in [None, Some(total / 3), Some(1)] {
                    let paged = bear.paged_in_memory(budget).unwrap();
                    let pager = paged.pager().unwrap();
                    for sweep in 1..=3u64 {
                        let mut y = x.clone();
                        paged.spokes.solve_into(&mut y, k, &mut scratch, true).unwrap();
                        assert_eq!(bits(&y), bits(&want), "k {k}, {dense}, budget {budget:?}");
                        let st = pager.stats();
                        if budget.is_none() {
                            // Every touched unit misses once, then hits
                            // once per later sweep.
                            assert_eq!((st.misses, st.hits), (touched, (sweep - 1) * touched));
                        }
                        assert_conserved(pager);
                    }
                }
            }
        }
    }

    fn assert_shard_corrupt(got: Result<FactorPair>, shard: usize, case: &str) {
        match got {
            Err(Error::CorruptIndex { section: "spoke_segment", detail }) => {
                assert!(detail.starts_with(&format!("shard {shard}: ")), "{case}: {detail}");
            }
            Err(other) => panic!("{case}: expected spoke_segment corruption, got {other}"),
            Ok(_) => panic!("{case}: hostile payload decoded"),
        }
    }

    /// Every truncation, a trailing byte, and hostile length prefixes on
    /// each of the six arrays (`u64::MAX`, a count whose byte length
    /// overflows, one element more than remains) fail typed, naming the
    /// shard, without panicking. (`SectionReader::words` checks a prefix
    /// against the remaining payload before anything is allocated, so
    /// no array's capacity exceeds the payload.)
    #[test]
    fn decode_segment_rejects_hostile_payloads_typed() {
        let (shard, dim) = (3, 5);
        let pair = toy_pair(dim, 0.3);
        let bytes = encode_shard(shard, &pair);
        let (meta, layout) = lone(shard, &pair);
        let decode = |payload: &[u8]| decode_shard(payload, shard, &meta, &layout);
        assert!(decode(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert_shard_corrupt(decode(&bytes[..cut]), shard, &format!("truncated to {cut}"));
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_shard_corrupt(decode(&trailing), shard, "one trailing byte");

        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut prefix = 24; // after first block, block count and dimension
        for array in 0..6 {
            let remaining = (bytes.len() - prefix - 8) as u64 / 8;
            for bad in [u64::MAX, u64::MAX / 8 + 1, remaining + 1] {
                let mut hostile = bytes.clone();
                hostile[prefix..prefix + 8].copy_from_slice(&bad.to_le_bytes());
                assert_shard_corrupt(
                    decode(&hostile),
                    shard,
                    &format!("array {array}: length prefix {bad}"),
                );
            }
            prefix += 8 + 8 * word(prefix) as usize;
        }
        assert_eq!(prefix, bytes.len(), "walked all six arrays");
    }

    #[test]
    fn corrupt_segment_fails_typed_naming_the_shard() {
        let pairs = [toy_pair(4, 0.1), toy_pair(4, 0.2)];
        let (mut image, dir, sizes) = build_image(&pairs);
        // Flip a bit inside the second shard's payload.
        let off = dir[1].offset as usize + 20;
        image[off] ^= 0x40;
        let pager = BlockPager::new(Box::new(MemSource(image)), dir, &sizes, None).unwrap();
        pager.fetch(0).unwrap();
        let err = pager.fetch(1).unwrap_err();
        match err {
            Error::CorruptIndex { section, detail } => {
                assert_eq!(section, "spoke_segment");
                assert!(detail.contains("shard 1"), "detail lacks shard id: {detail}");
            }
            other => panic!("expected CorruptIndex, got {other}"),
        }
    }

    #[test]
    fn directory_dimension_mismatch_rejected() {
        let pairs = [toy_pair(4, 0.1)];
        let (image, dir, _) = build_image(&pairs);
        let err = BlockPager::new(Box::new(MemSource(image)), dir, &[5], None).unwrap_err();
        assert!(matches!(err, Error::CorruptIndex { section: "segment_directory", .. }));
    }

    /// A unit whose factor has an entry across the boundary of two of its
    /// blocks fails the audit typed, naming the shard; the same entries
    /// inside one block pass.
    #[test]
    fn audit_rejects_entries_across_block_boundaries() {
        let full = || {
            CscMatrix::try_from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0; 4]).unwrap()
        };
        let pair = FactorPair::new(full(), full(), 2).unwrap();
        let layout = Layout::new(&[3, 1, 1], [(1, 3), (2, 2)]).unwrap();
        assert_shard_corrupt(layout.audit(1, &pair).map(|()| pair.clone()), 1, "cross-block");
        let one_block = FactorPair::new(full(), full(), 1).unwrap();
        Layout::new(&[2], [(1, 2)]).unwrap().audit(0, &one_block).unwrap();
    }

    #[test]
    fn set_budget_recaps_and_evicts() {
        let pairs = [toy_pair(8, 0.1), toy_pair(8, 0.2), toy_pair(8, 0.3)];
        let pager = pager_over(&pairs, None);
        for b in 0..3 {
            pager.fetch(b).unwrap();
        }
        assert_eq!(pager.stats().resident_blocks, 3);
        pager.set_budget(Some(1)).unwrap();
        assert_eq!(pager.stats().resident_blocks, 1);
        // Every later fault keeps only itself, and still serves.
        for b in [1, 0, 2, 2, 1] {
            assert_eq!(pager.fetch(b).unwrap().dim(), 8);
            assert_eq!(pager.stats().resident_blocks, 1);
        }
        assert_conserved(&pager);
        // Unlimited again: shards re-accumulate.
        pager.set_budget(None).unwrap();
        for b in 0..3 {
            pager.fetch(b).unwrap();
        }
        assert_eq!(pager.stats().resident_blocks, 3);
    }

    /// The eviction rule's choices, pinned: three ascending sweeps and
    /// then a pseudo-random fetch sequence over nine blocks of unequal
    /// sizes under a budget that fits about three of them, re-capped
    /// twice on the way. The hits, misses and evictions, every victim in
    /// order, and the final resident set were recorded from the linear
    /// scan over the resident map that the use-ordered index replaced.
    #[test]
    fn eviction_victims_match_the_recorded_sequence() {
        let pairs: Vec<FactorPair> = (0..9).map(|b| toy_pair(3 + b % 4, 0.1 * b as f64)).collect();
        let unit = pairs[1].memory_bytes();
        let pager = pager_over(&pairs, Some(3 * unit));
        let resident = |p: &BlockPager| -> Vec<usize> {
            let mut set: Vec<usize> = p.lock().unwrap().map.keys().copied().collect();
            set.sort_unstable();
            set
        };
        let sweeps = (0..27).map(|i| i % 9);
        let mut x = 5usize;
        let random = (0..60).map(|_| {
            x = (x * 37 + 11) % 101;
            x % 9
        });
        let mut victims = Vec::new();
        for (step, b) in sweeps.chain(random).enumerate() {
            let before = resident(&pager);
            match step {
                40 => pager.set_budget(Some(5 * unit)).unwrap(),
                60 => pager.set_budget(Some(2 * unit)).unwrap(),
                _ => {}
            }
            pager.fetch(b).unwrap();
            let after = resident(&pager);
            victims.extend(before.into_iter().filter(|v| !after.contains(v)));
        }
        let st = pager.stats();
        assert_eq!((st.hits, st.misses, st.evictions), (14, 73, 72));
        #[rustfmt::skip]
        let want = [
            1, 2, 3, 4, 5, 6, 0, 8, 1, 2, 7, 4, 5, 3, 6, 0, 8, 1, 2, 7, 4, 5, 3, 6, 8, 5, 2, 1, 7,
            1, 7, 2, 3, 0, 8, 5, 6, 7, 0, 3, 0, 7, 2, 6, 7, 1, 2, 5, 8, 3, 0, 8, 3, 6, 5, 8, 7, 0,
            6, 2, 3, 0, 7, 5, 2, 1, 6, 7, 1, 7, 2, 3,
        ];
        assert_eq!(victims, want);
        assert_eq!(resident(&pager), [0]);
        assert_conserved(&pager);
    }
}
