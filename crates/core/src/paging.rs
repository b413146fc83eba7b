//! Out-of-core paging of the block-diagonal spoke factors (DESIGN.md §18).
//!
//! BEAR's preprocessed index is dominated by `L₁⁻¹`/`U₁⁻¹`, the inverted
//! factors of the block-diagonal spoke matrix `H₁₁`. On large graphs
//! those factors outgrow RAM — which is exactly why approximate
//! successors (TPA, BePI) trade exactness for memory. This module keeps
//! the *exact* query path while letting the spoke factors live on disk:
//!
//! * the v3 index format (`persist.rs`) stores one framed, individually
//!   CRC'd **segment per diagonal block**, holding that block's
//!   `L₁⁻¹`/`U₁⁻¹` slices as block-local CSC matrices;
//! * [`BlockPager`] materializes segments lazily via a [`SegmentSource`]
//!   (`pread` on a file handle; plain `std`, no mmap dependency) into a
//!   resident set capped by a byte budget, evicting the most recently
//!   used block other than the one just faulted (scan-resistant; see
//!   `evict_to_limit`);
//! * `SpokeFactors` is the dispatch point the query kernels run
//!   through: the `Resident` variant holds the familiar whole matrices,
//!   the `Paged` variant walks blocks through the pager. Both run every
//!   spoke solve through one sweep over the seed-interleaved kernel
//!   `CscMatrix::interleaved_block_into`, one diagonal block at a time
//!   when paged and one run of consecutive blocks at a time when
//!   resident.
//!
//! # Bit-identity
//!
//! The block sweep is **bit-identical** to applying the whole factors
//! with `CscMatrix::matvec_into` one seed at a time, which is what
//! `tests/paging_identity.rs` proves exhaustively. The argument:
//! `matvec_acc` visits columns in ascending order and skips exact-zero
//! inputs; because the factors are block diagonal, every output element
//! `y[r]` receives contributions only from columns inside `r`'s block.
//! Iterating blocks in ascending order and, within each block, local
//! columns in ascending order therefore replays the exact same additions
//! in the exact same order into every `y[r]`. A block whose inputs are
//! all zero contributes nothing, so it can skip its *fetch* entirely
//! (the paging win: a one-hot seed touches one block in the first
//! sweep); inside a touched block, a seed whose input is zero where
//! another's is not adds `±0`, which changes no bits (DESIGN.md §13).
//! The same locality lets one sweep apply both factors: `L₁⁻¹`'s output
//! on block `b` is exactly `U₁⁻¹`'s input on block `b`, so
//! `SpokeFactors::solve_into` fetches each touched block once and runs
//! `L` then `U` on it before moving on. The top-k resolve of one block
//! is the same per-block step.
//!
//! # Concurrency
//!
//! [`BlockPager`] is shared by all engine workers. Fetches take a single
//! mutex over the resident map; segment I/O and decoding happen
//! *outside* the lock, so concurrent misses on different blocks overlap.
//! Eviction removes entries from the map only — in-flight queries hold
//! `Arc`s, so a block evicted mid-query stays valid until the last user
//! drops it (forced mid-query eviction is exercised by the identity
//! suite with a one-block budget). Hit/miss/eviction counters are
//! atomics surfaced through [`PagerStats`] and the serving `/metrics`.

use crate::persist::SectionReader;
use crate::sync::{Mutex, MutexGuard};
use bear_sparse::mem::{sparse_bytes, MemoryUsage};
use bear_sparse::{CscMatrix, Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame tag of a spoke-block segment in a v3 image.
pub(crate) const SEGMENT_TAG: &[u8; 4] = b"SPKB";
/// Segment frame overhead: tag (4) + payload length (8) + payload crc (4).
pub(crate) const SEGMENT_FRAME_OVERHEAD: usize = 16;

pub(crate) fn corrupt_shard(shard: usize, detail: impl std::fmt::Display) -> Error {
    Error::CorruptIndex { section: "spoke_segment", detail: format!("shard {shard}: {detail}") }
}

/// One diagonal block's inverted factors, stored block-locally: both
/// matrices are `dim × dim` CSC with row indices rebased to the block.
#[derive(Debug, Clone)]
pub struct FactorPair {
    pub(crate) l1: CscMatrix,
    pub(crate) u1: CscMatrix,
}

impl FactorPair {
    /// Builds a pair from block-local factors, validating the shapes.
    pub(crate) fn new(l1: CscMatrix, u1: CscMatrix) -> Result<Self> {
        let dim = l1.nrows();
        if l1.ncols() != dim || u1.nrows() != dim || u1.ncols() != dim {
            return Err(Error::DimensionMismatch {
                op: "spoke factor pair",
                lhs: (l1.nrows(), l1.ncols()),
                rhs: (u1.nrows(), u1.ncols()),
            });
        }
        Ok(FactorPair { l1, u1 })
    }

    /// Block dimension.
    pub fn dim(&self) -> usize {
        self.l1.nrows()
    }

    fn memory_bytes(&self) -> usize {
        self.l1.memory_bytes() + self.u1.memory_bytes()
    }
}

/// Directory entry locating one spoke-block segment inside a v3 image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Absolute file offset of the segment frame (first tag byte).
    pub offset: u64,
    /// Whole frame length: tag + length + payload + crc.
    pub frame_len: u64,
    /// CRC32 of the payload (duplicated inside the frame itself).
    pub crc: u32,
    /// Block dimension; must match the index's `block_sizes` entry.
    pub block_dim: u64,
    /// Stored nonzeros of the block's `L₁⁻¹`.
    pub l1_nnz: u64,
    /// Stored nonzeros of the block's `U₁⁻¹`.
    pub u1_nnz: u64,
}

impl SegmentMeta {
    /// Logical (decoded) byte footprint of this segment's matrices.
    pub fn resident_bytes(&self) -> usize {
        let dim = usize::try_from(self.block_dim).unwrap_or(usize::MAX);
        let l1 = usize::try_from(self.l1_nnz).unwrap_or(usize::MAX);
        let u1 = usize::try_from(self.u1_nnz).unwrap_or(usize::MAX);
        sparse_bytes(dim, l1).saturating_add(sparse_bytes(dim, u1))
    }
}

// ---------------------------------------------------------------------------
// Segment codec
// ---------------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_usize_array(out: &mut Vec<u8>, data: &[usize]) {
    push_u64(out, data.len() as u64);
    for &v in data {
        push_u64(out, v as u64);
    }
}

fn push_f64_array(out: &mut Vec<u8>, data: &[f64]) {
    push_u64(out, data.len() as u64);
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes one block's factors as a segment payload:
/// `block_index | block_dim | L₁⁻¹ arrays | U₁⁻¹ arrays` (each matrix as
/// length-prefixed `indptr | indices | values`; the dimension is the
/// block dimension on both axes).
pub(crate) fn encode_segment(block_index: usize, pair: &FactorPair) -> Vec<u8> {
    let cap = 16
        + 8 * (pair.l1.indptr().len() + pair.l1.indices().len() + pair.l1.values().len())
        + 8 * (pair.u1.indptr().len() + pair.u1.indices().len() + pair.u1.values().len())
        + 48;
    let mut out = Vec::with_capacity(cap);
    push_u64(&mut out, block_index as u64);
    push_u64(&mut out, pair.dim() as u64);
    for m in [&pair.l1, &pair.u1] {
        push_usize_array(&mut out, m.indptr());
        push_usize_array(&mut out, m.indices());
        push_f64_array(&mut out, m.values());
    }
    out
}

/// Decodes a segment payload, running the full structural audit
/// (`try_from_parts`) on both matrices — a checksum-valid segment can
/// still have been written with broken structure or non-finite values.
pub(crate) fn decode_segment(
    payload: &[u8],
    expect_block: usize,
    expect_dim: usize,
) -> Result<FactorPair> {
    let mut cur = SectionReader::for_shard(payload, expect_block);
    let stored_block = cur.u64()?;
    if stored_block != expect_block as u64 {
        return Err(corrupt_shard(
            expect_block,
            format!("segment claims block index {stored_block}"),
        ));
    }
    let dim = cur.u64()?;
    if dim != expect_dim as u64 {
        return Err(corrupt_shard(
            expect_block,
            format!("segment block dimension {dim} does not match directory ({expect_dim})"),
        ));
    }
    let mut mats = Vec::with_capacity(2);
    for which in ["l1_inv", "u1_inv"] {
        let indptr = cur.usize_array()?;
        let indices = cur.usize_array()?;
        let values = cur.f64_array()?;
        let m = CscMatrix::try_from_parts(expect_dim, expect_dim, indptr, indices, values)
            .map_err(|e| corrupt_shard(expect_block, format!("{which}: {e}")))?;
        mats.push(m);
    }
    cur.finish()?;
    let (Some(u1), Some(l1)) = (mats.pop(), mats.pop()) else {
        return Err(corrupt_shard(expect_block, "segment decoded fewer than two matrices"));
    };
    FactorPair::new(l1, u1)
}

/// Slices the columns `[bs, be)` of a block-diagonal matrix into a
/// block-local CSC (row indices rebased to the block), rejecting
/// cross-block entries. Inverse of placing the block back at offset
/// `bs` via `block_diag_concat`.
pub(crate) fn split_block(m: &CscMatrix, bs: usize, be: usize) -> Result<CscMatrix> {
    if be < bs || be > m.ncols() {
        return Err(Error::InvalidStructure(format!(
            "block range [{bs}, {be}) out of bounds for {} columns",
            m.ncols()
        )));
    }
    let bdim = be - bs;
    let mut indptr = Vec::with_capacity(bdim + 1);
    indptr.push(0);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for c in bs..be {
        let (rows, vals) = m.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            if r < bs || r >= be {
                return Err(Error::InvalidStructure(format!(
                    "entry ({r}, {c}) crosses block boundary"
                )));
            }
            indices.push(r - bs);
            values.push(v);
        }
        indptr.push(indices.len());
    }
    CscMatrix::try_from_parts(bdim, bdim, indptr, indices, values)
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
    /// Fetches that read and decoded a segment.
    pub misses: u64,
    /// Blocks evicted to stay under the budget.
    pub evictions: u64,
    /// Bytes currently held by the resident set.
    pub resident_bytes: u64,
    /// Blocks currently resident.
    pub resident_blocks: u64,
}

struct ResidentEntry {
    pair: Arc<FactorPair>,
    bytes: usize,
    last_used: u64,
}

struct ResidentSet {
    map: HashMap<usize, ResidentEntry>,
    /// The resident blocks keyed by their `last_used` tick (ticks are
    /// unique), so the most recently used block is the last entry and
    /// eviction picks its victim in `O(log n)`.
    by_use: BTreeMap<u64, usize>,
    bytes: usize,
    tick: u64,
    /// Byte cap on `bytes`; `None` is unlimited. A single block larger
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

    /// Marks block `b` used now and returns it, if resident.
    fn touch(&mut self, b: usize) -> Option<Arc<FactorPair>> {
        let tick = self.next_tick();
        let entry = self.map.get_mut(&b)?;
        self.by_use.remove(&entry.last_used);
        entry.last_used = tick;
        self.by_use.insert(tick, b);
        Some(entry.pair.clone())
    }

    /// Admits block `b` as used now. Returns whether it replaced a
    /// resident copy.
    fn insert(&mut self, b: usize, pair: Arc<FactorPair>, bytes: usize) -> bool {
        let tick = self.next_tick();
        self.by_use.insert(tick, b);
        self.bytes = self.bytes.saturating_add(bytes);
        let Some(old) = self.map.insert(b, ResidentEntry { pair, bytes, last_used: tick }) else {
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
    /// Prefix sums of block dimensions (`len = blocks + 1`).
    starts: Vec<usize>,
    state: Mutex<ResidentSet>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PagerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagerInner")
            .field("blocks", &self.dir.len())
            .field("dim", &self.starts.last().copied().unwrap_or(0))
            .finish()
    }
}

/// Lazy loader of spoke-block segments under a byte budget, shared
/// (cheap `Clone`, one underlying cache) by every worker of an engine.
/// Over the budget it evicts the most recently used block other than
/// the one just faulted, which keeps a stable resident set under the
/// ascending sweeps of the query kernels.
#[derive(Debug, Clone)]
pub struct BlockPager {
    inner: Arc<PagerInner>,
}

impl BlockPager {
    /// Builds a pager over `source` described by `dir`. `block_sizes`
    /// must match the directory's block dimensions; `budget_bytes` caps
    /// the resident set (`None` = unlimited).
    pub fn new(
        source: Box<dyn SegmentSource>,
        dir: Vec<SegmentMeta>,
        block_sizes: &[usize],
        budget_bytes: Option<usize>,
    ) -> Result<Self> {
        if dir.len() != block_sizes.len() {
            return Err(Error::CorruptIndex {
                section: "segment_directory",
                detail: format!(
                    "directory holds {} segments for {} blocks",
                    dir.len(),
                    block_sizes.len()
                ),
            });
        }
        for (b, (&sz, meta)) in block_sizes.iter().zip(&dir).enumerate() {
            if meta.block_dim != sz as u64 {
                return Err(Error::CorruptIndex {
                    section: "segment_directory",
                    detail: format!(
                        "shard {b}: directory dimension {} does not match block size {sz}",
                        meta.block_dim
                    ),
                });
            }
        }
        let starts = block_starts(block_sizes).ok_or_else(|| Error::CorruptIndex {
            section: "segment_directory",
            detail: "block sizes overflow".into(),
        })?;
        Ok(BlockPager {
            inner: Arc::new(PagerInner {
                source,
                dir,
                starts,
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
        })
    }

    /// Spoke dimension `n₁` (sum of block sizes).
    pub fn dim(&self) -> usize {
        self.inner.starts.last().copied().unwrap_or(0)
    }

    /// Number of diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.inner.dir.len()
    }

    /// `[bs, be)` range of block `b` in the permuted spoke space.
    pub fn block_range(&self, b: usize) -> Result<(usize, usize)> {
        range_of(&self.inner.starts, b)
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

    /// Fetches block `b`, reading and decoding its segment on a miss.
    /// The returned `Arc` stays valid across evictions.
    pub fn fetch(&self, b: usize) -> Result<Arc<FactorPair>> {
        {
            let mut st = self.lock()?;
            if let Some(pair) = st.touch(b) {
                drop(st);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(pair);
            }
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let pair = Arc::new(self.load_segment(b)?);
        let bytes = pair.memory_bytes();
        let mut st = self.lock()?;
        let mut evicted = 0u64;
        if st.insert(b, pair.clone(), bytes) {
            // A concurrent fetch of the same block won the race; its copy
            // (identical decoded content) is replaced by ours and counts
            // as an eviction so `misses - resident == evictions` stays
            // exact under contention.
            evicted += 1;
        }
        evicted += evict_to_limit(&mut st, Some(b));
        drop(st);
        self.inner.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(pair)
    }

    /// Reads, CRC-verifies, and decodes segment `b` from the source.
    fn load_segment(&self, b: usize) -> Result<FactorPair> {
        let meta = *self
            .inner
            .dir
            .get(b)
            .ok_or(Error::IndexOutOfBounds { index: b, bound: self.inner.dir.len() })?;
        let frame_len = usize::try_from(meta.frame_len)
            .map_err(|_| corrupt_shard(b, format!("frame length {} overflows", meta.frame_len)))?;
        if frame_len < SEGMENT_FRAME_OVERHEAD {
            return Err(corrupt_shard(b, format!("frame length {frame_len} too short")));
        }
        let mut buf = vec![0u8; frame_len];
        self.inner.source.read_at(meta.offset, &mut buf).map_err(|e| match e {
            Error::CorruptIndex { detail, .. } => corrupt_shard(b, detail),
            other => other,
        })?;
        if buf.get(..4) != Some(SEGMENT_TAG.as_slice()) {
            return Err(corrupt_shard(b, "segment tag missing (directory points at garbage)"));
        }
        let len8: [u8; 8] = buf
            .get(4..12)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| corrupt_shard(b, "frame too short for its length field"))?;
        let payload_len = u64::from_le_bytes(len8);
        if payload_len != (frame_len - SEGMENT_FRAME_OVERHEAD) as u64 {
            return Err(corrupt_shard(
                b,
                format!(
                    "frame length {payload_len} disagrees with directory ({})",
                    frame_len - SEGMENT_FRAME_OVERHEAD
                ),
            ));
        }
        let payload = buf
            .get(12..frame_len - 4)
            .ok_or_else(|| corrupt_shard(b, "frame too short for its payload"))?;
        let crc4: [u8; 4] = buf
            .get(frame_len - 4..)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| corrupt_shard(b, "frame too short for its checksum"))?;
        let stored_crc = u32::from_le_bytes(crc4);
        let actual_crc = crate::crc32::crc32(payload);
        if stored_crc != actual_crc || stored_crc != meta.crc {
            return Err(corrupt_shard(
                b,
                format!(
                    "segment checksum mismatch: frame {stored_crc:#010x}, directory {:#010x}, computed {actual_crc:#010x}",
                    meta.crc
                ),
            ));
        }
        let dim = usize::try_from(meta.block_dim).map_err(|_| {
            corrupt_shard(b, format!("block dimension {} overflows", meta.block_dim))
        })?;
        decode_segment(payload, b, dim)
    }
}

/// The pager's one eviction rule, run by [`BlockPager::fetch`] and
/// [`BlockPager::set_budget`] alike: while the set is over its limit,
/// evict the most recently used block other than `keep` (the block the
/// caller just faulted in), and never the last block (a single block
/// larger than the budget must stay usable). Returns how many were
/// evicted. Each victim is read off the end of the use-ordered index,
/// in `O(log n)` for `n` resident blocks.
///
/// Queries sweep the blocks in ascending order, so strict LRU would
/// evict exactly the block the next sweep needs first and hit nothing on
/// a cyclic scan. Evicting the most recent block instead keeps the rest
/// of the resident set stable: once the cap is full, a sweep over more
/// blocks than fit cycles through one slot and hits on the others.
fn evict_to_limit(st: &mut ResidentSet, keep: Option<usize>) -> u64 {
    let Some(limit) = st.limit else { return 0 };
    let mut evicted = 0u64;
    while st.bytes > limit && st.map.len() > 1 {
        // `keep` is at most one entry, so this looks at two at most.
        let victim = st.by_use.iter().rev().find(|&(_, &b)| Some(b) != keep);
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

/// The spoke factors `L₁⁻¹`/`U₁⁻¹` as the query kernels see them:
/// fully resident whole matrices, or paged per-block through a
/// [`BlockPager`]. Both variants produce bit-identical results (module
/// docs); they differ only in residency.
#[derive(Debug, Clone)]
pub(crate) enum SpokeFactors {
    /// Whole block-diagonal matrices in memory, with the bounds of their
    /// diagonal blocks and sweep runs. Built only by
    /// [`SpokeFactors::resident`].
    Resident { l1_inv: CscMatrix, u1_inv: CscMatrix, layout: Box<Layout> },
    /// Per-block segments paged on demand.
    Paged { pager: BlockPager },
}

/// Where the resident factors' diagonal blocks and sweep runs start.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Prefix sums of the block sizes (`len = blocks + 1`).
    starts: Vec<usize>,
    /// The first row of each sweep run, then `n₁` (`len = runs + 1`;
    /// see [`SWEEP_RUN_ROWS`]).
    runs: Vec<usize>,
}

/// Prefix sums of `sizes` (`len = sizes.len() + 1`), or `None` on
/// overflow.
fn block_starts(sizes: &[usize]) -> Option<Vec<usize>> {
    let mut starts = Vec::with_capacity(sizes.len() + 1);
    starts.push(0);
    let mut acc = 0usize;
    for &sz in sizes {
        acc = acc.checked_add(sz)?;
        starts.push(acc);
    }
    Some(starts)
}

/// Rows up to which a resident sweep merges consecutive diagonal blocks
/// into one run, applied by one kernel call per factor; a larger block
/// is a run alone. The factors are block diagonal, so applying one to a
/// run performs the same additions in the same order as applying it
/// block by block; runs only save per-block overhead, which dominates
/// on indexes of tiny blocks (`email_like`'s 9,006 blocks of about two
/// rows make 71 runs). A paged sweep fetches blocks one by one and
/// never merges them.
const SWEEP_RUN_ROWS: usize = 256;

/// Splits diagonal blocks of `block_sizes` into runs of consecutive
/// blocks: a run grows while its rows stay within `cap`, and a block
/// larger than that is a run alone. Yields `(block range, row range)`
/// per run. Preprocessing walks runs of
/// [`crate::precompute::RUN_ROWS`] rows, a resident sweep runs of
/// [`SWEEP_RUN_ROWS`].
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

/// `[bs, be)` of block `b` from its prefix sums.
fn range_of(starts: &[usize], b: usize) -> Result<(usize, usize)> {
    match (starts.get(b), starts.get(b + 1)) {
        (Some(&bs), Some(&be)) => Ok((bs, be)),
        _ => Err(Error::IndexOutOfBounds { index: b, bound: starts.len().saturating_sub(1) }),
    }
}

impl SpokeFactors {
    /// Resident whole factors with diagonal blocks of `block_sizes`. Both
    /// factors must be `n₁ × n₁` with `n₁` the sum of the sizes, and block
    /// diagonal: an entry outside its column's block is an error, because
    /// the per-block sweep reads only the diagonal blocks.
    pub(crate) fn resident(
        l1_inv: CscMatrix,
        u1_inv: CscMatrix,
        block_sizes: &[usize],
    ) -> Result<Self> {
        let starts = block_starts(block_sizes)
            .ok_or_else(|| Error::InvalidStructure("spoke block sizes overflow".into()))?;
        let n1 = starts.last().copied().unwrap_or(0);
        for m in [&l1_inv, &u1_inv] {
            if m.nrows() != n1 || m.ncols() != n1 {
                return Err(Error::DimensionMismatch {
                    op: "resident spoke factors",
                    lhs: (n1, n1),
                    rhs: (m.nrows(), m.ncols()),
                });
            }
            for (b, bounds) in starts.windows(2).enumerate() {
                let &[bs, be] = bounds else { continue };
                for c in bs..be {
                    let (rows, _) = m.col(c);
                    if rows.first().is_some_and(|&r| r < bs)
                        || rows.last().is_some_and(|&r| r >= be)
                    {
                        return Err(Error::InvalidStructure(format!(
                            "spoke factor column {c} has an entry outside block {b} [{bs}, {be})"
                        )));
                    }
                }
            }
        }
        let first_rows = runs(block_sizes, SWEEP_RUN_ROWS).map(|(_, rows)| rows.start);
        let runs = first_rows.chain([n1]).collect();
        Ok(SpokeFactors::Resident { l1_inv, u1_inv, layout: Box::new(Layout { starts, runs }) })
    }

    /// The pager, when paged.
    pub(crate) fn pager(&self) -> Option<&BlockPager> {
        match self {
            SpokeFactors::Resident { .. } => None,
            SpokeFactors::Paged { pager } => Some(pager),
        }
    }

    /// Stored nonzeros of `L₁⁻¹` and of `U₁⁻¹` (from the directory when
    /// paged).
    pub(crate) fn nnz(&self) -> (usize, usize) {
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv, .. } => (l1_inv.nnz(), u1_inv.nnz()),
            SpokeFactors::Paged { pager } => pager
                .directory()
                .iter()
                .fold((0, 0), |(l1, u1), m| (l1 + m.l1_nnz as usize, u1 + m.u1_nnz as usize)),
        }
    }

    /// Logical byte footprint of both factors — what they cost fully
    /// materialized, independent of current residency (the paper's
    /// space-accounting convention; actual resident bytes are in
    /// [`PagerStats`]).
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv, .. } => {
                l1_inv.memory_bytes() + u1_inv.memory_bytes()
            }
            SpokeFactors::Paged { pager } => {
                pager.directory().iter().map(|m| m.resident_bytes()).sum()
            }
        }
    }

    /// Materializes both whole matrices (fetching every block when
    /// paged) — used by the v2 writer and format conversion, never
    /// by the query path.
    pub(crate) fn to_whole(&self) -> Result<(CscMatrix, CscMatrix)> {
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv, .. } => Ok((l1_inv.clone(), u1_inv.clone())),
            SpokeFactors::Paged { pager } => {
                let nb = pager.num_blocks();
                let mut l1s = Vec::with_capacity(nb);
                let mut u1s = Vec::with_capacity(nb);
                for b in 0..nb {
                    let pair = pager.fetch(b)?;
                    l1s.push(pair.l1.clone());
                    u1s.push(pair.u1.clone());
                }
                let dim = pager.dim();
                Ok((
                    bear_sparse::lu::block_diag_concat(&l1s, dim),
                    bear_sparse::lu::block_diag_concat(&u1s, dim),
                ))
            }
        }
    }

    /// Splits resident whole matrices into per-block pairs (the v3
    /// writer's segment source). Errors on cross-block entries.
    pub(crate) fn split_pairs(&self, block_sizes: &[usize]) -> Result<Vec<FactorPair>> {
        let (l1, u1) = self.to_whole()?;
        let mut pairs = Vec::with_capacity(block_sizes.len());
        let mut bs = 0usize;
        for &sz in block_sizes {
            let be = bs + sz;
            pairs.push(FactorPair::new(split_block(&l1, bs, be)?, split_block(&u1, bs, be)?)?);
            bs = be;
        }
        if bs != l1.ncols() {
            return Err(Error::InvalidStructure(format!(
                "block sizes sum to {bs}, expected {}",
                l1.ncols()
            )));
        }
        Ok(pairs)
    }

    /// Prefix sums of the block sizes (`len = blocks + 1`).
    pub(crate) fn starts(&self) -> &[usize] {
        match self {
            SpokeFactors::Resident { layout, .. } => &layout.starts,
            SpokeFactors::Paged { pager } => &pager.inner.starts,
        }
    }

    /// `[bs, be)` of block `b` in the permuted spoke space.
    pub(crate) fn block_range(&self, b: usize) -> Result<(usize, usize)> {
        range_of(self.starts(), b)
    }

    /// The first row of each unit a sweep walks, then `n₁`: the runs
    /// when resident, the blocks when paged.
    fn sweep_starts(&self) -> &[usize] {
        match self {
            SpokeFactors::Resident { layout, .. } => &layout.runs,
            SpokeFactors::Paged { pager } => &pager.inner.starts,
        }
    }

    /// `[bs, be)` of sweep unit `u`.
    fn sweep_range(&self, u: usize) -> Result<(usize, usize)> {
        range_of(self.sweep_starts(), u)
    }

    /// Stored nonzeros of sweep unit `u`'s two factors (the directory's
    /// `l1_nnz + u1_nnz` when paged): the work one right-hand side does
    /// in it.
    fn sweep_nnz(&self, u: usize) -> Result<u64> {
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv, layout } => {
                let (bs, be) = range_of(&layout.runs, u)?;
                let span = |m: &CscMatrix| match (m.indptr().get(bs), m.indptr().get(be)) {
                    (Some(&lo), Some(&hi)) => hi.saturating_sub(lo) as u64,
                    _ => 0,
                };
                Ok(span(l1_inv).saturating_add(span(u1_inv)))
            }
            SpokeFactors::Paged { pager } => {
                Ok(pager.directory().get(u).map_or(0, |m| m.l1_nnz.saturating_add(m.u1_nnz)))
            }
        }
    }

    /// The factors of the diagonal span `[bs, be)`: slices of the whole
    /// matrices when resident, and block `b` (which must be that span)
    /// fetched through the pager when paged.
    pub(crate) fn factors(&self, b: usize, bs: usize, be: usize) -> Result<Block<'_>> {
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv, .. } => {
                Ok(Block::Whole { l1: l1_inv, u1: u1_inv, base: bs })
            }
            SpokeFactors::Paged { pager } => {
                let pair = pager.fetch(b)?;
                if pair.dim() != be - bs {
                    return Err(corrupt_shard(b, "decoded dimension mismatch"));
                }
                Ok(Block::Fetched(pair))
            }
        }
    }

    /// `X ← U₁⁻¹ L₁⁻¹ X` in place on the row-major `n₁ × k` block `x`
    /// (row `i`'s `k` values contiguous, one per right-hand side): the
    /// spoke solve of both halves of Algorithm 2 and of the Schur
    /// refresh. Right-hand side `j` of the result is bit-identical to
    /// `CscMatrix::matvec_into` applied twice with the whole factors to
    /// right-hand side `j` of the input.
    ///
    /// Every solve, resident or paged and at any width, walks the
    /// diagonal blocks once ([`Part::sweep`]), one sweep unit at a time:
    /// a block when paged, a run of consecutive blocks
    /// ([`SWEEP_RUN_ROWS`]) when resident. Each unit's rows are one
    /// contiguous stretch of `x`, and [`SpokeFactors::unit_step`] applies
    /// both of the unit's factors to all `k` lanes of it with the
    /// seed-interleaved kernel `CscMatrix::interleaved_block_into`. When
    /// paged it fetches each touched block a single time per sweep,
    /// however many seeds touch it (Lemma 1: the factors are block
    /// diagonal, so block `b` of the result depends only on block `b` of
    /// the input); units whose input rows are all zero are never fetched.
    /// `scratch` holds the sweep's intermediate buffers from call to
    /// call. With `split`, a sweep whose touched units hold more than
    /// [`SPLIT_SWEEP_FLOOR`] stored nonzeros runs as two contiguous unit
    /// ranges `[0, s)` and `[s, units)`, balanced by those nonzeros and
    /// run by [`bear_sparse::parallel::run_chunked`] (the lower range on
    /// the calling thread), each over its own side of `x` split at the
    /// first row of the upper range. Each row belongs to exactly one unit
    /// and each unit to exactly one range, so every row is still written
    /// by the same kernel call in the same order, and each touched block
    /// is still fetched once per sweep: the output bits are the same
    /// either way.
    pub(crate) fn solve_into(
        &self,
        x: &mut [f64],
        k: usize,
        scratch: &mut SweepScratch,
        split: bool,
    ) -> Result<()> {
        let starts = self.sweep_starts();
        let n1 = starts.last().copied().unwrap_or(0);
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
        let units = 0..starts.len().saturating_sub(1);
        Part { units, base: 0, k, x, mid: whole }.sweep(self)
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
        let units = self.sweep_starts().len().saturating_sub(1);
        let row = self.sweep_range(s)?.0;
        let (lo, hi) = x.split_at_mut((row * k).min(x.len()));
        let [lower, upper] = &mut scratch.mids;
        let parts = vec![
            Part { units: 0..s, base: 0, k, x: lo, mid: lower },
            Part { units: s..units, base: row, k, x: hi, mid: upper },
        ];
        bear_sparse::parallel::run_chunked(parts, "spoke sweep", |part| part.sweep(self))?;
        Ok(())
    }

    /// The pruned top-k resolve of block `b`, in place on the width-1
    /// spoke vector `x`: over its rows `[bs, be)`,
    /// `x[bs..be] ← U₁⁻¹ L₁⁻¹ x[bs..be]`, bit-identical to the same rows
    /// of [`SpokeFactors::solve_into`]. The paged arm fetches the block
    /// once (never, if its input rows are all zero).
    pub(crate) fn solve_block(
        &self,
        b: usize,
        x: &mut [f64],
        scratch: &mut SweepScratch,
    ) -> Result<()> {
        let (bs, be) = self.block_range(b)?;
        let xb = x.get_mut(bs..be).ok_or_else(|| out_of_bounds(bs, be))?;
        let [mid, _] = &mut scratch.mids;
        self.unit_step(b, bs, be, 1, xb, mid)
    }

    /// The one per-unit step of every spoke solve: `x ← U₁⁻¹ L₁⁻¹ x` on
    /// the rows `[bs, be)` of unit `u` (the diagonal block `u` when
    /// paged), with `x` those rows' `k` lanes each, row-major. When every
    /// input is an exact zero the unit is skipped, never fetched, and
    /// its rows are written `+0.0`, as the per-seed kernel leaves them.
    /// Otherwise `L` runs from `x` into `mid` (grown on first use to the
    /// widest unit and never shrunk) and `U` from `mid` back over `x`.
    /// A lane whose inputs are zero where another's are not adds only
    /// `±0`, and every output element still sums its block's columns in
    /// ascending order whatever the width, which is all bit-identity
    /// needs (DESIGN.md §13).
    fn unit_step(
        &self,
        u: usize,
        bs: usize,
        be: usize,
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
        let t = mid.get_mut(..x.len()).ok_or_else(|| out_of_bounds(bs, be))?;
        let block = self.factors(u, bs, be)?;
        let (l1, u1, base) = block.parts();
        l1.interleaved_block_into(base, k, x, t)?;
        u1.interleaved_block_into(base, k, t, x)
    }
}

/// One diagonal block's two factors as a sweep applies them: the
/// resident whole matrices with the block starting at row and column
/// `base`, or a fetched block-local pair.
pub(crate) enum Block<'a> {
    Whole { l1: &'a CscMatrix, u1: &'a CscMatrix, base: usize },
    Fetched(Arc<FactorPair>),
}

impl Block<'_> {
    /// `L`, `U`, and the row and column of each where the block starts.
    pub(crate) fn parts(&self) -> (&CscMatrix, &CscMatrix, usize) {
        match self {
            Block::Whole { l1, u1, base } => (l1, u1, *base),
            Block::Fetched(pair) => (&pair.l1, &pair.u1, 0),
        }
    }
}

/// Stored nonzeros (`l1_nnz + u1_nnz` of each unit) that the touched
/// units of a swept solve must exceed before the sweep is split in
/// two: below it, a scoped helper thread costs more than half the sweep
/// saves. A `web_bs_like` back sweep touches every block, about 406,000
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
/// sweep unit `s` that starts the upper range, chosen so the touched
/// units' nonzeros on either side are as even as unit boundaries allow,
/// or `None` when the touched units hold no more than
/// [`SPLIT_SWEEP_FLOOR`] or one side would hold none of them.
fn split_unit_of(spokes: &SpokeFactors, x: &[f64], k: usize) -> Result<Option<usize>> {
    let cost = |b: usize| -> Result<u64> {
        let (bs, be) = spokes.sweep_range(b)?;
        if x.get(bs * k..be * k).is_some_and(all_zero) {
            return Ok(0);
        }
        spokes.sweep_nnz(b)
    };
    let blocks = spokes.sweep_starts().len().saturating_sub(1);
    let mut total = 0u64;
    for b in 0..blocks {
        total = total.saturating_add(cost(b)?);
    }
    if total <= SPLIT_SWEEP_FLOOR {
        return Ok(None);
    }
    let mut below = 0u64;
    for b in 0..blocks {
        let through = below.saturating_add(cost(b)?);
        if through.saturating_mul(2) >= total {
            // Split before or after block `b`, whichever is more even.
            let (s, lower) =
                if total - 2 * below < 2 * through - total { (b, below) } else { (b + 1, through) };
            return Ok((lower > 0 && lower < total).then_some(s));
        }
        below = through;
    }
    Ok(None)
}

/// One range of sweep units of a swept solve: the part's rows of the
/// row-major `k`-lane block it solves in place, from row `base` to the
/// end of its range, and its own intermediate buffer.
struct Part<'a> {
    units: std::ops::Range<usize>,
    base: usize,
    k: usize,
    x: &'a mut [f64],
    mid: &'a mut Vec<f64>,
}

impl Part<'_> {
    /// One ascending sweep over the part's units (blocks when paged,
    /// runs of blocks when resident), in place, each by
    /// [`SpokeFactors::unit_step`] on the unit's rows. Every row belongs
    /// to one unit, so no input is read after it was replaced.
    fn sweep(self, spokes: &SpokeFactors) -> Result<()> {
        let Part { units, base, k, x, mid } = self;
        for u in units {
            let (bs, be) = spokes.sweep_range(u)?;
            let rows = bs
                .checked_sub(base)
                .zip(be.checked_sub(base))
                .and_then(|(lo, hi)| x.get_mut(lo * k..hi * k))
                .ok_or_else(|| out_of_bounds(bs, be))?;
            spokes.unit_step(u, bs, be, k, rows, mid)?;
        }
        Ok(())
    }
}

fn out_of_bounds(bs: usize, be: usize) -> Error {
    Error::InvalidStructure(format!("spoke block [{bs}, {be}) out of bounds"))
}

/// Whether a block's input rows are all exact zeros: the kernels then
/// skip the block without fetching it.
fn all_zero(x: &[f64]) -> bool {
    x.iter().all(|&v| v == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        )
        .unwrap()
    }

    /// Builds an in-memory image of framed segments plus the directory.
    fn build_image(pairs: &[FactorPair]) -> (Vec<u8>, Vec<SegmentMeta>, Vec<usize>) {
        let mut image = vec![0u8; 8]; // pretend 8-byte header
        let mut dir = Vec::new();
        for (b, pair) in pairs.iter().enumerate() {
            let (frame, meta) = crate::persist::segment_frame(b, pair, image.len() as u64);
            image.extend_from_slice(&frame);
            dir.push(meta);
        }
        (image, dir, pairs.iter().map(FactorPair::dim).collect())
    }

    fn pager_over(pairs: &[FactorPair], budget: Option<usize>) -> BlockPager {
        let (image, dir, sizes) = build_image(pairs);
        BlockPager::new(Box::new(MemSource(image)), dir, &sizes, budget).unwrap()
    }

    #[test]
    fn codec_round_trip_is_exact() {
        let pair = toy_pair(5, 0.3);
        let bytes = encode_segment(2, &pair);
        let back = decode_segment(&bytes, 2, 5).unwrap();
        assert_eq!(back.l1, pair.l1);
        assert_eq!(back.u1, pair.u1);
        // Wrong expectations are typed shard corruption.
        assert!(matches!(
            decode_segment(&bytes, 3, 5),
            Err(Error::CorruptIndex { section: "spoke_segment", .. })
        ));
        assert!(matches!(
            decode_segment(&bytes, 2, 6),
            Err(Error::CorruptIndex { section: "spoke_segment", .. })
        ));
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
    /// block, and every block that leaves the set was evicted.
    /// The use-ordered index holds exactly the resident blocks.
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
        let pager = pager_over(&pairs, Some(1)); // smaller than any block
        let a = pager.fetch(0).unwrap();
        pager.fetch(1).unwrap();
        pager.fetch(2).unwrap();
        let st = pager.stats();
        assert_eq!(st.resident_blocks, 1, "budget of one byte keeps exactly one block");
        assert_eq!(st.evictions, 2);
        // The block just faulted is the one kept: fetching it again hits.
        pager.fetch(2).unwrap();
        assert_eq!(pager.stats().hits, 1);
        assert_conserved(&pager);
        // The Arc handed out before eviction is still fully usable.
        assert_eq!(a.dim(), 6);
        assert_eq!(a.l1.nnz(), pairs[0].l1.nnz());
    }

    /// The cyclic scan the query kernels produce: ascending sweeps over
    /// `N` blocks under a cap that fits `C` of them. Strict LRU evicts
    /// exactly the block the next sweep needs first and gets 0 hits per
    /// sweep; the most-recently-used rule keeps `C − 1` blocks resident
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
    /// the spoke half), and each sweep fetches a touched block once:
    /// `hits + misses ≤ 2 × blocks touched` (applying `L₁⁻¹` and `U₁⁻¹`
    /// in separate sweeps took up to 4×). Unlimited budget, so every
    /// touched block misses exactly once.
    #[test]
    fn fused_solve_fetches_each_touched_block_once_per_sweep() {
        use crate::precompute::{Bear, BearConfig};
        let bear = Bear::new(&hub_and_chains(10, 3), &BearConfig::exact(0.15)).unwrap();
        assert!(bear.block_sizes.len() >= 8, "blocks: {:?}", bear.block_sizes);
        for seeds in [vec![0], vec![2], vec![1, 4, 7, 10, 13, 16, 19, 22], vec![30, 30, 5]] {
            let paged = bear.paged_in_memory(None).unwrap();
            let pager = paged.pager().unwrap();
            assert_eq!(paged.query_block(&seeds).unwrap(), bear.query_block(&seeds).unwrap());
            let touched = pager.stats().misses;
            assert!(touched >= 1);
            assert!(fetches(pager) <= 2 * touched, "seeds {seeds:?}: {:?}", pager.stats());
        }
    }

    /// The pruned top-k resolve of one block fetches it exactly once,
    /// and matches the resident resolve bit for bit.
    #[test]
    fn top_k_block_resolve_fetches_once() {
        use crate::precompute::{Bear, BearConfig};
        let bear = Bear::new(&hub_and_chains(6, 4), &BearConfig::exact(0.15)).unwrap();
        let paged = bear.paged_in_memory(None).unwrap();
        let pager = paged.pager().unwrap();
        let n1 = pager.dim();
        for b in 0..pager.num_blocks() {
            let (bs, be) = pager.block_range(b).unwrap();
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

    /// Directory nonzeros of every block together.
    fn total_nnz(pager: &BlockPager) -> u64 {
        pager.directory().iter().map(|m| m.l1_nnz + m.u1_nnz).sum()
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
    /// run of resident blocks then holds seeds whose rows are zero in
    /// some of its blocks and not in others.
    fn sparse_input(n1: usize, k: usize) -> Vec<f64> {
        let mut x = vec![0.0; n1 * k];
        for j in 0..k {
            x[(j * 41 + 5) % n1 * k + j] = 1.0;
            x[(j * 97 + 11) % n1 * k + j] = -0.5;
        }
        x
    }

    /// Runs merge consecutive blocks until one more would pass
    /// [`SWEEP_RUN_ROWS`] rows, a larger block is a run alone, and the
    /// runs cover every row in order.
    #[test]
    fn sweep_runs_merge_blocks_up_to_the_row_cap() {
        let cap = SWEEP_RUN_ROWS;
        let runs = |sizes: &[usize]| -> Vec<usize> {
            let n1 = sizes.iter().sum();
            runs(sizes, cap).map(|(_, rows)| rows.start).chain([n1]).collect()
        };
        assert_eq!(runs(&[]), vec![0]);
        assert_eq!(runs(&[2; 3]), vec![0, 6]);
        assert_eq!(runs(&[2; 129]), vec![0, cap, cap + 2]);
        assert_eq!(runs(&[3, cap + 1, 3]), vec![0, 3, cap + 4, cap + 7]);
        assert_eq!(runs(&[cap, 1]), vec![0, cap, cap + 1]);
    }

    /// The split in-place sweep over a row-major block, resident and
    /// paged, against two whole-factor `matvec_into` calls per seed:
    /// widths 1, 8 and 16, on dense inputs and on inputs with two
    /// nonzeros a seed, under unlimited, a third of the factors, and
    /// one-byte budgets, on a graph whose blocks cross
    /// [`SPLIT_SWEEP_FLOOR`] (a dense sweep splits) and on one below it
    /// (it does not). The resident sweep runs several blocks at a time on
    /// both. Every output bit matches, a fresh unlimited pager fetches
    /// each touched block exactly once per split sweep whatever the
    /// width, and the counters reconcile. One sweep scratch serves every
    /// solve, so buffers left by a wider or different-index solve are
    /// reused.
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
            assert!(pager.num_blocks() >= 8, "blocks: {:?}", bear.block_sizes);
            assert_eq!(total_nnz(pager) > SPLIT_SWEEP_FLOOR, splits, "{:?}", pager.directory());
            let total: usize = pager.directory().iter().map(SegmentMeta::resident_bytes).sum();
            let (l1, u1) = bear.spokes.to_whole().unwrap();
            let SpokeFactors::Resident { layout, .. } = &bear.spokes else { panic!("paged") };
            let runs = &layout.runs;
            assert!(runs.len() < bear.block_sizes.len(), "runs {runs:?}");
            let inputs = |k| [(dense_input(n1, k), true), (sparse_input(n1, k), false)];
            for (k, (x, dense)) in [1, 8, 16].into_iter().flat_map(|k| inputs(k).map(|i| (k, i))) {
                let columns: Vec<Vec<f64>> =
                    (0..k).map(|j| x.iter().skip(j).step_by(k).copied().collect()).collect();
                assert_eq!(
                    split_unit_of(&probe.spokes, &x, k).unwrap().is_some(),
                    splits && dense,
                    "k {k}"
                );
                let touched = (0..pager.num_blocks())
                    .filter(|&b| {
                        let (bs, be) = pager.block_range(b).unwrap();
                        columns.iter().any(|col| !all_zero(&col[bs..be]))
                    })
                    .count() as u64;
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
                            // Every touched block misses once, then hits
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
        let bytes = encode_segment(shard, &toy_pair(dim, 0.3));
        assert!(decode_segment(&bytes, shard, dim).is_ok());
        for cut in 0..bytes.len() {
            assert_shard_corrupt(
                decode_segment(&bytes[..cut], shard, dim),
                shard,
                &format!("truncated to {cut} bytes"),
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_shard_corrupt(decode_segment(&trailing, shard, dim), shard, "one trailing byte");

        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut prefix = 16; // after block index and dimension
        for array in 0..6 {
            let remaining = (bytes.len() - prefix - 8) as u64 / 8;
            for bad in [u64::MAX, u64::MAX / 8 + 1, remaining + 1] {
                let mut hostile = bytes.clone();
                hostile[prefix..prefix + 8].copy_from_slice(&bad.to_le_bytes());
                assert_shard_corrupt(
                    decode_segment(&hostile, shard, dim),
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
        // Flip a bit inside the second segment's payload.
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

    #[test]
    fn split_block_rejects_cross_block_entries() {
        // A full 2x2 dense-ish matrix is not block diagonal for sizes [1, 1].
        let m =
            CscMatrix::try_from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0; 4]).unwrap();
        assert!(split_block(&m, 0, 1).is_err());
        assert!(split_block(&m, 0, 2).is_ok());
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
        // Unlimited again: blocks re-accumulate.
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
