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
//!   the `Paged` variant walks blocks through the pager.
//!
//! # Bit-identity
//!
//! The paged kernels are **bit-identical** to the resident ones, which
//! is what `tests/paging_identity.rs` proves exhaustively. The argument:
//! `CscMatrix::matvec_acc` visits columns in ascending order and skips
//! exact-zero inputs; because the factors are block diagonal, every
//! output element `y[r]` receives contributions only from columns inside
//! `r`'s block. Iterating blocks in ascending order and, within each
//! block, local columns in ascending order therefore replays the exact
//! same additions in the exact same order into every `y[r]` — including
//! the zero-input skip, so an untouched block can skip its *fetch*
//! entirely (the paging win: a one-hot seed touches one block in the
//! first sweep). The same locality lets one sweep apply both factors:
//! `L₁⁻¹`'s output on block `b` is exactly `U₁⁻¹`'s input on block `b`,
//! so `SpokeFactors::solve_into` fetches each touched block once and
//! runs `L` then `U` on it before moving on, where the resident arm
//! runs two whole-matrix products. The per-row operation order is the
//! same either way, and so is the top-k resolve of one block.
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
use bear_sparse::{CscMatrix, DenseBlock, Error, Result};
use std::collections::HashMap;
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
    bytes: usize,
    tick: u64,
    /// Byte cap on `bytes`; `None` is unlimited. A single block larger
    /// than the cap is still admitted (the query could not run
    /// otherwise) — it just evicts everything else.
    limit: Option<usize>,
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
        let mut starts = Vec::with_capacity(block_sizes.len() + 1);
        let mut acc = 0usize;
        starts.push(0);
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
            acc = acc.checked_add(sz).ok_or_else(|| Error::CorruptIndex {
                section: "segment_directory",
                detail: "block sizes overflow".into(),
            })?;
            starts.push(acc);
        }
        Ok(BlockPager {
            inner: Arc::new(PagerInner {
                source,
                dir,
                starts,
                state: Mutex::new(ResidentSet {
                    map: HashMap::new(),
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
        match (self.inner.starts.get(b), self.inner.starts.get(b + 1)) {
            (Some(&bs), Some(&be)) => Ok((bs, be)),
            _ => Err(Error::IndexOutOfBounds { index: b, bound: self.num_blocks() }),
        }
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
            let tick = st.tick;
            st.tick += 1;
            if let Some(entry) = st.map.get_mut(&b) {
                entry.last_used = tick;
                let pair = entry.pair.clone();
                drop(st);
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(pair);
            }
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let pair = Arc::new(self.load_segment(b)?);
        let bytes = pair.memory_bytes();
        let mut st = self.lock()?;
        let tick = st.tick;
        st.tick += 1;
        let mut evicted = 0u64;
        if let Some(old) =
            st.map.insert(b, ResidentEntry { pair: pair.clone(), bytes, last_used: tick })
        {
            // A concurrent fetch of the same block won the race; its copy
            // (identical decoded content) is replaced by ours and counts
            // as an eviction so `misses - resident == evictions` stays
            // exact under contention.
            st.bytes = st.bytes.saturating_sub(old.bytes);
            evicted += 1;
        }
        st.bytes = st.bytes.saturating_add(bytes);
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
/// evicted.
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
        let victim = st
            .map
            .iter()
            .filter(|&(&b, _)| Some(b) != keep)
            .max_by_key(|(_, e)| e.last_used)
            .map(|(&b, _)| b);
        let Some(victim) = victim else { break };
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
    /// Whole block-diagonal matrices in memory (the historical layout).
    Resident { l1_inv: CscMatrix, u1_inv: CscMatrix },
    /// Per-block segments paged on demand.
    Paged { pager: BlockPager },
}

impl SpokeFactors {
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
            SpokeFactors::Resident { l1_inv, u1_inv } => (l1_inv.nnz(), u1_inv.nnz()),
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
            SpokeFactors::Resident { l1_inv, u1_inv } => {
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
            SpokeFactors::Resident { l1_inv, u1_inv } => Ok((l1_inv.clone(), u1_inv.clone())),
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

    /// `Y = U₁⁻¹ L₁⁻¹ X` with `T` as scratch (it ends up holding
    /// `L₁⁻¹ X`, or zero in skipped blocks): the spoke solve of both
    /// halves of Algorithm 2 and of the Schur refresh. Column `j` of `Y`
    /// is bit-identical to `CscMatrix::spmm_into` (at width 1,
    /// `CscMatrix::matvec_into`) applied twice with the whole factors.
    ///
    /// The resident arm is exactly those two whole-matrix products. The
    /// paged arm walks the blocks once, fetching each touched block a
    /// single time and applying both of its factors before moving on
    /// (Lemma 1: the factors are block diagonal, so block `b` of `Y`
    /// depends only on block `b` of `X`); blocks whose input rows are all
    /// zero are never fetched.
    pub(crate) fn solve_into(
        &self,
        x: &DenseBlock,
        t: &mut DenseBlock,
        y: &mut DenseBlock,
    ) -> Result<()> {
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv } => {
                l1_inv.spmm_into(x, t)?;
                u1_inv.spmm_into(t, y)
            }
            SpokeFactors::Paged { pager } => {
                let n1 = pager.dim();
                let k = x.ncols();
                if [x.nrows(), t.nrows(), y.nrows()] != [n1; 3] || t.ncols() != k || y.ncols() != k
                {
                    return Err(Error::DimensionMismatch {
                        op: "paged spoke solve",
                        lhs: (n1, k),
                        rhs: (x.nrows(), x.ncols()),
                    });
                }
                t.fill(0.0);
                y.fill(0.0);
                for b in 0..pager.num_blocks() {
                    let (bs, be) = pager.block_range(b)?;
                    let untouched = (0..k).all(|j| x.col(j).get(bs..be).is_some_and(all_zero));
                    if untouched {
                        continue;
                    }
                    let pair = pager.fetch(b)?;
                    // Column by column within the block: every output
                    // element still sums its block's columns in ascending
                    // order, which is all bit-identity needs.
                    for j in 0..k {
                        let (xb, tb, yb) =
                            block_slices(bs, be, x.col(j), t.col_mut(j), y.col_mut(j))?;
                        pair.solve_block(b, xb, tb, yb)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// The pruned top-k resolve of block `b` spanning `[bs, be)`:
    /// `y[bs..be] = U₁⁻¹ L₁⁻¹ x[bs..be]` with `t[bs..be]` as scratch,
    /// bit-identical to the same rows of [`SpokeFactors::solve_into`].
    /// The paged arm fetches the block once (never, if its input rows
    /// are all zero).
    pub(crate) fn solve_block(
        &self,
        b: usize,
        bs: usize,
        be: usize,
        x: &[f64],
        t: &mut [f64],
        y: &mut [f64],
    ) -> Result<()> {
        let (xb, tb, yb) = block_slices(bs, be, x, t, y)?;
        match self {
            SpokeFactors::Resident { l1_inv, u1_inv } => {
                scatter(l1_inv, bs, xb, tb)?;
                scatter(u1_inv, bs, tb, yb)
            }
            SpokeFactors::Paged { pager } => {
                if all_zero(xb) {
                    tb.fill(0.0);
                    yb.fill(0.0);
                    return Ok(());
                }
                pager.fetch(b)?.solve_block(b, xb, tb, yb)
            }
        }
    }
}

impl FactorPair {
    /// Both factors of block `b` on its slices (block-local rows and
    /// columns): `t = L x`, then `y = U t`.
    fn solve_block(&self, b: usize, x: &[f64], t: &mut [f64], y: &mut [f64]) -> Result<()> {
        if self.dim() != x.len() {
            return Err(corrupt_shard(b, "decoded dimension mismatch"));
        }
        scatter(&self.l1, 0, x, t)?;
        scatter(&self.u1, 0, t, y)
    }
}

/// `[bs, be)` of each of the three vectors, or a typed error.
fn block_slices<'a>(
    bs: usize,
    be: usize,
    x: &'a [f64], // lint:allow(L1, slice type syntax, not an index expression)
    t: &'a mut [f64],
    y: &'a mut [f64],
    // lint:allow(L1, slice types in the signature, not index expressions)
) -> Result<(&'a [f64], &'a mut [f64], &'a mut [f64])> {
    match (x.get(bs..be), t.get_mut(bs..be), y.get_mut(bs..be)) {
        (Some(xb), Some(tb), Some(yb)) => Ok((xb, tb, yb)),
        _ => Err(Error::InvalidStructure(format!("spoke block [{bs}, {be}) out of bounds"))),
    }
}

/// Whether a block's input rows are all exact zeros: the kernels then
/// skip the block without fetching it.
fn all_zero(x: &[f64]) -> bool {
    x.iter().all(|&v| v == 0.0)
}

/// `y = M[base.., base..] · x` on one diagonal block whose first row and
/// column are `base` in `M`: zero `y`, then accumulate the columns in
/// ascending order, skipping exact-zero inputs — the per-row operation
/// order of `CscMatrix::matvec_into`. Block diagonality keeps every row
/// inside the block; a row outside it is dropped.
fn scatter(m: &CscMatrix, base: usize, x: &[f64], y: &mut [f64]) -> Result<()> {
    if base.checked_add(x.len()).is_none_or(|end| end > m.ncols()) {
        return Err(Error::InvalidStructure(format!(
            "spoke block at {base} of width {} exceeds {} columns",
            x.len(),
            m.ncols()
        )));
    }
    y.fill(0.0);
    for (c, &xc) in (base..).zip(x) {
        if xc == 0.0 {
            continue;
        }
        let (rows, vals) = m.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            if let Some(slot) = r.checked_sub(base).and_then(|i| y.get_mut(i)) {
                *slot += v * xc;
            }
        }
    }
    Ok(())
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
    fn assert_conserved(pager: &BlockPager) {
        let st = pager.stats();
        assert_eq!(st.misses - st.resident_blocks, st.evictions, "{st:?}");
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
            let (mut t, mut y) = (vec![0.0; n1], vec![0.0; n1]);
            let before = fetches(pager);
            paged.spokes.solve_block(b, bs, be, &x, &mut t, &mut y).unwrap();
            assert_eq!(fetches(pager) - before, 1, "block {b}");
            let (mut t_res, mut y_res) = (vec![0.0; n1], vec![0.0; n1]);
            bear.spokes.solve_block(b, bs, be, &x, &mut t_res, &mut y_res).unwrap();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y[bs..be]), bits(&y_res[bs..be]), "block {b}");
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
}
