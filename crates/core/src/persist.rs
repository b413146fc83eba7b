//! Persistence of BEAR's precomputed index.
//!
//! Preprocessing is the expensive phase; a production deployment computes
//! it once and serves queries from many processes, so the on-disk index
//! is both a performance artifact and a durability liability: a torn
//! write or a flipped bit must never reach the query path. This module
//! provides:
//!
//! * **One format (`BEARIDX4`)** (DESIGN.md §16, §18). The spoke factors
//!   `L₁⁻¹`/`U₁⁻¹` are stored as one individually CRC'd **shard per
//!   unit** (a run of consecutive diagonal blocks, see
//!   `crate::paging::UnitBuilder`): `"SPKB" | payload len u64 |
//!   payload | crc32`, laid out contiguously right after the magic. A
//!   *resident region* follows with nine framed sections
//!   (`tag [4] | len u64 LE | payload | crc32 u32 LE`: metadata,
//!   permutation, partition arrays, the hub and Schur matrices, and the
//!   `SDIR` shard directory), and a 28-byte trailer (`"BEARTRL4" |
//!   resident-region crc32 | resident offset | file length`) closes the
//!   file. The trailer is verified before any section is parsed, so
//!   truncation and bit rot fail fast with
//!   [`bear_sparse::Error::CorruptIndex`] instead of feeding damaged
//!   bytes to the structural validators. Each `SDIR` entry names its
//!   shard's first block and block count, and the shards must tile the
//!   block sizes in order.
//! * **One shard codec and one frame check** — `shard_frame` encodes a
//!   unit, `read_shard` reads one frame and checks its tag, its length
//!   and its CRC against both the frame and the directory, and
//!   `load_shard` decodes it and audits that every entry lies inside
//!   its column's block. A pager miss, the load-time CRC sweep, the
//!   one-pass resident load and `verify-index` all go through them.
//! * **Two ways to load** — [`LoadOptions::resident`] reads each shard
//!   once (read, check, decode) and holds every unit; otherwise every
//!   shard's CRC is checked up front and the units page through a
//!   [`crate::paging::BlockPager`] under a [`MemBudget`].
//! * **Crash-safe writes** — [`Bear::save`] and the streamed
//!   [`crate::preprocess_to_disk`] write through one shard writer and
//!   one temp-file writer: the bytes land in a hidden temp file *in the
//!   target directory*, which is fsynced, atomically renamed over the
//!   destination, and followed by a directory fsync. A crash at any
//!   point leaves either the old index or the new one, never a
//!   half-written hybrid under the real name. Both write the same bytes.
//! * **Retired formats** — a `BEARIDX1`, `BEARIDX2` or `BEARIDX3` file
//!   fails to load with `CorruptIndex { section: "header", .. }` whose
//!   detail says to re-run `bear preprocess`.
//! * **Quarantine** — [`Bear::load_or_quarantine`] renames an artifact
//!   that fails integrity checks to `<path>.corrupt` so operators can
//!   inspect the bytes offline and a retry loop cannot re-serve it.
//! * **Offline verification** — [`verify_index`] replays the full load
//!   validation and returns an [`IndexReport`] for the
//!   `bear verify-index` subcommand.
//!
//! Every load-path failure — framing, checksum, or a payload that parses
//! but violates a structural invariant — is reported as
//! `Error::CorruptIndex { section, detail }` naming the section that
//! failed (and the shard, for a spoke shard). The crash-injection suite
//! in `crates/core/tests/crash_injection.rs` sweeps truncations and bit
//! flips over real images to hold that contract.

use crate::paging::{
    corrupt_shard, BlockPager, FactorPair, FileSource, Layout, MemSource, SegmentMeta,
    SegmentSource, SpokeFactors,
};
use crate::precompute::{Bear, HubSolve};
use bear_sparse::mem::{MemBudget, MemoryUsage};
use bear_sparse::{CscMatrix, CsrMatrix, Error, Permutation, Result};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The index magic; the trailer magic; the retired magics, by version.
const MAGIC: &[u8; 8] = b"BEARIDX4";
const TRAILER_MAGIC: &[u8; 8] = b"BEARTRL4";
const RETIRED: [(&[u8; 8], u32); 3] = [(b"BEARIDX1", 1), (b"BEARIDX2", 2), (b"BEARIDX3", 3)];
/// Both magics are eight bytes.
const MAGIC_LEN: usize = 8;
/// Magic (8) + resident-region crc32 (4) + resident-region offset (8) +
/// file length (8). The CRC covers only the resident region — each
/// shard carries its own frame CRC, so integrity checks never have to
/// hash the (potentially larger-than-RAM) shard area in one piece.
const TRAILER_LEN: usize = 28;
/// The on-disk format version [`verify_index`] reports.
const VERSION: u32 = 4;
/// Chunk size for the streamed resident-region checksum — bounds peak
/// allocation when verifying or loading a large index.
const VERIFY_CHUNK: usize = 256 * 1024;
/// Frame tag of a spoke shard.
const SHARD_TAG: &[u8; 4] = b"SPKB";
/// Frame overhead: tag (4) + payload length (8) + payload crc (4).
const FRAME_OVERHEAD: usize = 16;
/// Bytes per `SDIR` directory entry: offset, frame length, crc, first
/// block, block count, dimension, `L₁⁻¹` nnz, `U₁⁻¹` nnz — eight `u64`s.
const SDIR_ENTRY_LEN: usize = 64;

/// A section's four-byte tag and the name `Error::CorruptIndex { section,
/// .. }` reports for it.
type Section = (&'static [u8; 4], &'static str);

/// The resident region's framed sections, in file order.
const SECTIONS: [Section; 9] = [
    (b"META", "meta"),
    (b"PERM", "perm"),
    (b"BSIZ", "block_sizes"),
    (b"DEGS", "degrees"),
    (b"L2IV", "l2_inv"),
    (b"U2IV", "u2_inv"),
    (b"H12M", "h12"),
    (b"H21M", "h21"),
    (b"SDIR", "segment_directory"),
];

fn io_err(e: std::io::Error) -> Error {
    Error::InvalidStructure(format!("index io error: {e}"))
}

fn corrupt(section: &'static str, detail: impl Into<String>) -> Error {
    Error::CorruptIndex { section, detail: detail.into() }
}

/// Maps any non-`CorruptIndex` error (structural validation, bounded-read
/// truncation, ...) into `CorruptIndex` for `section`, preserving the
/// inner message as the detail. Already-typed corruption passes through
/// so the most specific section wins.
fn wrap(section: &'static str) -> impl Fn(Error) -> Error {
    move |e| match e {
        Error::CorruptIndex { .. } => e,
        other => corrupt(section, other.to_string()),
    }
}

/// Re-tags a `CorruptIndex` with `section`, keeping the detail. Used
/// when a positional read (whose source reports generic segment errors)
/// serves a differently-named structure like the trailer.
fn retag(section: &'static str) -> impl Fn(Error) -> Error {
    move |e| match e {
        Error::CorruptIndex { detail, .. } => corrupt(section, detail),
        other => other,
    }
}

/// Converts an on-disk `u64` (length, dimension, or index) to `usize`,
/// returning a typed error when it does not fit. On 32-bit targets a
/// plain `as usize` would silently truncate an oversized value into a
/// *valid-looking* small one, turning a corrupt file into wrong answers
/// instead of a load failure.
fn checked_usize(v: u64, what: &str) -> Result<usize> {
    usize::try_from(v).map_err(|_| {
        Error::InvalidStructure(format!("corrupt index: {what} {v} does not fit in usize"))
    })
}

/// Decodes 8 little-endian bytes. Callers always pass exactly 8 bytes
/// (sliced via bounds-checked cursors).
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Raw (unprefixed) `u64` array — the section frame already carries the
/// byte length, so PERM/BSIZ/DEGS payloads need no inner prefix.
fn raw_u64s(data: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * data.len());
    for &v in data {
        push_u64(&mut out, v as u64);
    }
    out
}

/// Length-prefixed `u64` array, used *inside* matrix payloads where
/// several arrays share one frame.
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

/// A matrix's `indptr | indices | values`, each length-prefixed.
fn push_arrays(out: &mut Vec<u8>, indptr: &[usize], indices: &[usize], values: &[f64]) {
    push_usize_array(out, indptr);
    push_usize_array(out, indices);
    push_f64_array(out, values);
}

/// Shared CSC/CSR payload: `nrows | ncols | indptr | indices | values`.
fn matrix_payload(
    nrows: usize,
    ncols: usize,
    indptr: &[usize],
    indices: &[usize],
    values: &[f64],
) -> Vec<u8> {
    let mut p = Vec::with_capacity(16 + 8 * (indptr.len() + indices.len() + values.len() + 3));
    push_u64(&mut p, nrows as u64);
    push_u64(&mut p, ncols as u64);
    push_arrays(&mut p, indptr, indices, values);
    p
}

fn csc_payload(m: &CscMatrix) -> Vec<u8> {
    matrix_payload(m.nrows(), m.ncols(), m.indptr(), m.indices(), m.values())
}

fn csr_payload(m: &CsrMatrix) -> Vec<u8> {
    matrix_payload(m.nrows(), m.ncols(), m.indptr(), m.indices(), m.values())
}

/// Appends one frame — tag, payload length, payload, CRC — and returns
/// the payload's CRC.
fn push_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) -> u32 {
    let crc = crate::crc32::crc32(payload);
    out.extend_from_slice(tag);
    push_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
    crc
}

/// Borrowed pieces of the resident region's sections, except the shard
/// directory.
pub(crate) struct ResidentParts<'a> {
    pub(crate) n1: usize,
    pub(crate) n2: usize,
    pub(crate) c: f64,
    pub(crate) perm: &'a Permutation,
    pub(crate) block_sizes: &'a [usize],
    pub(crate) degrees: &'a [usize],
    pub(crate) l2_inv: &'a CscMatrix,
    pub(crate) u2_inv: &'a CscMatrix,
    pub(crate) h12: &'a CsrMatrix,
    pub(crate) h21: &'a CsrMatrix,
}

/// Frames the resident region's sections onto `out`, in file order, with
/// `dir` as the shard directory.
fn push_sections(out: &mut Vec<u8>, p: &ResidentParts<'_>, dir: &[SegmentMeta]) {
    for (tag, _) in SECTIONS {
        let payload = match tag {
            b"META" => {
                let mut meta = Vec::with_capacity(24);
                push_u64(&mut meta, p.n1 as u64);
                push_u64(&mut meta, p.n2 as u64);
                meta.extend_from_slice(&p.c.to_le_bytes());
                meta
            }
            b"PERM" => raw_u64s(p.perm.as_new_to_old()),
            b"BSIZ" => raw_u64s(p.block_sizes),
            b"DEGS" => raw_u64s(p.degrees),
            b"L2IV" => csc_payload(p.l2_inv),
            b"U2IV" => csc_payload(p.u2_inv),
            b"H12M" => csr_payload(p.h12),
            b"H21M" => csr_payload(p.h21),
            _ => sdir_payload(dir),
        };
        push_section(out, tag, &payload);
    }
}

/// `SDIR` payload: shard count, then eight `u64`s per shard.
fn sdir_payload(dir: &[SegmentMeta]) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + dir.len() * SDIR_ENTRY_LEN);
    push_u64(&mut p, dir.len() as u64);
    for s in dir {
        for v in [
            s.offset,
            s.frame_len,
            u64::from(s.crc),
            s.first_block,
            s.blocks,
            s.dim,
            s.l1_nnz,
            s.u1_nnz,
        ] {
            push_u64(&mut p, v);
        }
    }
    p
}

/// The 28-byte trailer for a resident region starting at `resident_off`.
fn trailer(region: &[u8], resident_off: u64) -> [u8; TRAILER_LEN] {
    let mut t = [0u8; TRAILER_LEN];
    t[..8].copy_from_slice(TRAILER_MAGIC);
    t[8..12].copy_from_slice(&crate::crc32::crc32(region).to_le_bytes());
    t[12..20].copy_from_slice(&resident_off.to_le_bytes());
    let total = resident_off + region.len() as u64 + t.len() as u64;
    t[20..28].copy_from_slice(&total.to_le_bytes());
    t
}

// ---------------------------------------------------------------------------
// The shard codec
// ---------------------------------------------------------------------------

/// Encodes a unit starting at block `first_block` as a shard payload:
/// `first_block | blocks | dim | L₁⁻¹ arrays | U₁⁻¹ arrays` (each matrix
/// as length-prefixed `indptr | indices | values`; the dimension is the
/// unit's on both axes).
pub(crate) fn encode_shard(first_block: usize, pair: &FactorPair) -> Vec<u8> {
    let words = |m: &CscMatrix| m.indptr().len() + m.indices().len() + m.values().len();
    let mut out = Vec::with_capacity(24 + 8 * (words(&pair.l1) + words(&pair.u1) + 6));
    push_u64(&mut out, first_block as u64);
    push_u64(&mut out, pair.blocks() as u64);
    push_u64(&mut out, pair.dim() as u64);
    for m in [&pair.l1, &pair.u1] {
        push_arrays(&mut out, m.indptr(), m.indices(), m.values());
    }
    out
}

/// Frames a unit starting at block `first_block` as a shard to be placed
/// at byte `offset`: the frame bytes and the directory entry that
/// locates them.
pub(crate) fn shard_frame(
    first_block: usize,
    pair: &FactorPair,
    offset: u64,
) -> (Vec<u8>, SegmentMeta) {
    let payload = encode_shard(first_block, pair);
    let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    let crc = push_section(&mut frame, SHARD_TAG, &payload);
    let meta = SegmentMeta {
        offset,
        frame_len: frame.len() as u64,
        crc,
        first_block: first_block as u64,
        blocks: pair.blocks() as u64,
        dim: pair.dim() as u64,
        l1_nnz: pair.l1.nnz() as u64,
        u1_nnz: pair.u1.nnz() as u64,
    };
    (frame, meta)
}

/// Reads shard `s`'s frame, located by `meta`, and checks it: the tag,
/// the payload length against the directory's frame length, and the
/// payload's CRC against both the frame's copy and the directory's.
/// Returns the whole frame; its payload is `[12, len − 4)`.
pub(crate) fn read_shard(
    source: &dyn SegmentSource,
    meta: &SegmentMeta,
    s: usize,
) -> Result<Vec<u8>> {
    let frame_len = usize::try_from(meta.frame_len)
        .ok()
        .filter(|&len| len >= FRAME_OVERHEAD)
        .ok_or_else(|| corrupt_shard(s, format!("frame length {} invalid", meta.frame_len)))?;
    let mut buf = vec![0u8; frame_len];
    source.read_at(meta.offset, &mut buf).map_err(|e| match e {
        Error::CorruptIndex { detail, .. } => corrupt_shard(s, detail),
        other => other,
    })?;
    let (head, rest) = buf.split_at(12);
    let (payload, crc4) = rest.split_at(frame_len - FRAME_OVERHEAD);
    if &head[..4] != SHARD_TAG {
        return Err(corrupt_shard(s, "shard tag missing (directory points at garbage)"));
    }
    let payload_len = le_u64(&head[4..12]);
    if payload_len != payload.len() as u64 {
        return Err(corrupt_shard(
            s,
            format!("frame length {payload_len} disagrees with directory ({})", payload.len()),
        ));
    }
    let (stored, actual) = (le_u32(crc4), crate::crc32::crc32(payload));
    if stored != actual || stored != meta.crc {
        return Err(corrupt_shard(
            s,
            format!(
                "shard checksum mismatch: frame {stored:#010x}, directory {:#010x}, computed {actual:#010x}",
                meta.crc
            ),
        ));
    }
    Ok(buf)
}

/// Decodes shard `s`'s payload against its directory entry `meta`,
/// running the full structural audit (`try_from_parts`) on both
/// matrices and the block audit of `layout` — a checksum-valid shard can
/// still have been written with broken structure, non-finite values, or
/// an entry across a block boundary.
pub(crate) fn decode_shard(
    payload: &[u8],
    s: usize,
    meta: &SegmentMeta,
    layout: &Layout,
) -> Result<FactorPair> {
    let mut cur = SectionReader::for_shard(payload, s);
    for (what, want) in [("first block", meta.first_block), ("block count", meta.blocks)] {
        let got = cur.u64()?;
        if got != want {
            return Err(corrupt_shard(s, format!("shard {what} {got} (directory: {want})")));
        }
    }
    let dim = cur.u64()?;
    if dim != meta.dim {
        return Err(corrupt_shard(
            s,
            format!("shard dimension {dim} does not match directory ({})", meta.dim),
        ));
    }
    let dim = checked_usize(dim, "shard dimension").map_err(|e| corrupt_shard(s, e))?;
    let mut mats = Vec::with_capacity(2);
    for which in ["l1_inv", "u1_inv"] {
        let indptr = cur.usize_array()?;
        let indices = cur.usize_array()?;
        let values = cur.f64_array()?;
        let m = CscMatrix::try_from_parts(dim, dim, indptr, indices, values)
            .map_err(|e| corrupt_shard(s, format!("{which}: {e}")))?;
        mats.push(m);
    }
    cur.finish()?;
    let (Some(u1), Some(l1)) = (mats.pop(), mats.pop()) else {
        return Err(corrupt_shard(s, "shard decoded fewer than two matrices"));
    };
    let blocks =
        checked_usize(meta.blocks, "shard block count").map_err(|e| corrupt_shard(s, e))?;
    let pair = FactorPair::new(l1, u1, blocks).map_err(|e| corrupt_shard(s, e))?;
    layout.audit(s, &pair)?;
    Ok(pair)
}

/// Reads, checks and decodes shard `s`: [`read_shard`] then
/// [`decode_shard`].
pub(crate) fn load_shard(
    source: &dyn SegmentSource,
    meta: &SegmentMeta,
    s: usize,
    layout: &Layout,
) -> Result<FactorPair> {
    let frame = read_shard(source, meta, s)?;
    let payload = frame.get(12..frame.len() - 4).unwrap_or_default();
    decode_shard(payload, s, meta, layout)
}

// ---------------------------------------------------------------------------
// Crash-safe writer
// ---------------------------------------------------------------------------

/// One crash-safe file write. Bytes are appended
/// to a hidden temp file in the target's directory — rename(2) is only
/// atomic within a filesystem, and a temp file elsewhere could cross a
/// mount boundary. [`AtomicFile::commit`] fsyncs the file, renames it
/// over the target and fsyncs the directory. Dropped before the commit
/// succeeds (an error on the way), it removes the temp file, so the
/// previous contents of the target — if any — stay untouched.
struct AtomicFile {
    /// Open until the commit closes it.
    file: Option<std::fs::File>,
    tmp: PathBuf,
    path: PathBuf,
    dir: PathBuf,
    /// Bytes appended so far.
    len: u64,
    committed: bool,
}

impl AtomicFile {
    fn create(path: &Path) -> Result<Self> {
        let file_name = path.file_name().ok_or_else(|| Error::InvalidConfig {
            param: "path",
            reason: format!("index path {} has no file name", path.display()),
        })?;
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let tmp = dir.join(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
        crate::fail_point!("persist::save::write");
        let file = std::fs::File::create(&tmp).map_err(io_err)?;
        Ok(AtomicFile {
            file: Some(file),
            tmp,
            path: path.to_path_buf(),
            dir,
            len: 0,
            committed: false,
        })
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| Error::InvalidStructure("index writer used after commit".into()))?;
        file.write_all(bytes).map_err(io_err)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn commit(mut self) -> Result<()> {
        let file = self
            .file
            .take()
            .ok_or_else(|| Error::InvalidStructure("index writer used after commit".into()))?;
        if let Some(k) = injected_truncation("persist::save::write", self.len) {
            // The injected torn write doubles as the crash itself: the
            // temp file holds a prefix and the process "dies" before the
            // rename.
            file.set_len(k).map_err(io_err)?;
            return Err(Error::InvalidStructure(
                "failpoint 'persist::save::write' injected torn write".into(),
            ));
        }
        crate::fail_point!("persist::save::sync");
        // fsync the payload before the rename: rename-before-data-reaches-disk
        // is exactly the reordering that turns a crash into a corrupt index.
        file.sync_all().map_err(io_err)?;
        drop(file);
        apply_torn_injection(&self.tmp)?;
        crate::fail_point!("persist::save::rename");
        std::fs::rename(&self.tmp, &self.path).map_err(io_err)?;
        self.committed = true;
        // fsync the directory so the rename (the commit point) is durable too.
        let dirf = std::fs::File::open(&self.dir).map_err(io_err)?;
        dirf.sync_all().map_err(io_err)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            // Best effort: the caller is already returning the error that
            // stopped the write.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Under the `failpoints` feature, an armed `TruncateAt(k)` at `site`
/// with `k` short of the `total` bytes written — the torn-write half of
/// a simulated crash. `None` otherwise.
#[cfg(feature = "failpoints")]
fn injected_truncation(site: &str, total: u64) -> Option<u64> {
    match crate::failpoints::armed(site) {
        Some(crate::failpoints::FailAction::TruncateAt(k)) if k < total => Some(k),
        _ => None,
    }
}

#[cfg(not(feature = "failpoints"))]
fn injected_truncation(_site: &str, _total: u64) -> Option<u64> {
    None
}

/// Under the `failpoints` feature, `persist::save::torn` armed with
/// `TruncateAt`/`BitFlip` corrupts the already-synced temp file *and
/// lets the rename proceed* — a lying disk: save reports success, the
/// damage is only discoverable at load time.
#[cfg(feature = "failpoints")]
fn apply_torn_injection(tmp: &Path) -> Result<()> {
    use crate::failpoints::{armed, FailAction};
    match armed("persist::save::torn") {
        Some(FailAction::TruncateAt(k)) => {
            let data = std::fs::read(tmp).map_err(io_err)?;
            let k = usize::try_from(k).unwrap_or(usize::MAX).min(data.len());
            std::fs::write(tmp, &data[..k]).map_err(io_err)?;
        }
        Some(FailAction::BitFlip(bit)) => {
            let mut data = std::fs::read(tmp).map_err(io_err)?;
            if !data.is_empty() {
                let byte = usize::try_from(bit / 8).unwrap_or(0) % data.len();
                data[byte] ^= 1 << (bit % 8);
                std::fs::write(tmp, &data).map_err(io_err)?;
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(not(feature = "failpoints"))]
fn apply_torn_injection(_tmp: &Path) -> Result<()> {
    Ok(())
}

/// Streams an index image to disk one shard at a time: preprocessing
/// hands each finished unit to [`IndexWriter::write_shard`] and drops
/// it, so peak RSS stays independent of total index size.
/// [`IndexWriter::finish`] appends the resident region and trailer and
/// commits through [`AtomicFile`]. [`Bear::save`] writes through it too,
/// so there is one encoder.
pub(crate) struct IndexWriter {
    file: AtomicFile,
    dir: Vec<SegmentMeta>,
    /// Blocks written so far: the next shard's first block.
    blocks: usize,
}

impl IndexWriter {
    pub(crate) fn create(path: &Path) -> Result<Self> {
        let mut file = AtomicFile::create(path)?;
        file.append(MAGIC)?;
        Ok(IndexWriter { file, dir: Vec::new(), blocks: 0 })
    }

    /// Appends the next unit's shard (units must arrive in block order).
    pub(crate) fn write_shard(&mut self, pair: &FactorPair) -> Result<()> {
        let (frame, meta) = shard_frame(self.blocks, pair, self.file.len);
        self.blocks += pair.blocks();
        self.dir.push(meta);
        self.file.append(&frame)
    }

    /// Appends the resident region and trailer, then commits.
    pub(crate) fn finish(mut self, parts: &ResidentParts<'_>) -> Result<()> {
        let resident_off = self.file.len;
        let mut region = Vec::new();
        push_sections(&mut region, parts, &self.dir);
        self.file.append(&region)?;
        self.file.append(&trailer(&region, resident_off))?;
        self.file.commit()
    }
}

impl Bear {
    /// The resident region's sections. They hold the inverted Schur
    /// factors, so an index built by [`Bear::new_hub_iterative`] fails
    /// here, typed, before anything is written.
    fn resident_parts(&self) -> Result<ResidentParts<'_>> {
        let HubSolve::Inverted { l2_inv, u2_inv } = &self.hub else {
            return Err(Error::InvalidConfig {
                param: "hub_solve",
                reason: "an index that keeps the sparse Schur complement has no on-disk \
                         format; build it with Bear::new to save it"
                    .into(),
            });
        };
        Ok(ResidentParts {
            n1: self.n1,
            n2: self.n2,
            c: self.c,
            perm: &self.perm,
            block_sizes: &self.block_sizes,
            degrees: &self.degrees,
            l2_inv,
            u2_inv,
            h12: &self.h12,
            h21: &self.h21,
        })
    }

    /// Writes the precomputed index to `path`, one shard per unit (a
    /// paged index fetches each unit in turn), crash-safely: the bytes go
    /// to a hidden temp file in the target directory, which is fsynced,
    /// atomically renamed over `path`, and the directory is fsynced. A
    /// crash (or error) at any point leaves the previous contents of
    /// `path` intact. The bytes are those [`crate::preprocess_to_disk`]
    /// streams for the same graph and configuration.
    pub fn save(&self, path: &Path) -> Result<()> {
        let parts = self.resident_parts()?;
        let mut writer = IndexWriter::create(path)?;
        for u in 0..self.spokes.num_units() {
            writer.write_shard(&*self.spokes.unit(u)?)?;
        }
        writer.finish(&parts)
    }

    /// The same as [`Bear::save`]; kept for callers written when the
    /// sharded layout had a writer of its own.
    pub fn save_v3(&self, path: &Path) -> Result<()> {
        self.save(path)
    }

    /// A copy of this index whose spoke factors page from an in-memory
    /// shard region ([`MemSource`]) under `budget_bytes` (`None` =
    /// unlimited): the out-of-core query path, CRC check and decode on
    /// every fault included, without a file. For benchmarks and tests;
    /// answers are bit-identical to this index's.
    pub fn paged_in_memory(&self, budget_bytes: Option<usize>) -> Result<Bear> {
        let mut image = MAGIC.to_vec();
        let mut dir = Vec::with_capacity(self.spokes.num_units());
        let mut first_block = 0;
        for u in 0..self.spokes.num_units() {
            let unit = self.spokes.unit(u)?;
            let (frame, meta) = shard_frame(first_block, &unit, image.len() as u64);
            first_block += unit.blocks();
            image.extend_from_slice(&frame);
            dir.push(meta);
        }
        let pager =
            BlockPager::new(Box::new(MemSource(image)), dir, &self.block_sizes, budget_bytes)?;
        Ok(Bear { spokes: SpokeFactors::Paged { pager }, ..self.clone() })
    }
}

// ---------------------------------------------------------------------------
// Section parsing
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one section or shard payload — the one
/// decoder for their length-prefixed arrays. Every read reports the
/// owning section on failure, so a truncated inner array surfaces as
/// `CorruptIndex { section: "h12", .. }` rather than a generic error; a
/// shard's errors are `spoke_segment` and name the shard.
struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
    /// The shard a payload belongs to; `None` for a section.
    shard: Option<usize>,
}

impl<'a> SectionReader<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        SectionReader { bytes, pos: 0, section, shard: None }
    }

    /// A cursor over the payload of shard `shard`.
    fn for_shard(bytes: &'a [u8], shard: usize) -> Self {
        SectionReader { bytes, pos: 0, section: "spoke_segment", shard: Some(shard) }
    }

    fn corrupt(&self, detail: impl std::fmt::Display) -> Error {
        match self.shard {
            Some(shard) => corrupt_shard(shard, detail),
            None => corrupt(self.section, detail.to_string()),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            self.corrupt(format_args!(
                "payload truncated: needed {n} bytes at offset {}, payload is {} bytes",
                self.pos,
                self.bytes.len()
            ))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(le_u64(self.take(8)?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Remaining unread payload bytes.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes one length-prefixed array of 8-byte little-endian words as
    /// a single span. The prefix is checked against the remaining payload
    /// before anything is allocated, so a corrupt prefix cannot trigger a
    /// huge `Vec::with_capacity`.
    fn words(&mut self) -> Result<&'a [[u8; 8]]> {
        let len = self.u64()?;
        let remaining = self.remaining();
        let bytes = len
            .checked_mul(8)
            .and_then(|b| usize::try_from(b).ok())
            .filter(|&b| b <= remaining)
            .ok_or_else(|| {
                self.corrupt(format_args!(
                    "corrupt length prefix {len}: only {remaining} bytes remain"
                ))
            })?;
        let (words, _) = self.take(bytes)?.as_chunks::<8>();
        Ok(words)
    }

    fn usize_array(&mut self) -> Result<Vec<usize>> {
        let words = self.words()?;
        let mut out = Vec::with_capacity(words.len());
        for &w in words {
            let v = u64::from_le_bytes(w);
            out.push(usize::try_from(v).map_err(|_| {
                self.corrupt(format_args!("array element {v} does not fit in usize"))
            })?);
        }
        Ok(out)
    }

    fn f64_array(&mut self) -> Result<Vec<f64>> {
        Ok(self.words()?.iter().map(|&w| f64::from_le_bytes(w)).collect())
    }

    /// Rejects trailing garbage — a payload longer than its content
    /// means the frame length lies about the structure inside it.
    fn finish(self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt(format_args!(
                "{} unconsumed bytes at end of payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn parse_meta(payload: &[u8]) -> Result<(usize, usize, f64)> {
    let mut r = SectionReader::new(payload, "meta");
    let n1 = checked_usize(r.u64()?, "spoke count n1").map_err(wrap("meta"))?;
    let n2 = checked_usize(r.u64()?, "hub count n2").map_err(wrap("meta"))?;
    let c = r.f64()?;
    r.finish()?;
    if !(c > 0.0 && c < 1.0) {
        return Err(corrupt("meta", format!("restart probability {c} outside (0, 1)")));
    }
    Ok((n1, n2, c))
}

/// Raw `u64` payload (PERM/BSIZ/DEGS): length must be a multiple of 8.
fn parse_raw_u64s(payload: &[u8], section: &'static str) -> Result<Vec<usize>> {
    if !payload.len().is_multiple_of(8) {
        return Err(corrupt(
            section,
            format!("payload length {} is not a multiple of 8", payload.len()),
        ));
    }
    let mut out = Vec::with_capacity(payload.len() / 8);
    for chunk in payload.chunks_exact(8) {
        out.push(checked_usize(le_u64(chunk), "array element").map_err(wrap(section))?);
    }
    Ok(out)
}

/// Raw matrix payload: `(nrows, ncols, indptr, indices, values)` before
/// the structural audit runs.
type MatrixParts = (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>);

/// Parses a matrix payload into its raw parts; the caller runs the
/// structural audit via `try_from_parts`.
fn parse_matrix_parts(payload: &[u8], section: &'static str) -> Result<MatrixParts> {
    let mut r = SectionReader::new(payload, section);
    let nrows = checked_usize(r.u64()?, "matrix row count").map_err(wrap(section))?;
    let ncols = checked_usize(r.u64()?, "matrix column count").map_err(wrap(section))?;
    let indptr = r.usize_array()?;
    let indices = r.usize_array()?;
    let values = r.f64_array()?;
    r.finish()?;
    Ok((nrows, ncols, indptr, indices, values))
}

fn parse_csc(payload: &[u8], section: &'static str) -> Result<CscMatrix> {
    let (nrows, ncols, indptr, indices, values) = parse_matrix_parts(payload, section)?;
    // Trust boundary: run the full invariant audit (structure and
    // finiteness), not just shape checks — a checksum-valid payload can
    // still have been *written* with NaN/∞ or broken structure.
    CscMatrix::try_from_parts(nrows, ncols, indptr, indices, values).map_err(wrap(section))
}

fn parse_csr(payload: &[u8], section: &'static str) -> Result<CsrMatrix> {
    let (nrows, ncols, indptr, indices, values) = parse_matrix_parts(payload, section)?;
    // Trust boundary: full audit, as in `parse_csc`.
    CsrMatrix::try_from_parts(nrows, ncols, indptr, indices, values).map_err(wrap(section))
}

fn parse_sdir(payload: &[u8]) -> Result<Vec<SegmentMeta>> {
    let mut r = SectionReader::new(payload, "segment_directory");
    let count = r.u64()?;
    let need = count.checked_mul(SDIR_ENTRY_LEN as u64).filter(|&n| n <= r.remaining() as u64);
    if need.is_none() {
        return Err(corrupt(
            "segment_directory",
            format!("corrupt shard count {count}: payload holds {} bytes", r.remaining()),
        ));
    }
    let count = checked_usize(count, "shard count").map_err(wrap("segment_directory"))?;
    let mut dir = Vec::with_capacity(count);
    for _ in 0..count {
        let offset = r.u64()?;
        let frame_len = r.u64()?;
        let crc64 = r.u64()?;
        let crc = u32::try_from(crc64).map_err(|_| {
            corrupt("segment_directory", format!("shard crc {crc64} overflows u32"))
        })?;
        let (first_block, blocks, dim) = (r.u64()?, r.u64()?, r.u64()?);
        let (l1_nnz, u1_nnz) = (r.u64()?, r.u64()?);
        dir.push(SegmentMeta { offset, frame_len, crc, first_block, blocks, dim, l1_nnz, u1_nnz });
    }
    r.finish()?;
    Ok(dir)
}

/// A section kept after parsing: the permutation or a matrix.
enum Part {
    Perm(Permutation),
    Csc(CscMatrix),
    Csr(CsrMatrix),
}

/// An image's resident region as it is read and parsed, plus what the
/// dimension rules compare.
#[derive(Default)]
struct Image {
    /// Keep the permutation and matrices (loading), or audit each one and
    /// drop it before the next section is read (verification).
    keep: bool,
    /// Offset of the resident region (its first section).
    start: u64,
    sections: Vec<SectionInfo>,
    n1: usize,
    n2: usize,
    c: f64,
    perm_len: usize,
    block_sizes: Vec<usize>,
    degrees: Vec<usize>,
    /// Tag and `(nrows, ncols)` of every matrix section, in file order.
    shapes: Vec<(&'static [u8; 4], (usize, usize))>,
    /// The kept sections, in file order.
    kept: Vec<Part>,
    dir: Vec<SegmentMeta>,
}

impl Image {
    /// Parses one checked payload (the structural audit runs here) and
    /// records what the dimension rules read.
    fn parse(&mut self, (tag, name): Section, payload: &[u8]) -> Result<()> {
        let part = match tag {
            b"META" => {
                (self.n1, self.n2, self.c) = parse_meta(payload)?;
                None
            }
            b"BSIZ" => {
                self.block_sizes = parse_raw_u64s(payload, name)?;
                None
            }
            b"DEGS" => {
                self.degrees = parse_raw_u64s(payload, name)?;
                None
            }
            b"SDIR" => {
                self.dir = parse_sdir(payload)?;
                None
            }
            b"PERM" => {
                let perm = Permutation::try_from_parts(parse_raw_u64s(payload, name)?)
                    .map_err(wrap(name))?;
                self.perm_len = perm.len();
                Some(Part::Perm(perm))
            }
            b"H12M" | b"H21M" => {
                let m = parse_csr(payload, name)?;
                self.shapes.push((tag, (m.nrows(), m.ncols())));
                Some(Part::Csr(m))
            }
            _ => {
                let m = parse_csc(payload, name)?;
                self.shapes.push((tag, (m.nrows(), m.ncols())));
                Some(Part::Csc(m))
            }
        };
        if self.keep {
            self.kept.extend(part);
        }
        self.sections.push(SectionInfo {
            tag: String::from_utf8_lossy(tag).into_owned(),
            len: payload.len() as u64,
        });
        Ok(())
    }

    /// The dimension rules every reader enforces: `n = n1 + n2` nodes in
    /// the permutation and degree list, block sizes summing to `n1`, and
    /// every matrix shaped as its place in the partition requires. (The
    /// shards are checked against the block sizes through the directory
    /// instead.)
    fn check_dims(&self) -> Result<()> {
        let (n1, n2) = (self.n1, self.n2);
        // Checked sums: corrupt headers near usize::MAX must fail typed,
        // not overflow (panic in debug, wrap to a bogus `n` in release).
        let n = n1
            .checked_add(n2)
            .ok_or_else(|| corrupt("meta", format!("n1 {n1} + n2 {n2} overflows")))?;
        let block_sum = self.block_sizes.iter().try_fold(0usize, |s, &b| s.checked_add(b));
        let shaped = |&(tag, (rows, cols)): &(&[u8; 4], (usize, usize))| match tag {
            b"L2IV" | b"U2IV" => rows == n2,
            b"H12M" => (rows, cols) == (n1, n2),
            _ => (rows, cols) == (n2, n1),
        };
        if self.perm_len != n
            || self.degrees.len() != n
            || block_sum != Some(n1)
            || !self.shapes.iter().all(shaped)
        {
            return Err(corrupt("meta", "inconsistent index dimensions"));
        }
        Ok(())
    }

    /// Checks the directory against the file geometry — shard frames laid
    /// out contiguously from right after the magic to the start of the
    /// resident region, so none overlap and no bytes go unindexed (hence
    /// unverified) — and against the blocks, which its shards must tile
    /// in order. Returns the layout they give.
    fn layout(&self) -> Result<Layout> {
        let mut expected = MAGIC_LEN as u64;
        for (s, meta) in self.dir.iter().enumerate() {
            if meta.offset != expected {
                return Err(corrupt_shard(
                    s,
                    format!("shard at offset {} (expected {expected})", meta.offset),
                ));
            }
            if meta.frame_len < FRAME_OVERHEAD as u64 {
                return Err(corrupt_shard(s, format!("frame length {} too short", meta.frame_len)));
            }
            expected = expected
                .checked_add(meta.frame_len)
                .filter(|&e| e <= self.start)
                .ok_or_else(|| {
                    corrupt_shard(
                        s,
                        format!("shard extends past the resident region at {}", self.start),
                    )
                })?;
        }
        if expected != self.start {
            return Err(corrupt(
                "segment_directory",
                format!(
                    "{} unindexed bytes between shards and resident region",
                    self.start - expected
                ),
            ));
        }
        Layout::from_directory(&self.block_sizes, &self.dir)
    }

    /// Bytes of the kept hub-side matrices.
    fn kept_bytes(&self) -> usize {
        self.kept
            .iter()
            .map(|part| match part {
                Part::Perm(_) => 0,
                Part::Csc(m) => m.memory_bytes(),
                Part::Csr(m) => m.memory_bytes(),
            })
            .sum()
    }

    /// Assembles a loaded index around `spokes`.
    fn into_bear(self, spokes: SpokeFactors) -> Result<Bear> {
        use Part::{Csc, Csr, Perm};
        let Ok([Perm(perm), Csc(l2_inv), Csc(u2_inv), Csr(h12), Csr(h21)]) =
            <[Part; 5]>::try_from(self.kept)
        else {
            return Err(corrupt("header", "wrong section count"));
        };
        Ok(Bear {
            spokes,
            hub: HubSolve::Inverted { l2_inv, u2_inv },
            h12,
            h21,
            perm,
            n1: self.n1,
            n2: self.n2,
            c: self.c,
            block_sizes: self.block_sizes,
            degrees: self.degrees,
            // Preprocessing happened in the process that wrote the index;
            // a loaded index reports zero stage timings.
            timings: crate::stats::StageTimings::default(),
            topk_bounds: std::sync::OnceLock::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Opens an index file and checks its magic; a retired format's magic
/// fails with a detail that says to re-run `bear preprocess`.
fn open_index(path: &Path) -> Result<(FileSource, u64)> {
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let mut magic = [0u8; MAGIC_LEN];
    if let Err(e) = file.read_exact(&mut magic) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt("header", "file too short to hold a magic number")
        } else {
            io_err(e)
        });
    }
    if &magic != MAGIC {
        if let Some((_, v)) = RETIRED.iter().find(|(m, _)| **m == magic) {
            return Err(corrupt(
                "header",
                format!(
                    "format v{v} ({}) is no longer supported; re-run `bear preprocess` to \
                     write a v{VERSION} index",
                    String::from_utf8_lossy(&magic)
                ),
            ));
        }
        return Err(corrupt("header", format!("not a BEAR index file (magic {magic:?})")));
    }
    let total = file.metadata().map_err(io_err)?.len();
    Ok((FileSource::new(file), total))
}

/// CRC32 of `[off, off + remaining)`, read in bounded chunks.
fn streamed_crc(src: &FileSource, mut off: u64, mut remaining: u64) -> Result<u32> {
    let mut crc = crate::crc32::Crc32::new();
    let cap = usize::try_from(remaining.min(VERIFY_CHUNK as u64)).unwrap_or(VERIFY_CHUNK);
    let mut buf = vec![0u8; cap];
    while remaining > 0 {
        let n = buf.len().min(usize::try_from(remaining).unwrap_or(buf.len()));
        src.read_at(off, &mut buf[..n])?;
        crc.update(&buf[..n]);
        off += n as u64;
        remaining -= n as u64;
    }
    Ok(crc.finish())
}

/// Checks the trailer of an image of `total` bytes — its magic, the
/// file length it records, and the CRC it stores over the resident
/// region — and returns the span `[start, end)` the resident region's
/// sections must fill exactly.
fn check_trailer(src: &FileSource, total: u64) -> Result<(u64, u64)> {
    let (magic_len, trailer_len) = (MAGIC_LEN as u64, TRAILER_LEN as u64);
    if total < magic_len + trailer_len {
        return Err(corrupt(
            "trailer",
            format!("file too short ({total} bytes) to hold magic and trailer"),
        ));
    }
    let end = total - trailer_len;
    let mut trailer = [0u8; TRAILER_LEN];
    src.read_at(end, &mut trailer).map_err(retag("trailer"))?;
    if &trailer[..8] != TRAILER_MAGIC {
        return Err(corrupt("trailer", "trailer magic missing (torn or truncated write)"));
    }
    let stored_len = le_u64(&trailer[20..28]);
    if stored_len != total {
        return Err(corrupt(
            "trailer",
            format!("trailer records a {stored_len}-byte file, actual size is {total}"),
        ));
    }
    let start = le_u64(&trailer[12..20]);
    if start < magic_len || start > end {
        return Err(corrupt(
            "trailer",
            format!("resident region offset {start} outside file bounds"),
        ));
    }
    let stored_crc = le_u32(&trailer[8..12]);
    let actual_crc = streamed_crc(src, start, end - start).map_err(retag("trailer"))?;
    if stored_crc != actual_crc {
        return Err(corrupt(
            "trailer",
            format!(
                "checksum mismatch over bytes {start}..{end}: stored {stored_crc:#010x}, \
                 computed {actual_crc:#010x}"
            ),
        ));
    }
    Ok((start, end))
}

/// Reads the section frame at `pos` (`tag [4] | len u64 LE | payload |
/// crc32 u32 LE`), which must end by `end`: checks the tag against
/// `section`, the length against the bounds, and the payload against its
/// CRC. The payload allocation is charged against `budget` first.
/// Returns the payload and the offset just past the frame.
fn read_frame(
    src: &FileSource,
    pos: u64,
    end: u64,
    (tag, name): Section,
    budget: &MemBudget,
) -> Result<(Vec<u8>, u64)> {
    let payload_start = pos
        .checked_add(12)
        .filter(|&e| e <= end)
        .ok_or_else(|| corrupt(name, "section header truncated"))?;
    let mut hdr = [0u8; 12];
    src.read_at(pos, &mut hdr).map_err(retag(name))?;
    if &hdr[..4] != tag.as_slice() {
        return Err(corrupt(
            name,
            format!(
                "section tag mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(&hdr[..4])
            ),
        ));
    }
    let len = le_u64(&hdr[4..12]);
    let Some(frame_end) = payload_start
        .checked_add(len)
        .and_then(|payload_end| payload_end.checked_add(4))
        .filter(|&frame_end| frame_end <= end)
    else {
        return Err(corrupt(name, format!("section length {len} exceeds file bounds")));
    };
    let len = checked_usize(len, "section length").map_err(wrap(name))?;
    budget.check(len)?;
    // Payload and CRC in one read.
    let mut payload = vec![0u8; len + 4];
    src.read_at(payload_start, &mut payload).map_err(retag(name))?;
    let stored = le_u32(&payload[len..]);
    payload.truncate(len);
    let actual = crate::crc32::crc32(&payload);
    if stored != actual {
        return Err(corrupt(
            name,
            format!("section checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    Ok((payload, frame_end))
}

/// Reads an image's resident region: the trailer and its checksum, then
/// every section through [`read_frame`], each parsed before the next is
/// read, and the dimension rules. With `keep` false (verification) each
/// section is dropped once parsed, so peak allocation is the largest
/// single section plus the `O(n)` block sizes and degrees.
fn read_image(src: &FileSource, total: u64, budget: &MemBudget, keep: bool) -> Result<Image> {
    let (start, end) = check_trailer(src, total)?;
    let mut image = Image { keep, start, ..Image::default() };
    let mut pos = start;
    for section in SECTIONS {
        let (payload, next) = read_frame(src, pos, end, section, budget)?;
        image.parse(section, &payload)?;
        pos = next;
    }
    if pos != end {
        return Err(corrupt(
            "trailer",
            format!("{} unexpected bytes between sections and trailer", end - pos),
        ));
    }
    image.check_dims()?;
    Ok(image)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Options controlling how [`Bear::load_with`] materializes an index.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Memory budget. The hub-side matrices must always fit (typed
    /// [`Error::OutOfBudget`] otherwise); a resident load must fit every
    /// unit too, while a paged load pages the units under whatever
    /// budget remains.
    pub budget: MemBudget,
    /// Load every unit into memory, reading each shard once, and never
    /// touch a pager on the query path. Otherwise the units page on
    /// demand.
    pub resident: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { budget: MemBudget::unlimited(), resident: false }
    }
}

impl Bear {
    /// Reads a precomputed index written by [`Bear::save`] or
    /// [`crate::preprocess_to_disk`], paged under an unlimited budget.
    /// Shorthand for [`Bear::load_with`] with default [`LoadOptions`]. A
    /// file of a retired format (`BEARIDX1`, `BEARIDX2`, `BEARIDX3`) is
    /// rejected with `CorruptIndex { section: "header", .. }`; re-run
    /// `bear preprocess` to replace it.
    ///
    /// The file is a trust boundary. The resident-region checksum and
    /// every shard's are verified before any is parsed; every matrix and
    /// the node ordering are re-validated via the `try_from_parts`
    /// constructors (sorted, in-bounds, duplicate-free indices; monotone
    /// `indptr`; bijective permutation; finite values), every shard's
    /// entries must lie inside their blocks, and the partition
    /// dimensions are cross-checked. Any failure — torn write, bit rot,
    /// or a corrupt-but-length-valid payload — returns
    /// [`Error::CorruptIndex`] naming the section, never a panic and
    /// never an index that answers with garbage (see
    /// `crates/core/tests/crash_injection.rs`).
    pub fn load(path: &Path) -> Result<Self> {
        Self::load_with(path, &LoadOptions::default())
    }

    /// Like [`Bear::load`], with explicit residency control:
    /// `opts.budget` caps memory and `opts.resident` holds every unit in
    /// memory. A resident load reads each shard once — read, CRC check,
    /// decode — charging its bytes to the budget first. A paged load
    /// checks every shard's CRC up front, so a damaged index fails the
    /// load instead of a query hours later, then pages the units under
    /// the budget the hub-side matrices leave.
    pub fn load_with(path: &Path, opts: &LoadOptions) -> Result<Self> {
        crate::fail_point!("persist::load");
        let (src, total) = open_index(path)?;
        let mut image = read_image(&src, total, &opts.budget, true)?;
        let layout = image.layout()?;
        // The hub/Schur matrices must be resident for every query.
        let hub_bytes = image.kept_bytes();
        opts.budget.check(hub_bytes)?;
        let dir = std::mem::take(&mut image.dir);
        let spokes = if opts.resident {
            let mut held = hub_bytes;
            let mut units = Vec::with_capacity(dir.len());
            for (s, meta) in dir.iter().enumerate() {
                held = held.saturating_add(meta.resident_bytes());
                opts.budget.check(held)?;
                units.push(load_shard(&src, meta, s, &layout)?);
            }
            SpokeFactors::Resident { units, layout: Box::new(layout) }
        } else {
            for (s, meta) in dir.iter().enumerate() {
                read_shard(&src, meta, s)?;
            }
            let budget = opts.budget.limit().map(|l| l.saturating_sub(hub_bytes));
            SpokeFactors::Paged {
                pager: BlockPager::with_layout(Box::new(src), dir, layout, budget),
            }
        };
        image.into_bear(spokes)
    }

    /// Like [`Bear::load`], but an artifact that fails integrity or
    /// structural validation is renamed to `<path>.corrupt` so it cannot
    /// be retried into serving; the returned error's detail records the
    /// quarantine destination. I/O errors (e.g. the file is simply
    /// missing) and budget overruns are *not* quarantined — only typed
    /// corruption is.
    pub fn load_or_quarantine(path: &Path) -> Result<Self> {
        Self::load_or_quarantine_with(path, &LoadOptions::default())
    }

    /// [`Bear::load_or_quarantine`] with explicit [`LoadOptions`].
    pub fn load_or_quarantine_with(path: &Path, opts: &LoadOptions) -> Result<Self> {
        match Self::load_with(path, opts) {
            Err(Error::CorruptIndex { section, detail }) => {
                let mut q = path.as_os_str().to_os_string();
                q.push(".corrupt");
                let quarantined = PathBuf::from(q);
                let detail = match std::fs::rename(path, &quarantined) {
                    Ok(()) => format!("{detail}; quarantined to {}", quarantined.display()),
                    Err(e) => format!("{detail}; quarantine rename failed: {e}"),
                };
                Err(Error::CorruptIndex { section, detail })
            }
            other => other,
        }
    }
}

/// One framed section of an index, as reported by [`verify_index`].
#[derive(Debug, Clone, PartialEq)]
pub struct SectionInfo {
    /// Four-character section tag (e.g. `META`, `SDIR`).
    pub tag: String,
    /// Payload length in bytes (framing overhead excluded).
    pub len: u64,
}

/// Result of a successful [`verify_index`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexReport {
    /// On-disk format version: 4 (`BEARIDX4`), the only one that loads.
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Spoke count.
    pub n1: usize,
    /// Hub count.
    pub n2: usize,
    /// Restart probability.
    pub c: f64,
    /// The resident region's section inventory.
    pub sections: Vec<SectionInfo>,
    /// Spoke shards (one per unit).
    pub segments: usize,
}

/// Fully verifies the index at `path` — checksums, framing, structural
/// invariants, dimension consistency — and reports what was found.
/// Errors are exactly those [`Bear::load`] would return; the file is
/// never modified. Shorthand for [`verify_index_with`] under an
/// unlimited budget.
pub fn verify_index(path: &Path) -> Result<IndexReport> {
    verify_index_with(path, &MemBudget::unlimited())
}

/// Like [`verify_index`], but with bounded peak allocation: the
/// resident-region checksum is streamed in chunks, each section is
/// parsed (full structural audit) and dropped before the next is read,
/// and the shards are read, checked and decoded one at a time. Every
/// transient allocation is charged against `budget` first — so
/// `bear verify-index` works on an index larger than RAM.
pub fn verify_index_with(path: &Path, budget: &MemBudget) -> Result<IndexReport> {
    let (src, total) = open_index(path)?;
    let image = read_image(&src, total, budget, false)?;
    let layout = image.layout()?;
    for (s, meta) in image.dir.iter().enumerate() {
        let frame = checked_usize(meta.frame_len, "shard frame length")
            .map_err(wrap("segment_directory"))?;
        budget.check(frame.saturating_add(meta.resident_bytes()))?;
        load_shard(&src, meta, s, &layout)?;
    }
    Ok(IndexReport {
        version: VERSION,
        file_len: total,
        n1: image.n1,
        n2: image.n2,
        c: image.c,
        sections: image.sections,
        segments: image.dir.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::{Bear, BearConfig};
    use crate::solver::RwrSolver as _;
    use bear_graph::Graph;

    fn sample_graph() -> Graph {
        let mut edges = Vec::new();
        for v in 1..10 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        edges.push((3, 4));
        edges.push((4, 3));
        Graph::from_edges(10, &edges).unwrap()
    }

    /// Several spoke caves so the image carries several blocks.
    fn blocky_graph() -> Graph {
        let mut edges = Vec::new();
        for v in 1..6 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        for &(a, b) in &[(6, 7), (7, 8), (9, 10), (11, 12), (12, 13), (13, 11)] {
            edges.push((a, b));
            edges.push((b, a));
        }
        for v in [6, 9, 11] {
            edges.push((0, v));
            edges.push((v, 0));
        }
        Graph::from_edges(14, &edges).unwrap()
    }

    /// A hub joined to `chains` chains of `len` nodes: one block per
    /// chain, several units.
    fn hub_and_chains(chains: usize, len: usize) -> Graph {
        let mut edges = Vec::new();
        for ch in 0..chains {
            let first = 1 + ch * len;
            edges.push((0, first));
            edges.extend((first..first + len - 1).map(|i| (i, i + 1)));
        }
        let sym: Vec<(usize, usize)> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        Graph::from_edges(1 + chains * len, &sym).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    /// Recomputes every resident-region section CRC and the trailer CRC
    /// over a surgically edited image (payload bytes changed, lengths
    /// unchanged), so tests can reach the structural validators
    /// *beneath* the checksums.
    fn fix_resident_checksums(bytes: &mut [u8]) {
        let trailer_off = bytes.len() - TRAILER_LEN;
        let start = le_u64(&bytes[trailer_off + 12..trailer_off + 20]) as usize;
        let mut pos = start;
        while pos < trailer_off {
            let len = le_u64(&bytes[pos + 4..pos + 12]) as usize;
            let payload_end = pos + 12 + len;
            let crc = crate::crc32::crc32(&bytes[pos + 12..payload_end]);
            bytes[payload_end..payload_end + 4].copy_from_slice(&crc.to_le_bytes());
            pos = payload_end + 4;
        }
        let crc = crate::crc32::crc32(&bytes[start..trailer_off]);
        bytes[trailer_off + 8..trailer_off + 12].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn save_load_round_trip_preserves_queries() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_round_trip.idx");
        bear.save(&path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.num_nodes(), bear.num_nodes());
        assert_eq!(loaded.n_hubs(), bear.n_hubs());
        for seed in 0..10 {
            assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap());
        }
    }

    /// `save` → load (paged or resident) → `save` reproduces the image
    /// byte for byte, and `save_v3` writes the same bytes as `save`.
    #[test]
    fn round_trip_is_bit_identical() {
        let bear = Bear::new(&hub_and_chains(20, 30), &BearConfig::exact(0.1)).unwrap();
        assert!(bear.spokes.num_units() > 1);
        let a = tmp("bear_persist_bitident_a.idx");
        let b = tmp("bear_persist_bitident_b.idx");
        bear.save(&a).unwrap();
        let ba = std::fs::read(&a).unwrap();
        assert_eq!(&ba[..8], MAGIC);
        for resident in [false, true] {
            let opts = LoadOptions { resident, ..LoadOptions::default() };
            Bear::load_with(&a, &opts).unwrap().save(&b).unwrap();
            assert_eq!(ba, std::fs::read(&b).unwrap(), "save -> load -> save, {resident}");
        }
        bear.save_v3(&b).unwrap();
        assert_eq!(ba, std::fs::read(&b).unwrap(), "save_v3 differs from save");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = tmp("bear_persist_garbage.idx");
        std::fs::write(&path, b"not an index at all").unwrap();
        let err = Bear::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, Error::CorruptIndex { section: "header", .. }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn load_rejects_wrong_magic() {
        let path = tmp("bear_persist_magic.idx");
        std::fs::write(&path, b"WRONGMAGICxxxxxxxxxxxxxxxxxxx").unwrap();
        let err = Bear::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, Error::CorruptIndex { section: "header", .. }),
            "unexpected error: {err}"
        );
    }

    /// An image of a retired format — here a current image with its magic
    /// swapped, so nothing else would stop it — fails typed at load and
    /// at verification, naming the format and `bear preprocess`.
    #[test]
    fn retired_formats_are_rejected_typed() {
        let bear = Bear::new(&blocky_graph(), &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_retired.idx");
        bear.save(&path).unwrap();
        let image = std::fs::read(&path).unwrap();
        for (magic, v) in RETIRED {
            let mut old = image.clone();
            old[..8].copy_from_slice(magic);
            std::fs::write(&path, &old).unwrap();
            for err in [
                Bear::load(&path).unwrap_err(),
                Bear::load_with(&path, &LoadOptions { resident: true, ..Default::default() })
                    .unwrap_err(),
                verify_index(&path).unwrap_err(),
            ] {
                match err {
                    Error::CorruptIndex { section: "header", detail } => assert!(
                        detail.contains(&format!("format v{v}"))
                            && detail.contains("bear preprocess"),
                        "{detail}"
                    ),
                    other => panic!("v{v}: unexpected error {other}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_truncated_file_without_huge_allocation() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_truncated.idx");
        bear.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Truncation anywhere in the file must produce a typed error.
        for keep in [0, 7, 12, full.len() / 4, full.len() / 2, full.len() - 3] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = Bear::load(&path).unwrap_err();
            assert!(
                matches!(err, Error::CorruptIndex { .. }),
                "truncated to {keep} bytes: unexpected error {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_structural_corruption_beneath_checksums() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_meta_corrupt.idx");
        bear.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // META is the resident region's first section; its restart
        // probability is the third u64 field after the frame header (12).
        // Set it to 2.0 and re-fix every checksum: the CRCs now pass, so
        // only the semantic validator can catch it.
        let trailer_off = bytes.len() - TRAILER_LEN;
        let start = le_u64(&bytes[trailer_off + 12..trailer_off + 20]) as usize;
        assert_eq!(&bytes[start..start + 4], b"META");
        let c_off = start + 12 + 16;
        bytes[c_off..c_off + 8].copy_from_slice(&2.0f64.to_le_bytes());
        fix_resident_checksums(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = Bear::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Error::CorruptIndex { section: "meta", .. }), "unexpected: {err}");
    }

    #[test]
    fn load_or_quarantine_renames_corrupt_artifacts() {
        let path = tmp("bear_persist_quarantine.idx");
        let quarantined = tmp("bear_persist_quarantine.idx.corrupt");
        std::fs::remove_file(&quarantined).ok();
        std::fs::write(&path, b"definitely not an index").unwrap();
        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, Error::CorruptIndex { .. }), "unexpected: {err}");
        assert!(format!("{err}").contains("quarantined to"), "detail lacks destination: {err}");
        assert!(!path.exists(), "corrupt artifact left in place");
        assert!(quarantined.exists(), "quarantine file missing");
        std::fs::remove_file(&quarantined).ok();
    }

    #[test]
    fn load_or_quarantine_leaves_missing_files_alone() {
        let path = tmp("bear_persist_missing.idx");
        std::fs::remove_file(&path).ok();
        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, Error::InvalidStructure(_)), "unexpected: {err}");
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let dir = tmp("bear_persist_tmpdir");
        std::fs::create_dir_all(&dir).unwrap();
        bear.save(&dir.join("index.idx")).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "index.idx")
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert!(leftovers.is_empty(), "stray files after save: {leftovers:?}");
    }

    #[test]
    fn verify_index_reports_sections_and_shards() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_verify.idx");
        bear.save(&path).unwrap();
        let report = verify_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.version, 4);
        assert_eq!(report.n1 + report.n2, 14);
        assert!((report.c - 0.1).abs() < 1e-12);
        assert_eq!(report.segments, bear.spokes.num_units());
        assert_eq!(report.sections.len(), SECTIONS.len());
        assert_eq!(report.sections[0].tag, "META");
        assert_eq!(report.sections[0].len, 24);
    }

    #[test]
    fn save_load_preserves_approx_variant() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::approx(0.1, 1e-3)).unwrap();
        let path = tmp("bear_persist_approx.idx");
        bear.save(&path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bear.stats(), loaded.stats());
        assert_eq!(bear.query(2).unwrap(), loaded.query(2).unwrap());
    }

    /// The spoke memory figure is `sparse_bytes(n₁, nnz)` per factor
    /// whatever holds the units: `stats()` (bytes included) and
    /// `memory_bytes` are equal for `Bear::new`, a resident load, a paged
    /// load and `paged_in_memory`.
    #[test]
    fn stats_do_not_depend_on_residency() {
        for g in [blocky_graph(), hub_and_chains(20, 30)] {
            let bear = Bear::new(&g, &BearConfig::approx(0.1, 1e-4)).unwrap();
            let path = tmp("bear_persist_stats.idx");
            bear.save(&path).unwrap();
            let resident =
                Bear::load_with(&path, &LoadOptions { resident: true, ..Default::default() })
                    .unwrap();
            let paged = Bear::load(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert!(resident.pager().is_none() && paged.pager().is_some());
            for other in [&resident, &paged, &bear.paged_in_memory(Some(1)).unwrap()] {
                assert_eq!(other.stats(), bear.stats());
                assert_eq!(other.stats().bytes, bear.stats().bytes);
                assert_eq!(other.memory_bytes(), bear.memory_bytes());
            }
        }
    }

    #[test]
    fn paged_answers_are_bit_identical_to_in_memory() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_paged.idx");
        bear.save(&path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        let pager = loaded.spokes.pager().expect("a default load must page");
        // One byte of spoke budget: at most one unit stays resident, so
        // every query pages units in and out mid-flight.
        pager.set_budget(Some(1)).unwrap();
        std::fs::remove_file(&path).ok();
        for seed in 0..loaded.num_nodes() {
            assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap());
            assert_eq!(
                bear.query_top_k_pruned(seed, 4).unwrap(),
                loaded.query_top_k_pruned(seed, 4).unwrap()
            );
        }
        let stats = loaded.spokes.pager().unwrap().stats();
        assert!(stats.misses > 0, "tiny budget must force shard loads");
    }

    /// A resident load holds the same units as `Bear::new` and pages
    /// nothing.
    #[test]
    fn resident_load_option_holds_every_unit() {
        let bear = Bear::new(&hub_and_chains(20, 30), &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_resident.idx");
        bear.save(&path).unwrap();
        let opts = LoadOptions { resident: true, ..LoadOptions::default() };
        let loaded = Bear::load_with(&path, &opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.spokes.pager().is_none(), "resident load must not page");
        let (SpokeFactors::Resident { units: a, .. }, SpokeFactors::Resident { units: b, .. }) =
            (&bear.spokes, &loaded.spokes)
        else {
            panic!("both resident")
        };
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((&x.l1, &x.u1, x.blocks()), (&y.l1, &y.u1, y.blocks()));
        }
        for seed in 0..loaded.num_nodes() {
            assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap());
        }
    }

    #[test]
    fn load_rejects_tiny_budget_typed() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_budget.idx");
        bear.save(&path).unwrap();
        for resident in [false, true] {
            let opts = LoadOptions { budget: MemBudget::bytes(32), resident };
            let err = Bear::load_with(&path, &opts).unwrap_err();
            assert!(matches!(err, Error::OutOfBudget { .. }), "unexpected: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_typed_everywhere() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_corrupt.idx");
        bear.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let resident = LoadOptions { resident: true, ..LoadOptions::default() };
        // Truncation anywhere must be a typed load error, never a panic.
        for keep in [0, 7, 9, 20, full.len() / 4, full.len() / 2, full.len() - 5] {
            std::fs::write(&path, &full[..keep]).unwrap();
            for err in
                [Bear::load(&path), Bear::load_with(&path, &resident)].map(Result::unwrap_err)
            {
                assert!(
                    matches!(err, Error::CorruptIndex { .. }),
                    "truncated to {keep} bytes: unexpected error {err}"
                );
            }
        }
        // So must a flipped bit anywhere (shards, resident region,
        // trailer), loaded either way.
        for byte in [10, 40, full.len() / 3, full.len() * 2 / 3, full.len() - 10] {
            let mut bytes = full.clone();
            bytes[byte] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
            for err in
                [Bear::load(&path), Bear::load_with(&path, &resident)].map(Result::unwrap_err)
            {
                assert!(
                    matches!(err, Error::CorruptIndex { .. }),
                    "bit flip at byte {byte}: unexpected error {err}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_bitflip_names_the_shard() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_shard_flip.idx");
        bear.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The first shard's payload starts after magic (8) + frame header
        // (12); flip a bit inside it.
        bytes[8 + 12 + 4] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let resident = LoadOptions { resident: true, ..LoadOptions::default() };
        for err in [Bear::load(&path), Bear::load_with(&path, &resident)].map(Result::unwrap_err) {
            match &err {
                Error::CorruptIndex { section, detail } => {
                    assert_eq!(*section, "spoke_segment");
                    assert!(detail.contains("shard 0"), "detail must name the shard: {detail}");
                }
                other => panic!("unexpected error: {other}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_or_quarantine_quarantines_corrupt_index() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_quarantine_shards.idx");
        let quarantined = tmp("bear_persist_quarantine_shards.idx.corrupt");
        std::fs::remove_file(&quarantined).ok();
        bear.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, Error::CorruptIndex { .. }), "unexpected: {err}");
        assert!(!path.exists(), "corrupt artifact left in place");
        assert!(quarantined.exists(), "quarantine file missing");
        std::fs::remove_file(&quarantined).ok();
    }

    #[test]
    fn verify_index_streams_within_a_bounded_budget() {
        let g = hub_and_chains(20, 30);
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_verify_budget.idx");
        bear.save(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        // A budget below the full file size still verifies: the shard
        // sweep holds at most one decoded unit at a time.
        let mut lo = 64usize;
        let mut ok_at = None;
        while lo <= file_len {
            if verify_index_with(&path, &MemBudget::bytes(lo)).is_ok() {
                ok_at = Some(lo);
                break;
            }
            lo *= 2;
        }
        let ok_at = ok_at.expect("no bounded budget verified the index");
        assert!(ok_at < file_len, "verification peak ({ok_at}) not below file size ({file_len})");
        // And a hopeless budget fails typed, not with an abort.
        let err = verify_index_with(&path, &MemBudget::bytes(16)).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Error::OutOfBudget { .. }), "unexpected: {err}");
    }
}
