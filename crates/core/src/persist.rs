//! Persistence of BEAR's precomputed index.
//!
//! Preprocessing is the expensive phase; a production deployment computes
//! it once and serves queries from many processes, so the on-disk index
//! is both a performance artifact and a durability liability: a torn
//! write or a flipped bit must never reach the query path. This module
//! provides:
//!
//! * **Format v2 (`BEARIDX2`)** — the fully-resident write format. Ten
//!   framed sections (`tag [4] | len u64 LE | payload | crc32 u32 LE`),
//!   one per logical component (metadata, permutation, partition arrays,
//!   the six matrices), followed by a 20-byte trailer
//!   (`"BEARTRL2" | whole-file crc32 | file length`). The trailer is
//!   verified before any payload is parsed, so truncation and bit rot
//!   fail fast with [`bear_sparse::Error::CorruptIndex`] instead of
//!   feeding damaged bytes to the structural validators.
//! * **Format v3 (`BEARIDX3`)** — the out-of-core sharded format
//!   (DESIGN.md §18). The spoke factors `L₁⁻¹`/`U₁⁻¹` are split into one
//!   individually CRC'd segment per diagonal block
//!   (`"SPKB" | payload len u64 | payload | crc32`), laid out
//!   contiguously right after the magic; a *resident region* follows
//!   with the nine remaining sections (hub/Schur matrices, partition
//!   arrays, and the `SDIR` segment directory), and a 28-byte trailer
//!   (`"BEARTRL3" | resident-region crc32 | resident offset | file
//!   length`) closes the file. [`Bear::load_with`] CRC-verifies every
//!   segment in bounded chunks at load time, then serves queries through
//!   a [`crate::paging::BlockPager`] that materializes segments lazily
//!   under a [`MemBudget`]; `V3StreamWriter` appends one segment per
//!   block, so streamed preprocessing's peak RSS is independent of total
//!   index size.
//! * **One codec for both formats** — the eight sections v2 and v3 share
//!   are encoded by one function and parsed by another; one frame reader
//!   checks every section's tag, length, bounds and CRC; one trailer
//!   check and one set of dimension rules serve loading and
//!   verification alike.
//! * **Crash-safe writes** — both formats go through one temp-file
//!   writer: the bytes land in a hidden temp file *in the target
//!   directory*, which is fsynced, atomically renamed over the
//!   destination, and followed by a directory fsync. A crash at any
//!   point leaves either the old index or the new one, never a
//!   half-written hybrid under the real name.
//! * **Retired format v1** — a `BEARIDX1` file (no checksums, no
//!   framing) fails to load with `CorruptIndex { section: "header", .. }`
//!   whose detail says to re-run `bear preprocess`.
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
//! failed. The crash-injection suite in
//! `crates/core/tests/crash_injection.rs` sweeps truncations and bit
//! flips over real images to hold that contract.

use crate::paging::{
    corrupt_shard, BlockPager, FactorPair, FileSource, MemSource, SegmentMeta, SegmentSource,
    SpokeFactors, SEGMENT_FRAME_OVERHEAD, SEGMENT_TAG,
};
use crate::precompute::Bear;
use crate::solver::RwrSolver as _;
use bear_sparse::mem::{MemBudget, MemoryUsage};
use bear_sparse::{CscMatrix, CsrMatrix, Error, Permutation, Result};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Both magics are eight bytes.
const MAGIC_LEN: usize = 8;
/// Chunk size for streamed checksum verification — bounds peak
/// allocation when verifying or loading an index larger than RAM.
const VERIFY_CHUNK: usize = 256 * 1024;
/// Bytes per `SDIR` directory entry: offset, frame length, crc, block
/// dimension, `L₁⁻¹` nnz, `U₁⁻¹` nnz — six `u64`s.
const SDIR_ENTRY_LEN: usize = 48;

/// A section's four-byte tag and the name `Error::CorruptIndex { section,
/// .. }` reports for it.
type Section = (&'static [u8; 4], &'static str);

/// What tells the two formats apart on disk.
struct Format {
    version: u32,
    magic: &'static [u8; MAGIC_LEN],
    trailer_magic: &'static [u8; 8],
    /// v2: magic (8) + whole-file crc32 (4) + file length (8). v3: magic
    /// (8) + resident-region crc32 (4) + resident-region offset (8) +
    /// file length (8). The v3 CRC covers only the resident region — each
    /// spoke segment carries its own frame CRC, so integrity checks never
    /// have to hash the (potentially larger-than-RAM) segment area in one
    /// piece.
    trailer_len: usize,
    /// The framed sections, in file order.
    sections: &'static [Section],
}

const V2: Format = Format {
    version: 2,
    magic: b"BEARIDX2",
    trailer_magic: b"BEARTRL2",
    trailer_len: 20,
    sections: &[
        (b"META", "meta"),
        (b"PERM", "perm"),
        (b"BSIZ", "block_sizes"),
        (b"DEGS", "degrees"),
        (b"L1IV", "l1_inv"),
        (b"U1IV", "u1_inv"),
        (b"L2IV", "l2_inv"),
        (b"U2IV", "u2_inv"),
        (b"H12M", "h12"),
        (b"H21M", "h21"),
    ],
};

/// The v3 resident region lacks the spoke factors — they live in the
/// per-block segments indexed by `SDIR`.
const V3: Format = Format {
    version: 3,
    magic: b"BEARIDX3",
    trailer_magic: b"BEARTRL3",
    trailer_len: 28,
    sections: &[
        (b"META", "meta"),
        (b"PERM", "perm"),
        (b"BSIZ", "block_sizes"),
        (b"DEGS", "degrees"),
        (b"L2IV", "l2_inv"),
        (b"U2IV", "u2_inv"),
        (b"H12M", "h12"),
        (b"H21M", "h21"),
        (b"SDIR", "segment_directory"),
    ],
};

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

/// Maps a read failure into shard-tagged corruption.
fn shard_err(b: usize) -> impl Fn(Error) -> Error {
    move |e| match e {
        Error::CorruptIndex { detail, .. } => corrupt_shard(b, detail),
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
// Section encoding
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
    push_usize_array(&mut p, indptr);
    push_usize_array(&mut p, indices);
    push_f64_array(&mut p, values);
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

/// Borrowed pieces of the eight sections both formats carry — everything
/// except the spoke factors.
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

/// Frames the sections of `fmt` onto `out`, in file order. The eight
/// shared sections come from `p`; `own` supplies the payloads only one
/// format has: the whole spoke factors (`L1IV`, `U1IV`) in v2, the
/// segment directory (`SDIR`) in v3.
fn push_sections(
    out: &mut Vec<u8>,
    fmt: &Format,
    p: &ResidentParts<'_>,
    own: impl Fn(&[u8; 4]) -> Vec<u8>,
) {
    for &(tag, _) in fmt.sections {
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
            _ => own(tag),
        };
        push_section(out, tag, &payload);
    }
}

/// `SDIR` payload: segment count, then six `u64`s per segment.
fn sdir_payload(dir: &[SegmentMeta]) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + dir.len() * SDIR_ENTRY_LEN);
    push_u64(&mut p, dir.len() as u64);
    for s in dir {
        push_u64(&mut p, s.offset);
        push_u64(&mut p, s.frame_len);
        push_u64(&mut p, s.crc as u64);
        push_u64(&mut p, s.block_dim);
        push_u64(&mut p, s.l1_nnz);
        push_u64(&mut p, s.u1_nnz);
    }
    p
}

/// The 28-byte v3 trailer for a resident region starting at
/// `resident_off`.
fn v3_trailer(region: &[u8], resident_off: u64) -> [u8; 28] {
    let mut t = [0u8; 28];
    t[..8].copy_from_slice(V3.trailer_magic);
    t[8..12].copy_from_slice(&crate::crc32::crc32(region).to_le_bytes());
    t[12..20].copy_from_slice(&resident_off.to_le_bytes());
    let total = resident_off + region.len() as u64 + t.len() as u64;
    t[20..28].copy_from_slice(&total.to_le_bytes());
    t
}

// ---------------------------------------------------------------------------
// Crash-safe writer
// ---------------------------------------------------------------------------

/// One crash-safe file write, shared by both formats. Bytes are appended
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

/// Frames block `b`'s segment for a v3 image, to be placed at byte
/// `offset`: the frame bytes and the directory entry that locates them.
pub(crate) fn segment_frame(b: usize, pair: &FactorPair, offset: u64) -> (Vec<u8>, SegmentMeta) {
    let payload = crate::paging::encode_segment(b, pair);
    let mut frame = Vec::with_capacity(payload.len() + SEGMENT_FRAME_OVERHEAD);
    let crc = push_section(&mut frame, SEGMENT_TAG, &payload);
    let meta = SegmentMeta {
        offset,
        frame_len: frame.len() as u64,
        crc,
        block_dim: pair.dim() as u64,
        l1_nnz: pair.l1.nnz() as u64,
        u1_nnz: pair.u1.nnz() as u64,
    };
    (frame, meta)
}

/// Streams a v3 image to disk block by block: preprocessing hands each
/// finished block's factors to [`V3StreamWriter::write_segment`] and
/// drops them, so peak RSS stays independent of total index size.
/// [`V3StreamWriter::finish`] appends the resident region and trailer
/// and commits through the same [`AtomicFile`] as the v2 writer.
/// [`Bear::save_v3`] streams through it too, so there is one v3
/// encoder.
pub(crate) struct V3StreamWriter {
    file: AtomicFile,
    dir: Vec<SegmentMeta>,
}

impl V3StreamWriter {
    pub(crate) fn create(path: &Path) -> Result<Self> {
        let mut file = AtomicFile::create(path)?;
        file.append(V3.magic)?;
        Ok(V3StreamWriter { file, dir: Vec::new() })
    }

    /// Appends the next block's segment (blocks must arrive in ascending
    /// block order).
    pub(crate) fn write_segment(&mut self, pair: &FactorPair) -> Result<()> {
        let (frame, meta) = segment_frame(self.dir.len(), pair, self.file.len);
        self.dir.push(meta);
        self.file.append(&frame)
    }

    /// Appends the resident region and trailer, then commits.
    pub(crate) fn finish(mut self, parts: &ResidentParts<'_>) -> Result<()> {
        let resident_off = self.file.len;
        let mut region = Vec::new();
        push_sections(&mut region, &V3, parts, |_| sdir_payload(&self.dir));
        self.file.append(&region)?;
        self.file.append(&v3_trailer(&region, resident_off))?;
        self.file.commit()
    }
}

impl Bear {
    fn resident_parts(&self) -> ResidentParts<'_> {
        ResidentParts {
            n1: self.n1,
            n2: self.n2,
            c: self.c,
            perm: &self.perm,
            block_sizes: &self.block_sizes,
            degrees: &self.degrees,
            l2_inv: &self.l2_inv,
            u2_inv: &self.u2_inv,
            h12: &self.h12,
            h21: &self.h21,
        }
    }

    /// Writes the precomputed index to `path` in the v2 format,
    /// crash-safely: the image is built in memory (a paged index is
    /// materialized block by block first — v2 is fully resident by
    /// definition), written to a hidden temp file in the target
    /// directory, fsynced, atomically renamed over `path`, and the
    /// directory is fsynced. A crash (or error) at any point leaves the
    /// previous contents of `path` intact.
    pub fn save(&self, path: &Path) -> Result<()> {
        let (l1_inv, u1_inv) = self.spokes.to_whole()?;
        let mut image = V2.magic.to_vec();
        push_sections(&mut image, &V2, &self.resident_parts(), |tag| {
            csc_payload(if tag == b"L1IV" { &l1_inv } else { &u1_inv })
        });
        let file_crc = crate::crc32::crc32(&image);
        let total = image.len() + V2.trailer_len;
        image.extend_from_slice(V2.trailer_magic);
        image.extend_from_slice(&file_crc.to_le_bytes());
        push_u64(&mut image, total as u64);
        let mut file = AtomicFile::create(path)?;
        file.append(&image)?;
        file.commit()
    }

    /// Writes the index to `path` in the sharded out-of-core v3 format,
    /// with the same crash-safe protocol as [`Bear::save`], through the
    /// segment writer that [`crate::preprocess_to_disk`] streams into.
    /// The result can be loaded fully resident or paged under a budget
    /// via [`Bear::load_with`].
    pub fn save_v3(&self, path: &Path) -> Result<()> {
        let pairs = self.spokes.split_pairs(&self.block_sizes)?;
        let mut writer = V3StreamWriter::create(path)?;
        for pair in &pairs {
            writer.write_segment(pair)?;
        }
        writer.finish(&self.resident_parts())
    }

    /// A copy of this index whose spoke factors page from an in-memory
    /// v3 segment region ([`MemSource`]) under `budget_bytes` (`None` =
    /// unlimited): the out-of-core query path, CRC check and decode on
    /// every fault included, without a file. For benchmarks and tests;
    /// answers are bit-identical to this index's.
    pub fn paged_in_memory(&self, budget_bytes: Option<usize>) -> Result<Bear> {
        let mut image = V3.magic.to_vec();
        let mut dir = Vec::with_capacity(self.block_sizes.len());
        for (b, pair) in self.spokes.split_pairs(&self.block_sizes)?.iter().enumerate() {
            let (frame, meta) = segment_frame(b, pair, image.len() as u64);
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

/// Bounds-checked cursor over one section or spoke-segment payload —
/// the one decoder for both formats' length-prefixed arrays. Every read
/// reports the owning section on failure, so a truncated inner array
/// surfaces as `CorruptIndex { section: "h12", .. }` rather than a
/// generic error; a segment's errors are `spoke_segment` and name the
/// shard.
pub(crate) struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
    /// The spoke block a segment payload holds; `None` for a section.
    shard: Option<usize>,
}

impl<'a> SectionReader<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        SectionReader { bytes, pos: 0, section, shard: None }
    }

    /// A cursor over the payload of the segment holding spoke block
    /// `shard`.
    pub(crate) fn for_shard(bytes: &'a [u8], shard: usize) -> Self {
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

    pub(crate) fn u64(&mut self) -> Result<u64> {
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

    pub(crate) fn usize_array(&mut self) -> Result<Vec<usize>> {
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

    pub(crate) fn f64_array(&mut self) -> Result<Vec<f64>> {
        Ok(self.words()?.iter().map(|&w| f64::from_le_bytes(w)).collect())
    }

    /// Rejects trailing garbage — a payload longer than its content
    /// means the frame length lies about the structure inside it.
    pub(crate) fn finish(self) -> Result<()> {
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
            format!("corrupt segment count {count}: payload holds {} bytes", r.remaining()),
        ));
    }
    let count = checked_usize(count, "segment count").map_err(wrap("segment_directory"))?;
    let mut dir = Vec::with_capacity(count);
    for _ in 0..count {
        let offset = r.u64()?;
        let frame_len = r.u64()?;
        let crc64 = r.u64()?;
        let crc = u32::try_from(crc64).map_err(|_| {
            corrupt("segment_directory", format!("segment crc {crc64} overflows u32"))
        })?;
        let block_dim = r.u64()?;
        let l1_nnz = r.u64()?;
        let u1_nnz = r.u64()?;
        dir.push(SegmentMeta { offset, frame_len, crc, block_dim, l1_nnz, u1_nnz });
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

/// An image's sections as they are read and parsed, plus what the
/// dimension rules compare.
#[derive(Default)]
struct Image {
    /// Keep the permutation and matrices (loading), or audit each one and
    /// drop it before the next section is read (verification).
    keep: bool,
    /// Offset of the first section: the v3 resident region's offset.
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
    /// every matrix shaped as its place in the partition requires. (A v3
    /// image's spoke segments are checked against the block sizes by the
    /// segment directory instead.)
    fn check_dims(&self) -> Result<()> {
        let (n1, n2) = (self.n1, self.n2);
        // Checked sums: corrupt headers near usize::MAX must fail typed,
        // not overflow (panic in debug, wrap to a bogus `n` in release).
        let n = n1
            .checked_add(n2)
            .ok_or_else(|| corrupt("meta", format!("n1 {n1} + n2 {n2} overflows")))?;
        let block_sum = self.block_sizes.iter().try_fold(0usize, |s, &b| s.checked_add(b));
        let shaped = |&(tag, (rows, cols)): &(&[u8; 4], (usize, usize))| match tag {
            b"L1IV" | b"U1IV" => rows == n1,
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

    /// Assembles a loaded index. `spokes` is the pager over a v3 image's
    /// segments, or `None` for v2, whose first two matrix sections are
    /// the whole spoke factors.
    fn into_bear(self, spokes: Option<SpokeFactors>) -> Result<Bear> {
        use Part::{Csc, Csr, Perm};
        let wrong = || corrupt("header", "wrong section count");
        let (perm, spokes, l2_inv, u2_inv, h12, h21) = match spokes {
            Some(spokes) => {
                let Ok([Perm(perm), Csc(l2_inv), Csc(u2_inv), Csr(h12), Csr(h21)]) =
                    <[Part; 5]>::try_from(self.kept)
                else {
                    return Err(wrong());
                };
                (perm, spokes, l2_inv, u2_inv, h12, h21)
            }
            None => {
                let Ok(
                    [Perm(perm), Csc(l1_inv), Csc(u1_inv), Csc(l2_inv), Csc(u2_inv), Csr(h12), Csr(h21)],
                ) = <[Part; 7]>::try_from(self.kept)
                else {
                    return Err(wrong());
                };
                (perm, SpokeFactors::Resident { l1_inv, u1_inv }, l2_inv, u2_inv, h12, h21)
            }
        };
        Ok(Bear {
            spokes,
            l2_inv,
            u2_inv,
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

/// Opens an index file and identifies its format by the magic.
fn open_index(path: &Path) -> Result<(FileSource, u64, &'static Format)> {
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let mut magic = [0u8; MAGIC_LEN];
    if let Err(e) = file.read_exact(&mut magic) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt("header", "file too short to hold a magic number")
        } else {
            io_err(e)
        });
    }
    let total = file.metadata().map_err(io_err)?.len();
    let fmt = match &magic {
        m if m == V2.magic => &V2,
        m if m == V3.magic => &V3,
        b"BEARIDX1" => {
            return Err(corrupt(
                "header",
                "format v1 (BEARIDX1) is no longer supported; re-run `bear preprocess` to \
                 write a v2 or v3 index",
            ))
        }
        m => return Err(corrupt("header", format!("not a BEAR index file (magic {m:?})"))),
    };
    Ok((FileSource::new(file), total, fmt))
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

/// Checks the trailer of a `fmt` image of `total` bytes — its magic, the
/// file length it records, and the CRC it stores over everything before
/// the trailer (v2) or over the resident region (v3) — and returns the
/// span `[start, end)` the sections must fill exactly.
fn check_trailer(src: &FileSource, total: u64, fmt: &Format) -> Result<(u64, u64)> {
    let (magic_len, trailer_len) = (MAGIC_LEN as u64, fmt.trailer_len as u64);
    if total < magic_len + trailer_len {
        return Err(corrupt(
            "trailer",
            format!("file too short ({total} bytes) to hold magic and trailer"),
        ));
    }
    let end = total - trailer_len;
    let mut trailer = vec![0u8; fmt.trailer_len];
    src.read_at(end, &mut trailer).map_err(retag("trailer"))?;
    if &trailer[..8] != fmt.trailer_magic {
        return Err(corrupt("trailer", "trailer magic missing (torn or truncated write)"));
    }
    let stored_len = le_u64(&trailer[fmt.trailer_len - 8..]);
    if stored_len != total {
        return Err(corrupt(
            "trailer",
            format!("trailer records a {stored_len}-byte file, actual size is {total}"),
        ));
    }
    let (crc_start, start) = if fmt.version == 2 {
        (0, magic_len)
    } else {
        let resident_off = le_u64(&trailer[12..20]);
        if resident_off < magic_len || resident_off > end {
            return Err(corrupt(
                "trailer",
                format!("resident region offset {resident_off} outside file bounds"),
            ));
        }
        (resident_off, resident_off)
    };
    let stored_crc = le_u32(&trailer[8..12]);
    let actual_crc = streamed_crc(src, crc_start, end - crc_start).map_err(retag("trailer"))?;
    if stored_crc != actual_crc {
        return Err(corrupt(
            "trailer",
            format!(
                "checksum mismatch over bytes {crc_start}..{end}: stored {stored_crc:#010x}, \
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

/// Reads a `fmt` image: the trailer and its checksum, then every section
/// through [`read_frame`], each parsed before the next is read, and the
/// dimension rules. With `keep` false (verification) each section is
/// dropped once parsed, so peak allocation is the largest single section
/// plus the `O(n)` block sizes and degrees.
fn read_image(
    src: &FileSource,
    total: u64,
    fmt: &Format,
    budget: &MemBudget,
    keep: bool,
) -> Result<Image> {
    let (start, end) = check_trailer(src, total, fmt)?;
    let mut image = Image { keep, start, ..Image::default() };
    let mut pos = start;
    for &section in fmt.sections {
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

/// Cross-checks the directory against the file geometry: one segment
/// per block, frames laid out contiguously from right after the magic to
/// the start of the resident region. Contiguity implies no overlap and
/// no unindexed (hence unverified) gaps.
fn validate_v3_dir(dir: &[SegmentMeta], num_blocks: usize, resident_off: u64) -> Result<()> {
    if dir.len() != num_blocks {
        return Err(corrupt(
            "segment_directory",
            format!("directory holds {} segments for {num_blocks} blocks", dir.len()),
        ));
    }
    let mut expected = MAGIC_LEN as u64;
    for (b, meta) in dir.iter().enumerate() {
        if meta.offset != expected {
            return Err(corrupt_shard(
                b,
                format!("segment at offset {} (expected {expected})", meta.offset),
            ));
        }
        if meta.frame_len < SEGMENT_FRAME_OVERHEAD as u64 {
            return Err(corrupt_shard(b, format!("frame length {} too short", meta.frame_len)));
        }
        expected = expected.checked_add(meta.frame_len).filter(|&e| e <= resident_off).ok_or_else(
            || {
                corrupt_shard(
                    b,
                    format!("segment extends past the resident region at {resident_off}"),
                )
            },
        )?;
    }
    if expected != resident_off {
        return Err(corrupt(
            "segment_directory",
            format!(
                "{} unindexed bytes between segments and resident region",
                resident_off - expected
            ),
        ));
    }
    Ok(())
}

/// Checks a v3 image's segment directory against the file geometry, then
/// streams every segment through its CRC in bounded chunks, verifying
/// the frame header and both checksum copies without materializing the
/// payload. Truncation and bit rot in any shard surface here as typed
/// `CorruptIndex { section: "spoke_segment", .. }`, so
/// [`Bear::load_or_quarantine`] catches them before serving.
fn verify_segments(src: &FileSource, image: &Image) -> Result<()> {
    validate_v3_dir(&image.dir, image.block_sizes.len(), image.start)?;
    for (b, meta) in image.dir.iter().enumerate() {
        let mut hdr = [0u8; 12];
        src.read_at(meta.offset, &mut hdr).map_err(shard_err(b))?;
        if &hdr[..4] != SEGMENT_TAG {
            return Err(corrupt_shard(b, "segment tag missing (directory points at garbage)"));
        }
        let payload_len = le_u64(&hdr[4..12]);
        let expect = meta.frame_len - SEGMENT_FRAME_OVERHEAD as u64;
        if payload_len != expect {
            return Err(corrupt_shard(
                b,
                format!("frame length {payload_len} disagrees with directory ({expect})"),
            ));
        }
        let payload_start = meta.offset + 12;
        let actual = streamed_crc(src, payload_start, payload_len).map_err(shard_err(b))?;
        let mut crc4 = [0u8; 4];
        src.read_at(payload_start + payload_len, &mut crc4).map_err(shard_err(b))?;
        let stored = u32::from_le_bytes(crc4);
        if stored != actual || stored != meta.crc {
            return Err(corrupt_shard(
                b,
                format!(
                    "segment checksum mismatch: frame {stored:#010x}, directory {:#010x}, computed {actual:#010x}",
                    meta.crc
                ),
            ));
        }
    }
    Ok(())
}

fn load_v3(src: FileSource, mut image: Image, opts: &LoadOptions) -> Result<Bear> {
    // Eager integrity sweep: every segment's CRC is verified (in bounded
    // chunks) before the index serves a single query, so torn writes and
    // bit rot fail the *load* — quarantine-able — instead of a query
    // hours later.
    verify_segments(&src, &image)?;
    // The hub/Schur matrices must be resident for every query, so an
    // index whose resident part exceeds the budget is a typed
    // `OutOfBudget`; the spoke factors page under whatever budget the
    // resident part leaves over.
    let resident_bytes: usize = image
        .kept
        .iter()
        .map(|part| match part {
            Part::Perm(_) => 0,
            Part::Csc(m) => m.memory_bytes(),
            Part::Csr(m) => m.memory_bytes(),
        })
        .sum();
    opts.budget.check(resident_bytes)?;
    let pager_budget = opts.budget.limit().map(|l| l.saturating_sub(resident_bytes));
    let dir = std::mem::take(&mut image.dir);
    let pager = BlockPager::new(Box::new(src), dir, &image.block_sizes, pager_budget)?;
    let mut spokes = SpokeFactors::Paged { pager };
    if opts.resident {
        let (l1_inv, u1_inv) = spokes.to_whole()?;
        opts.budget.check(resident_bytes + l1_inv.memory_bytes() + u1_inv.memory_bytes())?;
        spokes = SpokeFactors::Resident { l1_inv, u1_inv };
    }
    image.into_bear(Some(spokes))
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Options controlling how [`Bear::load_with`] materializes an index.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Memory budget. A v2 image is fully resident and must fit in its
    /// entirety (typed [`Error::OutOfBudget`] otherwise); a v3 image must
    /// fit only its *resident* part (hub/Schur matrices) — the spoke
    /// factors page on demand under whatever budget remains.
    pub budget: MemBudget,
    /// Force a v3 image fully resident: fetch every segment, rebuild the
    /// whole factors, and never touch the pager on the query path.
    /// Ignored for v2 (always resident).
    pub resident: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { budget: MemBudget::unlimited(), resident: false }
    }
}

impl Bear {
    /// Reads a precomputed index written by [`Bear::save`] (v2) or
    /// [`Bear::save_v3`] (sharded v3, loaded paged with an unlimited
    /// budget). Shorthand for [`Bear::load_with`] with default
    /// [`LoadOptions`]. A format-v1 file (`BEARIDX1`) is rejected with
    /// `CorruptIndex { section: "header", .. }`; re-run `bear preprocess`
    /// to replace it.
    ///
    /// The file is a trust boundary. Checksums (whole-file or
    /// per-segment plus resident-region for v3) are verified before any
    /// parsing; every matrix and the node ordering are re-validated via
    /// the `try_from_parts` constructors (sorted, in-bounds,
    /// duplicate-free indices; monotone `indptr`; bijective permutation;
    /// finite values), and the partition dimensions are cross-checked.
    /// Any failure — torn write, bit rot, or a corrupt-but-length-valid
    /// payload — returns [`Error::CorruptIndex`] naming the section,
    /// never a panic and never an index that answers with garbage (see
    /// `crates/core/tests/crash_injection.rs`).
    pub fn load(path: &Path) -> Result<Self> {
        Self::load_with(path, &LoadOptions::default())
    }

    /// Like [`Bear::load`], with explicit residency control: `opts.budget`
    /// caps memory (v3 spoke factors page on demand under it; v2 must fit
    /// entirely), and `opts.resident` forces a v3 image fully into
    /// memory.
    pub fn load_with(path: &Path, opts: &LoadOptions) -> Result<Self> {
        crate::fail_point!("persist::load");
        let (src, total, fmt) = open_index(path)?;
        let image = read_image(&src, total, fmt, &opts.budget, true)?;
        if fmt.version == 3 {
            return load_v3(src, image, opts);
        }
        let bear = image.into_bear(None)?;
        // v2 is fully resident: the whole index charges the budget.
        opts.budget.check(bear.memory_bytes())?;
        Ok(bear)
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
    /// Four-character section tag (e.g. `META`, `L1IV`).
    pub tag: String,
    /// Payload length in bytes (framing overhead excluded).
    pub len: u64,
}

/// Result of a successful [`verify_index`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexReport {
    /// On-disk format version: 2 (`BEARIDX2`) or 3 (`BEARIDX3`).
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Spoke count.
    pub n1: usize,
    /// Hub count.
    pub n2: usize,
    /// Restart probability.
    pub c: f64,
    /// Section inventory (for v3, the resident region's sections).
    pub sections: Vec<SectionInfo>,
    /// Spoke-block segments (v3 only; zero for v2).
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

/// Like [`verify_index`], but with bounded peak allocation: the checksums
/// are streamed in chunks, each section is parsed (full structural
/// audit) and dropped before the next is read, and a v3 image's spoke
/// segments are decoded one at a time through a zero-budget pager. Every
/// transient allocation is charged against `budget` first — so
/// `bear verify-index` works on an index larger than RAM.
pub fn verify_index_with(path: &Path, budget: &MemBudget) -> Result<IndexReport> {
    let (src, total, fmt) = open_index(path)?;
    let image = read_image(&src, total, fmt, budget, false)?;
    let segments = image.dir.len();
    if fmt.version == 3 {
        verify_segments(&src, &image)?;
        // Structural audit of every segment, one decoded block resident
        // at a time (budget zero: each fetch evicts the previous block).
        let pager = BlockPager::new(Box::new(src), image.dir, &image.block_sizes, Some(0))?;
        for (b, meta) in pager.directory().iter().enumerate() {
            let frame = checked_usize(meta.frame_len, "segment frame length")
                .map_err(wrap("segment_directory"))?;
            budget.check(frame.saturating_add(meta.resident_bytes()))?;
            pager.fetch(b)?;
        }
    }
    Ok(IndexReport {
        version: fmt.version,
        file_len: total,
        n1: image.n1,
        n2: image.n2,
        c: image.c,
        sections: image.sections,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::{Bear, BearConfig};
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

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    /// Recomputes every section CRC and the trailer over a surgically
    /// edited image (payload bytes changed, lengths unchanged), so tests
    /// can reach the structural validators *beneath* the checksums.
    fn fix_checksums(bytes: &mut [u8]) {
        let trailer_off = bytes.len() - V2.trailer_len;
        let mut pos = MAGIC_LEN;
        while pos < trailer_off {
            let len = le_u64(&bytes[pos + 4..pos + 12]) as usize;
            let payload_end = pos + 12 + len;
            let crc = crate::crc32::crc32(&bytes[pos + 12..payload_end]);
            bytes[payload_end..payload_end + 4].copy_from_slice(&crc.to_le_bytes());
            pos = payload_end + 4;
        }
        let file_crc = crate::crc32::crc32(&bytes[..trailer_off]);
        bytes[trailer_off + 8..trailer_off + 12].copy_from_slice(&file_crc.to_le_bytes());
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

    #[test]
    fn v2_round_trip_is_bit_identical() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let a = tmp("bear_persist_bitident_a.idx");
        let b = tmp("bear_persist_bitident_b.idx");
        bear.save(&a).unwrap();
        Bear::load(&a).unwrap().save(&b).unwrap();
        let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert_eq!(&ba[..8], V2.magic);
        assert_eq!(ba, bb, "save -> load -> save must reproduce the image byte for byte");
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
    fn v2_checksums_catch_a_single_flipped_bit() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_bitflip.idx");
        bear.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for byte in [9, full.len() / 3, full.len() - V2.trailer_len + 9] {
            let mut bytes = full.clone();
            bytes[byte] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let err = Bear::load(&path).unwrap_err();
            assert!(
                matches!(err, Error::CorruptIndex { .. }),
                "bit flip at byte {byte}: unexpected error {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_rejects_structural_corruption_beneath_checksums() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_meta_corrupt.idx");
        bear.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // META payload starts after magic (8) + frame header (12); its
        // restart probability is the third u64 field. Set it to 2.0 and
        // re-fix every checksum: the CRCs now pass, so only the semantic
        // validator can catch it.
        let c_off = 8 + 12 + 16;
        bytes[c_off..c_off + 8].copy_from_slice(&2.0f64.to_le_bytes());
        fix_checksums(&mut bytes);
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
    fn verify_index_reports_v2_sections() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_verify.idx");
        bear.save(&path).unwrap();
        let report = verify_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.version, 2);
        assert_eq!(report.n1 + report.n2, 10);
        assert!((report.c - 0.1).abs() < 1e-12);
        assert_eq!(report.sections.len(), V2.sections.len());
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

    /// Several spoke caves so the v3 image carries multiple segments.
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

    #[test]
    fn v3_round_trip_is_bit_identical() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let a = tmp("bear_persist_v3_bitident_a.idx");
        let b = tmp("bear_persist_v3_bitident_b.idx");
        bear.save_v3(&a).unwrap();
        Bear::load(&a).unwrap().save_v3(&b).unwrap();
        let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert_eq!(&ba[..8], V3.magic);
        assert_eq!(ba, bb, "save_v3 -> load -> save_v3 must reproduce the image byte for byte");
    }

    #[test]
    fn v3_paged_answers_are_bit_identical_to_in_memory() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_paged.idx");
        bear.save_v3(&path).unwrap();
        let loaded = Bear::load(&path).unwrap();
        let pager = loaded.spokes.pager().expect("v3 default load must page");
        // One byte of spoke budget: at most one block stays resident, so
        // every query pages blocks in and out mid-flight.
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
        assert!(stats.misses > 0, "tiny budget must force segment loads");
        assert!(stats.evictions > 0, "tiny budget must force evictions");
    }

    #[test]
    fn v3_resident_load_option_materializes_factors() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_resident.idx");
        bear.save_v3(&path).unwrap();
        let opts = LoadOptions { resident: true, ..LoadOptions::default() };
        let loaded = Bear::load_with(&path, &opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.spokes.pager().is_none(), "resident load must not page");
        for seed in 0..loaded.num_nodes() {
            assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap());
        }
    }

    #[test]
    fn v3_load_rejects_tiny_budget_typed() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_budget.idx");
        bear.save_v3(&path).unwrap();
        let opts = LoadOptions { budget: MemBudget::bytes(32), resident: false };
        let err = Bear::load_with(&path, &opts).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Error::OutOfBudget { .. }), "unexpected: {err}");
    }

    #[test]
    fn v3_corruption_is_typed_everywhere() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_corrupt.idx");
        bear.save_v3(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Truncation anywhere must be a typed load error, never a panic.
        for keep in [0, 7, 9, 20, full.len() / 4, full.len() / 2, full.len() - 5] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = Bear::load(&path).unwrap_err();
            assert!(
                matches!(err, Error::CorruptIndex { .. }),
                "truncated to {keep} bytes: unexpected error {err}"
            );
        }
        // So must a flipped bit anywhere (segments, resident region,
        // trailer).
        for byte in [10, 40, full.len() / 3, full.len() * 2 / 3, full.len() - 10] {
            let mut bytes = full.clone();
            bytes[byte] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
            let err = Bear::load(&path).unwrap_err();
            assert!(
                matches!(err, Error::CorruptIndex { .. }),
                "bit flip at byte {byte}: unexpected error {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_segment_bitflip_names_the_shard() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_shard_flip.idx");
        bear.save_v3(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First segment payload starts after magic (8) + frame header
        // (12); flip a bit inside it.
        bytes[8 + 12 + 4] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Bear::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match &err {
            Error::CorruptIndex { section, detail } => {
                assert_eq!(*section, "spoke_segment");
                assert!(detail.contains("shard 0"), "detail must name the shard: {detail}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn v3_load_or_quarantine_quarantines_corrupt_index() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_quarantine.idx");
        let quarantined = tmp("bear_persist_v3_quarantine.idx.corrupt");
        std::fs::remove_file(&quarantined).ok();
        bear.save_v3(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, Error::CorruptIndex { .. }), "unexpected: {err}");
        assert!(!path.exists(), "corrupt v3 artifact left in place");
        assert!(quarantined.exists(), "quarantine file missing");
        std::fs::remove_file(&quarantined).ok();
    }

    #[test]
    fn verify_index_reports_v3_segments() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_verify.idx");
        bear.save_v3(&path).unwrap();
        let report = verify_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.version, 3);
        assert_eq!(report.n1 + report.n2, 14);
        assert_eq!(report.segments, bear.block_sizes().len());
        assert_eq!(report.sections.len(), V3.sections.len());
        assert!((report.c - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verify_index_streams_v3_within_a_bounded_budget() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v3_verify_budget.idx");
        bear.save_v3(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        // A budget below the full file size still verifies: the segment
        // sweep holds at most one decoded block at a time.
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

    #[test]
    fn verify_index_streams_v2_within_a_bounded_budget() {
        let g = blocky_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v2_verify_budget.idx");
        bear.save(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
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
        assert!(
            ok_at < file_len,
            "v2 verification peak ({ok_at}) not below file size ({file_len})"
        );
        let err = verify_index_with(&path, &MemBudget::bytes(16)).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Error::OutOfBudget { .. }), "unexpected: {err}");
    }
}
