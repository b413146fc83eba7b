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
//!   under a [`MemBudget`]; `V3StreamWriter` lets preprocessing stream
//!   finished block shards to disk so peak preprocessing RSS is
//!   independent of total index size.
//! * **Crash-safe writes** — [`Bear::save`] builds the image in memory,
//!   writes it to a hidden temp file *in the target directory*, fsyncs
//!   the file, atomically renames it over the destination, and fsyncs
//!   the directory. A crash at any point leaves either the old index or
//!   the new one, never a half-written hybrid under the real name.
//! * **Legacy reads** — [`Bear::load`] still reads v1 (`BEARIDX1`)
//!   files, so indexes written by earlier binaries keep working; only
//!   the writer moved to v2.
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
    corrupt_shard, BlockPager, FactorPair, FileSource, SegmentMeta, SegmentSource, SpokeFactors,
    SEGMENT_FRAME_OVERHEAD, SEGMENT_TAG,
};
use crate::precompute::Bear;
use crate::solver::RwrSolver as _;
use bear_sparse::mem::{MemBudget, MemoryUsage};
use bear_sparse::{CscMatrix, CsrMatrix, Error, Permutation, Result};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC_V1: &[u8; 8] = b"BEARIDX1";
const MAGIC_V2: &[u8; 8] = b"BEARIDX2";
const MAGIC_V3: &[u8; 8] = b"BEARIDX3";
const TRAILER_MAGIC: &[u8; 8] = b"BEARTRL2";
/// Trailer layout: magic (8) + whole-file crc32 (4) + file length (8).
const TRAILER_LEN: usize = 20;
const TRAILER_MAGIC_V3: &[u8; 8] = b"BEARTRL3";
/// v3 trailer layout: magic (8) + resident-region crc32 (4) +
/// resident-region offset (8) + file length (8). The CRC covers only the
/// resident region — each spoke segment carries its own frame CRC, so
/// integrity checks never have to hash the (potentially larger-than-RAM)
/// segment area in one piece.
const TRAILER_LEN_V3: usize = 28;
/// Section frame overhead: tag (4) + payload length (8) + payload crc (4).
const FRAME_OVERHEAD: usize = 16;
/// Chunk size for streamed checksum verification — bounds peak
/// allocation when verifying or loading an index larger than RAM.
const VERIFY_CHUNK: usize = 256 * 1024;
/// Bytes per `SDIR` directory entry: offset, frame length, crc, block
/// dimension, `L₁⁻¹` nnz, `U₁⁻¹` nnz — six `u64`s.
const SDIR_ENTRY_LEN: usize = 48;

/// The ten v2 sections, in file order: `(tag, section name)`. The name
/// is what `Error::CorruptIndex { section, .. }` reports.
const SECTIONS: [(&[u8; 4], &str); 10] = [
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
];

/// The nine resident v3 sections, in resident-region order. The spoke
/// factors are absent — they live in the per-block segments indexed by
/// `SDIR`.
const SECTIONS_V3: [(&[u8; 4], &str); 9] = [
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
// v2 writer
// ---------------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Raw (unprefixed) `u64` array — the section frame already carries the
/// byte length, so PERM/BSIZ/DEGS payloads need no inner prefix.
fn push_raw_u64s(out: &mut Vec<u8>, data: &[usize]) {
    for &v in data {
        push_u64(out, v as u64);
    }
}

/// Length-prefixed `u64` array, used *inside* matrix payloads where
/// several arrays share one frame.
fn push_usize_array(out: &mut Vec<u8>, data: &[usize]) {
    push_u64(out, data.len() as u64);
    push_raw_u64s(out, data);
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

fn push_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    push_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crate::crc32::crc32(payload).to_le_bytes());
}

impl Bear {
    /// Serializes the index as a complete v2 image (sections + trailer),
    /// ready to be written atomically. A paged index is materialized
    /// block by block first (v2 is fully resident by definition).
    fn to_v2_bytes(&self) -> Result<Vec<u8>> {
        let (l1_inv, u1_inv) = self.spokes.to_whole()?;
        let mut meta = Vec::with_capacity(24);
        push_u64(&mut meta, self.n1 as u64);
        push_u64(&mut meta, self.n2 as u64);
        meta.extend_from_slice(&self.c.to_le_bytes());

        let mut perm = Vec::new();
        push_raw_u64s(&mut perm, self.perm.as_new_to_old());
        let mut bsiz = Vec::new();
        push_raw_u64s(&mut bsiz, &self.block_sizes);
        let mut degs = Vec::new();
        push_raw_u64s(&mut degs, &self.degrees);

        let csc = |m: &CscMatrix| {
            matrix_payload(m.nrows(), m.ncols(), m.indptr(), m.indices(), m.values())
        };
        let csr = |m: &CsrMatrix| {
            matrix_payload(m.nrows(), m.ncols(), m.indptr(), m.indices(), m.values())
        };
        let payloads: [(usize, Vec<u8>); 10] = [
            (0, meta),
            (1, perm),
            (2, bsiz),
            (3, degs),
            (4, csc(&l1_inv)),
            (5, csc(&u1_inv)),
            (6, csc(&self.l2_inv)),
            (7, csc(&self.u2_inv)),
            (8, csr(&self.h12)),
            (9, csr(&self.h21)),
        ];

        let body: usize =
            payloads.iter().map(|(_, p)| p.len() + FRAME_OVERHEAD).sum::<usize>() + MAGIC_V2.len();
        let mut out = Vec::with_capacity(body + TRAILER_LEN);
        out.extend_from_slice(MAGIC_V2);
        for (i, payload) in &payloads {
            push_section(&mut out, SECTIONS[*i].0, payload);
        }

        let trailer_off = out.len();
        let file_crc = crate::crc32::crc32(&out);
        out.extend_from_slice(TRAILER_MAGIC);
        out.extend_from_slice(&file_crc.to_le_bytes());
        push_u64(&mut out, (trailer_off + TRAILER_LEN) as u64);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// v3 writer
// ---------------------------------------------------------------------------

/// Borrowed resident pieces a v3 writer serializes after the segments —
/// everything except the spoke factors.
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
    let mut expected = MAGIC_V3.len() as u64;
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

/// Frames one block's segment: tag, payload length, payload, CRC.
fn segment_frame_bytes(block_index: usize, pair: &FactorPair) -> (Vec<u8>, u32) {
    let payload = crate::paging::encode_segment(block_index, pair);
    let crc = crate::crc32::crc32(&payload);
    let mut frame = Vec::with_capacity(payload.len() + SEGMENT_FRAME_OVERHEAD);
    frame.extend_from_slice(SEGMENT_TAG);
    push_u64(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc.to_le_bytes());
    (frame, crc)
}

/// Serializes the v3 resident region: the nine [`SECTIONS_V3`] frames.
fn v3_resident_bytes(p: &ResidentParts<'_>, dir: &[SegmentMeta]) -> Vec<u8> {
    let mut meta = Vec::with_capacity(24);
    push_u64(&mut meta, p.n1 as u64);
    push_u64(&mut meta, p.n2 as u64);
    meta.extend_from_slice(&p.c.to_le_bytes());
    let mut perm = Vec::new();
    push_raw_u64s(&mut perm, p.perm.as_new_to_old());
    let mut bsiz = Vec::new();
    push_raw_u64s(&mut bsiz, p.block_sizes);
    let mut degs = Vec::new();
    push_raw_u64s(&mut degs, p.degrees);
    let csc =
        |m: &CscMatrix| matrix_payload(m.nrows(), m.ncols(), m.indptr(), m.indices(), m.values());
    let csr =
        |m: &CsrMatrix| matrix_payload(m.nrows(), m.ncols(), m.indptr(), m.indices(), m.values());
    let payloads: [Vec<u8>; 9] = [
        meta,
        perm,
        bsiz,
        degs,
        csc(p.l2_inv),
        csc(p.u2_inv),
        csr(p.h12),
        csr(p.h21),
        sdir_payload(dir),
    ];
    let body: usize = payloads.iter().map(|p| p.len() + FRAME_OVERHEAD).sum();
    let mut out = Vec::with_capacity(body);
    for (payload, (tag, _)) in payloads.iter().zip(SECTIONS_V3.iter()) {
        push_section(&mut out, tag, payload);
    }
    out
}

/// The 28-byte v3 trailer for a resident region starting at
/// `resident_off`.
fn v3_trailer(region: &[u8], resident_off: u64) -> [u8; TRAILER_LEN_V3] {
    let mut t = [0u8; TRAILER_LEN_V3];
    t[..8].copy_from_slice(TRAILER_MAGIC_V3);
    t[8..12].copy_from_slice(&crate::crc32::crc32(region).to_le_bytes());
    t[12..20].copy_from_slice(&resident_off.to_le_bytes());
    let total = resident_off + region.len() as u64 + TRAILER_LEN_V3 as u64;
    t[20..28].copy_from_slice(&total.to_le_bytes());
    t
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

    /// Serializes the index as a complete v3 image: per-block spoke
    /// segments, resident region, trailer.
    fn to_v3_bytes(&self) -> Result<Vec<u8>> {
        let pairs = self.spokes.split_pairs(&self.block_sizes)?;
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V3);
        let mut dir = Vec::with_capacity(pairs.len());
        for (b, pair) in pairs.iter().enumerate() {
            let offset = out.len() as u64;
            let (frame, crc) = segment_frame_bytes(b, pair);
            dir.push(SegmentMeta {
                offset,
                frame_len: frame.len() as u64,
                crc,
                block_dim: pair.dim() as u64,
                l1_nnz: pair.l1.nnz() as u64,
                u1_nnz: pair.u1.nnz() as u64,
            });
            out.extend_from_slice(&frame);
        }
        let resident_off = out.len() as u64;
        let region = v3_resident_bytes(&self.resident_parts(), &dir);
        out.extend_from_slice(&region);
        out.extend_from_slice(&v3_trailer(&region, resident_off));
        Ok(out)
    }

    /// Writes the index to `path` in the sharded out-of-core v3 format,
    /// with the same crash-safe protocol as [`Bear::save`]. The result
    /// can be loaded fully resident or paged under a budget via
    /// [`Bear::load_with`].
    pub fn save_v3(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.to_v3_bytes()?)
    }
}

/// Under the `failpoints` feature, reports an armed `TruncateAt` for
/// `site` (clamped to `total`); identity (`None`) otherwise.
#[cfg(feature = "failpoints")]
fn injected_truncation(site: &str, total: u64) -> Option<u64> {
    match crate::failpoints::armed(site) {
        Some(crate::failpoints::FailAction::TruncateAt(k)) => Some(k.min(total)),
        _ => None,
    }
}

#[cfg(not(feature = "failpoints"))]
fn injected_truncation(_site: &str, _total: u64) -> Option<u64> {
    None
}

/// Streams a v3 image to disk block by block: preprocessing hands each
/// finished block's factors to [`V3StreamWriter::write_segment`] and
/// drops them, so peak RSS stays independent of total index size. The
/// commit protocol ([`V3StreamWriter::finish`]) mirrors [`write_atomic`]
/// — same temp-file naming, fsync-before-rename ordering, and failpoint
/// sites — so the crash-injection harness covers both writers.
pub(crate) struct V3StreamWriter {
    dir_path: PathBuf,
    tmp: PathBuf,
    path: PathBuf,
    file: Option<std::fs::File>,
    pos: u64,
    dir: Vec<SegmentMeta>,
    committed: bool,
}

impl V3StreamWriter {
    pub(crate) fn create(path: &Path) -> Result<Self> {
        let file_name = path.file_name().ok_or_else(|| Error::InvalidConfig {
            param: "path",
            reason: format!("index path {} has no file name", path.display()),
        })?;
        let dir_path = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let tmp =
            dir_path.join(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
        let mut w = V3StreamWriter {
            dir_path,
            tmp,
            path: path.to_path_buf(),
            file: None,
            pos: 0,
            dir: Vec::new(),
            committed: false,
        };
        w.open_temp()?;
        Ok(w)
    }

    fn open_temp(&mut self) -> Result<()> {
        crate::fail_point!("persist::save::write");
        self.file = Some(std::fs::File::create(&self.tmp).map_err(io_err)?);
        self.append(MAGIC_V3)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| Error::InvalidStructure("stream writer used after finish".into()))?;
        file.write_all(bytes).map_err(io_err)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Appends the next block's segment (blocks must arrive in ascending
    /// block order).
    pub(crate) fn write_segment(&mut self, pair: &FactorPair) -> Result<()> {
        let b = self.dir.len();
        let offset = self.pos;
        let (frame, crc) = segment_frame_bytes(b, pair);
        self.append(&frame)?;
        self.dir.push(SegmentMeta {
            offset,
            frame_len: frame.len() as u64,
            crc,
            block_dim: pair.dim() as u64,
            l1_nnz: pair.l1.nnz() as u64,
            u1_nnz: pair.u1.nnz() as u64,
        });
        Ok(())
    }

    /// Appends the resident region and trailer, then commits: fsync,
    /// atomic rename over the destination, directory fsync.
    pub(crate) fn finish(mut self, parts: &ResidentParts<'_>) -> Result<()> {
        let resident_off = self.pos;
        let region = v3_resident_bytes(parts, &self.dir);
        self.append(&region)?;
        self.append(&v3_trailer(&region, resident_off))?;
        // Torn-write parity with `write_atomic_steps`: an armed
        // truncation leaves a prefix in the temp file and "crashes"
        // before the rename.
        if let Some(k) = injected_truncation("persist::save::write", self.pos) {
            if k < self.pos {
                if let Some(file) = self.file.as_mut() {
                    file.set_len(k).map_err(io_err)?;
                }
                return Err(Error::InvalidStructure(
                    "failpoint 'persist::save::write' injected torn write".into(),
                ));
            }
        }
        crate::fail_point!("persist::save::sync");
        let file = self
            .file
            .take()
            .ok_or_else(|| Error::InvalidStructure("stream writer used after finish".into()))?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        apply_torn_injection(&self.tmp)?;
        crate::fail_point!("persist::save::rename");
        std::fs::rename(&self.tmp, &self.path).map_err(io_err)?;
        let dirf = std::fs::File::open(&self.dir_path).map_err(io_err)?;
        dirf.sync_all().map_err(io_err)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for V3StreamWriter {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-safe write
// ---------------------------------------------------------------------------

/// Under the `failpoints` feature, an armed `TruncateAt(k)` at `site`
/// cuts the bytes to their first `k` — the torn-write half of a
/// simulated crash. Without the feature (or an arming) this is identity.
#[cfg(feature = "failpoints")]
fn injected_prefix<'a>(site: &str, bytes: &'a [u8]) -> &'a [u8] {
    match crate::failpoints::armed(site) {
        Some(crate::failpoints::FailAction::TruncateAt(k)) => {
            let k = usize::try_from(k).unwrap_or(usize::MAX).min(bytes.len());
            &bytes[..k]
        }
        _ => bytes,
    }
}

#[cfg(not(feature = "failpoints"))]
fn injected_prefix<'a>(_site: &str, bytes: &'a [u8]) -> &'a [u8] {
    bytes
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

/// The ordered steps of the atomic write protocol. Failpoint sites mark
/// each crash window; the caller cleans up the temp file on error.
fn write_atomic_steps(dir: &Path, tmp: &Path, path: &Path, bytes: &[u8]) -> Result<()> {
    crate::fail_point!("persist::save::write");
    let to_write = injected_prefix("persist::save::write", bytes);
    let mut file = std::fs::File::create(tmp).map_err(io_err)?;
    file.write_all(to_write).map_err(io_err)?;
    if to_write.len() != bytes.len() {
        // The injected torn write doubles as the crash itself: the temp
        // file holds a prefix and the process "dies" before the rename.
        return Err(Error::InvalidStructure(
            "failpoint 'persist::save::write' injected torn write".into(),
        ));
    }
    crate::fail_point!("persist::save::sync");
    // fsync the payload before the rename: rename-before-data-reaches-disk
    // is exactly the reordering that turns a crash into a corrupt index.
    file.sync_all().map_err(io_err)?;
    drop(file);
    apply_torn_injection(tmp)?;
    crate::fail_point!("persist::save::rename");
    std::fs::rename(tmp, path).map_err(io_err)?;
    // fsync the directory so the rename (the commit point) is durable too.
    let dirf = std::fs::File::open(dir).map_err(io_err)?;
    dirf.sync_all().map_err(io_err)?;
    Ok(())
}

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory, fsync, atomic rename, directory fsync. On any error the
/// temp file is removed (best-effort) and the previous `path` contents —
/// if any — are untouched.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let file_name = path.file_name().ok_or_else(|| Error::InvalidConfig {
        param: "path",
        reason: format!("index path {} has no file name", path.display()),
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    // Same directory as the target: rename(2) is only atomic within a
    // filesystem, and a temp file elsewhere could cross a mount boundary.
    let tmp = dir.join(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
    let result = write_atomic_steps(&dir, &tmp, path, bytes);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// v2 reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one section payload. Every read reports
/// the owning section on failure, so a truncated inner array surfaces as
/// `CorruptIndex { section: "h12", .. }` rather than a generic error.
struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        SectionReader { bytes, pos: 0, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            corrupt(
                self.section,
                format!(
                    "payload truncated: needed {n} bytes at offset {}, payload is {} bytes",
                    self.pos,
                    self.bytes.len()
                ),
            )
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(le_u64(self.take(8)?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes({
            let mut a = [0u8; 8];
            a.copy_from_slice(self.take(8)?);
            a
        }))
    }

    /// Remaining unread payload bytes.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Validates a length prefix of `len` 8-byte elements against the
    /// remaining payload *before* any allocation.
    fn check_len(&self, len: u64) -> Result<()> {
        let bytes = len
            .checked_mul(8)
            .ok_or_else(|| corrupt(self.section, format!("corrupt length prefix {len}")))?;
        if bytes > self.remaining() as u64 {
            return Err(corrupt(
                self.section,
                format!(
                    "corrupt length prefix {len}: needs {bytes} bytes but only {} remain",
                    self.remaining()
                ),
            ));
        }
        Ok(())
    }

    fn usize_array(&mut self) -> Result<Vec<usize>> {
        let len = self.u64()?;
        self.check_len(len)?;
        let len = checked_usize(len, "array length").map_err(wrap(self.section))?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(checked_usize(self.u64()?, "array element").map_err(wrap(self.section))?);
        }
        Ok(out)
    }

    fn f64_array(&mut self) -> Result<Vec<f64>> {
        let len = self.u64()?;
        self.check_len(len)?;
        let len = checked_usize(len, "array length").map_err(wrap(self.section))?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Rejects trailing garbage — a payload longer than its content
    /// means the frame length lies about the structure inside it.
    fn finish(self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(
                self.section,
                format!("{} unconsumed bytes at end of payload", self.bytes.len() - self.pos),
            ));
        }
        Ok(())
    }
}

/// Verifies the trailer and section framing of a v2 image and returns
/// the ten payload slices in [`SECTIONS`] order. Checksums (whole-file,
/// then per-section) are validated here, before any payload parsing.
fn v2_frames(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let total = bytes.len();
    if total < MAGIC_V2.len() + TRAILER_LEN {
        return Err(corrupt(
            "trailer",
            format!("file too short ({total} bytes) to hold magic and trailer"),
        ));
    }
    let trailer_off = total - TRAILER_LEN;
    let trailer = &bytes[trailer_off..];
    if &trailer[..8] != TRAILER_MAGIC {
        return Err(corrupt("trailer", "trailer magic missing (torn or truncated write)"));
    }
    let stored_len = le_u64(&trailer[12..20]);
    if stored_len != total as u64 {
        return Err(corrupt(
            "trailer",
            format!("trailer records a {stored_len}-byte file, actual size is {total}"),
        ));
    }
    let stored_crc = le_u32(&trailer[8..12]);
    let actual_crc = crate::crc32::crc32(&bytes[..trailer_off]);
    if stored_crc != actual_crc {
        return Err(corrupt(
            "trailer",
            format!(
                "whole-file checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            ),
        ));
    }

    let mut pos = MAGIC_V2.len();
    let mut frames = Vec::with_capacity(SECTIONS.len());
    for (tag, name) in SECTIONS {
        let hdr_end = pos + 12;
        if hdr_end > trailer_off {
            return Err(corrupt(name, "section header truncated"));
        }
        let found = &bytes[pos..pos + 4];
        if found != tag.as_slice() {
            return Err(corrupt(
                name,
                format!(
                    "section tag mismatch: expected {:?}, found {:?}",
                    String::from_utf8_lossy(tag),
                    String::from_utf8_lossy(found)
                ),
            ));
        }
        let len = checked_usize(le_u64(&bytes[pos + 4..pos + 12]), "section length")
            .map_err(wrap(name))?;
        let bounds = hdr_end
            .checked_add(len)
            .and_then(|payload_end| {
                payload_end.checked_add(4).map(|crc_end| (payload_end, crc_end))
            })
            .filter(|&(_, crc_end)| crc_end <= trailer_off);
        let Some((payload_end, crc_end)) = bounds else {
            return Err(corrupt(name, format!("section length {len} exceeds file bounds")));
        };
        let payload = &bytes[hdr_end..payload_end];
        let stored = le_u32(&bytes[payload_end..crc_end]);
        let actual = crate::crc32::crc32(payload);
        if stored != actual {
            return Err(corrupt(
                name,
                format!(
                    "section checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                ),
            ));
        }
        frames.push(payload);
        pos = crc_end;
    }
    if pos != trailer_off {
        return Err(corrupt(
            "trailer",
            format!("{} unexpected bytes between sections and trailer", trailer_off - pos),
        ));
    }
    Ok(frames)
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

/// Cross-validates partition dimensions and assembles the index. Shared
/// by the v1 and v2 readers so both enforce identical consistency rules.
#[allow(clippy::too_many_arguments)]
fn assemble(
    n1: usize,
    n2: usize,
    c: f64,
    perm: Permutation,
    block_sizes: Vec<usize>,
    degrees: Vec<usize>,
    spokes: SpokeFactors,
    l2_inv: CscMatrix,
    u2_inv: CscMatrix,
    h12: CsrMatrix,
    h21: CsrMatrix,
) -> Result<Bear> {
    // The sum is checked: corrupt headers near usize::MAX must fail
    // typed, not overflow (panic in debug, wrap to a bogus `n` in
    // release).
    let n = n1
        .checked_add(n2)
        .ok_or_else(|| corrupt("meta", format!("n1 {n1} + n2 {n2} overflows")))?;
    if perm.len() != n
        || degrees.len() != n
        || block_sizes.iter().sum::<usize>() != n1
        || spokes.dim() != n1
        || l2_inv.nrows() != n2
        || u2_inv.nrows() != n2
        || h12.nrows() != n1
        || h12.ncols() != n2
        || h21.nrows() != n2
        || h21.ncols() != n1
    {
        return Err(corrupt("meta", "inconsistent index dimensions"));
    }
    Ok(Bear {
        spokes,
        l2_inv,
        u2_inv,
        h12,
        h21,
        perm,
        n1,
        n2,
        c,
        block_sizes,
        degrees,
        // Preprocessing happened in the process that wrote the index;
        // a loaded index reports zero stage timings.
        timings: crate::stats::StageTimings::default(),
        topk_bounds: std::sync::OnceLock::new(),
    })
}

fn load_v2(bytes: &[u8]) -> Result<Bear> {
    let frames = v2_frames(bytes)?;
    let [meta, perm_b, bsiz_b, degs_b, l1_b, u1_b, l2_b, u2_b, h12_b, h21_b]: [&[u8]; 10] =
        frames.try_into().map_err(|_| corrupt("header", "wrong section count"))?;
    let (n1, n2, c) = parse_meta(meta)?;
    let perm =
        Permutation::try_from_parts(parse_raw_u64s(perm_b, "perm")?).map_err(wrap("perm"))?;
    let block_sizes = parse_raw_u64s(bsiz_b, "block_sizes")?;
    let degrees = parse_raw_u64s(degs_b, "degrees")?;
    let l1_inv = parse_csc(l1_b, "l1_inv")?;
    let u1_inv = parse_csc(u1_b, "u1_inv")?;
    let l2_inv = parse_csc(l2_b, "l2_inv")?;
    let u2_inv = parse_csc(u2_b, "u2_inv")?;
    let h12 = parse_csr(h12_b, "h12")?;
    let h21 = parse_csr(h21_b, "h21")?;
    assemble(
        n1,
        n2,
        c,
        perm,
        block_sizes,
        degrees,
        SpokeFactors::Resident { l1_inv, u1_inv },
        l2_inv,
        u2_inv,
        h12,
        h21,
    )
}

// ---------------------------------------------------------------------------
// v3 reader
// ---------------------------------------------------------------------------

/// Parsed resident pieces of a v3 image: everything except the spoke
/// factors, plus the validated segment directory and section inventory.
struct V3Resident {
    n1: usize,
    n2: usize,
    c: f64,
    perm: Permutation,
    block_sizes: Vec<usize>,
    degrees: Vec<usize>,
    l2_inv: CscMatrix,
    u2_inv: CscMatrix,
    h12: CsrMatrix,
    h21: CsrMatrix,
    dir: Vec<SegmentMeta>,
    sections: Vec<SectionInfo>,
}

/// Reads and validates the v3 trailer, returning
/// `(resident_off, trailer_off, resident-region crc)`.
fn read_v3_geometry(src: &FileSource, total: u64) -> Result<(u64, u64, u32)> {
    let min = (MAGIC_V3.len() + TRAILER_LEN_V3) as u64;
    if total < min {
        return Err(corrupt(
            "trailer",
            format!("file too short ({total} bytes) to hold magic and trailer"),
        ));
    }
    let trailer_off = total - TRAILER_LEN_V3 as u64;
    let mut trailer = [0u8; TRAILER_LEN_V3];
    src.read_at(trailer_off, &mut trailer).map_err(retag("trailer"))?;
    if &trailer[..8] != TRAILER_MAGIC_V3 {
        return Err(corrupt("trailer", "trailer magic missing (torn or truncated write)"));
    }
    let stored_crc = le_u32(&trailer[8..12]);
    let resident_off = le_u64(&trailer[12..20]);
    let stored_len = le_u64(&trailer[20..28]);
    if stored_len != total {
        return Err(corrupt(
            "trailer",
            format!("trailer records a {stored_len}-byte file, actual size is {total}"),
        ));
    }
    if resident_off < MAGIC_V3.len() as u64 || resident_off > trailer_off {
        return Err(corrupt(
            "trailer",
            format!("resident region offset {resident_off} outside file bounds"),
        ));
    }
    Ok((resident_off, trailer_off, stored_crc))
}

/// Verifies the framing of a v3 resident region (whose CRC has already
/// been checked against the trailer) and returns the nine payload
/// slices in [`SECTIONS_V3`] order.
fn v3_region_frames(region: &[u8]) -> Result<Vec<&[u8]>> {
    let mut pos = 0usize;
    let mut frames = Vec::with_capacity(SECTIONS_V3.len());
    for (tag, name) in SECTIONS_V3 {
        let hdr_end = pos + 12;
        if hdr_end > region.len() {
            return Err(corrupt(name, "section header truncated"));
        }
        let found = &region[pos..pos + 4];
        if found != tag.as_slice() {
            return Err(corrupt(
                name,
                format!(
                    "section tag mismatch: expected {:?}, found {:?}",
                    String::from_utf8_lossy(tag),
                    String::from_utf8_lossy(found)
                ),
            ));
        }
        let len = checked_usize(le_u64(&region[pos + 4..pos + 12]), "section length")
            .map_err(wrap(name))?;
        let bounds = hdr_end
            .checked_add(len)
            .and_then(|payload_end| {
                payload_end.checked_add(4).map(|crc_end| (payload_end, crc_end))
            })
            .filter(|&(_, crc_end)| crc_end <= region.len());
        let Some((payload_end, crc_end)) = bounds else {
            return Err(corrupt(name, format!("section length {len} exceeds region bounds")));
        };
        let payload = &region[hdr_end..payload_end];
        let stored = le_u32(&region[payload_end..crc_end]);
        let actual = crate::crc32::crc32(payload);
        if stored != actual {
            return Err(corrupt(
                name,
                format!(
                    "section checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                ),
            ));
        }
        frames.push(payload);
        pos = crc_end;
    }
    if pos != region.len() {
        return Err(corrupt(
            "trailer",
            format!("{} unexpected bytes after resident sections", region.len() - pos),
        ));
    }
    Ok(frames)
}

/// Reads and fully parses the resident region of a v3 image. The region
/// allocation is charged against `budget` — the hub/Schur matrices must
/// be resident for every query, so an index whose *resident* part
/// exceeds the budget is a typed [`Error::OutOfBudget`], while the spoke
/// segments stay on disk regardless of their size.
fn read_v3_resident(src: &FileSource, total: u64, budget: &MemBudget) -> Result<V3Resident> {
    let (resident_off, trailer_off, stored_crc) = read_v3_geometry(src, total)?;
    let region_len = checked_usize(trailer_off - resident_off, "resident region length")
        .map_err(wrap("trailer"))?;
    budget.check(region_len)?;
    let mut region = vec![0u8; region_len];
    src.read_at(resident_off, &mut region).map_err(retag("trailer"))?;
    let actual_crc = crate::crc32::crc32(&region);
    if stored_crc != actual_crc {
        return Err(corrupt(
            "trailer",
            format!(
                "resident region checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            ),
        ));
    }
    let frames = v3_region_frames(&region)?;
    let sections = frames
        .iter()
        .zip(SECTIONS_V3.iter())
        .map(|(payload, (tag, _))| SectionInfo {
            tag: String::from_utf8_lossy(*tag).into_owned(),
            len: payload.len() as u64,
        })
        .collect();
    let [meta, perm_b, bsiz_b, degs_b, l2_b, u2_b, h12_b, h21_b, sdir_b]: [&[u8]; 9] =
        frames.try_into().map_err(|_| corrupt("header", "wrong section count"))?;
    let (n1, n2, c) = parse_meta(meta)?;
    let perm =
        Permutation::try_from_parts(parse_raw_u64s(perm_b, "perm")?).map_err(wrap("perm"))?;
    let block_sizes = parse_raw_u64s(bsiz_b, "block_sizes")?;
    let degrees = parse_raw_u64s(degs_b, "degrees")?;
    let l2_inv = parse_csc(l2_b, "l2_inv")?;
    let u2_inv = parse_csc(u2_b, "u2_inv")?;
    let h12 = parse_csr(h12_b, "h12")?;
    let h21 = parse_csr(h21_b, "h21")?;
    let dir = parse_sdir(sdir_b)?;
    validate_v3_dir(&dir, block_sizes.len(), resident_off)?;
    Ok(V3Resident {
        n1,
        n2,
        c,
        perm,
        block_sizes,
        degrees,
        l2_inv,
        u2_inv,
        h12,
        h21,
        dir,
        sections,
    })
}

/// Streams segment `b` through its CRC in bounded chunks, verifying the
/// frame header and both checksum copies without materializing the
/// payload. Load-time truncation and bit rot in any shard surface here
/// as typed `CorruptIndex { section: "spoke_segment", .. }`, so
/// [`Bear::load_or_quarantine`] catches them before serving.
fn verify_segment_stream(src: &FileSource, b: usize, meta: &SegmentMeta) -> Result<()> {
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
    let mut crc = crate::crc32::Crc32::new();
    let mut remaining = payload_len;
    let mut off = meta.offset + 12;
    let cap = usize::try_from(remaining.min(VERIFY_CHUNK as u64)).unwrap_or(VERIFY_CHUNK);
    let mut buf = vec![0u8; cap];
    while remaining > 0 {
        let n = buf.len().min(usize::try_from(remaining).unwrap_or(buf.len()));
        src.read_at(off, &mut buf[..n]).map_err(shard_err(b))?;
        crc.update(&buf[..n]);
        off += n as u64;
        remaining -= n as u64;
    }
    let mut crc4 = [0u8; 4];
    src.read_at(off, &mut crc4).map_err(shard_err(b))?;
    let stored = u32::from_le_bytes(crc4);
    let actual = crc.finish();
    if stored != actual || stored != meta.crc {
        return Err(corrupt_shard(
            b,
            format!(
                "segment checksum mismatch: frame {stored:#010x}, directory {:#010x}, computed {actual:#010x}",
                meta.crc
            ),
        ));
    }
    Ok(())
}

fn load_v3(file: std::fs::File, opts: &LoadOptions) -> Result<Bear> {
    let total = file.metadata().map_err(io_err)?.len();
    let src = FileSource::new(file);
    let res = read_v3_resident(&src, total, &opts.budget)?;
    // Eager integrity sweep: every segment's CRC is verified (in bounded
    // chunks) before the index serves a single query, so torn writes and
    // bit rot fail the *load* — quarantine-able — instead of a query
    // hours later.
    for (b, meta) in res.dir.iter().enumerate() {
        verify_segment_stream(&src, b, meta)?;
    }
    let resident_bytes = res.l2_inv.memory_bytes()
        + res.u2_inv.memory_bytes()
        + res.h12.memory_bytes()
        + res.h21.memory_bytes();
    opts.budget.check(resident_bytes)?;
    // The spoke factors page under whatever budget the resident part
    // leaves over.
    let pager_budget = opts.budget.limit().map(|l| l.saturating_sub(resident_bytes));
    let pager = BlockPager::new(Box::new(src), res.dir, &res.block_sizes, pager_budget)?;
    let mut spokes = SpokeFactors::Paged { pager };
    if opts.resident {
        let (l1_inv, u1_inv) = spokes.to_whole()?;
        opts.budget.check(resident_bytes + l1_inv.memory_bytes() + u1_inv.memory_bytes())?;
        spokes = SpokeFactors::Resident { l1_inv, u1_inv };
    }
    assemble(
        res.n1,
        res.n2,
        res.c,
        res.perm,
        res.block_sizes,
        res.degrees,
        spokes,
        res.l2_inv,
        res.u2_inv,
        res.h12,
        res.h21,
    )
}

// ---------------------------------------------------------------------------
// v1 reader/writer (legacy format, kept for compatibility)
// ---------------------------------------------------------------------------

fn write_usize_slice<W: Write>(w: &mut W, data: &[usize]) -> Result<()> {
    w.write_all(&(data.len() as u64).to_le_bytes()).map_err(io_err)?;
    for &v in data {
        w.write_all(&(v as u64).to_le_bytes()).map_err(io_err)?;
    }
    Ok(())
}

fn write_f64_slice<W: Write>(w: &mut W, data: &[f64]) -> Result<()> {
    w.write_all(&(data.len() as u64).to_le_bytes()).map_err(io_err)?;
    for &v in data {
        w.write_all(&v.to_le_bytes()).map_err(io_err)?;
    }
    Ok(())
}

/// A reader that knows how many payload bytes can still legally follow,
/// so length prefixes read from untrusted files are validated *before*
/// any allocation. A corrupt or truncated index therefore fails with a
/// structured error instead of attempting a huge `Vec::with_capacity`.
struct BoundedReader<R> {
    inner: R,
    remaining: u64,
}

impl<R: Read> BoundedReader<R> {
    fn new(inner: R, remaining: u64) -> Self {
        BoundedReader { inner, remaining }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        if buf.len() as u64 > self.remaining {
            return Err(Error::InvalidStructure(format!(
                "truncated index: needed {} bytes, {} remain",
                buf.len(),
                self.remaining
            )));
        }
        self.inner.read_exact(buf).map_err(io_err)?;
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    /// Validates that a length prefix of `len` elements (8 bytes each)
    /// fits in the remaining input.
    fn check_len(&self, len: u64) -> Result<()> {
        let bytes = len
            .checked_mul(8)
            .ok_or_else(|| Error::InvalidStructure(format!("corrupt length prefix {len}")))?;
        if bytes > self.remaining {
            return Err(Error::InvalidStructure(format!(
                "corrupt length prefix {len}: needs {bytes} bytes but only {} remain",
                self.remaining
            )));
        }
        Ok(())
    }
}

fn read_u64<R: Read>(r: &mut BoundedReader<R>) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_usize_slice<R: Read>(r: &mut BoundedReader<R>) -> Result<Vec<usize>> {
    let len = read_u64(r)?;
    r.check_len(len)?;
    let mut out = Vec::with_capacity(checked_usize(len, "array length")?);
    for _ in 0..len {
        out.push(checked_usize(read_u64(r)?, "array element")?);
    }
    Ok(out)
}

fn read_f64_slice<R: Read>(r: &mut BoundedReader<R>) -> Result<Vec<f64>> {
    let len = read_u64(r)?;
    r.check_len(len)?;
    let mut out = Vec::with_capacity(checked_usize(len, "array length")?);
    let mut buf = [0u8; 8];
    for _ in 0..len {
        r.read_exact(&mut buf)?;
        out.push(f64::from_le_bytes(buf));
    }
    Ok(out)
}

fn read_csc<R: Read>(r: &mut BoundedReader<R>) -> Result<CscMatrix> {
    let nrows = checked_usize(read_u64(r)?, "matrix row count")?;
    let ncols = checked_usize(read_u64(r)?, "matrix column count")?;
    let indptr = read_usize_slice(r)?;
    let indices = read_usize_slice(r)?;
    let values = read_f64_slice(r)?;
    // Trust boundary: run the full invariant audit, as in `parse_csc`.
    CscMatrix::try_from_parts(nrows, ncols, indptr, indices, values)
}

fn read_csr<R: Read>(r: &mut BoundedReader<R>) -> Result<CsrMatrix> {
    let nrows = checked_usize(read_u64(r)?, "matrix row count")?;
    let ncols = checked_usize(read_u64(r)?, "matrix column count")?;
    let indptr = read_usize_slice(r)?;
    let indices = read_usize_slice(r)?;
    let values = read_f64_slice(r)?;
    CsrMatrix::try_from_parts(nrows, ncols, indptr, indices, values)
}

/// Parses a v1 image (magic already verified by the dispatcher).
fn parse_v1(bytes: &[u8]) -> Result<Bear> {
    let body = &bytes[MAGIC_V1.len()..];
    let mut r = BoundedReader::new(body, body.len() as u64);
    let n1 = checked_usize(read_u64(&mut r)?, "spoke count n1")?;
    let n2 = checked_usize(read_u64(&mut r)?, "hub count n2")?;
    let mut cbuf = [0u8; 8];
    r.read_exact(&mut cbuf)?;
    let c = f64::from_le_bytes(cbuf);
    if !(c > 0.0 && c < 1.0) {
        return Err(Error::InvalidStructure(format!("corrupt restart probability {c}")));
    }
    let perm = Permutation::try_from_parts(read_usize_slice(&mut r)?)?;
    let block_sizes = read_usize_slice(&mut r)?;
    let degrees = read_usize_slice(&mut r)?;
    let l1_inv = read_csc(&mut r)?;
    let u1_inv = read_csc(&mut r)?;
    let l2_inv = read_csc(&mut r)?;
    let u2_inv = read_csc(&mut r)?;
    let h12 = read_csr(&mut r)?;
    let h21 = read_csr(&mut r)?;
    assemble(
        n1,
        n2,
        c,
        perm,
        block_sizes,
        degrees,
        SpokeFactors::Resident { l1_inv, u1_inv },
        l2_inv,
        u2_inv,
        h12,
        h21,
    )
}

fn load_v1(bytes: &[u8]) -> Result<Bear> {
    // v1 has no checksums, so every failure here is structural; wrap it
    // in the corruption taxonomy with the format version as the section.
    parse_v1(bytes).map_err(wrap("v1"))
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Options controlling how [`Bear::load_with`] materializes an index.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Memory budget. v1/v2 images are fully resident and must fit in
    /// their entirety (typed [`Error::OutOfBudget`] otherwise); a v3
    /// image must fit only its *resident* part (hub/Schur matrices) —
    /// the spoke factors page on demand under whatever budget remains.
    pub budget: MemBudget,
    /// Force a v3 image fully resident: fetch every segment, rebuild the
    /// whole factors, and never touch the pager on the query path.
    /// Ignored for v1/v2 (always resident).
    pub resident: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { budget: MemBudget::unlimited(), resident: false }
    }
}

impl Bear {
    /// Writes the precomputed index to `path` in the v2 format,
    /// crash-safely: the image is built in memory, written to a hidden
    /// temp file in the target directory, fsynced, atomically renamed
    /// over `path`, and the directory is fsynced. A crash (or error) at
    /// any point leaves the previous contents of `path` intact.
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.to_v2_bytes()?)
    }

    /// Writes the index in the legacy v1 layout (`BEARIDX1`: bare
    /// header + length-prefixed arrays, no checksums). Kept so the
    /// compatibility suite can prove current binaries still read files
    /// written by pre-v2 releases; new code should use [`Bear::save`].
    pub fn save_v1(&self, path: &Path) -> Result<()> {
        let (l1_inv, u1_inv) = self.spokes.to_whole()?;
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V1);
        push_u64(&mut out, self.n1 as u64);
        push_u64(&mut out, self.n2 as u64);
        out.extend_from_slice(&self.c.to_le_bytes());
        write_usize_slice(&mut out, self.perm.as_new_to_old())?;
        write_usize_slice(&mut out, &self.block_sizes)?;
        write_usize_slice(&mut out, &self.degrees)?;
        for m in [&l1_inv, &u1_inv, &self.l2_inv, &self.u2_inv] {
            push_u64(&mut out, m.nrows() as u64);
            push_u64(&mut out, m.ncols() as u64);
            write_usize_slice(&mut out, m.indptr())?;
            write_usize_slice(&mut out, m.indices())?;
            write_f64_slice(&mut out, m.values())?;
        }
        for m in [&self.h12, &self.h21] {
            push_u64(&mut out, m.nrows() as u64);
            push_u64(&mut out, m.ncols() as u64);
            write_usize_slice(&mut out, m.indptr())?;
            write_usize_slice(&mut out, m.indices())?;
            write_f64_slice(&mut out, m.values())?;
        }
        write_atomic(path, &out)
    }

    /// Reads a precomputed index written by [`Bear::save`] (v2),
    /// [`Bear::save_v3`] (sharded v3, loaded paged with an unlimited
    /// budget), or a pre-v2 binary (v1). Shorthand for
    /// [`Bear::load_with`] with default [`LoadOptions`].
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
    /// caps memory (v3 spoke factors page on demand under it; v1/v2 must
    /// fit entirely), and `opts.resident` forces a v3 image fully into
    /// memory.
    pub fn load_with(path: &Path, opts: &LoadOptions) -> Result<Self> {
        crate::fail_point!("persist::load");
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        let mut magic = [0u8; 8];
        if let Err(e) = file.read_exact(&mut magic) {
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                corrupt("header", "file too short to hold a magic number")
            } else {
                io_err(e)
            });
        }
        if &magic == MAGIC_V3 {
            return load_v3(file, opts);
        }
        drop(file);
        let bytes = std::fs::read(path).map_err(io_err)?;
        let bear = match &magic {
            m if m == MAGIC_V2 => load_v2(&bytes)?,
            m if m == MAGIC_V1 => load_v1(&bytes)?,
            m => return Err(corrupt("header", format!("not a BEAR index file (magic {m:?})"))),
        };
        // v1/v2 are fully resident: the whole index charges the budget.
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

/// One framed section of a v2 index, as reported by [`verify_index`].
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
    /// On-disk format version: 1 (`BEARIDX1`), 2 (`BEARIDX2`), or 3
    /// (`BEARIDX3`).
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Spoke count.
    pub n1: usize,
    /// Hub count.
    pub n2: usize,
    /// Restart probability.
    pub c: f64,
    /// Section inventory (empty for v1, which has no framing).
    pub sections: Vec<SectionInfo>,
    /// Spoke-block segments (v3 only; zero for v1/v2).
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

/// Like [`verify_index`], but with bounded peak allocation: v2 images
/// are verified with a chunked whole-file checksum and one section
/// resident at a time, v3 images with one spoke segment resident at a
/// time, and every transient allocation is charged against `budget`
/// first — so `bear verify-index` works on an index larger than RAM.
pub fn verify_index_with(path: &Path, budget: &MemBudget) -> Result<IndexReport> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let total = file.metadata().map_err(io_err)?.len();
    let src = FileSource::new(file);
    if total < 8 {
        return Err(corrupt(
            "header",
            format!("file too short ({total} bytes) to hold a magic number"),
        ));
    }
    let mut magic = [0u8; 8];
    src.read_at(0, &mut magic).map_err(retag("header"))?;
    match &magic {
        m if m == MAGIC_V3 => verify_v3(src, total, budget),
        m if m == MAGIC_V2 => verify_v2(src, total, budget),
        m if m == MAGIC_V1 => {
            // v1 has no framing to stream over; it needs the whole file.
            let len = checked_usize(total, "file length").map_err(wrap("header"))?;
            budget.check(len)?;
            let mut bytes = vec![0u8; len];
            src.read_at(0, &mut bytes).map_err(retag("header"))?;
            let bear = load_v1(&bytes)?;
            Ok(IndexReport {
                version: 1,
                file_len: total,
                n1: bear.n1,
                n2: bear.n2,
                c: bear.c,
                sections: Vec::new(),
                segments: 0,
            })
        }
        m => Err(corrupt("header", format!("not a BEAR index file (magic {m:?})"))),
    }
}

/// CRC32 of `[off, off + remaining)` computed in bounded chunks.
fn streamed_crc(
    src: &FileSource,
    mut off: u64,
    mut remaining: u64,
    section: &'static str,
) -> Result<u32> {
    let mut crc = crate::crc32::Crc32::new();
    let cap = usize::try_from(remaining.min(VERIFY_CHUNK as u64)).unwrap_or(VERIFY_CHUNK);
    let mut buf = vec![0u8; cap];
    while remaining > 0 {
        let n = buf.len().min(usize::try_from(remaining).unwrap_or(buf.len()));
        src.read_at(off, &mut buf[..n]).map_err(retag(section))?;
        crc.update(&buf[..n]);
        off += n as u64;
        remaining -= n as u64;
    }
    Ok(crc.finish())
}

/// Streaming v2 verification: chunked whole-file CRC, then each section
/// parsed (full structural audit) and dropped before the next is read;
/// peak allocation is the largest single section. Dimension
/// cross-checks replay [`assemble`]'s rules on the recorded shapes.
fn verify_v2(src: FileSource, total: u64, budget: &MemBudget) -> Result<IndexReport> {
    let min = (MAGIC_V2.len() + TRAILER_LEN) as u64;
    if total < min {
        return Err(corrupt(
            "trailer",
            format!("file too short ({total} bytes) to hold magic and trailer"),
        ));
    }
    let trailer_off = total - TRAILER_LEN as u64;
    let mut trailer = [0u8; TRAILER_LEN];
    src.read_at(trailer_off, &mut trailer).map_err(retag("trailer"))?;
    if &trailer[..8] != TRAILER_MAGIC {
        return Err(corrupt("trailer", "trailer magic missing (torn or truncated write)"));
    }
    let stored_len = le_u64(&trailer[12..20]);
    if stored_len != total {
        return Err(corrupt(
            "trailer",
            format!("trailer records a {stored_len}-byte file, actual size is {total}"),
        ));
    }
    let stored_crc = le_u32(&trailer[8..12]);
    let actual_crc = streamed_crc(&src, 0, trailer_off, "trailer")?;
    if stored_crc != actual_crc {
        return Err(corrupt(
            "trailer",
            format!(
                "whole-file checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            ),
        ));
    }

    let mut pos = MAGIC_V2.len() as u64;
    let mut sections = Vec::with_capacity(SECTIONS.len());
    let (mut n1, mut n2, mut c) = (0usize, 0usize, 0.0f64);
    let (mut perm_len, mut degrees_len, mut block_sum) = (0usize, 0usize, 0usize);
    // Shapes of l1_inv, u1_inv, l2_inv, u2_inv, h12, h21 in turn.
    let mut dims = [(0usize, 0usize); 6];
    for (i, &(tag, name)) in SECTIONS.iter().enumerate() {
        let hdr_end = pos
            .checked_add(12)
            .filter(|&e| e <= trailer_off)
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
        let bounds = hdr_end
            .checked_add(len)
            .and_then(|payload_end| {
                payload_end.checked_add(4).map(|crc_end| (payload_end, crc_end))
            })
            .filter(|&(_, crc_end)| crc_end <= trailer_off);
        let Some((payload_end, crc_end)) = bounds else {
            return Err(corrupt(name, format!("section length {len} exceeds file bounds")));
        };
        let len_us = checked_usize(len, "section length").map_err(wrap(name))?;
        budget.check(len_us)?;
        let mut payload = vec![0u8; len_us];
        src.read_at(hdr_end, &mut payload).map_err(retag(name))?;
        let mut crc4 = [0u8; 4];
        src.read_at(payload_end, &mut crc4).map_err(retag(name))?;
        let stored = u32::from_le_bytes(crc4);
        let actual = crate::crc32::crc32(&payload);
        if stored != actual {
            return Err(corrupt(
                name,
                format!(
                    "section checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
                ),
            ));
        }
        match i {
            0 => (n1, n2, c) = parse_meta(&payload)?,
            1 => {
                perm_len = Permutation::try_from_parts(parse_raw_u64s(&payload, "perm")?)
                    .map_err(wrap("perm"))?
                    .len()
            }
            2 => block_sum = parse_raw_u64s(&payload, "block_sizes")?.iter().sum(),
            3 => degrees_len = parse_raw_u64s(&payload, "degrees")?.len(),
            4..=7 => {
                let m = parse_csc(&payload, name)?;
                dims[i - 4] = (m.nrows(), m.ncols());
            }
            _ => {
                let m = parse_csr(&payload, name)?;
                dims[i - 4] = (m.nrows(), m.ncols());
            }
        }
        sections.push(SectionInfo { tag: String::from_utf8_lossy(tag).into_owned(), len });
        pos = crc_end;
    }
    if pos != trailer_off {
        return Err(corrupt(
            "trailer",
            format!("{} unexpected bytes between sections and trailer", trailer_off - pos),
        ));
    }
    let n = n1
        .checked_add(n2)
        .ok_or_else(|| corrupt("meta", format!("n1 {n1} + n2 {n2} overflows")))?;
    if perm_len != n
        || degrees_len != n
        || block_sum != n1
        || dims[0].0 != n1
        || dims[1].0 != n1
        || dims[2].0 != n2
        || dims[3].0 != n2
        || dims[4] != (n1, n2)
        || dims[5] != (n2, n1)
    {
        return Err(corrupt("meta", "inconsistent index dimensions"));
    }
    Ok(IndexReport { version: 2, file_len: total, n1, n2, c, sections, segments: 0 })
}

/// Streaming v3 verification: resident region parsed in full (it must
/// fit in memory to serve anyway), then each segment CRC-verified and
/// structurally decoded one at a time through a zero-budget pager so at
/// most one decoded block is resident.
fn verify_v3(src: FileSource, total: u64, budget: &MemBudget) -> Result<IndexReport> {
    let res = read_v3_resident(&src, total, budget)?;
    for (b, meta) in res.dir.iter().enumerate() {
        let frame = checked_usize(meta.frame_len, "segment frame length")
            .map_err(wrap("segment_directory"))?;
        budget.check(frame.saturating_add(meta.resident_bytes()))?;
        verify_segment_stream(&src, b, meta)?;
    }
    let n = res
        .n1
        .checked_add(res.n2)
        .ok_or_else(|| corrupt("meta", format!("n1 {} + n2 {} overflows", res.n1, res.n2)))?;
    if res.perm.len() != n
        || res.degrees.len() != n
        || res.block_sizes.iter().sum::<usize>() != res.n1
        || res.l2_inv.nrows() != res.n2
        || res.u2_inv.nrows() != res.n2
        || res.h12.nrows() != res.n1
        || res.h12.ncols() != res.n2
        || res.h21.nrows() != res.n2
        || res.h21.ncols() != res.n1
    {
        return Err(corrupt("meta", "inconsistent index dimensions"));
    }
    let segments = res.dir.len();
    let sections = res.sections.clone();
    // Structural audit of every segment, one decoded block resident at a
    // time (budget zero: each fetch evicts the previous block).
    let pager = BlockPager::new(Box::new(src), res.dir, &res.block_sizes, Some(0))?;
    for b in 0..pager.num_blocks() {
        pager.fetch(b)?;
    }
    Ok(IndexReport {
        version: 3,
        file_len: total,
        n1: res.n1,
        n2: res.n2,
        c: res.c,
        sections,
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
        let trailer_off = bytes.len() - TRAILER_LEN;
        let mut pos = MAGIC_V2.len();
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
        assert_eq!(&ba[..8], MAGIC_V2);
        assert_eq!(ba, bb, "save -> load -> save must reproduce the image byte for byte");
    }

    #[test]
    fn v1_files_still_load() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_v1_compat.idx");
        bear.save_v1(&path).unwrap();
        assert_eq!(&std::fs::read(&path).unwrap()[..8], MAGIC_V1);
        let loaded = Bear::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for seed in 0..10 {
            assert_eq!(bear.query(seed).unwrap(), loaded.query(seed).unwrap());
        }
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
    fn v1_load_rejects_corrupt_length_prefix() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_corrupt_len.idx");
        bear.save_v1(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The first v1 length prefix (the permutation's) sits right after
        // magic + n1 + n2 + c = 32 bytes. Blow it up to u64::MAX: a naive
        // `Vec::with_capacity` on it would abort the process, while the
        // bounded reader must reject it against the remaining file size.
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Bear::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, Error::CorruptIndex { section: "v1", .. }), "unexpected: {err}");
        assert!(format!("{err}").contains("length prefix"), "unexpected error: {err}");
    }

    #[test]
    fn v2_checksums_catch_a_single_flipped_bit() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_bitflip.idx");
        bear.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for byte in [9, full.len() / 3, full.len() - TRAILER_LEN + 9] {
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
        assert_eq!(report.sections.len(), SECTIONS.len());
        assert_eq!(report.sections[0].tag, "META");
        assert_eq!(report.sections[0].len, 24);
    }

    #[test]
    fn verify_index_reports_v1_without_sections() {
        let g = sample_graph();
        let bear = Bear::new(&g, &BearConfig::exact(0.1)).unwrap();
        let path = tmp("bear_persist_verify_v1.idx");
        bear.save_v1(&path).unwrap();
        let report = verify_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.version, 1);
        assert!(report.sections.is_empty());
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
        assert_eq!(&ba[..8], MAGIC_V3);
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
        assert_eq!(report.sections.len(), SECTIONS_V3.len());
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
