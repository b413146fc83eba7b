//! Round-trip corruption tests for the persisted index.
//!
//! Each test saves a valid index, performs targeted byte surgery on one
//! payload field — producing a file that is *length-valid* (every frame
//! and length prefix still consistent) but violates a structural or
//! numerical invariant — and asserts that [`Bear::load`] rejects it with
//! [`Error::CorruptIndex`] under **default features**. This pins the
//! trust boundary: the loader must route every array through the
//! `try_from_parts` constructors rather than trusting bytes that merely
//! parse.
//!
//! The format checksums every shard, every section and the resident
//! region, so naive surgery would be caught by the CRCs before the
//! structural validators ever ran. To keep exercising the deeper layer,
//! each corrupted image has its checksums *re-fixed* ([`fix_checksums`])
//! before loading — simulating an adversarial or wrote-garbage-honestly
//! artifact whose integrity envelope is intact but whose content is
//! wrong. (Checksum violations themselves are covered by
//! `crash_injection.rs`.)
//!
//! The byte walker below mirrors the `BEARIDX4` layout written by
//! `Bear::save`: magic(8), the spoke shards (`SPKB tag(4) len(8) payload
//! crc(4)`, one per unit, payload `first_block(8) blocks(8) dim(8)` then
//! `L₁⁻¹` and `U₁⁻¹` as length-prefixed indptr/indices/values), then the
//! resident region's nine framed sections (`tag(4) len(8) payload
//! crc(4)`) in order META, PERM, BSIZ, DEGS, four matrices (`l2_inv`,
//! `u2_inv` as CSC; `h12`, `h21` as CSR — each `nrows(8) ncols(8)` +
//! length-prefixed indptr/indices/values) and SDIR, then the 28-byte
//! trailer.

use bear_core::{crc32, Bear, BearConfig, LoadOptions};
use bear_graph::Graph;
use bear_sparse::Error;
use std::path::PathBuf;

/// Trailer layout: magic (8) + resident-region crc32 (4) + resident
/// offset (8) + file length (8).
const TRAILER_LEN: usize = 28;
/// Bytes per SDIR entry: offset, frame length, crc, first block, block
/// count, dimension, `L₁⁻¹` nnz, `U₁⁻¹` nnz.
const SDIR_ENTRY_LEN: usize = 64;

/// Byte span of one length-prefixed array in the index file.
#[derive(Debug, Clone, Copy)]
struct ArraySpan {
    /// Offset of the first element (just past the 8-byte length).
    data: usize,
    /// Element count.
    len: usize,
}

impl ArraySpan {
    /// Byte offset of element `i`.
    fn elem(&self, i: usize) -> usize {
        assert!(i < self.len, "element {i} out of {}", self.len);
        self.data + 8 * i
    }
}

/// Byte spans of one serialized matrix.
#[derive(Debug, Clone, Copy)]
struct MatrixSpan {
    ncols: usize,
    indptr: ArraySpan,
    indices: ArraySpan,
    values: ArraySpan,
}

/// Parsed layout of a saved index file.
struct Layout {
    /// Offset of each shard's payload.
    shards: Vec<usize>,
    /// Offset of the META payload (`n1(8) n2(8) c(8)`).
    meta: usize,
    perm: ArraySpan,
    block_sizes: ArraySpan,
    /// `l2_inv, u2_inv, h12, h21` in file order.
    matrices: [MatrixSpan; 4],
    /// Offset of the SDIR payload (`count(8)` then the entries).
    sdir: usize,
}

fn read_u64_at(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap())
}

fn write_u64_at(bytes: &mut [u8], pos: usize, v: u64) {
    bytes[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
}

fn walk_array(bytes: &[u8], pos: &mut usize) -> ArraySpan {
    let len = read_u64_at(bytes, *pos) as usize;
    let span = ArraySpan { data: *pos + 8, len };
    *pos += 8 + 8 * len;
    span
}

/// `(payload offset, payload length)` of every frame from `pos` to
/// `end`, which the frames must fill exactly.
fn walk_frames(bytes: &[u8], mut pos: usize, end: usize) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    while pos < end {
        let len = read_u64_at(bytes, pos + 4) as usize;
        frames.push((pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos, end, "walker must consume every frame exactly");
    frames
}

/// The resident region's offset and the trailer's.
fn regions(bytes: &[u8]) -> (usize, usize) {
    assert_eq!(&bytes[..8], b"BEARIDX4");
    let trailer_off = bytes.len() - TRAILER_LEN;
    (read_u64_at(bytes, trailer_off + 12) as usize, trailer_off)
}

fn walk(bytes: &[u8]) -> Layout {
    let (resident, trailer_off) = regions(bytes);
    let shards = walk_frames(bytes, 8, resident).into_iter().map(|(off, _)| off).collect();
    let frames = walk_frames(bytes, resident, trailer_off);
    assert_eq!(frames.len(), 9, "the resident region has nine sections");
    // Raw u64 sections carry no inner length prefix; the frame length is
    // the byte count.
    let raw = |f: (usize, usize)| ArraySpan { data: f.0, len: f.1 / 8 };
    let matrices = std::array::from_fn(|i| {
        let (off, _) = frames[4 + i];
        let ncols = read_u64_at(bytes, off + 8) as usize;
        let mut pos = off + 16; // nrows + ncols
        let indptr = walk_array(bytes, &mut pos);
        let indices = walk_array(bytes, &mut pos);
        let values = walk_array(bytes, &mut pos);
        MatrixSpan { ncols, indptr, indices, values }
    });
    Layout {
        shards,
        meta: frames[0].0,
        perm: raw(frames[1]),
        block_sizes: raw(frames[2]),
        matrices,
        sdir: frames[8].0,
    }
}

/// Recomputes the whole checksum chain after payload surgery (lengths
/// unchanged) — every shard's frame CRC and its copy in the SDIR
/// directory, every section CRC, and the trailer's resident-region CRC —
/// so the corruption reaches the structural validators instead of
/// bouncing off the checksums.
fn fix_checksums(bytes: &mut [u8]) {
    let (resident, trailer_off) = regions(bytes);
    let mut shard_crcs = Vec::new();
    for (payload, len) in walk_frames(bytes, 8, resident) {
        let crc = crc32::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
        shard_crcs.push(crc);
    }
    for (payload, len) in walk_frames(bytes, resident, trailer_off) {
        if &bytes[payload - 12..payload - 8] == b"SDIR" {
            assert_eq!(read_u64_at(bytes, payload) as usize, shard_crcs.len());
            for (i, &crc) in shard_crcs.iter().enumerate() {
                write_u64_at(bytes, payload + 8 + i * SDIR_ENTRY_LEN + 16, u64::from(crc));
            }
        }
        let crc = crc32::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
    }
    let region_crc = crc32::crc32(&bytes[resident..trailer_off]);
    bytes[trailer_off + 8..trailer_off + 12].copy_from_slice(&region_crc.to_le_bytes());
}

/// A star graph (hub 0) plus a chord: `h21` (hubs × spokes) gets a row
/// with many entries, so index-ordering corruptions have room to land.
fn saved_index(tag: &str) -> (Vec<u8>, PathBuf) {
    let mut edges = Vec::new();
    for v in 1..12 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    edges.push((5, 6));
    edges.push((6, 5));
    saved_index_of(&Graph::from_edges(12, &edges).unwrap(), tag)
}

/// `g` preprocessed and saved: its bytes and its path.
fn saved_index_of(g: &Graph, tag: &str) -> (Vec<u8>, PathBuf) {
    let bear = Bear::new(g, &BearConfig::exact(0.15)).unwrap();
    let path = std::env::temp_dir().join(format!("bear_corrupt_{tag}.idx"));
    bear.save(&path).unwrap();
    (std::fs::read(&path).unwrap(), path)
}

/// Re-fixes checksums over the surgically corrupted bytes, writes them,
/// and asserts both loads reject them with the corruption taxonomy. A
/// resident load decodes every shard, so it must fail at load. A paged
/// load checks only the shard CRCs up front and decodes a shard on first
/// use, so damage inside a shard may surface at the first query touching
/// it instead — typed, never a panic, never an answer. Returns the
/// resident load's error for detail checks.
fn assert_rejected(bytes: &[u8], path: &PathBuf, what: &str) -> Error {
    let mut fixed = bytes.to_vec();
    fix_checksums(&mut fixed);
    std::fs::write(path, &fixed).unwrap();
    let resident = Bear::load_with(path, &LoadOptions { resident: true, ..Default::default() });
    let paged = Bear::load(path);
    std::fs::remove_file(path).ok();
    let err = match resident {
        Ok(_) => panic!("corrupt index ({what}) was accepted by a resident load"),
        Err(e @ Error::CorruptIndex { .. }) => e,
        Err(e) => panic!("corrupt index ({what}) must fail typed, got: {e:?}"),
    };
    match paged {
        Err(Error::CorruptIndex { .. }) => {}
        Err(e) => panic!("corrupt index ({what}) must fail a paged load typed, got: {e:?}"),
        Ok(bear) => {
            let failed = (0..bear.num_nodes()).find_map(|seed| match bear.query(seed) {
                Ok(_) => None,
                Err(e @ Error::CorruptIndex { .. }) => Some(e),
                Err(e) => panic!("corrupt shard ({what}) surfaced untyped: {e:?}"),
            });
            assert!(failed.is_some(), "corrupt index ({what}) was accepted end to end");
        }
    }
    err
}

/// The first matrix (in file order) with a multi-entry first compressed
/// segment whose leading indices are strictly increasing — guaranteed to
/// exist here because `h21`'s hub row spans every spoke.
fn multi_entry_matrix(bytes: &[u8], layout: &Layout) -> MatrixSpan {
    *layout
        .matrices
        .iter()
        .find(|m| {
            m.indices.len >= 2
                && read_u64_at(bytes, m.indptr.elem(1)) >= 2
                && read_u64_at(bytes, m.indices.elem(0)) < read_u64_at(bytes, m.indices.elem(1))
        })
        .expect("test graph yields a matrix with a sorted multi-entry segment")
}

#[test]
fn unsorted_indices_are_rejected() {
    let (mut bytes, path) = saved_index("unsorted");
    let layout = walk(&bytes);
    let m = multi_entry_matrix(&bytes, &layout);
    let (a, b) = (read_u64_at(&bytes, m.indices.elem(0)), read_u64_at(&bytes, m.indices.elem(1)));
    write_u64_at(&mut bytes, m.indices.elem(0), b);
    write_u64_at(&mut bytes, m.indices.elem(1), a);
    assert_rejected(&bytes, &path, "unsorted column indices");
}

#[test]
fn duplicate_indices_are_rejected() {
    let (mut bytes, path) = saved_index("duplicate");
    let layout = walk(&bytes);
    let m = multi_entry_matrix(&bytes, &layout);
    let first = read_u64_at(&bytes, m.indices.elem(0));
    write_u64_at(&mut bytes, m.indices.elem(1), first);
    assert_rejected(&bytes, &path, "duplicate indices in one segment");
}

#[test]
fn out_of_bounds_index_is_rejected() {
    let (mut bytes, path) = saved_index("oob_index");
    let layout = walk(&bytes);
    // h21 is CSR (last matrix): its indices are column ids < ncols.
    let m = layout.matrices[3];
    assert!(m.indices.len >= 1);
    write_u64_at(&mut bytes, m.indices.elem(0), m.ncols as u64);
    assert_rejected(&bytes, &path, "index beyond the inner dimension");
}

#[test]
fn broken_indptr_is_rejected() {
    let (mut bytes, path) = saved_index("indptr");
    let layout = walk(&bytes);
    let m = layout.matrices[2]; // h12
    let last = m.indptr.elem(m.indptr.len - 1);
    let v = read_u64_at(&bytes, last);
    write_u64_at(&mut bytes, last, v + 1);
    assert_rejected(&bytes, &path, "indptr not matching nnz");
}

#[test]
fn nan_value_is_rejected_with_typed_error() {
    let (mut bytes, path) = saved_index("nan");
    let layout = walk(&bytes);
    let m = layout.matrices[0]; // l2_inv: unit-diagonal inverse, nonempty
    assert!(m.values.len >= 1);
    bytes[m.values.elem(0)..m.values.elem(0) + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let err = assert_rejected(&bytes, &path, "NaN value payload");
    // The non-finite audit fires beneath the checksums and surfaces
    // through the corruption taxonomy naming the owning section.
    assert!(
        matches!(err, Error::CorruptIndex { section: "l2_inv", .. }),
        "want CorruptIndex for l2_inv, got: {err:?}"
    );
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

#[test]
fn infinite_value_is_rejected() {
    let (mut bytes, path) = saved_index("inf");
    let layout = walk(&bytes);
    let m = layout.matrices[1]; // u2_inv
    assert!(m.values.len >= 1);
    bytes[m.values.elem(0)..m.values.elem(0) + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
    let err = assert_rejected(&bytes, &path, "infinite value payload");
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

#[test]
fn non_bijective_permutation_is_rejected() {
    let (mut bytes, path) = saved_index("perm_dup");
    let layout = walk(&bytes);
    assert!(layout.perm.len >= 2);
    let first = read_u64_at(&bytes, layout.perm.elem(0));
    write_u64_at(&mut bytes, layout.perm.elem(1), first);
    assert_rejected(&bytes, &path, "duplicate permutation entry");
}

#[test]
fn out_of_bounds_permutation_is_rejected() {
    let (mut bytes, path) = saved_index("perm_oob");
    let layout = walk(&bytes);
    write_u64_at(&mut bytes, layout.perm.elem(0), layout.perm.len as u64);
    assert_rejected(&bytes, &path, "permutation entry beyond n");
}

#[test]
fn block_size_sum_mismatch_is_rejected() {
    let (mut bytes, path) = saved_index("blocks");
    let layout = walk(&bytes);
    assert!(layout.block_sizes.len >= 1, "partition has at least one block");
    let pos = layout.block_sizes.elem(0);
    let v = read_u64_at(&bytes, pos);
    write_u64_at(&mut bytes, pos, v + 1);
    let err = assert_rejected(&bytes, &path, "block sizes not summing to n1");
    assert!(format!("{err}").contains("dimensions"), "unexpected error: {err}");
}

/// Block sizes that still sum to `n₁`, and to the shard's dimension, but
/// cut through a spoke block: the checksum-valid shard then holds an
/// entry across a block boundary. A hub joined to three 3-node chains
/// leaves each chain as one spoke block with dense triangular inverse
/// factors, all three in one unit; moving one row from the first
/// block's size to the second's puts a stored `L₁⁻¹`/`U₁⁻¹` entry
/// outside its column's block. The top-k resolve reads only the
/// diagonal blocks, so the loader must refuse the shard, naming it,
/// rather than serve answers that drop the entry.
#[test]
fn shard_entry_outside_its_block_is_rejected() {
    let mut edges = Vec::new();
    for first in [1, 4, 7] {
        edges.extend([(0, first), (first, 0)]);
        for i in first..first + 2 {
            edges.extend([(i, i + 1), (i + 1, i)]);
        }
    }
    let (mut bytes, path) = saved_index_of(&Graph::from_edges(10, &edges).unwrap(), "cross_block");
    let layout = walk(&bytes);
    let size = |i: usize| read_u64_at(&bytes, layout.block_sizes.elem(i));
    assert!(layout.block_sizes.len >= 2 && size(0) >= 2, "chains make multi-node spoke blocks");
    let (first, second) = (size(0), size(1));
    write_u64_at(&mut bytes, layout.block_sizes.elem(0), first - 1);
    write_u64_at(&mut bytes, layout.block_sizes.elem(1), second + 1);
    let err = assert_rejected(&bytes, &path, "spoke factor entry outside its block");
    assert!(
        matches!(&err, Error::CorruptIndex { section: "spoke_segment", detail }
            if detail.starts_with("shard 0: ") && detail.contains("outside block")),
        "unexpected error: {err}"
    );
}

/// Satellite regression: on-disk `u64` header dimensions near the top of
/// the range must fail typed everywhere. `n1`/`n2` are raw META payload
/// words (not length prefixes), so no bounded reader ever sees them;
/// before the checked conversions, `n1 + n2` overflowed (a panic in
/// debug builds, a wrapped bogus `n` in release) and on 32-bit targets
/// the `as usize` truncated them into valid-looking small values.
#[test]
fn huge_header_dimensions_are_rejected_not_overflowed() {
    for (tag, n1, n2) in [
        ("huge_both", u64::MAX, u64::MAX),
        ("huge_n1", u64::MAX, 2),
        ("huge_sum", u64::MAX / 2 + 1, u64::MAX / 2 + 1),
    ] {
        let (mut bytes, path) = saved_index(tag);
        let meta = walk(&bytes).meta;
        write_u64_at(&mut bytes, meta, n1);
        write_u64_at(&mut bytes, meta + 8, n2);
        let err = assert_rejected(&bytes, &path, "huge n1/n2 header");
        assert!(matches!(err, Error::CorruptIndex { .. }), "want typed error, got: {err:?}");
    }
}

/// Satellite regression: a huge element inside a `usize` array (here a
/// permutation entry at `u64::MAX`) must be rejected by the checked
/// conversion / validation path, never truncated by `as usize` into an
/// in-bounds id on narrower targets.
#[test]
fn huge_usize_array_element_is_rejected() {
    let (mut bytes, path) = saved_index("huge_elem");
    let layout = walk(&bytes);
    write_u64_at(&mut bytes, layout.perm.elem(0), u64::MAX);
    assert_rejected(&bytes, &path, "u64::MAX permutation entry");
}

#[test]
fn untouched_round_trip_still_loads() {
    // Control: the walker itself proves the layout assumption, the
    // checksum fixer changes nothing on an unmodified image, and that
    // image still loads and answers after all the hardening.
    let (bytes, path) = saved_index("control");
    let mut fixed = bytes.clone();
    fix_checksums(&mut fixed);
    assert_eq!(fixed, bytes);
    let loaded = Bear::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.num_nodes(), 12);
    loaded.query(0).unwrap();
}

// ---------------------------------------------------------------------------
// Shard and directory surgery
// ---------------------------------------------------------------------------

/// A shard's first-block, block-count and dimension words each disagree
/// with the directory: typed corruption naming the shard.
#[test]
fn shard_header_disagreeing_with_the_directory_is_rejected() {
    for (word, what) in [(0, "first block"), (1, "block count"), (2, "dimension")] {
        let (mut bytes, path) = saved_index(&format!("shard_word_{word}"));
        let at = walk(&bytes).shards[0] + 8 * word;
        let v = read_u64_at(&bytes, at);
        write_u64_at(&mut bytes, at, v + 1);
        let err = assert_rejected(&bytes, &path, what);
        assert!(
            matches!(&err, Error::CorruptIndex { section: "spoke_segment", detail }
                if detail.starts_with("shard 0: ")),
            "{what}: want the shard named, got: {err:?}"
        );
    }
}

#[test]
fn shard_nan_value_is_rejected() {
    let (mut bytes, path) = saved_index("shard_nan");
    // Payload: first block, block count, dimension, then l1
    // indptr/indices/values as length-prefixed arrays; poison the first
    // l1 value (the factor has a unit diagonal, so a value exists).
    let mut pos = walk(&bytes).shards[0] + 24;
    let _indptr = walk_array(&bytes, &mut pos);
    let _indices = walk_array(&bytes, &mut pos);
    let values = walk_array(&bytes, &mut pos);
    bytes[values.elem(0)..values.elem(0) + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let err = assert_rejected(&bytes, &path, "NaN in a shard's values");
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

/// A directory whose shards do not tile the blocks in order — one claims
/// a block more than it holds, whatever its payload says — is refused at
/// load, before any shard is decoded.
#[test]
fn shard_directory_that_does_not_tile_the_blocks_is_rejected() {
    let (mut bytes, path) = saved_index("sdir_tiling");
    let layout = walk(&bytes);
    let blocks = layout.sdir + 8 + 32; // entry 0's block count
    let v = read_u64_at(&bytes, blocks);
    write_u64_at(&mut bytes, blocks, v + 1);
    let err = assert_rejected(&bytes, &path, "directory past the blocks");
    assert!(
        matches!(err, Error::CorruptIndex { section: "segment_directory", .. }),
        "want the directory named, got: {err:?}"
    );
}
