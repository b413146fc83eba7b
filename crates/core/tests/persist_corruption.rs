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
//! The v2 format checksums every section and the whole file, so naive
//! surgery would be caught by the CRCs before the structural validators
//! ever ran. To keep exercising the deeper layer, each corrupted image
//! has its checksums *re-fixed* ([`fix_checksums`]) before loading —
//! simulating an adversarial or wrote-garbage-honestly artifact whose
//! integrity envelope is intact but whose content is wrong. (Checksum
//! violations themselves are covered by `crash_injection.rs`.)
//!
//! The byte walker below mirrors the `BEARIDX2` layout written by
//! `Bear::save`: magic(8), then ten framed sections
//! (`tag(4) len(8) payload crc(4)`) in order META, PERM, BSIZ, DEGS and
//! six matrices (`l1_inv`, `u1_inv`, `l2_inv`, `u2_inv` as CSC; `h12`,
//! `h21` as CSR — each `nrows(8) ncols(8)` + length-prefixed
//! indptr/indices/values), then the 20-byte trailer.

use bear_core::{crc32, Bear, BearConfig};
use bear_graph::Graph;
use bear_sparse::Error;
use std::path::PathBuf;

/// Trailer layout: magic (8) + whole-file crc32 (4) + file length (8).
const TRAILER_LEN: usize = 20;

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

/// Parsed layout of a saved v2 index file.
struct Layout {
    /// Offset of the META payload (`n1(8) n2(8) c(8)`).
    meta: usize,
    perm: ArraySpan,
    block_sizes: ArraySpan,
    /// `l1_inv, u1_inv, l2_inv, u2_inv, h12, h21` in file order.
    matrices: [MatrixSpan; 6],
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

/// `(payload offset, payload length)` for each of the ten v2 frames.
fn walk_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&bytes[..8], b"BEARIDX2");
    let trailer_off = bytes.len() - TRAILER_LEN;
    let mut pos = 8;
    let mut frames = Vec::new();
    while pos < trailer_off {
        let len = read_u64_at(bytes, pos + 4) as usize;
        frames.push((pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos, trailer_off, "walker must consume every section exactly");
    frames
}

fn walk(bytes: &[u8]) -> Layout {
    let frames = walk_frames(bytes);
    assert_eq!(frames.len(), 10, "v2 file has ten sections");
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
    Layout { meta: frames[0].0, perm: raw(frames[1]), block_sizes: raw(frames[2]), matrices }
}

/// Recomputes every section CRC and the trailer after payload surgery
/// (lengths unchanged), so the corruption reaches the structural
/// validators instead of bouncing off the checksums.
fn fix_checksums(bytes: &mut [u8]) {
    let trailer_off = bytes.len() - TRAILER_LEN;
    let mut pos = 8;
    while pos < trailer_off {
        let len = read_u64_at(bytes, pos + 4) as usize;
        let payload_end = pos + 12 + len;
        let crc = crc32::crc32(&bytes[pos + 12..payload_end]);
        bytes[payload_end..payload_end + 4].copy_from_slice(&crc.to_le_bytes());
        pos = payload_end + 4;
    }
    let file_crc = crc32::crc32(&bytes[..trailer_off]);
    bytes[trailer_off + 8..trailer_off + 12].copy_from_slice(&file_crc.to_le_bytes());
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

/// `g` preprocessed and saved as a v2 index: its bytes and its path.
fn saved_index_of(g: &Graph, tag: &str) -> (Vec<u8>, PathBuf) {
    let bear = Bear::new(g, &BearConfig::exact(0.15)).unwrap();
    let path = std::env::temp_dir().join(format!("bear_corrupt_{tag}.idx"));
    bear.save(&path).unwrap();
    (std::fs::read(&path).unwrap(), path)
}

/// Re-fixes checksums over the surgically corrupted bytes, writes them,
/// and asserts `Bear::load` rejects them with the corruption taxonomy.
fn assert_rejected(bytes: &[u8], path: &PathBuf, what: &str) -> Error {
    let mut fixed = bytes.to_vec();
    fix_checksums(&mut fixed);
    std::fs::write(path, &fixed).unwrap();
    let result = Bear::load(path);
    std::fs::remove_file(path).ok();
    match result {
        Ok(_) => panic!("corrupt index ({what}) was accepted"),
        Err(e) => {
            assert!(
                matches!(e, Error::CorruptIndex { .. }),
                "corrupt index ({what}) must fail typed, got: {e:?}"
            );
            e
        }
    }
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
    let m = layout.matrices[5];
    assert!(m.indices.len >= 1);
    write_u64_at(&mut bytes, m.indices.elem(0), m.ncols as u64);
    assert_rejected(&bytes, &path, "index beyond the inner dimension");
}

#[test]
fn broken_indptr_is_rejected() {
    let (mut bytes, path) = saved_index("indptr");
    let layout = walk(&bytes);
    let m = layout.matrices[4]; // h12
    let last = m.indptr.elem(m.indptr.len - 1);
    let v = read_u64_at(&bytes, last);
    write_u64_at(&mut bytes, last, v + 1);
    assert_rejected(&bytes, &path, "indptr not matching nnz");
}

#[test]
fn nan_value_is_rejected_with_typed_error() {
    let (mut bytes, path) = saved_index("nan");
    let layout = walk(&bytes);
    let m = layout.matrices[0]; // l1_inv: unit-diagonal inverse, nonempty
    assert!(m.values.len >= 1);
    bytes[m.values.elem(0)..m.values.elem(0) + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let err = assert_rejected(&bytes, &path, "NaN value payload");
    // The non-finite audit fires beneath the checksums and surfaces
    // through the corruption taxonomy naming the owning section.
    assert!(
        matches!(err, Error::CorruptIndex { section: "l1_inv", .. }),
        "want CorruptIndex for l1_inv, got: {err:?}"
    );
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

#[test]
fn infinite_value_is_rejected() {
    let (mut bytes, path) = saved_index("inf");
    let layout = walk(&bytes);
    let m = layout.matrices[2]; // l2_inv
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

/// Block sizes that still sum to `n₁` but cut through a spoke block. A
/// hub joined to three 3-node chains leaves each chain as one spoke
/// block with dense triangular inverse factors; moving one unit from
/// the first block's size to the second's puts a stored `L₁⁻¹`/`U₁⁻¹`
/// entry outside its column's block. The per-block spoke sweep reads
/// only the diagonal blocks, so the loader must refuse the factors
/// rather than serve answers that drop the entry.
#[test]
fn spoke_entry_outside_its_block_is_rejected() {
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
    assert!(format!("{err}").contains("outside block"), "unexpected error: {err}");
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
    // Control: the walker itself proves the layout assumption, and an
    // unmodified file still loads after all the hardening.
    let (bytes, path) = saved_index("control");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = Bear::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.num_nodes(), 12);
}

// ---------------------------------------------------------------------------
// v3 shard surgery
// ---------------------------------------------------------------------------
//
// The sharded v3 layout wraps each spoke block in its own CRC frame
// (`SPKB tag(4) len(8) payload crc(4)`) before the resident region and a
// 28-byte trailer. As above, naive surgery bounces off the checksums, so
// [`fix_checksums_v3`] re-fixes the whole chain — segment frame CRC, the
// copy of it inside the `SDIR` directory, every resident section CRC,
// and the trailer's resident-region CRC — so the corruption reaches the
// segment *decoder*. Decoding is lazy (the load-time sweep only checks
// CRCs), so the contract under content corruption is: the load may
// succeed, but the first query touching the shard must fail with the
// typed `CorruptIndex` naming it — never a panic, never a wrong answer.

/// Trailer layout: magic (8) + region crc32 (4) + resident_off (8) +
/// total length (8).
const TRAILER_LEN_V3: usize = 28;

/// `(payload offset, payload length)` of every `SPKB` segment frame.
fn walk_segments_v3(bytes: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&bytes[..8], b"BEARIDX3");
    let trailer_off = bytes.len() - TRAILER_LEN_V3;
    let resident_off = read_u64_at(bytes, trailer_off + 12) as usize;
    let mut pos = 8;
    let mut segments = Vec::new();
    while pos < resident_off {
        assert_eq!(&bytes[pos..pos + 4], b"SPKB", "segment walker off the rails");
        let len = read_u64_at(bytes, pos + 4) as usize;
        segments.push((pos + 12, len));
        pos += 12 + len + 4;
    }
    assert_eq!(pos, resident_off, "walker must consume every segment exactly");
    segments
}

/// Recomputes the full v3 checksum chain after payload surgery.
fn fix_checksums_v3(bytes: &mut [u8]) {
    let trailer_off = bytes.len() - TRAILER_LEN_V3;
    let resident_off = read_u64_at(bytes, trailer_off + 12) as usize;
    // Segment frames and their fresh CRCs, in block order.
    let segments = walk_segments_v3(bytes);
    let mut seg_crcs = Vec::with_capacity(segments.len());
    for &(payload, len) in &segments {
        let crc = crc32::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
        seg_crcs.push(crc);
    }
    // Resident sections: update the SDIR payload's crc column first,
    // then re-fix every section frame CRC.
    let mut pos = resident_off;
    while pos < trailer_off {
        let tag: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = read_u64_at(bytes, pos + 4) as usize;
        let payload = pos + 12;
        if &tag == b"SDIR" {
            let count = read_u64_at(bytes, payload) as usize;
            assert_eq!(count, seg_crcs.len(), "directory count must match the segment walk");
            for (i, &crc) in seg_crcs.iter().enumerate() {
                // Entry: offset, frame_len, crc, block_dim, l1_nnz, u1_nnz.
                let entry = payload + 8 + i * 48;
                write_u64_at(bytes, entry + 16, u64::from(crc));
            }
        }
        let crc = crc32::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
        pos = payload + len + 4;
    }
    let region_crc = crc32::crc32(&bytes[resident_off..trailer_off]);
    bytes[trailer_off + 8..trailer_off + 12].copy_from_slice(&region_crc.to_le_bytes());
}

/// Same graph as [`saved_index`], persisted in the sharded v3 layout.
fn saved_index_v3(tag: &str) -> (Vec<u8>, PathBuf) {
    let mut edges = Vec::new();
    for v in 1..12 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    edges.push((5, 6));
    edges.push((6, 5));
    let g = Graph::from_edges(12, &edges).unwrap();
    let bear = Bear::new(&g, &BearConfig::exact(0.15)).unwrap();
    let path = std::env::temp_dir().join(format!("bear_corrupt_v3_{tag}.idx"));
    bear.save_v3(&path).unwrap();
    (std::fs::read(&path).unwrap(), path)
}

/// Re-fixes the v3 checksum chain, writes the image, and asserts the
/// corruption surfaces typed — at load, or (lazy decode) at the first
/// query touching the shard. Returns the typed error for detail checks.
fn assert_v3_rejected(bytes: &[u8], path: &PathBuf, what: &str) -> Error {
    let mut fixed = bytes.to_vec();
    fix_checksums_v3(&mut fixed);
    std::fs::write(path, &fixed).unwrap();
    let result = Bear::load(path);
    let err = match result {
        Err(e) => {
            assert!(
                matches!(e, Error::CorruptIndex { .. }),
                "corrupt v3 index ({what}) must fail typed at load, got: {e:?}"
            );
            e
        }
        Ok(bear) => {
            // CRC-consistent content corruption is caught by the lazy
            // segment decoder: some query must fail typed; none may
            // panic or answer from the damaged shard.
            let mut first = None;
            for seed in 0..bear.num_nodes() {
                match bear.query(seed) {
                    Ok(_) => {}
                    Err(e @ Error::CorruptIndex { .. }) => {
                        first = Some(e);
                        break;
                    }
                    Err(e) => panic!("corrupt v3 shard ({what}) surfaced untyped: {e:?}"),
                }
            }
            first.unwrap_or_else(|| panic!("corrupt v3 index ({what}) was accepted end to end"))
        }
    };
    std::fs::remove_file(path).ok();
    err
}

#[test]
fn v3_segment_wrong_block_index_is_rejected() {
    let (mut bytes, path) = saved_index_v3("blockidx");
    let segments = walk_segments_v3(&bytes);
    // First payload word is the block index; claim block 0 is block 1.
    let (payload, _) = segments[0];
    write_u64_at(&mut bytes, payload, 1);
    let err = assert_v3_rejected(&bytes, &path, "segment block-index mismatch");
    assert!(
        matches!(err, Error::CorruptIndex { section: "spoke_segment", .. }),
        "want the shard section named, got: {err:?}"
    );
    assert!(format!("{err}").contains("shard 0"), "detail must name the shard: {err}");
}

#[test]
fn v3_segment_wrong_dimension_is_rejected() {
    let (mut bytes, path) = saved_index_v3("dim");
    let segments = walk_segments_v3(&bytes);
    // Second payload word is the block dimension; disagree with the
    // directory.
    let (payload, _) = segments[0];
    let dim = read_u64_at(&bytes, payload + 8);
    write_u64_at(&mut bytes, payload + 8, dim + 1);
    let err = assert_v3_rejected(&bytes, &path, "segment dimension mismatch");
    assert!(
        matches!(err, Error::CorruptIndex { section: "spoke_segment", .. }),
        "want the shard section named, got: {err:?}"
    );
}

#[test]
fn v3_segment_nan_value_is_rejected() {
    let (mut bytes, path) = saved_index_v3("nan");
    let segments = walk_segments_v3(&bytes);
    // Payload: block(8) dim(8), then l1 indptr/indices/values as
    // length-prefixed arrays; poison the first l1 value (the factor has
    // a unit diagonal, so at least one value exists per block).
    let (payload, _) = segments[0];
    let mut pos = payload + 16;
    let indptr_len = read_u64_at(&bytes, pos) as usize;
    pos += 8 + 8 * indptr_len;
    let indices_len = read_u64_at(&bytes, pos) as usize;
    pos += 8 + 8 * indices_len;
    let values_len = read_u64_at(&bytes, pos) as usize;
    assert!(values_len >= 1, "L1 inverse block must store its unit diagonal");
    bytes[pos + 8..pos + 16].copy_from_slice(&f64::NAN.to_le_bytes());
    let err = assert_v3_rejected(&bytes, &path, "NaN in a shard's values");
    assert!(format!("{err}").contains("non-finite"), "detail lost the root cause: {err}");
}

#[test]
fn v3_untouched_round_trip_still_loads_and_answers() {
    // Control: the v3 walker and checksum fixer are sound — a re-fixed
    // but unmodified image loads and pages correctly.
    let (mut bytes, path) = saved_index_v3("control");
    fix_checksums_v3(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let loaded = Bear::load(&path).unwrap();
    assert_eq!(loaded.num_nodes(), 12);
    loaded.query(0).unwrap();
    std::fs::remove_file(&path).ok();
}
