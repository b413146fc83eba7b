//! Deterministic torn-write / crash-injection suite for index
//! durability (requires `--features failpoints` for the save-path
//! cases; the byte-sweep cases run under default features too and are
//! duplicated here so one binary holds the whole durability contract).
//!
//! The contract under test: **every prefix or single-bit corruption of
//! a valid index either loads bit-identically or fails with
//! `Error::CorruptIndex` — never a panic, never an index that would
//! serve wrong answers.** And on the write side: **a crash (injected
//! failure) at any step of `Bear::save` or `preprocess_to_disk` leaves
//! the previous index intact and loadable; only a fully synced, renamed
//! image ever occupies the target path.** Both write through one shard
//! writer and one temp-file writer, and every shard carries its own CRC
//! frame, so damage anywhere — a shard, the directory, the resident
//! region, the trailer — fails typed at load, resident or paged, never
//! at query time from a page fault.
//!
//! Run via:
//!
//! ```text
//! cargo test -p bear-core --test crash_injection --features failpoints
//! ```

use bear_core::{Bear, BearConfig, LoadOptions};
use bear_graph::Graph;
use bear_sparse::Error;
use std::path::PathBuf;

#[cfg(feature = "failpoints")]
use bear_core::failpoints::{self, FailAction};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The failpoint registry is process-global, so an armed case must not
/// overlap any other test that saves: a site armed by one test would
/// fail another test's save. Every test here holds this lock for its
/// whole body; under the `failpoints` feature the guard disarms every
/// site on drop (including panics).
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

fn serial() -> Serial {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard =
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    #[cfg(feature = "failpoints")]
    failpoints::clear_all();
    Serial(guard)
}

#[cfg(feature = "failpoints")]
impl Drop for Serial {
    fn drop(&mut self) {
        failpoints::clear_all();
    }
}

fn test_graph() -> Graph {
    let mut edges = Vec::new();
    for v in 1..14 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    edges.push((4, 5));
    edges.push((5, 4));
    edges.push((9, 10));
    edges.push((10, 9));
    Graph::from_edges(14, &edges).unwrap()
}

fn build() -> Bear {
    Bear::new(&test_graph(), &BearConfig::exact(0.15)).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

/// No stray `.tmp.` artifacts in the temp directory for this test's
/// index name — the atomic writer must clean up after injected crashes.
fn assert_no_temp_files(stem: &str) {
    let dir = std::env::temp_dir();
    let strays: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(stem) && n.contains(".tmp."))
        .collect();
    assert!(strays.is_empty(), "stray temp files left behind: {strays:?}");
}

// ---------------------------------------------------------------------------
// Read-side property sweep (default features): every truncation and
// every probed bit flip of a valid image fails typed, never panics.
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_fails_typed_or_loads_identically() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_trunc_sweep.idx");
    bear.save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    let reference = bear.query(3).unwrap();

    // Every prefix length: cheap enough at this index size (a few KB)
    // to be exhaustive rather than sampled.
    for keep in 0..=full.len() {
        std::fs::write(&path, &full[..keep]).unwrap();
        match Bear::load(&path) {
            Ok(loaded) => {
                assert_eq!(keep, full.len(), "a strict prefix ({keep} bytes) loaded");
                assert_eq!(loaded.query(3).unwrap(), reference);
            }
            Err(Error::CorruptIndex { .. }) => {}
            Err(other) => panic!("truncation to {keep} bytes: untyped error {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_probed_bit_flip_fails_typed_at_load() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_flip_sweep.idx");
    bear.save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    let reference = bear.query(7).unwrap();
    let resident = LoadOptions { resident: true, ..LoadOptions::default() };

    // Probe every byte with a stride-free single-bit flip (bit index
    // varies with position so all eight bit lanes are covered).
    for byte in 0..full.len() {
        let bit = byte % 8;
        let mut bytes = full.clone();
        bytes[byte] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // A flip must never be silently absorbed, by either load: the
        // paged load CRC-checks every shard up front and the resident
        // load reads each once. (CRC-32 detects all single-bit errors,
        // so Ok here would mean the byte is outside the checksummed span
        // — there is no such byte.)
        for loaded in [Bear::load(&path), Bear::load_with(&path, &resident)] {
            match loaded {
                Ok(_) => panic!("bit flip at byte {byte} bit {bit} was absorbed"),
                Err(Error::CorruptIndex { .. }) => {}
                Err(other) => panic!("flip at byte {byte} bit {bit}: untyped error {other:?}"),
            }
        }
    }

    // Control: the unflipped image still answers identically.
    std::fs::write(&path, &full).unwrap();
    assert_eq!(Bear::load(&path).unwrap().query(7).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_over_existing_index_replaces_it_atomically() {
    let _serial = serial();
    let a = build();
    let path = tmp("bear_crash_replace.idx");
    a.save(&path).unwrap();
    let first = std::fs::read(&path).unwrap();
    // Saving again (same index) must go through the temp+rename path and
    // land byte-identically; a direct overwrite could tear.
    a.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), first);
    assert_no_temp_files("bear_crash_replace");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Write-side crash injection (failpoints feature).
// ---------------------------------------------------------------------------

/// Arms `site` with `action`, attempts to save `new_index` over an
/// existing good index, asserts the save fails, and proves the previous
/// index is still present bit-for-bit and loadable.
#[cfg(feature = "failpoints")]
fn assert_crash_preserves_target(site: &'static str, action: FailAction, tag: &str) {
    let bear = build();
    let path = tmp(&format!("bear_crash_{tag}.idx"));
    bear.save(&path).unwrap();
    let before = std::fs::read(&path).unwrap();

    failpoints::configure(site, action);
    let err = bear.save(&path).unwrap_err();
    failpoints::clear(site);
    assert!(
        matches!(err, Error::InvalidStructure(_)),
        "injected crash at {site} surfaced oddly: {err:?}"
    );

    assert_eq!(std::fs::read(&path).unwrap(), before, "crash at {site} altered the target");
    Bear::load(&path).unwrap();
    assert_no_temp_files(&format!("bear_crash_{tag}"));
    std::fs::remove_file(&path).ok();
}

#[cfg(feature = "failpoints")]
#[test]
fn crash_before_write_preserves_previous_index() {
    let _serial = serial();
    assert_crash_preserves_target("persist::save::write", FailAction::Fail, "w_fail");
}

#[cfg(feature = "failpoints")]
#[test]
fn torn_write_crash_preserves_previous_index() {
    let _serial = serial();
    // Truncation points must fall inside the image — a cut at or past
    // the end is a complete write, which (correctly) succeeds.
    let probe = tmp("bear_crash_size_probe.idx");
    build().save(&probe).unwrap();
    let size = std::fs::metadata(&probe).unwrap().len();
    std::fs::remove_file(&probe).ok();
    for k in [0, 1, size / 3, size - 1] {
        assert_crash_preserves_target("persist::save::write", FailAction::TruncateAt(k), "w_torn");
    }
}

#[cfg(feature = "failpoints")]
#[test]
fn crash_before_fsync_preserves_previous_index() {
    let _serial = serial();
    assert_crash_preserves_target("persist::save::sync", FailAction::Fail, "sync_fail");
}

#[cfg(feature = "failpoints")]
#[test]
fn rename_failure_preserves_previous_index() {
    let _serial = serial();
    assert_crash_preserves_target("persist::save::rename", FailAction::Fail, "rename_fail");
}

#[cfg(feature = "failpoints")]
#[test]
fn first_save_crash_leaves_no_target_at_all() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_first_save.idx");
    std::fs::remove_file(&path).ok();
    failpoints::configure("persist::save::rename", FailAction::Fail);
    assert!(bear.save(&path).is_err());
    failpoints::clear_all();
    // No target, no temp debris — the failed save is invisible.
    assert!(!path.exists(), "failed first save materialized a target file");
    assert_no_temp_files("bear_crash_first_save");
}

/// The lying-disk scenario: the temp file is corrupted *after* the
/// fsync and the rename then succeeds, so `save` reports Ok with a
/// damaged artifact in place. The durability contract moves to the read
/// side: load must fail typed and quarantine must capture the artifact.
#[cfg(feature = "failpoints")]
#[test]
fn lying_disk_torn_image_is_caught_at_load_and_quarantined() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_lying_trunc.idx");
    let quarantined = tmp("bear_crash_lying_trunc.idx.corrupt");
    std::fs::remove_file(&quarantined).ok();

    bear.save(&path).unwrap();
    let full_len = std::fs::read(&path).unwrap().len() as u64;

    for k in [0, 8, 27, full_len / 2, full_len - 1] {
        failpoints::configure("persist::save::torn", FailAction::TruncateAt(k));
        bear.save(&path).unwrap(); // the disk lies: save sees success
        failpoints::clear_all();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), k.min(full_len));

        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(
            matches!(err, Error::CorruptIndex { .. }),
            "torn image (cut to {k}) must fail typed, got: {err:?}"
        );
        assert!(!path.exists(), "torn artifact (cut to {k}) was not quarantined");
        assert!(quarantined.exists(), "quarantine file missing for cut {k}");
        std::fs::remove_file(&quarantined).ok();

        // Re-seed a good index for the next round.
        bear.save(&path).unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[cfg(feature = "failpoints")]
#[test]
fn lying_disk_bit_rot_is_caught_at_load() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_lying_flip.idx");
    bear.save(&path).unwrap();
    let bits = std::fs::metadata(&path).unwrap().len() * 8;

    for bit in [0, 63, 64, 1001, bits / 2, bits - 1] {
        failpoints::configure("persist::save::torn", FailAction::BitFlip(bit));
        bear.save(&path).unwrap();
        failpoints::clear_all();

        let err = Bear::load(&path).unwrap_err();
        assert!(
            matches!(err, Error::CorruptIndex { .. }),
            "bit rot at bit {bit} must fail typed, got: {err:?}"
        );
        bear.save(&path).unwrap();
    }
    std::fs::remove_file(&path).ok();
}

/// `preprocess_to_disk` (what `bear preprocess --out-of-core` runs)
/// streams each unit's shard to the temp file as it is factored and
/// commits at the end. A crash at any step, or a torn write cut at any
/// length, must leave the previous index byte-identical and loadable,
/// with no temp file behind.
#[cfg(feature = "failpoints")]
#[test]
fn streamed_preprocess_crash_preserves_previous_index() {
    let _serial = serial();
    let (g, cfg) = (test_graph(), BearConfig::exact(0.15));
    let path = tmp("bear_crash_streamed.idx");
    bear_core::preprocess_to_disk(&g, &cfg, &path).unwrap();
    let before = std::fs::read(&path).unwrap();
    let size = before.len() as u64;

    let mut cases: Vec<(&'static str, FailAction)> = vec![
        ("persist::save::write", FailAction::Fail),
        ("persist::save::sync", FailAction::Fail),
        ("persist::save::rename", FailAction::Fail),
    ];
    for k in [0, 1, size / 4, size / 2, size - 1] {
        cases.push(("persist::save::write", FailAction::TruncateAt(k)));
    }
    for (site, action) in cases {
        failpoints::configure(site, action.clone());
        let err = bear_core::preprocess_to_disk(&g, &cfg, &path).unwrap_err();
        failpoints::clear(site);
        assert!(
            matches!(err, Error::InvalidStructure(_)),
            "injected crash {action:?} at {site} surfaced oddly: {err:?}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "crash {action:?} at {site} altered the target"
        );
        Bear::load(&path).unwrap();
        assert_no_temp_files("bear_crash_streamed");
    }
    std::fs::remove_file(&path).ok();
}
