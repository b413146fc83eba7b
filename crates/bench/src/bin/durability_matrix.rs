//! Durability failure matrix: exercises the read-side corruption
//! contract over a grid of damage patterns and records the outcome of
//! every cell — the artifact CI uploads so a regression shows exactly
//! which damage class started slipping through.
//!
//! The grid runs over the index format (`BEARIDX4`): cells anywhere in
//! the file, cells aimed at the shard layout (shard-boundary truncations
//! and bit flips inside a shard payload, the shard directory, and the
//! trailer), and images of the retired formats. Each cell applies one
//! corruption (truncation to a fraction of the file, a single bit flip
//! at a position, header garbage, trailing junk) and asserts the
//! durability contract: a paged `Bear::load` and a resident load must
//! each either return the typed `CorruptIndex` error or — only when the
//! damage is a full-length no-op — answer bit-identically to the
//! undamaged index. Any panic, untyped error, or silently absorbed
//! corruption fails the run.
//!
//! ```text
//! cargo run --release -p bear-bench --bin durability_matrix -- \
//!     [--dataset small_routing] [--json results/DURABILITY_matrix.json]
//! ```

use bear_bench::harness::{ExperimentResult, ResultRow};
use bear_core::{persist, Bear, BearConfig, LoadOptions};
use bear_sparse::Error;
use std::path::PathBuf;

struct Cell {
    /// Damage class label (JSON `method` column, prefixed with the
    /// format version).
    class: &'static str,
    /// Cell parameter (offset/fraction description).
    param: String,
    /// The damaged image.
    bytes: Vec<u8>,
}

/// Trailer length: magic, resident-region crc, resident offset, file
/// length.
const TRAILER_LEN: usize = 28;

/// The damage grid over the whole file.
fn cells(full: &[u8]) -> Vec<Cell> {
    let trailer_len = TRAILER_LEN;
    let len = full.len();
    let mut cells = Vec::new();
    // Torn writes: prefixes at coarse fractions plus the exact frame
    // boundaries most likely to be "almost valid".
    for (tag, keep) in [
        ("empty", 0),
        ("magic_only", 8),
        ("1/16", len / 16),
        ("1/4", len / 4),
        ("1/2", len / 2),
        ("3/4", 3 * len / 4),
        ("all_but_trailer", len.saturating_sub(trailer_len)),
        ("all_but_one", len - 1),
    ] {
        cells.push(Cell {
            class: "truncate",
            param: format!("{tag} ({keep} bytes)"),
            bytes: full[..keep].to_vec(),
        });
    }
    // Bit rot: single flips spread across the span, including the
    // header, the first payload, and the trailer checksum itself.
    for byte in [0, 7, 9, 33, len / 3, len / 2, len - trailer_len - 1, len - 9, len - 1] {
        let mut bytes = full.to_vec();
        bytes[byte] ^= 1 << (byte % 8);
        cells.push(Cell { class: "bit_flip", param: format!("byte {byte}"), bytes });
    }
    // Wrong or garbage header.
    let mut wrong_magic = full.to_vec();
    wrong_magic[..8].copy_from_slice(b"NOTBEAR!");
    cells.push(Cell { class: "header", param: "wrong magic".into(), bytes: wrong_magic });
    cells.push(Cell { class: "header", param: "garbage".into(), bytes: vec![0x5A; 256] });
    // Retired formats: the same image under an old magic.
    for magic in [b"BEARIDX2", b"BEARIDX3"] {
        let mut old = full.to_vec();
        old[..8].copy_from_slice(magic);
        let param = format!("retired magic {}", String::from_utf8_lossy(magic));
        cells.push(Cell { class: "header", param, bytes: old });
    }
    // Appended junk: the trailer records the true length, so trailing
    // bytes are torn-write debris and must be rejected.
    let mut padded = full.to_vec();
    padded.extend_from_slice(&[0u8; 64]);
    cells.push(Cell { class: "append", param: "64 junk bytes".into(), bytes: padded });
    cells
}

/// Cells aimed at the shard layout: cuts on and inside shard frames,
/// flips in a shard payload, the resident region (which holds the
/// `SDIR` shard directory), and the trailer's resident-offset field.
fn shard_cells(full: &[u8]) -> Vec<Cell> {
    let read_u64 =
        |pos: usize| u64::from_le_bytes(full[pos..pos + 8].try_into().expect("u64 window"));
    let trailer_off = full.len() - TRAILER_LEN;
    let resident_off = read_u64(trailer_off + 12) as usize;
    let mut cells = Vec::new();

    if resident_off > 8 {
        // First shard frame: tag(4) len(8) payload crc(4) at offset 8.
        let seg0_payload_len = read_u64(12) as usize;
        let seg0_end = 8 + 12 + seg0_payload_len + 4;
        for (tag, keep) in [
            ("mid_first_shard", 8 + 12 + seg0_payload_len / 2),
            ("first_shard_boundary", seg0_end),
            ("shards_only", resident_off),
        ] {
            cells.push(Cell {
                class: "truncate_shard",
                param: format!("{tag} ({keep} bytes)"),
                bytes: full[..keep].to_vec(),
            });
        }
        let inside_seg0 = 8 + 12 + seg0_payload_len / 2;
        let mut bytes = full.to_vec();
        bytes[inside_seg0] ^= 1;
        cells.push(Cell {
            class: "bit_flip_shard",
            param: format!("first shard payload byte {inside_seg0}"),
            bytes,
        });
    }
    let inside_resident = resident_off + (trailer_off - resident_off) / 2;
    let mut bytes = full.to_vec();
    bytes[inside_resident] ^= 0x10;
    cells.push(Cell {
        class: "bit_flip_resident",
        param: format!("resident region byte {inside_resident}"),
        bytes,
    });
    let mut bytes = full.to_vec();
    bytes[trailer_off + 12] ^= 0x01; // resident_off low byte
    cells.push(Cell {
        class: "bit_flip_trailer",
        param: "trailer resident_off field".into(),
        bytes,
    });
    cells
}

/// Runs every cell, appending a row per cell. Returns the number of
/// contract violations.
fn run_grid(
    out: &mut ExperimentResult,
    dataset: &str,
    path: &PathBuf,
    reference: &[f64],
    grid: Vec<Cell>,
) -> u32 {
    let mut failures = 0u32;
    let resident = LoadOptions { resident: true, ..LoadOptions::default() };
    for cell in grid {
        std::fs::write(path, &cell.bytes).expect("write cell");
        let load = std::panic::catch_unwind(|| Bear::load(path));
        let resident_load = std::panic::catch_unwind(|| Bear::load_with(path, &resident));
        let verify = persist::verify_index(path);
        let outcome = match &load {
            Err(_) => {
                failures += 1;
                "PANIC".to_string()
            }
            Ok(Err(Error::CorruptIndex { section, .. })) => format!("typed ({section})"),
            Ok(Err(other)) => {
                failures += 1;
                format!("UNTYPED: {other}")
            }
            Ok(Ok(loaded)) => {
                // Only acceptable if the damage was byte-preserving,
                // which no cell in this grid is.
                failures += 1;
                let identical = loaded
                    .query(0)
                    .map(|s| s.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits()))
                    .unwrap_or(false);
                format!("ABSORBED (bit_identical={identical})")
            }
        };
        // The loads and verify must agree: all reject or all accept.
        let verdicts_agree = matches!((&load, &resident_load),
            (Ok(r), Ok(q)) if r.is_ok() == verify.is_ok() && q.is_ok() == verify.is_ok());
        if !verdicts_agree {
            failures += 1;
        }
        let mut row = ResultRow::new(dataset, &format!("v4_{}", cell.class));
        row.param = Some(format!("{}: load={outcome} verify_agrees={verdicts_agree}", cell.param));
        row.memory_bytes = Some(cell.bytes.len());
        if outcome.starts_with("PANIC")
            || outcome.starts_with("UNTYPED")
            || outcome.starts_with("ABSORBED")
            || !verdicts_agree
        {
            row.failed = Some(outcome.clone());
        }
        out.rows.push(row);
    }
    failures
}

fn main() {
    let args = bear_bench::cli::Args::from_env();
    let dataset = args.get("--dataset").unwrap_or("small_routing").to_string();
    let json_path = args.get("--json").unwrap_or("results/DURABILITY_matrix.json").to_string();

    let spec = bear_datasets::dataset_by_name(&dataset)
        .unwrap_or_else(|| panic!("unknown dataset '{dataset}'"));
    let g = spec.load();
    let bear = Bear::new(&g, &BearConfig::exact(0.05)).expect("preprocess");
    let reference = bear.query(0).expect("reference query");

    let mut out = ExperimentResult::new(
        "durability_matrix",
        &format!(
            "read-side corruption grid over the v4 index of '{dataset}' and retired-format \
             images: every cell must fail with the typed CorruptIndex error (never panic, \
             never load damaged data); a resident load and verify_index must agree with \
             the paged load on every cell"
        ),
    );

    let path: PathBuf = std::env::temp_dir().join("bear_durability_matrix.idx");
    bear.save(&path).expect("save");
    let full = std::fs::read(&path).expect("read image");

    // The pristine image must verify end to end before any cell runs.
    let report = persist::verify_index(&path).expect("fresh index must verify");
    assert_eq!(report.version, 4);

    let mut grid = cells(&full);
    grid.extend(shard_cells(&full));
    let failures = run_grid(&mut out, &dataset, &path, &reference, grid);

    // Control: restore the pristine image and prove it still answers.
    std::fs::write(&path, &full).expect("restore");
    let restored = Bear::load(&path).expect("restored image must load");
    let answer = restored.query(0).expect("restored query");
    assert!(
        answer.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
        "control answer drifted"
    );
    std::fs::remove_file(&path).ok();

    out.print_table();
    out.write_json(&json_path).expect("write json");
    println!("wrote {json_path} ({} cells)", out.rows.len());
    assert_eq!(failures, 0, "{failures} durability cell(s) violated the corruption contract");
    println!("durability matrix clean: every damaged image failed typed");
}
