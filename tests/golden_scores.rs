//! Golden bits: every query path's answer on a fixed corpus, pinned as a
//! 64-bit FNV-1a hash of its `f64::to_bits` stream.
//!
//! The corpus is a seeded hub-and-spoke graph, a small R-MAT graph (which
//! leaves isolated, hence dangling, nodes), and a hand-built graph with
//! dangling nodes and self-loops; each is indexed exactly and with a
//! drop tolerance ξ > 0. Every answer is computed twice — on the resident
//! index and on its v3 file paged under a one-block budget — and both must
//! hash to the same pinned value. A change that moves a single bit of any
//! answer, on any path, fails here.
//!
//! The index files are pinned the same way: each graph and configuration
//! is written by `Bear::save` (v2), `Bear::save_v3` and
//! `preprocess_to_disk` (both v3), and the FNV-1a hash of each file's
//! bytes must match. Answers alone cannot catch a writer that reorders or
//! reframes sections.

mod common;

use bear_core::{preprocess_to_disk, Bear};
use common::{configs, corpus, seeds};
use std::path::PathBuf;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

fn hash_scores<'a>(vectors: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    fnv1a_words(vectors.into_iter().flatten().map(|v| v.to_bits()))
}

/// `(query label, hash)` for every query on one index form.
fn answers(bear: &Bear) -> Vec<(&'static str, u64)> {
    let n = bear.num_nodes();
    let single = seeds(n, 4);
    let query: Vec<Vec<f64>> = single.iter().map(|&s| bear.query(s).unwrap()).collect();

    let mut q = vec![0.0; n];
    for (&s, w) in seeds(n, 3).iter().zip([0.5, 0.3, 0.2]) {
        q[s] += w;
    }
    let distribution = bear.query_distribution(&q).unwrap();

    let block = |width: usize| {
        let cols = bear.query_block(&seeds(n, width)).unwrap();
        hash_scores(cols.iter().map(Vec::as_slice))
    };

    let top_k = fnv1a_words(single.iter().flat_map(|&s| {
        bear.query_top_k_pruned(s, 10)
            .unwrap()
            .into_iter()
            .flat_map(|node| [node.node as u64, node.score.to_bits()])
    }));

    vec![
        ("query", hash_scores(query.iter().map(Vec::as_slice))),
        ("query_distribution", hash_scores([distribution.as_slice()])),
        ("query_block_w1", block(1)),
        ("query_block_w3", block(3)),
        ("query_block_w8", block(8)),
        ("query_top_k_pruned", top_k),
    ]
}

fn scratch_index(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bear_golden_{}_{label}.idx", std::process::id()))
}

/// Pinned hashes, keyed `graph/config/query`.
const GOLDEN: &[(&str, u64)] = &[
    ("hub_spoke/exact/query", 0xed21949422aac5ff),
    ("hub_spoke/exact/query_distribution", 0xfeef2447d1e453e1),
    ("hub_spoke/exact/query_block_w1", 0x0e3cd1e54170689f),
    ("hub_spoke/exact/query_block_w3", 0xc9c8da938cb1c272),
    ("hub_spoke/exact/query_block_w8", 0x5d30f0b08af0f009),
    ("hub_spoke/exact/query_top_k_pruned", 0x20980f87d0b46293),
    ("hub_spoke/approx/query", 0xea77f85d448841ab),
    ("hub_spoke/approx/query_distribution", 0xc322e14809cf4c38),
    ("hub_spoke/approx/query_block_w1", 0xfb10f3e98537a148),
    ("hub_spoke/approx/query_block_w3", 0xd8772d81aa3416c7),
    ("hub_spoke/approx/query_block_w8", 0x375c5bba32c951c6),
    ("hub_spoke/approx/query_top_k_pruned", 0x2d9818ed8b4df21c),
    ("rmat/exact/query", 0xd69ded12deb9f8f9),
    ("rmat/exact/query_distribution", 0xda51379edf8dacaf),
    ("rmat/exact/query_block_w1", 0x2bf34e35c96e26cb),
    ("rmat/exact/query_block_w3", 0x4667d41fe5055fc6),
    ("rmat/exact/query_block_w8", 0xf3d07ea0b06a25d0),
    ("rmat/exact/query_top_k_pruned", 0xd4a255503ffe52f2),
    ("rmat/approx/query", 0x77f268a824945689),
    ("rmat/approx/query_distribution", 0xd0853097015c2729),
    ("rmat/approx/query_block_w1", 0x566bef1d9f86caec),
    ("rmat/approx/query_block_w3", 0x42b53f494f454c31),
    ("rmat/approx/query_block_w8", 0x26321aed2b2d2be6),
    ("rmat/approx/query_top_k_pruned", 0xb4c61d231d37ee78),
    ("dangling_loops/exact/query", 0x3f0715fda4b113be),
    ("dangling_loops/exact/query_distribution", 0xd8177b3a3ea0256b),
    ("dangling_loops/exact/query_block_w1", 0x1e94203a77ea5dbf),
    ("dangling_loops/exact/query_block_w3", 0x8175ddc32902f5a9),
    ("dangling_loops/exact/query_block_w8", 0x65ec4f870c6ac3a4),
    ("dangling_loops/exact/query_top_k_pruned", 0xbbe03309345e3916),
    ("dangling_loops/approx/query", 0x3f0d2ea93d02f25d),
    ("dangling_loops/approx/query_distribution", 0x368188ba9333962a),
    ("dangling_loops/approx/query_block_w1", 0x41eb1ca07b8969d3),
    ("dangling_loops/approx/query_block_w3", 0xa7f27c8cee9766aa),
    ("dangling_loops/approx/query_block_w8", 0x0d30e07f7a280f2a),
    ("dangling_loops/approx/query_top_k_pruned", 0xbbe03309345e3916),
];

#[test]
fn every_query_path_matches_the_golden_bits() {
    let mut actual = Vec::new();
    for (graph, g) in corpus() {
        for (config, cfg) in configs() {
            let resident = Bear::new(&g, &cfg).unwrap();
            let path = scratch_index(&format!("{graph}_{config}"));
            resident.save_v3(&path).unwrap();
            let paged = Bear::load(&path).unwrap();
            let pager = paged.pager().expect("v3 load is paged");
            let one_block = pager.directory().iter().map(|m| m.resident_bytes()).max();
            pager.set_budget(Some(one_block.unwrap_or(1))).unwrap();

            let want = answers(&resident);
            assert_eq!(answers(&paged), want, "{graph}/{config}: paged differs from resident");
            drop(paged);
            std::fs::remove_file(&path).ok();
            for (query, hash) in want {
                actual.push((format!("{graph}/{config}/{query}"), hash));
            }
        }
    }
    assert_matches_golden(&actual, GOLDEN, "answer bits");
}

/// Compares `(label, hash)` rows with a pinned table, printing the actual
/// table on any difference so it can be re-pinned deliberately.
fn assert_matches_golden(actual: &[(String, u64)], golden: &[(&str, u64)], what: &str) {
    let table: String =
        actual.iter().map(|(label, hash)| format!("    (\"{label}\", {hash:#018x}),\n")).collect();
    assert_eq!(actual.len(), golden.len(), "golden table size; actual table:\n{table}");
    for ((label, hash), (want_label, want_hash)) in actual.iter().zip(golden) {
        assert_eq!(label, want_label, "golden table order; actual table:\n{table}");
        assert_eq!(hash, want_hash, "{label}: {what} moved; actual table:\n{table}");
    }
}

/// Pinned hashes of the index file bytes, keyed `graph/config/writer`.
const GOLDEN_IMAGES: &[(&str, u64)] = &[
    ("hub_spoke/exact/save", 0x006ec5d4b4c3b963),
    ("hub_spoke/exact/save_v3", 0xe02ed2bc1e61f3af),
    ("hub_spoke/exact/preprocess_to_disk", 0xe02ed2bc1e61f3af),
    ("hub_spoke/approx/save", 0x431ec0f0adda5235),
    ("hub_spoke/approx/save_v3", 0x27f6f79050345983),
    ("hub_spoke/approx/preprocess_to_disk", 0x27f6f79050345983),
    ("rmat/exact/save", 0x3aab9a0c81367916),
    ("rmat/exact/save_v3", 0x0a8f12a3d87fdd12),
    ("rmat/exact/preprocess_to_disk", 0x0a8f12a3d87fdd12),
    ("rmat/approx/save", 0x0c3f009448121798),
    ("rmat/approx/save_v3", 0x410020c7500f1226),
    ("rmat/approx/preprocess_to_disk", 0x410020c7500f1226),
    ("dangling_loops/exact/save", 0x5668ae337db88681),
    ("dangling_loops/exact/save_v3", 0x03ade76dd93d0054),
    ("dangling_loops/exact/preprocess_to_disk", 0x03ade76dd93d0054),
    ("dangling_loops/approx/save", 0x5381540429a4e795),
    ("dangling_loops/approx/save_v3", 0xbf5ce78270acc048),
    ("dangling_loops/approx/preprocess_to_disk", 0xbf5ce78270acc048),
];

#[test]
fn every_index_writer_matches_the_golden_bytes() {
    let mut actual = Vec::new();
    for (graph, g) in corpus() {
        for (config, cfg) in configs() {
            let bear = Bear::new(&g, &cfg).unwrap();
            let path = scratch_index(&format!("image_{graph}_{config}"));
            for writer in ["save", "save_v3", "preprocess_to_disk"] {
                match writer {
                    "save" => bear.save(&path),
                    "save_v3" => bear.save_v3(&path),
                    _ => preprocess_to_disk(&g, &cfg, &path),
                }
                .unwrap();
                let hash = fnv1a(std::fs::read(&path).unwrap());
                actual.push((format!("{graph}/{config}/{writer}"), hash));
            }
            std::fs::remove_file(&path).ok();
        }
    }
    assert_matches_golden(&actual, GOLDEN_IMAGES, "image bytes");
}
