//! Wire bytes of the JSON answers: every score `bear serve` sends goes
//! through `bear_serve::float::push_f64`, which must write exactly the
//! bytes `format!("{v}")` writes — the shortest decimal that parses back
//! to the same bits, in plain positional notation — or `null` for a
//! non-finite value.
//!
//! Three sets of values are checked: every query form's answers on the
//! golden corpus (the values a server really sends), a million seeded
//! random bit patterns over the whole `f64` range, and the edge cases
//! (subnormals, the extremes, signed zero, powers of ten and their
//! neighbours, integers near 2⁵³, and exact ties between two shortest
//! candidates, which std rounds up).

mod common;

use bear_core::Bear;
use bear_serve::float::push_f64;
use common::{configs, corpus, seeds};

/// Encodes `v` and checks the bytes against `Display` and the parse-back
/// bits.
fn check(v: f64, out: &mut Vec<u8>) {
    out.clear();
    push_f64(out, v);
    if !v.is_finite() {
        assert_eq!(out.as_slice(), b"null", "{v} must encode as null");
        return;
    }
    let display = format!("{v}");
    assert_eq!(
        std::str::from_utf8(out).unwrap(),
        display,
        "bits {:#018x} must encode as Display does",
        v.to_bits()
    );
    let back: f64 = display.parse().unwrap();
    assert_eq!(back.to_bits(), v.to_bits(), "{display} must parse back to the same bits");
}

/// Every score of every query form on one index.
fn answers(bear: &Bear) -> Vec<f64> {
    let n = bear.num_nodes();
    let mut all = Vec::new();
    for &s in &seeds(n, 4) {
        all.extend(bear.query(s).unwrap());
        all.extend(bear.query_top_k_pruned(s, 10).unwrap().into_iter().map(|node| node.score));
    }
    let mut q = vec![0.0; n];
    for (&s, w) in seeds(n, 3).iter().zip([0.5, 0.3, 0.2]) {
        q[s] += w;
    }
    all.extend(bear.query_distribution(&q).unwrap());
    for width in [1, 3, 8] {
        all.extend(bear.query_block(&seeds(n, width)).unwrap().into_iter().flatten());
    }
    all
}

#[test]
fn every_query_forms_answers_encode_as_display() {
    let mut out = Vec::new();
    let mut checked = 0;
    for (graph, g) in corpus() {
        for (config, cfg) in configs() {
            let bear = Bear::new(&g, &cfg).unwrap();
            let scores = answers(&bear);
            assert!(scores.iter().any(|&v| v > 0.0), "{graph}/{config}: no positive score");
            for &v in &scores {
                check(v, &mut out);
            }
            checked += scores.len();
        }
    }
    assert!(checked > 10_000, "only {checked} scores checked");
}

#[test]
fn a_million_random_bit_patterns_encode_as_display() {
    let mut out = Vec::new();
    // xorshift64 with a fixed seed: the same million patterns every run.
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        check(f64::from_bits(x), &mut out);
    }
}

#[test]
fn edge_cases_encode_as_display() {
    let mut out = Vec::new();
    let neighbours =
        |v: f64| (-3i64..=3).map(move |d| f64::from_bits(v.to_bits().wrapping_add_signed(d)));
    let specials = [
        0.0,
        -0.0,
        f64::from_bits(1),             // 5e-324, the least subnormal
        f64::from_bits((1 << 52) - 1), // the greatest subnormal
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for v in specials {
        check(v, &mut out);
        check(-v, &mut out);
    }
    // Subnormals: every small mantissa, and one every 2^32 across the range.
    for m in (1..4096).chain((1..(1u64 << 20)).map(|k| k << 32)) {
        check(f64::from_bits(m), &mut out);
    }
    // Every power of ten a double can approach, its neighbours, and the
    // doubles just under each decade.
    for e in -325..=309 {
        let p: f64 = format!("1e{e}").parse().unwrap();
        for v in neighbours(p).chain(neighbours(9.999_999_999_999_999 * p)) {
            check(v, &mut out);
        }
    }
    // The bounds of every binary exponent.
    for exp in 0..2047u64 {
        for m in [0, 1, 2, 1 << 51, (1 << 52) - 2, (1 << 52) - 1] {
            check(f64::from_bits(exp << 52 | m), &mut out);
        }
    }
    // Integers around 2^53, where consecutive doubles are 2 apart.
    let two53 = 1u64 << 53;
    for i in two53 - 100_000..two53 + 400_000 {
        check(i as f64, &mut out);
    }
    // Exact ties: in [2^50, 2^51) doubles are 0.25 apart, so x.25 and
    // x.75 lie halfway between the two one-decimal candidates; std
    // rounds up.
    out.clear();
    push_f64(&mut out, 1_658_206_780_088_562.0 + 0.25);
    assert_eq!(out, b"1658206780088562.3");
    for x in (1u64 << 50..(1 << 50) + 50_000).chain((1 << 51) - 50_000..1 << 51) {
        for frac in [0.25, 0.5, 0.75] {
            check(x as f64 + frac, &mut out);
        }
    }
}
