//! Float-to-text cost of a full-vector JSON answer.
//!
//! Encodes 158k scores drawn uniformly from `[0, 1e-4)` — the size and
//! value range of a 16-seed `/v1/batch` answer on the paged benchmark
//! graph — as comma-separated JSON numbers, once with
//! [`bear_serve::float::push_f64`] and once with `write!(body, "{v}")`,
//! into a `String`, the `Display` formatting it replaced. Both write
//! into a buffer whose pages were touched before timing, so only the
//! encoding is measured.
//!
//! ```text
//! cargo bench -p bear-serve --bench encode
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::fmt::Write as _;

/// Scores in one 16-seed answer on the paged benchmark graph.
const FLOATS: usize = 158_000;

/// Deterministic scores in `[0, 1e-4)` (xorshift64, fixed seed).
fn scores() -> Vec<f64> {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..FLOATS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 1e-4
        })
        .collect()
}

/// A cleared buffer with room for the whole answer, every page written.
fn touched_buffer() -> Vec<u8> {
    let mut body = vec![0u8; FLOATS * 32];
    body.clear();
    body
}

fn bench_encode(c: &mut Criterion) {
    let scores = scores();
    let mut group = c.benchmark_group("encode_158k_scores");
    group.sample_size(20).throughput(Throughput::Elements(FLOATS as u64));

    let mut body = touched_buffer();
    group.bench_function("ryu_push_f64", |b| {
        b.iter(|| {
            body.clear();
            for (i, &v) in black_box(&scores).iter().enumerate() {
                if i > 0 {
                    body.push(b',');
                }
                bear_serve::float::push_f64(&mut body, v);
            }
            body.len()
        })
    });

    let mut body = String::from_utf8(touched_buffer()).expect("an empty buffer is UTF-8");
    group.bench_function("display_write", |b| {
        b.iter(|| {
            body.clear();
            for (i, &v) in black_box(&scores).iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                // Writing into a `String` cannot fail.
                let _ = write!(body, "{v}");
            }
            body.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
