//! Blocked multi-RHS query speedup: the recordable counterpart of the
//! `bench_query_block` Criterion benchmark. Answers the same seed set
//! through [`Bear::query_block_into`] at widths 1/4/16/64, verifies every
//! answer is bit-identical to the width-1 answer, and reports per-query
//! amortized latency (best of `--reps`) plus the speedup over width 1.
//!
//! The win comes from amortization: a width-`k` solve walks each sparse
//! factor's structure once per block instead of once per seed, so the
//! index-decoding and streaming traffic is divided by `k`. Width 16 is
//! asserted strictly faster per query than width 1 — that inequality is
//! the whole point of the blocked engine path.
//!
//! ```text
//! cargo run --release -p bear-bench --bin query_block_speedup \
//!     [--reps 5] [--seeds 256] [--json results/BENCH_query_block.json]
//! ```

use bear_bench::cli::Args;
use bear_bench::harness::{measure, ExperimentResult, ResultRow};
use bear_core::{Bear, BearConfig, QueryWorkspace};
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use bear_sparse::DenseBlock;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let reps: usize = args.get_or("--reps", 5usize).max(1);
    let num_seeds: usize = args.get_or("--seeds", 256usize).max(1);
    let json_path = args.get("--json").unwrap_or("results/BENCH_query_block.json").to_string();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Many moderate caves: enough factor structure that streaming it
    // dominates a query, which is exactly what blocking amortizes.
    let g = hub_and_spoke(
        &HubSpokeConfig {
            num_hubs: 16,
            num_caves: 220,
            max_cave_size: 28,
            cave_density: 0.3,
            hub_links: 2,
            hub_density: 0.4,
        },
        &mut StdRng::seed_from_u64(42),
    );
    let bear = Bear::new(&g, &BearConfig::exact(0.05)).expect("preprocess");
    let n = bear.num_nodes();
    let seeds: Vec<usize> = (0..num_seeds).map(|i| (i * 2654435761) % n).collect();

    let mut out = ExperimentResult::new(
        "query_block_speedup",
        &format!(
            "per-query latency of blocked multi-RHS queries by block width \
             (best of {reps} passes over {num_seeds} seeds); host grants \
             {host_cores} core(s); all widths bit-identical to width 1"
        ),
    );
    println!(
        "graph: n={} m={} | host cores: {host_cores} | {num_seeds} seeds, best of {reps} passes",
        g.num_nodes(),
        g.num_edges()
    );

    let mut ws = QueryWorkspace::for_bear(&bear);
    let mut block_out = DenseBlock::zeros(n, 0);
    let mut reference: Vec<Vec<f64>> = Vec::new();
    let mut per_query_at = std::collections::HashMap::new();
    println!("{:<10} {:>14} {:>10}", "width", "per-query(us)", "speedup");
    for width in [1usize, 4, 16, 64] {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let (_, secs) = measure(|| {
                for chunk in seeds.chunks(width) {
                    block_out.reset(n, chunk.len());
                    bear.query_block_into(chunk, &mut ws, &mut block_out).expect("block");
                }
            });
            best = best.min(secs);
        }
        // The guarantee the speedup rides on: every width answers
        // bit-identically to width 1.
        let mut answers = Vec::with_capacity(num_seeds);
        for chunk in seeds.chunks(width) {
            block_out.reset(n, chunk.len());
            bear.query_block_into(chunk, &mut ws, &mut block_out).expect("block");
            answers.extend(block_out.to_columns());
        }
        if width == 1 {
            reference = answers;
        } else {
            assert!(answers == reference, "width {width} diverged from width 1");
        }
        let per_query = best / num_seeds as f64;
        per_query_at.insert(width, per_query);
        let speedup = per_query_at[&1] / per_query;
        println!("{:<10} {:>14.3} {:>9.2}x", format!("width_{width}"), per_query * 1e6, speedup);
        let mut row = ResultRow::new("hub_and_spoke_220x28", "query_block");
        row.param =
            Some(format!("width={width} speedup_vs_width_1={speedup:.3} host_cores={host_cores}"));
        row.query_s = Some(per_query);
        out.rows.push(row);
    }

    let w1 = per_query_at[&1];
    let w16 = per_query_at[&16];
    assert!(
        w16 < w1,
        "width-16 per-query latency ({:.3}us) must be strictly below width 1 ({:.3}us)",
        w16 * 1e6,
        w1 * 1e6
    );
    println!(
        "width 16 amortizes each query to {:.1}% of width 1 — blocking pays off",
        100.0 * w16 / w1
    );

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    out.write_json(&json_path).expect("write json");
    println!("wrote {json_path}");
}
