//! Extension experiment (DESIGN.md §6): the memory-lean iterative hub
//! solve (`Bear::new_hub_iterative`) vs standard BEAR-Exact. On hub-heavy
//! graphs, BEAR's space is dominated by the inverted Schur factors
//! (`≈ n₂²` nonzeros, Table 4); keeping the sparse `S` and solving it
//! per query — the direction the BePI follow-up took — trades query
//! time for that space.
//!
//! ```text
//! cargo run --release -p bear-bench --bin ext_hub_iterative \
//!     [--datasets citation_like,trust_like,email_like] [--seeds N] [--json out.json]
//! ```

use bear_bench::cli::{Args, CommonOpts};
use bear_bench::experiments::load_dataset;
use bear_bench::harness::{mean_query_time, measure, ExperimentResult, ResultRow};
use bear_core::{Bear, BearConfig, RwrSolver};

fn main() {
    let args = Args::from_env();
    let opts = CommonOpts::from_args(&args, &["citation_like", "trust_like", "email_like"]);
    let mut out = ExperimentResult::new(
        "ext_hub_iterative",
        "inverted Schur factors (BEAR-Exact) vs iterative hub solve (BEAR-HubIter)",
    );
    for dataset in &opts.datasets {
        let g = load_dataset(dataset);
        let config = BearConfig::exact(0.05);

        let (exact, pre_exact) = measure(|| Bear::new(&g, &config).expect("exact"));
        let mut row = ResultRow::new(dataset, "BEAR-Exact");
        row.preprocess_s = Some(pre_exact);
        row.query_s = Some(mean_query_time(&exact, opts.num_seeds));
        row.memory_bytes = Some(exact.memory_bytes());
        out.rows.push(row);

        let (hub_iter, pre_iter) =
            measure(|| Bear::new_hub_iterative(&g, &config).expect("hub-iter"));
        let mut row = ResultRow::new(dataset, "BEAR-HubIter");
        row.preprocess_s = Some(pre_iter);
        row.query_s = Some(mean_query_time(&hub_iter, opts.num_seeds));
        row.memory_bytes = Some(hub_iter.memory_bytes());
        out.rows.push(row);
    }
    out.print_table();
    if let Some(path) = &opts.json {
        out.write_json(path).expect("write json");
        println!("wrote {path}");
    }
}
