//! Experiment harness regenerating every figure of the paper's evaluation
//! (§8, Figures 10–14).
//!
//! One binary per experiment (`exp1` … `exp5`, `ablation`), each printing
//! the exact series the corresponding figure plots and writing
//! machine-readable JSON under `experiments/`. Default scales are reduced
//! from the paper's (100K+ tuples) so the whole suite runs in minutes; pass
//! `--full` for paper-scale runs. Criterion micro-benches (in `benches/`)
//! time the components: phase throughput (`crepair`, `hrepair`,
//! `pipeline`), entropy maintenance (`entropy_struct`, `erepair_order`)
//! and the similarity kernels (`similarity`). End-to-end performance is
//! the repository benchmark's (`benchmark/`, declared by `BENCHMARK.json`).

pub mod args;
pub mod figure;
pub mod runner;

pub use args::Args;
pub use figure::{Figure, Series};
pub use runner::{
    dataset_workload, deterministic_share, experiment_config, matching_f1_sortn, matching_f1_uni,
    repair_f1, repair_pr, repair_pr_with, run_uni, run_uni_observed, scaled_params, session,
    DatasetKind,
};
