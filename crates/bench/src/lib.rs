//! # cim-bench — the experiment harness
//!
//! Regenerates every table and figure of the CLSA-CIM paper's evaluation
//! (Sec. V), plus ablations for the design choices documented in DESIGN.md.
//! Each artifact has a dedicated binary:
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table I (TinyYOLOv4 layer table) | `table1` |
//! | Table II (benchmark list) | `table2` |
//! | Fig. 5 (worked minimal example) | `fig5_minimal` |
//! | Fig. 6 (case study: mapping, Gantt, bars) | `fig6` |
//! | Fig. 7a/7b (speedup & utilization sweep) | `fig7` |
//! | Ablation: set granularity | `ablation_granularity` |
//! | Ablation: greedy vs exact duplication | `ablation_duplication` |
//! | Ablation: NoC hop cost (Sec. V-C) | `ablation_noc` |
//! | Ablation: cell resolution / bit slicing | `ablation_bitslice` |
//!
//! Run e.g. `cargo run --release -p cim-bench --bin fig7`. Every binary
//! accepts `--json <path>` to additionally export its records and
//! `--jobs <N>` to set the worker-thread count of the evaluation engine
//! (default: one worker per hardware thread; `--jobs 1` is the sequential
//! reference — results are bit-for-bit identical either way).
//!
//! The library part hosts the parallel batched evaluation engine
//! ([`runner`]: lane-based worker pool, concurrent schedule cache,
//! deterministic [`BatchResult`](runner::BatchResult) aggregation), the
//! shared sweep driver ([`experiments`]), the text-table renderer
//! ([`table`]), and JSON export ([`export`]).
//!
//! # Examples
//!
//! Sweep the paper's Fig. 5 example through the parallel runner:
//!
//! ```
//! use cim_bench::runner::RunnerOptions;
//! use cim_bench::{paper_sweep, SweepOptions};
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let opts = SweepOptions { xs: vec![1], ..SweepOptions::default() };
//! let rows = paper_sweep("fig5", &cim_models::fig5_example(), &opts, &RunnerOptions::default())?;
//! assert_eq!(rows.len(), 4); // baseline, xinf, wdup+1, wdup+1+xinf
//! assert!(rows.iter().all(|r| r.speedup >= 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod experiments;
pub mod export;
pub mod runner;
pub mod table;
pub mod tune;

pub use experiments::{paper_sweep, ConfigResult, SweepOptions};
pub use export::{
    parse_args_json, parse_cache_dir_arg, parse_common_args, parse_fault_args, parse_jobs_arg,
    parse_json_arg, parse_resume_arg, parse_seed_arg, parse_shard_arg, write_json, CommonArgs,
    DEFAULT_SEED,
};
pub use table::render_table;
