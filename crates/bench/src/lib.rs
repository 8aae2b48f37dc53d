//! # cim-bench — the experiment harness
//!
//! Regenerates every table and figure of the CLSA-CIM paper's evaluation
//! (Sec. V), plus ablations of the design choices the paper leaves
//! unquantified. Each artifact has a dedicated binary:
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table I (TinyYOLOv4 layer table) | `table1` |
//! | Table II (benchmark list) | `table2` |
//! | Fig. 5 (worked minimal example) | `fig5_minimal` |
//! | Fig. 6 (case study: mapping, Gantt, bars) | `fig6` |
//! | Fig. 7a/7b (speedup & utilization sweep) | `fig7` |
//! | Ablations: set granularity, greedy vs exact duplication, NoC hop cost (Sec. V-C), bit slicing, batching | `ablation <study>` |
//!
//! Run e.g. `cargo run --release -p cim-bench --bin fig7`. Each binary
//! accepts exactly the flags of its table ([`cli`]); `--help` lists them
//! and anything else exits 2. Most take `--json <path>` to additionally
//! export their records and `--jobs <N>` to set the worker-thread count
//! of the evaluation engine (default: one worker per hardware thread;
//! `--jobs 1` is the sequential reference — results are bit-for-bit
//! identical either way).
//!
//! The library part hosts the parallel batched evaluation engine
//! ([`runner`]: lane-based worker pool, concurrent schedule cache,
//! deterministic [`BatchResult`](runner::BatchResult) aggregation), the
//! shared sweep driver ([`experiments`]), the text-table renderer
//! ([`table`]), the binaries' argv parser ([`cli`]), and JSON export
//! ([`export`]).
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
pub mod cli;
pub mod experiments;
pub mod export;
pub mod runner;
pub mod table;
pub mod tune;

pub use experiments::{paper_sweep, ConfigResult, SweepOptions};
pub use export::{export_json, write_json, CommonArgs, DEFAULT_SEED};
pub use table::render_table;
