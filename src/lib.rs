//! # clsa-cim — reproduction of *CLSA-CIM: A Cross-Layer Scheduling
//! Approach for Computing-in-Memory Architectures* (DATE 2024)
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`ir`] — NN graph IR, shapes, region propagation, reference executor;
//! * [`frontend`] — BN folding, base/non-base partitioning, quantization;
//! * [`arch`] — tiled RRAM CIM architecture model (crossbars, NoC, energy);
//! * [`mapping`] — Eq. 1 PE costs, im2col, weight duplication;
//! * [`core`] — the CLSA-CIM scheduler (Stages I–IV), baseline, metrics;
//! * [`sim`] — discrete-event system-level simulator;
//! * [`fabric`] — multi-tenant fabric simulation: N models sharing one
//!   chip with tile/link/weight-residency contention, per-tenant slowdown
//!   and Jain-fairness reporting;
//! * [`models`] — the benchmark zoo (TinyYOLO, VGG, ResNet);
//! * [`tune`] — design-space exploration: search strategies, Pareto
//!   archive, budgeted evaluation (the `autotune` binary's engine);
//! * [`verify`] — static verification: the `cim-lint` determinism lint
//!   engine, the exhaustive concurrency interleaving checker, and (in
//!   [`core`]) the schedule-IR diagnostics pass;
//! * [`serve`] — scheduling as a service: the `cim-serve` daemon
//!   answering newline-delimited JSON requests over a Unix socket with
//!   latency SLOs (EDF dispatch, admission control, warm paths through
//!   the persistent result store).
//!
//! # Quickstart
//!
//! Schedule TinyYOLOv4 on the paper's case-study architecture and compare
//! layer-by-layer inference against CLSA-CIM:
//!
//! ```
//! use clsa_cim::arch::Architecture;
//! use clsa_cim::core::{run, RunConfig};
//! use clsa_cim::frontend::{canonicalize, CanonOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = clsa_cim::models::tiny_yolo_v4();
//! let graph = canonicalize(&model, &CanonOptions::default())?.into_graph();
//!
//! let arch = Architecture::paper_case_study(117)?; // 256×256 PEs, 1400 ns
//! let baseline = run(&graph, &RunConfig::baseline(arch.clone()))?;
//! let clsa = run(&graph, &RunConfig::baseline(arch).with_cross_layer())?;
//!
//! let speedup = baseline.makespan() as f64 / clsa.makespan() as f64;
//! assert!(speedup > 2.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `cim-bench`
//! crate for the regenerators of every table and figure in the paper.
//!
//! # Building and testing
//!
//! The workspace builds fully offline:
//!
//! ```text
//! cargo build --release   # workspace: facade + 10 crates + vendored deps
//! cargo test -q           # unit, integration, and doc tests
//! cargo clippy --workspace --all-targets -- -D warnings
//! ```
//!
//! External dependencies (`serde`, `serde_json`, `rand`, `parking_lot`,
//! `proptest`) are vendored under `vendor/` as minimal offline
//! stand-ins implementing exactly the API surface this workspace uses; see
//! each `vendor/*/src/lib.rs` header for the differences vs. the real
//! crates. Swapping a stand-in for the real crate is a one-line change in
//! the root `Cargo.toml`'s `[workspace.dependencies]`.
//!
//! # Crate DAG
//!
//! `cim-ir` and `cim-arch` are the independent roots; everything else
//! layers on top (arrows point at dependencies):
//!
//! ```text
//! cim-frontend ──► cim-ir ◄──┬── cim-mapping ──► cim-arch
//!                            │        ▲
//!        clsa-core ──────────┴────────┤
//!            ▲                        │
//!            ├── cim-sim ─────────────┘
//!            ├── cim-models (also ► frontend)
//!            └── cim-tune (also ► mapping, arch)
//! cim-fabric layers on cim-sim (the shared event core) + frontend/mapping;
//! cim-bench depends on all of the above;
//! cim-serve layers on cim-bench (lane pool, caches, store) + cim-tune
//! (the Clock trait);
//! cim-verify stands alone (it reads source text, not schedules);
//! clsa-cim (this facade) re-exports all twelve crates.
//! ```
//!
//! # Reproducing the paper
//!
//! Every table and figure has a dedicated binary in `cim-bench`
//! (`cargo run --release -p cim-bench --bin table1|table2|fig5_minimal|`
//! `fig6|fig7|...`), each accepting `--json <path>` for record export. The
//! repository benchmark is the standalone `perfbench/` crate (see
//! `perfbench/NOTES.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cim_arch as arch;
pub use cim_bench as bench;
pub use cim_fabric as fabric;
pub use cim_frontend as frontend;
pub use cim_ir as ir;
pub use cim_mapping as mapping;
pub use cim_models as models;
pub use cim_serve as serve;
pub use cim_sim as sim;
pub use cim_tune as tune;
pub use cim_verify as verify;
pub use clsa_core as core;
