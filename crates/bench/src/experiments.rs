//! The shared sweep driver: runs the paper's four mapping × scheduling
//! configurations over a model and a range of extra-PE budgets, through
//! the parallel batched evaluation engine ([`crate::runner`]).

use cim_ir::Graph;
use cim_mapping::Solver;
use clsa_core::{CoreError, SetPolicy};
use serde::{Deserialize, Serialize};

use crate::runner::{run_batch, sweep_jobs, BatchPlan, RunnerOptions};

/// One configuration's outcome — one bar of Fig. 6c / Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigResult {
    /// Model name.
    pub model: String,
    /// Configuration label: `layer-by-layer`, `xinf`, `wdup+<x>`, or
    /// `wdup+<x>+xinf` (the paper's notation).
    pub label: String,
    /// Extra PEs over `PE_min` (the paper's `x`).
    pub x: usize,
    /// `PE_min` of the model.
    pub pe_min: usize,
    /// Total PEs of the architecture used (`PE_min + x`).
    pub total_pes: usize,
    /// Makespan in crossbar cycles.
    pub makespan_cycles: u64,
    /// Makespan in nanoseconds (cycles × t_MVM).
    pub makespan_ns: u64,
    /// Speedup versus the layer-by-layer baseline at `PE_min`.
    pub speedup: f64,
    /// Eq. 2 utilization.
    pub utilization: f64,
    /// Eq. 3 predicted speedup from the utilizations and the *actual*
    /// architecture PE totals (consistency check). `None` when the
    /// prediction is undefined (degenerate baseline) — serialized as
    /// JSON `null`; for the paper-family sweeps it is always present and
    /// numerically identical to the historical `pe_min + x` form.
    pub eq3_predicted: Option<f64>,
    /// Layers duplicated by the mapping (0 without duplication).
    pub duplicated_layers: usize,
}

/// Options of [`paper_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Extra-PE budgets to evaluate (the paper uses `{4, 8, 16, 32}`).
    pub xs: Vec<usize>,
    /// Stage-I granularity.
    pub set_policy: SetPolicy,
    /// Duplication solver.
    pub solver: Solver,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            xs: vec![4, 8, 16, 32],
            set_policy: SetPolicy::finest(),
            solver: Solver::Greedy,
        }
    }
}

/// Runs the full paper sweep for one model: the layer-by-layer baseline and
/// `xinf` at `PE_min`, plus `wdup+x` and `wdup+x+xinf` for every `x`.
///
/// Configurations execute on `runner`'s lane-based worker pool with the
/// shared schedule cache; results are returned in deterministic order —
/// baseline, xinf, then per `x` ascending (`wdup`, `wdup+xinf`) — and are
/// bit-for-bit identical to a sequential run. For a persistent store,
/// sharding, or a journal, build the jobs with [`sweep_jobs`] and pass a
/// [`BatchPlan`] to [`run_batch`].
///
/// # Errors
///
/// Propagates frontend and pipeline errors. The sweep canonicalizes the
/// graph first (BN folding + partitioning), so raw TF-style models are
/// accepted.
pub fn paper_sweep(
    name: &str,
    graph: &Graph,
    opts: &SweepOptions,
    runner: &RunnerOptions,
) -> Result<Vec<ConfigResult>, CoreError> {
    let jobs = sweep_jobs(name, graph, opts)?;
    Ok(run_batch(&jobs, runner, &BatchPlan::default())?.results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_order_and_determinism_on_fig5() {
        let g = cim_models::fig5_example();
        let opts = SweepOptions {
            xs: vec![1, 2],
            ..SweepOptions::default()
        };
        let a = paper_sweep("fig5", &g, &opts, &RunnerOptions::default()).unwrap();
        let b = paper_sweep("fig5", &g, &opts, &RunnerOptions::default()).unwrap();
        assert_eq!(a, b, "parallel sweep must be deterministic");
        let labels: Vec<&str> = a.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "layer-by-layer",
                "xinf",
                "wdup+1",
                "wdup+1+xinf",
                "wdup+2",
                "wdup+2+xinf"
            ]
        );
        assert_eq!(a[0].pe_min, 2);
        assert_eq!(a[0].makespan_cycles, 80);
        assert_eq!(a[1].makespan_cycles, 72);
        // Nanoseconds derive from the 1400 ns cycle.
        assert_eq!(a[0].makespan_ns, 80 * 1400);
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_bit_for_bit() {
        let g = cim_models::fig5_example();
        let opts = SweepOptions {
            xs: vec![1, 2, 3],
            ..SweepOptions::default()
        };
        let parallel = paper_sweep("fig5", &g, &opts, &RunnerOptions::with_jobs(4)).unwrap();
        let sequential = paper_sweep("fig5", &g, &opts, &RunnerOptions::sequential()).unwrap();
        assert_eq!(parallel, sequential);
        // Byte-identical through serialization, not just PartialEq.
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&sequential).unwrap()
        );
    }

    #[test]
    fn sweep_on_case_study_model_matches_paper_shape() {
        let g = cim_models::tiny_yolo_v4();
        let opts = SweepOptions {
            xs: vec![16, 32],
            ..SweepOptions::default()
        };
        let results = paper_sweep("TinyYOLOv4", &g, &opts, &RunnerOptions::default()).unwrap();
        assert_eq!(results.len(), 1 + 1 + 2 * 2);
        let by = |l: &str| results.iter().find(|r| r.label == l).unwrap();

        let lbl = by("layer-by-layer");
        assert_eq!(lbl.pe_min, 117);
        assert!((lbl.speedup - 1.0).abs() < 1e-12);

        let xinf = by("xinf");
        let wdup32 = by("wdup+32");
        let both32 = by("wdup+32+xinf");
        // Orderings the paper reports (Fig. 6c).
        assert!(xinf.speedup > 1.0);
        assert!(wdup32.speedup > 1.0);
        assert!(both32.speedup > xinf.speedup);
        assert!(both32.speedup > wdup32.speedup);
        // Eq. 3 consistency: prediction within 20 % of measurement (the
        // identity is exact only when work is invariant; duplication adds
        // ceil-rounding work).
        for r in &results {
            let p = r.eq3_predicted.expect("paper-family rows always predict");
            let rel = (p - r.speedup).abs() / r.speedup;
            assert!(rel < 0.2, "{}: Eq.3 off by {rel}", r.label);
        }
        // The paper's headline: wdup+32+xinf utilization well above lbl.
        assert!(both32.utilization > 5.0 * lbl.utilization);
    }
}
