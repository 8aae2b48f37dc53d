//! Candidate evaluation: the trait the driver talks to, plus a
//! self-contained sequential implementation over the core pipeline.
//!
//! The trait is batched so implementations can fan a batch out over a
//! worker pool — `cim-bench` provides a lane-pool + persistent-store
//! evaluator on top of this trait; [`PipelineEvaluator`] here is the
//! dependency-light sequential reference the parallel implementations
//! must agree with bit-for-bit.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cim_ir::Graph;
use cim_mapping::{layer_costs, min_pes};
use clsa_core::{run, CoreError, RunResult};

use crate::archive::Measurement;
use crate::space::Candidate;

/// Evaluates batches of candidates into objective vectors.
///
/// Implementations must be **deterministic per candidate** — the same
/// candidate always yields the same measurement, bit for bit, regardless
/// of batch composition or evaluation parallelism — and must report
/// per-candidate infeasibility as an `Err` element instead of failing the
/// whole batch.
pub trait Evaluator {
    /// Evaluates `batch`, returning one result per candidate in order.
    fn evaluate(&self, batch: &[Candidate]) -> Vec<Result<Measurement, CoreError>>;
}

impl Measurement {
    /// Extracts the objective vector of a completed pipeline run.
    fn of_run(result: &RunResult) -> Self {
        Measurement {
            latency_cycles: result.makespan(),
            utilization: result.report.utilization,
            noc_bytes: result.costed.total_dep_bytes(),
            crossbars: result.report.total_pes,
        }
    }
}

/// Memoized `PE_min` per crossbar geometry of one design space, keyed by
/// the candidate's crossbar *axis index* — shared by every evaluator
/// implementation (this crate's sequential [`PipelineEvaluator`] and the
/// parallel lane-pool evaluator in `cim-bench`), so the `PE_min`
/// derivation cannot silently diverge between them.
///
/// One memo must only see candidates of one
/// [`DesignSpace`](crate::DesignSpace) on one graph.
#[derive(Debug, Default)]
pub struct PeMinMemo {
    memo: Mutex<BTreeMap<usize, usize>>,
}

impl PeMinMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// `PE_min` of `graph` on the candidate's crossbar (Eq. 1 over the
    /// layer costs, memoized by crossbar axis index).
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors (e.g. a graph without base layers).
    pub fn pe_min(&self, graph: &Graph, candidate: &Candidate) -> Result<usize, CoreError> {
        // A poisoned lock only means another worker panicked mid-insert of
        // an independent entry; the map itself is always consistent.
        let mut memo = self.memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&v) = memo.get(&candidate.coords.crossbar) {
            return Ok(v);
        }
        let costs = layer_costs(graph, &candidate.crossbar, &candidate.mapping_options)?;
        let v = min_pes(&costs);
        memo.insert(candidate.coords.crossbar, v);
        Ok(v)
    }

    /// Number of crossbar geometries resolved so far.
    pub fn len(&self) -> usize {
        self.memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether no geometry has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sequential evaluator over `clsa_core::run`, with a per-crossbar
/// `PE_min` memo.
///
/// The graph must already be canonicalized (BN folded, partitioned) —
/// exactly what `cim_bench::artifacts::case_study_graph` or a
/// `canonicalize(..).into_graph()` call produces. The memo is keyed by
/// the candidate's crossbar *axis index*, so one evaluator must only see
/// candidates of one [`DesignSpace`](crate::DesignSpace).
pub struct PipelineEvaluator<'g> {
    graph: &'g Graph,
    pe_min: PeMinMemo,
}

impl<'g> PipelineEvaluator<'g> {
    /// An evaluator over one canonicalized graph.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            pe_min: PeMinMemo::new(),
        }
    }

    /// `PE_min` of the graph on the candidate's crossbar (memoized by
    /// crossbar axis index).
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors (e.g. a graph without base layers).
    pub fn pe_min(&self, candidate: &Candidate) -> Result<usize, CoreError> {
        self.pe_min.pe_min(self.graph, candidate)
    }
}

impl Evaluator for PipelineEvaluator<'_> {
    fn evaluate(&self, batch: &[Candidate]) -> Vec<Result<Measurement, CoreError>> {
        batch
            .iter()
            .map(|c| {
                let pe_min = self.pe_min(c)?;
                let cfg = c.run_config(pe_min)?;
                Ok(Measurement::of_run(&run(self.graph, &cfg)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;

    fn fig5() -> Graph {
        let g = cim_models::fig5_example();
        cim_frontend::canonicalize(&g, &cim_frontend::CanonOptions::default())
            .expect("canonicalizes")
            .into_graph()
    }

    #[test]
    fn evaluates_the_tiny_space_on_fig5() {
        let g = fig5();
        let ev = PipelineEvaluator::new(&g);
        let s = DesignSpace::tiny();
        let batch: Vec<_> = (0..s.len()).map(|i| s.candidate(i)).collect();
        let results = ev.evaluate(&batch);
        assert_eq!(results.len(), s.len());
        for (c, r) in batch.iter().zip(&results) {
            let m = r.as_ref().expect("tiny space is feasible on fig5");
            assert!(m.latency_cycles > 0);
            assert!(m.utilization > 0.0 && m.utilization <= 1.0);
            assert!(m.noc_bytes > 0);
            assert!(m.crossbars >= c.extra_pes + 2, "fig5 PE_min is 2");
        }
        // The memo kicked in: one crossbar axis, one entry.
        assert_eq!(ev.pe_min.len(), 1);
    }

    #[test]
    fn measurements_are_reproducible() {
        let g = fig5();
        let ev = PipelineEvaluator::new(&g);
        let s = DesignSpace::tiny();
        let batch: Vec<_> = (0..s.len()).map(|i| s.candidate(i)).collect();
        let a = ev.evaluate(&batch);
        let b = PipelineEvaluator::new(&g).evaluate(&batch);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }
}
