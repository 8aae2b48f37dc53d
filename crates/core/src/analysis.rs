//! Schedule analysis: critical-path extraction and per-layer bottleneck
//! attribution.
//!
//! The cross-layer schedule is a longest path through the set DAG; knowing
//! *which* sets lie on that path tells a user where extra PEs (weight
//! duplication) or finer sets would actually help — the reasoning behind
//! the paper's observation that the early, high-`OH·OW` layers are the
//! profitable duplication targets.

use serde::{Deserialize, Serialize};

use crate::cost::CostedDeps;
use crate::deps::{Dependencies, SetRef};
use crate::error::{CoreError, Result};
use crate::schedule::{EdgeCost, Schedule};
use crate::sets::LayerSets;

/// One step of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalStep {
    /// The set on the path.
    pub set: SetRef,
    /// Its scheduled start cycle.
    pub start: u64,
    /// Its scheduled finish cycle.
    pub finish: u64,
}

/// Extracts one critical path of `schedule`: a chain of sets from a
/// zero-start set to the set that finishes at the makespan, where every
/// step is the binding constraint of its successor (either the same
/// group's previous set, or a data dependency whose arrival equals the
/// successor's start).
///
/// Returned in execution order (earliest first). Ties are broken toward
/// data dependencies, which usually yields the more informative
/// cross-layer story.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when the inputs disagree in shape,
/// and [`CoreError::InvalidSchedule`] when no binding predecessor exists
/// for a non-zero start (the schedule was not built from these inputs).
pub fn critical_path(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    edge_cost: &EdgeCost,
) -> Result<Vec<CriticalStep>> {
    if schedule.num_layers() != layers.len() || deps.num_layers() != layers.len() {
        return Err(CoreError::StageMismatch {
            detail: "analysis inputs cover different layer counts".into(),
        });
    }
    // Edge latencies, precomputed once for the whole walk.
    let costed = CostedDeps::build(layers, deps, edge_cost)?;
    // Find the set finishing last.
    let mut cur: Option<SetRef> = None;
    let mut best_finish = 0u64;
    for (li, lt) in schedule.iter_layers().enumerate() {
        for (si, t) in lt.iter().enumerate() {
            if t.finish >= best_finish {
                best_finish = t.finish;
                cur = Some(SetRef { layer: li, set: si });
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = cur.ok_or(CoreError::StageMismatch {
        detail: "empty schedule".into(),
    })?;
    loop {
        let t = schedule.time(cur.layer, cur.set);
        path.push(CriticalStep {
            set: cur,
            start: t.start,
            finish: t.finish,
        });
        if t.start == 0 {
            break;
        }
        // Prefer a data dependency whose arrival binds the start.
        let mut binding: Option<SetRef> = None;
        for (dep, &lat) in deps
            .of(cur.layer, cur.set)
            .iter()
            .zip(costed.latencies_of(cur.layer, cur.set))
        {
            let dt = schedule.time(dep.layer, dep.set);
            if dt.finish + lat == t.start {
                binding = Some(*dep);
                break;
            }
        }
        // Otherwise the group chain binds.
        if binding.is_none() && cur.set > 0 {
            let prev = SetRef {
                layer: cur.layer,
                set: cur.set - 1,
            };
            if schedule.time(prev.layer, prev.set).finish == t.start {
                binding = Some(prev);
            }
        }
        cur = binding.ok_or_else(|| CoreError::InvalidSchedule {
            detail: format!(
                "no binding predecessor for {cur} starting at {} — schedule does not \
                 match the given stages",
                t.start
            ),
        })?;
    }
    path.reverse();
    Ok(path)
}

/// Aggregates the critical path per layer: cycles each layer contributes.
///
/// The sum over all layers equals the makespan minus the total edge-cost
/// waiting on the path (zero in the peak-performance model).
pub fn critical_cycles_per_layer(
    layers: &[LayerSets],
    path: &[CriticalStep],
) -> Vec<(String, u64)> {
    let mut acc = vec![0u64; layers.len()];
    for step in path {
        acc[step.set.layer] += step.finish - step.start;
    }
    layers
        .iter()
        .zip(acc)
        .map(|(l, c)| (l.name.clone(), c))
        .filter(|&(_, c)| c > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::two_conv_pipeline;

    #[test]
    fn path_spans_zero_to_makespan_contiguously() {
        let (layers, deps, s) = two_conv_pipeline();
        let path = critical_path(&layers, &deps, &s, &EdgeCost::Free).unwrap();
        assert_eq!(path.first().unwrap().start, 0);
        assert_eq!(path.last().unwrap().finish, s.makespan);
        // Under EdgeCost::Free the path is gap-free.
        for w in path.windows(2) {
            assert_eq!(w[0].finish, w[1].start, "critical path must be contiguous");
        }
    }

    #[test]
    fn path_crosses_into_the_consumer_layer() {
        let (layers, deps, s) = two_conv_pipeline();
        let path = critical_path(&layers, &deps, &s, &EdgeCost::Free).unwrap();
        // It must end in c2 (the last finisher) and start in c1.
        assert_eq!(path.first().unwrap().set.layer, 0);
        assert_eq!(path.last().unwrap().set.layer, 1);
        let per_layer = critical_cycles_per_layer(&layers, &path);
        assert_eq!(per_layer.len(), 2);
        // c1 dominates: the consumer chases the producer's full run.
        assert!(per_layer[0].1 > per_layer[1].1);
        let total: u64 = per_layer.iter().map(|(_, c)| c).sum();
        assert_eq!(total, s.makespan, "free edges: path cycles sum to makespan");
    }

    #[test]
    fn tampered_schedule_is_detected() {
        let (layers, deps, mut s) = two_conv_pipeline();
        // Delay the final set artificially: its start no longer has a
        // binding predecessor, and it still ends the schedule.
        let last = s.layer(1).len() - 1;
        s.time_mut(1, last).start += 1;
        s.time_mut(1, last).finish += 1;
        s.makespan += 1;
        assert!(matches!(
            critical_path(&layers, &deps, &s, &EdgeCost::Free),
            Err(CoreError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (layers, deps, s) = two_conv_pipeline();
        assert!(critical_path(&layers[..1], &deps, &s, &EdgeCost::Free).is_err());
    }
}
