//! Schedule validation: machine-checks every property a legal CLSA-CIM
//! schedule must have. Every pipeline run ([`crate::run`]) validates the
//! schedule it returns, so this is on the hot path: the check stops at the
//! first violation and runs none of the advisory analysis of
//! [`crate::diagnose`].

use crate::cost::CostedDeps;
use crate::deps::Dependencies;
use crate::diagnose::{check_shape, first_finding, legality_walk, ScheduleDiagnostic};
use crate::error::{CoreError, Result};
use crate::schedule::{EdgeCost, Schedule};
use crate::sets::LayerSets;

/// Validates `schedule` against the Stage I/II outputs it was built from.
///
/// Checked properties:
///
/// 1. shape: one time window per set, everywhere;
/// 2. durations: `finish − start` equals the set's duration;
/// 3. Stage III resource order: a layer's windows are non-overlapping and
///    in set order (one PE group per layer);
/// 4. Stage II data dependencies: every producer set finishes (plus the
///    edge cost) before its consumer starts;
/// 5. the makespan equals the latest finish.
///
/// Edge costs are precomputed once; callers that already hold the
/// [`CostedDeps`] of the `(mapping, EdgeCost)` pair (e.g. because the
/// schedule was built from it) should use [`validate_schedule_costed`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] describing the first violation.
pub fn validate_schedule(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    edge_cost: &EdgeCost,
) -> Result<()> {
    reject(first_finding(|emit| check_shape(layers, schedule, emit)))?;
    // A table that cannot be built means the stage outputs disagree.
    let costed = CostedDeps::build(layers, deps, edge_cost).map_err(|e| match e {
        CoreError::StageMismatch { detail } => CoreError::InvalidSchedule { detail },
        other => other,
    })?;
    validate_schedule_costed(layers, deps, schedule, &costed)
}

/// [`validate_schedule`] on a prebuilt [`CostedDeps`] table.
///
/// Stops the diagnostics pass's legality walk at its first finding, whose
/// message is the returned error; the analysis findings of
/// [`crate::diagnose::analyze_costed`] (backward edges, fan-in anomalies,
/// …) are never computed and never affect the verdict.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] describing the first violation.
pub fn validate_schedule_costed(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    costed: &CostedDeps,
) -> Result<()> {
    reject(first_finding(|emit| {
        legality_walk(layers, deps, schedule, costed, emit)
    }))
}

/// A legality finding as the validator's error.
fn reject(finding: Option<ScheduleDiagnostic>) -> Result<()> {
    match finding {
        Some(d) => Err(CoreError::InvalidSchedule { detail: d.detail }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::layer_by_layer_schedule;
    use crate::fixtures::two_conv_pipeline as pipeline;

    #[test]
    fn valid_schedules_pass() {
        let (layers, deps, s) = pipeline();
        validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap();
        let lbl = layer_by_layer_schedule(&layers).unwrap();
        validate_schedule(&layers, &deps, &lbl, &EdgeCost::Free).unwrap();
    }

    #[test]
    fn costed_validator_matches_the_wrapper() {
        let (layers, deps, s) = pipeline();
        let costed = crate::cost::CostedDeps::free(&layers, &deps).unwrap();
        validate_schedule_costed(&layers, &deps, &s, &costed).unwrap();
    }

    #[test]
    fn detects_duration_mismatch() {
        let (layers, deps, mut s) = pipeline();
        s.time_mut(0, 0).finish += 1;
        // Either the duration check or a downstream one fires; it must fail.
        assert!(validate_schedule(&layers, &deps, &s, &EdgeCost::Free).is_err());
    }

    #[test]
    fn detects_group_overlap() {
        let (layers, deps, mut s) = pipeline();
        // Shift set 1 of layer 0 to overlap set 0.
        let d = s.time(0, 1).finish - s.time(0, 1).start;
        s.time_mut(0, 1).start = s.time(0, 0).start;
        s.time_mut(0, 1).finish = s.time(0, 1).start + d;
        let err = validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap_err();
        assert!(err.to_string().contains("PE group"), "{err}");
    }

    #[test]
    fn detects_dependency_violation() {
        let (layers, deps, mut s) = pipeline();
        // Pull the first consumer set before its producers finish.
        let d = s.time(1, 0).finish - s.time(1, 0).start;
        s.time_mut(1, 0).start = 0;
        s.time_mut(1, 0).finish = d;
        let err = validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap_err();
        assert!(err.to_string().contains("dependency"), "{err}");
    }

    #[test]
    fn detects_wrong_makespan() {
        let (layers, deps, mut s) = pipeline();
        s.makespan += 7;
        let err = validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap_err();
        assert!(err.to_string().contains("makespan"), "{err}");
    }

    #[test]
    fn detects_shape_mismatch() {
        let (layers, deps, s) = pipeline();
        let mut nested = s.to_nested();
        nested[0].pop();
        let s = Schedule::from_nested(nested, s.makespan);
        assert!(validate_schedule(&layers, &deps, &s, &EdgeCost::Free).is_err());
    }
}
