//! Schedule-IR diagnostics: a static analysis pass over the Stage I–IV
//! artifacts that reports *everything* wrong (or suspicious) about a
//! schedule, with structured severities — rather than bailing at the first
//! violation the way [`validate_schedule`](crate::validate_schedule) does.
//!
//! Diagnostics come in two groups:
//!
//! | group | codes | meaning |
//! |-------|-------|---------|
//! | validation | `shape`, `cost-table`, `duration`, `overlap`, `data-dep`, `makespan` | the schedule breaks the paper's legality rules (Sec. IV); always [`Severity::Error`] |
//! | analysis | `backward-dep`, `cycle`, `unreachable`, `fan-in`, `capacity`, `tile-span` | the *inputs* are malformed or the mapping looks suspicious; severities vary |
//!
//! The split is structural: one private legality walk emits the validation
//! group, in the order the validator has always checked it, into a sink
//! that may stop it early. [`analyze_costed`] collects the whole walk and
//! then runs the analysis group; [`crate::validate_schedule_costed`] stops
//! the walk at its first finding, returns it as a
//! [`CoreError::InvalidSchedule`](crate::CoreError::InvalidSchedule) with
//! an unchanged message, and never runs the analysis. Analysis findings
//! therefore never affect the validator's verdict: a schedule over
//! odd-looking inputs is still legal if every window obeys the duration,
//! ordering, dependency, and makespan rules. The `lint-schedule` binary in
//! `cim-bench` prints the full report, plus [`capacity_diagnostics`].

use std::ops::ControlFlow;

use serde::Serialize;

use crate::cost::CostedDeps;
use crate::deps::{Dependencies, SetRef};
use crate::schedule::Schedule;
use crate::sets::LayerSets;
use cim_arch::Architecture;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational: worth knowing, nothing to fix.
    Info,
    /// Suspicious: likely a mapping/policy problem, but the schedule may
    /// still be legal.
    Warning,
    /// The schedule (or its inputs) is broken.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the diagnostics pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleDiagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code (see the module table).
    pub code: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for ScheduleDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.detail)
    }
}

impl ScheduleDiagnostic {
    fn error(code: &'static str, detail: String) -> Self {
        ScheduleDiagnostic {
            severity: Severity::Error,
            code,
            detail,
        }
    }

    fn warning(code: &'static str, detail: String) -> Self {
        ScheduleDiagnostic {
            severity: Severity::Warning,
            code,
            detail,
        }
    }

    fn info(code: &'static str, detail: String) -> Self {
        ScheduleDiagnostic {
            severity: Severity::Info,
            code,
            detail,
        }
    }
}

/// Receives the legality walk's findings; [`ControlFlow::Break`] stops
/// the walk.
pub(crate) type Sink<'a> = dyn FnMut(ScheduleDiagnostic) -> ControlFlow<()> + 'a;

/// The first finding `walk` emits, stopping the walk there.
pub(crate) fn first_finding(
    walk: impl FnOnce(&mut Sink<'_>) -> ControlFlow<()>,
) -> Option<ScheduleDiagnostic> {
    let mut first = None;
    let _ = walk(&mut |d| {
        first = Some(d);
        ControlFlow::Break(())
    });
    first
}

/// Runs the full diagnostics pass with a prebuilt edge-cost table.
///
/// Emits the validation findings first, in exactly the order the
/// validator checks them (shape, cost-table provenance, per-layer
/// durations and overlaps, data dependencies, makespan), then the analysis
/// findings. When the schedule's shape disagrees with the layer list, only
/// the shape findings are returned — nothing else can be indexed safely.
#[must_use]
pub fn analyze_costed(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    costed: &CostedDeps,
) -> Vec<ScheduleDiagnostic> {
    let mut out = Vec::new();
    let walked = legality_walk(layers, deps, schedule, costed, &mut |d| {
        out.push(d);
        ControlFlow::Continue(())
    });
    if walked.is_continue() {
        analyze_deps(layers, deps, &mut out);
    }
    out
}

/// The validation group: emits every legality finding of `schedule` into
/// `emit`. Returns [`ControlFlow::Break`] when `emit` asked to stop or a
/// shape gate failed (nothing past a broken shape can be indexed).
pub(crate) fn legality_walk(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    costed: &CostedDeps,
    emit: &mut Sink<'_>,
) -> ControlFlow<()> {
    // -- shape (gate: everything below indexes through it) ---------------
    check_shape(layers, schedule, emit)?;
    // Dependencies from the pipeline always agree with the schedule
    // shape; hand-built ones may not, and are reported instead of indexed.
    let deps_aligned = deps.num_layers() == layers.len()
        && (0..deps.num_layers()).all(|l| deps.space().sets_in(l) == schedule.layer(l).len());
    if !deps_aligned {
        emit(ScheduleDiagnostic::error(
            "shape",
            format!(
                "dependencies cover a different set space ({} layers) than the schedule ({})",
                deps.num_layers(),
                schedule.num_layers()
            ),
        ))?;
        return ControlFlow::Break(());
    }

    // -- cost-table provenance -------------------------------------------
    let costed_ok = costed.matches(deps);
    if !costed_ok {
        emit(ScheduleDiagnostic::error(
            "cost-table",
            "cost table was built from different dependencies".to_string(),
        ))?;
    }

    // -- durations and PE-group ordering, layer by layer ------------------
    let mut latest = 0u64;
    for (li, layer) in layers.iter().enumerate() {
        let times = schedule.layer(li);
        for (si, (t, set)) in times.iter().zip(&layer.sets).enumerate() {
            if t.finish.saturating_sub(t.start) != set.duration {
                emit(ScheduleDiagnostic::error(
                    "duration",
                    format!(
                        "layer `{}` set {si}: window [{}, {}) does not match duration {}",
                        layer.name, t.start, t.finish, set.duration
                    ),
                ))?;
            }
            latest = latest.max(t.finish);
        }
        for (si, w) in times.windows(2).enumerate() {
            if w[1].start < w[0].finish {
                emit(ScheduleDiagnostic::error(
                    "overlap",
                    format!(
                        "layer `{}`: set {} starts at {} before set {} finishes at {} \
                         (one PE group cannot overlap)",
                        layer.name,
                        si + 1,
                        w[1].start,
                        si,
                        w[0].finish
                    ),
                ))?;
            }
        }
    }

    // -- data dependencies (needs a matching cost table) ------------------
    if costed_ok {
        for l in 0..deps.num_layers() {
            for s in 0..deps.space().sets_in(l) {
                let c = schedule.time(l, s);
                for (producer, &lat) in deps.of(l, s).iter().zip(costed.latencies_of(l, s)) {
                    let p = schedule.time(producer.layer, producer.set);
                    let arrival = p.finish + lat;
                    if c.start < arrival {
                        let consumer = SetRef { layer: l, set: s };
                        emit(ScheduleDiagnostic::error(
                            "data-dep",
                            format!(
                                "data dependency violated: {producer} arrives at {arrival} but \
                                 {consumer} starts at {}",
                                c.start
                            ),
                        ))?;
                    }
                }
            }
        }
    }

    // -- makespan ---------------------------------------------------------
    if schedule.makespan != latest {
        emit(ScheduleDiagnostic::error(
            "makespan",
            format!(
                "makespan {} does not match latest finish {latest}",
                schedule.makespan
            ),
        ))?;
    }
    ControlFlow::Continue(())
}

/// Analysis-only findings over the dependency structure: backward edges,
/// cycles, unreachable sets, and fan-in anomalies.
fn analyze_deps(layers: &[LayerSets], deps: &Dependencies, out: &mut Vec<ScheduleDiagnostic>) {
    // Backward (non-topological) edges. `Dependencies::from_edges` admits
    // arbitrary producer/consumer pairs; the schedulers require every
    // producer to live in an earlier layer.
    for l in 0..deps.num_layers() {
        for s in 0..deps.space().sets_in(l) {
            for dep in deps.of(l, s) {
                if dep.layer >= l {
                    let consumer = SetRef { layer: l, set: s };
                    out.push(ScheduleDiagnostic::error(
                        "backward-dep",
                        format!(
                            "producer {dep} of {consumer} is not in an earlier layer; \
                             no topological schedule exists"
                        ),
                    ));
                }
            }
        }
    }

    // Cycle detection over the producer graph (iterative three-colour
    // DFS). Layer-respecting dependencies are acyclic by construction, so
    // a cycle implies backward edges — but it names the loop explicitly.
    if let Some(witness) = find_cycle(deps) {
        out.push(ScheduleDiagnostic::error(
            "cycle",
            format!("dependency cycle through {witness}"),
        ));
    }

    // Unreachable sets: a set past the input layer with no producers can
    // never receive data — unless no set of its layer has producers: such
    // a layer reads the network input (under weight duplication, the
    // duplicates of the input-reading layer do).
    for l in 1..deps.num_layers() {
        let sets = deps.space().sets_in(l);
        if (0..sets).all(|s| deps.fan_in(l, s) == 0) {
            continue;
        }
        for s in 0..sets {
            if deps.fan_in(l, s) == 0 {
                let set = SetRef { layer: l, set: s };
                let name = layers.get(l).map_or("?", |ls| ls.name.as_str());
                out.push(ScheduleDiagnostic::warning(
                    "unreachable",
                    format!(
                        "{set} (layer `{name}`) has no producers; it is unreachable \
                         from the input layer"
                    ),
                ));
            }
        }
    }

    // Fan-in anomalies: a set whose fan-in dwarfs the mean serialises an
    // unusual number of producers — usually a set policy that is too
    // coarse upstream of a concatenation.
    let mut total = 0usize;
    let mut counted = 0usize;
    let mut max_ref = None;
    let mut max_fan = 0usize;
    for l in 0..deps.num_layers() {
        for s in 0..deps.space().sets_in(l) {
            let f = deps.fan_in(l, s);
            if f > 0 {
                total += f;
                counted += 1;
            }
            if f > max_fan {
                max_fan = f;
                max_ref = Some(SetRef { layer: l, set: s });
            }
        }
    }
    if counted > 0 {
        let mean = total as f64 / counted as f64;
        let threshold = (4.0 * mean).max(8.0);
        if let Some(set) = max_ref {
            if max_fan as f64 > threshold {
                out.push(ScheduleDiagnostic::warning(
                    "fan-in",
                    format!(
                        "{set} has fan-in {max_fan}, {:.1}x the mean of {mean:.1}; \
                         its producers serialise the schedule",
                        max_fan as f64 / mean
                    ),
                ));
            }
        }
    }
}

/// Finds one set on a dependency cycle, if any (three-colour DFS over the
/// producer edges, iterative to stay stack-safe on deep graphs).
fn find_cycle(deps: &Dependencies) -> Option<SetRef> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let space = deps.space();
    let mut colour = vec![WHITE; space.total_sets()];
    for l in 0..deps.num_layers() {
        for s in 0..space.sets_in(l) {
            if colour[space.index(l, s)] != WHITE {
                continue;
            }
            // Explicit stack of (node, next-producer-index).
            let mut stack: Vec<(SetRef, usize)> = vec![(SetRef { layer: l, set: s }, 0)];
            colour[space.index(l, s)] = GREY;
            while let Some(top) = stack.last_mut() {
                let node = top.0;
                let producers = deps.of(node.layer, node.set);
                if top.1 >= producers.len() {
                    colour[space.index(node.layer, node.set)] = BLACK;
                    stack.pop();
                    continue;
                }
                let p = producers[top.1];
                top.1 += 1;
                match colour[space.index(p.layer, p.set)] {
                    WHITE => {
                        colour[space.index(p.layer, p.set)] = GREY;
                        stack.push((p, 0));
                    }
                    GREY => return Some(p),
                    _ => {}
                }
            }
        }
    }
    None
}

/// Architecture-aware capacity findings over the Stage-I mapping:
///
/// * `capacity` ([`Severity::Error`]) — the per-layer PE groups together
///   exceed the machine (weights are stationary: every base layer's group
///   must coexist), or a single group alone does;
/// * `tile-span` ([`Severity::Info`]) — one summary line counting the
///   groups that span multiple tiles (NoC traffic crosses tile
///   boundaries there).
///
/// Separate from [`analyze_costed`] because the validator has no
/// [`Architecture`] in scope; the `lint-schedule` binary concatenates
/// both passes.
#[must_use]
pub fn capacity_diagnostics(layers: &[LayerSets], arch: &Architecture) -> Vec<ScheduleDiagnostic> {
    let mut out = Vec::new();
    let total: usize = layers.iter().map(|l| l.pes).sum();
    let avail = arch.total_pes();
    for layer in layers {
        if layer.pes > avail {
            out.push(ScheduleDiagnostic::error(
                "capacity",
                format!(
                    "layer `{}` needs {} PEs but the architecture has {avail}",
                    layer.name, layer.pes
                ),
            ));
        }
    }
    if total > avail {
        out.push(ScheduleDiagnostic::error(
            "capacity",
            format!(
                "mapping needs {total} PEs across {} layer groups but the \
                 architecture has {avail} (weights are stationary; groups coexist)",
                layers.len()
            ),
        ));
    }
    let per_tile = arch.tile().pes_per_tile.max(1);
    let spanning = layers.iter().filter(|l| l.pes > per_tile).count();
    if spanning > 0 {
        let widest = layers.iter().map(|l| l.pes.div_ceil(per_tile)).max().unwrap_or(1);
        out.push(ScheduleDiagnostic::info(
            "tile-span",
            format!(
                "{spanning} of {} layer groups span multiple tiles \
                 (widest: {widest} tiles of {per_tile} PEs); their OFM traffic crosses the NoC",
                layers.len()
            ),
        ));
    }
    out
}

/// Shape agreement between the schedule and the layer list: emits every
/// `shape` finding and breaks when there was one (the gate of
/// [`legality_walk`], and [`crate::validate_schedule`]'s first check).
pub(crate) fn check_shape(
    layers: &[LayerSets],
    schedule: &Schedule,
    emit: &mut Sink<'_>,
) -> ControlFlow<()> {
    if schedule.num_layers() != layers.len() {
        emit(ScheduleDiagnostic::error(
            "shape",
            format!(
                "schedule has {} layers, expected {}",
                schedule.num_layers(),
                layers.len()
            ),
        ))?;
        return ControlFlow::Break(());
    }
    let mut ok = true;
    for (li, layer) in layers.iter().enumerate() {
        let n = schedule.layer(li).len();
        if n != layer.sets.len() {
            emit(ScheduleDiagnostic::error(
                "shape",
                format!(
                    "layer `{}` has {} windows for {} sets",
                    layer.name,
                    n,
                    layer.sets.len()
                ),
            ))?;
            ok = false;
        }
    }
    if ok {
        ControlFlow::Continue(())
    } else {
        ControlFlow::Break(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::two_conv_pipeline as pipeline;

    #[test]
    fn clean_pipelines_have_no_errors_or_warnings() {
        let (layers, deps, s) = pipeline();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        assert!(
            diags.iter().all(|d| d.severity == Severity::Info),
            "unexpected findings: {diags:?}"
        );
    }

    #[test]
    fn every_violation_is_reported_not_just_the_first() {
        let (layers, deps, mut s) = pipeline();
        // Break a duration AND the makespan: the one-shot validator stops
        // at the duration; the diagnostics pass reports both.
        s.time_mut(0, 0).finish += 1;
        s.makespan += 7;
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"duration"), "{codes:?}");
        assert!(codes.contains(&"makespan"), "{codes:?}");
    }

    #[test]
    fn backward_edges_yield_backward_dep_and_cycle_findings() {
        let (layers, _deps, s) = pipeline();
        let counts: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        // 0→1 plus the illegal 1→0 back-edge: a two-set cycle.
        let a = SetRef { layer: 0, set: 0 };
        let b = SetRef { layer: 1, set: 0 };
        let deps = Dependencies::from_edges(&counts, &[(a, b), (b, a)]).unwrap();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"backward-dep"), "{codes:?}");
        assert!(codes.contains(&"cycle"), "{codes:?}");
    }

    #[test]
    fn orphan_sets_are_flagged_unreachable() {
        let (layers, _deps, s) = pipeline();
        let counts: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        // Only one edge into layer 1, (consumer, producer): every other set
        // of layer 1 is orphaned.
        let a = SetRef { layer: 0, set: 0 };
        let b = SetRef { layer: 1, set: 0 };
        let deps = Dependencies::from_edges(&counts, &[(b, a)]).unwrap();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        let orphans = diags.iter().filter(|d| d.code == "unreachable").count();
        assert_eq!(orphans, layers[1].sets.len() - 1, "{diags:?}");
    }

    #[test]
    fn capacity_overflow_is_an_error() {
        let (layers, _deps, _s) = pipeline();
        // 1-PE machine: every group overflows it.
        let arch = Architecture::builder().pes(1).build().unwrap();
        let diags = capacity_diagnostics(&layers, &arch);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "capacity" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn display_is_severity_code_detail() {
        let d = ScheduleDiagnostic::error("duration", "x".to_string());
        assert_eq!(d.to_string(), "error[duration]: x");
    }
}
