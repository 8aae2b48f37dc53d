//! The schedule-IR diagnostics pass against the validator, and against the
//! zoo under weight duplication.
//!
//! The validator stops the diagnostics pass's legality walk at its first
//! finding; `analyze_costed` runs the whole walk and then the advisory
//! analysis. Both must report the same first legality error on tampered
//! schedules, and the analysis must not call the layers that read the
//! network input unreachable.

use clsa_cim::arch::{place_groups, Architecture, PlacementStrategy};
use clsa_cim::core::{
    analyze_costed, cross_layer_schedule_costed, run, validate_schedule, validate_schedule_costed,
    CoreError, CostedDeps, Dependencies, EdgeCost, LayerSets, RunConfig, Schedule, SetTime,
    Severity,
};
use clsa_cim::frontend::{canonicalize, CanonOptions};
use clsa_cim::mapping::Solver;
use proptest::prelude::*;

/// The codes of the legality rules (the rest are advisory analysis).
const VALIDATION_CODES: [&str; 6] = [
    "shape",
    "cost-table",
    "duration",
    "overlap",
    "data-dep",
    "makespan",
];

const TAMPERS: [&str; 7] = [
    "clean",
    "duration",
    "overlap",
    "data-dep",
    "makespan",
    "dropped window",
    "foreign cost table",
];

/// Mapped layers and dependencies of a random CNN at its `PE_min`.
fn random_workload(seed: u64, n: usize) -> (Vec<LayerSets>, Dependencies) {
    let g = clsa_cim::models::random_cnn(seed, n);
    let canon = canonicalize(&g, &CanonOptions::default()).expect("canonicalizes");
    let probe = Architecture::paper_case_study(1_000_000).unwrap();
    let pe_min = run(canon.graph(), &RunConfig::baseline(probe))
        .expect("probe")
        .pe_min;
    let arch = Architecture::paper_case_study(pe_min).unwrap();
    let r = run(canon.graph(), &RunConfig::baseline(arch)).expect("runs");
    (r.layers.to_vec(), r.deps.as_ref().clone())
}

/// A NoC + GPEU model over `layers`, contiguously placed with two spare PEs.
fn noc_cost(layers: &[LayerSets]) -> EdgeCost {
    let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
    let arch = Architecture::paper_case_study(sizes.iter().sum::<usize>() + 2).unwrap();
    let placement = place_groups(&arch, &sizes, PlacementStrategy::Contiguous).unwrap();
    EdgeCost::NocAndGpeu { arch, placement }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The validator's error is the first legality error of the full
    /// diagnostics pass, and a clean schedule has none.
    #[test]
    fn validator_reports_the_first_legality_finding(
        seed in 0u64..10_000,
        n in 1usize..7,
        tamper in 0usize..TAMPERS.len(),
        pick in 0usize..10_000,
        noc in proptest::bool::ANY,
    ) {
        let (layers, deps) = random_workload(seed, n);
        let edge_cost = if noc { noc_cost(&layers) } else { EdgeCost::Free };
        let mut costed = CostedDeps::build(&layers, &deps, &edge_cost).unwrap();
        let legal = cross_layer_schedule_costed(&layers, &deps, &costed).unwrap();
        let mut times: Vec<Vec<SetTime>> = legal.iter_layers().map(<[_]>::to_vec).collect();
        let mut makespan = legal.makespan;
        let sets: Vec<(usize, usize)> = (0..layers.len())
            .flat_map(|l| (0..layers[l].sets.len()).map(move |s| (l, s)))
            .collect();
        let (l, s) = sets[pick % sets.len()];
        // Whether the tamper certainly breaks a rule (it is a no-op when
        // the picked set has no predecessor to collide with).
        let must_fail = match TAMPERS[tamper] {
            "clean" => false,
            "duration" => {
                times[l][s].finish += 1 + (pick % 3) as u64;
                true
            }
            // Move the set back onto its predecessor (or to cycle 0) while
            // keeping its duration.
            "overlap" | "data-dep" => {
                let start = match TAMPERS[tamper] {
                    "overlap" if s > 0 => times[l][s - 1].start,
                    "overlap" => times[l][s].start,
                    _ => 0,
                };
                let t = times[l][s];
                times[l][s] = SetTime { start, finish: start + (t.finish - t.start) };
                if TAMPERS[tamper] == "overlap" {
                    s > 0 && times[l][s - 1].finish > start
                } else {
                    deps.of(l, s).iter().any(|p| legal.time(p.layer, p.set).finish > 0)
                }
            }
            "makespan" => {
                makespan += 1 + (pick % 5) as u64;
                true
            }
            "dropped window" => {
                if pick % 2 == 0 {
                    times.remove(l);
                } else {
                    times[l].pop();
                }
                true
            }
            _ => {
                // Same set space, one edge fewer: a table the schedule was
                // not built from.
                let mut edges: Vec<_> = deps.edges().collect();
                if !edges.is_empty() {
                    edges.remove(pick % edges.len());
                    let counts: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
                    let other = Dependencies::from_edges(&counts, &edges).unwrap();
                    costed = CostedDeps::build(&layers, &other, &edge_cost).unwrap();
                }
                !edges.is_empty()
            }
        };
        let schedule = Schedule::from_nested(times, makespan);

        let first = analyze_costed(&layers, &deps, &schedule, &costed)
            .into_iter()
            .find(|d| d.severity == Severity::Error && VALIDATION_CODES.contains(&d.code))
            .map(|d| d.detail);
        let verdict = validate_schedule_costed(&layers, &deps, &schedule, &costed);
        let tamper = TAMPERS[tamper];
        match &verdict {
            Ok(()) => prop_assert!(first.is_none(), "{}: {:?}", tamper, first),
            Err(CoreError::InvalidSchedule { detail }) => prop_assert!(
                first.as_ref() == Some(detail),
                "{}: validator {:?}, diagnostics {:?}",
                tamper,
                detail,
                first
            ),
            Err(e) => prop_assert!(false, "{}: unexpected error kind {}", tamper, e),
        }
        prop_assert!(verdict.is_err() || !must_fail, "{} went unnoticed", tamper);
        prop_assert!(verdict.is_ok() || tamper != "clean");
        // The table-building wrapper shares the walk and its shape gate.
        if tamper != "foreign cost table" {
            let wrapped = validate_schedule(&layers, &deps, &schedule, &edge_cost);
            prop_assert_eq!(
                wrapped.map_err(|e| e.to_string()),
                verdict.map_err(|e| e.to_string())
            );
        }
    }
}

/// Under weight duplication the duplicates of the input-reading layer read
/// the network input too: their sets have no producers, yet they are not
/// unreachable.
#[test]
fn input_layer_duplicates_are_not_unreachable() {
    for info in clsa_cim::models::all_models() {
        if !["TinyYOLOv4", "ResNet50", "VGG16"].contains(&info.name) {
            continue;
        }
        let g = canonicalize(&info.build(), &CanonOptions::default())
            .unwrap()
            .into_graph();
        let arch = Architecture::paper_case_study(info.pe_min_256 + 16).unwrap();
        let cfg = RunConfig::baseline(arch)
            .with_cross_layer()
            .with_duplication(Solver::Greedy);
        let r = run(&g, &cfg).expect("pipeline runs");
        let input_fed = (1..r.layers.len())
            .filter(|&l| (0..r.layers[l].sets.len()).all(|s| r.deps.fan_in(l, s) == 0))
            .count();
        assert!(
            input_fed > 0,
            "{}: no duplicated input layer to check",
            info.name
        );
        let diags = analyze_costed(&r.layers, &r.deps, &r.schedule, &r.costed);
        let unreachable: Vec<_> = diags.iter().filter(|d| d.code == "unreachable").collect();
        assert!(unreachable.is_empty(), "{}: {unreachable:?}", info.name);
    }
}
