//! Stage reuse through the warm schedule cache: a *chain* of seeded
//! single-axis design-space mutations, each re-evaluated through one
//! long-lived [`ScheduleCache::run`], must be **byte-identical** to a
//! cold-cache evaluation of the same configuration. The stage entry
//! (mapping + Stages I & II) is keyed by [`RunConfig::prepare_arch_facet`]
//! and [`RunConfig::mapping_facet`] alone, so the mapped graph must be
//! *shared* (`Arc` identity) exactly when those facets are equal, and
//! `prepare` must run once per distinct facet tuple.
//!
//! The mutation model mirrors what an ask/tell tuner does between
//! generations: pick a candidate from [`DesignSpace::case_study`]
//! (7 axes: set policy, mapping, duplication budget, crossbar, tile,
//! NoC hop latency, cost model), bump one axis, re-evaluate, repeat.

use std::sync::{Arc, OnceLock};

use cim_bench::runner::{fingerprint, RunSummary, ScheduleCache};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_tune::{Coords, DesignSpace, PeMinMemo};
use clsa_core::{RunConfig, RunResult};
use proptest::prelude::*;

/// Axis positions in [`Coords::as_array`] order.
const TILE_AXIS: usize = 4;
const HOP_AXIS: usize = 5;

/// Canonicalized fig. 5 graph + fingerprint, built once per process.
fn graph() -> &'static (Graph, u64) {
    static GRAPH: OnceLock<(Graph, u64)> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let g = canonicalize(&cim_models::fig5_example(), &CanonOptions::default())
            .expect("fig5 canonicalizes")
            .into_graph();
        let fp = fingerprint(&g);
        (g, fp)
    })
}

/// The run's `RunSummary` as serialized bytes: byte identity, not just `eq`.
fn summary_bytes(result: &RunResult) -> String {
    serde_json::to_string(&RunSummary::of(result)).expect("summary serializes")
}

/// Whether `prepare` reads the same inputs under both configs.
fn same_prepare_facets(a: &RunConfig, b: &RunConfig) -> bool {
    a.prepare_arch_facet() == b.prepare_arch_facet() && a.mapping_facet() == b.mapping_facet()
}

/// The case-study candidate at `coords` as a run config for fig5, or
/// `None` when fig5 has no run there (the tuner skips those too).
fn config_at(space: &DesignSpace, memo: &PeMinMemo, coords: [usize; 7]) -> Option<RunConfig> {
    let (g, _) = graph();
    let cand = space.candidate(space.index_of(&Coords::from_array(coords)));
    memo.pe_min(g, &cand).and_then(|pe| cand.run_config(pe)).ok()
}

/// `(start candidate, 1–4 single-axis bumps as (axis, step))`.
fn chain() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    let len = DesignSpace::case_study().len();
    (0usize..len, proptest::collection::vec((0usize..7, 1usize..8), 1..=4))
}

proptest! {
    #[test]
    fn incremental_rerun_matches_from_scratch(c in chain()) {
        let (start, bumps) = c;
        let space = DesignSpace::case_study();
        let lens = space.axis_lens();
        let (g, fp) = graph();
        let memo = PeMinMemo::new();

        // Each bump wraps within its axis. A wrap back onto the same value
        // is the identity mutation — kept on purpose: it must be a pure
        // cache hit.
        let mut coords = space.coords(start).as_array();
        let mut walk = vec![coords];
        for (axis, step) in bumps {
            coords[axis] = (coords[axis] + step) % lens[axis];
            walk.push(coords);
        }

        // The tuner's long-lived cache, warm across the whole chain; every
        // config handed to it so far; and the successful warm results.
        // Holding the results keeps their `Arc`s alive, so pointer
        // identity below cannot come from a freed-and-reused allocation.
        let cache = ScheduleCache::new();
        let mut configs: Vec<RunConfig> = Vec::new();
        let mut evaluated: Vec<(RunConfig, Arc<RunResult>)> = Vec::new();
        let mut distinct_prepare_facets = 0u64;
        for coords in walk {
            let Some(cfg) = config_at(&space, &memo, coords) else { continue };
            if !configs.iter().any(|seen| same_prepare_facets(seen, &cfg)) {
                distinct_prepare_facets += 1;
            }
            configs.push(cfg.clone());
            let warm = cache.run(*fp, g, &cfg);
            let cold = ScheduleCache::new().run(*fp, g, &cfg);
            match (warm, cold) {
                (Ok(warm), Ok(cold)) => {
                    prop_assert_eq!(summary_bytes(&warm), summary_bytes(&cold));
                    // Stage artifacts are shared exactly when the
                    // prepare facets match.
                    for (seen, prev) in &evaluated {
                        prop_assert_eq!(
                            Arc::ptr_eq(&prev.mapped_graph, &warm.mapped_graph),
                            same_prepare_facets(seen, &cfg)
                        );
                    }
                    evaluated.push((cfg, warm));
                }
                // Both paths must agree on infeasibility, with the same
                // diagnostic.
                (Err(warm), Err(cold)) => {
                    prop_assert_eq!(warm.to_string(), cold.to_string());
                }
                (warm, cold) => {
                    prop_assert!(
                        false,
                        "paths disagree on feasibility: warm ok={} cold ok={}",
                        warm.is_ok(),
                        cold.is_ok()
                    );
                }
            }
            prop_assert_eq!(cache.stats().stage_computes, distinct_prepare_facets);
        }
    }
}

/// With no data-movement cost model (`noc_cost` and `gpeu_cost` off) the
/// scheduler reads neither the tile geometry nor the NoC hop latency, so
/// candidates differing only on those two axes yield identical bytes.
#[test]
fn tile_and_hop_latency_are_output_neutral_without_cost_model() {
    let space = DesignSpace::case_study();
    let (g, fp) = graph();
    let memo = PeMinMemo::new();
    let cache = ScheduleCache::new();
    let mut compared = 0;
    for index in 0..space.len() {
        let coords = space.coords(index).as_array();
        if coords[TILE_AXIS] == 0 && coords[HOP_AXIS] == 0 {
            continue;
        }
        let mut reference = coords;
        reference[TILE_AXIS] = 0;
        reference[HOP_AXIS] = 0;
        let (Some(cfg), Some(ref_cfg)) = (
            config_at(&space, &memo, coords),
            config_at(&space, &memo, reference),
        ) else {
            continue;
        };
        if cfg.noc_cost || cfg.gpeu_cost {
            continue;
        }
        // The pair differs in tile geometry and/or hop latency only.
        assert!(same_prepare_facets(&cfg, &ref_cfg));
        assert_eq!(cfg.scheduling_facet(), ref_cfg.scheduling_facet());
        assert_ne!(cfg.arch, ref_cfg.arch);
        match (cache.run(*fp, g, &cfg), cache.run(*fp, g, &ref_cfg)) {
            (Ok(run), Ok(reference)) => {
                assert_eq!(summary_bytes(&run), summary_bytes(&reference), "candidate {index}");
            }
            (Err(e), Err(reference)) => assert_eq!(e.to_string(), reference.to_string()),
            (run, reference) => panic!(
                "candidate {index}: feasibility differs: ok={} reference ok={}",
                run.is_ok(),
                reference.is_ok()
            ),
        }
        compared += 1;
    }
    assert!(compared > 0, "the case-study space has cost-free tile/hop variants");
}
