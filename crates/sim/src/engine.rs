//! The discrete-event engine.
//!
//! State machine: every base layer is a PE group that executes its Stage-I
//! sets strictly in order; a set may start once all its Stage-II producer
//! sets have *arrived* (finish time plus the NoC forwarding delay under the
//! data-movement extension). Completions are the only events; the heap is
//! ordered by time with `(layer, set)` as a deterministic tie-breaker.
//!
//! Since the multi-tenant fabric extension, the event loop itself lives in
//! [`crate::shared`]: [`Simulator::run_costed`] is the `N == 1` special
//! case of the shared ready-queue/heap core, run on an uncontended fabric.

use clsa_core::{CostedDeps, Dependencies, EdgeCost, LayerSets, Schedule};
use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};
use crate::shared::{run_shared, FabricContention, TenantWorkload};
use crate::stats::SimStats;

/// The simulator: borrows a Stage-I/II workload and executes it.
#[derive(Debug)]
pub struct Simulator<'a> {
    layers: &'a [LayerSets],
    deps: &'a Dependencies,
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The operationally discovered schedule (same shape as the analytic
    /// engine's output).
    pub schedule: Schedule,
    /// Activity, traffic, buffer, and energy statistics.
    pub stats: SimStats,
}

// Simulations run concurrently over shared workloads in the sweep runner;
// the engine borrows its inputs immutably and keeps all run state local.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator<'_>>();
    assert_send_sync::<SimResult>();
};

impl<'a> Simulator<'a> {
    /// Creates a simulator for the given Stage-I/II outputs.
    pub fn new(layers: &'a [LayerSets], deps: &'a Dependencies) -> Self {
        Self { layers, deps }
    }

    /// Runs the workload to completion under the given edge-cost model.
    ///
    /// Edge latencies are precomputed once (see [`CostedDeps`]); callers
    /// that already hold the table of this `(mapping, EdgeCost)` pair
    /// should use [`run_costed`](Self::run_costed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadWorkload`] when the inputs disagree and
    /// [`SimError::Deadlock`] when unfinished sets remain after the event
    /// heap drains (cyclic or forward dependencies).
    pub fn run(&self, edge_cost: &EdgeCost) -> Result<SimResult> {
        let costed = CostedDeps::build(self.layers, self.deps, edge_cost)
            .map_err(|e| SimError::BadWorkload {
                detail: e.to_string(),
            })?;
        self.run_costed(&costed)
    }

    /// [`run`](Self::run) on a prebuilt [`CostedDeps`] table: every edge
    /// delivery reads a precomputed `u64` latency (and hop count, for
    /// energy accounting) from the table instead of re-deriving the cost
    /// model per message. The engine sorts the table's consumer-side edges
    /// into a per-producer fan-out once per run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_costed(&self, costed: &CostedDeps) -> Result<SimResult> {
        // The single-tenant run is the N = 1 special case of the shared
        // fabric core: arrival 0, no home tiles, no contention.
        let workload = TenantWorkload {
            layers: self.layers,
            deps: self.deps,
            costed,
            arrival: 0,
            home_tiles: None,
        };
        let mut outcome = run_shared(
            std::slice::from_ref(&workload),
            &FabricContention::uncontended(),
        )?;
        match outcome.tenants.pop() {
            Some(tenant) => Ok(tenant.result),
            None => Err(SimError::BadWorkload {
                detail: "shared core returned no tenant outcome".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{ActFn, Conv2dAttrs, FeatureShape, Graph, Op, PadSpec, Padding, PoolAttrs, Rect};
    use cim_mapping::{layer_costs, MappingOptions};
    use clsa_core::{
        cross_layer_schedule, determine_dependencies, determine_sets, validate_schedule, OfmSet,
        SetPolicy, SetRef,
    };
    use proptest::prelude::*;

    fn conv_op(oc: usize, k: usize, st: usize) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding: Padding::Valid,
            use_bias: false,
        })
    }

    /// The paper's Fig. 5 style pipeline with a pooling non-base path.
    fn fig5_graph() -> Graph {
        let mut g = Graph::new("fig5");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(18, 18, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("conv1", conv_op(8, 3, 1), &[x]).unwrap();
        let a = g.add("act", Op::Activation(ActFn::Relu), &[c1]).unwrap();
        let p = g
            .add(
                "pool",
                Op::MaxPool2d(PoolAttrs {
                    window: (2, 2),
                    stride: (2, 2),
                    padding: Padding::Valid,
                }),
                &[a],
            )
            .unwrap();
        let pad = g
            .add("pad", Op::ZeroPad2d(PadSpec::uniform(1)), &[p])
            .unwrap();
        let c2 = g.add("conv2", conv_op(8, 3, 1), &[pad]).unwrap();
        g.add("conv3", conv_op(8, 3, 1), &[c2]).unwrap();
        g
    }

    fn stages(g: &Graph, policy: &SetPolicy) -> (Vec<LayerSets>, Dependencies) {
        let costs = layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let layers = determine_sets(g, &costs, policy).unwrap();
        let deps = determine_dependencies(g, &layers).unwrap();
        (layers, deps)
    }

    #[test]
    fn agrees_with_analytic_engine() {
        let g = fig5_graph();
        for policy in [
            SetPolicy::finest(),
            SetPolicy::coarse(4),
            SetPolicy::coarse(1),
        ] {
            let (layers, deps) = stages(&g, &policy);
            let analytic = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
            let sim = Simulator::new(&layers, &deps).run(&EdgeCost::Free).unwrap();
            assert_eq!(sim.schedule, analytic, "policy {policy:?}");
            validate_schedule(&layers, &deps, &sim.schedule, &EdgeCost::Free).unwrap();
        }
    }

    #[test]
    fn agrees_with_analytic_engine_under_noc_cost() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let arch = cim_arch::Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 1,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(7)
            .pes(layers.len())
            .build()
            .unwrap();
        let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
        let placement =
            cim_arch::place_groups(&arch, &sizes, cim_arch::PlacementStrategy::Contiguous).unwrap();
        let cost = EdgeCost::NocHops { arch, placement };
        let analytic = cross_layer_schedule(&layers, &deps, &cost).unwrap();
        let sim = Simulator::new(&layers, &deps).run(&cost).unwrap();
        assert_eq!(sim.schedule, analytic);
        assert!(
            sim.stats.energy.byte_hops > 0,
            "transfers must be accounted"
        );
    }

    #[test]
    fn agrees_with_analytic_engine_under_gpeu_cost() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let arch = cim_arch::Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 2,
                gpeu_ops_per_cycle: 32,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(3)
            .pes(layers.len())
            .build()
            .unwrap();
        let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
        let placement =
            cim_arch::place_groups(&arch, &sizes, cim_arch::PlacementStrategy::Contiguous).unwrap();
        let cost = EdgeCost::NocAndGpeu { arch, placement };
        let analytic = cross_layer_schedule(&layers, &deps, &cost).unwrap();
        let sim = Simulator::new(&layers, &deps).run(&cost).unwrap();
        assert_eq!(sim.schedule, analytic);
        let free = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        assert!(
            analytic.makespan > free.makespan,
            "GPEU work must cost time"
        );
    }

    #[test]
    fn stats_account_all_work() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let sim = Simulator::new(&layers, &deps).run(&EdgeCost::Free).unwrap();
        let expected_active: u64 = layers.iter().map(|l| l.total_cycles()).sum();
        assert_eq!(sim.stats.total_active_cycles(), expected_active);
        assert_eq!(sim.stats.messages, deps.num_edges() as u64);
        assert_eq!(
            sim.stats.events,
            layers.iter().map(|l| l.sets.len() as u64).sum::<u64>()
        );
        assert!(sim.stats.peak_live_bytes > 0);
        // MVM energy: every set-cycle × group PEs.
        let expected_mvms: u64 = layers.iter().map(|l| l.total_cycles() * l.pes as u64).sum();
        assert_eq!(sim.stats.energy.mvm_ops, expected_mvms);
    }

    #[test]
    fn deadlock_detected_on_forward_dependency() {
        let g = fig5_graph();
        let (layers, _) = stages(&g, &SetPolicy::coarse(2));
        let sets_per_layer: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        // Layer 0 depends on layer 2 and vice versa — a cycle.
        let deps = Dependencies::from_edges(
            &sets_per_layer,
            &[
                (SetRef { layer: 0, set: 0 }, SetRef { layer: 2, set: 0 }),
                (SetRef { layer: 2, set: 0 }, SetRef { layer: 0, set: 0 }),
            ],
        )
        .unwrap();
        let err = Simulator::new(&layers, &deps)
            .run(&EdgeCost::Free)
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let err = Simulator::new(&layers[..1], &deps)
            .run(&EdgeCost::Free)
            .unwrap_err();
        assert!(matches!(err, SimError::BadWorkload { .. }));
    }

    #[test]
    fn stall_cycles_expose_dependency_bubbles() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let sim = Simulator::new(&layers, &deps).run(&EdgeCost::Free).unwrap();
        // conv1 streams uninterrupted; downstream layers stall on producers.
        assert_eq!(sim.stats.groups[0].stall_cycles, 0);
        // conv2 row bands arrive every 2 producer rows — it must stall
        // between its pool-quantized inputs.
        assert!(sim.stats.groups[1].stall_cycles > 0);
    }

    /// Random layered workloads: synthetic sets and random backward edges.
    fn arb_workload() -> impl Strategy<Value = (Vec<LayerSets>, Vec<(SetRef, SetRef)>)> {
        let layer = (1usize..6, 1u64..20, 1usize..4);
        proptest::collection::vec(layer, 1..6).prop_flat_map(|spec| {
            let layers: Vec<LayerSets> = spec
                .iter()
                .enumerate()
                .map(|(i, &(nsets, dur, pes))| LayerSets {
                    node: cim_ir::NodeId(i as u32),
                    name: format!("l{i}"),
                    logical: i as u32,
                    ofm: FeatureShape::new(nsets, dur as usize, 1),
                    pes,
                    quantum: 1,
                    sets: (0..nsets)
                        .map(|y| OfmSet {
                            rect: Rect::new(y, 0, y, dur as usize - 1),
                            duration: dur,
                        })
                        .collect(),
                })
                .collect();
            let n_layers = layers.len();
            let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
            if n_layers < 2 {
                return Just((layers, Vec::new())).boxed();
            }
            let edge = (0usize..1024, 0usize..1024, 0usize..1024).prop_map(move |(a, cs, ps)| {
                let cl = 1 + a % (n_layers - 1); // strictly later layer
                let pl = ps % cl; // strictly earlier layer
                let consumer = SetRef {
                    layer: cl,
                    set: cs % sets_per[cl],
                };
                let producer = SetRef {
                    layer: pl,
                    set: (cs + ps) % sets_per[pl],
                };
                (consumer, producer)
            });
            proptest::collection::vec(edge, 0..20)
                .prop_map(move |edges| (layers.clone(), edges))
                .boxed()
        })
    }

    proptest! {
        /// The event-driven engine and the longest-path DP agree on every
        /// random workload — the central cross-validation of both engines.
        #[test]
        fn prop_sim_equals_analytic((layers, edges) in arb_workload()) {
            let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
            let deps = Dependencies::from_edges(&sets_per, &edges).unwrap();
            let analytic = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
            let sim = Simulator::new(&layers, &deps).run(&EdgeCost::Free).unwrap();
            prop_assert_eq!(&sim.schedule, &analytic);
            validate_schedule(&layers, &deps, &sim.schedule, &EdgeCost::Free).unwrap();
        }
    }
}
