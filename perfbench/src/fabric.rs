//! `fabric-contended`: repeated `cim_fabric::run_mix` of two TinyYOLOv4
//! and two ResNet50 streams on a fabric whose weight capacity is below
//! the combined working set, whose links have finite bandwidth, and
//! whose reloads cost cycles.
//!
//! A pass is `MIXES` mixes, mix `j` seeded from the workload seed and
//! `j`, each with a non-zero arrival stagger.

use cim_arch::{place_groups_at, CrossbarSpec, PlacementStrategy};
use cim_bench::runner::mix64;
use cim_fabric::{
    arch_for_mix, run_mix, CoResidency, FabricConfig, FabricResult, FabricSpec, TenantInstance,
    TenantSpec,
};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::{layer_costs, min_pes, MappingOptions};
use cim_sim::{run_shared, FabricContention, TenantWorkload};
use cim_tune::Clock;
use clsa_core::{determine_dependencies, determine_sets, CostedDeps, EdgeCost, SetPolicy};

use crate::report::{Outcome, Samples, Steal};
use crate::trace::Tracer;
use crate::{repeat_setup, Run};

/// A mix slower than this misses the latency limit.
pub const MIX_LIMIT_MS: f64 = 50.0;

const TENANTS: [(&str, usize); 2] = [("TinyYOLOv4", 2), ("ResNet50", 2)];
const MIXES: u64 = 16;
/// Passes timed both untraced and traced for `trace.overhead_ratio`.
const OVERHEAD_PASSES: u64 = 4;
const STAGGER: u64 = 5_000;
const CONTENDED: FabricSpec = FabricSpec {
    link_bandwidth_bytes_per_cycle: 64,
    capacity_pes: 300,
    reload_cycles_per_pe: 500,
};

/// Builds and prepares every tenant stream.
fn prepare() -> Result<Vec<TenantInstance>, String> {
    let mut instances = Vec::new();
    for (model, streams) in TENANTS {
        let base = TenantInstance::prepare(model, &crate::model_graph(model)?)
            .map_err(|e| format!("preparing {model}: {e}"))?;
        instances.extend(base.streams_of(&TenantSpec {
            model: model.to_string(),
            streams,
        }));
    }
    Ok(instances)
}

fn config_for(run: &Run<'_>, instances: &[TenantInstance], j: u64) -> Result<FabricConfig, String> {
    Ok(FabricConfig {
        arch: arch_for_mix(instances, 0).map_err(|e| e.to_string())?,
        policy: CoResidency::Shared,
        fabric: CONTENDED,
        stagger: STAGGER,
        seed: mix64(run.seed ^ mix64(j)),
        jobs: run.jobs,
    })
}

/// Sets one mix simulates: every tenant alone, then all together.
fn sets_per_mix(instances: &[TenantInstance]) -> u64 {
    let sets: usize = instances
        .iter()
        .flat_map(|i| i.layers.iter())
        .map(|l| l.sets.len())
        .sum();
    2 * sets as u64
}

fn check_contended(out: &mut Outcome, j: u64, r: &FabricResult) {
    out.check(r.evictions > 0 && r.link_stall_cycles > 0, || {
        format!(
            "mix {j}: {} evictions, {} link-stall cycles on the contended fabric",
            r.evictions, r.link_stall_cycles
        )
    });
}

/// The untraced run.
pub fn measure(run: &Run<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (instances, setup) = repeat_setup(run, |_| prepare(), drop)?;
    out.metric("setup_s", setup.median(), "s");
    out.timing("setup_s", setup);
    let configs = (0..MIXES)
        .map(|j| config_for(run, &instances, j))
        .collect::<Result<Vec<_>, _>>()?;

    let mut mix_ms = Samples::default();
    let mut pass_ms = Samples::default();
    let mut first: Vec<FabricResult> = Vec::new();
    let mut passes = 0u64;
    let steal = Steal::start();
    let start = run.clock.now();
    while run.clock.now() - start < run.budget() {
        let pass_start = run.clock.now();
        for (j, config) in configs.iter().enumerate() {
            let (result, secs) = run.timed(|| run_mix(&instances, config));
            mix_ms.push(secs * 1e3);
            out.attempted += 1;
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("mix {j}: {e}"));
                    continue;
                }
            };
            if passes == 0 {
                check_contended(&mut out, j as u64, &result);
                first.push(result);
            } else if let Some(f) = first.get(j) {
                out.check(f.makespan_cycles == result.makespan_cycles, || {
                    format!(
                        "mix {j}: makespan {} in pass {passes}, {} in pass 0",
                        result.makespan_cycles, f.makespan_cycles
                    )
                });
            }
        }
        passes += 1;
        pass_ms.push((run.clock.now() - pass_start).as_secs_f64() * 1e3);
    }
    let elapsed = (run.clock.now() - start).as_secs_f64();
    let steal = steal.share();

    let sets = (mix_ms.len() as u64 * sets_per_mix(&instances)) as f64;
    out.host_metrics(
        steal,
        sets,
        elapsed,
        [mix_ms.median(), pass_ms.percentile(90.0)],
        mix_ms.share_at_most(MIX_LIMIT_MS),
    );
    out.named("fabric.sim_sets_per_s", sets / elapsed, "1/s");
    out.named("fabric.mix_ms_p50", mix_ms.median(), "ms");
    out.named("fabric.pass_ms_p90", pass_ms.percentile(90.0), "ms");
    out.named("fabric.mix_ms_p99", mix_ms.percentile(99.0), "ms");
    out.named(
        "fabric.makespan_cycles",
        first.iter().map(|r| r.makespan_cycles as f64).sum(),
        "cycles",
    );
    out.named(
        "fabric.worst_slowdown_milli",
        first
            .iter()
            .map(|r| r.worst_slowdown_milli)
            .max()
            .unwrap_or(0) as f64,
        "milli",
    );
    out.named(
        "fabric.evictions",
        first.iter().map(|r| r.evictions as f64).sum(),
        "count",
    );
    out.named(
        "fabric.link_stall_cycles",
        first.iter().map(|r| r.link_stall_cycles as f64).sum(),
        "cycles",
    );
    out.named("fabric.passes", passes as f64, "count");
    out.timing("mix_ms", mix_ms);
    out.timing("pass_ms", pass_ms);
    Ok(out)
}

/// `TenantInstance::prepare`, composed from its stage functions with a
/// span per call; the guard compares it with the real thing.
fn traced_prepare(
    t: &Tracer<'_>,
    out: &mut Outcome,
    instances: &[TenantInstance],
) -> Result<(), String> {
    for (model, _) in TENANTS {
        let raw = crate::model_graph(model)?;
        let g = t
            .span("frontend", "frontend.canonicalize", || {
                canonicalize(&raw, &CanonOptions::default())
            })
            .map_err(|e| e.to_string())?
            .into_graph();
        let costs = t
            .span("mapping", "mapping.layer_costs", || {
                layer_costs(
                    &g,
                    &CrossbarSpec::wan_nature_2022(),
                    &MappingOptions::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        let pe_min = min_pes(&costs);
        let layers = t
            .span("core", "core.determine_sets", || {
                determine_sets(&g, &costs, &SetPolicy::finest())
            })
            .map_err(|e| e.to_string())?;
        let deps = t
            .span("core", "core.determine_dependencies", || {
                determine_dependencies(&g, &layers)
            })
            .map_err(|e| e.to_string())?;
        let same = instances
            .iter()
            .filter(|i| i.model == model)
            .all(|i| i.pe_min == pe_min && *i.layers == layers && *i.deps == deps);
        out.check(same, || {
            format!("{model}: composed prepare differs from TenantInstance::prepare")
        });
    }
    Ok(())
}

/// Re-runs one mix straight on `cim_sim::run_shared` and checks the
/// solo and shared makespans against `run_mix`'s report.
fn shared_guard(
    t: &Tracer<'_>,
    out: &mut Outcome,
    instances: &[TenantInstance],
    config: &FabricConfig,
    result: &FabricResult,
    j: u64,
) -> Result<u64, String> {
    let mut order: Vec<&TenantInstance> = instances.iter().collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));
    let mut costed = Vec::with_capacity(order.len());
    let mut homes = Vec::with_capacity(order.len());
    for instance in &order {
        let sizes: Vec<usize> = instance.layers.iter().map(|l| l.pes).collect();
        let placement = place_groups_at(&config.arch, &sizes, PlacementStrategy::Contiguous, 0)
            .map_err(|e| e.to_string())?;
        homes.push(
            (0..sizes.len())
                .map(|g| placement.home_tile(g))
                .collect::<Vec<_>>(),
        );
        let edge_cost = EdgeCost::NocHops {
            arch: config.arch.clone(),
            placement,
        };
        costed.push(
            t.span("core", "core.cost_table", || {
                CostedDeps::build(&instance.layers, &instance.deps, &edge_cost)
            })
            .map_err(|e| e.to_string())?,
        );
    }
    let contention = FabricContention {
        noc: Some(*config.arch.noc()),
        spec: config.fabric,
    };
    let workload = |k: usize, arrival: u64| TenantWorkload {
        layers: &order[k].layers,
        deps: &order[k].deps,
        costed: &costed[k],
        arrival,
        home_tiles: Some(homes[k].clone()),
    };
    for (k, report) in result.tenants.iter().enumerate() {
        let solo = t
            .span("sim", "sim.solo", || {
                run_shared(&[workload(k, 0)], &contention)
            })
            .map_err(|e| e.to_string())?;
        out.check(solo.makespan == report.solo_cycles, || {
            format!(
                "mix {j} tenant {k}: solo {} vs run_mix {}",
                solo.makespan, report.solo_cycles
            )
        });
    }
    let all: Vec<TenantWorkload<'_>> = result
        .tenants
        .iter()
        .enumerate()
        .map(|(k, r)| workload(k, r.arrival))
        .collect();
    let shared = t
        .span("sim", "sim.run_shared", || run_shared(&all, &contention))
        .map_err(|e| e.to_string())?;
    out.check(shared.makespan == result.makespan_cycles, || {
        format!(
            "mix {j}: run_shared {} vs run_mix {}",
            shared.makespan, result.makespan_cycles
        )
    });
    Ok(sets_per_mix(instances))
}

/// The traced run: prepare composed stage by stage, each mix under a
/// span, and each mix re-run straight on the shared simulator.
pub fn traced(run: &Run<'_>, t: &Tracer<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let instances = prepare()?;
    traced_prepare(t, &mut out, &instances)?;
    let configs = (0..MIXES)
        .map(|j| config_for(run, &instances, j))
        .collect::<Result<Vec<_>, _>>()?;

    // Each mix untraced, then traced, so drift favours neither side;
    // `OVERHEAD_PASSES` passes for the overhead, the first for the rest.
    let mut results = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for pass in 0..OVERHEAD_PASSES {
        for (j, c) in configs.iter().enumerate() {
            t.set_group(pass * MIXES + j as u64);
            let (plain, secs) = run.timed(|| run_mix(&instances, c));
            plain_s += secs;
            plain.map_err(|e| e.to_string())?;
            let (r, secs) =
                run.timed(|| t.span("fabric", "fabric.run_mix", || run_mix(&instances, c)));
            traced_s += secs;
            let r = r.map_err(|e| e.to_string())?;
            if pass == 0 {
                results.push(r);
            }
        }
    }
    out.metric("trace.overhead_ratio", traced_s / plain_s, "ratio");

    let mut simulated = 0u64;
    for (j, (c, r)) in configs.iter().zip(&results).enumerate() {
        t.set_group(j as u64);
        check_contended(&mut out, j as u64, r);
        simulated += shared_guard(t, &mut out, &instances, c, r, j as u64)?;
    }
    let sum = |f: fn(&FabricResult) -> u64| results.iter().map(|r| f(r) as f64).sum::<f64>();
    out.metric("sim.sets_simulated", simulated as f64, "count");
    out.metric("fabric.evictions", sum(|r| r.evictions), "count");
    out.metric("fabric.reloads", sum(|r| r.reloads), "count");
    out.metric(
        "fabric.link_stall_cycles",
        sum(|r| r.link_stall_cycles),
        "cycles",
    );
    out.metric(
        "fabric.occupancy_stall_cycles",
        sum(|r| r.tenants.iter().map(|t| t.occupancy_stall_cycles).sum()),
        "cycles",
    );
    out.metric(
        "fabric.utilization_milli",
        sum(|r| r.utilization_milli) / results.len().max(1) as f64,
        "milli",
    );
    out.metric(
        "fabric.makespan_cycles",
        sum(|r| r.makespan_cycles),
        "cycles",
    );
    out.metric(
        "fabric.worst_slowdown_milli",
        results
            .iter()
            .map(|r| r.worst_slowdown_milli)
            .max()
            .unwrap_or(0) as f64,
        "milli",
    );
    let sets: u64 = instances
        .iter()
        .flat_map(|i| i.layers.iter())
        .map(|l| l.sets.len() as u64)
        .sum();
    let edges: u64 = instances.iter().map(|i| i.deps.num_edges() as u64).sum();
    out.metric("core.sets", sets as f64, "count");
    out.metric("core.dep_edges", edges as f64, "count");
    Ok(out)
}
