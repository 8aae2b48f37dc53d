//! Multi-tenant fabric simulation — N models sharing one CIM chip with
//! contention, fairness metrics, and tenant-mix tuning.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cim-bench --bin fabric-sim -- \
//!     [--tenants model:streams,model:streams] [--stagger N] [--seed S] \
//!     [--policy shared|partitioned] [--bandwidth B] [--capacity-pes C] \
//!     [--reload R] [--extra-pes E] [--jobs N] [--json <path>] \
//!     [--mix-sweep [--cache-dir <path>]] \
//!     [--fault-seed S --fault-rate site=per_mille ... --fault-delay-ms MS]
//! ```
//!
//! Default mode runs the given mix once and prints per-tenant slowdown
//! and the fairness aggregates. `--mix-sweep` enumerates the tenant-mix
//! knob space ([`MixSpace::tiny`]) over the lane pool and reports the
//! Pareto front over (worst-tenant slowdown ↓, aggregate utilization ↑,
//! evictions ↓); with `--cache-dir`, the single-tenant reference
//! summaries warm the persistent result store.
//!
//! `--help` lists the flags; any other argument, an unknown tenant model
//! and an unknown `--policy` exit 2.
//!
//! Every mode is deterministic: byte-identical exports for any `--jobs`
//! value and any tenant insertion order at a fixed `--seed`.

use cim_bench::cli::{self, Flag};
use cim_bench::runner::{fingerprint, parallel_map, CacheKey, ScheduleCache};
use cim_bench::{export_json, render_table, CommonArgs};
use cim_fabric::{
    arch_for_mix, parse_tenant_list, run_mix, CoResidency, FabricConfig, FabricResult, FabricSpec,
    TenantInstance, TenantSpec,
};
use cim_frontend::{canonicalize, CanonOptions};
use cim_models::graph_by_name;
use cim_tune::{mix_measurement, MixSpace, ParetoArchive};
use clsa_core::RunConfig;
use serde::Serialize;

const FLAGS: &[Flag] = &[
    Flag::value("--tenants", "model:streams,...", "default fig5:2"),
    Flag::value("--stagger", "N", "cycles between arrivals (default 0)"),
    cli::SEED,
    Flag::value("--policy", "shared|partitioned", "default shared"),
    Flag::value("--bandwidth", "B", "link bytes per cycle (default 0: inf)"),
    Flag::value("--capacity-pes", "C", "resident PEs (default 0: inf)"),
    Flag::value("--reload", "R", "reload cycles per PE (default 50)"),
    Flag::value("--extra-pes", "E", "PEs beyond the mix's minimum"),
    cli::JOBS,
    cli::JSON,
    Flag::switch("--mix-sweep", "Pareto front over tenant-mix knobs"),
    cli::CACHE_DIR,
    cli::FAULT_SEED,
    cli::FAULT_RATE,
    cli::FAULT_DELAY_MS,
];

/// Prepares the instances of a tenant list, fanning prepared models out
/// into their streams.
fn instances_of(specs: &[TenantSpec]) -> Vec<TenantInstance> {
    let mut instances = Vec::new();
    for spec in specs {
        let graph = graph_by_name(&spec.model).expect("tenant models are checked in main");
        let base = TenantInstance::prepare(&spec.model, &graph)
            .unwrap_or_else(|e| panic!("preparing {}: {e}", spec.model));
        instances.extend(base.streams_of(spec));
    }
    instances
}

fn print_result(result: &FabricResult) {
    let rows: Vec<Vec<String>> = result
        .tenants
        .iter()
        .map(|t| {
            vec![
                t.tenant.clone(),
                t.arrival.to_string(),
                t.span_cycles.to_string(),
                t.solo_cycles.to_string(),
                format!("{:.3}", t.slowdown()),
                t.occupancy_stall_cycles.to_string(),
                t.link_stall_cycles.to_string(),
                t.evictions.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "tenant",
                "arrival",
                "span (cycles)",
                "solo (cycles)",
                "slowdown",
                "occupancy stalls",
                "link stalls",
                "evictions"
            ],
            &rows
        )
    );
    println!(
        "makespan {} cycles | worst slowdown {:.3} | Jain fairness {:.3} | utilization {:.1}% | {} reloads",
        result.makespan_cycles,
        result.worst_slowdown(),
        result.jain_fairness(),
        result.utilization() * 100.0,
        result.reloads,
    );
}

/// One evaluated point of the `--mix-sweep` export.
#[derive(Serialize)]
struct SweepRow {
    index: usize,
    label: String,
    worst_slowdown_milli: u64,
    jain_fairness_milli: u64,
    utilization_milli: u64,
    evictions: u64,
    on_front: bool,
}

fn mix_sweep_mode(args: &CommonArgs, instances: &[TenantInstance], config: &FabricConfig) {
    let space = MixSpace::tiny();
    space.validate().unwrap_or_else(|e| panic!("mix space: {e}"));
    let points: Vec<usize> = (0..space.len()).collect();
    // The lane pool chews mix points concurrently; each point's inner
    // solo baselines stay single-threaded (jobs = 1) so the worker
    // count is bounded by --jobs.
    let results = parallel_map(&points, args.runner.jobs, |_, &i| {
        let point = space.point(i);
        let mut cfg = config.clone();
        cfg.policy = point.policy;
        cfg.fabric = point.fabric_spec();
        cfg.jobs = 1;
        let result = run_mix(instances, &cfg).unwrap_or_else(|e| panic!("mix point {i}: {e}"));
        (point, result)
    });

    // Warm the persistent store with the single-tenant reference
    // summaries: one row per distinct model, keyed like every other
    // sweep so later autotune/serve runs replay them from disk.
    if let Some(store) = args.open_store() {
        let cache = ScheduleCache::new();
        let mut models: Vec<&str> = instances.iter().map(|t| t.model.as_str()).collect();
        models.sort_unstable();
        models.dedup();
        for model in models {
            let graph = graph_by_name(model).unwrap_or_else(|| panic!("unknown model {model:?}"));
            let graph = canonicalize(&graph, &CanonOptions::default())
                .expect("registry models canonicalize")
                .into_graph();
            let fp = fingerprint(&graph);
            let run_config = RunConfig::baseline(config.arch.clone()).with_cross_layer();
            let key = CacheKey::schedule(fp, &run_config);
            if store.get(&key).is_none() {
                let result = cache
                    .run(fp, &graph, &run_config)
                    .unwrap_or_else(|e| panic!("solo reference {model}: {e}"));
                store.put(&key, &cim_bench::runner::RunSummary::of(&result));
            }
        }
        let stats = store.stats();
        println!(
            "store: {} rows, {} hits / {} misses this run",
            store.len(),
            stats.hits,
            stats.misses()
        );
    }

    let mut archive = ParetoArchive::new();
    for (point, result) in &results {
        archive.insert(
            point.index,
            mix_measurement(
                result.worst_slowdown_milli,
                result.utilization_milli,
                result.evictions,
            ),
        );
    }
    let front: Vec<usize> = archive.sorted().iter().map(|e| e.candidate).collect();
    let rows: Vec<SweepRow> = results
        .iter()
        .map(|(point, result)| SweepRow {
            index: point.index,
            label: point.label(),
            worst_slowdown_milli: result.worst_slowdown_milli,
            jain_fairness_milli: result.jain_fairness_milli,
            utilization_milli: result.utilization_milli,
            evictions: result.evictions,
            on_front: front.contains(&point.index),
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.worst_slowdown_milli as f64 / 1000.0),
                format!("{:.3}", r.jain_fairness_milli as f64 / 1000.0),
                format!("{:.1}%", r.utilization_milli as f64 / 10.0),
                r.evictions.to_string(),
                if r.on_front { "*".into() } else { String::new() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["mix point", "worst slowdown", "Jain fairness", "utilization", "evictions", "front"],
            &table
        )
    );
    println!("{} of {} mix points on the Pareto front", front.len(), rows.len());
    if let Some(path) = &args.json {
        export_json(path, &rows);
        println!("wrote {path}");
    }
}

fn main() {
    let flags = cli::parse_env(FLAGS);
    let args = flags.common();
    let list = flags.value("--tenants").unwrap_or("fig5:2");
    let specs =
        parse_tenant_list(list).unwrap_or_else(|e| flags.reject("--tenants", list, e.to_string()));
    if let Some(spec) = specs.iter().find(|s| graph_by_name(&s.model).is_none()) {
        let unknown = format!("unknown model {:?} (try fig5, TinyYOLOv4)", spec.model);
        flags.reject("--tenants", list, unknown);
    }
    let policy = flags.value("--policy").map_or(CoResidency::Shared, |v| {
        CoResidency::parse(v)
            .unwrap_or_else(|| flags.reject("--policy", v, "expected shared|partitioned"))
    });
    let u64_flag = |flag, default| flags.check(flags.get(flag)).unwrap_or(default);
    let fabric = FabricSpec {
        link_bandwidth_bytes_per_cycle: u64_flag("--bandwidth", 0),
        capacity_pes: u64_flag("--capacity-pes", 0) as usize,
        reload_cycles_per_pe: u64_flag("--reload", 50),
    };
    let extra_pes = u64_flag("--extra-pes", 0) as usize;
    let stagger = u64_flag("--stagger", 0);
    let mix_sweep = flags.switch("--mix-sweep");
    args.report_faults();
    let seed = args.seed_or_default();
    println!("seed: {seed}");

    let instances = instances_of(&specs);
    let arch = arch_for_mix(&instances, extra_pes).unwrap_or_else(|e| panic!("architecture: {e}"));
    let config = FabricConfig {
        arch,
        policy,
        fabric,
        stagger,
        seed,
        jobs: args.runner.jobs,
    };

    if mix_sweep {
        mix_sweep_mode(&args, &instances, &config);
        return;
    }
    if let Some(dir) = &args.cache_dir {
        eprintln!("note: --cache-dir {dir} ignored — only --mix-sweep persists results");
    }
    let result = run_mix(&instances, &config).unwrap_or_else(|e| panic!("mix runs: {e}"));
    print_result(&result);
    if let Some(path) = &args.json {
        export_json(path, &result);
        println!("wrote {path}");
    }
}
