//! Ablations of the design choices the paper leaves unquantified, one
//! study per run:
//!
//! | Study | Question |
//! |-------|----------|
//! | `granularity` (A1) | Stage-I set granularity vs cross-layer speedup |
//! | `duplication` (A2) | greedy vs exact (DP) duplication solver |
//! | `noc` (A3) | NoC hop cost vs cross-layer gain (Sec. V-C) |
//! | `bitslice` (A4) | weight precision / bit slicing vs `PE_min` |
//! | `batching` (A5) | pipelined inference batches vs utilization |
//!
//! Each study builds its job grid, runs it on the lane pool through one
//! shared [`ScheduleCache`], prints a table, and with `--json` exports its
//! records.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation -- <study> [--json <path>] [--jobs N]`.
//! `--help` prints the flags; a missing or unknown study exits 2.

use std::sync::Arc;

use cim_arch::{Architecture, PlacementStrategy, TileSpec};
use cim_bench::cli::{self, Flag, UsageError};
use cim_bench::render_table;
use cim_bench::runner::{fingerprint, parallel_map, pe_min_of, ScheduleCache};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_mapping::{MappingOptions, Solver};
use clsa_core::{batched_cross_layer_schedule, EdgeCost, RunConfig, RunResult, SetPolicy};
use serde::Serialize;

const STUDY: Flag = Flag::switch(
    "<study>",
    "granularity | duplication | noc | bitslice | batching",
);
const FLAGS: &[Flag] = &[STUDY, cli::JSON, cli::JOBS];

/// Runs one study's grid, prints its report and writes its `--json`.
type Study = fn(&Engine, Option<&str>);

/// Every study, by the name its operand takes.
const STUDIES: &[(&str, Study)] = &[
    ("granularity", |e, json| granularity(e).print(e, json)),
    ("duplication", |e, json| duplication(e).print(e, json)),
    ("noc", |e, json| noc(e).print(e, json)),
    ("bitslice", |e, json| bitslice(e).print(e, json)),
    ("batching", |e, json| batching(e).print(e, json)),
];

fn main() {
    let args = cli::parse_env(FLAGS);
    let name = args.check(args.operand().ok_or(UsageError::Missing(STUDY.name)));
    let Some((_, study)) = STUDIES.iter().find(|(n, _)| *n == name) else {
        let known: Vec<&str> = STUDIES.iter().map(|(n, _)| *n).collect();
        args.reject(
            STUDY.name,
            name,
            format!("expected one of {}", known.join(", ")),
        )
    };
    let common = args.common();
    let engine = Engine {
        cache: ScheduleCache::new(),
        lanes: common.runner.jobs,
    };
    study(&engine, common.json.as_deref());
}

/// A canonicalized model and its fingerprint, borrowed by all its jobs.
struct Model {
    name: &'static str,
    graph: Graph,
    fp: u64,
}

impl Model {
    fn load(name: &'static str, raw: &Graph) -> Self {
        let graph = canonicalize(raw, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let fp = fingerprint(&graph);
        Model { name, graph, fp }
    }

    /// Closed-form `PE_min` under the default mapping.
    fn pe_min(&self) -> usize {
        pe_min_of(&self.graph, &MappingOptions::default()).expect("costs")
    }
}

/// One schedule cache shared by every job of a study, over the lane pool.
struct Engine {
    cache: ScheduleCache,
    lanes: usize,
}

impl Engine {
    /// `f` over every job, concurrently; results come back in job order.
    fn map<J: Sync, R: Send>(&self, jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
        parallel_map(jobs, self.lanes, |_, job| f(job))
    }

    fn run(&self, model: &Model, config: &RunConfig) -> Arc<RunResult> {
        self.cache
            .run(model.fp, &model.graph, config)
            .expect("pipeline runs")
    }
}

/// What a study prints and exports.
struct Report<R> {
    title: &'static str,
    header: &'static [&'static str],
    row: fn(&R) -> Vec<String>,
    footer: String,
    records: Vec<R>,
}

impl<R: Serialize> Report<R> {
    fn print(self, engine: &Engine, json: Option<&str>) {
        println!("{}\n", self.title);
        let rows: Vec<Vec<String>> = self.records.iter().map(self.row).collect();
        println!("{}", render_table(self.header, &rows));
        println!("{}", self.footer);
        eprintln!("schedule cache: {}", engine.cache.stats());
        if let Some(path) = json {
            cim_bench::export_json(path, &self.records);
            println!("wrote {path}");
        }
    }
}

#[derive(Serialize)]
struct GranularityRecord {
    model: &'static str,
    policy: String,
    total_sets: usize,
    makespan_cycles: u64,
    speedup_vs_lbl: f64,
}

/// A1. The paper notes that "increasing the number of sets provides a
/// more detailed scheduling granularity" but does not quantify the
/// trade-off. This runs `xinf` at `PE_min` under set policies from one
/// set per OFM (no overlap possible) to the finest quantum-aligned
/// granularity.
fn granularity(engine: &Engine) -> Report<GranularityRecord> {
    let models = [
        Model::load("TinyYOLOv4", &cim_models::tiny_yolo_v4()),
        Model::load("VGG16", &cim_models::vgg16()),
    ];
    let policies: Vec<(String, SetPolicy)> = [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&n| (format!("coarse({n})"), SetPolicy::coarse(n)))
        .chain(std::iter::once(("finest".to_string(), SetPolicy::finest())))
        .collect();

    // Per model: the layer-by-layer reference at PE_min (granularity does
    // not affect it), then one xinf job per policy.
    let mut jobs: Vec<(&Model, Option<&String>, RunConfig)> = Vec::new();
    for m in &models {
        let arch = Architecture::paper_case_study(m.pe_min()).unwrap();
        jobs.push((m, None, RunConfig::baseline(arch.clone())));
        for (label, policy) in &policies {
            let mut cfg = RunConfig::baseline(arch.clone()).with_cross_layer();
            cfg.set_policy = *policy;
            jobs.push((m, Some(label), cfg));
        }
    }
    let outcomes = engine.map(&jobs, |(m, _, cfg)| engine.run(m, cfg));

    let mut lbl = 0;
    let mut records = Vec::new();
    for ((m, label, _), r) in jobs.iter().zip(&outcomes) {
        let Some(policy) = label else {
            lbl = r.makespan();
            continue;
        };
        records.push(GranularityRecord {
            model: m.name,
            policy: policy.to_string(),
            total_sets: r.layers.iter().map(|l| l.sets.len()).sum(),
            makespan_cycles: r.makespan(),
            speedup_vs_lbl: lbl as f64 / r.makespan() as f64,
        });
    }

    Report {
        title: "Ablation A1 — Stage-I set granularity vs xinf speedup",
        header: &["model", "policy", "total sets", "makespan", "speedup"],
        row: |r| {
            vec![
                r.model.to_string(),
                r.policy.clone(),
                r.total_sets.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.2}x", r.speedup_vs_lbl),
            ]
        },
        footer: "expectation: speedup grows monotonically with granularity, saturating\n\
                 at the quantum limit; coarse(1) degenerates to layer-by-layer on chains."
            .to_string(),
        records,
    }
}

#[derive(Serialize)]
struct DuplicationRecord {
    model: &'static str,
    x: usize,
    greedy_objective: f64,
    exact_objective: f64,
    objective_gap_pct: f64,
    greedy_makespan: u64,
    exact_makespan: u64,
}

/// A2. The paper's Optimization Problem 1 is solved greedily in practice;
/// this quantifies how far the greedy marginal-gain-per-PE heuristic is
/// from the exact dynamic program, in both objective value (`Σ t_i/d_i`)
/// and realized `wdup+x+xinf` makespan.
fn duplication(engine: &Engine) -> Report<DuplicationRecord> {
    let zoo = cim_models::all_models();
    let models: Vec<Model> = zoo
        .iter()
        .map(|i| Model::load(i.name, &i.build()))
        .collect();
    // One job per (model, x); the grid of 7 models × 5 budgets keeps every
    // worker saturated.
    let mut jobs: Vec<(&Model, usize, usize)> = Vec::new();
    for (m, info) in models.iter().zip(&zoo) {
        for x in [4usize, 8, 16, 32, 64] {
            jobs.push((m, info.pe_min_256, x));
        }
    }

    let records = engine.map(&jobs, |&(m, pe_min, x)| {
        let arch = Architecture::paper_case_study(pe_min + x).unwrap();
        let [(g_obj, g_mk), (e_obj, e_mk)] = [Solver::Greedy, Solver::ExactDp].map(|solver| {
            let cfg = RunConfig::baseline(arch.clone())
                .with_duplication(solver)
                .with_cross_layer();
            let r = engine.run(m, &cfg);
            let obj = r.plan.as_ref().expect("duplication").objective_cycles;
            (obj, r.makespan())
        });
        DuplicationRecord {
            model: m.name,
            x,
            greedy_objective: g_obj,
            exact_objective: e_obj,
            objective_gap_pct: (g_obj - e_obj) / e_obj * 100.0,
            greedy_makespan: g_mk,
            exact_makespan: e_mk,
        }
    });

    let worst = records
        .iter()
        .map(|r| r.objective_gap_pct)
        .fold(0.0f64, f64::max);
    Report {
        title: "Ablation A2 — greedy vs exact duplication solver (wdup+x+xinf)",
        header: &[
            "model",
            "x",
            "greedy obj",
            "exact obj",
            "obj gap",
            "greedy mkspan",
            "exact mkspan",
        ],
        row: |r| {
            vec![
                r.model.to_string(),
                r.x.to_string(),
                format!("{:.0}", r.greedy_objective),
                format!("{:.0}", r.exact_objective),
                format!("{:.3}%", r.objective_gap_pct),
                r.greedy_makespan.to_string(),
                r.exact_makespan.to_string(),
            ]
        },
        footer: format!(
            "worst greedy objective gap: {worst:.3}% — the paper's greedy behaviour is near-optimal"
        ),
        records,
    }
}

#[derive(Serialize)]
struct NocRecord {
    model: &'static str,
    hop_latency_cycles: u64,
    placement: &'static str,
    makespan_cycles: u64,
    speedup_vs_lbl: f64,
    slowdown_vs_free_noc: f64,
}

/// What one NoC job measures: a reference, or one sweep point.
enum Kind {
    Baseline,
    FreeXinf,
    Point { hop: u64, placement: &'static str },
}

/// A3. The paper's Sec. V-C future work: how much of the cross-layer gain
/// survives when forwarding partial results over the mesh costs hop
/// latency, and how much placement matters.
fn noc(engine: &Engine) -> Report<NocRecord> {
    let models = [
        Model::load("VGG16", &cim_models::vgg16()),
        Model::load("TinyYOLOv4", &cim_models::tiny_yolo_v4()),
    ];
    // Per model: the two references, then the (hop, placement) points.
    // All points of one model share its mapping and, per hop value, its
    // architecture, so the cache collapses their Stage-I/II work.
    let mut jobs: Vec<(&Model, Kind, RunConfig)> = Vec::new();
    for m in &models {
        let pe_min = m.pe_min();
        let arch_for = |hop: u64| {
            Architecture::builder()
                .tile(TileSpec::isaac_like())
                .noc_hop_latency(hop)
                .pes(pe_min)
                .build()
                .unwrap()
        };
        jobs.push((m, Kind::Baseline, RunConfig::baseline(arch_for(0))));
        let free = RunConfig::baseline(arch_for(0)).with_cross_layer();
        jobs.push((m, Kind::FreeXinf, free));
        for hop in [0u64, 1, 4, 16, 64] {
            for (placement, strategy, gpeu) in [
                ("contiguous", PlacementStrategy::Contiguous, false),
                ("round-robin", PlacementStrategy::RoundRobinTiles, false),
                ("contiguous+gpeu", PlacementStrategy::Contiguous, true),
            ] {
                let mut cfg = RunConfig::baseline(arch_for(hop)).with_cross_layer();
                cfg.noc_cost = true;
                cfg.gpeu_cost = gpeu;
                cfg.placement = strategy;
                jobs.push((m, Kind::Point { hop, placement }, cfg));
            }
        }
    }
    let makespans = engine.map(&jobs, |(m, _, cfg)| engine.run(m, cfg).makespan());

    let (mut lbl, mut free) = (0, 0);
    let mut records = Vec::new();
    for ((m, kind, _), &makespan) in jobs.iter().zip(&makespans) {
        match *kind {
            Kind::Baseline => lbl = makespan,
            Kind::FreeXinf => free = makespan,
            Kind::Point { hop, placement } => records.push(NocRecord {
                model: m.name,
                hop_latency_cycles: hop,
                placement,
                makespan_cycles: makespan,
                speedup_vs_lbl: lbl as f64 / makespan as f64,
                slowdown_vs_free_noc: makespan as f64 / free as f64,
            }),
        }
    }

    Report {
        title: "Ablation A3 — NoC hop cost vs cross-layer gain (xinf @ PE_min)",
        header: &[
            "model",
            "hop cycles",
            "placement",
            "makespan",
            "speedup",
            "vs free NoC",
        ],
        row: |r| {
            vec![
                r.model.to_string(),
                r.hop_latency_cycles.to_string(),
                r.placement.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.2}x", r.speedup_vs_lbl),
                format!("{:.3}x", r.slowdown_vs_free_noc),
            ]
        },
        footer: "expectation: gains shrink as hops get expensive; contiguous placement\n\
                 keeps producer-consumer pairs near and degrades more slowly."
            .to_string(),
        records,
    }
}

#[derive(Serialize)]
struct BitsliceRecord {
    model: &'static str,
    weight_bits: u8,
    pe_min: usize,
    xinf_speedup: f64,
}

/// A4. Storing `weight_bits`-bit weights in 4-bit RRAM cells multiplies
/// the crossbar columns a layer needs, inflating `PE_min` (Eq. 1 with the
/// effective width) and shifting the duplication and scheduling results.
fn bitslice(engine: &Engine) -> Report<BitsliceRecord> {
    let models: Vec<Model> = [cim_models::case_study_model()]
        .into_iter()
        .chain(cim_models::table2_models())
        .map(|info| Model::load(info.name, &info.build()))
        .collect();
    // One job per (model, precision); its lbl/xinf pair resolves through
    // the shared cache, so the pair computes its stages once.
    let options = |bits| MappingOptions {
        weight_bits: Some(bits),
    };
    let mut jobs: Vec<(&Model, u8, usize)> = Vec::new();
    for m in &models {
        for bits in [4u8, 8, 16] {
            // PE_min under this precision is closed-form (Eq. 1).
            jobs.push((m, bits, pe_min_of(&m.graph, &options(bits)).expect("costs")));
        }
    }

    let records = engine.map(&jobs, |&(m, bits, pe_min)| {
        let mopts = options(bits);
        let arch = Architecture::paper_case_study(pe_min).unwrap();
        let mut lbl_cfg = RunConfig::baseline(arch.clone());
        lbl_cfg.mapping_options = mopts;
        let lbl = engine.run(m, &lbl_cfg);
        let mut xinf_cfg = RunConfig::baseline(arch).with_cross_layer();
        xinf_cfg.mapping_options = mopts;
        let xinf = engine.run(m, &xinf_cfg);
        BitsliceRecord {
            model: m.name,
            weight_bits: bits,
            pe_min,
            xinf_speedup: lbl.makespan() as f64 / xinf.makespan() as f64,
        }
    });

    Report {
        title: "Ablation A4 — weight precision vs PE_min and xinf speedup\n\
                (4-bit RRAM cells; >4-bit weights are bit-sliced across columns)",
        header: &["model", "weight bits", "PE_min", "xinf speedup"],
        row: |r| {
            vec![
                r.model.to_string(),
                r.weight_bits.to_string(),
                r.pe_min.to_string(),
                format!("{:.2}x", r.xinf_speedup),
            ]
        },
        footer: "4-bit weights reproduce the paper's PE_min values; higher precisions\n\
                 inflate column demand (P_H) and with it the PE budget."
            .to_string(),
        records,
    }
}

#[derive(Serialize)]
struct BatchingRecord {
    model: &'static str,
    config: &'static str,
    batch: usize,
    makespan_cycles: u64,
    cycles_per_inference: f64,
    utilization: f64,
}

/// A5, an extension beyond the paper, which notes that single-inference
/// utilization "usually remains below 10 %" because of fill/drain
/// bubbles. Weight-stationary groups can start the next inference the
/// moment they finish their own part of the current one; this measures
/// how steady-state utilization and per-inference latency evolve with
/// batch size.
fn batching(engine: &Engine) -> Report<BatchingRecord> {
    let models = [
        Model::load("TinyYOLOv4", &cim_models::tiny_yolo_v4()),
        Model::load("TinyYOLOv3", &cim_models::tiny_yolo_v3()),
        Model::load("VGG16", &cim_models::vgg16()),
    ];
    // One job per (model, config); the four batch depths inside a job
    // reuse that job's single pipeline run.
    let mut jobs: Vec<(&Model, &'static str, usize, RunConfig)> = Vec::new();
    for m in &models {
        for (config, extra, duplicate) in [("xinf", 0usize, false), ("wdup+32+xinf", 32, true)] {
            let total_pes = m.pe_min() + extra;
            let arch = Architecture::paper_case_study(total_pes).unwrap();
            let mut cfg = RunConfig::baseline(arch).with_cross_layer();
            if duplicate {
                cfg = cfg.with_duplication(Solver::Greedy);
            }
            jobs.push((m, config, total_pes, cfg));
        }
    }

    let records = engine.map(&jobs, |&(m, config, total_pes, ref cfg)| {
        let r = engine.run(m, cfg);
        let work: u64 = r
            .layers
            .iter()
            .map(|l| l.pes as u64 * l.total_cycles())
            .sum();
        [1usize, 2, 4, 16].map(|batch| {
            let b = batched_cross_layer_schedule(&r.layers, &r.deps, &EdgeCost::Free, batch)
                .expect("batched schedule");
            BatchingRecord {
                model: m.name,
                config,
                batch,
                makespan_cycles: b.makespan,
                cycles_per_inference: b.cycles_per_inference(),
                utilization: (batch as u64 * work) as f64 / (total_pes as u64 * b.makespan) as f64,
            }
        })
    });

    Report {
        title: "Ablation A5 — pipelined inference batches",
        header: &[
            "model",
            "config",
            "batch",
            "makespan",
            "cycles/inference",
            "utilization",
        ],
        row: |r| {
            vec![
                r.model.to_string(),
                r.config.to_string(),
                r.batch.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.0}", r.cycles_per_inference),
                format!("{:.1}%", r.utilization * 100.0),
            ]
        },
        footer: "at PE_min the first layer is already the steady-state bottleneck, so\n\
                 batching adds little; with duplication the layer times are balanced and\n\
                 pipelining compounds the gain (amortizing the fill/drain bubbles)."
            .to_string(),
        records: records.into_iter().flatten().collect(),
    }
}
