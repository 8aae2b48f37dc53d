//! `sweep-cold`: the whole 720-candidate case-study grid, explored from
//! a fresh evaluator with no result store, on four models.
//!
//! A pass calls what `cim_bench::tune::autotune` calls — a fresh
//! `TuneEvaluator` on `jobs = nproc` lanes, `cim_tune::tune` with a grid
//! walk, `pareto_rows` — per model. The evaluator is wrapped so each
//! tuner round (one 16-candidate batch) is timed: the round is the
//! operation whose latency this workload reports.

use std::cell::RefCell;
use std::collections::BTreeMap;

use cim_bench::artifacts::fig6c_results;
use cim_bench::runner::RunnerOptions;
use cim_bench::tune::{autotune, pareto_rows, ParetoRow, TuneEvaluator};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_sim::Simulator;
use cim_tune::{
    tune, Budget, Candidate, Clock, CostModelAxis, DesignSpace, Evaluator, GridSearch, Measurement,
    PeMinMemo, SystemClock, TuneOptions,
};
use clsa_core::CoreError;

use crate::compose::{compose, STAGE_SPANS};
use crate::report::{Outcome, Samples, Steal};
use crate::trace::Tracer;
use crate::{repeat_setup, Run};

/// A tuner round slower than this misses the latency limit.
pub const ROUND_LIMIT_MS: f64 = 250.0;

/// Base layers of the seeded random model.
const RANDOM_LAYERS: usize = 30;

/// The golden `fig6c` export, relative to the repository root.
const FIG6C_GOLDEN: &str = "tests/golden/fig6c.json";

/// The workload's models, canonicalized, in a fixed order.
fn models(t: &Tracer<'_>, seed: u64) -> Result<Vec<(String, Graph)>, String> {
    let raw = [
        ("TinyYOLOv4".to_string(), cim_models::tiny_yolo_v4()),
        ("VGG16".to_string(), cim_models::vgg16()),
        ("ResNet152".to_string(), cim_models::resnet152()),
        (
            format!("random_cnn({seed},{RANDOM_LAYERS})"),
            cim_models::random_cnn(seed, RANDOM_LAYERS),
        ),
    ];
    raw.into_iter()
        .map(|(name, g)| {
            let canon = t.span("frontend", "frontend.canonicalize", || {
                canonicalize(&g, &CanonOptions::default())
            });
            canon
                .map(|c| (name.clone(), c.into_graph()))
                .map_err(|e| format!("canonicalizing {name}: {e}"))
        })
        .collect()
}

/// Times every `evaluate` call of the wrapped evaluator.
struct RoundTimer<'a, E> {
    inner: E,
    clock: &'a SystemClock,
    rounds_ms: RefCell<Samples>,
}

impl<E: Evaluator> Evaluator for RoundTimer<'_, E> {
    fn evaluate(&self, batch: &[Candidate]) -> Vec<Result<Measurement, CoreError>> {
        let start = self.clock.now();
        let out = self.inner.evaluate(batch);
        let ms = (self.clock.now() - start).as_secs_f64() * 1e3;
        self.rounds_ms.borrow_mut().push(ms);
        out
    }
}

/// Wraps the evaluator's batches in `tune.evaluate` spans.
struct TracedEvaluator<'a, 't, E> {
    inner: E,
    tracer: &'a Tracer<'t>,
}

impl<E: Evaluator> Evaluator for TracedEvaluator<'_, '_, E> {
    fn evaluate(&self, batch: &[Candidate]) -> Vec<Result<Measurement, CoreError>> {
        self.tracer
            .span("runner", "tune.evaluate", || self.inner.evaluate(batch))
    }
}

/// Lowest latency on a front (rows come latency-ascending).
fn front_latency(rows: &[ParetoRow]) -> u64 {
    rows.iter().map(|r| r.latency_cycles).min().unwrap_or(0)
}

fn geomean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| (v.max(1) as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The untraced run.
pub fn measure(run: &Run<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let quiet = Tracer::off(run.clock);
    let (models, setup) = repeat_setup(run, |_| models(&quiet, run.seed), drop)?;
    out.metric("setup_s", setup.median(), "s");
    out.timing("setup_s", setup);

    let space = DesignSpace::case_study();
    let runner = RunnerOptions::with_jobs(run.jobs);
    let mut first_fronts: Vec<Option<Vec<ParetoRow>>> = vec![None; models.len()];
    let mut front_latencies = vec![0u64; models.len()];
    let mut round_ms = Samples::default();
    let mut passes_ms = Samples::default();
    let mut configs = 0u64;
    let mut passes = 0u64;
    let steal = Steal::start();
    let start = run.clock.now();
    while run.clock.now() - start < run.budget() {
        let pass_start = run.clock.now();
        for (i, (name, graph)) in models.iter().enumerate() {
            let timer = RoundTimer {
                inner: TuneEvaluator::new(graph, &runner, None),
                clock: run.clock,
                rounds_ms: RefCell::new(Samples::default()),
            };
            let result = tune(
                &space,
                &mut GridSearch::new(),
                &timer,
                &Budget::default(),
                &TuneOptions::default(),
            )
            .map_err(|e| format!("tuning {name}: {e}"))?;
            let rows = pareto_rows(&space, &result.archive);
            configs += result.stats.evaluated as u64;
            out.attempted += result.stats.evaluated as u64;
            out.failed += result.stats.infeasible as u64;
            round_ms.extend(&timer.rounds_ms.into_inner());
            match &first_fronts[i] {
                None => {
                    front_latencies[i] = front_latency(&rows);
                    first_fronts[i] = Some(rows);
                }
                Some(first) => out.check(*first == rows, || {
                    format!("{name}: pass {passes} front differs from pass 0")
                }),
            }
        }
        passes += 1;
        passes_ms.push((run.clock.now() - pass_start).as_secs_f64() * 1e3);
    }
    let elapsed = (run.clock.now() - start).as_secs_f64();
    let steal = steal.share();

    // Output checks, outside the timed window.
    let golden = std::fs::read_to_string(FIG6C_GOLDEN);
    let fig6c = fig6c_results(&runner, None)
        .map_err(|e| e.to_string())
        .and_then(|rows| serde_json::to_string_pretty(&rows).map_err(|e| e.to_string()));
    match (&golden, &fig6c) {
        (Ok(g), Ok(f)) => out.check(g == f, || "fig6c differs from the golden".into()),
        (Err(e), _) => out.check(false, || format!("reading {FIG6C_GOLDEN}: {e}")),
        (_, Err(e)) => out.check(false, || format!("fig6c sweep: {e}")),
    }

    out.host_metrics(
        steal,
        configs as f64,
        elapsed,
        [passes_ms.median(), round_ms.percentile(99.0)],
        round_ms.share_at_most(ROUND_LIMIT_MS),
    );
    out.named("sweep.configs_per_s", configs as f64 / elapsed, "1/s");
    out.named("sweep.pass_ms_p50", passes_ms.median(), "ms");
    out.named("sweep.round_ms_p99", round_ms.percentile(99.0), "ms");
    out.named("sweep.passes", passes as f64, "count");
    out.named(
        "sweep.front_latency_geomean_cycles",
        geomean(&front_latencies),
        "cycles",
    );
    out.timing("pass_ms", passes_ms);
    out.timing("round_ms", round_ms);
    Ok(out)
}

/// One untraced `autotune` pass over every model; configs per second.
fn autotune_pass(run: &Run<'_>, models: &[(String, Graph)], jobs: usize) -> Result<f64, String> {
    let space = DesignSpace::case_study();
    let runner = RunnerOptions::with_jobs(jobs);
    let (configs, secs) = run.timed(|| -> Result<usize, String> {
        let mut configs = 0;
        for (name, graph) in models {
            let (result, _) = autotune(
                graph,
                &space,
                &mut GridSearch::new(),
                &Budget::default(),
                &TuneOptions::default(),
                &runner,
                None,
            )
            .map_err(|e| format!("autotune {name}: {e}"))?;
            configs += result.stats.evaluated;
        }
        Ok(configs)
    });
    Ok(configs? as f64 / secs)
}

/// The traced run: lane scaling, a traced tuner pass, and every
/// candidate composed stage by stage against `clsa_core::run`.
pub fn traced(run: &Run<'_>, t: &Tracer<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    t.set_group(0);
    let models = t.span("bench", "setup", || models(t, run.seed))?;
    let space = DesignSpace::case_study();

    // Untraced references: lanes at nproc and at one, after a warm-up
    // pass that fills the allocator and the caches.
    autotune_pass(run, &models, run.jobs)?;
    let wide = autotune_pass(run, &models, run.jobs)?;
    let narrow = autotune_pass(run, &models, 1)?;
    out.metric("runner.lanes.scaling_x", wide / narrow, "x");

    // The traced tuner pass.
    t.set_group(1);
    let runner = RunnerOptions::with_jobs(run.jobs);
    let mut hits = (0u64, 0u64, 0u64);
    let mut rounds = 0usize;
    let mut front_size = 0usize;
    let mut configs = 0usize;
    let mut latencies = Vec::new();
    let (traced_pass, secs) = run.timed(|| -> Result<(), String> {
        for (name, graph) in &models {
            let evaluator = TracedEvaluator {
                inner: TuneEvaluator::new(graph, &runner, None),
                tracer: t,
            };
            let result = t
                .span("tune", "tune.tune", || {
                    tune(
                        &space,
                        &mut GridSearch::new(),
                        &evaluator,
                        &Budget::default(),
                        &TuneOptions::default(),
                    )
                })
                .map_err(|e| format!("tuning {name}: {e}"))?;
            let stats = evaluator.inner.cache_stats();
            hits.0 += stats.stage_hits();
            hits.1 += stats.schedule_hits();
            hits.2 += stats.stage_lookups + stats.schedule_lookups;
            rounds += result.stats.rounds;
            front_size += result.archive.len();
            configs += result.stats.evaluated;
            latencies.push(front_latency(&pareto_rows(&space, &result.archive)));
        }
        Ok(())
    });
    traced_pass?;
    out.metric(
        "trace.overhead_ratio",
        wide * secs / configs.max(1) as f64,
        "ratio",
    );
    out.metric("runner.cache.stage_hits", hits.0 as f64, "count");
    out.metric("runner.cache.schedule_hits", hits.1 as f64, "count");
    out.metric(
        "runner.cache.hit_ratio",
        (hits.0 + hits.1) as f64 / hits.2.max(1) as f64,
        "ratio",
    );
    out.metric("tune.rounds", rounds as f64, "count");
    out.metric("tune.front_size", front_size as f64, "count");
    out.metric(
        "sweep.front_latency_geomean_cycles",
        geomean(&latencies),
        "cycles",
    );

    // Every candidate, composed stage by stage, against `clsa_core::run`;
    // under the peak-performance cost model also against the simulator.
    let mut sets = 0u64;
    let mut edges = 0u64;
    let mut simulated = 0u64;
    let mut tiny_run_ms = BTreeMap::new();
    for (m, (name, graph)) in models.iter().enumerate() {
        let memo = PeMinMemo::new();
        for index in 0..space.len() {
            let candidate = space.candidate(index);
            let group = (m * space.len() + index) as u64 + 2;
            t.set_group(group);
            let config = memo
                .pe_min(graph, &candidate)
                .and_then(|pe_min| candidate.run_config(pe_min))
                .map_err(|e| format!("{name} candidate {index}: {e}"))?;
            // Alternate which side runs first so cache warmth favours
            // neither.
            let (reference, composed, run_secs) = if index % 2 == 0 {
                let (r, s) = run.timed(|| clsa_core::run(graph, &config));
                (
                    r,
                    t.span("bench", "candidate", || compose(t, graph, &config)),
                    s,
                )
            } else {
                let c = t.span("bench", "candidate", || compose(t, graph, &config));
                let (r, s) = run.timed(|| clsa_core::run(graph, &config));
                (r, c, s)
            };
            let (reference, composed) = match (reference, composed) {
                (Ok(r), Ok(c)) => (r, c),
                (r, c) => {
                    out.check(false, || {
                        format!(
                            "{name} candidate {index}: run {:?} vs composed {:?}",
                            r.err(),
                            c.err()
                        )
                    });
                    continue;
                }
            };
            out.check(composed.matches(&reference), || {
                format!("{name} candidate {index}: composed stages differ from clsa_core::run")
            });
            if m == 0 {
                tiny_run_ms.insert(group, run_secs * 1e3);
            }
            sets += composed.sets();
            edges += composed.deps.num_edges() as u64;
            if candidate.cost_model == CostModelAxis::Free {
                let sim = t.span("sim", "sim.solo", || {
                    Simulator::new(&composed.layers, &composed.deps).run_costed(&composed.costed)
                });
                simulated += composed.sets();
                out.check(
                    sim.as_ref()
                        .is_ok_and(|s| s.schedule.makespan == composed.schedule.makespan),
                    || format!("{name} candidate {index}: simulator makespan differs"),
                );
            }
        }
    }
    out.metric("core.sets", sets as f64, "count");
    out.metric("core.dep_edges", edges as f64, "count");
    out.metric("sim.sets_simulated", simulated as f64, "count");

    // TinyYOLOv4: the stage spans add up to the untraced pipeline time.
    // Compared candidate by candidate and summarized by the median ratio,
    // so a burst of host contention during one side of one pair cannot
    // decide the guard.
    let mut stage_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for name in STAGE_SPANS {
        for (group, ms) in t.total_ms_by_group(name) {
            *stage_ms.entry(group).or_insert(0.0) += ms;
        }
    }
    let mut ratios = Samples::default();
    for (group, run_ms) in &tiny_run_ms {
        ratios.push(stage_ms.get(group).copied().unwrap_or(0.0) / run_ms);
    }
    let ratio = ratios.median();
    out.metric("trace.stage_sum_ratio", ratio, "ratio");
    out.check((0.95..=1.05).contains(&ratio), || {
        format!("TinyYOLOv4 stage spans sum to {ratio:.4} of the untraced pipeline time")
    });
    out.named("sweep.configs_per_s", wide, "1/s");
    Ok(out)
}
