//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep-cold|serve-zipf|fabric-contended>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Runs one workload through the crates' public functions for the given
//! number of seconds, checks its outputs, prints a report with every
//! metric and its unit, and ends with one JSON result line. `--trace 1`
//! runs the traced variant instead: spans around the calls into each
//! crate, the per-layer metrics, and an NDJSON span sidecar under
//! `.perfbench/`. Exit status: 0 when every check passed, 1 when one
//! failed or the workload could not run, 2 on a usage error.
//!
//! See `NOTES.md` next to this crate for why each workload exists and
//! which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

mod compose;
mod fabric;
mod report;
mod serve;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cim_tune::{Clock, SystemClock};

use report::{Header, Samples};

const USAGE: &str = "usage: perfbench --workload <sweep-cold|serve-zipf|fabric-contended> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]";

#[derive(Debug, Clone, Copy)]
enum Workload {
    SweepCold,
    ServeZipf,
    FabricContended,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::ServeZipf,
        Workload::FabricContended,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::ServeZipf => "serve-zipf",
            Workload::FabricContended => "fabric-contended",
        }
    }
}

/// Everything a workload needs from the command line and the host.
pub struct Run<'c> {
    pub seed: u64,
    pub seconds: u64,
    pub jobs: usize,
    pub clock: &'c SystemClock,
}

impl Run<'_> {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Scratch space inside the working directory.
    pub fn scratch(&self, what: &str) -> PathBuf {
        PathBuf::from(".perfbench")
            .join("tmp")
            .join(format!("{what}-{}", std::process::id()))
    }

    /// Times `f` on the run's clock, in seconds.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.clock.now();
        let out = f();
        (out, (self.clock.now() - start).as_secs_f64())
    }
}

/// The raw (not yet canonicalized) graph of a zoo model or `fig5`.
pub fn model_graph(name: &str) -> Result<cim_ir::Graph, String> {
    if name == "fig5" {
        return Ok(cim_models::fig5_example());
    }
    cim_models::all_models()
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| m.build())
        .ok_or_else(|| format!("unknown model {name}"))
}

/// Repeats a workload's set-up `SETUPS` times and keeps the last one;
/// `setup_s` is the median of the repetitions.
pub const SETUPS: usize = 9;

pub fn repeat_setup<T, E>(
    run: &Run<'_>,
    mut setup: impl FnMut(usize) -> Result<T, E>,
    mut discard: impl FnMut(T),
) -> Result<(T, Samples), E> {
    let mut times = Samples::default();
    let (first, secs) = run.timed(|| setup(0));
    times.push(secs);
    let mut kept = first?;
    for i in 1..SETUPS {
        let (made, secs) = run.timed(|| setup(i));
        times.push(secs);
        discard(std::mem::replace(&mut kept, made?));
    }
    Ok((kept, times))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Parsed {
    Run(Args),
    Help,
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Parsed::Help);
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                let known = Workload::ALL.iter().find(|k| k.name() == w);
                workload = Some(*known.ok_or_else(|| format!("unknown workload `{w}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes a u64, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("--seconds takes a positive integer, got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Parsed::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let clock = SystemClock::new();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        jobs,
        clock: &clock,
    };
    let header = Header::collect(jobs);
    let tracer = trace::Tracer::new(&clock);
    let outcome = match (args.workload, args.trace) {
        (Workload::SweepCold, false) => sweep::measure(&run),
        (Workload::SweepCold, true) => sweep::traced(&run, &tracer),
        (Workload::ServeZipf, false) => serve::measure(&run),
        (Workload::ServeZipf, true) => serve::traced(&run, &tracer),
        (Workload::FabricContended, false) => fabric::measure(&run),
        (Workload::FabricContended, true) => fabric::traced(&run, &tracer),
    };
    let _ = std::fs::remove_dir_all(PathBuf::from(".perfbench").join("tmp"));
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = PathBuf::from(".perfbench").join(format!(
            "trace-{}-{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_sidecar(&path) {
            Ok(()) => println!("spans: {} -> {}", tracer.len(), path.display()),
            Err(e) => outcome.check(false, || format!("writing {}: {e}", path.display())),
        }
        layers::finish(&mut outcome, &tracer);
    } else {
        outcome.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
        let ok_ratio = if outcome.attempted == 0 {
            0.0
        } else {
            1.0 - outcome.failed as f64 / outcome.attempted as f64
        };
        outcome.metric("ok_ratio", ok_ratio, "ratio");
    }
    report::print_report(
        &header,
        args.workload.name(),
        args.seed,
        args.trace,
        &outcome,
    );
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The per-layer metric table shared by every traced run.
mod layers {
    use crate::report::Outcome;
    use crate::trace::Tracer;

    /// Every per-layer metric, with its unit. A layer the workload does
    /// not exercise reports 0.
    pub const PER_LAYER: [(&str, &str); 54] = [
        ("frontend.canonicalize_ms", "ms"),
        ("frontend.self_ms", "ms"),
        ("mapping.layer_costs_ms", "ms"),
        ("mapping.optimize_ms", "ms"),
        ("mapping.apply_duplication_ms", "ms"),
        ("mapping.self_ms", "ms"),
        ("core.determine_sets_ms", "ms"),
        ("core.determine_dependencies_ms", "ms"),
        ("core.cost_table_ms", "ms"),
        ("core.schedule_ms", "ms"),
        ("core.validate_ms", "ms"),
        ("core.utilization_ms", "ms"),
        ("core.sets", "count"),
        ("core.dep_edges", "count"),
        ("core.self_ms", "ms"),
        ("runner.cache.stage_hits", "count"),
        ("runner.cache.schedule_hits", "count"),
        ("runner.cache.hit_ratio", "ratio"),
        ("runner.lanes.scaling_x", "x"),
        ("runner.store.get_us_p50", "us"),
        ("runner.store.put_us_p50", "us"),
        ("runner.store.hits", "count"),
        ("runner.store.writes", "count"),
        ("runner.self_ms", "ms"),
        ("tune.evaluate_ms", "ms"),
        ("tune.self_ms", "ms"),
        ("tune.rounds", "count"),
        ("tune.front_size", "count"),
        ("serve.submit_us_p50", "us"),
        ("serve.dispatch_us_p50", "us"),
        ("serve.protocol_us_p50", "us"),
        ("serve.socket_us_p50", "us"),
        ("serve.warm_store", "count"),
        ("serve.computed", "count"),
        ("serve.coalesced", "count"),
        ("serve.shed", "count"),
        ("serve.self_ms", "ms"),
        ("sim.run_shared_ms", "ms"),
        ("sim.solo_ms", "ms"),
        ("sim.sets_simulated", "count"),
        ("sim.self_ms", "ms"),
        ("fabric.run_mix_ms", "ms"),
        ("fabric.evictions", "count"),
        ("fabric.reloads", "count"),
        ("fabric.link_stall_cycles", "cycles"),
        ("fabric.occupancy_stall_cycles", "cycles"),
        ("fabric.utilization_milli", "milli"),
        ("fabric.makespan_cycles", "cycles"),
        ("fabric.worst_slowdown_milli", "milli"),
        ("fabric.self_ms", "ms"),
        ("sweep.front_latency_geomean_cycles", "cycles"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.stage_sum_ratio", "ratio"),
        ("trace.spans", "count"),
    ];

    /// Span totals by name, self time by layer, then zeros for every
    /// per-layer metric the workload left unset.
    pub fn finish(out: &mut Outcome, tracer: &Tracer<'_>) {
        for name in [
            "frontend.canonicalize",
            "mapping.layer_costs",
            "mapping.optimize",
            "mapping.apply_duplication",
            "core.determine_sets",
            "core.determine_dependencies",
            "core.cost_table",
            "core.schedule",
            "core.validate",
            "core.utilization",
            "tune.evaluate",
            "sim.run_shared",
            "sim.solo",
            "fabric.run_mix",
        ] {
            out.metric(&format!("{name}_ms"), tracer.total_ms(name), "ms");
        }
        for (layer, ms) in tracer.self_ms_by_layer() {
            if layer != "bench" {
                out.metric(&format!("{layer}.self_ms"), ms, "ms");
            }
        }
        out.metric("trace.spans", tracer.len() as f64, "count");
        let unlisted: Vec<String> = out
            .metrics
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|(name, _)| name == k))
            .cloned()
            .collect();
        out.check(unlisted.is_empty(), || {
            format!("metrics missing from PER_LAYER: {unlisted:?}")
        });
        for (name, unit) in PER_LAYER {
            if !out.metrics.contains_key(name) {
                out.metric(name, 0.0, unit);
            }
        }
    }
}
