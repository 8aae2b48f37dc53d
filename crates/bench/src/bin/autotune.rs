//! Design-space exploration over the scheduling pipeline — searches the
//! joint space of Stage-I tiling policy × weight duplication ×
//! architecture parameters × edge-cost model and reports the Pareto
//! front over (latency, utilization, NoC bytes, crossbar count).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cim-bench --bin autotune -- \
//!     [--model TinyYOLOv4] [--space tiny|case-study|wide] \
//!     [--strategy grid|random|anneal] [--budget N] [--wall-secs S] \
//!     [--batch N] [--seed S] [--jobs N] [--cache-dir <path>] [--json <path>] \
//!     [--shard i/n|merge] [--resume] \
//!     [--fault-seed S --fault-rate site=per_mille ... --fault-delay-ms MS]
//! ```
//!
//! `--help` lists the flags; any other argument, and an unknown
//! `--model`, `--space` or `--strategy`, exits 2.
//!
//! With `--shard i/n --cache-dir D`, the process evaluates only the
//! candidates of the design space its fingerprint-range slice owns and
//! persists their summaries into the shared store `D`; once every slice
//! has run, `--shard merge --cache-dir D` performs the strategy search
//! with every measurement replayed from disk — byte-identical to the
//! unsharded run.
//!
//! The run is deterministic for a fixed `(seed, jobs)` pair — in fact the
//! exported front is byte-identical for *every* `--jobs` value, and for
//! cold vs. warm `--cache-dir` runs (the persistent store then makes
//! re-runs nearly free: candidates evaluated by any earlier run replay
//! from disk). The binary echoes the seed it ran with.
//!
//! Because the search is deterministic and every measurement persists as
//! it completes, the store doubles as the crash-recovery journal: after a
//! killed run, `--resume` (with the same `--cache-dir`) replays every
//! already-measured candidate warm and picks up where the run died. The
//! `--fault-*` flags drive deterministic chaos injection into the store's
//! I/O paths (see `cim_bench::runner::fault`); a candidate whose pipeline
//! evaluation panics is quarantined as infeasible instead of aborting
//! the search.

use std::time::Duration;

use cim_bench::cli::{self, Flag};
use cim_bench::render_table;
use cim_bench::runner::ShardMode;
use cim_bench::tune::{autotune, autotune_shard, AutotuneReport, ParetoRow};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_tune::{strategy_by_name, Budget, DesignSpace, TuneOptions};

const FLAGS: &[Flag] = &[
    Flag::value("--model", "name", "zoo model or fig5 (default TinyYOLOv4)"),
    Flag::value("--space", "tiny|case-study|wide", "default case-study"),
    Flag::value("--strategy", "grid|random|anneal", "default anneal"),
    Flag::value("--budget", "N", "stop after N candidates"),
    Flag::value("--wall-secs", "S", "stop after S seconds"),
    Flag::value("--batch", "N", "candidates evaluated per round"),
    cli::SEED,
    cli::JOBS,
    cli::CACHE_DIR,
    cli::JSON,
    cli::SHARD,
    cli::RESUME,
    cli::FAULT_SEED,
    cli::FAULT_RATE,
    cli::FAULT_DELAY_MS,
];

/// Resolves `--model`: any zoo registry entry (Table II + the case
/// study) or the paper's Fig. 5 worked example. The graph comes back
/// canonicalized, ready for the evaluator.
fn model_graph(name: &str) -> Option<Graph> {
    let raw = cim_models::graph_by_name(name)?;
    Some(
        canonicalize(&raw, &CanonOptions::default())
            .expect("registry models canonicalize")
            .into_graph(),
    )
}

fn print_front(rows: &[ParetoRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.candidate.to_string(),
                r.label.clone(),
                r.latency_cycles.to_string(),
                format!("{:.2}%", r.utilization * 100.0),
                r.noc_bytes.to_string(),
                r.crossbars.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "candidate",
                "configuration",
                "latency (cycles)",
                "utilization",
                "NoC bytes",
                "crossbars"
            ],
            &table
        )
    );
}

fn main() {
    let flags = cli::parse_env(FLAGS);
    let args = flags.common();
    let model = flags.value("--model").unwrap_or("TinyYOLOv4");
    let space_name = flags.value("--space").unwrap_or("case-study");
    let strategy_name = flags.value("--strategy").unwrap_or("anneal");
    let budget_candidates: Option<usize> = flags.check(flags.get("--budget"));
    let wall_secs: Option<u64> = flags.check(flags.get("--wall-secs"));
    let batch: usize = flags
        .check(flags.get("--batch"))
        .unwrap_or(TuneOptions::default().batch);
    let seed = args.seed_or_default();

    let graph = model_graph(model)
        .unwrap_or_else(|| flags.reject("--model", model, "expected zoo entry or fig5"));
    let space = DesignSpace::preset(space_name)
        .unwrap_or_else(|| flags.reject("--space", space_name, "expected tiny|case-study|wide"));
    let mut strategy = strategy_by_name(strategy_name, seed).unwrap_or_else(|| {
        flags.reject("--strategy", strategy_name, "expected grid|random|anneal")
    });
    if args.shard != ShardMode::All && args.cache_dir.is_none() {
        let shard = flags.value("--shard").unwrap_or_default();
        flags.reject("--shard", shard, "needs --cache-dir, the merge point");
    }
    let mut budget = Budget {
        max_candidates: budget_candidates,
        max_wall: wall_secs.map(Duration::from_secs),
    };
    // Grid and random exhaust the space on their own; an unbounded anneal
    // never stops, so give it a default budget — and say so, since a
    // capped run is not an exhaustive one.
    if budget.max_candidates.is_none() && budget.max_wall.is_none() && strategy.name() == "anneal"
    {
        let cap = space.len().min(256);
        eprintln!("note: no --budget/--wall-secs; capping the anneal at {cap} candidates");
        budget = Budget::candidates(cap);
    }

    println!(
        "autotune: {model} over `{space_name}` ({} candidates), strategy {}, seed: {seed}",
        space.len(),
        strategy.name(),
    );
    let store = args.open_store();
    if args.resume {
        // The autotune search is deterministic, so the persistent store
        // *is* the journal: every summary written before a crash replays
        // warm and the search continues from the first cold candidate.
        match &store {
            Some(store) => println!(
                "resume: {} measurements already persisted; the search replays them warm",
                store.len()
            ),
            None => eprintln!(
                "note: --resume ignored — requires --cache-dir (the persistent store is the resume point)"
            ),
        }
    }
    let runner = args.runner;
    match args.shard {
        ShardMode::All => {}
        ShardMode::Slice(shard) => {
            let store = store.as_ref().expect("--shard needs --cache-dir");
            // A slice warms its owned subset of the *whole* space; the
            // strategy/budget only shape the final merge run.
            let report = autotune_shard(&graph, &space, shard, &runner, store).expect("slice runs");
            println!("{report}");
            args.report_faults();
            println!("slice done — run the remaining slices, then `--shard merge`");
            if args.json.is_some() {
                eprintln!("note: --json ignored for a shard slice; export from `--shard merge`");
            }
            return;
        }
        // The merge is a plain strategy run against the warm store —
        // byte-identical to unsharded by tuner determinism; a merge
        // without a store, which would silently recompute everything,
        // was refused above.
        ShardMode::Merge => {}
    }
    let (result, rows) = autotune(
        &graph,
        &space,
        strategy.as_mut(),
        &budget,
        &TuneOptions { batch },
        &runner,
        store.as_ref(),
    )
    .expect("tuning runs");

    println!(
        "\nPareto front — {} of {} evaluated candidates survive dominance pruning\n",
        rows.len(),
        result.stats.evaluated
    );
    print_front(&rows);
    println!("tuner: {} (jobs {})", result.stats, runner.jobs);
    if let Some(store) = &store {
        println!("persistent store: {}", store.stats());
    }
    args.report_faults();

    if let Some(path) = &args.json {
        let report = AutotuneReport {
            model: model.to_string(),
            space: space_name.to_string(),
            strategy: strategy.name().to_string(),
            seed,
            budget: budget.max_candidates,
            evaluated: result.stats.evaluated,
            infeasible: result.stats.infeasible,
            front: rows,
        };
        cim_bench::export_json(path, &report);
        println!("wrote {path}");
    }
}
