//! `lint-schedule` — the schedule-IR diagnostics CLI: runs any zoo model
//! under any configuration and prints *every* finding of
//! `clsa_core::diagnose` (the validator stops at the first error; this
//! tool reports the lot, plus the advisory analysis findings and the
//! architecture-aware capacity checks the validator never sees).
//!
//! Usage: `cargo run --release -p cim-bench --bin lint-schedule -- <model> [flags]`;
//! `--help` prints the flags of `FLAGS` below.
//!
//! Exit status: 0 when no `error`-severity finding exists, 1 otherwise or
//! when the `--json` export cannot be written, 2 on usage errors.

use cim_arch::Architecture;
use cim_bench::cli::{self, Flag};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::Solver;
use clsa_core::{
    analyze_costed, capacity_diagnostics, run, RunConfig, ScheduleDiagnostic, SetPolicy, Severity,
};

const FLAGS: &[Flag] = &[
    cli::MODEL,
    Flag::value("--x", "n", "extra PEs over PE_min (default 0)"),
    Flag::switch("--wdup", "enable weight duplication (greedy)"),
    Flag::switch("--lbl", "layer-by-layer scheduling (default: cross-layer)"),
    Flag::value("--sets", "n", "cap sets per OFM (default: finest)"),
    Flag::value("--json", "path", "export the findings as JSON"),
];

fn main() {
    let args = cli::parse_env(FLAGS);
    let info = args.check(cli::zoo_model(&args));
    let x: usize = args.check(args.get("--x")).unwrap_or(0);
    let wdup = args.switch("--wdup");
    let lbl = args.switch("--lbl");
    let sets: Option<usize> = args.check(args.get("--sets"));
    if sets == Some(0) {
        args.reject("--sets", "0", "must be at least 1");
    }
    let json = args.value("--json");

    let g = canonicalize(&info.build(), &CanonOptions::default())
        .expect("model canonicalizes")
        .into_graph();
    let arch = Architecture::paper_case_study(info.pe_min_256 + x).expect("arch");
    let mut cfg = RunConfig::baseline(arch.clone());
    if !lbl {
        cfg = cfg.with_cross_layer();
    }
    if wdup {
        cfg = cfg.with_duplication(Solver::Greedy);
    }
    if let Some(n) = sets {
        cfg.set_policy = SetPolicy::coarse(n);
    }
    let r = run(&g, &cfg).expect("pipeline runs");

    let mut diags: Vec<ScheduleDiagnostic> =
        analyze_costed(&r.layers, &r.deps, &r.schedule, &r.costed);
    diags.extend(capacity_diagnostics(&r.layers, &arch));

    println!(
        "{} — {} base-layer groups, {} sets, makespan {} cycles",
        info.name,
        r.layers.len(),
        r.layers.iter().map(|l| l.sets.len()).sum::<usize>(),
        r.makespan()
    );
    for d in &diags {
        println!("{d}");
    }
    let count = |severity| diags.iter().filter(|d| d.severity == severity).count();
    let (errors, warnings) = (count(Severity::Error), count(Severity::Warning));
    println!(
        "lint-schedule: {} finding(s) — {errors} error(s), {warnings} warning(s)",
        diags.len()
    );

    if let Some(path) = json {
        cim_bench::export_json(path, &diags);
    }

    if errors > 0 {
        std::process::exit(1);
    }
}
