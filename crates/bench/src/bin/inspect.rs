//! Interactive inspection tool: run any zoo model under any configuration
//! and print the cost table, schedule summary, Gantt chart, and critical
//! path — the "debugger" view of the scheduling stack.
//!
//! Usage: `cargo run --release -p cim-bench --bin inspect -- <model> [flags]`.
//! `--help` prints the flags of `FLAGS` below; an unknown model, flag or
//! value exits 2 with the usage.

use cim_arch::Architecture;
use cim_bench::cli::{self, Flag};
use cim_bench::render_table;
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::Solver;
use clsa_core::{
    critical_cycles_per_layer, critical_path, gantt_rows, gantt_text, run, EdgeCost, RunConfig,
    SetPolicy,
};

const FLAGS: &[Flag] = &[
    cli::MODEL,
    Flag::value("--x", "n", "extra PEs over PE_min (default 0)"),
    Flag::switch("--wdup", "enable weight duplication (greedy)"),
    Flag::switch("--wdup-exact", "enable weight duplication (exact DP)"),
    Flag::switch("--lbl", "layer-by-layer scheduling (default: cross-layer)"),
    Flag::value("--sets", "n", "cap sets per OFM (default: finest)"),
    Flag::value("--gantt", "width", "print a Gantt chart"),
    Flag::value("--critical", "n", "print the top-n critical-path layers"),
    Flag::value("--json", "path", "export the schedule rows as JSON"),
];

fn main() {
    let args = cli::parse_env(FLAGS);
    let info = args.check(cli::zoo_model(&args));
    let x: usize = args.check(args.get("--x")).unwrap_or(0);
    let wdup = args.switch("--wdup");
    let wdup_exact = args.switch("--wdup-exact");
    let lbl = args.switch("--lbl");
    let sets: Option<usize> = args.check(args.get("--sets"));
    if sets == Some(0) {
        args.reject("--sets", "0", "must be at least 1");
    }
    let gantt: Option<usize> = args.check(args.get("--gantt"));
    let critical: Option<usize> = args.check(args.get("--critical"));
    let json = args.value("--json");

    let g = canonicalize(&info.build(), &CanonOptions::default())
        .expect("model canonicalizes")
        .into_graph();
    let arch = Architecture::paper_case_study(info.pe_min_256 + x).expect("arch");
    let mut cfg = RunConfig::baseline(arch);
    if !lbl {
        cfg = cfg.with_cross_layer();
    }
    if wdup_exact {
        cfg = cfg.with_duplication(Solver::ExactDp);
    } else if wdup {
        cfg = cfg.with_duplication(Solver::Greedy);
    }
    if let Some(n) = sets {
        cfg.set_policy = SetPolicy::coarse(n);
    }
    let r = run(&g, &cfg).expect("pipeline runs");

    println!(
        "{} — PE_min {}, architecture {} PEs, {} base-layer groups, {} sets",
        info.name,
        r.pe_min,
        r.report.total_pes,
        r.layers.len(),
        r.layers.iter().map(|l| l.sets.len()).sum::<usize>()
    );
    println!(
        "schedule: {} cycles ({:.3} ms at 1400 ns/cycle), utilization {:.2}%",
        r.makespan(),
        r.makespan() as f64 * 1400.0 / 1e6,
        r.report.utilization * 100.0
    );
    if let Some(plan) = &r.plan {
        println!(
            "duplication: {} layers duplicated, {} of {} PEs used, objective {:.0} cycles",
            plan.duplicated_layers(),
            plan.pes_used,
            r.report.total_pes,
            plan.objective_cycles
        );
    }

    let rows: Vec<Vec<String>> = r
        .layers
        .iter()
        .enumerate()
        .map(|(li, l)| {
            vec![
                l.name.clone(),
                l.pes.to_string(),
                l.sets.len().to_string(),
                r.schedule
                    .layer(li)
                    .first()
                    .map_or(0, |t| t.start)
                    .to_string(),
                r.schedule
                    .layer(li)
                    .last()
                    .map_or(0, |t| t.finish)
                    .to_string(),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &["layer", "#PE", "sets", "first start", "last finish"],
            &rows
        )
    );

    if let Some(width) = gantt {
        println!("{}", gantt_text(&r.layers, &r.schedule, width));
    }
    if let Some(n) = critical {
        let path = critical_path(&r.layers, &r.deps, &r.schedule, &EdgeCost::Free)
            .expect("schedule came from these stages");
        let mut per_layer = critical_cycles_per_layer(&r.layers, &path);
        per_layer.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        println!("critical path — top {n} contributors:");
        for (name, cycles) in per_layer.into_iter().take(n) {
            println!(
                "  {name:<20} {cycles:>8} cycles ({:.1}% of makespan)",
                cycles as f64 / r.makespan() as f64 * 100.0
            );
        }
    }
    if let Some(path) = json {
        cim_bench::write_json(path, &gantt_rows(&r.layers, &r.schedule)).expect("write json");
        println!("wrote {path}");
    }
}
