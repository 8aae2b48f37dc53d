//! Regenerates the paper's **Fig. 7** — inference speedup (7a) and PE
//! utilization (7b) relative to layer-by-layer scheduling, for all six
//! Table II benchmarks under `wdup+x`, `xinf`, and `wdup+x+xinf` with
//! `x ∈ {4, 8, 16, 32}`.
//!
//! Paper reference points: best speedup 29.2× and best utilization 20.1 %
//! (both TinyYOLOv3, `wdup+32+xinf`); pure `wdup` between 1.1× and 1.9× for
//! large models; `xinf` up to 4.4× for large models; utilization decreasing
//! with ResNet depth.
//!
//! Usage: `cargo run --release -p cim-bench --bin fig7 [-- --json results/fig7.json] [--jobs N] [--cache-dir <path>] [--shard i/n|merge] [--resume] [--fault-seed S --fault-rate site=per_mille ...]`
//!
//! With `--cache-dir`, the sweep's summaries persist across runs: a warm
//! re-run replays from disk (byte-identical `--json` output), and a
//! crash-safe journal makes a killed run resumable with `--resume`.
//!
//! With `--shard i/n --cache-dir D`, the process evaluates only the jobs
//! its fingerprint-range slice owns; `--shard merge --cache-dir D` then
//! replays the fully-warm store into the byte-identical unsharded tables
//! and `--json` artifact.

use cim_bench::runner::sweep_jobs_for_models;
use cim_bench::{parse_common_args, render_table, ConfigResult, SweepOptions};

fn main() {
    let args = parse_common_args();
    // Nothing below consumes randomness; surface a stray --seed.
    args.note_seed_unused();
    let (runner, json) = (args.runner, args.json.clone());
    let store = args.open_store();
    let opts = SweepOptions::default();

    // All models × all configurations as one flat job list: the pool keeps
    // every worker busy across model boundaries instead of sweeping the
    // zoo one model at a time.
    let models: Vec<(String, cim_ir::Graph)> = cim_models::table2_models()
        .iter()
        .map(|info| (info.name.to_string(), info.build()))
        .collect();
    let jobs = sweep_jobs_for_models(&models, &opts).expect("job construction");
    eprintln!("running {} configurations on {} workers...", jobs.len(), runner.jobs);
    let Some(batch) = args.run_sweep(&jobs, store.as_ref()).expect("sweep runs") else {
        return;
    };
    let quarantined = batch.failures.len();
    let all: Vec<ConfigResult> = batch.results;

    let labels: Vec<String> = {
        let mut v = vec!["layer-by-layer".to_string(), "xinf".to_string()];
        for &x in &opts.xs {
            v.push(format!("wdup+{x}"));
        }
        for &x in &opts.xs {
            v.push(format!("wdup+{x}+xinf"));
        }
        v
    };
    let models: Vec<&str> = cim_models::table2_models().iter().map(|m| m.name).collect();
    // A quarantined job leaves a hole in the grid; render it as `-`
    // rather than refusing to print the survivors.
    let find = |model: &str, label: &str| {
        all.iter()
            .find(|r| r.model == model && r.label == label)
    };

    let mut headers: Vec<&str> = vec!["configuration"];
    headers.extend(models.iter().copied());

    println!("Fig. 7a — inference speedup vs layer-by-layer\n");
    let rows: Vec<Vec<String>> = labels
        .iter()
        .map(|label| {
            let mut row = vec![label.clone()];
            row.extend(models.iter().map(|m| {
                find(m, label).map_or_else(|| "-".into(), |r| format!("{:.2}x", r.speedup))
            }));
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!("\nFig. 7b — PE utilization (Eq. 2)\n");
    let rows: Vec<Vec<String>> = labels
        .iter()
        .map(|label| {
            let mut row = vec![label.clone()];
            row.extend(models.iter().map(|m| {
                find(m, label)
                    .map_or_else(|| "-".into(), |r| format!("{:.2}%", r.utilization * 100.0))
            }));
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    // Headline numbers and Eq. 3 consistency (guarded: a fully
    // quarantined sweep has no rows to summarize).
    if let Some(best_speedup) = all.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)) {
        println!(
            "\nbest speedup:     {:.1}x ({} {})   [paper: 29.2x, TinyYOLOv3]",
            best_speedup.speedup, best_speedup.model, best_speedup.label
        );
    }
    if let Some(best_ut) = all.iter().max_by(|a, b| a.utilization.total_cmp(&b.utilization)) {
        println!(
            "best utilization: {:.1}% ({} {})   [paper: 20.1 %, TinyYOLOv3]",
            best_ut.utilization * 100.0,
            best_ut.model,
            best_ut.label
        );
    }
    let worst_eq3 = all
        .iter()
        .filter(|r| r.label != "layer-by-layer")
        .filter_map(|r| {
            r.eq3_predicted
                .map(|p| (p - r.speedup).abs() / r.speedup)
        })
        .fold(0.0f64, f64::max);
    println!("max Eq. 3 relative deviation: {:.1}%", worst_eq3 * 100.0);
    println!("schedule cache: {}", batch.stats);
    if let Some(stats) = batch.store_stats {
        println!("persistent store: {stats}");
    }

    if let Some(path) = json {
        cim_bench::write_json(&path, &all).expect("write json");
        println!("wrote {path}");
    }
    if quarantined > 0 {
        // The artifact is partial (quarantined jobs were reported above);
        // a clean exit would let an orchestrator mistake it for complete.
        std::process::exit(3);
    }
}
