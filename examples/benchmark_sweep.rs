//! Fig. 7-style sweep over the benchmark zoo: speedup and utilization of
//! `wdup+x`, `xinf`, and `wdup+x+xinf` against layer-by-layer inference,
//! executed on the parallel batched evaluation engine.
//!
//! Run with: `cargo run --release --example benchmark_sweep`
//! (pass a model name to restrict, e.g. `-- VGG16`; pass `--jobs N` to
//! set the worker count — results are identical for every N; pass
//! `--cache-dir <path>` to persist sweep summaries across runs)

use clsa_cim::bench::runner::{run_batch, sweep_jobs_for_models, BatchPlan, ResultStore};
use clsa_cim::bench::{parse_cache_dir_arg, parse_jobs_arg, SweepOptions};
use clsa_cim::ir::Graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (rest, runner) = parse_jobs_arg(&raw);
    let (rest, cache_dir) = parse_cache_dir_arg(&rest);
    let store = cache_dir.as_deref().map(ResultStore::open).transpose()?;
    let filter = rest.first();

    let models: Vec<(String, Graph)> = clsa_cim::models::table2_models()
        .iter()
        .filter(|info| {
            filter.is_none_or(|f| info.name.eq_ignore_ascii_case(f))
        })
        .map(|info| (info.name.to_string(), info.build()))
        .collect();
    if models.is_empty() {
        eprintln!("no model matches the filter; known:");
        for m in clsa_cim::models::table2_models() {
            eprintln!("  {}", m.name);
        }
        std::process::exit(2);
    }

    // One flat job list over all models; the engine canonicalizes each
    // graph once, shares Stage-I/II work between the baseline and xinf
    // rows of a model, and spreads the jobs over the worker lanes. The
    // plan adds only the optional store; it could also name a shard
    // slice or merge, a resume journal, or a fault hook.
    let opts = SweepOptions::default();
    let jobs = sweep_jobs_for_models(&models, &opts)?;
    eprintln!(
        "running {} configurations on {} workers...",
        jobs.len(),
        runner.jobs
    );
    let plan = BatchPlan { store: store.as_ref(), ..BatchPlan::default() };
    let batch = run_batch(&jobs, &runner, &plan)?;

    for (name, _) in &models {
        let rows: Vec<_> = batch.results.iter().filter(|r| &r.model == name).collect();
        let base = rows.first().expect("baseline row");
        println!(
            "\n{} — PE_min {}",
            name, base.pe_min
        );
        println!(
            "  {:<14} {:>9} cycles  {:>6}   {:>6}",
            "config", "makespan", "speedup", "util"
        );
        for r in rows {
            println!(
                "  {:<14} {:>9} cycles  {:>6.2}x  {:>6.2}%",
                r.label,
                r.makespan_cycles,
                r.speedup,
                r.utilization * 100.0
            );
        }
    }
    println!("\nschedule cache: {}", batch.stats);
    if let Some(stats) = batch.store_stats {
        println!("persistent store: {stats}");
    }
    println!("paper reference: best speedup 29.2x / best utilization 20.1 % (TinyYOLOv3)");
    Ok(())
}
