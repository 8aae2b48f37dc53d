//! Crash-safe resumable sweeps, end to end: a child process running the
//! fig. 6c sweep (slowed by an injected per-job delay so the kill lands
//! mid-sweep) is SIGKILLed, then the sweep is resumed against the same
//! store — and the final artifact is **byte-identical** to
//! `tests/golden/fig6c.json`, the same bytes an uninterrupted run
//! produces.
//!
//! The child is this same test binary re-executed with [`STORE_ENV`]
//! set (the `child_chaos_sweep` "test" is a no-op in a normal run) —
//! the same pattern `tests/serve_protocol.rs` uses for daemon restarts.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use cim_bench::artifacts::{case_study_graph, fig6c_jobs};
use cim_bench::runner::{
    run_batch, sweep_fingerprint, BatchPlan, FaultPlan, FaultSite, ResultStore, RunnerOptions,
    SweepJournal,
};

const STORE_ENV: &str = "CIM_CHAOS_IT_STORE";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_chaos_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Not a test of its own: becomes the *interrupted sweep process* when
/// the parent re-executes this test binary with [`STORE_ENV`] set. In a
/// normal `cargo test` run (env unset) it is a no-op.
#[test]
fn child_chaos_sweep() {
    let Ok(dir) = std::env::var(STORE_ENV) else {
        return;
    };
    let g = case_study_graph();
    let jobs = fig6c_jobs(&g).expect("sweep jobs build");
    let store = ResultStore::open(&dir).expect("store opens");
    let journal =
        SweepJournal::open(store.dir(), &jobs, None, false).expect("journal opens fresh");
    // Every job sleeps a second before computing, so the parent's kill
    // reliably lands between the first mark and the last.
    let slow = FaultPlan::new(2024)
        .with_rate(FaultSite::JobDelay, 1000)
        .with_delay(Duration::from_millis(1000));
    let plan = BatchPlan {
        store: Some(&store),
        journal: Some(&journal),
        faults: Some(&slow),
        ..BatchPlan::default()
    };
    let batch = run_batch(&jobs, &RunnerOptions::sequential(), &plan).expect("sweep runs");
    assert!(batch.failures.is_empty());
    journal.finish();
}

#[test]
fn sigkill_mid_sweep_then_resume_reproduces_the_golden_artifact() {
    let dir = tmp_dir("resume");
    let g = case_study_graph();
    let jobs = fig6c_jobs(&g).expect("sweep jobs build");
    let journal_path = dir.join(format!(
        ".journal-{:016x}-all.ndjson",
        sweep_fingerprint(&jobs)
    ));

    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .args(["child_chaos_sweep", "--exact", "--test-threads=1"])
        .env(STORE_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("child sweep spawns");

    // Wait for the first completion mark (header + ≥1 line), then
    // SIGKILL the child mid-sweep. Bounded poll, no wall clock.
    let mut marks = 0usize;
    for _ in 0..2_000 {
        marks = fs::read_to_string(&journal_path)
            .map(|text| text.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if marks >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(marks >= 1, "child never journaled a completed job");
    child.kill().expect("SIGKILL delivered"); // SIGKILL: no cleanup runs
    let _ = child.wait();

    // The interruption is real: the journal survived but is incomplete.
    assert!(journal_path.exists(), "journal survives the kill");
    let store = ResultStore::open(&dir).expect("store reopens after kill");
    let journal = SweepJournal::open(store.dir(), &jobs, None, true).expect("journal resumes");
    assert!(
        journal.resumed_count() >= 1 && journal.resumed_count() < jobs.len(),
        "kill landed mid-sweep: {}/{} jobs were done",
        journal.resumed_count(),
        jobs.len()
    );

    // Resume: completed jobs replay from the store, the rest compute.
    let plan = BatchPlan {
        store: Some(&store),
        journal: Some(&journal),
        ..BatchPlan::default()
    };
    let resumed = run_batch(&jobs, &RunnerOptions::sequential(), &plan).expect("resumed sweep runs");
    assert!(resumed.failures.is_empty());
    let store_stats = resumed.store_stats.expect("store-backed run has stats");
    assert!(
        store_stats.hits >= 1,
        "resume replayed nothing from disk: {store_stats:?}"
    );
    journal.finish();
    assert!(!journal_path.exists(), "a finished sweep removes its journal");

    // The artifact is byte-identical to an uninterrupted run — pinned by
    // the committed golden.
    let resumed_json = serde_json::to_string_pretty(&resumed.results).expect("rows serialize");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig6c.json");
    let golden = fs::read_to_string(golden).expect("committed golden readable");
    assert_eq!(
        resumed_json, golden,
        "kill + resume drifted from tests/golden/fig6c.json"
    );
    let _ = fs::remove_dir_all(&dir);
}
