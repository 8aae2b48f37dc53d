//! # The parallel batched evaluation engine
//!
//! The paper's evaluation is a *design-space sweep* — many `(model,
//! architecture, strategy)` configurations, each an independent pipeline
//! run. This module turns such a sweep into a flat job list and executes
//! it on a pool of scoped worker threads with three guarantees:
//!
//! 1. **Determinism** — [`BatchResult`] rows are bit-for-bit identical to
//!    a sequential run, for any worker count. Jobs land in indexed slots;
//!    aggregation happens in job order after the pool drains.
//! 2. **No recomputation** — a shared [`ScheduleCache`] memoizes both the
//!    stage prefix (mapping + `determine_sets` + `determine_dependencies`,
//!    keyed by `(model, arch, mapping strategy)` fingerprints) and full
//!    schedules, so e.g. a layer-by-layer baseline and a CLSA run over the
//!    same model perform the stage analyses exactly once.
//! 3. **Full occupancy** — jobs are dealt round-robin onto per-worker
//!    *lanes*; a worker that drains its lane steals from the others
//!    ([`parallel_map`]), so one slow model (ResNet152) cannot idle the
//!    rest of the pool.
//!
//! 4. **Durability (opt-in)** — an on-disk [`ResultStore`] (`--cache-dir
//!    <path>`) persists per-job [`RunSummary`] rows across processes, so
//!    a warm re-run of a sweep replays from disk (byte-identical output)
//!    instead of re-scheduling. See [`store`] for the row format and the
//!    corruption policy.
//!
//! 5. **Survivability (opt-in)** — a panic in one job is caught, retried,
//!    and quarantined (reported in [`BatchResult::failures`]) instead of
//!    tearing down the batch; a [`SweepJournal`] beside the store plus
//!    `--resume` makes a SIGKILL'd sweep resumable with byte-identical
//!    output; and a seeded [`fault::FaultPlan`] injects deterministic
//!    store/job faults for reproducible chaos tests.
//!
//! Layering: [`parallel_map`] (lane pool) → [`ScheduleCache`] (memo) →
//! [`run_batch`] (sweep jobs → [`BatchResult`]). One [`BatchPlan`]
//! selects everything opt-in — store, shard slice or merge, journal,
//! fault hook — and its [`Default`] is the plain in-memory run. The
//! experiment binaries all sit on top and accept `--jobs N` (see
//! [`parse_jobs_arg`](crate::parse_jobs_arg)) plus `--cache-dir <path>`
//! (see [`parse_common_args`](crate::parse_common_args)); `fig6` and
//! `fig7` drive their sweeps through
//! [`CommonArgs::run_sweep`](crate::CommonArgs::run_sweep).
//!
//! # Examples
//!
//! ```
//! use cim_bench::runner::{run_batch, sweep_jobs, BatchPlan, RunnerOptions};
//! use cim_bench::SweepOptions;
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let opts = SweepOptions { xs: vec![1], ..SweepOptions::default() };
//! let jobs = sweep_jobs("fig5", &cim_models::fig5_example(), &opts)?;
//! let plain = BatchPlan::default();
//! let parallel = run_batch(&jobs, &RunnerOptions::with_jobs(4), &plain)?;
//! let sequential = run_batch(&jobs, &RunnerOptions::sequential(), &plain)?;
//! assert_eq!(parallel.results, sequential.results); // bit-for-bit
//! assert!(parallel.stats.stage_hits() >= 1); // baseline/xinf shared stages
//! # Ok(())
//! # }
//! ```

mod cache;
pub mod fault;
mod fingerprint;
pub mod journal;
mod lane;
mod shard;
pub mod store;
mod sweep;

pub use cache::{CacheStats, ScheduleCache};
pub use fault::{mix64, panic_message, parse_rate_spec, FaultHook, FaultPlan, FaultSite, FAULT_SITES};
pub use fingerprint::{fingerprint, mapping_fingerprint, strategy_fingerprint, CacheKey, FnvWriter};
pub use journal::{sweep_fingerprint, SweepJournal, JOURNAL_FORMAT_VERSION};
pub use lane::parallel_map;
pub use shard::{shard_of, ShardMode, ShardSpec};
pub use store::{ResultStore, RunSummary, StoreStats, STORE_FORMAT_VERSION};
pub use sweep::{
    pe_min_of, run_batch, sweep_jobs, sweep_jobs_for_models, BatchPlan, BatchResult, JobFailure,
    JobFailureKind, SweepJob, BASELINE_LABEL, MAX_JOB_ATTEMPTS,
};

/// Worker-pool options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerOptions {
    /// Number of worker threads (1 = sequential on the calling thread).
    pub jobs: usize,
}

impl RunnerOptions {
    /// Runs everything on the calling thread — the reference behaviour
    /// the parallel pool must reproduce exactly.
    pub fn sequential() -> Self {
        Self { jobs: 1 }
    }

    /// Uses `jobs` worker threads (clamped to ≥ 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }
}

impl Default for RunnerOptions {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}
