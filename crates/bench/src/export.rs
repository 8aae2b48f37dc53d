//! JSON export of experiment records.

use std::fs;
use std::io;
use std::path::Path;

use serde::Serialize;

/// Serializes `records` as pretty JSON to `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Returns I/O errors from directory creation or writing; serialization of
/// the experiment record types is infallible.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, records: &T) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(records).expect("experiment records serialize"); // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
    fs::write(path, json)
}

/// Reads the process arguments and returns the `--json <path>` value, if
/// any — the one flag every experiment binary supports.
pub fn parse_args_json() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_json_arg(&args).1
}

/// The flags shared by every experiment binary, parsed off the process
/// arguments by [`parse_common_args`].
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Arguments left over after the shared flags (binary-specific).
    pub rest: Vec<String>,
    /// `--jobs <N>` → worker-pool options.
    pub runner: crate::runner::RunnerOptions,
    /// `--json <path>` → export path.
    pub json: Option<String>,
    /// `--cache-dir <path>` → persistent result store directory.
    pub cache_dir: Option<String>,
    /// `--seed <u64>` → seed for stochastic binaries (`None` = the flag
    /// was not given; stochastic binaries fall back to [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// `--shard i/n` or `--shard merge` → sweep sharding mode
    /// ([`ShardMode::All`](crate::runner::ShardMode::All) when absent).
    pub shard: crate::runner::ShardMode,
    /// `--resume` → replay the sweep journal beside `--cache-dir` and
    /// continue a killed run instead of starting over.
    pub resume: bool,
    /// `--fault-seed` / `--fault-rate` / `--fault-delay-ms` → the
    /// deterministic chaos plan, `None` outside chaos runs.
    pub faults: Option<std::sync::Arc<crate::runner::FaultPlan>>,
}

/// The seed stochastic binaries run with when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

impl CommonArgs {
    /// Opens the persistent [`ResultStore`](crate::runner::ResultStore)
    /// named by `--cache-dir`, or `None` when the flag was not given.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic when the directory cannot be created or
    /// scanned — an unusable `--cache-dir` is a fatal flag error in the
    /// experiment binaries, same as a malformed `--jobs`.
    pub fn open_store(&self) -> Option<crate::runner::ResultStore> {
        self.cache_dir.as_deref().map(|dir| {
            let mut store = crate::runner::ResultStore::open(dir)
                .unwrap_or_else(|e| panic!("--cache-dir {dir}: {e}"));
            if let Some(plan) = &self.faults {
                store.set_fault_hook(plan.clone());
            }
            store
        })
    }

    /// The chaos plan as the trait object the batch runners take.
    pub fn fault_hook(&self) -> Option<std::sync::Arc<dyn crate::runner::FaultHook>> {
        self.faults
            .as_ref()
            .map(|p| p.clone() as std::sync::Arc<dyn crate::runner::FaultHook>)
    }

    /// Opens the sweep journal for `jobs` beside `--cache-dir` (honoring
    /// `--resume`), printing resume accounting. `None` without a cache
    /// dir — there is no store to resume from — or if the journal cannot
    /// be created (a warning is printed; the sweep itself proceeds).
    pub fn open_journal(
        &self,
        jobs: &[crate::runner::SweepJob],
        shard_tag: Option<&str>,
    ) -> Option<crate::runner::SweepJournal> {
        let dir = match self.cache_dir.as_deref() {
            Some(dir) => dir,
            None => {
                if self.resume {
                    eprintln!("note: --resume ignored — requires --cache-dir (the store holds the completed rows)");
                }
                return None;
            }
        };
        match crate::runner::SweepJournal::open(std::path::Path::new(dir), jobs, shard_tag, self.resume)
        {
            Ok(journal) => {
                if self.resume {
                    println!(
                        "resume: {} of {} jobs already journaled in {dir}",
                        journal.resumed_count(),
                        journal.total()
                    );
                }
                Some(journal)
            }
            Err(e) => {
                eprintln!("warning: sweep journal unavailable in {dir}: {e}; running unjournaled");
                None
            }
        }
    }

    /// Runs a sweep binary's job list under the shared flags — the one
    /// sweep driver of `fig6` and `fig7`.
    ///
    /// Opens the sweep journal beside `store` (unless merging: a merge
    /// only replays the store; slices journal under their own tag so
    /// concurrent slices sharing one directory never mix progress), runs
    /// [`run_batch`](crate::runner::run_batch) with `--shard` and the
    /// fault plan, reports fired faults and quarantined jobs, and finishes
    /// the journal when nothing was quarantined — otherwise the journal
    /// stays so a later `--resume` retries only the quarantined jobs.
    ///
    /// Returns the batch for a full or merged run, for the caller to
    /// render and export. A slice only warms the store: it prints its
    /// status line, returns `None`, and — having no artifact to print —
    /// exits the process with status 3 when it quarantined a job.
    ///
    /// # Errors
    ///
    /// As [`run_batch`](crate::runner::run_batch); `--shard` without
    /// `--cache-dir` is one of them.
    pub fn run_sweep(
        &self,
        jobs: &[crate::runner::SweepJob],
        store: Option<&crate::runner::ResultStore>,
    ) -> Result<Option<crate::runner::BatchResult>, clsa_core::CoreError> {
        use crate::runner::ShardMode;
        let journal = match self.shard {
            ShardMode::All => self.open_journal(jobs, None),
            ShardMode::Slice(spec) => {
                self.open_journal(jobs, Some(&spec.to_string().replace('/', "of")))
            }
            ShardMode::Merge => None,
        };
        let hook = self.fault_hook();
        let plan = crate::runner::BatchPlan {
            store,
            shard: self.shard,
            journal: journal.as_ref(),
            faults: hook.as_deref(),
        };
        let batch = crate::runner::run_batch(jobs, &self.runner, &plan)?;
        self.report_faults();
        if let ShardMode::Slice(spec) = self.shard {
            let store_stats = batch.store_stats.unwrap_or_default();
            println!(
                "shard {spec}: {} of {} jobs owned; cache {}; store {store_stats}",
                batch.owned,
                jobs.len(),
                batch.stats
            );
        }
        for failure in &batch.failures {
            eprintln!("warning: {failure}");
        }
        if let Some(journal) = journal {
            if batch.failures.is_empty() {
                journal.finish();
            }
        }
        if !matches!(self.shard, ShardMode::Slice(_)) {
            return Ok(Some(batch));
        }
        // The aggregated tables (and any --json artifact) come from the
        // final `--shard merge` run.
        println!("slice done — run the remaining slices, then `--shard merge`");
        if self.json.is_some() {
            eprintln!("note: --json ignored for a shard slice; export from `--shard merge`");
        }
        if !batch.failures.is_empty() {
            std::process::exit(3);
        }
        Ok(None)
    }

    /// Prints the chaos plan's firing report (for CI pinning) if a plan
    /// is active.
    pub fn report_faults(&self) {
        if let Some(plan) = &self.faults {
            println!("fault plan: seed {} — {}", plan.seed(), plan.report());
        }
    }

    /// Prints a note when `--cache-dir` was passed to a binary whose
    /// artifact is closed-form (no batch sweep to persist).
    pub fn note_cache_dir_unused(&self) {
        if let Some(dir) = &self.cache_dir {
            eprintln!(
                "note: --cache-dir {dir} ignored — this binary computes its \
                 artifact directly and runs no batch sweep"
            );
        }
    }

    /// The seed a stochastic binary should run with: the `--seed` value,
    /// or [`DEFAULT_SEED`]. Stochastic binaries must echo this value
    /// (`seed: <n>`) so every printed/exported result names the seed that
    /// produced it.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Prints a note when `--seed` was passed to a fully deterministic
    /// binary (nothing here consumes randomness).
    pub fn note_seed_unused(&self) {
        if let Some(seed) = self.seed {
            eprintln!("note: --seed {seed} ignored — this binary is deterministic");
        }
    }
}

/// Parses the five flags every experiment binary supports — `--jobs <N>`,
/// `--json <path>`, `--cache-dir <path>`, `--seed <u64>`, and
/// `--shard i/n|merge` — from the process arguments.
///
/// # Panics
///
/// Panics with a usage message on a malformed `--jobs`, `--seed`, or
/// `--shard` value (see [`parse_jobs_arg`] / [`parse_seed_arg`] /
/// [`parse_shard_arg`]).
pub fn parse_common_args() -> CommonArgs {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (rest, runner) = parse_jobs_arg(&raw);
    let (rest, json) = parse_json_arg(&rest);
    let (rest, cache_dir) = parse_cache_dir_arg(&rest);
    let (rest, seed) = parse_seed_arg(&rest);
    let (rest, shard) = parse_shard_arg(&rest);
    let (rest, resume) = parse_resume_arg(&rest);
    let (rest, faults) = parse_fault_args(&rest);
    CommonArgs {
        rest,
        runner,
        json,
        cache_dir,
        seed,
        shard,
        resume,
        faults: faults.map(std::sync::Arc::new),
    }
}

/// Parses an optional `--resume` flag (no value) from a raw argument
/// list, returning the remaining arguments and whether it was present.
pub fn parse_resume_arg(args: &[String]) -> (Vec<String>, bool) {
    let mut rest = Vec::new();
    let mut resume = false;
    for a in args {
        if a == "--resume" {
            resume = true;
        } else {
            rest.push(a.clone());
        }
    }
    (rest, resume)
}

/// Parses the chaos flags — `--fault-seed <u64>`, repeatable
/// `--fault-rate <site=per_mille>`, and `--fault-delay-ms <u64>` — into
/// a [`FaultPlan`](crate::runner::FaultPlan). `None` when no chaos flag
/// is given (the common case: zero injection overhead).
///
/// # Panics
///
/// Panics with a usage message on a malformed value (the experiment
/// binaries treat bad flags as fatal).
pub fn parse_fault_args(args: &[String]) -> (Vec<String>, Option<crate::runner::FaultPlan>) {
    let mut rest = Vec::new();
    let mut seed = None;
    let mut delay_ms = None;
    let mut rates = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fault-seed" => {
                seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--fault-seed takes an unsigned 64-bit integer"), // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
                );
            }
            "--fault-rate" => {
                let spec = it.next().expect("--fault-rate takes site=per_mille"); // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
                let parsed = crate::runner::parse_rate_spec(spec)
                    .unwrap_or_else(|e| panic!("--fault-rate {spec}: {e}"));
                rates.push(parsed);
            }
            "--fault-delay-ms" => {
                delay_ms = Some(
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .expect("--fault-delay-ms takes an unsigned integer"), // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
                );
            }
            _ => rest.push(a.clone()),
        }
    }
    if seed.is_none() && delay_ms.is_none() && rates.is_empty() {
        return (rest, None);
    }
    let mut plan = crate::runner::FaultPlan::new(seed.unwrap_or(0));
    for (site, per_mille) in rates {
        plan = plan.with_rate(site, per_mille);
    }
    if let Some(ms) = delay_ms {
        plan = plan.with_delay(std::time::Duration::from_millis(ms));
    }
    (rest, Some(plan))
}

/// Parses an optional `--jobs <N>` argument pair from a raw argument
/// list, returning the remaining arguments and the worker-pool options —
/// [`RunnerOptions::default`](crate::runner::RunnerOptions::default) (one
/// worker per hardware thread) when the flag is absent.
///
/// # Panics
///
/// Panics with a usage message when the flag value is missing or not a
/// positive integer (the experiment binaries treat bad flags as fatal).
pub fn parse_jobs_arg(args: &[String]) -> (Vec<String>, crate::runner::RunnerOptions) {
    let mut rest = Vec::new();
    let mut options = crate::runner::RunnerOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let n: usize = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .expect("--jobs takes a positive integer"); // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
            options = crate::runner::RunnerOptions::with_jobs(n);
        } else {
            rest.push(a.clone());
        }
    }
    (rest, options)
}

/// Parses an optional `--cache-dir <path>` argument pair from a raw
/// argument list, returning the remaining arguments and the persistent
/// store directory if present.
pub fn parse_cache_dir_arg(args: &[String]) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::new();
    let mut dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--cache-dir" {
            dir = it.next().cloned();
        } else {
            rest.push(a.clone());
        }
    }
    (rest, dir)
}

/// Parses an optional `--seed <u64>` argument pair from a raw argument
/// list, returning the remaining arguments and the seed if present.
///
/// # Panics
///
/// Panics with a usage message when the flag value is missing or not a
/// u64 (the experiment binaries treat bad flags as fatal).
pub fn parse_seed_arg(args: &[String]) -> (Vec<String>, Option<u64>) {
    let mut rest = Vec::new();
    let mut seed = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--seed" {
            seed = Some(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an unsigned 64-bit integer"), // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
            );
        } else {
            rest.push(a.clone());
        }
    }
    (rest, seed)
}

/// Parses an optional `--shard <i/n|merge>` argument pair from a raw
/// argument list, returning the remaining arguments and the sharding
/// mode — [`ShardMode::All`](crate::runner::ShardMode::All) when the
/// flag is absent.
///
/// # Panics
///
/// Panics with a usage message when the flag value is missing, `merge`
/// is misspelled, or `i/n` does not satisfy `i < n` (the experiment
/// binaries treat bad flags as fatal).
pub fn parse_shard_arg(args: &[String]) -> (Vec<String>, crate::runner::ShardMode) {
    let mut rest = Vec::new();
    let mut mode = crate::runner::ShardMode::All;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--shard" {
            let value = it.next().expect("--shard takes `i/n` (0 <= i < n) or `merge`"); // cim-lint: allow(panic-unwrap) CLI parse/serialize; abort with message is the contract
            mode = if value == "merge" {
                crate::runner::ShardMode::Merge
            } else {
                crate::runner::ShardSpec::parse(value)
                    .map(crate::runner::ShardMode::Slice)
                    .unwrap_or_else(|| {
                        panic!("--shard {value}: expected `i/n` with 0 <= i < n, or `merge`")
                    })
            };
        } else {
            rest.push(a.clone());
        }
    }
    (rest, mode)
}

/// Parses an optional `--json <path>` argument pair from a raw argument
/// list, returning the remaining arguments and the path if present.
pub fn parse_json_arg(args: &[String]) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::new();
    let mut json = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json = it.next().cloned();
        } else {
            rest.push(a.clone());
        }
    }
    (rest, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("cim_bench_test_{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_jobs_flag() {
        let args: Vec<String> = ["--jobs", "3", "--part", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, options) = parse_jobs_arg(&args);
        assert_eq!(rest, vec!["--part".to_string(), "c".to_string()]);
        assert_eq!(options.jobs, 3);
        let (_, default) = parse_jobs_arg(&rest);
        assert!(default.jobs >= 1);
    }

    #[test]
    fn parses_cache_dir_flag() {
        let args: Vec<String> = ["--cache-dir", "/tmp/store", "--part", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, dir) = parse_cache_dir_arg(&args);
        assert_eq!(rest, vec!["--part".to_string(), "c".to_string()]);
        assert_eq!(dir.as_deref(), Some("/tmp/store"));
        let (_, none) = parse_cache_dir_arg(&rest);
        assert!(none.is_none());
    }

    #[test]
    fn parses_seed_flag() {
        let args: Vec<String> = ["--seed", "12345", "--part", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, seed) = parse_seed_arg(&args);
        assert_eq!(rest, vec!["--part".to_string(), "c".to_string()]);
        assert_eq!(seed, Some(12345));
        let (_, none) = parse_seed_arg(&rest);
        assert!(none.is_none());
        let defaulted = CommonArgs::default();
        assert_eq!(defaulted.seed_or_default(), DEFAULT_SEED);
    }

    #[test]
    fn parses_shard_flag() {
        use crate::runner::{ShardMode, ShardSpec};
        let args: Vec<String> = ["--shard", "1/3", "--part", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, mode) = parse_shard_arg(&args);
        assert_eq!(rest, vec!["--part".to_string(), "c".to_string()]);
        assert_eq!(mode, ShardMode::Slice(ShardSpec::new(1, 3).unwrap()));

        let merge: Vec<String> = vec!["--shard".into(), "merge".into()];
        let (rest, mode) = parse_shard_arg(&merge);
        assert!(rest.is_empty());
        assert_eq!(mode, ShardMode::Merge);

        let (_, absent) = parse_shard_arg(&["--part".to_string()]);
        assert_eq!(absent, ShardMode::All);
        assert_eq!(CommonArgs::default().shard, ShardMode::All);
    }

    #[test]
    fn parses_resume_flag() {
        let args: Vec<String> = ["--resume", "--part", "c"].iter().map(|s| s.to_string()).collect();
        let (rest, resume) = parse_resume_arg(&args);
        assert_eq!(rest, vec!["--part".to_string(), "c".to_string()]);
        assert!(resume);
        let (_, absent) = parse_resume_arg(&rest);
        assert!(!absent);
        assert!(!CommonArgs::default().resume);
    }

    #[test]
    fn parses_fault_flags() {
        use crate::runner::FaultSite;
        let args: Vec<String> = [
            "--fault-seed", "7", "--fault-rate", "store-read=300",
            "--fault-rate", "job-panic=1000", "--fault-delay-ms", "25", "--part", "c",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (rest, plan) = parse_fault_args(&args);
        assert_eq!(rest, vec!["--part".to_string(), "c".to_string()]);
        let plan = plan.expect("chaos flags build a plan");
        assert_eq!(plan.seed(), 7);
        assert!(plan.would_fire(FaultSite::JobPanic, 1, 0), "rate 1000 always fires");
        assert!(!plan.would_fire(FaultSite::ConnDrop, 1, 0), "unset site never fires");

        let (rest, none) = parse_fault_args(&rest);
        assert_eq!(rest.len(), 2);
        assert!(none.is_none(), "no chaos flags, no plan");
        assert!(CommonArgs::default().faults.is_none());
        assert!(CommonArgs::default().fault_hook().is_none());
    }

    #[test]
    fn open_journal_without_cache_dir_is_none() {
        let args = CommonArgs { resume: true, ..CommonArgs::default() };
        assert!(args.open_journal(&[], None).is_none());
    }

    #[test]
    fn parses_json_flag() {
        let args: Vec<String> = ["--part", "a", "--json", "out.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, json) = parse_json_arg(&args);
        assert_eq!(rest, vec!["--part".to_string(), "a".to_string()]);
        assert_eq!(json.as_deref(), Some("out.json"));
        let (rest, json) = parse_json_arg(&rest);
        assert_eq!(rest.len(), 2);
        assert!(json.is_none());
    }
}
