//! JSON export of experiment records.

use std::fs;
use std::io;
use std::path::Path;

use serde::Serialize;

use crate::cli::{Args, UsageError};
use crate::runner::{parse_rate_spec, FaultPlan, RunnerOptions, ShardMode, ShardSpec};

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

/// The flags shared by the experiment binaries, read off a parsed flag
/// table by [`CommonArgs::from_args`].
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// `--jobs <N>` → worker-pool options.
    pub runner: RunnerOptions,
    /// `--json <path>` → export path.
    pub json: Option<String>,
    /// `--cache-dir <path>` → persistent result store directory.
    pub cache_dir: Option<String>,
    /// `--seed <u64>` → seed for stochastic binaries (`None` = the flag
    /// was not given; stochastic binaries fall back to [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// `--shard i/n` or `--shard merge` → sweep sharding mode
    /// ([`ShardMode::All`] when absent).
    pub shard: ShardMode,
    /// `--resume` → replay the sweep journal beside `--cache-dir` and
    /// continue a killed run instead of starting over.
    pub resume: bool,
    /// `--fault-seed` / `--fault-rate` / `--fault-delay-ms` → the
    /// deterministic chaos plan, `None` outside chaos runs.
    pub faults: Option<std::sync::Arc<FaultPlan>>,
}

/// The seed stochastic binaries run with when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

impl CommonArgs {
    /// Reads the shared flags off a parsed flag table; a flag the
    /// binary's table does not declare reads as absent.
    ///
    /// # Errors
    ///
    /// [`UsageError::InvalidValue`] on a `--jobs` that is not a positive
    /// integer, a `--seed`, `--fault-seed` or `--fault-delay-ms` that is
    /// not an unsigned integer, or a malformed `--shard` or `--fault-rate`.
    pub fn from_args(args: &Args) -> Result<Self, UsageError> {
        let runner = match args.get::<std::num::NonZeroUsize>("--jobs")? {
            Some(jobs) => RunnerOptions::with_jobs(jobs.get()),
            None => RunnerOptions::default(),
        };
        let shard = match args.value("--shard") {
            None => ShardMode::All,
            Some("merge") => ShardMode::Merge,
            Some(v) => ShardSpec::parse(v).map(ShardMode::Slice).ok_or_else(|| {
                UsageError::invalid("--shard", v, "expected `i/n` with 0 <= i < n, or `merge`")
            })?,
        };
        Ok(CommonArgs {
            runner,
            json: args.value("--json").map(str::to_owned),
            cache_dir: args.value("--cache-dir").map(str::to_owned),
            seed: args.get("--seed")?,
            shard,
            resume: args.switch("--resume"),
            faults: fault_plan(args)?.map(std::sync::Arc::new),
        })
    }

    /// Opens the persistent [`ResultStore`](crate::runner::ResultStore)
    /// named by `--cache-dir`, or `None` when the flag was not given.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic when the directory cannot be created or
    /// scanned — an unusable `--cache-dir` is fatal in the experiment
    /// binaries.
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
    fn fault_hook(&self) -> Option<std::sync::Arc<dyn crate::runner::FaultHook>> {
        self.faults
            .as_ref()
            .map(|p| p.clone() as std::sync::Arc<dyn crate::runner::FaultHook>)
    }

    /// Opens the sweep journal for `jobs` beside `--cache-dir` (honoring
    /// `--resume`), printing resume accounting. `None` without a cache
    /// dir — there is no store to resume from — or if the journal cannot
    /// be created (a warning is printed; the sweep itself proceeds).
    fn open_journal(
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

    /// The seed a stochastic binary should run with: the `--seed` value,
    /// or [`DEFAULT_SEED`]. Stochastic binaries must echo this value
    /// (`seed: <n>`) so every printed/exported result names the seed that
    /// produced it.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }
}

/// The chaos plan of `--fault-seed`, the repeatable `--fault-rate` and
/// `--fault-delay-ms`; `None` when no chaos flag is given (the common
/// case: zero injection overhead).
fn fault_plan(args: &Args) -> Result<Option<FaultPlan>, UsageError> {
    let seed = args.get::<u64>("--fault-seed")?;
    let delay_ms = args.get::<u64>("--fault-delay-ms")?;
    let rates = args
        .values("--fault-rate")
        .map(|spec| parse_rate_spec(spec).map_err(|e| UsageError::invalid("--fault-rate", spec, e)))
        .collect::<Result<Vec<_>, _>>()?;
    if seed.is_none() && delay_ms.is_none() && rates.is_empty() {
        return Ok(None);
    }
    let mut plan = FaultPlan::new(seed.unwrap_or(0));
    for (site, per_mille) in rates {
        plan = plan.with_rate(site, per_mille);
    }
    if let Some(ms) = delay_ms {
        plan = plan.with_delay(std::time::Duration::from_millis(ms));
    }
    Ok(Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{self, Flag};

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

    /// Every shared flag, plus one binary-specific flag that must stay
    /// readable beside them.
    const FLAGS: &[Flag] = &[
        cli::JOBS,
        cli::JSON,
        cli::CACHE_DIR,
        cli::SEED,
        cli::SHARD,
        cli::RESUME,
        cli::FAULT_SEED,
        cli::FAULT_RATE,
        cli::FAULT_DELAY_MS,
        Flag::value("--part", "a|b|c", "part"),
    ];

    fn parse(args: &[&str]) -> Result<(CommonArgs, Option<String>), UsageError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let args = cli::parse(FLAGS, &argv)?;
        Ok((
            CommonArgs::from_args(&args)?,
            args.value("--part").map(str::to_owned),
        ))
    }

    #[test]
    fn parses_jobs_flag() {
        let (common, part) = parse(&["--jobs", "3", "--part", "c"]).unwrap();
        assert_eq!(part.as_deref(), Some("c"));
        assert_eq!(common.runner.jobs, 3);
        let (default, _) = parse(&["--part", "c"]).unwrap();
        assert!(default.runner.jobs >= 1);
        for bad in ["0", "-1", "abc"] {
            assert!(matches!(
                parse(&["--jobs", bad]),
                Err(UsageError::InvalidValue("--jobs", ..))
            ));
        }
    }

    #[test]
    fn parses_cache_dir_flag() {
        let (common, part) = parse(&["--cache-dir", "/tmp/store", "--part", "c"]).unwrap();
        assert_eq!(part.as_deref(), Some("c"));
        assert_eq!(common.cache_dir.as_deref(), Some("/tmp/store"));
        let (none, _) = parse(&["--part", "c"]).unwrap();
        assert!(none.cache_dir.is_none());
    }

    #[test]
    fn parses_seed_flag() {
        let (common, part) = parse(&["--seed", "12345", "--part", "c"]).unwrap();
        assert_eq!(part.as_deref(), Some("c"));
        assert_eq!(common.seed, Some(12345));
        let (none, _) = parse(&["--part", "c"]).unwrap();
        assert!(none.seed.is_none());
        let defaulted = CommonArgs::default();
        assert_eq!(defaulted.seed_or_default(), DEFAULT_SEED);
        assert!(matches!(
            parse(&["--seed", "x"]),
            Err(UsageError::InvalidValue("--seed", ..))
        ));
    }

    #[test]
    fn parses_shard_flag() {
        let (common, part) = parse(&["--shard", "1/3", "--part", "c"]).unwrap();
        assert_eq!(part.as_deref(), Some("c"));
        assert_eq!(
            common.shard,
            ShardMode::Slice(ShardSpec::new(1, 3).unwrap())
        );

        let (merge, part) = parse(&["--shard", "merge"]).unwrap();
        assert!(part.is_none());
        assert_eq!(merge.shard, ShardMode::Merge);

        let (absent, _) = parse(&["--part", "c"]).unwrap();
        assert_eq!(absent.shard, ShardMode::All);
        assert_eq!(CommonArgs::default().shard, ShardMode::All);
        assert!(matches!(
            parse(&["--shard", "2/2"]),
            Err(UsageError::InvalidValue("--shard", ..))
        ));
    }

    #[test]
    fn parses_resume_flag() {
        let (common, part) = parse(&["--resume", "--part", "c"]).unwrap();
        assert_eq!(part.as_deref(), Some("c"));
        assert!(common.resume);
        let (absent, _) = parse(&["--part", "c"]).unwrap();
        assert!(!absent.resume);
        assert!(!CommonArgs::default().resume);
    }

    #[test]
    fn parses_fault_flags() {
        use crate::runner::FaultSite;
        let (common, part) = parse(&[
            "--fault-seed", "7", "--fault-rate", "store-read=300",
            "--fault-rate", "job-panic=1000", "--fault-delay-ms", "25", "--part", "c",
        ])
        .unwrap();
        assert_eq!(part.as_deref(), Some("c"));
        let plan = common.faults.expect("chaos flags build a plan");
        assert_eq!(plan.seed(), 7);
        assert!(plan.would_fire(FaultSite::JobPanic, 1, 0), "rate 1000 always fires");
        assert!(
            (0..64).any(|k| plan.would_fire(FaultSite::StoreRead, k, 0)),
            "an earlier --fault-rate is kept"
        );
        assert!(!plan.would_fire(FaultSite::ConnDrop, 1, 0), "unset site never fires");

        let (none, _) = parse(&["--part", "c"]).unwrap();
        assert!(none.faults.is_none(), "no chaos flags, no plan");
        assert!(CommonArgs::default().faults.is_none());
        assert!(CommonArgs::default().fault_hook().is_none());
        assert!(matches!(
            parse(&["--fault-rate", "bogus=10"]),
            Err(UsageError::InvalidValue("--fault-rate", ..))
        ));
    }

    #[test]
    fn open_journal_without_cache_dir_is_none() {
        let args = CommonArgs { resume: true, ..CommonArgs::default() };
        assert!(args.open_journal(&[], None).is_none());
    }

    #[test]
    fn parses_json_flag() {
        let (common, part) = parse(&["--part", "a", "--json", "out.json"]).unwrap();
        assert_eq!(part.as_deref(), Some("a"));
        assert_eq!(common.json.as_deref(), Some("out.json"));
        let (none, _) = parse(&["--part", "a"]).unwrap();
        assert!(none.json.is_none());
    }
}
