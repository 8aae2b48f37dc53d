//! The concurrent schedule cache.
//!
//! Two memoization levels, both keyed by [`CacheKey`] fingerprints:
//!
//! 1. **Stage level** — `clsa_core::prepare` outputs (mapping + Stage I
//!    sets + Stage II dependencies), keyed by `(model, arch, mapping
//!    prefix)`. A layer-by-layer baseline and a CLSA cross-layer run over
//!    the same model and mapping share this entry, so `determine_sets` /
//!    `determine_dependencies` run once per mapping, not once per
//!    configuration.
//! 2. **Schedule level** — full `RunResult`s keyed by `(model, arch, full
//!    strategy)`, so byte-identical configurations (retries, overlapping
//!    sweeps) are never recomputed at all.
//!
//! Each level stores `Arc<OnceLock<…>>` slots inside a mutex-guarded map:
//! the map lock is held only to fetch-or-insert the slot, never during
//! computation, and `OnceLock::get_or_init` guarantees that concurrent
//! workers racing on the same key block on one computation instead of
//! duplicating it — the property checked by this module's tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cim_ir::Graph;
use clsa_core::{prepare, run_prepared, CoreError, Prepared, RunConfig, RunResult};
use parking_lot::Mutex;

use super::fingerprint::CacheKey;

type Slot<T> = Arc<OnceLock<Result<Arc<T>, CoreError>>>;

/// Cumulative counters of one cache (or one cache level).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stage-level lookups.
    pub stage_lookups: u64,
    /// Stage-level computations actually run (`lookups - computes` hit).
    pub stage_computes: u64,
    /// Schedule-level lookups.
    pub schedule_lookups: u64,
    /// Schedule-level computations actually run.
    pub schedule_computes: u64,
}

impl CacheStats {
    /// Stage-level hits: lookups served without running `prepare`.
    pub fn stage_hits(&self) -> u64 {
        self.stage_lookups - self.stage_computes
    }

    /// Schedule-level hits: lookups served without running the scheduler.
    pub fn schedule_hits(&self) -> u64 {
        self.schedule_lookups - self.schedule_computes
    }

    /// Total hits across both levels.
    pub fn hits(&self) -> u64 {
        self.stage_hits() + self.schedule_hits()
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stages {}/{} hit, schedules {}/{} hit",
            self.stage_hits(),
            self.stage_lookups,
            self.schedule_hits(),
            self.schedule_lookups
        )
    }
}

/// Concurrent two-level memo for pipeline runs. See the module docs.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    stages: Mutex<BTreeMap<CacheKey, Slot<Prepared>>>,
    schedules: Mutex<BTreeMap<CacheKey, Slot<RunResult>>>,
    stage_lookups: AtomicU64,
    stage_computes: AtomicU64,
    schedule_lookups: AtomicU64,
    schedule_computes: AtomicU64,
}

/// Fetches (or inserts) the key's slot, then resolves it at most once
/// across all racing threads.
fn get_or_compute<T>(
    map: &Mutex<BTreeMap<CacheKey, Slot<T>>>,
    key: CacheKey,
    computes: &AtomicU64,
    compute: impl FnOnce() -> Result<T, CoreError>,
) -> Result<Arc<T>, CoreError> {
    let slot = Arc::clone(map.lock().entry(key).or_default());
    slot.get_or_init(|| {
        // Release: publishes the caller's earlier lookup increment to any
        // `stats()` that acquires this count (see there).
        computes.fetch_add(1, Ordering::Release);
        compute().map(Arc::new)
    })
    .clone()
}

impl ScheduleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized `clsa_core::prepare`: mapping plus Stages I & II.
    ///
    /// # Errors
    ///
    /// Propagates (and caches) pipeline errors for the key.
    pub fn prepared(
        &self,
        model_fp: u64,
        graph: &Graph,
        config: &RunConfig,
    ) -> Result<Arc<Prepared>, CoreError> {
        self.stage_lookups.fetch_add(1, Ordering::Relaxed);
        get_or_compute(
            &self.stages,
            CacheKey::stages(model_fp, config),
            &self.stage_computes,
            || prepare(graph, config),
        )
    }

    /// Memoized full pipeline run: resolves the stage prefix through the
    /// stage cache, then the schedule through the schedule cache.
    ///
    /// `model_fp` must identify `graph` (use
    /// [`fingerprint`](super::fingerprint::fingerprint) on the
    /// canonicalized graph); keying on the precomputed fingerprint keeps
    /// repeated lookups from re-hashing multi-hundred-layer graphs.
    ///
    /// # Errors
    ///
    /// Propagates (and caches) pipeline errors for the key.
    pub fn run(
        &self,
        model_fp: u64,
        graph: &Graph,
        config: &RunConfig,
    ) -> Result<Arc<RunResult>, CoreError> {
        self.schedule_lookups.fetch_add(1, Ordering::Relaxed);
        get_or_compute(
            &self.schedules,
            CacheKey::schedule(model_fp, config),
            &self.schedule_computes,
            || {
                let prepared = self.prepared(model_fp, graph, config)?;
                run_prepared(&prepared, config)
            },
        )
    }

    /// Non-blocking probe of the schedule level: returns the memoized
    /// result for `key` if — and only if — a computation for it already
    /// completed successfully. Never computes, never waits on an
    /// in-flight computation, and is counter-neutral (a probe is not a
    /// lookup the hit-rate accounting should see — callers like the
    /// serve daemon's warm path keep their own counters).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<RunResult>> {
        let slot = Arc::clone(self.schedules.lock().get(key)?);
        let resolved = slot.get()?;
        resolved.as_ref().ok().cloned()
    }

    /// Snapshot of the lookup/compute counters.
    ///
    /// Every compute is preceded, on its own thread, by the lookup that
    /// triggered it. Each `*_computes` count is therefore loaded (Acquire,
    /// pairing with the Release increment) *before* its `*_lookups` count:
    /// the lookups behind every counted compute are then visible, so
    /// `computes <= lookups` holds in every snapshot and the `*_hits`
    /// subtractions cannot underflow while workers are running.
    pub fn stats(&self) -> CacheStats {
        let stage_computes = self.stage_computes.load(Ordering::Acquire);
        let schedule_computes = self.schedule_computes.load(Ordering::Acquire);
        CacheStats {
            stage_lookups: self.stage_lookups.load(Ordering::Relaxed),
            stage_computes,
            schedule_lookups: self.schedule_lookups.load(Ordering::Relaxed),
            schedule_computes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::fingerprint::fingerprint;
    use cim_arch::{Architecture, TileSpec};

    fn cfg(pes: usize) -> RunConfig {
        RunConfig::baseline(Architecture::paper_case_study(pes).unwrap())
    }

    #[test]
    fn incremental_single_axis_mutation_reuses_stage_artifacts() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let arch_with_hop = |hop: u64| {
            Architecture::builder()
                .tile(TileSpec::isaac_like())
                .noc_hop_latency(hop)
                .pes(2)
                .build()
                .unwrap()
        };
        let mut old = RunConfig::baseline(arch_with_hop(0)).with_cross_layer();
        old.noc_cost = true;
        let first = cache.run(fp, &g, &old).unwrap();

        // Scheduling-side axis mutation (NoC hop latency): prepare facets
        // unchanged, so the stage entry is shared.
        let mut new = old.clone();
        new.arch = arch_with_hop(4);
        let second = cache.run(fp, &g, &new).unwrap();
        assert!(
            Arc::ptr_eq(&first.mapped_graph, &second.mapped_graph),
            "unchanged prepare facets must share stage artifacts, not recompute them"
        );
        let stats = cache.stats();
        assert_eq!(stats.stage_computes, 1, "prepare ran once across the mutation");
        assert_eq!(stats.stage_hits(), 1, "the mutated config hit the stage cache");
        assert_eq!(stats.schedule_computes, 2, "the schedule itself was recomputed");

        // Mapping-side axis mutation (set policy): the stage recomputes.
        let mut coarse = new.clone();
        coarse.set_policy = clsa_core::SetPolicy::coarse(1);
        let third = cache.run(fp, &g, &coarse).unwrap();
        assert!(!Arc::ptr_eq(&second.mapped_graph, &third.mapped_graph));
        assert_eq!(cache.stats().stage_computes, 2, "changed prepare facets recompute");
    }

    #[test]
    fn baseline_and_cross_layer_share_one_stage_computation() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();

        let baseline = cache.run(fp, &g, &cfg(2)).unwrap();
        let clsa = cache.run(fp, &g, &cfg(2).with_cross_layer()).unwrap();
        assert!(clsa.makespan() < baseline.makespan());

        let stats = cache.stats();
        // Two distinct schedules, but the stage prefix ran exactly once.
        assert_eq!(stats.schedule_lookups, 2);
        assert_eq!(stats.schedule_computes, 2);
        assert_eq!(stats.stage_lookups, 2);
        assert_eq!(stats.stage_computes, 1);
        assert_eq!(stats.stage_hits(), 1);
        assert!(stats.hits() >= 1);
    }

    #[test]
    fn identical_configs_hit_the_schedule_level() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let a = cache.run(fp, &g, &cfg(2)).unwrap();
        let b = cache.run(fp, &g, &cfg(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the result");
        let stats = cache.stats();
        assert_eq!(stats.schedule_computes, 1);
        assert_eq!(stats.schedule_hits(), 1);
        // The stage cache is only consulted on the schedule-level miss.
        assert_eq!(stats.stage_lookups, 1);
    }

    #[test]
    fn peek_observes_completed_runs_without_computing() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let key = CacheKey::schedule(fp, &cfg(2));

        assert!(cache.peek(&key).is_none(), "cold cache has nothing to peek");
        let computed = cache.run(fp, &g, &cfg(2)).unwrap();
        let peeked = cache.peek(&key).expect("warm cache serves the result");
        assert!(Arc::ptr_eq(&computed, &peeked));

        // peek is counter-neutral and never computes.
        let stats = cache.stats();
        assert_eq!(stats.schedule_lookups, 1);
        assert_eq!(stats.schedule_computes, 1);

        // A cached *error* is not served as a warm result.
        let bad = CacheKey::schedule(fp, &cfg(1));
        assert!(cache.run(fp, &g, &cfg(1)).is_err());
        assert!(cache.peek(&bad).is_none(), "failed runs are not peekable");
    }

    #[test]
    fn errors_are_cached_too() {
        // fig5 needs 2 PEs; a 1-PE budget fails in prepare.
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        assert!(cache.run(fp, &g, &cfg(1)).is_err());
        assert!(cache.run(fp, &g, &cfg(1)).is_err());
        let stats = cache.stats();
        assert_eq!(stats.schedule_computes, 1, "failed run memoized");
    }

    #[test]
    fn racing_workers_never_duplicate_a_computation() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let configs = [cfg(2), cfg(2).with_cross_layer()];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                for config in &configs {
                    let cache = &cache;
                    let g = &g;
                    scope.spawn(move || cache.run(fp, g, config).unwrap());
                }
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.schedule_lookups, 16);
        assert_eq!(stats.schedule_computes, 2, "one compute per distinct config");
        assert_eq!(stats.stage_computes, 1, "one stage compute for both configs");
        assert_eq!(stats.hits(), 14 + 1);
    }

    #[test]
    fn stats_snapshots_never_count_more_computes_than_lookups() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (cache, g) = (&cache, &g);
                    scope.spawn(move || {
                        // Every (pes, hop) pair is a distinct schedule key;
                        // the pes values are distinct stage keys that the
                        // four workers race on.
                        for pes in 2..27 {
                            let arch = Architecture::builder()
                                .tile(TileSpec::isaac_like())
                                .noc_hop_latency(t)
                                .pes(pes)
                                .build()
                                .unwrap();
                            cache.run(fp, g, &RunConfig::baseline(arch)).unwrap();
                        }
                    })
                })
                .collect();
            let poller = scope.spawn(|| {
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let s = cache.stats();
                    assert!(s.stage_computes <= s.stage_lookups, "torn snapshot {s:?}");
                    assert!(s.schedule_computes <= s.schedule_lookups, "torn snapshot {s:?}");
                    if finished {
                        break;
                    }
                }
            });
            for w in workers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            poller.join().unwrap();
        });
        let stats = cache.stats();
        assert_eq!(stats.schedule_computes, 100);
        assert_eq!(stats.stage_computes, 25);
        assert_eq!(stats.stage_hits(), 75);
    }
}
