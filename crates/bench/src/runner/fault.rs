//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded schedule of failures threaded (behind the
//! [`FaultHook`] trait) into the layers that touch the outside world:
//!
//! * **store I/O** — injected read errors, failed writes, torn writes
//!   (truncated row lands on disk), and failed renames
//!   ([`FaultSite::StoreRead`] .. [`FaultSite::StoreRename`]);
//! * **lane-pool job execution** — injected panics exercising the
//!   quarantine path, and injected per-job delays used to widen the
//!   kill window in crash-resume tests ([`FaultSite::JobPanic`],
//!   [`FaultSite::JobDelay`]);
//! * **serve connection handling** — dropped and slowed connections
//!   ([`FaultSite::ConnDrop`], [`FaultSite::ConnDelay`]).
//!
//! Every decision is a **pure function** of `(seed, site, key, attempt)`
//! where `key` is a stable fingerprint of the work item (a cache key, a
//! request line) — never of wall-clock time, thread identity, or arrival
//! order. The same seed therefore produces a byte-identical fault
//! schedule across runs, thread counts, and interleavings, which is what
//! makes chaos tests reproducible and lets CI pin exact fault counts.
//!
//! Rates are expressed in **per-mille** (0..=1000): a rate of `1000`
//! fires on every decision point, `500` on roughly half of the keyspace,
//! `0` (the default for every site) never — a plan with all-zero rates
//! is byte-for-byte inert, which is how the zero-fault golden guarantee
//! is kept.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One class of injectable failure. See the module docs for the layer
/// each site instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// `ResultStore::get` pretends the row file is unreadable (plain
    /// cache miss; the row is left on disk).
    StoreRead,
    /// `ResultStore::put` fails before anything reaches disk (counted
    /// as a write error, as a full disk or EACCES would be).
    StoreWrite,
    /// `ResultStore::put` writes a truncated row that *lands* via a
    /// successful rename — silent corruption that only a later read
    /// detects (and heals by eviction + recompute).
    StoreTornWrite,
    /// The temp-file rename inside the store's atomic write fails; the
    /// temp file is cleaned up and the write is counted as an error.
    StoreRename,
    /// A sweep job panics mid-execution (caught, retried, and
    /// quarantined by the batch runner).
    JobPanic,
    /// A sweep job sleeps for the plan's delay before running — used to
    /// hold a sweep open long enough to SIGKILL it mid-run.
    JobDelay,
    /// The daemon drops a connection after reading a request line and
    /// before replying (a half-closed / vanished peer from the client's
    /// point of view).
    ConnDrop,
    /// The daemon sleeps for the plan's delay before handling a request
    /// (a slow peer / stalled pipe).
    ConnDelay,
}

/// All sites, in the order used for indexing and reporting.
pub const FAULT_SITES: [FaultSite; 8] = [
    FaultSite::StoreRead,
    FaultSite::StoreWrite,
    FaultSite::StoreTornWrite,
    FaultSite::StoreRename,
    FaultSite::JobPanic,
    FaultSite::JobDelay,
    FaultSite::ConnDrop,
    FaultSite::ConnDelay,
];

impl FaultSite {
    /// The stable CLI / report name of the site.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::StoreRead => "store-read",
            FaultSite::StoreWrite => "store-write",
            FaultSite::StoreTornWrite => "store-torn-write",
            FaultSite::StoreRename => "store-rename",
            FaultSite::JobPanic => "job-panic",
            FaultSite::JobDelay => "job-delay",
            FaultSite::ConnDrop => "conn-drop",
            FaultSite::ConnDelay => "conn-delay",
        }
    }

    /// Parses a CLI site name (the inverse of [`as_str`](Self::as_str)).
    pub fn parse(name: &str) -> Option<FaultSite> {
        FAULT_SITES.iter().copied().find(|s| s.as_str() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The injection interface the instrumented layers call through.
///
/// Production code paths hold an `Option<Arc<dyn FaultHook>>` that is
/// `None` outside chaos runs; the only implementation is [`FaultPlan`].
pub trait FaultHook: fmt::Debug + Send + Sync {
    /// Should the fault at `site` fire for the work item fingerprinted
    /// by `key`, on retry round `attempt`? Implementations must be
    /// deterministic in their inputs.
    fn decide(&self, site: FaultSite, key: u64, attempt: u32) -> bool;

    /// How long delay-class sites ([`FaultSite::JobDelay`],
    /// [`FaultSite::ConnDelay`]) stall when they fire.
    fn delay(&self) -> Duration {
        Duration::ZERO
    }
}

/// SplitMix64: a full-period mixing step. Used both to derive per-site
/// decision streams and for deterministic jitter in the serve client's
/// backoff (so retry schedules are reproducible under a fixed seed).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, deterministic fault schedule with per-site firing counters.
///
/// Build one with [`FaultPlan::new`] + [`with_rate`](Self::with_rate),
/// share it as an `Arc`, and hand clones of the `Arc` (as
/// `Arc<dyn FaultHook>`) to the store / batch runner / daemon. The
/// original handle keeps access to the counters for pinning exact fault
/// counts in tests and CI.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-site firing probability in per-mille (0..=1000).
    rates: [u16; FAULT_SITES.len()],
    delay: Duration,
    fired: [AtomicU64; FAULT_SITES.len()],
}

impl FaultPlan {
    /// An inert plan (all rates zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0; FAULT_SITES.len()],
            delay: Duration::from_millis(50),
            fired: Default::default(),
        }
    }

    /// Sets a site's firing rate in per-mille (clamped to 1000).
    pub fn with_rate(mut self, site: FaultSite, per_mille: u16) -> Self {
        self.rates[site.index()] = per_mille.min(1000);
        self
    }

    /// Sets the stall duration for delay-class sites.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pure decision function: would the fault fire? Does not touch
    /// the firing counters — use this to search for seeds with a wanted
    /// firing pattern in tests.
    pub fn would_fire(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        let rate = self.rates[site.index()];
        if rate == 0 {
            return false;
        }
        let mut h = mix64(self.seed ^ (site.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = mix64(h ^ key);
        h = mix64(h ^ u64::from(attempt));
        h % 1000 < u64::from(rate)
    }

    /// How many times `site` has fired so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across all sites.
    fn total_fired(&self) -> u64 {
        FAULT_SITES.iter().map(|&s| self.fired(s)).sum()
    }

    /// A one-line report for logs and CI pinning, e.g.
    /// `faults fired: 3 (store-read 2, store-rename 1)`.
    pub fn report(&self) -> String {
        let mut parts = Vec::new();
        for &site in &FAULT_SITES {
            let n = self.fired(site);
            if n > 0 {
                parts.push(format!("{site} {n}"));
            }
        }
        if parts.is_empty() {
            format!("faults fired: {}", self.total_fired())
        } else {
            format!("faults fired: {} ({})", self.total_fired(), parts.join(", "))
        }
    }
}

impl FaultHook for FaultPlan {
    fn decide(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        let fire = self.would_fire(site, key, attempt);
        if fire {
            self.fired[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    fn delay(&self) -> Duration {
        self.delay
    }
}

/// Parses a `--fault-rate` spec of the form `site=per_mille`, e.g.
/// `store-read=300`.
pub fn parse_rate_spec(spec: &str) -> Result<(FaultSite, u16), String> {
    let (name, rate) = spec
        .split_once('=')
        .ok_or_else(|| format!("fault rate `{spec}` is not of the form site=per_mille"))?;
    let site = FaultSite::parse(name).ok_or_else(|| {
        let known: Vec<&str> = FAULT_SITES.iter().map(|s| s.as_str()).collect();
        format!("unknown fault site `{name}` (known: {})", known.join(", "))
    })?;
    let per_mille: u16 = rate
        .parse()
        .map_err(|_| format!("fault rate `{rate}` is not an integer in 0..=1000"))?;
    if per_mille > 1000 {
        return Err(format!("fault rate `{rate}` exceeds 1000 per-mille"));
    }
    Ok((site, per_mille))
}

/// Best-effort extraction of a panic payload's message (the `&str` /
/// `String` forms produced by `panic!`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip() {
        for &site in &FAULT_SITES {
            assert_eq!(FaultSite::parse(site.as_str()), Some(site));
        }
        assert_eq!(FaultSite::parse("no-such-site"), None);
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::new(7);
        for key in 0..1000 {
            for &site in &FAULT_SITES {
                assert!(!plan.decide(site, key, 0));
            }
        }
        assert_eq!(plan.total_fired(), 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::new(7).with_rate(FaultSite::JobPanic, 1000);
        for key in 0..100 {
            assert!(plan.decide(FaultSite::JobPanic, key, 0));
        }
        assert_eq!(plan.fired(FaultSite::JobPanic), 100);
        assert_eq!(plan.total_fired(), 100);
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_key_attempt() {
        let a = FaultPlan::new(42).with_rate(FaultSite::StoreRead, 500);
        let b = FaultPlan::new(42).with_rate(FaultSite::StoreRead, 500);
        let c = FaultPlan::new(43).with_rate(FaultSite::StoreRead, 500);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|k| p.would_fire(FaultSite::StoreRead, k, 0))
                .collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
        assert_ne!(decisions(&a), decisions(&c), "seed must matter");
        // Sites draw from independent streams: the same (key, attempt)
        // must not produce correlated decisions across sites.
        let d = FaultPlan::new(42)
            .with_rate(FaultSite::StoreRead, 500)
            .with_rate(FaultSite::StoreWrite, 500);
        let reads: Vec<bool> = (0..256).map(|k| d.would_fire(FaultSite::StoreRead, k, 0)).collect();
        let writes: Vec<bool> = (0..256).map(|k| d.would_fire(FaultSite::StoreWrite, k, 0)).collect();
        assert_ne!(reads, writes);
    }

    #[test]
    fn fault_count_is_pinned_for_a_fixed_seed() {
        // The exact count is part of the deterministic contract: if this
        // moves, the decision function changed and every pinned chaos
        // test in CI needs re-blessing.
        let plan = FaultPlan::new(2024).with_rate(FaultSite::StoreRead, 300);
        let fired = (0..1000)
            .filter(|&k| plan.decide(FaultSite::StoreRead, k, 0))
            .count() as u64;
        assert_eq!(fired, plan.fired(FaultSite::StoreRead));
        assert_eq!(fired, 294);
        assert_eq!(plan.report(), "faults fired: 294 (store-read 294)");
    }

    #[test]
    fn rate_specs_parse() {
        assert_eq!(
            parse_rate_spec("store-torn-write=1000"),
            Ok((FaultSite::StoreTornWrite, 1000))
        );
        assert!(parse_rate_spec("store-read").is_err());
        assert!(parse_rate_spec("bogus=10").is_err());
        assert!(parse_rate_spec("store-read=1001").is_err());
        assert!(parse_rate_spec("store-read=x").is_err());
    }

    #[test]
    fn attempts_draw_fresh_decisions() {
        // A 500‰ site must not be all-or-nothing across attempts for the
        // same key — retries get independent draws.
        let plan = FaultPlan::new(9).with_rate(FaultSite::JobPanic, 500);
        let varied = (0..64).any(|k| {
            plan.would_fire(FaultSite::JobPanic, k, 0) != plan.would_fire(FaultSite::JobPanic, k, 1)
        });
        assert!(varied);
    }
}
