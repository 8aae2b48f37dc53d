//! Stable fingerprints for cache keys.
//!
//! A fingerprint is a 64-bit FNV-1a hash over a value's canonical JSON
//! serialization. Every type on the sweep hot path (`Graph`,
//! `Architecture`, the `RunConfig` components) serializes from plain
//! `Vec`-backed data in insertion order, so the serialization — and with
//! it the fingerprint — is deterministic across runs and thread
//! interleavings. JSON as the hashing substrate trades a few microseconds
//! for robustness: any `Serialize` type gets a fingerprint with zero
//! per-type code, and two values collide only if they serialize
//! identically (or in the astronomically unlikely 64-bit hash collision).
//!
//! Hashing **streams**: the serializer writes its output chunks straight
//! into a rolling [`FnvWriter`] sink (`serde_json::to_fmt_writer`), so the
//! JSON *text* is never materialized — for a multi-hundred-layer graph
//! that is a multi-hundred-kilobyte `String` (plus the copy through it)
//! saved per fingerprint. Note the vendored serde is `Value`-tree based,
//! so the intermediate `Value` tree is still built; eliminating it too
//! would need an event-driven serializer in the stand-in. The byte stream
//! equals the `to_string` output, so the produced `u64`s — and with them
//! every key in an on-disk [`ResultStore`](super::store::ResultStore) —
//! are unchanged (pinned by this module's tests).

use std::fmt;

use clsa_core::RunConfig;
use serde::Serialize;

/// The FNV-1a offset basis (the hash of the empty stream).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`fmt::Write`] sink folding every incoming chunk into a rolling
/// 64-bit FNV-1a state — the streaming substrate of [`fingerprint`].
#[derive(Debug, Clone, Copy)]
pub struct FnvWriter(u64);

impl FnvWriter {
    /// A writer in the initial (offset-basis) state.
    pub fn new() -> Self {
        FnvWriter(FNV_OFFSET)
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// 64-bit FNV-1a over a byte slice (the one-shot form; [`fingerprint`]
/// streams instead).
#[cfg(test)]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut w = FnvWriter::new();
    w.write_bytes(bytes);
    w.finish()
}

/// Fingerprints any serializable value by streaming its canonical JSON
/// serialization through a [`FnvWriter`] — no intermediate `String`.
///
/// # Examples
///
/// ```
/// use cim_bench::runner::fingerprint;
///
/// let a = fingerprint(&vec![1u32, 2, 3]);
/// assert_eq!(a, fingerprint(&vec![1u32, 2, 3]));
/// assert_ne!(a, fingerprint(&vec![3u32, 2, 1]));
/// ```
pub fn fingerprint<T: Serialize>(value: &T) -> u64 {
    let mut sink = FnvWriter::new();
    serde_json::to_fmt_writer(&mut sink, value).expect("fingerprinted types serialize infallibly"); // cim-lint: allow(panic-unwrap) serialization to a fmt sink is infallible
    sink.finish()
}

/// Cache key of one job: `(model, architecture, strategy)` fingerprints.
///
/// `strategy` covers the full `RunConfig` minus the architecture; the
/// schedule-level cache uses all three fields while the stage-level cache
/// replaces `strategy` with the mapping-side prefix (see
/// [`mapping_fingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Fingerprint of the (canonicalized) model graph.
    pub model: u64,
    /// Fingerprint of the target architecture.
    pub arch: u64,
    /// Fingerprint of the evaluation strategy.
    pub strategy: u64,
}

impl CacheKey {
    /// Builds the schedule-level key for `config` on a model fingerprint.
    pub fn schedule(model: u64, config: &RunConfig) -> Self {
        CacheKey {
            model,
            arch: fingerprint(&config.arch),
            strategy: strategy_fingerprint(config),
        }
    }

    /// Builds the stage-level key for `config` on a model fingerprint:
    /// same model, but only the architecture facets and strategy prefix
    /// that `clsa_core::prepare` actually reads — the crossbar spec and
    /// the PE budget, plus the mapping-side strategy. Archs differing
    /// only in scheduling-side hardware (NoC hop latency, tile GPEUs)
    /// and every scheduling variant over one mapping share the entry.
    ///
    /// The facets come from [`RunConfig::prepare_arch_facet`] and
    /// [`RunConfig::mapping_facet`], so two configs share a stage entry
    /// exactly when those facets are equal
    /// (`tests/incremental_differential.rs` pins this).
    pub fn stages(model: u64, config: &RunConfig) -> Self {
        CacheKey {
            model,
            arch: fingerprint(&config.prepare_arch_facet()),
            strategy: mapping_fingerprint(config),
        }
    }
}

/// Fingerprint of the mapping-side configuration prefix — everything
/// `clsa_core::prepare` reads besides the architecture
/// ([`RunConfig::mapping_facet`]): mapping choice, Stage-I set policy,
/// and the bit-slicing options.
pub fn mapping_fingerprint(config: &RunConfig) -> u64 {
    fingerprint(&config.mapping_facet())
}

/// Fingerprint of the full strategy: the mapping prefix plus the
/// scheduling-side fields `run_prepared` reads
/// ([`RunConfig::scheduling_facet`]: scheduling choice, NoC/GPEU cost
/// switches, placement).
pub fn strategy_fingerprint(config: &RunConfig) -> u64 {
    fingerprint(&(config.mapping_facet(), config.scheduling_facet()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::Architecture;
    use cim_mapping::Solver;

    fn cfg(pes: usize) -> RunConfig {
        RunConfig::baseline(Architecture::paper_case_study(pes).unwrap())
    }

    #[test]
    fn scheduling_choice_splits_schedule_key_but_not_stage_key() {
        let baseline = cfg(4);
        let xinf = cfg(4).with_cross_layer();
        assert_eq!(CacheKey::stages(1, &baseline), CacheKey::stages(1, &xinf));
        assert_ne!(
            CacheKey::schedule(1, &baseline),
            CacheKey::schedule(1, &xinf)
        );
    }

    #[test]
    fn mapping_choice_splits_both_keys() {
        let once = cfg(8);
        let wdup = cfg(8).with_duplication(Solver::Greedy);
        assert_ne!(CacheKey::stages(1, &once), CacheKey::stages(1, &wdup));
        assert_ne!(CacheKey::schedule(1, &once), CacheKey::schedule(1, &wdup));
    }

    #[test]
    fn arch_and_model_split_keys() {
        assert_ne!(CacheKey::schedule(1, &cfg(4)), CacheKey::schedule(2, &cfg(4)));
        assert_ne!(CacheKey::schedule(1, &cfg(4)), CacheKey::schedule(1, &cfg(5)));
        assert_ne!(CacheKey::stages(1, &cfg(4)), CacheKey::stages(1, &cfg(5)));
    }

    #[test]
    fn scheduling_side_arch_facets_do_not_split_the_stage_key() {
        // prepare() reads only the crossbar and the PE budget; archs that
        // differ in NoC hop latency must share stage-cache entries while
        // their schedule keys stay distinct.
        let arch_with_hop = |hop: u64| {
            cim_arch::Architecture::builder()
                .tile(cim_arch::TileSpec::isaac_like())
                .noc_hop_latency(hop)
                .pes(4)
                .build()
                .unwrap()
        };
        let slow = RunConfig::baseline(arch_with_hop(64));
        let fast = RunConfig::baseline(arch_with_hop(0));
        assert_eq!(CacheKey::stages(1, &slow), CacheKey::stages(1, &fast));
        assert_ne!(CacheKey::schedule(1, &slow), CacheKey::schedule(1, &fast));
    }

    #[test]
    fn facet_accessors_serialize_like_the_historical_inline_tuples() {
        // The fingerprints moved from ad-hoc field tuples onto the
        // RunConfig facet accessors. Every on-disk store row is named by
        // these u64s, so the accessors must serialize byte-identically to
        // the tuples they replaced — pinned here against the literal
        // pre-refactor expressions.
        let mut config = cfg(8).with_duplication(Solver::Greedy).with_cross_layer();
        config.noc_cost = true;
        for config in [&cfg(4), &config] {
            assert_eq!(
                mapping_fingerprint(config),
                fingerprint(&(&config.mapping, &config.set_policy, &config.mapping_options))
            );
            assert_eq!(
                strategy_fingerprint(config),
                fingerprint(&(
                    (&config.mapping, &config.set_policy, &config.mapping_options),
                    (
                        &config.scheduling,
                        config.noc_cost,
                        config.gpeu_cost,
                        &config.placement,
                    ),
                ))
            );
            assert_eq!(
                CacheKey::stages(1, config).arch,
                fingerprint(&(config.arch.crossbar(), config.arch.total_pes()))
            );
        }
    }

    #[test]
    fn known_fingerprint_values_are_pinned() {
        // The streaming hasher must keep producing the exact FNV-1a-over-
        // canonical-JSON values of the pre-streaming implementation: every
        // on-disk store row is named by these u64s, so a drift here would
        // silently invalidate persisted caches.
        assert_eq!(fingerprint(&vec![1u32, 2, 3]), 0x28bb_ee43_9869_9f19);
        assert_eq!(fingerprint(&"clsa-cim".to_string()), 0x1295_43c7_7019_3a7e);
        // Offset basis: the hash of an empty stream.
        assert_eq!(FnvWriter::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn streaming_equals_hashing_the_materialized_string() {
        // Differential pin: for structured real-world values the streamed
        // bytes must equal the `to_string` output byte for byte.
        let g = cim_models::fig5_example();
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(fingerprint(&g), fnv1a(json.as_bytes()));
        let cfg_parts = (1.5f64, -7i64, "esc\"ape\n".to_string(), vec![0u8; 3]);
        let json = serde_json::to_string(&cfg_parts).unwrap();
        assert_eq!(fingerprint(&cfg_parts), fnv1a(json.as_bytes()));
    }

    #[test]
    fn graph_fingerprint_is_stable_and_content_sensitive() {
        let a = fingerprint(&cim_models::fig5_example());
        let b = fingerprint(&cim_models::fig5_example());
        assert_eq!(a, b);
        assert_ne!(a, fingerprint(&cim_models::toy_cnn(None)));
    }
}
