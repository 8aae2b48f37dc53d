//! The multi-objective measurement and the dominance-pruned Pareto
//! archive.
//!
//! Every evaluated candidate is folded into a [`ParetoArchive`]; the
//! archive keeps exactly the non-dominated set over four objectives —
//! latency (min), utilization (max), NoC bytes moved (min), and crossbar
//! count as an area proxy (min). Insertion is order-independent: for any
//! permutation of the same measurement set, [`ParetoArchive::sorted`]
//! returns the same entries in the same order (pinned by this module's
//! property tests), which is what makes the exported Pareto front
//! byte-for-byte reproducible regardless of evaluation interleaving.

use serde::{Deserialize, Serialize};

/// The objective vector of one evaluated candidate.
///
/// Latency, bytes, and crossbars are minimized; utilization is maximized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Schedule makespan in crossbar cycles (minimize).
    pub latency_cycles: u64,
    /// Eq. 2 utilization in `[0, 1]` (maximize).
    pub utilization: f64,
    /// Total bytes forwarded over cross-layer dependency edges per
    /// inference (minimize) — the mapping's NoC traffic volume.
    pub noc_bytes: u64,
    /// Crossbar PEs in the architecture (minimize) — the area proxy.
    pub crossbars: usize,
}

impl Measurement {
    /// Whether `self` Pareto-dominates `other`: no worse on every
    /// objective and strictly better on at least one.
    pub fn dominates(&self, other: &Measurement) -> bool {
        let no_worse = self.latency_cycles <= other.latency_cycles
            && self.utilization >= other.utilization
            && self.noc_bytes <= other.noc_bytes
            && self.crossbars <= other.crossbars;
        let strictly_better = self.latency_cycles < other.latency_cycles
            || self.utilization > other.utilization
            || self.noc_bytes < other.noc_bytes
            || self.crossbars < other.crossbars;
        no_worse && strictly_better
    }

    /// Whether `self` is strictly better than `other` on at least one
    /// objective (regardless of the remaining axes).
    pub fn improves_some_axis_over(&self, other: &Measurement) -> bool {
        self.latency_cycles < other.latency_cycles
            || self.utilization > other.utilization
            || self.noc_bytes < other.noc_bytes
            || self.crossbars < other.crossbars
    }
}

/// One archive entry: the candidate's flat space index and its
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoEntry {
    /// Flat candidate index within the design space.
    pub candidate: usize,
    /// The candidate's objective vector.
    pub measurement: Measurement,
}

/// The dominance-pruned archive of non-dominated candidates.
///
/// # Examples
///
/// ```
/// use cim_tune::{Measurement, ParetoArchive};
///
/// let mut archive = ParetoArchive::new();
/// let m = |lat, ut| Measurement {
///     latency_cycles: lat,
///     utilization: ut,
///     noc_bytes: 100,
///     crossbars: 10,
/// };
/// archive.insert(0, m(100, 0.5));
/// archive.insert(1, m(80, 0.6)); // dominates candidate 0
/// archive.insert(2, m(70, 0.4)); // trades latency for utilization
/// let front: Vec<usize> = archive.sorted().iter().map(|e| e.candidate).collect();
/// assert_eq!(front, vec![2, 1]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParetoArchive {
    entries: Vec<ParetoEntry>,
    dominated: u64,
}

impl ParetoArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a measurement to the archive. Returns `true` when the
    /// candidate enters the front (i.e. no current entry dominates it);
    /// entries it dominates are pruned.
    ///
    /// A duplicate offer of the same candidate index is idempotent.
    pub fn insert(&mut self, candidate: usize, measurement: Measurement) -> bool {
        if self.entries.iter().any(|e| {
            e.measurement.dominates(&measurement)
                || (e.candidate == candidate && e.measurement == measurement)
        }) {
            self.dominated += 1;
            return false;
        }
        self.entries.retain(|e| !measurement.dominates(&e.measurement));
        self.entries.push(ParetoEntry {
            candidate,
            measurement,
        });
        true
    }

    /// Number of entries currently on the front.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers that were dominated on arrival.
    pub fn rejected(&self) -> u64 {
        self.dominated
    }

    /// The front in insertion order (order depends on evaluation order —
    /// use [`sorted`](Self::sorted) for canonical output).
    pub fn entries(&self) -> &[ParetoEntry] {
        &self.entries
    }

    /// The front in canonical order: ascending latency, then crossbars,
    /// then NoC bytes, then *descending* utilization, then candidate
    /// index. Because the entry **set** is insertion-order-independent,
    /// this ordering — and any serialization of it — is too.
    pub fn sorted(&self) -> Vec<ParetoEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| {
            let (x, y) = (&a.measurement, &b.measurement);
            x.latency_cycles
                .cmp(&y.latency_cycles)
                .then(x.crossbars.cmp(&y.crossbars))
                .then(x.noc_bytes.cmp(&y.noc_bytes))
                .then(y.utilization.total_cmp(&x.utilization))
                .then(a.candidate.cmp(&b.candidate))
        });
        v
    }

    /// Whether some front entry is strictly better than `reference` on at
    /// least one objective axis — the acceptance bar the case-study
    /// tuning run is held to.
    pub fn improves_over(&self, reference: &Measurement) -> bool {
        self.entries
            .iter()
            .any(|e| e.measurement.improves_some_axis_over(reference))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(lat: u64, ut: f64, bytes: u64, xbars: usize) -> Measurement {
        Measurement {
            latency_cycles: lat,
            utilization: ut,
            noc_bytes: bytes,
            crossbars: xbars,
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = m(10, 0.5, 100, 4);
        assert!(!a.dominates(&a), "equal vectors do not dominate");
        assert!(m(9, 0.5, 100, 4).dominates(&a));
        assert!(m(10, 0.6, 100, 4).dominates(&a));
        assert!(!m(9, 0.4, 100, 4).dominates(&a), "trade-off");
        assert!(!a.dominates(&m(9, 0.4, 100, 4)), "trade-off, other side");
    }

    #[test]
    fn insert_prunes_dominated_entries() {
        let mut ar = ParetoArchive::new();
        assert!(ar.insert(0, m(100, 0.1, 50, 8)));
        assert!(ar.insert(1, m(90, 0.2, 50, 8))); // dominates 0
        assert_eq!(ar.len(), 1);
        assert!(!ar.insert(2, m(95, 0.15, 50, 8))); // dominated by 1
        assert_eq!(ar.len(), 1);
        assert_eq!(ar.rejected(), 1);
        assert_eq!(ar.entries()[0].candidate, 1);
    }

    #[test]
    fn equal_vectors_from_distinct_candidates_coexist() {
        // Neither dominates the other (no strict improvement), so both
        // stay — and the canonical order breaks the tie by index.
        let mut ar = ParetoArchive::new();
        ar.insert(7, m(10, 0.5, 1, 1));
        ar.insert(3, m(10, 0.5, 1, 1));
        assert_eq!(ar.len(), 2);
        let sorted: Vec<usize> = ar.sorted().iter().map(|e| e.candidate).collect();
        assert_eq!(sorted, vec![3, 7]);
        // Re-offering an existing (candidate, measurement) pair is a no-op.
        ar.insert(7, m(10, 0.5, 1, 1));
        assert_eq!(ar.len(), 2);
    }

    #[test]
    fn improves_over_checks_single_axes() {
        let mut ar = ParetoArchive::new();
        ar.insert(0, m(100, 0.1, 50, 8));
        let reference = m(90, 0.05, 50, 8);
        // Slower but better utilized: improves the utilization axis.
        assert!(ar.improves_over(&reference));
        assert!(!ar.improves_over(&m(90, 0.2, 40, 7)));
    }

    proptest! {
        /// No archive entry ever dominates another.
        #[test]
        fn prop_front_is_mutually_non_dominated(
            points in proptest::collection::vec(
                (0u64..50, 0usize..10, 0u64..40, 1usize..6), 1..40),
        ) {
            let mut ar = ParetoArchive::new();
            for (i, &(lat, ut, bytes, xbars)) in points.iter().enumerate() {
                ar.insert(i, m(lat, ut as f64 / 10.0, bytes, xbars));
            }
            let entries = ar.entries();
            for a in entries {
                for b in entries {
                    prop_assert!(!a.measurement.dominates(&b.measurement));
                }
            }
        }

        /// The canonical front is independent of insertion order, and it
        /// serializes to identical bytes.
        #[test]
        fn prop_insertion_order_is_irrelevant(
            points in proptest::collection::vec(
                (0u64..50, 0usize..10, 0u64..40, 1usize..6), 1..30),
            rotation in 0usize..30,
        ) {
            let ms: Vec<(usize, Measurement)> = points
                .iter()
                .enumerate()
                .map(|(i, &(lat, ut, bytes, xbars))| (i, m(lat, ut as f64 / 10.0, bytes, xbars)))
                .collect();
            let mut forward = ParetoArchive::new();
            for &(i, mm) in &ms {
                forward.insert(i, mm);
            }
            let mut shuffled = ParetoArchive::new();
            let rot = rotation % ms.len();
            for &(i, mm) in ms[rot..].iter().chain(&ms[..rot]).rev() {
                shuffled.insert(i, mm);
            }
            prop_assert_eq!(forward.sorted(), shuffled.sorted());
            prop_assert_eq!(
                serde_json::to_string(&forward.sorted()).unwrap(),
                serde_json::to_string(&shuffled.sorted()).unwrap()
            );
        }
    }
}
