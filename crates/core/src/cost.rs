//! Precomputed per-edge cost tables ([`CostedDeps`]).
//!
//! The Stage III/IV longest-path sweep, the schedule validator, and the
//! `cim-sim` event engine all charge every cross-layer data edge a latency
//! from the [`EdgeCost`] model. That latency is **invariant per `(mapping,
//! EdgeCost)` pair** — it depends only on the producer/consumer layer
//! placement and the producer set's byte count, never on the schedule
//! being built — yet the pre-CSR code recomputed it (`hops_between` +
//! `set_bytes` + the model branch) for every edge of every batch instance:
//! `O(batch × edges)` redundant work in the hottest loop of every sweep.
//!
//! [`CostedDeps::build`] hoists all of it: one pass over the CSR edge
//! arena yields flat `u64` latency tables aligned with the consumer side of
//! the dependency CSR (the paper's Stage IV starts each consumer set once
//! its producers' data has arrived, so the forward longest-path sweep, the
//! validator and the critical-path walk read nothing else), plus per-set
//! byte counts and per-edge hop counts for traffic/energy accounting. The
//! [`EdgeCost::Free`] model degenerates to branch-free all-zeros tables.
//! The consumers of the tables never touch [`EdgeCost`] again; the one
//! reader that needs the producer side, the `cim-sim` event engine, sorts
//! its own fan-out from these arrays.

use crate::deps::Dependencies;
use crate::error::{CoreError, Result};
use crate::schedule::{set_bytes, EdgeCost};
use crate::sets::LayerSets;
use crate::space::SetSpace;

/// Flat, precomputed edge-cost tables for one `(mapping, EdgeCost)` pair.
///
/// Indexing follows the [`SetSpace`] of the [`Dependencies`] it was built
/// from; the per-edge arrays (`dep_*`) are aligned edge-for-edge with
/// [`Dependencies::of`] / [`Dependencies::csr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostedDeps {
    space: SetSpace,
    /// Bytes forwarded when the set with global index `i` is consumed
    /// (one byte per OFM element, 8-bit activations).
    bytes: Vec<u64>,
    /// Consumer-side CSR offsets (a copy of the dependency offsets, so the
    /// tables stay usable without the originating `Dependencies`).
    dep_offsets: Vec<usize>,
    /// Per consumer edge: the producer's global set index.
    dep_producer: Vec<usize>,
    /// Per consumer edge: precomputed latency in cycles.
    dep_latency: Vec<u64>,
    /// Per consumer edge: NoC hop count (energy accounting); empty under
    /// [`EdgeCost::Free`], which moves no data.
    dep_hops: Vec<u64>,
    /// Whether the cost model moves data over the NoC (energy/transfer
    /// accounting applies — false for [`EdgeCost::Free`]).
    tracks_transfers: bool,
}

impl CostedDeps {
    /// Precomputes every edge latency of `deps` under `edge_cost`.
    ///
    /// Runs once per `(mapping, EdgeCost)` pair; the result serves any
    /// number of schedule constructions, validations, and simulations.
    /// Topological sanity of the edges is deliberately **not** checked
    /// here (the event engine legitimately consumes cyclic inputs to
    /// detect deadlocks); the analytic schedulers run
    /// [`Dependencies::ensure_backward`] themselves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] when `layers` and `deps` cover
    /// different shapes, and propagates architecture errors from the cost
    /// model (placement/architecture disagreement).
    pub fn build(
        layers: &[LayerSets],
        deps: &Dependencies,
        edge_cost: &EdgeCost,
    ) -> Result<Self> {
        let space = SetSpace::of_layers(layers);
        if !space.same_shape(deps.space()) {
            return Err(CoreError::StageMismatch {
                detail: format!(
                    "dependencies cover {} layers, sets cover {}",
                    deps.num_layers(),
                    layers.len()
                ),
            });
        }
        let total = space.total_sets();

        // Per-set forwarding bytes (mapping-invariant).
        let mut bytes = Vec::with_capacity(total);
        for l in layers {
            for s in 0..l.sets.len() {
                bytes.push(set_bytes(l, s));
            }
        }

        // Consumer-side tables, aligned with the dependency CSR.
        let (offsets, producers) = deps.csr();
        let dep_offsets = offsets.to_vec();
        let mut dep_producer = Vec::with_capacity(producers.len());
        let mut dep_latency = Vec::with_capacity(producers.len());
        let mut dep_hops = Vec::new();
        match edge_cost {
            // Branch-free all-zeros tables: the paper's peak model.
            EdgeCost::Free => {
                for p in producers {
                    dep_producer.push(space.index(p.layer, p.set));
                }
                dep_latency.resize(producers.len(), 0);
            }
            EdgeCost::NocHops { arch, placement } | EdgeCost::NocAndGpeu { arch, placement } => {
                let hop_latency = arch.noc().hop_latency_cycles;
                let gpeu = match edge_cost {
                    EdgeCost::NocAndGpeu { .. } => Some(arch.tile().gpeu_ops_per_cycle as u64),
                    _ => None,
                };
                dep_hops.reserve_exact(producers.len());
                // Walk consumers in arena order so each edge knows its
                // consumer layer without searching the offset table.
                for c_layer in 0..space.num_layers() {
                    for s in 0..space.sets_in(c_layer) {
                        let i = space.index(c_layer, s);
                        for p in &producers[offsets[i]..offsets[i + 1]] {
                            let pi = space.index(p.layer, p.set);
                            let hops = placement.hops_between(arch, p.layer, c_layer)? as u64;
                            let mut lat = hops * hop_latency;
                            if let Some(g) = gpeu {
                                lat += bytes[pi].div_ceil(g);
                            }
                            dep_producer.push(pi);
                            dep_latency.push(lat);
                            dep_hops.push(hops);
                        }
                    }
                }
            }
        }

        Ok(Self {
            space,
            bytes,
            dep_offsets,
            dep_producer,
            dep_latency,
            dep_hops,
            tracks_transfers: !matches!(edge_cost, EdgeCost::Free),
        })
    }

    /// The zero-cost table for the paper's peak-performance model:
    /// `build(layers, deps, &EdgeCost::Free)`, the table `prepare` caches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] when `layers` and `deps` cover
    /// different shapes.
    pub fn free(layers: &[LayerSets], deps: &Dependencies) -> Result<Self> {
        Self::build(layers, deps, &EdgeCost::Free)
    }

    /// The global index space the tables are sliced by.
    pub fn space(&self) -> &SetSpace {
        &self.space
    }

    /// Bytes forwarded per consumption of set `s` of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn set_bytes(&self, l: usize, s: usize) -> u64 {
        self.bytes[self.space.index(l, s)]
    }

    /// Consumer-side view of the set with global index `i`: per incoming
    /// edge, the producer's global index and the precomputed latency
    /// (aligned with [`Dependencies::of`] of the originating relation).
    #[inline]
    pub fn incoming(&self, i: usize) -> (&[usize], &[u64]) {
        let r = self.dep_offsets[i]..self.dep_offsets[i + 1];
        (&self.dep_producer[r.clone()], &self.dep_latency[r])
    }

    /// Latencies of the edges into set `s` of layer `l`, aligned with
    /// [`Dependencies::of`].
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn latencies_of(&self, l: usize, s: usize) -> &[u64] {
        let i = self.space.index(l, s);
        &self.dep_latency[self.dep_offsets[i]..self.dep_offsets[i + 1]]
    }

    /// NoC hop counts of the edges into the set with global index `i`,
    /// aligned with [`incoming`](Self::incoming); empty when the model
    /// moves no data ([`tracks_transfers`](Self::tracks_transfers) is
    /// false).
    #[inline]
    pub fn hops_into(&self, i: usize) -> &[u64] {
        if self.dep_hops.is_empty() {
            return &[];
        }
        &self.dep_hops[self.dep_offsets[i]..self.dep_offsets[i + 1]]
    }

    /// Whether this table was built from exactly `deps` — same set space
    /// *and* the same edge arena (offsets and producers). The schedulers,
    /// the validator, and the event engine refuse mismatched tables: a
    /// same-shaped table from different edges would silently skip or
    /// mis-weight dependency checks. O(edges) slice comparisons — the
    /// same order as the topological precondition check.
    pub fn matches(&self, deps: &Dependencies) -> bool {
        if !self.space.same_shape(deps.space()) {
            return false;
        }
        let (offsets, producers) = deps.csr();
        self.dep_offsets == offsets
            && self.dep_producer.len() == producers.len()
            && self
                .dep_producer
                .iter()
                .zip(producers)
                .all(|(&pi, p)| pi == self.space.index(p.layer, p.set))
    }

    /// Whether the underlying model moves data over the NoC (false for
    /// [`EdgeCost::Free`] — no traffic, no transfer energy).
    pub fn tracks_transfers(&self) -> bool {
        self.tracks_transfers
    }

    /// Total number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.dep_latency.len()
    }

    /// Total bytes forwarded over all cross-layer dependency edges per
    /// inference — each edge charges its producer set's byte count, so a
    /// set feeding `k` consumers contributes `k × bytes`. This is the
    /// mapping's NoC traffic volume, one of the tuner's Pareto axes; it
    /// is independent of the edge-cost *model* (the byte table is the
    /// same for [`EdgeCost::Free`] and the NoC models over one mapping).
    pub fn total_dep_bytes(&self) -> u64 {
        self.dep_producer.iter().map(|&pi| self.bytes[pi]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::{place_groups, Architecture, PlacementStrategy, TileSpec};
    use cim_ir::{FeatureShape, NodeId, Rect};

    use crate::deps::SetRef;
    use crate::sets::OfmSet;

    fn layer(nsets: usize, width: usize, pes: usize) -> LayerSets {
        LayerSets {
            node: NodeId(0),
            name: format!("l{nsets}x{width}"),
            logical: 0,
            ofm: FeatureShape::new(nsets, width, 1),
            pes,
            quantum: 1,
            sets: (0..nsets)
                .map(|y| OfmSet {
                    rect: Rect::new(y, 0, y, width - 1),
                    duration: width as u64,
                })
                .collect(),
        }
    }

    fn workload() -> (Vec<LayerSets>, Dependencies) {
        let layers = vec![layer(2, 4, 1), layer(2, 8, 1)];
        let deps = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
            ],
        )
        .unwrap();
        (layers, deps)
    }

    #[test]
    fn free_model_is_all_zeros() {
        let (layers, deps) = workload();
        let c = CostedDeps::free(&layers, &deps).unwrap();
        assert_eq!(c.num_edges(), 3);
        assert!(!c.tracks_transfers());
        assert!(c.hops_into(c.space().index(1, 1)).is_empty());
        for l in 0..2 {
            for s in 0..2 {
                assert!(c.latencies_of(l, s).iter().all(|&x| x == 0));
            }
        }
        // Byte table: one byte per OFM element.
        assert_eq!(c.set_bytes(0, 0), 4);
        assert_eq!(c.set_bytes(1, 1), 8);
        // Edge traffic: (0,0) feeds two consumers, (0,1) one → 2·4 + 4.
        assert_eq!(c.total_dep_bytes(), 12);
    }

    #[test]
    fn latencies_match_the_edge_cost_model() {
        let (layers, deps) = workload();
        let arch = Architecture::builder()
            .tile(TileSpec {
                pes_per_tile: 1,
                gpeu_ops_per_cycle: 2,
                ..TileSpec::isaac_like()
            })
            .noc_hop_latency(5)
            .pes(2)
            .build()
            .unwrap();
        let placement = place_groups(&arch, &[1, 1], PlacementStrategy::Contiguous).unwrap();
        let cost = EdgeCost::NocAndGpeu { arch, placement };
        let c = CostedDeps::build(&layers, &deps, &cost).unwrap();
        assert!(c.tracks_transfers());
        // Every edge goes layer 0 → layer 1: hops(0,1) × 5 + 4 bytes / 2.
        let expect = cost.cycles(0, 1, 4).unwrap();
        for (k, &lat) in c.latencies_of(1, 0).iter().enumerate() {
            assert_eq!(lat, expect, "edge {k}");
        }
        for (si, want) in deps.of(1, 1).iter().zip(c.latencies_of(1, 1)) {
            let bytes = set_bytes(&layers[si.layer], si.set);
            assert_eq!(*want, cost.cycles(si.layer, 1, bytes).unwrap());
        }
        // Hop counts ride along, aligned with the consumer side.
        let EdgeCost::NocAndGpeu { arch, placement } = &cost else {
            unreachable!()
        };
        let hops = placement.hops_between(arch, 0, 1).unwrap() as u64;
        assert_eq!(c.hops_into(c.space().index(1, 1)), &[hops, hops]);
    }

    #[test]
    fn matches_detects_same_shaped_but_different_edges() {
        let (layers, deps) = workload();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        assert!(costed.matches(&deps));
        // Same per-layer set counts, different edge set: must not match —
        // a zip over mismatched arenas would silently skip or mis-weight
        // dependency checks downstream.
        let other = Dependencies::from_edges(
            &[2, 2],
            &[(SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 })],
        )
        .unwrap();
        assert!(!costed.matches(&other));
        // Same edge count, different producer: still a mismatch.
        let swapped = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
            ],
        )
        .unwrap();
        assert_eq!(swapped.num_edges(), deps.num_edges());
        assert!(!costed.matches(&swapped));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (layers, deps) = workload();
        assert!(matches!(
            CostedDeps::free(&layers[..1], &deps),
            Err(CoreError::StageMismatch { .. })
        ));
    }
}
