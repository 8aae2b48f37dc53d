//! Stage II — determine dependencies (Sec. IV-2 of the paper, Fig. 5b).
//!
//! For every OFM set of every base layer, find the OFM sets of *predecessor*
//! base layers whose data it needs. The set's rectangle is propagated
//! backward along the non-base layer path (bias, activation, pooling,
//! padding, slice, concat, …) using the receptive-field arithmetic of
//! [`cim_ir::input_region`]; a producer set is a dependency iff the
//! propagated rectangle intersects it.
//!
//! # Producer-range lookup
//!
//! Stage I cuts every OFM into row bands ordered top to bottom, so within
//! a layer both `y0` and `y1` are non-decreasing and the sets sharing a row
//! with a propagated rectangle form one contiguous run. Two binary searches
//! ([`slice::partition_point`]) find that run, and only its sets are tested
//! with [`Rect::intersects`] (which still checks the columns): the cost is
//! `O(log sets + edges)` per propagated rectangle rather than a scan of
//! every producer set. The ordering is a checked precondition —
//! [`determine_dependencies`] verifies it once per layer and rejects a
//! layer that breaks it with [`CoreError::StageMismatch`]; there is no
//! scanning fallback. The full scan lives on only as the oracle
//! [`reference::determine_dependencies_naive`](crate::reference::determine_dependencies_naive).
//!
//! One producer set can influence multiple consumer sets (the paper's `Q`
//! relation) and one consumer set can require multiple producer sets (`P`).
//!
//! # Representation
//!
//! The relation is stored in **CSR form** over the global
//! [`SetSpace`] index: one flat `producers` arena holding
//! every edge's producer [`SetRef`], sliced per consumer set by an offset
//! table. Compared to the former `Vec<Vec<Vec<SetRef>>>` nesting this is
//! one allocation instead of one per set, with cache-linear edge walks in
//! the Stage III/IV longest-path sweep. The public API (`of`, `edges`,
//! `fan_in`, `fan_out`) and the serde format (the nested `deps` array) are
//! unchanged.

use cim_ir::{input_region, FeatureShape, Graph, Node, NodeId, Rect};
use serde::{Deserialize, Serialize, Value};

use crate::error::{CoreError, Result};
use crate::sets::LayerSets;
use crate::space::SetSpace;

/// Identifier of a set: layer index (into the Stage-I slice) and set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SetRef {
    /// Index of the layer in the Stage-I output.
    pub layer: usize,
    /// Index of the set within the layer.
    pub set: usize,
}

impl std::fmt::Display for SetRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}S{}", self.layer, self.set)
    }
}

/// The Stage-II result: per consumer set, the producer sets it depends on.
///
/// CSR-backed: `producers[offsets[i]..offsets[i + 1]]` are the (sorted,
/// deduplicated) producers of the consumer set with global index `i` (see
/// [`SetSpace::index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependencies {
    /// The `(layer, set) → usize` index space the CSR arrays are sliced by.
    space: SetSpace,
    /// `offsets[i]..offsets[i + 1]` bounds consumer `i`'s producer slice.
    offsets: Vec<usize>,
    /// Flat producer arena (`edge_producers`), concatenated in consumer
    /// order; each consumer's slice is sorted and deduplicated.
    producers: Vec<SetRef>,
}

impl Dependencies {
    /// Builds a dependency structure directly from `(consumer, producer)`
    /// edges — for synthetic workloads, failure-injection tests, and users
    /// bringing their own dependency analysis.
    ///
    /// `sets_per_layer[l]` is the number of Stage-I sets of layer `l`.
    /// Edges are deduplicated and sorted. Note that *topological* sanity
    /// (producers strictly earlier than consumers) is deliberately not
    /// enforced here; the schedulers and the simulator detect violations
    /// themselves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] when an edge references a
    /// nonexistent layer or set.
    pub fn from_edges(sets_per_layer: &[usize], edges: &[(SetRef, SetRef)]) -> Result<Self> {
        let space = SetSpace::from_counts(sets_per_layer);
        // Validate endpoints, then sort the edge list by (consumer global
        // index, producer) so the CSR arena can be filled in one pass.
        let mut keyed: Vec<(usize, SetRef)> = Vec::with_capacity(edges.len());
        for &(consumer, producer) in edges {
            for r in [consumer, producer] {
                let ok = r.layer < sets_per_layer.len() && r.set < sets_per_layer[r.layer];
                if !ok {
                    return Err(CoreError::StageMismatch {
                        detail: format!("edge endpoint {r} out of range"),
                    });
                }
            }
            keyed.push((space.index(consumer.layer, consumer.set), producer));
        }
        keyed.sort_unstable();
        keyed.dedup();

        let total = space.total_sets();
        let mut offsets = Vec::with_capacity(total + 1);
        let mut producers = Vec::with_capacity(keyed.len());
        offsets.push(0);
        let mut cursor = 0usize;
        for i in 0..total {
            while cursor < keyed.len() && keyed[cursor].0 == i {
                producers.push(keyed[cursor].1);
                cursor += 1;
            }
            offsets.push(producers.len());
        }
        Ok(Self {
            space,
            offsets,
            producers,
        })
    }

    /// Rebuilds the CSR form from the legacy nested `deps[l][s]` shape
    /// (each inner list is sorted and deduplicated on ingestion) — the
    /// serde wire format.
    fn from_nested(nested: Vec<Vec<Vec<SetRef>>>) -> Self {
        let counts: Vec<usize> = nested.iter().map(Vec::len).collect();
        let space = SetSpace::from_counts(&counts);
        let mut offsets = Vec::with_capacity(space.total_sets() + 1);
        let mut producers =
            Vec::with_capacity(nested.iter().flatten().map(Vec::len).sum::<usize>());
        offsets.push(0);
        for sets in nested {
            for mut ds in sets {
                ds.sort_unstable();
                ds.dedup();
                producers.extend_from_slice(&ds);
                offsets.push(producers.len());
            }
        }
        Self {
            space,
            offsets,
            producers,
        }
    }

    /// Producer sets required by set `s` of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn of(&self, l: usize, s: usize) -> &[SetRef] {
        let i = self.space.index(l, s);
        &self.producers[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.space.num_layers()
    }

    /// The global `(layer, set) → usize` index space of the CSR arrays.
    pub fn space(&self) -> &SetSpace {
        &self.space
    }

    /// The raw CSR view: the per-consumer offset table (length
    /// `total_sets + 1`) and the flat producer arena it slices. Consumer
    /// `i`'s producers are `producers[offsets[i]..offsets[i + 1]]`, with
    /// `i` as assigned by [`space`](Self::space).
    pub fn csr(&self) -> (&[usize], &[SetRef]) {
        (&self.offsets, &self.producers)
    }

    /// Iterates over all `(consumer, producer)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (SetRef, SetRef)> + '_ {
        (0..self.num_layers()).flat_map(move |l| {
            (0..self.space.sets_in(l)).flat_map(move |s| {
                self.of(l, s)
                    .iter()
                    .map(move |&p| (SetRef { layer: l, set: s }, p))
            })
        })
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.producers.len()
    }

    /// The paper's `P` value for a consumer set: how many producer sets it
    /// is affected by.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fan_in(&self, l: usize, s: usize) -> usize {
        self.of(l, s).len()
    }

    /// The paper's `Q` relation, inverted from the stored edges: for every
    /// producer set, the consumer sets it influences.
    pub fn fan_out(&self) -> Vec<Vec<Vec<SetRef>>> {
        let mut out: Vec<Vec<Vec<SetRef>>> = (0..self.num_layers())
            .map(|l| vec![Vec::new(); self.space.sets_in(l)])
            .collect();
        for (consumer, producer) in self.edges() {
            out[producer.layer][producer.set].push(consumer);
        }
        out
    }

    /// Checks, once, that every edge points to a topologically earlier
    /// layer — the precondition of the forward longest-path sweep. The
    /// schedulers run this once per `(layers, deps)` pair (formerly the
    /// check was duplicated inside both scheduling inner loops and re-run
    /// for every batch instance).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] naming the first offending
    /// edge.
    pub fn ensure_backward(&self) -> Result<()> {
        for l in 0..self.num_layers() {
            for s in 0..self.space.sets_in(l) {
                for dep in self.of(l, s) {
                    if dep.layer >= l {
                        return Err(CoreError::StageMismatch {
                            detail: format!(
                                "dependency {dep} of layer {l} is not topologically earlier"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

// The wire format predates the CSR backing: a `deps` field holding the
// nested `deps[l][s] -> [SetRef]` lists. Serialization reconstitutes that
// shape so on-disk artifacts and fingerprints are byte-identical to the
// pre-CSR representation.
impl Serialize for Dependencies {
    fn to_value(&self) -> Value {
        let layers: Vec<Value> = (0..self.num_layers())
            .map(|l| {
                Value::Seq(
                    (0..self.space.sets_in(l))
                        .map(|s| Value::Seq(self.of(l, s).iter().map(|p| p.to_value()).collect()))
                        .collect(),
                )
            })
            .collect();
        Value::Map(vec![("deps".to_string(), Value::Seq(layers))])
    }
}

impl Deserialize for Dependencies {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("Dependencies: expected a map"))?;
        let deps = Value::map_get(entries, "deps")
            .ok_or_else(|| serde::Error::custom("Dependencies: missing `deps`"))?;
        let nested: Vec<Vec<Vec<SetRef>>> = Deserialize::from_value(deps)?;
        Ok(Self::from_nested(nested))
    }
}

/// Runs Stage II on the Stage-I output.
///
/// Every layer's sets must be row bands ordered top to bottom — `y0` and
/// `y1` each non-decreasing, as [`determine_sets`](crate::determine_sets)
/// emits them — because each producer lookup is a binary search over that
/// order.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when `layers` does not correspond to
/// `graph` or a layer's sets are not ordered row bands, and propagates graph
/// access errors.
///
/// # Examples
///
/// See the crate-level documentation for the worked Fig. 5 example.
pub fn determine_dependencies(graph: &Graph, layers: &[LayerSets]) -> Result<Dependencies> {
    // Map node id -> layer index for base layers.
    let mut layer_of = vec![usize::MAX; graph.len()];
    for (i, l) in layers.iter().enumerate() {
        let node = graph.node(l.node)?;
        if !node.op.is_base() {
            return Err(CoreError::StageMismatch {
                detail: format!("layer entry `{}` is not a base layer", l.name),
            });
        }
        if let Some(s) = l
            .sets
            .windows(2)
            .position(|w| w[1].rect.y0 < w[0].rect.y0 || w[1].rect.y1 < w[0].rect.y1)
        {
            return Err(CoreError::StageMismatch {
                detail: format!(
                    "layer `{}`: set {} starts or ends above set {s}; Stage II needs row bands ordered top to bottom",
                    l.name,
                    s + 1
                ),
            });
        }
        layer_of[l.node.index()] = i;
    }
    // Every node's input shapes, built once for all propagation steps.
    let in_shapes = graph
        .iter()
        .map(|n| {
            n.inputs
                .iter()
                .map(|&i| graph.node(i).map(|x| x.out_shape))
                .collect()
        })
        .collect::<std::result::Result<_, _>>()?;
    let walk = Walk {
        graph,
        layers,
        layer_of,
        in_shapes,
    };

    let space = SetSpace::of_layers(layers);
    let mut offsets = Vec::with_capacity(space.total_sets() + 1);
    let mut producers: Vec<SetRef> = Vec::new();
    offsets.push(0);
    // One scratch buffer reused across every set (duplicates from multiple
    // propagation paths are sorted out before the arena append) — no
    // per-set `HashSet` allocation.
    let mut scratch: Vec<SetRef> = Vec::new();

    for layer in layers {
        let node = graph.node(layer.node)?;
        for set in &layer.sets {
            // The IFM region this conv/dense set needs.
            scratch.clear();
            walk.producers_of(node, set.rect, &mut scratch)?;
            scratch.sort_unstable();
            scratch.dedup();
            producers.extend_from_slice(&scratch);
            offsets.push(producers.len());
        }
    }
    Ok(Dependencies {
        space,
        offsets,
        producers,
    })
}

/// The read-only state of one Stage-II run's backward walks.
struct Walk<'a> {
    graph: &'a Graph,
    layers: &'a [LayerSets],
    /// Node index → Stage-I layer index (`usize::MAX` for non-base nodes).
    layer_of: Vec<usize>,
    /// Node index → the output shapes of its inputs.
    in_shapes: Vec<Vec<FeatureShape>>,
}

impl Walk<'_> {
    /// Records the producer sets that region `rect` of base layer `node`'s
    /// output reads, walking back from each of the node's inputs.
    fn producers_of(&self, node: &Node, rect: Rect, found: &mut Vec<SetRef>) -> Result<()> {
        let in_shapes = &self.in_shapes[node.id.index()];
        for (idx, &inp) in node.inputs.iter().enumerate() {
            if let Some(r) = input_region(&node.op, rect, in_shapes, idx, node.out_shape) {
                self.back_propagate(inp, r, found)?;
            }
        }
        Ok(())
    }

    /// Propagates `rect` (a region of `node`'s output) backwards until base
    /// layers or graph inputs are reached, recording intersecting producer
    /// sets (possibly with duplicates — the caller sort-dedups the scratch
    /// buffer).
    fn back_propagate(
        &self,
        mut node: NodeId,
        mut rect: Rect,
        found: &mut Vec<SetRef>,
    ) -> Result<()> {
        loop {
            let n = self.graph.node(node)?;
            if n.op.is_base() {
                let li = self.layer_of[node.index()];
                if li == usize::MAX {
                    return Err(CoreError::StageMismatch {
                        detail: format!("base layer `{}` has no Stage-I sets", n.name),
                    });
                }
                // Ordered bands: the sets sharing a row with `rect` are one
                // contiguous run; `intersects` still checks the columns.
                let sets = &self.layers[li].sets;
                let lo = sets.partition_point(|s| s.rect.y1 < rect.y0);
                let hi = lo + sets[lo..].partition_point(|s| s.rect.y0 <= rect.y1);
                for (si, set) in (lo..hi).zip(&sets[lo..hi]) {
                    if set.rect.intersects(&rect) {
                        found.push(SetRef { layer: li, set: si });
                    }
                }
                return Ok(());
            }
            // A graph input has no inputs: the walk ends there.
            let Some((&last, rest)) = n.inputs.split_last() else {
                return Ok(());
            };
            let in_shapes = &self.in_shapes[node.index()];
            for (idx, &inp) in rest.iter().enumerate() {
                if let Some(r) = input_region(&n.op, rect, in_shapes, idx, n.out_shape) {
                    self.back_propagate(inp, r, found)?;
                }
            }
            // Follow the last input in place, so a chain of single-input
            // operations costs no recursion.
            match input_region(&n.op, rect, in_shapes, rest.len(), n.out_shape) {
                Some(r) => (node, rect) = (last, r),
                None => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{ActFn, Conv2dAttrs, Op, PadSpec, Padding, PoolAttrs};
    use cim_mapping::{layer_costs, MappingOptions};

    use crate::sets::{determine_sets, OfmSet, SetPolicy};

    fn conv_op(oc: usize, k: usize, st: usize) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding: Padding::Valid,
            use_bias: false,
        })
    }

    fn stages(g: &Graph, policy: &SetPolicy) -> (Vec<LayerSets>, Dependencies) {
        let costs = layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let layers = determine_sets(g, &costs, policy).unwrap();
        let deps = determine_dependencies(g, &layers).unwrap();
        (layers, deps)
    }

    /// The paper's Fig. 5 minimal example: two Conv2D layers with a
    /// bias → activation → pooling → padding non-base path in between.
    fn fig5_graph() -> Graph {
        let mut g = Graph::new("fig5");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(10, 10, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("conv1", conv_op(8, 3, 1), &[x]).unwrap(); // 8×8
        let b = g.add("bias", Op::Bias, &[c1]).unwrap();
        let a = g.add("act", Op::Activation(ActFn::Relu), &[b]).unwrap();
        let p = g
            .add(
                "pool",
                Op::MaxPool2d(PoolAttrs {
                    window: (2, 2),
                    stride: (2, 2),
                    padding: Padding::Valid,
                }),
                &[a],
            )
            .unwrap(); // 4×4
        let pad = g
            .add("pad", Op::ZeroPad2d(PadSpec::uniform(1)), &[p])
            .unwrap(); // 6×6
        g.add("conv2", conv_op(8, 3, 1), &[pad]).unwrap(); // 4×4
        g
    }

    #[test]
    fn fig5_dependencies() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        // conv1: 8 rows, quantum 2 (pool) → 4 sets. conv2: 4 rows → 4 sets.
        assert_eq!(layers[0].sets.len(), 4);
        assert_eq!(layers[1].sets.len(), 4);

        // conv2 set 0 (OFM row 0) reads padded rows 0..=2 = pool rows 0..=1
        // = conv1 rows 0..=3 = conv1 sets {0, 1}.
        assert_eq!(
            deps.of(1, 0),
            &[SetRef { layer: 0, set: 0 }, SetRef { layer: 0, set: 1 }]
        );
        // conv2 set 1 reads padded rows 1..=3 = pool rows 0..=2 = conv1 rows
        // 0..=5 = sets {0, 1, 2}.
        assert_eq!(deps.fan_in(1, 1), 3);
        // conv2 set 3 (last row) reads padded rows 3..=5 = pool rows 2..=3 =
        // conv1 rows 4..=7 = sets {2, 3}.
        assert_eq!(
            deps.of(1, 3),
            &[SetRef { layer: 0, set: 2 }, SetRef { layer: 0, set: 3 }]
        );
        // conv1 has no base-layer predecessors.
        for s in 0..4 {
            assert!(deps.of(0, s).is_empty());
        }
    }

    #[test]
    fn fan_out_inverts_fan_in() {
        let g = fig5_graph();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        let q = deps.fan_out();
        // conv1 set 0 feeds conv2 sets {0, 1} (the paper's Q relation).
        assert_eq!(
            q[0][0],
            vec![SetRef { layer: 1, set: 0 }, SetRef { layer: 1, set: 1 }]
        );
        // Edge count symmetry.
        let total_q: usize = q.iter().flatten().map(Vec::len).sum();
        assert_eq!(total_q, deps.num_edges());
    }

    #[test]
    fn single_set_policy_yields_full_dependencies() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::coarse(1));
        assert_eq!(layers[0].sets.len(), 1);
        assert_eq!(deps.of(1, 0), &[SetRef { layer: 0, set: 0 }]);
    }

    #[test]
    fn concat_branches_route_to_both_producers() {
        // Two conv branches concatenated on channels, then a consumer conv:
        // every consumer set depends on matching sets of both branches.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 3),
                },
                &[],
            )
            .unwrap();
        let a = g.add("branch_a", conv_op(4, 1, 1), &[x]).unwrap(); // 8×8
        let b = g.add("branch_b", conv_op(4, 1, 1), &[x]).unwrap(); // 8×8
        let cat = g.add("cat", Op::Concat(cim_ir::Axis::C), &[a, b]).unwrap();
        g.add("head", conv_op(8, 1, 1), &[cat]).unwrap(); // 8×8
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // head is layer 2; its set k depends on row k of both branches.
        for s in 0..8 {
            assert_eq!(
                deps.of(2, s),
                &[SetRef { layer: 0, set: s }, SetRef { layer: 1, set: s }]
            );
        }
    }

    #[test]
    fn residual_add_joins_identity_and_conv_paths() {
        // x → c1 → c2 → add(c1's output) → c3 (a ResNet-style skip).
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 4),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap();
        let c2 = g.add("c2", conv_op(4, 1, 1), &[c1]).unwrap();
        let add = g.add("add", Op::Add, &[c1, c2]).unwrap();
        g.add("c3", conv_op(4, 1, 1), &[add]).unwrap();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // c3 (layer 2) set k needs row k of both c1 (skip) and c2 (main).
        for s in 0..8 {
            assert_eq!(
                deps.of(2, s),
                &[SetRef { layer: 0, set: s }, SetRef { layer: 1, set: s }]
            );
        }
        // c2 set k needs only c1 set k (1×1 kernel).
        for s in 0..8 {
            assert_eq!(deps.of(1, s), &[SetRef { layer: 0, set: s }]);
        }
    }

    #[test]
    fn upsample_halves_producer_fanin() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(4, 4, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap(); // 4×4
        let up = g
            .add("up", Op::Upsample2d { factor: (2, 2) }, &[c1])
            .unwrap(); // 8×8
        g.add("c2", conv_op(4, 1, 1), &[up]).unwrap(); // 8×8
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // c2 rows 2k and 2k+1 both map to c1 row k.
        for s in 0..8 {
            assert_eq!(
                deps.of(1, s),
                &[SetRef {
                    layer: 0,
                    set: s / 2
                }]
            );
        }
    }

    #[test]
    fn stride2_conv_consumes_two_producer_sets_per_set() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(11, 11, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap(); // 11×11
        g.add("c2", conv_op(4, 3, 2), &[c1]).unwrap(); // 5×5
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // c2 row r reads c1 rows 2r..=2r+2 → sets {2r, 2r+1, 2r+2}.
        for s in 0..5 {
            let expect: Vec<SetRef> = (2 * s..=2 * s + 2)
                .map(|k| SetRef { layer: 0, set: k })
                .collect();
            assert_eq!(deps.of(1, s), expect.as_slice());
        }
    }

    #[test]
    fn dense_depends_on_every_producer_set() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 3, 1), &[x]).unwrap(); // 4×4
        let f = g.add("flat", Op::Flatten, &[c1]).unwrap();
        g.add(
            "fc",
            Op::Dense(cim_ir::DenseAttrs {
                units: 10,
                use_bias: false,
            }),
            &[f],
        )
        .unwrap();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        // Flatten forces c1 into a single set; fc depends on it.
        assert_eq!(layers[0].sets.len(), 1);
        assert_eq!(deps.of(1, 0), &[SetRef { layer: 0, set: 0 }]);
    }

    #[test]
    fn edges_iterator_matches_num_edges() {
        let g = fig5_graph();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        assert_eq!(deps.edges().count(), deps.num_edges());
        assert!(deps.num_edges() > 0);
        // Every edge points backwards in layer order (topological).
        for (consumer, producer) in deps.edges() {
            assert!(producer.layer < consumer.layer);
        }
        deps.ensure_backward().unwrap();
    }

    #[test]
    fn mismatched_layers_rejected() {
        let g = fig5_graph();
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let mut layers = determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
        layers[0].node = NodeId(0); // the input node — not a base layer
        assert!(matches!(
            determine_dependencies(&g, &layers),
            Err(CoreError::StageMismatch { .. })
        ));
    }

    #[test]
    fn unordered_bands_rejected_naming_the_layer() {
        let g = fig5_graph();
        let (layers, _) = stages(&g, &SetPolicy::finest());
        // conv1 (8×8) is cut into rows 0-1, 2-3, 4-5 and 6-7.
        let band = |y0, y1| {
            let rect = Rect::new(y0, 0, y1, 7);
            OfmSet {
                rect,
                duration: rect.area() as u64,
            }
        };
        let out_of_order = vec![band(2, 3), band(0, 1), band(4, 5), band(6, 7)];
        // Overlapping and non-monotone: the second band ends below the third.
        let nested = vec![band(0, 1), band(0, 7), band(4, 5), band(6, 7)];
        for sets in [out_of_order, nested] {
            let mut bad = layers.clone();
            bad[0].sets = sets;
            let err = determine_dependencies(&g, &bad).unwrap_err();
            assert!(matches!(err, CoreError::StageMismatch { .. }), "{err}");
            assert!(err.to_string().contains("`conv1`"), "{err}");
        }
        // Overlapping bands that stay ordered are accepted, with the
        // full-scan oracle's edges.
        let mut overlapping = layers.clone();
        overlapping[0].sets = vec![band(0, 3), band(2, 5), band(4, 7), band(6, 7)];
        assert_eq!(
            determine_dependencies(&g, &overlapping).unwrap(),
            crate::reference::determine_dependencies_naive(&g, &overlapping).unwrap()
        );
    }

    #[test]
    fn from_edges_dedups_into_the_csr_arena() {
        let edges = [
            (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 }),
            (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
            (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 }), // dup
            (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
        ];
        let deps = Dependencies::from_edges(&[2, 2], &edges).unwrap();
        assert_eq!(deps.num_edges(), 3);
        assert_eq!(
            deps.of(1, 0),
            &[SetRef { layer: 0, set: 0 }, SetRef { layer: 0, set: 1 }]
        );
        assert_eq!(deps.of(1, 1), &[SetRef { layer: 0, set: 1 }]);
        let (offsets, producers) = deps.csr();
        assert_eq!(offsets, &[0, 0, 0, 2, 3]);
        assert_eq!(producers.len(), 3);
    }

    #[test]
    fn ensure_backward_rejects_forward_edges() {
        let deps = Dependencies::from_edges(
            &[1, 1],
            &[(SetRef { layer: 0, set: 0 }, SetRef { layer: 1, set: 0 })],
        )
        .unwrap();
        let err = deps.ensure_backward().unwrap_err();
        assert!(
            err.to_string().contains("not topologically earlier"),
            "{err}"
        );
    }

    #[test]
    fn serde_format_is_the_legacy_nested_shape() {
        let g = fig5_graph();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        let json = serde_json::to_string(&deps).unwrap();
        // Wire format: {"deps": [[[{"layer":..,"set":..}, ...], ...], ...]}
        assert!(json.starts_with("{\"deps\":[["), "{json}");
        let back: Dependencies = serde_json::from_str(&json).unwrap();
        assert_eq!(back, deps);
        // CSR internals survive the round-trip exactly.
        assert_eq!(back.csr(), deps.csr());
    }
}
