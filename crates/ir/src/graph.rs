//! The NN graph: an append-only DAG of single-output operations.
//!
//! Node ids are assigned in insertion order and — because every node's
//! inputs must already exist when it is added — node ids always form a
//! topological order. Graph rewrites (frontend passes, weight duplication)
//! build new graphs rather than mutating edges, which keeps this invariant
//! trivially true.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{IrError, Result};
use crate::ops::Op;
use crate::shape::FeatureShape;
use crate::tensor::Tensor;

/// Identifier of a node inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the graph's node arena.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Batch-norm parameter set (per-channel vectors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BnParams {
    /// Scale γ.
    pub gamma: Tensor,
    /// Shift β.
    pub beta: Tensor,
    /// Moving mean μ.
    pub mean: Tensor,
    /// Moving variance σ².
    pub var: Tensor,
}

/// Learnable parameters attached to a node.
///
/// Parameters are optional: scheduling experiments work purely on shapes and
/// leave `params` unset to keep multi-hundred-layer graphs lightweight; the
/// numeric-equivalence tests attach real tensors.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Convolution kernel `[kh, kw, ci, co]` or dense matrix `[ci, co]`.
    pub kernel: Option<Tensor>,
    /// Bias vector `[co]`.
    pub bias: Option<Tensor>,
    /// Batch-norm parameters.
    pub bn: Option<BnParams>,
}

impl Params {
    /// Parameters holding only a kernel.
    pub fn with_kernel(kernel: Tensor) -> Self {
        Self {
            kernel: Some(kernel),
            ..Self::default()
        }
    }
}

/// A single graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Unique human-readable name (e.g. `conv2d_16`).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Producer nodes feeding this operation, in positional order.
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub out_shape: FeatureShape,
    /// Optional learnable parameters.
    pub params: Option<Params>,
    /// Logical layer index: duplicates created by the weight-duplication
    /// rewrite share the logical id of the original layer, which the
    /// layer-by-layer baseline uses to run duplicates concurrently.
    pub logical_layer: Option<u32>,
}

/// An append-only NN graph (DAG).
///
/// # Examples
///
/// ```
/// use cim_ir::{Graph, Op, FeatureShape, Conv2dAttrs, Padding};
///
/// # fn main() -> Result<(), cim_ir::IrError> {
/// let mut g = Graph::new("toy");
/// let x = g.add("input", Op::Input { shape: FeatureShape::new(8, 8, 3) }, &[])?;
/// let c = g.add(
///     "conv",
///     Op::Conv2d(Conv2dAttrs {
///         out_channels: 4,
///         kernel: (3, 3),
///         stride: (1, 1),
///         padding: Padding::Valid,
///         use_bias: false,
///     }),
///     &[x],
/// )?;
/// assert_eq!(g.node(c)?.out_shape, FeatureShape::new(6, 6, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a node, inferring and recording its output shape.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] if an input id does not exist, or a
    /// shape-inference error if the operation rejects the input shapes.
    pub fn add(&mut self, name: impl Into<String>, op: Op, inputs: &[NodeId]) -> Result<NodeId> {
        self.add_node(name, op, inputs, None, None)
    }

    /// Appends a node with parameters attached.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add`].
    pub fn add_with_params(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[NodeId],
        params: Params,
    ) -> Result<NodeId> {
        self.add_node(name, op, inputs, Some(params), None)
    }

    /// Appends a node carrying an explicit logical-layer id (used by graph
    /// rewrites to mark duplicates of the same original layer).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add`].
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[NodeId],
        params: Option<Params>,
        logical_layer: Option<u32>,
    ) -> Result<NodeId> {
        let mut in_shapes = Vec::with_capacity(inputs.len());
        for &i in inputs {
            let n = self.node(i)?;
            in_shapes.push(n.out_shape);
        }
        let out_shape = op.infer_shape(&in_shapes)?;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
            out_shape,
            params,
            logical_layer,
        });
        Ok(id)
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] for out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.index()).ok_or(IrError::UnknownNode(id.0))
    }

    /// Mutable node lookup (attributes and params only — edges are fixed).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] for out-of-range ids.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        self.nodes
            .get_mut(id.index())
            .ok_or(IrError::UnknownNode(id.0))
    }

    /// Iterates over all nodes in topological (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All node ids in topological order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }

    /// Ids of all base-layer nodes (Conv2D / Dense) in topological order.
    pub fn base_layers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.op.is_base())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all graph inputs.
    pub fn inputs(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Input { .. }))
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all nodes without consumers.
    pub fn outputs(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                consumed[i.index()] = true;
            }
        }
        self.nodes
            .iter()
            .filter(|n| !consumed[n.id.index()])
            .map(|n| n.id)
            .collect()
    }

    /// Consumer map: for every node, the nodes that read its output.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut map = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                map[i.index()].push(n.id);
            }
        }
        map
    }

    /// Finds a node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// Re-validates the whole graph: edge sanity, topological ids, unique
    /// names, and shape inference consistency.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] (or the underlying inference error)
    /// describing the first inconsistency found.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(IrError::EmptyGraph);
        }
        let mut names: BTreeMap<&str, NodeId> = BTreeMap::new();
        for (idx, n) in self.nodes.iter().enumerate() {
            if n.id.index() != idx {
                return Err(IrError::Invalid {
                    detail: format!("node at position {idx} has id {}", n.id),
                });
            }
            if let Some(prev) = names.insert(n.name.as_str(), n.id) {
                return Err(IrError::Invalid {
                    detail: format!("duplicate node name `{}` ({prev} and {})", n.name, n.id),
                });
            }
            let mut in_shapes = Vec::with_capacity(n.inputs.len());
            for &i in &n.inputs {
                if i.index() >= idx {
                    return Err(IrError::Invalid {
                        detail: format!("node {} consumes later/self node {i}", n.id),
                    });
                }
                in_shapes.push(self.nodes[i.index()].out_shape);
            }
            let inferred = n.op.infer_shape(&in_shapes)?;
            if inferred != n.out_shape {
                return Err(IrError::Invalid {
                    detail: format!(
                        "node {} `{}` records shape {} but inference gives {}",
                        n.id, n.name, n.out_shape, inferred
                    ),
                });
            }
        }
        Ok(())
    }

    /// Total number of scalar parameters attached to the graph.
    pub fn param_count(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.params.as_ref())
            .map(|p| {
                p.kernel.as_ref().map_or(0, Tensor::len)
                    + p.bias.as_ref().map_or(0, Tensor::len)
                    + p.bn.as_ref().map_or(0, |b| {
                        b.gamma.len() + b.beta.len() + b.mean.len() + b.var.len()
                    })
            })
            .sum()
    }
}

impl std::fmt::Display for Graph {
    /// One-line summary: name, node count, base layers, outputs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} nodes ({} base layers, {} outputs)",
            self.name,
            self.nodes.len(),
            self.base_layers().len(),
            self.outputs().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Conv2dAttrs, PoolAttrs};
    use crate::shape::Padding;

    fn input(g: &mut Graph, h: usize, w: usize, c: usize) -> NodeId {
        g.add(
            "input",
            Op::Input {
                shape: FeatureShape::new(h, w, c),
            },
            &[],
        )
        .unwrap()
    }

    fn conv_op(oc: usize) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding::Same,
            use_bias: false,
        })
    }

    #[test]
    fn build_and_query_small_graph() {
        let mut g = Graph::new("t");
        let x = input(&mut g, 8, 8, 3);
        let c1 = g.add("c1", conv_op(4), &[x]).unwrap();
        let p = g
            .add(
                "pool",
                Op::MaxPool2d(PoolAttrs {
                    window: (2, 2),
                    stride: (2, 2),
                    padding: Padding::Valid,
                }),
                &[c1],
            )
            .unwrap();
        let c2 = g.add("c2", conv_op(8), &[p]).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.base_layers(), vec![c1, c2]);
        assert_eq!(g.inputs(), vec![x]);
        assert_eq!(g.outputs(), vec![c2]);
        assert_eq!(g.consumers()[c1.index()], vec![p]);
        assert_eq!(g.find("pool"), Some(p));
        assert_eq!(g.find("nope"), None);
        g.validate().unwrap();
    }

    #[test]
    fn add_rejects_unknown_input() {
        let mut g = Graph::new("t");
        let err = g.add("c", conv_op(4), &[NodeId(7)]).unwrap_err();
        assert_eq!(err, IrError::UnknownNode(7));
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut g = Graph::new("t");
        let x = input(&mut g, 8, 8, 3);
        g.add("c", conv_op(4), &[x]).unwrap();
        let c2 = g.add("c", conv_op(4), &[x]).unwrap();
        assert!(c2.index() == 2);
        let err = g.validate().unwrap_err();
        assert!(matches!(err, IrError::Invalid { .. }));
    }

    #[test]
    fn validate_rejects_empty_graph() {
        assert_eq!(Graph::new("e").validate().unwrap_err(), IrError::EmptyGraph);
    }

    #[test]
    fn validate_detects_tampered_shape() {
        let mut g = Graph::new("t");
        let x = input(&mut g, 8, 8, 3);
        let c = g.add("c", conv_op(4), &[x]).unwrap();
        g.node_mut(c).unwrap().out_shape = FeatureShape::new(1, 1, 1);
        assert!(g.validate().is_err());
    }

    #[test]
    fn fan_out_and_concat() {
        let mut g = Graph::new("t");
        let x = input(&mut g, 8, 8, 4);
        let a = g.add("a", conv_op(4), &[x]).unwrap();
        let b = g.add("b", conv_op(4), &[x]).unwrap();
        let cat = g
            .add("cat", Op::Concat(crate::ops::Axis::C), &[a, b])
            .unwrap();
        assert_eq!(g.node(cat).unwrap().out_shape, FeatureShape::new(8, 8, 8));
        assert_eq!(g.consumers()[x.index()].len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn param_count_sums_attached_tensors() {
        let mut g = Graph::new("t");
        let x = input(&mut g, 4, 4, 1);
        g.add_with_params(
            "c",
            conv_op(2),
            &[x],
            Params::with_kernel(Tensor::zeros(&[3, 3, 1, 2])),
        )
        .unwrap();
        assert_eq!(g.param_count(), 18);
    }

    #[test]
    fn serde_round_trip() {
        let mut g = Graph::new("t");
        let x = input(&mut g, 8, 8, 3);
        g.add("c", conv_op(4), &[x]).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        back.validate().unwrap();
    }

    #[test]
    fn histogram_and_display() {
        let mut g = Graph::new("net");
        let x = input(&mut g, 8, 8, 3);
        let c1 = g.add("c1", conv_op(4), &[x]).unwrap();
        g.add("c2", conv_op(4), &[c1]).unwrap();
        assert_eq!(g.to_string(), "net: 3 nodes (2 base layers, 1 outputs)");
    }
}
