//! Shared graph-rewrite plumbing.
//!
//! All frontend passes (and the weight-duplication rewrite in `cim-mapping`)
//! follow the same shape: walk the source graph in topological order, emit
//! nodes into a fresh graph, and keep an old-id → new-id map so consumers can
//! be re-pointed. The [`Rewriter`] encapsulates that bookkeeping.

use cim_ir::{Graph, IrError, Node, NodeId, Op, Params};

use crate::error::Result;

/// Incremental graph rewriter with an old-to-new node-id map.
pub(crate) struct Rewriter {
    out: Graph,
    map: Vec<Option<NodeId>>,
}

impl Rewriter {
    /// Starts a rewrite of `src` into a new graph with the same name.
    pub fn new(src: &Graph) -> Self {
        Self {
            out: Graph::new(src.name()),
            map: vec![None; src.len()],
        }
    }

    /// The new id an old node's output maps to.
    ///
    /// # Panics
    ///
    /// Panics if the old node has not been emitted or aliased yet — passes
    /// process nodes in topological order, so inputs are always mapped first.
    pub fn mapped(&self, old: NodeId) -> NodeId {
        self.map[old.index()].expect("node mapped before use (topological order)") // cim-lint: allow(panic-unwrap) topological order maps inputs first
    }

    /// New ids of all inputs of an old node.
    pub fn mapped_inputs(&self, node: &Node) -> Vec<NodeId> {
        node.inputs.iter().map(|&i| self.mapped(i)).collect()
    }

    /// Copies `node` verbatim (op, name, params, logical layer), re-pointing
    /// its inputs, and maps its id.
    pub fn copy(&mut self, node: &Node) -> Result<NodeId> {
        let inputs = self.mapped_inputs(node);
        let id = self.out.add_node(
            node.name.clone(),
            node.op.clone(),
            &inputs,
            node.params.clone(),
            node.logical_layer,
        )?;
        self.map[node.id.index()] = Some(id);
        Ok(id)
    }

    /// Emits a fresh node into the output graph without mapping any old id.
    pub fn emit(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[NodeId],
        params: Option<Params>,
        logical_layer: Option<u32>,
    ) -> Result<NodeId> {
        Ok(self.out.add_node(name, op, inputs, params, logical_layer)?)
    }

    /// Declares that the output of old node `old` is produced by new node
    /// `new` (used when a node is elided or replaced by a sequence).
    pub fn alias(&mut self, old: NodeId, new: NodeId) {
        self.map[old.index()] = Some(new);
    }

    /// Mutable access to an already-emitted node (for in-place parameter or
    /// attribute updates, e.g. batch-norm folding).
    pub fn emitted_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        Ok(self.out.node_mut(id)?)
    }

    /// Finishes the rewrite, validating the produced graph.
    pub fn finish(self) -> Result<Graph> {
        self.out.validate()?;
        Ok(self.out)
    }
}

/// Ensures `g` is non-empty and internally consistent before a pass runs.
pub(crate) fn check_input(g: &Graph) -> Result<()> {
    if g.is_empty() {
        return Err(IrError::EmptyGraph.into());
    }
    g.validate()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{FeatureShape, Op};

    #[test]
    fn copy_preserves_structure() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(4, 4, 1),
                },
                &[],
            )
            .unwrap();
        let a = g
            .add("act", Op::Activation(cim_ir::ActFn::Relu), &[x])
            .unwrap();
        let mut rw = Rewriter::new(&g);
        for n in g.iter() {
            rw.copy(n).unwrap();
        }
        assert_eq!(rw.mapped(x), x);
        assert_eq!(rw.mapped(a), a);
        let out = rw.finish().unwrap();
        assert_eq!(out, g);
    }

    #[test]
    fn alias_redirects_consumers() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(4, 4, 1),
                },
                &[],
            )
            .unwrap();
        let a = g
            .add("a", Op::Activation(cim_ir::ActFn::Relu), &[x])
            .unwrap();
        let b = g
            .add("b", Op::Activation(cim_ir::ActFn::Relu), &[a])
            .unwrap();
        // Drop node `a`, wiring `b` directly to the input.
        let mut rw = Rewriter::new(&g);
        let nx = rw.copy(g.node(x).unwrap()).unwrap();
        rw.alias(a, nx);
        rw.copy(g.node(b).unwrap()).unwrap();
        let out = rw.finish().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.node(out.find("b").unwrap()).unwrap().inputs, vec![nx]);
    }

    #[test]
    #[should_panic(expected = "mapped before use")]
    fn mapped_panics_on_unprocessed_node() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(4, 4, 1),
                },
                &[],
            )
            .unwrap();
        let rw = Rewriter::new(&g);
        let _ = rw.mapped(x);
    }

    #[test]
    fn check_input_rejects_empty() {
        assert!(check_input(&Graph::new("e")).is_err());
    }
}
