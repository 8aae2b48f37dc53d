//! The canonicalization pipeline and the canonical-form contract.
//!
//! [`canonicalize`] chains the frontend passes in the paper's order (Fig. 2):
//! BN folding → partitioning → (optional) quantization, and returns a
//! [`Canonical`] wrapper whose invariants downstream stages rely on:
//!
//! 1. no foldable batch-norm nodes remain;
//! 2. every Conv2D uses [`Padding::Valid`] and `use_bias == false`, every
//!    Dense has `use_bias == false`;
//! 3. the graph validates ([`Graph::validate`]).
//!
//! [`Padding::Valid`]: cim_ir::Padding::Valid
//! [`Graph::validate`]: cim_ir::Graph::validate

use cim_ir::{Graph, Op};

use crate::bn::fold_batch_norm;
use crate::error::{FrontendError, Result};
use crate::partition::decouple;
use crate::quant::{quantize, QuantPolicy};

/// Options for [`canonicalize`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CanonOptions {
    /// Quantization policy; `None` skips the quantization pass (the default —
    /// scheduling results do not depend on it, and shape-only zoo models have
    /// no weights to quantize).
    pub quantize: Option<QuantPolicy>,
}

impl CanonOptions {
    /// Enables quantization with the paper's 4-bit RRAM cell policy.
    pub fn with_rram_quantization(mut self) -> Self {
        self.quantize = Some(QuantPolicy::rram_4bit());
        self
    }
}

/// A graph in canonical (partitioned) form.
///
/// Produced by [`canonicalize`]; the mapping and scheduling crates accept
/// plain [`Graph`]s but the canonical form is what the paper's pipeline
/// feeds them.
#[derive(Debug, Clone, PartialEq)]
pub struct Canonical {
    graph: Graph,
}

impl Canonical {
    /// Wraps a graph after checking the canonical-form invariants.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::NotCanonical`] describing the first violated
    /// invariant.
    fn try_new(graph: Graph) -> Result<Self> {
        Self::verify(&graph)?;
        Ok(Self { graph })
    }

    /// Checks the canonical-form invariants without taking ownership.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::NotCanonical`] on the first violation, or the
    /// underlying [`IrError`](cim_ir::IrError) if the graph itself is
    /// inconsistent.
    pub fn verify(graph: &Graph) -> Result<()> {
        graph.validate()?;
        for n in graph.iter() {
            match &n.op {
                Op::Conv2d(a) => {
                    if a.padding != cim_ir::Padding::Valid {
                        return Err(FrontendError::NotCanonical {
                            node: n.name.clone(),
                            detail: "convolution padding must be decoupled (valid)".into(),
                        });
                    }
                    if a.use_bias {
                        return Err(FrontendError::NotCanonical {
                            node: n.name.clone(),
                            detail: "convolution bias must be decoupled".into(),
                        });
                    }
                }
                Op::Dense(a) if a.use_bias => {
                    return Err(FrontendError::NotCanonical {
                        node: n.name.clone(),
                        detail: "dense bias must be decoupled".into(),
                    });
                }
                Op::BatchNorm(_) => {
                    let prod = graph.node(n.inputs[0])?;
                    if prod.op.is_base() {
                        return Err(FrontendError::NotCanonical {
                            node: n.name.clone(),
                            detail: "foldable batch norm remains after a base layer".into(),
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The canonical graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Extracts the canonical graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }
}

impl AsRef<Graph> for Canonical {
    fn as_ref(&self) -> &Graph {
        &self.graph
    }
}

/// Runs the full preprocessing pipeline: BN folding, partitioning, and
/// optional quantization.
///
/// # Errors
///
/// Propagates errors of the individual passes; see [`fold_batch_norm`],
/// [`decouple`] and [`quantize`].
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn canonicalize(g: &Graph, opts: &CanonOptions) -> Result<Canonical> {
    let g = fold_batch_norm(g)?;
    let g = decouple(&g)?;
    let g = match &opts.quantize {
        Some(policy) => quantize(&g, policy)?,
        None => g,
    };
    Canonical::try_new(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{
        ActFn, BatchNormAttrs, BnParams, Conv2dAttrs, Executor, FeatureShape, Op, Padding, Params,
        PoolAttrs, Tensor,
    };

    /// input → conv(same, bias) → bn → relu → pool, fully parameterized.
    fn tf_style_graph() -> Graph {
        let mut g = Graph::new("tf");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 2),
                },
                &[],
            )
            .unwrap();
        let kernel = Tensor::from_fn(&[3, 3, 2, 4], |i| ((i * 5 % 23) as f32 - 11.0) * 0.07);
        let bias = Tensor::from_fn(&[4], |i| 0.2 * i as f32 - 0.3);
        let c = g
            .add_with_params(
                "conv",
                Op::Conv2d(Conv2dAttrs {
                    out_channels: 4,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: Padding::Same,
                    use_bias: true,
                }),
                &[x],
                Params {
                    kernel: Some(kernel),
                    bias: Some(bias),
                    bn: None,
                },
            )
            .unwrap();
        let bn = BnParams {
            gamma: Tensor::from_fn(&[4], |i| 0.8 + 0.1 * i as f32),
            beta: Tensor::from_fn(&[4], |i| 0.1 * i as f32),
            mean: Tensor::from_fn(&[4], |i| 0.02 * i as f32),
            var: Tensor::from_fn(&[4], |i| 1.0 + 0.2 * i as f32),
        };
        let b = g
            .add_with_params(
                "bn",
                Op::BatchNorm(BatchNormAttrs { eps: 1e-3 }),
                &[c],
                Params {
                    kernel: None,
                    bias: None,
                    bn: Some(bn),
                },
            )
            .unwrap();
        let r = g.add("relu", Op::Activation(ActFn::Relu), &[b]).unwrap();
        g.add(
            "pool",
            Op::MaxPool2d(PoolAttrs {
                window: (2, 2),
                stride: (2, 2),
                padding: Padding::Valid,
            }),
            &[r],
        )
        .unwrap();
        g
    }

    #[test]
    fn full_pipeline_structure() {
        let g = tf_style_graph();
        let canon = canonicalize(&g, &CanonOptions::default()).unwrap();
        let cg = canon.graph();
        // input, conv_pad, conv, conv_bias, relu, pool — bn folded away.
        assert_eq!(cg.len(), 6);
        assert!(cg.find("conv_pad").is_some());
        assert!(cg.find("conv_bias").is_some());
        assert!(cg.find("bn").is_none());
        Canonical::verify(cg).unwrap();
    }

    #[test]
    fn full_pipeline_preserves_numerics() {
        let g = tf_style_graph();
        let canon = canonicalize(&g, &CanonOptions::default()).unwrap();
        let input = Tensor::from_fn(&[8, 8, 2], |i| ((i * 11 % 31) as f32 - 15.0) * 0.15);
        let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
        let o2 = Executor::new(canon.graph()).run_single(input).unwrap();
        let a = &o1[&g.find("pool").unwrap()];
        let b = &o2[&canon.graph().find("pool").unwrap()];
        assert!(a.max_abs_diff(b).unwrap() < 1e-5);
    }

    #[test]
    fn quantized_pipeline_bounds_error() {
        let g = tf_style_graph();
        let opts = CanonOptions::default().with_rram_quantization();
        let canon = canonicalize(&g, &opts).unwrap();
        assert!(canon.graph().find("conv_q").is_some());
        let input = Tensor::from_fn(&[8, 8, 2], |i| ((i * 11 % 31) as f32 - 15.0) * 0.15);
        let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
        let o2 = Executor::new(canon.graph()).run_single(input).unwrap();
        let a = &o1[&g.find("pool").unwrap()];
        let b = &o2[&canon.graph().find("pool").unwrap()];
        // 4-bit weights and 8-bit activations are lossy but must stay in the
        // same ballpark on this tiny net.
        let diff = a.max_abs_diff(b).unwrap();
        assert!(diff < 1.0, "quantization error unexpectedly large: {diff}");
        assert!(diff > 0.0, "quantization should not be exact here");
    }

    #[test]
    fn verify_rejects_same_padding() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 2),
                },
                &[],
            )
            .unwrap();
        g.add(
            "conv",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 4,
                kernel: (3, 3),
                stride: (1, 1),
                padding: Padding::Same,
                use_bias: false,
            }),
            &[x],
        )
        .unwrap();
        assert!(matches!(
            Canonical::try_new(g),
            Err(FrontendError::NotCanonical { .. })
        ));
    }

    #[test]
    fn verify_rejects_inline_bias() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(1, 1, 4),
                },
                &[],
            )
            .unwrap();
        g.add(
            "fc",
            Op::Dense(cim_ir::DenseAttrs {
                units: 2,
                use_bias: true,
            }),
            &[x],
        )
        .unwrap();
        assert!(matches!(
            Canonical::verify(&g),
            Err(FrontendError::NotCanonical { .. })
        ));
    }

    #[test]
    fn verify_allows_unfoldable_bn() {
        // BN after a pool is not foldable and therefore allowed to remain.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 2),
                },
                &[],
            )
            .unwrap();
        let p = g
            .add(
                "pool",
                Op::MaxPool2d(PoolAttrs {
                    window: (2, 2),
                    stride: (2, 2),
                    padding: Padding::Valid,
                }),
                &[x],
            )
            .unwrap();
        g.add("bn", Op::BatchNorm(BatchNormAttrs::default()), &[p])
            .unwrap();
        Canonical::verify(&g).unwrap();
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let g = tf_style_graph();
        let once = canonicalize(&g, &CanonOptions::default()).unwrap();
        let twice = canonicalize(once.graph(), &CanonOptions::default()).unwrap();
        assert_eq!(once.graph(), twice.graph());
    }
}
