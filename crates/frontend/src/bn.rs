//! Batch-norm folding (Sec. III-A of the paper, "BN folding").
//!
//! At inference time a batch-norm layer computes an affine per-channel map
//! `y = γ·(x − μ)/√(σ² + ε) + β`. When the producing layer is a convolution
//! or dense layer, the affine map can be absorbed into the layer's kernel
//! and bias:
//!
//! ```text
//! inv      = γ / √(σ² + ε)
//! kernel'  = kernel · inv        (per output channel)
//! bias'    = (bias − μ) · inv + β
//! ```
//!
//! which removes the BN node from the graph entirely (Jacob et al., CVPR
//! 2018 \[21\] in the paper).

use cim_ir::{Op, Params, Tensor};

use crate::error::{FrontendError, Result};
use crate::rewrite::{check_input, Rewriter};

/// Folds inference batch normalization into the preceding base layer.
///
/// A BN node is folded when (a) its producer is a base layer (Conv2D or
/// Dense) and (b) the BN node is that producer's *only* consumer — otherwise
/// other consumers would observe the folded output. Non-foldable BN nodes
/// are preserved unchanged.
///
/// On shape-only graphs (no parameters attached anywhere) the BN node is
/// simply removed: scheduling experiments never look at values, and BN is an
/// element-wise op with zero cost in the paper's latency model either way.
///
/// # Errors
///
/// Returns [`FrontendError::FoldParams`] when exactly one side (producer or
/// BN) carries parameters — folding would silently change semantics — and
/// propagates graph reconstruction errors.
///
/// # Examples
///
/// ```
/// use cim_frontend::fold_batch_norm;
/// use cim_ir::{BatchNormAttrs, Conv2dAttrs, FeatureShape, Graph, Op, Padding};
///
/// # fn main() -> Result<(), cim_frontend::FrontendError> {
/// let mut g = Graph::new("net");
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
/// g.add("bn", Op::BatchNorm(BatchNormAttrs::default()), &[c])?;
/// let folded = fold_batch_norm(&g)?;
/// assert_eq!(folded.len(), 2, "the BN node is gone");
/// # Ok(())
/// # }
/// ```
pub fn fold_batch_norm(g: &cim_ir::Graph) -> Result<cim_ir::Graph> {
    check_input(g)?;
    let consumers = g.consumers();
    let mut rw = Rewriter::new(g);
    for node in g.iter() {
        let foldable_producer = match &node.op {
            Op::BatchNorm(_) => {
                let prod = g.node(node.inputs[0])?;
                (prod.op.is_base() && consumers[prod.id.index()].len() == 1).then_some(prod.id)
            }
            _ => None,
        };
        let Some(prod_old) = foldable_producer else {
            rw.copy(node)?;
            continue;
        };
        let Op::BatchNorm(attrs) = &node.op else {
            unreachable!()
        };
        let new_prod = rw.mapped(prod_old);
        let bn_params = node.params.as_ref().and_then(|p| p.bn.as_ref()).cloned();
        let prod_node = rw.emitted_mut(new_prod)?;
        let has_kernel = prod_node
            .params
            .as_ref()
            .is_some_and(|p| p.kernel.is_some());
        match (has_kernel, bn_params) {
            (false, None) => {
                // Shape-only graph: drop the BN node.
            }
            (true, Some(bn)) => {
                let params = prod_node
                    .params
                    .as_mut()
                    .expect("has_kernel implies params"); // cim-lint: allow(panic-unwrap) guarded by the preceding has_kernel/validate checks
                fold_into(params, &bn, attrs.eps, &prod_node.op, &node.name)?;
                match &mut prod_node.op {
                    Op::Conv2d(a) => a.use_bias = true,
                    Op::Dense(a) => a.use_bias = true,
                    _ => unreachable!("base layers are conv or dense"),
                }
                // Recorded shape is unchanged: BN is shape-preserving and
                // use_bias does not affect inference.
            }
            (true, None) => {
                return Err(FrontendError::FoldParams {
                    node: node.name.clone(),
                    detail: "producer has weights but batch norm has no parameters".into(),
                });
            }
            (false, Some(_)) => {
                return Err(FrontendError::FoldParams {
                    node: node.name.clone(),
                    detail: "batch norm has parameters but producer has no weights".into(),
                });
            }
        }
        rw.alias(node.id, new_prod);
    }
    rw.finish()
}

/// Applies the folding equations to the producer's parameters in place.
fn fold_into(
    params: &mut Params,
    bn: &cim_ir::BnParams,
    eps: f32,
    prod_op: &Op,
    bn_name: &str,
) -> Result<()> {
    let kernel = params.kernel.as_mut().expect("caller checked"); // cim-lint: allow(panic-unwrap) guarded by the preceding has_kernel/validate checks
    let co = match prod_op {
        Op::Conv2d(a) => a.out_channels,
        Op::Dense(a) => a.units,
        _ => unreachable!(),
    };
    for (t, what) in [
        (&bn.gamma, "gamma"),
        (&bn.beta, "beta"),
        (&bn.mean, "mean"),
        (&bn.var, "var"),
    ] {
        if t.dims() != [co] {
            return Err(FrontendError::FoldParams {
                node: bn_name.to_string(),
                detail: format!("{what} dims {:?}, expected [{co}]", t.dims()),
            });
        }
    }
    let inv: Vec<f32> = (0..co)
        .map(|c| bn.gamma.at1(c) / (bn.var.at1(c) + eps).sqrt())
        .collect();

    // Scale the kernel per output channel. The output channel is the last
    // dimension for both conv ([kh, kw, ci, co]) and dense ([ci, co]).
    let dims = kernel.dims().to_vec();
    let last = *dims.last().expect("kernel has dims"); // cim-lint: allow(panic-unwrap) guarded by the preceding has_kernel/validate checks
    if last != co {
        return Err(FrontendError::FoldParams {
            node: bn_name.to_string(),
            detail: format!("kernel dims {dims:?} end in {last}, expected {co}"),
        });
    }
    for (i, v) in kernel.as_mut_slice().iter_mut().enumerate() {
        *v *= inv[i % co];
    }

    let old_bias = params.bias.take();
    let mut new_bias = Tensor::zeros(&[co]);
    for (c, out) in new_bias.as_mut_slice().iter_mut().enumerate() {
        let b = old_bias.as_ref().map_or(0.0, |t| t.at1(c));
        *out = (b - bn.mean.at1(c)) * inv[c] + bn.beta.at1(c);
    }
    params.bias = Some(new_bias);
    Ok(())
}


#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{
        BatchNormAttrs, BnParams, Conv2dAttrs, Executor, FeatureShape, Graph, Padding, Params,
    };

    /// Returns `true` if the graph still contains any batch-norm node.
    fn has_batch_norm(g: &Graph) -> bool {
        g.iter().any(|n| matches!(n.op, Op::BatchNorm(_)))
    }

    fn conv_attrs(oc: usize, use_bias: bool) -> Conv2dAttrs {
        Conv2dAttrs {
            out_channels: oc,
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding::Valid,
            use_bias,
        }
    }

    fn bn_params(co: usize, seed: f32) -> BnParams {
        BnParams {
            gamma: Tensor::from_fn(&[co], |i| 0.5 + 0.1 * (i as f32 + seed)),
            beta: Tensor::from_fn(&[co], |i| -0.2 * (i as f32) + seed),
            mean: Tensor::from_fn(&[co], |i| 0.05 * (i as f32) - seed),
            var: Tensor::from_fn(&[co], |i| 1.0 + 0.3 * (i as f32)),
        }
    }

    /// Builds input → conv(+bias?) → bn with parameters attached.
    fn conv_bn_graph(use_bias: bool) -> Graph {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 2),
                },
                &[],
            )
            .unwrap();
        let kernel = Tensor::from_fn(&[3, 3, 2, 4], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let bias = use_bias.then(|| Tensor::from_fn(&[4], |i| 0.3 * i as f32 - 0.1));
        let c = g
            .add_with_params(
                "conv",
                Op::Conv2d(conv_attrs(4, use_bias)),
                &[x],
                Params {
                    kernel: Some(kernel),
                    bias,
                    bn: None,
                },
            )
            .unwrap();
        g.add_with_params(
            "bn",
            Op::BatchNorm(BatchNormAttrs { eps: 1e-3 }),
            &[c],
            Params {
                kernel: None,
                bias: None,
                bn: Some(bn_params(4, 0.7)),
            },
        )
        .unwrap();
        g
    }

    #[test]
    fn folded_graph_is_numerically_identical() {
        for use_bias in [false, true] {
            let g = conv_bn_graph(use_bias);
            let folded = fold_batch_norm(&g).unwrap();
            assert_eq!(folded.len(), 2);
            assert!(!has_batch_norm(&folded));

            let input = Tensor::from_fn(&[6, 6, 2], |i| ((i * 5 % 17) as f32 - 8.0) * 0.25);
            let out_orig = Executor::new(&g).run_single(input.clone()).unwrap();
            let out_fold = Executor::new(&folded).run_single(input).unwrap();
            let bn_id = g.find("bn").unwrap();
            let conv_id = folded.find("conv").unwrap();
            let diff = out_orig[&bn_id].max_abs_diff(&out_fold[&conv_id]).unwrap();
            assert!(diff < 1e-5, "use_bias={use_bias}: diff {diff}");
        }
    }

    #[test]
    fn shape_only_bn_is_dropped() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 2),
                },
                &[],
            )
            .unwrap();
        let c = g
            .add("conv", Op::Conv2d(conv_attrs(4, false)), &[x])
            .unwrap();
        let b = g
            .add("bn", Op::BatchNorm(BatchNormAttrs::default()), &[c])
            .unwrap();
        g.add("relu", Op::Activation(cim_ir::ActFn::Relu), &[b])
            .unwrap();
        let folded = fold_batch_norm(&g).unwrap();
        assert_eq!(folded.len(), 3);
        // relu is now wired directly to the conv.
        let relu = folded.node(folded.find("relu").unwrap()).unwrap();
        assert_eq!(relu.inputs, vec![folded.find("conv").unwrap()]);
    }

    #[test]
    fn bn_after_non_base_is_preserved() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 2),
                },
                &[],
            )
            .unwrap();
        let a = g
            .add("relu", Op::Activation(cim_ir::ActFn::Relu), &[x])
            .unwrap();
        g.add("bn", Op::BatchNorm(BatchNormAttrs::default()), &[a])
            .unwrap();
        let folded = fold_batch_norm(&g).unwrap();
        assert!(has_batch_norm(&folded));
    }

    #[test]
    fn bn_with_shared_producer_is_preserved() {
        // conv feeds both a BN and a second consumer; folding would corrupt
        // the second consumer's view.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 2),
                },
                &[],
            )
            .unwrap();
        let c = g
            .add("conv", Op::Conv2d(conv_attrs(4, false)), &[x])
            .unwrap();
        g.add("bn", Op::BatchNorm(BatchNormAttrs::default()), &[c])
            .unwrap();
        g.add("relu", Op::Activation(cim_ir::ActFn::Relu), &[c])
            .unwrap();
        let folded = fold_batch_norm(&g).unwrap();
        assert!(has_batch_norm(&folded));
        assert_eq!(folded.len(), g.len());
    }

    #[test]
    fn mixed_parameter_presence_is_an_error() {
        // BN has params, conv does not.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 2),
                },
                &[],
            )
            .unwrap();
        let c = g
            .add("conv", Op::Conv2d(conv_attrs(4, false)), &[x])
            .unwrap();
        g.add_with_params(
            "bn",
            Op::BatchNorm(BatchNormAttrs::default()),
            &[c],
            Params {
                kernel: None,
                bias: None,
                bn: Some(bn_params(4, 0.0)),
            },
        )
        .unwrap();
        assert!(matches!(
            fold_batch_norm(&g),
            Err(FrontendError::FoldParams { .. })
        ));
    }

    #[test]
    fn bad_bn_dims_rejected() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 2),
                },
                &[],
            )
            .unwrap();
        let kernel = Tensor::zeros(&[3, 3, 2, 4]);
        let c = g
            .add_with_params(
                "conv",
                Op::Conv2d(conv_attrs(4, false)),
                &[x],
                Params::with_kernel(kernel),
            )
            .unwrap();
        // gamma has 3 channels instead of 4.
        let bad = BnParams {
            gamma: Tensor::zeros(&[3]),
            beta: Tensor::zeros(&[4]),
            mean: Tensor::zeros(&[4]),
            var: Tensor::zeros(&[4]),
        };
        g.add_with_params(
            "bn",
            Op::BatchNorm(BatchNormAttrs::default()),
            &[c],
            Params {
                kernel: None,
                bias: None,
                bn: Some(bad),
            },
        )
        .unwrap();
        assert!(matches!(
            fold_batch_norm(&g),
            Err(FrontendError::FoldParams { .. })
        ));
    }

    #[test]
    fn dense_bn_folds_numerically() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(1, 1, 5),
                },
                &[],
            )
            .unwrap();
        let kernel = Tensor::from_fn(&[5, 3], |i| (i as f32 - 7.0) * 0.2);
        let d = g
            .add_with_params(
                "dense",
                Op::Dense(cim_ir::DenseAttrs {
                    units: 3,
                    use_bias: false,
                }),
                &[x],
                Params::with_kernel(kernel),
            )
            .unwrap();
        g.add_with_params(
            "bn",
            Op::BatchNorm(BatchNormAttrs { eps: 1e-3 }),
            &[d],
            Params {
                kernel: None,
                bias: None,
                bn: Some(bn_params(3, 0.2)),
            },
        )
        .unwrap();
        let folded = fold_batch_norm(&g).unwrap();
        let input = Tensor::from_fn(&[1, 1, 5], |i| i as f32 * 0.5 - 1.0);
        let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
        let o2 = Executor::new(&folded).run_single(input).unwrap();
        let diff = o1[&g.find("bn").unwrap()]
            .max_abs_diff(&o2[&folded.find("dense").unwrap()])
            .unwrap();
        assert!(diff < 1e-5);
    }
}
