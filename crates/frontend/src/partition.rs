//! Partitioning pass (Sec. III-A of the paper, "Partitioning").
//!
//! The NN is divided into *base layers* — operations executed on the
//! crossbar PEs — and *non-base layers*. Padding and bias addition are
//! decoupled from the base layer so that the base layer becomes a pure MVM:
//!
//! * a convolution with `same`/explicit padding becomes
//!   `zero_pad2d → conv(valid)`;
//! * a convolution or dense layer with `use_bias` becomes
//!   `conv → bias` with the bias vector moved onto the new node.
//!
//! This "eliminates redundancy in the graph representation" (paper Fig. 2):
//! the scheduler sees padding and bias exactly once, as explicit non-base
//! nodes, regardless of how the original model expressed them.

use cim_ir::{Op, Params};

use crate::error::Result;
use crate::rewrite::{check_input, Rewriter};

/// Decouples padding and bias from every base layer.
///
/// After this pass every `Conv2d` has [`Padding::Valid`] and
/// `use_bias == false`; padding appears as explicit [`Op::ZeroPad2d`] nodes
/// (named `<layer>_pad`) and biases as [`Op::Bias`] nodes (named
/// `<layer>_bias`). Zero-amount padding (e.g. `same` on a 1×1/1 kernel)
/// inserts no node.
///
/// # Errors
///
/// Propagates graph reconstruction errors ([`FrontendError::Ir`]).
///
/// # Examples
///
/// ```
/// use cim_frontend::decouple;
/// use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
///
/// # fn main() -> Result<(), cim_frontend::FrontendError> {
/// let mut g = Graph::new("net");
/// let x = g.add("input", Op::Input { shape: FeatureShape::new(8, 8, 3) }, &[])?;
/// g.add(
///     "conv",
///     Op::Conv2d(Conv2dAttrs {
///         out_channels: 4,
///         kernel: (3, 3),
///         stride: (1, 1),
///         padding: Padding::Same,
///         use_bias: true,
///     }),
///     &[x],
/// )?;
/// let canon = decouple(&g)?;
/// assert!(canon.find("conv_pad").is_some());
/// assert!(canon.find("conv_bias").is_some());
/// # Ok(())
/// # }
/// ```
///
/// [`Padding::Valid`]: cim_ir::Padding::Valid
/// [`Op::ZeroPad2d`]: cim_ir::Op::ZeroPad2d
/// [`Op::Bias`]: cim_ir::Op::Bias
/// [`FrontendError::Ir`]: crate::FrontendError::Ir
pub fn decouple(g: &cim_ir::Graph) -> Result<cim_ir::Graph> {
    check_input(g)?;
    let mut rw = Rewriter::new(g);
    for node in g.iter() {
        match &node.op {
            Op::Conv2d(attrs) => {
                let in_shape = g.node(node.inputs[0])?.out_shape;
                let pad =
                    attrs
                        .padding
                        .resolve((in_shape.h, in_shape.w), attrs.kernel, attrs.stride)?;
                let mut conv_input = rw.mapped(node.inputs[0]);
                if !pad.is_zero() {
                    conv_input = rw.emit(
                        format!("{}_pad", node.name),
                        Op::ZeroPad2d(pad),
                        &[conv_input],
                        None,
                        None,
                    )?;
                }
                let mut new_attrs = *attrs;
                new_attrs.padding = cim_ir::Padding::Valid;
                new_attrs.use_bias = false;
                let (conv_params, bias_params) = split_bias(node.params.clone());
                let conv_id = rw.emit(
                    node.name.clone(),
                    Op::Conv2d(new_attrs),
                    &[conv_input],
                    conv_params,
                    node.logical_layer,
                )?;
                let out_id = if attrs.use_bias {
                    rw.emit(
                        format!("{}_bias", node.name),
                        Op::Bias,
                        &[conv_id],
                        bias_params,
                        None,
                    )?
                } else {
                    conv_id
                };
                rw.alias(node.id, out_id);
            }
            Op::Dense(attrs) if attrs.use_bias => {
                let mut new_attrs = *attrs;
                new_attrs.use_bias = false;
                let inputs = rw.mapped_inputs(node);
                let (dense_params, bias_params) = split_bias(node.params.clone());
                let dense_id = rw.emit(
                    node.name.clone(),
                    Op::Dense(new_attrs),
                    &inputs,
                    dense_params,
                    node.logical_layer,
                )?;
                let bias_id = rw.emit(
                    format!("{}_bias", node.name),
                    Op::Bias,
                    &[dense_id],
                    bias_params,
                    None,
                )?;
                rw.alias(node.id, bias_id);
            }
            _ => {
                rw.copy(node)?;
            }
        }
    }
    rw.finish()
}

/// Splits `params` into (kernel-only, bias-only) parameter sets.
fn split_bias(params: Option<Params>) -> (Option<Params>, Option<Params>) {
    match params {
        None => (None, None),
        Some(p) => {
            let bias = p.bias.map(|b| Params {
                kernel: None,
                bias: Some(b),
                bn: None,
            });
            let kernel = Params {
                kernel: p.kernel,
                bias: None,
                bn: p.bn,
            };
            let kernel = (kernel.kernel.is_some() || kernel.bn.is_some()).then_some(kernel);
            (kernel, bias)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{Conv2dAttrs, DenseAttrs, Executor, FeatureShape, Graph, Padding, Params, Tensor};

    /// Returns `true` if every base layer in `g` is in partitioned form:
    /// valid padding and no inline bias.
    fn is_partitioned(g: &Graph) -> bool {
        g.iter().all(|n| match &n.op {
            Op::Conv2d(a) => a.padding == Padding::Valid && !a.use_bias,
            Op::Dense(a) => !a.use_bias,
            _ => true,
        })
    }

    fn conv(oc: usize, k: usize, st: usize, padding: Padding, use_bias: bool) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding,
            use_bias,
        })
    }

    #[test]
    fn same_conv_becomes_pad_plus_valid() {
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
        let c = g
            .add("conv", conv(4, 3, 2, Padding::Same, false), &[x])
            .unwrap();
        let out_shape = g.node(c).unwrap().out_shape;
        let p = decouple(&g).unwrap();
        assert!(is_partitioned(&p));
        assert_eq!(p.len(), 3);
        let pad = p.node(p.find("conv_pad").unwrap()).unwrap();
        assert!(matches!(pad.op, Op::ZeroPad2d(_)));
        let pc = p.node(p.find("conv").unwrap()).unwrap();
        assert_eq!(
            pc.out_shape, out_shape,
            "partitioning must not change shapes"
        );
    }

    #[test]
    fn pointwise_same_conv_needs_no_pad_node() {
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
        g.add("conv", conv(4, 1, 1, Padding::Same, false), &[x])
            .unwrap();
        let p = decouple(&g).unwrap();
        assert_eq!(p.len(), 2, "1×1/1 same padding is zero — no pad node");
        assert!(is_partitioned(&p));
    }

    #[test]
    fn bias_moves_to_new_node() {
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
        let kernel = Tensor::from_fn(&[3, 3, 3, 4], |i| i as f32 * 0.01);
        let bias = Tensor::from_fn(&[4], |i| i as f32);
        g.add_with_params(
            "conv",
            conv(4, 3, 1, Padding::Valid, true),
            &[x],
            Params {
                kernel: Some(kernel),
                bias: Some(bias.clone()),
                bn: None,
            },
        )
        .unwrap();
        let p = decouple(&g).unwrap();
        let b = p.node(p.find("conv_bias").unwrap()).unwrap();
        assert_eq!(b.params.as_ref().unwrap().bias.as_ref().unwrap(), &bias);
        let c = p.node(p.find("conv").unwrap()).unwrap();
        assert!(c.params.as_ref().unwrap().bias.is_none());
        assert!(matches!(c.op, Op::Conv2d(a) if !a.use_bias));
    }

    #[test]
    fn partitioned_graph_is_numerically_identical() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(7, 7, 2),
                },
                &[],
            )
            .unwrap();
        let kernel = Tensor::from_fn(&[3, 3, 2, 3], |i| ((i % 11) as f32 - 5.0) * 0.1);
        let bias = Tensor::from_fn(&[3], |i| 0.7 * i as f32 - 0.4);
        let c = g
            .add_with_params(
                "conv",
                conv(3, 3, 2, Padding::Same, true),
                &[x],
                Params {
                    kernel: Some(kernel),
                    bias: Some(bias),
                    bn: None,
                },
            )
            .unwrap();
        g.add("relu", Op::Activation(cim_ir::ActFn::Relu), &[c])
            .unwrap();

        let p = decouple(&g).unwrap();
        let input = Tensor::from_fn(&[7, 7, 2], |i| ((i * 3 % 19) as f32 - 9.0) * 0.2);
        let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
        let o2 = Executor::new(&p).run_single(input).unwrap();
        let diff = o1[&g.find("relu").unwrap()]
            .max_abs_diff(&o2[&p.find("relu").unwrap()])
            .unwrap();
        assert!(diff < 1e-6);
    }

    #[test]
    fn dense_bias_is_decoupled() {
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
        let kernel = Tensor::from_fn(&[4, 2], |i| i as f32 * 0.3);
        let bias = Tensor::from_fn(&[2], |i| 1.0 + i as f32);
        g.add_with_params(
            "fc",
            Op::Dense(DenseAttrs {
                units: 2,
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
        let p = decouple(&g).unwrap();
        assert!(is_partitioned(&p));
        assert!(p.find("fc_bias").is_some());
        let input = Tensor::from_fn(&[1, 1, 4], |i| i as f32);
        let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
        let o2 = Executor::new(&p).run_single(input).unwrap();
        let diff = o1[&g.find("fc").unwrap()]
            .max_abs_diff(&o2[&p.find("fc_bias").unwrap()])
            .unwrap();
        assert!(diff < 1e-6);
    }

    #[test]
    fn idempotent_on_partitioned_graphs() {
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
        g.add("conv", conv(4, 3, 1, Padding::Same, true), &[x])
            .unwrap();
        let once = decouple(&g).unwrap();
        let twice = decouple(&once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn consumers_follow_the_rewire() {
        // Fan-out from a biased conv: both consumers must read the bias node.
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
        let c = g
            .add("conv", conv(4, 3, 1, Padding::Valid, true), &[x])
            .unwrap();
        g.add("a", Op::Activation(cim_ir::ActFn::Relu), &[c])
            .unwrap();
        g.add("b", Op::Activation(cim_ir::ActFn::Sigmoid), &[c])
            .unwrap();
        let p = decouple(&g).unwrap();
        let bias_id = p.find("conv_bias").unwrap();
        for name in ["a", "b"] {
            assert_eq!(p.node(p.find(name).unwrap()).unwrap().inputs, vec![bias_id]);
        }
    }
}
