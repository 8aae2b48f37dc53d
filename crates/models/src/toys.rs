//! Small models for examples, quick tests, and numeric verification.


// cim-lint: allow-file(panic-unwrap) model constructors assert statically-valid shapes; a panic here is a bug in the zoo itself
use cim_ir::{
    ActFn, Conv2dAttrs, DenseAttrs, FeatureShape, Graph, NodeId, Op, PadSpec, Padding, Params,
    PoolAttrs, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the paper's Fig. 5 minimal example: two consecutive Conv2D layers
/// joined by a non-base path of bias, activation, pooling, and padding.
///
/// # Examples
///
/// ```
/// let g = cim_models::fig5_example();
/// assert_eq!(g.base_layers().len(), 2);
/// ```
pub fn fig5_example() -> Graph {
    let mut g = Graph::new("fig5");
    let x = g
        .add(
            "input",
            Op::Input {
                shape: FeatureShape::new(10, 10, 3),
            },
            &[],
        )
        .expect("fresh graph accepts input");
    let c1 = g
        .add(
            "conv1",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                padding: Padding::Valid,
                use_bias: false,
            }),
            &[x],
        )
        .expect("valid conv"); // 8×8
    let b = g.add("bias", Op::Bias, &[c1]).expect("valid bias");
    let a = g
        .add("act", Op::Activation(ActFn::Relu), &[b])
        .expect("valid act");
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
        .expect("valid pool"); // 4×4
    let pad = g
        .add("pad", Op::ZeroPad2d(PadSpec::uniform(1)), &[p])
        .expect("valid pad"); // 6×6
    g.add(
        "conv2",
        Op::Conv2d(Conv2dAttrs {
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding::Valid,
            use_bias: false,
        }),
        &[pad],
    )
    .expect("valid conv"); // 4×4
    g
}

/// Builds a LeNet-style toy CNN (28×28×1 input, two convolutions, two
/// pools, a dense classifier). With `seed`, random parameters are attached
/// so the graph is numerically executable.
///
/// # Examples
///
/// ```
/// use cim_ir::{Executor, Tensor};
///
/// # fn main() -> Result<(), cim_ir::IrError> {
/// let g = cim_models::toy_cnn(Some(42));
/// let out = Executor::new(&g).run_single(Tensor::zeros(&[28, 28, 1]))?;
/// assert!(!out.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn toy_cnn(seed: Option<u64>) -> Graph {
    let mut rng = seed.map(StdRng::seed_from_u64);
    let mut g = Graph::new("toy_cnn");
    let x = g
        .add(
            "input",
            Op::Input {
                shape: FeatureShape::new(28, 28, 1),
            },
            &[],
        )
        .expect("fresh graph accepts input");
    let c1 = add_conv(&mut g, &mut rng, "conv1", x, 1, 8, 3, 1);
    let a1 = g
        .add("relu1", Op::Activation(ActFn::Relu), &[c1])
        .expect("valid");
    let p1 = g
        .add(
            "pool1",
            Op::MaxPool2d(PoolAttrs {
                window: (2, 2),
                stride: (2, 2),
                padding: Padding::Valid,
            }),
            &[a1],
        )
        .expect("valid"); // 13×13
    let c2 = add_conv(&mut g, &mut rng, "conv2", p1, 8, 16, 3, 1); // 11×11
    let a2 = g
        .add("relu2", Op::Activation(ActFn::Relu), &[c2])
        .expect("valid");
    let p2 = g
        .add(
            "pool2",
            Op::MaxPool2d(PoolAttrs {
                window: (2, 2),
                stride: (2, 2),
                padding: Padding::Valid,
            }),
            &[a2],
        )
        .expect("valid"); // 5×5
    let f = g.add("flatten", Op::Flatten, &[p2]).expect("valid"); // 400
    let d = add_dense(&mut g, &mut rng, "fc", f, 400, 10);
    g.add("softmax", Op::Softmax, &[d]).expect("valid");
    g
}

/// Builds a two-layer MLP on a `(1, 1, 64)` input — exercises the dense
/// base-layer path of the stack.
pub fn mlp(seed: Option<u64>) -> Graph {
    let mut rng = seed.map(StdRng::seed_from_u64);
    let mut g = Graph::new("mlp");
    let x = g
        .add(
            "input",
            Op::Input {
                shape: FeatureShape::new(1, 1, 64),
            },
            &[],
        )
        .expect("fresh graph accepts input");
    let d1 = add_dense(&mut g, &mut rng, "fc1", x, 64, 32);
    let a = g
        .add("relu", Op::Activation(ActFn::Relu), &[d1])
        .expect("valid");
    let d2 = add_dense(&mut g, &mut rng, "fc2", a, 32, 10);
    g.add("softmax", Op::Softmax, &[d2]).expect("valid");
    g
}

#[allow(clippy::too_many_arguments)] // internal builder helper
fn add_conv(
    g: &mut Graph,
    rng: &mut Option<StdRng>,
    name: &str,
    from: NodeId,
    ci: usize,
    co: usize,
    k: usize,
    s: usize,
) -> NodeId {
    let op = Op::Conv2d(Conv2dAttrs {
        out_channels: co,
        kernel: (k, k),
        stride: (s, s),
        padding: Padding::Valid,
        use_bias: false,
    });
    match rng {
        Some(rng) => {
            let kernel = Tensor::from_fn(&[k, k, ci, co], |_| rng.random_range(-0.5..0.5));
            g.add_with_params(name, op, &[from], Params::with_kernel(kernel))
        }
        None => g.add(name, op, &[from]),
    }
    .expect("valid conv")
}

fn add_dense(
    g: &mut Graph,
    rng: &mut Option<StdRng>,
    name: &str,
    from: NodeId,
    ci: usize,
    units: usize,
) -> NodeId {
    let op = Op::Dense(DenseAttrs {
        units,
        use_bias: false,
    });
    match rng {
        Some(rng) => {
            let kernel = Tensor::from_fn(&[ci, units], |_| rng.random_range(-0.5..0.5));
            g.add_with_params(name, op, &[from], Params::with_kernel(kernel))
        }
        None => g.add(name, op, &[from]),
    }
    .expect("valid dense")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::Executor;

    #[test]
    fn fig5_shapes_match_paper_structure() {
        let g = fig5_example();
        g.validate().unwrap();
        assert_eq!(g.base_layers().len(), 2);
        let conv2 = g.node(g.find("conv2").unwrap()).unwrap();
        assert_eq!(conv2.out_shape, FeatureShape::new(4, 4, 8));
    }

    #[test]
    fn toy_cnn_executes_with_params() {
        let g = toy_cnn(Some(7));
        g.validate().unwrap();
        let input = Tensor::from_fn(&[28, 28, 1], |i| (i % 255) as f32 / 255.0);
        let out = Executor::new(&g).run_single(input).unwrap();
        let sm = &out[&g.find("softmax").unwrap()];
        let sum: f32 = sm.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn toy_cnn_without_params_is_shape_only() {
        let g = toy_cnn(None);
        g.validate().unwrap();
        assert!(g.iter().all(|n| n.params.is_none()));
        assert!(Executor::new(&g)
            .run_single(Tensor::zeros(&[28, 28, 1]))
            .is_err());
    }

    #[test]
    fn seeded_models_are_reproducible() {
        assert_eq!(toy_cnn(Some(3)), toy_cnn(Some(3)));
        assert_ne!(toy_cnn(Some(3)), toy_cnn(Some(4)));
    }

    #[test]
    fn mlp_executes() {
        let g = mlp(Some(1));
        let out = Executor::new(&g)
            .run_single(Tensor::from_fn(&[1, 1, 64], |i| i as f32 * 0.01))
            .unwrap();
        assert_eq!(
            out[&g.find("softmax").unwrap()].feature_shape().unwrap(),
            FeatureShape::new(1, 1, 10)
        );
    }
}
