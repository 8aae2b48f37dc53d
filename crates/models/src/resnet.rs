//! ResNet-50/101/152 — the paper's deep non-sequential benchmarks
//! (Table II).
//!
//! Standard bottleneck architecture (v1.5 stride placement: the stride-2
//! convolution is the 3×3 of each stage's first block) at 224×224×3, with
//! batch normalization after every convolution and ReLU activations. The
//! global-average-pool / fully-connected classifier head is omitted,
//! matching Table II's base-layer counts (53 / 104 / 155 — convolutions
//! only).


// cim-lint: allow-file(panic-unwrap) model constructors assert statically-valid shapes; a panic here is a bug in the zoo itself
use cim_ir::{
    ActFn, BatchNormAttrs, Conv2dAttrs, FeatureShape, Graph, NodeId, Op, Padding, PoolAttrs,
};

struct Net {
    g: Graph,
    convs: usize,
}

impl Net {
    /// conv → bn, returning the BN output. ReLU is applied by the caller
    /// (block outputs apply it after the residual add).
    fn conv_bn(&mut self, from: NodeId, oc: usize, k: usize, s: usize, tag: &str) -> NodeId {
        self.convs += 1;
        let name = format!("{tag}_conv{}", self.convs);
        let c = self
            .g
            .add(
                &name,
                Op::Conv2d(Conv2dAttrs {
                    out_channels: oc,
                    kernel: (k, k),
                    stride: (s, s),
                    padding: Padding::Same,
                    use_bias: false,
                }),
                &[from],
            )
            .expect("valid conv");
        self.g
            .add(
                format!("{name}_bn"),
                Op::BatchNorm(BatchNormAttrs::default()),
                &[c],
            )
            .expect("valid bn")
    }

    fn relu(&mut self, from: NodeId, name: String) -> NodeId {
        self.g
            .add(name, Op::Activation(ActFn::Relu), &[from])
            .expect("valid activation")
    }

    /// A bottleneck block: 1×1 → 3×3(/s) → 1×1·4, with an optional
    /// projection shortcut (1×1/s) on the skip path.
    fn bottleneck(
        &mut self,
        from: NodeId,
        width: usize,
        stride: usize,
        project: bool,
        tag: &str,
    ) -> NodeId {
        let a = self.conv_bn(from, width, 1, 1, tag);
        let a = self.relu(a, format!("{tag}_relu_a"));
        let b = self.conv_bn(a, width, 3, stride, tag);
        let b = self.relu(b, format!("{tag}_relu_b"));
        let c = self.conv_bn(b, width * 4, 1, 1, tag);
        let shortcut = if project {
            self.conv_bn(from, width * 4, 1, stride, &format!("{tag}_proj"))
        } else {
            from
        };
        let add = self
            .g
            .add(format!("{tag}_add"), Op::Add, &[shortcut, c])
            .expect("matching residual shapes");
        self.relu(add, format!("{tag}_relu_out"))
    }
}

fn resnet(name: &str, blocks: [usize; 4]) -> Graph {
    let mut n = Net {
        g: Graph::new(name),
        convs: 0,
    };
    let x =
        n.g.add(
            "input",
            Op::Input {
                shape: FeatureShape::new(224, 224, 3),
            },
            &[],
        )
        .expect("fresh graph accepts input");
    let stem = n.conv_bn(x, 64, 7, 2, "stem"); // 112×112
    let stem = n.relu(stem, "stem_relu".into());
    let mut t =
        n.g.add(
            "stem_pool",
            Op::MaxPool2d(PoolAttrs {
                window: (3, 3),
                stride: (2, 2),
                padding: Padding::Same,
            }),
            &[stem],
        )
        .expect("valid pool"); // 56×56

    let widths = [64usize, 128, 256, 512];
    for (stage, &num_blocks) in blocks.iter().enumerate() {
        for block in 0..num_blocks {
            let first = block == 0;
            // Stage 0 keeps 56×56 (stride 1); later stages halve on entry.
            let stride = if first && stage > 0 { 2 } else { 1 };
            t = n.bottleneck(
                t,
                widths[stage],
                stride,
                first,
                &format!("s{}b{}", stage + 2, block),
            );
        }
    }
    n.g
}

/// Builds ResNet-50 (53 Conv2D layers, 224×224×3).
///
/// # Examples
///
/// ```
/// let g = cim_models::resnet50();
/// assert_eq!(g.base_layers().len(), 53);
/// ```
pub fn resnet50() -> Graph {
    resnet("resnet50", [3, 4, 6, 3])
}

/// Builds ResNet-101 (104 Conv2D layers, 224×224×3).
///
/// # Examples
///
/// ```
/// let g = cim_models::resnet101();
/// assert_eq!(g.base_layers().len(), 104);
/// ```
pub fn resnet101() -> Graph {
    resnet("resnet101", [3, 4, 23, 3])
}

/// Builds ResNet-152 (155 Conv2D layers, 224×224×3).
///
/// # Examples
///
/// ```
/// let g = cim_models::resnet152();
/// assert_eq!(g.base_layers().len(), 155);
/// ```
pub fn resnet152() -> Graph {
    resnet("resnet152", [3, 8, 36, 3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_mapping::{layer_costs, min_pes, MappingOptions};

    fn pe_min(g: &Graph) -> usize {
        min_pes(
            &layer_costs(
                g,
                &CrossbarSpec::wan_nature_2022(),
                &MappingOptions::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn resnet50_matches_table2() {
        let g = resnet50();
        g.validate().unwrap();
        assert_eq!(g.base_layers().len(), 53);
        assert_eq!(pe_min(&g), 390, "Table II: ResNet50 min required PEs");
    }

    #[test]
    fn resnet101_matches_table2() {
        let g = resnet101();
        g.validate().unwrap();
        assert_eq!(g.base_layers().len(), 104);
        assert_eq!(pe_min(&g), 679, "Table II: ResNet101 min required PEs");
    }

    #[test]
    fn resnet152_matches_table2() {
        let g = resnet152();
        g.validate().unwrap();
        assert_eq!(g.base_layers().len(), 155);
        assert_eq!(pe_min(&g), 936, "Table II: ResNet152 min required PEs");
    }

    #[test]
    fn resnet50_stage_shapes() {
        let g = resnet50();
        let out = g.outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(
            g.node(out[0]).unwrap().out_shape,
            FeatureShape::new(7, 7, 2048),
            "224 → 112 (stem) → 56 (pool) → 28 → 14 → 7"
        );
    }

    #[test]
    fn resnet_is_non_sequential() {
        // Residual adds give nodes with two inputs.
        let g = resnet50();
        assert!(g.iter().any(|n| matches!(n.op, Op::Add)));
        assert!(g.iter().any(|n| n.inputs.len() == 2));
    }

    #[test]
    fn bn_folding_removes_all_batch_norms() {
        let g = resnet50();
        let folded = cim_frontend::fold_batch_norm(&g).unwrap();
        assert!(!folded.iter().any(|n| matches!(n.op, Op::BatchNorm(_))));
        assert_eq!(pe_min(&folded), 390, "folding must not change PE_min");
    }

    #[test]
    fn canonicalization_preserves_costs() {
        let g = resnet50();
        let canon = cim_frontend::canonicalize(&g, &cim_frontend::CanonOptions::default()).unwrap();
        assert_eq!(pe_min(canon.graph()), 390);
        assert_eq!(canon.graph().base_layers().len(), 53);
    }
}
