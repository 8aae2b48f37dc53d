//! Operation set of the NN graph IR.
//!
//! Following the paper's terminology (Sec. III-A), operations are split into
//! *base layers* — those lowered to matrix-vector multiplications on the
//! crossbar PEs ([`Op::Conv2d`], [`Op::Dense`]) — and *non-base layers* —
//! everything else, executed on the per-tile general-purpose execution units
//! (GPEUs).

use serde::{Deserialize, Serialize};

use crate::error::{IrError, Result};
use crate::shape::{window_out_extent, FeatureShape, PadSpec, Padding};

/// Activation function applied element-wise by [`Op::Activation`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActFn {
    /// Identity.
    Linear,
    /// `max(0, x)`.
    Relu,
    /// `x if x > 0 else alpha * x`.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActFn {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActFn::Linear => x,
            ActFn::Relu => x.max(0.0),
            ActFn::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            ActFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActFn::Tanh => x.tanh(),
        }
    }
}

/// Attributes of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dAttrs {
    /// Number of output channels (KO in the paper).
    pub out_channels: usize,
    /// Kernel extent `(kh, kw)`.
    pub kernel: (usize, usize),
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Padding policy. The frontend partitioning pass canonicalizes this to
    /// [`Padding::Valid`] by extracting an explicit [`Op::ZeroPad2d`].
    pub padding: Padding,
    /// Whether a bias is added by the layer itself. Canonicalized to `false`
    /// (explicit [`Op::Bias`]) by the partitioning pass.
    pub use_bias: bool,
}

/// Attributes of a fully-connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DenseAttrs {
    /// Number of output units.
    pub units: usize,
    /// Whether a bias is added by the layer itself.
    pub use_bias: bool,
}

/// Attributes of a pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolAttrs {
    /// Pooling window `(ph, pw)`.
    pub window: (usize, usize),
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Padding policy.
    pub padding: Padding,
}

/// Attributes of batch normalization (inference form).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchNormAttrs {
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Default for BatchNormAttrs {
    fn default() -> Self {
        Self { eps: 1e-3 }
    }
}

/// Attributes of a spatial/channel slice (`tf.slice` equivalent; used by the
/// weight-duplication rewrite of Sec. III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceAttrs {
    /// Start offset `(h, w, c)`.
    pub offset: (usize, usize, usize),
    /// Extent `(h, w, c)`.
    pub size: (usize, usize, usize),
}

/// Axis of an HWC feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    /// Height (rows).
    H,
    /// Width (columns).
    W,
    /// Channels.
    C,
}

/// Fake-quantization attributes recorded by the frontend quantization pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantAttrs {
    /// Quantization scale (step size).
    pub scale: f32,
    /// Zero point in the integer grid.
    pub zero_point: i32,
    /// Bit width of the integer grid.
    pub bits: u8,
}

/// A graph operation.
///
/// Every operation has exactly one output feature map; fan-out is expressed
/// by multiple consumers referencing the same producer node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Graph input placeholder.
    Input {
        /// Shape of the supplied feature map.
        shape: FeatureShape,
    },
    /// 2-D convolution — **base layer**.
    Conv2d(Conv2dAttrs),
    /// Fully-connected layer — **base layer**. Input must be `(1, 1, K)`.
    Dense(DenseAttrs),
    /// Adds a per-channel bias vector.
    Bias,
    /// Batch normalization (inference).
    BatchNorm(BatchNormAttrs),
    /// Element-wise activation.
    Activation(ActFn),
    /// Max pooling.
    MaxPool2d(PoolAttrs),
    /// Average pooling.
    AvgPool2d(PoolAttrs),
    /// Global average pooling to `(1, 1, C)`.
    GlobalAvgPool,
    /// Explicit zero padding.
    ZeroPad2d(PadSpec),
    /// Concatenation along an axis; all other dimensions must match.
    Concat(Axis),
    /// Element-wise addition of two identically-shaped maps.
    Add,
    /// Nearest-neighbour upsampling by integer factors.
    Upsample2d {
        /// Scale factors `(fh, fw)`.
        factor: (usize, usize),
    },
    /// Spatial/channel slice.
    Slice(SliceAttrs),
    /// Flattens to `(1, 1, H*W*C)`.
    Flatten,
    /// Softmax over channels.
    Softmax,
    /// Fake quantization marker (rounds values to the integer grid).
    Quantize(QuantAttrs),
}

impl Op {
    /// Short lowercase mnemonic used in names, DOT output and errors.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Conv2d(_) => "conv2d",
            Op::Dense(_) => "dense",
            Op::Bias => "bias",
            Op::BatchNorm(_) => "batch_norm",
            Op::Activation(_) => "activation",
            Op::MaxPool2d(_) => "max_pool2d",
            Op::AvgPool2d(_) => "avg_pool2d",
            Op::GlobalAvgPool => "global_avg_pool",
            Op::ZeroPad2d(_) => "zero_pad2d",
            Op::Concat(_) => "concat",
            Op::Add => "add",
            Op::Upsample2d { .. } => "upsample2d",
            Op::Slice(_) => "slice",
            Op::Flatten => "flatten",
            Op::Softmax => "softmax",
            Op::Quantize(_) => "quantize",
        }
    }

    /// Returns `true` for *base layers*: operations executed as MVMs on the
    /// crossbar PEs (Sec. III-A).
    pub fn is_base(&self) -> bool {
        matches!(self, Op::Conv2d(_) | Op::Dense(_))
    }

    /// Number of inputs this operation requires; `None` means "one or more"
    /// (variadic, e.g. [`Op::Concat`]).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } => Some(0),
            Op::Add => Some(2),
            Op::Concat(_) => None,
            _ => Some(1),
        }
    }

    /// Infers the output shape from the input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::BadArity`], [`IrError::ShapeMismatch`] or
    /// [`IrError::InvalidAttr`] when the inputs are incompatible with the
    /// operation.
    pub fn infer_shape(&self, inputs: &[FeatureShape]) -> Result<FeatureShape> {
        let op = self.mnemonic();
        match self.arity() {
            Some(n) if inputs.len() != n => {
                return Err(IrError::BadArity {
                    op,
                    expected: match n {
                        0 => "0",
                        1 => "1",
                        2 => "2",
                        _ => "n",
                    },
                    got: inputs.len(),
                });
            }
            None if inputs.is_empty() => {
                return Err(IrError::BadArity {
                    op,
                    expected: ">=1",
                    got: 0,
                });
            }
            _ => {}
        }
        for s in inputs {
            if !s.is_valid() {
                return Err(IrError::ShapeMismatch {
                    op,
                    detail: format!("degenerate input shape {s}"),
                });
            }
        }
        match self {
            Op::Input { shape } => {
                if !shape.is_valid() {
                    return Err(IrError::InvalidAttr {
                        op,
                        detail: format!("degenerate shape {shape}"),
                    });
                }
                Ok(*shape)
            }
            Op::Conv2d(a) => {
                if a.out_channels == 0 {
                    return Err(IrError::InvalidAttr {
                        op,
                        detail: "out_channels must be > 0".into(),
                    });
                }
                let i = inputs[0];
                let pad = a.padding.resolve((i.h, i.w), a.kernel, a.stride)?;
                let (ph, pw) = (i.h + pad.total_h(), i.w + pad.total_w());
                let oh = window_out_extent(ph, a.kernel.0, a.stride.0);
                let ow = window_out_extent(pw, a.kernel.1, a.stride.1);
                match (oh, ow) {
                    (Some(oh), Some(ow)) => Ok(FeatureShape::new(oh, ow, a.out_channels)),
                    _ => Err(IrError::ShapeMismatch {
                        op,
                        detail: format!(
                            "kernel {:?} stride {:?} does not fit input {i}",
                            a.kernel, a.stride
                        ),
                    }),
                }
            }
            Op::Dense(a) => {
                if a.units == 0 {
                    return Err(IrError::InvalidAttr {
                        op,
                        detail: "units must be > 0".into(),
                    });
                }
                let i = inputs[0];
                if i.h != 1 || i.w != 1 {
                    return Err(IrError::ShapeMismatch {
                        op,
                        detail: format!("dense input must be (1, 1, k), got {i}; insert flatten"),
                    });
                }
                Ok(FeatureShape::new(1, 1, a.units))
            }
            Op::Bias | Op::BatchNorm(_) | Op::Activation(_) | Op::Softmax | Op::Quantize(_) => {
                Ok(inputs[0])
            }
            Op::MaxPool2d(a) | Op::AvgPool2d(a) => {
                let i = inputs[0];
                let pad = a.padding.resolve((i.h, i.w), a.window, a.stride)?;
                let (ph, pw) = (i.h + pad.total_h(), i.w + pad.total_w());
                let oh = window_out_extent(ph, a.window.0, a.stride.0);
                let ow = window_out_extent(pw, a.window.1, a.stride.1);
                match (oh, ow) {
                    (Some(oh), Some(ow)) => Ok(FeatureShape::new(oh, ow, i.c)),
                    _ => Err(IrError::ShapeMismatch {
                        op,
                        detail: format!(
                            "window {:?} stride {:?} does not fit input {i}",
                            a.window, a.stride
                        ),
                    }),
                }
            }
            Op::GlobalAvgPool => Ok(FeatureShape::new(1, 1, inputs[0].c)),
            Op::ZeroPad2d(p) => {
                let i = inputs[0];
                Ok(FeatureShape::new(i.h + p.total_h(), i.w + p.total_w(), i.c))
            }
            Op::Concat(axis) => {
                let first = inputs[0];
                let mut out = first;
                for s in &inputs[1..] {
                    match axis {
                        Axis::H => {
                            if s.w != first.w || s.c != first.c {
                                return Err(concat_mismatch(op, first, *s));
                            }
                            out.h += s.h;
                        }
                        Axis::W => {
                            if s.h != first.h || s.c != first.c {
                                return Err(concat_mismatch(op, first, *s));
                            }
                            out.w += s.w;
                        }
                        Axis::C => {
                            if s.h != first.h || s.w != first.w {
                                return Err(concat_mismatch(op, first, *s));
                            }
                            out.c += s.c;
                        }
                    }
                }
                Ok(out)
            }
            Op::Add => {
                if inputs[0] != inputs[1] {
                    return Err(IrError::ShapeMismatch {
                        op,
                        detail: format!("{} vs {}", inputs[0], inputs[1]),
                    });
                }
                Ok(inputs[0])
            }
            Op::Upsample2d { factor } => {
                if factor.0 == 0 || factor.1 == 0 {
                    return Err(IrError::InvalidAttr {
                        op,
                        detail: "factor must be > 0".into(),
                    });
                }
                let i = inputs[0];
                Ok(FeatureShape::new(i.h * factor.0, i.w * factor.1, i.c))
            }
            Op::Slice(a) => {
                let i = inputs[0];
                let (oh, ow, oc) = a.offset;
                let (sh, sw, sc) = a.size;
                if sh == 0 || sw == 0 || sc == 0 {
                    return Err(IrError::InvalidAttr {
                        op,
                        detail: "slice size must be > 0".into(),
                    });
                }
                if oh + sh > i.h || ow + sw > i.w || oc + sc > i.c {
                    return Err(IrError::ShapeMismatch {
                        op,
                        detail: format!(
                            "slice offset {:?} size {:?} exceeds input {i}",
                            a.offset, a.size
                        ),
                    });
                }
                Ok(FeatureShape::new(sh, sw, sc))
            }
            Op::Flatten => {
                let i = inputs[0];
                Ok(FeatureShape::new(1, 1, i.len()))
            }
        }
    }
}

fn concat_mismatch(op: &'static str, a: FeatureShape, b: FeatureShape) -> IrError {
    IrError::ShapeMismatch {
        op,
        detail: format!("incompatible concat inputs {a} and {b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(h: usize, w: usize, c: usize) -> FeatureShape {
        FeatureShape::new(h, w, c)
    }

    fn conv(oc: usize, k: usize, st: usize, padding: Padding) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding,
            use_bias: false,
        })
    }

    #[test]
    fn conv_same_stride2_matches_table1() {
        // conv2d: (416,416,3) -> (208,208,32) with 3×3/2 same.
        let out = conv(32, 3, 2, Padding::Same)
            .infer_shape(&[s(416, 416, 3)])
            .unwrap();
        assert_eq!(out, s(208, 208, 32));
    }

    #[test]
    fn conv_valid_after_explicit_pad_matches_table1() {
        // Partitioned form: pad (417,417,3) then valid conv -> (208,208,32).
        let padded = Op::ZeroPad2d(PadSpec::new(0, 1, 0, 1))
            .infer_shape(&[s(416, 416, 3)])
            .unwrap();
        assert_eq!(padded, s(417, 417, 3));
        let out = conv(32, 3, 2, Padding::Valid)
            .infer_shape(&[padded])
            .unwrap();
        assert_eq!(out, s(208, 208, 32));
    }

    #[test]
    fn conv_rejects_oversized_kernel() {
        assert!(conv(8, 5, 1, Padding::Valid)
            .infer_shape(&[s(3, 3, 1)])
            .is_err());
    }

    #[test]
    fn conv_rejects_zero_channels_and_stride() {
        assert!(conv(0, 3, 1, Padding::Valid)
            .infer_shape(&[s(8, 8, 1)])
            .is_err());
        assert!(conv(4, 3, 0, Padding::Valid)
            .infer_shape(&[s(8, 8, 1)])
            .is_err());
    }

    #[test]
    fn dense_requires_flat_input() {
        let d = Op::Dense(DenseAttrs {
            units: 10,
            use_bias: true,
        });
        assert!(d.infer_shape(&[s(2, 2, 4)]).is_err());
        assert_eq!(d.infer_shape(&[s(1, 1, 16)]).unwrap(), s(1, 1, 10));
    }

    #[test]
    fn pool_same_keeps_ceil_extent() {
        let p = Op::MaxPool2d(PoolAttrs {
            window: (2, 2),
            stride: (2, 2),
            padding: Padding::Same,
        });
        assert_eq!(p.infer_shape(&[s(13, 13, 256)]).unwrap(), s(7, 7, 256));
        // TinyYOLOv3's stride-1 pool keeps the extent.
        let p1 = Op::MaxPool2d(PoolAttrs {
            window: (2, 2),
            stride: (1, 1),
            padding: Padding::Same,
        });
        assert_eq!(p1.infer_shape(&[s(13, 13, 512)]).unwrap(), s(13, 13, 512));
    }

    #[test]
    fn concat_axes() {
        assert_eq!(
            Op::Concat(Axis::C)
                .infer_shape(&[s(26, 26, 128), s(26, 26, 256)])
                .unwrap(),
            s(26, 26, 384)
        );
        assert_eq!(
            Op::Concat(Axis::H)
                .infer_shape(&[s(10, 26, 8), s(16, 26, 8)])
                .unwrap(),
            s(26, 26, 8)
        );
        assert_eq!(
            Op::Concat(Axis::W)
                .infer_shape(&[s(26, 10, 8), s(26, 16, 8)])
                .unwrap(),
            s(26, 26, 8)
        );
        assert!(Op::Concat(Axis::C)
            .infer_shape(&[s(26, 26, 128), s(13, 26, 256)])
            .is_err());
        assert!(Op::Concat(Axis::C).infer_shape(&[]).is_err());
    }

    #[test]
    fn add_requires_equal_shapes() {
        assert_eq!(
            Op::Add.infer_shape(&[s(4, 4, 8), s(4, 4, 8)]).unwrap(),
            s(4, 4, 8)
        );
        assert!(Op::Add.infer_shape(&[s(4, 4, 8), s(4, 4, 9)]).is_err());
        assert!(Op::Add.infer_shape(&[s(4, 4, 8)]).is_err());
    }

    #[test]
    fn slice_bounds_checked() {
        let sl = Op::Slice(SliceAttrs {
            offset: (0, 0, 64),
            size: (26, 26, 64),
        });
        assert_eq!(sl.infer_shape(&[s(26, 26, 128)]).unwrap(), s(26, 26, 64));
        let bad = Op::Slice(SliceAttrs {
            offset: (0, 0, 65),
            size: (26, 26, 64),
        });
        assert!(bad.infer_shape(&[s(26, 26, 128)]).is_err());
    }

    #[test]
    fn upsample_flatten_gap_softmax() {
        assert_eq!(
            Op::Upsample2d { factor: (2, 2) }
                .infer_shape(&[s(13, 13, 128)])
                .unwrap(),
            s(26, 26, 128)
        );
        assert_eq!(
            Op::Flatten.infer_shape(&[s(7, 7, 512)]).unwrap(),
            s(1, 1, 7 * 7 * 512)
        );
        assert_eq!(
            Op::GlobalAvgPool.infer_shape(&[s(7, 7, 2048)]).unwrap(),
            s(1, 1, 2048)
        );
        assert_eq!(
            Op::Softmax.infer_shape(&[s(1, 1, 10)]).unwrap(),
            s(1, 1, 10)
        );
    }

    #[test]
    fn base_layer_classification() {
        assert!(conv(8, 3, 1, Padding::Valid).is_base());
        assert!(Op::Dense(DenseAttrs {
            units: 4,
            use_bias: false
        })
        .is_base());
        assert!(!Op::Add.is_base());
        assert!(!Op::MaxPool2d(PoolAttrs {
            window: (2, 2),
            stride: (2, 2),
            padding: Padding::Valid
        })
        .is_base());
    }

    #[test]
    fn activation_functions() {
        assert_eq!(ActFn::Relu.apply(-1.0), 0.0);
        assert_eq!(ActFn::Relu.apply(2.0), 2.0);
        assert_eq!(ActFn::LeakyRelu(0.1).apply(-2.0), -0.2);
        assert_eq!(ActFn::Linear.apply(-3.5), -3.5);
        assert!((ActFn::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((ActFn::Tanh.apply(0.0)).abs() < 1e-6);
    }
}
