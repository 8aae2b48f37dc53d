//! Spatial region (rectangle) arithmetic and per-operation region
//! propagation.
//!
//! This module is the machinery behind CLSA-CIM's Stage II ("determine
//! dependencies", Sec. IV): an OFM set is a hyperrectangle, and the two
//! corner points describing it are propagated along the non-base-layer path
//! between consecutive base layers to find which producer sets influence
//! which consumer sets.
//!
//! Two directions are provided for every op:
//!
//! * [`input_region`] — *backward*: the input region required to compute a
//!   given output region (receptive-field arithmetic). This is exact.
//! * [`output_region`] — *forward*: the output region that a given input
//!   region can influence. Used for soundness checks and buffer-lifetime
//!   analysis.
//!
//! For globally-coupled ops (dense, flatten, global pooling, softmax) both
//! directions conservatively return the full feature map.

use serde::{Deserialize, Serialize};

use crate::ops::{Axis, Op};
use crate::shape::FeatureShape;

/// An inclusive spatial rectangle `[y0..=y1] × [x0..=x1]` in H/W
/// coordinates of a feature map (channels always span the full depth — the
/// minimum MVM unit produces a complete `(1, 1, OC)` vector, Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// First row.
    pub y0: usize,
    /// First column.
    pub x0: usize,
    /// Last row (inclusive).
    pub y1: usize,
    /// Last column (inclusive).
    pub x1: usize,
}

impl Rect {
    /// Creates a rectangle from inclusive corners.
    ///
    /// # Panics
    ///
    /// Panics if `y0 > y1` or `x0 > x1`.
    pub fn new(y0: usize, x0: usize, y1: usize, x1: usize) -> Self {
        assert!(
            y0 <= y1 && x0 <= x1,
            "degenerate rect ({y0},{x0})..({y1},{x1})"
        );
        Self { y0, x0, y1, x1 }
    }

    /// The full spatial extent of a feature map.
    pub fn full(shape: FeatureShape) -> Self {
        Self::new(0, 0, shape.h - 1, shape.w - 1)
    }

    /// A single pixel.
    pub fn pixel(y: usize, x: usize) -> Self {
        Self::new(y, x, y, x)
    }

    /// Number of rows.
    pub const fn height(&self) -> usize {
        self.y1 - self.y0 + 1
    }

    /// Number of columns.
    pub const fn width(&self) -> usize {
        self.x1 - self.x0 + 1
    }

    /// Number of spatial positions covered.
    pub const fn area(&self) -> usize {
        self.height() * self.width()
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let y0 = self.y0.max(other.y0);
        let x0 = self.x0.max(other.x0);
        let y1 = self.y1.min(other.y1);
        let x1 = self.x1.min(other.x1);
        (y0 <= y1 && x0 <= x1).then(|| Rect::new(y0, x0, y1, x1))
    }

    /// Returns `true` if the rectangles share at least one position.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// Returns `true` if `other` lies fully inside `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        self.y0 <= other.y0 && self.x0 <= other.x0 && self.y1 >= other.y1 && self.x1 >= other.x1
    }

    /// Returns `true` if the pixel `(y, x)` lies inside.
    pub fn contains_pixel(&self, y: usize, x: usize) -> bool {
        self.y0 <= y && y <= self.y1 && self.x0 <= x && x <= self.x1
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}..={}, {}..={}]", self.y0, self.y1, self.x0, self.x1)
    }
}

/// Backward window mapping along one axis: output range `[o0, o1]` of a
/// windowed op (window `k`, stride `s`, leading padding `p`) requires input
/// range `[o0*s - p, o1*s - p + k - 1]`, clamped to `[0, extent)`.
/// Returns `None` if the required range lies entirely in the padding.
fn window_back(
    o0: usize,
    o1: usize,
    k: usize,
    s: usize,
    p: usize,
    extent: usize,
) -> Option<(usize, usize)> {
    let lo = (o0 * s).saturating_sub(p);
    let hi_unclamped = o1 * s + k - 1;
    if hi_unclamped < p {
        return None; // entirely above/left of the real data
    }
    let hi = (hi_unclamped - p).min(extent - 1);
    (lo < extent).then_some((lo, hi))
}

/// Forward window mapping along one axis: input range `[i0, i1]` influences
/// output positions `o` with `o*s - p <= i1` and `o*s - p + k - 1 >= i0`,
/// clamped to `[0, out_extent)`.
fn window_fwd(
    i0: usize,
    i1: usize,
    k: usize,
    s: usize,
    p: usize,
    out_extent: usize,
) -> Option<(usize, usize)> {
    // o >= ceil((i0 + p - k + 1) / s), o <= floor((i1 + p) / s)
    let lo_num = (i0 + p).saturating_sub(k - 1);
    let lo = lo_num.div_ceil(s);
    let hi = (i1 + p) / s;
    if lo >= out_extent || hi < lo {
        return None;
    }
    Some((lo, hi.min(out_extent - 1)))
}

/// Computes the input region of input `input_idx` required to produce
/// `out` for operation `op`.
///
/// `in_shapes` are the producer shapes and `out_shape` the node's output
/// shape (used to resolve `same` padding and concat offsets).
///
/// Returns `None` when this input does not contribute to the requested
/// output region (e.g. a disjoint branch of an H-axis concat, or a region
/// that lies entirely inside explicit zero padding).
///
/// # Panics
///
/// Panics if `input_idx` is out of range for the operation or `out` exceeds
/// `out_shape` (internal invariants; callers pass validated graphs).
pub fn input_region(
    op: &Op,
    out: Rect,
    in_shapes: &[FeatureShape],
    input_idx: usize,
    out_shape: FeatureShape,
) -> Option<Rect> {
    debug_assert!(
        out.y1 < out_shape.h && out.x1 < out_shape.w,
        "rect {out} outside {out_shape}"
    );
    let ishape = in_shapes[input_idx];
    match op {
        Op::Input { .. } => None,
        Op::Bias
        | Op::BatchNorm(_)
        | Op::Activation(_)
        | Op::Softmax
        | Op::Quantize(_)
        | Op::Add => Some(out),
        Op::Conv2d(a) => {
            let pad = a
                .padding
                .resolve((ishape.h, ishape.w), a.kernel, a.stride)
                .expect("validated conv attrs"); // cim-lint: allow(panic-unwrap) attrs validated at graph construction
            let (y0, y1) = window_back(out.y0, out.y1, a.kernel.0, a.stride.0, pad.top, ishape.h)?;
            let (x0, x1) = window_back(out.x0, out.x1, a.kernel.1, a.stride.1, pad.left, ishape.w)?;
            Some(Rect::new(y0, x0, y1, x1))
        }
        Op::MaxPool2d(a) | Op::AvgPool2d(a) => {
            let pad = a
                .padding
                .resolve((ishape.h, ishape.w), a.window, a.stride)
                .expect("validated pool attrs"); // cim-lint: allow(panic-unwrap) attrs validated at graph construction
            let (y0, y1) = window_back(out.y0, out.y1, a.window.0, a.stride.0, pad.top, ishape.h)?;
            let (x0, x1) = window_back(out.x0, out.x1, a.window.1, a.stride.1, pad.left, ishape.w)?;
            Some(Rect::new(y0, x0, y1, x1))
        }
        Op::ZeroPad2d(p) => {
            // Input occupies rows [p.top, p.top + ih) of the output.
            let data = Rect::new(p.top, p.left, p.top + ishape.h - 1, p.left + ishape.w - 1);
            let hit = out.intersect(&data)?;
            Some(Rect::new(
                hit.y0 - p.top,
                hit.x0 - p.left,
                hit.y1 - p.top,
                hit.x1 - p.left,
            ))
        }
        Op::Concat(axis) => {
            // Branch `input_idx` owns a contiguous span along `axis`.
            let mut off = 0usize;
            for s in &in_shapes[..input_idx] {
                off += match axis {
                    Axis::H => s.h,
                    Axis::W => s.w,
                    Axis::C => s.c,
                };
            }
            match axis {
                Axis::C => Some(out), // channels always fully consumed
                Axis::H => {
                    let span = Rect::new(off, 0, off + ishape.h - 1, out_shape.w - 1);
                    let hit = out.intersect(&span)?;
                    Some(Rect::new(hit.y0 - off, hit.x0, hit.y1 - off, hit.x1))
                }
                Axis::W => {
                    let span = Rect::new(0, off, out_shape.h - 1, off + ishape.w - 1);
                    let hit = out.intersect(&span)?;
                    Some(Rect::new(hit.y0, hit.x0 - off, hit.y1, hit.x1 - off))
                }
            }
        }
        Op::Upsample2d { factor } => Some(Rect::new(
            out.y0 / factor.0,
            out.x0 / factor.1,
            out.y1 / factor.0,
            out.x1 / factor.1,
        )),
        Op::Slice(a) => Some(Rect::new(
            out.y0 + a.offset.0,
            out.x0 + a.offset.1,
            out.y1 + a.offset.0,
            out.x1 + a.offset.1,
        )),
        Op::Dense(_) | Op::Flatten | Op::GlobalAvgPool => Some(Rect::full(ishape)),
    }
}

/// Computes the output region that input region `inp` of input `input_idx`
/// can influence for operation `op` (forward direction).
///
/// Returns `None` when the input region cannot influence any output (e.g.
/// sliced away).
pub fn output_region(
    op: &Op,
    inp: Rect,
    in_shapes: &[FeatureShape],
    input_idx: usize,
    out_shape: FeatureShape,
) -> Option<Rect> {
    let ishape = in_shapes[input_idx];
    match op {
        Op::Input { .. } => None,
        Op::Bias
        | Op::BatchNorm(_)
        | Op::Activation(_)
        | Op::Softmax
        | Op::Quantize(_)
        | Op::Add => Some(inp),
        Op::Conv2d(a) => {
            let pad = a
                .padding
                .resolve((ishape.h, ishape.w), a.kernel, a.stride)
                .expect("validated conv attrs"); // cim-lint: allow(panic-unwrap) attrs validated at graph construction
            let (y0, y1) =
                window_fwd(inp.y0, inp.y1, a.kernel.0, a.stride.0, pad.top, out_shape.h)?;
            let (x0, x1) = window_fwd(
                inp.x0,
                inp.x1,
                a.kernel.1,
                a.stride.1,
                pad.left,
                out_shape.w,
            )?;
            Some(Rect::new(y0, x0, y1, x1))
        }
        Op::MaxPool2d(a) | Op::AvgPool2d(a) => {
            let pad = a
                .padding
                .resolve((ishape.h, ishape.w), a.window, a.stride)
                .expect("validated pool attrs"); // cim-lint: allow(panic-unwrap) attrs validated at graph construction
            let (y0, y1) =
                window_fwd(inp.y0, inp.y1, a.window.0, a.stride.0, pad.top, out_shape.h)?;
            let (x0, x1) = window_fwd(
                inp.x0,
                inp.x1,
                a.window.1,
                a.stride.1,
                pad.left,
                out_shape.w,
            )?;
            Some(Rect::new(y0, x0, y1, x1))
        }
        Op::ZeroPad2d(p) => Some(Rect::new(
            inp.y0 + p.top,
            inp.x0 + p.left,
            inp.y1 + p.top,
            inp.x1 + p.left,
        )),
        Op::Concat(axis) => {
            let mut off = 0usize;
            for s in &in_shapes[..input_idx] {
                off += match axis {
                    Axis::H => s.h,
                    Axis::W => s.w,
                    Axis::C => s.c,
                };
            }
            match axis {
                Axis::C => Some(inp),
                Axis::H => Some(Rect::new(inp.y0 + off, inp.x0, inp.y1 + off, inp.x1)),
                Axis::W => Some(Rect::new(inp.y0, inp.x0 + off, inp.y1, inp.x1 + off)),
            }
        }
        Op::Upsample2d { factor } => Some(Rect::new(
            inp.y0 * factor.0,
            inp.x0 * factor.1,
            (inp.y1 + 1) * factor.0 - 1,
            (inp.x1 + 1) * factor.1 - 1,
        )),
        Op::Slice(a) => {
            let keep = Rect::new(
                a.offset.0,
                a.offset.1,
                a.offset.0 + a.size.0 - 1,
                a.offset.1 + a.size.1 - 1,
            );
            let hit = inp.intersect(&keep)?;
            Some(Rect::new(
                hit.y0 - a.offset.0,
                hit.x0 - a.offset.1,
                hit.y1 - a.offset.0,
                hit.x1 - a.offset.1,
            ))
        }
        Op::Dense(_) | Op::Flatten | Op::GlobalAvgPool => Some(Rect::full(out_shape)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Conv2dAttrs, PoolAttrs, SliceAttrs};
    use crate::shape::{PadSpec, Padding};

    fn s(h: usize, w: usize, c: usize) -> FeatureShape {
        FeatureShape::new(h, w, c)
    }

    fn conv(k: usize, st: usize, padding: Padding) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: 8,
            kernel: (k, k),
            stride: (st, st),
            padding,
            use_bias: false,
        })
    }

    #[test]
    fn rect_basics() {
        let a = Rect::new(0, 0, 3, 3);
        let b = Rect::new(2, 2, 5, 5);
        assert_eq!(a.area(), 16);
        assert_eq!(a.intersect(&b), Some(Rect::new(2, 2, 3, 3)));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&Rect::new(4, 4, 5, 5)));
        assert!(a.contains(&Rect::new(1, 1, 2, 2)));
        assert!(!a.contains(&b));
        assert!(a.contains_pixel(3, 0));
        assert!(!a.contains_pixel(4, 0));
        assert_eq!(Rect::pixel(2, 3), Rect::new(2, 3, 2, 3));
        assert_eq!(Rect::full(s(4, 6, 1)), Rect::new(0, 0, 3, 5));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(3, 0, 1, 3);
    }

    #[test]
    fn conv_valid_receptive_field() {
        // 3×3/1 valid conv on 8×8: output pixel (0,0) needs input rows 0..=2.
        let op = conv(3, 1, Padding::Valid);
        let r = input_region(&op, Rect::pixel(0, 0), &[s(8, 8, 3)], 0, s(6, 6, 8)).unwrap();
        assert_eq!(r, Rect::new(0, 0, 2, 2));
        let r = input_region(&op, Rect::new(2, 1, 5, 4), &[s(8, 8, 3)], 0, s(6, 6, 8)).unwrap();
        assert_eq!(r, Rect::new(2, 1, 7, 6));
    }

    #[test]
    fn conv_stride2_receptive_field() {
        let op = conv(3, 2, Padding::Valid);
        // input 9×9 -> output 4×4; output row 1 needs input rows 2..=4.
        let r = input_region(&op, Rect::pixel(1, 1), &[s(9, 9, 3)], 0, s(4, 4, 8)).unwrap();
        assert_eq!(r, Rect::new(2, 2, 4, 4));
    }

    #[test]
    fn conv_same_padding_clamps() {
        let op = conv(3, 1, Padding::Same);
        // First output pixel needs only rows 0..=1 (row -1 is padding).
        let r = input_region(&op, Rect::pixel(0, 0), &[s(8, 8, 3)], 0, s(8, 8, 8)).unwrap();
        assert_eq!(r, Rect::new(0, 0, 1, 1));
        // Last pixel clamps at the bottom-right.
        let r = input_region(&op, Rect::pixel(7, 7), &[s(8, 8, 3)], 0, s(8, 8, 8)).unwrap();
        assert_eq!(r, Rect::new(6, 6, 7, 7));
    }

    #[test]
    fn zeropad_pure_padding_region_is_none() {
        let op = Op::ZeroPad2d(PadSpec::uniform(2));
        // Output rows 0..=1 are entirely padding.
        assert_eq!(
            input_region(&op, Rect::new(0, 0, 1, 11), &[s(8, 8, 3)], 0, s(12, 12, 3)),
            None
        );
        // Mixed region clamps to the data part.
        let r = input_region(&op, Rect::new(0, 0, 4, 4), &[s(8, 8, 3)], 0, s(12, 12, 3)).unwrap();
        assert_eq!(r, Rect::new(0, 0, 2, 2));
    }

    #[test]
    fn concat_h_routes_to_owning_branch() {
        let op = Op::Concat(Axis::H);
        let shapes = [s(10, 26, 8), s(16, 26, 8)];
        let out_shape = s(26, 26, 8);
        // Rows 0..=9 belong to branch 0.
        let r = input_region(&op, Rect::new(0, 0, 9, 25), &shapes, 0, out_shape).unwrap();
        assert_eq!(r, Rect::new(0, 0, 9, 25));
        assert_eq!(
            input_region(&op, Rect::new(0, 0, 9, 25), &shapes, 1, out_shape),
            None
        );
        // Rows 10..=25 belong to branch 1 (shifted).
        let r = input_region(&op, Rect::new(10, 0, 25, 25), &shapes, 1, out_shape).unwrap();
        assert_eq!(r, Rect::new(0, 0, 15, 25));
        // A straddling region hits both.
        assert!(input_region(&op, Rect::new(8, 0, 12, 25), &shapes, 0, out_shape).is_some());
        assert!(input_region(&op, Rect::new(8, 0, 12, 25), &shapes, 1, out_shape).is_some());
    }

    #[test]
    fn concat_c_passes_region_to_all_branches() {
        let op = Op::Concat(Axis::C);
        let shapes = [s(26, 26, 128), s(26, 26, 256)];
        let out_shape = s(26, 26, 384);
        let rect = Rect::new(3, 4, 7, 9);
        assert_eq!(input_region(&op, rect, &shapes, 0, out_shape), Some(rect));
        assert_eq!(input_region(&op, rect, &shapes, 1, out_shape), Some(rect));
    }

    #[test]
    fn upsample_and_slice() {
        let up = Op::Upsample2d { factor: (2, 2) };
        let r = input_region(
            &up,
            Rect::new(0, 0, 25, 25),
            &[s(13, 13, 8)],
            0,
            s(26, 26, 8),
        )
        .unwrap();
        assert_eq!(r, Rect::new(0, 0, 12, 12));
        let r = input_region(&up, Rect::new(3, 3, 4, 4), &[s(13, 13, 8)], 0, s(26, 26, 8)).unwrap();
        assert_eq!(r, Rect::new(1, 1, 2, 2));

        let sl = Op::Slice(SliceAttrs {
            offset: (4, 0, 0),
            size: (4, 8, 3),
        });
        let r = input_region(&sl, Rect::new(0, 0, 3, 7), &[s(8, 8, 3)], 0, s(4, 8, 3)).unwrap();
        assert_eq!(r, Rect::new(4, 0, 7, 7));
    }

    #[test]
    fn global_ops_need_everything() {
        let gap = Op::GlobalAvgPool;
        let r = input_region(&gap, Rect::pixel(0, 0), &[s(7, 7, 512)], 0, s(1, 1, 512)).unwrap();
        assert_eq!(r, Rect::full(s(7, 7, 512)));
    }

    #[test]
    fn forward_conv_matches_backward() {
        // For each output pixel, forward(backward(pixel)) must contain it.
        let op = conv(3, 2, Padding::Same);
        let ishape = s(11, 11, 3);
        let oshape = op.infer_shape(&[ishape]).unwrap();
        for y in 0..oshape.h {
            for x in 0..oshape.w {
                let back = input_region(&op, Rect::pixel(y, x), &[ishape], 0, oshape).unwrap();
                let fwd = output_region(&op, back, &[ishape], 0, oshape).unwrap();
                assert!(
                    fwd.contains_pixel(y, x),
                    "pixel ({y},{x}) back {back} fwd {fwd}"
                );
            }
        }
    }

    #[test]
    fn forward_window_edges() {
        // Input pixel 0 with 3×3/2 same (pad 0 top for 8->4): influences outputs 0..=0.
        let op = conv(3, 2, Padding::Valid);
        let ishape = s(9, 9, 1);
        let oshape = op.infer_shape(&[ishape]).unwrap();
        let f = output_region(&op, Rect::pixel(0, 0), &[ishape], 0, oshape).unwrap();
        assert_eq!(f, Rect::pixel(0, 0));
        let f = output_region(&op, Rect::pixel(8, 8), &[ishape], 0, oshape).unwrap();
        assert_eq!(f, Rect::pixel(3, 3));
        // Middle pixel influences two windows per axis.
        let f = output_region(&op, Rect::pixel(4, 4), &[ishape], 0, oshape).unwrap();
        assert_eq!(f, Rect::new(1, 1, 2, 2));
    }

    #[test]
    fn forward_slice_disjoint_is_none() {
        let sl = Op::Slice(SliceAttrs {
            offset: (4, 0, 0),
            size: (4, 8, 3),
        });
        assert_eq!(
            output_region(&sl, Rect::new(0, 0, 3, 7), &[s(8, 8, 3)], 0, s(4, 8, 3)),
            None
        );
        let r = output_region(&sl, Rect::new(3, 0, 5, 7), &[s(8, 8, 3)], 0, s(4, 8, 3)).unwrap();
        assert_eq!(r, Rect::new(0, 0, 1, 7));
    }

    /// Soundness of Stage-II region propagation, checked per operation:
    /// for every output pixel `o` and every input pixel `i` inside
    /// `input_region(op, {o})`, the forward image `output_region(op, {i})`
    /// must contain `o`. This adjointness makes backward propagation a safe
    /// overapproximation of true data flow.
    mod adjointness {
        use super::*;
        use proptest::prelude::*;

        /// Strategy over (op, input shape) pairs covering every op kind
        /// with spatially interesting behaviour.
        fn arb_case() -> impl Strategy<Value = (Op, FeatureShape)> {
            let shape = (4usize..12, 4usize..12, 1usize..4)
                .prop_map(|(h, w, c)| FeatureShape::new(h, w, c));
            let conv =
                (shape, 1usize..4, 1usize..3, proptest::bool::ANY).prop_map(|(sh, k, st, same)| {
                    let padding = if same { Padding::Same } else { Padding::Valid };
                    (
                        Op::Conv2d(Conv2dAttrs {
                            out_channels: 2,
                            kernel: (k, k),
                            stride: (st, st),
                            padding,
                            use_bias: false,
                        }),
                        sh,
                    )
                });
            let shape2 = (4usize..12, 4usize..12, 1usize..4)
                .prop_map(|(h, w, c)| FeatureShape::new(h, w, c));
            let pool = (shape2, 2usize..4, 1usize..3, proptest::bool::ANY).prop_map(
                |(sh, k, st, same)| {
                    let padding = if same { Padding::Same } else { Padding::Valid };
                    (
                        Op::MaxPool2d(PoolAttrs {
                            window: (k, k),
                            stride: (st, st),
                            padding,
                        }),
                        sh,
                    )
                },
            );
            let shape3 = (4usize..12, 4usize..12, 1usize..4)
                .prop_map(|(h, w, c)| FeatureShape::new(h, w, c));
            let pad = (shape3, 0usize..3, 0usize..3, 0usize..3, 0usize..3)
                .prop_map(|(sh, t, b, l, r)| (Op::ZeroPad2d(PadSpec::new(t, b, l, r)), sh));
            let shape4 = (4usize..12, 4usize..12, 1usize..4)
                .prop_map(|(h, w, c)| FeatureShape::new(h, w, c));
            let up = (shape4, 1usize..3, 1usize..3)
                .prop_map(|(sh, fh, fw)| (Op::Upsample2d { factor: (fh, fw) }, sh));
            let shape5 = (4usize..12, 4usize..12, 1usize..4)
                .prop_map(|(h, w, c)| FeatureShape::new(h, w, c));
            let slice = shape5.prop_flat_map(|sh| {
                (0..sh.h, 0..sh.w).prop_flat_map(move |(oy, ox)| {
                    (1..=sh.h - oy, 1..=sh.w - ox).prop_map(move |(szh, szw)| {
                        (
                            Op::Slice(SliceAttrs {
                                offset: (oy, ox, 0),
                                size: (szh, szw, sh.c),
                            }),
                            sh,
                        )
                    })
                })
            });
            let shape6 = (4usize..12, 4usize..12, 1usize..4)
                .prop_map(|(h, w, c)| FeatureShape::new(h, w, c));
            let elementwise = shape6.prop_map(|sh| (Op::Activation(crate::ops::ActFn::Relu), sh));
            prop_oneof![conv, pool, pad, up, slice, elementwise]
        }

        proptest! {
            #[test]
            fn prop_backward_forward_adjoint((op, ishape) in arb_case()) {
                let Ok(oshape) = op.infer_shape(&[ishape]) else {
                    // Window larger than input etc. — nothing to check.
                    return Ok(());
                };
                for oy in 0..oshape.h {
                    for ox in 0..oshape.w {
                        let o = Rect::pixel(oy, ox);
                        let Some(back) = input_region(&op, o, &[ishape], 0, oshape) else {
                            continue; // output comes entirely from padding
                        };
                        prop_assert!(back.y1 < ishape.h && back.x1 < ishape.w);
                        for iy in back.y0..=back.y1 {
                            for ix in back.x0..=back.x1 {
                                let fwd = output_region(
                                    &op,
                                    Rect::pixel(iy, ix),
                                    &[ishape],
                                    0,
                                    oshape,
                                );
                                let covered = fwd.is_some_and(|f| f.contains_pixel(oy, ox));
                                prop_assert!(
                                    covered,
                                    "{}: input ({iy},{ix}) in backward of ({oy},{ox}) \
                                     but forward image misses it",
                                    op.mnemonic()
                                );
                            }
                        }
                    }
                }
            }

            /// The backward region of the full output always covers the
            /// backward region of any sub-rectangle (monotonicity).
            #[test]
            fn prop_backward_monotone((op, ishape) in arb_case()) {
                let Ok(oshape) = op.infer_shape(&[ishape]) else {
                    return Ok(());
                };
                let full_back =
                    input_region(&op, Rect::full(oshape), &[ishape], 0, oshape);
                for oy in 0..oshape.h {
                    let row = Rect::new(oy, 0, oy, oshape.w - 1);
                    if let Some(r) = input_region(&op, row, &[ishape], 0, oshape) {
                        let full = full_back.expect("full output needs some input");
                        prop_assert!(
                            full.contains(&r),
                            "{}: row {oy} backward {r} escapes full backward {full}",
                            op.mnemonic()
                        );
                    }
                }
            }
        }
    }
}
