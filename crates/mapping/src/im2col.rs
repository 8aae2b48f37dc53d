//! im2col GEMM lowering (paper Fig. 3) and crossbar submatrix tiling.
//!
//! A Conv2D is executed on crossbars by unrolling each kernel into a column
//! of a `(KW·KH·KI) × KO` kernel matrix and gathering the matching input
//! patches (im2col). The kernel matrix is then subdivided into
//! crossbar-sized submatrices which are statically programmed into the PEs.
//!
//! The numeric path here exists to *prove* the lowering correct against the
//! direct-convolution reference executor and to count programming writes for
//! the endurance model; the scheduler itself only needs the submatrix
//! *counts* from [`crate::cost`].

use std::ops::Range;

use cim_arch::CrossbarSpec;
use cim_ir::{Conv2dAttrs, FeatureShape, IrError, Tensor};
use serde::{Deserialize, Serialize};

use crate::cost::MappingOptions;
use crate::error::Result;

/// Builds the `(KH·KW·KI) × KO` kernel matrix from a conv kernel tensor of
/// dims `[kh, kw, ci, co]`. Row order is `(ky, kx, ci)`, matching
/// [`im2col_patches`].
///
/// # Errors
///
/// Returns [`IrError::TensorShape`] (wrapped) if the kernel is not rank 4.
pub fn kernel_matrix(kernel: &Tensor) -> Result<Tensor> {
    let dims = kernel.dims();
    let [kh, kw, ci, co] = dims else {
        return Err(IrError::TensorShape {
            detail: format!("conv kernel must be rank 4 [kh, kw, ci, co], got {dims:?}"),
        }
        .into());
    };
    let (kh, kw, ci, co) = (*kh, *kw, *ci, *co);
    let rows = kh * kw * ci;
    let mut m = Tensor::zeros(&[rows, co]);
    for ky in 0..kh {
        for kx in 0..kw {
            for c in 0..ci {
                let r = (ky * kw + kx) * ci + c;
                for o in 0..co {
                    m.as_mut_slice()[r * co + o] = kernel.at4(ky, kx, c, o);
                }
            }
        }
    }
    Ok(m)
}

/// Unrolls `input` (HWC) into the `(OH·OW) × (KH·KW·KI)` patch matrix for a
/// *valid*-padding convolution with the given attributes.
///
/// # Errors
///
/// Returns an error when the input is not rank 3 or the window does not fit.
pub fn im2col_patches(input: &Tensor, attrs: &Conv2dAttrs) -> Result<Tensor> {
    let ishape = input.feature_shape()?;
    let (kh, kw) = attrs.kernel;
    let (sh, sw) = attrs.stride;
    let out = attrs_out_shape(ishape, attrs)?;
    let cols = kh * kw * ishape.c;
    let mut m = Tensor::zeros(&[out.h * out.w, cols]);
    for oy in 0..out.h {
        for ox in 0..out.w {
            let row = oy * out.w + ox;
            for ky in 0..kh {
                for kx in 0..kw {
                    for c in 0..ishape.c {
                        let col = (ky * kw + kx) * ishape.c + c;
                        m.as_mut_slice()[row * cols + col] =
                            input.at3(oy * sh + ky, ox * sw + kx, c);
                    }
                }
            }
        }
    }
    Ok(m)
}

fn attrs_out_shape(ishape: FeatureShape, attrs: &Conv2dAttrs) -> Result<FeatureShape> {
    Ok(cim_ir::Op::Conv2d(*attrs).infer_shape(&[ishape])?)
}

/// Dense matrix multiply `a [m × k] · b [k × n] → [m × n]`.
///
/// # Panics
///
/// Panics if the shapes are not rank 2 or the inner dimensions disagree
/// (internal helper; public callers go through [`conv_via_im2col`]).
fn gemm(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "gemm inner dimensions");
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for l in 0..k {
            let av = a.at2(i, l);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out.as_mut_slice()[i * n + j] += av * b.at2(l, j);
            }
        }
    }
    out
}

/// Executes a valid-padding convolution through the im2col → GEMM path,
/// returning the HWC output feature map.
///
/// # Errors
///
/// Propagates shape errors from the lowering steps.
pub fn conv_via_im2col(input: &Tensor, attrs: &Conv2dAttrs, kernel: &Tensor) -> Result<Tensor> {
    let ishape = input.feature_shape()?;
    let out = attrs_out_shape(ishape, attrs)?;
    let patches = im2col_patches(input, attrs)?;
    let km = kernel_matrix(kernel)?;
    let prod = gemm(&patches, &km);
    Ok(Tensor::from_vec(
        &[out.h, out.w, out.c],
        prod.as_slice().to_vec(),
    )?)
}

/// One crossbar-sized submatrix of a kernel matrix, assigned to one PE.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeAssignment {
    /// PE index within the layer's group (row-major over the tiling grid).
    pub pe: usize,
    /// Kernel-matrix row range held by this PE.
    pub rows: Range<usize>,
    /// Kernel-matrix column range held by this PE.
    pub cols: Range<usize>,
}

impl PeAssignment {
    /// Number of weights (logical cells) this PE stores.
    pub fn weights(&self) -> usize {
        self.rows.len() * self.cols.len()
    }
}

/// Tiles a `rows × cols` kernel matrix into crossbar submatrices (paper
/// Fig. 3). The returned assignments are row-major: PE `v · P_H + h` holds
/// rows `v` and columns `h` of the tiling grid.
///
/// The assignment count always equals [`pe_cost`](crate::cost::pe_cost).
pub fn tile_matrix(
    rows: usize,
    cols: usize,
    xbar: &CrossbarSpec,
    opts: &MappingOptions,
) -> Vec<PeAssignment> {
    let usable_cols = opts.usable_cols(xbar);
    let pv = rows.div_ceil(xbar.rows);
    let ph = cols.div_ceil(usable_cols);
    let mut out = Vec::with_capacity(pv * ph);
    for v in 0..pv {
        let r0 = v * xbar.rows;
        let r1 = ((v + 1) * xbar.rows).min(rows);
        for h in 0..ph {
            let c0 = h * usable_cols;
            let c1 = ((h + 1) * usable_cols).min(cols);
            out.push(PeAssignment {
                pe: v * ph + h,
                rows: r0..r1,
                cols: c0..c1,
            });
        }
    }
    out
}

/// Executes a valid-padding convolution through the *tiled crossbar* path:
/// the kernel matrix is split into crossbar submatrices ([`tile_matrix`]),
/// each PE computes its partial matrix-vector products over its row range
/// (the analog MVM), and the partial sums of vertically stacked PEs are
/// accumulated digitally — exactly the dataflow of the paper's Fig. 3.
///
/// Numerically identical to [`conv_via_im2col`] and to the direct
/// reference executor; the tests prove it, which validates the submatrix
/// mapping end to end.
///
/// # Errors
///
/// Propagates shape errors from the lowering steps.
pub fn conv_via_tiled_crossbars(
    input: &Tensor,
    attrs: &Conv2dAttrs,
    kernel: &Tensor,
    xbar: &CrossbarSpec,
    opts: &MappingOptions,
) -> Result<Tensor> {
    let ishape = input.feature_shape()?;
    let out = attrs_out_shape(ishape, attrs)?;
    let patches = im2col_patches(input, attrs)?; // [oh*ow, K]
    let km = kernel_matrix(kernel)?; // [K, KO]
    let (k_rows, k_cols) = (km.dims()[0], km.dims()[1]);
    let n_vec = patches.dims()[0];

    let mut acc = Tensor::zeros(&[n_vec, k_cols]);
    for a in tile_matrix(k_rows, k_cols, xbar, opts) {
        // One PE: an analog MVM of the input sub-vector against the stored
        // submatrix, for every input vector of the layer.
        for v in 0..n_vec {
            for col in a.cols.clone() {
                let mut partial = 0.0f32;
                for row in a.rows.clone() {
                    partial += patches.at2(v, row) * km.at2(row, col);
                }
                // Digital accumulation across vertical submatrices.
                acc.as_mut_slice()[v * k_cols + col] += partial;
            }
        }
    }
    Ok(Tensor::from_vec(
        &[out.h, out.w, out.c],
        acc.as_slice().to_vec(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{Executor, Graph, Op, Padding, Params};
    use proptest::prelude::*;

    fn attrs(oc: usize, k: (usize, usize), st: (usize, usize)) -> Conv2dAttrs {
        Conv2dAttrs {
            out_channels: oc,
            kernel: k,
            stride: st,
            padding: Padding::Valid,
            use_bias: false,
        }
    }

    #[test]
    fn kernel_matrix_layout() {
        // kernel [2, 1, 2, 3]: rows = ky*1*2 + kx*2 + ci → 4 rows, 3 cols.
        let kernel = Tensor::from_fn(&[2, 1, 2, 3], |i| i as f32);
        let m = kernel_matrix(&kernel).unwrap();
        assert_eq!(m.dims(), &[4, 3]);
        // Row 0 = (ky=0, kx=0, ci=0) = kernel[0,0,0,:] = [0, 1, 2].
        assert_eq!(m.at2(0, 0), 0.0);
        assert_eq!(m.at2(0, 2), 2.0);
        // Row 3 = (ky=1, kx=0, ci=1) = kernel[1,0,1,:] = [9, 10, 11].
        assert_eq!(m.at2(3, 0), 9.0);
    }

    #[test]
    fn kernel_matrix_rejects_non_rank4() {
        assert!(kernel_matrix(&Tensor::zeros(&[3, 3])).is_err());
    }

    #[test]
    fn im2col_equals_direct_convolution() {
        let a = attrs(3, (3, 3), (2, 2));
        let input = Tensor::from_fn(&[9, 7, 2], |i| ((i * 13 % 37) as f32 - 18.0) * 0.1);
        let kernel = Tensor::from_fn(&[3, 3, 2, 3], |i| ((i * 7 % 23) as f32 - 11.0) * 0.05);

        let via_gemm = conv_via_im2col(&input, &a, &kernel).unwrap();

        let mut g = Graph::new("ref");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(9, 7, 2),
                },
                &[],
            )
            .unwrap();
        let c = g
            .add_with_params("conv", Op::Conv2d(a), &[x], Params::with_kernel(kernel))
            .unwrap();
        let direct = Executor::new(&g).run_single(input).unwrap();
        assert!(via_gemm.max_abs_diff(&direct[&c]).unwrap() < 1e-4);
    }

    #[test]
    fn tiling_matches_eq1_and_covers_matrix() {
        let xbar = CrossbarSpec::wan_nature_2022();
        let opts = MappingOptions::default();
        // Table I conv2d_16: 2304 × 512 → 9 × 2 grid.
        let tiles = tile_matrix(2304, 512, &xbar, &opts);
        assert_eq!(tiles.len(), 18);
        let total: usize = tiles.iter().map(PeAssignment::weights).sum();
        assert_eq!(total, 2304 * 512, "tiles cover the whole matrix exactly");
        // Last tile of the first row of the grid spans cols 256..512.
        assert_eq!(tiles[1].cols, 256..512);
        assert_eq!(tiles[1].rows, 0..256);
    }

    #[test]
    fn ragged_edges_are_partial() {
        let xbar = CrossbarSpec::wan_nature_2022();
        let tiles = tile_matrix(288, 64, &xbar, &MappingOptions::default());
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0].rows, 0..256);
        assert_eq!(tiles[1].rows, 256..288);
        assert_eq!(tiles[1].weights(), 32 * 64);
    }

    #[test]
    fn tiled_crossbar_execution_equals_direct() {
        // Use a tiny crossbar so the kernel matrix genuinely splits: 3×3×4
        // input channels → 36 rows over 16-row crossbars = 3 vertical
        // tiles; 5 output channels over 4-column crossbars = 2 horizontal.
        let xbar = CrossbarSpec {
            rows: 16,
            cols: 4,
            ..CrossbarSpec::wan_nature_2022()
        };
        let opts = MappingOptions::default();
        let a = attrs(5, (3, 3), (1, 1));
        let input = Tensor::from_fn(&[7, 8, 4], |i| ((i * 29 % 53) as f32 - 26.0) * 0.04);
        let kernel = Tensor::from_fn(&[3, 3, 4, 5], |i| ((i * 11 % 43) as f32 - 21.0) * 0.02);
        assert_eq!(tile_matrix(36, 5, &xbar, &opts).len(), 6);

        let tiled = conv_via_tiled_crossbars(&input, &a, &kernel, &xbar, &opts).unwrap();
        let direct = conv_via_im2col(&input, &a, &kernel).unwrap();
        assert!(tiled.max_abs_diff(&direct).unwrap() < 1e-4);
    }

    proptest! {
        /// Tiling always covers the matrix exactly once and matches Eq. 1.
        #[test]
        fn prop_tiling_partitions_matrix(
            rows in 1usize..2000,
            cols in 1usize..2000,
            xrows in 16usize..512,
            xcols in 16usize..512,
        ) {
            let xbar = CrossbarSpec {
                rows: xrows,
                cols: xcols,
                ..CrossbarSpec::wan_nature_2022()
            };
            let opts = MappingOptions::default();
            let tiles = tile_matrix(rows, cols, &xbar, &opts);
            prop_assert_eq!(tiles.len(), rows.div_ceil(xrows) * cols.div_ceil(xcols));
            let covered: usize = tiles.iter().map(PeAssignment::weights).sum();
            prop_assert_eq!(covered, rows * cols);
            for t in &tiles {
                prop_assert!(t.rows.len() <= xrows);
                prop_assert!(t.cols.len() <= xcols);
            }
        }

        /// Tiled crossbar execution equals the plain GEMM lowering for
        /// random kernel geometries and random (small) crossbars.
        #[test]
        fn prop_tiled_crossbar_equivalence(
            ih in 4usize..9,
            iw in 4usize..9,
            ci in 1usize..5,
            co in 1usize..7,
            k in 1usize..4,
            xrows in 2usize..20,
            xcols in 1usize..6,
            seed in 0u64..1000,
        ) {
            prop_assume!(ih >= k && iw >= k);
            let a = attrs(co, (k, k), (1, 1));
            let xbar = CrossbarSpec { rows: xrows, cols: xcols, ..CrossbarSpec::wan_nature_2022() };
            let opts = MappingOptions::default();
            let input = Tensor::from_fn(&[ih, iw, ci], |i| {
                (((i as u64 * 2654435761 + seed) % 1000) as f32 - 500.0) * 0.002
            });
            let kernel = Tensor::from_fn(&[k, k, ci, co], |i| {
                (((i as u64 * 40503 + seed) % 1000) as f32 - 500.0) * 0.002
            });
            let tiled = conv_via_tiled_crossbars(&input, &a, &kernel, &xbar, &opts).unwrap();
            let plain = conv_via_im2col(&input, &a, &kernel).unwrap();
            prop_assert!(tiled.max_abs_diff(&plain).unwrap() < 1e-4);
        }

        /// GEMM-lowered convolution equals direct convolution on random
        /// shapes (valid padding).
        #[test]
        fn prop_im2col_equivalence(
            ih in 3usize..10,
            iw in 3usize..10,
            ci in 1usize..4,
            co in 1usize..4,
            k in 1usize..4,
            s in 1usize..3,
            seed in 0u64..1000,
        ) {
            prop_assume!(ih >= k && iw >= k);
            let a = attrs(co, (k, k), (s, s));
            let input = Tensor::from_fn(&[ih, iw, ci], |i| {
                (((i as u64 * 2654435761 + seed) % 1000) as f32 - 500.0) * 0.002
            });
            let kernel = Tensor::from_fn(&[k, k, ci, co], |i| {
                (((i as u64 * 40503 + seed) % 1000) as f32 - 500.0) * 0.002
            });
            let via_gemm = conv_via_im2col(&input, &a, &kernel).unwrap();

            let mut g = Graph::new("ref");
            let x = g.add("input", Op::Input { shape: FeatureShape::new(ih, iw, ci) }, &[]).unwrap();
            let c = g.add_with_params("conv", Op::Conv2d(a), &[x], Params::with_kernel(kernel)).unwrap();
            let direct = Executor::new(&g).run_single(input).unwrap();
            prop_assert!(via_gemm.max_abs_diff(&direct[&c]).unwrap() < 1e-4);
        }
    }
}
