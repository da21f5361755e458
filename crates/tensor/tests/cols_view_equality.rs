//! Convolution as a layout, pinned bit for bit: a product whose rhs is
//! the column *view* of the padded planes must equal (`f32 ==`) the same
//! product over the materialised `im2col` matrix — only the GEMM's pack
//! step differs — at every stride, padding, filter size, ragged extent
//! and worker budget.
//!
//! Seeded sweep: stride {1, 2} × pad {0, 1, 2} × kernel {1, 3} over
//! geometries whose `N·P·Q` and `C·R·S` are not multiples of any tile or
//! split unit, the `Nn` product (forward, backward-input) and the `Nt`
//! one (weight update) each at budgets 1 / 2 / 4, plus the three conv
//! entry points against their `*_from_cols` oracles and the scatter
//! kernels of [`reference`](procrustes_tensor::reference).

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::kernel::{self, Blueprint};
use procrustes_tensor::reference::{conv2d_backward_input, conv2d_backward_weights};
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols,
    conv2d_backward_weights_from_planes, conv2d_from_cols, conv2d_from_planes, conv_out_dim,
    im2col, PaddedPlanes, Scratch, Tensor,
};

/// A seeded tensor with a `zeros` share of exact zeros (what ReLU
/// leaves of an activation), so the lhs zero-skip runs too.
fn tensor(dims: &[usize], zeros: f64, rng: &mut Xorshift64) -> Tensor {
    Tensor::from_fn(dims, |_| {
        if rng.next_f64() < zeros {
            0.0
        } else {
            rng.next_f32() * 2.0 - 1.0
        }
    })
}

/// `(n, c, h, w)` inputs: odd extents, a single row, and one large
/// enough that its products take the threaded tier at budgets 2 and 4.
const INPUTS: [[usize; 4]; 4] = [[2, 3, 7, 5], [1, 2, 9, 6], [3, 1, 4, 11], [2, 5, 37, 35]];
const BUDGETS: [usize; 3] = [1, 2, 4];

/// Every `(input, kernel, stride, pad)` of the sweep whose filter fits.
fn geometries() -> Vec<([usize; 4], usize, usize, usize)> {
    let mut all = Vec::new();
    for input in INPUTS {
        for kernel in [1, 3] {
            for stride in [1, 2] {
                for pad in [0, 1, 2] {
                    all.push((input, kernel, stride, pad));
                }
            }
        }
    }
    all
}

#[test]
fn view_fed_products_equal_the_products_over_im2col_columns() {
    let mut scratch = Scratch::new();
    let mut rng = Xorshift64::new(0xC015);
    let mut threaded = 0;
    for ([n, c, h, w], kernel, stride, pad) in geometries() {
        let what = format!("{n}x{c}x{h}x{w} k{kernel} s{stride} p{pad}");
        let x = tensor(&[n, c, h, w], 0.4, &mut rng);
        let cols = im2col(&x, kernel, kernel, stride, pad);
        let planes = PaddedPlanes::of_input(&x, kernel, kernel, stride, pad, &mut scratch);
        let view = planes.view();
        let [crs, npq] = [cols.shape().dim(0), cols.shape().dim(1)];
        assert_eq!((view.rows(), view.cols()), (crs, npq), "{what}");
        // 13 output rows: a ragged tail under every register tile.
        let m = 13;
        for budget in BUDGETS {
            // Forward form: [m, C·R·S] · cols.
            let bp = Blueprint::nn(m, crs, npq).with_threads(budget);
            threaded += usize::from(kernel::select(&bp).workers > 1);
            let lhs = tensor(&[m, crs], 0.5, &mut rng);
            let (mut got, mut want) = (vec![f32::NAN; m * npq], vec![f32::NAN; m * npq]);
            kernel::gemm_cols(&bp, &mut got, lhs.data(), &view, &mut scratch);
            kernel::gemm(&bp, &mut want, lhs.data(), cols.data(), &mut scratch);
            assert_eq!(got, want, "{what}: nn at budget {budget}");

            // Weight-update form: [m, N·P·Q] · colsᵀ.
            let bp = Blueprint::nt(m, npq, crs).with_threads(budget);
            threaded += usize::from(kernel::select(&bp).workers > 1);
            let lhs = tensor(&[m, npq], 0.3, &mut rng);
            let (mut got, mut want) = (vec![f32::NAN; m * crs], vec![f32::NAN; m * crs]);
            kernel::gemm_cols(&bp, &mut got, lhs.data(), &view, &mut scratch);
            kernel::gemm(&bp, &mut want, lhs.data(), cols.data(), &mut scratch);
            assert_eq!(got, want, "{what}: nt at budget {budget}");
        }
        planes.recycle(&mut scratch);
    }
    assert!(
        threaded > 0,
        "no product of the sweep took the threaded tier"
    );
}

#[test]
fn conv_entry_points_over_planes_equal_their_column_and_scatter_oracles() {
    let mut scratch = Scratch::new();
    let mut rng = Xorshift64::new(0xC016);
    for ([n, c, h, w], kernel, stride, pad) in geometries() {
        let what = format!("{n}x{c}x{h}x{w} k{kernel} s{stride} p{pad}");
        let k = 6;
        let x = tensor(&[n, c, h, w], 0.4, &mut rng);
        let wts = tensor(&[k, c, kernel, kernel], 0.5, &mut rng);
        let p = conv_out_dim(h, kernel, stride, pad);
        let q = conv_out_dim(w, kernel, stride, pad);
        let dy = tensor(&[n, k, p, q], 0.3, &mut rng);
        let cols = im2col(&x, kernel, kernel, stride, pad);
        let planes = PaddedPlanes::of_input(&x, kernel, kernel, stride, pad, &mut scratch);

        let y = conv2d_from_planes(&wts, &planes, &mut scratch);
        let y_cols = conv2d_from_cols(&wts, cols.data(), n, p, q, &mut scratch);
        assert_eq!(y.shape(), y_cols.shape(), "{what}");
        assert_eq!(y.data(), y_cols.data(), "{what}: forward");

        let dw = conv2d_backward_weights_from_planes(&dy, &planes, &mut scratch);
        let dw_cols =
            conv2d_backward_weights_from_cols(&dy, cols.data(), c, kernel, kernel, &mut scratch);
        let dw_scatter = conv2d_backward_weights(&x, &dy, kernel, kernel, stride, pad);
        assert_eq!(dw.shape(), dw_scatter.shape(), "{what}");
        assert_eq!(
            dw.data(),
            dw_cols.data(),
            "{what}: weight update vs columns"
        );
        assert_eq!(
            dw.data(),
            dw_scatter.data(),
            "{what}: weight update vs scatter"
        );

        let dx = conv2d_backward_input_gemm(&dy, &wts, h, w, stride, pad, &mut scratch);
        let dx_scatter = conv2d_backward_input(&dy, &wts, h, w, stride, pad);
        assert_eq!(dx.shape(), dx_scatter.shape(), "{what}");
        assert_eq!(dx.data(), dx_scatter.data(), "{what}: backward-input");

        planes.recycle(&mut scratch);
        for t in [y, y_cols, dw, dw_cols, dx] {
            scratch.recycle(t);
        }
    }
}

/// A layer keeps its planes across steps and refills them: the refilled
/// planes must read as the new input's columns, and the refill must not
/// take anything from the pool.
#[test]
fn refilled_planes_read_as_the_new_input() {
    let mut scratch = Scratch::new();
    let mut rng = Xorshift64::new(0xC017);
    let wts = tensor(&[4, 3, 3, 3], 0.2, &mut rng);
    let first = tensor(&[2, 3, 6, 7], 0.0, &mut rng);
    let mut planes = PaddedPlanes::of_input(&first, 3, 3, 1, 1, &mut scratch);
    let second = tensor(&[2, 3, 6, 7], 0.6, &mut rng);
    let pooled = scratch.pooled_buffers();
    planes.refill(&second);
    assert_eq!(scratch.pooled_buffers(), pooled);
    let cols = im2col(&second, 3, 3, 1, 1);
    let y = conv2d_from_planes(&wts, &planes, &mut scratch);
    let want = conv2d_from_cols(&wts, cols.data(), 2, 6, 7, &mut scratch);
    assert_eq!(y.data(), want.data());
}
