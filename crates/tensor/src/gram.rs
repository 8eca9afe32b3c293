//! Gram matrices of tensor unfoldings: `S = Y(n) · Y(n)ᵀ`.
//!
//! This is the kernel of Alg. 1 line 4 and Alg. 4 line 5 of the paper. The
//! eigenvectors of `S` are the left singular vectors of the unfolding, which is
//! how ST-HOSVD and HOOI obtain factor matrices. With the natural layout, the
//! Gram matrix accumulates one SYRK per contiguous subblock (the row-major
//! `I_n × left` view of the block), and for the first mode the whole buffer is
//! processed with a single transposed GEMM.

use crate::dense::DenseTensor;
use crate::layout::Unfolding;
use tucker_exec::{chunk_ranges, ExecContext};
use tucker_linalg::gemm::{gemm_slices, gemm_slices_ctx, Transpose};
use tucker_linalg::syrk::{syrk_rows_slices, syrk_slices, triangular_scatter_mirror};
use tucker_linalg::Matrix;
use tucker_obs::metrics::Counter;

/// Kernel accounting: symmetric Gram flops are the lower-triangle
/// multiply-adds `(I_n + 1) · |Y|`; the pair kernel is a full rectangular
/// product, `2 · I_n · |W|`.
static GRAM_CALLS: Counter = Counter::new("tensor.gram.calls");
static GRAM_FLOPS: Counter = Counter::new("tensor.gram.flops");

/// Computes the symmetric Gram matrix `S = Y(n) Y(n)ᵀ` of size `I_n × I_n`.
pub fn gram(y: &DenseTensor, mode: usize) -> Matrix {
    gram_ctx(ExecContext::global(), y, mode)
}

/// [`gram`] on an explicit execution context.
pub fn gram_ctx(ctx: &ExecContext, y: &DenseTensor, mode: usize) -> Matrix {
    let dims = y.dims();
    assert!(mode < dims.len(), "gram: mode {mode} out of range");
    let n = dims[mode];
    let mut s = Matrix::zeros(n, n);
    gram_into_ctx(ctx, y, mode, &mut s);
    s
}

/// Accumulating variant: `S ← Y(n) Y(n)ᵀ` written into a preallocated matrix.
pub fn gram_into(y: &DenseTensor, mode: usize, s: &mut Matrix) {
    gram_into_ctx(ExecContext::global(), y, mode, s)
}

/// [`gram_into`] on an explicit execution context.
///
/// Parallelism: the first mode is one large transposed GEMM scattered over
/// row panels of `S`; general modes scatter **area-balanced lower-triangle
/// row ranges** of `S` via [`triangular_scatter_mirror`] — every thread
/// walks all blocks in the same ascending order and owns its rows
/// exclusively, then the strict upper triangle is mirrored once. Each
/// element of `S` accumulates in exactly the sequential order, so results
/// are bit-identical across thread counts.
pub fn gram_into_ctx(ctx: &ExecContext, y: &DenseTensor, mode: usize, s: &mut Matrix) {
    let n = y.dim(mode);
    assert_eq!(s.shape(), (n, n), "gram_into: output must be I_n × I_n");
    s.as_mut_slice().fill(0.0);
    gram_accumulate_ctx(ctx, y, mode, s);
}

/// Accumulating Gram kernel: `S ← S + Y(n) Y(n)ᵀ` on the global pool.
pub fn gram_accumulate(y: &DenseTensor, mode: usize, s: &mut Matrix) {
    gram_accumulate_ctx(ExecContext::global(), y, mode, s)
}

/// [`gram_accumulate`] on an explicit execution context — the streaming
/// building block of the out-of-core ST-HOSVD.
///
/// When `y` is one last-mode slab of a larger tensor and `mode` is **not**
/// the last mode, the slab's unfolding blocks are a contiguous run of the
/// full tensor's blocks, so accumulating consecutive slabs in order performs
/// exactly the per-element additions of [`gram_into_ctx`] on the full tensor:
/// the result is **bit-identical** for every slab width (general modes add
/// one SYRK contribution per block in ascending block order; the first mode
/// splits the GEMM contraction dimension, whose per-element accumulation in
/// `gemm_slices` is a single running sum in ascending order).
pub fn gram_accumulate_ctx(ctx: &ExecContext, y: &DenseTensor, mode: usize, s: &mut Matrix) {
    let dims = y.dims();
    assert!(
        mode < dims.len(),
        "gram_accumulate: mode {mode} out of range"
    );
    let n = dims[mode];
    assert_eq!(
        s.shape(),
        (n, n),
        "gram_accumulate: output must be I_n × I_n"
    );
    let unf = Unfolding::new(dims, mode);
    let data = y.as_slice();
    let ldc = s.cols();

    if n == 0 || y.is_empty() {
        return;
    }

    let _span = tucker_obs::span!("gram", mode = mode, n = n);
    GRAM_CALLS.inc();
    GRAM_FLOPS.add((n as u64 + 1) * (y.len() as u64));

    if unf.left == 1 {
        // First mode: the whole buffer is a column-major I_n × Î_n matrix,
        // i.e. a row-major Î_n × I_n matrix D, and S += Dᵀ·D — one blocked
        // GEMM with beta = 1 (the caller zeroes S, so a single call matches
        // the historical beta = 0 path bit for bit).
        let cols = unf.cols();
        gemm_slices_ctx(
            ctx,
            Transpose::Yes,
            Transpose::No,
            1.0,
            data,
            cols,
            n,
            n,
            data,
            cols,
            n,
            n,
            1.0,
            s.as_mut_slice(),
            ldc,
        );
        return;
    }

    // General mode: accumulate one SYRK contribution per contiguous subblock
    // (each block is a row-major I_n × left matrix with leading dimension
    // `left`).
    let left = unf.left;
    let right = unf.right;
    let work = right.saturating_mul(left).saturating_mul(n * (n + 1) / 2);
    let parts = ctx.partition_for_work(n, work);
    if parts <= 1 {
        for t in 0..right {
            let block = unf.block(data, t);
            syrk_slices(1.0, block, n, left, left, 1.0, s.as_mut_slice(), ldc);
        }
        return;
    }

    triangular_scatter_mirror(ctx, s.as_mut_slice(), n, ldc, parts, |rows, panel| {
        for t in 0..right {
            let block = unf.block(data, t);
            syrk_rows_slices(1.0, block, left, left, rows.clone(), panel, ldc);
        }
    });
}

/// Computes the *non-symmetric* Gram pair `Y(n) · W(n)ᵀ` for two tensors of the
/// same shape. This is the kernel of Alg. 4 line 11, where a processor
/// multiplies its own unfolded block with a block received from another
/// processor in the same mode-n processor "column".
pub fn gram_pair(y: &DenseTensor, w: &DenseTensor, mode: usize) -> Matrix {
    gram_pair_ctx(ExecContext::global(), y, w, mode)
}

/// [`gram_pair`] on an explicit execution context: scatters row ranges of
/// the `ny × nw` result, each thread walking all blocks in ascending order,
/// so results are bit-identical across thread counts.
pub fn gram_pair_ctx(ctx: &ExecContext, y: &DenseTensor, w: &DenseTensor, mode: usize) -> Matrix {
    // The two tensors must agree in every mode except possibly the unfolding
    // mode itself: the distributed Gram (Alg. 4) exchanges local blocks whose
    // mode-n extents can differ by one when P_n does not divide I_n evenly.
    for (m, (&dy, &dw)) in y.dims().iter().zip(w.dims().iter()).enumerate() {
        if m != mode {
            assert_eq!(
                dy, dw,
                "gram_pair: tensors must agree in every non-unfolding mode (mode {m})"
            );
        }
    }
    let ny = y.dim(mode);
    let nw = w.dim(mode);
    let unf_y = Unfolding::new(y.dims(), mode);
    let unf_w = Unfolding::new(w.dims(), mode);
    let mut s = Matrix::zeros(ny, nw);
    let ydata = y.as_slice();
    let wdata = w.as_slice();
    let ldc = s.cols();

    if ny == 0 || nw == 0 || y.is_empty() || w.is_empty() {
        return s;
    }

    let _span = tucker_obs::span!("gram_pair", mode = mode, ny = ny, nw = nw);
    GRAM_CALLS.inc();
    GRAM_FLOPS.add(2 * (ny as u64) * (w.len() as u64));

    if unf_y.left == 1 {
        let cols = unf_y.cols();
        gemm_slices_ctx(
            ctx,
            Transpose::Yes,
            Transpose::No,
            1.0,
            ydata,
            cols,
            ny,
            ny,
            wdata,
            unf_w.cols(),
            nw,
            nw,
            0.0,
            s.as_mut_slice(),
            ldc,
        );
        return s;
    }

    let left = unf_y.left;
    let right = unf_y.right;
    // S += Y_block (ny × left, row-major) · W_blockᵀ, per block, accumulated
    // over one row range of S per thread.
    let block_pair = |rows: std::ops::Range<usize>, panel: &mut [f64]| {
        for t in 0..right {
            let yb = unf_y.block(ydata, t);
            let wb = unf_w.block(wdata, t);
            gemm_slices(
                Transpose::No,
                Transpose::Yes,
                1.0,
                &yb[rows.start * left..],
                rows.len(),
                left,
                left,
                wb,
                nw,
                left,
                left,
                1.0,
                panel,
                ldc,
            );
        }
    };
    let work = right
        .saturating_mul(left)
        .saturating_mul(ny)
        .saturating_mul(nw);
    let parts = ctx.partition_for_work(ny, work);
    if parts <= 1 {
        block_pair(0..ny, s.as_mut_slice());
        return s;
    }
    ctx.for_each_row_panel(s.as_mut_slice(), ldc, chunk_ranges(ny, parts), &block_pair);
    s
}

/// Computes the Gram pair where the two tensors may have different sizes in the
/// *contracted* (non-mode) dimensions is **not** supported; the distributed
/// Gram always exchanges equally-shaped local blocks, matching the paper's
/// uniform block distribution assumption.
///
/// Reference (definition-based) Gram used by the test suite.
pub fn gram_reference(y: &DenseTensor, mode: usize) -> Matrix {
    let unf = Unfolding::new(y.dims(), mode);
    let m = unf.materialize(y);
    tucker_linalg::gemm::gemm(Transpose::No, Transpose::Yes, 1.0, &m, &m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    fn assert_matrix_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "matrix mismatch {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_all_modes() {
        let mut rng = StdRng::seed_from_u64(60);
        let dims = [4usize, 5, 3, 2];
        let y = random_tensor(&mut rng, &dims);
        for mode in 0..4 {
            let fast = gram(&y, mode);
            let slow = gram_reference(&y, mode);
            assert_matrix_close(&fast, &slow, 1e-10);
        }
    }

    #[test]
    fn gram_is_symmetric_psd() {
        let mut rng = StdRng::seed_from_u64(61);
        let y = random_tensor(&mut rng, &[6, 4, 5]);
        for mode in 0..3 {
            let s = gram(&y, mode);
            for i in 0..s.rows() {
                assert!(s.get(i, i) >= -1e-12);
                for j in 0..s.cols() {
                    assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn trace_equals_norm_squared() {
        // trace(Y(n) Y(n)ᵀ) = ‖Y‖² for every mode.
        let mut rng = StdRng::seed_from_u64(62);
        let y = random_tensor(&mut rng, &[3, 7, 4]);
        let ns = y.norm_sq();
        for mode in 0..3 {
            let s = gram(&y, mode);
            let trace: f64 = (0..s.rows()).map(|i| s.get(i, i)).sum();
            assert!((trace - ns).abs() < 1e-10 * (1.0 + ns));
        }
    }

    #[test]
    fn gram_pair_with_self_matches_gram() {
        let mut rng = StdRng::seed_from_u64(63);
        let y = random_tensor(&mut rng, &[4, 3, 5]);
        for mode in 0..3 {
            let s1 = gram(&y, mode);
            let s2 = gram_pair(&y, &y, mode);
            assert_matrix_close(&s1, &s2, 1e-10);
        }
    }

    #[test]
    fn gram_pair_matches_reference() {
        let mut rng = StdRng::seed_from_u64(64);
        let dims = [3usize, 4, 2, 3];
        let y = random_tensor(&mut rng, &dims);
        let w = random_tensor(&mut rng, &dims);
        for mode in 0..4 {
            let s = gram_pair(&y, &w, mode);
            let ym = Unfolding::new(&dims, mode).materialize(&y);
            let wm = Unfolding::new(&dims, mode).materialize(&w);
            let expected = tucker_linalg::gemm::gemm(Transpose::No, Transpose::Yes, 1.0, &ym, &wm);
            assert_matrix_close(&s, &expected, 1e-10);
        }
    }

    #[test]
    fn gram_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(66);
        // Large enough that every mode clears the parallel work threshold.
        let y = random_tensor(&mut rng, &[21, 23, 19, 3]);
        let seq = tucker_exec::ExecContext::new(1);
        for mode in 0..4 {
            let baseline = gram_ctx(&seq, &y, mode);
            for threads in [2usize, 4, 16] {
                let ctx = tucker_exec::ExecContext::new(threads);
                let s = gram_ctx(&ctx, &y, mode);
                assert_eq!(s.as_slice(), baseline.as_slice(), "mode {mode}");
            }
        }
    }

    #[test]
    fn gram_pair_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(67);
        let dims = [18usize, 17, 23];
        let y = random_tensor(&mut rng, &dims);
        let w = random_tensor(&mut rng, &dims);
        let seq = tucker_exec::ExecContext::new(1);
        for mode in 0..3 {
            let baseline = gram_pair_ctx(&seq, &y, &w, mode);
            for threads in [3usize, 8] {
                let ctx = tucker_exec::ExecContext::new(threads);
                let s = gram_pair_ctx(&ctx, &y, &w, mode);
                assert_eq!(s.as_slice(), baseline.as_slice(), "mode {mode}");
            }
        }
    }

    #[test]
    fn slab_accumulation_is_bit_identical_for_every_width() {
        // Accumulating the Gram slab by slab (any slab width, any thread
        // count) must reproduce the full-tensor Gram *bitwise* for every
        // non-last mode — the contract `st_hosvd_streaming_ctx` is built on.
        let mut rng = StdRng::seed_from_u64(68);
        // Large enough that mode 0 clears the parallel GEMM threshold.
        let dims = [19usize, 7, 5, 23];
        let y = random_tensor(&mut rng, &dims);
        let stride = y.last_mode_stride();
        for mode in 0..3 {
            let full = gram(&y, mode);
            for width in [1usize, 3, 23] {
                for threads in [1usize, 4] {
                    let ctx = tucker_exec::ExecContext::new(threads);
                    let mut s = Matrix::zeros(dims[mode], dims[mode]);
                    let mut start = 0;
                    while start < dims[3] {
                        let w = width.min(dims[3] - start);
                        let slab = DenseTensor::from_vec(
                            &[19, 7, 5, w],
                            y.as_slice()[start * stride..(start + w) * stride].to_vec(),
                        );
                        gram_accumulate_ctx(&ctx, &slab, mode, &mut s);
                        start += w;
                    }
                    assert_eq!(
                        s.as_slice(),
                        full.as_slice(),
                        "mode {mode}, width {width}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn additivity_over_blocks() {
        // Splitting a tensor along the last mode and summing the Grams of the
        // pieces equals the Gram of the whole — the property the distributed
        // Gram (Alg. 4) relies on.
        let mut rng = StdRng::seed_from_u64(65);
        let dims = [4usize, 3, 6];
        let y = random_tensor(&mut rng, &dims);
        let full = gram(&y, 0);

        // Split along mode 2 into two halves (contiguous in memory).
        let half_len = y.len() / 2;
        let first = DenseTensor::from_vec(&[4, 3, 3], y.as_slice()[..half_len].to_vec());
        let second = DenseTensor::from_vec(&[4, 3, 3], y.as_slice()[half_len..].to_vec());
        let sum = gram(&first, 0).add(&gram(&second, 0));
        assert_matrix_close(&full, &sum, 1e-10);
    }

    #[test]
    fn two_way_tensor_first_mode() {
        // For a matrix (2-way tensor), gram in mode 0 is X·Xᵀ.
        let x = DenseTensor::from_fn(&[3, 4], |idx| (idx[0] * 4 + idx[1]) as f64);
        let s = gram(&x, 0);
        for i in 0..3 {
            for j in 0..3 {
                let mut expected = 0.0;
                for k in 0..4 {
                    expected += x.get(&[i, k]) * x.get(&[j, k]);
                }
                assert!((s.get(i, j) - expected).abs() < 1e-12);
            }
        }
    }
}
