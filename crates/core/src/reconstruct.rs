//! Full and partial reconstruction from a Tucker decomposition (eq. (1)).
//!
//! A key selling point of Tucker compression for scientific data (Sec. II-C,
//! Sec. VII of the paper) is that analysts can reconstruct *only the part they
//! need* — one species, a few time steps, a cropped or coarsened grid — by
//! multiplying the (small) core with **row subsets** of the factor matrices.
//! The cost and memory then scale with the size of the requested subtensor,
//! not the original data, which is what makes laptop-scale analysis of
//! terabyte simulations possible.

use crate::tucker::TuckerTensor;
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;
use tucker_tensor::{ttm_chain_ctx, DenseTensor, SubtensorSpec, TtmTranspose};

/// Reconstructs the full tensor `X̃ = G × {U⁽ⁿ⁾}`.
pub fn reconstruct_full(t: &TuckerTensor) -> DenseTensor {
    t.reconstruct()
}

/// [`reconstruct_full`] on an explicit execution context.
pub fn reconstruct_full_ctx(t: &TuckerTensor, ctx: &ExecContext) -> DenseTensor {
    t.reconstruct_ctx(ctx)
}

/// Reconstructs only the subtensor selected by `spec`, without ever forming the
/// full tensor: mode `n` of the result contains the rows `spec.mode_indices(n)`
/// of the reconstruction.
pub fn reconstruct_subtensor(t: &TuckerTensor, spec: &SubtensorSpec) -> DenseTensor {
    reconstruct_subtensor_ctx(t, spec, ExecContext::global())
}

/// [`reconstruct_subtensor`] on an explicit execution context.
pub fn reconstruct_subtensor_ctx(
    t: &TuckerTensor,
    spec: &SubtensorSpec,
    ctx: &ExecContext,
) -> DenseTensor {
    assert_eq!(
        spec.ndims(),
        t.ndims(),
        "reconstruct_subtensor: spec must cover every mode"
    );
    let dims = t.original_dims();
    spec.validate(&dims);
    // Select the requested rows of each factor, then apply the usual chain.
    let sub_factors: Vec<Matrix> = t
        .factors
        .iter()
        .enumerate()
        .map(|(n, u)| u.select_rows(spec.mode_indices(n)))
        .collect();
    let refs: Vec<&Matrix> = sub_factors.iter().collect();
    ttm_chain_ctx(ctx, &t.core, &refs, TtmTranspose::NoTranspose)
}

/// Reconstructs a single mode-`n` slice at index `idx` (e.g. one variable or
/// one time step), returning a tensor whose mode `n` has size 1.
pub fn reconstruct_slice(t: &TuckerTensor, mode: usize, idx: usize) -> DenseTensor {
    let dims = t.original_dims();
    let spec = SubtensorSpec::all(&dims).restrict_mode(mode, vec![idx]);
    reconstruct_subtensor(t, &spec)
}

/// Reconstructs a single element `X̃[idx]` by contracting the core against one
/// row of every factor matrix:
/// `X̃[i₁,…,i_N] = Σ_{r₁,…,r_N} G[r₁,…,r_N] · ∏_n U⁽ⁿ⁾[i_n, r_n]`.
///
/// Cost is `O(N · ∏ R_n)` — it never touches the original dimensions, which is
/// what makes random-access queries against a compressed artifact cheap
/// (Sec. II-C of the paper; the `tucker-store` query engine is built on this).
pub fn reconstruct_element(t: &TuckerTensor, idx: &[usize]) -> f64 {
    assert_eq!(
        idx.len(),
        t.ndims(),
        "reconstruct_element: index must cover every mode"
    );
    for (n, (&i, u)) in idx.iter().zip(t.factors.iter()).enumerate() {
        assert!(
            i < u.rows(),
            "reconstruct_element: index {i} out of range in mode {n} (dim {})",
            u.rows()
        );
    }
    let ranks = t.ranks();
    let mut r_idx = vec![0usize; ranks.len()];
    let mut acc = 0.0;
    for &g in t.core.as_slice() {
        let mut w = g;
        for (n, &r) in r_idx.iter().enumerate() {
            w *= t.factors[n].get(idx[n], r);
        }
        acc += w;
        // Advance the core multi-index, first mode fastest (storage order).
        for (k, i) in r_idx.iter_mut().enumerate() {
            *i += 1;
            if *i < ranks[k] {
                break;
            }
            *i = 0;
        }
    }
    acc
}

/// Reconstructs a coarsened view: every `stride`-th index in the given modes,
/// all indices elsewhere. `stride` must be at least 1.
pub fn reconstruct_coarse(t: &TuckerTensor, coarse_modes: &[usize], stride: usize) -> DenseTensor {
    assert!(stride >= 1, "reconstruct_coarse: stride must be >= 1");
    let dims = t.original_dims();
    let mut spec = SubtensorSpec::all(&dims);
    for &m in coarse_modes {
        let indices: Vec<usize> = (0..dims[m]).step_by(stride).collect();
        spec = spec.restrict_mode(m, indices);
    }
    reconstruct_subtensor(t, &spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::{st_hosvd_ctx, SthosvdOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_exec::ExecContext;
    use tucker_tensor::extract_subtensor;

    fn compressed_random(
        rng: &mut StdRng,
        dims: &[usize],
        eps: f64,
    ) -> (DenseTensor, TuckerTensor) {
        let x = DenseTensor::from_fn(dims, |idx| {
            let mut v = 0.0;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 1) as f64 * 0.1 * i as f64).sin();
            }
            v + 0.01 * rng.gen_range(-1.0..1.0)
        });
        let r = st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        );
        (x, r.tucker)
    }

    #[test]
    fn subtensor_matches_full_reconstruction() {
        let mut rng = StdRng::seed_from_u64(100);
        let (_, t) = compressed_random(&mut rng, &[12, 10, 8], 1e-6);
        let full = reconstruct_full(&t);
        let spec = SubtensorSpec::from_indices(vec![vec![0, 5, 11], vec![2, 3], vec![7]]);
        let partial = reconstruct_subtensor(&t, &spec);
        let expected = extract_subtensor(&full, &spec);
        assert_eq!(partial.dims(), expected.dims());
        for (a, b) in partial.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn slice_reconstruction_matches_full() {
        let mut rng = StdRng::seed_from_u64(101);
        let (_, t) = compressed_random(&mut rng, &[9, 8, 7], 1e-6);
        let full = reconstruct_full(&t);
        let slice = reconstruct_slice(&t, 1, 3);
        assert_eq!(slice.dims(), &[9, 1, 7]);
        for i in 0..9 {
            for k in 0..7 {
                assert!((slice.get(&[i, 0, k]) - full.get(&[i, 3, k])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn coarse_reconstruction_strides_spatial_modes() {
        let mut rng = StdRng::seed_from_u64(102);
        let (_, t) = compressed_random(&mut rng, &[10, 10, 6], 1e-6);
        let full = reconstruct_full(&t);
        let coarse = reconstruct_coarse(&t, &[0, 1], 2);
        assert_eq!(coarse.dims(), &[5, 5, 6]);
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..6 {
                    assert!((coarse.get(&[i, j, k]) - full.get(&[2 * i, 2 * j, k])).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn partial_reconstruction_is_close_to_original_subtensor() {
        // With a tight tolerance, a reconstructed subtensor approximates the
        // corresponding slice of the original data.
        let mut rng = StdRng::seed_from_u64(103);
        let (x, t) = compressed_random(&mut rng, &[14, 12, 10], 1e-4);
        let spec = SubtensorSpec::from_ranges(&[(2, 5), (0, 12), (4, 3)]);
        let approx = reconstruct_subtensor(&t, &spec);
        let exact = extract_subtensor(&x, &spec);
        let err = tucker_tensor::relative_error(&exact, &approx);
        assert!(err < 1e-2, "partial reconstruction error too large: {err}");
    }

    #[test]
    fn element_matches_full_reconstruction() {
        let mut rng = StdRng::seed_from_u64(105);
        let (_, t) = compressed_random(&mut rng, &[9, 7, 8], 1e-6);
        let full = reconstruct_full(&t);
        for idx in [[0usize, 0, 0], [8, 6, 7], [4, 3, 2], [1, 6, 0]] {
            let e = reconstruct_element(&t, &idx);
            assert!(
                (e - full.get(&idx)).abs() < 1e-10,
                "element {idx:?}: {e} vs {}",
                full.get(&idx)
            );
        }
    }

    #[test]
    #[should_panic]
    fn element_index_out_of_range_panics() {
        let mut rng = StdRng::seed_from_u64(106);
        let (_, t) = compressed_random(&mut rng, &[5, 5, 5], 1e-3);
        reconstruct_element(&t, &[5, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn wrong_spec_arity_panics() {
        let mut rng = StdRng::seed_from_u64(104);
        let (_, t) = compressed_random(&mut rng, &[6, 6, 6], 1e-3);
        let spec = SubtensorSpec::from_ranges(&[(0, 2), (0, 2)]);
        reconstruct_subtensor(&t, &spec);
    }
}
