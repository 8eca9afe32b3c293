//! Higher-order orthogonal iteration (HOOI), Alg. 2 of the paper.
//!
//! HOOI is an alternating optimization that refines an initial Tucker
//! decomposition (here the ST-HOSVD). Each outer iteration cycles through the
//! modes: for mode `n`, the tensor is multiplied by every *other* factor
//! transposed, the Gram matrix of the result's mode-n unfolding is formed, and
//! its leading eigenvectors replace `U⁽ⁿ⁾`. The fit is tracked through
//! `‖X‖² − ‖G‖²` (line 10), which decreases monotonically.

use crate::sthosvd::{st_hosvd_ctx, SthosvdOptions};
use crate::tucker::TuckerTensor;
use crate::validate;
use serde::{Deserialize, Serialize};
use tucker_exec::{ExecContext, Workspace};
use tucker_linalg::eig::sym_eig_desc;
use tucker_linalg::Matrix;
use tucker_obs::metrics::Counter;
use tucker_tensor::{gram_ctx, ttm_ctx, ttm_into_ctx, DenseTensor, TtmTranspose};

/// Options controlling HOOI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HooiOptions {
    /// Options for the ST-HOSVD initialization (rank selection + mode order).
    pub init: SthosvdOptions,
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Stop when the decrease of `‖X‖² − ‖G‖²` between outer iterations falls
    /// below this fraction of `‖X‖²`.
    pub fit_tolerance: f64,
}

impl HooiOptions {
    /// Tolerance-driven compression, at most `max_iterations` HOOI sweeps.
    pub fn with_tolerance(eps: f64, max_iterations: usize) -> Self {
        HooiOptions {
            init: SthosvdOptions::with_tolerance(eps),
            max_iterations,
            fit_tolerance: 1e-10,
        }
    }

    /// Fixed ranks, at most `max_iterations` HOOI sweeps.
    pub fn with_ranks(ranks: Vec<usize>, max_iterations: usize) -> Self {
        HooiOptions {
            init: SthosvdOptions::with_ranks(ranks),
            max_iterations,
            fit_tolerance: 1e-10,
        }
    }
}

/// Result of a HOOI run.
#[derive(Debug, Clone)]
pub struct HooiResult {
    /// The refined decomposition.
    pub tucker: TuckerTensor,
    /// The reduced dimensions (fixed after initialization).
    pub ranks: Vec<usize>,
    /// The value of `‖X‖² − ‖G‖²` after initialization and after each outer
    /// iteration (so `fit_history.len() == iterations + 1`).
    pub fit_history: Vec<f64>,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

impl HooiResult {
    /// The relative reconstruction error estimate derived from the final fit:
    /// `sqrt((‖X‖² − ‖G‖²)/‖X‖²)` — exact for orthonormal factors.
    pub fn relative_error_estimate(&self, norm_x_sq: f64) -> f64 {
        let last = *self.fit_history.last().unwrap_or(&0.0);
        if norm_x_sq <= 0.0 {
            0.0
        } else {
            (last.max(0.0) / norm_x_sq).sqrt()
        }
    }
}

/// Outer HOOI iterations actually executed (convergence may stop early);
/// see `tucker-obs` — driver-level counterpart of the kernel flop counters.
static HOOI_ITERATIONS: Counter = Counter::new("core.hooi.iterations");

/// Computes a Tucker decomposition by HOOI (Alg. 2), initialized with
/// ST-HOSVD, on an explicit execution context.
///
/// The TTM chain of every factor update runs through a [`Workspace`]: the
/// shrinking intermediates of Alg. 2 line 5 ping-pong between recycled
/// buffers instead of allocating `O(iterations × modes²)` fresh tensors.
/// Results are bit-identical to the allocating formulation and across thread
/// counts.
///
/// # Panics
/// Panics on structurally invalid initialization options, with the message
/// of [`validate::validate_sthosvd_inputs`] (see [`st_hosvd_ctx`]).
pub fn hooi_ctx(x: &DenseTensor, opts: &HooiOptions, ctx: &ExecContext) -> HooiResult {
    if let Err(e) = validate::validate_sthosvd_inputs(x.dims(), &opts.init) {
        panic!("hooi: invalid input: {e}");
    }
    let nmodes = x.ndims();
    let _span = tucker_obs::span!("hooi", nmodes = nmodes, threads = ctx.threads());
    let norm_x_sq = x.norm_sq();

    // Line 2: initialize with ST-HOSVD; the ranks are frozen afterwards.
    let init = st_hosvd_ctx(x, &opts.init, ctx);
    let ranks = init.ranks.clone();
    let mut factors: Vec<Matrix> = init.tucker.factors.clone();
    let mut core = init.tucker.core.clone();
    let mut fit_history = vec![norm_x_sq - core.norm_sq()];
    let mut ws = Workspace::new();

    let mut iterations = 0;
    for _ in 0..opts.max_iterations {
        let _iter_span = tucker_obs::span!("hooi.iteration", iteration = iterations);
        HOOI_ITERATIONS.inc();
        // Lines 4–8: update each factor in turn.
        for n in 0..nmodes {
            // Y = X ×_{m≠n} U⁽ᵐ⁾ᵀ, applied in natural order through
            // workspace-recycled intermediates (`None` means "still X").
            let mut cur: Option<DenseTensor> = None;
            for m in (0..nmodes).filter(|&m| m != n) {
                let src: &DenseTensor = cur.as_ref().unwrap_or(x);
                let mut out_dims = src.dims().to_vec();
                out_dims[m] = ranks[m];
                let len = out_dims.iter().product();
                let mut out = DenseTensor::from_vec(&out_dims, ws.take(len));
                ttm_into_ctx(ctx, src, &factors[m], m, TtmTranspose::Transpose, &mut out);
                if let Some(prev) = cur.take() {
                    ws.give(prev.into_vec());
                }
                cur = Some(out);
            }
            let y: &DenseTensor = cur.as_ref().unwrap_or(x);
            let s = gram_ctx(ctx, y, n);
            let eig = sym_eig_desc(&s);
            factors[n] = eig.leading_vectors(ranks[n]);
            // Line 9 (executed on the last mode): the current Y already has all
            // products except mode n applied, so the new core is Y ×_n U⁽ⁿ⁾ᵀ.
            if n == nmodes - 1 {
                let old = std::mem::replace(
                    &mut core,
                    ttm_ctx(ctx, y, &factors[n], n, TtmTranspose::Transpose),
                );
                ws.give(old.into_vec());
            }
            if let Some(t) = cur {
                ws.give(t.into_vec());
            }
        }
        iterations += 1;
        let fit = norm_x_sq - core.norm_sq();
        let prev = *fit_history.last().unwrap();
        fit_history.push(fit);
        // Line 10: stop when the fit ceases to decrease meaningfully.
        if prev - fit <= opts.fit_tolerance * norm_x_sq {
            break;
        }
    }

    HooiResult {
        tucker: TuckerTensor::new(core, factors),
        ranks,
        fit_history,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::st_hosvd_ctx;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_tensor::{normalized_rms_error, ttm_chain};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    fn low_rank_plus_noise(
        rng: &mut StdRng,
        dims: &[usize],
        ranks: &[usize],
        noise: f64,
    ) -> DenseTensor {
        let core = DenseTensor::from_fn(ranks, |_| rng.gen_range(-1.0..1.0));
        let factors: Vec<Matrix> = dims
            .iter()
            .zip(ranks.iter())
            .map(|(&d, &r)| {
                let m = Matrix::from_fn(d, r, |_, _| rng.gen_range(-1.0..1.0));
                tucker_linalg::qr::householder_qr(&m).q
            })
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let mut x = ttm_chain(&core, &refs, TtmTranspose::NoTranspose);
        if noise > 0.0 {
            let xnorm = x.norm();
            let e = random_tensor(rng, dims);
            let scale = noise * xnorm / e.norm();
            for (xi, ei) in x.as_mut_slice().iter_mut().zip(e.as_slice()) {
                *xi += scale * ei;
            }
        }
        x
    }

    #[test]
    fn exact_low_rank_recovery() {
        let mut rng = StdRng::seed_from_u64(90);
        let x = low_rank_plus_noise(&mut rng, &[10, 9, 8], &[3, 3, 3], 0.0);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_tolerance(1e-6, 3),
            ExecContext::global(),
        );
        let rec = result.tucker.reconstruct();
        assert!(normalized_rms_error(&x, &rec) < 1e-6);
        assert_eq!(result.ranks, vec![3, 3, 3]);
    }

    #[test]
    fn fit_decreases_monotonically() {
        let mut rng = StdRng::seed_from_u64(91);
        let x = low_rank_plus_noise(&mut rng, &[10, 10, 10], &[3, 3, 3], 0.3);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_ranks(vec![3, 3, 3], 6),
            ExecContext::global(),
        );
        for w in result.fit_history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * x.norm_sq(),
                "fit increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn hooi_not_worse_than_sthosvd() {
        let mut rng = StdRng::seed_from_u64(92);
        let x = low_rank_plus_noise(&mut rng, &[12, 10, 9], &[4, 3, 3], 0.5);
        let st = st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(vec![4, 3, 3]),
            ExecContext::global(),
        );
        let ho = hooi_ctx(
            &x,
            &HooiOptions::with_ranks(vec![4, 3, 3], 5),
            ExecContext::global(),
        );
        let st_err = normalized_rms_error(&x, &st.tucker.reconstruct());
        let ho_err = normalized_rms_error(&x, &ho.tucker.reconstruct());
        assert!(ho_err <= st_err + 1e-10);
    }

    #[test]
    fn fit_matches_reconstruction_error() {
        // ‖X‖² − ‖G‖² == ‖X − G × {U}‖² for orthonormal factors.
        let mut rng = StdRng::seed_from_u64(93);
        let x = low_rank_plus_noise(&mut rng, &[9, 8, 7], &[3, 3, 3], 0.4);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_ranks(vec![3, 3, 3], 3),
            ExecContext::global(),
        );
        let rec = result.tucker.reconstruct();
        let direct = x.sub(&rec).norm_sq();
        let fit = *result.fit_history.last().unwrap();
        assert!((direct - fit).abs() < 1e-8 * x.norm_sq());
    }

    #[test]
    fn zero_iterations_allowed() {
        let mut rng = StdRng::seed_from_u64(94);
        let x = random_tensor(&mut rng, &[6, 6, 6]);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_ranks(vec![2, 2, 2], 0),
            ExecContext::global(),
        );
        assert_eq!(result.iterations, 0);
        assert_eq!(result.fit_history.len(), 1);
        // Result equals the ST-HOSVD initialization.
        let st = st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(vec![2, 2, 2]),
            ExecContext::global(),
        );
        let a = result.tucker.reconstruct();
        let b = st.tucker.reconstruct();
        assert!(normalized_rms_error(&a, &b) < 1e-12);
    }

    #[test]
    fn converges_early_when_fit_stalls() {
        let mut rng = StdRng::seed_from_u64(95);
        let x = low_rank_plus_noise(&mut rng, &[8, 8, 8], &[2, 2, 2], 0.0);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_tolerance(1e-10, 50),
            ExecContext::global(),
        );
        // Exact low-rank data converges immediately; far fewer than 50 sweeps.
        assert!(result.iterations <= 3);
    }

    #[test]
    fn relative_error_estimate_matches_actual() {
        let mut rng = StdRng::seed_from_u64(96);
        let x = low_rank_plus_noise(&mut rng, &[9, 9, 9], &[3, 3, 3], 0.2);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_ranks(vec![3, 3, 3], 4),
            ExecContext::global(),
        );
        let actual = normalized_rms_error(&x, &result.tucker.reconstruct());
        let estimate = result.relative_error_estimate(x.norm_sq());
        assert!((actual - estimate).abs() < 1e-6 * (1.0 + actual));
    }

    #[test]
    fn factors_remain_orthonormal() {
        let mut rng = StdRng::seed_from_u64(97);
        let x = random_tensor(&mut rng, &[8, 7, 6]);
        let result = hooi_ctx(
            &x,
            &HooiOptions::with_ranks(vec![3, 3, 3], 3),
            ExecContext::global(),
        );
        assert!(result.tucker.factors_orthonormal(1e-8));
    }
}
