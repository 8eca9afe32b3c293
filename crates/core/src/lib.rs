//! `tucker-core` — the Tucker tensor decomposition for compression of
//! large-scale scientific data, sequential and distributed.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Austin, Ballard & Kolda, *Parallel Tensor Compression for Large-Scale
//! Scientific Data*, IPDPS 2016):
//!
//! * **Sequential algorithms** — [`sthosvd`] (Alg. 1), [`hooi`](mod@hooi) (Alg. 2),
//!   [`thosvd`] (the classical truncated HOSVD baseline), and
//!   [`reconstruct`] (full and partial reconstruction, eq. (1)).
//! * **Distributed algorithms** — the [`dist`] module provides the
//!   block-distributed tensor (Sec. IV), the parallel TTM / Gram /
//!   eigenvector kernels (Algs. 3–5), and distributed ST-HOSVD / HOOI built
//!   on top of the simulated message-passing runtime in `tucker-distmem`.
//!
//! Each driver has one entry point, which takes an explicit
//! [`ExecContext`](tucker_exec::ExecContext) (`ExecContext::global()` for
//! the whole pool, [`dist::hybrid_ctx`] for a rank's share) and panics on
//! structurally invalid input with the message of the shared [`validate`]
//! checks. `tucker_api::Compressor` runs the same checks up front and
//! returns them as typed errors.
//! * **Compression machinery** — [`rank`] (ε-driven rank selection),
//!   [`error`] (mode-wise error analysis, the error bound eq. (3), and
//!   compression ratios), and [`ordering`] (mode-ordering strategies,
//!   Sec. VIII-C).
//!
//! # Quick start
//!
//! ```
//! use tucker_core::prelude::*;
//! use tucker_tensor::DenseTensor;
//!
//! // A small synthetic 3-way tensor.
//! let x = DenseTensor::from_fn(&[20, 18, 16], |idx| {
//!     let (i, j, k) = (idx[0] as f64, idx[1] as f64, idx[2] as f64);
//!     (0.05 * i).sin() * (0.07 * j).cos() + 0.01 * k
//! });
//!
//! // Compress to a relative error of 1e-4.
//! let opts = SthosvdOptions::with_tolerance(1e-4);
//! let result = st_hosvd_ctx(&x, &opts, ExecContext::global());
//!
//! // Reconstruct and check the error.
//! let x_hat = result.tucker.reconstruct();
//! let err = tucker_tensor::normalized_rms_error(&x, &x_hat);
//! assert!(err <= 1e-4);
//! assert!(result.tucker.compression_ratio(x.dims()) > 1.0);
//! ```

pub mod dist;
pub mod error;
pub mod hooi;
pub mod ordering;
pub mod rank;
pub mod reconstruct;
pub mod sthosvd;
pub mod streaming;
pub mod thosvd;
pub mod tucker;
pub mod validate;

pub use error::{compression_ratio, error_bound, mode_wise_error_curves, ModeErrorCurve};
pub use hooi::{hooi_ctx, HooiOptions, HooiResult};
pub use ordering::ModeOrder;
pub use rank::{select_rank_by_threshold, RankSelection};
pub use reconstruct::{
    reconstruct_element, reconstruct_full, reconstruct_full_ctx, reconstruct_subtensor,
    reconstruct_subtensor_ctx,
};
pub use sthosvd::{st_hosvd_ctx, SthosvdOptions, SthosvdResult};
pub use streaming::{st_hosvd_streaming_ctx, StreamingOptions};
pub use thosvd::{t_hosvd, ThosvdResult};
pub use tucker::TuckerTensor;
pub use validate::{CoreError, RankError, ShapeError};

/// Convenience re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::dist::{DistTensor, DistTucker};
    pub use crate::error::{compression_ratio, error_bound, mode_wise_error_curves};
    pub use crate::hooi::{hooi_ctx, HooiOptions, HooiResult};
    pub use crate::ordering::ModeOrder;
    pub use crate::rank::RankSelection;
    pub use crate::reconstruct::{reconstruct_element, reconstruct_full, reconstruct_subtensor};
    pub use crate::sthosvd::{st_hosvd_ctx, SthosvdOptions, SthosvdResult};
    pub use crate::streaming::{st_hosvd_streaming_ctx, StreamingOptions};
    pub use crate::thosvd::t_hosvd;
    pub use crate::tucker::TuckerTensor;
    pub use crate::validate::{CoreError, RankError, ShapeError};
    pub use tucker_exec::ExecContext;
}
