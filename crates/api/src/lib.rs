//! `tucker-api` — the unified public facade of the `parallel-tucker`
//! workspace.
//!
//! The underlying crates expose every pipeline variant as its own entry
//! point (sequential / streaming / distributed ST-HOSVD, HOOI, the storage
//! writer, two reader types), one per operation. This crate is the **one surface** production
//! code should program against, built from three pillars:
//!
//! 1. **[`TuckerError`]** — a workspace-wide typed error hierarchy with
//!    `From` conversions from every constituent crate's errors. Nothing
//!    reachable through this crate panics on malformed input: the core
//!    drivers panic on it, so [`Compressor::plan`] runs their validators
//!    first and returns the verdict as a value.
//! 2. **[`Compressor`]** — a builder over every ingest path
//!    ([`Compressor::new`] for resident tensors, [`Compressor::from_slabs`]
//!    for out-of-core sources, [`Compressor::distributed`] for a processor
//!    grid) and both sinks ([`CompressionPlan::run`] in memory,
//!    [`CompressionPlan::write_to`] as a `.tkr` artifact). It dispatches to
//!    the exact existing kernels, so results are bit-identical to direct
//!    calls — it removes choice anxiety, not determinism.
//! 3. **[`TensorQuery`]** — one query interface implemented by both the
//!    eager and the lazy artifact readers, with [`Open`] choosing the
//!    backend (`Open::eager()` / `Open::lazy().cache_chunks(k)`).
//!
//! # End to end
//!
//! ```
//! use tucker_api::{Compressor, Open, TensorQuery};
//! use tucker_store::Codec;
//! use tucker_tensor::DenseTensor;
//!
//! let x = DenseTensor::from_fn(&[16, 12, 10], |idx| {
//!     (0.2 * idx[0] as f64).sin() * (0.1 * idx[1] as f64).cos() + 0.01 * idx[2] as f64
//! });
//!
//! // Compress and persist in one fallible chain.
//! let path = std::env::temp_dir().join("tucker_api_doctest.tkr");
//! let written = Compressor::new(&x)
//!     .tolerance(1e-4)
//!     .codec(Codec::F32)
//!     .write_to(&path)?;
//! assert!(written.report.compression_ratio(x.dims()) > 1.0);
//!
//! // Query through the backend-agnostic interface.
//! let reader = Open::lazy().cache_chunks(4).open(&path)?;
//! let window = reader.reconstruct_range(&[(2, 3), (0, 12), (5, 2)])?;
//! assert_eq!(window.dims(), &[3, 12, 2]);
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), tucker_api::TuckerError>(())
//! ```

#![deny(missing_docs)]

pub mod compressor;
pub mod error;
pub mod query;

pub use compressor::{
    Compressed, CompressedOutput, CompressionPlan, Compressor, DistRunInfo, KernelPath, Refine,
    Written,
};
pub use error::{PlanError, ProtocolError, TuckerError};
pub use query::{Open, Reader, TensorQuery};
