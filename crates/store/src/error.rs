//! Typed errors of the storage API.
//!
//! The writer ([`crate::TkrWriter::try_write_core_chunk`],
//! [`crate::try_write_tucker_ctx`], …) validates the `.tkr` format contract
//! and returns a [`StoreError`] on any violation, so a service accepting
//! artifacts and write requests from outside never panics on bad input.
//!
//! This module is covered by the CI panic-grep gate: no `panic!`, `unwrap`,
//! `expect`, or `assert` may appear here — every failure is a returned value.

use std::fmt;
use std::io;

/// An invalid or unsupported value encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// An on-disk codec identifier this reader does not know.
    UnknownId(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnknownId(id) => write!(f, "unknown codec id {id}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A violation of the `.tkr` container contract — by a write request that
/// does not fit the declared header, or by a file that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The header names no modes, or a mode with extent zero.
    ZeroDim {
        /// The offending mode (or 0 for an empty shape).
        mode: usize,
    },
    /// The header declares a rank of zero.
    ZeroRank {
        /// The offending mode.
        mode: usize,
    },
    /// The header declares a rank exceeding the mode's extent.
    RankExceedsDim {
        /// The offending mode.
        mode: usize,
        /// Declared rank.
        rank: usize,
        /// Declared extent.
        dim: usize,
    },
    /// The header's dims and ranks lists disagree in length.
    DimsRanksArity {
        /// Number of dims.
        dims: usize,
        /// Number of ranks.
        ranks: usize,
    },
    /// A factor write for a mode the header does not have.
    ModeOutOfRange {
        /// Requested mode.
        mode: usize,
        /// Number of modes declared by the header.
        ndims: usize,
    },
    /// The same factor written twice.
    FactorRewritten {
        /// The offending mode.
        mode: usize,
    },
    /// A factor whose shape disagrees with the header.
    FactorShape {
        /// The offending mode.
        mode: usize,
        /// Rows of the offered matrix.
        rows: usize,
        /// Columns of the offered matrix.
        cols: usize,
        /// Extent the header declares for this mode.
        dim: usize,
        /// Rank the header declares for this mode.
        rank: usize,
    },
    /// A core chunk with zero elements.
    EmptyChunk,
    /// A core chunk that is not a whole number of last-mode slabs.
    MisalignedChunk {
        /// Elements in the offending chunk.
        len: usize,
        /// Elements per last-mode slab.
        stride: usize,
    },
    /// A core chunk that runs past the declared core size.
    CoreOverrun {
        /// Element offset where the chunk would start.
        start: usize,
        /// Elements in the offending chunk.
        len: usize,
        /// Total core elements declared by the header.
        total: usize,
    },
    /// `finish` called before every factor was written.
    MissingFactor {
        /// The first mode without a factor.
        mode: usize,
    },
    /// `finish` called before the core was fully written.
    CoreIncomplete {
        /// Elements written so far.
        written: usize,
        /// Total core elements declared by the header.
        total: usize,
    },
    /// An artifact (or header) that fails to parse — the read-side
    /// `InvalidData` diagnostics surfaced as a typed value.
    Invalid(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::ZeroDim { mode } => write!(f, "mode {mode} has extent 0"),
            FormatError::ZeroRank { mode } => write!(f, "mode {mode} has rank 0"),
            FormatError::RankExceedsDim { mode, rank, dim } => {
                write!(f, "rank {rank} exceeds extent {dim} in mode {mode}")
            }
            FormatError::DimsRanksArity { dims, ranks } => {
                write!(f, "{dims} dims but {ranks} ranks in the header")
            }
            FormatError::ModeOutOfRange { mode, ndims } => {
                write!(f, "mode {mode} out of range for a {ndims}-mode artifact")
            }
            FormatError::FactorRewritten { mode } => {
                write!(f, "factor for mode {mode} written twice")
            }
            FormatError::FactorShape {
                mode,
                rows,
                cols,
                dim,
                rank,
            } => write!(
                f,
                "factor for mode {mode} is {rows}×{cols}, header declares {dim}×{rank}"
            ),
            FormatError::EmptyChunk => write!(f, "core chunk with zero elements"),
            FormatError::MisalignedChunk { len, stride } => write!(
                f,
                "core chunk of {len} elements is not a whole number of last-mode slabs (stride {stride})"
            ),
            FormatError::CoreOverrun { start, len, total } => write!(
                f,
                "core chunk {start}+{len} overruns the {total}-element core"
            ),
            FormatError::MissingFactor { mode } => {
                write!(f, "finish: factor for mode {mode} was never written")
            }
            FormatError::CoreIncomplete { written, total } => {
                write!(f, "finish: core incomplete ({written} of {total} elements)")
            }
            FormatError::Invalid(msg) => write!(f, "invalid artifact: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Why a fallible storage operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// A container-contract violation.
    Format(FormatError),
    /// An encoding problem.
    Codec(CodecError),
    /// An IO failure.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Format(e) => write!(f, "{e}"),
            StoreError::Codec(e) => write!(f, "{e}"),
            StoreError::Io(e) => write!(f, "IO error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Format(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Display names the violation; format and codec violations stay typed
    /// (never collapse into IO), while IO errors pass through with their kind.
    #[test]
    fn display_and_into_io() {
        let e = StoreError::from(FormatError::MisalignedChunk { len: 3, stride: 4 });
        assert!(format!("{e}").contains("3 elements"));
        assert!(matches!(e, StoreError::Format(_)));
        let e = StoreError::from(CodecError::UnknownId(9));
        assert!(format!("{e}").contains("codec id 9"));
        assert!(matches!(e, StoreError::Codec(CodecError::UnknownId(9))));
        let e = StoreError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(matches!(e, StoreError::Io(ref io) if io.kind() == io::ErrorKind::NotFound));
        assert!(format!("{e}").contains("gone"));
    }

    #[test]
    fn errors_chain_sources() {
        let e = StoreError::from(FormatError::EmptyChunk);
        assert!(std::error::Error::source(&e).is_some());
    }
}
