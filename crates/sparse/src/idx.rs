//! Index widths for the sparse formats, and the index-widening chokepoint
//! (lint rule X01).
//!
//! [`Csr`](crate::csr::Csr) is generic over its index type through
//! [`SparseIndex`]: `usize` gives the legacy ~24 B/nnz CSR, `u32` the
//! bandwidth-lean ~12 B/nnz one. The trait carries exactly what differs
//! between the two — byte width, the `x`-gather convention each records
//! its traffic under, the [`SparseFormat`] it reports, and the two
//! conversions. The compact formats (`u32` CSR, [`crate::sell`]) decode
//! stored indices back to `usize` on every access; rule X01 keeps those
//! decodes auditable by routing them through [`widen`] instead of
//! scattering `as usize` through the kernels. The narrowing direction
//! (`usize` → `u32`) is checked ([`SparseIndex::narrow`]) and happens only
//! at construction, where `check_compact_bounds` has already ruled out
//! overflow for the whole shape.

use crate::ops::SparseFormat;
use xsc_metrics::traffic::{XGather, IDX32_BYTES, IDX_BYTES};

/// A sparse-matrix index type: what [`Csr`](crate::csr::Csr) stores its
/// column indices and row pointers as.
pub trait SparseIndex: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Bytes per stored index in the traffic models.
    const BYTES: u64;
    /// How the format charges its gathered `x` reads (`usize` CSR keeps
    /// the legacy per-nonzero charge, `u32` CSR the streamed one).
    const GATHER: XGather;
    /// The storage format a `Csr` with this index type reports.
    const FORMAT: SparseFormat;
    /// The index as a `usize` (lossless).
    fn widen(self) -> usize;
    /// `i` as this index type, or `None` if it does not fit.
    fn narrow(i: usize) -> Option<Self>;
}

impl SparseIndex for usize {
    const BYTES: u64 = IDX_BYTES;
    const GATHER: XGather = XGather::PerNnz;
    const FORMAT: SparseFormat = SparseFormat::CsrUsize;
    #[inline(always)]
    fn widen(self) -> usize {
        self
    }
    #[inline(always)]
    fn narrow(i: usize) -> Option<Self> {
        Some(i)
    }
}

impl SparseIndex for u32 {
    const BYTES: u64 = IDX32_BYTES;
    const GATHER: XGather = XGather::Streamed;
    const FORMAT: SparseFormat = SparseFormat::Csr32;
    #[inline(always)]
    fn widen(self) -> usize {
        widen(self)
    }
    #[inline(always)]
    fn narrow(i: usize) -> Option<Self> {
        u32::try_from(i).ok()
    }
}

/// Widens a stored `u32` index to `usize`. Lossless on every supported
/// target (`usize` is at least 32 bits on all Rust platforms with this
/// workspace's kernels).
#[inline(always)]
pub fn widen(i: u32) -> usize {
    i as usize
}

/// Why a matrix cannot be represented with compact (`u32`) indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexOverflow {
    /// The row dimension exceeds `u32::MAX`, so row permutations (e.g.
    /// the SELL-C-sigma lane order) would truncate.
    Rows {
        /// The offending row count.
        nrows: usize,
    },
    /// The column dimension exceeds `u32::MAX`, so column indices would
    /// truncate.
    Cols {
        /// The offending column count.
        ncols: usize,
    },
    /// The nonzero count exceeds `u32::MAX`, so row pointers would wrap.
    Nnz {
        /// The offending nonzero count.
        nnz: usize,
    },
}

impl std::fmt::Display for IndexOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexOverflow::Rows { nrows } => {
                write!(
                    f,
                    "nrows {nrows} exceeds u32::MAX; u32 row permutations would truncate"
                )
            }
            IndexOverflow::Cols { ncols } => {
                write!(
                    f,
                    "ncols {ncols} exceeds u32::MAX; u32 column indices would truncate"
                )
            }
            IndexOverflow::Nnz { nnz } => {
                write!(f, "nnz {nnz} exceeds u32::MAX; u32 row pointers would wrap")
            }
        }
    }
}

impl std::error::Error for IndexOverflow {}

/// Checks that a `(ncols, nnz)` shape fits compact `u32` indexing.
/// Factored out so the overflow arms are unit-testable without
/// materializing a four-billion-entry matrix.
pub(crate) fn check_compact_bounds(ncols: usize, nnz: usize) -> Result<(), IndexOverflow> {
    if ncols > u32::MAX as usize {
        return Err(IndexOverflow::Cols { ncols });
    }
    if nnz > u32::MAX as usize {
        return Err(IndexOverflow::Nnz { nnz });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widen_is_identity_on_values() {
        assert_eq!(widen(0), 0usize);
        assert_eq!(widen(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn narrow_is_checked() {
        assert_eq!(u32::narrow(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(u32::narrow(u32::MAX as usize + 1), None);
        assert_eq!(usize::narrow(usize::MAX), Some(usize::MAX));
    }
}
