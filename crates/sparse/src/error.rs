//! Typed errors for the recoverable failure modes of the solver stack.
//!
//! The hot paths historically panicked (or silently broke out of the
//! iteration) when a caller handed them an impossible configuration. At
//! extreme scale a panic in one of a million ranks is an expensive way to
//! report a recoverable condition, so the `try_*` entry points
//! ([`try_pcg`](crate::cg::try_pcg),
//! [`MgPreconditioner::try_with_format`](crate::mg::MgPreconditioner::try_with_format),
//! [`try_run_hpcg_fmt`](crate::hpcg::try_run_hpcg_fmt)) return this enum
//! instead and let the resilience layer decide. The legacy panicking
//! wrappers remain as thin shims over the fallible cores.

use crate::abft::SdcDetected;
use crate::idx::IndexOverflow;
use crate::stencil::Geometry;

/// A recoverable solver-stack failure: configuration the caller can fix or
/// a runtime condition the resilience layer can react to.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The operator does not fit the requested compact index format.
    IndexOverflow(IndexOverflow),
    /// A multigrid hierarchy was requested deeper than the geometry
    /// supports (every dimension must stay even down the levels).
    NotCoarsenable {
        /// The geometry that refused to coarsen.
        geometry: Geometry,
        /// The 1-based level that could not be built.
        level: usize,
    },
    /// A multigrid hierarchy with zero levels was requested.
    NoLevels,
    /// A vector length does not match the operator.
    ShapeMismatch {
        /// Which argument was mis-sized.
        what: &'static str,
        /// The length the operator requires.
        expected: usize,
        /// The length actually passed.
        got: usize,
    },
    /// The Krylov iteration observed `pᵀAp ≤ 0`: the operator is not
    /// (numerically) positive definite, so CG's recurrences are invalid.
    IndefiniteOperator {
        /// Iteration at which the breakdown was observed.
        iteration: usize,
        /// The offending curvature value.
        pap: f64,
    },
    /// A silent-data-corruption detector fired.
    Sdc(SdcDetected),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::IndexOverflow(e) => write!(f, "{e}"),
            SolverError::NotCoarsenable { geometry, level } => write!(
                f,
                "geometry {geometry:?} cannot be coarsened for level {level}"
            ),
            SolverError::NoLevels => f.write_str("need at least one level"),
            SolverError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} length mismatch: expected {expected}, got {got}"),
            SolverError::IndefiniteOperator { iteration, pap } => write!(
                f,
                "operator not positive definite at iteration {iteration} (p·Ap = {pap:.3e})"
            ),
            SolverError::Sdc(e) => write!(f, "silent data corruption: {e}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<IndexOverflow> for SolverError {
    fn from(e: IndexOverflow) -> Self {
        SolverError::IndexOverflow(e)
    }
}

impl From<SdcDetected> for SolverError {
    fn from(e: SdcDetected) -> Self {
        SolverError::Sdc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SolverError::NotCoarsenable {
            geometry: Geometry::new(4, 4, 4),
            level: 3,
        };
        assert!(e.to_string().contains("cannot be coarsened"));
        let s = SolverError::from(SdcDetected::NonFinite { what: "iterate" });
        assert!(s.to_string().contains("silent data corruption"));
        let m = SolverError::ShapeMismatch {
            what: "rhs",
            expected: 8,
            got: 7,
        };
        assert!(m.to_string().contains("rhs"));
    }
}
