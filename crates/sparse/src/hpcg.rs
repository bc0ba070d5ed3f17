//! The HPCG-like benchmark driver.
//!
//! Mirrors the official benchmark's structure: build the multigrid
//! hierarchy, whose level 0 is the 27-point operator (built once, straight
//! into the chosen format's arrays, and shared with CG), run a fixed number of MG-preconditioned
//! CG iterations, and report Gflop/s using HPCG's flop accounting. The
//! resulting rate — compared against the same machine's HPL rate — is the
//! keynote's headline figure (experiment E01).

use crate::cg::{try_pcg, CgResult};
use crate::error::SolverError;
use crate::mg::{MgPreconditioner, Smoother};
use crate::ops::{SparseFormat, SparseOps};
use crate::stencil::{build_rhs, Geometry};
use xsc_core::flops;
use xsc_metrics::Stopwatch;

/// Outcome of one HPCG-like run.
#[derive(Debug, Clone)]
pub struct HpcgResult {
    /// Grid geometry used.
    pub geometry: Geometry,
    /// Number of rows of the fine operator.
    pub n: usize,
    /// Nonzeros of the fine operator.
    pub nnz: usize,
    /// Multigrid levels used.
    pub levels: usize,
    /// CG iterations executed.
    pub iterations: usize,
    /// Final relative residual.
    pub final_residual: f64,
    /// Wall-clock seconds of the timed solve phase.
    pub seconds: f64,
    /// Benchmark rate over the solve phase (HPCG flop accounting).
    pub gflops: f64,
    /// Whether the residual dropped by at least the expected factor
    /// (sanity acceptance, analogous to HPCG's verification phase).
    pub passed: bool,
    /// Sparse storage format the run executed on.
    pub format: SparseFormat,
    /// `‖r‖/‖b‖` after each iteration (index 0 = initial residual) — what
    /// E19 compares across formats.
    pub residual_history: Vec<f64>,
}

/// Runs the HPCG-like benchmark on an `nx × ny × nz` grid with `levels`
/// multigrid levels and `iters` CG iterations (the official benchmark uses
/// 4 levels and optimizes for 50-iteration batches).
///
/// Every level is stored as [`SparseFormat::Csr32`], built in place at
/// that width: the reference HPCG's `local_int_t` is a 32-bit `int`, so
/// its operator streams 12 B per nonzero, not the 24 B of `usize`
/// indices. The iterates are the same bits in every format
/// ([`run_hpcg_fmt`] runs the others).
pub fn run_hpcg(g: Geometry, levels: usize, iters: usize) -> HpcgResult {
    run_hpcg_fmt(g, levels, iters, SparseFormat::Csr32)
}

/// [`run_hpcg`] with the operator and every multigrid level stored in the
/// chosen [`SparseFormat`] — identical algorithm, identical iterates (every
/// format folds rows in the same order), different bytes per nonzero.
/// Panics if the operator overflows the format's `u32` indices (HPCG grids
/// that large do not fit in memory anyway).
pub fn run_hpcg_fmt(g: Geometry, levels: usize, iters: usize, format: SparseFormat) -> HpcgResult {
    try_run_hpcg_fmt(g, levels, iters, format)
        .unwrap_or_else(|e| panic!("hpcg run does not fit {format}: {e}"))
}

/// Fallible form of [`run_hpcg_fmt`]: index overflow, an impossible
/// hierarchy, or a Krylov breakdown come back as a typed [`SolverError`]
/// instead of a panic, so sweeps over formats and level counts can skip
/// infeasible configurations.
pub fn try_run_hpcg_fmt(
    g: Geometry,
    levels: usize,
    iters: usize,
    format: SparseFormat,
) -> Result<HpcgResult, SolverError> {
    let (mg, b) = problem(g, levels, format)?;
    let a = mg.fine_matrix();
    let (n, nnz) = (a.nrows(), a.nnz());
    let mut x = vec![0.0f64; n];
    let start = Stopwatch::start();
    let res: CgResult = try_pcg(a, &b, &mut x, iters, 0.0, &mg)?;
    let seconds = start.seconds();

    let initial = res.residual_history.first().copied().unwrap_or(1.0);
    let final_residual = res.final_residual();
    Ok(HpcgResult {
        geometry: g,
        n,
        nnz,
        levels,
        iterations: res.iterations,
        final_residual,
        seconds,
        gflops: flops::gflops(res.flops, seconds),
        passed: final_residual < initial * 1e-6 || final_residual < 1e-10,
        format,
        residual_history: res.residual_history,
    })
}

/// The hierarchy (whose level 0 is the operator `A`) and `b = A · 1`,
/// with `A` built once.
fn problem(
    g: Geometry,
    levels: usize,
    format: SparseFormat,
) -> Result<(MgPreconditioner, Vec<f64>), SolverError> {
    let mg = MgPreconditioner::try_with_format(g, levels, Smoother::SymGs, format)?;
    let (b, _) = build_rhs(mg.fine_matrix());
    Ok((mg, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpcg_run_reports_sane_numbers() {
        let g = Geometry::new(16, 16, 16);
        let res = run_hpcg(g, 3, 25);
        assert_eq!(res.n, 16 * 16 * 16);
        assert!(res.nnz > res.n * 20, "27-point stencil should be dense-ish");
        assert!(res.gflops > 0.0);
        assert_eq!(res.iterations, 25);
        assert!(
            res.final_residual < 1e-6,
            "MG-CG after 25 iters should be well converged: {}",
            res.final_residual
        );
        assert!(res.passed);
    }

    #[test]
    fn rhs_from_the_shared_operator_is_bitwise_the_csr_one() {
        use crate::stencil::build_matrix;
        let g = Geometry::new(8, 6, 4);
        let want = build_rhs(&build_matrix(g)).0;
        for fmt in SparseFormat::all() {
            let (mg, b) = problem(g, 2, fmt).unwrap();
            assert_eq!(mg.format(), fmt);
            assert!(
                b.iter().zip(&want).all(|(u, v)| u.to_bits() == v.to_bits()),
                "{fmt}"
            );
        }
    }

    #[test]
    fn more_iterations_do_not_hurt_convergence() {
        let g = Geometry::new(8, 8, 8);
        let short = run_hpcg(g, 3, 5);
        let long = run_hpcg(g, 3, 20);
        assert!(long.final_residual <= short.final_residual * 1.0001);
    }

    #[test]
    fn all_formats_produce_identical_histories() {
        let g = Geometry::new(8, 8, 8);
        let base = run_hpcg_fmt(g, 3, 10, SparseFormat::CsrUsize);
        for fmt in [SparseFormat::Csr32, SparseFormat::SellCSigma] {
            let r = run_hpcg_fmt(g, 3, 10, fmt);
            assert_eq!(r.format, fmt);
            assert_eq!(r.iterations, base.iterations, "{fmt}");
            assert_eq!(r.residual_history, base.residual_history, "{fmt}");
        }
    }

    #[test]
    fn run_hpcg_runs_csr32_with_the_usize_history() {
        // 32³ runs the fine level's kernels on every pool thread.
        let g = Geometry::new(32, 32, 32);
        let res = run_hpcg(g, 3, 10);
        assert_eq!(res.format, SparseFormat::Csr32);
        let base = run_hpcg_fmt(g, 3, 10, SparseFormat::CsrUsize);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&res.residual_history), bits(&base.residual_history));
    }

    #[test]
    fn infeasible_hierarchy_is_a_typed_error_not_a_panic() {
        let g = Geometry::new(4, 4, 4);
        let err = try_run_hpcg_fmt(g, 4, 5, SparseFormat::Csr32);
        assert!(matches!(err, Err(SolverError::NotCoarsenable { .. })));
        let none = try_run_hpcg_fmt(g, 0, 5, SparseFormat::CsrUsize);
        assert!(matches!(none, Err(SolverError::NoLevels)));
    }

    #[test]
    fn single_level_hpcg_still_works() {
        let g = Geometry::new(8, 8, 8);
        let res = run_hpcg(g, 1, 30);
        assert!(res.final_residual < 1e-4);
    }
}
