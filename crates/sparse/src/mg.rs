//! Geometric multigrid V-cycle — HPCG's preconditioner.
//!
//! Levels are built by coarsening the grid by 2 per dimension (HPCG uses
//! 4 levels). Level 0 is the operator `A` itself, so a solver can take it
//! from [`MgPreconditioner::fine_matrix`] instead of building a second
//! copy. The cycle is HPCG's: one symmetric Gauss–Seidel pre-smooth,
//! residual restriction by injection, recursive coarse solve, prolongation
//! by injection-add, one post-smooth; the coarsest level is a single SymGS.
//!
//! Injection reads the residual at one fine point in eight, so the cycle
//! computes it at those rows only, with the fused residual's per-row fold:
//! the restricted vector is the full residual gathered, bit for bit. The
//! flop count stays HPCG's reference one (`2·nnz` per residual); the
//! traffic model charges only the rows touched.
//!
//! Every kernel of the cycle uses the pool's threads once its level is
//! big enough: SymGS along the matrix's level schedule
//! ([`crate::symgs`]), the residual over one contiguous row range per
//! thread. Neither changes a bit of the result, so the V-cycle's output
//! does not depend on the thread count.

use crate::abft::{CheckedApply, SdcDetected};
use crate::cg::Preconditioner;
use crate::chebyshev::ChebyshevSmoother;
use crate::coloring::{color_classes, greedy_coloring};
use crate::csr::{Csr, RowSet};
use crate::error::SolverError;
use crate::idx::{check_compact_bounds, IndexOverflow, SparseIndex};
use crate::ops::{FormatMatrix, SparseFormat, SparseOps};
use crate::stencil::{build_csr, f2c_map, stencil_nnz, Geometry};
use std::cell::RefCell;
use xsc_core::blas1;
use xsc_metrics::Traffic;

/// Smoother family used on every multigrid level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Smoother {
    /// Natural-order symmetric Gauss-Seidel (HPCG's reference), run on
    /// the pool's threads along its level schedule with unchanged iterates.
    SymGs,
    /// Multi-color symmetric Gauss-Seidel (parallel sweeps).
    Colored,
    /// Chebyshev polynomial smoothing of the given degree (SpMV-only,
    /// synchronization-free; the extreme-scale choice).
    Chebyshev {
        /// Polynomial degree (SpMVs per application).
        degree: usize,
    },
}

enum LevelSmoother {
    SymGs,
    Colored(Vec<Vec<usize>>),
    Chebyshev(ChebyshevSmoother),
}

impl LevelSmoother {
    fn apply(&self, a: &FormatMatrix, b: &[f64], x: &mut [f64]) {
        match self {
            LevelSmoother::SymGs => a.symgs(b, x),
            LevelSmoother::Colored(classes) => a.colored_symgs(classes, b, x),
            LevelSmoother::Chebyshev(s) => s.apply(a, b, x),
        }
    }

    fn flops(&self, a: &FormatMatrix) -> u64 {
        match self {
            // HPCG accounting: two sweeps at 2·nnz each.
            LevelSmoother::SymGs | LevelSmoother::Colored(_) => 4 * a.nnz() as u64,
            LevelSmoother::Chebyshev(s) => s.flops_per_apply(a),
        }
    }
}

struct Level {
    a: FormatMatrix,
    smoother: LevelSmoother,
    /// Fine-grid index of each coarse point on the *next* level
    /// (empty for the coarsest level): the rows restriction reads.
    f2c: RowSet,
    /// Scratch vectors, reused across applications.
    scratch: RefCell<Scratch>,
}

impl Level {
    /// The level on `geom`: its operator built once at index width `I`,
    /// its smoother's set-up data derived from that operator, then the
    /// operator handed to `store` for the level's format. With `restrict`
    /// (a coarser level follows) it lists the rows injection reads.
    fn build<I: SparseIndex>(
        geom: Geometry,
        restrict: bool,
        smoother: Smoother,
        store: impl FnOnce(Csr<I>) -> Result<FormatMatrix, IndexOverflow>,
    ) -> Result<Level, IndexOverflow> {
        let a = build_csr::<I>(geom);
        let f2c = if restrict {
            RowSet::new(&a, f2c_map(geom))
        } else {
            RowSet::default()
        };
        let smoother = match smoother {
            Smoother::SymGs => LevelSmoother::SymGs,
            Smoother::Colored => LevelSmoother::Colored(color_classes(&greedy_coloring(&a))),
            Smoother::Chebyshev { degree } => {
                LevelSmoother::Chebyshev(ChebyshevSmoother::for_matrix(&a, degree, 30.0))
            }
        };
        Ok(Level {
            a: store(a)?,
            smoother,
            f2c,
            scratch: RefCell::default(),
        })
    }
}

/// Per-level vectors, sized on first use and reused after.
#[derive(Default)]
struct Scratch {
    /// The full residual; only the audited level-0 cycle needs it.
    r: Vec<f64>,
    rc: Vec<f64>,
    zc: Vec<f64>,
}

/// A geometric multigrid V-cycle preconditioner over the HPCG operator.
pub struct MgPreconditioner {
    levels: Vec<Level>,
    /// Analytic DRAM traffic of one V-cycle (HPCG-reference accounting over
    /// the level sizes), precomputed so [`Preconditioner::apply`] can record
    /// it without walking the hierarchy. Nested `symgs`/`spmv` recordings
    /// overlap with this entry by design; see `xsc-metrics` docs.
    traffic_per_cycle: xsc_metrics::Traffic,
}

impl MgPreconditioner {
    /// Builds `num_levels` levels starting from geometry `g` (each
    /// dimension must be divisible by `2^(num_levels-1)`), smoothing with
    /// the HPCG-reference symmetric Gauss-Seidel. The level-0 matrix must
    /// equal the operator the caller is solving with.
    pub fn new(g: Geometry, num_levels: usize) -> Self {
        MgPreconditioner::with_smoother(g, num_levels, Smoother::SymGs)
    }

    /// Like [`MgPreconditioner::new`] but with a chosen smoother family
    /// (the "optimized HPCG" configurations swap the natural-order sweep
    /// for a reordered or polynomial one here).
    pub fn with_smoother(g: Geometry, num_levels: usize, smoother: Smoother) -> Self {
        MgPreconditioner::with_format(g, num_levels, smoother, SparseFormat::CsrUsize)
            .expect("usize CSR cannot overflow")
    }

    /// Like [`MgPreconditioner::with_smoother`] but storing every level in
    /// the chosen [`SparseFormat`]. Each CSR level is built once, at its
    /// index width; SELL-C-σ is converted from a `usize` CSR. Smoother
    /// setup data (colorings, Chebyshev eigenvalue bounds) is derived from
    /// the CSR operator, so the hierarchy is numerically identical across
    /// formats. Fails, before building anything, if the finest operator
    /// does not fit the format's indices.
    pub fn with_format(
        g: Geometry,
        num_levels: usize,
        smoother: Smoother,
        format: SparseFormat,
    ) -> Result<Self, crate::idx::IndexOverflow> {
        match MgPreconditioner::try_with_format(g, num_levels, smoother, format) {
            Ok(mg) => Ok(mg),
            Err(SolverError::IndexOverflow(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// Fully fallible form of [`MgPreconditioner::with_format`]: reports
    /// an impossible hierarchy ([`SolverError::NotCoarsenable`],
    /// [`SolverError::NoLevels`]) as a typed error instead of panicking,
    /// so callers that size hierarchies from runtime input can recover.
    pub fn try_with_format(
        g: Geometry,
        num_levels: usize,
        smoother: Smoother,
        format: SparseFormat,
    ) -> Result<Self, SolverError> {
        if num_levels < 1 {
            return Err(SolverError::NoLevels);
        }
        if format != SparseFormat::CsrUsize {
            // Every coarser level is smaller than the finest.
            check_compact_bounds(g.len(), stencil_nnz(g))?;
        }
        let mut levels = Vec::with_capacity(num_levels);
        let mut geom = g;
        for l in 0..num_levels {
            let last = l + 1 == num_levels;
            if !last && !geom.coarsenable() {
                return Err(SolverError::NotCoarsenable {
                    geometry: geom,
                    level: l + 1,
                });
            }
            levels.push(match format {
                SparseFormat::CsrUsize => {
                    Level::build(geom, !last, smoother, |a| Ok(FormatMatrix::CsrUsize(a)))
                }
                SparseFormat::Csr32 => {
                    Level::build(geom, !last, smoother, |a| Ok(FormatMatrix::Csr32(a)))
                }
                SparseFormat::SellCSigma => Level::build(geom, !last, smoother, |a| {
                    FormatMatrix::convert(a, SparseFormat::SellCSigma)
                }),
            }?);
            if !last {
                geom = geom.coarsen();
            }
        }
        let traffic_per_cycle = Self::cycle_traffic(&levels);
        Ok(MgPreconditioner {
            levels,
            traffic_per_cycle,
        })
    }

    /// Analytic DRAM traffic of one V-cycle, summed from each level's
    /// per-format kernel models (pre/post smooth, the residual at the rows
    /// restriction reads, and the injection transfer passes).
    fn cycle_traffic(levels: &[Level]) -> Traffic {
        let mut t = Traffic::default();
        for (l, lv) in levels.iter().enumerate() {
            let coarsest = l + 1 == levels.len();
            if coarsest {
                t = t.plus(lv.a.symgs_traffic());
            } else {
                let nc = levels[l + 1].a.nrows() as u64;
                // Pre- and post-smooth.
                t = t.plus(lv.a.symgs_traffic().times(2));
                // Restriction: the residual at the coarse points only,
                // written straight into rc.
                t = t.plus(lv.a.residual_at_traffic(&lv.f2c));
                // Injection-add prolongation (read zc, read+write x).
                t = t.plus(Traffic {
                    flops: nc,
                    bytes_read: 8 * 2 * nc,
                    bytes_written: 8 * nc,
                });
            }
        }
        t
    }

    /// The storage format every level uses.
    pub fn format(&self) -> SparseFormat {
        self.levels[0].a.format()
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The operator at level 0: the 27-point stencil on the geometry the
    /// hierarchy was built from, which [`run_hpcg`](crate::hpcg::run_hpcg)
    /// solves with rather than building it twice.
    pub fn fine_matrix(&self) -> &FormatMatrix {
        &self.levels[0].a
    }

    fn cycle(&self, level: usize, b: &[f64], x: &mut [f64]) {
        let lv = &self.levels[level];
        let a = &lv.a;
        // Coarsest level: a single smoother application.
        if level + 1 == self.levels.len() {
            x.iter_mut().for_each(|v| *v = 0.0);
            lv.smoother.apply(a, b, x);
            return;
        }
        let mut s = lv.scratch.borrow_mut();
        let Scratch { rc, zc, .. } = &mut *s;
        let nc = lv.f2c.len();
        rc.resize(nc, 0.0);
        zc.resize(nc, 0.0);

        // Pre-smooth from zero.
        x.iter_mut().for_each(|v| *v = 0.0);
        lv.smoother.apply(a, b, x);
        // Injection restriction of the residual, computed only at the
        // coarse points.
        a.residual_at(&lv.f2c, x, b, rc);
        // Coarse solve. Scratch for the coarse level belongs to that level,
        // so the borrow here is disjoint.
        self.cycle(level + 1, rc, zc);
        // Prolongation by injection-add.
        for (&f, &z) in lv.f2c.rows().iter().zip(zc.iter()) {
            x[f] += z;
        }
        // Post-smooth.
        lv.smoother.apply(a, b, x);
    }

    /// HPCG flop accounting for one V-cycle application.
    pub fn flops_per_cycle(&self) -> u64 {
        let mut total = 0u64;
        for (l, lv) in self.levels.iter().enumerate() {
            if l + 1 == self.levels.len() {
                total += lv.smoother.flops(&lv.a);
            } else {
                // pre-smooth + post-smooth + residual SpMV.
                total += 2 * lv.smoother.flops(&lv.a) + 2 * lv.a.nnz() as u64;
            }
        }
        total
    }
}

impl Preconditioner for MgPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _scope = xsc_metrics::record("mg_vcycle", self.traffic_per_cycle);
        self.cycle(0, r, z);
    }

    fn flops_per_apply(&self) -> u64 {
        self.flops_per_cycle()
    }
}

/// Slack on the pre-smooth contraction check: one smoother sweep from a
/// zero guess must not expand `‖b − Ax‖` beyond this multiple of `‖b‖`.
/// Healthy sweeps contract (factor < 1); a corrupted matrix value or
/// smoother state typically expands by many orders of magnitude.
const MG_PRE_SLACK: f64 = 2.0;
/// Slack on the full-cycle check: coarse correction plus post-smooth must
/// leave the residual within this multiple of the pre-smooth residual.
const MG_POST_SLACK: f64 = 1.5;
/// Additive rounding floor (relative to `‖b‖`) under which contraction
/// ratios are meaningless — keeps the post check from firing when the
/// pre-smooth already converged to rounding.
const MG_ROUND_FLOOR: f64 = 1e-12;

impl CheckedApply for MgPreconditioner {
    /// Applies one V-cycle exactly as
    /// [`Preconditioner::apply`] does — bit-identical `z` — and audits the
    /// cycle's contraction invariant on the finest level: the pre-smooth
    /// must not expand the input residual (`MG_PRE_SLACK`), and the
    /// completed cycle must not expand the pre-smooth residual
    /// (`MG_POST_SLACK`). Costs one extra fused residual (`2·nnz₀`
    /// flops) plus three norms on top of the plain application.
    fn apply_checked(&self, r: &[f64], z: &mut [f64]) -> Result<(), SdcDetected> {
        let _scope = xsc_metrics::record("mg_vcycle", self.traffic_per_cycle);
        self.cycle_checked(r, z)
    }

    fn flops_per_checked_apply(&self) -> u64 {
        let lv0 = &self.levels[0];
        self.flops_per_cycle() + 2 * lv0.a.nnz() as u64 + 6 * lv0.a.nrows() as u64
    }
}

impl MgPreconditioner {
    /// The level-0 body of [`MgPreconditioner::cycle`] with contraction
    /// audits spliced in. Mirrors `cycle(0, ..)` operation-for-operation
    /// (pre-smooth from zero, fused residual, injection restriction,
    /// recursive coarse solve, injection-add prolongation, post-smooth) so
    /// the produced `z` is bit-identical to the unchecked path; only the
    /// detector reductions are added.
    fn cycle_checked(&self, b: &[f64], x: &mut [f64]) -> Result<(), SdcDetected> {
        let _detector = xsc_metrics::record(
            "abft_mg_check",
            Traffic {
                flops: 6 * b.len() as u64,
                bytes_read: 8 * 3 * b.len() as u64,
                bytes_written: 0,
            },
        );
        let bnorm = blas1::nrm2(b);
        if !bnorm.is_finite() {
            return Err(SdcDetected::NonFinite {
                what: "mg input residual",
            });
        }
        let bnorm = bnorm.max(f64::MIN_POSITIVE);
        let lv = &self.levels[0];
        let a = &lv.a;
        let mut s = lv.scratch.borrow_mut();
        let Scratch { r, rc, zc } = &mut *s;
        r.resize(b.len(), 0.0);

        // Pre-smooth from zero (the coarsest-level cycle is exactly this).
        x.iter_mut().for_each(|v| *v = 0.0);
        lv.smoother.apply(a, b, x);
        a.fused_residual(x, b, r);
        let pre = blas1::nrm2(r);
        // `!(.. <= ..)` so a NaN norm also trips the detector.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(pre <= MG_PRE_SLACK * bnorm) {
            return Err(SdcDetected::MgNoContraction {
                phase: "pre",
                observed: pre / bnorm,
                tolerated: MG_PRE_SLACK,
            });
        }
        if self.levels.len() == 1 {
            return Ok(());
        }

        // Injection restriction, coarse solve, injection-add prolongation.
        let nc = lv.f2c.len();
        rc.resize(nc, 0.0);
        zc.resize(nc, 0.0);
        for (c, &f) in rc.iter_mut().zip(lv.f2c.rows()) {
            *c = r[f];
        }
        self.cycle(1, rc, zc);
        for (&f, &z) in lv.f2c.rows().iter().zip(zc.iter()) {
            x[f] += z;
        }
        // Post-smooth, then audit the whole cycle's contraction.
        lv.smoother.apply(a, b, x);
        a.fused_residual(x, b, r);
        let post = blas1::nrm2(r);
        // `!(.. <= ..)` so a NaN norm also trips the detector.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(post <= MG_POST_SLACK * pre + MG_ROUND_FLOOR * bnorm) {
            return Err(SdcDetected::MgNoContraction {
                phase: "post",
                observed: post / pre.max(f64::MIN_POSITIVE),
                tolerated: MG_POST_SLACK,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::ops::unfused_residual;
    use crate::stencil::{build_matrix, build_rhs};
    use crate::symgs::symgs;

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        unfused_residual(a, x, b, &mut r);
        xsc_core::blas1::nrm2(&r)
    }

    #[test]
    fn one_vcycle_beats_one_symgs() {
        let g = Geometry::new(16, 16, 16);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mg = MgPreconditioner::new(g, 3);

        let mut x_mg = vec![0.0; a.nrows()];
        mg.apply(&b, &mut x_mg);
        let r_mg = residual_norm(&a, &x_mg, &b);

        let mut x_gs = vec![0.0; a.nrows()];
        symgs(&a, &b, &mut x_gs);
        let r_gs = residual_norm(&a, &x_gs, &b);

        assert!(
            r_mg < r_gs,
            "one V-cycle ({r_mg:.3e}) must beat one SymGS ({r_gs:.3e})"
        );
    }

    #[test]
    fn single_level_mg_is_just_symgs() {
        let g = Geometry::new(4, 4, 4);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mg = MgPreconditioner::new(g, 1);
        let mut x1 = vec![0.0; a.nrows()];
        mg.apply(&b, &mut x1);
        let mut x2 = vec![0.0; a.nrows()];
        symgs(&a, &b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn repeated_vcycles_converge() {
        let g = Geometry::new(8, 8, 8);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mg = MgPreconditioner::new(g, 3);
        // Stationary iteration x <- x + M^{-1}(b - Ax).
        let n = a.nrows();
        let mut x = vec![0.0; n];
        let r0 = residual_norm(&a, &x, &b);
        let mut prev = r0;
        for _ in 0..8 {
            let mut r = vec![0.0; n];
            unfused_residual(&a, &x, &b, &mut r);
            let mut z = vec![0.0; n];
            mg.apply(&r, &mut z);
            for (xi, zi) in x.iter_mut().zip(z.iter()) {
                *xi += zi;
            }
            let cur = residual_norm(&a, &x, &b);
            assert!(cur < prev);
            prev = cur;
        }
        assert!(
            prev < 1e-2 * r0,
            "8 V-cycles reduced residual only to {prev:.3e} (from {r0:.3e})"
        );
    }

    #[test]
    fn flops_accounting_positive_and_ordered() {
        let g = Geometry::new(8, 8, 8);
        let mg2 = MgPreconditioner::new(g, 2);
        let mg3 = MgPreconditioner::new(g, 3);
        assert!(mg3.flops_per_cycle() > mg2.fine_matrix().nnz() as u64);
        // More levels -> more flops (coarse grids add work).
        assert!(mg3.flops_per_cycle() > 0);
        assert_eq!(mg2.num_levels(), 2);
    }

    #[test]
    fn compact_hierarchy_checks_its_bounds_before_building() {
        // 3070³ ≈ 2.9e10 stored entries: the check must refuse the shape
        // before a single array is allocated.
        let g = Geometry::new(1024, 1024, 1024);
        let err = MgPreconditioner::with_format(g, 1, Smoother::SymGs, SparseFormat::Csr32);
        let nnz = 3070 * 3070 * 3070;
        assert_eq!(err.err(), Some(IndexOverflow::Nnz { nnz }));
    }

    #[test]
    #[should_panic(expected = "cannot be coarsened")]
    fn too_many_levels_rejected() {
        let _ = MgPreconditioner::new(Geometry::new(4, 4, 4), 4);
    }

    #[test]
    fn all_smoother_families_precondition_cg() {
        use crate::cg::pcg;
        let g = Geometry::new(8, 8, 8);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mut iters = Vec::new();
        for smoother in [
            Smoother::SymGs,
            Smoother::Colored,
            Smoother::Chebyshev { degree: 4 },
        ] {
            let mg = MgPreconditioner::with_smoother(g, 3, smoother);
            let mut x = vec![0.0; a.nrows()];
            let res = pcg(&a, &b, &mut x, 100, 1e-9, &mg);
            assert!(
                res.converged,
                "{smoother:?} failed: {:?}",
                res.final_residual()
            );
            iters.push((smoother, res.iterations));
        }
        // All three should be in the same ballpark (within 3x of the best).
        let best = iters.iter().map(|&(_, i)| i).min().unwrap();
        for (s, i) in iters {
            assert!(i <= best * 3, "{s:?} took {i} iterations (best {best})");
        }
    }

    #[test]
    fn chebyshev_mg_pcg_converges_at_64_cubed() {
        // 64³ is the smallest cubic grid (4 levels, 50 iterations, 1e-6)
        // on which a power-method λmax estimate (12 iterations, +10 %)
        // fell below the true λmax (≈ 35.9) and PCG stalled at 7.6e-3.
        let g = Geometry::new(64, 64, 64);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mg = MgPreconditioner::with_smoother(g, 4, Smoother::Chebyshev { degree: 4 });
        let mut x = vec![0.0; a.nrows()];
        let res = crate::cg::pcg(&a, &b, &mut x, 50, 1e-6, &mg);
        assert!(
            res.converged,
            "Chebyshev MG-PCG stalled at {:.2e} after {} iterations",
            res.final_residual(),
            res.iterations
        );
    }

    #[test]
    fn chebyshev_mg_flops_accounting_differs_from_symgs() {
        let g = Geometry::new(8, 8, 8);
        let gs = MgPreconditioner::with_smoother(g, 2, Smoother::SymGs);
        let ch = MgPreconditioner::with_smoother(g, 2, Smoother::Chebyshev { degree: 8 });
        // Degree-8 Chebyshev does 8 SpMVs (16 nnz flops) vs SymGS's 4 nnz.
        assert!(ch.flops_per_cycle() > gs.flops_per_cycle());
    }

    #[test]
    fn colored_mg_matches_symgs_mg_in_quality() {
        let g = Geometry::new(8, 8, 8);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mg_gs = MgPreconditioner::with_smoother(g, 3, Smoother::SymGs);
        let mg_col = MgPreconditioner::with_smoother(g, 3, Smoother::Colored);
        let mut z1 = vec![0.0; a.nrows()];
        mg_gs.apply(&b, &mut z1);
        let mut z2 = vec![0.0; a.nrows()];
        mg_col.apply(&b, &mut z2);
        let r1 = residual_norm(&a, &z1, &b);
        let r2 = residual_norm(&a, &z2, &b);
        assert!(r2 < r1 * 5.0, "colored V-cycle {r2} vs natural {r1}");
    }
}
