//! GEMM blocking-parameter and micro-kernel search.
//!
//! The blocked GEMM in `xsc-core` is governed by three cache-blocking
//! parameters ([`GemmParams`]: `MC`, `KC`, `NC`). Like tile sizes, the best
//! values are machine-dependent and non-monotone, so E08 *searches* for them
//! with the same strategies it uses for tile sizes. [`tune_gemm_blocking`]
//! runs that search and returns the winner, which callers install globally
//! via [`xsc_core::gemm::set_global_params`].
//!
//! The `MR x NR` micro-kernel variant ([`MicroKernel`]) is a second tuning
//! axis: every variant is bit-identical, so which one is fastest is purely
//! an empirical question this crate is allowed to answer. [`tune_gemm_config`]
//! sweeps the cross product of blocking candidates and the variants runnable
//! on this CPU, and [`install`] makes the winning [`GemmConfig`] the
//! process-wide default for both axes at once.

use crate::{exhaustive, median_of, SweepResult};
use xsc_core::gemm::{gemm_with_opts, Transpose};
use xsc_core::{gen, microkernel, GemmParams, Matrix, MicroKernel};
use xsc_metrics::Stopwatch;

/// One point in the joint GEMM tuning space: cache-blocking parameters plus
/// the micro-kernel variant that executes the register tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// Cache-blocking parameters (`MC`/`KC`/`NC`).
    pub params: GemmParams,
    /// Micro-kernel variant (bit-identical across choices).
    pub kernel: MicroKernel,
}

impl std::fmt::Display for GemmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mc={} kc={} nc={} kernel={}",
            self.params.mc, self.params.kc, self.params.nc, self.kernel
        )
    }
}

/// The default candidate grid: a small cross of `MC`/`KC`/`NC` values around
/// [`GemmParams::DEFAULT`], covering panel footprints from "fits in L1" to
/// "spills L3". Kept small (it is measured exhaustively) but wide enough
/// that the sweep is a real search, not a formality.
pub fn default_candidates() -> Vec<GemmParams> {
    let mut out = Vec::new();
    for &mc in &[64usize, 128, 256] {
        for &kc in &[128usize, 256, 512] {
            for &nc in &[256usize, 512] {
                out.push(GemmParams { mc, kc, nc });
            }
        }
    }
    out
}

/// Times one sequential blocked `s x s x s` f64 GEMM with blocking `p`,
/// returning seconds (the cost exhaustive search minimizes).
pub fn measure_gemm_seconds(
    p: GemmParams,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &mut Matrix<f64>,
) -> f64 {
    let t = Stopwatch::start();
    gemm_with_opts(
        Transpose::No,
        Transpose::No,
        1.0,
        a,
        b,
        0.0,
        c,
        p,
        microkernel::global_microkernel(),
    );
    t.seconds()
}

/// Sweeps `candidates` (the [`default_candidates`] grid if empty) at problem
/// size `s`, timing each with median-of-`reps` repetition, and returns the
/// full sweep result over [`GemmParams`].
///
/// The caller decides what to do with the winner — typically
/// `xsc_core::gemm::set_global_params(result.best)` so that every downstream
/// `gemm`/`par_gemm` call picks it up.
pub fn tune_gemm_blocking(
    s: usize,
    reps: usize,
    candidates: &[GemmParams],
) -> SweepResult<GemmParams> {
    let grid = if candidates.is_empty() {
        default_candidates()
    } else {
        candidates.to_vec()
    };
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    exhaustive(&grid, |p| {
        median_of(reps.max(1), || measure_gemm_seconds(p, &a, &b, &mut c))
    })
}

/// The default joint grid: [`default_candidates`] crossed with every
/// micro-kernel variant available in this binary on this CPU. Without the
/// `simd` feature this degenerates to the blocking grid (scalar only).
pub fn default_config_candidates() -> Vec<GemmConfig> {
    let kernels = MicroKernel::available();
    default_candidates()
        .into_iter()
        .flat_map(|params| {
            kernels
                .iter()
                .map(move |&kernel| GemmConfig { params, kernel })
        })
        .collect()
}

/// Times one sequential blocked `s x s x s` f64 GEMM under `cfg`,
/// returning seconds.
pub fn measure_gemm_config_seconds(
    cfg: GemmConfig,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &mut Matrix<f64>,
) -> f64 {
    let t = Stopwatch::start();
    gemm_with_opts(
        Transpose::No,
        Transpose::No,
        1.0,
        a,
        b,
        0.0,
        c,
        cfg.params,
        cfg.kernel,
    );
    t.seconds()
}

/// Sweeps the joint blocking x micro-kernel space (the
/// [`default_config_candidates`] grid if `candidates` is empty) at problem
/// size `s` with median-of-`reps` timing. Install the winner with
/// [`install`] — or inspect `samples` to compare variants at fixed
/// blocking, which is what E08/E18 report.
pub fn tune_gemm_config(
    s: usize,
    reps: usize,
    candidates: &[GemmConfig],
) -> SweepResult<GemmConfig> {
    let grid = if candidates.is_empty() {
        default_config_candidates()
    } else {
        candidates.to_vec()
    };
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    exhaustive(&grid, |cfg| {
        median_of(reps.max(1), || {
            measure_gemm_config_seconds(cfg, &a, &b, &mut c)
        })
    })
}

/// Makes `cfg` the process-wide default for both tuning axes: every
/// subsequent `gemm`/`par_gemm` call uses its blocking parameters *and*
/// its micro-kernel variant. Bit-identity across variants means this only
/// changes speed, never results.
pub fn install(cfg: GemmConfig) {
    xsc_core::gemm::set_global_params(cfg.params);
    microkernel::set_global_microkernel(cfg.kernel);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_nonempty_and_normal() {
        let grid = default_candidates();
        assert!(grid.len() >= 8);
        for p in &grid {
            assert_eq!(*p, p.normalized(), "grid point {p:?} off the micro grid");
        }
    }

    #[test]
    fn tune_returns_a_candidate_from_the_grid() {
        // Tiny problem + 1 rep: this is a smoke test of the plumbing, not a
        // performance claim.
        let grid = [
            GemmParams {
                mc: 32,
                kc: 32,
                nc: 32,
            },
            GemmParams {
                mc: 64,
                kc: 64,
                nc: 64,
            },
        ];
        let res = tune_gemm_blocking(48, 1, &grid);
        assert!(grid.contains(&res.best));
        assert_eq!(res.evaluations, grid.len());
        assert!(res.best_cost.is_finite() && res.best_cost >= 0.0);
    }

    #[test]
    fn empty_candidates_fall_back_to_default_grid() {
        let res = tune_gemm_blocking(32, 1, &[]);
        assert_eq!(res.evaluations, default_candidates().len());
    }

    #[test]
    fn config_grid_crosses_blocking_with_available_kernels() {
        let grid = default_config_candidates();
        let kernels = MicroKernel::available();
        assert_eq!(grid.len(), default_candidates().len() * kernels.len());
        for k in &kernels {
            assert!(grid.iter().any(|c| c.kernel == *k), "missing {k}");
        }
    }

    #[test]
    fn config_tune_returns_a_candidate_and_installs() {
        let p = GemmParams {
            mc: 32,
            kc: 32,
            nc: 32,
        };
        let grid: Vec<GemmConfig> = MicroKernel::available()
            .into_iter()
            .map(|kernel| GemmConfig { params: p, kernel })
            .collect();
        let res = tune_gemm_config(48, 1, &grid);
        assert!(grid.contains(&res.best));
        assert_eq!(res.evaluations, grid.len());
        install(res.best);
        assert_eq!(xsc_core::gemm::global_params(), p);
        assert_eq!(microkernel::global_microkernel(), res.best.kernel);
        // Leave the process defaults as other tests expect them.
        xsc_core::gemm::clear_global_params();
        microkernel::clear_global_microkernel();
    }
}
