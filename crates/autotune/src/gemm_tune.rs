//! GEMM blocking-parameter and micro-kernel search.
//!
//! The blocked GEMM in `xsc-core` is governed by three cache-blocking
//! parameters ([`GemmParams`]: `MC`, `KC`, `NC`) and by the `MR x NR`
//! micro-kernel variant ([`MicroKernel`]) that runs the register tile. Like
//! tile sizes, the best blocking is machine-dependent and non-monotone, and
//! every variant is bit-identical, so which one is fastest is purely an
//! empirical question. [`tune_gemm_config`] sweeps the cross product of
//! blocking candidates and the variants runnable on this CPU (a
//! blocking-only sweep is the same call with one kernel in every
//! candidate) and returns every sample with the winner. It installs
//! nothing: `gemm`/`par_gemm` always run [`GemmParams::DEFAULT`] with
//! `microkernel::global_microkernel()`, and a caller that wants the winner
//! passes it to `gemm_with_opts`.

use crate::{exhaustive, median_of, SweepResult};
use xsc_core::gemm::{gemm_with_opts, Transpose};
use xsc_core::{gen, GemmParams, Matrix, MicroKernel};
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
/// size `s` with median-of-`reps` timing. `samples` compares variants at
/// fixed blocking and blockings at a fixed variant, which is what E08
/// reports.
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

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::gemm::gemm;
    use xsc_core::microkernel::global_microkernel;

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
        // A blocking-only sweep, with the kernel `gemm` runs held fixed.
        // Tiny problem + 1 rep: this is a smoke test of the plumbing, not a
        // performance claim.
        let kernel = global_microkernel();
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
        ]
        .map(|params| GemmConfig { params, kernel });
        let res = tune_gemm_config(48, 1, &grid);
        assert!(grid.contains(&res.best));
        assert_eq!(res.evaluations, grid.len());
        assert!(res.best_cost.is_finite() && res.best_cost >= 0.0);
    }

    #[test]
    fn empty_candidates_fall_back_to_default_grid() {
        let res = tune_gemm_config(32, 1, &[]);
        assert_eq!(res.evaluations, default_config_candidates().len());
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
        // Every kernel at the default blocking. A caller installs the
        // winner per call through `gemm_with_opts`; that gives `gemm`'s
        // bits, because every variant is bit-identical.
        let s = 48;
        let p = GemmParams::DEFAULT;
        let grid: Vec<GemmConfig> = MicroKernel::available()
            .into_iter()
            .map(|kernel| GemmConfig { params: p, kernel })
            .collect();
        let res = tune_gemm_config(s, 1, &grid);
        assert!(grid.contains(&res.best));
        assert_eq!(res.evaluations, grid.len());
        let a = gen::random_matrix::<f64>(s, s, 1);
        let b = gen::random_matrix::<f64>(s, s, 2);
        let (mut tuned, mut want) = (Matrix::zeros(s, s), Matrix::zeros(s, s));
        measure_gemm_config_seconds(res.best, &a, &b, &mut tuned);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut want);
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tuned), bits(&want));
    }
}
