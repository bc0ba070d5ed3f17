//! HPL-like benchmark core: the thread-parallel blocked LU with partial
//! pivoting, HPL flop accounting, and the HPL acceptance residual, checked
//! against `A` regenerated from its seed as HPL's test driver does, so the
//! run holds one n×n matrix.
//!
//! This is the "old rules" side of the keynote's headline figure: dense LU
//! is compute-bound, so it runs at a large fraction of machine peak — the
//! number the Top500 ranks by. The HPCG-like driver in `xsc-sparse` is the
//! "new rules" counterpart. The LU itself is [`xsc_core::factor::par_getrf`]:
//! the same step loop as the sequential `getrf_blocked`, with its trailing
//! update on the packed GEMM that [`measure_peak_gflops`] times, so HPL's
//! rate follows from its kernels'.

pub use xsc_core::factor::par_getrf;
use xsc_core::{factor, flops, gen, norms};
use xsc_core::{Matrix, Result, Transpose};
use xsc_metrics::Stopwatch;

/// Outcome of one HPL-like run.
#[derive(Debug, Clone)]
pub struct HplResult {
    /// Problem size.
    pub n: usize,
    /// Blocking factor used.
    pub nb: usize,
    /// Wall-clock seconds for factor + solve.
    pub seconds: f64,
    /// Benchmark rate using the HPL flop formula `2n³/3 + 3n²/2`.
    pub gflops: f64,
    /// The HPL scaled residual
    /// `‖b−Ax‖∞ / (ε · (‖A‖∞‖x‖∞ + ‖b‖∞) · n)`.
    pub scaled_residual: f64,
    /// HPL acceptance: scaled residual below 16.
    pub passed: bool,
}

/// Runs the HPL-like benchmark at size `n` with blocking `nb`: random
/// uniform matrix (the distribution HPL generates), parallel pivoted LU in
/// place, two triangular solves, residual check.
///
/// Like HPL's test driver, it holds one n×n matrix from start to end: the
/// LU overwrites the generated `A`, and the residual check regenerates `A`
/// from `seed` one column at a time
/// ([`norms::hpl_scaled_residual_of_random`]) after the timer stops.
pub fn run_hpl(n: usize, nb: usize, seed: u64) -> Result<HplResult> {
    let mut a = gen::random_matrix::<f64>(n, n, seed);
    let b = gen::random_vector::<f64>(n, seed.wrapping_add(1));
    let start = Stopwatch::start();
    let piv = par_getrf(&mut a, nb)?;
    let mut x = b.clone();
    factor::getrf_solve(&a, &piv, &mut x);
    let seconds = start.seconds();
    drop(a);
    let scaled_residual = norms::hpl_scaled_residual_of_random(seed, &x, &b);
    Ok(HplResult {
        n,
        nb,
        seconds,
        gflops: flops::gflops(flops::hpl(n), seconds),
        scaled_residual,
        passed: scaled_residual < 16.0,
    })
}

/// Measures the machine's effective peak as the best parallel `dgemm` rate
/// (the cache-blocked packed kernel, parallel over column macro-tiles) over
/// `reps` runs of an `s × s × s` multiply — the denominator of every
/// "% of peak" number in the experiment suite (HPL itself defines peak from
/// the hardware spec sheet; measured-gemm peak is the honest single-node
/// equivalent).
pub fn measure_peak_gflops(s: usize, reps: usize) -> f64 {
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    let mut best = 0.0f64;
    for _ in 0..reps.max(1) {
        let t = Stopwatch::start();
        xsc_core::gemm::par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        let rate = flops::gflops(flops::gemm(s, s, s), t.seconds());
        best = best.max(rate);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::Scalar;

    /// Factors `a` with `getrf_blocked`, and with `par_getrf` on 1 to 4
    /// threads, and asserts the same result every time, bit for bit: the
    /// same factors and pivots, or the same error.
    fn assert_drivers_agree<T: Scalar>(a: &Matrix<T>, nb: usize) -> Result<Vec<usize>> {
        let n = a.rows();
        let bits = |f: &Matrix<T>| {
            f.as_slice()
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect::<Vec<_>>()
        };
        let mut f_seq = a.clone();
        let r_seq = factor::getrf_blocked(&mut f_seq, nb);
        for threads in 1..=4 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut f_par = a.clone();
            let r_par = pool.install(|| par_getrf(&mut f_par, nb));
            assert_eq!(
                r_seq, r_par,
                "pivots or errors differ n={n} nb={nb} threads={threads}"
            );
            if r_seq.is_ok() {
                assert!(
                    bits(&f_seq) == bits(&f_par),
                    "factors differ n={n} nb={nb} threads={threads}"
                );
            }
        }
        r_seq
    }

    /// `(n, nb)` shapes for the driver comparisons: n < nb, n == nb + 1,
    /// n % nb != 0, n a multiple of nb, a first look-ahead panel that is
    /// the whole trailing matrix (nb < n <= 2 nb), and trailing updates
    /// that take the column sweep, the packed path, and several tiles per
    /// thread.
    const SHAPES: [(usize, usize); 12] = [
        (7, 16),
        (50, 64),
        (17, 16),
        (65, 64),
        (37, 8),
        (64, 16),
        (32, 16),
        (29, 16),
        (130, 32),
        (129, 128),
        (300, 64),
        (700, 96),
    ];

    #[test]
    fn par_getrf_matches_sequential() {
        for (n, nb) in SHAPES {
            assert_drivers_agree(&gen::random_matrix::<f64>(n, n, 1), nb).unwrap();
        }
    }

    #[test]
    fn par_getrf_matches_sequential_in_f32() {
        for (n, nb) in SHAPES {
            assert_drivers_agree(&gen::random_matrix::<f32>(n, n, 1), nb).unwrap();
        }
    }

    /// The order-`n` random matrix seeded with `seed`, with column `zero`
    /// set to zero: its first zero pivot is at column `zero`.
    fn singular_at<T: Scalar>(n: usize, zero: usize, seed: u64) -> Matrix<T> {
        let mut a = gen::random_matrix::<T>(n, n, seed);
        for i in 0..n {
            a.set(i, zero, T::zero());
        }
        a
    }

    #[test]
    fn par_getrf_matches_sequential_when_singular_in_a_later_panel() {
        // Column 45 is zero, so the matrix turns singular only in the
        // third panel; both drivers must stop at the same pivot.
        let err = assert_drivers_agree(&singular_at::<f64>(64, 45, 3), 16).unwrap_err();
        assert_eq!(err, xsc_core::Error::Singular { pivot: 45 });
    }

    #[test]
    fn par_getrf_matches_sequential_when_singular_in_the_look_ahead_or_last_panel() {
        // Panel 1 is the first one factored while the trailing update runs;
        // the last panel is the last one factored that way. Both drivers
        // must stop at the same pivot on every thread count, in f64 and f32.
        for (n, zero) in [(64, 20), (64, 61), (60, 16), (60, 59)] {
            let want = xsc_core::Error::Singular { pivot: zero };
            let err = assert_drivers_agree(&singular_at::<f64>(n, zero, 3), 16).unwrap_err();
            assert_eq!(err, want, "f64 n={n}");
            let err = assert_drivers_agree(&singular_at::<f32>(n, zero, 3), 16).unwrap_err();
            assert_eq!(err, want, "f32 n={n}");
        }
    }

    #[test]
    fn hpl_run_passes_residual_check() {
        let res = run_hpl(96, 32, 42).unwrap();
        assert!(res.passed, "scaled residual {}", res.scaled_residual);
        assert!(res.gflops > 0.0);
        assert_eq!(res.n, 96);
    }

    #[test]
    fn hpl_rejects_wrong_solution_metric() {
        // Sanity: the acceptance threshold actually discriminates.
        let a = gen::random_matrix::<f64>(32, 32, 7);
        let b = gen::random_vector::<f64>(32, 8);
        let x = vec![0.5; 32];
        assert!(norms::hpl_scaled_residual(&a, &x, &b) > 16.0);
    }

    #[test]
    fn peak_measurement_is_positive() {
        let p = measure_peak_gflops(64, 2);
        assert!(p > 0.0);
    }

    #[test]
    fn par_getrf_handles_empty_matrix() {
        let mut a = Matrix::<f64>::zeros(0, 0);
        let piv = par_getrf(&mut a, 8).unwrap();
        assert!(piv.is_empty());
    }

    #[test]
    fn par_getrf_detects_singular() {
        let mut a = Matrix::<f64>::zeros(16, 16);
        for i in 0..15 {
            a.set(i, i, 1.0);
        }
        // Last column all zero -> singular at the last pivot.
        assert!(par_getrf(&mut a, 4).is_err());
    }
}
