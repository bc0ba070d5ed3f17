//! The `hpl` workload: `xsc_dense::hpl::run_hpl` at a fixed size, and its
//! traced form that calls `run_hpl`'s public steps one by one.

use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::{invocations, OpTimes, Sizes};
use std::hint::black_box;
use std::time::Instant;
use xsc_core::{factor, flops, gen, norms};
use xsc_dense::hpl::{par_getrf, run_hpl};

/// The seed `run_hpl` receives for operation `k` of a run seeded `seed`
/// (it draws the matrix from this seed and the right-hand side from the
/// next one).
pub fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2 * k)
}

/// A digest of operation `k`'s inputs: the sum of the matrix and the
/// right-hand side, as `run_hpl` generates them.
#[cfg(test)]
pub fn input_checksum(n: usize, seed: u64, k: u64) -> f64 {
    let s = input_seed(seed, k);
    let a = gen::random_matrix::<f64>(n, n, s);
    let b = gen::random_vector::<f64>(n, s.wrapping_add(1));
    a.as_slice().iter().sum::<f64>() + b.iter().sum::<f64>()
}

/// The untraced run: input generation timed `setup_reps` times, then
/// `run_hpl` repeated until `seconds` are used (at least `hpl_min_ops`).
pub fn run(z: &Sizes, seed: u64, seconds: f64, r: &mut Report) {
    let n = z.hpl_n;
    let mut setup = Vec::new();
    for _ in 0..z.setup_reps {
        let t = Instant::now();
        let s = input_seed(seed, 0);
        black_box(gen::random_matrix::<f64>(n, n, s));
        black_box(gen::random_vector::<f64>(n, s.wrapping_add(1)));
        setup.push(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let (mut solve, mut rate, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let t = Instant::now();
        let res = run_hpl(n, z.hpl_nb, input_seed(seed, k));
        walls.push(t.elapsed().as_secs_f64());
        match res {
            Ok(res) => {
                r.check(res.passed);
                solve.push(res.seconds);
                rate.push(res.gflops);
            }
            Err(e) => {
                eprintln!("hpl: run_hpl failed: {e}");
                r.check(false);
            }
        }
        let typical = median(&walls);
        if walls.len() >= z.hpl_min_ops && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    if solve.is_empty() {
        return;
    }
    r.set("setup_s", median(&setup));
    r.set("solve_s", median(&solve));
    r.set("gflops", median(&rate));
}

/// One untraced `run_hpl` (the baseline of the tracing overhead).
pub fn untraced_op(z: &Sizes, seed: u64, r: &mut Report) -> OpTimes {
    let solve_s = match run_hpl(z.hpl_n, z.hpl_nb, input_seed(seed, 0)) {
        Ok(res) => {
            r.check(res.passed);
            res.seconds
        }
        Err(_) => {
            r.check(false);
            f64::NAN
        }
    };
    OpTimes {
        solve_s,
        records: 0.0,
    }
}

/// One traced operation: `run_hpl`'s steps called one by one, each in its
/// own span. Sets the `dense.*` metrics; needs `core.par_gemm.gflops`.
pub fn traced_op(z: &Sizes, seed: u64, t: &Tracer, r: &mut Report) -> OpTimes {
    let (solve_s, delta) = xsc_metrics::measure(|| traced_steps(z, seed, t, r));
    OpTimes {
        solve_s,
        records: invocations(&delta),
    }
}

/// The traced steps; returns the time of the phase `run_hpl` times.
fn traced_steps(z: &Sizes, seed: u64, t: &Tracer, r: &mut Report) -> f64 {
    let (n, nb) = (z.hpl_n, z.hpl_nb);
    let s = input_seed(seed, 0);
    let root = t.begin("hpl");
    let (a, b) = t.span("dense.generate", || {
        (
            gen::random_matrix::<f64>(n, n, s),
            gen::random_vector::<f64>(n, s.wrapping_add(1)),
        )
    });
    let mark = t.len();
    let mut lu = t.span("dense.copy", || a.clone());
    let (piv, delta) =
        xsc_metrics::measure(|| t.span("dense.par_getrf", || par_getrf(&mut lu, nb)));
    let piv = match piv {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hpl: par_getrf failed: {e}");
            t.end(root, 0);
            r.check(false);
            return f64::NAN;
        }
    };
    let mut x = b.clone();
    t.span("dense.getrf_solve", || {
        factor::getrf_solve(&lu, &piv, &mut x)
    });
    let seconds = |name| t.totals_since(mark, name).1;
    let solve_s = seconds("dense.copy") + seconds("dense.par_getrf") + seconds("dense.getrf_solve");
    let residual = t.span("dense.residual", || norms::hpl_scaled_residual(&a, &x, &b));
    t.end(root, 0);
    r.check(residual < 16.0);

    let lu_counts = delta
        .iter()
        .find(|(k, _)| *k == "hpl_lu")
        .map(|(_, c)| *c)
        .unwrap_or_default();
    r.set("dense.par_getrf.s", seconds("dense.par_getrf"));
    r.set("dense.getrf_solve.s", seconds("dense.getrf_solve"));
    r.set("dense.hpl_lu.flops", lu_counts.flops as f64);
    r.set("dense.hpl_lu.bytes", lu_counts.bytes() as f64);
    if let Some(peak) = r.get("core.par_gemm.gflops") {
        r.set(
            "dense.hpl.frac_par_gemm",
            flops::gflops(flops::hpl(n), solve_s) / peak,
        );
    }
    solve_s
}
