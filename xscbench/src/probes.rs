//! Per-layer probes shared by every traced run: timed calls into the
//! public kernels of xsc-core, xsc-batched, xsc-runtime, the rayon shim and
//! xsc-metrics, each reported as the median of repeated calls.

use crate::report::{median, Report};
use crate::trace::Tracer;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use xsc_batched::{batched_cholesky_solve, Batch};
use xsc_core::{blas1, factor, flops, gemm, gen, Matrix, Transpose};
use xsc_runtime::{Access, Executor, SchedPolicy, TaskGraph};

/// Probe sizes.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Rows of HPL's first trailing update (`n - nb`).
    pub trailing_m: usize,
    /// Depth of the trailing update (`nb`).
    pub trailing_k: usize,
    /// Edge of the sequential `gemm` probe.
    pub gemm_n: usize,
    /// Rows of the LU panel.
    pub panel_m: usize,
    /// Columns of the LU panel.
    pub panel_nb: usize,
    /// Fewest `axpy` elements per array; the arrays are also at least
    /// `axpy_l3_multiple` times the L3 size.
    pub axpy_min_len: usize,
    /// Multiple of the L3 size each `axpy` array spans.
    pub axpy_l3_multiple: u64,
    /// Repeats of each large probe.
    pub reps: usize,
    /// Repeats of each fixed-cost probe.
    pub micro_reps: usize,
}

fn timed<R>(t: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = t.begin(name);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    t.end(id, 0);
    (out, secs)
}

/// Runs every shared probe and sets its metrics.
pub fn run(p: &ProbeSizes, l3_bytes: u64, t: &Tracer, r: &mut Report) {
    core(p, l3_bytes, t, r);
    batched(p, t, r);
    fixed_costs(p, t, r);
}

fn core(p: &ProbeSizes, l3_bytes: u64, t: &Tracer, r: &mut Report) {
    // HPL's first trailing update: C(m×m) -= A(m×k) · B(k×m).
    let (m, k) = (p.trailing_m, p.trailing_k);
    let a = gen::random_matrix::<f64>(m, k, 11);
    let b = gen::random_matrix::<f64>(k, m, 12);
    let mut c = gen::random_matrix::<f64>(m, m, 13);
    let rates: Vec<f64> = (0..p.reps)
        .map(|_| {
            let ((), s) = timed(t, "core.par_gemm", || {
                gemm::par_gemm(Transpose::No, Transpose::No, -1.0, &a, &b, 1.0, &mut c)
            });
            flops::gflops(flops::gemm(m, m, k), s)
        })
        .collect();
    r.set("core.par_gemm.gflops", median(&rates));
    drop((a, b, c));

    let n = p.gemm_n;
    let a = gen::random_matrix::<f64>(n, n, 14);
    let b = gen::random_matrix::<f64>(n, n, 15);
    let mut c = Matrix::<f64>::zeros(n, n);
    type GemmFn = fn(Transpose, Transpose, f64, &Matrix<f64>, &Matrix<f64>, f64, &mut Matrix<f64>);
    let kernels: [(&'static str, &'static str, GemmFn); 2] = [
        ("core.gemm", "core.gemm.gflops", gemm::gemm),
        (
            "core.colsweep_gemm",
            "core.colsweep_gemm.gflops",
            gemm::colsweep_gemm,
        ),
    ];
    for (span, metric, kernel) in kernels {
        let rates: Vec<f64> = (0..p.reps)
            .map(|_| {
                let ((), s) = timed(t, span, || {
                    kernel(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
                });
                flops::gflops(flops::gemm(n, n, n), s)
            })
            .collect();
        r.set(metric, median(&rates));
    }
    drop((a, b, c));

    let panel = gen::random_matrix::<f64>(p.panel_m, p.panel_nb, 16);
    let times: Vec<f64> = (0..p.reps)
        .map(|_| {
            let mut work = panel.clone();
            let mut piv = vec![0usize; p.panel_m];
            let (res, s) = timed(t, "core.getrf_panel", || {
                factor::getrf_panel(&mut work, 0, p.panel_nb, &mut piv)
            });
            res.expect("a random panel has nonzero pivots");
            s
        })
        .collect();
    r.set("core.getrf_panel.s", median(&times));

    // Streaming axpy over arrays several times the L3: the memory roof.
    let len = p
        .axpy_min_len
        .max((p.axpy_l3_multiple * l3_bytes / 8) as usize);
    let x = vec![1.0f64; len];
    let mut y = vec![2.0f64; len];
    let bytes = xsc_metrics::traffic::axpy(len, 8).bytes() as f64;
    let rates: Vec<f64> = (0..p.reps)
        .map(|_| {
            let ((), s) = timed(t, "core.axpy", || blas1::axpy(1e-3, &x, &mut y));
            bytes / s / 1e9
        })
        .collect();
    black_box(&y);
    r.set("core.axpy.gbs", median(&rates));
}

fn batched(p: &ProbeSizes, t: &Tracer, r: &mut Report) {
    const DIM: usize = 8;
    for (width, metric) in [
        (1, "batched.cholesky_solve.us_per_job.w1"),
        (64, "batched.cholesky_solve.us_per_job.w64"),
    ] {
        // Enough launches for about 4096 jobs per timing.
        let launches = (4096 / width).max(1);
        let problems: Vec<(Batch<f64>, Batch<f64>)> = (0..launches)
            .map(|l| {
                let mats: Vec<Matrix<f64>> = (0..width)
                    .map(|j| gen::random_spd::<f64>(DIM, (l * width + j) as u64))
                    .collect();
                let rhs: Vec<Matrix<f64>> = mats
                    .iter()
                    .map(|m| Matrix::from_col_major(DIM, 1, gen::rhs_for_unit_solution(m)))
                    .collect();
                (Batch::from_matrices(&mats), Batch::from_matrices(&rhs))
            })
            .collect();
        let per_job: Vec<f64> = (0..p.reps)
            .map(|_| {
                let mut work = problems.clone();
                let ((), s) = timed(t, "batched.cholesky_solve", || {
                    for (a, b) in work.iter_mut() {
                        batched_cholesky_solve(a, b).expect("SPD by construction");
                    }
                });
                black_box(&work);
                1e6 * s / (launches * width) as f64
            })
            .collect();
        r.set(metric, median(&per_job));
    }
}

fn fixed_costs(p: &ProbeSizes, t: &Tracer, r: &mut Report) {
    let exec = Executor::new(2, SchedPolicy::Explicit);
    let launch: Vec<f64> = (0..p.micro_reps)
        .map(|_| {
            let mut g = TaskGraph::new();
            g.add_task("noop", [Access::Write(0)], || {});
            let (_, s) = timed(t, "runtime.execute", || exec.execute(g));
            1e6 * s
        })
        .collect();
    r.set("runtime.execute.us", median(&launch));

    let mut v = [0.0f64; 2];
    let fork: Vec<f64> = (0..p.micro_reps)
        .map(|_| {
            let ((), s) = timed(t, "rayon.fork_join", || {
                v.par_chunks_mut(1).for_each(|c| c[0] += 1.0);
            });
            1e6 * s
        })
        .collect();
    black_box(v);
    r.set("rayon.fork_join.us", median(&fork));

    const SCOPES: usize = 10_000;
    let per_record: Vec<f64> = (0..p.micro_reps.min(20))
        .map(|_| {
            let ((), s) = timed(t, "metrics.record", || {
                for _ in 0..SCOPES {
                    black_box(xsc_metrics::record(
                        "xscbench.probe",
                        xsc_metrics::Traffic::default(),
                    ));
                }
            });
            1e9 * s / SCOPES as f64
        })
        .collect();
    r.set("metrics.record.ns", median(&per_record));
}
