//! The `hpcg` workload: `xsc_sparse::run_hpcg` in the default format, and
//! its traced form that runs the same steps with span adapters around the
//! operator and the multigrid preconditioner.

use crate::report::{median, Report};
use crate::trace::{Tracer, MG_SPAN, SPMV_SPAN};
use crate::{invocations, OpTimes, Sizes};
use std::time::Instant;
use xsc_sparse::mg::{MgPreconditioner, Smoother};
use xsc_sparse::stencil::{build_matrix, build_rhs};
use xsc_sparse::{run_hpcg, try_pcg, FormatMatrix, Geometry, HpcgResult, SparseFormat, SparseOps};

fn geometry(z: &Sizes) -> Geometry {
    Geometry::new(z.hpcg_grid, z.hpcg_grid, z.hpcg_grid)
}

/// The output check: HPCG's own acceptance and exactly the stated number
/// of iterations.
fn accepted(res: &HpcgResult, iters: usize) -> bool {
    res.passed && res.iterations == iters
}

/// The untraced run: `run_hpcg` repeated until `seconds` are used (at
/// least `hpcg_min_ops`). Its set-up (stencil and multigrid hierarchy) is
/// the call's wall time minus its timed solve.
pub fn run(z: &Sizes, seconds: f64, r: &mut Report) {
    let start = Instant::now();
    let (mut setup, mut solve, mut rate, mut walls) = (vec![], vec![], vec![], vec![]);
    loop {
        let t = Instant::now();
        let res = run_hpcg(geometry(z), z.hpcg_levels, z.hpcg_iters);
        let wall = t.elapsed().as_secs_f64();
        r.check(accepted(&res, z.hpcg_iters));
        setup.push(wall - res.seconds);
        solve.push(res.seconds);
        rate.push(res.gflops);
        walls.push(wall);
        let typical = median(&walls);
        if walls.len() >= z.hpcg_min_ops && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    r.set("setup_s", median(&setup));
    r.set("solve_s", median(&solve));
    r.set("gflops", median(&rate));
}

/// One untraced `run_hpcg` (the baseline of the tracing overhead).
pub fn untraced_op(z: &Sizes, r: &mut Report) -> OpTimes {
    let res = run_hpcg(geometry(z), z.hpcg_levels, z.hpcg_iters);
    r.check(accepted(&res, z.hpcg_iters));
    OpTimes {
        solve_s: res.seconds,
        records: 0.0,
    }
}

/// One traced operation: `run_hpcg`'s steps with the operator and the
/// preconditioner wrapped in span adapters, then timed SymGS sweeps on the
/// fine operator. Sets the `sparse.*` metrics; needs `core.axpy.gbs`.
pub fn traced_op(z: &Sizes, t: &Tracer, r: &mut Report) -> OpTimes {
    let g = geometry(z);
    let root = t.begin("hpcg");
    let ((a, b, mg), setup) = xsc_metrics::measure(|| {
        t.span("sparse.setup", || {
            let a_csr = build_matrix(g);
            let (b, _) = build_rhs(&a_csr);
            let a = FormatMatrix::convert(a_csr, SparseFormat::CsrUsize).expect("usize CSR fits");
            let mg = MgPreconditioner::try_with_format(
                g,
                z.hpcg_levels,
                Smoother::SymGs,
                SparseFormat::CsrUsize,
            )
            .expect("the benchmark grid coarsens to the stated depth");
            (a, b, mg)
        })
    });
    let ops = crate::trace::TracedOps::new(a, t);
    let pre = crate::trace::TracedPrecond::new(mg, t);
    let mut x = vec![0.0; ops.nrows()];
    let mark = t.len();
    let pcg = t.begin("sparse.pcg");
    let (res, delta) = xsc_metrics::measure(|| try_pcg(&ops, &b, &mut x, z.hpcg_iters, 0.0, &pre));
    t.end(pcg, 0);
    let solve_s = t.totals_since(pcg, "sparse.pcg").1;
    let ok = match &res {
        Ok(res) => {
            let initial = res.residual_history.first().copied().unwrap_or(1.0);
            let fin = res.final_residual();
            r.set("sparse.cg.iterations", res.iterations as f64);
            r.set("sparse.cg.final_residual", fin);
            res.iterations == z.hpcg_iters && (fin < initial * 1e-6 || fin < 1e-10)
        }
        Err(e) => {
            eprintln!("hpcg: try_pcg failed: {e}");
            false
        }
    };
    r.check(ok);

    let (spmv_calls, spmv_s, spmv_bytes) = t.totals_since(mark, SPMV_SPAN);
    let (mg_calls, mg_s, _) = t.totals_since(mark, MG_SPAN);
    r.set("sparse.cg.spmv.calls", spmv_calls as f64);
    r.set("sparse.cg.spmv.s", spmv_s);
    r.set("sparse.cg.spmv.gbs", spmv_bytes as f64 / spmv_s / 1e9);
    r.set("sparse.mg.calls", mg_calls as f64);
    r.set("sparse.mg.s", mg_s);
    r.set("sparse.cg.other_s", t.self_seconds(pcg));
    let bytes_of = |kernel: &str| {
        delta
            .iter()
            .find(|(k, _)| *k == kernel)
            .map_or(0, |(_, c)| c.bytes())
    };
    r.set("sparse.spmv.bytes", bytes_of("spmv") as f64);
    r.set("sparse.mg_vcycle.bytes", bytes_of("mg_vcycle") as f64);
    if let Some(roof) = r.get("core.axpy.gbs") {
        r.set(
            "sparse.spmv.frac_roof",
            spmv_bytes as f64 / spmv_s / 1e9 / roof,
        );
    }

    // One SymGS application on the fine operator, from a zero guess.
    let fine = pre.inner().fine_matrix();
    let sweep_bytes = fine.symgs_traffic().bytes();
    let mut times = Vec::new();
    for _ in 0..z.probe.reps {
        x.iter_mut().for_each(|v| *v = 0.0);
        let id = t.begin("sparse.symgs");
        fine.symgs(&b, &mut x);
        t.end(id, sweep_bytes);
        times.push(t.totals_since(id, "sparse.symgs").1);
    }
    t.end(root, 0);
    let fine_s = median(&times);
    r.set("sparse.symgs.fine_s", fine_s);
    r.set("sparse.symgs.fine_gbs", sweep_bytes as f64 / fine_s / 1e9);
    OpTimes {
        solve_s,
        records: invocations(&setup) + invocations(&delta),
    }
}
