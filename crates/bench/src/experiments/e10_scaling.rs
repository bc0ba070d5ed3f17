//! E10 — strong scaling of a compute-bound kernel (GEMM) vs memory-bound
//! kernels (SpMV) vs a dependence-chained one (SymGS, parallel only
//! across the levels of its wavefront schedule).

use crate::json::{write_report, Json};
use crate::table::{f2, pct, Table};
use crate::{best_of, thread_sweep, with_threads, Scale};
use xsc_core::gemm::{par_gemm, Transpose};
use xsc_core::{flops, gen, Matrix};
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::symgs::symgs;
use xsc_sparse::SparseOps;

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// Runs the experiment; with `json` set, also writes `BENCH_e10.json`.
pub fn run_opts(scale: Scale, json: bool) {
    let n_gemm = scale.pick(384, 768);
    let g = scale.pick(32, 64);
    let reps = scale.pick(2, 3);

    let a = gen::random_matrix::<f64>(n_gemm, n_gemm, 1);
    let b = gen::random_matrix::<f64>(n_gemm, n_gemm, 2);
    let mut c = Matrix::<f64>::zeros(n_gemm, n_gemm);
    let gemm_flops = flops::gemm(n_gemm, n_gemm, n_gemm);

    let geom = Geometry::new(g, g, g);
    let sp = build_matrix(geom);
    let (rhs, _) = build_rhs(&sp);
    let x: Vec<f64> = (0..sp.nrows()).map(|i| (i % 13) as f64 * 0.1).collect();
    let mut y = vec![0.0; sp.nrows()];
    let spmv_flops = flops::spmv(sp.nnz());

    let mut base_gemm = 0.0;
    let mut base_spmv = 0.0;
    let mut json_rows = Vec::new();
    let mut t = Table::new(&[
        "threads",
        "GEMM Gflop/s",
        "GEMM efficiency",
        "SpMV Gflop/s",
        "SpMV efficiency",
    ]);
    for threads in thread_sweep() {
        let tg = with_threads(threads, || {
            best_of(reps, || {
                par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
            })
        });
        let ts = with_threads(threads, || best_of(reps, || sp.spmv_par(&x, &mut y)));
        let gflops_g = flops::gflops(gemm_flops, tg);
        let gflops_s = flops::gflops(spmv_flops, ts);
        if threads == 1 {
            base_gemm = gflops_g;
            base_spmv = gflops_s;
        }
        t.row(vec![
            threads.to_string(),
            f2(gflops_g),
            pct(gflops_g / (base_gemm * threads as f64)),
            f2(gflops_s),
            pct(gflops_s / (base_spmv * threads as f64)),
        ]);
        json_rows.push(Json::obj(vec![
            ("threads", Json::Int(threads as i64)),
            ("gemm_gflops", Json::Num(gflops_g)),
            (
                "gemm_efficiency",
                Json::Num(gflops_g / (base_gemm * threads as f64)),
            ),
            ("spmv_gflops", Json::Num(gflops_s)),
            (
                "spmv_efficiency",
                Json::Num(gflops_s / (base_spmv * threads as f64)),
            ),
        ]));
    }
    t.print(&format!(
        "E10: strong scaling — GEMM n={n_gemm} (compute-bound) vs SpMV {g}^3 (memory-bound)"
    ));

    let mut xs = vec![0.0; sp.nrows()];
    let gs_flops = 4 * sp.nnz() as u64;
    let t_gs1 = with_threads(1, || best_of(reps, || symgs(&sp, &rhs, &mut xs)));
    let t_gs = best_of(reps, || symgs(&sp, &rhs, &mut xs));
    let levels = sp
        .gs_schedule()
        .expect("the stencil is square")
        .num_levels();
    println!(
        "  SymGS (natural order): {:.2} Gflop/s on 1 thread, {:.2} on {} along its {levels}-level wavefront schedule",
        flops::gflops(gs_flops, t_gs1),
        flops::gflops(gs_flops, t_gs),
        rayon::current_num_threads(),
    );

    // Hosts with few cores cannot show the divergence live; the roofline
    // model projects it. GEMM's arithmetic intensity (~n/12 flops/byte)
    // is compute-bound at any core count; SpMV (~1/6 flops/byte) saturates
    // the memory bus almost immediately.
    let m = xsc_machine::MachineModel::node_2016();
    let bw = m.mem_bw;
    let per_core = m.flops_per_core;
    let mut t2 = Table::new(&[
        "cores",
        "GEMM modeled Gflop/s",
        "SpMV modeled Gflop/s",
        "SpMV % of linear",
    ]);
    let spmv_ai = 1.0 / 6.0; // flops per DRAM byte for CSR SpMV
    for cores in [1usize, 2, 4, 8, 16, 32, 64] {
        let gemm_rate = per_core * cores as f64; // compute-bound: scales
        let spmv_rate = (per_core * cores as f64).min(spmv_ai * bw);
        t2.row(vec![
            cores.to_string(),
            f2(gemm_rate / 1e9),
            f2(spmv_rate / 1e9),
            pct(spmv_rate / (per_core * cores as f64)),
        ]);
    }
    t2.print("E10b: roofline projection (node-2016 model) — why SpMV flatlines");
    println!("  keynote claim: adding cores multiplies flops, not bandwidth; memory-bound");
    println!("  kernels flatline while GEMM keeps scaling.");

    if json {
        let report = Json::obj(vec![
            ("experiment", Json::s("e10_scaling")),
            ("gemm_n", Json::Int(n_gemm as i64)),
            ("spmv_grid", Json::Int(g as i64)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_report("BENCH_e10.json", &report);
    }
}
