//! E18 — the measured roofline: per-kernel flop/byte counters placed on
//! this host's measured envelope.
//!
//! Every other experiment *models* data movement; this one reads the
//! counters the instrumented kernels declare as they run (see
//! `xsc-metrics`) and places each kernel on a roofline whose two peaks are
//! measured on the spot: peak Gflop/s from the parallel blocked dgemm,
//! peak GB/s from a large streaming axpy. The plot makes the keynote's
//! headline visual: dense kernels cluster under the flat compute ceiling,
//! the HPCG-side kernels pin to the sloped bandwidth roof.

use crate::json::{write_report, Json};
use crate::table::{f2, pct, sci, Table};
use crate::Scale;
use xsc_core::gemm::{gemm, gemm_with_opts, GemmParams, Transpose};
use xsc_core::{blas1, flops, gen, microkernel, Matrix, MicroKernel};
use xsc_dense::hpl;
use xsc_metrics::{roofline, MachineEnvelope, RooflinePoint, Stopwatch};
use xsc_sparse::stencil::{build_matrix, build_rhs};
use xsc_sparse::{mg::MgPreconditioner, symgs, Geometry, Preconditioner, SparseOps};

/// Measures sustainable memory bandwidth (GB/s) from the instrumented
/// axpy's own counters: bytes declared by the traffic model over measured
/// wall time, best of several sweeps over a far-larger-than-cache stream.
fn measured_stream_gbs(scale: Scale) -> f64 {
    let n = scale.pick(1 << 22, 1 << 24); // 32 MiB / 128 MiB per vector
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let ((), delta) = xsc_metrics::measure(|| {
        for _ in 0..8 {
            blas1::axpy(1.0e-9, &x, &mut y);
        }
    });
    delta
        .iter()
        .find(|(k, _)| *k == "axpy")
        .map(|(_, c)| c.attained_gbs())
        .unwrap_or(0.0)
}

/// Runs the experiment and prints the roofline plot and table.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// One measured micro-kernel arm of the E18 GEMM showdown.
struct VariantArm {
    kernel: MicroKernel,
    seconds: f64,
    gflops: f64,
    /// Order-sensitive FNV-style hash of every bit of the output matrix —
    /// equal across variants iff the results are bit-identical.
    checksum: u64,
}

/// FNV-1a-style fold over the raw bits of `xs`, in storage order.
fn bitwise_checksum(xs: &[f64]) -> u64 {
    crate::fnv1a(xs.iter().map(|x| x.to_bits()))
}

/// Times every available micro-kernel variant on the same `s x s x s`
/// problem at blocking `params` (best of `reps`), checksumming each output.
/// Panics if any variant's output differs bitwise from the scalar arm's —
/// the bit-identity contract is what lets the roofline compare them as
/// implementations of the *same* kernel.
fn measure_variant_arms(
    s: usize,
    reps: usize,
    params: GemmParams,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Vec<VariantArm> {
    let gemm_flops = flops::gemm(s, s, s);
    let arms: Vec<VariantArm> = MicroKernel::available()
        .into_iter()
        .map(|mk| {
            let mut c = Matrix::<f64>::zeros(s, s);
            let mut seconds = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let t = Stopwatch::start();
                gemm_with_opts(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    a,
                    b,
                    0.0,
                    &mut c,
                    params,
                    mk,
                );
                seconds = seconds.min(t.seconds());
            }
            VariantArm {
                kernel: mk,
                seconds,
                gflops: flops::gflops(gemm_flops, seconds),
                checksum: bitwise_checksum(c.as_slice()),
            }
        })
        .collect();
    for arm in &arms {
        assert_eq!(
            arm.checksum, arms[0].checksum,
            "micro-kernel {} broke bit-identity with {}",
            arm.kernel, arms[0].kernel
        );
    }
    arms
}

/// Runs the experiment; with `json` set, also writes `BENCH_roofline.json`.
pub fn run_opts(scale: Scale, json: bool) {
    // Envelope measured on the spot, before the registry is cleared.
    let peak = hpl::measure_peak_gflops(scale.pick(256, 512), 3);
    let bw = measured_stream_gbs(scale);
    let env = MachineEnvelope::new("this host (measured)", peak, bw);
    println!(
        "\n[E18] measured envelope: {peak:.2} Gflop/s, {bw:.2} GB/s -> balance {:.2} flops/byte",
        env.balance()
    );

    // Run one representative instance of each instrumented kernel with a
    // cleared registry, so the snapshot below covers exactly this work.
    xsc_metrics::reset();

    // Dense side: a square gemm and a full HPL-like solve ("hpl_lu", whose
    // fused panel/update loops make it a leaf entry of its own).
    let s = scale.pick(320, 768);
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
    hpl::run_hpl(scale.pick(512, 1024), 128, 42).expect("HPL run failed");

    // Sparse side: SpMV, SymGS, and an MG V-cycle on the HPCG operator.
    // The V-cycle's nested smoother/residual work also accrues to "symgs"
    // and "spmv" — entries overlap by design (see xsc-metrics docs).
    let g = scale.pick(48, 80);
    let geo = Geometry::new(g, g, g);
    let a_csr = build_matrix(geo);
    let (_, rhs) = build_rhs(&a_csr);
    let mut y = vec![0.0; a_csr.nrows()];
    for _ in 0..scale.pick(10, 25) {
        a_csr.spmv(&rhs, &mut y);
    }
    let mut xg = vec![0.0; a_csr.nrows()];
    symgs::symgs(&a_csr, &rhs, &mut xg);
    let mgp = MgPreconditioner::new(geo, 3);
    let mut z = vec![0.0; a_csr.nrows()];
    mgp.apply(&rhs, &mut z);

    let snap = xsc_metrics::snapshot();
    let points = roofline::analyze_all(&snap, &env);
    print!("\n{}", xsc_metrics::ascii_roofline(&points, &env));

    let mut t = Table::new(&[
        "kernel",
        "flops",
        "bytes",
        "flops/byte",
        "Gflop/s",
        "GB/s",
        "% of roof",
        "bound",
    ]);
    for p in &points {
        t.row(vec![
            p.kernel.clone(),
            sci(p.flops as f64),
            sci(p.bytes as f64),
            f2(p.intensity),
            f2(p.attained_gflops),
            f2(p.attained_gbs),
            pct(p.roof_fraction),
            p.verdict.to_string(),
        ]);
    }
    t.print("E18: measured per-kernel roofline attribution");

    let by = |k: &str| points.iter().find(|p| p.kernel == k);
    if let (Some(ge), Some(sp)) = (by("gemm"), by("spmv")) {
        println!(
            "  measured intensity: gemm {:.2} vs spmv {:.2} flops/byte -> {:.1}x",
            ge.intensity,
            sp.intensity,
            ge.intensity / sp.intensity
        );
    }
    println!("  keynote claim: the sloped bandwidth roof, not the flop ceiling, bounds the");
    println!("  HPCG-side kernels; extra flops cannot move a kernel pinned to the slope.");
    println!("  (>100% of roof means the analytic traffic model charges DRAM for bytes a");
    println!("  partially cache-resident working set re-served from cache.)");

    // Micro-kernel showdown: the same sequential blocked dgemm, same
    // blocking, every variant this binary + CPU can run — one roofline
    // point per variant, bit-identity asserted between arms.
    let params = GemmParams::DEFAULT;
    let selected = microkernel::global_microkernel();
    let arms = measure_variant_arms(s, 3, params, &a, &b);
    let mut t = Table::new(&["microkernel", "time", "Gflop/s", "% of peak", "checksum"]);
    for arm in &arms {
        t.row(vec![
            format!(
                "{}{}",
                arm.kernel,
                if arm.kernel == selected {
                    " (selected)"
                } else {
                    ""
                }
            ),
            crate::table::secs(arm.seconds),
            f2(arm.gflops),
            pct(arm.gflops / env.peak_gflops),
            format!("{:016x}", arm.checksum),
        ]);
    }
    t.print(&format!(
        "E18b: GEMM micro-kernel arms, dgemm {s}^3 @ mc={} kc={} nc={} (bit-identical outputs)",
        params.mc, params.kc, params.nc
    ));
    let scalar = arms.iter().find(|v| v.kernel == MicroKernel::Scalar);
    let best_simd = arms
        .iter()
        .filter(|v| v.kernel != MicroKernel::Scalar)
        .max_by(|x, y| x.gflops.total_cmp(&y.gflops));
    match (scalar, best_simd) {
        (Some(sc), Some(simd)) => println!(
            "  {} reaches {:.2} Gflop/s vs scalar {:.2} -> {:.2}x from vectorizing the\n  micro-tile rows; identical bits either way (checksum {:016x}).",
            simd.kernel,
            simd.gflops,
            sc.gflops,
            simd.gflops / sc.gflops,
            sc.checksum
        ),
        _ => println!(
            "  no SIMD micro-kernel in this build (enable the `simd` feature on x86_64);\n  scalar arm checksum {:016x}.",
            arms[0].checksum
        ),
    }

    if json {
        let report = Json::obj(vec![
            ("experiment", Json::s("e18_roofline")),
            (
                "machine",
                Json::obj(vec![
                    ("name", Json::s(env.name.clone())),
                    ("peak_gflops", Json::Num(env.peak_gflops)),
                    ("peak_gbs", Json::Num(env.peak_gbs)),
                    ("balance_flops_per_byte", Json::Num(env.balance())),
                ]),
            ),
            (
                "kernels",
                Json::Arr(
                    points
                        .iter()
                        .map(|p| point_to_json(p, selected, params))
                        .collect(),
                ),
            ),
            (
                "gemm_variants",
                Json::Arr(
                    arms.iter()
                        .map(|arm| {
                            Json::obj(vec![
                                ("microkernel", Json::s(arm.kernel.name())),
                                ("selected", Json::Bool(arm.kernel == selected)),
                                ("mc", Json::Int(params.mc as i64)),
                                ("kc", Json::Int(params.kc as i64)),
                                ("nc", Json::Int(params.nc as i64)),
                                ("seconds", Json::Num(arm.seconds)),
                                ("gflops", Json::Num(arm.gflops)),
                                ("checksum", Json::s(format!("{:016x}", arm.checksum))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write_report("BENCH_roofline.json", &report);
    }
}

fn point_to_json(p: &RooflinePoint, selected: MicroKernel, params: GemmParams) -> Json {
    // Only the blocked-GEMM kernel row is executed by a micro-kernel; the
    // other kernels get explicit nulls so the schema is uniform.
    let uses_microkernel = p.kernel == "gemm";
    Json::obj(vec![
        ("kernel", Json::s(p.kernel.clone())),
        ("flops", Json::Int(p.flops as i64)),
        ("bytes", Json::Int(p.bytes as i64)),
        (
            "intensity",
            if p.intensity.is_finite() {
                Json::Num(p.intensity)
            } else {
                Json::Null
            },
        ),
        ("attained_gflops", Json::Num(p.attained_gflops)),
        ("attained_gbs", Json::Num(p.attained_gbs)),
        ("roof_gflops", Json::Num(p.roof_gflops)),
        ("roof_fraction", Json::Num(p.roof_fraction)),
        ("bound", Json::s(p.verdict.to_string())),
        (
            "microkernel",
            if uses_microkernel {
                Json::s(selected.name())
            } else {
                Json::Null
            },
        ),
        (
            "blocking",
            if uses_microkernel {
                Json::obj(vec![
                    ("mc", Json::Int(params.mc as i64)),
                    ("kc", Json::Int(params.kc as i64)),
                    ("nc", Json::Int(params.nc as i64)),
                ])
            } else {
                Json::Null
            },
        ),
    ])
}
