//! E01 — the headline figure: HPL runs near peak, HPCG at a few percent.
//!
//! "Peak" is the machine's best measured parallel `dgemm` rate — since the
//! cache-blocked GEMM rewrite, the packed blocked kernel parallelized over
//! column macro-tiles (the honest single-node analogue of the spec-sheet
//! peak HPL divides by). The old column-sweep kernel is timed alongside as
//! the before/after record of that rewrite.
//!
//! The dense ladder breaks HPL's rate into the layers under it — the
//! build's multiply-add roof on one core, one micro-kernel tile from L1,
//! sequential `gemm`, `par_gemm` at HPL's first trailing-update shape,
//! `par_getrf`, `run_hpl` — each as a median with min/max over 5 runs and
//! as a fraction of the rung above. If HPL's rate follows from its
//! kernels, the `par_getrf` and `run_hpl` rungs sit close to `par_gemm`'s,
//! and the micro-kernel's fraction of the roof bounds every rung above.

use crate::json::{write_report, Json};
use crate::measured::{kernel, leaf_sum};
use crate::table::{f2, pct, secs, Table};
use crate::{best_of, time_it, Scale};
use xsc_core::gemm::{colsweep_gemm, gemm, par_gemm, Transpose, MR, NR};
use xsc_core::microkernel::{global_microkernel, mulacc_roof_gflops, tile_gflops};
use xsc_core::{flops, gen, Matrix};
use xsc_dense::hpl;
use xsc_machine::KernelProfile;
use xsc_sparse::{run_hpcg_fmt, Geometry, SparseFormat};

/// Blocked vs column-sweep sequential kernel rates at `s`^3 (Gflop/s).
fn kernel_rates(s: usize, reps: usize) -> (f64, f64) {
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    let fl = flops::gemm(s, s, s);
    let t_sweep = best_of(reps, || {
        colsweep_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });
    let t_blocked = best_of(reps, || {
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });
    (flops::gflops(fl, t_blocked), flops::gflops(fl, t_sweep))
}

/// Runs per rung of the dense ladder.
const LADDER_REPEATS: usize = 5;

/// HPL's blocking factor, in the ladder and in the HPL rows.
const NB: usize = 128;

/// One rung of the dense ladder: a layer, its problem and its rate
/// (Gflop/s) over [`LADDER_REPEATS`] runs.
struct Rung {
    layer: &'static str,
    problem: String,
    rates: Vec<f64>,
}

impl Rung {
    /// `(median, min, max)` of the rates.
    fn spread(&self) -> (f64, f64, f64) {
        let mut v = self.rates.clone();
        v.sort_by(f64::total_cmp);
        let k = v.len();
        let median = if k % 2 == 1 {
            v[k / 2]
        } else {
            0.5 * (v[k / 2 - 1] + v[k / 2])
        };
        (median, v[0], v[k - 1])
    }
}

/// Times `op` [`LADDER_REPEATS`] times; each run's rate is `flop` over its
/// seconds.
fn rates(flop: u64, mut op: impl FnMut()) -> Vec<f64> {
    (0..LADDER_REPEATS)
        .map(|_| flops::gflops(flop, time_it(&mut op)))
        .collect()
}

/// Rounds of the multiply-add roof per run (about 10 ms on a 2-vCPU Xeon).
const ROOF_STEPS: usize = 4_000_000;

/// Depth of the micro-kernel rung's packed panels: the default `kc`. The
/// tile's two panels are 32 KiB of `f64` with the scalar kernel's `B`
/// stored twice, so they stay in L1.
const TILE_KCB: usize = 256;

/// Micro-kernel calls per run (about 10 ms on a 2-vCPU Xeon).
const TILE_CALLS: usize = 10_000;

/// The dense ladder for HPL at order `n`: the multiply-add roof and one
/// micro-kernel tile from L1 (measured alternately, on one core), sequential
/// `gemm` at 512³, `par_gemm` on HPL's first trailing update (`(n−nb) × nb`
/// times `nb × (n−nb)`), `par_getrf` and `run_hpl`.
fn dense_ladder(n: usize) -> Vec<Rung> {
    let mk = global_microkernel();
    let (mut roof_rates, mut tile_rates) = (Vec::new(), Vec::new());
    for _ in 0..LADDER_REPEATS {
        roof_rates.push(mulacc_roof_gflops(ROOF_STEPS));
        tile_rates.push(tile_gflops(mk, TILE_KCB, TILE_CALLS));
    }

    let s = 512;
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    let gemm_rates = rates(flops::gemm(s, s, s), || {
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });

    let m = n - NB;
    let a = gen::random_matrix::<f64>(m, NB, 3);
    let b = gen::random_matrix::<f64>(NB, m, 4);
    let mut c = gen::random_matrix::<f64>(m, m, 5);
    let par_gemm_rates = rates(flops::gemm(m, m, NB), || {
        par_gemm(Transpose::No, Transpose::No, -1.0, &a, &b, 1.0, &mut c)
    });

    let a = gen::random_matrix::<f64>(n, n, 42);
    let lu_rates = (0..LADDER_REPEATS)
        .map(|_| {
            let mut lu = a.clone();
            let t = time_it(|| {
                hpl::par_getrf(&mut lu, NB).expect("random HPL matrix is nonsingular");
            });
            flops::gflops(flops::lu(n), t)
        })
        .collect();
    let hpl_rates = (0..LADDER_REPEATS)
        .map(|_| hpl::run_hpl(n, NB, 42).expect("HPL run failed").gflops)
        .collect();

    vec![
        Rung {
            layer: "mulacc_roof",
            problem: "24 chains".into(),
            rates: roof_rates,
        },
        Rung {
            layer: "microkernel",
            problem: format!("{MR}x{NR} kcb={TILE_KCB} {mk}"),
            rates: tile_rates,
        },
        Rung {
            layer: "gemm",
            problem: format!("{s}^3"),
            rates: gemm_rates,
        },
        Rung {
            layer: "par_gemm",
            problem: format!("{m}x{NB}x{m}"),
            rates: par_gemm_rates,
        },
        Rung {
            layer: "par_getrf",
            problem: format!("n={n} nb={NB}"),
            rates: lu_rates,
        },
        Rung {
            layer: "run_hpl",
            problem: format!("n={n} nb={NB}"),
            rates: hpl_rates,
        },
    ]
}

/// Prints the ladder and returns its JSON form.
fn report_ladder(rungs: &[Rung]) -> Json {
    let mut t = Table::new(&[
        "layer",
        "problem",
        "median Gflop/s",
        "min",
        "max",
        "% of row above",
    ]);
    let mut out = Vec::new();
    let mut above: Option<f64> = None;
    for r in rungs {
        let (med, lo, hi) = r.spread();
        let frac = above.map(|a| med / a);
        t.row(vec![
            r.layer.into(),
            r.problem.clone(),
            f2(med),
            f2(lo),
            f2(hi),
            frac.map_or_else(|| "-".into(), pct),
        ]);
        out.push(Json::obj(vec![
            ("layer", Json::s(r.layer)),
            ("problem", Json::s(r.problem.clone())),
            ("repeats", Json::Int(r.rates.len() as i64)),
            ("gflops_median", Json::Num(med)),
            ("gflops_min", Json::Num(lo)),
            ("gflops_max", Json::Num(hi)),
            ("fraction_of_row_above", frac.map_or(Json::Null, Json::Num)),
        ]));
        above = Some(med);
    }
    t.print(&format!(
        "E01 dense ladder: each layer's rate, median (min/max) over {LADDER_REPEATS} runs"
    ));
    Json::Arr(out)
}

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// Runs the experiment; with `json` set, also writes `BENCH_e01.json`.
pub fn run_opts(scale: Scale, json: bool) {
    let peak = hpl::measure_peak_gflops(scale.pick(256, 512), 3);
    println!("\n[E01] measured machine peak (parallel blocked dgemm): {peak:.2} Gflop/s");

    // Before/after record of the blocked-GEMM rewrite, at the size the
    // #[ignore] perf gate in xsc-core asserts on.
    let gemm_s = 512;
    let (blocked_gf, sweep_gf) = kernel_rates(gemm_s, scale.pick(3, 5));
    println!(
        "[E01] sequential dgemm at {gemm_s}^3: blocked {blocked_gf:.2} Gflop/s ({}) vs column-sweep {sweep_gf:.2} Gflop/s ({}) — {:.2}x",
        pct(blocked_gf / peak),
        pct(sweep_gf / peak),
        blocked_gf / sweep_gf
    );

    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "benchmark",
        "problem",
        "time",
        "Gflop/s",
        "% of peak",
        "f/B model",
        "f/B meas",
        "GB moved",
        "check",
    ]);
    let ladder = report_ladder(&dense_ladder(scale.pick(1024, 2048)));

    let hpl_sizes: Vec<usize> = scale.pick(vec![512, 768, 1024], vec![1024, 2048, 4096]);
    for n in hpl_sizes {
        let (r, delta) = xsc_metrics::measure(|| hpl::run_hpl(n, NB, 42));
        let r = r.expect("HPL run failed");
        let lu = kernel(&delta, "hpl_lu");
        let model = KernelProfile::hpl(n, NB);
        t.row(vec![
            "HPL-like (dense LU)".into(),
            format!("n={n}"),
            secs(r.seconds),
            f2(r.gflops),
            pct(r.gflops / peak),
            f2(model.flops / model.dram_bytes),
            f2(lu.intensity()),
            f2(lu.bytes() as f64 / 1e9),
            if r.passed {
                "resid OK".into()
            } else {
                "RESID FAIL".into()
            },
        ]);
        rows.push(Json::obj(vec![
            ("benchmark", Json::s("hpl")),
            ("n", Json::Int(n as i64)),
            ("seconds", Json::Num(r.seconds)),
            ("gflops", Json::Num(r.gflops)),
            ("fraction_of_peak", Json::Num(r.gflops / peak)),
            (
                "modeled_intensity",
                Json::Num(model.flops / model.dram_bytes),
            ),
            ("measured_intensity", Json::Num(lu.intensity())),
            ("measured_bytes", Json::Int(lu.bytes() as i64)),
            ("measured_flops", Json::Int(lu.flops as i64)),
            ("passed", Json::Bool(r.passed)),
        ]));
    }
    let grids: Vec<usize> = scale.pick(vec![32, 48], vec![64, 96]);
    for g in grids {
        // The usize-CSR baseline and the bandwidth-lean Csr32 path: same
        // solve (bit-identical iterates), half the matrix stream.
        for fmt in [SparseFormat::CsrUsize, SparseFormat::Csr32] {
            let (r, delta) =
                xsc_metrics::measure(|| run_hpcg_fmt(Geometry::new(g, g, g), 3, 50, fmt));
            let leaf = leaf_sum(&delta);
            let model = KernelProfile::hpcg(g.pow(3), 27 * g.pow(3), 50);
            t.row(vec![
                format!("HPCG-like ({})", fmt.name()),
                format!("{g}^3 grid"),
                secs(r.seconds),
                f2(r.gflops),
                pct(r.gflops / peak),
                f2(model.flops / model.dram_bytes),
                f2(leaf.intensity()),
                f2(leaf.bytes() as f64 / 1e9),
                if r.passed {
                    "conv OK".into()
                } else {
                    "CONV FAIL".into()
                },
            ]);
            rows.push(Json::obj(vec![
                ("benchmark", Json::s("hpcg")),
                ("format", Json::s(fmt.name())),
                ("grid", Json::Int(g as i64)),
                ("seconds", Json::Num(r.seconds)),
                ("gflops", Json::Num(r.gflops)),
                ("fraction_of_peak", Json::Num(r.gflops / peak)),
                (
                    "modeled_intensity",
                    Json::Num(model.flops / model.dram_bytes),
                ),
                ("measured_intensity", Json::Num(leaf.intensity())),
                ("measured_bytes", Json::Int(leaf.bytes() as i64)),
                ("measured_flops", Json::Int(leaf.flops as i64)),
                ("passed", Json::Bool(r.passed)),
            ]));
        }
    }
    t.print("E01: HPL vs HPCG — % of measured peak, with measured flop/byte intensity");
    println!("  keynote claim: HPL at a large fraction of peak, HPCG at 1-5%; the f/B");
    println!("  columns (model: xsc-machine profiles; meas: xsc-metrics counters) show why —");
    println!("  dense LU does tens of flops per byte (~nb/8 measured; the model counts");
    println!("  one-way streaming, ~nb/4), MG-PCG less than a tenth of one.");

    if json {
        let report = Json::obj(vec![
            ("experiment", Json::s("e01_hpl_vs_hpcg")),
            ("peak_gflops", Json::Num(peak)),
            (
                "gemm_kernels",
                Json::obj(vec![
                    ("size", Json::Int(gemm_s as i64)),
                    ("blocked_gflops", Json::Num(blocked_gf)),
                    ("colsweep_gflops", Json::Num(sweep_gf)),
                    ("blocked_fraction_of_peak", Json::Num(blocked_gf / peak)),
                    ("colsweep_fraction_of_peak", Json::Num(sweep_gf / peak)),
                    ("speedup", Json::Num(blocked_gf / sweep_gf)),
                ]),
            ),
            ("ladder", ladder),
            ("rows", Json::Arr(rows)),
        ]);
        write_report("BENCH_e01.json", &report);
    }
}
