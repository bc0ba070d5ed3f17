//! Performance regression gates for the blocked GEMM:
//!
//! * the scalar micro-kernel must reach 85% of the build's own multiply-add
//!   roof, one tile from L1 against `mulacc_roof_gflops`, best of 30
//!   interleaved rounds each (a same-process ratio, not absolute seconds);
//! * the packed blocked kernel must beat the pre-blocking column sweep on a
//!   512x512x512 f64 multiply;
//! * `par_gemm` must beat the sequential kernel;
//! * `par_getrf` at n = 2048, nb = 128 must reach 60% of the `par_gemm`
//!   rate on HPL's first trailing-update shape (`1920 x 1920 x 128`),
//!   best of 5 interleaved rounds each (a same-process ratio).
//!
//! All four are `#[ignore]`d in `cargo test`. The test profile builds at
//! `opt-level = 2` with overflow checks, where the first two gates fail:
//! on a 2-vCPU Xeon the packed GEMM ran at 0.56–0.61× the column sweep's
//! rate at 512³, and the micro-kernel at 0.72–0.73 of the roof. In release
//! on that Xeon, the micro-kernel reads 0.91–1.06 of the roof; the kernel
//! that shuffled every `B` entry into both SSE2 lanes read 0.71–0.76. CI
//! runs the first two gates and the LU one in release:
//! `cargo test --release -p xsc-core --test gemm_perf -- --ignored scalar_microkernel_reaches_85_percent_of_roof`,
//! `... -- --ignored blocked_gemm_beats_colsweep_at_512` and
//! `... -- --ignored par_getrf_reaches_60_percent_of_par_gemm`.

use xsc_core::factor::par_getrf;
use xsc_core::gemm::{colsweep_gemm, gemm, par_gemm, Transpose};
use xsc_core::microkernel::{mulacc_roof_gflops, tile_gflops};
use xsc_core::{flops, gen, Matrix, MicroKernel};
use xsc_metrics::Stopwatch;

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Stopwatch::start();
            f();
            t.seconds()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "wall-clock perf gate; run with --ignored on quiet hardware"]
fn blocked_gemm_beats_colsweep_at_512() {
    let s = 512;
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);

    let t_sweep = best_of(5, || {
        colsweep_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });
    let t_blocked = best_of(5, || {
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });
    let gf = |t: f64| 2.0 * (s as f64).powi(3) / t / 1e9;
    eprintln!(
        "colsweep: {:.3}s ({:.2} GF/s)  blocked: {:.3}s ({:.2} GF/s)  speedup {:.2}x",
        t_sweep,
        gf(t_sweep),
        t_blocked,
        gf(t_blocked),
        t_sweep / t_blocked
    );
    assert!(
        t_blocked < t_sweep,
        "blocked gemm ({t_blocked:.3}s) must beat the column sweep ({t_sweep:.3}s) at {s}^3"
    );
}

#[test]
#[ignore = "wall-clock perf gate; run with --ignored on quiet hardware"]
fn par_gemm_macro_tiles_beat_sequential_blocked_at_512() {
    let s = 512;
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads < 2 {
        eprintln!("single-core host; skipping parallel perf gate");
        return;
    }
    let t_seq = best_of(5, || {
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });
    let t_par = best_of(5, || {
        par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c)
    });
    eprintln!("seq blocked: {t_seq:.3}s  par blocked ({threads} threads): {t_par:.3}s");
    assert!(
        t_par < t_seq,
        "par_gemm ({t_par:.3}s) must beat sequential blocked gemm ({t_seq:.3}s) on {threads} cores"
    );
}

#[test]
#[ignore = "wall-clock perf gate; run with --ignored in release"]
fn scalar_microkernel_reaches_85_percent_of_roof() {
    // Interleaved rounds, best of each arm: both see the same host load.
    let (mut tile, mut roof) = (0.0f64, 0.0f64);
    for _ in 0..30 {
        tile = tile.max(tile_gflops(MicroKernel::Scalar, 256, 4000));
        roof = roof.max(mulacc_roof_gflops(1_500_000));
    }
    eprintln!(
        "scalar micro-kernel: {tile:.2} Gflop/s  mul-add roof: {roof:.2} Gflop/s  ratio {:.2}",
        tile / roof
    );
    assert!(
        tile >= 0.85 * roof,
        "scalar micro-kernel ({tile:.2} Gflop/s) must reach 85% of the mul-add roof ({roof:.2})"
    );
}

#[test]
#[ignore = "wall-clock perf gate; run with --ignored in release"]
fn par_getrf_reaches_60_percent_of_par_gemm() {
    let (n, nb) = (2048, 128);
    let a = gen::random_matrix::<f64>(n, n, 1);
    // HPL's first trailing update: A22 (n-nb square) -= L21 * U12.
    let m = n - nb;
    let l21 = gen::random_matrix::<f64>(m, nb, 2);
    let u12 = gen::random_matrix::<f64>(nb, m, 3);
    let mut a22 = gen::random_matrix::<f64>(m, m, 4);
    // Interleaved rounds, best of each arm: both see the same host load.
    let (mut t_lu, mut t_gemm) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let mut lu = a.clone();
        let t = Stopwatch::start();
        par_getrf(&mut lu, nb).expect("random matrix is nonsingular");
        t_lu = t_lu.min(t.seconds());
        let t = Stopwatch::start();
        par_gemm(
            Transpose::No,
            Transpose::No,
            -1.0,
            &l21,
            &u12,
            1.0,
            &mut a22,
        );
        t_gemm = t_gemm.min(t.seconds());
    }
    let lu_rate = flops::gflops(flops::lu(n), t_lu);
    let gemm_rate = flops::gflops(flops::gemm(m, m, nb), t_gemm);
    eprintln!(
        "par_getrf n={n} nb={nb}: {lu_rate:.2} Gflop/s  par_gemm {m}x{m}x{nb}: {gemm_rate:.2} Gflop/s  ratio {:.2}",
        lu_rate / gemm_rate
    );
    assert!(
        lu_rate >= 0.6 * gemm_rate,
        "par_getrf ({lu_rate:.2} Gflop/s) must reach 60% of par_gemm ({gemm_rate:.2}) at n={n}"
    );
}
