//! Performance regression gates for the blocked GEMM: the packed blocked
//! kernel must beat the pre-blocking column-sweep on a 512x512x512 f64
//! multiply, and `par_gemm` the sequential kernel. `#[ignore]`d in
//! `cargo test`: the test profile builds at `opt-level = 2`, where the
//! packed scalar kernel runs well below its release speed (on a 2-vCPU
//! Xeon, 2.8–3.4 Gflop/s against 4.6–5.5 for the column sweep; in release,
//! 10.2–10.4 against 7.9–9.2). CI runs the first gate in release:
//! `cargo test --release -p xsc-core --test gemm_perf -- --ignored blocked_gemm_beats_colsweep_at_512`.

use xsc_core::gemm::{colsweep_gemm, gemm, par_gemm, Transpose};
use xsc_core::{gen, Matrix};
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
