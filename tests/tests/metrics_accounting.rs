//! Cross-crate checks of the `xsc-metrics` data-movement accounting: the
//! instrumented kernels must report **identical** flop/byte totals across
//! identical runs (counters are analytic, not sampled), and the measured
//! numbers must reproduce the keynote's dense-vs-sparse intensity gap.

use std::sync::Mutex;
use xsc_core::gemm::{gemm, Transpose};
use xsc_core::{gen, Matrix};
use xsc_metrics::KernelCounters;
use xsc_sparse::stencil::{build_matrix, build_rhs};
use xsc_sparse::{run_hpcg, Geometry, SparseOps};

/// The metrics registry is process-global; tests in this binary take this
/// lock so one test's reset cannot clobber another's accumulation.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// One representative instrumented workload: a dense gemm, an HPL-like
/// solve, and an HPCG-like solve.
fn workload() -> Vec<(&'static str, KernelCounters)> {
    let s = 96;
    let a = gen::random_matrix::<f64>(s, s, 1);
    let b = gen::random_matrix::<f64>(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
    xsc_dense::hpl::run_hpl(128, 32, 7).expect("hpl run");
    run_hpcg(Geometry::new(16, 16, 16), 3, 5);
    xsc_metrics::snapshot()
}

/// Strip the wall-clock field, which legitimately differs between runs.
fn untimed(snap: &[(&'static str, KernelCounters)]) -> Vec<(&'static str, KernelCounters)> {
    snap.iter()
        .map(|&(k, c)| (k, KernelCounters { ns: 0, ..c }))
        .collect()
}

#[test]
fn identical_runs_report_identical_flop_byte_totals() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    xsc_metrics::reset();
    let first = workload();
    xsc_metrics::reset();
    let second = workload();
    assert!(
        !first.is_empty(),
        "instrumented kernels should have recorded counters"
    );
    assert_eq!(
        untimed(&first),
        untimed(&second),
        "flop/byte totals must be deterministic across identical runs"
    );
    for (k, c) in &first {
        assert!(c.invocations > 0, "{k} recorded without invocations");
    }
}

#[test]
fn measured_intensity_gap_matches_the_keynote() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, delta) = xsc_metrics::measure(|| {
        let s = 128;
        let a = gen::random_matrix::<f64>(s, s, 1);
        let b = gen::random_matrix::<f64>(s, s, 2);
        let mut c = Matrix::<f64>::zeros(s, s);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);

        let g = Geometry::new(24, 24, 24);
        let m = build_matrix(g);
        let (_, rhs) = build_rhs(&m);
        let mut y = vec![0.0; m.nrows()];
        m.spmv(&rhs, &mut y);
    });
    let get = |name: &str| {
        delta
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, c)| *c)
            .expect("kernel recorded")
    };
    let ge = get("gemm");
    let sp = get("spmv");
    assert!(
        ge.intensity() >= 10.0 * sp.intensity(),
        "dense gemm intensity ({:.2} f/B) should dwarf sparse spmv ({:.2} f/B)",
        ge.intensity(),
        sp.intensity()
    );
    // SpMV moves ~(2 values + 1 index + 1 gathered element) per nonzero;
    // its intensity must sit below 1 flop per 8-byte word.
    assert!(sp.intensity() < 0.125);
}
