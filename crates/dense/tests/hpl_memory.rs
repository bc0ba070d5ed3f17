//! Memory gate for `run_hpl`: it must hold one n×n matrix, not two.
//!
//! HPL's order is chosen to fill memory, so every extra n×n buffer the
//! driver holds shrinks the problem it can run by `√2`. This binary holds
//! one test, so no other test's allocations share the process: it reads
//! `VmRSS` before and `VmHWM` (the process's peak resident set) after
//! `run_hpl(2048, 128, seed)` from `/proc/self/status` and asserts that the
//! peak grew by less than 1.5 matrices. Two matrices (the generated `A`
//! plus a copy to factor) grow it by about 2.
//!
//! Before that, the same reading around `random_matrix(2048, 2048, seed)`
//! must grow by less than 1.1 matrices: the parallel fill writes its
//! chunks into the one output, and a fill that collected per-thread
//! `Vec`s and concatenated them would grow it by about 2. `VmHWM` only
//! rises, so the smaller bound is checked first.

use xsc_core::gen::random_matrix;
use xsc_dense::hpl::run_hpl;

/// The value in bytes of the `kB` field `key` of `/proc/self/status`, or
/// `None` where the file or the field is missing.
fn status_bytes(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// `f`'s result, and how far `VmHWM` after `f` (its result still held)
/// sits above `VmRSS` before it, in bytes.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = status_bytes("VmRSS").expect("VmRSS in /proc/self/status");
    let out = f();
    let peak = status_bytes("VmHWM").expect("VmHWM in /proc/self/status");
    (out, peak.saturating_sub(before))
}

#[test]
fn run_hpl_peak_memory_is_one_matrix() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: VmRSS and VmHWM come from Linux's /proc/self/status");
        return;
    }
    let (n, nb) = (2048usize, 128);
    let matrix = (n * n * std::mem::size_of::<f64>()) as u64;

    let (_, growth) = peak_growth(|| random_matrix::<f64>(n, n, 11));
    eprintln!(
        "random_matrix({n}, {n}): peak RSS grew {:.1} MiB",
        growth as f64 / 1048576.0
    );
    assert!(
        10 * growth < 11 * matrix,
        "random_matrix's peak RSS grew {growth} B, at least 1.1 × the {matrix} B matrix"
    );

    let (res, growth) = peak_growth(|| run_hpl(n, nb, 11));
    let res = res.expect("random matrix is nonsingular");
    assert!(res.passed, "scaled residual {}", res.scaled_residual);
    eprintln!(
        "run_hpl({n}, {nb}): peak RSS grew {:.1} MiB; one matrix is {:.1} MiB",
        growth as f64 / 1048576.0,
        matrix as f64 / 1048576.0
    );
    assert!(
        2 * growth < 3 * matrix,
        "run_hpl's peak RSS grew {growth} B, at least 1.5 × the {matrix} B matrix"
    );
}
