//! Memory gate for `run_hpcg`: it must hold one `csr32` hierarchy, built
//! in place, and no wider copy of it.
//!
//! `run_hpcg` stores every multigrid level with `u32` indices (12 B per
//! stored entry plus 4 B per row pointer). This binary holds one test, so
//! no other test's allocations share the process: it reads `VmRSS` before
//! and `VmHWM` (the process's peak resident set) after
//! `run_hpcg(64³, 4, 1)` from `/proc/self/status` and asserts that the peak
//! grew by less than 1.1 × that hierarchy's stored bytes plus eight fine
//! vectors (`b`, `x`, PCG's four, the scheduled sweep's shared copy of `x`
//! and the coarse ones; ≈112 MB in all). A hierarchy stored with `usize`
//! indices grows it by about 145 MB; one converted to `u32` from a `usize`
//! operator holds both fine operators at once, about 195 MB.

use xsc_sparse::{run_hpcg, Geometry, SparseFormat};

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

/// Bytes of the `csr32` 27-point operators of a `levels`-deep hierarchy
/// on the `g³` grid: 12 B per stored entry and 4 B per row pointer.
fn csr32_hierarchy_bytes(g: u64, levels: u32) -> u64 {
    (0..levels)
        .map(|l| g >> l)
        .map(|m| {
            let (n, nnz) = (m * m * m, (3 * m - 2).pow(3));
            12 * nnz + 4 * (n + 1)
        })
        .sum()
}

#[test]
fn run_hpcg_peak_memory_is_one_csr32_hierarchy() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: VmRSS and VmHWM come from Linux's /proc/self/status");
        return;
    }
    let (g, levels) = (64u64, 4u32);
    let vectors = 8 * g * g * g * std::mem::size_of::<f64>() as u64;
    let model = csr32_hierarchy_bytes(g, levels) + vectors;

    let before = status_bytes("VmRSS").expect("VmRSS in /proc/self/status");
    let m = g as usize;
    let res = run_hpcg(Geometry::new(m, m, m), levels as usize, 1);
    let peak = status_bytes("VmHWM").expect("VmHWM in /proc/self/status");
    let growth = peak.saturating_sub(before);
    let mib = |b: u64| b as f64 / 1048576.0;
    eprintln!(
        "run_hpcg({g}³, {levels}, 1): peak RSS grew {:.1} MiB; hierarchy and vectors {:.1} MiB",
        mib(growth),
        mib(model)
    );
    assert!(
        10 * growth < 11 * model,
        "run_hpcg's peak RSS grew {growth} B, at least 1.1 × the {model} B csr32 hierarchy and vectors"
    );
    assert_eq!(res.format, SparseFormat::Csr32);
    assert_eq!(res.iterations, 1);
}
