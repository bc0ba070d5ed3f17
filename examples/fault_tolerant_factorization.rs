//! Algorithm-based fault tolerance in action: checksum-encoded GEMM that
//! locates and repairs an injected bit flip, a verified Cholesky, and a CG
//! solve that survives silent data corruption.
//!
//! ```sh
//! cargo run --release -p xsc-examples --bin fault_tolerant_factorization
//! ```

use xsc_core::gemm::{gemm, Transpose};
use xsc_core::{gen, Matrix};
use xsc_examples::banner;
use xsc_ft::abft::{abft_gemm, verified_cholesky};
use xsc_ft::checkpoint::{resilient_cg, Recovery};
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::FaultPlan;
use xsc_ft::AbftOutcome;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};

fn main() {
    banner("1. ABFT GEMM: locate and repair a bit flip from checksums");
    let n = 256;
    let a = gen::random_matrix::<f64>(n, n, 1);
    let b = gen::random_matrix::<f64>(n, n, 2);
    let (repaired, outcome) = abft_gemm(&a, &b, |c| {
        let (i, j) = (n / 4, n / 2);
        c.set(i, j, FaultKind::BitFlip.apply(c.get(i, j)));
        println!("  injected a bit flip at ({i},{j}) during the multiply");
    });
    match outcome {
        AbftOutcome::Corrected { row, col, magnitude } => println!(
            "  checksums located the fault at ({row},{col}), corruption magnitude {magnitude:.2e}; repaired"
        ),
        other => println!("  unexpected outcome: {other:?}"),
    }
    let mut reference = Matrix::<f64>::zeros(n, n);
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a,
        &b,
        0.0,
        &mut reference,
    );
    println!(
        "  repaired product matches the fault-free run: max diff {:.2e}",
        repaired.max_abs_diff(&reference)
    );

    banner("2. Checksum-verified Cholesky detects a tampered factor");
    let spd = gen::random_spd::<f64>(256, 5);
    let mut f = spd.clone();
    let clean = verified_cholesky(&mut f, 64, |l| {
        let v = l.get(100, 37);
        l.set(100, 37, v + 1.0);
    })
    .unwrap();
    println!(
        "  verification flagged the tampered factorization: detected = {}",
        !clean
    );

    banner("3. CG under silent faults: checkpoint/rollback recovery");
    let g = Geometry::new(8, 8, 8);
    let sp = build_matrix(g);
    let (mut rhs, _) = build_rhs(&sp);
    for (i, v) in rhs.iter_mut().enumerate() {
        *v += ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
    }
    let plan = FaultPlan::new(11, 0.1, FaultKind::BitFlip);
    let rep = resilient_cg(
        &sp,
        &rhs,
        2000,
        1e-9,
        &plan,
        Recovery::Checkpoint { interval: 10 },
        5,
        1e-6,
    );
    println!(
        "  converged={} after {} iterations; {} faults injected, {} recoveries, {} iterations of work redone",
        rep.converged, rep.iterations, rep.faults, rep.recoveries, rep.wasted_iterations
    );
    println!("  final true residual: {:.2e}", rep.final_residual);
}
