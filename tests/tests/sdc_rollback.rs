//! Property tests for the SDC-resilient Krylov stack: checkpoint
//! round-trips must be bit-exact on every sparse format, and a protected
//! solve that rolled back must still land on a genuinely converged answer
//! — while staying bit-identical to the plain solver whenever no fault
//! fires.

use proptest::prelude::*;
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::FaultPlan;
use xsc_ft::sdc::{
    protected_pcg, ProtectConfig, RecoveryOutcome, SdcReport, SolverBuffer, SolverCheckpoint,
};
use xsc_runtime::RecoveryPolicy;
use xsc_sparse::cg::{pcg, Identity};
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::{FormatMatrix, SparseFormat, SparseOps};

fn format_from_index(i: usize) -> SparseFormat {
    let all = SparseFormat::all();
    all[i % all.len()]
}

/// `true` when the last matrix-value injection came before the last
/// rollback. Every rollback ends a sweep, so that holds exactly when no
/// matrix fault landed in the final sweep — and then the pristine restore
/// must have left the operator's value slab bit-identical to the original.
fn matrix_faults_rolled_back(rep: &SdcReport) -> bool {
    let RecoveryOutcome::Converged { rollbacks, .. } = rep.outcome else {
        return false;
    };
    rep.injections
        .iter()
        .filter(|i| i.buffer == SolverBuffer::MatrixValues)
        .all(|i| i.sweep < rollbacks)
}

/// Deterministic but arbitrary-looking vector data derived from a seed.
fn synth_vec(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15))
                .wrapping_mul(0xd1b54a32d192ed03);
            ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Capture → restore reproduces every buffer and scalar to the last
    /// bit, for arbitrary state and on every storage format's value slab.
    #[test]
    fn checkpoint_roundtrip_is_bit_exact_on_every_format(
        g in 3usize..7,
        fmt_idx in 0usize..3,
        seed in 0u64..1000,
        iteration in 0usize..100,
    ) {
        let fmt = format_from_index(fmt_idx);
        let a = build_matrix(Geometry::new(g, g, g));
        let mut m = FormatMatrix::convert(a, fmt).unwrap();
        let n = m.nrows();

        let x = synth_vec(n, seed);
        let r = synth_vec(n, seed ^ 1);
        let p = synth_vec(n, seed ^ 2);
        let z = synth_vec(n, seed ^ 3);
        let rz = synth_vec(1, seed ^ 4)[0];
        let ck = SolverCheckpoint::capture(iteration, &x, &r, &p, &z, rz, iteration + 1);

        // The matrix value slab round-trips bit-exactly too (the rollback
        // path restores it from the pristine snapshot the same way).
        let pristine = m.values().to_vec();
        let k = seed as usize % pristine.len();
        m.values_mut()[k] = f64::from_bits(m.values()[k].to_bits() ^ (1u64 << 61));
        m.values_mut().copy_from_slice(&pristine);
        prop_assert_eq!(m.values(), &pristine[..], "{}: value slab must restore bitwise", fmt);

        let mut x2 = vec![0.0; n];
        let mut r2 = vec![0.0; n];
        let mut p2 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        let (it, rz2, hl) = ck.restore(&mut x2, &mut r2, &mut p2, &mut z2);
        prop_assert_eq!(it, iteration);
        prop_assert_eq!(hl, iteration + 1);
        prop_assert!(rz2.to_bits() == rz.to_bits());
        prop_assert_eq!(&x2, &x);
        prop_assert_eq!(&r2, &r);
        prop_assert_eq!(&p2, &p);
        prop_assert_eq!(&z2, &z);
    }

    /// With the fault rate at zero the protected loop is a bit-identical
    /// re-spelling of plain PCG, on every format, for arbitrary seeds,
    /// checkpoint cadences, and drift cadences.
    #[test]
    fn fault_free_protected_solve_is_bit_identical_to_pcg(
        g in 4usize..8,
        fmt_idx in 0usize..3,
        seed in 0u64..1000,
        ckpt in 1usize..9,
        drift in 1usize..5,
    ) {
        let fmt = format_from_index(fmt_idx);
        let a_csr = build_matrix(Geometry::new(g, g, g));
        let (b, _) = build_rhs(&a_csr);
        let a_ref = FormatMatrix::convert(a_csr.clone(), fmt).unwrap();
        let mut a = FormatMatrix::convert(a_csr, fmt).unwrap();

        let mut x_ref = vec![0.0; b.len()];
        let reference = pcg(&a_ref, &b, &mut x_ref, 80, 1e-9, &Identity);

        let cfg = ProtectConfig {
            checkpoint_interval: ckpt,
            drift_check_interval: drift,
        };
        let plan = FaultPlan::new(seed, 0.0, FaultKind::BitFlip);
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a, &b, &mut x, 80, 1e-9, &Identity, &plan, &cfg, &RecoveryPolicy::default(),
        );
        prop_assert_eq!(&x, &x_ref, "{}: iterates diverged", fmt);
        prop_assert_eq!(&report.residual_history, &reference.residual_history);
        prop_assert!(report.detections.is_empty(), "{}: false positive", fmt);
        prop_assert_eq!(report.replayed_iterations, 0);
    }

    /// Under forced catastrophic faults the protected solve rolls back and
    /// still converges to a *validated* answer: the recomputed final
    /// residual meets the tolerance, the matrix ends bit-identical to its
    /// pristine values whenever the last fault was rolled back, and the
    /// whole run replays byte-for-byte.
    #[test]
    fn rollback_replay_converges_and_is_reproducible(
        fmt_idx in 0usize..3,
        seed in 0u64..200,
    ) {
        let fmt = format_from_index(fmt_idx);
        let a_csr = build_matrix(Geometry::new(6, 6, 6));
        let (b, _) = build_rhs(&a_csr);
        let plan = FaultPlan::new(seed, 0.2, FaultKind::Stuck(1e28));
        let cfg = ProtectConfig {
            checkpoint_interval: 2,
            drift_check_interval: 1,
        };
        let policy = RecoveryPolicy::with_max_attempts(25);

        let pristine = FormatMatrix::convert(a_csr.clone(), fmt).unwrap().values().to_vec();
        let run = || {
            let mut a = FormatMatrix::convert(a_csr.clone(), fmt).unwrap();
            let mut x = vec![0.0; b.len()];
            let rep = protected_pcg(
                &mut a, &b, &mut x, 300, 1e-8, &Identity, &plan, &cfg, &policy,
            );
            (x, rep, a.values().to_vec())
        };
        let (x1, rep1, values1) = run();
        let (x2, rep2, _) = run();

        prop_assert!(rep1.outcome.converged(), "{}: {:?}", fmt, rep1.outcome);
        prop_assert!(
            rep1.final_true_residual <= 1e-7,
            "{}: claimed convergence is not genuine: {:.3e}",
            fmt, rep1.final_true_residual
        );
        if !rep1.injections.is_empty() {
            prop_assert!(!rep1.detections.is_empty(),
                "{}: 1e28 corruptions must be detected", fmt);
        }
        if matrix_faults_rolled_back(&rep1) {
            prop_assert_eq!(&values1, &pristine, "{}: value slab not restored", fmt);
        }
        // Byte-reproducibility of the full rollback-replay trajectory.
        prop_assert_eq!(&x1, &x2);
        prop_assert_eq!(&rep1.injections, &rep2.injections);
        prop_assert_eq!(&rep1.detections, &rep2.detections);
        prop_assert_eq!(&rep1.residual_history, &rep2.residual_history);
        prop_assert_eq!(rep1.executed_iterations, rep2.executed_iterations);
        prop_assert_eq!(rep1.simulated_backoff, rep2.simulated_backoff);
    }
}
