//! Property tests for the resilient runtime's reproducibility guarantees:
//! a chaos campaign is a *function of its seed*, not of the schedule.
//!
//! Three properties, per the E17 design:
//! * same `FaultPlan` seed → identical retry/recovery/skip counts and
//!   identical fired-fault tallies, even across different thread counts
//!   and scheduling policies;
//! * a fault-injected, ABFT-recovered Cholesky produces a factor
//!   **bitwise identical** to the fault-free run (snapshot/restore +
//!   deterministic kernels), and solves within the HPL acceptance bound;
//! * the simulated backoff clock is part of the deterministic story.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use xsc_core::{gen, norms, TileMatrix};
use xsc_dense::cholesky::{lower_from_tiles, solve};
use xsc_dense::resilient::cholesky_resilient_abft;
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::{ChaosKind, FaultPlan};
use xsc_runtime::{
    Backoff, Executor, ExhaustedAction, RecoveryPolicy, ResilienceStats, SchedPolicy,
};

fn kind_for(idx: usize) -> ChaosKind {
    match idx % 4 {
        0 => ChaosKind::Panic,
        1 => ChaosKind::SilentCorrupt(FaultKind::BitFlip),
        2 => ChaosKind::SilentCorrupt(FaultKind::Zero),
        _ => ChaosKind::SilentCorrupt(FaultKind::Scale(1.0 + 1e3)),
    }
}

fn skip_policy() -> RecoveryPolicy {
    // SkipSubtree keeps every outcome schedule-independent even when a
    // task exhausts its budget (Abort's cut-off point is a race).
    RecoveryPolicy::with_max_attempts(6)
        .backoff(Backoff::Jittered {
            base: Duration::from_micros(10),
            factor: 2.0,
            max: Duration::from_millis(1),
        })
        .seed(99)
        .on_exhausted(ExhaustedAction::SkipSubtree)
}

fn counts(s: &ResilienceStats) -> (u64, u64, u64, u64, bool, Duration) {
    (
        s.retries,
        s.recoveries,
        s.permanent_failures,
        s.skipped,
        s.completed(),
        s.simulated_backoff,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_plan_seed_same_counts_across_schedules(
        seed in 0u64..10_000,
        kidx in 0usize..4,
        t1 in 1usize..5,
        t2 in 1usize..5,
    ) {
        let a = gen::random_spd::<f64>(64, seed ^ 0xA5A5);
        let plan = || Arc::new(FaultPlan::new(seed, 0.08, kind_for(kidx)));

        let tiles1 = TileMatrix::from_matrix(&a, 16);
        let exec1 = Executor::new(t1, SchedPolicy::CriticalPath);
        let r1 = cholesky_resilient_abft(&tiles1, &exec1, skip_policy(), Some(plan())).unwrap();

        let tiles2 = TileMatrix::from_matrix(&a, 16);
        let exec2 = Executor::new(t2, SchedPolicy::Fifo);
        let r2 = cholesky_resilient_abft(&tiles2, &exec2, skip_policy(), Some(plan())).unwrap();

        let s1 = r1.trace.resilience();
        let s2 = r2.trace.resilience();
        prop_assert_eq!(counts(s1), counts(s2),
            "stats diverged: [{}] vs [{}]", s1.summary(), s2.summary());
        prop_assert_eq!(r1.detections, r2.detections);
        if s1.completed() {
            let l1 = lower_from_tiles(&tiles1);
            let l2 = lower_from_tiles(&tiles2);
            prop_assert_eq!(l1.max_abs_diff(&l2), 0.0,
                "completed factors must be bitwise identical");
        }
    }

    #[test]
    fn recovered_factor_is_bitwise_equal_to_fault_free(
        seed in 0u64..10_000,
        kidx in 0usize..4,
    ) {
        let a = gen::random_spd::<f64>(64, seed ^ 0x5A5A);
        let b = gen::rhs_for_unit_solution(&a);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        // Generous attempt budget: at 5% per attempt the chance a task
        // fails 10 deterministic rolls in a row is ~1e-13, so the chaos
        // run always completes and Abort is never exercised.
        let policy = RecoveryPolicy::with_max_attempts(10);

        let clean = TileMatrix::from_matrix(&a, 16);
        cholesky_resilient_abft(&clean, &exec, policy, None).unwrap();

        let chaos = TileMatrix::from_matrix(&a, 16);
        let plan = Arc::new(FaultPlan::new(seed, 0.05, kind_for(kidx)));
        let run = cholesky_resilient_abft(&chaos, &exec, policy, Some(plan)).unwrap();
        let stats = run.trace.resilience();
        prop_assert!(stats.completed(), "{}", stats.summary());

        let lf = lower_from_tiles(&clean);
        let lc = lower_from_tiles(&chaos);
        prop_assert_eq!(lf.max_abs_diff(&lc), 0.0,
            "recovery must be bitwise transparent ({} retries)", stats.retries);

        let mut x = b.clone();
        solve(&chaos, &mut x);
        let r = norms::hpl_scaled_residual(&a, &x, &b);
        prop_assert!(r < 16.0, "HPL residual {} after recovery", r);
    }

    #[test]
    fn fired_fault_tallies_replay_exactly(
        seed in 0u64..10_000,
        kidx in 0usize..4,
        rate_pct in 1u32..12,
    ) {
        let a = gen::random_spd::<f64>(48, seed);
        let rate = f64::from(rate_pct) / 100.0;
        let run_once = || {
            let tiles = TileMatrix::from_matrix(&a, 12);
            let exec = Executor::new(3, SchedPolicy::CriticalPath);
            let plan = Arc::new(FaultPlan::new(seed, rate, kind_for(kidx)));
            let run = cholesky_resilient_abft(&tiles, &exec, skip_policy(), Some(Arc::clone(&plan)))
                .unwrap();
            (plan.fired(), run.detections,
             counts(run.trace.resilience()))
        };
        prop_assert_eq!(run_once(), run_once());
    }
}
