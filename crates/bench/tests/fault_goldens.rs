//! Golden pins for the fault-tolerance experiments. E12 (resilient CG
//! under injected faults), E17 (the chaos campaign on the ABFT-guarded
//! tiled Cholesky) and E20 (the SDC chaos campaign) are seeded and read no
//! wall clock, so their quick-scale reports are fixed bytes. Any change to
//! the solver loop, the tile guards, the detectors or the fault plans that
//! moves a single count or residual shows up here as a hash mismatch.
//!
//! Two lower-level pins sit under them: the raw decision stream of the
//! seeded fault plans (whether a step fires, and which victim it picks, at
//! every site), and E06's fault arm (the ABFT GEMM outcome and the bits of
//! the repaired product).
//!
//! E20's `detector_byte_overhead` is left out: it is a difference of two
//! snapshots of the process-global metrics registry, so other tests
//! running in parallel leak into it.

use xsc_bench::experiments::{e06_abft, e12_resilience_cg, e17_chaos_runtime, e20_sdc_campaign};
use xsc_bench::json::Json;
use xsc_bench::{fnv1a, Scale};
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::{ChaosKind, FaultPlan};
use xsc_ft::sdc::SolverBuffer;
use xsc_ft::AbftOutcome;

/// Hash of the rendered quick-scale `BENCH_e12.json` report.
const E12_REPORT: u64 = 0xc1db_1702_9b64_c45d;

/// Hash of the rendered quick-scale `BENCH_e17.json` report.
const E17_REPORT: u64 = 0xe579_1f0c_537b_a10f;

/// Hash of the rendered quick-scale E20 campaign report, without
/// `detector_byte_overhead`.
const E20_REPORT: u64 = 0x8bde_0554_0d46_eddf;

/// Hash of the plans' decision stream at `(seed, rate)` (see
/// [`decision_stream`]), for `(42, 0.3)` and `(0x5eed, 0.05)`.
const DECISIONS: [(u64, f64, u64); 2] = [
    (42, 0.3, 0x2510_16f2_7006_a390),
    (0x5eed, 0.05, 0x9a0d_6a29_7730_c775),
];

/// Hash of E06's fault arm (outcome, then the repaired product's bits) at
/// n = 256 and n = 512.
const E06_FAULT_ARM: [(usize, u64); 2] =
    [(256, 0xa8d4_edca_d129_9fcc), (512, 0x098b_326e_fcde_2034)];

fn hash(report: &Json) -> u64 {
    fnv1a(report.render().bytes().map(u64::from))
}

#[test]
fn e12_report_matches_golden_hash() {
    let (_, report) = e12_resilience_cg::report(Scale::Quick);
    assert_eq!(
        hash(&report),
        E12_REPORT,
        "E12 report changed: {}",
        report.render()
    );
}

#[test]
fn e17_campaign_report_matches_golden_hash() {
    let (_, report) = e17_chaos_runtime::campaign_report(Scale::Quick);
    assert_eq!(
        hash(&report),
        E17_REPORT,
        "E17 campaign report changed: {}",
        report.render()
    );
}

#[test]
fn e20_campaign_report_matches_golden_hash() {
    let (_, mut report) = e20_sdc_campaign::campaign_summary(Scale::Quick);
    let Json::Obj(pairs) = &mut report else {
        panic!("campaign report is not an object");
    };
    pairs.retain(|(k, _)| k != "detector_byte_overhead");
    assert_eq!(
        hash(&report),
        E20_REPORT,
        "E20 campaign report changed: {}",
        report.render()
    );
}

/// Victim candidates per pick: not a power of two, so the pick keeps
/// bits from the whole hash word.
const VICTIMS: usize = 1_000_003;

/// For steps `0..4096` × attempts `{0, 1, 2}`: does the step fire, the
/// task-attempt victim, the solver buffer it hits (`u64::MAX` when it
/// does not fire) and the solver victim element.
fn decision_stream(seed: u64, rate: f64) -> u64 {
    let dag = FaultPlan::new(seed, rate, ChaosKind::Panic);
    let solver = FaultPlan::new(seed, rate, FaultKind::BitFlip);
    let buffers = SolverBuffer::all();
    let mut words = Vec::new();
    for step in 0..4096 {
        for attempt in 0..3 {
            let buffer = if solver.fires_at(step, attempt) {
                let hit = SolverBuffer::hit_by(&solver, step, attempt);
                buffers.iter().position(|&b| b == hit).unwrap() as u64
            } else {
                u64::MAX
            };
            words.extend([
                u64::from(dag.fires_at(step, attempt)),
                dag.victim_index(VICTIMS, step, attempt).unwrap() as u64,
                buffer,
                solver.element_index(VICTIMS, step, attempt).unwrap() as u64,
            ]);
        }
    }
    fnv1a(words)
}

#[test]
fn fault_plan_decision_stream_matches_golden_hash() {
    for (seed, rate, want) in DECISIONS {
        let got = decision_stream(seed, rate);
        assert_eq!(
            got, want,
            "decision stream changed at seed {seed}, rate {rate}: {got:#x}"
        );
    }
}

#[test]
fn e06_fault_arm_matches_golden_hash() {
    for (n, want) in E06_FAULT_ARM {
        let (a, b) = e06_abft::operands(n);
        let (repaired, outcome) = e06_abft::fault_arm(&a, &b);
        let AbftOutcome::Corrected {
            row,
            col,
            magnitude,
        } = outcome
        else {
            panic!("n={n}: the single flip must be corrected, got {outcome:?}");
        };
        assert_eq!((row, col), (n / 3, n / 2), "n={n}: wrong location");
        let outcome_words = [row as u64, col as u64, magnitude.to_bits()];
        let bits = repaired.as_slice().iter().map(|v| v.to_bits());
        let got = fnv1a(outcome_words.into_iter().chain(bits));
        assert_eq!(got, want, "E06 fault arm changed at n={n}: {got:#x}");
    }
}
