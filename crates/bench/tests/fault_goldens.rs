//! Golden pins for the fault-tolerance experiments. E12 (resilient CG
//! under injected faults), E17 (the chaos campaign on the ABFT-guarded
//! tiled Cholesky) and E20 (the SDC chaos campaign) are seeded and read no
//! wall clock, so their quick-scale reports are fixed bytes. Any change to
//! the solver loop, the tile guards, the detectors or the fault plans that
//! moves a single count or residual shows up here as a hash mismatch.
//!
//! E20's `detector_byte_overhead` is left out: it is a difference of two
//! snapshots of the process-global metrics registry, so other tests
//! running in parallel leak into it.

use xsc_bench::experiments::{e12_resilience_cg, e17_chaos_runtime, e20_sdc_campaign};
use xsc_bench::json::Json;
use xsc_bench::{fnv1a, Scale};

/// Hash of the rendered quick-scale `BENCH_e12.json` report.
const E12_REPORT: u64 = 0x2b9a_d2aa_8ee4_e22c;

/// Hash of the rendered quick-scale `BENCH_e17.json` report.
const E17_REPORT: u64 = 0xe579_1f0c_537b_a10f;

/// Hash of the rendered quick-scale E20 campaign report, without
/// `detector_byte_overhead`.
const E20_REPORT: u64 = 0x8bde_0554_0d46_eddf;

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
