//! E20 — SDC chaos campaign: protected vs unprotected MG-preconditioned
//! CG (the HPCG solve) under escalating memory-fault rates.
//!
//! Every trial runs the same HPCG-style solve twice against the same
//! seeded [`FaultPlan`]: once through [`protected_pcg`] (ABFT
//! checksummed SpMV, curvature/norm-jump audits, residual-drift checks,
//! self-checking V-cycle, bounded-rollback checkpoints) and once through
//! [`unprotected_pcg`] (same loop, no detectors). The campaign sweeps
//! per-iteration fault rates and reports, per rate:
//!
//! * **detection rate** over *detectable material* injections — matrix,
//!   iterate, and residual corruptions whose magnitude is large enough to
//!   move the solve past its tolerance. Search-direction corruptions are
//!   tallied separately: corrupting `p` leaves `r = b − Ax` consistent
//!   (CG merely continues from a perturbed descent direction and
//!   self-corrects), so no residual invariant can — or needs to — flag
//!   them; validated convergence still guarantees the answer. Likewise
//!   sub-threshold corruptions (e.g. an exponent flip on a `0.0` or an
//!   already-tiny entry) cannot push the solve off by more than the
//!   tolerance, so they are excluded from the denominator rather than
//!   counted as free detections.
//! * **false positives** — detections during rate-0 runs (must be zero;
//!   the rate-0 protected run is also asserted bit-identical to plain
//!   [`xsc_sparse::pcg`]).
//! * **iteration overhead** — executed iterations (replays included)
//!   versus the fault-free baseline.
//! * **detector overhead** — extra flops and bytes of the protected arm
//!   at rate 0, from the `xsc-metrics` counters (no wall clock anywhere:
//!   every number in the summary is schedule-independent, and a test
//!   asserts the whole report is byte-identical across runs).
//!
//! The unprotected arm's scoreboard is the keynote's nightmare in
//! miniature: runs that either never converge or "converge" by their own
//! recurrence while the recomputed `‖b − Ax‖/‖b‖` says otherwise.

use crate::json::{write_report, Json};
use crate::measured::leaf_sum;
use crate::table::{pct, Table};
use crate::Scale;
use std::time::Duration;
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::FaultPlan;
use xsc_ft::sdc::{
    protected_pcg, unprotected_pcg, ProtectConfig, SdcReport, SolverBuffer, DRIFT_TOL,
};
use xsc_runtime::RecoveryPolicy;
use xsc_sparse::mg::{MgPreconditioner, Smoother};
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::{pcg, FormatMatrix, SparseFormat, SparseOps};

/// Campaign base seed; every (rate, trial) cell derives its plan seed from
/// this, so the whole sweep replays byte-for-byte.
pub const CAMPAIGN_SEED: u64 = 0xE20;

/// Per-iteration fault rates the campaign escalates through.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Acceptance floor on the detection rate over detectable material
/// injections, at every nonzero fault rate.
pub const MIN_DETECTION_RATE: f64 = 0.95;

/// Acceptance ceiling on executed iterations (replays included) at the
/// highest fault rate, as a multiple of the fault-free iteration count.
pub const MAX_ITERATION_OVERHEAD: f64 = 2.0;

/// Convergence tolerance of every campaign solve.
const TOL: f64 = 1e-8;

/// Iteration budget per solve (MG-CG needs ~a dozen).
const MAX_ITERS: usize = 100;

struct CampaignProblem {
    a_csr: xsc_sparse::CsrMatrix,
    b: Vec<f64>,
    mg: MgPreconditioner,
    trials: usize,
}

fn problem(scale: Scale) -> CampaignProblem {
    let g = scale.pick(8usize, 16);
    let levels = scale.pick(2usize, 3);
    let geom = Geometry::new(g, g, g);
    let a_csr = build_matrix(geom);
    let (b, _) = build_rhs(&a_csr);
    let mg =
        MgPreconditioner::try_with_format(geom, levels, Smoother::SymGs, SparseFormat::CsrUsize)
            .expect("campaign geometry is coarsenable");
    CampaignProblem {
        a_csr,
        b,
        mg,
        trials: scale.pick(8, 12),
    }
}

/// Tight detector cadence for the campaign: drift-check every iteration
/// and checkpoint every other one, so a detected corruption costs at most
/// a couple of replayed iterations.
fn campaign_config() -> ProtectConfig {
    ProtectConfig {
        checkpoint_interval: 2,
        drift_check_interval: 1,
    }
}

fn campaign_policy() -> RecoveryPolicy {
    RecoveryPolicy::capped_exponential(
        10,
        Duration::from_micros(100),
        2.0,
        Duration::from_millis(5),
        CAMPAIGN_SEED,
    )
}

fn plan_for(rate: f64, trial: usize) -> FaultPlan<FaultKind> {
    let seed = CAMPAIGN_SEED ^ (((rate * 1000.0) as u64) << 24) ^ ((trial as u64) << 8);
    FaultPlan::new(seed, rate, FaultKind::BitFlip)
}

/// An injection only *must* be detected when it is material (big enough to
/// move the solve past its tolerance) and lands in a buffer whose
/// corruption breaks a residual invariant (`p` does not — see module
/// docs). `delta_rel` is per-component-scaled, drift is `‖·‖/‖b‖`-scaled,
/// so the √n bridges the two; the extra 10x keeps the class boundary well
/// clear of the detector threshold (bit-61 flips are bimodal — factors of
/// `2^±512` — so essentially nothing lands near the boundary).
fn is_detectable(inj: &xsc_ft::sdc::InjectionRecord, n: usize) -> bool {
    inj.buffer != SolverBuffer::SearchDirection
        && inj.delta_rel > DRIFT_TOL * (n as f64).sqrt() * 10.0
}

/// `true` when some detector fired in the same sweep at or after the
/// injection — i.e. the corrupted state was flagged before it could be
/// committed past a validated checkpoint.
fn was_detected(inj: &xsc_ft::sdc::InjectionRecord, rep: &SdcReport) -> bool {
    rep.detections
        .iter()
        .any(|d| d.sweep == inj.sweep && d.iteration >= inj.iteration)
}

struct RateCell {
    rate: f64,
    protected: Vec<SdcReport>,
    unprotected: Vec<SdcReport>,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs the full campaign and builds the deterministic summary: the
/// rendered table plus the machine-readable report. Same seed in, same
/// bytes out — asserted by a test below and by CI running the binary
/// twice and `cmp`-ing the JSON.
pub fn campaign_summary(scale: Scale) -> (String, Json) {
    let p = problem(scale);
    let n = p.a_csr.nrows();
    let cfg = campaign_config();
    let policy = campaign_policy();

    // Fault-free reference (plain solver, no detectors, no injection).
    let mut x_ref = vec![0.0; n];
    let reference = pcg(&p.a_csr, &p.b, &mut x_ref, MAX_ITERS, TOL, &p.mg);
    assert!(reference.converged, "campaign baseline must converge");
    let baseline_iters = reference.iterations as f64;

    // Detector overhead at rate 0, from the metrics counters (flops come
    // from the reports' own accounting, bytes from the recorded traffic).
    let quiet = plan_for(0.0, usize::MAX);
    let (prot_flops, prot_bytes, unprot_flops, unprot_bytes) = {
        let mut a = FormatMatrix::convert(p.a_csr.clone(), SparseFormat::CsrUsize).unwrap();
        let mut x = vec![0.0; n];
        let (rep, delta) = xsc_metrics::measure(|| {
            protected_pcg(
                &mut a, &p.b, &mut x, MAX_ITERS, TOL, &p.mg, &quiet, &cfg, &policy,
            )
        });
        assert_eq!(
            x, x_ref,
            "rate-0 protected run must be bit-identical to plain pcg"
        );
        assert!(
            rep.detections.is_empty(),
            "rate-0 run raised false positives: {:?}",
            rep.detections
        );

        let mut x2 = vec![0.0; n];
        let (urep, udelta) = xsc_metrics::measure(|| {
            unprotected_pcg(&mut a, &p.b, &mut x2, MAX_ITERS, TOL, &p.mg, &quiet)
        });
        assert_eq!(x2, x_ref, "rate-0 unprotected run must match plain pcg");
        (
            rep.flops,
            leaf_sum(&delta).bytes(),
            urep.flops,
            leaf_sum(&udelta).bytes(),
        )
    };
    let flop_overhead = prot_flops as f64 / unprot_flops as f64 - 1.0;
    let byte_overhead = prot_bytes as f64 / unprot_bytes as f64 - 1.0;

    // The sweep.
    let mut cells = Vec::new();
    for &rate in &FAULT_RATES {
        let mut cell = RateCell {
            rate,
            protected: Vec::new(),
            unprotected: Vec::new(),
        };
        for trial in 0..p.trials {
            let plan = plan_for(rate, trial);
            let mut a = FormatMatrix::convert(p.a_csr.clone(), SparseFormat::CsrUsize).unwrap();
            let mut x = vec![0.0; n];
            cell.protected.push(protected_pcg(
                &mut a, &p.b, &mut x, MAX_ITERS, TOL, &p.mg, &plan, &cfg, &policy,
            ));
            // Fresh operator: the unprotected arm must see the same
            // pristine matrix and the same fault schedule.
            let mut a2 = FormatMatrix::convert(p.a_csr.clone(), SparseFormat::CsrUsize).unwrap();
            let mut x2 = vec![0.0; n];
            cell.unprotected.push(unprotected_pcg(
                &mut a2, &p.b, &mut x2, MAX_ITERS, TOL, &p.mg, &plan,
            ));
        }
        cells.push(cell);
    }

    let mut t = Table::new(&[
        "rate",
        "arm",
        "converged",
        "mean iters",
        "mean exec",
        "rollbacks",
        "inj (mat/p/sub)",
        "detected",
        "det rate",
        "silently wrong",
    ]);
    let mut json_rates = Vec::new();
    for cell in &cells {
        // --- protected arm -------------------------------------------
        let trials = cell.protected.len();
        let conv = cell
            .protected
            .iter()
            .filter(|r| r.outcome.converged())
            .count();
        let mean_iters = mean(
            cell.protected
                .iter()
                .map(|r| r.residual_history.len().saturating_sub(1) as f64),
        );
        let mean_exec = mean(cell.protected.iter().map(|r| r.executed_iterations as f64));
        let rollbacks: u64 = cell
            .protected
            .iter()
            .map(|r| r.replayed_iterations as u64)
            .sum();
        let injections: usize = cell.protected.iter().map(|r| r.injections.len()).sum();
        let mut detectable = 0usize;
        let mut detected = 0usize;
        let mut p_faults = 0usize;
        let mut subthreshold = 0usize;
        for rep in &cell.protected {
            for inj in &rep.injections {
                if inj.buffer == SolverBuffer::SearchDirection {
                    p_faults += 1;
                } else if !is_detectable(inj, n) {
                    subthreshold += 1;
                } else {
                    detectable += 1;
                    if was_detected(inj, rep) {
                        detected += 1;
                    }
                }
            }
        }
        let det_rate = if detectable == 0 {
            1.0
        } else {
            detected as f64 / detectable as f64
        };
        let false_positives: usize = if cell.rate == 0.0 {
            cell.protected.iter().map(|r| r.detections.len()).sum()
        } else {
            0
        };
        t.row(vec![
            format!("{:.2}", cell.rate),
            "protected".into(),
            format!("{conv}/{trials}"),
            format!("{mean_iters:.2}"),
            format!("{mean_exec:.2}"),
            rollbacks.to_string(),
            format!("{injections} ({detectable}/{p_faults}/{subthreshold})"),
            detected.to_string(),
            format!("{:.0}%", det_rate * 100.0),
            "-".into(),
        ]);

        // --- unprotected arm -----------------------------------------
        let uconv_claimed = cell
            .unprotected
            .iter()
            .filter(|r| r.outcome.converged())
            .count();
        // `!(.. <= ..)` so a NaN true residual counts as wrong/failed.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let silently_wrong = cell
            .unprotected
            .iter()
            .filter(|r| r.outcome.converged() && !(r.final_true_residual <= TOL * 100.0))
            .count();
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let truly_failed = cell
            .unprotected
            .iter()
            .filter(|r| !(r.final_true_residual <= TOL * 100.0))
            .count();
        let umean_iters = mean(
            cell.unprotected
                .iter()
                .map(|r| r.executed_iterations as f64),
        );
        let uinjections: usize = cell.unprotected.iter().map(|r| r.injections.len()).sum();
        t.row(vec![
            format!("{:.2}", cell.rate),
            "unprotected".into(),
            format!("{uconv_claimed}/{trials}"),
            format!("{umean_iters:.2}"),
            format!("{umean_iters:.2}"),
            "0".into(),
            format!("{uinjections}"),
            "-".into(),
            "-".into(),
            silently_wrong.to_string(),
        ]);

        // --- acceptance assertions (deterministic: seeds are fixed) ---
        if cell.rate == 0.0 {
            assert_eq!(false_positives, 0, "rate-0 false positives");
            assert_eq!(conv, trials, "rate-0 protected runs must all converge");
        } else {
            assert!(
                det_rate >= MIN_DETECTION_RATE,
                "rate {:.2}: detection rate {det_rate:.3} below {MIN_DETECTION_RATE}",
                cell.rate
            );
            assert_eq!(
                conv, trials,
                "rate {:.2}: protected arm failed to converge every trial",
                cell.rate
            );
            for rep in &cell.protected {
                assert!(
                    rep.final_true_residual <= TOL * 100.0,
                    "protected convergence must be genuine: {:.3e}",
                    rep.final_true_residual
                );
            }
        }
        if cell.rate == FAULT_RATES[FAULT_RATES.len() - 1] {
            assert!(
                mean_exec <= MAX_ITERATION_OVERHEAD * baseline_iters,
                "iteration overhead {:.2}x exceeds {MAX_ITERATION_OVERHEAD}x at rate {:.2}",
                mean_exec / baseline_iters,
                cell.rate
            );
        }

        json_rates.push(Json::obj(vec![
            ("rate", Json::Num(cell.rate)),
            (
                "protected",
                Json::obj(vec![
                    ("trials", Json::Int(trials as i64)),
                    ("converged", Json::Int(conv as i64)),
                    ("mean_iterations", Json::Num(mean_iters)),
                    ("mean_executed_iterations", Json::Num(mean_exec)),
                    ("replayed_iterations", Json::Int(rollbacks as i64)),
                    ("injections", Json::Int(injections as i64)),
                    ("detectable_injections", Json::Int(detectable as i64)),
                    ("search_direction_injections", Json::Int(p_faults as i64)),
                    ("subthreshold_injections", Json::Int(subthreshold as i64)),
                    ("detected", Json::Int(detected as i64)),
                    ("detection_rate", Json::Num(det_rate)),
                    ("false_positives", Json::Int(false_positives as i64)),
                    (
                        "iteration_overhead_vs_baseline",
                        Json::Num(mean_exec / baseline_iters),
                    ),
                ]),
            ),
            (
                "unprotected",
                Json::obj(vec![
                    ("trials", Json::Int(trials as i64)),
                    ("claimed_converged", Json::Int(uconv_claimed as i64)),
                    ("silently_wrong", Json::Int(silently_wrong as i64)),
                    ("truly_failed", Json::Int(truly_failed as i64)),
                    ("mean_iterations", Json::Num(umean_iters)),
                    ("injections", Json::Int(uinjections as i64)),
                ]),
            ),
        ]));
    }

    let g = (n as f64).cbrt().round() as usize;
    let table = t.render(&format!(
        "E20: SDC chaos campaign — MG-CG on the {g}^3 stencil, bit-flip faults \
         (seed {CAMPAIGN_SEED:#x}, deterministic counts)"
    ));
    let report = Json::obj(vec![
        ("experiment", Json::s("e20_sdc_campaign")),
        ("seed", Json::Int(CAMPAIGN_SEED as i64)),
        ("grid", Json::Int(g as i64)),
        ("trials_per_cell", Json::Int(p.trials as i64)),
        ("tolerance", Json::Num(TOL)),
        ("baseline_iterations", Json::Num(baseline_iters)),
        ("min_detection_rate", Json::Num(MIN_DETECTION_RATE)),
        ("max_iteration_overhead", Json::Num(MAX_ITERATION_OVERHEAD)),
        ("detector_flop_overhead", Json::Num(flop_overhead)),
        ("detector_byte_overhead", Json::Num(byte_overhead)),
        ("rates", Json::Arr(json_rates)),
    ]);
    (table, report)
}

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// Runs the experiment; with `json` set, also writes `BENCH_e20.json`.
pub fn run_opts(scale: Scale, json: bool) {
    let (table, report) = campaign_summary(scale);
    print!("{table}");
    if let Json::Obj(pairs) = &report {
        for (k, v) in pairs {
            if k == "detector_flop_overhead" {
                if let Json::Num(x) = v {
                    println!("  detector overhead at rate 0: {} extra flops,", pct(*x));
                }
            }
            if k == "detector_byte_overhead" {
                if let Json::Num(x) = v {
                    println!(
                        "  {} extra bytes (xsc-metrics counters; no wall clock).",
                        pct(*x)
                    );
                }
            }
        }
    }
    println!("  keynote claim: at extreme scale silent data corruption is an event, not an");
    println!("  exception. The protected solve detects material corruption of the matrix,");
    println!("  iterate, and residual, rolls back at most a couple of iterations, and only");
    println!("  reports convergence it has re-verified; the unprotected arm either stalls");
    println!("  or converges to a wrong answer its own recurrence cannot see.");
    if json {
        write_report("BENCH_e20.json", &report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_summary_is_byte_identical_across_runs() {
        let _serial = crate::serial_experiment_test();
        // The PR's reproducibility gate: same seed, same bytes — table
        // and JSON both, twice, in one process.
        let (t1, j1) = campaign_summary(Scale::Quick);
        let (t2, j2) = campaign_summary(Scale::Quick);
        assert_eq!(t1, t2, "campaign table must be deterministic");
        assert_eq!(
            j1.render(),
            j2.render(),
            "JSON report must be deterministic"
        );
        assert!(t1.contains("protected") && t1.contains("unprotected"));
    }
}
