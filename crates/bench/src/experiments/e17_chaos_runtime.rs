//! E17 — chaos campaign over the resilient DAG runtime: fault rate ×
//! fault species × recovery policy on an ABFT-guarded tiled Cholesky.
//!
//! Two tables, deliberately separated:
//!
//! 1. a **deterministic** campaign summary — only schedule-independent
//!    counts (retries, recoveries, skips, detections, injected faults,
//!    simulated backoff) and the solved-system residual. Because
//!    [`FaultPlan`] decides faults from a pure hash of
//!    `(seed, task, attempt)` and retried kernels restore their snapshot
//!    before recomputing, two runs with the same seed produce this table
//!    **byte for byte** — that property is asserted by a test below.
//! 2. a **timing** table (explicitly non-deterministic) — the wall-clock
//!    price of retryable tasks at fault rate 0, versus the plain
//!    fail-stop executor. Both arms run the executor's one attempt path
//!    (attempt accounting, outcome tracking, one trace event per
//!    attempt); they differ only in fallible kernels and a multi-attempt
//!    policy, plus the ABFT detector in the Cholesky row.

use crate::json::{write_report, Json};
use crate::table::{pct, sci, secs, Table};
use crate::{best_of, Scale};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use xsc_core::{gen, norms, Matrix, TileMatrix};
use xsc_dense::cholesky;
use xsc_dense::resilient::cholesky_resilient_abft;
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::{ChaosKind, FaultPlan};
use xsc_runtime::{Backoff, Executor, ExhaustedAction, RecoveryPolicy, SchedPolicy, TaskGraph};

/// Campaign base seed: every (rate, kind, policy) cell derives its
/// [`FaultPlan`] seed from this, so the whole sweep replays exactly.
pub const CAMPAIGN_SEED: u64 = 0xE17;

fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        (
            "retry*6",
            RecoveryPolicy::with_max_attempts(6)
                .backoff(Backoff::Jittered {
                    base: Duration::from_micros(20),
                    factor: 2.0,
                    max: Duration::from_millis(1),
                })
                .seed(CAMPAIGN_SEED),
        ),
        (
            "skip*2",
            RecoveryPolicy::with_max_attempts(2).on_exhausted(ExhaustedAction::SkipSubtree),
        ),
    ]
}

fn kinds() -> Vec<(&'static str, ChaosKind)> {
    vec![
        ("panic", ChaosKind::Panic),
        ("bitflip", ChaosKind::SilentCorrupt(FaultKind::BitFlip)),
        ("zero", ChaosKind::SilentCorrupt(FaultKind::Zero)),
        ("stall", ChaosKind::Stall),
    ]
}

struct Problem {
    a: Matrix<f64>,
    b: Vec<f64>,
    nb: usize,
    threads: usize,
}

fn problem(scale: Scale) -> Problem {
    let n = scale.pick(128, 256);
    let nb = scale.pick(16, 32); // 8x8 tile grid at either scale
    let a = gen::random_spd::<f64>(n, 3407);
    let b = gen::rhs_for_unit_solution(&a);
    Problem {
        a,
        b,
        nb,
        threads: 4,
    }
}

/// Installs (once) a panic hook that swallows *injected* chaos panics —
/// they are caught and handled by the resilient executor, and the default
/// hook's per-panic backtrace would otherwise drown the campaign output.
/// Genuine panics still print through the previous hook.
fn silence_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("chaos:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Runs the full campaign and renders the deterministic summary table.
/// See [`campaign_report`] for the machine-readable variant.
pub fn campaign_summary(scale: Scale) -> String {
    campaign_report(scale).0
}

/// Runs the full campaign and builds the deterministic summary: the
/// rendered table plus the machine-readable report written to
/// `BENCH_e17.json` by the binary's `--json` flag.
///
/// Everything in the table and report is schedule-independent: fault
/// decisions are pure hashes, taint propagation is DAG-structural,
/// backoff is simulated (accumulated, never slept beyond the stall
/// species), and a recovered factorization is bitwise identical to a
/// fault-free one. Same seed in, same bytes out — on any thread count.
pub fn campaign_report(scale: Scale) -> (String, Json) {
    silence_chaos_panics();
    let p = problem(scale);
    let mut t = Table::new(&[
        "rate",
        "kind",
        "policy",
        "done",
        "retries",
        "recov",
        "failed",
        "skipped",
        "detect",
        "inj p/c/s",
        "backoff",
        "residual",
    ]);

    let mut cells_json: Vec<Json> = Vec::new();
    let mut cell =
        |rate: f64, kname: &str, kind: Option<ChaosKind>, pname: &str, pol: RecoveryPolicy| {
            let tiles = TileMatrix::from_matrix(&p.a, p.nb);
            let exec = Executor::new(p.threads, SchedPolicy::CriticalPath);
            let plan = kind.map(|k| {
                // Derive a distinct, reproducible seed per campaign cell.
                let seed =
                    CAMPAIGN_SEED ^ ((rate * 1000.0) as u64) << 16 ^ (kname.len() as u64) << 8;
                Arc::new(FaultPlan::new(seed, rate, k))
            });
            let run = cholesky_resilient_abft(&tiles, &exec, pol, plan.clone())
                .expect("campaign matrix is SPD; math errors impossible");
            let stats = run.trace.resilience();
            let residual = if stats.completed() {
                let mut x = p.b.clone();
                cholesky::solve(&tiles, &mut x);
                Some(norms::hpl_scaled_residual(&p.a, &x, &p.b))
            } else {
                None
            };
            let (ip, ic, is) = plan.as_ref().map_or((0, 0, 0), |pl| pl.fired());
            t.row(vec![
                format!("{rate:.2}"),
                kname.into(),
                pname.into(),
                stats.completed().to_string(),
                stats.retries.to_string(),
                stats.recoveries.to_string(),
                stats.permanent_failures.to_string(),
                stats.skipped.to_string(),
                run.detections.to_string(),
                format!("{ip}/{ic}/{is}"),
                format!("{}us", stats.simulated_backoff.as_micros()),
                residual.map_or_else(|| "-".into(), sci),
            ]);
            cells_json.push(Json::obj(vec![
                ("rate", Json::Num(rate)),
                ("kind", Json::s(kname)),
                ("policy", Json::s(pname)),
                ("completed", Json::Bool(stats.completed())),
                ("retries", Json::Int(stats.retries as i64)),
                ("recoveries", Json::Int(stats.recoveries as i64)),
                (
                    "permanent_failures",
                    Json::Int(stats.permanent_failures as i64),
                ),
                ("skipped", Json::Int(stats.skipped as i64)),
                ("detections", Json::Int(run.detections as i64)),
                ("injected_panics", Json::Int(ip as i64)),
                ("injected_corruptions", Json::Int(ic as i64)),
                ("injected_stalls", Json::Int(is as i64)),
                (
                    "simulated_backoff_us",
                    Json::Int(stats.simulated_backoff.as_micros() as i64),
                ),
                ("residual", residual.map_or(Json::Null, Json::Num)),
            ]));
        };

    cell(0.0, "none", None, "retry*6", policies()[0].1);
    for rate in [0.01, 0.05] {
        for (kname, kind) in kinds() {
            for (pname, pol) in policies() {
                cell(rate, kname, Some(kind), pname, pol);
            }
        }
    }

    let nt = p.a.rows() / p.nb;
    let table = t.render(&format!(
        "E17: chaos campaign — ABFT-guarded resilient Cholesky, {}x{} tiles of {} (seed {CAMPAIGN_SEED:#x}, deterministic counts)",
        nt, nt, p.nb
    ));
    let report = Json::obj(vec![
        ("experiment", Json::s("e17_chaos_runtime")),
        ("seed", Json::Int(CAMPAIGN_SEED as i64)),
        ("n", Json::Int(p.a.rows() as i64)),
        ("tile", Json::Int(p.nb as i64)),
        ("threads", Json::Int(p.threads as i64)),
        ("cells", Json::Arr(cells_json)),
    ]);
    (table, report)
}

/// Synthetic DAG with `tasks` independent compute kernels of fixed work —
/// isolates the cost of fallible kernels under a retry policy from ABFT
/// detector cost.
fn synthetic_graph(tasks: usize, work: usize, fallible: bool) -> TaskGraph {
    let mut g = TaskGraph::new();
    for i in 0..tasks {
        if fallible {
            g.add_fallible_task(format!("t{i}"), [], move |_at| {
                spin(work);
                Ok(())
            });
        } else {
            g.add_task(format!("t{i}"), [], move || spin(work));
        }
    }
    g
}

/// The synthetic kernel: `work` dependent multiply-adds. Not inlined, so
/// both kinds of task run the same machine code; inlined into each
/// kernel closure, its two copies ran ~2% apart.
#[inline(never)]
fn spin(work: usize) {
    let mut acc = 1.000000001f64;
    for i in 0..work {
        acc = acc.mul_add(1.0000001, (i & 7) as f64 * 1e-12);
    }
    black_box(acc);
}

/// Runs the experiment and prints both tables.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// Runs the experiment; with `json` set, also writes `BENCH_e17.json`
/// (the deterministic campaign counts — the wall-clock table is
/// deliberately excluded from the machine-readable report).
pub fn run_opts(scale: Scale, json: bool) {
    let (table, report) = campaign_report(scale);
    print!("{table}");
    if json {
        write_report("BENCH_e17.json", &report);
    }
    println!("  wasted work = retries (re-executed attempts); recovered runs solve to the");
    println!("  same residual as the fault-free row because retried kernels restore their");
    println!("  tile snapshot and recompute bitwise-identically.");

    // ---- timing (non-deterministic, informational) ----
    let p = problem(scale);
    let exec = Executor::new(p.threads, SchedPolicy::CriticalPath);
    let reps = scale.pick(3, 5);

    let tasks = 256;
    let work = scale.pick(20_000, 80_000);
    let plain_synth = best_of(reps, || {
        exec.execute(synthetic_graph(tasks, work, false));
    });
    let resil_synth = best_of(reps, || {
        exec.execute_resilient(synthetic_graph(tasks, work, true), policies()[0].1);
    });

    let plain_chol = best_of(reps, || {
        let tiles = TileMatrix::from_matrix(&p.a, p.nb);
        cholesky::cholesky_dag(&tiles, &exec).unwrap();
    });
    let abft_chol = best_of(reps, || {
        let tiles = TileMatrix::from_matrix(&p.a, p.nb);
        cholesky_resilient_abft(&tiles, &exec, policies()[0].1, None).unwrap();
    });

    let mut t = Table::new(&["workload", "plain", "resilient", "overhead"]);
    t.row(vec![
        format!("synthetic {tasks} tasks (fallible, retry*6)"),
        secs(plain_synth),
        secs(resil_synth),
        pct(resil_synth / plain_synth - 1.0),
    ]);
    t.row(vec![
        "cholesky (fallible + ABFT detector)".into(),
        secs(plain_chol),
        secs(abft_chol),
        pct(abft_chol / plain_chol - 1.0),
    ]);
    t.print("E17: fault-free overhead of retryable tasks (wall clock — NON-deterministic)");
    println!("  keynote claim: at extreme scale faults are continuous events; the runtime,");
    println!("  not the batch system, must own recovery — and the fault domain must shrink");
    println!("  from the job to the task. The campaign shows task-level retry healing");
    println!("  panics and silent corruption at 5% per-task rates with bounded wasted work.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time_it;

    #[test]
    fn campaign_summary_is_byte_identical_across_runs() {
        let _serial = crate::serial_experiment_test();
        // The PR's reproducibility gate: same seed, same bytes — twice,
        // on a live multi-threaded executor. Table and JSON both.
        let (one, j1) = campaign_report(Scale::Quick);
        let (two, j2) = campaign_report(Scale::Quick);
        assert_eq!(one, two, "campaign summary must be deterministic");
        assert_eq!(
            j1.render(),
            j2.render(),
            "JSON report must be deterministic"
        );
        assert!(one.contains("retry*6") && one.contains("skip*2"));
    }

    #[test]
    fn fault_free_layer_overhead_is_modest() {
        let _serial = crate::serial_experiment_test();
        // Acceptance: at rate 0 fallible kernels under a 3-attempt policy
        // stay under 5% makespan overhead against plain `execute` on a
        // synthetic DAG where kernels dominate. Both arms take the same
        // attempt path (attempt accounting, outcome tracking, one trace
        // event per attempt); only the kernel kind and the policy differ.
        // Each round times both arms back to back, each going first in
        // turn (run back to back, the second arm read ~2% slow), and the
        // gate reads the median of the 31 rounds' ratios, so load that
        // lands on a few rounds (the parallel test runner, a build next
        // door) moves a few ratios, not the median. The arms run on one
        // worker: a makespan over several oversubscribed workers is the
        // slowest worker's, and a build next door moved the median of
        // 4-worker ratios by up to 30%, against 4% on one worker. On one
        // worker the makespan is nearly all kernel time, so both arms
        // call the same non-inlined kernel (`spin`).
        let exec = Executor::new(1, SchedPolicy::CriticalPath);
        let tasks = 128;
        let work = 60_000;
        let time_plain = || {
            time_it(|| {
                exec.execute(synthetic_graph(tasks, work, false));
            })
        };
        let time_resil = || {
            time_it(|| {
                exec.execute_resilient(
                    synthetic_graph(tasks, work, true),
                    RecoveryPolicy::default(),
                );
            })
        };
        let mut ratios: Vec<f64> = (0..31)
            .map(|k| {
                if k % 2 == 0 {
                    let plain = time_plain();
                    time_resil() / plain
                } else {
                    let resil = time_resil();
                    resil / time_plain()
                }
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let overhead = ratios[ratios.len() / 2] - 1.0;
        assert!(
            overhead < 0.05,
            "resilience layer overhead {:.2}% >= 5% (median of {} paired ratios; range {:.3}..{:.3})",
            overhead * 100.0,
            ratios.len(),
            ratios[0],
            ratios[ratios.len() - 1]
        );
    }
}
