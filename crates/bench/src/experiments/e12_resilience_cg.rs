//! E12 — resilience strategies for iterative solvers under silent faults:
//! checkpoint/rollback vs detect-and-restart, across fault rates.

use crate::json::{write_report, Json};
use crate::table::{sci, Table};
use crate::Scale;
use xsc_ft::checkpoint::{resilient_cg, Recovery};
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::FaultPlan;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// Runs the experiment; with `json` set, also writes `BENCH_e12.json`.
pub fn run_opts(scale: Scale, json: bool) {
    let (table, report) = report(scale);
    print!("{table}");
    println!("  keynote claim: at extreme scale faults are events, not exceptions; solvers");
    println!("  must detect silent corruption and recover with bounded re-done work.");
    if json {
        write_report("BENCH_e12.json", &report);
    }
}

/// Runs every (fault rate, strategy) cell and builds the rendered table
/// plus the machine-readable report. The fault plan is seeded, so the same
/// scale always gives the same bytes.
pub fn report(scale: Scale) -> (String, Json) {
    let g = scale.pick(8, 16);
    let geom = Geometry::new(g, g, g);
    let a = build_matrix(geom);
    let (mut b, _) = build_rhs(&a);
    // Rough rhs so CG needs enough iterations to expose the fault window.
    for (i, bi) in b.iter_mut().enumerate() {
        *bi += ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
    }

    let mut t = Table::new(&[
        "fault rate",
        "strategy",
        "converged",
        "iterations",
        "faults",
        "recoveries",
        "wasted iters",
        "final residual",
    ]);
    let mut rows = Vec::new();
    for rate in [0.0, 0.02, 0.05, 0.10] {
        for (name, strategy) in [
            ("checkpoint/10", Recovery::Checkpoint { interval: 10 }),
            ("restart", Recovery::Restart),
        ] {
            let plan = FaultPlan::new(1234, rate, FaultKind::BitFlip);
            let rep = resilient_cg(&a, &b, 5000, 1e-9, &plan, strategy, 5, 1e-6);
            t.row(vec![
                format!("{rate:.2}"),
                name.into(),
                rep.converged.to_string(),
                rep.iterations.to_string(),
                rep.faults.to_string(),
                rep.recoveries.to_string(),
                rep.wasted_iterations.to_string(),
                sci(rep.final_residual),
            ]);
            rows.push(Json::obj(vec![
                ("fault_rate", Json::Num(rate)),
                ("strategy", Json::s(name)),
                ("converged", Json::Bool(rep.converged)),
                ("iterations", Json::Int(rep.iterations as i64)),
                ("faults", Json::Int(rep.faults as i64)),
                ("recoveries", Json::Int(rep.recoveries as i64)),
                ("wasted_iterations", Json::Int(rep.wasted_iterations as i64)),
                ("final_residual", Json::Num(rep.final_residual)),
            ]));
        }
    }
    let table = t.render(&format!(
        "E12: fault-injected CG on the {g}^3 stencil — recovery strategies"
    ));
    let report = Json::obj(vec![
        ("experiment", Json::s("e12_resilience_cg")),
        ("grid", Json::Int(g as i64)),
        ("runs", Json::Arr(rows)),
    ]);
    (table, report)
}
