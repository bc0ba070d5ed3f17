//! E12 — resilience strategies for iterative solvers under silent faults:
//! checkpoint/rollback vs detect-and-restart, across fault rates, each
//! (rate, strategy) cell over several fault-plan seeds.

use crate::json::{write_report, Json};
use crate::table::{sci, Table};
use crate::Scale;
use xsc_ft::checkpoint::{resilient_cg, Recovery, ResilienceReport};
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

/// Fault rates swept, per executed iteration.
const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Base seed of the fault plans.
const PLAN_SEED: u64 = 1234;

/// Plan seeds per (rate, strategy) cell. A hash plan fires at iteration `i`
/// when `u(seed, i) < rate`, so at one seed the fault sets are nested
/// across rates and a short solve can see none at the low rates; several
/// seeds per rate make every row measure faults.
const TRIALS: usize = 16;

/// The fault plan of trial `trial` at `rate`: a distinct, reproducible seed
/// per (rate, trial), as in E20.
fn plan_for(rate: f64, trial: usize) -> FaultPlan<FaultKind> {
    let seed = PLAN_SEED ^ (((rate * 1000.0) as u64) << 24) ^ ((trial as u64) << 8);
    FaultPlan::new(seed, rate, FaultKind::BitFlip)
}

/// One (fault rate, strategy) cell: one solve per plan seed.
struct Cell {
    rate: f64,
    strategy: &'static str,
    runs: Vec<ResilienceReport>,
}

impl Cell {
    /// Mean of `f` over the trials.
    fn mean(&self, f: impl Fn(&ResilienceReport) -> usize) -> f64 {
        self.runs.iter().map(f).sum::<usize>() as f64 / self.runs.len() as f64
    }
}

/// Runs every (fault rate, strategy) cell over [`TRIALS`] plan seeds on the
/// quick- or full-scale stencil; returns the grid edge and the cells.
fn cells(scale: Scale) -> (usize, Vec<Cell>) {
    let g = scale.pick(8, 16);
    let geom = Geometry::new(g, g, g);
    let a = build_matrix(geom);
    let (mut b, _) = build_rhs(&a);
    // Rough rhs so CG needs enough iterations to expose the fault window.
    for (i, bi) in b.iter_mut().enumerate() {
        *bi += ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
    }
    let mut cells = Vec::new();
    for rate in RATES {
        for (strategy, recovery) in [
            ("checkpoint/10", Recovery::Checkpoint { interval: 10 }),
            ("restart", Recovery::Restart),
        ] {
            let runs = (0..TRIALS)
                .map(|trial| {
                    let plan = plan_for(rate, trial);
                    resilient_cg(&a, &b, 5000, 1e-9, &plan, recovery, 5, 1e-6)
                })
                .collect();
            cells.push(Cell {
                rate,
                strategy,
                runs,
            });
        }
    }
    (g, cells)
}

/// Runs every cell and builds the rendered table plus the machine-readable
/// report: per cell, whether every trial converged, the mean counts over
/// the trials and the worst final residual. The fault plans are seeded, so
/// the same scale always gives the same bytes.
pub fn report(scale: Scale) -> (String, Json) {
    let (g, cells) = cells(scale);
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
    for cell in &cells {
        let converged = cell.runs.iter().all(|r| r.converged);
        let iterations = cell.mean(|r| r.iterations);
        let faults = cell.mean(|r| r.faults);
        let recoveries = cell.mean(|r| r.recoveries);
        let wasted = cell.mean(|r| r.wasted_iterations);
        let residual = cell
            .runs
            .iter()
            .map(|r| r.final_residual)
            .fold(0.0, f64::max);
        t.row(vec![
            format!("{:.2}", cell.rate),
            cell.strategy.into(),
            converged.to_string(),
            format!("{iterations:.2}"),
            format!("{faults:.2}"),
            format!("{recoveries:.2}"),
            format!("{wasted:.2}"),
            sci(residual),
        ]);
        rows.push(Json::obj(vec![
            ("fault_rate", Json::Num(cell.rate)),
            ("strategy", Json::s(cell.strategy)),
            ("converged", Json::Bool(converged)),
            ("iterations", Json::Num(iterations)),
            ("faults", Json::Num(faults)),
            ("recoveries", Json::Num(recoveries)),
            ("wasted_iterations", Json::Num(wasted)),
            ("final_residual", Json::Num(residual)),
        ]));
    }
    let table = t.render(&format!(
        "E12: fault-injected CG on the {g}^3 stencil — recovery strategies \
         (means over {TRIALS} plan seeds, worst residual)"
    ));
    let report = Json::obj(vec![
        ("experiment", Json::s("e12_resilience_cg")),
        ("grid", Json::Int(g as i64)),
        ("trials", Json::Int(TRIALS as i64)),
        ("runs", Json::Arr(rows)),
    ]);
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nonzero_rate_fires_faults() {
        let (_, cells) = cells(Scale::Quick);
        for cell in &cells {
            let fired: usize = cell.runs.iter().map(|r| r.faults).sum();
            if cell.rate == 0.0 {
                assert_eq!(fired, 0, "rate 0 {} fired", cell.strategy);
            } else {
                assert!(
                    fired > 0,
                    "rate {} {} fired no fault",
                    cell.rate,
                    cell.strategy
                );
            }
        }
    }
}
