//! E02 — dataflow DAG scheduling vs bulk-synchronous fork-join, with the
//! scheduler-policy ablation (critical-path vs FIFO) DESIGN.md calls out.

use crate::table::{f2, pct, secs, Table};
use crate::{best_of, thread_sweep, with_threads, Scale};
use xsc_core::{gen, TileMatrix};
use xsc_dense::cholesky;
use xsc_dense::poison::Poison;
use xsc_machine::des::{simulate, DesConfig};
use xsc_runtime::{Executor, SchedPolicy};

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    let n = scale.pick(1024, 2048);
    let nb = 128;
    let a = gen::random_spd::<f64>(n, 7);
    let reps = scale.pick(2, 3);

    let mut t = Table::new(&[
        "threads",
        "fork-join",
        "DAG (crit-path)",
        "DAG (fifo)",
        "DAG speedup over FJ",
        "DAG utilization",
    ]);
    for threads in thread_sweep() {
        let t_fj = best_of(reps, || {
            let tiles = TileMatrix::from_matrix(&a, nb);
            with_threads(threads, || cholesky::cholesky_forkjoin(&tiles).unwrap());
        });
        let t_cp = best_of(reps, || {
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(threads, SchedPolicy::CriticalPath);
            cholesky::cholesky_dag(&tiles, &exec).unwrap();
        });
        let t_fifo = best_of(reps, || {
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(threads, SchedPolicy::Fifo);
            cholesky::cholesky_dag(&tiles, &exec).unwrap();
        });
        // One traced run for utilization.
        let tiles = TileMatrix::from_matrix(&a, nb);
        let exec = Executor::new(threads, SchedPolicy::CriticalPath);
        let trace = cholesky::cholesky_dag(&tiles, &exec).unwrap();
        t.row(vec![
            threads.to_string(),
            secs(t_fj),
            secs(t_cp),
            secs(t_fifo),
            f2(t_fj / t_cp),
            pct(trace.utilization()),
        ]);
    }
    t.print(&format!(
        "E02: tiled Cholesky n={n} nb={nb} — DAG dataflow vs fork-join (live)"
    ));

    // The host may expose only a few cores; the keynote's claim is about
    // many. Replay the same algorithm on modeled machines: dataflow uses
    // the true tile dependences, bulk-synchronous adds a barrier after
    // every dependence level.
    let nt = scale.pick(16usize, 24);
    let (edges_df, edges_bsp, costs) = cholesky_graphs(nt, nb);
    let ntasks = costs.len();
    let mut t2 = Table::new(&[
        "workers",
        "BSP makespan",
        "DAG makespan",
        "DAG speedup over BSP",
        "BSP utilization",
        "DAG utilization",
    ]);
    for workers in [4usize, 16, 64, 256] {
        let cfg = DesConfig {
            workers,
            comm_delay: 0.0,
        };
        let bsp = simulate(ntasks, &edges_bsp, &costs, cfg);
        let df = simulate(ntasks, &edges_df, &costs, cfg);
        t2.row(vec![
            workers.to_string(),
            format!("{:.3e}", bsp.makespan),
            format!("{:.3e}", df.makespan),
            f2(bsp.makespan / df.makespan),
            pct(bsp.utilization),
            pct(df.utilization),
        ]);
    }
    t2.print(&format!(
        "E02b: DES replay, {nt}x{nt} tiles ({ntasks} tasks) — barriers vs dataflow"
    ));
    println!(
        "  keynote claim: removing step barriers raises utilization; the gap grows with cores."
    );
}

type Edges = Vec<(usize, usize)>;

/// Builds the dataflow and bulk-synchronous edge sets for a tiled Cholesky
/// of `nt × nt` tiles (costs in seconds at 40 Gflop/s per modeled worker).
fn cholesky_graphs(nt: usize, nb: usize) -> (Edges, Edges, Vec<f64>) {
    // Dataflow edges straight from the production graph builder.
    let a = TileMatrix::<f64>::zeros(nt * nb, nt * nb, nb);
    let mut g = cholesky::build_graph(&a, &Poison::new());
    let edges_df = g.edge_list();
    let costs: Vec<f64> = g.costs().into_iter().map(|c| c as f64 / 40e9).collect();

    // Bulk-synchronous edges: a full barrier between consecutive
    // dependence levels (potrf | trsm panel | trailing update of each
    // step) — the schedule `cholesky_forkjoin` runs.
    let mut edges_bsp = Vec::new();
    for w in g.levels().windows(2) {
        for &from in &w[0] {
            for &to in &w[1] {
                edges_bsp.push((from, to));
            }
        }
    }
    (edges_df, edges_bsp, costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash of `cholesky_graphs(16, 128)`: dataflow edges, BSP edges and
    /// cost bits, in order. Pins the DES replay inputs of E02b.
    const GRAPHS_16: u64 = 0x32a5_d72d_3682_ac81;

    #[test]
    fn des_replay_graphs_match_golden_hash() {
        let (df, bsp, costs) = cholesky_graphs(16, 128);
        let words = df
            .iter()
            .chain(bsp.iter())
            .flat_map(|&(from, to)| [from as u64, to as u64])
            .chain(costs.iter().map(|c| c.to_bits()));
        assert_eq!(crate::fnv1a(words), GRAPHS_16);
    }
}
