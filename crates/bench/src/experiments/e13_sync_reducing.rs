//! E13 — synchronization-reducing Krylov methods: pipelined CG measured
//! live, plus the collective-cost model showing why one reduction phase per
//! iteration matters at scale.

use crate::table::{f2, sci, secs, Table};
use crate::{best_of, Scale};
use xsc_machine::{collective_time, Collective, KrylovIterModel, MachineModel};
use xsc_sparse::pipelined::pipelined_cg;
use xsc_sparse::sstep::s_step_cg;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::{pcg, Identity, SparseOps};

/// Runs the experiment and prints its tables.
pub fn run(scale: Scale) {
    let g = scale.pick(12, 24);
    let geom = Geometry::new(g, g, g);
    let a = build_matrix(geom);
    let (mut b, _) = build_rhs(&a);
    for (i, v) in b.iter_mut().enumerate() {
        *v += ((i * 97) % 41) as f64 / 41.0 - 0.5;
    }
    let reps = scale.pick(2, 3);

    // Live single-node comparison: same convergence, fewer dependent
    // reduction phases.
    let mut classic = None;
    let t_classic = best_of(reps, || {
        let mut x = vec![0.0; a.nrows()];
        classic = Some(pcg(&a, &b, &mut x, 1000, 1e-9, &Identity));
    });
    let classic = classic.unwrap();
    let mut piped = None;
    let t_piped = best_of(reps, || {
        let mut x = vec![0.0; a.nrows()];
        piped = Some(pipelined_cg(&a, &b, &mut x, 1000, 1e-9));
    });
    let piped = piped.unwrap();

    let mut t = Table::new(&[
        "method",
        "time",
        "iterations",
        "final residual",
        "reduction phases",
    ]);
    t.row(vec![
        "classic CG".into(),
        secs(t_classic),
        classic.iterations.to_string(),
        sci(classic.final_residual()),
        (2 * classic.iterations).to_string(),
    ]);
    t.row(vec![
        "pipelined CG".into(),
        secs(t_piped),
        piped.iterations.to_string(),
        sci(*piped.residual_history.last().unwrap()),
        piped.reduction_phases.to_string(),
    ]);
    let mut ca = None;
    let t_ca = best_of(reps, || {
        let mut x = vec![0.0; a.nrows()];
        ca = Some(s_step_cg(&a, &b, &mut x, 4, 500, 1e-9));
    });
    let ca = ca.unwrap();
    t.row(vec![
        "s-step CG (s=4)".into(),
        secs(t_ca),
        ca.iterations.to_string(),
        sci(*ca.residual_history.last().unwrap()),
        ca.outer_steps.to_string(),
    ]);
    t.print(&format!(
        "E13: classic vs pipelined vs s-step CG on the {g}^3 stencil (live)"
    ));

    // Scale model: price the reductions.
    let m = MachineModel::node_2016();
    let mut t2 = Table::new(&[
        "ranks",
        "allreduce (16B)",
        "classic CG iter",
        "pipelined iter",
        "s-step(4) iter",
        "pipelined speedup",
    ]);
    let local = 50e-6; // 50 µs of local work per iteration per rank
    for p in [16usize, 256, 4096, 65_536, 1 << 20] {
        let ar = collective_time(Collective::AllReduceRecursiveDoubling, &m, p, 16);
        let tc = KrylovIterModel::classic_cg(local).time_per_iteration(&m, p);
        let tp = KrylovIterModel::pipelined_cg(local).time_per_iteration(&m, p);
        let ts = KrylovIterModel::s_step_cg(local, 4).time_per_iteration(&m, p);
        t2.row(vec![
            p.to_string(),
            secs(ar),
            secs(tc),
            secs(tp),
            secs(ts),
            f2(tc / tp),
        ]);
    }
    t2.print("E13b: modeled time per CG iteration vs rank count (50us local work)");
    println!("  keynote claim: the two dependent allreduces in classic CG become the");
    println!("  bottleneck at scale; pipelined/s-step formulations hide or amortize them.");
}
