//! E14 — communication-avoiding LU: tournament pivoting vs partial
//! pivoting, accuracy and pivot-search synchronization counts.

use crate::table::{sci, secs, Table};
use crate::{best_of, Scale};
use xsc_core::calu::calu;
use xsc_core::{factor, gen, norms};

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    let sizes: Vec<usize> = scale.pick(vec![256, 512], vec![512, 1024, 2048]);
    let nb = 64;
    let reps = scale.pick(2, 3);
    let mut t = Table::new(&[
        "n",
        "method",
        "time",
        "scaled residual",
        "pivot sync steps/panel",
    ]);
    for n in sizes {
        let a = gen::random_matrix::<f64>(n, n, 17);
        let b = gen::rhs_for_unit_solution(&a);

        let mut x1 = Vec::new();
        let t_gepp = best_of(reps, || {
            let mut f = a.clone();
            let piv = factor::getrf_blocked(&mut f, nb).unwrap();
            x1 = b.clone();
            factor::getrf_solve(&f, &piv, &mut x1);
        });
        t.row(vec![
            n.to_string(),
            "GEPP (partial pivoting)".into(),
            secs(t_gepp),
            sci(norms::hpl_scaled_residual(&a, &x1, &b)),
            // One global max-reduction per column of the panel.
            nb.to_string(),
        ]);

        let mut x2 = Vec::new();
        let t_calu = best_of(reps, || {
            let mut f = a.clone();
            let piv = calu(&mut f, nb, 2 * nb).unwrap();
            x2 = b.clone();
            factor::getrf_solve(&f, &piv, &mut x2);
        });
        // Tournament: log2(#blocks) rounds per panel.
        let blocks = (n / (2 * nb)).max(1);
        let rounds = (blocks as f64).log2().ceil().max(1.0) as usize;
        t.row(vec![
            n.to_string(),
            "CALU (tournament)".into(),
            secs(t_calu),
            sci(norms::hpl_scaled_residual(&a, &x2, &b)),
            rounds.to_string(),
        ]);
    }
    t.print("E14: LU pivoting strategies — accuracy and synchronization");
    println!("  keynote claim: tournament pivoting cuts the panel's pivot synchronizations");
    println!("  from O(nb) column reductions to O(log P) tournament rounds at GEPP-class");
    println!("  accuracy (both residuals pass the HPL acceptance threshold of 16).");
}
