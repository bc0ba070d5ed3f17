//! E15 — making the HPCG smoother parallel: multi-color Gauss–Seidel
//! (HPCG's sanctioned optimization, which changes the iterates) vs the
//! natural-order sweep run level by level along its wavefronts (which
//! keeps them bit for bit).

use crate::table::{f2, sci, secs, Table};
use crate::{best_of, ncpus, with_threads, Scale};
use xsc_core::blas1;
use xsc_sparse::coloring::{color_classes, colored_symgs, greedy_coloring};
use xsc_sparse::ops::unfused_residual;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::symgs::symgs;
use xsc_sparse::{CsrMatrix, FormatMatrix, SparseFormat, SparseOps};

fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    unfused_residual(a, x, b, &mut r);
    blas1::nrm2(&r) / blas1::nrm2(b).max(f64::MIN_POSITIVE)
}

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    let g = scale.pick(32, 48);
    let geom = Geometry::new(g, g, g);
    let a = build_matrix(geom);
    let (b, _) = build_rhs(&a);
    let reps = scale.pick(2, 3);
    let threads = ncpus();

    let colors = greedy_coloring(&a);
    let num_colors = colors.iter().max().unwrap() + 1;
    let classes = color_classes(&colors);
    let levels = a.gs_schedule().expect("the stencil is square").num_levels();

    let five_natural = |x: &mut Vec<f64>| {
        best_of(reps, || {
            x.iter_mut().for_each(|v| *v = 0.0);
            for _ in 0..5 {
                symgs(&a, &b, x);
            }
        })
    };
    let mut x_seq = vec![0.0; a.nrows()];
    let t_seq = with_threads(1, || five_natural(&mut x_seq));
    let mut x_nat = vec![0.0; a.nrows()];
    let t_nat = five_natural(&mut x_nat);
    assert_eq!(
        x_nat, x_seq,
        "the level-scheduled sweep must reproduce the natural iterates bit for bit"
    );
    let mut x_col = vec![0.0; a.nrows()];
    let t_col = best_of(reps, || {
        x_col.iter_mut().for_each(|v| *v = 0.0);
        for _ in 0..5 {
            colored_symgs(&a, &classes, &b, &mut x_col);
        }
    });

    let mut t = Table::new(&[
        "smoother",
        "time (5 sweeps)",
        "residual after 5 sweeps",
        "parallel rows per step",
    ]);
    t.row(vec![
        "natural order, 1 thread".into(),
        secs(t_seq),
        sci(relative_residual(&a, &x_seq, &b)),
        "1".into(),
    ]);
    t.row(vec![
        format!("natural order, {levels} levels ({threads} threads)"),
        secs(t_nat),
        sci(relative_residual(&a, &x_nat, &b)),
        f2(a.nrows() as f64 / levels as f64),
    ]);
    t.row(vec![
        format!("{num_colors}-color ({threads} threads)"),
        secs(t_col),
        sci(relative_residual(&a, &x_col, &b)),
        f2(a.nrows() as f64 / num_colors as f64),
    ]);
    // The same colored sweep on the compact formats: identical update order,
    // so the iterates must match the usize-CSR sweep bit for bit.
    for fmt in [SparseFormat::Csr32, SparseFormat::SellCSigma] {
        let m = FormatMatrix::convert(a.clone(), fmt).expect("stencil fits u32 indices");
        let mut x_fmt = vec![0.0; a.nrows()];
        let t_fmt = best_of(reps, || {
            x_fmt.iter_mut().for_each(|v| *v = 0.0);
            for _ in 0..5 {
                m.colored_symgs(&classes, &b, &mut x_fmt);
            }
        });
        assert_eq!(
            x_fmt, x_col,
            "{fmt}: colored SymGS must be bit-identical to the usize-CSR sweep"
        );
        t.row(vec![
            format!("{num_colors}-color ({fmt})"),
            secs(t_fmt),
            sci(relative_residual(&a, &x_fmt, &b)),
            f2(a.nrows() as f64 / num_colors as f64),
        ]);
    }
    t.print(&format!("E15: Gauss–Seidel smoother on the {g}^3 stencil"));

    // Full pipeline ablation: the three smoother families inside MG-CG.
    use xsc_sparse::mg::{MgPreconditioner, Smoother};
    use xsc_sparse::pcg;
    let g2 = scale.pick(16usize, 32);
    let geom2 = Geometry::new(g2, g2, g2);
    let a2 = build_matrix(geom2);
    let (b2, _) = build_rhs(&a2);
    let mut t2 = Table::new(&[
        "MG smoother",
        "CG iterations",
        "time",
        "final residual",
        "parallel across",
    ]);
    for (name, sm, par) in [
        ("SymGS (natural)", Smoother::SymGs, "level wavefronts"),
        ("SymGS (8-color)", Smoother::Colored, "colors"),
        (
            "Chebyshev deg-4",
            Smoother::Chebyshev { degree: 4 },
            "SpMV rows",
        ),
    ] {
        let mg = MgPreconditioner::with_smoother(geom2, 3, sm);
        let mut x = vec![0.0; a2.nrows()];
        let mut res = None;
        let tm = best_of(reps, || {
            x.iter_mut().for_each(|v| *v = 0.0);
            res = Some(pcg(&a2, &b2, &mut x, 100, 1e-9, &mg));
        });
        let res = res.unwrap();
        t2.row(vec![
            name.into(),
            res.iterations.to_string(),
            secs(tm),
            sci(res.final_residual()),
            par.into(),
        ]);
    }
    t2.print(&format!("E15b: smoother families inside MG-CG ({g2}^3)"));
    println!("  keynote claim: reordering trades a little convergence per sweep for");
    println!("  a smoother that scales — rows within a color update concurrently.");
    println!("  The natural order is not sequential either: rows on one level of its");
    println!("  wavefront schedule update concurrently and the iterates stay HPCG's.");
    println!("  Colors expose far more rows per step than levels, which only pays on");
    println!("  machines with more cores than the wavefront is wide.");
}
