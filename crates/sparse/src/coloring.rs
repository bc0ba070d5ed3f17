//! Multi-coloring for parallel Gauss–Seidel.
//!
//! The reference SymGS sweep runs in natural row order, so its parallelism
//! is limited to the wavefronts of its dependence chain ([`crate::symgs`]
//! runs those, with unchanged iterates): 348 rows per step on a 32³
//! stencil. The standard remedy (and HPCG's sanctioned optimization) is to
//! color the grid so that rows of the same color are mutually
//! independent; rows within a color then update in parallel, color by
//! color, n/8 rows per step. Convergence per sweep weakens slightly (the
//! update order changes, and so do the iterates), but each sweep exposes
//! far more parallelism than the wavefront.
//!
//! This module owns the crate's only multicolour sweep; every format
//! plugs its row update into it (see [`crate::symgs`]).

use crate::csr::{Csr, CsrMatrix};
use crate::idx::SparseIndex;
use crate::ops::SparseOps;
use crate::symgs::GsRow;
use rayon::prelude::*;

/// Greedy graph coloring of the matrix's adjacency structure: returns a
/// color per row, with no two adjacent rows (i.e. `a[i][j] != 0`) sharing
/// a color.
pub fn greedy_coloring<I: SparseIndex>(a: &Csr<I>) -> Vec<usize> {
    let n = a.nrows();
    let mut colors = vec![usize::MAX; n];
    let mut forbidden = vec![usize::MAX; 64]; // forbidden[c] = row that forbade c
    for i in 0..n {
        let (cols, _) = a.row(i);
        for j in cols.iter().map(|&j| j.widen()) {
            if j != i && colors[j] != usize::MAX {
                let c = colors[j];
                if c >= forbidden.len() {
                    forbidden.resize(c + 1, usize::MAX);
                }
                forbidden[c] = i;
            }
        }
        let mut c = 0;
        while c < forbidden.len() && forbidden[c] == i {
            c += 1;
        }
        colors[i] = c;
    }
    colors
}

/// Rows grouped by color (ascending color index).
pub fn color_classes(colors: &[usize]) -> Vec<Vec<usize>> {
    let num = colors.iter().copied().max().map_or(0, |m| m + 1);
    let mut classes = vec![Vec::new(); num];
    for (i, &c) in colors.iter().enumerate() {
        classes[c].push(i);
    }
    classes
}

/// Checks that no two adjacent rows share a color (testing/validation).
pub fn is_valid_coloring(a: &CsrMatrix, colors: &[usize]) -> bool {
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        for &j in cols {
            if j != i && colors[i] == colors[j] {
                return false;
            }
        }
    }
    true
}

/// One parallel multi-color symmetric Gauss–Seidel application on any
/// format: colors in ascending order (forward half-sweep), then descending
/// (backward), rows within a color updated concurrently.
pub(crate) fn colored_sweeps<M: GsRow>(a: &M, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
    let _scope = xsc_metrics::record("symgs", a.symgs_traffic());
    let sweep = |x: &mut [f64], class: &[usize]| {
        // Rows in one class are independent: read the shared x snapshot,
        // write disjoint entries. Collect updates first to satisfy the
        // borrow rules without unsafe.
        let updates: Vec<(usize, f64)> = class
            .par_iter()
            .map(|&i| (i, a.gs_row(i, b, &*x)))
            .collect();
        for (i, v) in updates {
            x[i] = v;
        }
    };
    for class in classes {
        sweep(x, class);
    }
    for class in classes.iter().rev() {
        sweep(x, class);
    }
}

/// One parallel multi-color symmetric Gauss–Seidel application on a CSR
/// matrix (classes from [`color_classes`]).
pub fn colored_symgs<I: SparseIndex>(a: &Csr<I>, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
    colored_sweeps(a, classes, b, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::unfused_residual;
    use crate::stencil::{build_matrix, build_rhs, Geometry};
    use crate::symgs::symgs;
    use xsc_core::blas1;

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        unfused_residual(a, x, b, &mut r);
        blas1::nrm2(&r)
    }

    #[test]
    fn coloring_is_valid_on_stencil() {
        let a = build_matrix(Geometry::new(6, 5, 4));
        let colors = greedy_coloring(&a);
        assert!(is_valid_coloring(&a, &colors));
        // 27-point stencil needs at least 8 colors (a 2x2x2 block clique).
        let num = colors.iter().max().unwrap() + 1;
        assert!(num >= 8, "only {num} colors");
        assert!(num <= 27, "greedy used too many colors: {num}");
    }

    #[test]
    fn color_classes_partition_rows() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let colors = greedy_coloring(&a);
        let classes = color_classes(&colors);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, a.nrows());
        for (c, class) in classes.iter().enumerate() {
            for &i in class {
                assert_eq!(colors[i], c);
            }
        }
    }

    #[test]
    fn colored_symgs_reduces_residual() {
        let a = build_matrix(Geometry::new(6, 6, 6));
        let (b, _) = build_rhs(&a);
        let classes = color_classes(&greedy_coloring(&a));
        let mut x = vec![0.0; a.nrows()];
        let r0 = residual_norm(&a, &x, &b);
        colored_symgs(&a, &classes, &b, &mut x);
        let r1 = residual_norm(&a, &x, &b);
        assert!(r1 < r0 * 0.8, "{r1} vs {r0}");
        colored_symgs(&a, &classes, &b, &mut x);
        assert!(residual_norm(&a, &x, &b) < r1);
    }

    #[test]
    fn colored_and_natural_order_converge_to_same_solution() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let (b, x_exact) = build_rhs(&a);
        let classes = color_classes(&greedy_coloring(&a));
        let mut xc = vec![0.0; a.nrows()];
        let mut xn = vec![0.0; a.nrows()];
        for _ in 0..300 {
            colored_symgs(&a, &classes, &b, &mut xc);
            symgs(&a, &b, &mut xn);
        }
        for ((c, n_), e) in xc.iter().zip(xn.iter()).zip(x_exact.iter()) {
            assert!((c - e).abs() < 1e-8, "colored {c} vs exact {e}");
            assert!((n_ - e).abs() < 1e-8);
        }
    }

    #[test]
    fn exact_solution_is_fixed_point_of_colored_sweep() {
        let a = build_matrix(Geometry::new(4, 4, 2));
        let (b, x_exact) = build_rhs(&a);
        let classes = color_classes(&greedy_coloring(&a));
        let mut x = x_exact.clone();
        colored_symgs(&a, &classes, &b, &mut x);
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn coloring_deterministic() {
        let a = build_matrix(Geometry::new(5, 5, 5));
        assert_eq!(greedy_coloring(&a), greedy_coloring(&a));
    }
}
