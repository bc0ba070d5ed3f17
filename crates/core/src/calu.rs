//! Communication-avoiding LU (CALU) with tournament pivoting.
//!
//! Partial pivoting searches one column of the whole panel per step —
//! `O(n)` sequential reductions per panel, the latency bottleneck of
//! distributed LU. CALU (Grigori, Demmel, Xiang) replaces it with
//! **tournament pivoting** (TSLU): row blocks elect `b` local candidate
//! pivot rows each via a small pivoted factorization, candidates meet in a
//! binary tournament, and the `b` winners pivot the *entire* panel at once
//! — `O(log P)` reductions per panel. Stability is slightly weaker than
//! GEPP's in theory but comparable in practice, which the tests check.
//!
//! CALU is the blocked LU step loop of [`crate::factor`] with tournament
//! pivoting in place of the panel's column searches; the trailing update
//! is the same.

use crate::error::Result;
use crate::factor::{self, Pivoting};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rayon::prelude::*;

/// Selects `b = panel.cols()` pivot rows for a tall panel by tournament:
/// returns the winners' row indices *within the panel* (ascending order
/// not guaranteed; the first index corresponds to pivot position 0, etc.).
///
/// `block_rows` is the leaf block height (clamped to at least `b`). A zero
/// column in an election is no singularity: the election keeps its rows in
/// place there, so this never fails; only the factorization of the
/// winners can.
pub fn tournament_pivot_rows<T: Scalar>(
    panel: &Matrix<T>,
    block_rows: usize,
) -> Result<Vec<usize>> {
    let (m, b) = (panel.rows(), panel.cols());
    assert!(m >= b, "panel must be at least as tall as wide");
    Ok(tournament(panel.as_slice(), m, 0, b, block_rows))
}

/// The tournament over rows `r0..ld` of the first `b` columns of `cols`
/// (each `ld` long): returns the `b` winning rows, in pivot order.
pub(crate) fn tournament<T: Scalar>(
    cols: &[T],
    ld: usize,
    r0: usize,
    b: usize,
    block_rows: usize,
) -> Vec<usize> {
    let br = block_rows.max(b);
    let nblocks = ((ld - r0) / br).max(1);
    // Leaf round: each block elects b candidates via local GEPP.
    let mut contenders: Vec<Vec<usize>> = (0..nblocks)
        .into_par_iter()
        .map(|blk| {
            let lo = r0 + blk * br;
            let hi = if blk + 1 == nblocks { ld } else { lo + br };
            elect(cols, ld, b, (lo..hi).collect())
        })
        .collect();
    // Tournament rounds: stack two candidate sets, re-elect.
    while contenders.len() > 1 {
        let leftover = if contenders.len() % 2 == 1 {
            contenders.pop()
        } else {
            None
        };
        let mut next: Vec<Vec<usize>> = contenders
            .par_chunks(2)
            .map(|pair| elect(cols, ld, b, pair.concat()))
            .collect();
        next.extend(leftover);
        contenders = next;
    }
    contenders.pop().expect("at least one contender")
}

/// Local election: the panel loop with partial pivoting on the original
/// values of `rows` reorders them; the first `b` are the candidates passed
/// upward (each round gathers its candidates' unfactored values afresh).
fn elect<T: Scalar>(cols: &[T], ld: usize, b: usize, mut rows: Vec<usize>) -> Vec<usize> {
    let m = rows.len();
    let mut data: Vec<T> = cols[..b * ld]
        .chunks(ld)
        .flat_map(|col| rows.iter().map(|&r| col[r]))
        .collect();
    let mut piv = vec![0usize; b];
    // A zero pivot only means this leaf has no candidate for that column;
    // the loop kept the current row and ranked the rest.
    let _singular = factor::panel_lu(&mut data, m, 0, &mut piv, Pivoting::Partial);
    for (k, &p) in piv.iter().enumerate() {
        rows.swap(k, p);
    }
    rows.truncate(b);
    rows
}

/// Blocked CALU: LU with tournament pivoting. Overwrites `a` with the
/// factors and returns pivots in the same swap-sequence format as
/// [`crate::factor::getrf_blocked`] (compatible with
/// [`crate::factor::getrf_solve`]), or the absolute column of the first
/// zero pivot the winners leave. It runs `getrf_blocked`'s step loop, so
/// with one leaf (`block_rows >= a.rows()`) it gives `getrf_blocked`'s
/// bits and pivots.
pub fn calu<T: Scalar>(a: &mut Matrix<T>, nb: usize, block_rows: usize) -> Result<Vec<usize>> {
    assert!(a.is_square(), "calu requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    factor::getrf_steps(a, nb, false, Pivoting::Tournament { block_rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::{gen, norms};

    fn bits(m: &Matrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn calu_solves_random_systems_stably() {
        for (n, nb, br) in [(48, 8, 16), (64, 16, 16), (60, 12, 24)] {
            let a = gen::random_matrix::<f64>(n, n, 1);
            let b = gen::rhs_for_unit_solution(&a);
            let mut f = a.clone();
            let piv = calu(&mut f, nb, br).unwrap();
            let mut x = b.clone();
            factor::getrf_solve(&f, &piv, &mut x);
            let resid = norms::hpl_scaled_residual(&a, &x, &b);
            assert!(resid < 16.0, "n={n} nb={nb}: scaled residual {resid}");
        }
    }

    #[test]
    fn calu_stability_comparable_to_gepp() {
        let n = 64;
        let a = gen::random_matrix::<f64>(n, n, 2);
        let b = gen::rhs_for_unit_solution(&a);

        let mut f1 = a.clone();
        let p1 = factor::getrf_blocked(&mut f1, 16).unwrap();
        let mut x1 = b.clone();
        factor::getrf_solve(&f1, &p1, &mut x1);
        let r_gepp = norms::relative_residual(&a, &x1, &b);

        let mut f2 = a.clone();
        let p2 = calu(&mut f2, 16, 16).unwrap();
        let mut x2 = b.clone();
        factor::getrf_solve(&f2, &p2, &mut x2);
        let r_calu = norms::relative_residual(&a, &x2, &b);

        assert!(
            r_calu < r_gepp * 100.0 + 1e-12,
            "CALU residual {r_calu} vs GEPP {r_gepp}"
        );
    }

    #[test]
    fn calu_handles_adversarial_leading_pivot() {
        let n = 32;
        let mut a = gen::random_matrix::<f64>(n, n, 3);
        a.set(0, 0, 1e-14);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        let piv = calu(&mut f, 8, 8).unwrap();
        let mut x = b.clone();
        factor::getrf_solve(&f, &piv, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn tournament_picks_the_large_rows() {
        // Panel where rows 10..14 are scaled 1000x: the tournament should
        // elect exactly those as pivots.
        let m = 40;
        let b = 4;
        let mut panel = gen::random_matrix::<f64>(m, b, 4);
        for i in 10..14 {
            for j in 0..b {
                let v = panel.get(i, j) * 1000.0 + 500.0 * ((i + j) as f64 % 2.0 + 0.5);
                panel.set(i, j, v);
            }
        }
        let winners = tournament_pivot_rows(&panel, 8).unwrap();
        assert_eq!(winners.len(), b);
        for w in &winners {
            assert!(
                (10..14).contains(w),
                "winner {w} should be one of the dominant rows; got {winners:?}"
            );
        }
    }

    #[test]
    fn single_block_degenerates_to_gepp_selection() {
        let m = 16;
        let b = 4;
        let panel = gen::random_matrix::<f64>(m, b, 5);
        // One leaf covering all rows: winners = GEPP's first b pivot rows.
        let winners = tournament_pivot_rows(&panel, m).unwrap();
        let mut f = panel.clone();
        let piv = factor::getrf_unblocked(&mut f).unwrap();
        let mut rows: Vec<usize> = (0..m).collect();
        for (k, &p) in piv.iter().enumerate() {
            rows.swap(k, p);
        }
        assert_eq!(winners, rows[..b].to_vec());

        // And one leaf per panel makes CALU GEPP, bit for bit, on a ragged
        // last panel too.
        let (n, nb) = (45, 8);
        let a = gen::random_matrix::<f64>(n, n, 6);
        let mut f1 = a.clone();
        let p1 = factor::getrf_blocked(&mut f1, nb).unwrap();
        let mut f2 = a.clone();
        let p2 = calu(&mut f2, nb, n).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(bits(&f1), bits(&f2));
    }

    #[test]
    fn calu_detects_singularity() {
        let mut a = Matrix::<f64>::zeros(16, 16);
        for i in 0..16 {
            a.set(i, 0, 1.0); // rank-1 matrix
            a.set(0, i, 1.0);
        }
        assert!(calu(&mut a, 4, 8).is_err());
    }

    /// Leaves whose rows are zero in the panel's columns elect nothing but
    /// do not fail: CALU gives GEPP's factors on the identity and on a
    /// block-diagonal matrix whose blocks each fill one leaf. A zero column
    /// fails the winners' factorization at its absolute index, as in GEPP.
    #[test]
    fn zero_leaves_and_columns_behave_as_in_gepp() {
        let n = 32;
        let blocks = gen::random_matrix::<f64>(n, 8, 7);
        let block_diag = Matrix::from_fn(n, n, |i, j| {
            if i / 8 == j / 8 {
                blocks.get(i, j % 8)
            } else {
                0.0
            }
        });
        for a in [Matrix::<f64>::identity(n), block_diag] {
            let mut f1 = a.clone();
            let p1 = factor::getrf_blocked(&mut f1, 8).unwrap();
            let mut f2 = a.clone();
            let p2 = calu(&mut f2, 8, 8).unwrap();
            assert_eq!(p1, p2);
            assert_eq!(bits(&f1), bits(&f2));
        }

        let mut a = gen::random_matrix::<f64>(n, n, 9);
        for i in 0..n {
            a.set(i, 5, 0.0);
        }
        let want = factor::getrf_blocked(&mut a.clone(), 4).unwrap_err();
        assert_eq!(want, Error::Singular { pivot: 5 });
        assert_eq!(calu(&mut a, 4, 8).unwrap_err(), want);
    }
}
