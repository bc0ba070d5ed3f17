//! Triangular solve with multiple right-hand sides (all 16 BLAS variants).

use crate::gemm::Transpose;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Which side the triangular matrix multiplies from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A) X = alpha B`.
    Left,
    /// Solve `X op(A) = alpha B`.
    Right,
}

/// Which triangle of the matrix holds the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Whether the diagonal is implicitly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are read from the matrix.
    NonUnit,
    /// Diagonal entries are assumed to be one (LU's unit-lower factor).
    Unit,
}

/// Solves `op(A) X = alpha B` (left) or `X op(A) = alpha B` (right), with
/// `A` triangular; `X` overwrites `B`.
///
/// Entries of `A` outside the `uplo` triangle are never read.
pub fn trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    alpha: T,
    a: &Matrix<T>,
    b: &mut Matrix<T>,
) {
    assert!(a.is_square(), "triangular matrix must be square");
    let n = a.rows();
    match side {
        Side::Left => assert_eq!(b.rows(), n, "trsm left: B row count mismatch"),
        Side::Right => assert_eq!(b.cols(), n, "trsm right: B col count mismatch"),
    }
    let nrhs = match side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    let _scope = xsc_metrics::record(
        "trsm",
        xsc_metrics::traffic::trsm(n, nrhs, std::mem::size_of::<T>() as u64),
    );
    if alpha != T::one() {
        b.scale(alpha);
    }
    match side {
        Side::Left => {
            for j in 0..b.cols() {
                let col = b.col_mut(j);
                trsv(uplo, trans, diag, a, col);
            }
        }
        Side::Right => trsm_right(uplo, trans, diag, a, b),
    }
}

/// Triangular solve for a single vector: `op(A) x = b`, `x` overwrites `b`.
pub fn trsv<T: Scalar>(uplo: Uplo, trans: Transpose, diag: Diag, a: &Matrix<T>, x: &mut [T]) {
    assert_eq!(x.len(), a.rows(), "trsv length mismatch");
    trsv_slice(uplo, trans, diag, a.as_slice(), a.rows(), x);
}

/// [`trsv`] on column-major storage: `op(A) x = b` for the order-`x.len()`
/// triangle whose column `j` starts at `a[j * lda]`; `x` overwrites `b`.
/// Entries outside the `uplo` triangle are never read, so `A` may sit in
/// place inside a larger matrix (`lda` its column length). Allocates
/// nothing.
pub fn trsv_slice<T: Scalar>(
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    a: &[T],
    lda: usize,
    x: &mut [T],
) {
    let n = x.len();
    assert!(
        n == 0 || (lda >= n && a.len() >= (n - 1) * lda + n),
        "trsv: the triangle does not fit in `a`"
    );
    let col = |j: usize| &a[j * lda..j * lda + n];
    let unit = diag == Diag::Unit;
    match (uplo, trans) {
        // Forward substitution, column-oriented.
        (Uplo::Lower, Transpose::No) => {
            for j in 0..n {
                let acol = col(j);
                if !unit {
                    x[j] /= acol[j];
                }
                let (head, below) = x.split_at_mut(j + 1);
                let xj = head[j];
                for (xi, &aij) in below.iter_mut().zip(&acol[j + 1..]) {
                    *xi = (-xj).mul_add(aij, *xi);
                }
            }
        }
        // L^T x = b: backward, dot-product form over columns of L.
        (Uplo::Lower, Transpose::Yes) => {
            for j in (0..n).rev() {
                let acol = col(j);
                let mut acc = x[j];
                for (&aij, &xi) in acol[j + 1..].iter().zip(&x[j + 1..]) {
                    acc = (-aij).mul_add(xi, acc);
                }
                x[j] = if unit { acc } else { acc / acol[j] };
            }
        }
        // Backward substitution, column-oriented.
        (Uplo::Upper, Transpose::No) => {
            for j in (0..n).rev() {
                let acol = col(j);
                if !unit {
                    x[j] /= acol[j];
                }
                let (above, rest) = x.split_at_mut(j);
                let xj = rest[0];
                for (xi, &aij) in above.iter_mut().zip(acol) {
                    *xi = (-xj).mul_add(aij, *xi);
                }
            }
        }
        // U^T x = b: forward, dot-product form over columns of U.
        (Uplo::Upper, Transpose::Yes) => {
            for j in 0..n {
                let acol = col(j);
                let mut acc = x[j];
                for (&aij, &xi) in acol[..j].iter().zip(&x[..j]) {
                    acc = (-aij).mul_add(xi, acc);
                }
                x[j] = if unit { acc } else { acc / acol[j] };
            }
        }
    }
}

/// Right-side solve `X op(A) = B`, processed as a column recurrence so every
/// update is a stride-1 axpy on a column of `X`.
fn trsm_right<T: Scalar>(
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    a: &Matrix<T>,
    b: &mut Matrix<T>,
) {
    let n = a.rows();
    let m = b.rows();
    // Effective upper/lower structure of op(A) as a right factor determines
    // the sweep direction: forward when op(A) is upper, backward when lower.
    // X * op(A) = B, column j of B: sum_k X[:,k] * op(A)[k,j].
    let forward = matches!(
        (uplo, trans),
        (Uplo::Upper, Transpose::No) | (Uplo::Lower, Transpose::Yes)
    );
    let opa = |k: usize, j: usize| -> T {
        match trans {
            Transpose::No => a.get(k, j),
            Transpose::Yes => a.get(j, k),
        }
    };
    let order: Vec<usize> = if forward {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    for &j in &order {
        // X[:,j] = (B[:,j] - sum_{k already solved} X[:,k] * op(A)[k,j]) / op(A)[j,j]
        let ks: Vec<usize> = if forward {
            (0..j).collect()
        } else {
            (j + 1..n).collect()
        };
        for k in ks {
            let s = opa(k, j);
            if s == T::zero() {
                continue;
            }
            let (xk, xj) = b.two_cols_mut(k, j);
            for i in 0..m {
                xj[i] = (-s).mul_add(xk[i], xj[i]);
            }
        }
        if diag == Diag::NonUnit {
            let d = opa(j, j);
            let xj = b.col_mut(j);
            for v in xj.iter_mut() {
                *v /= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use crate::gen;

    /// Builds a well-conditioned triangular matrix with the other triangle
    /// filled with garbage (to verify it is never read).
    fn tri(n: usize, uplo: Uplo, unit: bool, seed: u64) -> Matrix<f64> {
        let mut a = gen::random_matrix::<f64>(n, n, seed);
        for i in 0..n {
            a.set(i, i, if unit { f64::NAN } else { 2.0 + i as f64 * 0.1 });
            for j in 0..n {
                let in_tri = match uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if !in_tri && i != j {
                    a.set(i, j, f64::NAN); // poison: must never be read
                }
            }
        }
        a
    }

    /// Clean copy of the triangle for building reference products.
    fn tri_clean(a: &Matrix<f64>, uplo: Uplo, unit: bool) -> Matrix<f64> {
        let n = a.rows();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if unit {
                    1.0
                } else {
                    a.get(i, j)
                }
            } else {
                let in_tri = match uplo {
                    Uplo::Lower => i > j,
                    Uplo::Upper => i < j,
                };
                if in_tri {
                    a.get(i, j)
                } else {
                    0.0
                }
            }
        })
    }

    #[test]
    fn all_sixteen_variants_solve_correctly() {
        let n = 11;
        let m = 7;
        for &side in &[Side::Left, Side::Right] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                for &trans in &[Transpose::No, Transpose::Yes] {
                    for &diag in &[Diag::NonUnit, Diag::Unit] {
                        let a = tri(n, uplo, diag == Diag::Unit, 42);
                        let t = tri_clean(&a, uplo, diag == Diag::Unit);
                        let (br, bc) = match side {
                            Side::Left => (n, m),
                            Side::Right => (m, n),
                        };
                        let x_true = gen::random_matrix::<f64>(br, bc, 43);
                        // B = op(T) * X (left) or X * op(T) (right).
                        let mut b = Matrix::zeros(br, bc);
                        match side {
                            Side::Left => gemm(trans, Transpose::No, 1.0, &t, &x_true, 0.0, &mut b),
                            Side::Right => {
                                gemm(Transpose::No, trans, 1.0, &x_true, &t, 0.0, &mut b)
                            }
                        }
                        trsm(side, uplo, trans, diag, 1.0, &a, &mut b);
                        assert!(
                            b.approx_eq(&x_true, 1e-9),
                            "trsm failed for {side:?} {uplo:?} {trans:?} {diag:?}: diff {}",
                            b.max_abs_diff(&x_true)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_scales_rhs() {
        let a = Matrix::<f64>::identity(3);
        let mut b = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let expect = Matrix::from_fn(3, 2, |i, j| 2.0 * (i + j) as f64);
        trsm(
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            2.0,
            &a,
            &mut b,
        );
        assert!(b.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn trsv_lower_forward_hand_checked() {
        // L = [[2, 0], [1, 4]], b = [2, 9] => x = [1, 2].
        let mut l = Matrix::<f64>::zeros(2, 2);
        l.set(0, 0, 2.0);
        l.set(1, 0, 1.0);
        l.set(1, 1, 4.0);
        let mut x = [2.0, 9.0];
        trsv(Uplo::Lower, Transpose::No, Diag::NonUnit, &l, &mut x);
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square_triangle() {
        let a = Matrix::<f64>::zeros(3, 4);
        let mut b = Matrix::<f64>::zeros(3, 2);
        trsm(
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            &a,
            &mut b,
        );
    }
}
