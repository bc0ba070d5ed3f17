//! Matrix norms and the residual metrics used by the HPL-style correctness
//! checks.

use crate::gen::UniformColumns;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Frobenius norm, accumulated in `f64`.
pub fn frobenius<T: Scalar>(a: &Matrix<T>) -> f64 {
    a.as_slice()
        .iter()
        .map(|&x| x.to_f64() * x.to_f64())
        .sum::<f64>()
        .sqrt()
}

/// One-norm (maximum absolute column sum).
pub fn one_norm<T: Scalar>(a: &Matrix<T>) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|&x| x.abs().to_f64()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Infinity-norm (maximum absolute row sum).
pub fn inf_norm<T: Scalar>(a: &Matrix<T>) -> f64 {
    let mut row_sums = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (i, &x) in a.col(j).iter().enumerate() {
            row_sums[i] += x.abs().to_f64();
        }
    }
    row_sums.into_iter().fold(0.0, f64::max)
}

/// Largest absolute entry.
pub fn max_abs<T: Scalar>(a: &Matrix<T>) -> f64 {
    a.as_slice()
        .iter()
        .map(|&x| x.abs().to_f64())
        .fold(0.0, f64::max)
}

/// Infinity-norm of a vector.
pub fn vec_inf_norm<T: Scalar>(x: &[T]) -> f64 {
    x.iter().map(|&v| v.abs().to_f64()).fold(0.0, f64::max)
}

/// The scaled residual used by HPL to accept a solve:
/// `||b - A x||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * n)`.
///
/// A value of O(1)–O(10) means the solve is backward stable.
pub fn hpl_scaled_residual<T: Scalar>(a: &Matrix<T>, x: &[T], b: &[T]) -> f64 {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(x.len(), n);
    assert_eq!(b.len(), n);
    let mut fold = ResidualFold::new(b);
    for (j, &xj) in x.iter().enumerate() {
        fold.column(a.col(j), xj);
    }
    fold.hpl_scaled(x, b)
}

/// [`hpl_scaled_residual`] for `A = gen::random_matrix(n, n, seed)` with
/// `n = x.len()`, with `A` regenerated one column at a time into one
/// reused `n`-long buffer instead of held: the residual check of HPL's
/// test driver, in O(n) memory. Bit-identical to `hpl_scaled_residual`
/// on the stored matrix.
pub fn hpl_scaled_residual_of_random<T: Scalar>(seed: u64, x: &[T], b: &[T]) -> f64 {
    assert_eq!(b.len(), x.len());
    let mut stream = UniformColumns::new(seed);
    let mut col = vec![T::zero(); x.len()];
    let mut fold = ResidualFold::new(b);
    for &xj in x {
        stream.fill(&mut col);
        fold.column(&col, xj);
    }
    fold.hpl_scaled(x, b)
}

/// Relative residual `||b - A x||_2 / ||b||_2` (used by the iterative
/// solvers), accumulated in `f64`.
pub fn relative_residual<T: Scalar>(a: &Matrix<T>, x: &[T], b: &[T]) -> f64 {
    let mut fold = ResidualFold::new(b);
    for j in 0..a.cols() {
        fold.column(a.col(j), x[j]);
    }
    let rn = fold.r.iter().map(|v| v * v).sum::<f64>().sqrt();
    let bn = b
        .iter()
        .map(|&v| v.to_f64() * v.to_f64())
        .sum::<f64>()
        .sqrt();
    if bn == 0.0 {
        rn
    } else {
        rn / bn
    }
}

/// The one `b - A x` loop: the residual `r` and `A`'s absolute row sums,
/// accumulated in `f64` one column of `A` at a time, so `A` can come from
/// storage or from a generator.
struct ResidualFold {
    r: Vec<f64>,
    row_sums: Vec<f64>,
}

impl ResidualFold {
    /// The fold before any column: `r = b`.
    fn new<T: Scalar>(b: &[T]) -> Self {
        ResidualFold {
            r: b.iter().map(|v| v.to_f64()).collect(),
            row_sums: vec![0.0; b.len()],
        }
    }

    /// Folds in the next column of `A` and its entry `xj` of `x`.
    fn column<T: Scalar>(&mut self, col: &[T], xj: T) {
        assert_eq!(col.len(), self.r.len(), "A's rows must match b");
        let xj = xj.to_f64();
        for ((r, sum), &aij) in self.r.iter_mut().zip(&mut self.row_sums).zip(col) {
            *r -= aij.to_f64() * xj;
            *sum += aij.abs().to_f64();
        }
    }

    /// HPL's scaled residual once every column is folded in.
    fn hpl_scaled<T: Scalar>(self, x: &[T], b: &[T]) -> f64 {
        let rnorm = self.r.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let a_norm = self.row_sums.into_iter().fold(0.0, f64::max);
        let denom = f64::EPSILON
            * (a_norm * vec_inf_norm(x) + vec_inf_norm(b))
            * crate::cast::count_f64(b.len() as u64);
        if denom == 0.0 {
            return if rnorm == 0.0 { 0.0 } else { f64::INFINITY };
        }
        rnorm / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        // [[1, -2], [3, 4]]
        Matrix::from_fn(2, 2, |i, j| match (i, j) {
            (0, 0) => 1.0,
            (0, 1) => -2.0,
            (1, 0) => 3.0,
            (1, 1) => 4.0,
            _ => unreachable!(),
        })
    }

    #[test]
    fn norm_values() {
        let a = sample();
        assert!((frobenius(&a) - (30.0f64).sqrt()).abs() < 1e-14);
        assert_eq!(one_norm(&a), 6.0); // column 1: |-2| + |4| = 6
        assert_eq!(inf_norm(&a), 7.0); // row 1: |3| + |4| = 7
        assert_eq!(max_abs(&a), 4.0);
    }

    #[test]
    fn norms_of_identity() {
        let i = Matrix::<f64>::identity(5);
        assert_eq!(one_norm(&i), 1.0);
        assert_eq!(inf_norm(&i), 1.0);
        assert!((frobenius(&i) - 5.0f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn exact_solve_has_tiny_scaled_residual() {
        let a = sample();
        // x = [1, 1] => b = [-1, 7]
        let x = [1.0, 1.0];
        let b = [-1.0, 7.0];
        assert!(hpl_scaled_residual(&a, &x, &b) < 1.0);
        assert!(relative_residual(&a, &x, &b) < 1e-15);
    }

    #[test]
    fn wrong_solve_has_large_residual() {
        let a = sample();
        let x = [10.0, -10.0];
        let b = [-1.0, 7.0];
        assert!(hpl_scaled_residual(&a, &x, &b) > 1e10);
        assert!(relative_residual(&a, &x, &b) > 1.0);
    }

    #[test]
    fn regenerated_residual_matches_the_stored_one() {
        for (n, seed) in [(0, 1), (1, 2), (33, 42)] {
            let a = crate::gen::random_matrix::<f64>(n, n, seed);
            let x = crate::gen::random_vector::<f64>(n, seed + 1);
            let b = crate::gen::random_vector::<f64>(n, seed + 2);
            let want = hpl_scaled_residual(&a, &x, &b);
            let got = hpl_scaled_residual_of_random(seed, &x, &b);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn vec_inf_norm_basic() {
        assert_eq!(vec_inf_norm(&[1.0f64, -3.0, 2.0]), 3.0);
        assert_eq!(vec_inf_norm::<f64>(&[]), 0.0);
    }
}
