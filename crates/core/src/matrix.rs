//! Column-major dense matrix storage.
//!
//! Column-major order matches the classic HPC numerical stack (BLAS, LAPACK,
//! PLASMA, HPL) whose algorithms this project reproduces, so the blocked
//! kernels translate one-to-one from the literature.

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix stored in column-major order.
///
/// Element `(i, j)` lives at linear offset `i + j * rows`.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![T::zero(); rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a matrix whose `(i, j)` entry is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { data, rows, cols }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { data, rows, cols }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { T::one() } else { T::zero() })
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to the underlying column-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying column-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element read with bounds checking in debug builds.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Element write with bounds checking in debug builds.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Column `j` as a slice (length `rows`).
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        let r = self.rows;
        &self.data[j * r..(j + 1) * r]
    }

    /// Column `j` as a mutable slice (length `rows`).
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Two distinct mutable column slices (`ja != jb`).
    pub fn two_cols_mut(&mut self, ja: usize, jb: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(ja, jb, "two_cols_mut requires distinct columns");
        let r = self.rows;
        if ja < jb {
            let (lo, hi) = self.data.split_at_mut(jb * r);
            (&mut lo[ja * r..(ja + 1) * r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(ja * r);
            let b = &mut lo[jb * r..(jb + 1) * r];
            (&mut hi[..r], b)
        }
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Copies the rectangular block starting at `(src_i, src_j)` of size
    /// `(m, n)` into `dst` at `(dst_i, dst_j)`.
    #[allow(clippy::too_many_arguments)] // two (matrix, i, j) anchors + a shape is the natural signature
    pub fn copy_block_into(
        &self,
        src_i: usize,
        src_j: usize,
        m: usize,
        n: usize,
        dst: &mut Matrix<T>,
        dst_i: usize,
        dst_j: usize,
    ) {
        assert!(
            src_i + m <= self.rows && src_j + n <= self.cols,
            "source block out of range"
        );
        assert!(
            dst_i + m <= dst.rows && dst_j + n <= dst.cols,
            "destination block out of range"
        );
        for j in 0..n {
            let src_col = &self.col(src_j + j)[src_i..src_i + m];
            let dst_col = &mut dst.col_mut(dst_j + j)[dst_i..dst_i + m];
            dst_col.copy_from_slice(src_col);
        }
    }

    /// Extracts the block starting at `(i, j)` of size `(m, n)` as a new matrix.
    pub fn block(&self, i: usize, j: usize, m: usize, n: usize) -> Matrix<T> {
        let mut out = Matrix::zeros(m, n);
        self.copy_block_into(i, j, m, n, &mut out, 0, 0);
        out
    }

    /// Swaps rows `ra` and `rb` across all columns (LU partial pivoting).
    pub fn swap_rows(&mut self, ra: usize, rb: usize) {
        if ra == rb {
            return;
        }
        assert!(ra < self.rows && rb < self.rows);
        for j in 0..self.cols {
            self.data.swap(ra + j * self.rows, rb + j * self.rows);
        }
    }

    /// Adds `alpha * other` element-wise into `self`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: T, other: &Matrix<T>) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(other.data.iter()) {
            *x = alpha.mul_add(y, *x);
        }
    }

    /// Largest absolute element-wise difference against `other`.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// `true` if all corresponding entries differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix<T>, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.max_abs_diff(other) <= tol
    }

    /// `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| x.not_finite())
    }

    /// Converts every entry to another scalar type via `f64`.
    pub fn convert<U: Scalar>(&self) -> Matrix<U> {
        Matrix {
            data: self.data.iter().map(|x| U::from_f64(x.to_f64())).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Symmetrizes in place: `A <- (A + A^T) / 2`. Requires a square matrix.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        let half = T::from_f64(0.5);
        for j in 0..self.cols {
            for i in 0..j {
                let v = (self.get(i, j) + self.get(j, i)) * half;
                self.set(i, j, v);
                self.set(j, i, v);
            }
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i + j * self.rows]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5} ", self.get(i, j))?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::<f64>::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 0), 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn column_major_layout() {
        // [[1, 3], [2, 4]] stored as [1, 2, 3, 4].
        let m = Matrix::from_col_major(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_col_major_checks_length() {
        let _ = Matrix::from_col_major(2, 2, vec![1.0f64, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_and_index() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        let mut m = m;
        m[(2, 1)] = -1.0;
        assert_eq!(m.get(2, 1), -1.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(4, 7, |i, j| (i * 100 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(5, 2), m.get(2, 5));
    }

    #[test]
    fn block_copy_round_trip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i + 10 * j) as f64);
        let b = m.block(2, 3, 3, 2);
        assert_eq!(b.get(0, 0), m.get(2, 3));
        assert_eq!(b.get(2, 1), m.get(4, 4));

        let mut dst = Matrix::zeros(6, 6);
        b.copy_block_into(0, 0, 3, 2, &mut dst, 2, 3);
        assert_eq!(dst.get(4, 4), m.get(4, 4));
        assert_eq!(dst.get(0, 0), 0.0);
    }

    #[test]
    fn swap_rows_swaps_every_column() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let orig = m.clone();
        m.swap_rows(0, 2);
        for j in 0..3 {
            assert_eq!(m.get(0, j), orig.get(2, j));
            assert_eq!(m.get(2, j), orig.get(0, j));
        }
    }

    #[test]
    fn axpy_and_diff() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut c = a.clone();
        c.axpy(2.0, &a);
        assert_eq!(c.get(1, 1), 6.0);
        assert_eq!(c.max_abs_diff(&a), 4.0);
        assert!(a.approx_eq(&a, 0.0));
        assert!(!c.approx_eq(&a, 1.0));
    }

    #[test]
    fn two_cols_mut_both_orders() {
        let mut m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        {
            let (a, b) = m.two_cols_mut(0, 2);
            assert_eq!(a, &[0.0, 1.0]);
            assert_eq!(b, &[20.0, 21.0]);
            std::mem::swap(&mut a[0], &mut b[0]);
        }
        assert_eq!(m.get(0, 0), 20.0);
        let (b, a) = m.two_cols_mut(2, 0);
        assert_eq!(a[1], 1.0);
        assert_eq!(b[1], 21.0);
    }

    #[test]
    fn convert_between_precisions() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64 + 0.25);
        let s: Matrix<f32> = m.convert();
        let back: Matrix<f64> = s.convert();
        assert!(m.approx_eq(&back, 1e-6));
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (3 * i + j) as f64);
        m.symmetrize();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        assert!(!m.has_non_finite());
        m.set(1, 0, f64::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    fn scale_and_fill() {
        let mut m = Matrix::from_fn(2, 2, |_, _| 2.0f64);
        m.scale(3.0);
        assert!(m.as_slice().iter().all(|&x| x == 6.0));
        m.fill(1.0);
        assert!(m.as_slice().iter().all(|&x| x == 1.0));
    }
}
