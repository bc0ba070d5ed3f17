//! # xsc-batched — batched small-matrix BLAS
//!
//! The keynote's "many small problems" workload: applications (FEM element
//! matrices, block preconditioners, tensor contractions) need *millions* of
//! 4×4…32×32 BLAS calls. Calling a general kernel per matrix drowns in
//! call/dispatch overhead and strided allocation; a **batched** interface
//! stores the whole batch contiguously and makes one parallel pass.
//!
//! [`Batch`] is the flat container; [`batched_gemm`], [`batched_potrf`],
//! [`batched_trsm_llt`], [`batched_getrf`] and [`batched_getrf_solve`] the
//! operations; [`looped_gemm`] the one-call-per-matrix baseline experiment
//! E07 compares against.
//!
//! What is batched is the storage and the launch: one flat buffer and one
//! parallel pass over it. The numerics are not a second library. Each
//! element of a factorization or solve runs xsc-core's own loop on its
//! slice of the buffer ([`factor::potrf_unblocked_slice`],
//! [`factor::getrf_unblocked_slice`], [`trsv_slice`]), so a batched
//! answer has the bits of the unbatched one. Those slice forms allocate
//! nothing and record no metrics, which keeps a tiny element cheap.
//! [`batched_gemm`] keeps its own column sweep on raw slices: feeding each
//! element through `gemm`'s column lists would allocate per element.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rayon::prelude::*;
use xsc_core::trsm::trsv_slice;
use xsc_core::{factor, gemm, Diag, Error, Matrix, Result, Scalar, Transpose, Uplo};

/// A batch of `count` matrices, each `rows × cols`, stored contiguously in
/// column-major order, one after another.
#[derive(Clone)]
pub struct Batch<T> {
    rows: usize,
    cols: usize,
    count: usize,
    data: Vec<T>,
}

impl<T: Scalar> Batch<T> {
    /// Creates a zero-filled batch. Degenerate shapes (zero rows, columns,
    /// or count) are allowed; every batched operation treats them as empty
    /// work rather than panicking.
    pub fn zeros(rows: usize, cols: usize, count: usize) -> Self {
        Batch {
            rows,
            cols,
            count,
            data: vec![T::zero(); rows * cols * count],
        }
    }

    /// Creates a batch whose `k`-th matrix has entries `f(k, i, j)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        count: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut b = Batch::zeros(rows, cols, count);
        for k in 0..count {
            let m = b.matrix_mut(k);
            for j in 0..cols {
                for i in 0..rows {
                    m[i + j * rows] = f(k, i, j);
                }
            }
        }
        b
    }

    /// Rows of each matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of each matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of matrices in the batch.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Column-major slice of matrix `k`.
    pub fn matrix(&self, k: usize) -> &[T] {
        let s = self.rows * self.cols;
        &self.data[k * s..(k + 1) * s]
    }

    /// Mutable column-major slice of matrix `k`.
    pub fn matrix_mut(&mut self, k: usize) -> &mut [T] {
        let s = self.rows * self.cols;
        &mut self.data[k * s..(k + 1) * s]
    }

    /// Copies matrix `k` out as a [`Matrix`] (interop/testing helper).
    pub fn to_matrix(&self, k: usize) -> Matrix<T> {
        Matrix::from_col_major(self.rows, self.cols, self.matrix(k).to_vec())
    }

    /// Builds a batch from a slice of equally-sized matrices.
    pub fn from_matrices(ms: &[Matrix<T>]) -> Self {
        assert!(!ms.is_empty(), "empty batch");
        let rows = ms[0].rows();
        let cols = ms[0].cols();
        let mut b = Batch::zeros(rows, cols, ms.len());
        for (k, m) in ms.iter().enumerate() {
            assert_eq!((m.rows(), m.cols()), (rows, cols), "ragged batch");
            b.matrix_mut(k).copy_from_slice(m.as_slice());
        }
        b
    }

    fn stride(&self) -> usize {
        self.rows * self.cols
    }
}

/// Batched `C[k] <- alpha * A[k] * B[k] + beta * C[k]`, one rayon pass over
/// the flat storage.
pub fn batched_gemm<T: Scalar>(alpha: T, a: &Batch<T>, b: &Batch<T>, beta: T, c: &mut Batch<T>) {
    assert_eq!(a.count, b.count, "batch counts differ");
    assert_eq!(a.count, c.count, "batch counts differ");
    assert_eq!(a.cols, b.rows, "inner dimensions differ");
    assert_eq!((c.rows, c.cols), (a.rows, b.cols), "output shape mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let sa = a.stride();
    let sb = b.stride();
    let sc = c.stride();
    if sc == 0 {
        // m == 0 or n == 0: every C[k] is empty; par_chunks_mut(0) would panic.
        // (k == 0 with m, n > 0 falls through and acts as a pure beta-scale.)
        return;
    }
    c.data.par_chunks_mut(sc).enumerate().for_each(|(idx, cm)| {
        let am = &a.data[idx * sa..(idx + 1) * sa];
        let bm = &b.data[idx * sb..(idx + 1) * sb];
        // Tiny column-sweep gemm on raw slices (no per-call allocation).
        for j in 0..n {
            let cj = &mut cm[j * m..(j + 1) * m];
            if beta == T::zero() {
                cj.fill(T::zero());
            } else if beta != T::one() {
                for x in cj.iter_mut() {
                    *x *= beta;
                }
            }
            for l in 0..k {
                let s = alpha * bm[l + j * k];
                if s == T::zero() {
                    continue;
                }
                let al = &am[l * m..(l + 1) * m];
                for i in 0..m {
                    cj[i] = s.mul_add(al[i], cj[i]);
                }
            }
        }
    });
}

/// Per-matrix baseline: allocates `Matrix` wrappers and calls the general
/// [`xsc_core::gemm::gemm`] once per batch element, sequentially — the
/// pattern batched BLAS exists to replace.
pub fn looped_gemm<T: Scalar>(alpha: T, a: &Batch<T>, b: &Batch<T>, beta: T, c: &mut Batch<T>) {
    for k in 0..a.count {
        let am = a.to_matrix(k);
        let bm = b.to_matrix(k);
        let mut cm = c.to_matrix(k);
        gemm::gemm(Transpose::No, Transpose::No, alpha, &am, &bm, beta, &mut cm);
        c.matrix_mut(k).copy_from_slice(cm.as_slice());
    }
}

/// Batched Cholesky: factors every (square, SPD) matrix in place with
/// [`factor::potrf_unblocked_slice`]. Returns the index of the first
/// failing matrix on error.
pub fn batched_potrf<T: Scalar>(batch: &mut Batch<T>) -> Result<()> {
    let n = batch.rows;
    factor_each(batch, "potrf", |m| factor::potrf_unblocked_slice(n, m, n)).map(|_| ())
}

/// Runs `factor` on every (square) matrix of `batch` in one parallel pass.
/// Returns the per-element results in order, or the first failing
/// element's error with the element named in it.
fn factor_each<T: Scalar, R: Send>(
    batch: &mut Batch<T>,
    what: &str,
    factor: impl Fn(&mut [T]) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    assert_eq!(batch.rows, batch.cols, "{what} needs square matrices");
    let results: Vec<Result<R>> = match batch.stride() {
        // 0x0 matrices: par_chunks_mut(0) would panic.
        0 => (0..batch.count).map(|_| factor(&mut [])).collect(),
        s => batch.data.par_chunks_mut(s).map(factor).collect(),
    };
    let name = |(k, r): (usize, Result<R>)| {
        r.map_err(|e| match e {
            Error::NotPositiveDefinite { pivot } => Error::InvalidArgument {
                context: format!("batch element {k} not SPD at pivot {pivot}"),
            },
            Error::Singular { pivot } => Error::InvalidArgument {
                context: format!("batch element {k} singular at pivot {pivot}"),
            },
            other => other,
        })
    };
    results.into_iter().enumerate().map(name).collect()
}

/// Batched forward+backward solve `A[k] x[k] = b[k]` from [`batched_potrf`]
/// factors; `rhs` is a batch of `n × k` right-hand-side blocks, overwritten
/// with solutions. Each column is two [`trsv_slice`] calls on the factor.
pub fn batched_trsm_llt<T: Scalar>(factors: &Batch<T>, rhs: &mut Batch<T>) {
    solve_each(factors, rhs, |_, l, x| {
        trsv_slice(Uplo::Lower, Transpose::No, Diag::NonUnit, l, x.len(), x);
        trsv_slice(Uplo::Lower, Transpose::Yes, Diag::NonUnit, l, x.len(), x);
    });
}

/// Runs `solve(k, factors[k], x)` on every column `x` of every element `k`
/// of `rhs`, in one parallel pass over `rhs`.
fn solve_each<T: Scalar>(
    factors: &Batch<T>,
    rhs: &mut Batch<T>,
    solve: impl Fn(usize, &[T], &mut [T]) + Sync,
) {
    assert_eq!(factors.rows, factors.cols, "factors must be square");
    assert_eq!(rhs.rows, factors.rows, "rhs row mismatch");
    assert_eq!(rhs.count, factors.count, "batch counts differ");
    let (n, sf, sr) = (factors.rows, factors.stride(), rhs.stride());
    if sr == 0 {
        return; // n == 0 or zero right-hand sides: nothing to solve
    }
    rhs.data.par_chunks_mut(sr).enumerate().for_each(|(k, x)| {
        let f = &factors.data[k * sf..(k + 1) * sf];
        for xj in x.chunks_mut(n) {
            solve(k, f, xj);
        }
    });
}

/// Factor-and-solve in one launch: Cholesky-factors every SPD matrix of
/// `a` in place ([`batched_potrf`]) and then solves `A[k] x[k] = b[k]`
/// for every element ([`batched_trsm_llt`]), overwriting `rhs` with the
/// solutions.
///
/// This is the coalesced entry point of the serving layer (`xsc-serve`,
/// experiment E21): `k` independent tiny solves submitted separately pay
/// `k` launch overheads, while a coalesced batch pays one. Each batch
/// element is processed by exactly the same sequential per-element
/// arithmetic regardless of `count`, so a solve executed inside a
/// `count == k` batch is **bit-identical** to the same solve executed
/// alone in a `count == 1` batch — the property the serving layer's
/// coalescer relies on (and the test suite asserts).
pub fn batched_cholesky_solve<T: Scalar>(a: &mut Batch<T>, rhs: &mut Batch<T>) -> Result<()> {
    batched_potrf(a)?;
    batched_trsm_llt(a, rhs);
    Ok(())
}

/// Batched LU with partial pivoting: factors every (square) matrix in
/// place with [`factor::getrf_unblocked_slice`], returning one pivot
/// vector per batch element.
pub fn batched_getrf<T: Scalar>(batch: &mut Batch<T>) -> Result<Vec<Vec<usize>>> {
    let n = batch.rows;
    factor_each(batch, "getrf", |m| {
        let mut piv = vec![0usize; n];
        factor::getrf_unblocked_slice(m, &mut piv).map(|()| piv)
    })
}

/// Batched LU solve from [`batched_getrf`] factors: `rhs` holds one `n × k`
/// right-hand-side block per element, overwritten with solutions. Each
/// column takes the pivots, then two [`trsv_slice`] calls on the factors.
pub fn batched_getrf_solve<T: Scalar>(
    factors: &Batch<T>,
    pivots: &[Vec<usize>],
    rhs: &mut Batch<T>,
) {
    assert_eq!(pivots.len(), factors.count, "pivot count mismatch");
    solve_each(factors, rhs, |k, lu, x| {
        factor::apply_pivots(&pivots[k], x);
        trsv_slice(Uplo::Lower, Transpose::No, Diag::Unit, lu, x.len(), x);
        trsv_slice(Uplo::Upper, Transpose::No, Diag::NonUnit, lu, x.len(), x);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::gen;

    fn random_batch(rows: usize, cols: usize, count: usize, seed: u64) -> Batch<f64> {
        let ms: Vec<Matrix<f64>> = (0..count)
            .map(|k| gen::random_matrix(rows, cols, seed + k as u64))
            .collect();
        Batch::from_matrices(&ms)
    }

    #[test]
    fn batch_layout_round_trips() {
        let b = Batch::<f64>::from_fn(3, 2, 4, |k, i, j| (100 * k + 10 * i + j) as f64);
        assert_eq!(b.count(), 4);
        let m2 = b.to_matrix(2);
        assert_eq!(m2.get(1, 1), 211.0);
        assert_eq!(b.matrix(0)[0], 0.0);
    }

    #[test]
    fn batched_gemm_matches_looped() {
        let a = random_batch(5, 4, 33, 1);
        let b = random_batch(4, 6, 33, 100);
        let c0 = random_batch(5, 6, 33, 200);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        batched_gemm(1.5, &a, &b, -0.5, &mut c1);
        looped_gemm(1.5, &a, &b, -0.5, &mut c2);
        for k in 0..33 {
            assert!(
                c1.to_matrix(k).approx_eq(&c2.to_matrix(k), 1e-12),
                "batch element {k} differs"
            );
        }
    }

    #[test]
    fn batched_gemm_beta_zero_overwrites() {
        let a = Batch::<f64>::from_fn(2, 2, 3, |_, i, j| if i == j { 1.0 } else { 0.0 });
        let b = a.clone();
        let mut c = Batch::<f64>::from_fn(2, 2, 3, |_, _, _| f64::NAN);
        batched_gemm(1.0, &a, &b, 0.0, &mut c);
        for k in 0..3 {
            assert!(c.to_matrix(k).approx_eq(&Matrix::identity(2), 0.0));
        }
    }

    #[test]
    fn batched_potrf_matches_reference() {
        let count = 17;
        let n = 8;
        let ms: Vec<Matrix<f64>> = (0..count).map(|k| gen::random_spd(n, k as u64)).collect();
        let mut batch = Batch::from_matrices(&ms);
        batched_potrf(&mut batch).unwrap();
        for (k, m) in ms.iter().enumerate() {
            let mut f = m.clone();
            factor::potrf_unblocked(&mut f).unwrap();
            let got = batch.to_matrix(k);
            for j in 0..n {
                for i in j..n {
                    assert_eq!(
                        got.get(i, j).to_bits(),
                        f.get(i, j).to_bits(),
                        "element {k} at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_potrf_reports_failing_element() {
        let n = 4;
        let ms: Vec<Matrix<f64>> = (0..5)
            .map(|k| {
                let mut m = gen::random_spd::<f64>(n, 50 + k as u64);
                if k == 3 {
                    m.set(1, 1, -5.0);
                }
                m
            })
            .collect();
        let mut batch = Batch::from_matrices(&ms);
        let err = batched_potrf(&mut batch).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("element 3"), "{msg}");
    }

    #[test]
    fn batched_solve_recovers_solutions() {
        let count = 9;
        let n = 6;
        let ms: Vec<Matrix<f64>> = (0..count)
            .map(|k| gen::random_spd(n, 70 + k as u64))
            .collect();
        let mut factors = Batch::from_matrices(&ms);
        batched_potrf(&mut factors).unwrap();
        // b[k] = A[k] * ones.
        let mut rhs = Batch::<f64>::zeros(n, 1, count);
        for (k, m) in ms.iter().enumerate() {
            let b = gen::rhs_for_unit_solution(m);
            rhs.matrix_mut(k).copy_from_slice(&b);
        }
        batched_trsm_llt(&factors, &mut rhs);
        for k in 0..count {
            for &xi in rhs.matrix(k) {
                assert!((xi - 1.0).abs() < 1e-9, "element {k}: {xi}");
            }
        }
    }

    #[test]
    fn multi_rhs_solve() {
        let n = 5;
        let m = gen::random_spd::<f64>(n, 90);
        let mut factors = Batch::from_matrices(std::slice::from_ref(&m));
        batched_potrf(&mut factors).unwrap();
        // Two right-hand sides: A*1 and A*2.
        let b1 = gen::rhs_for_unit_solution(&m);
        let mut rhs = Batch::<f64>::zeros(n, 2, 1);
        for (i, &bi) in b1.iter().enumerate() {
            rhs.matrix_mut(0)[i] = bi;
            rhs.matrix_mut(0)[n + i] = 2.0 * bi;
        }
        batched_trsm_llt(&factors, &mut rhs);
        for i in 0..n {
            assert!((rhs.matrix(0)[i] - 1.0).abs() < 1e-9);
            assert!((rhs.matrix(0)[n + i] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn batched_getrf_matches_reference() {
        let count = 11;
        let n = 7;
        let ms: Vec<Matrix<f64>> = (0..count)
            .map(|k| gen::random_matrix(n, n, 30 + k as u64))
            .collect();
        let mut batch = Batch::from_matrices(&ms);
        let pivots = batched_getrf(&mut batch).unwrap();
        for (k, m) in ms.iter().enumerate() {
            let mut f = m.clone();
            let piv = factor::getrf_unblocked(&mut f).unwrap();
            assert_eq!(pivots[k], piv, "element {k} pivots differ");
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(batch.matrix(k)),
                bits(f.as_slice()),
                "element {k} factors differ"
            );
        }
    }

    #[test]
    fn batched_getrf_solve_end_to_end() {
        let count = 6;
        let n = 9;
        let ms: Vec<Matrix<f64>> = (0..count)
            .map(|k| gen::random_matrix(n, n, 40 + k as u64))
            .collect();
        let mut factors = Batch::from_matrices(&ms);
        let pivots = batched_getrf(&mut factors).unwrap();
        let mut rhs = Batch::<f64>::zeros(n, 1, count);
        for (k, m) in ms.iter().enumerate() {
            rhs.matrix_mut(k)
                .copy_from_slice(&gen::rhs_for_unit_solution(m));
        }
        batched_getrf_solve(&factors, &pivots, &mut rhs);
        for k in 0..count {
            for &xi in rhs.matrix(k) {
                assert!((xi - 1.0).abs() < 1e-9, "element {k}: {xi}");
            }
        }
    }

    #[test]
    fn batched_getrf_reports_singular_element() {
        let n = 4;
        let ms: Vec<Matrix<f64>> = (0..3)
            .map(|k| {
                if k == 1 {
                    Matrix::zeros(n, n)
                } else {
                    gen::random_matrix(n, n, 60 + k as u64)
                }
            })
            .collect();
        let mut batch = Batch::from_matrices(&ms);
        let err = batched_getrf(&mut batch).unwrap_err();
        assert!(err.to_string().contains("element 1"), "{err}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batches_rejected() {
        let _ = Batch::from_matrices(&[Matrix::<f64>::zeros(2, 2), Matrix::<f64>::zeros(3, 3)]);
    }

    #[test]
    #[should_panic(expected = "counts differ")]
    fn mismatched_counts_rejected() {
        let a = Batch::<f64>::zeros(2, 2, 3);
        let b = Batch::<f64>::zeros(2, 2, 4);
        let mut c = Batch::<f64>::zeros(2, 2, 3);
        batched_gemm(1.0, &a, &b, 1.0, &mut c);
    }

    #[test]
    fn degenerate_batches_do_not_panic() {
        // m == 0 / n == 0: output stride is zero, so the ops are no-ops.
        let a = Batch::<f64>::zeros(0, 3, 4);
        let b = Batch::<f64>::zeros(3, 5, 4);
        let mut c = Batch::<f64>::zeros(0, 5, 4);
        batched_gemm(1.0, &a, &b, 0.0, &mut c);

        let a = Batch::<f64>::zeros(2, 3, 4);
        let b = Batch::<f64>::zeros(3, 0, 4);
        let mut c = Batch::<f64>::zeros(2, 0, 4);
        batched_gemm(1.0, &a, &b, 0.0, &mut c);

        // 0x0 square batches through the factorizations and solves.
        let mut spd = Batch::<f64>::zeros(0, 0, 3);
        batched_potrf(&mut spd).unwrap();
        let mut rhs = Batch::<f64>::zeros(0, 1, 3);
        batched_trsm_llt(&spd, &mut rhs);

        let mut lu = Batch::<f64>::zeros(0, 0, 3);
        let pivots = batched_getrf(&mut lu).unwrap();
        assert_eq!(pivots, vec![Vec::<usize>::new(); 3]);
        let mut rhs = Batch::<f64>::zeros(0, 2, 3);
        batched_getrf_solve(&lu, &pivots, &mut rhs);

        // Zero right-hand sides with nonzero n.
        let m = gen::random_spd::<f64>(4, 7);
        let mut factors = Batch::from_matrices(std::slice::from_ref(&m));
        batched_potrf(&mut factors).unwrap();
        let mut rhs = Batch::<f64>::zeros(4, 0, 1);
        batched_trsm_llt(&factors, &mut rhs);
    }

    #[test]
    fn batched_gemm_k_zero_is_pure_beta_scale() {
        let a = Batch::<f64>::zeros(3, 0, 2);
        let b = Batch::<f64>::zeros(0, 4, 2);
        let mut c = Batch::<f64>::from_fn(3, 4, 2, |k, i, j| (k + i + j) as f64 + 1.0);
        let c0 = c.clone();
        batched_gemm(1.0, &a, &b, 2.0, &mut c);
        for k in 0..2 {
            for (got, orig) in c.matrix(k).iter().zip(c0.matrix(k)) {
                assert_eq!(*got, 2.0 * orig);
            }
        }
        // beta == 0 with k == 0 must overwrite even NaN.
        let mut c = Batch::<f64>::from_fn(3, 4, 2, |_, _, _| f64::NAN);
        batched_gemm(1.0, &a, &b, 0.0, &mut c);
        for k in 0..2 {
            assert!(c.matrix(k).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn cholesky_solve_is_bit_identical_to_count_one_batches() {
        // The coalescing contract: solving inside a batch of k must equal
        // solving alone, bit for bit.
        let n = 8;
        let count = 5;
        let ms: Vec<Matrix<f64>> = (0..count)
            .map(|k| gen::random_spd(n, 900 + k as u64))
            .collect();
        let rhs: Vec<Matrix<f64>> = ms
            .iter()
            .map(|m| {
                let b = gen::rhs_for_unit_solution(m);
                Matrix::from_fn(n, 1, |i, _| b[i])
            })
            .collect();

        let mut coalesced_a = Batch::from_matrices(&ms);
        let mut coalesced_b = Batch::from_matrices(&rhs);
        batched_cholesky_solve(&mut coalesced_a, &mut coalesced_b).unwrap();

        for k in 0..count {
            let mut solo_a = Batch::from_matrices(&ms[k..k + 1]);
            let mut solo_b = Batch::from_matrices(&rhs[k..k + 1]);
            batched_cholesky_solve(&mut solo_a, &mut solo_b).unwrap();
            let batched_bits: Vec<u64> =
                coalesced_b.matrix(k).iter().map(|v| v.to_bits()).collect();
            let solo_bits: Vec<u64> = solo_b.matrix(0).iter().map(|v| v.to_bits()).collect();
            assert_eq!(batched_bits, solo_bits, "element {k} differs");
            // And the answer is actually the solve: x ≈ ones.
            assert!(coalesced_b
                .matrix(k)
                .iter()
                .all(|&x| (x - 1.0).abs() < 1e-8));
        }
    }

    #[test]
    fn cholesky_solve_propagates_non_spd_error() {
        let mut a = Batch::<f64>::from_fn(2, 2, 1, |_, i, j| if i == j { -1.0 } else { 0.0 });
        let mut b = Batch::<f64>::zeros(2, 1, 1);
        assert!(batched_cholesky_solve(&mut a, &mut b).is_err());
    }

    #[test]
    fn f32_batches_work() {
        let a = Batch::<f32>::from_fn(3, 3, 2, |k, i, j| (k + i + j) as f32);
        let b = a.clone();
        let mut c = Batch::<f32>::zeros(3, 3, 2);
        batched_gemm(1.0, &a, &b, 0.0, &mut c);
        assert!(c.matrix(1).iter().all(|v| v.is_finite()));
    }
}
