//! Huang–Abraham algorithm-based fault tolerance for dense kernels.
//!
//! Encode `A` with an extra checksum row (`eᵀA`) and `B` with a checksum
//! column (`Be`); then `C = A·B` computed on the encoded operands carries
//! its own row and column checksums *through the multiplication*. After the
//! kernel, a mismatch in checksum row `j` and checksum column `i`
//! simultaneously pinpoints the corrupted entry `(i, j)`, and the checksum
//! difference is exactly the correction — detection, location, and repair
//! at `O(n²)` cost against the kernel's `O(n³)`.

use xsc_core::gemm::{gemm, Transpose};
use xsc_core::{factor, norms, Matrix, Result, Scalar};

/// Outcome of an ABFT verification pass.
#[derive(Debug, Clone, PartialEq)]
pub enum AbftOutcome {
    /// All checksums consistent.
    Clean,
    /// One entry was corrupted, located, and corrected.
    Corrected {
        /// Row of the repaired entry.
        row: usize,
        /// Column of the repaired entry.
        col: usize,
        /// Magnitude of the applied correction.
        magnitude: f64,
    },
    /// Checksums disagree in a pattern a single-error code cannot repair.
    Uncorrectable,
}

/// Appends a checksum row to `a`: returns the `(m+1) × n` matrix whose last
/// row is the column sums of `a`.
pub fn encode_rows<T: Scalar>(a: &Matrix<T>) -> Matrix<T> {
    let (m, n) = (a.rows(), a.cols());
    let mut out = Matrix::zeros(m + 1, n);
    a.copy_block_into(0, 0, m, n, &mut out, 0, 0);
    for j in 0..n {
        let s: T = a.col(j).iter().copied().sum();
        out.set(m, j, s);
    }
    out
}

/// Appends a checksum column to `b`: returns the `m × (n+1)` matrix whose
/// last column is the row sums of `b`.
pub fn encode_cols<T: Scalar>(b: &Matrix<T>) -> Matrix<T> {
    let (m, n) = (b.rows(), b.cols());
    let mut out = Matrix::zeros(m, n + 1);
    b.copy_block_into(0, 0, m, n, &mut out, 0, 0);
    for i in 0..m {
        let mut s = T::zero();
        for j in 0..n {
            s += b.get(i, j);
        }
        out.set(i, n, s);
    }
    out
}

/// Verifies the checksums of an encoded `(m+1) × (n+1)` product and repairs
/// a single corrupted interior entry if found. `tol` is the absolute
/// checksum tolerance (roundoff scale).
pub fn verify_and_correct<T: Scalar>(c: &mut Matrix<T>, tol: f64) -> AbftOutcome {
    let m = c.rows() - 1;
    let n = c.cols() - 1;
    // Column-checksum residuals (per column j: sum of rows - checksum row).
    let mut col_bad = Vec::new();
    for j in 0..n {
        let mut s = T::zero();
        for i in 0..m {
            s += c.get(i, j);
        }
        let d = (s - c.get(m, j)).to_f64();
        if d.abs() > tol {
            col_bad.push((j, d));
        }
    }
    // Row-checksum residuals.
    let mut row_bad = Vec::new();
    for i in 0..m {
        let mut s = T::zero();
        for j in 0..n {
            s += c.get(i, j);
        }
        let d = (s - c.get(i, n)).to_f64();
        if d.abs() > tol {
            row_bad.push((i, d));
        }
    }
    match (row_bad.len(), col_bad.len()) {
        (0, 0) => AbftOutcome::Clean,
        (1, 1) => {
            let (i, di) = row_bad[0];
            let (j, dj) = col_bad[0];
            // Both residuals measure the same corruption; they must agree.
            if (di - dj).abs() > tol * 10.0 + (di.abs() + dj.abs()) * 1e-8 {
                return AbftOutcome::Uncorrectable;
            }
            let old = c.get(i, j);
            c.set(i, j, old - T::from_f64(di));
            AbftOutcome::Corrected {
                row: i,
                col: j,
                magnitude: di.abs(),
            }
        }
        // A corrupted checksum row/column entry shows up as exactly one bad
        // residual on one side: repair by recomputing that checksum.
        (1, 0) => {
            let (i, di) = row_bad[0];
            let old = c.get(i, n);
            c.set(i, n, old + T::from_f64(di));
            AbftOutcome::Corrected {
                row: i,
                col: n,
                magnitude: di.abs(),
            }
        }
        (0, 1) => {
            let (j, dj) = col_bad[0];
            let old = c.get(m, j);
            c.set(m, j, old + T::from_f64(dj));
            AbftOutcome::Corrected {
                row: m,
                col: j,
                magnitude: dj.abs(),
            }
        }
        _ => AbftOutcome::Uncorrectable,
    }
}

/// Checksum tolerance for a product of the given shape with entries of
/// magnitude ~`scale`: roundoff grows like `k · ε · scale` per
/// accumulation, padded by a safety factor.
pub fn checksum_tolerance(m: usize, n: usize, k: usize, scale: f64) -> f64 {
    let dim = m.max(n).max(k) as f64;
    64.0 * dim * f64::EPSILON * scale.max(1.0) * dim.sqrt()
}

/// ABFT-protected GEMM: computes `C = A·B` on checksum-encoded operands,
/// optionally letting `tamper` corrupt the raw product (the fault window),
/// then verifies and repairs. Returns the *decoded* `m × n` product and the
/// verification outcome.
pub fn abft_gemm<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    tamper: impl FnOnce(&mut Matrix<T>),
) -> (Matrix<T>, AbftOutcome) {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "abft_gemm inner dimension mismatch");
    let ae = encode_rows(a);
    let be = encode_cols(b);
    let mut ce = Matrix::zeros(m + 1, n + 1);
    gemm(
        Transpose::No,
        Transpose::No,
        T::one(),
        &ae,
        &be,
        T::zero(),
        &mut ce,
    );
    tamper(&mut ce);
    let scale = norms::max_abs(&ce);
    let outcome = verify_and_correct(&mut ce, checksum_tolerance(m, n, k, scale));
    if let AbftOutcome::Corrected { row, col, .. } = outcome {
        if row < m && col < n {
            // Checksum subtraction locates the entry exactly but loses
            // precision when the corruption dwarfs the true value
            // (catastrophic cancellation), so repair the located entry by
            // recomputing its dot product.
            let mut acc = T::zero();
            for l in 0..k {
                acc = a.get(row, l).mul_add(b.get(l, col), acc);
            }
            ce.set(row, col, acc);
        }
    }
    (ce.block(0, 0, m, n), outcome)
}

/// Checksum-verified Cholesky: factors `a` (in place, lower triangle) and
/// checks `L (Lᵀ e) = A e` afterwards. Detects (but does not locate —
/// factorizations propagate errors) any corruption introduced by `tamper`
/// during the fault window. Returns `Ok(true)` if the factor verified
/// clean, `Ok(false)` if corruption was detected.
pub fn verified_cholesky<T: Scalar>(
    a: &mut Matrix<T>,
    nb: usize,
    tamper: impl FnOnce(&mut Matrix<T>),
) -> Result<bool> {
    let n = a.rows();
    let expect = sym_lower_rowsums(a);
    let scale = norms::max_abs(a);
    factor::potrf_blocked(a, nb)?;
    tamper(a);
    let tol = checksum_tolerance(n, n, n, scale.max(1.0));
    let got = cholesky_checksum(a);
    Ok(got
        .iter()
        .zip(&expect)
        .all(|(r, e)| (*r - *e).abs().to_f64() <= tol))
}

/// `L(Lᵀe)` over the lower triangle of `l`: the side of the Cholesky
/// checksum identity `L(Lᵀe) = Ae` computed from the factor. The other
/// side, taken before factoring, is [`sym_lower_rowsums`].
pub fn cholesky_checksum<T: Scalar>(l: &Matrix<T>) -> Vec<T> {
    let w = lower_colsums(l);
    let n = l.rows();
    let mut r = vec![T::zero(); n];
    for j in 0..n {
        for i in j..n {
            r[i] += l.get(i, j) * w[j];
        }
    }
    r
}

/// `Lᵀe` restricted to the lower triangle: `w_j = Σ_{i>=j} L_ij`.
pub fn lower_colsums<T: Scalar>(l: &Matrix<T>) -> Vec<T> {
    let n = l.rows();
    let mut r = vec![T::zero(); n];
    for j in 0..n {
        for i in j..n {
            r[j] += l.get(i, j);
        }
    }
    r
}

/// `Ae` for a symmetric `A` of which only the lower triangle is read (the
/// upper may hold stale data): row sums of the symmetrized lower triangle.
pub fn sym_lower_rowsums<T: Scalar>(a: &Matrix<T>) -> Vec<T> {
    let n = a.rows();
    let mut r = vec![T::zero(); n];
    for j in 0..n {
        for i in j..n {
            let v = a.get(i, j);
            r[i] += v;
            if i != j {
                r[j] += v;
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FaultKind;
    use xsc_core::gen;

    #[test]
    fn clean_gemm_verifies_clean() {
        let a = gen::random_matrix::<f64>(12, 9, 1);
        let b = gen::random_matrix::<f64>(9, 7, 2);
        let (c, outcome) = abft_gemm(&a, &b, |_| {});
        assert_eq!(outcome, AbftOutcome::Clean);
        let mut c_ref = Matrix::zeros(12, 7);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c_ref);
        assert!(c.approx_eq(&c_ref, 1e-12));
    }

    #[test]
    fn single_fault_is_located_and_corrected() {
        let a = gen::random_matrix::<f64>(10, 10, 3);
        let b = gen::random_matrix::<f64>(10, 10, 4);
        let (c, outcome) = abft_gemm(&a, &b, |ce| {
            let v = ce.get(4, 6);
            ce.set(4, 6, v + 37.5);
        });
        match outcome {
            AbftOutcome::Corrected {
                row,
                col,
                magnitude,
            } => {
                assert_eq!((row, col), (4, 6));
                assert!((magnitude - 37.5).abs() < 1e-9);
            }
            other => panic!("expected correction, got {other:?}"),
        }
        let mut c_ref = Matrix::zeros(10, 10);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c_ref);
        assert!(
            c.approx_eq(&c_ref, 1e-10),
            "corrected product must be exact"
        );
    }

    #[test]
    fn injector_driven_fault_is_corrected() {
        let a = gen::random_matrix::<f64>(16, 16, 5);
        let b = gen::random_matrix::<f64>(16, 16, 6);
        let (c, outcome) = abft_gemm(&a, &b, |ce| {
            // Restrict the fault to the data block so it is correctable.
            let (i, j) = (3usize, 11usize);
            ce.set(i, j, FaultKind::BitFlip.apply(ce.get(i, j)));
        });
        assert!(
            matches!(
                outcome,
                AbftOutcome::Corrected {
                    row: 3,
                    col: 11,
                    ..
                }
            ),
            "{outcome:?}"
        );
        let mut c_ref = Matrix::zeros(16, 16);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c_ref);
        assert!(c.approx_eq(&c_ref, 1e-9));
    }

    #[test]
    fn corrupted_checksum_row_entry_is_repaired() {
        let a = gen::random_matrix::<f64>(8, 8, 8);
        let b = gen::random_matrix::<f64>(8, 8, 9);
        let (c, outcome) = abft_gemm(&a, &b, |ce| {
            let m = ce.rows() - 1;
            let v = ce.get(m, 2);
            ce.set(m, 2, v - 5.0);
        });
        assert!(matches!(outcome, AbftOutcome::Corrected { .. }));
        let mut c_ref = Matrix::zeros(8, 8);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c_ref);
        assert!(c.approx_eq(&c_ref, 1e-11));
    }

    #[test]
    fn double_fault_reported_uncorrectable() {
        let a = gen::random_matrix::<f64>(8, 8, 10);
        let b = gen::random_matrix::<f64>(8, 8, 11);
        let (_, outcome) = abft_gemm(&a, &b, |ce| {
            let v1 = ce.get(1, 2);
            ce.set(1, 2, v1 + 10.0);
            let v2 = ce.get(5, 6);
            ce.set(5, 6, v2 - 3.0);
        });
        assert_eq!(outcome, AbftOutcome::Uncorrectable);
    }

    #[test]
    fn encode_decode_shapes() {
        let a = gen::random_matrix::<f64>(5, 3, 12);
        let ae = encode_rows(&a);
        assert_eq!((ae.rows(), ae.cols()), (6, 3));
        let be = encode_cols(&a);
        assert_eq!((be.rows(), be.cols()), (5, 4));
        // Checksum row is the column sums.
        for j in 0..3 {
            let s: f64 = a.col(j).iter().sum();
            assert!((ae.get(5, j) - s).abs() < 1e-14);
        }
    }

    #[test]
    fn verified_cholesky_clean_and_tampered() {
        let a0 = gen::random_spd::<f64>(24, 13);
        let mut a = a0.clone();
        assert!(verified_cholesky(&mut a, 8, |_| {}).unwrap());

        let mut a = a0.clone();
        let clean = verified_cholesky(&mut a, 8, |l| {
            let v = l.get(20, 3);
            l.set(20, 3, v + 1.0);
        })
        .unwrap();
        assert!(!clean, "tampered factor must be detected");
    }

    #[test]
    fn abft_overhead_is_quadratic_not_cubic() {
        // Structural check: the encoded product only adds one row and one
        // column of checksums.
        let n = 20usize;
        let flops_plain = xsc_core::flops::gemm(n, n, n);
        let flops_abft = xsc_core::flops::gemm(n + 1, n + 1, n);
        let overhead = flops_abft as f64 / flops_plain as f64 - 1.0;
        assert!(overhead < 0.15, "overhead {overhead}");
    }
}
