//! Reproducible random matrix and vector generators.
//!
//! Every generator takes an explicit seed so benchmarks and property tests
//! are bit-reproducible run to run — one of the keynote's "rules" is that
//! reproducibility must be engineered, not assumed.
//!
//! That includes the degree of parallelism. [`random_matrix`] and
//! [`random_vector`] fill large outputs on every pool thread, one
//! contiguous chunk each, as HPL's `HPL_pdmatgen` does across processes:
//! each chunk draws from a copy of the one seeded stream jumped ahead to
//! the chunk's offset (`SmallRng::advance`), so every output bit is the
//! same at any thread count.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Fewest values worth a pool thread of their own when filling an output.
/// Smaller outputs are drawn on the calling thread: spawning a thread
/// (~0.1 ms on a 2-vCPU Xeon) costs more than drawing fewer values saves.
const MIN_DRAWS_PER_THREAD: usize = 1 << 16;

/// The seeded stream of uniform draws in `[-1, 1)` that [`random_matrix`]
/// and [`random_vector`] are filled from, read one column at a time.
///
/// The matrix seeded `seed` is the stream's first `rows * cols` values in
/// column-major order, so a consumer can regenerate it column by column in
/// one column's memory, as HPL's test driver regenerates `A` for its
/// residual check instead of keeping a copy. A large matrix is drawn in
/// contiguous chunks on the pool, each from the stream jumped to its
/// offset, so the values do not depend on how the work is split.
pub struct UniformColumns(SmallRng);

impl UniformColumns {
    /// The stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        UniformColumns(SmallRng::seed_from_u64(seed))
    }

    /// Overwrites `col` with the stream's next `col.len()` values.
    pub fn fill<T: Scalar>(&mut self, col: &mut [T]) {
        for v in col {
            *v = self.draw();
        }
    }

    /// The stream's next `len` values. When each pool thread gets at least
    /// [`MIN_DRAWS_PER_THREAD`], they are drawn in one contiguous chunk per
    /// thread, each from a copy of the stream advanced to the chunk's
    /// offset, and the stream then advances past all of them.
    fn take<T: Scalar>(&mut self, len: usize) -> Vec<T> {
        let threads = rayon::current_num_threads()
            .min(len / MIN_DRAWS_PER_THREAD)
            .max(1);
        if threads == 1 {
            return (0..len).map(|_| self.draw()).collect();
        }
        let mut out = vec![T::zero(); len];
        let chunk = len.div_ceil(threads);
        let start = &self.0;
        out.par_chunks_mut(chunk).enumerate().for_each(|(t, part)| {
            let mut stream = UniformColumns(start.clone());
            stream.0.advance((t * chunk) as u64);
            stream.fill(part);
        });
        self.0.advance(len as u64);
        out
    }

    fn draw<T: Scalar>(&mut self) -> T {
        T::from_f64(self.0.gen_range(-1.0..1.0))
    }
}

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn random_matrix<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    Matrix::from_col_major(rows, cols, UniformColumns::new(seed).take(rows * cols))
}

/// Uniform random vector with entries in `[-1, 1)`.
pub fn random_vector<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
    UniformColumns::new(seed).take(n)
}

/// Random symmetric positive-definite matrix: `A = B Bᵀ / n + I`.
///
/// The diagonal shift keeps the condition number moderate, so Cholesky and
/// CG converge reliably; use [`ill_conditioned_spd`] to stress precision.
pub fn random_spd<T: Scalar>(n: usize, seed: u64) -> Matrix<T> {
    let b = random_matrix::<f64>(n, n, seed);
    let mut a = Matrix::<f64>::zeros(n, n);
    crate::gemm::gemm(
        crate::gemm::Transpose::No,
        crate::gemm::Transpose::Yes,
        1.0 / crate::cast::count_f64(n as u64),
        &b,
        &b,
        0.0,
        &mut a,
    );
    for i in 0..n {
        let v = a.get(i, i) + 1.0;
        a.set(i, i, v);
    }
    a.symmetrize();
    a.convert()
}

/// Random diagonally dominant matrix (guaranteed non-singular, LU-safe even
/// without pivoting) — the matrix class HPL itself generates.
pub fn diag_dominant<T: Scalar>(n: usize, seed: u64) -> Matrix<T> {
    let mut a = random_matrix::<f64>(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = (0..n).fold(0.0, |acc, j| acc + a.get(i, j).abs());
        a.set(i, i, row_sum + 1.0);
    }
    a.convert()
}

/// SPD matrix with prescribed 2-norm condition number `cond`:
/// `A = Q D Qᵀ` with log-spaced eigenvalues in `[1/cond, 1]`.
pub fn ill_conditioned_spd<T: Scalar>(n: usize, cond: f64, seed: u64) -> Matrix<T> {
    assert!(cond >= 1.0, "condition number must be >= 1");
    let q = random_orthogonal(n, seed);
    let mut a = Matrix::<f64>::zeros(n, n);
    // A = sum_k d_k q_k q_kᵀ, built column by column: A = Q D Qᵀ.
    let mut qd = q.clone();
    for k in 0..n {
        let t = if n == 1 {
            0.0
        } else {
            crate::cast::count_f64(k as u64) / crate::cast::count_f64((n - 1) as u64)
        };
        let d = cond.powf(-t); // eigenvalues from 1 down to 1/cond
        for i in 0..n {
            let v = qd.get(i, k) * d;
            qd.set(i, k, v);
        }
    }
    crate::gemm::gemm(
        crate::gemm::Transpose::No,
        crate::gemm::Transpose::Yes,
        1.0,
        &qd,
        &q,
        0.0,
        &mut a,
    );
    a.symmetrize();
    a.convert()
}

/// Random orthogonal matrix via Gram-Schmidt on a random Gaussian-ish matrix.
pub fn random_orthogonal(n: usize, seed: u64) -> Matrix<f64> {
    let mut q = random_matrix::<f64>(n, n, seed.wrapping_add(0x9e37_79b9));
    // Modified Gram-Schmidt, repeated twice for orthogonality to machine eps.
    for _pass in 0..2 {
        for j in 0..n {
            for i in 0..j {
                let mut dot = 0.0;
                for r in 0..n {
                    dot += q.get(r, i) * q.get(r, j);
                }
                for r in 0..n {
                    let v = q.get(r, j) - dot * q.get(r, i);
                    q.set(r, j, v);
                }
            }
            let mut nrm = 0.0;
            for r in 0..n {
                nrm += q.get(r, j) * q.get(r, j);
            }
            let nrm = nrm.sqrt();
            assert!(nrm > 0.0, "degenerate random matrix");
            for r in 0..n {
                let v = q.get(r, j) / nrm;
                q.set(r, j, v);
            }
        }
    }
    q
}

/// Right-hand side `b = A x_true` for a known solution `x_true = [1, 1, ...]`,
/// accumulated in `f64` — the standard way HPL-style drivers build a
/// verifiable system.
pub fn rhs_for_unit_solution<T: Scalar>(a: &Matrix<T>) -> Vec<T> {
    let n = a.rows();
    let mut b = vec![0.0f64; n];
    for j in 0..a.cols() {
        for (i, &aij) in a.col(j).iter().enumerate() {
            b[i] += aij.to_f64();
        }
    }
    b.into_iter().map(T::from_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms;

    #[test]
    fn generators_are_reproducible() {
        let a = random_matrix::<f64>(10, 10, 7);
        let b = random_matrix::<f64>(10, 10, 7);
        assert!(a.approx_eq(&b, 0.0));
        let c = random_matrix::<f64>(10, 10, 8);
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn spd_is_symmetric_with_positive_diagonal() {
        let a = random_spd::<f64>(20, 3);
        for i in 0..20 {
            assert!(a.get(i, i) > 0.0);
            for j in 0..20 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn diag_dominant_dominates() {
        let a = diag_dominant::<f64>(15, 4);
        for i in 0..15 {
            let off: f64 = (0..15).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i).abs() > off);
        }
    }

    #[test]
    fn orthogonal_has_orthonormal_columns() {
        let q = random_orthogonal(16, 5);
        let mut qtq = Matrix::<f64>::zeros(16, 16);
        crate::gemm::gemm(
            crate::gemm::Transpose::Yes,
            crate::gemm::Transpose::No,
            1.0,
            &q,
            &q,
            0.0,
            &mut qtq,
        );
        assert!(qtq.approx_eq(&Matrix::identity(16), 1e-12));
    }

    #[test]
    fn ill_conditioned_spd_has_requested_extremes() {
        let cond = 1e6;
        let a = ill_conditioned_spd::<f64>(32, cond, 6);
        // Largest eigenvalue ~1 bounds the norms.
        let n1 = norms::one_norm(&a);
        assert!(n1 < 32.0 && n1 > 0.5, "one-norm {n1} out of expected range");
        for i in 0..32 {
            assert_eq!(a.get(i, 7), a.get(7, i));
        }
    }

    #[test]
    fn rhs_matches_unit_solution() {
        let a = random_matrix::<f64>(9, 9, 10);
        let b = rhs_for_unit_solution(&a);
        let x = vec![1.0f64; 9];
        assert!(norms::relative_residual(&a, &x, &b) < 1e-14);
    }

    /// `random_matrix` and `random_vector` on 1–4 threads against the
    /// serial `fill`, at a length above the parallel cutoff on 4 threads
    /// that no thread count from 2 to 4 divides.
    fn same_bits_on_any_thread_count<T: Scalar>() {
        let (rows, cols, seed) = (613, 431, 21);
        let len = rows * cols;
        assert!(len >= 4 * MIN_DRAWS_PER_THREAD && (2..=4).all(|t| len % t != 0));
        let mut stream = UniformColumns::new(seed);
        let mut serial = vec![T::zero(); len + 1];
        stream.fill(&mut serial);
        let bits = |xs: &[T]| xs.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for threads in 1..=4 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (m, v, taken, next) = pool.install(|| {
                let mut stream = UniformColumns::new(seed);
                let taken: Vec<T> = stream.take(len);
                let next: T = stream.draw();
                let m = random_matrix::<T>(rows, cols, seed);
                (m, random_vector::<T>(len, seed), taken, next)
            });
            for (what, got) in [("matrix", m.as_slice()), ("vector", &v), ("take", &taken)] {
                assert_eq!(bits(got), bits(&serial[..len]), "{what}, {threads} threads");
            }
            let after = bits(&[next]);
            assert_eq!(
                after,
                bits(&serial[len..]),
                "stream after take, {threads} threads"
            );
        }
    }

    #[test]
    fn generators_give_the_same_bits_on_any_thread_count() {
        same_bits_on_any_thread_count::<f64>();
        same_bits_on_any_thread_count::<f32>();
    }

    #[test]
    fn f32_generators_work() {
        let a = random_spd::<f32>(8, 1);
        assert!(!a.has_non_finite());
        let v = random_vector::<f32>(5, 2);
        assert_eq!(v.len(), 5);
    }
}
