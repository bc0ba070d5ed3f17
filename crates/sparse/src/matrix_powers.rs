//! The matrix-powers kernel: `[x, Ax, A²x, …, Aˢx]` in one logical pass.
//!
//! Communication-avoiding Krylov methods trade `s` synchronized SpMVs for
//! one matrix-powers invocation whose ghost zones are exchanged *once* and
//! deepened `s` layers. This module computes the basis (exactly, by
//! repeated SpMV — the node-local arithmetic is identical) and *accounts*
//! the communication both ways, so the experiments can show the `s×`
//! reduction in message rounds that motivates s-step methods.

use crate::csr::CsrMatrix;
use crate::ops::SparseOps;

/// The Krylov basis `[x, Ax, …, Aˢx]` plus the communication accounting of
/// computing it naively vs with a single deepened-ghost-zone exchange.
#[derive(Debug)]
pub struct MatrixPowers {
    /// `s + 1` vectors, `basis[k] = Aᵏ x`.
    pub basis: Vec<Vec<f64>>,
    /// Communication rounds a naive implementation needs (`s` exchanges).
    pub naive_rounds: usize,
    /// Communication rounds the CA kernel needs (one deepened exchange).
    pub ca_rounds: usize,
    /// Ghost-zone words per round, naive (1-deep halo per exchange).
    pub naive_words_per_round: usize,
    /// Ghost-zone words of the single CA exchange (`s`-deep halo).
    pub ca_words: usize,
}

/// Computes the matrix-powers basis for a row-partitioned operator.
///
/// `halo_rows` is the per-exchange 1-deep ghost-zone size of the intended
/// partitioning (for the stencil: one grid plane per neighbor). The CA
/// variant exchanges an `s`-deep halo once: `s × halo_rows` words, but a
/// single latency.
pub fn matrix_powers(a: &CsrMatrix, x: &[f64], s: usize, halo_rows: usize) -> MatrixPowers {
    assert!(s >= 1, "need at least one power");
    assert_eq!(x.len(), a.ncols(), "vector length mismatch");
    let mut basis = Vec::with_capacity(s + 1);
    basis.push(x.to_vec());
    for k in 0..s {
        let mut next = vec![0.0; a.nrows()];
        a.spmv_par(&basis[k], &mut next);
        basis.push(next);
    }
    MatrixPowers {
        basis,
        naive_rounds: s,
        ca_rounds: 1,
        naive_words_per_round: halo_rows,
        ca_words: s * halo_rows,
    }
}

impl MatrixPowers {
    /// Latency-rounds saved by the CA formulation.
    pub fn rounds_saved(&self) -> usize {
        self.naive_rounds - self.ca_rounds
    }

    /// Total words moved, naive vs CA (equal up to overlap effects: CA
    /// moves the same volume in one round).
    pub fn words(&self) -> (usize, usize) {
        (
            self.naive_rounds * self.naive_words_per_round,
            self.ca_words,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{build_matrix, Geometry};

    #[test]
    fn basis_entries_are_true_powers() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i % 5) as f64 - 2.0).collect();
        let mp = matrix_powers(&a, &x, 3, 16);
        assert_eq!(mp.basis.len(), 4);
        // Check A(A x) == basis[2] by recomputation.
        let mut ax = vec![0.0; a.nrows()];
        a.spmv(&x, &mut ax);
        let mut aax = vec![0.0; a.nrows()];
        a.spmv(&ax, &mut aax);
        for (u, v) in mp.basis[2].iter().zip(aax.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn communication_accounting() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let x = vec![1.0; a.nrows()];
        let mp = matrix_powers(&a, &x, 4, 100);
        assert_eq!(mp.naive_rounds, 4);
        assert_eq!(mp.ca_rounds, 1);
        assert_eq!(mp.rounds_saved(), 3);
        let (naive_w, ca_w) = mp.words();
        assert_eq!(naive_w, 400);
        assert_eq!(ca_w, 400); // same volume, one round
    }

    #[test]
    fn s_equals_one_degenerates_to_spmv() {
        let a = build_matrix(Geometry::new(3, 3, 3));
        let x = vec![1.0; a.nrows()];
        let mp = matrix_powers(&a, &x, 1, 9);
        assert_eq!(mp.basis.len(), 2);
        assert_eq!(mp.rounds_saved(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one power")]
    fn zero_powers_rejected() {
        let a = build_matrix(Geometry::new(2, 2, 2));
        let x = vec![1.0; a.nrows()];
        let _ = matrix_powers(&a, &x, 0, 1);
    }
}
