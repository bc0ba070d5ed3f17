//! Compressed sparse row storage and its kernels.
//!
//! SpMV is the canonical memory-bound kernel: ~2 flops per 12–24 bytes of
//! traffic, so its rate is pinned to memory bandwidth no matter how many
//! flops the machine has — the arithmetic behind the HPCG side of E01 and
//! the flat scaling curve of E10.
//!
//! One struct, [`Csr<I>`], holds `f64` values and serves both index
//! widths: [`CsrMatrix`] (`usize` indices, ~24 B/nnz through DRAM) and
//! [`Csr32`] (`u32` indices, ~12 B/nnz, what canonical HPCG codes stream
//! and what [`run_hpcg`](crate::hpcg::run_hpcg) runs). On a
//! bandwidth-bound kernel that factor is the attained rate. Its kernels
//! (SpMV, the fused residual, the diagonal, the column sums, SymGS) are
//! its [`SparseOps`] implementation, the only definition of each, so both
//! widths run the same per-row folds, bit-identical by construction; only
//! the bytes streamed and the recorded traffic model ([`SparseIndex`])
//! differ. The HPCG stencil is written at either width directly;
//! converting a `usize` matrix to `u32` is fallible: a matrix whose column
//! space or nonzero count does not fit returns [`IndexOverflow`] instead
//! of silently truncating indices.

use crate::coloring::colored_sweeps;
use crate::idx::{check_compact_bounds, IndexOverflow, SparseIndex};
use crate::ops::SparseOps;
use crate::symgs::{symgs_sweeps, GsFold, GsRow, GsSchedule, XView};
use rayon::prelude::*;
use xsc_core::Matrix;
use xsc_metrics::{traffic, Traffic};

/// A sparse matrix in compressed sparse row format, with column indices
/// and row pointers stored as `I` ([`SparseIndex`]: `usize` or `u32`).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<I> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<I>,
    col_idx: Vec<I>,
    vals: Vec<f64>,
    /// Gauss–Seidel level schedule of the pattern (square matrices only).
    gs: Option<GsSchedule>,
}

/// CSR with `usize` indices: what triplets ([`CsrMatrix::from_triplets`])
/// and [`build_matrix`](crate::stencil::build_matrix) build, and the
/// legacy baseline format of the HPCG path.
pub type CsrMatrix = Csr<usize>;

/// CSR with `u32` indices: the bandwidth-lean twin of [`CsrMatrix`] and
/// the format `run_hpcg`'s hierarchy is built in. Another matrix converts
/// to it with the checked `Csr32::try_from`.
pub type Csr32 = Csr<u32>;

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// `(row, col)` entries are **summed deterministically in input
    /// order** (the sort is stable, so duplicates fold left-to-right as
    /// they appeared in the iterator) — never silently kept as separate
    /// entries. Pinned by `duplicate_summation_is_deterministic`.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut trips: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &trips {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of bounds");
        }
        trips.sort_by_key(|&(r, c, _)| (r, c));
        // Sum duplicates.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(trips.len());
        for (r, c, v) in trips {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<usize> = merged.iter().map(|&(_, c, _)| c).collect();
        let vals = merged.into_iter().map(|(_, _, v)| v).collect();
        CsrMatrix::from_sorted_rows(nrows, ncols, row_ptr, col_idx, vals)
    }
}

impl<I: SparseIndex> Csr<I> {
    /// Builds a CSR matrix from arrays already in CSR layout: `row_ptr`
    /// (length `nrows + 1`) starts at 0, never decreases and ends at the
    /// entry count; each row's columns strictly increase and are below
    /// `ncols`. Panics if any of that fails; the per-row checks run over
    /// one contiguous row range per pool thread. Builds the Gauss–Seidel
    /// schedule of a square matrix, as [`CsrMatrix::from_triplets`] does.
    pub(crate) fn from_sorted_rows(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<I>,
        col_idx: Vec<I>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr needs nrows + 1 entries");
        assert_eq!(row_ptr[0].widen(), 0, "row_ptr must start at 0");
        assert_eq!(
            col_idx.len(),
            vals.len(),
            "col_idx and vals differ in length"
        );
        assert_eq!(
            row_ptr[nrows].widen(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        check_rows(&row_ptr, &col_idx, ncols, kernel_threads(col_idx.len()));
        let gs = (nrows == ncols).then(|| GsSchedule::build(&row_ptr, &col_idx));
        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
            gs,
        }
    }

    /// `(columns, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[I], &[f64]) {
        let (s, e) = (self.row_ptr[i].widen(), self.row_ptr[i + 1].widen());
        (&self.col_idx[s..e], &self.vals[s..e])
    }

    /// The Gauss–Seidel level schedule built with the matrix (`None` if
    /// it is not square).
    pub fn gs_schedule(&self) -> Option<&GsSchedule> {
        self.gs.as_ref()
    }

    #[inline]
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc += v * x[c.widen()];
        }
        acc
    }

    /// Row `i` of `b - A x`, folding `acc ← acc - a_ij·x_j` from `b_i`.
    #[inline]
    fn residual_row(&self, i: usize, x: &[f64], b: &[f64]) -> f64 {
        let (cols, vals) = self.row(i);
        let mut acc = b[i];
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc -= v * x[c.widen()];
        }
        acc
    }

    /// Modeled traffic of [`Csr::residual_at`] over `rows`: the SpMV
    /// model on the touched rows and their entries, plus `b` at those rows.
    pub(crate) fn residual_at_model(&self, rows: &RowSet) -> Traffic {
        let t = traffic::spmv_csr(rows.len(), self.ncols, rows.nnz, 8, I::BYTES, I::GATHER);
        t.plus(rhs_read(rows.len()))
    }

    /// `out[c] = (b - A x)[rows[c]]`: the fused residual at the listed
    /// rows only, each with the same fold, so it equals the full residual
    /// gathered at `rows` bit for bit. One contiguous range of `out` per
    /// pool thread, threads sized by the touched entries.
    pub(crate) fn residual_at(&self, rows: &RowSet, x: &[f64], b: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "residual_at x length mismatch");
        assert_eq!(b.len(), self.nrows, "residual_at b length mismatch");
        assert_eq!(out.len(), rows.len(), "residual_at out length mismatch");
        let _scope = xsc_metrics::record("spmv", self.residual_at_model(rows));
        for_row_ranges(out, kernel_threads(rows.nnz), |c| {
            self.residual_row(rows.idx[c], x, b)
        });
    }

    /// Dense materialization (testing helper; quadratic memory).
    pub fn to_dense(&self) -> Matrix<f64> {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                m.set(i, c.widen(), m.get(i, c.widen()) + v);
            }
        }
        m
    }

    /// `true` if the sparsity pattern and values are symmetric (within
    /// `tol`); the HPCG operator must be, or CG loses its guarantees.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                let (jc, jv) = self.row(j.widen());
                let back = jc
                    .iter()
                    .position(|&c| c.widen() == i)
                    .map_or(0.0, |p| jv[p]);
                if (back - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// The per-row checks of [`Csr::from_sorted_rows`] over `tasks`
/// contiguous row ranges on the pool, for a `row_ptr` that starts at 0
/// and ends at `col_idx.len()`: it never decreases, and each row's
/// columns strictly increase and are below `ncols`.
pub(crate) fn check_rows<I: SparseIndex>(row_ptr: &[I], col_idx: &[I], ncols: usize, tasks: usize) {
    let nrows = row_ptr.len() - 1;
    (0..tasks).into_par_iter().for_each(|t| {
        let rows = nrows * t / tasks..nrows * (t + 1) / tasks;
        // Past the range's last pointer the whole `row_ptr` must still
        // climb to `col_idx.len()`, so a pointer above it means a decrease
        // later on.
        let ptrs = &row_ptr[rows.start..=rows.end];
        assert!(
            ptrs.windows(2).all(|w| w[0].widen() <= w[1].widen())
                && ptrs[ptrs.len() - 1].widen() <= col_idx.len(),
            "row_ptr must not decrease"
        );
        for (i, w) in rows.zip(ptrs.windows(2)) {
            let cols = &col_idx[w[0].widen()..w[1].widen()];
            assert!(
                cols.windows(2).all(|p| p[0].widen() < p[1].widen()),
                "row {i}: columns must strictly increase"
            );
            if let Some(&last) = cols.last() {
                let last = last.widen();
                assert!(last < ncols, "row {i}: column {last} out of bounds");
            }
        }
    });
}

impl TryFrom<&CsrMatrix> for Csr32 {
    type Error = IndexOverflow;

    fn try_from(a: &CsrMatrix) -> Result<Self, IndexOverflow> {
        check_compact_bounds(a.ncols, a.nnz())?;
        let narrow = |idx: &[usize], err| -> Result<Vec<u32>, IndexOverflow> {
            idx.iter().map(|&i| u32::narrow(i).ok_or(err)).collect()
        };
        Ok(Csr {
            nrows: a.nrows,
            ncols: a.ncols,
            row_ptr: narrow(&a.row_ptr, IndexOverflow::Nnz { nnz: a.nnz() })?,
            col_idx: narrow(&a.col_idx, IndexOverflow::Cols { ncols: a.ncols })?,
            vals: a.vals.clone(),
            gs: a.gs.clone(),
        })
    }
}

impl<I: SparseIndex> SparseOps for Csr<I> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.vals.len()
    }

    fn format_name(&self) -> &'static str {
        I::FORMAT.name()
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv y length mismatch");
        let _scope = xsc_metrics::record("spmv", self.spmv_traffic());
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_dot(i, x);
        }
    }

    /// One contiguous row range per pool thread, on the calling thread
    /// alone below half a million stored entries. Each row's dot product
    /// is computed in the same order regardless of thread count.
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv y length mismatch");
        let _scope = xsc_metrics::record("spmv", self.spmv_traffic());
        for_row_ranges(y, kernel_threads(self.nnz()), |i| self.row_dot(i, x));
    }

    /// Each row folds `acc ← acc - a_ij·x_j` starting from `b_i`, so `b`
    /// is read in the same pass that streams `A` — one fewer traversal of
    /// `r` than [`unfused_residual`](crate::ops::unfused_residual)'s
    /// SpMV-then-subtract. The rows split as in `spmv_par`. Every sparse
    /// format implements the same fold order, so results are bitwise
    /// comparable across formats.
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "fused_residual x length mismatch");
        assert_eq!(b.len(), self.nrows, "fused_residual b length mismatch");
        assert_eq!(r.len(), self.nrows, "fused_residual r length mismatch");
        let model = self.spmv_traffic().plus(rhs_read(self.nrows));
        let _scope = xsc_metrics::record("spmv", model);
        for_row_ranges(r, kernel_threads(self.nnz()), |i| {
            self.residual_row(i, x, b)
        });
    }

    /// Zero where a row has no diagonal entry.
    fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows];
        for i in 0..self.nrows.min(self.ncols) {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c.widen() == i {
                    d[i] = v;
                }
            }
        }
        d
    }

    fn symgs(&self, b: &[f64], x: &mut [f64]) {
        symgs_sweeps(self, b, x);
    }

    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
        colored_sweeps(self, classes, b, x);
    }

    fn spmv_traffic(&self) -> Traffic {
        traffic::spmv_csr(self.nrows, self.ncols, self.nnz(), 8, I::BYTES, I::GATHER)
    }

    fn symgs_traffic(&self) -> Traffic {
        traffic::symgs_csr(self.nrows, self.ncols, self.nnz(), 8, I::BYTES, I::GATHER)
    }

    /// In row-major CSR order.
    fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Callers may rewrite entries but the sparsity structure is fixed.
    fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    fn column_sums(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.ncols];
        for (&j, &v) in self.col_idx.iter().zip(self.vals.iter()) {
            c[j.widen()] += v;
        }
        c
    }
}

/// The extra read of `b` a residual kernel makes over `rows` rows, on top
/// of its SpMV traffic.
pub(crate) fn rhs_read(rows: usize) -> Traffic {
    Traffic {
        flops: 0,
        bytes_read: 8 * rows as u64,
        bytes_written: 0,
    }
}

/// A fixed list of rows (in any order, repeats allowed) and the stored
/// entries they hold, counted once when the list is made so that each
/// `residual_at` call sizes its threads and prices its traffic without
/// walking the rows first.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowSet {
    idx: Vec<usize>,
    nnz: usize,
}

impl RowSet {
    /// The rows `idx` of `a` (each must be below `a.nrows()`).
    pub(crate) fn new<I: SparseIndex>(a: &Csr<I>, idx: Vec<usize>) -> Self {
        let nnz = idx.iter().fold(0, |acc, &i| acc + a.row(i).0.len());
        RowSet { idx, nnz }
    }

    /// The rows, in the order `residual_at` writes them.
    pub(crate) fn rows(&self) -> &[usize] {
        &self.idx
    }

    /// Number of listed rows.
    pub(crate) fn len(&self) -> usize {
        self.idx.len()
    }

    /// Stored entries the listed rows hold (a repeated row counts again).
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }
}

/// Fewest stored entries worth a pool thread of their own. A row kernel
/// below twice this runs on the calling thread: spawning a thread
/// (~0.1 ms on a 2-vCPU Xeon) costs more than its share of a 24³ sweep
/// saves.
const MIN_NNZ_PER_THREAD: usize = 1 << 18;

/// Threads a row kernel over `nnz` stored entries runs on: the current
/// pool's count, capped so each gets at least [`MIN_NNZ_PER_THREAD`].
pub(crate) fn kernel_threads(nnz: usize) -> usize {
    rayon::current_num_threads()
        .min(nnz / MIN_NNZ_PER_THREAD)
        .max(1)
}

/// `out[i] = row(i)` for every row, as `tasks` contiguous row ranges on
/// the pool (one task runs inline).
pub(crate) fn for_row_ranges<T: Send>(
    out: &mut [T],
    tasks: usize,
    row: impl Fn(usize) -> T + Sync,
) {
    let chunk = out.len().div_ceil(tasks.max(1)).max(1);
    out.par_chunks_mut(chunk).enumerate().for_each(|(k, part)| {
        for (i, o) in (k * chunk..).zip(part.iter_mut()) {
            *o = row(i);
        }
    });
}

impl<I: SparseIndex> GsRow for Csr<I> {
    #[inline]
    fn gs_row<X: XView + ?Sized>(&self, i: usize, b: &[f64], x: &X) -> f64 {
        let (cols, vals) = self.row(i);
        let mut row = GsFold::new(i, b);
        for (&c, &v) in cols.iter().zip(vals) {
            row.step(c.widen(), v, x);
        }
        row.finish()
    }

    /// Folds rows `i` and `j` in one loop over their common length, one
    /// entry of each per step, then the longer row's rest: each row still
    /// folds its own entries in stored order.
    #[inline]
    fn gs_pair<X: XView + ?Sized>(&self, i: usize, j: usize, b: &[f64], x: &X) -> (f64, f64) {
        let ((ci, vi), (cj, vj)) = (self.row(i), self.row(j));
        let (mut ri, mut rj) = (GsFold::new(i, b), GsFold::new(j, b));
        for ((&c, &v), (&d, &w)) in ci.iter().zip(vi).zip(cj.iter().zip(vj)) {
            ri.step(c.widen(), v, x);
            rj.step(d.widen(), w, x);
        }
        let common = ci.len().min(cj.len());
        for (&c, &v) in ci[common..].iter().zip(&vi[common..]) {
            ri.step(c.widen(), v, x);
        }
        for (&d, &w) in cj[common..].iter().zip(&vj[common..]) {
            rj.step(d.widen(), w, x);
        }
        (ri.finish(), rj.finish())
    }

    fn gs_schedule(&self) -> Option<&GsSchedule> {
        Csr::gs_schedule(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{unfused_residual, SparseOps};
    use crate::stencil::{build_matrix, build_rhs, Geometry};

    fn sample() -> CsrMatrix {
        // [[2, 0, 1], [0, 3, 0], [1, 0, 4]]
        CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
            ],
        )
    }

    #[test]
    fn construction_and_layout() {
        let a = sample();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.nrows(), 3);
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[2.0, 1.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.row(0).1, &[3.5]);
    }

    #[test]
    fn duplicate_summation_is_deterministic() {
        // Floating-point addition is not associative, so the fold order of
        // duplicates is observable. The documented contract is a stable
        // left-to-right fold in *input* order: (1e16 + 1.0) - 1e16 == 0.0
        // (the 1.0 is absorbed), whereas 1e16 + (1.0 - 1e16) == 1.0.
        let a = CsrMatrix::from_triplets(1, 1, vec![(0, 0, 1e16), (0, 0, 1.0), (0, 0, -1e16)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.row(0).1, &[(1e16 + 1.0) - 1e16]);
        assert_eq!(a.row(0).1, &[0.0]);
        // Reordered input, same multiset of triplets: different (but still
        // deterministic) result — pinning that order is input order, not
        // value order.
        let b = CsrMatrix::from_triplets(1, 1, vec![(0, 0, 1e16), (0, 0, -1e16), (0, 0, 1.0)]);
        assert_eq!(b.row(0).1, &[1.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        let mut yd = vec![0.0; 3];
        xsc_core::gemm::gemv(xsc_core::Transpose::No, 1.0, &d, &x, 0.0, &mut yd);
        for i in 0..3 {
            assert!((y[i] - yd[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn spmv_par_is_bit_identical_to_sequential() {
        // Larger random-ish matrix.
        let n = 500;
        let trips: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| {
                let mut v = vec![(i, i, 4.0 + (i % 7) as f64)];
                if i > 0 {
                    v.push((i, i - 1, -1.25));
                }
                if i + 1 < n {
                    v.push((i, i + 1, -0.75));
                }
                if i >= 50 {
                    v.push((i, i - 50, 0.1 * (i % 13) as f64));
                }
                v
            })
            .collect();
        let a = CsrMatrix::from_triplets(n, n, trips);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        a.spmv_par(&x, &mut y2);
        assert_eq!(y1, y2, "parallel SpMV must be bit-identical");
    }

    #[test]
    fn row_ranges_are_bit_identical_for_any_task_count() {
        let a = stencil();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64).sin()).collect();
        let (b, _) = build_rhs(&a);
        let (mut y1, mut r1) = (vec![0.0; n], vec![0.0; n]);
        for_row_ranges(&mut y1, 1, |i| a.row_dot(i, &x));
        for_row_ranges(&mut r1, 1, |i| a.residual_row(i, &x, &b));
        for tasks in [2, 3, 4, n + 1] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(tasks.min(4))
                .build()
                .unwrap();
            let (mut y, mut r) = (vec![0.0; n], vec![0.0; n]);
            pool.install(|| {
                for_row_ranges(&mut y, tasks, |i| a.row_dot(i, &x));
                for_row_ranges(&mut r, tasks, |i| a.residual_row(i, &x, &b));
            });
            assert_eq!(y, y1, "spmv rows on {tasks} tasks");
            assert_eq!(r, r1, "residual rows on {tasks} tasks");
        }
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = sample();
        let x = vec![1.0, 1.0, 1.0];
        let mut b = vec![0.0; 3];
        a.spmv(&x, &mut b);
        let mut r = vec![1.0; 3];
        unfused_residual(&a, &x, &b, &mut r);
        assert!(r.iter().all(|&v| v.abs() < 1e-15));
    }

    #[test]
    fn fused_residual_matches_two_pass() {
        let a = sample();
        let x = vec![0.5, -1.0, 2.0];
        let b = vec![1.0, 2.0, 3.0];
        let mut r1 = vec![0.0; 3];
        let mut r2 = vec![0.0; 3];
        unfused_residual(&a, &x, &b, &mut r1);
        a.fused_residual(&x, &b, &mut r2);
        for i in 0..3 {
            assert!((r1[i] - r2[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn symmetry_detection() {
        let a = sample();
        assert!(a.is_symmetric(1e-12));
        let b = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 1.0)]);
        assert!(!b.is_symmetric(1e-12));
        let c = CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]);
        assert!(!c.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplets_bounds_checked() {
        let _ = CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "columns must strictly increase")]
    fn sorted_rows_reject_unsorted_columns() {
        let _ = CsrMatrix::from_sorted_rows(2, 3, vec![0, 2, 3], vec![2, 0, 1], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "columns must strictly increase")]
    fn sorted_rows_reject_duplicate_columns() {
        let _ = CsrMatrix::from_sorted_rows(2, 3, vec![0, 1, 3], vec![0, 1, 1], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sorted_rows_reject_out_of_bounds_columns() {
        let _ = CsrMatrix::from_sorted_rows(2, 3, vec![0, 1, 2], vec![0, 3], vec![1.0; 2]);
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn sorted_rows_reject_a_decreasing_row_ptr() {
        let _ = CsrMatrix::from_sorted_rows(2, 3, vec![0, 2, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row 4: columns must strictly increase")]
    fn split_row_checks_catch_a_bad_row_in_a_later_range() {
        let row_ptr = [0, 1, 2, 3, 4, 6, 7];
        check_rows::<usize>(&row_ptr, &[0, 1, 2, 0, 3, 3, 1], 4, 3);
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn split_row_checks_catch_a_pointer_that_drops_in_a_later_range() {
        // The first range's pointers climb past the entry count; only the
        // second range sees them drop.
        check_rows::<u32>(&[0, 3, 5, 1, 2], &[0, 1], 2, 2);
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = CsrMatrix::from_triplets(3, 3, vec![(0, 0, 1.0)]);
        let mut y = vec![9.0; 3];
        a.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0]);
    }

    // --- u32 indices -----------------------------------------------------

    fn stencil() -> CsrMatrix {
        build_matrix(Geometry::new(5, 4, 3))
    }

    #[test]
    fn u32_roundtrip_preserves_structure() {
        let a = stencil();
        let c = Csr32::try_from(&a).unwrap();
        assert_eq!(c.nrows(), a.nrows());
        assert_eq!(c.ncols(), a.ncols());
        assert_eq!(c.nnz(), a.nnz());
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let (c32, v32) = c.row(i);
            assert_eq!(vals, v32);
            assert!(cols.iter().zip(c32.iter()).all(|(&u, &v)| u == v as usize));
        }
    }

    #[test]
    fn u32_spmv_is_bit_identical_to_usize_csr() {
        let a = stencil();
        let c = Csr32::try_from(&a).unwrap();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        let mut y3 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        c.spmv(&x, &mut y2);
        c.spmv_par(&x, &mut y3);
        assert_eq!(y1, y2);
        assert_eq!(y1, y3);
    }

    #[test]
    fn u32_fused_residual_is_bit_identical_to_usize_csr() {
        let a = stencil();
        let c = Csr32::try_from(&a).unwrap();
        let (b, _) = build_rhs(&a);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).cos()).collect();
        let mut r1 = vec![0.0; n];
        let mut r2 = vec![0.0; n];
        a.fused_residual(&x, &b, &mut r1);
        c.fused_residual(&x, &b, &mut r2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn u32_symgs_is_bit_identical_to_reference() {
        let a = stencil();
        let c = Csr32::try_from(&a).unwrap();
        let (b, _) = build_rhs(&a);
        let mut x1 = vec![0.0; a.nrows()];
        let mut x2 = vec![0.0; a.nrows()];
        for _ in 0..3 {
            crate::symgs::symgs(&a, &b, &mut x1);
            SparseOps::symgs(&c, &b, &mut x2);
        }
        assert_eq!(x1, x2);
    }

    #[test]
    fn u32_colored_symgs_is_bit_identical_to_reference() {
        let a = stencil();
        let c = Csr32::try_from(&a).unwrap();
        let (b, _) = build_rhs(&a);
        let classes = crate::coloring::color_classes(&crate::coloring::greedy_coloring(&a));
        let mut x1 = vec![0.0; a.nrows()];
        let mut x2 = vec![0.0; a.nrows()];
        for _ in 0..3 {
            crate::coloring::colored_symgs(&a, &classes, &b, &mut x1);
            SparseOps::colored_symgs(&c, &classes, &b, &mut x2);
        }
        assert_eq!(x1, x2);
    }

    #[test]
    fn u32_diagonal_and_column_sums_match() {
        let a = stencil();
        let c = Csr32::try_from(&a).unwrap();
        assert_eq!(a.diagonal(), c.diagonal());
        assert_eq!(a.column_sums(), c.column_sums());
    }

    #[test]
    fn huge_ncols_is_rejected_not_truncated() {
        let wide = CsrMatrix::from_triplets(1, u32::MAX as usize + 2, vec![]);
        let err = Csr32::try_from(&wide).unwrap_err();
        assert_eq!(
            err,
            IndexOverflow::Cols {
                ncols: u32::MAX as usize + 2
            }
        );
        assert!(err.to_string().contains("truncate"));
    }

    #[test]
    fn huge_nnz_is_rejected_not_wrapped() {
        // A real 2^32-entry matrix would need >48 GiB; the bounds check is
        // factored out precisely so this arm stays testable.
        let err = check_compact_bounds(10, u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            IndexOverflow::Nnz {
                nnz: u32::MAX as usize + 1
            }
        );
        assert!(err.to_string().contains("wrap"));
        assert!(check_compact_bounds(10, u32::MAX as usize).is_ok());
    }

    #[test]
    fn huge_nrows_reports_truncation() {
        // The rows arm is raised by SELL-C-σ's u32 row permutation; a
        // 2^32-row matrix does not fit in memory, so pin its report.
        let err = IndexOverflow::Rows {
            nrows: u32::MAX as usize + 1,
        };
        assert!(err.to_string().contains("row permutations would truncate"));
    }
}
