//! SELL-C-σ: sliced ELLPACK with sorted chunks.
//!
//! Rows are grouped into chunks of `C` consecutive slots; within each
//! σ-row window the rows are stably sorted by descending length so chunk
//! mates have similar lengths and the zero padding stays small. Each chunk
//! stores its entries **column-major** (all lanes' entry 0, then entry 1,
//! …), the layout SIMD SpMV wants: one vector load per step services `C`
//! rows. Indices are `u32`, so the matrix stream matches [`Csr32`]'s
//! ~12 B/nnz rather than the `usize` CSR's ~24.
//!
//! Padding slots carry `col = 0, val = 0`, an exact no-op in the SpMV's
//! multiply-add, and every row records its real length so the
//! Gauss–Seidel sweeps (which divide by the diagonal) never touch padding.
//! All kernels fold each row's entries in the original CSR order, so
//! results are bit-identical to the other formats.
//!
//! The kernels are the [`SparseOps`] implementation, the only definition
//! of each: SELL-C-σ keeps its own SpMV over the chunked layout, and its
//! Gauss–Seidel row update (`GsRow`) plugs into the crate's one natural
//! sweep ([`crate::symgs`]) and one multicolour sweep
//! ([`crate::coloring`]).
//!
//! [`Csr32`]: crate::csr::Csr32

use crate::coloring::colored_sweeps;
use crate::csr::{for_row_ranges, kernel_threads, rhs_read, CsrMatrix, RowSet};
use crate::idx::{check_compact_bounds, widen, IndexOverflow, SparseIndex};
use crate::ops::{SparseFormat, SparseOps};
use crate::symgs::{symgs_sweeps, GsFold, GsRow, GsSchedule, XView};
use rayon::prelude::*;
use xsc_core::cast::count_f64;
use xsc_metrics::traffic::{self, XGather};
use xsc_metrics::Traffic;

/// Default chunk height (lanes per chunk).
pub const DEFAULT_C: usize = 8;
/// Default sorting-window size (rows; must be a multiple of the chunk
/// height).
pub const DEFAULT_SIGMA: usize = 64;

/// A sparse matrix in SELL-C-σ layout (sliced ELLPACK, sorted chunks).
#[derive(Debug, Clone, PartialEq)]
pub struct SellCSigma {
    nrows: usize,
    ncols: usize,
    c: usize,
    sigma: usize,
    nnz: usize,
    /// Start of each chunk's slab in `col_idx`/`vals` (length `nchunks+1`).
    chunk_off: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    /// Real (unpadded) length of the row at each sorted slot.
    row_len: Vec<u32>,
    /// `perm[slot]` = original row stored at sorted slot `slot`.
    perm: Vec<u32>,
    /// `inv[row]` = sorted slot holding original row `row`.
    inv: Vec<u32>,
    /// The source CSR's Gauss–Seidel level schedule (same row indices).
    gs: Option<GsSchedule>,
}

impl TryFrom<&CsrMatrix> for SellCSigma {
    type Error = IndexOverflow;

    fn try_from(a: &CsrMatrix) -> Result<Self, IndexOverflow> {
        SellCSigma::from_csr(a, DEFAULT_C, DEFAULT_SIGMA)
    }
}

impl SellCSigma {
    /// Converts a CSR matrix into SELL-C-σ with chunk height `c` and sort
    /// window `sigma` (a multiple of `c`). Fails with [`IndexOverflow`] if
    /// the shape does not fit `u32` indexing.
    pub fn from_csr(a: &CsrMatrix, c: usize, sigma: usize) -> Result<Self, IndexOverflow> {
        assert!(c >= 1, "chunk height must be at least 1");
        assert!(
            sigma >= c && sigma.is_multiple_of(c),
            "sort window {sigma} must be a positive multiple of the chunk height {c}"
        );
        check_compact_bounds(a.ncols(), a.nnz())?;
        let n = a.nrows();
        let n32 = u32::narrow(n).ok_or(IndexOverflow::Rows { nrows: n })?;
        // Stable descending-length sort within each σ-window: ties keep
        // their original relative order, so the layout is deterministic.
        let mut perm: Vec<u32> = (0..n32).collect();
        let len_of = |r: u32| a.row(widen(r)).0.len();
        for wstart in (0..n).step_by(sigma.max(1)) {
            let wend = (wstart + sigma).min(n);
            perm[wstart..wend].sort_by_key(|&q| std::cmp::Reverse(len_of(q)));
        }
        let mut inv = vec![0u32; n];
        for (slot, &r) in (0..n32).zip(perm.iter()) {
            inv[widen(r)] = slot;
        }
        let nchunks = n.div_ceil(c.max(1));
        let mut chunk_off = Vec::with_capacity(nchunks + 1);
        chunk_off.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        let mut row_len = Vec::with_capacity(n);
        for ch in 0..nchunks {
            let s0 = ch * c;
            let rows_in = (n - s0).min(c);
            let width = (0..rows_in)
                .map(|l| len_of(perm[s0 + l]))
                .max()
                .unwrap_or(0);
            // Column-major slab: entry j of every lane, then entry j+1.
            for j in 0..width {
                for l in 0..rows_in {
                    let (cols, v) = a.row(widen(perm[s0 + l]));
                    if j < cols.len() {
                        col_idx.push(
                            u32::narrow(cols[j]).ok_or(IndexOverflow::Cols { ncols: a.ncols() })?,
                        );
                        vals.push(v[j]);
                    } else {
                        col_idx.push(0);
                        vals.push(0.0);
                    }
                }
            }
            for l in 0..rows_in {
                let len = len_of(perm[s0 + l]);
                row_len.push(u32::narrow(len).ok_or(IndexOverflow::Nnz { nnz: a.nnz() })?);
            }
            chunk_off.push(col_idx.len());
        }
        Ok(SellCSigma {
            nrows: n,
            ncols: a.ncols(),
            c,
            sigma,
            nnz: a.nnz(),
            chunk_off,
            col_idx,
            vals,
            row_len,
            perm,
            inv,
            gs: a.gs_schedule().cloned(),
        })
    }

    /// Total stored slots including zero padding (what SpMV streams).
    pub fn padded_slots(&self) -> usize {
        *self.chunk_off.last().unwrap_or(&0)
    }

    /// Number of chunks.
    pub fn nchunks(&self) -> usize {
        self.chunk_off.len() - 1
    }

    /// Chunk height `C`.
    pub fn chunk_height(&self) -> usize {
        self.c
    }

    /// Sort window σ.
    pub fn sort_window(&self) -> usize {
        self.sigma
    }

    /// Padding overhead: stored slots per real nonzero (1.0 = no padding).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            count_f64(self.padded_slots() as u64) / count_f64(self.nnz as u64)
        }
    }

    /// The Gauss–Seidel level schedule copied from the source CSR matrix
    /// (`None` if it is not square).
    pub fn gs_schedule(&self) -> Option<&GsSchedule> {
        self.gs.as_ref()
    }

    /// Folds `f` over the real entries of original row `i` in CSR order.
    #[inline]
    fn for_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let slot = widen(self.inv[i]);
        let ch = slot / self.c;
        let lane = slot - ch * self.c;
        let rows_in = (self.nrows - ch * self.c).min(self.c);
        let base = self.chunk_off[ch];
        for j in 0..widen(self.row_len[slot]) {
            let k = base + j * rows_in + lane;
            f(widen(self.col_idx[k]), self.vals[k]);
        }
    }

    /// Per-chunk lane accumulators for `A x` over chunk `ch`, padding
    /// included (an exact no-op); lane order = sorted-slot order.
    #[inline]
    fn chunk_accs(&self, ch: usize, x: &[f64]) -> Vec<f64> {
        let s0 = ch * self.c;
        let rows_in = (self.nrows - s0).min(self.c);
        let base = self.chunk_off[ch];
        let width = (self.chunk_off[ch + 1] - base) / rows_in.max(1);
        let mut accs = vec![0.0; rows_in];
        for j in 0..width {
            let row_base = base + j * rows_in;
            for (l, acc) in accs.iter_mut().enumerate() {
                let k = row_base + l;
                *acc += self.vals[k] * x[widen(self.col_idx[k])];
            }
        }
        accs
    }

    /// Writes the lane accumulators of every chunk in `per_chunk` (chunk
    /// order) to their original rows of `y`.
    fn scatter(&self, per_chunk: impl IntoIterator<Item = Vec<f64>>, y: &mut [f64]) {
        for (ch, accs) in per_chunk.into_iter().enumerate() {
            let s0 = ch * self.c;
            for (l, acc) in accs.into_iter().enumerate() {
                y[widen(self.perm[s0 + l])] = acc;
            }
        }
    }

    /// Row `i` of `b - A x`, folding `acc ← acc - a_ij·x_j` from `b_i`.
    #[inline]
    fn residual_row(&self, i: usize, x: &[f64], b: &[f64]) -> f64 {
        let mut acc = b[i];
        self.for_row(i, |c, v| acc -= v * x[c]);
        acc
    }

    /// Modeled traffic of [`SellCSigma::residual_at`] over `rows`: the
    /// SpMV model on the touched rows and their entries (no padding: rows
    /// are walked by their real length, one chunk offset each), plus `b`.
    pub(crate) fn residual_at_model(&self, rows: &RowSet) -> Traffic {
        let (nr, nz) = (rows.len(), rows.nnz());
        traffic::spmv_sell(nr, self.ncols, nz, nz, nr, 8, XGather::Streamed).plus(rhs_read(nr))
    }

    /// The fused residual at the listed rows only, with the same per-row
    /// fold; see [`Csr::residual_at`](crate::csr::Csr::residual_at).
    pub(crate) fn residual_at(&self, rows: &RowSet, x: &[f64], b: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "residual_at x length mismatch");
        assert_eq!(b.len(), self.nrows, "residual_at b length mismatch");
        assert_eq!(out.len(), rows.len(), "residual_at out length mismatch");
        let _scope = xsc_metrics::record("spmv", self.residual_at_model(rows));
        let idx = rows.rows();
        for_row_ranges(out, kernel_threads(rows.nnz()), |c| {
            self.residual_row(idx[c], x, b)
        });
    }
}

impl SparseOps for SellCSigma {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    /// Real stored entries only (padding excluded).
    fn nnz(&self) -> usize {
        self.nnz
    }

    fn format_name(&self) -> &'static str {
        SparseFormat::SellCSigma.name()
    }

    /// Over the chunked layout. Each lane's fold visits its row's entries
    /// in CSR order (then exact-zero padding), so the result is
    /// bit-identical to the CSR formats.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv y length mismatch");
        let _scope = xsc_metrics::record("spmv", self.spmv_traffic());
        self.scatter((0..self.nchunks()).map(|ch| self.chunk_accs(ch, x)), y);
    }

    /// Chunks fan out over the pool.
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv y length mismatch");
        let _scope = xsc_metrics::record("spmv", self.spmv_traffic());
        let per_chunk: Vec<Vec<f64>> = (0..self.nchunks())
            .into_par_iter()
            .map(|ch| self.chunk_accs(ch, x))
            .collect();
        self.scatter(per_chunk, y);
    }

    /// Same per-row fold as the CSR formats' fused residual.
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "fused_residual x length mismatch");
        assert_eq!(b.len(), self.nrows, "fused_residual b length mismatch");
        assert_eq!(r.len(), self.nrows, "fused_residual r length mismatch");
        let model = self.spmv_traffic().plus(rhs_read(self.nrows));
        let _scope = xsc_metrics::record("spmv", model);
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = self.residual_row(i, x, b);
        }
    }

    /// Zero where a row has no diagonal entry.
    fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows];
        for (i, di) in d.iter_mut().enumerate().take(self.nrows.min(self.ncols)) {
            self.for_row(i, |c, v| {
                if c == i {
                    *di = v;
                }
            });
        }
        d
    }

    fn symgs(&self, b: &[f64], x: &mut [f64]) {
        symgs_sweeps(self, b, x);
    }

    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
        colored_sweeps(self, classes, b, x);
    }

    /// Over the padded slab.
    fn spmv_traffic(&self) -> Traffic {
        let (nrows, ncols, nnz) = (self.nrows, self.ncols, self.nnz);
        let (slots, chunks) = (self.padded_slots(), self.nchunks());
        traffic::spmv_sell(nrows, ncols, nnz, slots, chunks, 8, XGather::Streamed)
    }

    fn symgs_traffic(&self) -> Traffic {
        let (nrows, ncols, nnz, chunks) = (self.nrows, self.ncols, self.nnz, self.nchunks());
        traffic::symgs_sell(nrows, ncols, nnz, chunks, 8, XGather::Streamed)
    }

    /// The chunked slab, padding slots included — padding holds exact
    /// zeros, so sums over the whole slab are exact.
    fn values(&self) -> &[f64] {
        &self.vals
    }

    /// A memory fault landing on a padding slot is a real corruption:
    /// SpMV streams padding, so a non-zero pad perturbs that lane's row.
    fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Over every stored slot: padding slots contribute their stored
    /// value at column `col_idx[k]`, so a corrupted pad shows up here
    /// exactly as it does in SpMV.
    fn column_sums(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.ncols];
        for (&j, &v) in self.col_idx.iter().zip(self.vals.iter()) {
            c[widen(j)] += v;
        }
        c
    }
}

impl GsRow for SellCSigma {
    #[inline]
    fn gs_row<X: XView + ?Sized>(&self, i: usize, b: &[f64], x: &X) -> f64 {
        let mut row = GsFold::new(i, b);
        self.for_row(i, |c, v| row.step(c, v, x));
        row.finish()
    }

    fn gs_schedule(&self) -> Option<&GsSchedule> {
        SellCSigma::gs_schedule(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SparseOps;
    use crate::stencil::{build_matrix, build_rhs, Geometry};

    fn sample() -> CsrMatrix {
        build_matrix(Geometry::new(5, 4, 3))
    }

    #[test]
    fn conversion_accounts_for_every_entry() {
        let a = sample();
        let s = SellCSigma::try_from(&a).unwrap();
        assert_eq!(s.nrows(), a.nrows());
        assert_eq!(s.nnz(), a.nnz());
        assert!(s.padded_slots() >= s.nnz());
        assert!(s.fill_ratio() >= 1.0);
        // σ-sorting keeps stencil padding modest.
        assert!(s.fill_ratio() < 1.6, "fill ratio {}", s.fill_ratio());
        // Row contents survive the permutation.
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let mut got: Vec<(usize, f64)> = Vec::new();
            s.for_row(i, |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(got, want, "row {i}");
        }
    }

    #[test]
    fn sort_is_stable_and_deterministic() {
        let a = sample();
        let s1 = SellCSigma::from_csr(&a, 4, 16).unwrap();
        let s2 = SellCSigma::from_csr(&a, 4, 16).unwrap();
        assert_eq!(s1, s2);
        // perm is a permutation.
        let mut seen = vec![false; a.nrows()];
        for &p in &s1.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn spmv_is_bit_identical_to_csr() {
        let a = sample();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 41 % 89) as f64).sin()).collect();
        let mut y_ref = vec![0.0; n];
        a.spmv(&x, &mut y_ref);
        for (c, sigma) in [(1, 1), (2, 8), (8, 64), (16, 16)] {
            let s = SellCSigma::from_csr(&a, c, sigma).unwrap();
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            s.spmv(&x, &mut y1);
            s.spmv_par(&x, &mut y2);
            assert_eq!(y_ref, y1, "C={c} σ={sigma}");
            assert_eq!(y_ref, y2, "C={c} σ={sigma} (par)");
        }
    }

    #[test]
    fn fused_residual_is_bit_identical_to_csr() {
        let a = sample();
        let (b, _) = build_rhs(&a);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).cos()).collect();
        let s = SellCSigma::try_from(&a).unwrap();
        let mut r1 = vec![0.0; n];
        let mut r2 = vec![0.0; n];
        a.fused_residual(&x, &b, &mut r1);
        s.fused_residual(&x, &b, &mut r2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn symgs_is_bit_identical_to_reference() {
        let a = sample();
        let (b, _) = build_rhs(&a);
        let s = SellCSigma::try_from(&a).unwrap();
        let mut x1 = vec![0.0; a.nrows()];
        let mut x2 = vec![0.0; a.nrows()];
        for _ in 0..3 {
            crate::symgs::symgs(&a, &b, &mut x1);
            SparseOps::symgs(&s, &b, &mut x2);
        }
        assert_eq!(x1, x2);
    }

    #[test]
    fn colored_symgs_is_bit_identical_to_reference() {
        let a = sample();
        let (b, _) = build_rhs(&a);
        let classes = crate::coloring::color_classes(&crate::coloring::greedy_coloring(&a));
        let s = SellCSigma::try_from(&a).unwrap();
        let mut x1 = vec![0.0; a.nrows()];
        let mut x2 = vec![0.0; a.nrows()];
        for _ in 0..3 {
            crate::coloring::colored_symgs(&a, &classes, &b, &mut x1);
            SparseOps::colored_symgs(&s, &classes, &b, &mut x2);
        }
        assert_eq!(x1, x2);
    }

    #[test]
    fn diagonal_matches_csr() {
        let a = sample();
        let s = SellCSigma::try_from(&a).unwrap();
        assert_eq!(a.diagonal(), s.diagonal());
    }

    #[test]
    fn huge_ncols_is_rejected() {
        let wide = CsrMatrix::from_triplets(1, u32::MAX as usize + 2, vec![]);
        assert!(matches!(
            SellCSigma::try_from(&wide),
            Err(IndexOverflow::Cols { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "multiple of the chunk height")]
    fn sigma_must_be_multiple_of_c() {
        let a = sample();
        let _ = SellCSigma::from_csr(&a, 8, 12);
    }

    #[test]
    fn ragged_last_chunk_is_handled() {
        // 5×4×3 grid has 60 rows; C=7 leaves a 4-row final chunk.
        let a = sample();
        let s = SellCSigma::from_csr(&a, 7, 28).unwrap();
        let n = a.nrows();
        assert_eq!(s.nchunks(), n.div_ceil(7));
        let x = vec![1.0; n];
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        s.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }
}
