//! The format-agnostic sparse kernel surface.
//!
//! [`SparseOps`] is the one trait the HPCG path ([`cg`](crate::cg),
//! [`mg`](crate::mg), [`hpcg`](crate::hpcg)) is written against, so a
//! caller picks a storage format — `usize` CSR, [`Csr32`], or
//! [`SellCSigma`] — without touching solver code. Every implementation
//! folds each row's entries in the same order, so the *same algorithm on a
//! different format produces bit-identical iterates*; only the bytes
//! streamed per nonzero change. [`FormatMatrix`] is the runtime-dispatch
//! wrapper ([`SparseFormat`] names the variants), converted fallibly from
//! a [`CsrMatrix`] because the compact formats reject shapes that overflow
//! `u32` indices.
//!
//! There are two implementations, not three, each in its format's own
//! file and holding that format's kernels: one generic over the CSR index
//! width ([`Csr<I>`](crate::csr::Csr), monomorphized per
//! [`SparseIndex`](crate::idx::SparseIndex)) and one for SELL-C-σ. Both
//! smooth through the crate's single natural sweep ([`crate::symgs`]) and
//! single multicolour sweep ([`crate::coloring`]); each format supplies
//! only its row update. [`unfused_residual`] is the one two-pass residual,
//! written once over the trait.

use crate::csr::{Csr32, CsrMatrix, RowSet};
use crate::idx::IndexOverflow;
use crate::sell::SellCSigma;
use xsc_metrics::Traffic;

/// Format-agnostic sparse kernels: everything the HPCG path needs from a
/// matrix, plus the analytic traffic models that price each kernel for the
/// roofline machinery.
pub trait SparseOps {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Number of columns.
    fn ncols(&self) -> usize;
    /// Number of real stored entries (padding excluded).
    fn nnz(&self) -> usize;
    /// Short human-readable format name (stable; used in reports).
    fn format_name(&self) -> &'static str;
    /// Sequential SpMV `y ← Ax`.
    fn spmv(&self, x: &[f64], y: &mut [f64]);
    /// Thread-parallel SpMV, bit-identical to [`SparseOps::spmv`].
    fn spmv_par(&self, x: &[f64], y: &mut [f64]);
    /// Fused residual `r = b - Ax` in a single matrix sweep.
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]);
    /// The diagonal entries.
    fn diagonal(&self) -> Vec<f64>;
    /// One natural-order symmetric Gauss–Seidel application.
    fn symgs(&self, b: &[f64], x: &mut [f64]);
    /// One multicolor symmetric Gauss–Seidel application (classes from
    /// [`coloring::color_classes`](crate::coloring::color_classes)).
    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]);
    /// Modeled DRAM traffic of one SpMV under this format's recording
    /// convention.
    fn spmv_traffic(&self) -> Traffic;
    /// Modeled DRAM traffic of one SymGS application (two sweeps).
    fn symgs_traffic(&self) -> Traffic;
    /// The raw stored value buffer (format-specific layout; SELL includes
    /// its zero padding slots). The surface memory-fault injection corrupts
    /// and checkpoint restore writes back into.
    fn values(&self) -> &[f64];
    /// Mutable raw stored value buffer (value-only; structure is fixed).
    fn values_mut(&mut self) -> &mut [f64];
    /// Column sums `eᵀA` over the stored entries — the ABFT reference
    /// checksum behind the SpMV invariant `eᵀ(Ax) = (eᵀA)·x` (see
    /// [`abft::SpmvGuard`](crate::abft::SpmvGuard)).
    fn column_sums(&self) -> Vec<f64>;

    /// Residual `r = b - Ax` (defaults to the fused single-sweep form).
    fn residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        self.fused_residual(x, b, r);
    }

    /// Modeled matrix-stream bytes per nonzero for one SpMV — the number
    /// E19 checks measurements against.
    fn modeled_spmv_bytes_per_nnz(&self) -> f64 {
        let t = self.spmv_traffic();
        xsc_core::cast::count_f64(t.bytes_read + t.bytes_written)
            / xsc_core::cast::count_f64(self.nnz().max(1) as u64)
    }
}

/// Residual `r = b - Ax` in two passes: [`SparseOps::spmv`] into `r`,
/// then `r_i ← b_i - r_i`. It records one `spmv` and folds each row as
/// the SpMV does, so its bits differ from [`SparseOps::residual`]'s fused
/// fold; E12's resilient CG, E13's pipelined and s-step CG and E15
/// measure their true residuals with it.
pub fn unfused_residual<A: SparseOps + ?Sized>(a: &A, x: &[f64], b: &[f64], r: &mut [f64]) {
    a.spmv(x, r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// The storage formats the HPCG path can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseFormat {
    /// `usize`-index CSR (the legacy baseline; ~24 B/nnz matrix stream).
    /// Kept as the reference the compact formats are compared against.
    CsrUsize,
    /// `u32`-index CSR (~12 B/nnz matrix stream): `run_hpcg`'s format,
    /// as the reference HPCG's 32-bit `local_int_t` indices.
    Csr32,
    /// SELL-C-σ with `u32` indices (~12 B/nnz plus a small padding tax).
    SellCSigma,
}

impl SparseFormat {
    /// Stable short name (used in reports and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            SparseFormat::CsrUsize => "csr-usize",
            SparseFormat::Csr32 => "csr32",
            SparseFormat::SellCSigma => "sell-c-sigma",
        }
    }

    /// All formats, baseline first (the order E19 reports them in).
    pub fn all() -> [SparseFormat; 3] {
        [
            SparseFormat::CsrUsize,
            SparseFormat::Csr32,
            SparseFormat::SellCSigma,
        ]
    }
}

impl std::fmt::Display for SparseFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A sparse matrix in one of the [`SparseFormat`]s, dispatching
/// [`SparseOps`] at runtime — what [`mg`](crate::mg) levels store so a
/// whole hierarchy switches format from one argument.
#[derive(Debug, Clone)]
pub enum FormatMatrix {
    /// `usize`-index CSR.
    CsrUsize(CsrMatrix),
    /// Compact `u32`-index CSR.
    Csr32(Csr32),
    /// SELL-C-σ.
    Sell(SellCSigma),
}

impl FormatMatrix {
    /// Converts a CSR matrix into the requested format. Compact formats
    /// fail with [`IndexOverflow`] rather than truncating indices.
    pub fn convert(a: CsrMatrix, format: SparseFormat) -> Result<Self, IndexOverflow> {
        Ok(match format {
            SparseFormat::CsrUsize => FormatMatrix::CsrUsize(a),
            SparseFormat::Csr32 => FormatMatrix::Csr32(Csr32::try_from(&a)?),
            SparseFormat::SellCSigma => FormatMatrix::Sell(SellCSigma::try_from(&a)?),
        })
    }

    /// Which format this matrix is stored in.
    pub fn format(&self) -> SparseFormat {
        match self {
            FormatMatrix::CsrUsize(_) => SparseFormat::CsrUsize,
            FormatMatrix::Csr32(_) => SparseFormat::Csr32,
            FormatMatrix::Sell(_) => SparseFormat::SellCSigma,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $a:ident => $e:expr) => {
        match $self {
            FormatMatrix::CsrUsize($a) => $e,
            FormatMatrix::Csr32($a) => $e,
            FormatMatrix::Sell($a) => $e,
        }
    };
}

impl FormatMatrix {
    /// `out[c] = (b - Ax)[rows[c]]`, bit-identical to [`SparseOps::fused_residual`]
    /// gathered at `rows` (what multigrid restriction reads). Not on the
    /// trait: implementors outside this crate need not provide it.
    pub(crate) fn residual_at(&self, rows: &RowSet, x: &[f64], b: &[f64], out: &mut [f64]) {
        dispatch!(self, a => a.residual_at(rows, x, b, out))
    }

    /// Modeled DRAM traffic of one [`FormatMatrix::residual_at`] over `rows`.
    pub(crate) fn residual_at_traffic(&self, rows: &RowSet) -> Traffic {
        dispatch!(self, a => a.residual_at_model(rows))
    }
}

impl SparseOps for FormatMatrix {
    fn nrows(&self) -> usize {
        dispatch!(self, a => a.nrows())
    }
    fn ncols(&self) -> usize {
        dispatch!(self, a => a.ncols())
    }
    fn nnz(&self) -> usize {
        dispatch!(self, a => a.nnz())
    }
    fn format_name(&self) -> &'static str {
        self.format().name()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        dispatch!(self, a => SparseOps::spmv(a, x, y))
    }
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        dispatch!(self, a => SparseOps::spmv_par(a, x, y))
    }
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        dispatch!(self, a => SparseOps::fused_residual(a, x, b, r))
    }
    fn diagonal(&self) -> Vec<f64> {
        dispatch!(self, a => SparseOps::diagonal(a))
    }
    fn symgs(&self, b: &[f64], x: &mut [f64]) {
        dispatch!(self, a => SparseOps::symgs(a, b, x))
    }
    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
        dispatch!(self, a => SparseOps::colored_symgs(a, classes, b, x))
    }
    fn spmv_traffic(&self) -> Traffic {
        dispatch!(self, a => SparseOps::spmv_traffic(a))
    }
    fn symgs_traffic(&self) -> Traffic {
        dispatch!(self, a => SparseOps::symgs_traffic(a))
    }
    fn values(&self) -> &[f64] {
        dispatch!(self, a => SparseOps::values(a))
    }
    fn values_mut(&mut self) -> &mut [f64] {
        dispatch!(self, a => SparseOps::values_mut(a))
    }
    fn column_sums(&self) -> Vec<f64> {
        dispatch!(self, a => SparseOps::column_sums(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{build_matrix, build_rhs, Geometry};

    #[test]
    fn every_format_computes_the_same_spmv() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let n = SparseOps::nrows(&a);
        let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.3 - 1.0).collect();
        let mut y_ref = vec![0.0; n];
        SparseOps::spmv(&a, &x, &mut y_ref);
        for fmt in SparseFormat::all() {
            let m = FormatMatrix::convert(a.clone(), fmt).unwrap();
            assert_eq!(m.format(), fmt);
            assert_eq!(m.format_name(), fmt.name());
            let mut y = vec![0.0; n];
            m.spmv(&x, &mut y);
            assert_eq!(y, y_ref, "{fmt}");
        }
    }

    #[test]
    fn converting_to_usize_csr_moves_the_value_buffer() {
        // A copy would add the whole fine operator to HPCG's peak RSS.
        let a = build_matrix(Geometry::new(4, 4, 4));
        let vals = a.values().as_ptr();
        let m = FormatMatrix::convert(a, SparseFormat::CsrUsize).unwrap();
        assert_eq!(SparseOps::values(&m).as_ptr(), vals);
    }

    #[test]
    fn compact_formats_model_fewer_bytes_per_nnz() {
        let a = build_matrix(Geometry::new(8, 8, 8));
        let base = FormatMatrix::convert(a.clone(), SparseFormat::CsrUsize).unwrap();
        for fmt in [SparseFormat::Csr32, SparseFormat::SellCSigma] {
            let m = FormatMatrix::convert(a.clone(), fmt).unwrap();
            let ratio = base.modeled_spmv_bytes_per_nnz() / m.modeled_spmv_bytes_per_nnz();
            assert!(ratio >= 1.5, "{fmt}: modeled ratio {ratio:.2} < 1.5");
        }
    }

    #[test]
    fn residual_at_is_the_gathered_fused_residual_in_every_format() {
        use crate::stencil::f2c_map;
        let g = Geometry::new(16, 16, 16);
        for a in [build_matrix(g), crate::symgs::tests::irregular(g, 7)] {
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| ((i * 29 % 83) as f64).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 71) as f64).cos()).collect();
            let lists = [f2c_map(g), vec![], vec![n - 1, 5, 0, 5, 77, n - 1, 3]];
            for fmt in SparseFormat::all() {
                let m = FormatMatrix::convert(a.clone(), fmt).unwrap();
                let mut r = vec![0.0; n];
                m.fused_residual(&x, &b, &mut r);
                for rows in &lists {
                    let set = RowSet::new(&a, rows.clone());
                    let mut out = vec![f64::NAN; rows.len()];
                    m.residual_at(&set, &x, &b, &mut out);
                    let same = rows
                        .iter()
                        .zip(&out)
                        .all(|(&i, v)| v.to_bits() == r[i].to_bits());
                    assert!(same, "{fmt}: {} rows", rows.len());
                }
            }
        }
    }

    #[test]
    fn symgs_agrees_across_formats() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let (b, _) = build_rhs(&a);
        let n = SparseOps::nrows(&a);
        let mut x_ref = vec![0.0; n];
        crate::symgs::symgs(&a, &b, &mut x_ref);
        for fmt in SparseFormat::all() {
            let m = FormatMatrix::convert(a.clone(), fmt).unwrap();
            let mut x = vec![0.0; n];
            m.symgs(&b, &mut x);
            assert_eq!(x, x_ref, "{fmt}");
        }
    }
}
