//! The HPCG model problem: a 27-point stencil on a 3-D grid.
//!
//! Each interior grid point couples to its 26 neighbors with weight `-1`
//! and to itself with weight `26` (at the boundary, missing neighbors are
//! simply dropped, which makes the operator strictly diagonally dominant
//! there and symmetric positive definite overall). This synthetic PDE
//! operator is what HPCG measures machines with.

use crate::csr::{kernel_threads, Csr, CsrMatrix};
use crate::idx::SparseIndex;
use crate::ops::SparseOps;
use rayon::prelude::*;
use std::ops::Range;

/// Dimensions of a 3-D structured grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Points in x.
    pub nx: usize,
    /// Points in y.
    pub ny: usize,
    /// Points in z.
    pub nz: usize,
}

impl Geometry {
    /// Creates a geometry (all dimensions must be positive).
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        Geometry { nx, ny, nz }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// `true` for a degenerate empty geometry (never constructible via
    /// [`Geometry::new`], provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of grid point `(ix, iy, iz)` (x fastest).
    #[inline]
    pub fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        ix + self.nx * (iy + self.ny * iz)
    }

    /// `true` if every dimension is even (coarsenable by 2).
    pub fn coarsenable(&self) -> bool {
        self.nx.is_multiple_of(2)
            && self.ny.is_multiple_of(2)
            && self.nz.is_multiple_of(2)
            && self.nx >= 2
            && self.ny >= 2
            && self.nz >= 2
    }

    /// The geometry coarsened by 2 in each dimension.
    pub fn coarsen(&self) -> Geometry {
        assert!(self.coarsenable(), "geometry {self:?} is not coarsenable");
        Geometry {
            nx: self.nx / 2,
            ny: self.ny / 2,
            nz: self.nz / 2,
        }
    }
}

/// Builds the 27-point HPCG operator on `g`, writing the CSR arrays
/// directly in row order: a row's neighbours come out in ascending column
/// order (z, then y, then x), so no sort or merge is needed.
///
/// The stencil factorizes across dimensions, so every z-plane's first
/// entry is known before any row is written: `col_idx` and `vals` are
/// allocated once at their exact size and cut at z-plane boundaries into
/// one contiguous slab of rows per pool thread (on the calling thread
/// alone below the row kernels' size cutoff). Each slab writes its own
/// rows' entries and row pointers, so the arrays are the same on any
/// thread count.
pub fn build_matrix(g: Geometry) -> CsrMatrix {
    build_csr(g)
}

/// Stored entries of the operator on `g`: per dimension of size `m` there
/// are `3m - 2` in-range neighbour pairs, and the stencil factorizes.
pub(crate) fn stencil_nnz(g: Geometry) -> usize {
    (3 * g.nx - 2) * (3 * g.ny - 2) * (3 * g.nz - 2)
}

/// [`build_matrix`] with indices stored as `I`, written at that width
/// from the start. Panics if an index does not fit `I`; callers that
/// build a compact operator check the shape first (`check_compact_bounds`
/// on `g.len()` and [`stencil_nnz`]).
pub(crate) fn build_csr<I: SparseIndex>(g: Geometry) -> Csr<I> {
    let n = g.len();
    let plane = g.nx * g.ny;
    let per_plane = (3 * g.nx - 2) * (3 * g.ny - 2);
    let nnz = stencil_nnz(g);
    let zero = I::narrow(0).expect("0 fits every index type");
    let mut row_ptr = vec![zero; n + 1];
    let mut col_idx = vec![zero; nnz];
    let mut vals = vec![0.0f64; nnz];
    let slabs = kernel_threads(nnz);
    let mut parts = Vec::with_capacity(slabs);
    let (mut ptr_rest, mut col_rest, mut val_rest) =
        (&mut row_ptr[1..], &mut col_idx[..], &mut vals[..]);
    let mut first = 0;
    for t in 0..slabs {
        let z = g.nz * t / slabs..g.nz * (t + 1) / slabs;
        let entries = per_plane * z.clone().map(|iz| near(iz, g.nz).len()).sum::<usize>();
        let (ptr, p) = std::mem::take(&mut ptr_rest).split_at_mut(plane * z.len());
        let (cols, c) = std::mem::take(&mut col_rest).split_at_mut(entries);
        let (vals, v) = std::mem::take(&mut val_rest).split_at_mut(entries);
        (ptr_rest, col_rest, val_rest) = (p, c, v);
        parts.push((z, first, ptr, cols, vals));
        first += entries;
    }
    parts
        .into_par_iter()
        .for_each(|(z, first, ptr, cols, vals)| fill_slab(g, z, first, ptr, cols, vals));
    Csr::from_sorted_rows(n, n, row_ptr, col_idx, vals)
}

/// In-range neighbour indices of `i` along a dimension of size `m`.
fn near(i: usize, m: usize) -> Range<usize> {
    i.saturating_sub(1)..(i + 2).min(m)
}

/// Writes the rows of z-planes `z` of the operator on `g`: their entries
/// into `cols`/`vals` (which start at entry `first`) and the row pointer
/// after each row into `ptr`.
fn fill_slab<I: SparseIndex>(
    g: Geometry,
    z: Range<usize>,
    first: usize,
    ptr: &mut [I],
    cols: &mut [I],
    vals: &mut [f64],
) {
    let index = |i: usize| I::narrow(i).expect("the operator's shape fits its index type");
    let mut k = 0;
    let mut rows = ptr.iter_mut();
    for iz in z {
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let row = g.index(ix, iy, iz);
                for jz in near(iz, g.nz) {
                    for jy in near(iy, g.ny) {
                        for jx in near(ix, g.nx) {
                            let col = g.index(jx, jy, jz);
                            cols[k] = index(col);
                            vals[k] = if col == row { 26.0 } else { -1.0 };
                            k += 1;
                        }
                    }
                }
                *rows.next().expect("one pointer per row") = index(first + k);
            }
        }
    }
    assert_eq!(k, cols.len(), "a slab must fill exactly its entries");
}

/// The HPCG right-hand side: `b = A · 1` (so the exact solution is the
/// all-ones vector), plus that exact solution. Computed with the
/// row-range parallel SpMV, which folds each row as the sequential one
/// does; every format folds a row the same way, so `b` has the same bits
/// whichever format `a` is in and on any thread count.
pub fn build_rhs<A: SparseOps + ?Sized>(a: &A) -> (Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let x_exact = vec![1.0f64; n];
    let mut b = vec![0.0f64; n];
    a.spmv_par(&x_exact, &mut b);
    (b, x_exact)
}

/// Fine-grid index of each coarse-grid point (HPCG's injection operator:
/// coarse point `(i,j,k)` maps to fine point `(2i,2j,2k)`).
pub fn f2c_map(fine: Geometry) -> Vec<usize> {
    let coarse = fine.coarsen();
    let mut f2c = Vec::with_capacity(coarse.len());
    for iz in 0..coarse.nz {
        for iy in 0..coarse.ny {
            for ix in 0..coarse.nx {
                f2c.push(fine.index(2 * ix, 2 * iy, 2 * iz));
            }
        }
    }
    f2c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr32;

    #[test]
    fn geometry_indexing_is_x_fastest() {
        let g = Geometry::new(4, 3, 2);
        assert_eq!(g.len(), 24);
        assert_eq!(g.index(0, 0, 0), 0);
        assert_eq!(g.index(1, 0, 0), 1);
        assert_eq!(g.index(0, 1, 0), 4);
        assert_eq!(g.index(0, 0, 1), 12);
    }

    /// The stencil's `(row, col, value)` triplets from a loop over all 27
    /// offsets that drops the out-of-grid ones.
    fn stencil_triplets(g: Geometry) -> Vec<(usize, usize, f64)> {
        let mut trips = Vec::new();
        let dims = [g.nx as i64, g.ny as i64, g.nz as i64];
        for row in 0..g.len() {
            let p = [row % g.nx, row / g.nx % g.ny, row / (g.nx * g.ny)].map(|v| v as i64);
            for d in 0..27i64 {
                let q = [p[0] + d % 3 - 1, p[1] + d / 3 % 3 - 1, p[2] + d / 9 - 1];
                if q.iter().zip(&dims).all(|(&q, &m)| (0..m).contains(&q)) {
                    let col = (q[0] + dims[0] * (q[1] + dims[1] * q[2])) as usize;
                    trips.push((row, col, if col == row { 26.0 } else { -1.0 }));
                }
            }
        }
        trips
    }

    #[test]
    fn direct_assembly_equals_the_triplet_build() {
        for (nx, ny, nz) in [(1, 1, 1), (5, 1, 3), (2, 3, 4), (7, 6, 5), (16, 16, 16)] {
            let g = Geometry::new(nx, ny, nz);
            let want = CsrMatrix::from_triplets(g.len(), g.len(), stencil_triplets(g));
            let got = build_matrix(g);
            assert!(got.gs_schedule().is_some());
            assert_eq!(got, want, "{g:?}");
        }
    }

    /// The operator written at `u32` width equals the `usize` one
    /// narrowed, schedule included, on one thread and on four (where the
    /// bigger grids split into slabs).
    #[test]
    fn u32_assembly_equals_the_converted_operator() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for (nx, ny, nz) in [(1, 1, 1), (5, 1, 3), (7, 6, 5), (48, 32, 40)] {
            let g = Geometry::new(nx, ny, nz);
            let want = Csr32::try_from(&build_matrix(g)).unwrap();
            assert_eq!(build_csr::<u32>(g), want, "{g:?}");
            assert_eq!(
                pool.install(|| build_csr::<u32>(g)),
                want,
                "{g:?} on 4 threads"
            );
            assert_eq!(stencil_nnz(g), want.nnz(), "{g:?}");
        }
    }

    /// The operator (schedule included) and `b` on 1–4 threads equal the
    /// one-thread ones. The grids split into several slabs, and the thin
    /// one into more threads than it has z-planes.
    #[test]
    fn setup_is_the_same_on_any_thread_count() {
        for g in [Geometry::new(48, 32, 40), Geometry::new(300, 200, 2)] {
            let on = |threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| {
                    let a = build_matrix(g);
                    let b: Vec<u64> = build_rhs(&a).0.iter().map(|v| v.to_bits()).collect();
                    (kernel_threads(a.nnz()), a, b)
                })
            };
            let (_, a1, b1) = on(1);
            for threads in 2..=4 {
                let (slabs, a, b) = on(threads);
                assert!(slabs > 1, "{g:?} must split on {threads} threads");
                assert!(a == a1, "{g:?}: the operator differs on {threads} threads");
                assert!(b == b1, "{g:?}: b differs on {threads} threads");
            }
        }
    }

    #[test]
    fn interior_rows_have_27_entries() {
        let g = Geometry::new(4, 4, 4);
        let a = build_matrix(g);
        let interior = g.index(1, 2, 1);
        assert_eq!(a.row(interior).0.len(), 27);
        // Corner has 8 entries (itself + 7 neighbors).
        assert_eq!(a.row(g.index(0, 0, 0)).0.len(), 8);
    }

    #[test]
    fn matrix_is_symmetric() {
        let a = build_matrix(Geometry::new(4, 3, 3));
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn interior_row_sums_to_zero_boundary_positive() {
        let g = Geometry::new(6, 6, 6);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        // b = A*1 = row sums. Interior: 26 - 26 = 0. Boundary: positive.
        assert!(b[g.index(3, 3, 3)].abs() < 1e-14);
        assert!(b[g.index(0, 0, 0)] > 0.0);
    }

    #[test]
    fn diagonal_is_26() {
        let a = build_matrix(Geometry::new(3, 3, 3));
        assert!(a.diagonal().iter().all(|&d| d == 26.0));
    }

    #[test]
    fn nnz_matches_hpcg_formula() {
        // Total nnz = sum over points of (neighbors in range).
        let g = Geometry::new(4, 4, 4);
        let a = build_matrix(g);
        // Per dimension of size 4, the neighbor-pair count is
        // 2+3+3+2 = 10, and the stencil factorizes across dimensions:
        // nnz = 10^3.
        assert_eq!(a.nnz(), 10 * 10 * 10);
    }

    #[test]
    fn coarsening_and_f2c() {
        let g = Geometry::new(8, 4, 6);
        assert!(g.coarsenable());
        let c = g.coarsen();
        assert_eq!(c, Geometry::new(4, 2, 3));
        let map = f2c_map(g);
        assert_eq!(map.len(), c.len());
        assert_eq!(map[0], 0);
        assert_eq!(map[1], g.index(2, 0, 0));
        // All distinct fine points.
        let mut sorted = map.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), map.len());
    }

    #[test]
    fn odd_geometry_not_coarsenable() {
        assert!(!Geometry::new(5, 4, 4).coarsenable());
        assert!(!Geometry::new(2, 2, 2).coarsen().coarsenable());
    }

    #[test]
    fn operator_is_positive_definite_small() {
        // Dense Cholesky succeeds <=> SPD.
        let a = build_matrix(Geometry::new(3, 3, 2)).to_dense();
        let mut f = a;
        assert!(xsc_core::factor::potrf_unblocked(&mut f).is_ok());
    }
}
