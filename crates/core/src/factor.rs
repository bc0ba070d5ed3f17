//! Sequential LAPACK-style factorizations: Cholesky (`potrf`) and LU
//! (`getrf`), unblocked and blocked, plus their solve drivers.
//!
//! These are the *reference engines*: `xsc-dense` layers the tiled/DAG and
//! fork-join parallel versions on top, and every parallel result is tested
//! against these.

use crate::error::{Error, Result};
use crate::gemm::{self, gemm, GemmParams, Transpose};
use crate::matrix::Matrix;
use crate::microkernel::{self, MicroKernel};
use crate::scalar::Scalar;
use crate::syrk::syrk;
use crate::trsm::{trsm, trsv, trsv_slice, Diag, Side, Uplo};
use parking_lot::Mutex;

/// Unblocked right-looking Cholesky: overwrites the lower triangle of `a`
/// with `L` such that `A = L L^T`. The strict upper triangle is not
/// referenced or modified.
pub fn potrf_unblocked<T: Scalar>(a: &mut Matrix<T>) -> Result<()> {
    assert!(a.is_square(), "potrf requires a square matrix");
    let n = a.rows();
    potrf_unblocked_slice(n, a.as_mut_slice(), n)
}

/// [`potrf_unblocked`] on column-major storage: the order-`n` matrix whose
/// column `j` starts at `a[j * lda]`. Only its lower triangle is read or
/// written, and nothing is allocated.
pub fn potrf_unblocked_slice<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<()> {
    assert!(
        n == 0 || (lda >= n && a.len() >= (n - 1) * lda + n),
        "potrf: the matrix does not fit in `a`"
    );
    for j in 0..n {
        let (head, tail) = a.split_at_mut(((j + 1) * lda).min(a.len()));
        let colj = &mut head[j * lda + j..j * lda + n];
        let d = colj[0];
        if d.to_f64() <= 0.0 || d.not_finite() {
            return Err(Error::NotPositiveDefinite { pivot: j });
        }
        let l = d.sqrt();
        colj[0] = l;
        let inv = T::one() / l;
        let lj = &mut colj[1..];
        for v in lj.iter_mut() {
            *v *= inv;
        }
        // Trailing update: A[j+1.., j+1..] -= l_j * l_j^T (lower part only).
        for (c, ccol) in tail.chunks_mut(lda).take(lj.len()).enumerate() {
            let s = lj[c];
            if s == T::zero() {
                continue;
            }
            let col = &mut ccol[j + 1 + c..n];
            for (x, &v) in col.iter_mut().zip(&lj[c..]) {
                *x = (-s).mul_add(v, *x);
            }
        }
    }
    Ok(())
}

/// Blocked right-looking Cholesky with panel width `nb`.
pub fn potrf_blocked<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Result<()> {
    assert!(a.is_square(), "potrf requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    let n = a.rows();
    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        // Diagonal block.
        let mut akk = a.block(k, k, kb, kb);
        potrf_unblocked(&mut akk).map_err(|e| match e {
            Error::NotPositiveDefinite { pivot } => Error::NotPositiveDefinite { pivot: k + pivot },
            other => other,
        })?;
        akk.copy_block_into(0, 0, kb, kb, a, k, k);
        let m2 = n - k - kb;
        if m2 > 0 {
            // Panel below: A21 <- A21 * L11^-T.
            let mut a21 = a.block(k + kb, k, m2, kb);
            trsm(
                Side::Right,
                Uplo::Lower,
                Transpose::Yes,
                Diag::NonUnit,
                T::one(),
                &akk,
                &mut a21,
            );
            a21.copy_block_into(0, 0, m2, kb, a, k + kb, k);
            // Trailing: A22 <- A22 - A21 * A21^T (lower triangle).
            let mut a22 = a.block(k + kb, k + kb, m2, m2);
            syrk(
                Uplo::Lower,
                Transpose::No,
                -T::one(),
                &a21,
                T::one(),
                &mut a22,
            );
            a22.copy_block_into(0, 0, m2, m2, a, k + kb, k + kb);
        }
        k += kb;
    }
    Ok(())
}

/// Solves `A x = b` given the Cholesky factor produced by `potrf_*`
/// (forward then backward substitution). `b` is overwritten with `x`.
pub fn potrf_solve<T: Scalar>(l: &Matrix<T>, b: &mut [T]) {
    trsv(Uplo::Lower, Transpose::No, Diag::NonUnit, l, b);
    trsv(Uplo::Lower, Transpose::Yes, Diag::NonUnit, l, b);
}

/// Unblocked right-looking LU with partial pivoting on columns
/// `[j0, j0+ncols)` of the full matrix `a`, pivoting over rows
/// `[j0, a.rows())`. Row swaps are applied only inside the panel's columns
/// and recorded in `piv` as absolute row indices (`piv[j]` for column
/// `j`); the caller applies them to the other columns. A full-width panel
/// (`j0 == 0`, `ncols == a.cols()`), as the unblocked drivers pass, leaves
/// no other columns. A zero pivot column is left unscaled and the loop goes
/// on, as LAPACK's `getf2` does; the first one is returned as
/// [`Error::Singular`].
///
/// A thin wrapper over the one panel loop, which the blocked step loop
/// behind [`getrf_blocked`] and [`par_getrf`] runs on the panel's columns
/// directly.
pub fn getrf_panel<T: Scalar>(
    a: &mut Matrix<T>,
    j0: usize,
    ncols: usize,
    piv: &mut [usize],
) -> Result<()> {
    let m = a.rows();
    panel_lu(
        &mut a.as_mut_slice()[j0 * m..(j0 + ncols) * m],
        m,
        j0,
        &mut piv[j0..j0 + ncols],
        Pivoting::Partial,
    )
}

/// How the panel loop picks each column's pivot row.
#[derive(Clone, Copy)]
pub(crate) enum Pivoting {
    /// Partial pivoting (GEPP): the largest entry on or below the diagonal.
    Partial,
    /// Tournament pivoting (CALU): the panel's pivot rows are elected up
    /// front from leaves of `block_rows` rows ([`crate::calu`]), then taken
    /// in order without a search.
    Tournament { block_rows: usize },
    /// No pivoting: the diagonal entry.
    None,
}

/// The panel loop: LU of the `piv.len()` columns `cols` (each `ld` long),
/// the first of which is column `j0` of the whole matrix, with pivot rows
/// picked from rows `j0..ld` by `pivoting`. `piv[jj]` receives the
/// absolute row swapped with row `j0 + jj`; swaps stay inside `cols`. A
/// zero pivot leaves its column unscaled and the loop goes on; the first
/// one is returned as [`Error::Singular`].
pub(crate) fn panel_lu<T: Scalar>(
    cols: &mut [T],
    ld: usize,
    j0: usize,
    piv: &mut [usize],
    pivoting: Pivoting,
) -> Result<()> {
    let mut winners = match pivoting {
        Pivoting::Tournament { block_rows } => {
            crate::calu::tournament(cols, ld, j0, piv.len(), block_rows)
        }
        _ => Vec::new(),
    };
    let mut singular = None;
    for (jj, pj) in piv.iter_mut().enumerate() {
        let j = j0 + jj;
        let p = match pivoting {
            // Pivot search in column j, rows j..ld.
            Pivoting::Partial => {
                let col = &cols[jj * ld + j..(jj + 1) * ld];
                let mut p = 0usize;
                let mut pmax = col[0].abs();
                for (i, &v) in col.iter().enumerate().skip(1) {
                    let av = v.abs();
                    if av > pmax {
                        pmax = av;
                        p = i;
                    }
                }
                j + p
            }
            // The next winner; a later one on the row it displaces
            // follows that row.
            Pivoting::Tournament { .. } => {
                let w = winners[jj];
                for later in &mut winners[jj + 1..] {
                    if *later == j {
                        *later = w;
                    }
                }
                w
            }
            Pivoting::None => j,
        };
        *pj = p;
        if p != j {
            for col in cols.chunks_mut(ld) {
                col.swap(j, p);
            }
        }
        let (left, right) = cols.split_at_mut((jj + 1) * ld);
        let lcol = &mut left[jj * ld + j..];
        if lcol[0].abs().to_f64() == 0.0 {
            singular.get_or_insert(j);
            continue;
        }
        let inv = T::one() / lcol[0];
        for v in lcol[1..].iter_mut() {
            *v *= inv;
        }
        // Rank-1 update restricted to the panel columns (stride-1 axpys).
        let l = &lcol[1..];
        for ccol in right.chunks_mut(ld) {
            let s = ccol[j];
            if s == T::zero() {
                continue;
            }
            for (xi, &li) in ccol[j + 1..].iter_mut().zip(l) {
                *xi = (-s).mul_add(li, *xi);
            }
        }
    }
    singular.map_or(Ok(()), |pivot| Err(Error::Singular { pivot }))
}

/// Unblocked LU with partial pivoting of an `m × n` matrix, `m >= n`:
/// overwrites `a` with `L` (unit lower trapezoid) and `U`; returns the
/// pivot vector (`piv[k]` = row swapped with row `k`).
pub fn getrf_unblocked<T: Scalar>(a: &mut Matrix<T>) -> Result<Vec<usize>> {
    let n = a.cols();
    assert!(a.rows() >= n, "getrf_unblocked requires rows >= cols");
    let mut piv = vec![0usize; n];
    getrf_panel(a, 0, n, &mut piv)?;
    Ok(piv)
}

/// [`getrf_unblocked`] of an order-`piv.len()` matrix stored column-major
/// in `a` with no padding: the panel loop with partial pivoting over the
/// whole matrix. `piv` receives the pivot vector; nothing is allocated.
/// After an `Err` the contents of `a` are unspecified.
pub fn getrf_unblocked_slice<T: Scalar>(a: &mut [T], piv: &mut [usize]) -> Result<()> {
    let n = piv.len();
    assert_eq!(a.len(), n * n, "getrf: `a` must hold an n×n matrix");
    panel_lu(a, n, 0, piv, Pivoting::Partial)
}

/// LU without pivoting (numerically safe only for special matrices such as
/// diagonally dominant or randomized/butterfly-preconditioned ones — the
/// keynote's motivation for randomization): the panel loop over the whole
/// matrix as one panel.
pub fn getrf_nopiv<T: Scalar>(a: &mut Matrix<T>) -> Result<()> {
    assert!(a.is_square(), "getrf requires a square matrix");
    let n = a.rows();
    panel_lu(a.as_mut_slice(), n, 0, &mut vec![0; n], Pivoting::None)
}

/// Blocked right-looking LU with partial pivoting: the blocked step loop
/// (see [`par_getrf`]) run on the calling thread, the look-ahead panel
/// first at each step and then the rest of the trailing update. Returns
/// the same bits and pivots as [`par_getrf`], or the same error. After an
/// `Err` the contents of `a` are unspecified.
pub fn getrf_blocked<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Result<Vec<usize>> {
    assert!(a.is_square(), "getrf requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    getrf_steps(a, nb, false, Pivoting::Partial)
}

/// Thread-parallel blocked right-looking LU with partial pivoting — the
/// factorization HPL times. It runs the same step loop as
/// [`getrf_blocked`] and returns the same bits and pivots, or the same
/// error, at every thread count. After an `Err` the contents of `a` are
/// unspecified.
///
/// The first `nb`-wide panel is factored up front (row swaps stay inside
/// the panel). Each step `k` then runs as one [`rayon::broadcast`] with
/// one-step look-ahead: thread 0 updates panel `k+1`'s columns and factors
/// that panel at once, while the other threads update the rest of the
/// trailing matrix, taking column tiles (about four per thread, at most
/// `NC` wide) from a shared queue; thread 0 joins them when its panel is
/// done. Updating a column swaps its rows by panel `k`'s pivots, solves
/// `U12 = L11⁻¹ A12` on it by forward substitution ([`trsv_slice`] on
/// `L11` in place), and updates `A22 -= L21 · U12` by packing `L21` and
/// `U12` straight out of `a` into the packed GEMM loop nest — or the
/// column sweep, by the rule [`crate::gemm::gemm`] applies to the whole
/// update. The row swaps of the columns left of each panel, which no
/// later step reads, are applied in one parallel pass after the last
/// step. Every element sees the same operations in the same order
/// whatever the tiling, so the bits do not depend on the thread count.
pub fn par_getrf<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Result<Vec<usize>> {
    assert!(a.is_square(), "par_getrf requires a square matrix");
    assert!(nb > 0, "block size must be positive");
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let _scope = xsc_metrics::record(
        "hpl_lu",
        xsc_metrics::traffic::lu_blocked(n, nb, std::mem::size_of::<T>() as u64),
    );
    getrf_steps(a, nb, true, Pivoting::Partial)
}

/// Trailing-update column tiles per pool thread in the parallel step loop:
/// enough that the threads even out around the look-ahead panel.
const TILES_PER_THREAD: usize = 4;

/// Runs `lead` and then `work` on every item of `tiles`, and returns what
/// `lead` returned. Without `par`, all of it runs in order on the calling
/// thread. With `par`, it runs as one [`rayon::broadcast`]: thread 0 runs
/// `lead` first, and every thread takes the next item from the shared
/// iterator whenever it is free, until none is left.
fn lead_then_deal<I, R>(
    par: bool,
    lead: impl FnOnce() -> R + Send,
    tiles: I,
    work: impl Fn(I::Item) + Sync,
) -> R
where
    I: Iterator + Send,
    I::Item: Send,
    R: Send,
{
    if !par {
        let out = lead();
        tiles.for_each(work);
        return out;
    }
    let lead = Mutex::new(Some(lead));
    let tiles = Mutex::new(tiles);
    let mut outs = rayon::broadcast(|ctx| {
        let out = if ctx.index() == 0 {
            lead.lock().take().map(|f| f())
        } else {
            None
        };
        loop {
            // The guard drops at the end of this statement: no tile runs
            // under the lock.
            let tile = tiles.lock().next();
            let Some(tile) = tile else { break };
            work(tile);
        }
        out
    });
    outs.swap_remove(0)
        .expect("thread 0 of a broadcast runs the lead")
}

/// Applies the interchanges `swaps` (`swaps[i]`: the row swapped with row
/// `k0 + i`, in order) to one column.
fn swap_rows_in_col<T: Scalar>(col: &mut [T], k0: usize, swaps: &[usize]) {
    for (r, &p) in (k0..).zip(swaps) {
        if p != r {
            col.swap(r, p);
        }
    }
}

/// One step of the loop: its factored panel, which starts at row and
/// column `k` and whose `n`-long columns hold `L11` then `L21`, and how
/// the step's trailing update runs.
struct Step<'a, T> {
    k: usize,
    n: usize,
    swaps: &'a [usize],
    /// `L11` in place: the panel's columns from its diagonal entry on.
    l11: &'a [T],
    l21: Vec<&'a [T]>,
    /// [`gemm::is_small`] of the step's whole trailing update.
    small: bool,
    kernel: MicroKernel,
}

impl<T: Scalar> Step<'_, T> {
    /// Applies the step to the trailing columns `cols`: swap their rows,
    /// `U12 <- L11⁻¹ A12` column by column, then `A22 <- A22 - L21 * U12`.
    fn update(&self, cols: &mut [T]) {
        let (k, n, l11) = (self.k, self.n, self.l11);
        let top = k + self.swaps.len();
        let (u12, mut a22): (Vec<&[T]>, Vec<&mut [T]>) = cols
            .chunks_mut(n)
            .map(|col| {
                swap_rows_in_col(col, k, self.swaps);
                let (head, a22) = col.split_at_mut(top);
                let u12 = &mut head[k..];
                trsv_slice(Uplo::Lower, Transpose::No, Diag::Unit, l11, n, u12);
                (&*u12, a22)
            })
            .unzip();
        gemm::gemm_nn(
            self.small,
            -T::one(),
            &self.l21,
            &u12,
            T::one(),
            &mut a22,
            GemmParams::DEFAULT,
            self.kernel,
        );
    }
}

/// The right-looking step loop behind [`getrf_blocked`] (`par == false`),
/// [`par_getrf`] (`par == true`) and [`crate::calu::calu`]; see
/// [`par_getrf`]. Whether it runs in parallel changes only who updates
/// which tile and how wide the tiles are, never an operation; `pivoting`
/// changes only how each panel picks its pivot rows.
pub(crate) fn getrf_steps<T: Scalar>(
    a: &mut Matrix<T>,
    nb: usize,
    par: bool,
    pivoting: Pivoting,
) -> Result<Vec<usize>> {
    let n = a.rows();
    let mut piv = vec![0usize; n];
    if n == 0 {
        return Ok(piv);
    }
    let kernel = microkernel::global_microkernel();
    let tiles_wanted = if par {
        TILES_PER_THREAD * rayon::current_num_threads()
    } else {
        1
    };
    let data = a.as_mut_slice();
    let kb = nb.min(n);
    panel_lu(&mut data[..kb * n], n, 0, &mut piv[..kb], pivoting)?;
    // Panel k is factored at the top of each step; the step updates the
    // trailing columns and factors panel k + nb.
    let mut k = 0;
    while k + nb < n {
        let next_w = nb.min(n - k - nb);
        let (left, right) = data.split_at_mut((k + nb) * n);
        let (next, rest) = right.split_at_mut(next_w * n);
        let (swaps, next_piv) = piv[k..k + nb + next_w].split_at_mut(nb);
        let n2 = n - k - nb;
        let step = Step {
            k,
            n,
            swaps,
            l11: &left[k * n + k..],
            l21: left[k * n..].chunks(n).map(|col| &col[k + nb..]).collect(),
            small: gemm::is_small(n2, n2, nb),
            kernel,
        };
        let bw = gemm::tile_width(n2 - next_w, GemmParams::DEFAULT.nc, tiles_wanted);
        lead_then_deal(
            par && !rest.is_empty(),
            || {
                step.update(next);
                panel_lu(next, n, k + nb, next_piv, pivoting)
            },
            rest.chunks_mut(bw * n),
            |tile| step.update(tile),
        )?;
        k += nb;
    }
    // Deferred left swaps: the columns of panel p take every later panel's
    // interchanges, in order. No step read them after their own.
    lead_then_deal(
        par && k > 0,
        || (),
        data[..k * n].chunks_mut(nb * n).enumerate(),
        |(p, cols)| {
            let k0 = (p + 1) * nb;
            for col in cols.chunks_mut(n) {
                swap_rows_in_col(col, k0, &piv[k0..]);
            }
        },
    );
    Ok(piv)
}

/// Applies the pivot row swaps from `getrf_*` to a right-hand-side vector.
pub fn apply_pivots<T: Scalar>(piv: &[usize], b: &mut [T]) {
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
}

/// Solves `A x = b` given `getrf_*` output (factor + pivots). `b` is
/// overwritten with `x`.
pub fn getrf_solve<T: Scalar>(lu: &Matrix<T>, piv: &[usize], b: &mut [T]) {
    apply_pivots(piv, b);
    getrf_nopiv_solve(lu, b);
}

/// Solves `Aᵀ x = b` given `getrf_*` output. With the convention
/// `P A = L U`, we have `Aᵀ = Uᵀ Lᵀ P`, so the solve is the two transposed
/// triangular solves followed by the *inverse* pivot permutation.
pub fn getrf_solve_transpose<T: Scalar>(lu: &Matrix<T>, piv: &[usize], b: &mut [T]) {
    trsv(Uplo::Upper, Transpose::Yes, Diag::NonUnit, lu, b);
    trsv(Uplo::Lower, Transpose::Yes, Diag::Unit, lu, b);
    for (k, &p) in piv.iter().enumerate().rev() {
        if p != k {
            b.swap(k, p);
        }
    }
}

/// Solves `A x = b` for a no-pivot factorization.
pub fn getrf_nopiv_solve<T: Scalar>(lu: &Matrix<T>, b: &mut [T]) {
    trsv(Uplo::Lower, Transpose::No, Diag::Unit, lu, b);
    trsv(Uplo::Upper, Transpose::No, Diag::NonUnit, lu, b);
}

/// Reconstructs `L * L^T` from a Cholesky factor (testing helper).
pub fn reconstruct_from_cholesky<T: Scalar>(l_packed: &Matrix<T>) -> Matrix<T> {
    let n = l_packed.rows();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i >= j {
            l_packed.get(i, j)
        } else {
            T::zero()
        }
    });
    let mut out = Matrix::zeros(n, n);
    gemm(
        Transpose::No,
        Transpose::Yes,
        T::one(),
        &l,
        &l,
        T::zero(),
        &mut out,
    );
    out
}

/// Reconstructs `P^T L U` (i.e. the original `A`) from LU output
/// (testing helper).
pub fn reconstruct_from_lu<T: Scalar>(lu: &Matrix<T>, piv: &[usize]) -> Matrix<T> {
    let n = lu.rows();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            T::one()
        } else if i > j {
            lu.get(i, j)
        } else {
            T::zero()
        }
    });
    let u = Matrix::from_fn(n, n, |i, j| if i <= j { lu.get(i, j) } else { T::zero() });
    let mut plu = Matrix::zeros(n, n);
    gemm(
        Transpose::No,
        Transpose::No,
        T::one(),
        &l,
        &u,
        T::zero(),
        &mut plu,
    );
    // Undo the pivoting: swaps were applied in order k = 0..n, so invert in
    // reverse order.
    for k in (0..n).rev() {
        plu.swap_rows(k, piv[k]);
    }
    plu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::norms;

    #[test]
    fn potrf_unblocked_reconstructs() {
        let a = gen::random_spd::<f64>(24, 1);
        let mut f = a.clone();
        potrf_unblocked(&mut f).unwrap();
        let r = reconstruct_from_cholesky(&f);
        assert!(r.approx_eq(&a, 1e-10), "diff {}", r.max_abs_diff(&a));
    }

    #[test]
    fn potrf_blocked_matches_unblocked() {
        for nb in [1, 3, 8, 64] {
            let a = gen::random_spd::<f64>(25, 2);
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            potrf_unblocked(&mut f1).unwrap();
            potrf_blocked(&mut f2, nb).unwrap();
            // Compare lower triangles.
            for j in 0..25 {
                for i in j..25 {
                    assert!(
                        (f1.get(i, j) - f2.get(i, j)).abs() < 1e-10,
                        "nb={nb} mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::<f64>::identity(4);
        a.set(2, 2, -1.0);
        let err = potrf_unblocked(&mut a).unwrap_err();
        assert_eq!(err, Error::NotPositiveDefinite { pivot: 2 });
        // Blocked form reports the same absolute pivot.
        let mut a = Matrix::<f64>::identity(4);
        a.set(2, 2, -1.0);
        let err = potrf_blocked(&mut a, 2).unwrap_err();
        assert_eq!(err, Error::NotPositiveDefinite { pivot: 2 });
    }

    #[test]
    fn potrf_solve_gives_small_residual() {
        let a = gen::random_spd::<f64>(30, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        potrf_blocked(&mut f, 8).unwrap();
        let mut x = b.clone();
        potrf_solve(&f, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn getrf_unblocked_reconstructs() {
        let a = gen::random_matrix::<f64>(20, 20, 4);
        let mut f = a.clone();
        let piv = getrf_unblocked(&mut f).unwrap();
        let r = reconstruct_from_lu(&f, &piv);
        assert!(r.approx_eq(&a, 1e-11), "diff {}", r.max_abs_diff(&a));
    }

    #[test]
    fn getrf_blocked_matches_unblocked() {
        for nb in [1, 4, 7, 32] {
            let a = gen::random_matrix::<f64>(23, 23, 5);
            let mut f1 = a.clone();
            let mut f2 = a.clone();
            let p1 = getrf_unblocked(&mut f1).unwrap();
            let p2 = getrf_blocked(&mut f2, nb).unwrap();
            assert_eq!(p1, p2, "nb={nb} pivot sequence differs");
            assert!(f1.approx_eq(&f2, 1e-10), "nb={nb} factors differ");
        }
    }

    #[test]
    fn getrf_solve_recovers_solution() {
        let a = gen::random_matrix::<f64>(40, 40, 6);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        let piv = getrf_blocked(&mut f, 8).unwrap();
        let mut x = b.clone();
        getrf_solve(&f, &piv, &mut x);
        assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
    }

    #[test]
    fn getrf_detects_singularity() {
        let mut a = Matrix::<f64>::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        // Column 2 is all zeros.
        let err = getrf_unblocked(&mut a).unwrap_err();
        assert!(matches!(err, Error::Singular { .. }));
    }

    #[test]
    fn nopiv_works_on_diag_dominant() {
        let a = gen::diag_dominant::<f64>(25, 7);
        let b = gen::rhs_for_unit_solution(&a);
        let mut f = a.clone();
        getrf_nopiv(&mut f).unwrap();
        let mut x = b.clone();
        getrf_nopiv_solve(&f, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn pivoting_beats_nopiv_on_adversarial_matrix() {
        // Small leading pivot forces element growth without pivoting.
        let n = 16;
        let mut a = gen::random_matrix::<f64>(n, n, 8);
        a.set(0, 0, 1e-14);
        let b = gen::rhs_for_unit_solution(&a);

        let mut fp = a.clone();
        let piv = getrf_unblocked(&mut fp).unwrap();
        let mut xp = b.clone();
        getrf_solve(&fp, &piv, &mut xp);

        let mut fn_ = a.clone();
        getrf_nopiv(&mut fn_).unwrap();
        let mut xn = b.clone();
        getrf_nopiv_solve(&fn_, &mut xn);

        let rp = norms::relative_residual(&a, &xp, &b);
        let rn = norms::relative_residual(&a, &xn, &b);
        assert!(rp < rn, "pivoted {rp} should beat non-pivoted {rn}");
        assert!(rp < 1e-12);
    }

    #[test]
    fn f32_factorizations_work() {
        let a = gen::random_spd::<f32>(16, 9);
        let mut f = a.clone();
        potrf_blocked(&mut f, 4).unwrap();
        let r = reconstruct_from_cholesky(&f);
        assert!(r.approx_eq(&a, 1e-4));
    }
}
