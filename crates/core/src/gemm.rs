//! General matrix-matrix multiply (the flop furnace of HPL).
//!
//! `gemm` is the compute-bound kernel whose measured rate defines "machine
//! peak" for every %-of-peak experiment in this repository (E01, E10, E11),
//! so it is organized the way the keynote says extreme-scale kernels must
//! be: around data movement, not flops.
//!
//! The optimized path is a BLIS-style blocked algorithm:
//!
//! ```text
//! for jc in 0..n step NC            // C column macro-tiles   (L3 / parallel axis)
//!   for pc in 0..k step KC          // pack B(pc..,jc..) into contiguous panels
//!     for ic in 0..m step MC        // pack alpha*A(ic..,pc..) into panels
//!       for jr in 0..NC step NR     // micro-tile columns
//!         for ir in 0..MC step MR   // micro-tile rows
//!           C(ir..,jr..) += Ap * Bp // MR x NR register micro-kernel
//! ```
//!
//! Operands are packed **once per macro-tile** into contiguous, zero-padded
//! panel buffers (`MR`-row panels of `A`, `NR`-column panels of `B`), so the
//! `MR x NR` micro-kernel streams both operands with unit stride and keeps
//! the whole accumulator tile in registers across the `KC` loop.
//! [`par_gemm`] parallelizes over `NC`-wide column macro-tiles of `C`
//! (each worker re-packing and reusing its own `A` panel across the whole
//! tile) instead of over single columns.
//!
//! [`gemm`] and [`par_gemm`] run with [`GemmParams::DEFAULT`] and
//! [`crate::microkernel::global_microkernel`], the widest bit-identical
//! micro-kernel this binary and CPU support. [`gemm_with_opts`] is the one
//! per-call override of both: `xsc-autotune` sweeps `MC/KC/NC` and the
//! micro-kernel through it and reports the winner. The pre-blocking
//! column-sweep kernel survives as [`colsweep_gemm`], both as the
//! small-problem fast path (packing does not pay below
//! [`SMALL_GEMM_FLOPS`]) and as the measured baseline the benchmark suite
//! compares against.

use crate::matrix::Matrix;
use crate::microkernel::{self, MicroKernel, Resolved};
use crate::scalar::Scalar;
use rayon::prelude::*;
use std::borrow::Cow;

/// Whether an operand enters the product transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Rows of the register micro-tile (micro-kernel computes `MR x NR`).
pub const MR: usize = 8;
/// Columns of the register micro-tile.
pub const NR: usize = 4;

/// Problems with at most this many multiply-adds (`m * n * k`) skip the
/// blocked path: below this size the packing traffic is not amortized and
/// the column-sweep kernel wins.
pub const SMALL_GEMM_FLOPS: usize = 32 * 32 * 32;

/// Cache-blocking parameters of the blocked GEMM loop nest.
///
/// `mc`/`kc` size the packed `A` panel (targets L2), `kc`/`nc` the packed
/// `B` panel (targets L3); `nc` is also the width of the column macro-tiles
/// [`par_gemm`] distributes across workers. Values are normalized before
/// use: `mc` is rounded up to a multiple of [`MR`], `nc` to a multiple of
/// [`NR`], and all three are at least one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmParams {
    /// Row-block height of the packed `A` panel.
    pub mc: usize,
    /// Depth (shared dimension) of both packed panels.
    pub kc: usize,
    /// Column-block width of the packed `B` panel.
    pub nc: usize,
}

impl GemmParams {
    /// Hand-picked defaults: `A` panel 128x256 f64 = 256 KiB (~L2),
    /// `B` panel 256x512 f64 = 1 MiB (~L3 slice). Every [`gemm`],
    /// [`par_gemm`] and LU trailing update uses them; E08 measures other
    /// values through [`gemm_with_opts`].
    pub const DEFAULT: GemmParams = GemmParams {
        mc: 128,
        kc: 256,
        nc: 512,
    };

    /// Rounds the parameters onto the micro-tile grid (`mc` to a multiple
    /// of [`MR`], `nc` to a multiple of [`NR`], everything at least one
    /// block).
    pub fn normalized(self) -> GemmParams {
        GemmParams {
            mc: self.mc.max(1).div_ceil(MR) * MR,
            kc: self.kc.max(1),
            nc: self.nc.max(1).div_ceil(NR) * NR,
        }
    }
}

/// Reference triple-loop multiply: `C <- alpha * op(A) * op(B) + beta * C`.
///
/// Slow but obviously correct; the test suites compare every optimized
/// kernel against this.
pub fn naive_gemm<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k) = op_shape(transa, a);
    let (kb, n) = op_shape(transb, b);
    assert_eq!(k, kb, "gemm inner dimension mismatch: {k} vs {kb}");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::zero();
            for l in 0..k {
                acc += op_get(transa, a, i, l) * op_get(transb, b, l, j);
            }
            let cij = c.get(i, j);
            c.set(i, j, alpha * acc + beta * cij);
        }
    }
}

#[inline(always)]
fn op_shape<T: Scalar>(t: Transpose, a: &Matrix<T>) -> (usize, usize) {
    match t {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    }
}

#[inline(always)]
fn op_get<T: Scalar>(t: Transpose, a: &Matrix<T>, i: usize, j: usize) -> T {
    match t {
        Transpose::No => a.get(i, j),
        Transpose::Yes => a.get(j, i),
    }
}

fn check_shapes<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &Matrix<T>,
) -> (usize, usize, usize) {
    let (m, k) = op_shape(transa, a);
    let (kb, n) = op_shape(transb, b);
    assert_eq!(k, kb, "gemm inner dimension mismatch: {k} vs {kb}");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    (m, k, n)
}

/// Applies `beta` to a slice of `C` (`beta == 0` overwrites, so pre-existing
/// NaN/Inf never propagate).
fn scale_by_beta<T: Scalar>(c: &mut [T], beta: T) {
    if beta == T::one() {
        return;
    }
    if beta == T::zero() {
        c.fill(T::zero());
    } else {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// `op(a)` as a no-transpose operand: `a` itself, or a transposed copy
/// (an O(n^2) copy against O(n^3) work) so the hot loops are always the
/// stride-1 no-transpose case.
fn no_transpose<T: Scalar>(t: Transpose, a: &Matrix<T>) -> Cow<'_, Matrix<T>> {
    match t {
        Transpose::No => Cow::Borrowed(a),
        Transpose::Yes => Cow::Owned(a.transpose()),
    }
}

/// The columns of `a`: the column-list view the no-transpose kernels take.
fn cols<T: Scalar>(a: &Matrix<T>) -> Vec<&[T]> {
    (0..a.cols()).map(|j| a.col(j)).collect()
}

/// The columns of `c`, mutably.
fn cols_mut<T: Scalar>(c: &mut Matrix<T>) -> Vec<&mut [T]> {
    let m = c.rows().max(1);
    c.as_mut_slice().chunks_mut(m).collect()
}

/// Whether [`gemm`] takes the column sweep for an `m x n x k` problem: one
/// narrower than a micro-tile, or with at most [`SMALL_GEMM_FLOPS`]
/// multiply-adds, where packing does not pay.
pub(crate) fn is_small(m: usize, n: usize, k: usize) -> bool {
    n < NR || m.saturating_mul(n).saturating_mul(k) <= SMALL_GEMM_FLOPS
}

/// Width of the column macro-tiles [`par_gemm`] deals out over `workers`:
/// at most `nc`, a multiple of [`NR`], and a whole number of tiles per
/// worker, so the static stripes of the pool carry equal work. The LU step
/// loop asks for several tiles per thread, which its threads take one at
/// a time.
pub(crate) fn tile_width(n: usize, nc: usize, workers: usize) -> usize {
    let workers = workers.max(1);
    let tiles = n.div_ceil(nc.max(1) * workers).max(1) * workers;
    (n.div_ceil(tiles).div_ceil(NR) * NR).max(NR)
}

/// Sequential optimized multiply: `C <- alpha * op(A) * op(B) + beta * C`.
///
/// Dispatches to the blocked packed kernel (see the module docs) with
/// [`GemmParams::DEFAULT`]; small problems take the column-sweep path.
/// Degenerate shapes are handled: `m == 0` or `n == 0` is a no-op, and
/// `k == 0` (or `alpha == 0`) reduces to the pure `beta`-scale of `C`.
pub fn gemm<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    gemm_with_opts(
        transa,
        transb,
        alpha,
        a,
        b,
        beta,
        c,
        GemmParams::DEFAULT,
        microkernel::global_microkernel(),
    );
}

/// [`gemm`] with explicit blocking parameters *and* micro-kernel variant —
/// the fully-pinned entry point the autotuner and the E18 per-variant
/// roofline arm measure through. An unavailable `kernel` silently degrades
/// to the scalar micro-kernel (results are bit-identical either way).
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature plus both tuning knobs
pub fn gemm_with_opts<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
    params: GemmParams,
    kernel: MicroKernel,
) {
    let (m, k, n) = check_shapes(transa, transb, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == T::zero() {
        scale_by_beta(c.as_mut_slice(), beta);
        return;
    }
    let small = is_small(m, n, k);
    let w = std::mem::size_of::<T>() as u64;
    let p = params.normalized();
    let _scope = xsc_metrics::record(
        "gemm",
        if small {
            xsc_metrics::traffic::gemm_colsweep(m, n, k, w)
        } else {
            xsc_metrics::traffic::gemm_packed(m, n, k, p.mc, p.kc, p.nc, w)
        },
    );
    let (a_nn, b_nn) = (no_transpose(transa, a), no_transpose(transb, b));
    gemm_nn(
        small,
        alpha,
        &cols(&a_nn),
        &cols(&b_nn),
        beta,
        &mut cols_mut(c),
        params,
        kernel,
    );
}

/// The no-transpose kernel [`gemm`] runs, on column lists: the column
/// sweep when the whole problem is `small` (see [`is_small`]), the packed
/// loop nest otherwise. The LU step loop calls it tile by tile with the
/// rule applied to its whole trailing update, so its bits match `gemm`'s.
#[allow(clippy::too_many_arguments)] // the no-transpose operand set plus the dispatch and tuning knobs
pub(crate) fn gemm_nn<T: Scalar>(
    small: bool,
    alpha: T,
    a: &[&[T]],
    b: &[&[T]],
    beta: T,
    c: &mut [&mut [T]],
    params: GemmParams,
    kernel: MicroKernel,
) {
    if small {
        colsweep_nn(alpha, a, b, beta, c);
    } else {
        blocked_nn(alpha, a, b, beta, c, params, kernel);
    }
}

/// The pre-blocking column-sweep kernel: for each output column `j`, sweeps
/// the columns of `A` scaled by `B(l, j)` — stride-1 axpy updates, unrolled
/// 4-way over `l`.
///
/// Kept public for two reasons: it is the small-problem fast path of
/// [`gemm`], and it is the measured baseline the E01 experiment (and the
/// `gemm_perf` regression test) compare the blocked kernel against.
pub fn colsweep_gemm<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, _k, n) = check_shapes(transa, transb, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let _scope = xsc_metrics::record(
        "colsweep_gemm",
        xsc_metrics::traffic::gemm_colsweep(m, n, _k, std::mem::size_of::<T>() as u64),
    );
    let (a_nn, b_nn) = (no_transpose(transa, a), no_transpose(transb, b));
    colsweep_nn(alpha, &cols(&a_nn), &cols(&b_nn), beta, &mut cols_mut(c));
}

/// Column-sweep no-transpose kernel (see [`colsweep_gemm`]) on column
/// lists: `a` holds `k` columns and every column of `c` has `m` rows.
fn colsweep_nn<T: Scalar>(alpha: T, a: &[&[T]], b: &[&[T]], beta: T, c: &mut [&mut [T]]) {
    let k = a.len();
    for (ccol, bcol) in c.iter_mut().zip(b) {
        let m = ccol.len();
        scale_by_beta(ccol, beta);
        let mut l = 0;
        while l + 4 <= k {
            let s0 = alpha * bcol[l];
            let s1 = alpha * bcol[l + 1];
            let s2 = alpha * bcol[l + 2];
            let s3 = alpha * bcol[l + 3];
            let a0 = &a[l][..m];
            let a1 = &a[l + 1][..m];
            let a2 = &a[l + 2][..m];
            let a3 = &a[l + 3][..m];
            for i in 0..m {
                let mut v = ccol[i];
                v = s0.mul_add(a0[i], v);
                v = s1.mul_add(a1[i], v);
                v = s2.mul_add(a2[i], v);
                v = s3.mul_add(a3[i], v);
                ccol[i] = v;
            }
            l += 4;
        }
        while l < k {
            let s = alpha * bcol[l];
            let acol = &a[l][..m];
            for i in 0..m {
                ccol[i] = s.mul_add(acol[i], ccol[i]);
            }
            l += 1;
        }
    }
}

/// Packs the `mcb x kcb` block of `A` at `(ic, pc)` into `MR`-row panels:
/// panel `ir/MR` stores, for each depth `l`, the `MR` row entries
/// contiguously (`ap[panel + l*MR + i]`), pre-scaled by `alpha` and
/// zero-padded past the matrix edge so the micro-kernel never branches.
fn pack_a<T: Scalar>(
    a: &[&[T]],
    ic: usize,
    pc: usize,
    mcb: usize,
    kcb: usize,
    alpha: T,
    ap: &mut [T],
) {
    let mut off = 0;
    for ir in (0..mcb).step_by(MR) {
        let mr_eff = MR.min(mcb - ir);
        for l in 0..kcb {
            let src = &a[pc + l][ic + ir..ic + ir + mr_eff];
            let dst = &mut ap[off + l * MR..off + (l + 1) * MR];
            for i in 0..mr_eff {
                dst[i] = alpha * src[i];
            }
            for x in dst.iter_mut().skip(mr_eff) {
                *x = T::zero();
            }
        }
        off += kcb * MR;
    }
}

/// Packs the `kcb x ncb` block of `B` at `(pc, jc)` into `NR`-column
/// panels: panel `jr/NR` stores, for each depth `l`, the `NR` column
/// entries contiguously (`bp[panel + l*NR + j]`), zero-padded at the edge.
fn pack_b<T: Scalar>(b: &[&[T]], pc: usize, jc: usize, kcb: usize, ncb: usize, bp: &mut [T]) {
    let mut off = 0;
    for jr in (0..ncb).step_by(NR) {
        let nr_eff = NR.min(ncb - jr);
        for j in 0..nr_eff {
            let src = &b[jc + jr + j][pc..pc + kcb];
            for (l, &v) in src.iter().enumerate() {
                bp[off + l * NR + j] = v;
            }
        }
        for j in nr_eff..NR {
            for l in 0..kcb {
                bp[off + l * NR + j] = T::zero();
            }
        }
        off += kcb * NR;
    }
}

/// One packed `B` micro-panel in the layout a kernel reading `copies`
/// copies of each entry takes (see [`microkernel::Resolved`]): `bpan`
/// itself for one copy, otherwise each entry written `copies` times in a
/// row into `scratch`.
fn spread<'a, T: Scalar>(bpan: &'a [T], copies: usize, scratch: &'a mut [T]) -> &'a [T] {
    if copies == 1 {
        return bpan;
    }
    let out = &mut scratch[..bpan.len() * copies];
    for (dst, &v) in out.chunks_exact_mut(copies).zip(bpan) {
        dst.fill(v);
    }
    out
}

/// Macro-kernel: sweeps the packed `mcb x kcb` `A` panels against the
/// packed `kcb x ncb` `B` panels, accumulating each `MR x NR` micro-tile
/// into the columns `c` at offset `(ic, jc)`. `beta` has already been
/// applied to `c`. `mk` is the micro-kernel resolved once per GEMM call
/// (see [`crate::microkernel`] — every variant is bit-identical); each `B`
/// micro-panel is [`spread`] into `bcopy` once and read by every row tile.
#[allow(clippy::too_many_arguments)] // packed panels + block geometry; splitting obscures the loop nest
fn macro_kernel<T: Scalar>(
    ap: &[T],
    bp: &[T],
    bcopy: &mut [T],
    mcb: usize,
    ncb: usize,
    kcb: usize,
    c: &mut [&mut [T]],
    ic: usize,
    jc: usize,
    mk: Resolved<T>,
) {
    for jr in (0..ncb).step_by(NR) {
        let nr_eff = NR.min(ncb - jr);
        let bpan = spread(&bp[(jr / NR) * kcb * NR..][..kcb * NR], mk.b_copies, bcopy);
        for ir in (0..mcb).step_by(MR) {
            let mr_eff = MR.min(mcb - ir);
            let apan = &ap[(ir / MR) * kcb * MR..][..kcb * MR];
            let mut acc = [T::zero(); MR * NR];
            (mk.run)(kcb, apan, bpan, &mut acc);
            for j in 0..nr_eff {
                let dst = &mut c[jc + jr + j][ic + ir..][..mr_eff];
                for (i, x) in dst.iter_mut().enumerate() {
                    *x += acc[j * MR + i];
                }
            }
        }
    }
}

/// Blocked no-transpose kernel on column lists: `C <- alpha*A*B + beta*C`,
/// where `a` holds the `k` columns of `A`, `b` one column of `B` per column
/// of `c`, and every column of `c` has `m` rows. Column lists let a caller
/// hand in views of one matrix — the LU update reads `U12` and writes
/// `A22`, rows of the same columns. This is the unit of work [`par_gemm`]
/// hands each worker, so every level of the loop nest (including packing)
/// runs worker-locally.
pub(crate) fn blocked_nn<T: Scalar>(
    alpha: T,
    a: &[&[T]],
    b: &[&[T]],
    beta: T,
    c: &mut [&mut [T]],
    params: GemmParams,
    kernel: MicroKernel,
) {
    let m = c.first().map_or(0, |col| col.len());
    let k = a.len();
    let ncols = c.len();
    for col in c.iter_mut() {
        scale_by_beta(col, beta);
    }
    if k == 0 || alpha == T::zero() || ncols == 0 || m == 0 {
        return;
    }
    let mk = microkernel::resolve::<T>(kernel);
    let p = params.normalized();
    // Clamp panel buffers to the (micro-tile-rounded) problem so tiny
    // multiplies do not allocate full-size panels.
    let kc = p.kc.min(k);
    let mc = p.mc.min(m.div_ceil(MR) * MR);
    let nc = p.nc.min(ncols.div_ceil(NR) * NR);
    let mut ap = vec![T::zero(); mc * kc];
    let mut bp = vec![T::zero(); kc * nc];
    let mut bcopy = vec![T::zero(); kc * NR * mk.b_copies];
    for jc in (0..ncols).step_by(nc) {
        let ncb = nc.min(ncols - jc);
        for pc in (0..k).step_by(kc) {
            let kcb = kc.min(k - pc);
            pack_b(b, pc, jc, kcb, ncb, &mut bp);
            for ic in (0..m).step_by(mc) {
                let mcb = mc.min(m - ic);
                pack_a(a, ic, pc, mcb, kcb, alpha, &mut ap);
                macro_kernel(&ap, &bp, &mut bcopy, mcb, ncb, kcb, c, ic, jc, mk);
            }
        }
    }
}

/// Thread-parallel multiply over `NC`-wide column macro-tiles of `C`.
///
/// Each worker owns a contiguous block of `C`'s columns and runs the full
/// blocked loop nest on it — packing its own `A` panel once per `MC x KC`
/// block and reusing it across the whole macro-tile — instead of the old
/// one-column-per-task sweep. The macro-tiles are at most `NC` wide and
/// come in a whole number per worker, so every worker gets the same share
/// at any shape. This is the "compute-bound kernel" side of the
/// strong-scaling experiment (E10).
pub fn par_gemm<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    par_gemm_with_opts(
        transa,
        transb,
        alpha,
        a,
        b,
        beta,
        c,
        GemmParams::DEFAULT,
        microkernel::global_microkernel(),
    );
}

/// [`par_gemm`] with explicit blocking parameters and micro-kernel variant
/// (see [`gemm_with_opts`]); this file's tests drive it off the defaults.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature plus both tuning knobs
fn par_gemm_with_opts<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
    params: GemmParams,
    kernel: MicroKernel,
) {
    let (m, k, n) = check_shapes(transa, transb, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == T::zero() {
        scale_by_beta(c.as_mut_slice(), beta);
        return;
    }
    if m.saturating_mul(n).saturating_mul(k) <= SMALL_GEMM_FLOPS {
        // Fork-join overhead dominates below the packing cutoff.
        // (Records under "gemm" there, so no double-count here.)
        gemm_with_opts(transa, transb, alpha, a, b, beta, c, params, kernel);
        return;
    }
    let p = params.normalized();
    let _scope = xsc_metrics::record(
        "par_gemm",
        xsc_metrics::traffic::gemm_packed(
            m,
            n,
            k,
            p.mc,
            p.kc,
            p.nc,
            std::mem::size_of::<T>() as u64,
        ),
    );
    let (a_nn, b_nn) = (no_transpose(transa, a), no_transpose(transb, b));
    let (acols, bcols) = (cols(&a_nn), cols(&b_nn));
    let bw = tile_width(n, p.nc, rayon::current_num_threads());
    c.as_mut_slice()
        .par_chunks_mut(m * bw)
        .enumerate()
        .for_each(|(bi, cblock)| {
            let mut ccols: Vec<&mut [T]> = cblock.chunks_mut(m).collect();
            let j0 = bi * bw;
            let bblock = &bcols[j0..j0 + ccols.len()];
            blocked_nn(alpha, &acols, bblock, beta, &mut ccols, p, kernel);
        });
}

/// Matrix-vector multiply: `y <- alpha * op(A) * x + beta * y`.
pub fn gemv<T: Scalar>(trans: Transpose, alpha: T, a: &Matrix<T>, x: &[T], beta: T, y: &mut [T]) {
    let (m, n) = op_shape(trans, a);
    assert_eq!(x.len(), n, "gemv x length mismatch");
    assert_eq!(y.len(), m, "gemv y length mismatch");
    let _scope = xsc_metrics::record(
        "gemv",
        xsc_metrics::traffic::gemv(m, n, std::mem::size_of::<T>() as u64),
    );
    match trans {
        Transpose::No => {
            for yi in y.iter_mut() {
                *yi *= beta;
            }
            for (j, &xj) in x.iter().enumerate() {
                let s = alpha * xj;
                let acol = a.col(j);
                for i in 0..m {
                    y[i] = s.mul_add(acol[i], y[i]);
                }
            }
        }
        Transpose::Yes => {
            for (i, yi) in y.iter_mut().enumerate() {
                let acol = a.col(i);
                let mut acc = T::zero();
                for (l, &al) in acol.iter().enumerate() {
                    acc = al.mul_add(x[l], acc);
                }
                *yi = alpha * acc + beta * *yi;
            }
        }
    }
}

/// Rank-1 update: `A <- A + alpha * x * y^T`.
pub fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], a: &mut Matrix<T>) {
    assert_eq!(x.len(), a.rows(), "ger x length mismatch");
    assert_eq!(y.len(), a.cols(), "ger y length mismatch");
    for (j, &yj) in y.iter().enumerate() {
        let s = alpha * yj;
        let acol = a.col_mut(j);
        for (i, &xi) in x.iter().enumerate() {
            acol[i] = s.mul_add(xi, acol[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_against_naive(
        m: usize,
        k: usize,
        n: usize,
        ta: Transpose,
        tb: Transpose,
        alpha: f64,
        beta: f64,
    ) {
        check_against_naive_with(m, k, n, ta, tb, alpha, beta, GemmParams::DEFAULT);
    }

    #[allow(clippy::too_many_arguments)]
    fn check_against_naive_with(
        m: usize,
        k: usize,
        n: usize,
        ta: Transpose,
        tb: Transpose,
        alpha: f64,
        beta: f64,
        params: GemmParams,
    ) {
        let (ar, ac) = match ta {
            Transpose::No => (m, k),
            Transpose::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Transpose::No => (k, n),
            Transpose::Yes => (n, k),
        };
        let a = gen::random_matrix::<f64>(ar, ac, 1);
        let b = gen::random_matrix::<f64>(br, bc, 2);
        let c0 = gen::random_matrix::<f64>(m, n, 3);

        let mut c_ref = c0.clone();
        naive_gemm(ta, tb, alpha, &a, &b, beta, &mut c_ref);

        let tol = 1e-11 * (k as f64 + 1.0);
        let mut c_opt = c0.clone();
        gemm_with_opts(
            ta,
            tb,
            alpha,
            &a,
            &b,
            beta,
            &mut c_opt,
            params,
            microkernel::global_microkernel(),
        );
        assert!(
            c_ref.approx_eq(&c_opt, tol),
            "gemm mismatch m={m} k={k} n={n} ta={ta:?} tb={tb:?} params={params:?}"
        );

        let mut c_par = c0.clone();
        par_gemm_with_opts(
            ta,
            tb,
            alpha,
            &a,
            &b,
            beta,
            &mut c_par,
            params,
            microkernel::global_microkernel(),
        );
        assert!(
            c_ref.approx_eq(&c_par, tol),
            "par_gemm mismatch m={m} k={k} n={n} ta={ta:?} tb={tb:?} params={params:?}"
        );

        let mut c_sweep = c0.clone();
        colsweep_gemm(ta, tb, alpha, &a, &b, beta, &mut c_sweep);
        assert!(
            c_ref.approx_eq(&c_sweep, tol),
            "colsweep_gemm mismatch m={m} k={k} n={n}"
        );
    }

    #[test]
    fn gemm_all_transpose_combinations() {
        for &ta in &[Transpose::No, Transpose::Yes] {
            for &tb in &[Transpose::No, Transpose::Yes] {
                check_against_naive(13, 7, 9, ta, tb, 1.5, -0.5);
            }
        }
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // beta = 0 must not propagate pre-existing NaN in C.
        let a = Matrix::<f64>::identity(2);
        let b = Matrix::<f64>::identity(2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        c.set(0, 0, f64::NAN);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.approx_eq(&Matrix::identity(2), 0.0));
    }

    #[test]
    fn gemm_sizes_around_unroll_boundary() {
        for k in [1, 3, 4, 5, 8, 11] {
            check_against_naive(6, k, 5, Transpose::No, Transpose::No, 1.0, 0.0);
        }
    }

    #[test]
    fn blocked_path_straddles_every_micro_and_macro_boundary() {
        // Small macro-tiles so block-1/block/block+1 shapes are cheap: the
        // blocked path is forced by sizing every dim past the small cutoff.
        let p = GemmParams {
            mc: 16,
            kc: 12,
            nc: 8,
        };
        for &m in &[15, 16, 17, MR - 1, MR, MR + 1] {
            for &k in &[11, 12, 13] {
                for &n in &[7, 8, 9, NR - 1, NR, NR + 1] {
                    check_against_naive_with(
                        m + 32,
                        k + 32,
                        n + 32,
                        Transpose::No,
                        Transpose::No,
                        1.25,
                        -0.5,
                        p,
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_path_straddles_default_macro_boundaries() {
        // One shape just past each DEFAULT macro-tile edge, on the real
        // parameters (m = MC+1, k = KC+1, n = NC+1).
        let d = GemmParams::DEFAULT;
        check_against_naive_with(
            d.mc + 1,
            d.kc + 1,
            d.nc + 1,
            Transpose::No,
            Transpose::No,
            1.0,
            1.0,
            d,
        );
    }

    #[test]
    fn degenerate_shapes_are_noops_or_beta_scales() {
        // m == 0: no output rows — must not panic (par_chunks_mut(0) did).
        let a = Matrix::<f64>::zeros(0, 3);
        let b = gen::random_matrix::<f64>(3, 5, 1);
        let mut c = Matrix::<f64>::zeros(0, 5);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.rows(), 0);

        // n == 0: no output columns.
        let a = gen::random_matrix::<f64>(4, 3, 1);
        let b = Matrix::<f64>::zeros(3, 0);
        let mut c = Matrix::<f64>::zeros(4, 0);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 1.0, &mut c);
        par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 1.0, &mut c);

        // k == 0: the product is empty, so the call is a pure beta-scale.
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::<f64>::zeros(0, 5);
        let c0 = gen::random_matrix::<f64>(4, 5, 9);
        for kernel in [gemm::<f64>, par_gemm::<f64>, naive_gemm::<f64>] {
            let mut c = c0.clone();
            kernel(Transpose::No, Transpose::No, 1.0, &a, &b, -2.0, &mut c);
            let mut want = c0.clone();
            want.scale(-2.0);
            assert!(c.approx_eq(&want, 1e-15), "k==0 must be a beta-scale");
        }
        // ... and beta == 0 with k == 0 must overwrite NaN.
        let mut c = c0.clone();
        c.set(1, 1, f64::NAN);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.approx_eq(&Matrix::zeros(4, 5), 0.0));
        let mut c = c0.clone();
        c.set(2, 3, f64::NAN);
        par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.approx_eq(&Matrix::zeros(4, 5), 0.0));
    }

    #[test]
    fn alpha_zero_is_beta_scale_even_with_nan_operands() {
        let mut a = gen::random_matrix::<f64>(4, 4, 1);
        a.set(0, 0, f64::NAN);
        let b = gen::random_matrix::<f64>(4, 4, 2);
        let c0 = gen::random_matrix::<f64>(4, 4, 3);
        let mut c = c0.clone();
        gemm(Transpose::No, Transpose::No, 0.0, &a, &b, 2.0, &mut c);
        let mut want = c0.clone();
        want.scale(2.0);
        assert!(c.approx_eq(&want, 1e-15));
    }

    #[test]
    fn params_normalize_onto_micro_grid() {
        let p = GemmParams {
            mc: 1,
            kc: 0,
            nc: 13,
        }
        .normalized();
        assert_eq!(p.mc % MR, 0);
        assert_eq!(p.nc % NR, 0);
        assert!(p.mc >= MR && p.kc >= 1 && p.nc >= NR);
        assert_eq!(p.nc, 16);
    }

    #[test]
    fn microkernel_variants_are_bitwise_identical_through_gemm() {
        // The full blocked path (packing included) must produce the same
        // bits under every available micro-kernel, on shapes that straddle
        // the micro- and macro-tile boundaries and on k == 0.
        let p = GemmParams {
            mc: 16,
            kc: 12,
            nc: 8,
        };
        for &(m, k, n) in &[
            (33, 35, 37),
            (MR * 5 + 3, 13, NR * 9 + 1),
            (40, 0, 40), // k == 0: pure beta-scale on every variant
        ] {
            let a = gen::random_matrix::<f64>(m, k, 5);
            let b = gen::random_matrix::<f64>(k, n, 6);
            let c0 = gen::random_matrix::<f64>(m, n, 7);
            let mut want = c0.clone();
            gemm_with_opts(
                Transpose::No,
                Transpose::No,
                1.5,
                &a,
                &b,
                -0.5,
                &mut want,
                p,
                MicroKernel::Scalar,
            );
            for mk in MicroKernel::available() {
                let mut got = c0.clone();
                gemm_with_opts(
                    Transpose::No,
                    Transpose::No,
                    1.5,
                    &a,
                    &b,
                    -0.5,
                    &mut got,
                    p,
                    mk,
                );
                for (i, (w, g)) in want
                    .as_slice()
                    .iter()
                    .zip(got.as_slice().iter())
                    .enumerate()
                {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "variant {mk} differs at element {i} (m={m} k={k} n={n})"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_update_matches_gemm_on_copied_blocks() {
        // The LU trailing update reads L21 and U12 in place out of one
        // matrix and writes A22 in place, tile by tile. It must give the
        // bits `gemm_with_opts` gives on copies of the three blocks. The
        // offsets are not micro-tile aligned, and the block sizes straddle
        // MR, NR and every macro-tile edge of these parameters, on both
        // sides of the small-problem cutoff.
        let p = GemmParams {
            mc: 16,
            kc: 12,
            nc: 8,
        };
        let mk = microkernel::global_microkernel();
        for &(k0, kb, m2) in &[(3, 13, 17), (5, 25, 41), (9, 24, 47), (MR + 1, 36, 33)] {
            let n = k0 + kb + m2;
            let big = gen::random_matrix::<f64>(n, n, (k0 + kb) as u64);
            let (r, (alpha, beta)) = (k0 + kb, (-0.5, 1.25));

            let mut want = big.clone();
            let mut a22 = big.block(r, r, m2, m2);
            gemm_with_opts(
                Transpose::No,
                Transpose::No,
                alpha,
                &big.block(r, k0, m2, kb),
                &big.block(k0, r, kb, m2),
                beta,
                &mut a22,
                p,
                mk,
            );
            a22.copy_block_into(0, 0, m2, m2, &mut want, r, r);

            let mut got = big.clone();
            let (left, right) = got.as_mut_slice().split_at_mut(r * n);
            let l21: Vec<&[f64]> = left[k0 * n..].chunks(n).map(|c| &c[r..]).collect();
            for tile in right.chunks_mut(tile_width(m2, p.nc, 3) * n) {
                let (u12, mut a22): (Vec<&[f64]>, Vec<&mut [f64]>) = tile
                    .chunks_mut(n)
                    .map(|col| {
                        let (top, bottom) = col.split_at_mut(r);
                        (&top[k0..], bottom)
                    })
                    .unzip();
                let small = is_small(m2, m2, kb);
                gemm_nn(small, alpha, &l21, &u12, beta, &mut a22, p, mk);
            }
            let bits =
                |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&got) == bits(&want),
                "in-place update differs at k0={k0} kb={kb} m2={m2}"
            );
        }
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = gen::random_matrix::<f64>(8, 8, 11);
        let i = Matrix::<f64>::identity(8);
        let mut c = Matrix::<f64>::zeros(8, 8);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &i, 0.0, &mut c);
        assert!(c.approx_eq(&a, 1e-14));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn gemm_rejects_bad_shapes() {
        let a = Matrix::<f64>::zeros(3, 4);
        let b = Matrix::<f64>::zeros(5, 2);
        let mut c = Matrix::<f64>::zeros(3, 2);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn gemv_matches_gemm() {
        let a = gen::random_matrix::<f64>(6, 4, 5);
        let x = gen::random_vector::<f64>(4, 6);
        let xm = Matrix::from_col_major(4, 1, x.clone());
        let mut y = vec![0.0; 6];
        gemv(Transpose::No, 1.0, &a, &x, 0.0, &mut y);
        let mut ym = Matrix::zeros(6, 1);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &xm, 0.0, &mut ym);
        for i in 0..6 {
            assert!((y[i] - ym.get(i, 0)).abs() < 1e-13);
        }
        // Transposed.
        let mut yt = vec![1.0; 4];
        gemv(
            Transpose::Yes,
            2.0,
            &a,
            &gen::random_vector::<f64>(6, 7),
            0.5,
            &mut yt,
        );
        assert!(yt.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ger_is_rank_one_update() {
        let mut a = Matrix::<f64>::zeros(3, 2);
        ger(2.0, &[1.0, 2.0, 3.0], &[10.0, 20.0], &mut a);
        assert_eq!(a.get(2, 1), 2.0 * 3.0 * 20.0);
        assert_eq!(a.get(0, 0), 2.0 * 1.0 * 10.0);
    }
}
