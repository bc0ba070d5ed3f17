//! Micro-kernel variants for the blocked GEMM's `MR x NR` register tile.
//!
//! The blocked GEMM (see [`crate::gemm`]) spends essentially all of its
//! time in one routine: the micro-kernel that accumulates an `MR x NR`
//! tile of `C` from packed, zero-padded panels of `A` and `B`. This module
//! holds every implementation of that routine and the machinery to choose
//! between them:
//!
//! * [`MicroKernel::Scalar`] — the portable baseline: plain Rust, one
//!   multiply-add per element, vectorized only as far as the default
//!   target baseline (SSE2 on `x86_64`) allows. It runs the tile as two
//!   `MR/2`-row halves so each half's accumulators stay in registers for
//!   the whole depth loop, and it reads a packed `B` that stores each
//!   entry once per lane of an SSE2 register, so every operand is a plain
//!   vector load (see `scalar_kernel`).
//! * [`MicroKernel::Avx2`] / [`MicroKernel::Avx512`] — explicit
//!   `std::arch` intrinsic kernels (behind the `simd` cargo feature) that
//!   vectorize across the `MR` independent *rows* of the micro-tile.
//!
//! ## Bit-identity contract
//!
//! Every variant performs, for every output element `acc[j*MR + i]`, the
//! **same scalar operation sequence in the same `k` order**:
//!
//! ```text
//! for l in 0..kcb:  acc[j*MR+i] = a_panel[l*MR+i] * b_panel[l*NR+j] + acc[j*MR+i]
//! ```
//!
//! The SIMD kernels only change *which lanes execute together*, never the
//! per-element operand order or rounding (separate IEEE multiply and add,
//! exactly like [`crate::scalar::Scalar::mul_add`] for `f32`/`f64`, which
//! is deliberately unfused). Results are therefore bit-identical across
//! variants — the determinism suites assert this, and it is what lets the
//! autotuner swap kernels without renegotiating any numerical contract.
//!
//! [`crate::gemm::gemm`], [`crate::gemm::par_gemm`] and the LU trailing
//! update run [`global_microkernel`]: the widest variant this binary *and*
//! this CPU support, falling back to scalar everywhere else. The one
//! per-call override is [`crate::gemm::gemm_with_opts`], which the
//! autotuner and E18's per-variant arms measure through.
//!
//! [`tile_gflops`] and [`mulacc_roof_gflops`] time one tile from L1 and the
//! build's own multiply-add roof: the bottom two rungs of E01's dense
//! ladder and the operands of `gemm_perf`'s micro-kernel gate.

use crate::cast::count_f64;
use crate::gemm::{MR, NR};
use crate::scalar::Scalar;
use std::hint::black_box;
use xsc_metrics::Stopwatch;

/// Identifies one micro-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MicroKernel {
    /// Portable scalar kernel (compiler-vectorized at the target baseline).
    Scalar,
    /// 256-bit AVX2 kernel: 4 `f64` (or 8 `f32`) lanes per vector op.
    /// Requires the `simd` feature, `x86_64`, and runtime AVX2 support.
    Avx2,
    /// 512-bit AVX-512F kernel: 8 `f64` lanes — one register per
    /// micro-tile column. Requires the `simd` feature, `x86_64`, and
    /// runtime AVX-512F support. `f32` problems fall back to the AVX2
    /// kernel (the `MR = 8` tile only fills half a 512-bit register).
    Avx512,
}

impl MicroKernel {
    /// Stable lower-case name used in benchmark tables and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            MicroKernel::Scalar => "scalar",
            MicroKernel::Avx2 => "avx2",
            MicroKernel::Avx512 => "avx512",
        }
    }

    /// `true` if this variant can run in this binary on this CPU.
    pub fn is_available(self) -> bool {
        match self {
            MicroKernel::Scalar => true,
            MicroKernel::Avx2 => simd::avx2_available(),
            MicroKernel::Avx512 => simd::avx512_available(),
        }
    }

    /// Every variant runnable in this binary on this CPU, scalar first.
    /// Without the `simd` feature this is always `[Scalar]`.
    pub fn available() -> Vec<MicroKernel> {
        [MicroKernel::Scalar, MicroKernel::Avx2, MicroKernel::Avx512]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }
}

impl std::fmt::Display for MicroKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The micro-kernel `gemm`/`par_gemm` dispatch to: the widest available
/// variant (bit-identity makes every choice safe). Falls back to the
/// scalar kernel structurally — no panic path — since this is called from
/// the GEMM dispatch hot path.
pub fn global_microkernel() -> MicroKernel {
    MicroKernel::available()
        .last()
        .copied()
        .unwrap_or(MicroKernel::Scalar)
}

/// A micro-kernel entry point: accumulates `acc[MR x NR] += Ap * Bp` over
/// `kcb` depth steps of packed panels (see [`crate::gemm`]'s packing
/// routines for the layout).
pub(crate) type MicroKernelFn<T> = fn(usize, &[T], &[T], &mut [T; MR * NR]);

/// A micro-kernel resolved for element type `T`, with the packed-`B`
/// layout it reads: depth step `l` of a panel holds the `NR` column
/// entries in order, each stored `b_copies` times side by side
/// (`bp[(l*NR + j)*b_copies + r]`). The SIMD kernels broadcast from
/// memory and read one copy; the scalar kernel reads one SSE2 register's
/// worth.
#[derive(Clone, Copy)]
pub(crate) struct Resolved<T> {
    /// The kernel itself.
    pub(crate) run: MicroKernelFn<T>,
    /// Copies of each `B` entry in the packed panel `run` reads.
    pub(crate) b_copies: usize,
}

/// Resolves `mk` to a concrete kernel for element type `T`, falling back
/// to the scalar kernel whenever the requested variant is not implemented
/// for `T` or not runnable on this CPU. The returned kernel is what the
/// macro-kernel calls in its inner loop, so resolution happens once per
/// GEMM invocation, not once per micro-tile.
pub(crate) fn resolve<T: Scalar>(mk: MicroKernel) -> Resolved<T> {
    let simd = match mk {
        MicroKernel::Scalar => None,
        MicroKernel::Avx2 | MicroKernel::Avx512 => simd::resolve::<T>(mk),
    };
    match simd {
        Some(run) => Resolved { run, b_copies: 1 },
        None => scalar::<T>(),
    }
}

/// The scalar kernel for `T`, reading as many copies of each `B` entry as
/// one 16-byte SSE2 register holds `T`s: 2 for `f64`, 4 for `f32`, and
/// one for any other width.
fn scalar<T: Scalar>() -> Resolved<T> {
    fn with<T: Scalar, const R: usize>() -> Resolved<T> {
        Resolved {
            run: scalar_kernel::<T, R>,
            b_copies: R,
        }
    }
    match std::mem::size_of::<T>() {
        8 => with::<T, 2>(),
        4 => with::<T, 4>(),
        _ => with::<T, 1>(),
    }
}

/// Rows of the half tile the scalar kernel keeps in registers at once.
const HALF: usize = MR / 2;

/// The portable scalar micro-kernel: both panels are contiguous and
/// zero-padded, so the loop body is branch-free. It runs the tile as two
/// `MR/2`-row halves, each held in a local `NR x MR/2` array across the
/// whole depth loop: for `f64` on the `x86_64` baseline, a half's 16
/// accumulators are 8 of the 16 SSE2 registers, and its 4 rows of `A` two
/// more. `B` comes with each entry stored `R` times (one register's
/// width), so a run of `R` rows multiplies by a plain vector load of its
/// column's entry. With one copy, SSE2 (which has no `movddup`) spends a
/// shuffle broadcasting every `B` entry, 4 per 16 multiply-adds, which
/// held that kernel to 0.71–0.76 of [`mulacc_roof_gflops`] on a 2-vCPU
/// AVX-512 Xeon. Each element still sees `a * b + acc` in ascending `l`,
/// so the bits match every other variant.
#[inline(always)]
fn scalar_kernel<T: Scalar, const R: usize>(
    kcb: usize,
    apan: &[T],
    bpan: &[T],
    acc: &mut [T; MR * NR],
) {
    half_kernel::<T, R>(kcb, apan, bpan, acc, 0);
    half_kernel::<T, R>(kcb, apan.get(HALF..).unwrap_or_default(), bpan, acc, HALF);
}

/// Rows `row0..row0 + HALF` of [`scalar_kernel`]: `apan` starts at the
/// half's first row, so its depth steps are `MR` apart and the last one is
/// only `HALF` long (hence `chunks`, not `chunks_exact`). Each column's `R`
/// copies of its `B` entry meet `R` consecutive rows.
#[inline(always)]
fn half_kernel<T: Scalar, const R: usize>(
    kcb: usize,
    apan: &[T],
    bpan: &[T],
    acc: &mut [T; MR * NR],
    row0: usize,
) {
    let mut c = [[T::zero(); HALF]; NR];
    for (cj, col) in c.iter_mut().zip(acc.chunks_exact(MR)) {
        for (x, &v) in cj.iter_mut().zip(col.iter().skip(row0)) {
            *x = v;
        }
    }
    for (av, bv) in apan.chunks(MR).zip(bpan.chunks_exact(NR * R)).take(kcb) {
        let Some((a, _)) = av.split_first_chunk::<HALF>() else {
            break;
        };
        for (cj, bj) in c.iter_mut().zip(bv.chunks_exact(R)) {
            for (cr, ar) in cj.chunks_exact_mut(R).zip(a.chunks_exact(R)) {
                for ((x, &ai), &bi) in cr.iter_mut().zip(ar).zip(bj) {
                    *x = ai.mul_add(bi, *x);
                }
            }
        }
    }
    for (cj, col) in c.iter().zip(acc.chunks_exact_mut(MR)) {
        for (x, &v) in col.iter_mut().skip(row0).zip(cj) {
            *x = v;
        }
    }
}

/// Independent multiply-add chains of [`mulacc_roof_gflops`]: 12 SSE2
/// registers of `f64`, enough to cover the add latency on every FP port.
const ROOF_CHAINS: usize = 24;

/// Rows of multiplicands [`mulacc_roof_gflops`] cycles through (12 KiB,
/// L1-resident).
const ROOF_ROWS: usize = 64;

/// The build's own compute roof, in Gflop/s on the calling thread: `steps`
/// rounds of 24 independent `x = a * b + x` chains (12 SSE2 registers of
/// `f64`), written in the scalar kernel's style (unfused
/// [`Scalar::mul_add`], compiler vectorized at the target baseline). Each
/// round reads the next row of an L1-resident table for `a`, as the
/// micro-kernel reads its `A` panel, so no product is loop-invariant.
pub fn mulacc_roof_gflops(steps: usize) -> f64 {
    let a: Vec<f64> = (0..ROOF_ROWS * ROOF_CHAINS)
        .map(|i| 1.0 / count_f64(i as u64 + 2))
        .collect();
    let b = black_box(0.5f64);
    let mut x = [0.0f64; ROOF_CHAINS];
    let sw = Stopwatch::start();
    for row in black_box(&a).chunks_exact(ROOF_CHAINS).cycle().take(steps) {
        for (xi, &ai) in x.iter_mut().zip(row) {
            *xi = Scalar::mul_add(ai, b, *xi);
        }
    }
    let secs = sw.seconds();
    black_box(x);
    2.0 * count_f64((ROOF_CHAINS * steps) as u64) / secs.max(f64::MIN_POSITIVE) / 1e9
}

/// The rate of micro-kernel `mk` on one `f64` tile from L1, in Gflop/s on
/// the calling thread: `calls` runs over the same packed depth-`kcb`
/// panels, each from a zero tile as the macro-kernel starts it.
pub fn tile_gflops(mk: MicroKernel, kcb: usize, calls: usize) -> f64 {
    let k = resolve::<f64>(mk);
    let apan: Vec<f64> = (0..kcb * MR)
        .map(|i| 1.0 / count_f64(i as u64 + 3))
        .collect();
    let bpan: Vec<f64> = (0..kcb * NR * k.b_copies)
        .map(|i| 1.0 - 1.0 / count_f64((i / k.b_copies) as u64 + 2))
        .collect();
    let sw = Stopwatch::start();
    for _ in 0..calls {
        let mut acc = [0.0; MR * NR];
        (k.run)(kcb, black_box(&apan), black_box(&bpan), &mut acc);
        black_box(acc);
    }
    let secs = sw.seconds();
    2.0 * count_f64((MR * NR * kcb * calls) as u64) / secs.max(f64::MIN_POSITIVE) / 1e9
}

/// Explicit-SIMD kernels (the `simd` cargo feature on `x86_64`).
///
/// Lint rule S01 requires a `// SAFETY:` comment on every `unsafe` block;
/// the soundness argument everywhere below is the same two-parter:
/// (1) the caller checked CPU support at runtime before dispatching here,
/// and (2) the packed panels are zero-padded to full `MR`/`NR` blocks, so
/// every vector load/store below stays inside its slice.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod simd {
    // Keep every pointer operation inside an explicit `unsafe` block with
    // its own SAFETY comment, even inside `unsafe fn` bodies.
    #![deny(unsafe_op_in_unsafe_fn)]

    use super::{MicroKernel, MicroKernelFn, MR, NR};
    use crate::scalar::Scalar;
    use std::any::TypeId;
    use std::arch::x86_64::*;

    pub(super) fn avx2_available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    pub(super) fn avx512_available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// Picks the concrete kernel for `(variant, T)`; `None` for anything
    /// without an implementation (or without CPU support), which degrades
    /// to scalar — always safe, because all variants are bit-identical.
    pub(super) fn resolve<T: Scalar>(mk: MicroKernel) -> Option<MicroKernelFn<T>> {
        let t = TypeId::of::<T>();
        if t == TypeId::of::<f64>() {
            match mk {
                MicroKernel::Avx512 if avx512_available() => Some(f64_avx512_entry::<T>),
                MicroKernel::Avx2 | MicroKernel::Avx512 if avx2_available() => {
                    Some(f64_avx2_entry::<T>)
                }
                _ => None,
            }
        } else if t == TypeId::of::<f32>() && avx2_available() {
            // f32 has no 512-bit kernel (MR = 8 f32 is one 256-bit
            // register already); both SIMD selections use AVX2.
            Some(f32_avx2_entry::<T>)
        } else {
            None
        }
    }

    /// Reinterprets the generic panels as `f64` slices and dispatches.
    fn f64_avx2_entry<T: Scalar>(kcb: usize, apan: &[T], bpan: &[T], acc: &mut [T; MR * NR]) {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<f64>());
        // SAFETY: `resolve` hands out this entry only when `T == f64`
        // (TypeId-checked above), so the casts reinterpret at identical
        // layout; AVX2 support was runtime-verified before dispatch.
        unsafe {
            f64_avx2(
                kcb,
                &*(apan as *const [T] as *const [f64]),
                &*(bpan as *const [T] as *const [f64]),
                &mut *(acc as *mut [T; MR * NR] as *mut [f64; MR * NR]),
            );
        }
    }

    /// Reinterprets the generic panels as `f64` slices and dispatches.
    fn f64_avx512_entry<T: Scalar>(kcb: usize, apan: &[T], bpan: &[T], acc: &mut [T; MR * NR]) {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<f64>());
        // SAFETY: same argument as `f64_avx2_entry`, with AVX-512F as the
        // runtime-verified feature.
        unsafe {
            f64_avx512(
                kcb,
                &*(apan as *const [T] as *const [f64]),
                &*(bpan as *const [T] as *const [f64]),
                &mut *(acc as *mut [T; MR * NR] as *mut [f64; MR * NR]),
            );
        }
    }

    /// Reinterprets the generic panels as `f32` slices and dispatches.
    fn f32_avx2_entry<T: Scalar>(kcb: usize, apan: &[T], bpan: &[T], acc: &mut [T; MR * NR]) {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<f32>());
        // SAFETY: `resolve` only hands out this entry when `T == f32`
        // (checked via TypeId above); AVX2 support was verified with
        // `is_x86_feature_detected!` before dispatch.
        unsafe {
            f32_avx2(
                kcb,
                &*(apan as *const [T] as *const [f32]),
                &*(bpan as *const [T] as *const [f32]),
                &mut *(acc as *mut [T; MR * NR] as *mut [f32; MR * NR]),
            );
        }
    }

    /// AVX2 `f64` micro-kernel: each of the `NR = 4` accumulator columns
    /// is two 256-bit registers (rows 0..4 and 4..8); every depth step
    /// broadcasts one `B` element per column and performs the same
    /// unfused multiply-then-add as the scalar kernel, 4 rows per lane.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is supported on the running CPU and that
    /// `apan` holds at least `kcb * MR` and `bpan` at least `kcb * NR`
    /// elements (the packed-panel invariant of `crate::gemm`).
    // SAFETY: callers uphold the `# Safety` contract documented above.
    #[target_feature(enable = "avx2")]
    unsafe fn f64_avx2(kcb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
        debug_assert!(apan.len() >= kcb * MR && bpan.len() >= kcb * NR);
        let ap = apan.as_ptr();
        let bp = bpan.as_ptr();
        let cp = acc.as_mut_ptr();
        // SAFETY: every pointer stays inside its slice — `ap` offsets
        // reach at most `kcb*MR - 4`, `bp` at most `kcb*NR - 1`, `cp` at
        // most `MR*NR - 4`, per the debug_assert and MR=8/NR=4 geometry.
        unsafe {
            let mut c: [[__m256d; 2]; NR] = [[_mm256_setzero_pd(); 2]; NR];
            for (j, cj) in c.iter_mut().enumerate() {
                cj[0] = _mm256_loadu_pd(cp.add(j * MR));
                cj[1] = _mm256_loadu_pd(cp.add(j * MR + 4));
            }
            for l in 0..kcb {
                let a_lo = _mm256_loadu_pd(ap.add(l * MR));
                let a_hi = _mm256_loadu_pd(ap.add(l * MR + 4));
                for (j, cj) in c.iter_mut().enumerate() {
                    let bj = _mm256_set1_pd(*bp.add(l * NR + j));
                    // Unfused mul+add, operand order matching the scalar
                    // kernel's `a.mul_add(b, acc)` = `a * b + acc`.
                    cj[0] = _mm256_add_pd(_mm256_mul_pd(a_lo, bj), cj[0]);
                    cj[1] = _mm256_add_pd(_mm256_mul_pd(a_hi, bj), cj[1]);
                }
            }
            for (j, cj) in c.iter().enumerate() {
                _mm256_storeu_pd(cp.add(j * MR), cj[0]);
                _mm256_storeu_pd(cp.add(j * MR + 4), cj[1]);
            }
        }
    }

    /// AVX-512F `f64` micro-kernel: one 512-bit register holds a full
    /// `MR = 8` accumulator column, so the tile is exactly `NR = 4`
    /// registers. Same unfused multiply-then-add as scalar, 8 rows/lane.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is supported on the running CPU and
    /// the packed-panel length invariant of [`f64_avx2`] holds.
    // SAFETY: callers uphold the `# Safety` contract documented above.
    #[target_feature(enable = "avx512f")]
    unsafe fn f64_avx512(kcb: usize, apan: &[f64], bpan: &[f64], acc: &mut [f64; MR * NR]) {
        debug_assert!(apan.len() >= kcb * MR && bpan.len() >= kcb * NR);
        let ap = apan.as_ptr();
        let bp = bpan.as_ptr();
        let cp = acc.as_mut_ptr();
        // SAFETY: offsets bounded exactly as in `f64_avx2`, with whole
        // columns (8 f64 = one 512-bit register) loaded at `j * MR`.
        unsafe {
            let mut c: [__m512d; NR] = [_mm512_setzero_pd(); NR];
            for (j, cj) in c.iter_mut().enumerate() {
                *cj = _mm512_loadu_pd(cp.add(j * MR));
            }
            for l in 0..kcb {
                let a = _mm512_loadu_pd(ap.add(l * MR));
                for (j, cj) in c.iter_mut().enumerate() {
                    let bj = _mm512_set1_pd(*bp.add(l * NR + j));
                    *cj = _mm512_add_pd(_mm512_mul_pd(a, bj), *cj);
                }
            }
            for (j, cj) in c.iter().enumerate() {
                _mm512_storeu_pd(cp.add(j * MR), *cj);
            }
        }
    }

    /// AVX2 `f32` micro-kernel: `MR = 8` f32 rows fill one 256-bit
    /// register, so the accumulator tile is `NR = 4` registers.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is supported on the running CPU and the
    /// packed-panel length invariant of [`f64_avx2`] holds (in `f32`s).
    // SAFETY: callers uphold the `# Safety` contract documented above.
    #[target_feature(enable = "avx2")]
    unsafe fn f32_avx2(kcb: usize, apan: &[f32], bpan: &[f32], acc: &mut [f32; MR * NR]) {
        debug_assert!(apan.len() >= kcb * MR && bpan.len() >= kcb * NR);
        let ap = apan.as_ptr();
        let bp = bpan.as_ptr();
        let cp = acc.as_mut_ptr();
        // SAFETY: offsets bounded as in `f64_avx2`; each column is 8 f32
        // = one 256-bit register at `j * MR`.
        unsafe {
            let mut c: [__m256; NR] = [_mm256_setzero_ps(); NR];
            for (j, cj) in c.iter_mut().enumerate() {
                *cj = _mm256_loadu_ps(cp.add(j * MR));
            }
            for l in 0..kcb {
                let a = _mm256_loadu_ps(ap.add(l * MR));
                for (j, cj) in c.iter_mut().enumerate() {
                    let bj = _mm256_set1_ps(*bp.add(l * NR + j));
                    *cj = _mm256_add_ps(_mm256_mul_ps(a, bj), *cj);
                }
            }
            for (j, cj) in c.iter().enumerate() {
                _mm256_storeu_ps(cp.add(j * MR), *cj);
            }
        }
    }
}

/// Stub used when the `simd` feature is off (or the target is not
/// `x86_64`): no SIMD variant is ever available, and resolution always
/// lands on the scalar kernel.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod simd {
    use super::{MicroKernel, MicroKernelFn};
    use crate::scalar::Scalar;

    pub(super) fn avx2_available() -> bool {
        false
    }

    pub(super) fn avx512_available() -> bool {
        false
    }

    pub(super) fn resolve<T: Scalar>(_mk: MicroKernel) -> Option<MicroKernelFn<T>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(MicroKernel::Scalar.is_available());
        assert_eq!(MicroKernel::available()[0], MicroKernel::Scalar);
        assert!(MicroKernel::available().contains(&global_microkernel()));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MicroKernel::Scalar.name(), "scalar");
        assert_eq!(MicroKernel::Avx2.name(), "avx2");
        assert_eq!(MicroKernel::Avx512.name(), "avx512");
        assert_eq!(MicroKernel::Avx2.to_string(), "avx2");
    }

    /// The contract every variant meets, element by element: unfused
    /// `a * b + acc` over ascending `l`, on the unreplicated `l*NR + j`
    /// layout of `B`.
    fn naive<T: Scalar>(kcb: usize, a: &[T], b: &[T], acc: &mut [T; MR * NR]) {
        for l in 0..kcb {
            for j in 0..NR {
                for i in 0..MR {
                    acc[j * MR + i] = a[l * MR + i] * b[l * NR + j] + acc[j * MR + i];
                }
            }
        }
    }

    /// `b` in the packed layout `k` reads: each entry `k.b_copies` times.
    fn replicate<T: Scalar>(k: Resolved<T>, b: &[T]) -> Vec<T> {
        b.iter()
            .flat_map(|&x| std::iter::repeat_n(x, k.b_copies))
            .collect()
    }

    fn assert_same<T: Scalar>(want: &[T], got: &[T], what: &str) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            let (w, g) = (w.to_f64().to_bits(), g.to_f64().to_bits());
            assert_eq!(w, g, "{what} differs at element {i}: {w:#x} vs {g:#x}");
        }
    }

    /// Panels whose values make rounding order visible, with exact zeros in
    /// `A` so signed zeros meet the accumulator, and an accumulator that
    /// starts at `specials` (−0, a subnormal, ±∞) among ordinary values.
    fn check_kernels<T: Scalar>(specials: [T; 4]) {
        for kcb in [0, 1, 2, 3, 127, 128, 256] {
            let a: Vec<T> = (0..kcb * MR)
                .map(|i| match i % 11 {
                    0 => T::zero(),
                    r => T::from_f64((r as f64).mul_add(0.37, -2.1) / 3.0),
                })
                .collect();
            let b: Vec<T> = (0..kcb * NR)
                .map(|i| T::from_f64(1.0 / ((i % 17) as f64 - 8.5)))
                .collect();
            let start: [T; MR * NR] = std::array::from_fn(|i| match specials.get(i % 8) {
                Some(&x) => x,
                None => T::from_f64(0.25 * i as f64 - 3.0),
            });
            let mut want = start;
            naive(kcb, &a, &b, &mut want);
            for mk in MicroKernel::available() {
                let k = resolve::<T>(mk);
                let mut got = start;
                (k.run)(kcb, &a, &replicate(k, &b), &mut got);
                assert_same(&want, &got, &format!("{mk} kernel at kcb={kcb}"));
            }
        }
    }

    /// Every variant, the scalar kernel included, performs the scalar
    /// operation sequence of [`naive`] bit for bit.
    #[test]
    fn all_variants_match_scalar_bitwise_f64() {
        check_kernels::<f64>([-0.0, 3.0e-310, f64::INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn all_variants_match_scalar_bitwise_f32() {
        check_kernels::<f32>([-0.0, 3.0e-40, f32::INFINITY, f32::NEG_INFINITY]);
    }

    /// `gemm` through edge tiles (`mr_eff < MR`, `nr_eff < NR`) and a KC
    /// split against the per-element sequence the packed path promises:
    /// `beta * c`, then per depth block an accumulator from zero over
    /// `(alpha * a) * b` in ascending `l`, added to `c`.
    #[test]
    fn gemm_edge_tiles_match_the_naive_sequence_bitwise() {
        use crate::gemm::{gemm_with_opts, GemmParams, Transpose};
        use crate::Matrix;
        let (m, k, n) = (4 * MR + 3, 29, 9 * NR + 1);
        let params = GemmParams {
            mc: 2 * MR,
            kc: 8,
            nc: 3 * NR,
        };
        let (alpha, beta) = (1.5, -0.75);
        let a = Matrix::from_fn(m, k, |i, l| ((i * 7 + l * 3) % 19) as f64 / 7.0 - 1.1);
        let b = Matrix::from_fn(k, n, |l, j| 1.0 / ((l * 5 + j) % 13 + 1) as f64);
        let c0 = Matrix::from_fn(m, n, |i, j| match (i + j) % 9 {
            0 => -0.0,
            1 => 3.0e-310,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            r => r as f64 - 4.5,
        });
        let mut want = c0.clone();
        for j in 0..n {
            for i in 0..m {
                let mut cij = beta * want.get(i, j);
                for pc in (0..k).step_by(params.kc) {
                    let mut acc = 0.0;
                    for l in pc..k.min(pc + params.kc) {
                        acc += (alpha * a.get(i, l)) * b.get(l, j);
                    }
                    cij += acc;
                }
                want.set(i, j, cij);
            }
        }
        for mk in MicroKernel::available() {
            let mut got = c0.clone();
            gemm_with_opts(
                Transpose::No,
                Transpose::No,
                alpha,
                &a,
                &b,
                beta,
                &mut got,
                params,
                mk,
            );
            assert_same(want.as_slice(), got.as_slice(), &format!("{mk} gemm"));
        }
    }

    #[test]
    fn kcb_zero_is_a_noop() {
        let mut acc = [3.25f64; MR * NR];
        for mk in MicroKernel::available() {
            (resolve::<f64>(mk).run)(0, &[], &[], &mut acc);
            assert!(acc.iter().all(|&x| x == 3.25), "k == 0 must not touch acc");
        }
    }

    #[test]
    fn unavailable_variants_resolve_to_scalar() {
        // Requesting a variant that this binary/CPU cannot run must not
        // change results — dispatch degrades to scalar, with its layout.
        let kcb = 4;
        let apan = vec![1.5f64; kcb * MR];
        let bpan = vec![-0.25f64; kcb * NR];
        let mut want = [0.0f64; MR * NR];
        naive(kcb, &apan, &bpan, &mut want);
        for mk in [MicroKernel::Avx2, MicroKernel::Avx512] {
            let k = resolve::<f64>(mk);
            let mut got = [0.0f64; MR * NR];
            (k.run)(kcb, &apan, &replicate(k, &bpan), &mut got);
            assert_eq!(want, got);
        }
    }

    #[test]
    fn probes_report_positive_rates() {
        assert!(mulacc_roof_gflops(1000) > 0.0);
        assert!(tile_gflops(MicroKernel::Scalar, 16, 10) > 0.0);
    }
}
