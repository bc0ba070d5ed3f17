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
//!   the whole depth loop, which is what lets the packed GEMM beat the
//!   column sweep in the default build.
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
//! Selection mirrors [`crate::gemm::GemmParams`]: a process-wide default
//! ([`set_global_microkernel`], typically installed by `xsc-autotune`) and
//! an explicit per-call override (`gemm_with_opts`). The default is
//! [`MicroKernel::best_available`] — the widest variant this binary *and*
//! this CPU support, falling back to scalar everywhere else.

use crate::gemm::{MR, NR};
use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};

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

    /// The widest available variant (the default when nothing is
    /// installed; bit-identity makes this swap safe). Falls back to the
    /// scalar kernel structurally — no panic path — since this is called
    /// from the GEMM dispatch hot path.
    pub fn best_available() -> MicroKernel {
        Self::available()
            .last()
            .copied()
            .unwrap_or(MicroKernel::Scalar)
    }
}

impl std::fmt::Display for MicroKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Global selection (0 = unset -> best_available). Mirrors the GemmParams
// global: any interleaving of valid stores is itself a valid selection.
static GLOBAL_MICROKERNEL: AtomicU8 = AtomicU8::new(0);

fn encode(mk: MicroKernel) -> u8 {
    match mk {
        MicroKernel::Scalar => 1,
        MicroKernel::Avx2 => 2,
        MicroKernel::Avx512 => 3,
    }
}

/// Installs `mk` as the process-wide default micro-kernel used by
/// [`crate::gemm::gemm`] / [`crate::gemm::par_gemm`]. Typically called
/// with an autotuned winner (see `xsc-autotune`). An unavailable variant
/// silently resolves to the scalar kernel at dispatch time.
pub fn set_global_microkernel(mk: MicroKernel) {
    GLOBAL_MICROKERNEL.store(encode(mk), Ordering::Relaxed);
}

/// Clears any installed override, restoring [`MicroKernel::best_available`].
pub fn clear_global_microkernel() {
    GLOBAL_MICROKERNEL.store(0, Ordering::Relaxed);
}

/// The micro-kernel `gemm`/`par_gemm` currently dispatch to: the installed
/// override if set, [`MicroKernel::best_available`] otherwise.
pub fn global_microkernel() -> MicroKernel {
    match GLOBAL_MICROKERNEL.load(Ordering::Relaxed) {
        1 => MicroKernel::Scalar,
        2 => MicroKernel::Avx2,
        3 => MicroKernel::Avx512,
        _ => MicroKernel::best_available(),
    }
}

/// A resolved micro-kernel entry point: accumulates `acc[MR x NR] +=
/// Ap * Bp` over `kcb` depth steps of packed panels (see
/// [`crate::gemm`]'s packing routines for the layout).
pub(crate) type MicroKernelFn<T> = fn(usize, &[T], &[T], &mut [T; MR * NR]);

/// Resolves `mk` to a concrete function for element type `T`, falling back
/// to the scalar kernel whenever the requested variant is not implemented
/// for `T` or not runnable on this CPU. The returned function is what the
/// macro-kernel calls in its inner loop, so resolution happens once per
/// GEMM invocation, not once per micro-tile.
pub(crate) fn resolve<T: Scalar>(mk: MicroKernel) -> MicroKernelFn<T> {
    match mk {
        MicroKernel::Scalar => scalar_kernel::<T>,
        MicroKernel::Avx2 | MicroKernel::Avx512 => simd::resolve::<T>(mk),
    }
}

/// Rows of the half tile the scalar kernel keeps in registers at once.
const HALF: usize = MR / 2;

/// The portable scalar micro-kernel: both panels are contiguous and
/// zero-padded, so the loop body is branch-free. It runs the tile as two
/// `MR/2`-row halves, each held in a local `NR x MR/2` array across the
/// whole depth loop. A half's 16 accumulators fit in the 16 SSE2 registers
/// of the `x86_64` baseline with room left for the operands; the full
/// 32-element tile does not, and walking it through memory on every depth
/// step ran the packed GEMM slower than the column sweep. Each element
/// still sees `a * b + acc` in ascending `l`, so the bits match every
/// other variant.
#[inline(always)]
pub(crate) fn scalar_kernel<T: Scalar>(kcb: usize, apan: &[T], bpan: &[T], acc: &mut [T; MR * NR]) {
    half_kernel(kcb, apan, bpan, acc, 0);
    half_kernel(kcb, apan.get(HALF..).unwrap_or_default(), bpan, acc, HALF);
}

/// Rows `row0..row0 + HALF` of [`scalar_kernel`]: `apan` starts at the
/// half's first row, so its depth steps are `MR` apart and the last one is
/// only `HALF` long (hence `chunks`, not `chunks_exact`).
#[inline(always)]
fn half_kernel<T: Scalar>(kcb: usize, apan: &[T], bpan: &[T], acc: &mut [T; MR * NR], row0: usize) {
    let mut c = [[T::zero(); HALF]; NR];
    for (cj, col) in c.iter_mut().zip(acc.chunks_exact(MR)) {
        for (x, &v) in cj.iter_mut().zip(col.iter().skip(row0)) {
            *x = v;
        }
    }
    for (av, bv) in apan.chunks(MR).zip(bpan.chunks_exact(NR)).take(kcb) {
        let (Some((a, _)), Some((b, _))) =
            (av.split_first_chunk::<HALF>(), bv.split_first_chunk::<NR>())
        else {
            break;
        };
        for (cj, &bj) in c.iter_mut().zip(b) {
            for (cij, &ai) in cj.iter_mut().zip(a) {
                *cij = ai.mul_add(bj, *cij);
            }
        }
    }
    for (cj, col) in c.iter().zip(acc.chunks_exact_mut(MR)) {
        for (x, &v) in col.iter_mut().skip(row0).zip(cj) {
            *x = v;
        }
    }
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

    use super::{scalar_kernel, MicroKernel, MicroKernelFn, MR, NR};
    use crate::scalar::Scalar;
    use std::any::TypeId;
    use std::arch::x86_64::*;

    pub(super) fn avx2_available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    pub(super) fn avx512_available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// Picks the concrete kernel for `(variant, T)`; anything without an
    /// implementation (or without CPU support) degrades to scalar, which
    /// is always safe because all variants are bit-identical.
    pub(super) fn resolve<T: Scalar>(mk: MicroKernel) -> MicroKernelFn<T> {
        let t = TypeId::of::<T>();
        if t == TypeId::of::<f64>() {
            match mk {
                MicroKernel::Avx512 if avx512_available() => return f64_avx512_entry::<T>,
                MicroKernel::Avx2 | MicroKernel::Avx512 if avx2_available() => {
                    return f64_avx2_entry::<T>
                }
                _ => {}
            }
        } else if t == TypeId::of::<f32>() && avx2_available() {
            // f32 has no 512-bit kernel (MR = 8 f32 is one 256-bit
            // register already); both SIMD selections use AVX2.
            return f32_avx2_entry::<T>;
        }
        scalar_kernel::<T>
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
    use super::{scalar_kernel, MicroKernel, MicroKernelFn};
    use crate::scalar::Scalar;

    pub(super) fn avx2_available() -> bool {
        false
    }

    pub(super) fn avx512_available() -> bool {
        false
    }

    pub(super) fn resolve<T: Scalar>(_mk: MicroKernel) -> MicroKernelFn<T> {
        scalar_kernel::<T>
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(MicroKernel::Scalar.is_available());
        assert_eq!(MicroKernel::available()[0], MicroKernel::Scalar);
        assert!(MicroKernel::available().contains(&MicroKernel::best_available()));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MicroKernel::Scalar.name(), "scalar");
        assert_eq!(MicroKernel::Avx2.name(), "avx2");
        assert_eq!(MicroKernel::Avx512.name(), "avx512");
        assert_eq!(MicroKernel::Avx2.to_string(), "avx2");
    }

    #[test]
    fn global_selection_install_and_clear() {
        clear_global_microkernel();
        assert_eq!(global_microkernel(), MicroKernel::best_available());
        set_global_microkernel(MicroKernel::Scalar);
        assert_eq!(global_microkernel(), MicroKernel::Scalar);
        set_global_microkernel(MicroKernel::Avx2);
        assert_eq!(global_microkernel(), MicroKernel::Avx2);
        clear_global_microkernel();
        assert_eq!(global_microkernel(), MicroKernel::best_available());
    }

    /// Every selectable variant must produce bit-identical accumulators to
    /// the scalar kernel on an asymmetric panel (k straddling nothing in
    /// particular, values chosen to make rounding order visible).
    #[test]
    fn all_variants_match_scalar_bitwise_f64() {
        let kcb = 13;
        let apan: Vec<f64> = (0..kcb * MR)
            .map(|i| (i as f64).mul_add(0.37, -4.2) / 3.0)
            .collect();
        let bpan: Vec<f64> = (0..kcb * NR)
            .map(|i| (i as f64).mul_add(-0.91, 2.17) / 7.0)
            .collect();
        let mut want = [0.25f64; MR * NR];
        scalar_kernel(kcb, &apan, &bpan, &mut want);
        for mk in MicroKernel::available() {
            let mut got = [0.25f64; MR * NR];
            resolve::<f64>(mk)(kcb, &apan, &bpan, &mut got);
            for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "variant {mk} differs from scalar at acc[{i}]"
                );
            }
        }
    }

    #[test]
    fn all_variants_match_scalar_bitwise_f32() {
        let kcb = 9;
        let apan: Vec<f32> = (0..kcb * MR).map(|i| (i as f32) * 0.311 - 7.3).collect();
        let bpan: Vec<f32> = (0..kcb * NR).map(|i| 1.0 / (i as f32 + 0.5)).collect();
        let mut want = [-1.5f32; MR * NR];
        scalar_kernel(kcb, &apan, &bpan, &mut want);
        for mk in MicroKernel::available() {
            let mut got = [-1.5f32; MR * NR];
            resolve::<f32>(mk)(kcb, &apan, &bpan, &mut got);
            for (w, g) in want.iter().zip(got.iter()) {
                assert_eq!(w.to_bits(), g.to_bits(), "variant {mk} differs (f32)");
            }
        }
    }

    #[test]
    fn kcb_zero_is_a_noop() {
        let mut acc = [3.25f64; MR * NR];
        for mk in MicroKernel::available() {
            resolve::<f64>(mk)(0, &[], &[], &mut acc);
            assert!(acc.iter().all(|&x| x == 3.25), "k == 0 must not touch acc");
        }
    }

    #[test]
    fn unavailable_variants_resolve_to_scalar() {
        // Installing a variant that this binary/CPU cannot run must not
        // change results — dispatch degrades to scalar.
        let kcb = 4;
        let apan = vec![1.5f64; kcb * MR];
        let bpan = vec![-0.25f64; kcb * NR];
        let mut want = [0.0f64; MR * NR];
        scalar_kernel(kcb, &apan, &bpan, &mut want);
        for mk in [MicroKernel::Avx2, MicroKernel::Avx512] {
            let mut got = [0.0f64; MR * NR];
            resolve::<f64>(mk)(kcb, &apan, &bpan, &mut got);
            assert_eq!(want, got);
        }
    }
}
