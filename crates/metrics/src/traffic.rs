//! Analytic per-kernel DRAM traffic models.
//!
//! These are the byte-counting analogues of the LAPACK flop formulas in
//! `xsc_core::flops`: given a kernel's shape (and, where it matters, its
//! blocking parameters), they return the [`Traffic`] the kernel must move
//! through DRAM under the documented cache assumptions. The Hierarchical
//! Performance Modeling line of work shows such models are enough to rank
//! algorithms without hardware counters; `xsc` records them through the
//! registry so every measured wall-clock second carries its flop *and*
//! byte bill.
//!
//! Conventions, used consistently below:
//!
//! * `w` is the element width in bytes (8 for `f64`, 4 for `f32`);
//!   sparse index arrays are [`IDX_BYTES`] (`usize`) or [`IDX32_BYTES`]
//!   (`u32`) per entry.
//! * Packing buffers and operand panels sized to fit in cache are **not**
//!   charged — the model counts compulsory DRAM traffic plus the *reload
//!   factors* forced by the loop order (how many times an operand is
//!   re-streamed), which is exactly what distinguishes the packed blocked
//!   GEMM from the naive sweep.
//! * Gathered vector reads (`x[col[j]]` in sparse kernels) are charged
//!   under an explicit [`XGather`] policy: per nonzero (pessimal) or once
//!   per sweep (cache-resident gather window).

use crate::counters::Traffic;

/// Bytes per CSR index entry (`usize` on the 64-bit targets xsc runs on).
pub const IDX_BYTES: u64 = 8;

/// Bytes per compact (`u32`) index entry used by the bandwidth-lean
/// sparse formats (`Csr32`, SELL-C-σ).
pub const IDX32_BYTES: u64 = 4;

/// How a sparse kernel's gathered reads of the `x` vector are charged.
///
/// The two policies bracket reality:
///
/// * [`XGather::PerNnz`] charges one element per stored nonzero — the
///   bandwidth-pessimal bound for huge irregular matrices where every
///   gather misses. This is the legacy `xsc` convention and what the
///   `usize`-index CSR kernels record.
/// * [`XGather::Streamed`] charges `x` once per sweep (`ncols·w`) — the
///   canonical-HPCG convention (`xsc_machine::KernelProfile::hpcg` uses
///   it): for structured stencils the gather window is a couple of grid
///   planes and stays cache-resident, so each `x` element is brought from
///   DRAM once. The compact formats record under this policy; E19 prints
///   both columns for every format so the assumptions stay visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XGather {
    /// One `x` element charged per stored nonzero (pessimal upper bound).
    PerNnz,
    /// `x` streamed once per sweep (cache-resident gather window).
    Streamed,
}

impl XGather {
    fn x_bytes(self, gathers: u64, ncols: u64, w: u64) -> u64 {
        match self {
            XGather::PerNnz => gathers * w,
            XGather::Streamed => ncols * w,
        }
    }
}

/// Traffic of the column-sweep (naive) GEMM `C ← αAB + βC` with
/// `A: m×k`, `B: k×n`, `C: m×n`.
///
/// For every output column the kernel re-streams **all of A** — the
/// reload factor is `n` — which is why this kernel falls off the roofline
/// as soon as `A` outgrows cache:
/// `reads = n·(m·k + k + m)`, `writes = n·m`, `flops = 2mnk`.
pub fn gemm_colsweep(m: usize, n: usize, k: usize, w: u64) -> Traffic {
    let (m, n, k) = (m as u64, n as u64, k as u64);
    Traffic {
        flops: 2 * m * n * k,
        bytes_read: w * n * (m * k + k + m),
        bytes_written: w * n * m,
    }
}

/// Traffic of the BLIS-style packed blocked GEMM with macro-tile
/// parameters `(mc, kc, nc)` (see `xsc_core::gemm`).
///
/// The loop nest `jc → pc → ic` fixes the reload factors:
///
/// * `B` is packed once per `(jc, pc)` block — each element read **once**:
///   `k·n`;
/// * `A` is packed once per `(jc, pc, ic)` block — each element re-read
///   once per column macro-tile: `m·k·⌈n/nc⌉`;
/// * `C` is accumulated once per depth step: read and written
///   `⌈k/kc⌉` times: `2·m·n·⌈k/kc⌉`.
///
/// Packing-buffer traffic is cache-resident by construction and not
/// charged. Parameters are clamped to the problem first, as the kernel
/// clamps them.
pub fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    mc: usize,
    kc: usize,
    nc: usize,
    w: u64,
) -> Traffic {
    let (mu, nu, ku) = (m as u64, n as u64, k as u64);
    let nc = nc.clamp(1, n.max(1));
    let kc = kc.clamp(1, k.max(1));
    let _ = mc; // mc shapes cache residency, not DRAM reload counts
    let n_reloads_a = n.div_ceil(nc) as u64;
    let k_steps = k.div_ceil(kc) as u64;
    Traffic {
        flops: 2 * mu * nu * ku,
        bytes_read: w * (mu * ku * n_reloads_a + ku * nu + mu * nu * k_steps),
        bytes_written: w * mu * nu * k_steps,
    }
}

/// Traffic of `y ← αAx + βy` (dense GEMV, `A: m×n`): `A` streamed once,
/// `x` once, `y` read+written once.
pub fn gemv(m: usize, n: usize, w: u64) -> Traffic {
    let (m, n) = (m as u64, n as u64);
    Traffic {
        flops: 2 * m * n,
        bytes_read: w * (m * n + n + m),
        bytes_written: w * m,
    }
}

/// Traffic of `y ← αx + y` over `n` elements.
pub fn axpy(n: usize, w: u64) -> Traffic {
    let n = n as u64;
    Traffic {
        flops: 2 * n,
        bytes_read: w * 2 * n,
        bytes_written: w * n,
    }
}

/// Traffic of `x ← αx` over `n` elements.
pub fn scal(n: usize, w: u64) -> Traffic {
    let n = n as u64;
    Traffic {
        flops: n,
        bytes_read: w * n,
        bytes_written: w * n,
    }
}

/// Traffic of a dot product over `n`-element vectors.
pub fn dot(n: usize, w: u64) -> Traffic {
    let n = n as u64;
    Traffic {
        flops: 2 * n,
        bytes_read: w * 2 * n,
        bytes_written: 0,
    }
}

/// Traffic of a Euclidean norm over `n` elements.
pub fn nrm2(n: usize, w: u64) -> Traffic {
    let n = n as u64;
    Traffic {
        flops: 2 * n,
        bytes_read: w * n,
        bytes_written: 0,
    }
}

/// Traffic of a triangular solve `op(A)X = αB` with an `n×n` triangle and
/// `m` right-hand sides: the stored triangle is streamed once (it is
/// assumed cache-resident across the right-hand sides), `B` read and
/// written once. `flops = m·n²`.
pub fn trsm(n: usize, m: usize, w: u64) -> Traffic {
    let (n, m) = (n as u64, m as u64);
    Traffic {
        flops: m * n * n,
        bytes_read: w * (n * (n + 1) / 2 + m * n),
        bytes_written: w * m * n,
    }
}

/// Traffic of the symmetric rank-k update `C(n×n) ← αAAᵀ + βC` on one
/// triangle: `A` streamed once, the stored triangle read and written once.
/// `flops = n(n+1)k`.
pub fn syrk(n: usize, k: usize, w: u64) -> Traffic {
    let (n, k) = (n as u64, k as u64);
    let tri = n * (n + 1) / 2;
    Traffic {
        flops: n * (n + 1) * k,
        bytes_read: w * (n * k + tri),
        bytes_written: w * tri,
    }
}

/// Traffic of one CSR SpMV `y ← Ax` with `nrows` rows, `ncols` columns,
/// `nnz` stored entries and `idx_bytes` per stored index:
///
/// * matrix stream: `nnz·(w + idx_bytes)` values+indices plus
///   `(nrows+1)·idx_bytes` row pointers — with `w = 8` this is the
///   "~12 bytes per nonzero" CSR bill with [`IDX32_BYTES`] indices, 16
///   with `usize` ([`IDX_BYTES`]) ones;
/// * `x` charged under the chosen [`XGather`] policy;
/// * `y` written once.
///
/// `flops = 2·nnz`.
pub fn spmv_csr(
    nrows: usize,
    ncols: usize,
    nnz: usize,
    w: u64,
    idx_bytes: u64,
    gather: XGather,
) -> Traffic {
    let (nr, nc, nz) = (nrows as u64, ncols as u64, nnz as u64);
    Traffic {
        flops: 2 * nz,
        bytes_read: nz * (w + idx_bytes) + (nr + 1) * idx_bytes + gather.x_bytes(nz, nc, w),
        bytes_written: w * nr,
    }
}

/// Traffic of one symmetric Gauss–Seidel application over CSR storage
/// (forward + backward sweep, HPCG's `ComputeSYMGS`): each sweep streams
/// the matrix and charges `x` like an [`spmv_csr`], reads `b`, and writes
/// `x` once. `flops = 4·nnz` (HPCG accounting).
pub fn symgs_csr(
    nrows: usize,
    ncols: usize,
    nnz: usize,
    w: u64,
    idx_bytes: u64,
    gather: XGather,
) -> Traffic {
    let sweep = spmv_csr(nrows, ncols, nnz, w, idx_bytes, gather);
    Traffic {
        flops: 2 * sweep.flops,
        bytes_read: 2 * (sweep.bytes_read + w * nrows as u64),
        bytes_written: 2 * sweep.bytes_written,
    }
}

/// Traffic of one SELL-C-σ SpMV: the kernel streams every *stored slot*
/// (`padded_slots` ≥ `nnz` — σ-sorting keeps the padding small), each slot
/// carrying a `w`-byte value and a `u32` column index, plus one chunk
/// offset per chunk. Under [`XGather::PerNnz`] the padded slots are
/// charged too (the kernel really issues those gathers); `flops = 2·nnz`
/// counts only useful work, so padding lowers the reported intensity —
/// exactly the overhead the σ sort exists to minimize.
pub fn spmv_sell(
    nrows: usize,
    ncols: usize,
    nnz: usize,
    padded_slots: usize,
    nchunks: usize,
    w: u64,
    gather: XGather,
) -> Traffic {
    let (nr, nc, nz, pad, ch) = (
        nrows as u64,
        ncols as u64,
        nnz as u64,
        padded_slots as u64,
        nchunks as u64,
    );
    Traffic {
        flops: 2 * nz,
        bytes_read: pad * (w + IDX32_BYTES) + (ch + 1) * IDX_BYTES + gather.x_bytes(pad, nc, w),
        bytes_written: w * nr,
    }
}

/// Traffic of one multicolor symmetric Gauss–Seidel application over
/// SELL-C-σ storage: the sweeps walk only the *real* entries (per-row
/// lengths, `u32` each, are streamed to skip the padding), read `b`,
/// gather `x` per the policy, and write `x` once per sweep.
/// `flops = 4·nnz`.
pub fn symgs_sell(
    nrows: usize,
    ncols: usize,
    nnz: usize,
    nchunks: usize,
    w: u64,
    gather: XGather,
) -> Traffic {
    let (nr, nc, nz, ch) = (nrows as u64, ncols as u64, nnz as u64, nchunks as u64);
    let per_sweep = nz * (w + IDX32_BYTES)
        + (ch + 1) * IDX_BYTES
        + nr * IDX32_BYTES
        + gather.x_bytes(nz, nc, w)
        + nr * w;
    Traffic {
        flops: 4 * nz,
        bytes_read: 2 * per_sweep,
        bytes_written: 2 * w * nr,
    }
}

/// Traffic of one ABFT SpMV checksum cross-check over `n`-element vectors
/// (the column-sum invariant `eᵀ(Ax) = (eᵀA)·x`): a dot of the reference
/// checksum with `x` (`2n`), a pairwise sum of `y` (`n`), and the
/// magnitude-scale pass over both products (`~n`). Streams the checksum
/// vector, `x`, and `y` once each. The guarded SpMV itself records its own
/// traffic; this is the *detector surcharge* only.
pub fn spmv_checksum_check(n: usize, w: u64) -> Traffic {
    let n = n as u64;
    Traffic {
        flops: 4 * n,
        bytes_read: w * 3 * n,
        bytes_written: 0,
    }
}

/// Detector surcharge of one recomputed-vs-recurred residual drift check
/// *on top of* the fused residual recompute (which records its own SpMV
/// traffic): the difference norm streams the recomputed and recurrence
/// residuals once each at `3n` flops (subtract, square, accumulate).
pub fn residual_drift_extra(n: usize, w: u64) -> Traffic {
    let n = n as u64;
    Traffic {
        flops: 3 * n,
        bytes_read: w * 2 * n,
        bytes_written: 0,
    }
}

/// Traffic of blocked right-looking LU with panel width `nb` (the HPL
/// factorization): at each panel step the active `(n-k)×(n-k)` submatrix
/// is streamed once — read and written — which sums to the classic
/// `≈ w·n³/(3·nb)` blocked-LU traffic each way. Computed as the exact
/// panel-step sum, not the asymptotic closed form.
/// `flops = 2n³/3 − n²/2` (LAPACK accounting).
pub fn lu_blocked(n: usize, nb: usize, w: u64) -> Traffic {
    let nb = nb.max(1);
    let mut read = 0u64;
    let mut write = 0u64;
    let mut k = 0usize;
    while k < n {
        let active = (n - k) as u64;
        read += w * active * active;
        write += w * active * active;
        k += nb.min(n - k);
    }
    let nu = n as u64;
    Traffic {
        flops: (2 * nu * nu * nu) / 3 - (nu * nu) / 2,
        bytes_read: read,
        bytes_written: write,
    }
}

/// Traffic of blocked/tiled Cholesky with tile width `nb`: at each panel
/// step the active trailing *triangle* is streamed once (read and
/// written), summing to `≈ w·n³/(6·nb)` each way. Exact panel-step sum.
/// `flops = n³/3 + n²/2 + n/6`.
pub fn cholesky_blocked(n: usize, nb: usize, w: u64) -> Traffic {
    let nb = nb.max(1);
    let mut read = 0u64;
    let mut write = 0u64;
    let mut k = 0usize;
    while k < n {
        let active = (n - k) as u64;
        let tri = active * (active + 1) / 2;
        read += w * tri;
        write += w * tri;
        k += nb.min(n - k);
    }
    let nu = n as u64;
    Traffic {
        flops: (nu * nu * nu) / 3 + (nu * nu) / 2 + nu / 6,
        bytes_read: read,
        bytes_written: write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colsweep_counts_known_shape() {
        // m=2, n=3, k=4: reads = 3·(8 + 4 + 2) = 42 elems, writes 6 elems.
        let t = gemm_colsweep(2, 3, 4, 8);
        assert_eq!(t.flops, 48);
        assert_eq!(t.bytes_read, 8 * 42);
        assert_eq!(t.bytes_written, 8 * 6);
    }

    #[test]
    fn packed_gemm_beats_colsweep_on_big_problems() {
        let naive = gemm_colsweep(512, 512, 512, 8);
        let packed = gemm_packed(512, 512, 512, 128, 256, 512, 8);
        assert!(
            packed.bytes() < naive.bytes() / 50,
            "packing must slash traffic"
        );
        assert_eq!(packed.flops, naive.flops);
    }

    #[test]
    fn packed_gemm_single_tile_case() {
        // Problem fits one macro-tile: A read once, B once, C touched once.
        let t = gemm_packed(64, 64, 64, 128, 256, 512, 8);
        assert_eq!(t.bytes_read, 8 * (64 * 64 + 64 * 64 + 64 * 64) as u64);
        assert_eq!(t.bytes_written, 8 * 64 * 64);
    }

    #[test]
    fn packed_gemm_reload_factors_scale_with_tiles() {
        // n = 2·nc doubles A's reload factor; k = 2·kc doubles C's.
        let base = gemm_packed(100, 100, 100, 128, 100, 100, 8);
        let wide = gemm_packed(100, 200, 100, 128, 100, 100, 8);
        // A traffic doubles twice over (2 tiles × 2× elements of B/C too);
        // just check the A reload term: wide reads A 2×.
        let a_base = 8 * 100 * 100; // one reload of A
        let a_wide = 8 * 100 * 100 * 2; // two reloads of A

        assert_eq!(
            wide.bytes_read - a_wide,
            2 * (base.bytes_read - a_base),
            "non-A terms scale linearly with n"
        );
    }

    #[test]
    fn spmv_csr_counts_match_layout() {
        // nnz·(8 val + idx) + (n+1)·idx rowptr + x gather, write 8n.
        for (idx, gather, read) in [
            (IDX_BYTES, XGather::PerNnz, 2700 * 16 + 101 * 8 + 2700 * 8),
            (IDX32_BYTES, XGather::PerNnz, 2700 * 12 + 101 * 4 + 2700 * 8),
            // Streamed gather: x charged once, not per nonzero.
            (
                IDX32_BYTES,
                XGather::Streamed,
                2700 * 12 + 101 * 4 + 100 * 8,
            ),
        ] {
            let t = spmv_csr(100, 100, 2700, 8, idx, gather);
            assert_eq!(t.flops, 5400);
            assert_eq!(t.bytes_read, read);
            assert_eq!(t.bytes_written, 800);
        }
        let legacy = spmv_csr(100, 100, 2700, 8, IDX_BYTES, XGather::PerNnz);
        let streamed = spmv_csr(100, 100, 2700, 8, IDX_BYTES, XGather::Streamed);
        assert!(streamed.bytes_read < legacy.bytes_read);
        // The headline ratio: usize-CSR pessimal vs u32 CSR streamed is >= 1.5x.
        let lean = spmv_csr(100, 100, 2700, 8, IDX32_BYTES, XGather::Streamed);
        assert!(legacy.bytes() as f64 / lean.bytes() as f64 >= 1.5);
    }

    #[test]
    fn symgs_csr_is_two_spmv_like_sweeps() {
        // (idx, gather, one sweep's reads): matrix + x + b.
        for (idx, gather, per_sweep) in [
            (
                IDX_BYTES,
                XGather::PerNnz,
                2700 * 16 + 101 * 8 + 2700 * 8 + 100 * 8,
            ),
            (
                IDX32_BYTES,
                XGather::Streamed,
                2700 * 12 + 101 * 4 + 100 * 8 + 100 * 8,
            ),
        ] {
            let t = symgs_csr(100, 100, 2700, 8, idx, gather);
            assert_eq!(t.flops, 4 * 2700);
            assert_eq!(t.bytes_read, 2 * per_sweep);
            assert_eq!(t.bytes_written, 2 * 800);
        }
    }

    #[test]
    fn lu_traffic_matches_asymptotic_form() {
        let n = 2048;
        let nb = 128;
        let t = lu_blocked(n, nb, 8);
        let model = 8.0 * (n as f64).powi(3) / (3.0 * nb as f64);
        let got = t.bytes_read as f64;
        assert!(
            (got - model).abs() / model < 0.15,
            "exact sum {got:.3e} vs asymptote {model:.3e}"
        );
        assert_eq!(t.bytes_read, t.bytes_written);
    }

    #[test]
    fn cholesky_is_half_of_lu_traffic() {
        let lu = lu_blocked(1024, 64, 8);
        let ch = cholesky_blocked(1024, 64, 8);
        let ratio = lu.bytes() as f64 / ch.bytes() as f64;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "triangle is half the square: {ratio}"
        );
    }

    #[test]
    fn gemm_intensity_dominates_spmv_intensity() {
        // The paper's compute- vs memory-bound split, in model form: packed
        // GEMM at the quick benchmark size is ≥ 10× the arithmetic
        // intensity of the 27-point-stencil SpMV.
        let g = gemm_packed(256, 256, 256, 128, 256, 512, 8);
        let n = 32 * 32 * 32;
        let s = spmv_csr(n, n, 27 * n, 8, IDX_BYTES, XGather::PerNnz);
        let ig = g.flops as f64 / g.bytes() as f64;
        let is = s.flops as f64 / s.bytes() as f64;
        assert!(
            ig >= 10.0 * is,
            "gemm intensity {ig:.2} must be ≥ 10× spmv intensity {is:.3}"
        );
    }

    #[test]
    fn sell_charges_padding_in_bytes_but_not_flops() {
        // 2700 real entries padded to 3000 slots in 13 chunks.
        let t = spmv_sell(100, 100, 2700, 3000, 13, 8, XGather::Streamed);
        assert_eq!(t.flops, 5400, "padding must not inflate useful flops");
        assert_eq!(t.bytes_read, 3000 * 12 + 14 * 8 + 100 * 8);
        assert_eq!(t.bytes_written, 800);
        // Zero padding degenerates to the u32 CSR matrix stream (different
        // pointer arrays only).
        let sell = spmv_sell(100, 100, 2700, 2700, 13, 8, XGather::Streamed);
        let csr32 = spmv_csr(100, 100, 2700, 8, IDX32_BYTES, XGather::Streamed);
        let ptr_diff = (101 * 4) as i64 - (14 * 8) as i64;
        assert_eq!(csr32.bytes_read as i64 - sell.bytes_read as i64, ptr_diff);
    }

    #[test]
    fn symgs_compact_models_are_two_sweeps() {
        let t = symgs_csr(100, 100, 2700, 8, IDX32_BYTES, XGather::Streamed);
        let s = symgs_sell(100, 100, 2700, 13, 8, XGather::Streamed);
        assert_eq!(s.flops, 4 * 2700);
        let sweep = 2700 * 12 + 14 * 8 + 100 * 4 + 100 * 8 + 100 * 8;
        assert_eq!(s.bytes_read, 2 * sweep);
        // Both compact SymGS models undercut the usize-index model.
        let legacy = symgs_csr(100, 100, 2700, 8, IDX_BYTES, XGather::PerNnz);
        assert!(t.bytes() < legacy.bytes());
        assert!(s.bytes() < legacy.bytes());
    }

    #[test]
    fn abft_detector_surcharges_are_linear_and_cheap() {
        let n = 32 * 32 * 32;
        let check = spmv_checksum_check(n, 8);
        assert_eq!(check.flops, 4 * n as u64);
        assert_eq!(check.bytes_read, 8 * 3 * n as u64);
        assert_eq!(check.bytes_written, 0);
        let drift = residual_drift_extra(n, 8);
        assert_eq!(drift.flops, 3 * n as u64);
        // Both detectors are O(n) against the O(nnz) kernel they guard:
        // under 10 % of one 27-point SpMV's bill.
        let kernel = spmv_csr(n, n, 27 * n, 8, IDX_BYTES, XGather::PerNnz);
        assert!(check.bytes() * 10 < kernel.bytes());
        assert!(drift.bytes() * 10 < kernel.bytes());
    }

    #[test]
    fn blas1_shapes() {
        assert_eq!(axpy(10, 8).flops, 20);
        assert_eq!(axpy(10, 8).bytes(), 8 * 30);
        assert_eq!(dot(10, 8).bytes_written, 0);
        assert_eq!(scal(10, 4).bytes(), 4 * 20);
        assert_eq!(nrm2(10, 8).bytes_read, 80);
        assert_eq!(gemv(3, 5, 8).flops, 30);
        assert_eq!(trsm(4, 2, 8).flops, 32);
        assert_eq!(syrk(3, 2, 8).flops, 24);
    }
}
