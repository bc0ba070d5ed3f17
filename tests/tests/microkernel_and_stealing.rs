//! Cross-crate bit-identity suites for PR 8's two performance paths:
//!
//! 1. **Micro-kernel identity** — every [`MicroKernel`] variant compiled into
//!    this binary and runnable on this CPU must produce *bitwise* identical
//!    GEMM results to the scalar reference, including on boundary-straddling
//!    shapes (`m`/`n` not multiples of `MR`/`NR`, `k == 0`) where the packed
//!    panels carry zero padding.
//! 2. **Steal determinism** — the work-stealing executor must produce
//!    bitwise identical numerical results for the same task graph at any
//!    worker count, under every scheduling policy.
//!
//! Compile with `--features simd` to exercise the AVX2/AVX-512 kernels;
//! without it the suites still run (scalar-only) and pin the invariants.

use proptest::prelude::*;
use xsc_core::gemm::{gemm_with_opts, Transpose, MR, NR};
use xsc_core::{factor, gen, GemmParams, Matrix, MicroKernel, TileMatrix};
use xsc_dense::{cholesky, lu};
use xsc_runtime::{fnv1a, Executor, SchedPolicy};

/// FNV-1a fold over the raw bit patterns of a matrix: collisions aside,
/// equal checksums mean bitwise-equal results.
fn bitwise_checksum(m: &Matrix<f64>) -> u64 {
    fnv1a(m.as_slice().iter().map(|x| x.to_bits()))
}

/// Runs one GEMM under (`params`, `kernel`) and returns every output bit.
fn gemm_bits(
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
    params: GemmParams,
    kernel: MicroKernel,
) -> Vec<u64> {
    let a = gen::random_matrix::<f64>(m, k, seed);
    let b = gen::random_matrix::<f64>(k, n, seed.wrapping_add(1));
    let mut c = gen::random_matrix::<f64>(m, n, seed.wrapping_add(2));
    gemm_with_opts(
        Transpose::No,
        Transpose::No,
        1.25,
        &a,
        &b,
        -0.75,
        &mut c,
        params,
        kernel,
    );
    c.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SIMD micro-kernels are bitwise identical to scalar on shapes chosen
    /// to straddle the `MR x NR` register-tile boundary: `m = q*MR + r` with
    /// `r != 0`, `n = q*NR + r` with `r != 0`, and `k` ranging down to 0
    /// (pure `beta*C` scaling). Blocking parameters are drawn small so a
    /// single test case crosses several `MC`/`KC`/`NC` panel edges too.
    #[test]
    fn simd_matches_scalar_bitwise_on_boundary_shapes(
        mq in 0usize..4,
        mr in 1usize..MR, // m deliberately NOT a multiple of MR
        nq in 0usize..4,
        nr in 1usize..NR, // n deliberately NOT a multiple of NR
        k in 0usize..40,  // includes k == 0
        seed in 0u64..1000,
        mc in 1usize..4,
        kc in 1usize..4,
        nc in 1usize..4,
    ) {
        let m = mq * MR + mr;
        let n = nq * NR + nr;
        let params = GemmParams { mc: mc * MR, kc: kc * 8, nc: nc * NR };
        let reference = gemm_bits(m, k, n, seed, params, MicroKernel::Scalar);
        for kernel in MicroKernel::available() {
            let got = gemm_bits(m, k, n, seed, params, kernel);
            prop_assert_eq!(
                &got, &reference,
                "micro-kernel {} diverged from scalar at m={} k={} n={}",
                kernel, m, k, n
            );
        }
    }
}

/// The same tiled Cholesky DAG — affinity-tagged tasks, every policy —
/// yields bitwise identical factors at every worker count. Worker counts
/// above 1 exercise stealing; count 1 pins the PR-5 sequential order.
#[test]
fn stolen_cholesky_is_bitwise_identical_across_worker_counts() {
    let n = 96;
    let nb = 16;
    let a = gen::random_spd::<f64>(n, 77);
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::CriticalPath,
        SchedPolicy::Explicit,
    ] {
        let mut checksums = Vec::new();
        for threads in [1usize, 2, 3, 4, 8] {
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(threads, policy);
            cholesky::cholesky_dag(&tiles, &exec).unwrap();
            checksums.push((
                threads,
                bitwise_checksum(&cholesky::lower_from_tiles(&tiles)),
            ));
        }
        let (_, first) = checksums[0];
        for &(threads, sum) in &checksums {
            assert_eq!(
                sum, first,
                "{policy:?}: {threads}-worker Cholesky diverged from 1-worker"
            );
        }
    }
}

/// Same contract for the tile LU DAG: every worker count yields the same
/// bits as the 1-worker run (stealing changes *when* tasks run, never what
/// they compute), and the result tracks the sequential reference to
/// rounding (the tile algorithm sums in a different order, so bitwise
/// equality across *algorithms* is not expected).
#[test]
fn stolen_lu_is_bitwise_identical_across_worker_counts() {
    let n = 80;
    let nb = 16;
    let a = gen::diag_dominant::<f64>(n, 9);

    let mut reference = a.clone();
    factor::getrf_nopiv(&mut reference).unwrap();

    let mut first = None;
    for threads in [1usize, 2, 4, 8] {
        let tiles = TileMatrix::from_matrix(&a, nb);
        let exec = Executor::new(threads, SchedPolicy::CriticalPath);
        lu::lu_nopiv_dag(&tiles, &exec).unwrap();
        let got = tiles.to_matrix();
        assert!(
            got.approx_eq(&reference, 1e-7),
            "tile LU drifted from the sequential reference: {}",
            got.max_abs_diff(&reference)
        );
        let sum = bitwise_checksum(&got);
        match first {
            None => first = Some(sum),
            Some(f) => assert_eq!(
                sum, f,
                "{threads}-worker tile LU diverged from the 1-worker bits"
            ),
        }
    }
}
