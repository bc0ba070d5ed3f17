//! Golden pins for the dense kernels under HPL: `gemm`, `par_gemm` and the
//! blocked LU `getrf_blocked`, in `f64` and in `f32` (E03's LU-IR factors
//! in `f32` on the same micro-kernel), in the default (scalar) build.
//! `par_getrf` on 1 to 3 threads must hash to the `getrf_blocked`
//! constants. The other LU variants are pinned too: CALU (E14), the
//! no-pivot LU, RBT + no-pivot LU (E09) and the tiled DAG LU, whose tile
//! kernel is the no-pivot LU. So are the random generators all of these
//! inputs come from, and the bits of `run_hpl`'s scaled residual. So are
//! the small-matrix loops: `potrf_unblocked`, `potrf_solve`, `trsv` in all
//! eight `(uplo, trans, diag)` combinations, and xsc-batched's Cholesky and
//! LU factor-and-solve paths with their error text. So are E03's
//! mixed-precision solvers: `lu_ir_solve` in fp32 and fp16,
//! `gmres_ir_solve`, `full_f64_solve`, LU-IR's stall error and
//! `adaptive_solve`'s choice, estimate and solution, which must be the
//! solution of the tier it names. Every
//! micro-kernel variant is bit-identical to the scalar one, so the same
//! constants hold in the `simd` build. A change to the micro-kernel, the
//! packed loop nest, the small-problem dispatch or the LU step loop that
//! moves a single bit shows up here as a hash mismatch.

use xsc_batched::{
    batched_cholesky_solve, batched_getrf, batched_getrf_solve, batched_potrf, Batch,
};
use xsc_bench::fnv1a;
use xsc_core::calu::calu;
use xsc_core::gemm::{self, GemmParams, Transpose, MR, NR};
use xsc_core::trsm::trsv;
use xsc_core::{factor, gen, Diag, Matrix, Scalar, TileMatrix, Uplo};
use xsc_dense::{hpl, lu, rbt};
use xsc_precision::gmres_ir::gmres_ir_solve;
use xsc_precision::ir::full_f64_solve;
use xsc_precision::{adaptive_solve, lu_ir_solve, Half, SolverChoice};
use xsc_runtime::{Executor, SchedPolicy};

/// Hash of every `gemm` output over [`shapes`], in order.
const GEMM: u64 = 0x5cb1_06fe_a5d6_b34d;

/// Hash of every `par_gemm` output over [`shapes`], in order.
const PAR_GEMM: u64 = 0x5cb1_06fe_a5d6_b34d;

/// `(n, nb, hash of the factors then the pivots)` of `getrf_blocked`.
const GETRF_BLOCKED: [(usize, usize, u64); 3] = [
    (37, 8, 0x50c6_79ad_c48d_1f78),
    (300, 64, 0x13dc_f794_5f3f_98da),
    (517, 128, 0x0297_e6ee_26e4_a152),
];

/// [`GEMM`] for `f32` operands.
const GEMM_F32: u64 = 0xe2ba_f120_d631_d535;

/// [`PAR_GEMM`] for `f32` operands.
const PAR_GEMM_F32: u64 = 0xe2ba_f120_d631_d535;

/// [`GETRF_BLOCKED`] for `f32` operands.
const GETRF_BLOCKED_F32: [(usize, usize, u64); 3] = [
    (37, 8, 0xc65b_04ee_f419_1a32),
    (300, 64, 0x94b9_1323_13e9_2c30),
    (517, 128, 0x97ed_e15e_4851_478a),
];

/// `(n, nb, block_rows, hash of the factors then the pivots)` of `calu` on
/// the matrix [`getrf_hash`] factors; n=60 ends on a ragged panel.
const CALU: [(usize, usize, usize, u64); 3] = [
    (48, 8, 16, 0x2f90_6356_30ef_8dab),
    (60, 12, 24, 0x425d_a9f5_4447_6274),
    (300, 64, 128, 0x9a60_e6de_9ada_cea9),
];

/// `(n, hash of the factors)` of `getrf_nopiv` on `gen::diag_dominant(n, n)`.
const GETRF_NOPIV: [(usize, u64); 2] = [(37, 0x0a9e_706f_85d4_46f3), (300, 0x88dc_1bd1_b808_6f24)];

/// Hash of the solution `rbt_lu(a, 2, 77)` gives on E09's system at n=64:
/// the random matrix seeded 31 with a `1e-13` leading pivot.
const RBT_LU: u64 = 0xe473_125d_9fbf_5cc4;

/// Hash of the factors `lu_nopiv_dag` gives on one worker with 16-wide
/// tiles, on `gen::diag_dominant(80, 80)`.
const LU_NOPIV_DAG: u64 = 0xd904_0a3d_3755_88ea;

/// `(n, nb, seed, bits of the scaled residual)` of `run_hpl(n, nb, seed)`.
const RUN_HPL: [(usize, usize, u64, u64); 3] = [
    (96, 32, 42, 0x3f77_3721_d002_6c1c),
    (300, 64, 7, 0x3f73_5669_1d5c_cf67),
    (517, 128, 3, 0x3f70_f05e_2d3a_c5d6),
];

/// `(rows, cols, seed, hash)` of `gen::random_matrix::<f64>`. The last
/// size is large enough for the generator to fill it on several threads.
const RANDOM_MATRIX: [(usize, usize, u64, u64); 3] = [
    (37, 23, 5, 0x3c83_8e81_16e8_a69f),
    (64, 64, 6, 0xc436_69b2_a1a3_5ba1),
    (1024, 1024, 11, 0x1948_1ede_2479_4075),
];

/// `(rows, cols, seed, hash)` of `gen::random_matrix::<f32>`. The last
/// size is large enough to fill on several threads and has an odd column
/// count.
const RANDOM_MATRIX_F32: [(usize, usize, u64, u64); 2] = [
    (37, 23, 5, 0x9cb7_2d71_d84c_9077),
    (700, 501, 12, 0x9d02_4e5b_c003_a215),
];

/// `(n, seed, hash)` of `gen::random_vector::<f64>`. The last length is
/// large enough to fill on several threads and splits unevenly over 2, 3
/// or 4 of them.
const RANDOM_VECTOR: [(usize, u64, u64); 2] = [
    (41, 8, 0x0ae9_a402_7a9b_6bbb),
    (300_001, 13, 0x34b8_064d_0519_e1e7),
];

/// `(n, hash)` of `batched_potrf` on 7 SPD matrices of order `n`, element
/// `k` seeded `100 n + k`.
const BATCHED_POTRF: [(usize, u64); 3] = [
    (1, 0x06aa_513a_99c8_aeed),
    (5, 0x0b0e_b76f_d70e_358e),
    (16, 0xd5db_72c8_d1d7_32c8),
];

/// `(n, count, hash)` of [`BATCHED_POTRF`] for `f32`, seeds from 500.
const BATCHED_POTRF_F32: (usize, usize, u64) = (6, 4, 0x793e_fbe9_f4fc_ae65);

/// Hash of the solutions `batched_cholesky_solve` gives for 6 SPD matrices
/// of order 8 (seeds from 600) and 3 random right-hand sides each (seeds
/// from 700).
const BATCHED_CHOLESKY_SOLVE: u64 = 0x0ba1_f6ce_924f_bd9f;

/// Hash of the factors then pivots `batched_getrf` gives on 5 random
/// matrices of order 9 (seeds from 800).
const BATCHED_GETRF: u64 = 0x71d1_3826_3b6a_4590;

/// Hash of the solutions `batched_getrf_solve` gives from the
/// [`BATCHED_GETRF`] factors for 2 random right-hand sides each (seeds
/// from 900).
const BATCHED_GETRF_SOLVE: u64 = 0x16f9_cf4a_ca3f_1a92;

/// `batched_potrf`'s error for a batch whose element 3 is not SPD.
const BATCHED_POTRF_ERROR: &str = "invalid argument: batch element 3 not SPD at pivot 1";

/// `batched_getrf`'s error for a batch whose element 1 is zero.
const BATCHED_GETRF_ERROR: &str = "invalid argument: batch element 1 singular at pivot 0";

/// Hash of the factor `potrf_unblocked` gives on `gen::random_spd(29, 29)`,
/// then of `potrf_solve`'s solution for the unit-solution right-hand side.
const POTRF_UNBLOCKED: u64 = 0xf8d7_c372_3c5c_02be;

/// Hash of `trsv`'s solutions in all eight `(uplo, trans, diag)`
/// combinations, on the order-23 random matrix seeded 23 with 4 added to its
/// diagonal and the random vector seeded 24.
const TRSV: u64 = 0xe00a_636d_cb78_f9ca;

/// `(m, k, n)` shapes on both sides of the small-problem cutoff, and ones
/// that straddle `MR`, `NR` and each default macro-tile edge.
fn shapes() -> Vec<(usize, usize, usize)> {
    let d = GemmParams::DEFAULT;
    vec![
        // Column-sweep path: under the flop cutoff, or narrower than NR.
        (13, 7, 9),
        (40, 33, NR - 1),
        // Packed path.
        (MR * 5 + 3, 37, NR * 9 + 1),
        (d.mc - 1, d.kc + 1, NR * 3),
        (d.mc + MR + 1, 2 * d.kc + 3, d.nc + NR + 1),
    ]
}

/// The bits of every entry, widened to `f64` first: the identity on `f64`
/// and lossless on `f32`, so one hash covers both element types.
fn bits<T: Scalar>(m: &Matrix<T>) -> impl Iterator<Item = u64> + '_ {
    slice_bits(m.as_slice())
}

type GemmFn<T> = fn(Transpose, Transpose, T, &Matrix<T>, &Matrix<T>, T, &mut Matrix<T>);

/// Runs `kernel` over every shape and transpose pair with `alpha` and
/// `beta` outside {0, 1}, and hashes all outputs.
fn gemm_hash<T: Scalar>(kernel: GemmFn<T>) -> u64 {
    let mut words = Vec::new();
    for (s, (m, k, n)) in shapes().into_iter().enumerate() {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let (ar, ac) = if ta == Transpose::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Transpose::No { (k, n) } else { (n, k) };
                let seed = 10 * s as u64;
                let a = gen::random_matrix::<T>(ar, ac, seed + 1);
                let b = gen::random_matrix::<T>(br, bc, seed + 2);
                let mut c = gen::random_matrix::<T>(m, n, seed + 3);
                kernel(ta, tb, T::from_f64(1.5), &a, &b, T::from_f64(-0.75), &mut c);
                words.extend(bits(&c));
            }
        }
    }
    fnv1a(words)
}

#[test]
fn gemm_outputs_match_golden_hash() {
    assert_eq!(
        gemm_hash::<f64>(gemm::gemm),
        GEMM,
        "gemm output bits changed"
    );
    assert_eq!(
        gemm_hash::<f32>(gemm::gemm),
        GEMM_F32,
        "f32 gemm output bits changed"
    );
}

#[test]
fn par_gemm_outputs_match_golden_hash() {
    assert_eq!(
        gemm_hash::<f64>(gemm::par_gemm),
        PAR_GEMM,
        "par_gemm output bits changed"
    );
    assert_eq!(
        gemm_hash::<f32>(gemm::par_gemm),
        PAR_GEMM_F32,
        "f32 par_gemm output bits changed"
    );
}

/// Hash of the factors then pivots `lu` gives on the order-`n` random
/// matrix seeded with `n`.
fn getrf_hash<T: Scalar>(
    n: usize,
    nb: usize,
    lu: impl FnOnce(&mut Matrix<T>, usize) -> xsc_core::Result<Vec<usize>>,
) -> u64 {
    let mut a = gen::random_matrix::<T>(n, n, n as u64);
    let piv = lu(&mut a, nb).expect("random matrix is nonsingular");
    fnv1a(bits(&a).chain(piv.iter().map(|&p| p as u64)))
}

#[test]
fn getrf_blocked_factors_match_golden_hash() {
    for (n, nb, want) in GETRF_BLOCKED {
        let got = getrf_hash::<f64>(n, nb, factor::getrf_blocked);
        assert_eq!(got, want, "getrf_blocked bits changed at n={n} nb={nb}");
    }
    for (n, nb, want) in GETRF_BLOCKED_F32 {
        let got = getrf_hash::<f32>(n, nb, factor::getrf_blocked);
        assert_eq!(got, want, "f32 getrf_blocked bits changed at n={n} nb={nb}");
    }
}

/// `par_getrf` gives `getrf_blocked`'s bits on every thread count, so it
/// hashes to the same constants.
#[test]
fn par_getrf_factors_match_getrf_blocked_golden_hash() {
    for threads in 1..=3 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for (n, nb, want) in GETRF_BLOCKED {
                let got = getrf_hash::<f64>(n, nb, factor::par_getrf);
                assert_eq!(
                    got, want,
                    "par_getrf bits at n={n} nb={nb} threads={threads}"
                );
            }
            for (n, nb, want) in GETRF_BLOCKED_F32 {
                let got = getrf_hash::<f32>(n, nb, factor::par_getrf);
                assert_eq!(
                    got, want,
                    "f32 par_getrf bits at n={n} nb={nb} threads={threads}"
                );
            }
        });
    }
}

#[test]
fn calu_factors_match_golden_hash() {
    for (n, nb, br, want) in CALU {
        let got = getrf_hash::<f64>(n, nb, |a, nb| calu(a, nb, br));
        assert_eq!(got, want, "calu bits changed at n={n} nb={nb} br={br}");
    }
}

#[test]
fn nopiv_lu_factors_match_golden_hash() {
    for (n, want) in GETRF_NOPIV {
        let mut a = gen::diag_dominant::<f64>(n, n as u64);
        factor::getrf_nopiv(&mut a).expect("diagonally dominant");
        assert_eq!(fnv1a(bits(&a)), want, "getrf_nopiv bits changed at n={n}");
    }

    let n = 64;
    let mut a = gen::random_matrix::<f64>(n, n, 31);
    a.set(0, 0, 1e-13);
    let mut x = gen::rhs_for_unit_solution(&a);
    rbt::rbt_lu(&a, 2, 77)
        .expect("butterflies remove the tiny pivot")
        .solve(&mut x);
    let got = fnv1a(x.iter().map(|v| v.to_bits()));
    assert_eq!(got, RBT_LU, "rbt_lu solution bits changed");

    let a = gen::diag_dominant::<f64>(80, 80);
    let tiles = TileMatrix::from_matrix(&a, 16);
    lu::lu_nopiv_dag(&tiles, &Executor::new(1, SchedPolicy::CriticalPath))
        .expect("diagonally dominant");
    let got = fnv1a(bits(&tiles.to_matrix()));
    assert_eq!(got, LU_NOPIV_DAG, "lu_nopiv_dag bits changed");
}

/// The generators every HPL input and most pinned inputs above come from.
#[test]
fn random_generators_match_golden_hash() {
    for (m, n, seed, want) in RANDOM_MATRIX {
        let got = fnv1a(bits(&gen::random_matrix::<f64>(m, n, seed)));
        assert_eq!(got, want, "random_matrix bits changed at {m}x{n}");
    }
    for (m, n, seed, want) in RANDOM_MATRIX_F32 {
        let got = fnv1a(bits(&gen::random_matrix::<f32>(m, n, seed)));
        assert_eq!(got, want, "f32 random_matrix bits changed at {m}x{n}");
    }
    for (n, seed, want) in RANDOM_VECTOR {
        let v = gen::random_vector::<f64>(n, seed);
        assert_eq!(
            fnv1a(v.iter().map(|x| x.to_bits())),
            want,
            "random_vector bits changed at n={n}"
        );
    }
}

/// HPL's scaled residual, bit for bit: it moves if the generators, the LU,
/// the solves or the residual fold change order.
#[test]
fn run_hpl_scaled_residual_matches_golden_bits() {
    for (n, nb, seed, want) in RUN_HPL {
        let res = hpl::run_hpl(n, nb, seed).expect("random matrix is nonsingular");
        assert_eq!(
            res.scaled_residual.to_bits(),
            want,
            "run_hpl scaled residual bits changed at n={n} nb={nb} seed={seed}"
        );
    }
}

/// [`bits`] of a column-major slice.
fn slice_bits<T: Scalar>(xs: &[T]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_f64().to_bits())
}

/// A batch of `count` SPD matrices of order `n`, element `k` seeded `seed + k`.
fn spd_batch<T: Scalar>(n: usize, count: usize, seed: u64) -> Batch<T> {
    let ms: Vec<Matrix<T>> = (0..count)
        .map(|k| gen::random_spd(n, seed + k as u64))
        .collect();
    Batch::from_matrices(&ms)
}

/// A batch of `count` random `rows × cols` matrices, element `k` seeded
/// `seed + k`.
fn random_batch(rows: usize, cols: usize, count: usize, seed: u64) -> Batch<f64> {
    let ms: Vec<Matrix<f64>> = (0..count)
        .map(|k| gen::random_matrix(rows, cols, seed + k as u64))
        .collect();
    Batch::from_matrices(&ms)
}

/// Hash of every element's bits, in order.
fn batch_hash<T: Scalar>(b: &Batch<T>) -> u64 {
    fnv1a((0..b.count()).flat_map(move |k| slice_bits(b.matrix(k))))
}

#[test]
fn batched_factorizations_and_solves_match_golden_hash() {
    for (n, want) in BATCHED_POTRF {
        let mut b = spd_batch::<f64>(n, 7, 100 * n as u64);
        batched_potrf(&mut b).expect("SPD batch");
        let got = batch_hash(&b);
        assert_eq!(got, want, "batched_potrf bits changed at n={n}");
    }
    let (n, count, want) = BATCHED_POTRF_F32;
    let mut b = spd_batch::<f32>(n, count, 500);
    batched_potrf(&mut b).expect("SPD batch");
    assert_eq!(batch_hash(&b), want, "f32 batched_potrf bits changed");

    let mut a = spd_batch::<f64>(8, 6, 600);
    let mut rhs = random_batch(8, 3, 6, 700);
    batched_cholesky_solve(&mut a, &mut rhs).expect("SPD batch");
    assert_eq!(
        batch_hash(&rhs),
        BATCHED_CHOLESKY_SOLVE,
        "batched_cholesky_solve bits changed"
    );

    let mut lu = random_batch(9, 9, 5, 800);
    let pivots = batched_getrf(&mut lu).expect("random batch is nonsingular");
    let got = fnv1a(
        (0..lu.count())
            .flat_map(|k| slice_bits(lu.matrix(k)))
            .chain(pivots.iter().flatten().map(|&p| p as u64)),
    );
    assert_eq!(got, BATCHED_GETRF, "batched_getrf bits or pivots changed");
    let mut rhs = random_batch(9, 2, 5, 900);
    batched_getrf_solve(&lu, &pivots, &mut rhs);
    assert_eq!(
        batch_hash(&rhs),
        BATCHED_GETRF_SOLVE,
        "batched_getrf_solve bits changed"
    );
}

#[test]
fn batched_errors_name_the_failing_element() {
    let mut spd = spd_batch::<f64>(4, 5, 50);
    spd.matrix_mut(3)[1 + 4] = -5.0;
    let err = batched_potrf(&mut spd).unwrap_err();
    assert_eq!(
        err.to_string(),
        BATCHED_POTRF_ERROR,
        "batched_potrf error text changed"
    );

    let mut lu = random_batch(4, 4, 3, 60);
    lu.matrix_mut(1).fill(0.0);
    let err = batched_getrf(&mut lu).unwrap_err();
    assert_eq!(
        err.to_string(),
        BATCHED_GETRF_ERROR,
        "batched_getrf error text changed"
    );
}

#[test]
fn unblocked_cholesky_and_trsv_match_golden_hash() {
    let a = gen::random_spd::<f64>(29, 29);
    let mut l = a.clone();
    factor::potrf_unblocked(&mut l).expect("SPD");
    let mut x = gen::rhs_for_unit_solution(&a);
    factor::potrf_solve(&l, &mut x);
    let got = fnv1a(bits(&l).chain(slice_bits(&x)));
    assert_eq!(
        got, POTRF_UNBLOCKED,
        "potrf_unblocked or potrf_solve bits changed"
    );

    // A diagonally heavy random matrix: both triangles are well-conditioned.
    let n = 23;
    let mut t = gen::random_matrix::<f64>(n, n, 23);
    for i in 0..n {
        t.set(i, i, t.get(i, i) + 4.0);
    }
    let mut words = Vec::new();
    for uplo in [Uplo::Lower, Uplo::Upper] {
        for trans in [Transpose::No, Transpose::Yes] {
            for diag in [Diag::NonUnit, Diag::Unit] {
                let mut x = gen::random_vector::<f64>(n, 24);
                trsv(uplo, trans, diag, &t, &mut x);
                words.extend(slice_bits(&x));
            }
        }
    }
    assert_eq!(fnv1a(words), TRSV, "trsv bits changed");
}

/// `(label, hash)` of `lu_ir_solve` on `gen::diag_dominant(n, seed)` with
/// the unit-solution right-hand side (fp32 with 30 steps, fp16 with 60):
/// the solution bits, then the residual history bits, then the iteration
/// count.
const LU_IR: [(&str, u64); 8] = [
    ("fp32 n=48 default tol", 0xb754_7272_883d_1635),
    ("fp32 n=48 tol 1e-8", 0x3738_520e_7cf3_c6ca),
    ("fp16 n=48 default tol", 0x0e9b_bdb8_3b3e_a7ca),
    ("fp16 n=48 tol 1e-8", 0x0e9b_bdb8_3b3e_a7ca),
    ("fp32 n=200 default tol", 0x3db5_3ef6_9047_359a),
    ("fp32 n=200 tol 1e-8", 0x082b_e401_dc95_1206),
    ("fp16 n=200 default tol", 0xd038_01f9_dfdb_f910),
    ("fp16 n=200 tol 1e-8", 0xd038_01f9_dfdb_f910),
];

/// `(label, hash)` of `gmres_ir_solve::<f32>`, hashed as [`LU_IR`] with the
/// outer then the inner iteration count: on `gen::diag_dominant(48, 1)`
/// with 10 outer steps and restart 20, and on
/// `gen::ill_conditioned_spd(64, 3e8, 2)` with 25 and 30.
const GMRES_IR: [(&str, u64); 4] = [
    ("n=48 default tol", 0x3e60_a6a7_b24f_3bb7),
    ("n=48 tol 1e-8", 0x4a43_2c30_98cf_2881),
    ("κ=3e8 default tol", 0x2574_1d09_45ca_2ed2),
    ("κ=3e8 tol 1e-8", 0x2f79_9f2a_2df5_c18a),
];

/// Hash of the solutions `full_f64_solve` gives on
/// `gen::diag_dominant(48, 1)` then `(200, 3)`.
const FULL_F64: u64 = 0x0b0d_a511_d984_1f8e;

/// `(label, iterations, residual bits)` of the `DidNotConverge` error that
/// fp32 LU-IR gives on `gen::ill_conditioned_spd(64, 3e8, 2)` (30 steps)
/// and fp16 LU-IR on `(64, 1e9, 5)` (60 steps).
const LU_IR_STALLS: [(&str, usize, u64); 2] = [
    ("fp32 κ=3e8", 1, 0x3e43_aa62_c2b7_3676),
    ("fp16 κ=1e9", 1, 0x3f0d_7943_a153_a975),
];

/// `(κ, choice, fallbacks, cond_estimate bits, solution hash)` of
/// `adaptive_solve` on `gen::ill_conditioned_spd(48, κ, 7 + i)`, `i` the
/// row index.
const ADAPTIVE: [(f64, SolverChoice, usize, u64, u64); 3] = [
    (
        1e2,
        SolverChoice::ClassicIr,
        0,
        0x4077_9668_e60e_00ad,
        0xdeef_f3a3_411f_1448,
    ),
    (
        3e8,
        SolverChoice::GmresIr,
        0,
        0x41df_5f40_25a9_fb63,
        0x51b4_d1a9_178d_9829,
    ),
    (
        1e13,
        SolverChoice::FullPrecision,
        1,
        0x4218_431b_f373_14c3,
        0xacd8_0bfa_679e_5674,
    ),
];

#[test]
fn lu_ir_solutions_and_histories_match_golden_hash() {
    let mut wants = LU_IR.iter();
    for (n, seed) in [(48, 1), (200, 3)] {
        let a = gen::diag_dominant::<f64>(n, seed);
        let b = gen::rhs_for_unit_solution(&a);
        for name in ["fp32", "fp16"] {
            for (tol_name, tol) in [("default tol", None), ("tol 1e-8", Some(1e-8))] {
                let &(label, want) = wants.next().expect("one constant per case");
                assert_eq!(format!("{name} n={n} {tol_name}"), label);
                let run = if name == "fp32" {
                    lu_ir_solve::<f32>(&a, &b, 30, tol)
                } else {
                    lu_ir_solve::<Half>(&a, &b, 60, tol)
                };
                let (x, rep) = run.expect("diag-dominant system converges");
                let got = fnv1a(
                    slice_bits(&x)
                        .chain(slice_bits(&rep.residual_history))
                        .chain([rep.iterations as u64]),
                );
                assert_eq!(got, want, "lu_ir_solve bits changed: {label}");
            }
        }
    }
}

#[test]
fn gmres_ir_solutions_and_histories_match_golden_hash() {
    let systems = [
        (gen::diag_dominant::<f64>(48, 1), 10, 20, "n=48"),
        (gen::ill_conditioned_spd::<f64>(64, 3e8, 2), 25, 30, "κ=3e8"),
    ];
    let mut wants = GMRES_IR.iter();
    for (a, outer, restart, name) in &systems {
        let b = gen::rhs_for_unit_solution(a);
        for (tol_name, tol) in [("default tol", None), ("tol 1e-8", Some(1e-8))] {
            let &(want_label, want) = wants.next().expect("one constant per case");
            assert_eq!(format!("{name} {tol_name}"), want_label);
            let (x, rep) = gmres_ir_solve::<f32>(a, &b, *outer, *restart, tol)
                .expect("GMRES-IR converges on both systems");
            let got = fnv1a(
                slice_bits(&x)
                    .chain(slice_bits(&rep.residual_history))
                    .chain([rep.outer_iterations as u64, rep.inner_iterations as u64]),
            );
            assert_eq!(got, want, "gmres_ir_solve bits changed: {want_label}");
        }
    }
}

#[test]
fn full_f64_solutions_match_golden_hash() {
    let mut words = Vec::new();
    for (n, seed) in [(48, 1), (200, 3)] {
        let a = gen::diag_dominant::<f64>(n, seed);
        let b = gen::rhs_for_unit_solution(&a);
        words.extend(full_f64_solve(&a, &b).expect("nonsingular"));
    }
    assert_eq!(
        fnv1a(slice_bits(&words)),
        FULL_F64,
        "full_f64_solve bits changed"
    );
}

#[test]
fn lu_ir_stalls_match_golden_error() {
    let cases = [
        (gen::ill_conditioned_spd::<f64>(64, 3e8, 2), true, 30),
        (gen::ill_conditioned_spd::<f64>(64, 1e9, 5), false, 60),
    ];
    for ((a, fp32, iters), (label, want_iters, want_bits)) in cases.iter().zip(LU_IR_STALLS) {
        let b = gen::rhs_for_unit_solution(a);
        let run = if *fp32 {
            lu_ir_solve::<f32>(a, &b, *iters, None)
        } else {
            lu_ir_solve::<Half>(a, &b, *iters, None)
        };
        match run {
            Err(xsc_core::Error::DidNotConverge {
                iterations,
                residual,
            }) => assert_eq!(
                (iterations, residual.to_bits()),
                (want_iters, want_bits),
                "LU-IR stall changed: {label}"
            ),
            other => panic!("{label}: expected DidNotConverge, got {other:?}"),
        }
    }
}

/// The system [`ADAPTIVE`]'s row `i` solves.
fn adaptive_system(i: usize, kappa: f64) -> (Matrix<f64>, Vec<f64>) {
    let a = gen::ill_conditioned_spd::<f64>(48, kappa, 7 + i as u64);
    let b = gen::rhs_for_unit_solution(&a);
    (a, b)
}

#[test]
fn adaptive_choices_and_solutions_match_golden_hash() {
    for (i, (kappa, choice, fallbacks, cond_bits, want)) in ADAPTIVE.into_iter().enumerate() {
        let (a, b) = adaptive_system(i, kappa);
        let (x, rep) = adaptive_solve(&a, &b).expect("adaptive_solve always has a tier left");
        assert_eq!(
            (rep.choice, rep.fallbacks, rep.cond_estimate.to_bits()),
            (choice, fallbacks, cond_bits),
            "adaptive_solve report changed at κ={kappa:e}"
        );
        assert_eq!(
            fnv1a(slice_bits(&x)),
            want,
            "adaptive_solve solution bits changed at κ={kappa:e}"
        );
    }
}

/// `adaptive_solve` returns exactly what the tier it names returns when
/// called on its own with the dispatcher's settings.
#[test]
fn adaptive_solution_is_its_tiers_solution() {
    for (i, &(kappa, ..)) in ADAPTIVE.iter().enumerate() {
        let (a, b) = adaptive_system(i, kappa);
        let (x, rep) = adaptive_solve(&a, &b).expect("adaptive_solve always has a tier left");
        let tier = match rep.choice {
            SolverChoice::ClassicIr => lu_ir_solve::<f32>(&a, &b, 30, None).map(|(x, _)| x),
            SolverChoice::GmresIr => gmres_ir_solve::<f32>(&a, &b, 30, 30, None).map(|(x, _)| x),
            SolverChoice::FullPrecision => full_f64_solve(&a, &b),
        }
        .expect("the chosen tier succeeds on its own");
        let same = x.iter().zip(&tier).all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(
            same && x.len() == tier.len(),
            "adaptive_solve's x differs from its {:?} tier at κ={kappa:e}",
            rep.choice
        );
    }
}
