//! Golden pins for the sparse kernels under HPCG, per storage format:
//! SpMV, parallel SpMV, fused residual, diagonal and column sums; the
//! iterates of natural and multicolour symmetric Gauss–Seidel; an MG-PCG
//! residual history; and the modeled SpMV/SymGS traffic of every level of
//! a three-level hierarchy. The HPCG set-up is pinned too: the operator,
//! its Gauss–Seidel schedule and the right-hand side on a grid big enough
//! to split across threads, and the 96³ schedule's shape. The scheduled
//! (multi-thread) SymGS path is pinned at 32³, where the operator is big
//! enough to run on 2 and 3 threads. The cross-format tests in
//! `tests/tests/sparse_formats.rs` only compare formats with each other, so
//! they cannot see a fold-order change that hits every format at once; a
//! change that moves a single bit or byte shows up here as a hash mismatch.
//! The `usize` CSR's unfused residual (SpMV, then `b − y`) and the solvers
//! and estimators written on it are pinned too: pipelined and s-step CG,
//! the matrix-powers basis, and the power-method and Gershgorin bounds.

use xsc_bench::fnv1a;
use xsc_metrics::Traffic;
use xsc_sparse::chebyshev::{gershgorin_lmax, power_method_lmax};
use xsc_sparse::coloring::{color_classes, greedy_coloring};
use xsc_sparse::matrix_powers::matrix_powers;
use xsc_sparse::ops::unfused_residual;
use xsc_sparse::pipelined::pipelined_cg;
use xsc_sparse::sstep::s_step_cg;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::symgs::GsSchedule;
use xsc_sparse::{run_hpcg_fmt, CsrMatrix, FormatMatrix, SparseFormat, SparseOps};

/// Per-format hashes, in [`SparseFormat::all`] order.
struct Pins {
    /// `spmv`, `spmv_par`, `fused_residual`, `diagonal`, `column_sums`
    /// outputs on both matrices of [`matrices`].
    kernels: u64,
    /// Iterates after 3 natural SymGS applications on both matrices.
    natural: u64,
    /// Iterates after 3 multicolour SymGS applications on both matrices.
    colored: u64,
    /// `run_hpcg_fmt(16³, 3 levels, 10 iterations)` residual history.
    history: u64,
    /// `spmv_traffic()` and `symgs_traffic()` of each level's matrix.
    traffic: u64,
}

const PINS: [(SparseFormat, Pins); 3] = [
    (
        SparseFormat::CsrUsize,
        Pins {
            kernels: 0x320e_d377_f4e0_1598,
            natural: 0x7469_fbeb_de09_2811,
            colored: 0x9d74_9508_b79c_2759,
            history: 0x0f91_c398_9b89_d56f,
            traffic: 0x2546_066d_9976_eb85,
        },
    ),
    (
        SparseFormat::Csr32,
        Pins {
            kernels: 0x320e_d377_f4e0_1598,
            natural: 0x7469_fbeb_de09_2811,
            colored: 0x9d74_9508_b79c_2759,
            history: 0x0f91_c398_9b89_d56f,
            traffic: 0xd4a0_f447_56f0_b231,
        },
    ),
    (
        SparseFormat::SellCSigma,
        Pins {
            kernels: 0xe160_475b_d74e_b0b0,
            natural: 0x7469_fbeb_de09_2811,
            colored: 0x9d74_9508_b79c_2759,
            history: 0x0f91_c398_9b89_d56f,
            traffic: 0x4bb3_fa2e_ddab_6465,
        },
    ),
];

/// A 27-point-stencil-patterned matrix with pseudo-random (seeded)
/// off-diagonal values and a diagonal strong enough for Gauss–Seidel (the
/// generator of `tests/tests/sparse_formats.rs`).
fn random_stencil(nx: usize, ny: usize, nz: usize, seed: u64) -> CsrMatrix {
    let pattern = build_matrix(Geometry::new(nx, ny, nz));
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let u = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (u >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let n = pattern.nrows();
    let mut triplets = Vec::new();
    for i in 0..n {
        let (cols, _) = pattern.row(i);
        let mut offdiag_sum = 0.0;
        for &j in cols {
            if j != i {
                let v = next();
                offdiag_sum += v.abs();
                triplets.push((i, j, v));
            }
        }
        triplets.push((i, i, offdiag_sum + 1.0 + next().abs()));
    }
    CsrMatrix::from_triplets(n, n, triplets)
}

/// The 16³ HPCG operator and one irregular-valued, ragged-sized stencil.
fn matrices() -> [CsrMatrix; 2] {
    [
        build_matrix(Geometry::new(16, 16, 16)),
        random_stencil(7, 6, 5, 42),
    ]
}

fn vector(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 + salt) % 101) as f64 * 0.02 - 1.0)
        .collect()
}

fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

fn traffic_words(t: Traffic) -> [u64; 3] {
    [t.flops, t.bytes_read, t.bytes_written]
}

fn kernels_hash(fmt: SparseFormat) -> u64 {
    let mut words = Vec::new();
    for a in matrices() {
        let n = a.nrows();
        let m = FormatMatrix::convert(a, fmt).unwrap();
        let x = vector(n, 1);
        let b = vector(n, 2);
        let mut y = vec![0.0; n];
        m.spmv(&x, &mut y);
        words.extend(bits(&y));
        m.spmv_par(&x, &mut y);
        words.extend(bits(&y));
        m.fused_residual(&x, &b, &mut y);
        words.extend(bits(&y));
        words.extend(bits(&m.diagonal()));
        words.extend(bits(&m.column_sums()));
    }
    fnv1a(words)
}

fn symgs_hash(fmt: SparseFormat, colored: bool) -> u64 {
    let mut words = Vec::new();
    for a in matrices() {
        let n = a.nrows();
        let (b, _) = build_rhs(&a);
        let classes = color_classes(&greedy_coloring(&a));
        let m = FormatMatrix::convert(a, fmt).unwrap();
        let mut x = vector(n, 3);
        for _ in 0..3 {
            if colored {
                m.colored_symgs(&classes, &b, &mut x);
            } else {
                m.symgs(&b, &mut x);
            }
        }
        words.extend(bits(&x));
    }
    fnv1a(words)
}

fn history_hash(fmt: SparseFormat) -> u64 {
    let r = run_hpcg_fmt(Geometry::new(16, 16, 16), 3, 10, fmt);
    fnv1a(bits(&r.residual_history).chain([r.iterations as u64]))
}

fn traffic_hash(fmt: SparseFormat) -> u64 {
    let mut words = Vec::new();
    for g in [16, 8, 4] {
        let m = FormatMatrix::convert(build_matrix(Geometry::new(g, g, g)), fmt).unwrap();
        words.extend(traffic_words(m.spmv_traffic()));
        words.extend(traffic_words(m.symgs_traffic()));
    }
    fnv1a(words)
}

fn check(what: &str, hash: impl Fn(SparseFormat) -> u64, pin: impl Fn(&Pins) -> u64) {
    for (fmt, pins) in &PINS {
        let got = hash(*fmt);
        assert_eq!(got, pin(pins), "{fmt} {what} changed: got {got:#018x}");
    }
}

#[test]
fn kernel_outputs_match_golden_hash() {
    check("kernel outputs", kernels_hash, |p| p.kernels);
}

#[test]
fn natural_symgs_iterates_match_golden_hash() {
    check(
        "natural SymGS iterates",
        |f| symgs_hash(f, false),
        |p| p.natural,
    );
}

#[test]
fn colored_symgs_iterates_match_golden_hash() {
    check(
        "colored SymGS iterates",
        |f| symgs_hash(f, true),
        |p| p.colored,
    );
}

#[test]
fn hpcg_residual_history_matches_golden_hash() {
    check("hpcg residual history", history_hash, |p| p.history);
}

#[test]
fn modeled_traffic_matches_golden_hash() {
    check("modeled traffic", traffic_hash, |p| p.traffic);
}

/// A non-cubic grid whose operator (~0.9M stored entries) is big enough
/// for the set-up to split it across threads.
const SETUP_GRID: Geometry = Geometry {
    nx: 40,
    ny: 24,
    nz: 36,
};

/// `build_matrix(SETUP_GRID)`: row pointers, columns and value bits.
const SETUP_MATRIX: u64 = 0xa2af_e910_1a08_b955;
/// Its Gauss–Seidel schedule: block rows, then each level's blocks.
const SETUP_SCHEDULE: u64 = 0x9514_dd9c_81c5_aeff;
/// `build_rhs`'s `b` on it, the same in every format.
const SETUP_RHS: u64 = 0x1c75_e8fe_207f_2f25;
/// Blocks, levels and widest level of the 96³ operator's schedule.
const SCHEDULE_96: (usize, usize, usize) = (9216, 286, 48);

fn matrix_hash(a: &CsrMatrix) -> u64 {
    let mut words = vec![a.nrows() as u64, a.ncols() as u64];
    let mut end = 0;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        end += cols.len();
        words.push(end as u64);
        words.extend(cols.iter().map(|&c| c as u64));
        words.extend(bits(vals));
    }
    fnv1a(words)
}

fn schedule_hash(s: &GsSchedule) -> u64 {
    let mut words = vec![s.num_blocks() as u64];
    for p in 0..s.num_blocks() {
        let r = s.rows(p);
        words.extend([r.start as u64, r.end as u64]);
    }
    words.push(s.num_levels() as u64);
    for l in 0..s.num_levels() {
        words.push(s.level(l).len() as u64);
        words.extend(s.level(l).iter().map(|&p| p as u64));
    }
    fnv1a(words)
}

#[test]
fn setup_operator_and_schedule_match_golden_hash() {
    let a = build_matrix(SETUP_GRID);
    let got = matrix_hash(&a);
    assert_eq!(got, SETUP_MATRIX, "operator changed: got {got:#018x}");
    let got = schedule_hash(a.gs_schedule().unwrap());
    assert_eq!(got, SETUP_SCHEDULE, "schedule changed: got {got:#018x}");
}

#[test]
fn setup_rhs_matches_golden_hash() {
    for fmt in SparseFormat::all() {
        let m = FormatMatrix::convert(build_matrix(SETUP_GRID), fmt).unwrap();
        let got = fnv1a(bits(&build_rhs(&m).0));
        assert_eq!(
            got, SETUP_RHS,
            "{fmt} right-hand side changed: got {got:#018x}"
        );
    }
}

#[test]
fn schedule_96_counts_match_golden() {
    let a = build_matrix(Geometry::new(96, 96, 96));
    let s = a.gs_schedule().unwrap();
    let got = (s.num_blocks(), s.num_levels(), s.max_width());
    assert_eq!(got, SCHEDULE_96, "96³ schedule shape changed");
}

/// The 32³ operator (830,584 stored entries): big enough that SymGS runs
/// its level schedule on a 2- or 3-thread pool instead of the one-thread
/// natural loop every 16³ pin above runs.
const SCHEDULED_GRID: usize = 32;

/// Per-format hashes of the scheduled path, in [`SparseFormat::all`] order:
/// the iterates after 3 SymGS applications on the 32³ operator (the same
/// on 2 and 3 threads), and `run_hpcg_fmt(32³, 3, 10)`'s residual history
/// on 2 threads.
const SCHEDULED_PINS: [(SparseFormat, u64, u64); 3] = [
    (
        SparseFormat::CsrUsize,
        0xccae_1831_08c7_ddc2,
        0x204c_88e8_8ba1_44d3,
    ),
    (
        SparseFormat::Csr32,
        0xccae_1831_08c7_ddc2,
        0x204c_88e8_8ba1_44d3,
    ),
    (
        SparseFormat::SellCSigma,
        0xccae_1831_08c7_ddc2,
        0x204c_88e8_8ba1_44d3,
    ),
];

fn on_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn scheduled_symgs_iterates_match_golden_hash() {
    let g = SCHEDULED_GRID;
    let a = build_matrix(Geometry::new(g, g, g));
    let n = a.nrows();
    let (b, _) = build_rhs(&a);
    for &(fmt, pin, _) in &SCHEDULED_PINS {
        let m = FormatMatrix::convert(a.clone(), fmt).unwrap();
        for threads in [2, 3] {
            let x = on_threads(threads, || {
                let mut x = vector(n, 3);
                for _ in 0..3 {
                    m.symgs(&b, &mut x);
                }
                x
            });
            let got = fnv1a(bits(&x));
            assert_eq!(
                got, pin,
                "{fmt} scheduled SymGS iterates on {threads} threads changed: got {got:#018x}"
            );
        }
    }
}

#[test]
fn scheduled_hpcg_residual_history_matches_golden_hash() {
    let g = Geometry::new(SCHEDULED_GRID, SCHEDULED_GRID, SCHEDULED_GRID);
    for &(fmt, _, pin) in &SCHEDULED_PINS {
        let r = on_threads(2, || run_hpcg_fmt(g, 3, 10, fmt));
        let got = fnv1a(bits(&r.residual_history).chain([r.iterations as u64]));
        assert_eq!(
            got, pin,
            "{fmt} 2-thread hpcg residual history changed: got {got:#018x}"
        );
    }
}

/// The unfused residual `b − A·x` (SpMV, then a subtract) on both
/// matrices of [`matrices`].
const UNFUSED_RESIDUAL: u64 = 0xc4fd_c4e2_9977_0861;
/// `pipelined_cg(.., 100, 0.0)` on [`krylov_problem`]: residual history,
/// iteration count, reduction phases and `x`. A zero tolerance runs all
/// 100 iterations, past the converged 43, so both residual replacements
/// (iterations 50 and 100) are in the history.
const PIPELINED_CG: u64 = 0xbebf_260d_8f17_7670;
/// `s_step_cg(.., s = 4, 500, 1e-12)` on [`krylov_problem`]: residual
/// history, iteration count, outer steps and `x`.
const S_STEP_CG: u64 = 0x39b2_5bc7_15d0_a00e;
/// `matrix_powers(.., s = 4, 256)` on the 16³ operator: every basis vector
/// and the round and word counts.
const MATRIX_POWERS: u64 = 0x6a2e_e06e_88b7_d761;
/// `power_method_lmax(.., 10, 3)` and `gershgorin_lmax` on both matrices.
const LMAX: u64 = 0xc280_bd00_a1ab_02d5;

#[test]
fn unfused_residual_matches_golden_hash() {
    let mut words = Vec::new();
    for a in matrices() {
        let n = a.nrows();
        let (x, b) = (vector(n, 1), vector(n, 2));
        let mut r = vec![f64::NAN; n];
        unfused_residual(&a, &x, &b, &mut r);
        words.extend(bits(&r));
    }
    let got = fnv1a(words);
    assert_eq!(
        got, UNFUSED_RESIDUAL,
        "unfused residual changed: got {got:#018x}"
    );
}

/// The 16³ operator and E13's right-hand side: `A·1` plus a ragged
/// perturbation, so neither solver starts on an exact solution.
fn krylov_problem() -> (CsrMatrix, Vec<f64>) {
    let a = build_matrix(Geometry::new(16, 16, 16));
    let (mut b, _) = build_rhs(&a);
    for (i, v) in b.iter_mut().enumerate() {
        *v += ((i * 97) % 41) as f64 / 41.0 - 0.5;
    }
    (a, b)
}

#[test]
fn pipelined_cg_matches_golden_hash() {
    let (a, b) = krylov_problem();
    let mut x = vec![0.0; a.nrows()];
    let r = pipelined_cg(&a, &b, &mut x, 100, 0.0);
    assert_eq!(r.iterations, 100);
    let counts = [r.iterations as u64, r.reduction_phases as u64];
    let got = fnv1a(bits(&r.residual_history).chain(counts).chain(bits(&x)));
    assert_eq!(got, PIPELINED_CG, "pipelined CG changed: got {got:#018x}");
}

#[test]
fn s_step_cg_matches_golden_hash() {
    let (a, b) = krylov_problem();
    let mut x = vec![0.0; a.nrows()];
    let r = s_step_cg(&a, &b, &mut x, 4, 500, 1e-12);
    assert!(r.converged, "{} iterations", r.iterations);
    let counts = [r.iterations as u64, r.outer_steps as u64];
    let got = fnv1a(bits(&r.residual_history).chain(counts).chain(bits(&x)));
    assert_eq!(got, S_STEP_CG, "s-step CG changed: got {got:#018x}");
}

#[test]
fn matrix_powers_basis_matches_golden_hash() {
    let a = build_matrix(Geometry::new(16, 16, 16));
    let mp = matrix_powers(&a, &vector(a.nrows(), 4), 4, 256);
    let (naive, ca) = mp.words();
    let mut words = vec![mp.naive_rounds as u64, mp.ca_rounds as u64];
    words.extend([naive as u64, ca as u64]);
    words.extend(mp.basis.iter().flat_map(|v| bits(v)));
    let got = fnv1a(words);
    assert_eq!(got, MATRIX_POWERS, "matrix powers changed: got {got:#018x}");
}

#[test]
fn spectral_bounds_match_golden_hash() {
    let mut words = Vec::new();
    for a in matrices() {
        words.push(power_method_lmax(&a, 10, 3).to_bits());
        words.push(gershgorin_lmax(&a).to_bits());
    }
    let got = fnv1a(words);
    assert_eq!(got, LMAX, "spectral bounds changed: got {got:#018x}");
}
