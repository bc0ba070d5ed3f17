//! Golden pins for the dense kernels under HPL: `gemm`, `par_gemm` and the
//! blocked LU `getrf_blocked`, in the default (scalar) build. Every
//! micro-kernel variant is bit-identical to the scalar one, so the same
//! constants hold in the `simd` build. A change to the micro-kernel, the
//! packed loop nest, the small-problem dispatch or the LU step loop that
//! moves a single bit shows up here as a hash mismatch.

use xsc_bench::fnv1a;
use xsc_core::gemm::{self, GemmParams, Transpose, MR, NR};
use xsc_core::{factor, gen, Matrix};

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

fn bits(m: &Matrix<f64>) -> impl Iterator<Item = u64> + '_ {
    m.as_slice().iter().map(|x| x.to_bits())
}

type GemmFn = fn(Transpose, Transpose, f64, &Matrix<f64>, &Matrix<f64>, f64, &mut Matrix<f64>);

/// Runs `kernel` over every shape and transpose pair with `alpha` and
/// `beta` outside {0, 1}, and hashes all outputs.
fn gemm_hash(kernel: GemmFn) -> u64 {
    let mut words = Vec::new();
    for (s, (m, k, n)) in shapes().into_iter().enumerate() {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let (ar, ac) = if ta == Transpose::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Transpose::No { (k, n) } else { (n, k) };
                let seed = 10 * s as u64;
                let a = gen::random_matrix::<f64>(ar, ac, seed + 1);
                let b = gen::random_matrix::<f64>(br, bc, seed + 2);
                let mut c = gen::random_matrix::<f64>(m, n, seed + 3);
                kernel(ta, tb, 1.5, &a, &b, -0.75, &mut c);
                words.extend(bits(&c));
            }
        }
    }
    fnv1a(words)
}

#[test]
fn gemm_outputs_match_golden_hash() {
    assert_eq!(gemm_hash(gemm::gemm), GEMM, "gemm output bits changed");
}

#[test]
fn par_gemm_outputs_match_golden_hash() {
    assert_eq!(
        gemm_hash(gemm::par_gemm),
        PAR_GEMM,
        "par_gemm output bits changed"
    );
}

#[test]
fn getrf_blocked_factors_match_golden_hash() {
    for (n, nb, want) in GETRF_BLOCKED {
        let mut a = gen::random_matrix::<f64>(n, n, n as u64);
        let piv = factor::getrf_blocked(&mut a, nb).expect("random matrix is nonsingular");
        let got = fnv1a(bits(&a).chain(piv.iter().map(|&p| p as u64)));
        assert_eq!(got, want, "getrf_blocked bits changed at n={n} nb={nb}");
    }
}
