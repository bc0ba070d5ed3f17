//! Cross-format agreement for the bandwidth-lean sparse engine: `Csr32`
//! and SELL-C-σ must reproduce the `usize` CSR kernels bit for bit on
//! arbitrary stencil-patterned diagonally dominant matrices — that is the
//! contract that lets HPCG swap formats without changing a single iterate.

use proptest::prelude::*;
use xsc_sparse::coloring::{color_classes, colored_symgs, greedy_coloring};
use xsc_sparse::stencil::{build_matrix, Geometry};
use xsc_sparse::symgs::symgs;
use xsc_sparse::{run_hpcg_fmt, Csr32, CsrMatrix, SellCSigma, SparseFormat, SparseOps};

/// A 27-point-stencil-patterned matrix with pseudo-random (seeded)
/// off-diagonal values and a diagonal strong enough for Gauss–Seidel.
fn random_stencil(nx: usize, ny: usize, nz: usize, seed: u64) -> CsrMatrix {
    let pattern = build_matrix(Geometry::new(nx, ny, nz));
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        // xorshift64*: deterministic values in (-1, 1).
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

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f64) / 500.0 - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spmv_and_residual_agree_across_formats(
        nx in 2usize..6,
        ny in 2usize..6,
        nz in 2usize..6,
        seed in 0u64..1000,
        c_pow in 0u32..4,
        mult in 1usize..5,
    ) {
        let a = random_stencil(nx, ny, nz, seed);
        let n = a.nrows();
        let c = 1usize << c_pow;
        let a32 = Csr32::try_from(&a).unwrap();
        let sell = SellCSigma::from_csr(&a, c, c * mult).unwrap();
        prop_assert_eq!(sell.nnz(), a.nnz());

        let x = random_vec(n, seed);
        let b = random_vec(n, seed.wrapping_add(7));

        let mut y_ref = vec![0.0; n];
        a.spmv(&x, &mut y_ref);
        for (name, y) in [
            ("csr32 spmv", { let mut y = vec![0.0; n]; a32.spmv(&x, &mut y); y }),
            ("csr32 spmv_par", { let mut y = vec![0.0; n]; a32.spmv_par(&x, &mut y); y }),
            ("sell spmv", { let mut y = vec![0.0; n]; sell.spmv(&x, &mut y); y }),
            ("sell spmv_par", { let mut y = vec![0.0; n]; sell.spmv_par(&x, &mut y); y }),
        ] {
            // Same per-row fold order everywhere, so agreement is bitwise —
            // far inside the 1e-12 the solver actually needs.
            prop_assert_eq!(&y, &y_ref, "{} diverged", name);
        }

        let mut r_ref = vec![0.0; n];
        a.fused_residual(&x, &b, &mut r_ref);
        let mut r32 = vec![0.0; n];
        a32.fused_residual(&x, &b, &mut r32);
        prop_assert_eq!(&r32, &r_ref);
        let mut rs = vec![0.0; n];
        sell.fused_residual(&x, &b, &mut rs);
        prop_assert_eq!(&rs, &r_ref);
    }

    #[test]
    fn symgs_agrees_across_formats(
        nx in 2usize..5,
        ny in 2usize..5,
        nz in 2usize..5,
        seed in 0u64..1000,
    ) {
        let a = random_stencil(nx, ny, nz, seed);
        let n = a.nrows();
        let a32 = Csr32::try_from(&a).unwrap();
        let sell = SellCSigma::try_from(&a).unwrap();
        let b = random_vec(n, seed.wrapping_add(3));

        // Natural-order sweep.
        let mut x_ref = random_vec(n, seed.wrapping_add(11));
        let mut x32 = x_ref.clone();
        let mut xs = x_ref.clone();
        for _ in 0..3 {
            symgs(&a, &b, &mut x_ref);
            a32.symgs(&b, &mut x32);
            sell.symgs(&b, &mut xs);
        }
        prop_assert_eq!(&x32, &x_ref);
        prop_assert_eq!(&xs, &x_ref);

        // Multi-color parallel sweep: same classes, same update order.
        let classes = color_classes(&greedy_coloring(&a));
        let mut c_ref = random_vec(n, seed.wrapping_add(13));
        let mut c32 = c_ref.clone();
        let mut cs = c_ref.clone();
        for _ in 0..3 {
            colored_symgs(&a, &classes, &b, &mut c_ref);
            a32.colored_symgs(&classes, &b, &mut c32);
            sell.colored_symgs(&classes, &b, &mut cs);
        }
        prop_assert_eq!(&c32, &c_ref);
        prop_assert_eq!(&cs, &c_ref);
    }
}

#[test]
fn hpcg_histories_are_identical_across_formats() {
    let g = Geometry::new(8, 8, 8);
    let base = run_hpcg_fmt(g, 3, 8, SparseFormat::CsrUsize);
    for fmt in [SparseFormat::Csr32, SparseFormat::SellCSigma] {
        let r = run_hpcg_fmt(g, 3, 8, fmt);
        assert_eq!(r.iterations, base.iterations, "{fmt}");
        assert_eq!(r.residual_history, base.residual_history, "{fmt}");
    }
}

#[test]
fn oversized_matrices_are_rejected_not_truncated() {
    // More columns than u32 can index: conversion must refuse, not wrap.
    let wide = CsrMatrix::from_triplets(1, u32::MAX as usize + 2, vec![]);
    let err = Csr32::try_from(&wide).unwrap_err();
    assert!(err.to_string().contains("truncate"), "{err}");
    assert!(SellCSigma::try_from(&wide).is_err());
}
