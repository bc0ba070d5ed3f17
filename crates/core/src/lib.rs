//! # xsc-core — dense linear-algebra foundation for `xsc`
//!
//! `xsc` is a Rust reproduction of the system described in Jack Dongarra's
//! ICMS/HPDC 2016 invited talk *"With Extreme Scale Computing the Rules Have
//! Changed"*. This crate is the numerical foundation that every other `xsc`
//! crate builds on:
//!
//! * [`Scalar`] / [`Float`] — precision-generic scalar traits so the same
//!   kernels run in `f64`, `f32`, and the software-emulated half precision
//!   used by `xsc-precision`.
//! * [`Matrix`] — a column-major dense matrix, the storage format of the
//!   classic HPC libraries (LAPACK, PLASMA) this project mirrors.
//! * [`TileMatrix`] — a matrix partitioned into contiguous square tiles, the
//!   storage layout of PLASMA-style tiled algorithms executed by
//!   `xsc-runtime` task graphs.
//! * Sequential blocked kernels ([`gemm`], [`trsm`], [`syrk`], [`factor`],
//!   [`householder`]) — the node-level BLAS/LAPACK substrate the paper
//!   assumes, built from scratch.
//! * [`calu`] — **communication-avoiding LU**: tournament pivoting (TSLU)
//!   replaces the panel's O(n) pivot reductions with O(log P) tournament
//!   rounds, in the same step loop as the partially pivoted LU.
//! * [`gen`] — reproducible random matrix generators (general, SPD,
//!   ill-conditioned, orthogonal) used by the test and benchmark suites.
//! * [`flops`] — the flop-count formulas used for Gflop/s accounting in
//!   the HPL-like and HPCG-like benchmarks.
//!
//! ## Quick example
//!
//! ```
//! use xsc_core::{gen, gemm, norms, Matrix, Transpose};
//!
//! let a = gen::random_matrix::<f64>(64, 32, 42);
//! let b = gen::random_matrix::<f64>(32, 16, 43);
//! let mut c = Matrix::<f64>::zeros(64, 16);
//! // C <- 1.0 * A * B + 0.0 * C
//! gemm::gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
//! assert!(norms::frobenius(&c) > 0.0);
//! ```

#![deny(missing_docs)]
// `unsafe` is denied workspace-style everywhere; the single sanctioned
// exception is the feature-gated SIMD micro-kernel module, which opts back
// in locally (every block there carries a `// SAFETY:` comment, enforced
// by xsc-lint rule S01). Without the `simd` feature the whole crate is
// `forbid(unsafe_code)` exactly as before.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-coupled updates across multiple slices are the clearest form for these kernels

pub mod blas1;
pub mod calu;
pub mod cast;
pub mod cond;
pub mod error;
pub mod factor;
pub mod flops;
pub mod gemm;
pub mod gen;
pub mod householder;
pub mod matrix;
pub mod microkernel;
pub mod norms;
pub mod scalar;
pub mod syrk;
pub mod tile;
pub mod trsm;

pub use error::{Error, Result};
pub use gemm::{GemmParams, Transpose};
pub use matrix::Matrix;
pub use microkernel::MicroKernel;
pub use scalar::{Float, Scalar};
pub use tile::{TileIndex, TileMatrix};
pub use trsm::{Diag, Side, Uplo};
