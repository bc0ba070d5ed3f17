//! # xsc-sparse — the HPCG-like substrate
//!
//! The keynote's headline evidence that "the rules have changed" is the gap
//! between HPL and **HPCG**: the same machines that run dense LU at 70–90 %
//! of peak run a memory-bound PDE solve at 1–5 %. This crate rebuilds the
//! HPCG benchmark stack from scratch:
//!
//! * [`csr::Csr`] — compressed sparse row storage of `f64` values,
//!   generic over its index width ([`idx`]): [`CsrMatrix`] (`usize`) and
//!   the bandwidth-lean [`Csr32`] (`u32`); its kernels (sequential and
//!   thread-parallel SpMV, the fused residual, SymGS) are its
//!   [`SparseOps`] impl;
//! * [`sell::SellCSigma`] — chunked, vectorization-friendly SELL-C-σ with
//!   `u32` indices; like `Csr32` it halves the matrix stream while
//!   computing bit-identical results;
//! * [`ops`] — the [`SparseOps`] trait the whole solver
//!   path is written against, [`FormatMatrix`]
//!   for runtime format selection, and the two-pass
//!   [`ops::unfused_residual`];
//! * [`stencil`] — the 27-point 3-D stencil problem generator (the HPCG
//!   operator) and its geometric coarsening;
//! * [`symgs`] — the symmetric Gauss–Seidel smoother, in natural order on
//!   every pool thread along a level schedule of the sparsity pattern;
//! * [`mg`] — the 4-level geometric multigrid V-cycle preconditioner;
//! * [`cg`] — preconditioned conjugate gradients with deterministic
//!   (pairwise) reductions;
//! * [`hpcg`] — the benchmark driver with HPCG's flop accounting;
//! * [`pipelined`] — pipelined CG (one merged reduction per iteration,
//!   the keynote's synchronization-reducing Krylov variant);
//! * [`coloring`] — multi-color parallel Gauss–Seidel, HPCG's sanctioned
//!   smoother optimization;
//! * [`chebyshev`] — synchronization-free polynomial smoothing (SpMV-only),
//!   pluggable into the multigrid hierarchy via
//!   [`mg::MgPreconditioner::with_smoother`];
//! * [`sstep`] — s-step (communication-avoiding) CG: one Gram-matrix
//!   reduction per `s` iterations;
//! * [`matrix_powers`] — the `[x, Ax, …, Aˢx]` kernel with its
//!   ghost-exchange accounting;
//! * [`abft`] — algorithm-based fault-tolerance guards: the SpMV
//!   column-sum checksum, residual-drift and V-cycle-contraction
//!   detectors behind the SDC-resilient solver path;
//! * [`error`] — typed errors ([`SolverError`]) for the
//!   recoverable failure modes the `try_*` entry points report instead of
//!   panicking.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-coupled updates across multiple slices are the clearest form for these kernels

pub mod abft;
pub mod cg;
pub mod chebyshev;
pub mod coloring;
pub mod csr;
pub mod error;
pub mod hpcg;
pub mod idx;
pub mod matrix_powers;
pub mod mg;
pub mod ops;
pub mod pipelined;
pub mod sell;
pub mod sstep;
pub mod stencil;
pub mod symgs;

pub use abft::{residual_drift, CheckedApply, SdcDetected, SpmvGuard};
pub use cg::{pcg, try_pcg, CgResult, Identity, Preconditioner};
pub use csr::{Csr, Csr32, CsrMatrix};
pub use error::SolverError;
pub use hpcg::{run_hpcg, run_hpcg_fmt, try_run_hpcg_fmt, HpcgResult};
pub use idx::{IndexOverflow, SparseIndex};
pub use ops::{FormatMatrix, SparseFormat, SparseOps};
pub use pipelined::{pipelined_cg, PipelinedCgResult};
pub use sell::SellCSigma;
pub use stencil::Geometry;
