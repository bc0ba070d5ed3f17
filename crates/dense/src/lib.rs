//! # xsc-dense — tiled dense factorizations
//!
//! This crate implements the keynote's algorithmic program for dense linear
//! algebra at scale:
//!
//! * [`cholesky`], [`lu`], [`qr`] — PLASMA-style **tiled algorithms** as
//!   task graphs driven by `xsc-runtime` (**DAG dataflow**: tasks fire the
//!   moment their input tiles are ready). Cholesky also runs as the
//!   **fork-join / bulk-synchronous** baseline — the same graph one
//!   dependence level at a time, with a barrier after each level (the
//!   model the keynote argues is obsolete).
//! * [`tsqr`] — the **communication-avoiding** tall-skinny QR: a reduction
//!   tree of small factorizations that moves `O(n²·log P)` words where the
//!   flat algorithm moves `O(m·n)`.
//! * [`rbt`] — **random butterfly transforms**: randomization in place of
//!   pivoting, removing the pivot search's synchronization point.
//! * [`hpl`] — the HPL-like benchmark driver (thread-parallel blocked LU
//!   with partial pivoting, HPL flop accounting and the HPL acceptance
//!   residual), one half of the headline HPL-vs-HPCG experiment.
//! * [`resilient`] — **ABFT-guarded resilient Cholesky**: each tile kernel
//!   verifies an `O(nb²)` checksum identity over its output and fails the
//!   task on mismatch, letting the resilient runtime re-execute exactly the
//!   corrupted tile operation (E17).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-coupled updates across multiple slices are the clearest form for these kernels

pub mod cholesky;
pub mod hpl;
pub mod lu;
pub mod qr;
pub mod rbt;
pub mod resilient;
pub mod tsqr;

pub mod poison;

pub use hpl::HplResult;
