//! # xsc-precision — mixed-precision numerics
//!
//! The keynote's rule: low precision is disproportionately fast (and cheap
//! in energy), so factor in low precision and recover double accuracy with
//! **iterative refinement**. This crate implements:
//!
//! * [`half::Half`] — a software-emulated IEEE binary16, so the three-
//!   precision pipelines of the paper's program run without fp16 hardware
//!   (a documented substitution: the numerics are identical, the speed is
//!   not);
//! * [`ir`] — classic LU-based iterative refinement (`factor in u_low,
//!   refine in f64`), the keynote's ~2× speedup recipe;
//! * [`gmres_ir`] — GMRES-IR, the extension that tolerates much worse
//!   conditioning than classic refinement;
//! * [`adaptive`] — the condition-estimate-driven dispatcher that picks
//!   between classic IR, GMRES-IR, and a full-precision fallback.
//!
//! All of them run on one low-precision LU (convert `A`, factor, solve in
//! the low precision) and one `f64` refinement loop, both in [`ir`]; the
//! dispatcher factors `A` once and hands that factorization to its tier.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-coupled updates across multiple slices are the clearest form for these kernels

pub mod adaptive;
pub mod gmres_ir;
pub mod half;
pub mod ir;

pub use adaptive::{adaptive_solve, AdaptiveReport, SolverChoice};
pub use half::Half;
pub use ir::{lu_ir_solve, IrReport};
