//! # xsc-ft — algorithm-based fault tolerance
//!
//! At extreme scale the mean time between component faults drops below the
//! runtime of a single job, so the keynote promotes fault handling from the
//! system layer into the *algorithms*:
//!
//! * [`plan`] — the one seeded fault plan: a pure hash of `(seed, site,
//!   step, attempt)` decides whether a step faults and which victim it
//!   hits, so every fault campaign reproduces exactly across runs and
//!   thread counts. A step is a DAG task attempt (chaos plans that panic,
//!   silently corrupt output, or stall — E17) or a solver iteration and
//!   its rollback sweep (memory faults in named solver buffers — E12, E20);
//! * [`inject`] — the fault kinds (bit flips, stuck values, scaling,
//!   zeroing) standing in for the hardware faults we cannot schedule;
//! * [`abft`] — Huang–Abraham checksum encoding for GEMM and Cholesky:
//!   detect, *locate*, and *correct* a corrupted entry from row/column
//!   checksums, at `O(n²)` overhead on an `O(n³)` computation;
//! * [`checkpoint`] — checkpoint/rollback for iterative solvers, plus a
//!   fault-aware CG driver comparing the two recovery styles (E12);
//! * [`sdc`] — the SDC-resilient Krylov stack: [`sdc::protected_pcg`] —
//!   CG under the `xsc-sparse` ABFT detectors with bounded-rollback
//!   checkpoint recovery (E20).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-coupled updates across multiple slices are the clearest form for these kernels

pub mod abft;
pub mod checkpoint;
pub mod inject;
pub mod plan;
pub mod sdc;

pub use abft::{abft_gemm, AbftOutcome};
pub use plan::{ChaosKind, FaultPlan};
pub use sdc::{
    protected_pcg, unprotected_pcg, AbortReason, ProtectConfig, RecoveryOutcome, SdcReport,
    SolverBuffer, SolverCheckpoint,
};
