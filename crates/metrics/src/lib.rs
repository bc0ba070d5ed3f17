//! # xsc-metrics — data-movement observability
//!
//! The keynote's central claim is that **data movement, not arithmetic,
//! dominates the cost of extreme-scale computing**: HPL sustains 60–90 % of
//! peak while memory-bound HPCG sustains 1–5 %. Timing a kernel tells you
//! *how long* it ran; only accounting the bytes it moved tells you *why*.
//! This crate is the accounting layer the rest of `xsc` reports through:
//!
//! * [`counters`] — a process-wide, thread-aware registry of per-kernel
//!   [`KernelCounters`] (`flops`, `bytes_read`, `bytes_written`,
//!   `invocations`, `ns`), fed by scoped RAII recorders ([`record`]) that
//!   the instrumented kernels in `xsc-core`, `xsc-sparse`, and `xsc-dense`
//!   create on entry;
//! * [`traffic`] — analytic per-kernel traffic models (packed-GEMM reload
//!   factors, CSR SpMV streams, SymGS sweeps, multigrid V-cycles, blocked
//!   LU/Cholesky panel traffic) that turn a kernel's shape into the bytes
//!   it must move through DRAM;
//! * [`roofline`] — arithmetic intensity, attained Gflop/s, and a
//!   bandwidth- vs compute-bound verdict against a [`MachineEnvelope`],
//!   plus an ASCII roofline plot.
//!
//! The crate is dependency-free (std only) so it can sit underneath every
//! other `xsc` crate without cycles.
//!
//! ## Quickstart
//!
//! ```
//! use xsc_metrics::{measure, record, roofline, traffic, MachineEnvelope};
//!
//! let ((), delta) = measure(|| {
//!     // Scoped RAII recorder: counters land in the registry on drop.
//!     let _scope = record("my_kernel", traffic::gemm_colsweep(64, 64, 64, 8));
//!     // ... run the kernel ...
//! });
//! let (_, c) = delta.iter().find(|(k, _)| *k == "my_kernel").expect("recorded");
//! assert_eq!(c.invocations, 1);
//! assert_eq!(c.flops, 2 * 64 * 64 * 64);
//!
//! // Roofline verdict against a machine envelope (peak Gflop/s, GB/s).
//! let env = MachineEnvelope::new("laptop", 50.0, 20.0);
//! let point = roofline::analyze("my_kernel", c, &env);
//! assert!(point.intensity > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod json;
pub mod quantiles;
pub mod roofline;
pub mod stopwatch;
pub mod traffic;

pub use counters::{
    measure, record, record_untimed, reset, snapshot, thread_totals, KernelCounters, Registry,
    ScopedRecorder, Traffic,
};
pub use json::escape_json_into;
pub use quantiles::{percentile, LatencySummary};
pub use roofline::{ascii_roofline, BoundVerdict, MachineEnvelope, RooflinePoint};
pub use stopwatch::Stopwatch;
