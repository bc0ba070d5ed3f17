//! # xsc-runtime — superscalar dataflow task scheduling
//!
//! Dongarra's keynote argues that bulk-synchronous (fork-join) parallelism
//! cannot keep an extreme-scale machine busy: every algorithmic step ends in
//! a barrier where most workers idle. The remedy — demonstrated by
//! PLASMA/QUARK, StarPU, and PaRSEC — is *superscalar dataflow execution*:
//! tasks are inserted in sequential program order, each declaring which data
//! it reads and writes; the runtime derives the dependence DAG automatically
//! and executes any task the moment its inputs are ready.
//!
//! This crate is a from-scratch Rust implementation of that model:
//!
//! * [`TaskGraph`] — sequential-order task insertion with `Read`/`Write`
//!   access declarations; RAW, WAR, and WAW hazards become DAG edges.
//! * [`Executor`] — a multithreaded work-stealing executor with FIFO,
//!   critical-path, or explicit priority scheduling ([`SchedPolicy`]):
//!   per-worker ready heaps, affinity-guided stealing
//!   ([`TaskGraph::set_affinity`]), and exact single-worker determinism.
//! * [`trace::Trace`] — per-worker execution traces with utilization,
//!   makespan, and critical-path statistics, used by experiment E02 to show
//!   the dataflow-vs-fork-join utilization gap.
//! * [`resilience`] — task-level fault domains: fallible kernels
//!   ([`TaskGraph::add_fallible_task`]) are retried under a per-execution
//!   [`RecoveryPolicy`] with deterministic simulated backoff, and the trace
//!   reports retries, recoveries, and skipped subtrees ([`ResilienceStats`]).
//!
//! ```
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//! use xsc_runtime::{Access, Executor, SchedPolicy, TaskGraph};
//!
//! let x = Arc::new(Mutex::new(0u64));
//! let mut g = TaskGraph::new();
//! for _ in 0..4 {
//!     let x = Arc::clone(&x);
//!     // All four tasks write the same datum, so they are serialized.
//!     g.add_task("incr", [Access::Write(0)], move || {
//!         *x.lock() += 1;
//!     });
//! }
//! let exec = Executor::new(2, SchedPolicy::Fifo);
//! exec.execute(g);
//! assert_eq!(*x.lock(), 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-coupled updates across multiple slices are the clearest form for these kernels

mod executor;
mod graph;
pub mod resilience;
pub mod schedule_check;
pub mod trace;

pub use executor::{Executor, SchedPolicy};
pub use graph::{Access, Body, DataId, TaskGraph, TaskId, NO_AFFINITY};
pub use resilience::{
    fnv1a, mix, unit_f64, Attempt, Backoff, ExhaustedAction, RecoveryPolicy, ResilienceStats,
    TaskFault, TaskOutcome,
};
