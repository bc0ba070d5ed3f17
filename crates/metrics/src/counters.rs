//! The thread-aware counter registry and its scoped RAII recorders.
//!
//! Recording is additive and commutative: every recorder adds plain `u64`
//! deltas to its kernel's entry, so totals are **deterministic across
//! thread counts and interleavings** — two identical runs report identical
//! flop/byte totals (wall-clock `ns` is, of course, run-dependent).
//! Nested scopes simply add: a `mg_vcycle` scope that internally runs
//! `symgs` scopes produces an `mg_vcycle` entry *and* `symgs` entries, and
//! each entry accounts exactly what was declared against it. Aggregating
//! overlapping entries double-counts by construction; the roofline report
//! keeps kernels separate for exactly this reason.

use crate::stopwatch::Stopwatch;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Accumulated counters for one named kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes read from memory (per the kernel's analytic traffic model).
    pub bytes_read: u64,
    /// Bytes written to memory (per the kernel's analytic traffic model).
    pub bytes_written: u64,
    /// Number of recorded invocations.
    pub invocations: u64,
    /// Wall-clock nanoseconds accumulated across invocations.
    pub ns: u64,
}

impl KernelCounters {
    /// Total bytes moved (read + written).
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Accumulated wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Arithmetic intensity in flops per byte (0 when no bytes were moved).
    pub fn intensity(&self) -> f64 {
        let b = self.bytes();
        if b == 0 {
            return 0.0;
        }
        self.flops as f64 / b as f64
    }

    /// Attained Gflop/s over the accumulated wall time (0 when untimed).
    pub fn attained_gflops(&self) -> f64 {
        if self.ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.ns as f64
    }

    /// Attained memory bandwidth in GB/s over the accumulated wall time.
    pub fn attained_gbs(&self) -> f64 {
        if self.ns == 0 {
            return 0.0;
        }
        self.bytes() as f64 / self.ns as f64
    }

    /// Adds another counter set into this one (field-wise sum).
    pub fn merge(&mut self, other: &KernelCounters) {
        self.flops += other.flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.invocations += other.invocations;
        self.ns += other.ns;
    }

    /// Field-wise saturating difference (`self - earlier`), used to turn
    /// two registry snapshots into the traffic of the work between them.
    pub fn saturating_sub(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            flops: self.flops.saturating_sub(earlier.flops),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            invocations: self.invocations.saturating_sub(earlier.invocations),
            ns: self.ns.saturating_sub(earlier.ns),
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        *self == KernelCounters::default()
    }
}

/// Work and traffic declared by one kernel invocation (the input to a
/// recorder; produced by the analytic models in [`crate::traffic`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl Traffic {
    /// Total bytes moved (read + written).
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Field-wise sum of two traffic declarations.
    pub fn plus(&self, other: Traffic) -> Traffic {
        Traffic {
            flops: self.flops + other.flops,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }

    /// This traffic repeated `n` times.
    pub fn times(&self, n: u64) -> Traffic {
        Traffic {
            flops: self.flops * n,
            bytes_read: self.bytes_read * n,
            bytes_written: self.bytes_written * n,
        }
    }
}

/// A named-kernel counter store. The process-wide instance behind
/// [`record`]/[`snapshot`] is what the instrumented kernels feed; separate
/// instances exist so tests can accumulate in isolation.
#[derive(Default)]
pub struct Registry {
    cells: Mutex<BTreeMap<&'static str, KernelCounters>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `traffic` (plus one invocation and `ns` nanoseconds) to the
    /// entry for `kernel`.
    pub fn add(&self, kernel: &'static str, traffic: Traffic, ns: u64) {
        let mut map = self.cells.lock().expect("metrics registry poisoned");
        let cell = map.entry(kernel).or_default();
        cell.flops += traffic.flops;
        cell.bytes_read += traffic.bytes_read;
        cell.bytes_written += traffic.bytes_written;
        cell.invocations += 1;
        cell.ns += ns;
    }

    /// Counters for one kernel, if it has recorded anything.
    pub fn get(&self, kernel: &str) -> Option<KernelCounters> {
        self.cells
            .lock()
            .expect("metrics registry poisoned")
            .get(kernel)
            .copied()
    }

    /// All entries, sorted by kernel name.
    pub fn snapshot(&self) -> Vec<(&'static str, KernelCounters)> {
        self.cells
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Clears every entry.
    pub fn reset(&self) {
        self.cells
            .lock()
            .expect("metrics registry poisoned")
            .clear();
    }
}

static GLOBAL: Registry = Registry {
    cells: Mutex::new(BTreeMap::new()),
};

thread_local! {
    /// Per-thread running (flops, bytes) totals, sampled by the runtime
    /// executor around each task to attribute intensity per task span.
    static THREAD_TOTALS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// This thread's running `(flops, bytes)` totals across every recorder
/// that completed on it. Monotone non-decreasing; the runtime executor
/// samples it before and after a task to compute the task's delta.
pub fn thread_totals() -> (u64, u64) {
    THREAD_TOTALS.with(|t| t.get())
}

fn bump_thread_totals(traffic: &Traffic) {
    THREAD_TOTALS.with(|t| {
        let (f, b) = t.get();
        t.set((f + traffic.flops, b + traffic.bytes()));
    });
}

/// RAII guard created by [`record`]: on drop it adds the declared traffic,
/// one invocation, and the elapsed nanoseconds to the global registry (and
/// to this thread's running totals).
pub struct ScopedRecorder {
    kernel: &'static str,
    traffic: Traffic,
    start: Stopwatch,
}

impl ScopedRecorder {
    /// Adds more traffic to this scope before it closes (for kernels whose
    /// full traffic is only known mid-flight).
    pub fn add(&mut self, extra: Traffic) {
        self.traffic = self.traffic.plus(extra);
    }
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        GLOBAL.add(self.kernel, self.traffic, self.start.nanos());
        bump_thread_totals(&self.traffic);
    }
}

/// Opens a scoped recorder for `kernel` declaring `traffic`; the scope's
/// wall time and traffic are committed to the global registry when the
/// returned guard drops.
///
/// ```
/// let _scope = xsc_metrics::record(
///     "doc_axpy",
///     xsc_metrics::traffic::axpy(1024, 8),
/// );
/// // kernel body runs here; counters commit when `_scope` drops
/// ```
pub fn record(kernel: &'static str, traffic: Traffic) -> ScopedRecorder {
    ScopedRecorder {
        kernel,
        traffic,
        start: Stopwatch::start(),
    }
}

/// Records `traffic` against `kernel` immediately, with zero elapsed time
/// (for analytic or replayed work that has no wall-clock span).
pub fn record_untimed(kernel: &'static str, traffic: Traffic) {
    GLOBAL.add(kernel, traffic, 0);
    bump_thread_totals(&traffic);
}

/// All global entries, sorted by kernel name.
pub fn snapshot() -> Vec<(&'static str, KernelCounters)> {
    GLOBAL.snapshot()
}

/// Clears the global registry.
pub fn reset() {
    GLOBAL.reset()
}

/// Runs `f` and returns its result together with the per-kernel counter
/// *deltas* it produced (registry snapshot after minus before), so callers
/// can attribute traffic to a phase without resetting the registry.
///
/// Only counts work recorded on threads that finished their scopes before
/// `f` returns — which holds for every instrumented kernel in `xsc`, since
/// they all join their parallelism internally.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Vec<(&'static str, KernelCounters)>) {
    let before: BTreeMap<&'static str, KernelCounters> = snapshot().into_iter().collect();
    let out = f();
    let delta = snapshot()
        .into_iter()
        .filter_map(|(k, after)| {
            let d = match before.get(k) {
                Some(b) => after.saturating_sub(b),
                None => after,
            };
            (!d.is_empty()).then_some((k, d))
        })
        .collect();
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The global registry is shared by every test in this module; each
    /// test that records into it or resets it holds this lock, so one
    /// test's `reset` cannot land inside another's `measure`.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    fn lock_global() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let r = Registry::new();
        r.add(
            "k",
            Traffic {
                flops: 10,
                bytes_read: 4,
                bytes_written: 2,
            },
            100,
        );
        r.add(
            "k",
            Traffic {
                flops: 5,
                bytes_read: 1,
                bytes_written: 1,
            },
            50,
        );
        let c = r.get("k").unwrap();
        assert_eq!(c.flops, 15);
        assert_eq!(c.bytes(), 8);
        assert_eq!(c.invocations, 2);
        assert_eq!(c.ns, 150);
        assert!((c.intensity() - 15.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn scoped_recorder_commits_on_drop() {
        let _guard = lock_global();
        reset();
        {
            let _s = record(
                "scoped_test_kernel",
                Traffic {
                    flops: 7,
                    bytes_read: 3,
                    bytes_written: 2,
                },
            );
            assert!(
                GLOBAL.get("scoped_test_kernel").is_none(),
                "commits only on drop"
            );
        }
        let c = GLOBAL.get("scoped_test_kernel").unwrap();
        assert_eq!(c.flops, 7);
        assert_eq!(c.invocations, 1);
    }

    #[test]
    fn measure_reports_deltas_only() {
        let _guard = lock_global();
        reset();
        record_untimed(
            "measure_base",
            Traffic {
                flops: 100,
                bytes_read: 50,
                bytes_written: 0,
            },
        );
        let ((), delta) = measure(|| {
            record_untimed(
                "measure_base",
                Traffic {
                    flops: 10,
                    bytes_read: 5,
                    bytes_written: 5,
                },
            );
            record_untimed(
                "measure_new",
                Traffic {
                    flops: 1,
                    ..Default::default()
                },
            );
        });
        let map: BTreeMap<_, _> = delta.into_iter().collect();
        assert_eq!(map["measure_base"].flops, 10);
        assert_eq!(map["measure_base"].bytes(), 10);
        assert_eq!(map["measure_new"].flops, 1);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn thread_totals_monotone() {
        let _guard = lock_global();
        let (f0, b0) = thread_totals();
        record_untimed(
            "thread_total_probe",
            Traffic {
                flops: 3,
                bytes_read: 2,
                bytes_written: 1,
            },
        );
        let (f1, b1) = thread_totals();
        assert_eq!(f1 - f0, 3);
        assert_eq!(b1 - b0, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Counters are additive: recording a batch of traffic deltas one
        /// at a time (in any grouping) yields the same totals as summing
        /// them first — and running totals are monotone non-decreasing.
        #[test]
        fn additive_and_monotone_under_nested_scopes(
            ops in proptest::collection::vec((0u64..1_000, 0u64..1_000, 0u64..1_000), 1..20),
            split in 0usize..20,
        ) {
            let r = Registry::new();
            let mut running = KernelCounters::default();
            // "Nested" grouping: first `split` ops recorded under an outer
            // aggregate as one pre-summed Traffic, the rest one by one.
            let split = split.min(ops.len());
            let mut outer = Traffic::default();
            for &(f, br, bw) in &ops[..split] {
                outer = outer.plus(Traffic { flops: f, bytes_read: br, bytes_written: bw });
            }
            r.add("k", outer, 0);
            for &(f, br, bw) in &ops[split..] {
                let prev = r.get("k").unwrap();
                r.add("k", Traffic { flops: f, bytes_read: br, bytes_written: bw }, 0);
                let cur = r.get("k").unwrap();
                // Monotone in every field.
                prop_assert!(cur.flops >= prev.flops);
                prop_assert!(cur.bytes_read >= prev.bytes_read);
                prop_assert!(cur.bytes_written >= prev.bytes_written);
                prop_assert!(cur.invocations > prev.invocations);
            }
            for &(f, br, bw) in &ops {
                running.merge(&KernelCounters {
                    flops: f, bytes_read: br, bytes_written: bw, invocations: 0, ns: 0,
                });
            }
            let got = r.get("k").unwrap();
            // Additive: grouping does not change flop/byte totals.
            prop_assert_eq!(got.flops, running.flops);
            prop_assert_eq!(got.bytes_read, running.bytes_read);
            prop_assert_eq!(got.bytes_written, running.bytes_written);
            // One invocation per add call: split groups + singles.
            prop_assert_eq!(got.invocations, 1 + (ops.len() - split) as u64);
        }
    }
}
