//! Chaos plans: schedule-independent fault injection for task DAGs.
//!
//! [`FaultInjector`](crate::inject::FaultInjector) draws from a *stateful*
//! RNG stream, which is right for a single-threaded solver loop but wrong
//! for a multithreaded DAG: the stream order would depend on thread
//! interleaving, and two runs of the same campaign would corrupt different
//! tasks. A [`FaultPlan`] instead decides **statelessly** — the verdict
//! for a `(task, attempt)` pair is a pure hash of `(seed, task, attempt)`
//! — so it is `Sync`, can be shared by every worker without locks, and
//! yields byte-identical fault schedules across runs and thread counts.
//! Retries are first-class: attempt 2 of a task rolls independently of
//! attempt 1, so a retried task is *not* doomed to refail (and campaigns
//! at the same rate hit the same first attempts regardless of retry
//! policy).
//!
//! A plan injects three fault species, mirroring what the keynote lists as
//! the dominant failure modes at scale:
//!
//! * [`ChaosKind::Panic`] — the task dies mid-flight (process/node crash);
//! * [`ChaosKind::SilentCorrupt`] — the task completes but its output is
//!   wrong (undetected DRAM/logic error) — the case ABFT exists for;
//! * [`ChaosKind::Stall`] — the task runs far slower than its siblings
//!   (the "straggler" problem).

use crate::inject::FaultKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xsc_runtime::{mix, unit_f64, Attempt, TaskFault, TaskId};

/// What an injected chaos event does to the victim task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// The attempt panics (fail-crash).
    Panic,
    /// The attempt completes with corrupted output (silent data error),
    /// perturbing one element with the given [`FaultKind`].
    SilentCorrupt(FaultKind),
    /// The attempt stalls for the plan's stall duration before running.
    Stall,
}

/// The verdict [`FaultPlan::decide`] returns for one task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Panic now (the plan has already counted it).
    Panic,
    /// Complete normally, then corrupt the output via
    /// [`FaultPlan::corrupt_slice`].
    Corrupt(FaultKind),
    /// Sleep for [`FaultPlan::stall_duration`] before (or while) running.
    Stall(Duration),
}

/// A seeded, schedule-independent fault plan for one DAG execution (or an
/// entire campaign — the decision function has no mutable state; the only
/// interior mutability is the fired counters).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    kind: ChaosKind,
    stall: Duration,
    fired_panics: AtomicUsize,
    fired_corruptions: AtomicUsize,
    fired_stalls: AtomicUsize,
}

impl FaultPlan {
    /// Creates a plan firing with probability `rate` per task attempt.
    ///
    /// # Panics
    /// If `rate` is not in `[0, 1]` (NaN included).
    pub fn new(seed: u64, rate: f64, kind: ChaosKind) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FaultPlan {
            seed,
            rate,
            kind,
            stall: Duration::from_micros(200),
            fired_panics: AtomicUsize::new(0),
            fired_corruptions: AtomicUsize::new(0),
            fired_stalls: AtomicUsize::new(0),
        }
    }

    /// Sets how long a [`ChaosKind::Stall`] injection sleeps.
    pub fn stall_duration(mut self, d: Duration) -> Self {
        self.stall = d;
        self
    }

    /// The per-attempt firing probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pure decision: does this `(task, attempt)` pair draw a fault?
    /// Identical across runs, thread counts, and schedules. Does not
    /// count anything — see [`FaultPlan::decide`].
    pub fn fires_at(&self, task: TaskId, attempt: u32) -> bool {
        let h = mix(self.seed ^ mix((task as u64) << 32 | u64::from(attempt)));
        unit_f64(h) < self.rate
    }

    /// Rolls for one attempt and, when it fires, counts the event and
    /// returns what the kernel must do. Call exactly once per attempt.
    pub fn decide(&self, task: TaskId, attempt: u32) -> Option<Injection> {
        if !self.fires_at(task, attempt) {
            return None;
        }
        Some(match self.kind {
            ChaosKind::Panic => {
                self.fired_panics.fetch_add(1, Ordering::Relaxed);
                Injection::Panic
            }
            ChaosKind::SilentCorrupt(k) => {
                self.fired_corruptions.fetch_add(1, Ordering::Relaxed);
                Injection::Corrupt(k)
            }
            ChaosKind::Stall => {
                self.fired_stalls.fetch_add(1, Ordering::Relaxed);
                Injection::Stall(self.stall)
            }
        })
    }

    /// Deterministic victim choice among `len` candidates for this
    /// `(task, attempt)` — lets callers corrupt within a custom index set
    /// (e.g. only the live triangle of a symmetric tile). Returns `None`
    /// when `len == 0`.
    pub fn victim_index(&self, len: usize, task: TaskId, attempt: u32) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let h = mix(self.seed ^ 0x9e3779b97f4a7c15 ^ mix((task as u64) << 32 | u64::from(attempt)));
        Some((h % len as u64) as usize)
    }

    /// Corrupts a deterministically chosen element of `data` with `kind`
    /// (the element index is a hash of the plan seed and the attempt, so
    /// same-seed runs corrupt the same element of the same task).
    pub fn corrupt_slice(&self, data: &mut [f64], kind: FaultKind, task: TaskId, attempt: u32) {
        if let Some(i) = self.victim_index(data.len(), task, attempt) {
            data[i] = kind.apply(data[i]);
        }
    }

    /// Total injections so far, by species: `(panics, corruptions, stalls)`.
    pub fn fired(&self) -> (usize, usize, usize) {
        (
            self.fired_panics.load(Ordering::Relaxed),
            self.fired_corruptions.load(Ordering::Relaxed),
            self.fired_stalls.load(Ordering::Relaxed),
        )
    }

    /// Total injections so far, all species.
    pub fn total_fired(&self) -> usize {
        let (p, c, s) = self.fired();
        p + c + s
    }
}

/// Wraps a fallible kernel with this plan: panics and stalls are injected
/// generically; silent corruption is delegated to `corrupt`, which knows
/// where the task's output lives (called *after* the kernel succeeds, so
/// the corruption lands on computed data exactly as a silent hardware
/// error would).
///
/// The wrapped kernel is `Fn + Send + Sync`, ready for
/// [`TaskGraph::add_fallible_task`](xsc_runtime::TaskGraph::add_fallible_task).
pub fn chaos_kernel<K, C>(
    plan: std::sync::Arc<FaultPlan>,
    kernel: K,
    corrupt: C,
) -> impl Fn(Attempt) -> Result<(), TaskFault> + Send + Sync
where
    K: Fn(Attempt) -> Result<(), TaskFault> + Send + Sync,
    C: Fn(&FaultPlan, FaultKind, Attempt) + Send + Sync,
{
    move |a: Attempt| match plan.decide(a.task, a.attempt) {
        Some(Injection::Panic) => {
            panic!(
                "chaos: injected panic in task {} attempt {}",
                a.task, a.attempt
            )
        }
        Some(Injection::Stall(d)) => {
            std::thread::sleep(d);
            kernel(a)
        }
        Some(Injection::Corrupt(k)) => {
            kernel(a)?;
            corrupt(&plan, k, a);
            Ok(())
        }
        None => kernel(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn decisions_are_deterministic_and_schedule_free() {
        let p1 = FaultPlan::new(42, 0.3, ChaosKind::Panic);
        let p2 = FaultPlan::new(42, 0.3, ChaosKind::Panic);
        // Query p2 in a scrambled order: verdicts must match anyway.
        let forward: Vec<bool> = (0..100).map(|t| p1.fires_at(t, 1)).collect();
        let backward: Vec<bool> = (0..100).rev().map(|t| p2.fires_at(t, 1)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        assert!(
            forward.iter().any(|&b| b),
            "rate 0.3 over 100 tasks must fire"
        );
        assert!(!forward.iter().all(|&b| b), "rate 0.3 must not always fire");
    }

    #[test]
    fn attempts_roll_independently() {
        let p = FaultPlan::new(7, 0.5, ChaosKind::Panic);
        let per_attempt: Vec<bool> = (1..=64).map(|a| p.fires_at(3, a)).collect();
        assert!(per_attempt.iter().any(|&b| b));
        assert!(
            per_attempt.iter().any(|&b| !b),
            "retries must not be doomed"
        );
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::new(1, 0.0, ChaosKind::Panic);
        assert!((0..1000).all(|t| !never.fires_at(t, 1)));
        let always = FaultPlan::new(1, 1.0, ChaosKind::Panic);
        assert!((0..1000).all(|t| always.fires_at(t, 1)));
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0, 1.7, ChaosKind::Panic)).is_err());
    }

    #[test]
    fn empirical_rate_tracks_nominal() {
        let p = FaultPlan::new(1234, 0.05, ChaosKind::Panic);
        let n = 20_000u64;
        let hits = (0..n).filter(|&t| p.fires_at(t as usize, 1)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.05).abs() < 0.01, "empirical rate {freq}");
    }

    #[test]
    fn decide_counts_by_species() {
        let p = FaultPlan::new(5, 1.0, ChaosKind::SilentCorrupt(FaultKind::BitFlip));
        assert!(matches!(
            p.decide(0, 1),
            Some(Injection::Corrupt(FaultKind::BitFlip))
        ));
        assert!(matches!(p.decide(1, 1), Some(Injection::Corrupt(_))));
        assert_eq!(p.fired(), (0, 2, 0));
        assert_eq!(p.total_fired(), 2);
    }

    #[test]
    fn corrupt_slice_is_deterministic() {
        let p = FaultPlan::new(9, 1.0, ChaosKind::SilentCorrupt(FaultKind::Zero));
        let mut a = vec![1.0; 64];
        let mut b = vec![1.0; 64];
        p.corrupt_slice(&mut a, FaultKind::Zero, 4, 1);
        p.corrupt_slice(&mut b, FaultKind::Zero, 4, 1);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&v| v == 0.0).count(), 1);
        // Different attempt -> (generically) different victim element.
        let mut c = vec![1.0; 64];
        p.corrupt_slice(&mut c, FaultKind::Zero, 4, 2);
        let pos = |v: &[f64]| v.iter().position(|&x| x == 0.0).unwrap();
        assert_ne!(pos(&a), pos(&c));
        // Empty slices are a no-op, not a panic.
        let mut empty: [f64; 0] = [];
        p.corrupt_slice(&mut empty, FaultKind::Zero, 0, 1);
    }

    #[test]
    fn chaos_kernel_injects_panic_and_corruption() {
        use std::sync::Mutex;
        // Panic species: wrapped kernel panics when the plan fires.
        let plan = Arc::new(FaultPlan::new(3, 1.0, ChaosKind::Panic));
        let k = chaos_kernel(Arc::clone(&plan), |_| Ok(()), |_, _, _| {});
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k(Attempt {
                task: 0,
                attempt: 1,
            })
        }));
        assert!(r.is_err());
        assert_eq!(plan.fired().0, 1);

        // Corruption species: kernel output corrupted after success.
        let data = Arc::new(Mutex::new(vec![1.0f64; 8]));
        let plan = Arc::new(FaultPlan::new(
            3,
            1.0,
            ChaosKind::SilentCorrupt(FaultKind::Zero),
        ));
        let d = Arc::clone(&data);
        let k = chaos_kernel(
            Arc::clone(&plan),
            |_| Ok(()),
            move |p, kind, a| p.corrupt_slice(&mut d.lock().unwrap(), kind, a.task, a.attempt),
        );
        k(Attempt {
            task: 0,
            attempt: 1,
        })
        .unwrap();
        assert_eq!(
            data.lock().unwrap().iter().filter(|&&v| v == 0.0).count(),
            1
        );
    }

    #[test]
    fn chaos_kernel_rate_zero_is_passthrough() {
        let plan = Arc::new(FaultPlan::new(3, 0.0, ChaosKind::Panic));
        let k = chaos_kernel(Arc::clone(&plan), |_| Ok(()), |_, _, _| {});
        for t in 0..100 {
            assert!(k(Attempt {
                task: t,
                attempt: 1
            })
            .is_ok());
        }
        assert_eq!(plan.total_fired(), 0);
    }
}
