//! Seeded fault plans: the one fault decider behind every resilience
//! experiment (E12, E17, E20).
//!
//! A [`FaultPlan`] decides **statelessly**: every verdict is a pure hash of
//! `(seed, site, step, attempt)`, so a plan is `Sync`, can be shared by
//! every worker without locks, and yields byte-identical fault schedules
//! across runs and thread counts. A *step* is a DAG task or a solver
//! iteration; an *attempt* is a task retry or a rollback replay. Attempts
//! roll independently, so a retried task or a replayed iteration is *not*
//! doomed to refail (and campaigns at the same rate hit the same first
//! attempts regardless of retry policy).
//!
//! One step draws at three *sites*, each salted so its draws are
//! independent of the others:
//!
//! * whether the step fires ([`FaultPlan::fires_at`], [`FaultPlan::decide`]);
//! * the victim ([`FaultPlan::victim_index`]): the element of a task's
//!   output, or the [`SolverBuffer`](crate::sdc::SolverBuffer) a solver
//!   fault hits;
//! * the victim element inside that solver buffer
//!   ([`FaultPlan::element_index`]).
//!
//! The plan's kind `K` is what a fired step does. DAG plans use
//! [`ChaosKind`], the three fault species the keynote lists as dominant at
//! scale:
//!
//! * [`ChaosKind::Panic`] — the task dies mid-flight (process/node crash);
//! * [`ChaosKind::SilentCorrupt`] — the task completes but its output is
//!   wrong (undetected DRAM/logic error) — the case ABFT exists for;
//! * [`ChaosKind::Stall`] — the task runs far slower than its siblings
//!   (the "straggler" problem).
//!
//! Solver loops take a `FaultPlan<FaultKind>`: a solver fault can only
//! corrupt, and the type says so.

use crate::inject::FaultKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xsc_runtime::{mix, unit_f64};

/// How long a [`ChaosKind::Stall`] injection sleeps.
pub const STALL: Duration = Duration::from_micros(100);

/// Salt of the fire-or-not site.
const FIRE: u64 = 0;
/// Salt of the victim site: a task's output element, or a solver buffer.
const VICTIM: u64 = 0x9e3779b97f4a7c15;
/// Salt of the solver's victim-element site.
const ELEMENT: u64 = 0xd1b54a32d192ed03;

/// What an injected chaos event does to the victim task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// The attempt panics (fail-crash).
    Panic,
    /// The attempt completes with corrupted output (silent data error),
    /// perturbing one element with the given [`FaultKind`].
    SilentCorrupt(FaultKind),
    /// The attempt stalls for [`STALL`] before running.
    Stall,
}

/// A seeded, schedule-independent fault plan firing faults of kind `K`
/// (for one DAG execution, a solve, or an entire campaign — the decision
/// function has no mutable state; the only interior mutability is the
/// fired counter).
#[derive(Debug)]
pub struct FaultPlan<K = ChaosKind> {
    seed: u64,
    rate: f64,
    kind: K,
    fired: AtomicUsize,
}

impl<K: Copy> FaultPlan<K> {
    /// Creates a plan firing with probability `rate` per step attempt.
    ///
    /// # Panics
    /// If `rate` is not in `[0, 1]` (NaN included).
    pub fn new(seed: u64, rate: f64, kind: K) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FaultPlan {
            seed,
            rate,
            kind,
            fired: AtomicUsize::new(0),
        }
    }

    /// The per-attempt firing probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn roll(&self, site: u64, step: usize, attempt: u32) -> u64 {
        mix(self.seed ^ site ^ mix(((step as u64) << 32) | u64::from(attempt)))
    }

    /// Pure decision: does this `(step, attempt)` pair draw a fault?
    /// Identical across runs, thread counts, and schedules. Does not
    /// count anything — see [`FaultPlan::decide`].
    pub fn fires_at(&self, step: usize, attempt: u32) -> bool {
        unit_f64(self.roll(FIRE, step, attempt)) < self.rate
    }

    /// Rolls for one attempt and, when it fires, counts the event and
    /// returns the plan's kind. Call exactly once per attempt.
    pub fn decide(&self, step: usize, attempt: u32) -> Option<K> {
        if !self.fires_at(step, attempt) {
            return None;
        }
        self.fired.fetch_add(1, Ordering::Relaxed);
        Some(self.kind)
    }

    fn pick(&self, site: u64, len: usize, step: usize, attempt: u32) -> Option<usize> {
        (len > 0).then(|| (self.roll(site, step, attempt) % len as u64) as usize)
    }

    /// Deterministic victim choice among `len` candidates for this
    /// `(step, attempt)` — a task's output element (callers may corrupt
    /// within a custom index set, e.g. only the live triangle of a
    /// symmetric tile), or a solver buffer. Returns `None` when `len == 0`.
    pub fn victim_index(&self, len: usize, step: usize, attempt: u32) -> Option<usize> {
        self.pick(VICTIM, len, step, attempt)
    }

    /// Deterministic victim element among `len` entries of the solver
    /// buffer [`FaultPlan::victim_index`] chose. Returns `None` when
    /// `len == 0`.
    pub fn element_index(&self, len: usize, step: usize, attempt: u32) -> Option<usize> {
        self.pick(ELEMENT, len, step, attempt)
    }

    /// Corrupts a deterministically chosen element of `data` with `kind`
    /// (the element index is a hash of the plan seed and the attempt, so
    /// same-seed runs corrupt the same element of the same task).
    pub fn corrupt_slice(&self, data: &mut [f64], kind: FaultKind, step: usize, attempt: u32) {
        if let Some(i) = self.victim_index(data.len(), step, attempt) {
            data[i] = kind.apply(data[i]);
        }
    }

    /// Total injections so far.
    pub fn total_fired(&self) -> usize {
        self.fired.load(Ordering::Relaxed)
    }
}

impl FaultPlan<ChaosKind> {
    /// Total injections so far, by species: `(panics, corruptions, stalls)`.
    pub fn fired(&self) -> (usize, usize, usize) {
        let n = self.total_fired();
        match self.kind {
            ChaosKind::Panic => (n, 0, 0),
            ChaosKind::SilentCorrupt(_) => (0, n, 0),
            ChaosKind::Stall => (0, 0, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            p.decide(0, 1),
            Some(ChaosKind::SilentCorrupt(FaultKind::BitFlip))
        );
        assert!(matches!(p.decide(1, 1), Some(ChaosKind::SilentCorrupt(_))));
        assert_eq!(p.fired(), (0, 2, 0));
        assert_eq!(p.total_fired(), 2);
        let stalls = FaultPlan::new(5, 1.0, ChaosKind::Stall);
        assert_eq!(stalls.decide(0, 1), Some(ChaosKind::Stall));
        assert_eq!(stalls.fired(), (0, 0, 1));
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
    fn victim_and_element_sites_are_independent() {
        let p = FaultPlan::new(3, 1.0, FaultKind::BitFlip);
        assert_eq!(p.element_index(0, 1, 0), None);
        let differ = (0..64)
            .filter(|&t| p.victim_index(1 << 20, t, 0) != p.element_index(1 << 20, t, 0))
            .count();
        assert_eq!(differ, 64, "the two sites must draw different words");
    }
}
