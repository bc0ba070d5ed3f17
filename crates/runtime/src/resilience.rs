//! Task-level fault domains: retry policies, deterministic backoff, and
//! per-run resilience telemetry.
//!
//! The keynote's premise is that at extreme scale faults are *routine* —
//! the mean time between failures shrinks below the runtime of a single
//! job, so global restart (the checkpoint/restart tradition) stops being
//! viable and the runtime itself must contain failures. The natural
//! containment unit in a dataflow runtime is the **task**: it has declared
//! inputs and outputs, so a failed task can be re-executed (or its
//! dependent subtree abandoned) without touching the rest of the DAG.
//!
//! This module defines the vocabulary the executor uses for that:
//!
//! * [`TaskFault`] — the error a fallible kernel returns to signal that its
//!   attempt produced bad data (e.g. an ABFT checksum mismatch).
//! * [`Attempt`] — per-call context handed to a fallible kernel so it can
//!   restore inputs on a retry and vary fault-injection decisions.
//! * [`RecoveryPolicy`] — per-execution retry budget, backoff schedule, and
//!   the action to take when the budget is exhausted.
//! * [`ResilienceStats`] — what actually happened: retries, recoveries,
//!   permanent failures, skipped subtrees, wasted and backoff time.
//!
//! Backoff is **simulated**: the executor never sleeps. Delays are
//! computed deterministically (seeded, per task and attempt) and
//! accumulated into [`ResilienceStats::simulated_backoff`], which keeps
//! chaos campaigns bit-reproducible and fast while still exercising and
//! reporting the policy.

use crate::graph::TaskId;
use std::time::Duration;

/// Error returned by a fallible task kernel: this attempt failed and the
/// task's outputs must not be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFault {
    message: String,
}

impl TaskFault {
    /// Creates a fault with a human-readable cause.
    pub fn new(message: impl Into<String>) -> Self {
        TaskFault {
            message: message.into(),
        }
    }

    /// The cause description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for TaskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task fault: {}", self.message)
    }
}

impl std::error::Error for TaskFault {}

impl From<String> for TaskFault {
    fn from(message: String) -> Self {
        TaskFault { message }
    }
}

impl From<&str> for TaskFault {
    fn from(message: &str) -> Self {
        TaskFault::new(message)
    }
}

/// Execution context passed to a fallible kernel on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Id of the task being executed.
    pub task: TaskId,
    /// 1-based attempt number (1 = first execution, 2 = first retry, ...).
    pub attempt: u32,
}

impl Attempt {
    /// `true` on every call after the first — the kernel should restore
    /// any output data it may have clobbered on the failed attempt.
    pub fn is_retry(&self) -> bool {
        self.attempt > 1
    }
}

/// Deterministic backoff schedule between retry attempts (simulated time —
/// see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// Retry immediately.
    None,
    /// The same delay before every retry.
    Fixed(Duration),
    /// `base * factor^(attempt-1)`, capped at `max`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Multiplier applied per additional failed attempt.
        factor: f64,
        /// Upper bound on the delay.
        max: Duration,
    },
    /// Exponential with deterministic jitter in `[0.5x, 1.5x)`, derived
    /// from the policy seed, the task id, and the attempt number — two
    /// runs with the same seed see identical "jitter".
    Jittered {
        /// Delay before the first retry (pre-jitter).
        base: Duration,
        /// Multiplier applied per additional failed attempt.
        factor: f64,
        /// Upper bound on the delay (post-jitter).
        max: Duration,
    },
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. The one mixer
/// behind the jittered backoff here and every seeded fault plan in
/// `xsc-ft`, so a seed means the same thing everywhere.
pub fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// Maps a hash word to a uniform `f64` in `[0, 1)` with 53-bit resolution.
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a-style order-sensitive fold of 64-bit words (the FNV-1a 64-bit
/// offset basis and prime, one multiply-then-add per word). The one
/// checksum behind the bitwise-identity tests, E18b's GEMM checksums and
/// the golden report pins.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325u64, |h, w| {
        h.wrapping_mul(0x100000001b3).wrapping_add(w)
    })
}

impl Backoff {
    /// Delay to simulate after attempt number `failed_attempt` of `task`
    /// fails (before attempt `failed_attempt + 1` runs).
    pub fn delay(&self, task: TaskId, failed_attempt: u32, seed: u64) -> Duration {
        match *self {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, factor, max } => {
                scale_capped(base, factor, failed_attempt, max)
            }
            Backoff::Jittered { base, factor, max } => {
                let raw = scale_capped(base, factor, failed_attempt, max);
                let h = mix(seed ^ mix(task as u64 ^ ((failed_attempt as u64) << 32)));
                // Uniform in [0.5, 1.5) with 53-bit resolution.
                let u = 0.5 + unit_f64(h);
                Duration::from_secs_f64((raw.as_secs_f64() * u).min(max.as_secs_f64()))
            }
        }
    }
}

fn scale_capped(base: Duration, factor: f64, failed_attempt: u32, max: Duration) -> Duration {
    let exp = factor
        .max(0.0)
        .powi(failed_attempt.saturating_sub(1) as i32);
    Duration::from_secs_f64((base.as_secs_f64() * exp).min(max.as_secs_f64()))
}

/// What the executor does with a task whose retry budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExhaustedAction {
    /// Stop the whole execution: remaining tasks are left unrun and the
    /// trace reports `aborted` (fail-stop at the job level, but only after
    /// local recovery was tried).
    #[default]
    Abort,
    /// Contain the failure: mark every transitive successor of the failed
    /// task as tainted and skip it, but run the rest of the DAG to
    /// completion. Models partial results / partial re-submission.
    SkipSubtree,
}

/// Per-execution recovery policy for [`Executor::execute_resilient`].
///
/// [`Executor::execute_resilient`]: crate::Executor::execute_resilient
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum executions per task (>= 1; 1 means no retries).
    pub max_attempts: u32,
    /// Simulated delay schedule between attempts.
    pub backoff: Backoff,
    /// Action when `max_attempts` failures accumulate on one task.
    pub on_exhausted: ExhaustedAction,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff: Backoff::None,
            on_exhausted: ExhaustedAction::Abort,
            seed: 0,
        }
    }
}

impl RecoveryPolicy {
    /// A policy with the given retry budget and defaults elsewhere.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        RecoveryPolicy {
            max_attempts: max_attempts.max(1),
            ..RecoveryPolicy::default()
        }
    }

    /// The standard bounded-rollback policy: `max_attempts` consecutive
    /// recoveries of one fault domain, with capped exponential backoff and
    /// deterministic jitter (`base · factor^(k−1)` for the `k`-th retry,
    /// jittered into `[0.5x, 1.5x)` from `seed`, never exceeding `max`).
    /// One constructor instead of four builder calls, because this is the
    /// shape every chaos campaign and the protected Krylov loop want.
    pub fn capped_exponential(
        max_attempts: u32,
        base: Duration,
        factor: f64,
        max: Duration,
        seed: u64,
    ) -> Self {
        RecoveryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::Jittered { base, factor, max },
            on_exhausted: ExhaustedAction::Abort,
            seed,
        }
    }

    /// Sets the backoff schedule.
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the exhausted-budget action.
    pub fn on_exhausted(mut self, action: ExhaustedAction) -> Self {
        self.on_exhausted = action;
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Final disposition of one task in an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Never reached (the execution aborted first).
    NotRun,
    /// Ran to success on attempt number `attempts`.
    Succeeded {
        /// Total executions (1 = clean first run).
        attempts: u32,
    },
    /// Every attempt failed.
    Failed {
        /// Total executions, all failed.
        attempts: u32,
    },
    /// Skipped because a transitive predecessor failed permanently
    /// (under [`ExhaustedAction::SkipSubtree`]).
    Skipped,
}

/// Aggregate resilience telemetry for one execution, available from
/// [`Trace::resilience`](crate::trace::Trace::resilience).
#[derive(Debug, Clone, Default)]
pub struct ResilienceStats {
    /// Re-executions performed (attempts beyond each task's first).
    pub retries: u64,
    /// Tasks that failed at least once and then succeeded.
    pub recoveries: u64,
    /// Tasks whose retry budget was exhausted.
    pub permanent_failures: u64,
    /// Tasks skipped because they depended on a permanent failure.
    pub skipped: u64,
    /// `true` if the execution stopped early ([`ExhaustedAction::Abort`]).
    pub aborted: bool,
    /// Total simulated backoff delay (never actually slept).
    pub simulated_backoff: Duration,
    /// Wall time consumed by attempts that ended in failure.
    pub wasted_time: Duration,
    /// Per-task disposition, indexed by task id.
    pub outcomes: Vec<TaskOutcome>,
}

impl ResilienceStats {
    /// `true` when every task ran to success (possibly after retries).
    pub fn completed(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, TaskOutcome::Succeeded { .. }))
    }

    /// Number of executions of `task` (0 if it never ran).
    pub fn attempts(&self, task: TaskId) -> u32 {
        match self.outcomes.get(task) {
            Some(TaskOutcome::Succeeded { attempts }) | Some(TaskOutcome::Failed { attempts }) => {
                *attempts
            }
            _ => 0,
        }
    }

    /// One-line human summary (for experiment tables and logs).
    pub fn summary(&self) -> String {
        format!(
            "retries {} recoveries {} permanent {} skipped {} aborted {} backoff {:.3}ms wasted {:.3}ms",
            self.retries,
            self.recoveries,
            self.permanent_failures,
            self.skipped,
            self.aborted,
            self.simulated_backoff.as_secs_f64() * 1e3,
            self.wasted_time.as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_none_is_zero() {
        assert_eq!(Backoff::None.delay(3, 1, 42), Duration::ZERO);
    }

    #[test]
    fn backoff_fixed_ignores_attempt() {
        let b = Backoff::Fixed(Duration::from_millis(5));
        assert_eq!(b.delay(0, 1, 0), Duration::from_millis(5));
        assert_eq!(b.delay(9, 7, 0), Duration::from_millis(5));
    }

    #[test]
    fn backoff_exponential_grows_and_caps() {
        let b = Backoff::Exponential {
            base: Duration::from_millis(1),
            factor: 2.0,
            max: Duration::from_millis(6),
        };
        assert_eq!(b.delay(0, 1, 0), Duration::from_millis(1));
        assert_eq!(b.delay(0, 2, 0), Duration::from_millis(2));
        assert_eq!(b.delay(0, 3, 0), Duration::from_millis(4));
        assert_eq!(b.delay(0, 4, 0), Duration::from_millis(6)); // capped
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let b = Backoff::Jittered {
            base: Duration::from_millis(2),
            factor: 2.0,
            max: Duration::from_secs(1),
        };
        for task in 0..16 {
            for attempt in 1..5 {
                let d1 = b.delay(task, attempt, 99);
                let d2 = b.delay(task, attempt, 99);
                assert_eq!(d1, d2, "same seed must give same delay");
                let raw = 2e-3 * 2f64.powi(attempt as i32 - 1);
                let s = d1.as_secs_f64();
                assert!(
                    s >= raw * 0.5 - 1e-12 && s < raw * 1.5 + 1e-12,
                    "jitter bounds: {s}"
                );
            }
        }
        // Different seeds should (generically) differ somewhere.
        let any_diff = (0..16).any(|t| b.delay(t, 2, 1) != b.delay(t, 2, 2));
        assert!(any_diff);
    }

    #[test]
    fn attempt_retry_flag() {
        assert!(!Attempt {
            task: 0,
            attempt: 1
        }
        .is_retry());
        assert!(Attempt {
            task: 0,
            attempt: 2
        }
        .is_retry());
    }

    #[test]
    fn policy_builder_clamps_attempts() {
        let p = RecoveryPolicy::with_max_attempts(0);
        assert_eq!(p.max_attempts, 1);
    }

    #[test]
    fn capped_exponential_schedule_is_deterministic_and_golden() {
        let p = RecoveryPolicy::capped_exponential(
            5,
            Duration::from_micros(100),
            2.0,
            Duration::from_millis(1),
            0xE20,
        );
        assert_eq!(p.max_attempts, 5);
        assert_eq!(p.on_exhausted, ExhaustedAction::Abort);
        // The schedule for one fault domain (task 7): raw delays
        // 100us, 200us, 400us, 800us, then capped at 1ms — each jittered
        // into [0.5x, 1.5x), never past the cap, and identical on replay.
        let schedule: Vec<Duration> = (1..=5).map(|k| p.backoff.delay(7, k, p.seed)).collect();
        let replay: Vec<Duration> = (1..=5).map(|k| p.backoff.delay(7, k, p.seed)).collect();
        assert_eq!(schedule, replay, "same seed, same schedule");
        for (k, d) in schedule.iter().enumerate() {
            let raw = (100e-6 * 2f64.powi(k as i32)).min(1e-3);
            let s = d.as_secs_f64();
            assert!(
                s >= raw * 0.5 - 1e-12 && s < (raw * 1.5).min(1e-3) + 1e-12,
                "retry {}: {s}s outside jitter window of {raw}s",
                k + 1
            );
        }
        // Monotone growth until the cap region: the jitter band of retry
        // k+2 starts above the band of retry k ((2^2)·0.5 > 1.5).
        assert!(schedule[2] > schedule[0]);
        assert!(schedule[3] > schedule[1]);
        // Zero attempts still clamps to one.
        assert_eq!(
            RecoveryPolicy::capped_exponential(0, Duration::ZERO, 2.0, Duration::ZERO, 0)
                .max_attempts,
            1
        );
    }

    #[test]
    fn stats_queries() {
        let stats = ResilienceStats {
            outcomes: vec![
                TaskOutcome::Succeeded { attempts: 1 },
                TaskOutcome::Succeeded { attempts: 3 },
            ],
            retries: 2,
            recoveries: 1,
            ..ResilienceStats::default()
        };
        assert!(stats.completed());
        assert_eq!(stats.attempts(1), 3);
        assert_eq!(stats.attempts(7), 0);
        let failed = ResilienceStats {
            outcomes: vec![TaskOutcome::Failed { attempts: 2 }, TaskOutcome::Skipped],
            ..ResilienceStats::default()
        };
        assert!(!failed.completed());
        assert_eq!(failed.attempts(0), 2);
        assert_eq!(failed.attempts(1), 0);
        assert!(!failed.summary().is_empty());
    }

    #[test]
    fn task_fault_display_and_from() {
        let f: TaskFault = "checksum mismatch".into();
        assert_eq!(f.message(), "checksum mismatch");
        assert!(format!("{f}").contains("checksum mismatch"));
        let g = TaskFault::from(String::from("x"));
        assert_eq!(g.message(), "x");
    }
}
