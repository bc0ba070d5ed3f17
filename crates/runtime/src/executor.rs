//! Multithreaded work-stealing DAG executor.
//!
//! Every run takes one path: each task's attempts run under a
//! [`RecoveryPolicy`], and each attempt is recorded as one [`TraceEvent`].
//! Fail-stop is that path with one attempt per task:
//!
//! * [`Executor::execute`] — one attempt per task; the first kernel panic
//!   or task fault aborts the run and propagates to the caller;
//! * [`Executor::execute_resilient`] — failed attempts of fallible kernels
//!   are retried up to `policy.max_attempts`, and a task that exhausts its
//!   budget either aborts the run or has its dependent subtree skipped.
//!
//! Both return a [`Trace`] with the run's [`ResilienceStats`].
//!
//! ## Ready-queue organization: per-worker heaps + stealing
//!
//! Each worker owns a private priority heap ordered by the [`SchedPolicy`]
//! key. Tasks a worker makes ready go into *its own* heap (the successor's
//! inputs were just produced on this core, so its cache is the warm one);
//! a worker whose heap drains *steals* from a victim's heap instead of
//! blocking on a global lock. Victim selection is affinity-guided: the
//! thief scans every victim's top task and prefers one whose
//! [`TaskGraph::set_affinity`] tag matches the affinity of the task the
//! thief last ran (same macro-tile ⇒ packed panels still cached), falling
//! back to the highest scheduling key among all tops. Steals are counted
//! in [`Trace::steals`].
//!
//! With one worker there is exactly one heap and every push lands in it,
//! so execution order is *identical* to the old global-heap executor —
//! the deterministic ready-order guarantees of the scheduling policies
//! are preserved exactly (the PR-5 determinism suites run unchanged).
//!
//! ## Workers
//!
//! An [`Executor`] owns a `rayon::ThreadPool` of its width, and each run
//! is one `rayon::broadcast` on it: worker 0 is the calling thread, and
//! the broadcast starts the other `threads − 1` for the run's length.
//! Tasks see `rayon::current_num_threads() == threads()`, as under a real
//! rayon pool, so a kernel's own parallel loops fan out as wide as the
//! executor.

use crate::graph::{Kernel, TaskGraph, TaskId, NO_AFFINITY};
use crate::resilience::{Attempt, ExhaustedAction, RecoveryPolicy, ResilienceStats, TaskOutcome};
use crate::trace::{Trace, TraceEvent};
use parking_lot::{Condvar, Mutex};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xsc_metrics::Stopwatch;

/// Ready-queue ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// First-in first-out (insertion order among ready tasks).
    Fifo,
    /// Highest critical-path-to-sink first — keeps the long chain moving,
    /// the default in PLASMA-style runtimes.
    CriticalPath,
    /// Highest caller-assigned priority first ([`TaskGraph::set_priority`]),
    /// ties breaking on insertion order. Used when urgency is decided
    /// outside the graph — e.g. a serving front-end scheduling launches by
    /// tenant priority class.
    Explicit,
}

/// A dataflow executor with a fixed worker count and scheduling policy.
pub struct Executor {
    threads: usize,
    policy: SchedPolicy,
    /// Sets each run's broadcast to `threads` workers.
    pool: rayon::ThreadPool,
}

struct ReadyTask {
    key: u64,
    /// Tie-break on insertion order (earlier first) so FIFO is exact and
    /// critical-path is deterministic.
    id: TaskId,
    /// Locality tag ([`TaskGraph::set_affinity`]) consulted during victim
    /// selection; never part of the heap order.
    affinity: u64,
}

impl Ord for ReadyTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on key, then min on id.
        self.key
            .cmp(&other.key)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// Keep `Eq` consistent with the key-only `Ord` (task ids are unique, so
// two distinct ready entries never compare equal anyway).
impl PartialEq for ReadyTask {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for ReadyTask {}

type KernelSlot = Mutex<Option<Kernel>>;

/// The payload of a failed task: a kernel's panic payload, or the
/// `String` that describes a returned [`TaskFault`](crate::TaskFault).
type Payload = Box<dyn std::any::Any + Send>;

struct Shared {
    /// One ready heap per worker. A worker pushes the tasks it makes ready
    /// to its own heap and steals from the others when its heap drains.
    queues: Vec<Mutex<BinaryHeap<ReadyTask>>>,
    /// Sleep coordination. A worker that finds *every* queue empty waits on
    /// [`Shared::available`] under this lock; anyone who makes work
    /// available (or ends the run) notifies under the same lock. Queue
    /// locks are never held while taking this lock, and the sleeper
    /// re-checks all queues after acquiring it, so wakeups cannot be lost.
    sleep: Mutex<()>,
    available: Condvar,
    remaining: AtomicUsize,
    abort: AtomicBool,
    /// Payload of the first task failure that aborted the run.
    panicked: Mutex<Option<Payload>>,
    steals: AtomicU64,
}

impl Shared {
    /// `true` once the run is over: all tasks done, or aborted.
    fn finished(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0 || self.abort.load(Ordering::Acquire)
    }

    /// Wakes every sleeping worker. Taking the sleep lock first means a
    /// worker between its "queues are empty" check and `wait` cannot miss
    /// the notification.
    fn wake_all(&self) {
        let _sleep = self.sleep.lock();
        self.available.notify_all();
    }

    /// Steals one task for `thief`. Scans every victim's top task (one
    /// brief lock each) and picks the victim whose top matches the thief's
    /// `last_affinity`, falling back to the highest scheduling key (ties
    /// toward the lowest task id). Returns `None` when nothing was
    /// stealable — including the benign race where the chosen victim's
    /// queue drained between the scan and the pop (the caller just
    /// rescans).
    fn try_steal(&self, thief: usize, last_affinity: u64) -> Option<ReadyTask> {
        let n = self.queues.len();
        let mut affine: Option<usize> = None;
        let mut best: Option<(usize, u64, TaskId)> = None;
        for off in 1..n {
            let victim = (thief + off) % n;
            if let Some(top) = self.queues[victim].lock().peek() {
                if affine.is_none() && last_affinity != NO_AFFINITY && top.affinity == last_affinity
                {
                    affine = Some(victim);
                }
                let better = match best {
                    None => true,
                    Some((_, key, id)) => top.key > key || (top.key == key && top.id < id),
                };
                if better {
                    best = Some((victim, top.key, top.id));
                }
            }
        }
        let victim = affine.or_else(|| best.map(|(v, _, _)| v))?;
        let stolen = self.queues[victim].lock().pop();
        if stolen.is_some() {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        stolen
    }
}

/// Per-task outcome codes stored in [`Resilient::outcome`].
const OUT_NOT_RUN: u8 = 0;
const OUT_SUCCEEDED: u8 = 1;
const OUT_FAILED: u8 = 2;
const OUT_SKIPPED: u8 = 3;

/// Per-task recovery state of one run.
struct Resilient {
    policy: RecoveryPolicy,
    /// Final execution count per task.
    attempts: Vec<AtomicU32>,
    /// Final disposition per task (`OUT_*` codes).
    outcome: Vec<AtomicU8>,
    /// Set on every transitive successor of a permanently failed task
    /// (under [`ExhaustedAction::SkipSubtree`]); tainted tasks are skipped.
    tainted: Vec<AtomicBool>,
    /// Accumulated simulated backoff, in nanoseconds.
    backoff_nanos: AtomicU64,
    /// Accumulated wall time of failed attempts, in nanoseconds.
    wasted_nanos: AtomicU64,
}

impl Resilient {
    fn new(policy: RecoveryPolicy, n: usize) -> Self {
        Resilient {
            policy,
            attempts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            outcome: (0..n).map(|_| AtomicU8::new(OUT_NOT_RUN)).collect(),
            tainted: (0..n).map(|_| AtomicBool::new(false)).collect(),
            backoff_nanos: AtomicU64::new(0),
            wasted_nanos: AtomicU64::new(0),
        }
    }

    fn into_stats(self) -> ResilienceStats {
        let mut stats = ResilienceStats {
            simulated_backoff: Duration::from_nanos(self.backoff_nanos.into_inner()),
            wasted_time: Duration::from_nanos(self.wasted_nanos.into_inner()),
            ..ResilienceStats::default()
        };
        for (a, o) in self.attempts.into_iter().zip(self.outcome) {
            let attempts = a.into_inner();
            let outcome = match o.into_inner() {
                OUT_SUCCEEDED => {
                    if attempts > 1 {
                        stats.recoveries += 1;
                    }
                    TaskOutcome::Succeeded { attempts }
                }
                OUT_FAILED => {
                    stats.permanent_failures += 1;
                    TaskOutcome::Failed { attempts }
                }
                OUT_SKIPPED => {
                    stats.skipped += 1;
                    TaskOutcome::Skipped
                }
                _ => TaskOutcome::NotRun,
            };
            stats.retries += u64::from(attempts.saturating_sub(1));
            stats.outcomes.push(outcome);
        }
        stats
    }
}

impl Executor {
    /// Creates an executor with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize, policy: SchedPolicy) -> Self {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the rayon shim's pool build cannot fail");
        Executor {
            threads,
            policy,
            pool,
        }
    }

    /// An executor using every available hardware thread.
    pub fn with_all_cores(policy: SchedPolicy) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Executor::new(threads, policy)
    }

    /// Number of workers a run uses: the calling thread and
    /// `threads() - 1` more.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every task in the graph, respecting its dependence edges,
    /// with one attempt per task. Blocks until all tasks have run. The
    /// first kernel panic, or fault from a fallible kernel, stops the run
    /// and is propagated to the caller after all workers have stopped
    /// (fail-stop): a panic with its own payload, a fault as the `String`
    /// `"task {id} failed: {fault}"`.
    pub fn execute(&self, graph: TaskGraph) -> Trace {
        let (trace, failure) = self.run(graph, RecoveryPolicy::with_max_attempts(1));
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
        trace
    }

    /// Executes the graph with task-level fault recovery: failed attempts
    /// of fallible kernels ([`TaskGraph::add_fallible_task`]) are retried
    /// up to `policy.max_attempts`, with deterministic simulated backoff.
    /// Kernel *panics* are contained to the task as well; a panicking
    /// infallible (`add_task`) kernel cannot be re-run, so it fails
    /// permanently on its first attempt.
    ///
    /// This method never panics on task failure — inspect
    /// [`Trace::resilience`]'s `completed()` / `aborted` instead. The trace
    /// has one event per attempt, carrying its attempt number.
    pub fn execute_resilient(&self, graph: TaskGraph, policy: RecoveryPolicy) -> Trace {
        self.run(graph, policy).0
    }

    /// Runs the graph under `policy` and returns the trace plus the
    /// payload of the failure that aborted the run, if any.
    fn run(&self, mut graph: TaskGraph, policy: RecoveryPolicy) -> (Trace, Option<Payload>) {
        let n = graph.len();
        if n == 0 {
            return (Trace::empty(self.threads), None);
        }
        let fin = graph.finalize();
        let names: Arc<Vec<String>> =
            Arc::new(graph.tasks.iter().map(|t| t.name.clone()).collect());

        // Kernels move into per-task slots the workers take from.
        let kernels: Vec<KernelSlot> = graph
            .tasks
            .iter_mut()
            .map(|t| Mutex::new(t.kernel.take()))
            .collect();
        let pending: Vec<AtomicUsize> =
            fin.in_degree.iter().map(|&d| AtomicUsize::new(d)).collect();

        let shared = Shared {
            queues: (0..self.threads)
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            sleep: Mutex::new(()),
            available: Condvar::new(),
            remaining: AtomicUsize::new(n),
            abort: AtomicBool::new(false),
            panicked: Mutex::new(None),
            steals: AtomicU64::new(0),
        };
        let res = Resilient::new(policy, n);

        // Seed the sources round-robin across the worker queues (with one
        // worker this is exactly the old single-heap seeding).
        {
            let mut sources = 0usize;
            for id in 0..n {
                if pending[id].load(Ordering::Relaxed) == 0 {
                    shared.queues[sources % self.threads]
                        .lock()
                        .push(ReadyTask {
                            key: ready_key(self.policy, &fin.priority, &fin.explicit, id),
                            id,
                            affinity: fin.affinity[id],
                        });
                    sources += 1;
                }
            }
        }

        let epoch = Stopwatch::start();
        // Worker 0 is the calling thread; the pool's width makes the
        // broadcast start `threads - 1` more.
        let per_worker = self.pool.install(|| {
            rayon::broadcast(|ctx| {
                let worker = ctx.index();
                let mut events = Vec::new();
                // Affinity of the last affinity-tagged task this worker
                // ran; steers victim selection when stealing.
                let mut last_affinity = NO_AFFINITY;
                loop {
                    let task = loop {
                        if shared.finished() {
                            return events;
                        }
                        // Own heap first (tasks this worker released —
                        // their inputs are warm in this core's cache)…
                        if let Some(t) = shared.queues[worker].lock().pop() {
                            break t;
                        }
                        // …then steal from a victim…
                        if let Some(t) = shared.try_steal(worker, last_affinity) {
                            break t;
                        }
                        // …and only sleep once every queue is verifiably
                        // empty while holding the sleep lock (anyone who
                        // pushes after our scan blocks on that lock until
                        // `wait` releases it, so their wakeup reaches us).
                        let mut sleep = shared.sleep.lock();
                        if shared.finished() {
                            return events;
                        }
                        if shared.queues.iter().all(|q| q.lock().is_empty()) {
                            shared.available.wait(&mut sleep);
                        }
                    };
                    let id = task.id;
                    if task.affinity != NO_AFFINITY {
                        last_affinity = task.affinity;
                    }
                    let kernel = kernels[id].lock().take();

                    // A permanent failure (or skip) taints the task's
                    // successors so the subtree is abandoned, not run
                    // against bad data.
                    let taint = if res.tainted[id].load(Ordering::Acquire) {
                        // A transitive predecessor failed: drop the
                        // kernel without running it.
                        res.outcome[id].store(OUT_SKIPPED, Ordering::Release);
                        drop(kernel);
                        true
                    } else if let Err(payload) =
                        run_attempts(kernel, id, worker, &res, &epoch, &mut events)
                    {
                        if res.policy.on_exhausted == ExhaustedAction::Abort {
                            shared.panicked.lock().get_or_insert(payload);
                            // Abort flag (not `remaining`) makes the
                            // other workers exit: a worker mid-kernel
                            // will still decrement `remaining` once,
                            // and zeroing it here would underflow.
                            shared.abort.store(true, Ordering::Release);
                            shared.wake_all();
                            return events;
                        }
                        true
                    } else {
                        false
                    };
                    let mut newly_ready = Vec::new();
                    for &s in &fin.successors[id] {
                        if taint {
                            res.tainted[s].store(true, Ordering::Release);
                        }
                        if pending[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                            newly_ready.push(s);
                        }
                    }
                    if !newly_ready.is_empty() {
                        // Push to this worker's own heap: the successor's
                        // inputs were just written on this core. Idle
                        // workers pick them up by stealing.
                        {
                            let mut q = shared.queues[worker].lock();
                            for &s in &newly_ready {
                                q.push(ReadyTask {
                                    key: ready_key(self.policy, &fin.priority, &fin.explicit, s),
                                    id: s,
                                    affinity: fin.affinity[s],
                                });
                            }
                        }
                        if self.threads > 1 {
                            shared.wake_all();
                        }
                    }
                    if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        shared.wake_all();
                        return events;
                    }
                }
            })
        });

        let wall = epoch.elapsed();
        let mut stats = res.into_stats();
        stats.aborted = shared.abort.load(Ordering::Acquire);
        let events = per_worker.into_iter().flatten().collect();
        let trace = Trace::new(self.threads, wall, events, names, stats)
            .with_steals(shared.steals.load(Ordering::Relaxed));
        let failure = shared.panicked.lock().take();
        (trace, failure)
    }
}

/// Ready-queue key for `id`: the heap is a max-heap on this value with ties
/// broken toward the lowest task id, so FIFO inverts the id, critical-path
/// uses the graph-derived priority, and explicit uses the caller's value.
fn ready_key(policy: SchedPolicy, priority: &[u64], explicit: &[u64], id: TaskId) -> u64 {
    match policy {
        SchedPolicy::Fifo => u64::MAX - id as u64,
        SchedPolicy::CriticalPath => priority[id],
        SchedPolicy::Explicit => explicit[id],
    }
}

/// Runs task `id`'s attempts under `res.policy` and records one trace
/// event per attempt: a `FnOnce` kernel gets one attempt, a fallible
/// kernel up to `max_attempts`, with simulated backoff between them.
/// Stores the task's attempt count and outcome in `res`, and returns the
/// payload of the last attempt when every attempt failed.
fn run_attempts(
    kernel: Option<Kernel>,
    id: TaskId,
    worker: usize,
    res: &Resilient,
    epoch: &Stopwatch,
    events: &mut Vec<TraceEvent>,
) -> Result<(), Payload> {
    let (mut once, fallible) = match kernel {
        Some(Kernel::Once(k)) => (Some(k), None),
        Some(Kernel::Fallible(k)) => (None, Some(k)),
        None => (None, None),
    };
    let mut attempt = 1u32;
    let result = loop {
        let start = epoch.elapsed();
        let (f0, b0) = xsc_metrics::thread_totals();
        let result = match (once.take(), &fallible) {
            (Some(k), _) => catch_unwind(AssertUnwindSafe(k)),
            (None, Some(k)) => {
                match catch_unwind(AssertUnwindSafe(|| k(Attempt { task: id, attempt }))) {
                    Ok(Ok(())) => Ok(()),
                    // A returned fault and a panic are the same event: the
                    // attempt produced no trustworthy output.
                    Ok(Err(fault)) => {
                        Err(Box::new(format!("task {id} failed: {fault}")) as Payload)
                    }
                    Err(payload) => Err(payload),
                }
            }
            (None, None) => Ok(()),
        };
        let end = epoch.elapsed();
        let (f1, b1) = xsc_metrics::thread_totals();
        events.push(TraceEvent {
            task: id,
            worker,
            start,
            end,
            attempt,
            flops: f1 - f0,
            bytes: b1 - b0,
        });
        if result.is_ok() {
            break result;
        }
        add_nanos(&res.wasted_nanos, end - start);
        // A FnOnce kernel cannot be re-run: one attempt, no retry.
        if fallible.is_none() || attempt >= res.policy.max_attempts {
            break result;
        }
        add_nanos(
            &res.backoff_nanos,
            res.policy.backoff.delay(id, attempt, res.policy.seed),
        );
        attempt += 1;
    };
    res.attempts[id].store(attempt, Ordering::Release);
    let outcome = if result.is_ok() {
        OUT_SUCCEEDED
    } else {
        OUT_FAILED
    };
    res.outcome[id].store(outcome, Ordering::Release);
    result
}

fn add_nanos(counter: &AtomicU64, d: Duration) {
    counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Access;
    use crate::resilience::{Backoff, TaskFault};
    use parking_lot::Mutex as PlMutex;
    use std::sync::Arc;

    fn run_counter_chain(threads: usize, policy: SchedPolicy, n: usize) -> Vec<usize> {
        let log = Arc::new(PlMutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..n {
            let log = Arc::clone(&log);
            g.add_task(format!("t{i}"), [Access::Write(0)], move || {
                log.lock().push(i);
            });
        }
        Executor::new(threads, policy).execute(g);
        Arc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn chain_preserves_program_order() {
        for threads in [1, 2, 8] {
            for policy in [SchedPolicy::Fifo, SchedPolicy::CriticalPath] {
                let order = run_counter_chain(threads, policy, 50);
                assert_eq!(order, (0..50).collect::<Vec<_>>(), "threads={threads}");
            }
        }
    }

    #[test]
    fn independent_tasks_all_run() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..1000 {
            let c = Arc::clone(&counter);
            g.add_task("t", [Access::Write(i)], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        Executor::new(4, SchedPolicy::CriticalPath).execute(g);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_graph_is_ok() {
        let g = TaskGraph::new();
        let trace = Executor::new(4, SchedPolicy::Fifo).execute(g);
        assert_eq!(trace.tasks_run(), 0);
    }

    #[test]
    fn diamond_respects_dependencies() {
        // a -> (b, c) -> d : d must observe both b's and c's effects.
        let state = Arc::new(PlMutex::new((0i32, 0i32, 0i32)));
        let mut g = TaskGraph::new();
        let s = Arc::clone(&state);
        g.add_task("a", [Access::Write(0)], move || {
            s.lock().0 = 1;
        });
        let s = Arc::clone(&state);
        g.add_task("b", [Access::Read(0), Access::Write(1)], move || {
            let mut st = s.lock();
            assert_eq!(st.0, 1);
            st.1 = 2;
        });
        let s = Arc::clone(&state);
        g.add_task("c", [Access::Read(0), Access::Write(2)], move || {
            let mut st = s.lock();
            assert_eq!(st.0, 1);
            st.2 = 3;
        });
        let s = Arc::clone(&state);
        g.add_task("d", [Access::Read(1), Access::Read(2)], move || {
            let st = s.lock();
            assert_eq!((st.1, st.2), (2, 3));
        });
        Executor::new(4, SchedPolicy::CriticalPath).execute(g);
    }

    #[test]
    fn trace_records_all_tasks() {
        let mut g = TaskGraph::new();
        for i in 0..16 {
            g.add_task("t", [Access::Write(i % 4)], move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        }
        let trace = Executor::new(4, SchedPolicy::CriticalPath).execute(g);
        assert_eq!(trace.tasks_run(), 16);
        assert!(trace.makespan().as_nanos() > 0);
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn task_panic_propagates() {
        let mut g = TaskGraph::new();
        g.add_task("ok", [Access::Write(0)], || {});
        g.add_task("boom", [Access::Write(0)], || panic!("kernel failure"));
        for i in 0..32 {
            g.add_task("later", [Access::Write(i % 3)], || {});
        }
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Executor::new(4, SchedPolicy::Fifo).execute(g);
        }))
        .expect_err("panic must propagate to caller");
        // The caller gets the kernel's own payload, not a wrapper.
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel failure"));
    }

    #[test]
    fn single_thread_matches_serial_semantics() {
        let acc = Arc::new(PlMutex::new(1i64));
        let build = |acc: Arc<PlMutex<i64>>| {
            let mut g = TaskGraph::new();
            for i in 1..=6i64 {
                let acc = Arc::clone(&acc);
                g.add_task("mul", [Access::Write(0)], move || {
                    let mut v = acc.lock();
                    *v = *v * 3 + i; // non-commutative update
                });
            }
            g
        };
        build(Arc::clone(&acc)).execute_serial();
        let serial = *acc.lock();

        let acc2 = Arc::new(PlMutex::new(1i64));
        Executor::new(8, SchedPolicy::CriticalPath).execute(build(Arc::clone(&acc2)));
        assert_eq!(*acc2.lock(), serial);
    }

    #[test]
    fn explicit_policy_runs_highest_priority_first() {
        // Independent tasks, one worker, all ready at seed time: execution
        // order must follow the caller-assigned priorities, with ties
        // breaking on insertion order.
        let log = Arc::new(PlMutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let prios = [3u64, 1, 7, 3, 9];
        for (i, &p) in prios.iter().enumerate() {
            let log = Arc::clone(&log);
            let id = g.add_task(format!("t{i}"), [Access::Write(i)], move || {
                log.lock().push(i);
            });
            g.set_priority(id, p);
        }
        Executor::new(1, SchedPolicy::Explicit).execute(g);
        let order = Arc::try_unwrap(log).unwrap().into_inner();
        assert_eq!(order, vec![4, 2, 0, 3, 1]);
    }

    #[test]
    fn explicit_priorities_default_to_zero_and_keep_insertion_order() {
        let log = Arc::new(PlMutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..6usize {
            let log = Arc::clone(&log);
            g.add_task(format!("t{i}"), [Access::Write(i)], move || {
                log.lock().push(i);
            });
        }
        Executor::new(1, SchedPolicy::Explicit).execute(g);
        let order = Arc::try_unwrap(log).unwrap().into_inner();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_runs_every_task_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = Arc::new(PlMutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..8 {
            let ids = Arc::clone(&ids);
            g.add_task("t", [Access::Write(i % 3)], move || {
                ids.lock().push(std::thread::current().id());
            });
        }
        Executor::new(1, SchedPolicy::Fifo).execute(g);
        assert_eq!(*ids.lock(), vec![caller; 8]);
    }

    #[test]
    fn tasks_see_the_executor_width() {
        let seen = Arc::new(PlMutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..6 {
            let seen = Arc::clone(&seen);
            g.add_task("t", [Access::Write(i)], move || {
                seen.lock().push(rayon::current_num_threads());
            });
        }
        Executor::new(3, SchedPolicy::CriticalPath).execute(g);
        assert_eq!(*seen.lock(), vec![3; 6]);
    }

    // ---- work-stealing tests --------------------------------------------

    /// Builds a graph of `chains` independent non-commutative update
    /// chains (each `len` long) plus a final task combining them all —
    /// enough parallel slack that multi-worker runs must steal.
    fn contended_graph(
        chains: usize,
        len: usize,
        state: &Arc<PlMutex<Vec<i64>>>,
        out: &Arc<AtomicU64>,
    ) -> TaskGraph {
        let mut g = TaskGraph::new();
        for c in 0..chains {
            for i in 0..len {
                let s = Arc::clone(state);
                let id = g.add_task(format!("u{c}.{i}"), [Access::Write(c)], move || {
                    let mut v = s.lock();
                    v[c] = v[c].wrapping_mul(3).wrapping_add((c * len + i) as i64);
                });
                g.set_affinity(id, c as u64);
            }
        }
        let s = Arc::clone(state);
        let out = Arc::clone(out);
        let accesses: Vec<Access> = (0..chains).map(Access::Read).collect();
        g.add_task("combine", accesses, move || {
            let h = crate::fnv1a(s.lock().iter().map(|&x| x as u64));
            out.store(h, Ordering::Relaxed);
        });
        g
    }

    #[test]
    fn stealing_is_result_deterministic_across_worker_counts() {
        // Same task set, any worker count, every policy: the dependence
        // edges fully determine the result, so the combined hash must be
        // identical no matter how tasks were distributed or stolen.
        let mut reference = None;
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::CriticalPath,
            SchedPolicy::Explicit,
        ] {
            for threads in [1, 2, 3, 4, 8] {
                let state = Arc::new(PlMutex::new(vec![1i64; 6]));
                let out = Arc::new(AtomicU64::new(0));
                let g = contended_graph(6, 25, &state, &out);
                Executor::new(threads, policy).execute(g);
                let h = out.load(Ordering::Relaxed);
                match reference {
                    None => reference = Some(h),
                    Some(want) => {
                        assert_eq!(h, want, "policy {policy:?} x {threads} workers diverged")
                    }
                }
            }
        }
    }

    #[test]
    fn single_worker_never_steals() {
        let state = Arc::new(PlMutex::new(vec![1i64; 4]));
        let out = Arc::new(AtomicU64::new(0));
        let g = contended_graph(4, 10, &state, &out);
        let trace = Executor::new(1, SchedPolicy::CriticalPath).execute(g);
        assert_eq!(trace.steals(), 0, "one worker has no victims");
    }

    #[test]
    fn contended_run_records_steals() {
        // 8 independent chains seeded round-robin over 4 workers, but all
        // sources ready at once: the workers that drain their seeds first
        // must steal to stay busy. Steals are possible but not guaranteed
        // on any single run (timing), so retry a few times — the assert is
        // on "ever observed", which converges immediately in practice.
        for _ in 0..20 {
            let state = Arc::new(PlMutex::new(vec![1i64; 8]));
            let out = Arc::new(AtomicU64::new(0));
            let g = contended_graph(8, 40, &state, &out);
            let trace = Executor::new(4, SchedPolicy::CriticalPath).execute(g);
            // Every run is traced: one event and one `Succeeded` outcome
            // per task.
            assert_eq!(trace.tasks_run(), 8 * 40 + 1);
            let stats = trace.resilience();
            assert_eq!(stats.outcomes.len(), 8 * 40 + 1);
            assert!(stats
                .outcomes
                .iter()
                .all(|o| *o == TaskOutcome::Succeeded { attempts: 1 }));
            if trace.steals() > 0 {
                return;
            }
        }
        panic!("4 workers x 8 contended chains never stole in 20 runs");
    }

    #[test]
    fn affinity_is_a_hint_not_a_constraint() {
        // Tasks tagged with an affinity no worker will ever have "last
        // run" still execute; untagged (NO_AFFINITY) tasks never match a
        // thief's preference but still execute.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..64 {
            let c = Arc::clone(&counter);
            let id = g.add_task("t", [Access::Write(i)], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            if i.is_multiple_of(2) {
                g.set_affinity(id, 1_000_000 + i as u64);
            }
        }
        Executor::new(4, SchedPolicy::Fifo).execute(g);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    // ---- resilient-mode tests -------------------------------------------

    /// A fallible task that fails its first `fail_count` attempts.
    fn flaky(g: &mut TaskGraph, name: &str, data: usize, fail_count: u32) -> TaskId {
        g.add_fallible_task(name, [Access::Write(data)], move |a: Attempt| {
            if a.attempt <= fail_count {
                Err(TaskFault::new(format!("induced failure {}", a.attempt)))
            } else {
                Ok(())
            }
        })
    }

    #[test]
    fn fallible_fault_is_fail_stop_under_plain_execute() {
        let mut g = TaskGraph::new();
        flaky(&mut g, "always-fails", 0, u32::MAX);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Executor::new(2, SchedPolicy::Fifo).execute(g);
        }))
        .expect_err("fault must abort a fail-stop execution");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 0 failed: task fault: induced failure 1")
        );
    }

    #[test]
    fn retry_recovers_flaky_task() {
        let mut g = TaskGraph::new();
        flaky(&mut g, "flaky", 0, 2); // fails attempts 1 and 2
        g.add_task("after", [Access::Read(0)], || {});
        let policy =
            RecoveryPolicy::with_max_attempts(3).backoff(Backoff::Fixed(Duration::from_millis(1)));
        let trace = Executor::new(2, SchedPolicy::Fifo).execute_resilient(g, policy);
        let stats = trace.resilience();
        assert!(stats.completed(), "{}", stats.summary());
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.attempts(0), 3);
        assert_eq!(stats.attempts(1), 1);
        assert_eq!(stats.simulated_backoff, Duration::from_millis(2));
        assert!(stats.wasted_time > Duration::ZERO);
    }

    #[test]
    fn traced_attempts_are_numbered() {
        let mut g = TaskGraph::new();
        flaky(&mut g, "flaky", 0, 1);
        let policy = RecoveryPolicy::with_max_attempts(2);
        let trace = Executor::new(1, SchedPolicy::Fifo).execute_resilient(g, policy);
        let attempts: Vec<u32> = trace.events().iter().map(|e| e.attempt).collect();
        assert_eq!(attempts, vec![1, 2]);
        assert!(trace.to_chrome_json().contains("attempt 2"));
    }

    #[test]
    fn exhausted_budget_aborts_by_default() {
        let mut g = TaskGraph::new();
        flaky(&mut g, "doomed", 0, u32::MAX);
        let ran_after = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&ran_after);
        g.add_task("after", [Access::Read(0)], move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let policy = RecoveryPolicy::with_max_attempts(3);
        let trace = Executor::new(2, SchedPolicy::Fifo).execute_resilient(g, policy);
        let stats = trace.resilience();
        assert!(stats.aborted);
        assert!(!stats.completed());
        assert_eq!(stats.permanent_failures, 1);
        assert_eq!(stats.attempts(0), 3);
        assert_eq!(stats.outcomes[1], TaskOutcome::NotRun);
        assert_eq!(ran_after.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn skip_subtree_contains_failure() {
        // doomed -> dep1 -> dep2 (all tainted); independent chain completes.
        let mut g = TaskGraph::new();
        flaky(&mut g, "doomed", 0, u32::MAX);
        g.add_task("dep1", [Access::Read(0), Access::Write(1)], || {});
        g.add_task("dep2", [Access::Read(1)], || {});
        let ok_count = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&ok_count);
            g.add_task("independent", [Access::Write(7)], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        let policy =
            RecoveryPolicy::with_max_attempts(2).on_exhausted(ExhaustedAction::SkipSubtree);
        let trace = Executor::new(4, SchedPolicy::Fifo).execute_resilient(g, policy);
        let stats = trace.resilience();
        assert!(!stats.aborted, "skip-subtree must not abort");
        assert_eq!(stats.permanent_failures, 1);
        assert_eq!(stats.skipped, 2, "{:?}", stats.outcomes);
        assert_eq!(stats.outcomes[1], TaskOutcome::Skipped);
        assert_eq!(stats.outcomes[2], TaskOutcome::Skipped);
        assert_eq!(ok_count.load(Ordering::Relaxed), 8);
        assert!(!stats.completed());
    }

    #[test]
    fn panicking_once_kernel_fails_permanently_without_retry() {
        let mut g = TaskGraph::new();
        g.add_task("boom", [Access::Write(0)], || panic!("not re-runnable"));
        g.add_task("dep", [Access::Read(0)], || {});
        let policy =
            RecoveryPolicy::with_max_attempts(5).on_exhausted(ExhaustedAction::SkipSubtree);
        let trace = Executor::new(2, SchedPolicy::Fifo).execute_resilient(g, policy);
        let stats = trace.resilience();
        assert_eq!(stats.attempts(0), 1, "FnOnce gets exactly one attempt");
        assert_eq!(stats.permanent_failures, 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn panicking_fallible_kernel_is_retried() {
        let mut g = TaskGraph::new();
        g.add_fallible_task("panics-once", [Access::Write(0)], |a: Attempt| {
            if a.attempt == 1 {
                panic!("first attempt dies");
            }
            Ok(())
        });
        let policy = RecoveryPolicy::with_max_attempts(2);
        let trace = Executor::new(2, SchedPolicy::Fifo).execute_resilient(g, policy);
        let stats = trace.resilience();
        assert!(stats.completed(), "{}", stats.summary());
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn resilient_clean_run_reports_no_retries() {
        let mut g = TaskGraph::new();
        for i in 0..20 {
            g.add_task("t", [Access::Write(i % 4)], || {});
        }
        let trace = Executor::new(4, SchedPolicy::CriticalPath)
            .execute_resilient(g, RecoveryPolicy::default());
        let stats = trace.resilience();
        assert!(stats.completed());
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.recoveries, 0);
        assert_eq!(stats.simulated_backoff, Duration::ZERO);
    }

    #[test]
    fn resilient_chain_preserves_program_order_through_retries() {
        let log = Arc::new(PlMutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..30usize {
            let log = Arc::clone(&log);
            g.add_fallible_task(format!("t{i}"), [Access::Write(0)], move |a: Attempt| {
                // Every third task fails its first attempt.
                if i.is_multiple_of(3) && a.attempt == 1 {
                    return Err("transient".into());
                }
                log.lock().push(i);
                Ok(())
            });
        }
        let policy = RecoveryPolicy::with_max_attempts(2);
        let trace = Executor::new(4, SchedPolicy::Fifo).execute_resilient(g, policy);
        let stats = trace.resilience();
        assert!(stats.completed());
        assert_eq!(stats.retries, 10);
        assert_eq!(*log.lock(), (0..30).collect::<Vec<_>>());
    }
}
