//! Task graph construction with automatic dependence analysis.

use crate::resilience::{Attempt, TaskFault};
use std::collections::BTreeMap;

/// Identifier of a datum (e.g. a matrix tile) used for dependence analysis.
/// The runtime never touches the data itself — the id is only a key.
pub type DataId = usize;

/// Index of a task within its [`TaskGraph`], in insertion order.
pub type TaskId = usize;

/// Affinity value of tasks that declared none ([`TaskGraph::set_affinity`]
/// never called): such tasks never match a worker's last-run affinity, so
/// stealing treats them purely by scheduling key.
pub const NO_AFFINITY: u64 = u64::MAX;

/// How a task touches a datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Shared read: concurrent with other reads of the same datum.
    Read(DataId),
    /// Exclusive access (read-modify-write): ordered against every other
    /// access to the same datum.
    Write(DataId),
}

/// A task body handed out of a graph by [`TaskGraph::into_levels`]: run it
/// once, on any thread.
pub type Body = Box<dyn FnOnce() + Send + 'static>;

/// A task body. `Once` kernels are the classic fire-and-forget closure;
/// `Fallible` kernels can be called repeatedly (once per attempt) and
/// report failure as a value, which is what makes task-level retry
/// possible — the fault domain is the task, not the process.
pub(crate) enum Kernel {
    Once(Body),
    Fallible(Box<dyn Fn(Attempt) -> Result<(), TaskFault> + Send + Sync + 'static>),
}

pub(crate) struct Task {
    pub name: String,
    pub kernel: Option<Kernel>,
    /// A-priori cost estimate used for critical-path priorities.
    pub cost: u64,
    /// Caller-assigned urgency used by [`SchedPolicy::Explicit`]
    /// (higher runs first; ties break on insertion order). Unlike the
    /// critical-path priority this is not derived from the graph — it is
    /// whatever the submitting layer says (e.g. a serving front-end's
    /// tenant priority class).
    ///
    /// [`SchedPolicy::Explicit`]: crate::SchedPolicy::Explicit
    pub explicit: u64,
    /// Locality tag consulted by the work-stealing executor: a thief
    /// prefers to steal a task whose affinity matches the affinity of the
    /// task it last ran (e.g. the same macro-tile column, so the packed
    /// panel is still warm in its cache). [`NO_AFFINITY`] when unset.
    pub affinity: u64,
}

/// Per-datum state for the superscalar dependence scan.
#[derive(Default)]
struct DatumState {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// A dependence DAG built by inserting tasks in sequential program order.
///
/// Insertion performs the classic superscalar hazard analysis:
///
/// * **RAW** — a read depends on the previous writer of the datum;
/// * **WAW** — a write depends on the previous writer;
/// * **WAR** — a write depends on every read since the previous write.
///
/// Executing the tasks in any order consistent with these edges yields the
/// same result as sequential execution (a property the test-suite checks
/// with randomized programs).
#[derive(Default)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    edges: Vec<(TaskId, TaskId)>,
    state: BTreeMap<DataId, DatumState>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Inserts a task with unit cost. See [`TaskGraph::add_task_with_cost`].
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        accesses: impl IntoIterator<Item = Access>,
        kernel: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.add_task_with_cost(name, accesses, 1, kernel)
    }

    /// Inserts a task in program order, declaring its data accesses, and
    /// returns its id. `cost` is a relative execution-time estimate used by
    /// the critical-path scheduling policy (e.g. the flop count).
    pub fn add_task_with_cost(
        &mut self,
        name: impl Into<String>,
        accesses: impl IntoIterator<Item = Access>,
        cost: u64,
        kernel: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.insert(name, accesses, cost, Kernel::Once(Box::new(kernel)))
    }

    /// Inserts a *fallible* task with unit cost.
    /// See [`TaskGraph::add_fallible_task_with_cost`].
    pub fn add_fallible_task(
        &mut self,
        name: impl Into<String>,
        accesses: impl IntoIterator<Item = Access>,
        kernel: impl Fn(Attempt) -> Result<(), TaskFault> + Send + Sync + 'static,
    ) -> TaskId {
        self.add_fallible_task_with_cost(name, accesses, 1, kernel)
    }

    /// Inserts a task whose kernel may fail and be re-executed.
    ///
    /// The kernel is called with an [`Attempt`] (1-based attempt number);
    /// returning `Err(TaskFault)` — or panicking — marks the attempt
    /// failed. Under [`Executor::execute_resilient`] the task is then
    /// retried up to the policy's budget; a kernel that mutates its output
    /// in place should snapshot it on attempt 1 and restore it when
    /// [`Attempt::is_retry`] is set. [`Executor::execute`] gives every
    /// task one attempt, so a returned fault aborts the run and reaches
    /// the caller as the panic payload `"task {id} failed: {fault}"`
    /// (fail-stop).
    ///
    /// [`Executor::execute`]: crate::Executor::execute
    /// [`Executor::execute_resilient`]: crate::Executor::execute_resilient
    pub fn add_fallible_task_with_cost(
        &mut self,
        name: impl Into<String>,
        accesses: impl IntoIterator<Item = Access>,
        cost: u64,
        kernel: impl Fn(Attempt) -> Result<(), TaskFault> + Send + Sync + 'static,
    ) -> TaskId {
        self.insert(name, accesses, cost, Kernel::Fallible(Box::new(kernel)))
    }

    fn insert(
        &mut self,
        name: impl Into<String>,
        accesses: impl IntoIterator<Item = Access>,
        cost: u64,
        kernel: Kernel,
    ) -> TaskId {
        let id = self.tasks.len();
        for access in accesses {
            match access {
                Access::Read(d) => {
                    let st = self.state.entry(d).or_default();
                    if let Some(w) = st.last_writer {
                        self.edges.push((w, id)); // RAW
                    }
                    st.readers_since_write.push(id);
                }
                Access::Write(d) => {
                    let st = self.state.entry(d).or_default();
                    if let Some(w) = st.last_writer {
                        self.edges.push((w, id)); // WAW
                    }
                    for &r in &st.readers_since_write {
                        if r != id {
                            self.edges.push((r, id)); // WAR
                        }
                    }
                    st.readers_since_write.clear();
                    st.last_writer = Some(id);
                }
            }
        }
        self.tasks.push(Task {
            name: name.into(),
            kernel: Some(kernel),
            cost: cost.max(1),
            explicit: 0,
            affinity: NO_AFFINITY,
        });
        id
    }

    /// Assigns the caller-provided urgency consulted by
    /// [`SchedPolicy::Explicit`]: among ready tasks the highest value runs
    /// first, ties breaking on insertion order. Tasks default to 0; the
    /// value has no effect under the other policies.
    ///
    /// [`SchedPolicy::Explicit`]: crate::SchedPolicy::Explicit
    pub fn set_priority(&mut self, id: TaskId, priority: u64) {
        self.tasks[id].explicit = priority;
    }

    /// Tags task `id` with a locality affinity (any caller-chosen value —
    /// e.g. the macro-tile column the task writes). Tasks sharing an
    /// affinity value touch the same data, so the work-stealing executor
    /// steers a thief toward tasks matching the affinity of the task it
    /// last ran. Purely a scheduling hint: it never affects which tasks
    /// run or what they compute, only which worker runs them.
    pub fn set_affinity(&mut self, id: TaskId, affinity: u64) {
        self.tasks[id].affinity = affinity;
    }

    /// Number of tasks inserted so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if no tasks have been inserted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Name of task `id` (for traces and debugging).
    pub fn task_name(&self, id: TaskId) -> &str {
        &self.tasks[id].name
    }

    /// Finalizes the graph: deduplicated successor lists, in-degrees, and
    /// critical-path-to-sink priorities (computed over the `cost` estimates).
    pub(crate) fn finalize(&mut self) -> FinalizedGraph {
        let n = self.tasks.len();
        let mut successors: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut in_degree = vec![0usize; n];
        for &(from, to) in self.sorted_edges() {
            debug_assert!(from < to, "edges must point forward in program order");
            successors[from].push(to);
            in_degree[to] += 1;
        }
        // Tasks are inserted in program order, so every edge goes from a
        // lower id to a higher id; a reverse sweep is a reverse topological
        // order.
        let mut priority = vec![0u64; n];
        for id in (0..n).rev() {
            let best_succ = successors[id]
                .iter()
                .map(|&s| priority[s])
                .max()
                .unwrap_or(0);
            priority[id] = self.tasks[id].cost + best_succ;
        }
        FinalizedGraph {
            successors,
            in_degree,
            priority,
            explicit: self.tasks.iter().map(|t| t.explicit).collect(),
            affinity: self.tasks.iter().map(|t| t.affinity).collect(),
        }
    }

    fn sorted_edges(&mut self) -> &[(TaskId, TaskId)] {
        self.edges.sort_unstable();
        self.edges.dedup();
        &self.edges
    }

    /// Structural view of the dependence edges (deduplicated, sorted) —
    /// used by the discrete-event simulator in `xsc-machine` to replay a
    /// graph on a modeled machine.
    pub fn edge_list(&mut self) -> Vec<(TaskId, TaskId)> {
        self.sorted_edges().to_vec()
    }

    /// The dependence levels: a task's level is the number of edges on the
    /// longest path reaching it, and each level lists its tasks in id
    /// order. Tasks of one level are mutually independent, so running the
    /// levels one after another — each in parallel, with a barrier between
    /// them — is the bulk-synchronous (fork-join) schedule of the graph.
    pub fn levels(&mut self) -> Vec<Vec<TaskId>> {
        let mut level = vec![0usize; self.tasks.len()];
        // Sorted edges arrive grouped by source, and every edge into a
        // source comes from a lower id, so `level[from]` is final here.
        for &(from, to) in self.sorted_edges() {
            level[to] = level[to].max(level[from] + 1);
        }
        let depth = level.iter().max().map_or(0, |&l| l + 1);
        let mut levels = vec![Vec::new(); depth];
        for (id, l) in level.into_iter().enumerate() {
            levels[l].push(id);
        }
        levels
    }

    /// Consumes the graph and hands out its task bodies grouped by
    /// [`TaskGraph::levels`], for a caller that runs each level on its own
    /// thread pool and joins before the next. Fallible kernels run once at
    /// attempt 1 and panic on a fault (fail-stop), as in
    /// [`TaskGraph::execute_serial`].
    pub fn into_levels(mut self) -> Vec<Vec<Body>> {
        let levels = self.levels();
        let mut bodies: Vec<Option<Body>> = self.into_bodies().into_iter().map(Some).collect();
        levels
            .into_iter()
            .map(|level| {
                level
                    .into_iter()
                    .filter_map(|id| bodies[id].take())
                    .collect()
            })
            .collect()
    }

    /// The task bodies in insertion order, fallible kernels wrapped as one
    /// fail-stop attempt.
    fn into_bodies(self) -> Vec<Body> {
        let into_body = |(id, t): (TaskId, Task)| -> Body {
            match t.kernel {
                Some(Kernel::Once(k)) => k,
                Some(Kernel::Fallible(k)) => Box::new(move || {
                    if let Err(fault) = k(Attempt {
                        task: id,
                        attempt: 1,
                    }) {
                        panic!("task {id} ({}) failed: {}", t.name, fault.message());
                    }
                }),
                None => Box::new(|| {}),
            }
        };
        self.tasks.into_iter().enumerate().map(into_body).collect()
    }

    /// Per-task cost estimates, in task-id order.
    pub fn costs(&self) -> Vec<u64> {
        self.tasks.iter().map(|t| t.cost).collect()
    }

    /// Runs every task on the calling thread in insertion order (the
    /// sequential-semantics reference used by the property tests).
    /// Fallible kernels run exactly once; a fault panics (fail-stop), so
    /// serial execution matches the plain executor's semantics.
    pub fn execute_serial(self) {
        for body in self.into_bodies() {
            body();
        }
    }

    /// Length of the critical path through the graph in cost units, and the
    /// total cost — their ratio bounds achievable speedup (Brent's theorem).
    pub fn critical_path(&mut self) -> (u64, u64) {
        let fin = self.finalize();
        let cp = fin.priority.iter().copied().max().unwrap_or(0);
        let total: u64 = self.tasks.iter().map(|t| t.cost).sum();
        (cp, total)
    }
}

pub(crate) struct FinalizedGraph {
    pub successors: Vec<Vec<TaskId>>,
    pub in_degree: Vec<usize>,
    pub priority: Vec<u64>,
    pub explicit: Vec<u64>,
    pub affinity: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn raw_dependency_created() {
        let mut g = TaskGraph::new();
        let w = g.add_task("w", [Access::Write(0)], || {});
        let r = g.add_task("r", [Access::Read(0)], || {});
        let edges = g.edge_list();
        assert_eq!(edges, vec![(w, r)]);
    }

    #[test]
    fn war_and_waw_dependencies_created() {
        let mut g = TaskGraph::new();
        let w0 = g.add_task("w0", [Access::Write(0)], || {});
        let r1 = g.add_task("r1", [Access::Read(0)], || {});
        let r2 = g.add_task("r2", [Access::Read(0)], || {});
        let w1 = g.add_task("w1", [Access::Write(0)], || {});
        let edges = g.edge_list();
        // RAW edges w0->r1, w0->r2; WAR edges r1->w1, r2->w1; WAW w0->w1.
        assert!(edges.contains(&(w0, r1)));
        assert!(edges.contains(&(w0, r2)));
        assert!(edges.contains(&(r1, w1)));
        assert!(edges.contains(&(r2, w1)));
        assert!(edges.contains(&(w0, w1)));
    }

    #[test]
    fn independent_data_have_no_edges() {
        let mut g = TaskGraph::new();
        g.add_task("a", [Access::Write(0)], || {});
        g.add_task("b", [Access::Write(1)], || {});
        assert!(g.edge_list().is_empty());
    }

    #[test]
    fn reads_do_not_depend_on_reads() {
        let mut g = TaskGraph::new();
        g.add_task("r1", [Access::Read(0)], || {});
        g.add_task("r2", [Access::Read(0)], || {});
        assert!(g.edge_list().is_empty());
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", [Access::Write(0), Access::Write(1)], || {});
        let b = g.add_task("b", [Access::Read(0), Access::Read(1)], || {});
        assert_eq!(g.edge_list(), vec![(a, b)]);
        let fin = g.finalize();
        assert_eq!(fin.in_degree[b], 1);
    }

    #[test]
    fn serial_execution_runs_in_order() {
        let log = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..10 {
            let log = Arc::clone(&log);
            g.add_task("t", [Access::Write(0)], move || {
                // Encode order check: value must equal i when we run.
                let v = log.fetch_add(1, Ordering::SeqCst);
                assert_eq!(v, i);
            });
        }
        g.execute_serial();
        assert_eq!(log.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn levels_follow_the_longest_path() {
        let mut g = TaskGraph::new();
        g.add_task("w0", [Access::Write(0)], || {});
        g.add_task("w1", [Access::Write(1)], || {});
        g.add_task("r01", [Access::Read(0), Access::Read(1)], || {});
        g.add_task("w1b", [Access::Write(1)], || {});
        g.add_task("w2", [Access::Write(2)], || {});
        g.add_task("r0w2", [Access::Read(0), Access::Write(2)], || {});
        assert_eq!(g.levels(), vec![vec![0, 1, 4], vec![2, 5], vec![3]]);
        let sizes: Vec<usize> = g.into_levels().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
        assert!(TaskGraph::new().levels().is_empty());
    }

    #[test]
    fn critical_path_of_chain_is_total_cost() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.add_task_with_cost("t", [Access::Write(0)], 10 + i, || {});
        }
        let (cp, total) = g.critical_path();
        assert_eq!(cp, total);
    }

    #[test]
    fn critical_path_of_independent_tasks_is_max_cost() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.add_task_with_cost("t", [Access::Write(i)], 10 * (i as u64 + 1), || {});
        }
        let (cp, total) = g.critical_path();
        assert_eq!(cp, 50);
        assert_eq!(total, 10 + 20 + 30 + 40 + 50);
    }

    #[test]
    fn priorities_decrease_along_chain() {
        let mut g = TaskGraph::new();
        g.add_task("a", [Access::Write(0)], || {});
        g.add_task("b", [Access::Write(0)], || {});
        g.add_task("c", [Access::Write(0)], || {});
        let fin = g.finalize();
        assert!(fin.priority[0] > fin.priority[1]);
        assert!(fin.priority[1] > fin.priority[2]);
    }
}
