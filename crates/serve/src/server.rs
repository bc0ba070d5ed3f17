//! The server: queue → coalescer → `xsc-runtime` executor.
//!
//! [`Server`] owns an [`AdmissionQueue`], a [`CoalescePolicy`], and an
//! [`Executor`]; [`Server::run_pending`] drains the queue into launches
//! and hands them to the executor as one task each, scheduled under
//! [`SchedPolicy::Explicit`] with the launch's tenant priority class as
//! its urgency. Launches touch disjoint data, so the graph is embarrassed
//! parallelism — the point of the handoff is the *scheduling* (priority
//! classes drain first) and the shared worker pool, not dependence
//! analysis. All results are returned sorted by job id, so the output is
//! deterministic on any thread count.

use crate::coalesce::{plan, CoalescePolicy, Launch};
use crate::queue::{AdmissionQueue, AdmitError, QueueConfig, QueuedJob};
use crate::request::{JobId, JobSpec, Request};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use xsc_batched::{batched_cholesky_solve, Batch};
use xsc_core::{gen, Matrix};
use xsc_metrics::{record_untimed, Stopwatch, Traffic};
use xsc_runtime::{Access, Executor, SchedPolicy, TaskGraph};
use xsc_sparse::mg::{MgPreconditioner, Smoother};
use xsc_sparse::stencil::build_rhs;
use xsc_sparse::{pcg, Geometry, SparseFormat};

/// Server knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Executor worker threads.
    pub threads: usize,
    /// Admission-queue limits.
    pub queue: QueueConfig,
    /// Coalescing policy.
    pub coalesce: CoalescePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 2,
            queue: QueueConfig::default(),
            coalesce: CoalescePolicy::default(),
        }
    }
}

/// What the service reports back for one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's admission id.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// Static job-kind label (also the metrics-registry kernel name).
    pub kind: &'static str,
    /// Number of jobs that shared this job's launch (1 = uncoalesced).
    pub launch_width: usize,
    /// Deterministic digest of the computed answer (sum of the solution
    /// or factor entries) — equal bits mean equal answers.
    pub checksum: f64,
    /// Analytic flop estimate of the job ([`Request::est_traffic`]).
    pub flops: u64,
    /// Analytic byte estimate of the job ([`Request::est_traffic`]).
    pub bytes: u64,
}

/// Per-tenant service accounting, timed through the `xsc-metrics`
/// [`Stopwatch`] chokepoint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantStats {
    /// Requests the tenant submitted (admitted + rejected).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests refused by backpressure or quota.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Analytic flops executed for the tenant.
    pub flops: u64,
    /// Analytic bytes moved for the tenant.
    pub bytes: u64,
    /// Wall-clock nanoseconds of `run_pending` batches that contained at
    /// least one of the tenant's jobs (measured with [`Stopwatch`];
    /// informational — never part of a deterministic report).
    pub busy_ns: u64,
}

/// Executes one launch, returning an outcome per job (in drain order).
///
/// Infallible by construction: every failure mode was rejected at
/// [`Request::new`] — grids are coarsenable, matrices are SPD by
/// generation, budgets are positive. The launch also records its analytic
/// traffic into the `xsc-metrics` registry under the job-kind name.
pub fn execute_launch(launch: &Launch) -> Vec<JobOutcome> {
    let outcomes = match launch {
        Launch::Coalesced { dim, jobs } => execute_coalesced(*dim, jobs),
        Launch::Single(job) => vec![execute_single(job)],
    };
    for o in &outcomes {
        record_untimed(
            o.kind,
            Traffic {
                flops: o.flops,
                bytes_read: o.bytes / 2,
                bytes_written: o.bytes - o.bytes / 2,
            },
        );
    }
    outcomes
}

fn outcome(job: &QueuedJob, launch_width: usize, checksum: f64) -> JobOutcome {
    let (flops, bytes) = job.request.est_traffic();
    JobOutcome {
        id: job.id,
        tenant: job.request.tenant().to_string(),
        kind: job.request.kind_name(),
        launch_width,
        checksum,
        flops,
        bytes,
    }
}

/// Generates the tiny-solve problem for `(dim, seed)`: a seeded SPD
/// matrix and the right-hand side whose exact solution is all-ones.
fn tiny_problem(dim: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = gen::random_spd::<f64>(dim, seed);
    let b = gen::rhs_for_unit_solution(&a);
    // xsc-lint: allow(P03, reason = "rhs_for_unit_solution returns exactly dim entries for a dim x dim matrix")
    let rhs = Matrix::from_fn(dim, 1, |i, _| b[i]);
    (a, rhs)
}

fn execute_coalesced(dim: usize, jobs: &[QueuedJob]) -> Vec<JobOutcome> {
    let mut mats = Vec::with_capacity(jobs.len());
    let mut rhss = Vec::with_capacity(jobs.len());
    for job in jobs {
        let JobSpec::TinySolve { dim: d, seed } = *job.request.spec() else {
            // xsc-lint: allow(P02, reason = "plan() groups coalesced launches by kind at admission; mixed kinds cannot reach here")
            unreachable!("coalesced launches carry only tiny solves");
        };
        debug_assert_eq!(d, dim);
        let (a, b) = tiny_problem(d, seed);
        mats.push(a);
        rhss.push(b);
    }
    let mut a = Batch::from_matrices(&mats);
    let mut x = Batch::from_matrices(&rhss);
    // xsc-lint: allow(P01, reason = "admission validated dim >= 1; random_spd output is SPD by construction")
    batched_cholesky_solve(&mut a, &mut x).expect("validated tiny solves are SPD by construction");
    jobs.iter()
        .enumerate()
        .map(|(k, job)| outcome(job, jobs.len(), x.matrix(k).iter().sum()))
        .collect()
}

fn execute_single(job: &QueuedJob) -> JobOutcome {
    let checksum = match *job.request.spec() {
        JobSpec::TinySolve { dim, seed } => {
            // Same kernels as the coalesced path, batch of one — which is
            // what makes coalescing bit-transparent.
            let (a, b) = tiny_problem(dim, seed);
            let mut a = Batch::from_matrices(std::slice::from_ref(&a));
            let mut x = Batch::from_matrices(std::slice::from_ref(&b));
            batched_cholesky_solve(&mut a, &mut x)
                // xsc-lint: allow(P01, reason = "admission validated dim >= 1; random_spd output is SPD by construction")
                .expect("validated tiny solves are SPD by construction");
            x.matrix(0).iter().sum()
        }
        JobSpec::DenseFactor { n, seed } => {
            let a = gen::random_spd::<f64>(n, seed);
            let mut f = Batch::from_matrices(std::slice::from_ref(&a));
            let mut rhs = Batch::<f64>::zeros(n, 0, 1);
            batched_cholesky_solve(&mut f, &mut rhs)
                // xsc-lint: allow(P01, reason = "admission validated n >= 1; random_spd output is SPD by construction")
                .expect("validated dense factors are SPD by construction");
            f.matrix(0).iter().sum()
        }
        JobSpec::SparseSolve {
            grid,
            levels,
            tol,
            max_iters,
        } => {
            let geom = Geometry::new(grid, grid, grid);
            let mg = MgPreconditioner::try_with_format(
                geom,
                levels,
                Smoother::SymGs,
                SparseFormat::CsrUsize,
            )
            // xsc-lint: allow(P01, reason = "admission validated grid/levels against the coarsening rule before enqueue")
            .expect("validated grids are coarsenable to the requested depth");
            // Level 0 of the hierarchy is the operator itself.
            let a = mg.fine_matrix();
            let (b, _) = build_rhs(a);
            let mut x = vec![0.0; b.len()];
            pcg(a, &b, &mut x, max_iters, tol, &mg);
            x.iter().sum()
        }
    };
    outcome(job, 1, checksum)
}

/// The serving front-end. See the module docs for the data flow.
pub struct Server {
    queue: AdmissionQueue,
    coalesce: CoalescePolicy,
    exec: Executor,
    ledger: BTreeMap<String, TenantStats>,
}

impl Server {
    /// Builds a server from its configuration.
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            queue: AdmissionQueue::new(cfg.queue),
            coalesce: cfg.coalesce,
            exec: Executor::new(cfg.threads, SchedPolicy::Explicit),
            ledger: BTreeMap::new(),
        }
    }

    /// Submits a request: admission or backpressure. Ledger counters are
    /// updated either way.
    pub fn submit(&mut self, request: Request) -> Result<JobId, AdmitError> {
        let entry = self.ledger.entry(request.tenant().to_string()).or_default();
        entry.submitted += 1;
        match self.queue.submit(request) {
            Ok(id) => {
                entry.admitted += 1;
                Ok(id)
            }
            Err(e) => {
                entry.rejected += 1;
                Err(e)
            }
        }
    }

    /// Drains everything queued, coalesces, executes on the runtime
    /// executor (one task per launch, scheduled by tenant priority
    /// class), and returns the outcomes sorted by job id.
    pub fn run_pending(&mut self) -> Vec<JobOutcome> {
        let watch = Stopwatch::start();
        let launches = plan(&mut self.queue, &self.coalesce);
        if launches.is_empty() {
            return Vec::new();
        }
        let slots: Arc<Vec<Mutex<Option<Vec<JobOutcome>>>>> =
            Arc::new(launches.iter().map(|_| Mutex::new(None)).collect());
        let mut graph = TaskGraph::new();
        for (i, launch) in launches.into_iter().enumerate() {
            let urgency = launch.priority().level();
            let cost: u64 = launch
                .jobs()
                .iter()
                .map(|j| j.request.est_traffic().0)
                .sum();
            let slots = Arc::clone(&slots);
            let id = graph.add_task_with_cost(
                format!("launch{i}"),
                [Access::Write(i)],
                cost.max(1),
                move || {
                    // Hoisted out of the assignment so the slot guard never
                    // covers kernel execution (lint rule C02).
                    let out = execute_launch(&launch);
                    *slots[i].lock().expect("launch slot poisoned") = Some(out);
                },
            );
            graph.set_priority(id, urgency);
        }
        self.exec.execute(graph);

        let slots = Arc::try_unwrap(slots).expect("workers joined; sole owner");
        let mut outcomes: Vec<JobOutcome> = slots
            .into_iter()
            .flat_map(|s| {
                s.into_inner()
                    .expect("launch slot poisoned")
                    .expect("every launch task ran")
            })
            .collect();
        outcomes.sort_by_key(|o| o.id);

        let elapsed_ns = watch.elapsed().as_nanos() as u64;
        let mut touched: BTreeMap<&str, ()> = BTreeMap::new();
        for o in &outcomes {
            self.queue.complete(&o.tenant);
            let entry = self.ledger.entry(o.tenant.clone()).or_default();
            entry.completed += 1;
            entry.flops += o.flops;
            entry.bytes += o.bytes;
            touched.insert(&o.tenant, ());
        }
        let tenants: Vec<String> = touched.into_keys().map(String::from).collect();
        for t in tenants {
            if let Some(entry) = self.ledger.get_mut(&t) {
                entry.busy_ns += elapsed_ns;
            }
        }
        outcomes
    }

    /// Accounting for one tenant (zeroed default if never seen).
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        self.ledger.get(tenant).copied().unwrap_or_default()
    }

    /// All tenants seen so far, with their accounting, in name order.
    pub fn ledger(&self) -> &BTreeMap<String, TenantStats> {
        &self.ledger
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn tiny(tenant: &str, dim: usize, seed: u64) -> Request {
        Request::new(tenant, Priority::Normal, JobSpec::TinySolve { dim, seed }).unwrap()
    }

    #[test]
    fn run_pending_solves_everything_and_sorts_by_id() {
        let mut s = Server::new(ServerConfig::default());
        for seed in 0..6 {
            s.submit(tiny("alpha", 8, seed)).unwrap();
        }
        s.submit(
            Request::new(
                "beta",
                Priority::Interactive,
                JobSpec::SparseSolve {
                    grid: 4,
                    levels: 2,
                    tol: 1e-8,
                    max_iters: 50,
                },
            )
            .unwrap(),
        )
        .unwrap();
        let outcomes = s.run_pending();
        assert_eq!(outcomes.len(), 7);
        assert!(outcomes.windows(2).all(|w| w[0].id < w[1].id));
        // Tiny solves of all-ones systems: checksum ≈ dim.
        for o in outcomes.iter().filter(|o| o.kind == "serve_tiny_solve") {
            assert!((o.checksum - 8.0).abs() < 1e-6, "checksum {}", o.checksum);
            assert_eq!(o.launch_width, 6);
        }
        assert_eq!(s.queued(), 0);
        assert_eq!(s.tenant_stats("alpha").completed, 6);
        assert_eq!(s.tenant_stats("beta").completed, 1);
    }

    #[test]
    fn coalesced_and_uncoalesced_outcomes_are_bit_identical() {
        let run = |enabled: bool| {
            let mut s = Server::new(ServerConfig {
                coalesce: CoalescePolicy {
                    enabled,
                    max_batch: 64,
                },
                ..ServerConfig::default()
            });
            for seed in 0..10 {
                s.submit(tiny("t", 12, seed)).unwrap();
            }
            s.run_pending()
        };
        let coalesced = run(true);
        let solo = run(false);
        assert_eq!(coalesced.len(), solo.len());
        for (c, u) in coalesced.iter().zip(&solo) {
            assert_eq!(c.id, u.id);
            assert_eq!(
                c.checksum.to_bits(),
                u.checksum.to_bits(),
                "job {} differs between arms",
                c.id
            );
        }
        assert!(coalesced.iter().all(|o| o.launch_width == 10));
        assert!(solo.iter().all(|o| o.launch_width == 1));
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut s = Server::new(ServerConfig {
                threads,
                ..ServerConfig::default()
            });
            for seed in 0..8 {
                s.submit(tiny("t", 6, seed)).unwrap();
            }
            s.submit(
                Request::new(
                    "t",
                    Priority::Batch,
                    JobSpec::DenseFactor { n: 24, seed: 3 },
                )
                .unwrap(),
            )
            .unwrap();
            s.run_pending()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
    }

    #[test]
    fn ledger_tracks_rejections() {
        let mut s = Server::new(ServerConfig {
            queue: QueueConfig {
                capacity: 2,
                per_tenant_quota: 64,
            },
            ..ServerConfig::default()
        });
        for seed in 0..4 {
            let _ = s.submit(tiny("t", 4, seed));
        }
        let st = s.tenant_stats("t");
        assert_eq!(st.submitted, 4);
        assert_eq!(st.admitted, 2);
        assert_eq!(st.rejected, 2);
    }
}
