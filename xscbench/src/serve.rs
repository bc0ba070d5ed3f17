//! The serve layer: an open-loop request stream into an
//! `xsc_serve::Server`, then a burst phase that measures capacity. The
//! generator submits from the thread that calls `run_pending`. Every answer
//! is checked against `xsc_serve::replay` on the same arrivals, computed
//! after the timed phases. Every traced run measures it; it is not an
//! end-to-end workload (see README.md).

use crate::report::{mean, median, percentile, Report};
use crate::trace::Tracer;
use crate::Sizes;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xsc_serve::{
    generate, replay, Arrival, CoalescePolicy, JobId, LoadProfile, QueueConfig, Server,
    ServerConfig, ServiceModel,
};

/// Serve sizing: the offered rate of the open-loop phase and the backlog
/// of the burst phase.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Offered rate of the open-loop phase, requests per second.
    pub rate_rps: f64,
    /// Share of `--seconds` the open-loop phase lasts.
    pub open_share: f64,
    /// Fewest open-loop requests, whatever `--seconds` says.
    pub min_requests: usize,
    /// Jobs queued at once in each burst (each round's burst has its own).
    pub burst_jobs: usize,
    /// Rounds per run; each is an open-loop window and then a burst.
    pub rounds: usize,
}

impl ServePlan {
    /// Open-loop requests for a run of `seconds`.
    pub fn requests(&self, seconds: f64) -> usize {
        ((self.rate_rps * seconds * self.open_share) as usize).max(self.min_requests)
    }
}

/// Seed offset of the burst backlog, so it differs from the stream.
const BURST_SALT: u64 = 0xB0257;

/// The server configuration: two workers, the default coalescer, and
/// admission limits high enough that nothing is refused (the benchmark
/// measures the solve path, not backpressure).
pub fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        queue: QueueConfig {
            capacity: 1 << 30,
            per_tenant_quota: 1 << 30,
        },
        coalesce: CoalescePolicy::default(),
    }
}

/// The open-loop arrival timeline and the burst backlogs (one per round,
/// concatenated) for `seed`.
pub fn inputs(plan: &ServePlan, requests: usize, seed: u64) -> (Vec<Arrival>, Vec<Arrival>) {
    let gap_ns = (1e9 / plan.rate_rps) as u64;
    let stream = generate(&LoadProfile::many_tiny(seed, requests, gap_ns));
    let jobs = plan.burst_jobs * plan.rounds;
    let backlog = generate(&LoadProfile::many_tiny(seed ^ BURST_SALT, jobs, 0));
    (stream, backlog)
}

/// What the open-loop windows of a run observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per-request latency from scheduled send time to completion, ns.
    pub latency_ns: Vec<f64>,
    /// The 99th percentile latency of each window, ns.
    pub window_p99_ns: Vec<f64>,
    /// How late the generator submitted each request, ns.
    pub late_ns: Vec<f64>,
    /// Answer checksum per arrival (None if it never completed).
    pub checksums: Vec<Option<f64>>,
    /// `run_pending` calls.
    pub calls: u64,
    /// Seconds spent inside `run_pending`.
    pub drain_s: f64,
    /// Queue depth seen before each drain.
    pub depth: Vec<f64>,
    /// Launches, counted as the sum over jobs of 1 / launch width.
    pub launches: f64,
}

/// Waits for `at_ns` past `epoch`: sleeps until 200 µs before it, then
/// yields, so a late wake-up does not count as generator lateness in every
/// latency, while a long idle gap does not spin a CPU of the shared host.
fn wait_until(epoch: Instant, at_ns: u64) {
    let target = epoch + Duration::from_nanos(at_ns);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let gap = target - now;
        if gap > Duration::from_micros(300) {
            std::thread::sleep(gap - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Drives one window of arrivals (`first` is the index of `window[0]` in
/// the whole stream) into `server` on their schedule, shifted so the
/// window starts now. With a tracer, each drain gets a `serve.run_pending`
/// span and each request a `serve.request` span from its scheduled time to
/// its completion, parented by the drain that completed it.
pub fn open_loop(
    server: &mut Server,
    window: &[Arrival],
    first: usize,
    out: &mut OpenLoop,
    tracer: Option<&Tracer>,
) {
    let Some(origin) = window.first().map(|a| a.at_ns) else {
        return;
    };
    let due = |i: usize| window[i].at_ns - origin;
    let base = tracer.map_or(0, Tracer::now_ns);
    let epoch = Instant::now();
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut index: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut latency = Vec::with_capacity(window.len());
    let mut next = 0;
    while next < window.len() || server.queued() > 0 {
        let now = since(Instant::now());
        while next < window.len() && due(next) <= now {
            // A refused request never completes, so its check fails.
            if let Ok(id) = server.submit(window[next].request.clone()) {
                index.insert(id, next);
            }
            out.late_ns.push((now - due(next)) as f64);
            next += 1;
        }
        if server.queued() == 0 {
            if next < window.len() {
                wait_until(epoch, due(next));
            }
            continue;
        }
        out.depth.push(server.queued() as f64);
        out.calls += 1;
        let span = tracer.map(|t| t.begin("serve.run_pending"));
        let t0 = Instant::now();
        let outcomes = server.run_pending();
        let t1 = Instant::now();
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id, 0);
        }
        out.drain_s += (t1 - t0).as_secs_f64();
        let done = since(t1);
        for o in outcomes {
            let Some(i) = index.remove(&o.id) else {
                continue;
            };
            latency.push((done - due(i)) as f64);
            out.checksums[first + i] = Some(o.checksum);
            out.launches += 1.0 / o.launch_width.max(1) as f64;
            if let Some(t) = tracer {
                t.record(
                    "serve.request",
                    base + due(i),
                    base + done,
                    span,
                    (first + i) as u64,
                );
            }
        }
    }
    if !latency.is_empty() {
        out.window_p99_ns.push(percentile(&latency, 99.0));
    }
    out.latency_ns.extend(latency);
}

/// What one burst observed.
#[derive(Debug)]
pub struct Burst {
    /// Seconds `run_pending` took to drain the backlog.
    pub drain_s: f64,
    /// Answer checksum per backlog entry.
    pub checksums: Vec<Option<f64>>,
}

/// Queues all of `backlog` at once and drains it with one `run_pending`.
pub fn burst(server: &mut Server, backlog: &[Arrival], tracer: Option<&Tracer>) -> Burst {
    let mut index: BTreeMap<JobId, usize> = BTreeMap::new();
    for (i, a) in backlog.iter().enumerate() {
        if let Ok(id) = server.submit(a.request.clone()) {
            index.insert(id, i);
        }
    }
    let span = tracer.map(|t| t.begin("serve.burst"));
    let t0 = Instant::now();
    let outcomes = server.run_pending();
    let drain_s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.end(id, 0);
    }
    let mut checksums = vec![None; backlog.len()];
    for o in outcomes {
        if let Some(i) = index.remove(&o.id) {
            checksums[i] = Some(o.checksum);
        }
    }
    Burst { drain_s, checksums }
}

/// Reference checksums from `xsc_serve::replay`, indexed by arrival. The
/// replay executes every job again, so the two halves run on two threads;
/// each job's answer depends only on its own request.
pub fn reference(arrivals: &[Arrival]) -> Vec<f64> {
    let one = |part: &[Arrival]| -> Vec<f64> {
        let cfg = config();
        let rep = replay(part, cfg.queue, &cfg.coalesce, &ServiceModel::default());
        let mut sums = vec![f64::NAN; part.len()];
        for o in rep.outcomes {
            // The replay admits in arrival order, so job ids are indices.
            sums[o.id as usize] = o.checksum;
        }
        sums
    };
    let (left, right) = arrivals.split_at(arrivals.len() / 2);
    let (mut l, r) = std::thread::scope(|s| {
        let h = s.spawn(|| one(right));
        (one(left), h.join().expect("replay thread panicked"))
    });
    l.extend(r);
    l
}

/// Checks each answer against the reference, bit for bit.
pub fn check(r: &mut Report, got: &[Option<f64>], want: &[f64]) {
    for (g, w) in got.iter().zip(want) {
        r.check(g.is_some_and(|g| g.to_bits() == w.to_bits()));
    }
}

/// Runs the rounds: the stream is cut into `rounds` open-loop windows and
/// each window is followed by a burst of its own backlog, so that both
/// phases sample the whole run.
pub fn phases(
    z: &Sizes,
    stream: &[Arrival],
    backlog: &[Arrival],
    tracer: Option<&Tracer>,
) -> (OpenLoop, Vec<Burst>) {
    let mut server = Server::new(config());
    let mut open = OpenLoop {
        checksums: vec![None; stream.len()],
        ..OpenLoop::default()
    };
    let per_round = stream.len().div_ceil(z.serve.rounds).max(1);
    let backlogs = backlog.chunks(z.serve.burst_jobs);
    let mut bursts = Vec::new();
    for (k, (window, jobs)) in stream.chunks(per_round).zip(backlogs).enumerate() {
        open_loop(&mut server, window, k * per_round, &mut open, tracer);
        bursts.push(burst(&mut server, jobs, tracer));
    }
    (open, bursts)
}

/// Checks every answer of both phases against the replay.
pub fn verify(
    r: &mut Report,
    stream: &[Arrival],
    backlog: &[Arrival],
    open: &OpenLoop,
    bursts: &[Burst],
) {
    check(r, &open.checksums, &reference(stream));
    let got: Vec<Option<f64>> = bursts
        .iter()
        .flat_map(|b| b.checksums.iter().copied())
        .collect();
    check(r, &got, &reference(backlog));
}

/// Runs both phases traced, checks every answer, and sets the `serve.*`
/// metrics: the open-loop latency and the burst capacity the workload
/// serves, and the drains, launches and queue behind them.
pub fn traced(z: &Sizes, seed: u64, seconds: f64, t: &Tracer, r: &mut Report) {
    let (stream, backlog) = inputs(&z.serve, z.serve.requests(seconds), seed);
    let root = t.begin("serve");
    let (open, bursts) = phases(z, &stream, &backlog, Some(t));
    t.end(root, 0);
    verify(r, &stream, &backlog, &open, &bursts);
    let rates: Vec<f64> = bursts
        .iter()
        .map(|b| b.checksums.len() as f64 / b.drain_s)
        .collect();
    let jobs = open.latency_ns.len() as f64;
    r.set("serve.request.p50_ms", 1e-6 * median(&open.latency_ns));
    r.set("serve.request.p99_ms", 1e-6 * median(&open.window_p99_ns));
    r.set("serve.capacity_rps", median(&rates));
    r.set("serve.run_pending.calls", open.calls as f64);
    r.set("serve.run_pending.s", open.drain_s);
    r.set("serve.launch_width.mean", jobs / open.launches);
    r.set("serve.queue_depth.mean", mean(&open.depth));
    r.set(
        "serve.gen_late_ms.p99",
        1e-6 * percentile(&open.late_ns, 99.0),
    );
}
