//! E21 — solve-as-a-service under open-loop load: coalesced vs
//! uncoalesced launch paths through the `xsc-serve` front-end.
//!
//! The keynote's batched-BLAS theme (E07) restated as a traffic problem:
//! a service facing "millions of users" receives mostly *tiny* solves
//! whose launch overhead dwarfs their arithmetic. The experiment drives
//! the full serving stack — validated requests, the multi-tenant
//! admission/priority queue, the coalescer, and the analytic service
//! model — with a seeded open-loop load generator, twice:
//!
//! * **uncoalesced** — every job pays its own launch;
//! * **coalesced** — tiny solves waiting in the queue share one
//!   `xsc-batched` launch (up to 64 wide).
//!
//! Reported per arm: p50/p99/max end-to-end latency and throughput —
//! all in **virtual nanoseconds** from the deterministic replay
//! ([`xsc_serve::replay`]), so the whole report is byte-identical across
//! runs at the same seed (asserted by a test below and by CI running the
//! binary twice and `cmp`-ing the JSON). The jobs are really executed:
//! both arms must produce bit-identical checksums, and a third pass
//! through the real `xsc-runtime` executor ([`Server::run_pending`])
//! must reproduce them again.

use crate::json::{write_report, Json};
use crate::table::f2;
use crate::Scale;
use xsc_serve::{
    generate, replay, CoalescePolicy, LoadProfile, QueueConfig, Server, ServerConfig, ServiceModel,
};

/// Campaign seed: the whole timeline (arrivals, tenants, job mix, job
/// seeds) derives from it.
pub const SERVE_SEED: u64 = 0xE21;

/// Acceptance floor on the coalescing throughput win.
pub const MIN_COALESCE_SPEEDUP: f64 = 1.5;

fn profile(scale: Scale) -> LoadProfile {
    LoadProfile::many_tiny(SERVE_SEED, scale.pick(400, 1600), scale.pick(2_000, 1_500))
}

/// Queue sized so nothing bounces: both arms then complete the same job
/// set, which is what makes cross-arm bit-identity checkable.
fn queue_cfg(requests: usize) -> QueueConfig {
    QueueConfig {
        capacity: requests,
        per_tenant_quota: requests,
    }
}

fn arm_json(name: &str, rep: &xsc_serve::ArmReport) -> Json {
    Json::obj(vec![
        ("arm", Json::s(name)),
        ("completed", Json::Int(rep.completed as i64)),
        ("rejected", Json::Int(rep.rejected as i64)),
        ("launches", Json::Int(rep.launches as i64)),
        ("mean_launch_width", Json::Num(rep.mean_launch_width)),
        ("p50_latency_ns", Json::Int(rep.latency.p50_ns as i64)),
        ("p99_latency_ns", Json::Int(rep.latency.p99_ns as i64)),
        ("max_latency_ns", Json::Int(rep.latency.max_ns as i64)),
        ("mean_latency_ns", Json::Num(rep.latency.mean_ns)),
        ("makespan_ns", Json::Int(rep.makespan_ns as i64)),
        ("throughput_rps", Json::Num(rep.throughput_rps)),
    ])
}

fn us(ns: u64) -> String {
    f2(ns as f64 / 1_000.0)
}

/// Runs both arms plus the real-executor cross-check and builds the
/// deterministic summary: rendered tables and the machine-readable
/// report. Same seed in, same bytes out.
pub fn service_summary(scale: Scale) -> (String, Json) {
    let prof = profile(scale);
    let arrivals = generate(&prof);
    let cfg = queue_cfg(prof.requests);
    let model = ServiceModel::default();
    let uncoalesced_policy = CoalescePolicy {
        enabled: false,
        max_batch: 64,
    };
    let coalesced_policy = CoalescePolicy::default();

    let unc = replay(&arrivals, cfg, &uncoalesced_policy, &model);
    let coa = replay(&arrivals, cfg, &coalesced_policy, &model);

    // --- acceptance: same job set, same answers, measurable win --------
    assert_eq!(unc.rejected, 0, "uncoalesced arm must not bounce jobs");
    assert_eq!(coa.rejected, 0, "coalesced arm must not bounce jobs");
    assert_eq!(unc.completed, prof.requests);
    assert_eq!(coa.completed, prof.requests);
    for (c, u) in coa.outcomes.iter().zip(&unc.outcomes) {
        assert_eq!(c.id, u.id);
        assert_eq!(
            c.checksum.to_bits(),
            u.checksum.to_bits(),
            "job {} differs between arms",
            c.id
        );
    }
    let speedup = coa.throughput_rps / unc.throughput_rps;
    assert!(
        speedup >= MIN_COALESCE_SPEEDUP,
        "coalescing speedup {speedup:.2}x below {MIN_COALESCE_SPEEDUP}x"
    );
    assert!(
        coa.latency.p99_ns < unc.latency.p99_ns,
        "coalescing must improve tail latency"
    );

    // --- cross-check on the real executor -------------------------------
    // Same requests through Server::run_pending (xsc-runtime executor,
    // explicit tenant-priority scheduling): the answers must reproduce
    // bit-for-bit. Launch widths may differ — the server drains the whole
    // backlog at once — which is exactly the transparency being asserted.
    let mut server = Server::new(ServerConfig {
        threads: 4,
        queue: cfg,
        coalesce: coalesced_policy,
    });
    for a in &arrivals {
        server
            .submit(a.request.clone())
            .expect("queue sized for the full timeline");
    }
    let executed = server.run_pending();
    assert_eq!(executed.len(), coa.outcomes.len());
    for (e, c) in executed.iter().zip(&coa.outcomes) {
        assert_eq!(e.id, c.id);
        assert_eq!(
            e.checksum.to_bits(),
            c.checksum.to_bits(),
            "executor answer for job {} differs from replay",
            e.id
        );
    }

    // --- render ----------------------------------------------------------
    let mut t = crate::table::Table::new(&[
        "arm",
        "jobs",
        "launches",
        "width",
        "p50 us",
        "p99 us",
        "max us",
        "makespan ms",
        "throughput rps",
    ]);
    for (name, rep) in [("uncoalesced", &unc), ("coalesced", &coa)] {
        t.row(vec![
            name.into(),
            rep.completed.to_string(),
            rep.launches.to_string(),
            f2(rep.mean_launch_width),
            us(rep.latency.p50_ns),
            us(rep.latency.p99_ns),
            us(rep.latency.max_ns),
            f2(rep.makespan_ns as f64 / 1e6),
            format!("{:.0}", rep.throughput_rps),
        ]);
    }
    let mut table = t.render(&format!(
        "E21: solve-as-a-service — open-loop load, {} requests, 90% tiny solves \
         (seed {SERVE_SEED:#x}, virtual time, deterministic)",
        prof.requests
    ));

    let mut tt = crate::table::Table::new(&["tenant", "class", "completed"]);
    for (name, prio) in &prof.tenants {
        tt.row(vec![
            name.clone(),
            prio.name().into(),
            coa.per_tenant_completed
                .get(name)
                .copied()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    table.push_str(&tt.render("E21: per-tenant completions (coalesced arm)"));

    let tenants_json: Vec<Json> = prof
        .tenants
        .iter()
        .map(|(name, prio)| {
            Json::obj(vec![
                ("tenant", Json::s(name.clone())),
                ("priority", Json::s(prio.name())),
                (
                    "completed",
                    Json::Int(coa.per_tenant_completed.get(name).copied().unwrap_or(0) as i64),
                ),
            ])
        })
        .collect();

    let report = Json::obj(vec![
        ("experiment", Json::s("e21_serve")),
        ("seed", Json::Int(SERVE_SEED as i64)),
        ("requests", Json::Int(prof.requests as i64)),
        (
            "mean_interarrival_ns",
            Json::Int(prof.mean_interarrival_ns as i64),
        ),
        (
            "model",
            Json::obj(vec![
                ("workers", Json::Int(model.workers as i64)),
                (
                    "launch_overhead_ns",
                    Json::Int(model.launch_overhead_ns as i64),
                ),
                ("flops_per_ns", Json::Int(model.flops_per_ns as i64)),
                ("bytes_per_ns", Json::Int(model.bytes_per_ns as i64)),
            ]),
        ),
        ("min_coalescing_speedup", Json::Num(MIN_COALESCE_SPEEDUP)),
        (
            "arms",
            Json::Arr(vec![
                arm_json("uncoalesced", &unc),
                arm_json("coalesced", &coa),
            ]),
        ),
        ("coalescing_speedup", Json::Num(speedup)),
        (
            "p99_latency_improvement",
            Json::Num(unc.latency.p99_ns as f64 / coa.latency.p99_ns as f64),
        ),
        ("bit_identical_across_arms", Json::Bool(true)),
        ("executor_checksums_match", Json::Bool(true)),
        ("per_tenant", Json::Arr(tenants_json)),
    ]);
    (table, report)
}

/// Runs the experiment and prints its tables.
pub fn run(scale: Scale) {
    run_opts(scale, false);
}

/// Runs the experiment; with `json` set, also writes `BENCH_e21.json`.
pub fn run_opts(scale: Scale, json: bool) {
    let (table, report) = service_summary(scale);
    print!("{table}");
    println!("  keynote claim: batched interfaces exist because the small-problem flood is");
    println!("  real — served naively, every tiny solve pays a full launch and the service");
    println!("  drowns in overhead. Coalescing the admission queue into batched launches");
    println!("  buys back the throughput and the tail latency without changing a single");
    println!("  bit of any answer (both arms and the real executor agree bit-for-bit).");
    if json {
        write_report("BENCH_e21.json", &report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_summary_is_byte_identical_across_runs() {
        let _serial = crate::serial_experiment_test();
        // The PR's reproducibility gate: same seed, same bytes — table
        // and JSON both, twice, in one process.
        let (t1, j1) = service_summary(Scale::Quick);
        let (t2, j2) = service_summary(Scale::Quick);
        assert_eq!(t1, t2, "summary table must be deterministic");
        assert_eq!(
            j1.render(),
            j2.render(),
            "JSON report must be deterministic"
        );
        assert!(t1.contains("uncoalesced") && t1.contains("coalesced"));
    }

    #[test]
    fn priorities_exist_in_profile() {
        use xsc_serve::Priority;
        let prof = profile(Scale::Quick);
        let classes: Vec<Priority> = prof.tenants.iter().map(|(_, p)| *p).collect();
        assert!(classes.contains(&Priority::Interactive));
        assert!(classes.contains(&Priority::Batch));
    }
}
