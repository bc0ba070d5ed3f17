//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path xscbench/Cargo.toml -- \
//!     --workload <hpl|hpcg> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every output check
//! passed. See `README.md` in this directory for the metric definitions.

mod host;
mod hpcg;
mod hpl;
mod probes;
mod report;
mod serve;
mod trace;

use host::Fingerprint;
use probes::ProbeSizes;
use report::{Report, END_TO_END, PER_LAYER};
use serve::ServePlan;
use trace::Tracer;

/// What one traced or untraced operation measured (the two sides of the
/// tracing overhead).
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    /// The phase `run_hpl` or `run_hpcg` times, seconds.
    pub solve_s: f64,
    /// Invocations the operation recorded in the `xsc-metrics` registry
    /// (counted for traced operations only).
    pub records: f64,
}

/// Total invocations in a registry delta from `xsc_metrics::measure`.
pub fn invocations(delta: &[(&'static str, xsc_metrics::KernelCounters)]) -> f64 {
    delta.iter().map(|(_, c)| c.invocations as f64).sum()
}

/// Every problem size the benchmark uses.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// HPL order.
    pub hpl_n: usize,
    /// HPL block size.
    pub hpl_nb: usize,
    /// Fewest `run_hpl` calls per run.
    pub hpl_min_ops: usize,
    /// HPCG grid edge.
    pub hpcg_grid: usize,
    /// HPCG multigrid levels.
    pub hpcg_levels: usize,
    /// HPCG iterations (the output check requires exactly this many).
    pub hpcg_iters: usize,
    /// Fewest `run_hpcg` calls per run.
    pub hpcg_min_ops: usize,
    /// Serve sizing.
    pub serve: ServePlan,
    /// Shared per-layer probe sizes.
    pub probe: ProbeSizes,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Sizes {
    /// The benchmark as defined in `BENCHMARK.json`.
    pub const FULL: Sizes = Sizes {
        hpl_n: 3072,
        hpl_nb: 128,
        hpl_min_ops: 3,
        hpcg_grid: 96,
        hpcg_levels: 4,
        hpcg_iters: 50,
        hpcg_min_ops: 2,
        serve: ServePlan {
            rate_rps: SERVE_RATE_RPS,
            open_share: 0.5,
            min_requests: 1000,
            burst_jobs: 2000,
            rounds: 10,
        },
        probe: ProbeSizes {
            trailing_m: 3072 - 128,
            trailing_k: 128,
            gemm_n: 512,
            panel_m: 3072,
            panel_nb: 128,
            axpy_min_len: 1 << 25,
            axpy_l3_multiple: 4,
            reps: 3,
            micro_reps: 200,
        },
        setup_reps: 5,
    };

    /// A small instance of the workload a traced run does not run, so
    /// that every traced run reports every layer.
    pub const SMALL: Sizes = Sizes {
        hpl_n: 1024,
        hpl_nb: 128,
        hpl_min_ops: 1,
        hpcg_grid: 32,
        hpcg_levels: 4,
        hpcg_iters: 50,
        hpcg_min_ops: 1,
        ..Sizes::FULL
    };

    /// Tiny instances for the benchmark's own tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        hpl_n: 96,
        hpl_nb: 32,
        hpl_min_ops: 2,
        hpcg_grid: 16,
        hpcg_levels: 3,
        hpcg_iters: 50,
        hpcg_min_ops: 2,
        serve: ServePlan {
            rate_rps: 20_000.0,
            open_share: 0.0,
            min_requests: 200,
            burst_jobs: 100,
            rounds: 2,
        },
        probe: ProbeSizes {
            trailing_m: 64,
            trailing_k: 16,
            gemm_n: 64,
            panel_m: 128,
            panel_nb: 16,
            axpy_min_len: 1 << 12,
            axpy_l3_multiple: 0,
            reps: 2,
            micro_reps: 5,
        },
        setup_reps: 2,
    };
}

/// Offered rate of the serve layer's open-loop phase, requests per second:
/// about a fifteenth of its burst capacity, low enough that most requests
/// find the server idle (see `README.md` for why not higher).
pub const SERVE_RATE_RPS: f64 = 1000.0;

/// The workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense LU: `run_hpl`.
    Hpl,
    /// Sparse MG-PCG: `run_hpcg`.
    Hpcg,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "hpl" => Some(Workload::Hpl),
            "hpcg" => Some(Workload::Hpcg),
            _ => None,
        }
    }
}

/// Runs `w` untraced and sets every end-to-end metric.
pub fn run_untraced(w: Workload, z: &Sizes, seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    match w {
        Workload::Hpl => hpl::run(z, seed, seconds, &mut r),
        Workload::Hpcg => hpcg::run(z, seconds, &mut r),
    }
    r.set("peak_rss_mb", host::peak_rss_mb());
    r
}

/// Runs `w` traced and sets every per-layer metric. The shared probes run
/// first; then `w` runs once untraced and once traced (their difference is
/// the tracing overhead); then a `small` instance of the other workload and
/// the serve layer run traced.
pub fn run_traced(
    w: Workload,
    z: &Sizes,
    small: &Sizes,
    seed: u64,
    seconds: f64,
    l3: u64,
) -> (Report, Tracer) {
    let t = Tracer::new();
    let mut r = Report::default();
    probes::run(&z.probe, l3, &t, &mut r);

    let (base, traced) = match w {
        Workload::Hpl => (
            hpl::untraced_op(z, seed, &mut r),
            hpl::traced_op(z, seed, &t, &mut r),
        ),
        Workload::Hpcg => (hpcg::untraced_op(z, &mut r), hpcg::traced_op(z, &t, &mut r)),
    };
    r.set("metrics.records", traced.records);
    r.set("trace.overhead.solve_s", traced.solve_s - base.solve_s);

    match w {
        Workload::Hpl => hpcg::traced_op(small, &t, &mut r),
        Workload::Hpcg => hpl::traced_op(small, seed, &t, &mut r),
    };
    serve::traced(z, seed, seconds, &t, &mut r);
    (r, t)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xscbench: {e}");
            eprintln!("usage: --workload <hpl|hpcg> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = Fingerprint::detect();
    println!("{{\"fingerprint\": {{{}}}}}", host.json_fields());

    let (report, names) = if args.trace {
        let (r, t) = run_traced(
            args.workload,
            &Sizes::FULL,
            &Sizes::SMALL,
            args.seed,
            args.seconds,
            host.l3_bytes,
        );
        let dir = std::path::Path::new("xscbench/out");
        let path = dir.join(format!("spans-{:?}-{}.json", args.workload, args.seed).to_lowercase());
        let header = format!("\"fingerprint\": {{{}}}", host.json_fields());
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.to_json(&header)))
        {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
        (r, PER_LAYER)
    } else {
        (
            run_untraced(args.workload, &Sizes::FULL, args.seed, args.seconds),
            END_TO_END,
        )
    };

    let missing = report.missing(names);
    print!("{}", report.table(names));
    println!("{}", report.result_line(names));
    if !missing.is_empty() {
        eprintln!("xscbench: metrics not measured: {}", missing.join(", "));
        std::process::exit(1);
    }
    if !report.correct() {
        eprintln!(
            "xscbench: {} of {} operations failed their output check",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names in the `key` array of `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn sorted(names: &[(&str, &str)]) -> Vec<String> {
        let mut v: Vec<String> = names.iter().map(|(n, _)| n.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn benchmark_json_names_are_valid_and_match_the_code() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            for n in declared(key) {
                assert!(valid_name(&n), "{key} name {n:?}");
            }
        }
        let mut e2e = declared("end_to_end");
        e2e.sort();
        assert_eq!(e2e, sorted(END_TO_END));
        let mut layers = declared("per_layer");
        layers.sort();
        assert_eq!(layers, sorted(PER_LAYER));
        let mut workloads = declared("workloads");
        workloads.sort();
        assert_eq!(workloads, ["hpcg", "hpl"]);
    }

    #[test]
    fn every_workload_emits_every_declared_metric() {
        for w in [Workload::Hpl, Workload::Hpcg] {
            let r = run_untraced(w, &Sizes::TINY, 7, 0.01);
            assert!(
                r.missing(END_TO_END).is_empty(),
                "{w:?}: {:?}",
                r.missing(END_TO_END)
            );
            assert!(r.correct(), "{w:?} failed its output checks");
            assert!(
                END_TO_END.iter().all(|(n, _)| r.get(n).unwrap() > 0.0),
                "{w:?}"
            );

            let (r, t) = run_traced(w, &Sizes::TINY, &Sizes::TINY, 7, 0.01, 0);
            assert!(
                r.missing(PER_LAYER).is_empty(),
                "{w:?}: {:?}",
                r.missing(PER_LAYER)
            );
            assert!(r.correct(), "{w:?} traced failed its output checks");
            assert!(t.len() > 0);
        }
    }

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_timeline() {
        let z = Sizes::TINY;
        assert_eq!(
            hpl::input_checksum(z.hpl_n, 3, 0).to_bits(),
            hpl::input_checksum(z.hpl_n, 3, 0).to_bits()
        );
        assert_ne!(
            hpl::input_checksum(z.hpl_n, 3, 0),
            hpl::input_checksum(z.hpl_n, 4, 0)
        );
        let a = serve::inputs(&z.serve, 300, 3);
        let b = serve::inputs(&z.serve, 300, 3);
        assert_eq!(a, b);
        let c = serve::inputs(&z.serve, 300, 4);
        assert_ne!(a.0, c.0);
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn args_are_validated() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload hpl --seed 1 --seconds 5 --trace 1").is_ok());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload hpl --trace 2").is_err());
        assert!(args("--workload hpl --seconds -1").is_err());
        assert!(args("--seed 1").is_err());
    }
}
