//! Metric names, units, small statistics helpers and the result line.

use std::fmt::Write as _;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("gflops", "Gflop/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.par_gemm.gflops", "Gflop/s"),
    ("core.gemm.gflops", "Gflop/s"),
    ("core.colsweep_gemm.gflops", "Gflop/s"),
    ("core.getrf_panel.s", "s"),
    ("core.axpy.gbs", "GB/s"),
    ("dense.par_getrf.s", "s"),
    ("dense.getrf_solve.s", "s"),
    ("dense.hpl.frac_par_gemm", "ratio"),
    ("dense.hpl_lu.flops", "flop"),
    ("dense.hpl_lu.bytes", "B"),
    ("sparse.cg.spmv.calls", "count"),
    ("sparse.cg.spmv.s", "s"),
    ("sparse.cg.spmv.gbs", "GB/s"),
    ("sparse.mg.calls", "count"),
    ("sparse.mg.s", "s"),
    ("sparse.cg.other_s", "s"),
    ("sparse.symgs.fine_s", "s"),
    ("sparse.symgs.fine_gbs", "GB/s"),
    ("sparse.spmv.frac_roof", "ratio"),
    ("sparse.cg.iterations", "count"),
    ("sparse.cg.final_residual", "ratio"),
    ("sparse.spmv.bytes", "B"),
    ("sparse.mg_vcycle.bytes", "B"),
    ("batched.cholesky_solve.us_per_job.w1", "us"),
    ("batched.cholesky_solve.us_per_job.w64", "us"),
    ("runtime.execute.us", "us"),
    ("rayon.fork_join.us", "us"),
    ("serve.request.p50_ms", "ms"),
    ("serve.request.p99_ms", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("serve.run_pending.calls", "count"),
    ("serve.run_pending.s", "s"),
    ("serve.launch_width.mean", "count"),
    ("serve.queue_depth.mean", "count"),
    ("serve.gen_late_ms.p99", "ms"),
    ("metrics.record.ns", "ns"),
    ("metrics.records", "count"),
    ("trace.overhead.solve_s", "s"),
];

/// The metrics one run has measured so far, plus its operation tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (solves or requests).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
}

impl Report {
    /// Records `name` (which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`]); a later value for the same name replaces it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Names of `expected` that this run did not record.
    pub fn missing(&self, expected: &[(&'static str, &str)]) -> Vec<&'static str> {
        expected
            .iter()
            .filter(|(n, _)| self.get(n).is_none())
            .map(|(n, _)| *n)
            .collect()
    }

    /// Whether every operation passed its check and every value is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics of `names`, each with its unit. A run that missed a metric
    /// is not correct.
    pub fn result_line(&self, names: &[(&'static str, &str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && self.missing(names).is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite());
            let v = v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table of the metrics of `names`.
    pub fn table(&self, names: &[(&str, &str)]) -> String {
        let mut s = String::new();
        for (name, unit) in names {
            let v = self
                .get(name)
                .map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
            let _ = writeln!(s, "  {name:<40} {v:>22} {unit}");
        }
        s
    }
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Escapes `s` as a JSON string body.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 50.0), 20.0);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 99.0), 40.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.check(true);
        let line = r.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_rejected() {
        Report::default().set("no.such.metric", 1.0);
    }
}
