//! Execution traces: per-attempt start/end times per worker, with the
//! derived utilization statistics experiment E02 reports, plus the
//! resilience telemetry (retries/recoveries/skips) of every run.

use crate::resilience::ResilienceStats;
use std::sync::Arc;
use std::time::Duration;

/// One executed task *attempt*. Every run records one event per attempt:
/// under [`Executor::execute`](crate::Executor::execute) a task has one,
/// and under [`Executor::execute_resilient`](crate::Executor::execute_resilient)
/// a retried task appears once per attempt with increasing `attempt`.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Task id within the executed graph.
    pub task: usize,
    /// Worker index that ran the task.
    pub worker: usize,
    /// Start time relative to the execution epoch.
    pub start: Duration,
    /// End time relative to the execution epoch.
    pub end: Duration,
    /// 1-based attempt number (always 1 under `Executor::execute`).
    pub attempt: u32,
    /// Flops recorded (via `xsc-metrics`) on the worker thread while this
    /// attempt ran. Zero when the kernel is uninstrumented, or when an
    /// instrumented kernel fanned its recording out to other threads.
    pub flops: u64,
    /// DRAM bytes (read + written) recorded on the worker thread while this
    /// attempt ran; same attribution caveats as `flops`.
    pub bytes: u64,
}

impl TraceEvent {
    /// Arithmetic intensity of the attempt in flops/byte (`None` when no
    /// bytes were attributed, e.g. uninstrumented kernels).
    pub fn intensity(&self) -> Option<f64> {
        (self.bytes > 0).then(|| self.flops as f64 / self.bytes as f64)
    }
}

/// Execution record returned by the executor.
pub struct Trace {
    threads: usize,
    wall: Duration,
    events: Vec<TraceEvent>,
    names: Arc<Vec<String>>,
    resilience: ResilienceStats,
    steals: u64,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("threads", &self.threads)
            .field("wall", &self.wall)
            .field("events", &self.events.len())
            .finish()
    }
}

impl Trace {
    pub(crate) fn empty(threads: usize) -> Self {
        Trace {
            threads,
            wall: Duration::ZERO,
            events: Vec::new(),
            names: Arc::new(Vec::new()),
            resilience: ResilienceStats::default(),
            steals: 0,
        }
    }

    pub(crate) fn new(
        threads: usize,
        wall: Duration,
        mut events: Vec<TraceEvent>,
        names: Arc<Vec<String>>,
        resilience: ResilienceStats,
    ) -> Self {
        events.sort_by_key(|e| e.start);
        Trace {
            threads,
            wall,
            events,
            names,
            resilience,
            steals: 0,
        }
    }

    pub(crate) fn with_steals(mut self, steals: u64) -> Self {
        self.steals = steals;
        self
    }

    /// Number of tasks that ran on a worker other than the one whose ready
    /// queue they were pushed to (work-stealing executor). Always 0 for
    /// single-worker executions — one worker has no one to steal from.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Resilience telemetry of the run: per-task outcomes, retries,
    /// recoveries and skips. A run of
    /// [`Executor::execute`](crate::Executor::execute) that returned has
    /// every task `Succeeded` on its one attempt.
    pub fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    /// Number of worker threads used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of attempt events recorded: one per task under
    /// [`Executor::execute`](crate::Executor::execute), one per attempt
    /// under [`Executor::execute_resilient`](crate::Executor::execute_resilient).
    pub fn tasks_run(&self) -> usize {
        self.events.len()
    }

    /// Wall-clock duration of the whole execution.
    pub fn makespan(&self) -> Duration {
        self.wall
    }

    /// All recorded events, sorted by start time.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Name of task `id`.
    pub fn task_name(&self, id: usize) -> &str {
        self.names.get(id).map_or("<unknown>", |s| s.as_str())
    }

    /// Total busy time summed over workers.
    pub fn busy_time(&self) -> Duration {
        self.events.iter().map(|e| e.end - e.start).sum()
    }

    /// Fraction of `threads × makespan` spent executing tasks, in `[0, 1]`.
    ///
    /// This is the number the fork-join-vs-dataflow experiment compares:
    /// barriers show up directly as lost utilization.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.threads as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.busy_time().as_secs_f64() / denom).min(1.0)
    }

    /// Total flops attributed to traced tasks (sum over events).
    pub fn total_flops(&self) -> u64 {
        self.events.iter().map(|e| e.flops).sum()
    }

    /// Total DRAM bytes attributed to traced tasks (sum over events).
    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.bytes).sum()
    }

    /// Busy time per worker index.
    pub fn busy_per_worker(&self) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; self.threads];
        for e in &self.events {
            if e.worker < busy.len() {
                busy[e.worker] += e.end - e.start;
            }
        }
        busy
    }

    /// Serializes the trace in the Chrome trace-event JSON format
    /// (load via `chrome://tracing` or Perfetto): one complete ("X") event
    /// per task, one track per worker. Timestamps are microseconds. Task
    /// names are fully JSON-escaped, so hostile names (quotes, backslashes,
    /// control characters) cannot corrupt the document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut name = String::new();
            xsc_metrics::escape_json_into(self.task_name(e.task), &mut name);
            if e.attempt > 1 {
                name.push_str(&format!(" (attempt {})", e.attempt));
            }
            let args = if e.flops > 0 || e.bytes > 0 {
                match e.intensity() {
                    Some(i) => format!(
                        ",\"args\":{{\"flops\":{},\"bytes\":{},\"intensity\":{i:.4}}}",
                        e.flops, e.bytes
                    ),
                    None => format!(",\"args\":{{\"flops\":{},\"bytes\":{}}}", e.flops, e.bytes),
                }
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}{args}}}",
                e.worker,
                e.start.as_secs_f64() * 1e6,
                (e.end - e.start).as_secs_f64() * 1e6
            ));
        }
        out.push(']');
        out
    }

    /// A coarse ASCII Gantt chart (`width` columns), one row per worker.
    /// Busy slots render as `#`, idle as `.`.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let total = self.wall.as_secs_f64();
        let mut rows = vec![vec![b'.'; width]; self.threads];
        if total > 0.0 {
            for e in &self.events {
                // Same guard as `busy_per_worker`: a stray worker id (from a
                // hand-built or corrupted trace) must not panic the renderer.
                let Some(row) = rows.get_mut(e.worker) else {
                    continue;
                };
                let s = ((e.start.as_secs_f64() / total) * width as f64) as usize;
                let t = ((e.end.as_secs_f64() / total) * width as f64).ceil() as usize;
                let lo = s.min(width);
                let hi = t.min(width).max(lo);
                for c in &mut row[lo..hi] {
                    *c = b'#';
                }
            }
        }
        let mut out = String::new();
        for (w, row) in rows.into_iter().enumerate() {
            out.push_str(&format!("w{w:02} |"));
            out.push_str(std::str::from_utf8(&row).unwrap());
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON well-formedness checker (objects, arrays, strings,
    /// numbers, literals) used to validate `to_chrome_json` output without
    /// an external parser. Returns the rest of the input after one value.
    fn parse_json_value(s: &str) -> Result<&str, String> {
        let s = s.trim_start();
        let mut chars = s.char_indices();
        match chars.next().map(|(_, c)| c) {
            Some('{') => {
                let mut rest = s[1..].trim_start();
                if let Some(r) = rest.strip_prefix('}') {
                    return Ok(r);
                }
                loop {
                    rest = parse_json_string(rest.trim_start())?;
                    rest = rest.trim_start().strip_prefix(':').ok_or("expected ':'")?;
                    rest = parse_json_value(rest)?;
                    rest = rest.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r.trim_start();
                    } else {
                        return rest.strip_prefix('}').ok_or("expected '}'".into());
                    }
                }
            }
            Some('[') => {
                let mut rest = s[1..].trim_start();
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok(r);
                }
                loop {
                    rest = parse_json_value(rest)?;
                    rest = rest.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r;
                    } else {
                        return rest.strip_prefix(']').ok_or("expected ']'".into());
                    }
                }
            }
            Some('"') => parse_json_string(s),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                    .unwrap_or(s.len());
                s[..end]
                    .parse::<f64>()
                    .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
                Ok(&s[end..])
            }
            _ => ["true", "false", "null"]
                .iter()
                .find_map(|lit| s.strip_prefix(lit))
                .ok_or_else(|| format!("unexpected token at {:?}", &s[..s.len().min(12)])),
        }
    }

    fn parse_json_string(s: &str) -> Result<&str, String> {
        let body = s.strip_prefix('"').ok_or("expected '\"'")?;
        let mut it = body.char_indices();
        while let Some((i, c)) = it.next() {
            match c {
                '"' => return Ok(&body[i + 1..]),
                '\\' => match it.next().map(|(_, e)| e) {
                    Some('u') => {
                        let hex: String =
                            (0..4).filter_map(|_| it.next().map(|(_, h)| h)).collect();
                        if hex.len() != 4 || !hex.chars().all(|h| h.is_ascii_hexdigit()) {
                            return Err(format!("bad \\u escape {hex:?}"));
                        }
                    }
                    Some(e) if "\"\\/bfnrt".contains(e) => {}
                    other => return Err(format!("bad escape {other:?}")),
                },
                c if (c as u32) < 0x20 => {
                    return Err(format!("raw control char {:#x} in string", c as u32))
                }
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn assert_valid_json(doc: &str) {
        let rest = parse_json_value(doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
        assert!(rest.trim().is_empty(), "trailing garbage: {rest:?}");
    }

    fn sample_trace() -> Trace {
        let names = Arc::new(vec!["a".to_string(), "b".to_string()]);
        Trace::new(
            2,
            Duration::from_millis(10),
            vec![
                TraceEvent {
                    task: 1,
                    worker: 1,
                    start: Duration::from_millis(5),
                    end: Duration::from_millis(10),
                    attempt: 1,
                    flops: 0,
                    bytes: 0,
                },
                TraceEvent {
                    task: 0,
                    worker: 0,
                    start: Duration::from_millis(0),
                    end: Duration::from_millis(10),
                    attempt: 1,
                    flops: 4000,
                    bytes: 1000,
                },
            ],
            names,
            ResilienceStats::default(),
        )
    }

    #[test]
    fn events_sorted_by_start() {
        let t = sample_trace();
        assert_eq!(t.events()[0].task, 0);
        assert_eq!(t.events()[1].task, 1);
    }

    #[test]
    fn utilization_computed_correctly() {
        let t = sample_trace();
        // Busy = 10ms + 5ms = 15ms over 2 workers x 10ms = 20ms -> 0.75.
        assert!((t.utilization() - 0.75).abs() < 1e-9);
        assert_eq!(
            t.busy_per_worker(),
            vec![Duration::from_millis(10), Duration::from_millis(5)]
        );
    }

    #[test]
    fn names_resolve() {
        let t = sample_trace();
        assert_eq!(t.task_name(0), "a");
        assert_eq!(t.task_name(99), "<unknown>");
    }

    #[test]
    fn gantt_has_one_row_per_worker() {
        let t = sample_trace();
        let g = t.ascii_gantt(40);
        assert_eq!(g.lines().count(), 2);
        assert!(g.contains('#'));
        // Worker 1 idles the first half.
        let row1 = g.lines().nth(1).unwrap();
        assert!(row1.contains('.'));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = sample_trace();
        let j = t.to_chrome_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
        assert!(j.contains("\"name\":\"a\""));
        assert!(j.contains("\"tid\":1"));
        // Durations in microseconds.
        assert!(j.contains("\"dur\":10000.000") || j.contains("\"dur\":10000"));
    }

    #[test]
    fn intensity_and_totals_from_attributed_events() {
        let t = sample_trace();
        assert_eq!(t.total_flops(), 4000);
        assert_eq!(t.total_bytes(), 1000);
        let attributed = &t.events()[0]; // task 0 sorts first
        assert_eq!(attributed.intensity(), Some(4.0));
        assert_eq!(t.events()[1].intensity(), None);
        let j = t.to_chrome_json();
        assert!(
            j.contains("\"args\":{\"flops\":4000,\"bytes\":1000,\"intensity\":4.0000}"),
            "{j}"
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::empty(4);
        assert_eq!(t.utilization(), 0.0);
        assert_eq!(t.tasks_run(), 0);
        assert_eq!(t.busy_per_worker().len(), 4);
        let _ = t.ascii_gantt(20);
    }

    #[test]
    fn gantt_ignores_stray_worker_ids() {
        // A worker id >= threads (hand-built or corrupted trace) must be
        // skipped by the renderer, exactly as busy_per_worker skips it.
        let names = Arc::new(vec!["a".to_string(), "stray".to_string()]);
        let t = Trace::new(
            2,
            Duration::from_millis(10),
            vec![
                TraceEvent {
                    task: 0,
                    worker: 0,
                    start: Duration::from_millis(0),
                    end: Duration::from_millis(10),
                    attempt: 1,
                    flops: 0,
                    bytes: 0,
                },
                TraceEvent {
                    task: 1,
                    worker: 7, // out of range for a 2-thread trace
                    start: Duration::from_millis(2),
                    end: Duration::from_millis(6),
                    attempt: 1,
                    flops: 0,
                    bytes: 0,
                },
            ],
            names,
            ResilienceStats::default(),
        );
        let g = t.ascii_gantt(40);
        assert_eq!(g.lines().count(), 2, "one row per real worker:\n{g}");
        assert!(g.lines().next().unwrap().contains('#'));
        // The stray event contributes to neither row nor busy accounting.
        assert_eq!(t.busy_per_worker()[1], Duration::ZERO);
    }

    #[test]
    fn chrome_json_escapes_hostile_task_names() {
        let hostile = "evil \"task\" \\ with \n newline, \t tab and \u{1} ctrl".to_string();
        let names = Arc::new(vec![hostile.clone()]);
        let t = Trace::new(
            1,
            Duration::from_millis(5),
            vec![TraceEvent {
                task: 0,
                worker: 0,
                start: Duration::ZERO,
                end: Duration::from_millis(5),
                attempt: 2,
                flops: 0,
                bytes: 0,
            }],
            names,
            ResilienceStats::default(),
        );
        let j = t.to_chrome_json();
        assert_valid_json(&j);
        // The escaped form must be present (quote kept, not rewritten to ').
        assert!(
            j.contains(r#"evil \"task\" \\ with \n newline, \t tab and \u0001 ctrl"#),
            "{j}"
        );
        assert!(j.contains("(attempt 2)"));
        // No raw control characters may survive.
        assert!(!j.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn chrome_json_validator_sanity() {
        assert_valid_json(r#"[{"a":1.5e3,"b":[true,null,"xA"]},{}]"#);
        assert!(parse_json_value("[1,").is_err());
        assert!(parse_json_value("\"\u{1}\"").is_err());
        assert!(parse_json_value(r#"{"a" 1}"#).is_err());
    }
}
