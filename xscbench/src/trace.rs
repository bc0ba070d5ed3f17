//! Benchmark-side tracing: in-memory spans recorded around the calls into
//! each layer, plus the `SparseOps`/`Preconditioner` adapters that put spans
//! around the kernels `try_pcg` calls. Nothing here changes what the wrapped
//! code computes; the adapters only read the clock around each call.

use crate::report::json_str;
use std::cell::RefCell;
use std::time::Instant;
use xsc_metrics::Traffic;
use xsc_sparse::{Preconditioner, SparseOps};

/// One timed region: its name, its interval in nanoseconds since the
/// tracer's epoch, the span that caused it and the request it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `sparse.spmv`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (the arrival index for serve requests).
    pub request: Option<u64>,
    /// Bytes the call moved under the kernel's traffic model, when known.
    pub bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans for one run on one thread; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request: None,
            bytes: 0,
        });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        id
    }

    /// Closes span `id` (the innermost open one), crediting it `bytes`.
    pub fn end(&self, id: usize, bytes: u64) {
        let end_ns = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end_ns;
        spans[id].bytes = bytes;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id, 0);
        out
    }

    /// Adds a closed span with explicit times (a request measured from its
    /// scheduled send time).
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) {
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: Some(request),
            bytes: 0,
        });
    }

    /// Number of spans so far (an index to pass to the `*_since` queries).
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Calls, seconds and bytes of the spans named `name` recorded at or
    /// after index `from`.
    pub fn totals_since(&self, from: usize, name: &str) -> (u64, f64, u64) {
        let spans = self.spans.borrow();
        spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0, 0), |(n, t, b), s| {
                (n + 1, t + s.seconds(), b + s.bytes)
            })
    }

    /// Self time of span `id`: its duration minus the time its direct
    /// children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let spans = self.spans.borrow();
        let children: f64 = spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        spans[id].seconds() - children
    }

    /// Every span as one JSON document, with the host fingerprint.
    pub fn to_json(&self, header: &str) -> String {
        let spans = self.spans.borrow();
        let mut s = format!("{{{header}, \"spans\": [\n");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let request = sp
                .request
                .map_or_else(|| "null".to_string(), |r| r.to_string());
            s.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {request}, \"bytes\": {}}}{}\n",
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.bytes,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Span name of the SpMV-class calls (`spmv`, `spmv_par`, `fused_residual`).
pub const SPMV_SPAN: &str = "sparse.spmv";
/// Span name of one preconditioner application.
pub const MG_SPAN: &str = "sparse.mg";

/// A [`SparseOps`] that forwards to `inner` and records a span around every
/// SpMV-class call.
pub struct TracedOps<'t, A> {
    inner: A,
    tracer: &'t Tracer,
}

impl<'t, A: SparseOps> TracedOps<'t, A> {
    /// Wraps `inner`.
    pub fn new(inner: A, tracer: &'t Tracer) -> Self {
        TracedOps { inner, tracer }
    }

    fn timed(&self, bytes: u64, f: impl FnOnce()) {
        let id = self.tracer.begin(SPMV_SPAN);
        f();
        self.tracer.end(id, bytes);
    }
}

impl<A: SparseOps> SparseOps for TracedOps<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.timed(self.inner.spmv_traffic().bytes(), || self.inner.spmv(x, y));
    }
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        self.timed(self.inner.spmv_traffic().bytes(), || {
            self.inner.spmv_par(x, y)
        });
    }
    fn fused_residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        // The fused form also streams `b` once.
        let bytes = self.inner.spmv_traffic().bytes() + 8 * self.inner.nrows() as u64;
        self.timed(bytes, || self.inner.fused_residual(x, b, r));
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }
    fn symgs(&self, b: &[f64], x: &mut [f64]) {
        self.inner.symgs(b, x);
    }
    fn colored_symgs(&self, classes: &[Vec<usize>], b: &[f64], x: &mut [f64]) {
        self.inner.colored_symgs(classes, b, x);
    }
    fn spmv_traffic(&self) -> Traffic {
        self.inner.spmv_traffic()
    }
    fn symgs_traffic(&self) -> Traffic {
        self.inner.symgs_traffic()
    }
    fn values(&self) -> &[f64] {
        self.inner.values()
    }
    fn values_mut(&mut self) -> &mut [f64] {
        self.inner.values_mut()
    }
    fn column_sums(&self) -> Vec<f64> {
        self.inner.column_sums()
    }
}

/// A [`Preconditioner`] that forwards to `inner` and records a span around
/// every application.
pub struct TracedPrecond<'t, P> {
    inner: P,
    tracer: &'t Tracer,
}

impl<'t, P: Preconditioner> TracedPrecond<'t, P> {
    /// Wraps `inner`.
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        TracedPrecond { inner, tracer }
    }

    /// The wrapped preconditioner.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Preconditioner> Preconditioner for TracedPrecond<'_, P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let id = self.tracer.begin(MG_SPAN);
        self.inner.apply(r, z);
        self.tracer.end(id, 0);
    }
    fn flops_per_apply(&self) -> u64 {
        self.inner.flops_per_apply()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_sparse::mg::MgPreconditioner;
    use xsc_sparse::stencil::{build_matrix, build_rhs};
    use xsc_sparse::{try_pcg, FormatMatrix, Geometry, SparseFormat};

    #[test]
    fn adapters_leave_pcg_bit_identical() {
        let g = Geometry::new(16, 16, 16);
        let a = FormatMatrix::convert(build_matrix(g), SparseFormat::CsrUsize).unwrap();
        let (b, _) = build_rhs(&build_matrix(g));
        let mg = MgPreconditioner::new(g, 3);

        let mut x_plain = vec![0.0; a.nrows()];
        let plain = try_pcg(&a, &b, &mut x_plain, 20, 0.0, &mg).unwrap();

        let tracer = Tracer::new();
        let ops = TracedOps::new(a, &tracer);
        let pre = TracedPrecond::new(mg, &tracer);
        let mut x_traced = vec![0.0; ops.nrows()];
        let traced = try_pcg(&ops, &b, &mut x_traced, 20, 0.0, &pre).unwrap();

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x_plain), bits(&x_traced));
        assert_eq!(
            bits(&plain.residual_history),
            bits(&traced.residual_history)
        );
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.flops, traced.flops);
        // One SpMV and one preconditioner application per iteration, plus
        // one of each for the initial residual.
        assert_eq!(tracer.totals_since(0, SPMV_SPAN).0, 21);
        assert_eq!(tracer.totals_since(0, MG_SPAN).0, 21);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer, 0);
        let own = t.self_seconds(outer);
        assert!(own >= 0.0 && own < t.totals_since(0, "inner").1);
    }
}
