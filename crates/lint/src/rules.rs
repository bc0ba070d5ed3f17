//! The project-specific rule set and the token-pattern engine behind it.
//!
//! Every rule guards an invariant the repo's experiments *assert at
//! runtime* (bit-identical residual histories across sparse formats in
//! E19, schedule-independent chaos campaigns in E17, deterministic
//! left-fold reductions everywhere) but that the source could silently
//! lose again through an innocent-looking edit. The linter moves those
//! invariants from convention to tooling — see `DESIGN.md`, "Static
//! analysis & invariants", for the full rule catalog.
//!
//! Three generations of rules share one engine:
//!
//! * **D/A/S/M rules** (PR 5) are token-pattern rules scoped by
//!   [`CrateClass`];
//! * **C rules** (concurrency) consume the [`crate::context::ItemCtx`]
//!   structural pass and a lexical lock-guard tracker to police condvar
//!   predicate loops, guards held across kernel calls, and the executor's
//!   declared lock-acquisition order ([`C03_LOCK_ORDER`]);
//! * **P rules** (panic-freedom) and **X rules** (numeric-cast hygiene)
//!   are *manifest* rules: `HOT_PATHS` declares the infallible hot
//!   paths, [`X01_CHOKEPOINTS`] the only functions allowed to spell a
//!   bare `as f32` / `as f64` / `as usize` in kernel crates — the
//!   auditable substrate the mixed-precision roadmap item builds on.
//!
//! Rules skip `#[cfg(test)]` / `#[test]` regions where noted, so test
//! code may use hash maps, indexing, and unwraps freely while library
//! code may not.

use crate::context::ItemCtx;
use crate::lexer::{Tok, Token};

/// Which part of the workspace a file belongs to; decides which rules
/// apply (see the table in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Library crates whose results must be deterministic (`xsc-core`,
    /// `xsc-sparse`, ... — everything not listed below).
    Numeric,
    /// The benchmark crate (`crates/bench`): timing is its job.
    Bench,
    /// Offline stand-ins for external crates (`crates/shims/*`).
    Shim,
    /// Test and bench sources (`tests/` crate, `*/tests/`, `*/benches/`).
    TestCode,
    /// Runnable examples (`examples/`).
    Example,
    /// The linter itself (`crates/lint`): held to Numeric rules.
    Lint,
}

/// One diagnostic: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D01`, ..., `L02`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Static description of a rule, for `--list-rules` and the JSON report.
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, including the meta-rules (`L00`–`L02`)
/// that police the suppression mechanism itself.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D01",
        summary: "no HashMap/HashSet outside shims: iteration order is nondeterministic; \
                  use BTreeMap/BTreeSet or a sorted drain",
    },
    RuleInfo {
        id: "D02",
        summary: "no raw Instant/SystemTime outside bench/timing modules: wall clock reads go \
                  through xsc_metrics::stopwatch::Stopwatch",
    },
    RuleInfo {
        id: "D03",
        summary: "no unseeded RNG (thread_rng/from_entropy/OsRng/getrandom) anywhere, tests \
                  included: every random stream carries an explicit seed",
    },
    RuleInfo {
        id: "D04",
        summary: "no implicit .sum()/.product() reductions in kernel crates: write the fold \
                  explicitly so the pinned order is visible",
    },
    RuleInfo {
        id: "A01",
        summary: "no unchecked `as` narrowing on sparse indices: use try_from (the Csr32 \
                  overflow lesson)",
    },
    RuleInfo {
        id: "S01",
        summary: "every unsafe block needs a // SAFETY: comment just above; unsafe fn/impl/trait \
                  items need that or a `# Safety` doc section",
    },
    RuleInfo {
        id: "M01",
        summary: "public kernel files in core/sparse/dense install an xsc-metrics recorder",
    },
    RuleInfo {
        id: "C01",
        summary: "condvar wait() must sit inside a predicate re-check loop: a bare wait turns \
                  every spurious wakeup into a logic bug",
    },
    RuleInfo {
        id: "C02",
        summary: "no lock guard held across a kernel/executor call: kernels run for \
                  milliseconds and a held guard turns them into a convoy (or deadlock)",
    },
    RuleInfo {
        id: "C03",
        summary: "executor lock acquisitions must follow the declared order manifest \
                  (panicked < sleep < queues < kernels) and name only declared locks",
    },
    RuleInfo {
        id: "P01",
        summary: "no .unwrap()/.expect() in the declared infallible hot paths (executor worker \
                  loop, microkernel, serve post-admission): validate at the boundary instead",
    },
    RuleInfo {
        id: "P02",
        summary: "no panic!/unreachable!/todo!/assert! macros in the declared infallible hot \
                  paths (debug_assert! compiles out and is allowed)",
    },
    RuleInfo {
        id: "P03",
        summary: "no fallible slice indexing in the declared infallible hot paths: iterate or \
                  chunk instead (constant indices into fixed arrays are allowed)",
    },
    RuleInfo {
        id: "X01",
        summary: "bare `as f32`/`as f64`/`as usize` in kernel crates only inside the named \
                  cast chokepoints: every numeric representation change must be auditable \
                  before mixed precision lands",
    },
    RuleInfo {
        id: "L00",
        summary: "suppressions must carry a reason: xsc-lint: allow(RULE, reason = \"...\")",
    },
    RuleInfo {
        id: "L01",
        summary: "suppressions must name a known rule id",
    },
    RuleInfo {
        id: "L02",
        summary: "suppressions must match a finding (stale allows rot the audit trail)",
    },
];

/// `true` if `id` names a rule the engine knows.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Kernel-crate path prefixes for D04 and X01 (crates that promise pinned
/// fold order and auditable numeric casts in their results).
const KERNEL_CRATES: &[&str] = &[
    "crates/core/",
    "crates/sparse/",
    "crates/dense/",
    "crates/batched/",
    "crates/precision/",
];

/// The one file allowed to read the wall clock directly: the sanctioned
/// chokepoint every other crate's timing goes through.
const TIMING_CHOKEPOINT: &str = "crates/metrics/src/stopwatch.rs";

/// Files that implement public kernels and therefore must install an
/// `xsc_metrics::record` scope (rule M01). Kept explicit so removing
/// instrumentation from a hot kernel is a lint failure, not a silent
/// observability regression.
const M01_KERNEL_FILES: &[&str] = &[
    "crates/core/src/blas1.rs",
    "crates/core/src/factor.rs",
    "crates/core/src/gemm.rs",
    "crates/core/src/syrk.rs",
    "crates/core/src/trsm.rs",
    "crates/sparse/src/csr.rs",
    "crates/sparse/src/sell.rs",
    "crates/sparse/src/symgs.rs",
    "crates/sparse/src/mg.rs",
    "crates/sparse/src/coloring.rs",
    "crates/dense/src/cholesky.rs",
];

// ---------------------------------------------------------------------------
// C03 manifest: the executor's declared lock world.
// ---------------------------------------------------------------------------

/// The file rule C03 audits (the only file in the workspace where more
/// than one lock class can be held at once).
const C03_FILE: &str = "crates/runtime/src/executor.rs";

/// Declared lock-acquisition order for `executor.rs`, outermost first.
/// Acquiring a lock while holding one that appears *later* in this list
/// is a C03 finding; so is acquiring a lock the manifest does not name.
pub const C03_LOCK_ORDER: &[&str] = &["panicked", "sleep", "queues", "kernels"];

/// Local-variable aliases for declared locks (`|q| q.lock()` closures over
/// the queue vector).
const C03_LOCK_ALIASES: &[(&str, &str)] = &[("q", "queues")];

/// Functions that acquire a lock internally, so calling them *is* an
/// acquisition for ordering purposes. `wake_all` takes the sleep lock —
/// calling it while holding a queue guard would invert the order.
const C03_FN_ACQUIRES: &[(&str, &str)] = &[("wake_all", "sleep")];

// ---------------------------------------------------------------------------
// C02 manifest: guard-across-kernel-call hazards.
// ---------------------------------------------------------------------------

/// Files where lock guards and kernel/executor calls coexist.
const C02_FILES: &[&str] = &[
    "crates/runtime/src/executor.rs",
    "crates/serve/src/server.rs",
];

/// Long-running callees that must never see a caller-held lock guard:
/// graph executions and the serve-side solve entry points.
const C02_CALLEES: &[&str] = &[
    "run",
    "run_attempts",
    "execute",
    "execute_resilient",
    "execute_launch",
    "execute_coalesced",
    "execute_single",
    "batched_cholesky_solve",
];

// ---------------------------------------------------------------------------
// P-rule manifest: the declared infallible hot paths.
// ---------------------------------------------------------------------------

/// One declared infallible hot path: a file, the functions in it that are
/// post-validation (empty = the whole file), and whether slice indexing
/// (P03) is policed there too.
struct HotPath {
    file: &'static str,
    /// Function names (closures inside them count); empty = whole file.
    fns: &'static [&'static str],
    /// Whether P03 (slice indexing) applies. The executor indexes its
    /// per-task slot vectors by construction-bounded task ids everywhere,
    /// so P03 there would be suppression noise; the microkernel and the
    /// serve solve path have no such excuse.
    indexing: bool,
}

/// The declared infallible hot paths. Admission/validation is the fallible
/// boundary; past it, these functions must not be able to panic.
const HOT_PATHS: &[HotPath] = &[
    HotPath {
        file: "crates/core/src/microkernel.rs",
        fns: &[],
        indexing: true,
    },
    HotPath {
        file: "crates/runtime/src/executor.rs",
        fns: &["run", "run_attempts", "try_steal", "wake_all", "finished"],
        indexing: false,
    },
    HotPath {
        file: "crates/serve/src/server.rs",
        fns: &[
            "execute_launch",
            "execute_coalesced",
            "execute_single",
            "tiny_problem",
            "outcome",
        ],
        indexing: true,
    },
];

// ---------------------------------------------------------------------------
// X01 manifest: the named numeric-cast chokepoints.
// ---------------------------------------------------------------------------

/// The only (file, fn) pairs in kernel crates allowed to spell a bare
/// `as f32` / `as f64` / `as usize`. Everything else converts through
/// these, so a future mixed-precision pass can find every representation
/// change by reading this list.
pub const X01_CHOKEPOINTS: &[(&str, &str)] = &[
    ("crates/core/src/cast.rs", "count_f64"),
    ("crates/core/src/cast.rs", "demote_f32"),
    ("crates/core/src/scalar.rs", "to_f64"),
    ("crates/core/src/scalar.rs", "from_f64"),
    ("crates/sparse/src/idx.rs", "widen"),
    ("crates/sparse/src/idx.rs", "check_compact_bounds"),
    ("crates/precision/src/half.rs", "to_f64"),
    ("crates/precision/src/half.rs", "from_f64"),
];

/// A lexed file plus everything the rules need to scope themselves.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Workspace classification of the file.
    pub class: CrateClass,
    /// Full token stream (comments included).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment ("significant") tokens.
    pub sig: Vec<usize>,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: Vec<bool>,
    /// Structural context: enclosing fn, loop bodies, brace depth.
    pub item: ItemCtx,
}

impl FileCtx {
    /// Builds the context for one file: lex, index, and mark test regions.
    pub fn new(path: String, class: CrateClass, src: &str) -> FileCtx {
        let tokens = crate::lexer::lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.tok, Tok::Comment { .. }))
            .map(|(i, _)| i)
            .collect();
        let in_test = mark_test_regions(&tokens, &sig);
        let item = ItemCtx::new(&tokens, &sig);
        FileCtx {
            path,
            class,
            tokens,
            sig,
            in_test,
            item,
        }
    }

    // All accessors are total in `k`: rules routinely probe `k + 1`/`k + 3`
    // lookaheads, and a file that ends mid-pattern (`foo.` at EOF) must
    // read as "no match", never as a bounds panic.

    fn ident_at(&self, k: usize) -> Option<&str> {
        match &self.tokens[*self.sig.get(k)?].tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, k: usize, c: char) -> bool {
        self.sig
            .get(k)
            .is_some_and(|&i| self.tokens[i].tok == Tok::Punct(c))
    }

    fn line_at(&self, k: usize) -> u32 {
        self.sig.get(k).map_or(0, |&i| self.tokens[i].line)
    }

    fn in_test_at(&self, k: usize) -> bool {
        self.sig.get(k).is_some_and(|&i| self.in_test[i])
    }

    fn fn_name_at(&self, k: usize) -> Option<&str> {
        self.item.fn_name_at(*self.sig.get(k)?)
    }

    fn depth_at(&self, k: usize) -> u32 {
        self.sig.get(k).map_or(0, |&i| self.item.depth[i])
    }

    fn is_kernel_crate(&self) -> bool {
        KERNEL_CRATES.iter().any(|p| self.path.starts_with(p))
    }
}

/// Marks, for every token index, whether it sits inside a region gated by
/// `#[cfg(test)]` or `#[test]` (a `mod`, `fn`, or single `use`/item).
/// Attributes like `#[cfg(not(test))]` do **not** mark a region.
fn mark_test_regions(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut depth: i64 = 0;
    // Stack of depths at which a test region's opening brace sits; the
    // region ends when `depth` drops back below the recorded value.
    let mut region_floor: Option<i64> = None;
    let mut pending_test = false;
    let mut k = 0usize;
    while k < sig.len() {
        let i = sig[k];
        if region_floor.is_some() {
            flags[i] = true;
        }
        match &tokens[i].tok {
            Tok::Punct('#') if k + 1 < sig.len() && tokens[sig[k + 1]].tok == Tok::Punct('[') => {
                // Scan the attribute to its matching `]`, collecting idents.
                let mut brackets = 0i64;
                let mut idents: Vec<&str> = Vec::new();
                let mut j = k + 1;
                while j < sig.len() {
                    let t = sig[j];
                    if region_floor.is_some() {
                        flags[t] = true;
                    }
                    match &tokens[t].tok {
                        Tok::Punct('[') => brackets += 1,
                        Tok::Punct(']') => {
                            brackets -= 1;
                            if brackets == 0 {
                                break;
                            }
                        }
                        Tok::Ident(s) => idents.push(s.as_str()),
                        _ => {}
                    }
                    j += 1;
                }
                let has_test = idents.contains(&"test");
                let negated = idents.contains(&"not");
                if has_test && !negated {
                    pending_test = true;
                }
                k = j + 1;
                continue;
            }
            Tok::Punct('{') => {
                depth += 1;
                if pending_test && region_floor.is_none() {
                    region_floor = Some(depth);
                    pending_test = false;
                    flags[i] = true;
                }
            }
            Tok::Punct('}') => {
                depth -= 1;
                if let Some(floor) = region_floor {
                    if depth < floor {
                        region_floor = None;
                    }
                }
            }
            // `#[cfg(test)] use ...;` — the attribute covered one
            // braceless item.
            Tok::Punct(';') if pending_test && region_floor.is_none() => {
                flags[i] = true;
                pending_test = false;
            }
            _ => {}
        }
        if pending_test && region_floor.is_none() {
            flags[i] = true;
        }
        k += 1;
    }
    flags
}

/// Runs every rule against one file and returns the raw findings
/// (suppressions are applied later, by the driver).
pub fn check_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_d01(ctx, &mut out);
    rule_d02(ctx, &mut out);
    rule_d03(ctx, &mut out);
    rule_d04(ctx, &mut out);
    rule_a01(ctx, &mut out);
    rule_s01(ctx, &mut out);
    rule_m01(ctx, &mut out);
    rule_c01(ctx, &mut out);
    rule_c02_c03(ctx, &mut out);
    rule_p(ctx, &mut out);
    rule_x01(ctx, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, rule: &'static str, ctx: &FileCtx, line: u32, message: String) {
    out.push(Finding {
        rule,
        file: ctx.path.clone(),
        line,
        message,
    });
}

/// D01 — hash-order iteration hazard. Applies everywhere except shims
/// (which re-implement external APIs): test assertions built on hash-order
/// iteration flake exactly like library code does.
fn rule_d01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.class == CrateClass::Shim {
        return;
    }
    for k in 0..ctx.sig.len() {
        if let Some(name @ ("HashMap" | "HashSet")) = ctx.ident_at(k) {
            push(
                out,
                "D01",
                ctx,
                ctx.line_at(k),
                format!(
                    "`{name}`: iteration order is nondeterministic and can leak into results \
                     (or test expectations); use BTreeMap/BTreeSet or drain through a sorted Vec"
                ),
            );
        }
    }
}

/// D02 — ad-hoc wall-clock reads outside the sanctioned timing chokepoint.
/// Test code is held to the rule too (a test that times itself with a raw
/// `Instant` flakes under load); the bench crate is exempt — timing is
/// its job.
fn rule_d02(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !matches!(
        ctx.class,
        CrateClass::Numeric | CrateClass::Lint | CrateClass::Example | CrateClass::TestCode
    ) || ctx.path == TIMING_CHOKEPOINT
    {
        return;
    }
    for k in 0..ctx.sig.len() {
        if let Some(name @ ("Instant" | "SystemTime")) = ctx.ident_at(k) {
            push(
                out,
                "D02",
                ctx,
                ctx.line_at(k),
                format!(
                    "raw `{name}` outside a timing module: wall clock must never influence \
                     results; time through xsc_metrics::stopwatch::Stopwatch (the one audited \
                     chokepoint)"
                ),
            );
        }
    }
}

/// D03 — unseeded randomness, flagged everywhere including test code.
fn rule_d03(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for k in 0..ctx.sig.len() {
        if let Some(name @ ("thread_rng" | "ThreadRng" | "from_entropy" | "OsRng" | "getrandom")) =
            ctx.ident_at(k)
        {
            push(
                out,
                "D03",
                ctx,
                ctx.line_at(k),
                format!(
                    "`{name}` is an unseeded entropy source: every random stream must thread \
                     an explicit seed (SmallRng::seed_from_u64) so runs replay bit-identically"
                ),
            );
        }
    }
}

/// D04 — implicit iterator reductions in kernel crates.
fn rule_d04(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.class != CrateClass::Numeric || !ctx.is_kernel_crate() {
        return;
    }
    for k in 0..ctx.sig.len().saturating_sub(2) {
        if ctx.in_test_at(k) {
            continue;
        }
        if ctx.punct_at(k, '.')
            && matches!(ctx.ident_at(k + 1), Some("sum" | "product"))
            && ctx.punct_at(k + 2, '(')
        {
            let name = ctx.ident_at(k + 1).unwrap_or("sum");
            push(
                out,
                "D04",
                ctx,
                ctx.line_at(k + 1),
                format!(
                    "implicit `.{name}()` in a kernel crate that promises pinned fold order: \
                     write the reduction as an explicit left fold \
                     (`.fold(0.0, |acc, x| acc + x)`), or suppress with the element type's \
                     justification if the sum is order-independent (integers)"
                ),
            );
        }
    }
}

/// A01 — unchecked `as` narrowing on sparse indices.
fn rule_a01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.class != CrateClass::Numeric || !ctx.path.starts_with("crates/sparse/") {
        return;
    }
    for k in 0..ctx.sig.len().saturating_sub(1) {
        if ctx.in_test_at(k) {
            continue;
        }
        if ctx.ident_at(k) == Some("as") {
            if let Some(target @ ("u8" | "u16" | "u32" | "i8" | "i16" | "i32")) =
                ctx.ident_at(k + 1)
            {
                push(
                    out,
                    "A01",
                    ctx,
                    ctx.line_at(k),
                    format!(
                        "unchecked `as {target}` narrowing on a sparse index: silent truncation \
                         is how Csr32 overflow bugs are born; use try_from (or suppress citing \
                         the bound that makes the cast safe)"
                    ),
                );
            }
        }
    }
}

/// S01 — `unsafe` without a stated soundness argument. An `unsafe { ... }`
/// block (or `unsafe` in any expression position) needs a `// SAFETY:`
/// comment within the 3 lines above. An `unsafe fn` / `unsafe impl` /
/// `unsafe trait` *item* may instead carry a `/// # Safety` doc section
/// (the rustdoc convention) within the 12 lines above — the section
/// documents the caller obligation, which *is* the soundness argument at
/// the declaration site.
fn rule_s01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let mut safety_lines: Vec<u32> = Vec::new();
    let mut safety_doc_lines: Vec<u32> = Vec::new();
    for t in &ctx.tokens {
        if let Tok::Comment { text, .. } = &t.tok {
            if text.contains("SAFETY:") {
                safety_lines.push(t.line);
            }
            if text.contains("# Safety") {
                safety_doc_lines.push(t.line);
            }
        }
    }
    for k in 0..ctx.sig.len() {
        if ctx.ident_at(k) != Some("unsafe") {
            continue;
        }
        let line = ctx.line_at(k);
        let is_item = matches!(ctx.ident_at(k + 1), Some("fn" | "impl" | "trait"));
        let by_comment = safety_lines
            .iter()
            .any(|&l| l <= line && line.saturating_sub(l) <= 3);
        let by_doc = is_item
            && safety_doc_lines
                .iter()
                .any(|&l| l <= line && line.saturating_sub(l) <= 12);
        if !(by_comment || by_doc) {
            let hint = if is_item {
                "document the caller obligation in a `# Safety` doc section (or a // SAFETY: \
                 comment just above)"
            } else {
                "state the invariant that makes this sound in a // SAFETY: comment within the \
                 3 lines above"
            };
            push(
                out,
                "S01",
                ctx,
                line,
                format!("`unsafe` without a stated soundness argument: {hint}"),
            );
        }
    }
}

/// M01 — kernel files must install an `xsc_metrics` recorder.
fn rule_m01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !M01_KERNEL_FILES.contains(&ctx.path.as_str()) {
        return;
    }
    for k in 0..ctx.sig.len().saturating_sub(3) {
        if ctx.in_test_at(k) {
            continue;
        }
        if ctx.ident_at(k) == Some("xsc_metrics")
            && ctx.punct_at(k + 1, ':')
            && ctx.punct_at(k + 2, ':')
            && matches!(ctx.ident_at(k + 3), Some("record" | "record_untimed"))
        {
            return; // instrumented — rule satisfied
        }
    }
    push(
        out,
        "M01",
        ctx,
        1,
        "kernel file installs no xsc-metrics recorder: public kernels in core/sparse/dense \
         must open an `xsc_metrics::record(...)` scope so roofline attribution stays complete"
            .to_string(),
    );
}

/// C01 — `.wait(...)` on a condvar must sit inside a loop that re-checks
/// its predicate: condition variables wake spuriously by contract, and the
/// executor's no-lost-wakeup argument (DESIGN.md) assumes the sleeper
/// re-evaluates the world after every return from `wait`.
fn rule_c01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.class == CrateClass::Shim {
        return;
    }
    for k in 0..ctx.sig.len().saturating_sub(2) {
        if ctx.in_test_at(k) {
            continue;
        }
        if ctx.punct_at(k, '.')
            && ctx.ident_at(k + 1) == Some("wait")
            && ctx.punct_at(k + 2, '(')
            && !ctx.item.in_loop[ctx.sig[k + 1]]
        {
            push(
                out,
                "C01",
                ctx,
                ctx.line_at(k + 1),
                "condvar `wait` outside a predicate loop: spurious wakeups are allowed by \
                 contract, so the caller must loop and re-check the condition after every \
                 return from wait"
                    .to_string(),
            );
        }
    }
}

/// A lock guard the lexical tracker currently believes is held.
struct HeldGuard {
    /// Canonical lock name (alias-resolved; `"?"` for unrecognized).
    lock: String,
    /// Binding name, for `drop(guard)` tracking.
    var: Option<String>,
    /// Held while the current brace depth is `>= floor`.
    floor: u32,
    /// Line of the acquisition (for diagnostics).
    line: u32,
}

/// Resolves the lock name for a `.lock()` whose `.` is at sig index `k`:
/// the identifier before the dot, skipping one `[...]` index group
/// (`queues[worker].lock()` → `queues`).
fn lock_name(ctx: &FileCtx, k: usize) -> Option<String> {
    let mut j = k;
    if j == 0 {
        return None;
    }
    j -= 1;
    if ctx.punct_at(j, ']') {
        let mut depth = 1i32;
        while j > 0 && depth > 0 {
            j -= 1;
            if ctx.punct_at(j, ']') {
                depth += 1;
            } else if ctx.punct_at(j, '[') {
                depth -= 1;
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    ctx.ident_at(j).map(|s| {
        let canon = C03_LOCK_ALIASES
            .iter()
            .find(|(a, _)| *a == s)
            .map(|(_, c)| *c)
            .unwrap_or(s);
        canon.to_string()
    })
}

/// Classification of one `.lock()` acquisition site.
enum GuardKind {
    /// `let g = x.lock();` (possibly through `.expect(..)`/`.unwrap()`):
    /// held until the enclosing block closes.
    Named(Option<String>),
    /// `if let` / `while let` condition: the guard temporary lives through
    /// the body (edition-2021 temporary scopes).
    CondExtended,
    /// Part of a larger statement: dropped at the statement's end.
    Transient,
}

/// Classifies the `.lock()` whose `.` is at sig index `k`, returning the
/// kind and the sig-index where its statement starts.
fn classify_guard(ctx: &FileCtx, k: usize) -> (GuardKind, usize) {
    // Find the statement start: the token after the previous `;`/`{`/`}`.
    let mut s = k;
    while s > 0 {
        let p = s - 1;
        if ctx.punct_at(p, ';') || ctx.punct_at(p, '{') || ctx.punct_at(p, '}') {
            break;
        }
        s = p;
    }
    let first = ctx.ident_at(s);
    let second = ctx.ident_at(s + 1);
    if matches!(first, Some("if" | "while")) && second == Some("let") {
        return (GuardKind::CondExtended, s);
    }
    if first == Some("let") {
        // Named only if `.lock()` ends the initializer (modulo a trailing
        // `.expect(..)` / `.unwrap()` for std mutexes); further calls
        // (`.pop()`, `.take()`) make the guard a statement temporary.
        let mut j = k + 4; // sig index just past `lock ( )`
        loop {
            if j >= ctx.sig.len() {
                break;
            }
            if ctx.punct_at(j, ';') {
                // Binding name: last ident before the `=`.
                let mut var = None;
                let mut i = s;
                while i < k {
                    if ctx.punct_at(i, '=') {
                        break;
                    }
                    if let Some(id) = ctx.ident_at(i) {
                        if !matches!(id, "let" | "mut") {
                            var = Some(id.to_string());
                        }
                    }
                    i += 1;
                }
                return (GuardKind::Named(var), s);
            }
            // Allow `.expect("...")` / `.unwrap()` and keep scanning.
            if ctx.punct_at(j, '.')
                && matches!(ctx.ident_at(j + 1), Some("expect" | "unwrap"))
                && ctx.punct_at(j + 2, '(')
            {
                let mut d = 1i32;
                let mut i = j + 3;
                while i < ctx.sig.len() && d > 0 {
                    if ctx.punct_at(i, '(') {
                        d += 1;
                    } else if ctx.punct_at(i, ')') {
                        d -= 1;
                    }
                    i += 1;
                }
                j = i;
                continue;
            }
            return (GuardKind::Transient, s);
        }
    }
    (GuardKind::Transient, s)
}

/// C02 + C03 — the lexical lock tracker. One pass over the file maintains
/// the set of held guards (named `let` bindings and `if let` condition
/// temporaries), then:
///
/// * **C03** (executor.rs only): every acquisition — including the virtual
///   ones in [`C03_FN_ACQUIRES`] — must respect [`C03_LOCK_ORDER`], and
///   every lock must be declared there;
/// * **C02** (files in [`C02_FILES`]): no [`C02_CALLEES`] call while a
///   guard is held, and no statement that both acquires a lock and calls
///   a kernel (evaluation order makes some such statements technically
///   safe, but they are one refactor away from a convoy — hoist the call).
fn rule_c02_c03(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let check_c03 = ctx.path == C03_FILE;
    let check_c02 = C02_FILES.contains(&ctx.path.as_str());
    if !check_c03 && !check_c02 {
        return;
    }
    let order_of = |lock: &str| C03_LOCK_ORDER.iter().position(|l| *l == lock);

    let mut held: Vec<HeldGuard> = Vec::new();
    let mut k = 0usize;
    while k < ctx.sig.len() {
        let depth = ctx.depth_at(k);
        held.retain(|g| depth >= g.floor);
        if ctx.in_test_at(k) {
            k += 1;
            continue;
        }

        // drop(guard) releases a named guard early.
        if ctx.ident_at(k) == Some("drop")
            && k + 3 < ctx.sig.len()
            && ctx.punct_at(k + 1, '(')
            && ctx.punct_at(k + 3, ')')
        {
            if let Some(v) = ctx.ident_at(k + 2) {
                held.retain(|g| g.var.as_deref() != Some(v));
            }
        }

        // A kernel/executor call while a guard is held (C02).
        if check_c02 {
            if let Some(name) = ctx.ident_at(k) {
                if C02_CALLEES.contains(&name) && k + 1 < ctx.sig.len() && ctx.punct_at(k + 1, '(')
                {
                    if let Some(g) = held.first() {
                        push(
                            out,
                            "C02",
                            ctx,
                            ctx.line_at(k),
                            format!(
                                "`{name}(...)` called while the `{}` guard from line {} is \
                                 held: kernels run long and a held lock turns them into a \
                                 convoy (or a deadlock through wake paths); drop or scope the \
                                 guard first",
                                g.lock, g.line
                            ),
                        );
                    }
                }
            }
        }

        // A virtual acquisition through a callee (C03).
        if check_c03 {
            if let Some(name) = ctx.ident_at(k) {
                if let Some((_, acquired)) = C03_FN_ACQUIRES.iter().find(|(f, _)| *f == name) {
                    if k + 1 < ctx.sig.len() && ctx.punct_at(k + 1, '(') {
                        check_order(ctx, out, &held, acquired, ctx.line_at(k), &order_of);
                    }
                }
            }
        }

        // A literal `.lock()` acquisition.
        if ctx.punct_at(k, '.')
            && ctx.ident_at(k + 1) == Some("lock")
            && k + 3 < ctx.sig.len()
            && ctx.punct_at(k + 2, '(')
            && ctx.punct_at(k + 3, ')')
        {
            let lock = lock_name(ctx, k).unwrap_or_else(|| "?".to_string());
            let line = ctx.line_at(k + 1);
            if check_c03 {
                if order_of(&lock).is_none() {
                    push(
                        out,
                        "C03",
                        ctx,
                        line,
                        format!(
                            "lock `{lock}` is not in the declared order manifest \
                             ({:?}); add it to C03_LOCK_ORDER at its correct rank or rename \
                             the binding to a declared alias",
                            C03_LOCK_ORDER
                        ),
                    );
                } else {
                    check_order(ctx, out, &held, &lock, line, &order_of);
                }
            }
            let (kind, stmt_start) = classify_guard(ctx, k);
            match kind {
                GuardKind::Named(var) => held.push(HeldGuard {
                    lock,
                    var,
                    floor: ctx.depth_at(stmt_start),
                    line,
                }),
                GuardKind::CondExtended => held.push(HeldGuard {
                    lock,
                    var: None,
                    floor: ctx.depth_at(stmt_start) + 1,
                    line,
                }),
                GuardKind::Transient => {
                    // C02 also flags single statements that both lock and
                    // call a kernel: evaluation order may save today's
                    // spelling, but the pattern is one edit from a convoy.
                    if check_c02 {
                        let mut j = stmt_start;
                        while j < ctx.sig.len() && !ctx.punct_at(j, ';') {
                            if let Some(name) = ctx.ident_at(j) {
                                if C02_CALLEES.contains(&name)
                                    && j + 1 < ctx.sig.len()
                                    && ctx.punct_at(j + 1, '(')
                                {
                                    push(
                                        out,
                                        "C02",
                                        ctx,
                                        ctx.line_at(j),
                                        format!(
                                            "statement both takes the `{lock}` lock and calls \
                                             `{name}(...)`: hoist the call out so the guard \
                                             provably never covers it"
                                        ),
                                    );
                                }
                            }
                            j += 1;
                        }
                    }
                }
            }
        }
        k += 1;
    }
}

/// Reports a C03 ordering violation if acquiring `lock` while any held
/// guard ranks after it in [`C03_LOCK_ORDER`].
fn check_order(
    ctx: &FileCtx,
    out: &mut Vec<Finding>,
    held: &[HeldGuard],
    lock: &str,
    line: u32,
    order_of: &dyn Fn(&str) -> Option<usize>,
) {
    let Some(rank) = order_of(lock) else { return };
    for g in held {
        if let Some(held_rank) = order_of(&g.lock) {
            if held_rank > rank {
                push(
                    out,
                    "C03",
                    ctx,
                    line,
                    format!(
                        "acquires `{lock}` while holding `{}` (from line {}): violates the \
                         declared order {:?} — inversions here are the deadlock the \
                         schedule checker hunts dynamically",
                        g.lock, g.line, C03_LOCK_ORDER
                    ),
                );
            }
        }
    }
}

/// Rust keywords (and binding modifiers) that can directly precede a `[`
/// without it being an indexing expression (`&mut [T]`, `-> [f64; 4]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "impl", "where", "as", "in", "return", "break", "continue", "else", "move",
    "ref", "box", "await", "const", "static", "crate", "pub", "let", "fn", "if", "match", "loop",
    "while", "for", "unsafe", "use", "type", "enum", "struct", "trait", "mod", "extern",
];

/// P01/P02/P03 — panic-freedom in the declared infallible hot paths.
fn rule_p(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let Some(hp) = HOT_PATHS.iter().find(|hp| hp.file == ctx.path) else {
        return;
    };
    let in_hot = |ctx: &FileCtx, k: usize| -> bool {
        if ctx.in_test_at(k) {
            return false;
        }
        if hp.fns.is_empty() {
            return true;
        }
        match ctx.fn_name_at(k) {
            Some(name) => hp.fns.contains(&name),
            None => false,
        }
    };
    for k in 0..ctx.sig.len() {
        if !in_hot(ctx, k) {
            continue;
        }
        // P01: .unwrap() / .expect() family.
        if ctx.punct_at(k, '.')
            && k + 2 < ctx.sig.len()
            && matches!(
                ctx.ident_at(k + 1),
                Some("unwrap" | "expect" | "unwrap_err" | "expect_err" | "unwrap_unchecked")
            )
            && ctx.punct_at(k + 2, '(')
        {
            let name = ctx.ident_at(k + 1).unwrap_or("unwrap");
            push(
                out,
                "P01",
                ctx,
                ctx.line_at(k + 1),
                format!(
                    "`.{name}()` in a declared infallible hot path: a panic here tears down a \
                     worker mid-graph; make the invariant a type (or suppress with the proof \
                     it cannot fire)"
                ),
            );
        }
        // P02: panicking macros (debug_assert* compiles out: allowed).
        if let Some(
            name @ ("panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne"),
        ) = ctx.ident_at(k)
        {
            if k + 1 < ctx.sig.len() && ctx.punct_at(k + 1, '!') {
                push(
                    out,
                    "P02",
                    ctx,
                    ctx.line_at(k),
                    format!(
                        "`{name}!` in a declared infallible hot path: validation belongs at \
                         the admission boundary; use debug_assert! for invariants (or \
                         suppress with the proof the branch is dead)"
                    ),
                );
            }
        }
        // P03: fallible slice indexing (constant indices into fixed-size
        // arrays are compile-time checked and allowed).
        if hp.indexing && ctx.punct_at(k, '[') && k > 0 {
            let prev_is_indexable = match &ctx.tokens[ctx.sig[k - 1]].tok {
                Tok::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                Tok::Punct(']') | Tok::Punct(')') => true,
                _ => false,
            };
            let const_index = k + 2 < ctx.sig.len()
                && matches!(ctx.tokens[ctx.sig[k + 1]].tok, Tok::Num)
                && ctx.punct_at(k + 2, ']');
            if prev_is_indexable && !const_index {
                push(
                    out,
                    "P03",
                    ctx,
                    ctx.line_at(k),
                    "slice indexing in a declared infallible hot path: an out-of-bounds panic \
                     here is a worker death; iterate/chunk/zip instead (or suppress citing the \
                     bound that was validated at admission)"
                        .to_string(),
                );
            }
        }
    }
}

/// X01 — numeric-cast hygiene in kernel crates: bare `as f32` / `as f64` /
/// `as usize` only inside the [`X01_CHOKEPOINTS`] functions.
fn rule_x01(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.class != CrateClass::Numeric || !ctx.is_kernel_crate() {
        return;
    }
    for k in 0..ctx.sig.len().saturating_sub(1) {
        if ctx.in_test_at(k) {
            continue;
        }
        if ctx.ident_at(k) != Some("as") {
            continue;
        }
        let Some(target @ ("f32" | "f64" | "usize")) = ctx.ident_at(k + 1) else {
            continue;
        };
        let in_chokepoint = X01_CHOKEPOINTS
            .iter()
            .any(|(f, func)| *f == ctx.path && ctx.fn_name_at(k) == Some(func));
        if !in_chokepoint {
            push(
                out,
                "X01",
                ctx,
                ctx.line_at(k),
                format!(
                    "bare `as {target}` outside the named cast chokepoints: route the \
                     conversion through xsc_core::cast / Scalar::to_f64/from_f64 / \
                     xsc_sparse idx::widen so every representation change stays auditable \
                     (mixed-precision prerequisite), or suppress citing the invariant"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, class: CrateClass, src: &str) -> FileCtx {
        FileCtx::new(path.to_string(), class, src)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn cfg_test_mod_is_exempt_for_d04_but_not_d01() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum() }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(v: &[f64]) -> f64 { v.iter().sum() }\n}\n";
        let c = ctx("crates/core/src/x.rs", CrateClass::Numeric, src);
        let f = check_file(&c);
        assert_eq!(rules_of(&f), vec!["D04"], "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d01_now_fires_in_test_code_too() {
        let src = "use std::collections::HashMap;\n";
        let c = ctx("tests/tests/x.rs", CrateClass::TestCode, src);
        assert_eq!(rules_of(&check_file(&c)), vec!["D01"]);
        let shim = ctx("crates/shims/rand/src/lib.rs", CrateClass::Shim, src);
        assert!(check_file(&shim).is_empty(), "shims stay exempt");
    }

    #[test]
    fn d02_fires_in_test_code_but_not_bench() {
        let src = "use std::time::Instant;\n";
        let t = ctx("crates/core/tests/perf.rs", CrateClass::TestCode, src);
        assert_eq!(rules_of(&check_file(&t)), vec!["D02"]);
        let b = ctx("crates/bench/src/lib.rs", CrateClass::Bench, src);
        assert!(check_file(&b).is_empty());
    }

    #[test]
    fn d03_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}\n";
        let c = ctx("crates/core/src/x.rs", CrateClass::Numeric, src);
        let f = check_file(&c);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D03");
    }

    #[test]
    fn safety_comment_silences_s01() {
        let ok = "// SAFETY: bounds checked above\nunsafe { go() }";
        let bad = "unsafe { go() }";
        let c_ok = ctx("crates/core/src/x.rs", CrateClass::Numeric, ok);
        let c_bad = ctx("crates/core/src/x.rs", CrateClass::Numeric, bad);
        assert!(check_file(&c_ok).is_empty());
        assert_eq!(check_file(&c_bad)[0].rule, "S01");
    }

    #[test]
    fn unsafe_fn_item_accepts_safety_doc_section() {
        let ok = "/// # Safety\n///\n/// `p` must be valid for reads.\n\
                  pub unsafe fn read(p: *const u8) -> u8 { unsafe { *p } }\n";
        let c = ctx("crates/core/src/x.rs", CrateClass::Numeric, ok);
        // The *block* inside still needs its own // SAFETY: comment.
        let f = check_file(&c);
        assert_eq!(rules_of(&f), vec!["S01"], "{f:?}");
        let ok2 = "/// # Safety\n///\n/// `p` must be valid for reads.\n\
                   pub unsafe fn read(p: *const u8) -> u8 {\n    \
                   // SAFETY: caller upholds validity per the doc contract.\n    \
                   unsafe { *p }\n}\n";
        let c2 = ctx("crates/core/src/x.rs", CrateClass::Numeric, ok2);
        assert!(check_file(&c2).is_empty(), "{:?}", check_file(&c2));
        let bad = "pub unsafe fn read(p: *const u8) -> u8 { 0 }\n";
        let c3 = ctx("crates/core/src/x.rs", CrateClass::Numeric, bad);
        assert_eq!(rules_of(&check_file(&c3)), vec!["S01"]);
    }

    #[test]
    fn c01_wait_needs_a_loop() {
        let bad = "fn f() { let mut g = m.lock(); cv.wait(&mut g); }\n";
        let c = ctx("crates/runtime/src/x.rs", CrateClass::Numeric, bad);
        assert_eq!(rules_of(&check_file(&c)), vec!["C01"]);
        let ok = "fn f() { let mut g = m.lock(); loop { if ready { break; } cv.wait(&mut g); } }\n";
        let c2 = ctx("crates/runtime/src/x.rs", CrateClass::Numeric, ok);
        assert!(check_file(&c2).is_empty(), "{:?}", check_file(&c2));
    }

    #[test]
    fn c03_flags_order_inversion_and_undeclared_locks() {
        // queues (rank 2) held, then sleep (rank 1): inversion.
        let bad = "fn f(shared: &S) {\n    let mut q = shared.queues[0].lock();\n    \
                   let s = shared.sleep.lock();\n}\n";
        let c = ctx(C03_FILE, CrateClass::Numeric, bad);
        let f = check_file(&c);
        assert!(rules_of(&f).contains(&"C03"), "{f:?}");
        // sleep then queues matches the declared order.
        let ok = "fn f(shared: &S) {\n    let s = shared.sleep.lock();\n    \
                  let mut q = shared.queues[0].lock();\n}\n";
        let c2 = ctx(C03_FILE, CrateClass::Numeric, ok);
        assert!(check_file(&c2).is_empty(), "{:?}", check_file(&c2));
        // An undeclared lock is its own finding.
        let undeclared = "fn f(s: &S) { let g = s.mystery.lock(); }\n";
        let c3 = ctx(C03_FILE, CrateClass::Numeric, undeclared);
        assert_eq!(rules_of(&check_file(&c3)), vec!["C03"]);
    }

    #[test]
    fn c03_wake_all_counts_as_taking_sleep() {
        let bad = "fn f(shared: &S) {\n    let mut q = shared.queues[0].lock();\n    \
                   shared.wake_all();\n}\n";
        let c = ctx(C03_FILE, CrateClass::Numeric, bad);
        assert!(rules_of(&check_file(&c)).contains(&"C03"));
        let ok = "fn f(shared: &S) {\n    { let mut q = shared.queues[0].lock(); }\n    \
                  shared.wake_all();\n}\n";
        let c2 = ctx(C03_FILE, CrateClass::Numeric, ok);
        assert!(check_file(&c2).is_empty(), "{:?}", check_file(&c2));
    }

    #[test]
    fn c02_guard_across_kernel_call() {
        let bad = "fn f(s: &S) { let g = s.slots.lock(); let r = execute_launch(&l); }\n";
        let c = ctx("crates/serve/src/server.rs", CrateClass::Numeric, bad);
        let f = check_file(&c);
        assert!(rules_of(&f).contains(&"C02"), "{f:?}");
        let mixed = "fn f(s: &S) { *s.slots[i].lock() = Some(execute_launch(&l)); }\n";
        let c2 = ctx("crates/serve/src/server.rs", CrateClass::Numeric, mixed);
        assert!(rules_of(&check_file(&c2)).contains(&"C02"));
        let ok = "fn f(s: &S) { let r = execute_launch(&l); *s.slots[i].lock() = Some(r); }\n";
        let c3 = ctx("crates/serve/src/server.rs", CrateClass::Numeric, ok);
        assert!(check_file(&c3).is_empty(), "{:?}", check_file(&c3));
    }

    #[test]
    fn p_rules_scope_to_declared_hot_fns() {
        let src = "fn execute_single(x: &X) { let v = x.m.get().unwrap(); }\n\
                   fn admission(x: &X) { let v = x.m.get().unwrap(); }\n";
        let c = ctx("crates/serve/src/server.rs", CrateClass::Numeric, src);
        let f = check_file(&c);
        assert_eq!(rules_of(&f), vec!["P01"], "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn p02_allows_debug_assert() {
        let src = "fn execute_single(n: usize) { debug_assert!(n > 0); assert!(n > 0); }\n";
        let c = ctx("crates/serve/src/server.rs", CrateClass::Numeric, src);
        assert_eq!(rules_of(&check_file(&c)), vec!["P02"]);
    }

    #[test]
    fn p03_allows_const_indices_and_types() {
        let src = "fn scalar_kernel(a: &[f64], c: [f64; 2]) -> f64 { c[0] + a[i] }\n";
        let c = ctx("crates/core/src/microkernel.rs", CrateClass::Numeric, src);
        let f = check_file(&c);
        assert_eq!(rules_of(&f), vec!["P03"], "{f:?}");
    }

    #[test]
    fn x01_casts_only_in_chokepoints() {
        let bad = "pub fn gflops(flops: u64) -> f64 { flops as f64 }\n";
        let c = ctx("crates/core/src/flops.rs", CrateClass::Numeric, bad);
        assert_eq!(rules_of(&check_file(&c)), vec!["X01"]);
        let ok = "pub fn count_f64(n: u64) -> f64 { n as f64 }\n";
        let c2 = ctx("crates/core/src/cast.rs", CrateClass::Numeric, ok);
        assert!(check_file(&c2).is_empty(), "{:?}", check_file(&c2));
        // Non-kernel crates are out of scope.
        let c3 = ctx("crates/runtime/src/x.rs", CrateClass::Numeric, bad);
        assert!(check_file(&c3).is_empty());
        // Tests are out of scope.
        let t = "#[cfg(test)]\nmod tests { fn f(n: u64) -> f64 { n as f64 } }\n";
        let c4 = ctx("crates/core/src/flops.rs", CrateClass::Numeric, t);
        assert!(check_file(&c4).is_empty());
    }
}
