//! Hand-rolled JSON rendering of a lint [`Report`] (the workspace builds
//! offline, so no serde) — RFC 8259 string escaping, stable key order,
//! deterministic output byte-for-byte across runs.

use crate::driver::Report;
use crate::rules::RULES;

/// Escapes a string for inclusion in a JSON document per RFC 8259.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    xsc_metrics::escape_json_into(s, &mut out);
    out
}

/// Renders the report as a self-describing JSON document (schema
/// `xsc-lint-v1`), the artifact CI uploads next to the `BENCH_*.json`
/// reports.
pub fn to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"xsc-lint-v1\",\n");
    s.push_str(&format!("  \"clean\": {},\n", report.clean()));
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.message),
            if i + 1 < report.findings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"suppressions_used\": [\n");
    for (i, u) in report.suppressions_used.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{}\n",
            esc(&u.rule),
            esc(&u.file),
            u.line,
            esc(&u.reason),
            if i + 1 < report.suppressions_used.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"summary\": \"{}\"}}{}\n",
            esc(r.id),
            esc(r.summary),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn json_is_escaped_and_stable() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        r.findings.push(Finding {
            rule: "D01",
            file: "crates/x/src/a.rs".into(),
            line: 3,
            message: "quote \" backslash \\ newline \n done".into(),
        });
        let a = to_json(&r);
        let b = to_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("\\\" backslash \\\\ newline \\n done"));
        assert!(a.contains("\"clean\": false"));
    }
}
