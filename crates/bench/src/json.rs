//! Minimal JSON emission for machine-readable benchmark reports.
//!
//! The experiment binaries accept `--json` and write `BENCH_<id>.json`
//! files (Gflop/s, % of peak) so CI can track kernel performance without
//! scraping the human-oriented tables. Hand-rolled because the workspace is
//! offline; escaping follows RFC 8259.

use std::fmt::Write as _;
use std::path::Path;
use xsc_metrics::escape_json_into;

/// A JSON value, built by the experiments and rendered with [`Json::render`].
#[derive(Debug, Clone)]
pub enum Json {
    /// `null` (also used for non-finite numbers, which JSON cannot carry).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from `Num` so counts render without `.0`).
    Int(i64),
    /// A finite double.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn s(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                escape_json_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `value` to `path` (with a trailing newline) and prints where the
/// report went.
pub fn write_report(path: impl AsRef<Path>, value: &Json) {
    let path = path.as_ref();
    let text = value.render() + "\n";
    match std::fs::write(path, text) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  FAILED to write {}: {e}", path.display()),
    }
}

/// Returns true when the process arguments request JSON emission
/// (`--json` anywhere on the command line).
pub fn json_flag() -> bool {
    std::env::args().skip(1).any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_compactly() {
        let v = Json::obj(vec![
            ("name", Json::s("e01")),
            ("passed", Json::Bool(true)),
            ("threads", Json::Int(4)),
            ("gflops", Json::Num(12.5)),
            ("rows", Json::Arr(vec![Json::Null, Json::Int(-3)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"e01","passed":true,"threads":4,"gflops":12.5,"rows":[null,-3]}"#
        );
    }

    #[test]
    fn escapes_hostile_strings() {
        let v = Json::s("a\"b\\c\nd\te\u{1}f");
        assert_eq!(v.render(), r#""a\"b\\c\nd\te\u0001f""#);
        assert!(!v.render().chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(0.0).render(), "0");
    }
}
