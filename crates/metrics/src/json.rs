//! JSON string escaping shared by every hand-rolled JSON emitter in the
//! workspace (bench reports, lint reports, Chrome traces). The workspace
//! builds offline, so there is no serde; this is the one escaper.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping per RFC 8259: quote,
/// backslash and every control character below U+0020.
pub fn escape_json_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}
