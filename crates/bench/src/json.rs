//! Minimal JSON emitter for machine-readable benchmark reports.
//!
//! The experiment binaries write `BENCH_*.json` files so CI and plotting
//! scripts can consume sweeps without scraping stdout tables. Hand-rolled
//! because the workspace is dependency-frozen — no serde.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer value (exact for |v| < 2⁵³).
    pub fn int(v: impl TryInto<i64>) -> Json {
        Json::Num(v.try_into().map(|i: i64| i as f64).unwrap_or(f64::NAN))
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if *v == v.trunc() && v.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
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
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Serializes to a compact JSON string (via `to_string()`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Writes `value` to `path` with a trailing newline, reporting but not
/// failing on I/O errors (benchmarks should still print their tables).
pub fn write_report(path: impl AsRef<Path>, value: &Json) {
    let path = path.as_ref();
    let mut body = value.to_string();
    body.push('\n');
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::str("drop 5%")),
            ("seed", Json::int(0x51_EE_D5u64 as i64)),
            ("error", Json::Num(1.5e-3)),
            ("exact", Json::Num(4.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("quote", Json::str("a\"b\\c\n")),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"drop 5%","seed":5369557,"error":0.0015,"exact":4,"flags":[true,null],"quote":"a\"b\\c\n"}"#
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
