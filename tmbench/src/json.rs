//! The output half of the benchmark's JSON.
//!
//! The workspace serializer (`tm_telemetry::Json`) prints floats with
//! three decimals, which would quantize sub-millisecond timings; results
//! here carry every digit a measurement has, so they are written by this
//! small serializer instead. Reading results back (`tmbench compare`)
//! uses the workspace parser.

use std::fmt;

/// A JSON value whose floats print with full precision.
#[derive(Debug, Clone)]
pub enum Out {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Out>),
    Obj(Vec<(String, Out)>),
}

impl Out {
    /// An object from borrowed keys.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Out)>) -> Out {
        Out::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Out {
        Out::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Out {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Out::Bool(b) => write!(f, "{b}"),
            Out::Int(i) => write!(f, "{i}"),
            // `{}` on f64 is the shortest representation that reads back
            // to the same value, never an exponent: valid JSON, all digits.
            Out::Num(x) if x.is_finite() => write!(f, "{x}"),
            Out::Num(_) => f.write_str("null"),
            Out::Str(s) => write_str(f, s),
            Out::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Out::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_telemetry::Json;

    #[test]
    fn floats_keep_every_digit_and_parse_back() {
        let x = 0.000_123_456_789_012_f64;
        let text = Out::obj([("v", Out::Num(x)), ("s", Out::str("a\"b"))]).to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        match parsed.get("v") {
            Some(Json::Num(y)) => assert_eq!(*y, x),
            other => panic!("expected a number, got {other:?}"),
        }
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some("a\"b"));
    }
}
