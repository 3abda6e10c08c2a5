//! A minimal JSON value with byte-stable serialization.
//!
//! The orchestrator's cache files and merged results must be *byte*-stable:
//! a warm re-run re-serializes parsed cache entries and has to reproduce
//! the cold run's output exactly, regardless of thread count. Two choices
//! make `serialize ∘ parse ∘ serialize` the identity on everything this
//! crate writes:
//!
//! * integers and floats are distinct variants, and [`Json::num`]
//!   normalizes every measured number the same way (whole finite values
//!   become [`Json::Int`], non-finite values become [`Json::Null`]), on
//!   construction *and* on parse;
//! * objects keep insertion order — no hash-map reordering.
//!
//! Floats print via Rust's `Display`, which emits the shortest decimal
//! string that round-trips, so re-parsing loses nothing.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite measurements).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (whole finite numbers normalize here).
    Int(i64),
    /// A non-whole finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and serialized as-is.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Normalizes a measured `f64`: NaN/∞ → `Null`, whole values in the
    /// exactly-representable range → `Int`, anything else → `Float`.
    pub fn num(v: f64) -> Json {
        if !v.is_finite() {
            Json::Null
        } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
            Json::Int(v as i64)
        } else {
            Json::Float(v)
        }
    }

    /// An object from key/value pairs (order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of normalized numbers.
    pub fn nums(vs: &[f64]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::num(v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact, deterministic serialization.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                let _ = write!(out, "{f}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this crate writes, which is all
    /// of JSON minus exponent-notation floats in odd cases).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        let rest = &bytes[*pos..];
        let Some(&b) = rest.first() else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let esc = rest.get(1).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(rest.get(2..6).ok_or("short \\u escape")?)
                            .map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("unknown escape at byte {pos}")),
                }
                *pos += 2;
            }
            _ => {
                // Consume one UTF-8 character.
                let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                let c = s.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    // Route through `num` so the parsed form re-serializes identically.
    text.parse::<f64>()
        .map(Json::num)
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_normalizes() {
        assert_eq!(Json::num(2.0), Json::Int(2));
        assert_eq!(Json::num(-3.0), Json::Int(-3));
        assert_eq!(Json::num(2.5), Json::Float(2.5));
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
    }

    #[test]
    fn roundtrip_is_identity() {
        let v = Json::obj(vec![
            ("name", Json::Str("fig1 \"quoted\"\n".into())),
            ("utilization", Json::num(0.95)),
            ("count", Json::Int(42)),
            ("loss", Json::Null),
            ("ok", Json::Bool(true)),
            ("ratios", Json::nums(&[2.0, 1.97, 2.03])),
            ("nested", Json::obj(vec![("empty", Json::Arr(vec![]))])),
        ]);
        let s1 = v.serialize();
        let parsed = Json::parse(&s1).expect("parses");
        assert_eq!(parsed, v);
        assert_eq!(parsed.serialize(), s1);
    }

    #[test]
    fn whole_floats_parse_to_ints() {
        // "2.0" never appears in our own output, but a hand-edited cache
        // file must still normalize to the canonical form.
        let v = Json::parse("[2.0, 2.5, -7]").expect("parses");
        assert_eq!(
            v,
            Json::Arr(vec![Json::Int(2), Json::Float(2.5), Json::Int(-7)])
        );
        assert_eq!(v.serialize(), "[2,2.5,-7]");
    }

    #[test]
    fn accessors_work() {
        let v = Json::obj(vec![("a", Json::Int(1)), ("b", Json::Float(1.5))]);
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
