//! The workspace's one JSON codec: a value with byte-stable
//! serialization, a linear-time parser with a nesting cap, and the string
//! escaper the trace sinks share.
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
//! string that round-trips, so re-parsing loses nothing. Counters are
//! `u64`s and keep every digit: what does not fit [`Json::Int`] is a
//! [`Json::UInt`], never a float and never wrapped.
//!
//! Cache files and worker replies are outside input: [`Json::parse`]
//! returns `Err` on anything malformed, including nesting deeper than
//! [`MAX_DEPTH`] (the parser recurses, and an unbounded `[[[[…` tower would
//! otherwise overflow the stack).

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The documents
/// this workspace writes nest less than ten deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite measurements).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (whole finite numbers normalize here).
    Int(i64),
    /// An integer above `i64::MAX`. Build it with [`Json::uint`], which —
    /// like the parser — picks [`Json::Int`] whenever the value fits, so
    /// equal numbers stay equal values.
    UInt(u64),
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

    /// [`Json::num`] of `v` at the precision `{v:.decimals$}` prints, for
    /// exports that publish a rounded reading.
    pub fn rounded(v: f64, decimals: usize) -> Json {
        Json::num(format!("{v:.decimals$}").parse().unwrap_or(f64::NAN))
    }

    /// An unsigned counter with every digit kept.
    pub fn uint(v: u64) -> Json {
        i64::try_from(v).map_or(Json::UInt(v), Json::Int)
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
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integer value, if this is an integer that fits `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::UInt(u) => Some(*u),
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
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                let _ = write!(out, "{f}");
            }
            Json::Str(s) => write_string(out, s),
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
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this crate writes, which is all
    /// of JSON minus exponent-notation floats in odd cases), in time
    /// linear in `text.len()`.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }
}

/// Escapes `s` for the inside of a JSON string literal (the caller writes
/// the surrounding quotes): `"`, `\` and the control bytes, nothing else.
/// Borrows when there is nothing to escape.
pub fn escape(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 16);
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
    Cow::Owned(out)
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
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

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
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
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
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

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece: the
        // input is a `&str` and both stops are ASCII, so the run is whole
        // characters. (Validating the rest of the input per character made
        // this quadratic.)
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        match bytes.get(*pos + 1).ok_or("unterminated escape")? {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = text.get(*pos + 2..*pos + 6).ok_or("short \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                *pos += 4;
            }
            _ => return Err(format!("unknown escape at byte {pos}")),
        }
        *pos += 2;
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
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
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

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape("\u{1}é\u{1f}"), "\\u0001é\\u001f");
        assert!(matches!(escape("WTP → class 2"), Cow::Borrowed(_)));
    }

    #[test]
    fn counters_keep_every_digit() {
        assert_eq!(Json::uint(7), Json::Int(7));
        let big = Json::uint(u64::MAX - 1);
        assert_eq!(big, Json::UInt(u64::MAX - 1));
        assert_eq!(big.serialize(), "18446744073709551614");
        assert_eq!(Json::parse("18446744073709551614").unwrap(), big);
        assert_eq!(big.as_u64(), Some(u64::MAX - 1));
        assert_eq!(big.as_i64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        // One past `u64::MAX` is a measurement, not a counter.
        let past = Json::parse("18446744073709551616").unwrap();
        assert_eq!(past, Json::Float(18446744073709551616.0));
    }

    #[test]
    fn rounded_reads_what_the_format_spec_prints() {
        assert_eq!(Json::rounded(1.4671459, 6).serialize(), "1.467146");
        assert_eq!(Json::rounded(2.0, 6), Json::Int(2));
        assert_eq!(
            Json::rounded(1234.5, 0).serialize(),
            format!("{:.0}", 1234.5)
        );
        assert_eq!(Json::rounded(f64::INFINITY, 6), Json::Null);
        assert_eq!(Json::rounded(f64::NAN, 3), Json::Null);
    }

    #[test]
    fn whole_floats_past_2_pow_53_keep_their_bytes_not_their_variant() {
        // `Display` pads the shortest digits with zeros, so the text of a
        // huge whole float is an integer literal: the bytes are stable
        // across a round trip, the variant is not.
        let text = Json::num(1.0e19).serialize();
        assert_eq!(text, "10000000000000000000");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, Json::UInt(10_000_000_000_000_000_000));
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        // Both towers aborted the process before the cap.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = Json::parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // 4 MiB in one string value, the shape of a worker reply carrying a
        // snapshot. The per-character revalidation this guards against
        // needed minutes here; the bound is ~100x what a debug build takes.
        let piece = "snapshot \\\"bytes\\\" é→ ";
        let reps = 4 * 1024 * 1024 / piece.len();
        let body = piece.repeat(reps);
        let text = format!("{{\"ok\":true,\"metrics\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let doc = Json::parse(&text).expect("parses");
        let took = started.elapsed();
        let value = doc.get("metrics").and_then(Json::as_str).expect("string");
        assert_eq!(value.len(), body.len() - 2 * reps);
        assert!(took.as_secs() < 10, "4 MiB string took {took:?}");
    }

    mod round_trip {
        use super::*;
        use proptest::prelude::*;

        /// Every class of character the escaper and the parser treat
        /// differently: the two escaped punctuation marks, all 32 control
        /// bytes, the solidus, DEL, and 2-, 3- and 4-byte UTF-8.
        fn text(genes: &mut impl Iterator<Item = u64>) -> String {
            let len = genes.next().unwrap_or(0) % 12;
            genes
                .take(len as usize)
                .map(|g| match g % 8 {
                    0 => '"',
                    1 => '\\',
                    2 | 3 => char::from((g >> 8) as u8 % 0x20),
                    4 => ['/', '\u{7f}', 'é', '→', '😀', 'u'][(g >> 8) as usize % 6],
                    _ => char::from(b'a' + (g >> 8) as u8 % 26),
                })
                .collect()
        }

        /// An arbitrary tree in canonical form, spent from a gene stream so
        /// the shim's vector shrinking shrinks the tree.
        fn tree(genes: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
            let Some(g) = genes.next() else {
                return Json::Null;
            };
            let scalars = if depth >= 5 { 7 } else { 9 };
            match g % scalars {
                0 => Json::Null,
                1 => Json::Bool(g & 16 != 0),
                2 => Json::Int((g >> 3) as i64 - (1 << 59)),
                3 => Json::Int(genes.next().unwrap_or(0) as i64),
                4 => Json::uint(genes.next().unwrap_or(0)),
                5 => {
                    // Whole floats past 2^53 are outside the tree property
                    // (pinned above); fold them back under it.
                    let x = f64::from_bits(genes.next().unwrap_or(0));
                    Json::num(if x.abs() >= 9.0e15 { 1.0 / x } else { x })
                }
                6 => Json::Str(text(genes)),
                7 => {
                    let n = (g >> 8) % 5;
                    Json::Arr((0..n).map(|_| tree(genes, depth + 1)).collect())
                }
                _ => {
                    let n = (g >> 8) % 5;
                    let pairs = (0..n).map(|_| (text(genes), tree(genes, depth + 1)));
                    Json::Obj(pairs.collect())
                }
            }
        }

        proptest! {
            /// `parse ∘ serialize` is the identity on trees and
            /// `serialize ∘ parse` the identity on what `serialize` writes.
            #[test]
            fn parse_inverts_serialize(
                genes in prop::collection::vec(0u64..u64::MAX, 1..120),
            ) {
                let v = tree(&mut genes.into_iter(), 0);
                let bytes = v.serialize();
                let back = Json::parse(&bytes).expect("own output parses");
                prop_assert_eq!(&back, &v);
                prop_assert_eq!(back.serialize(), bytes);
            }

            /// A string spelled with any mix of raw characters, short
            /// escapes and `\uXXXX` escapes reads back as the same string.
            #[test]
            fn every_spelling_of_a_string_parses_to_it(
                genes in prop::collection::vec(0u64..u64::MAX, 1..40),
                spelling in prop::collection::vec(0u8..3, 40..41),
            ) {
                let want = text(&mut genes.into_iter());
                let mut literal = String::from("\"");
                for (c, how) in want.chars().zip(spelling) {
                    match (how, c as u32) {
                        (0, code @ 0..=0xffff) => literal.push_str(&format!("\\u{code:04X}")),
                        (1, 0x2f) => literal.push_str("\\/"),
                        (1, 0x08) => literal.push_str("\\b"),
                        (1, 0x0c) => literal.push_str("\\f"),
                        _ => literal.push_str(&escape(c.encode_utf8(&mut [0; 4]))),
                    }
                }
                literal.push('"');
                prop_assert_eq!(Json::parse(&literal), Ok(Json::Str(want)));
            }
        }
    }
}
