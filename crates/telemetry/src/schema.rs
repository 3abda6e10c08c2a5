//! Dependency-free schema validation for the JSONL trace export.
//!
//! `propdiff-trace --validate` and the CI telemetry job run every emitted
//! line through [`validate_line`], so a malformed exporter fails loudly
//! instead of producing a trace no tool can read. The checker is
//! [`Json::parse`] (syntax) plus a walk over the tree against per-event
//! required-key tables (vocabulary) — exactly the contract documented on
//! [`crate::JsonlSink`].

use crate::json::Json;

/// The JSON value kinds the schema distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A number literal.
    Number,
    /// A string literal.
    String,
    /// `true` or `false`.
    Bool,
    /// An array.
    Array,
    /// A nested object.
    Object,
}

/// A schema violation, with enough context to find the bad line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number (0 when validating a single line).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The kind of `v`, after refusing what [`Json::parse`] accepts and the
/// trace schema does not, at any depth: `null` and a repeated object key.
fn kind_of(v: &Json) -> Result<Kind, String> {
    match v {
        // A number too large for a double also parses to `Null`.
        Json::Null => Err("null (or a non-finite number) is not part of the trace schema".into()),
        Json::Bool(_) => Ok(Kind::Bool),
        Json::Int(_) | Json::UInt(_) | Json::Float(_) => Ok(Kind::Number),
        Json::Str(_) => Ok(Kind::String),
        Json::Arr(items) => {
            items.iter().try_for_each(|item| kind_of(item).map(drop))?;
            Ok(Kind::Array)
        }
        Json::Obj(pairs) => {
            for (i, (key, value)) in pairs.iter().enumerate() {
                if pairs[..i].iter().any(|(earlier, _)| earlier == key) {
                    return Err(format!("duplicate key \"{key}\""));
                }
                kind_of(value)?;
            }
            Ok(Kind::Object)
        }
    }
}

/// Required `key → kind` table for each event type.
fn required(ev: &str) -> Option<&'static [(&'static str, Kind)]> {
    const PACKET: &[(&str, Kind)] = &[
        ("t", Kind::Number),
        ("span", Kind::Number),
        ("seq", Kind::Number),
        ("class", Kind::Number),
        ("size", Kind::Number),
        ("hop", Kind::Number),
    ];
    const DECISION: &[(&str, Kind)] = &[
        ("t", Kind::Number),
        ("hop", Kind::Number),
        ("sched", Kind::String),
        ("winner", Kind::Number),
        ("span", Kind::Number),
        ("values", Kind::Array),
    ];
    const DEPART: &[(&str, Kind)] = &[
        ("t", Kind::Number),
        ("span", Kind::Number),
        ("seq", Kind::Number),
        ("class", Kind::Number),
        ("size", Kind::Number),
        ("hop", Kind::Number),
        ("arrival", Kind::Number),
        ("start", Kind::Number),
        ("finish", Kind::Number),
        ("eol", Kind::Bool),
    ];
    const DROP: &[(&str, Kind)] = &[
        ("t", Kind::Number),
        ("span", Kind::Number),
        ("seq", Kind::Number),
        ("class", Kind::Number),
        ("size", Kind::Number),
        ("hop", Kind::Number),
        ("backlog", Kind::Number),
        ("buffer", Kind::Number),
    ];
    const HEARTBEAT: &[(&str, Kind)] = &[
        ("t", Kind::Number),
        ("events", Kind::Number),
        ("heap", Kind::Number),
    ];
    const SCENARIO: &[(&str, Kind)] = &[
        ("t", Kind::Number),
        ("link", Kind::Number),
        ("kind", Kind::String),
        ("value", Kind::Number),
    ];
    match ev {
        "arrival" | "enqueue" => Some(PACKET),
        "decision" => Some(DECISION),
        "depart" => Some(DEPART),
        "drop" => Some(DROP),
        "heartbeat" => Some(HEARTBEAT),
        "scenario" => Some(SCENARIO),
        _ => None,
    }
}

/// Validates one JSONL trace line: well-formed JSON object, a known `ev`
/// type, and every required field present with the right kind.
pub fn validate_line(line: &str) -> Result<(), SchemaError> {
    let fail = |message: String| SchemaError { line: 0, message };
    let doc = Json::parse(line).map_err(fail)?;
    if kind_of(&doc).map_err(fail)? != Kind::Object {
        return Err(fail("a trace line must be a JSON object".into()));
    }
    let ev = match doc.get("ev") {
        Some(Json::Str(ev)) => ev,
        Some(_) => return Err(fail("\"ev\" must be a string".into())),
        None => return Err(fail("missing \"ev\" field".into())),
    };
    let table = required(ev).ok_or_else(|| fail(format!("unknown event type \"{ev}\"")))?;
    for (key, kind) in table {
        let value = doc
            .get(key)
            .ok_or_else(|| fail(format!("\"{ev}\" event missing field \"{key}\"")))?;
        let found = kind_of(value).map_err(fail)?;
        if found != *kind {
            return Err(fail(format!(
                "\"{ev}\" field \"{key}\" has kind {found:?}, expected {kind:?}"
            )));
        }
    }
    Ok(())
}

/// Validates a whole JSONL document (one event per line; blank lines are
/// rejected). Returns the number of validated lines.
pub fn validate_jsonl(text: &str) -> Result<usize, SchemaError> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        validate_line(line).map_err(|mut e| {
            e.line = i + 1;
            e
        })?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_ARRIVAL: &str =
        "{\"ev\":\"arrival\",\"t\":0,\"span\":0,\"seq\":0,\"class\":1,\"size\":100,\"hop\":0}";
    const GOOD_DECISION: &str = "{\"ev\":\"decision\",\"t\":3,\"hop\":0,\"sched\":\"WTP\",\"winner\":1,\"span\":0,\"values\":[[0,1.5],[1,6]]}";

    #[test]
    fn accepts_documented_lines() {
        validate_line(GOOD_ARRIVAL).unwrap();
        validate_line(GOOD_DECISION).unwrap();
        validate_line("{\"ev\":\"heartbeat\",\"t\":9,\"events\":100,\"heap\":4}").unwrap();
        validate_line(
            "{\"ev\":\"depart\",\"t\":103,\"span\":0,\"seq\":0,\"class\":1,\"size\":100,\"hop\":0,\
             \"arrival\":0,\"start\":3,\"finish\":103,\"eol\":true}",
        )
        .unwrap();
        validate_line(
            "{\"ev\":\"drop\",\"t\":10,\"span\":1,\"seq\":1,\"class\":0,\"size\":40,\"hop\":0,\
             \"backlog\":200,\"buffer\":256}",
        )
        .unwrap();
        validate_line(
            "{\"ev\":\"scenario\",\"t\":500,\"link\":2,\"kind\":\"set_link_rate\",\"value\":3.125}",
        )
        .unwrap();
    }

    #[test]
    fn scenario_event_requires_its_fields() {
        let e =
            validate_line("{\"ev\":\"scenario\",\"t\":500,\"link\":2,\"value\":1}").unwrap_err();
        assert!(e.message.contains("missing field \"kind\""), "{e}");
        let e = validate_line(
            "{\"ev\":\"scenario\",\"t\":500,\"link\":2,\"kind\":\"link_up\",\"value\":\"x\"}",
        )
        .unwrap_err();
        assert!(e.message.contains("expected Number"), "{e}");
    }

    #[test]
    fn rejects_missing_field() {
        let e = validate_line("{\"ev\":\"heartbeat\",\"t\":9,\"events\":100}").unwrap_err();
        assert!(e.message.contains("missing field \"heap\""), "{e}");
    }

    #[test]
    fn rejects_wrong_kind() {
        let e = validate_line("{\"ev\":\"heartbeat\",\"t\":\"nine\",\"events\":1,\"heap\":0}")
            .unwrap_err();
        assert!(e.message.contains("expected Number"), "{e}");
    }

    #[test]
    fn rejects_unknown_event_and_bad_json() {
        assert!(validate_line("{\"ev\":\"teleport\",\"t\":0}").is_err());
        assert!(validate_line("{\"ev\":\"arrival\"").is_err());
        assert!(validate_line("not json at all").is_err());
        assert!(validate_line("{\"t\":0}").is_err());
        assert!(validate_line("{\"ev\":\"arrival\",\"t\":0} trailing").is_err());
        assert!(validate_line("{\"ev\":\"arrival\",\"ev\":\"arrival\"}").is_err());
    }

    #[test]
    fn validate_jsonl_reports_line_numbers() {
        let doc = format!("{GOOD_ARRIVAL}\n{GOOD_DECISION}\nbroken\n");
        let e = validate_jsonl(&doc).unwrap_err();
        assert_eq!(e.line, 3);
        let ok = format!("{GOOD_ARRIVAL}\n{GOOD_DECISION}\n");
        assert_eq!(validate_jsonl(&ok).unwrap(), 2);
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        validate_line(
            "{\"ev\":\"decision\",\"t\":1,\"hop\":0,\"sched\":\"A\\\"B\",\"winner\":0,\"span\":0,\
             \"values\":[[0,-1.5e3]]}",
        )
        .unwrap();
    }

    #[test]
    fn ev_is_read_from_the_tree_not_found_by_substring() {
        // Legal whitespace after the key: "cannot extract" before the walk.
        validate_line("{\"ev\" : \"heartbeat\",\"t\":9,\"events\":100,\"heap\":4}").unwrap();
        // A nested "ev" is somebody's argument, not the event type: the
        // substring search judged this line by "nonsense".
        validate_line(
            "{\"args\":{\"ev\":\"nonsense\"},\"ev\":\"heartbeat\",\"t\":9,\"events\":1,\"heap\":4}",
        )
        .unwrap();
    }

    #[test]
    fn rejects_what_the_codec_accepts_and_the_schema_does_not() {
        let e =
            validate_line("{\"ev\":\"heartbeat\",\"t\":null,\"events\":1,\"heap\":0}").unwrap_err();
        assert!(e.message.contains("null"), "{e}");
        let e = validate_line(
            "{\"ev\":\"heartbeat\",\"t\":1,\"events\":1,\"heap\":0,\"args\":[{\"x\":null}]}",
        )
        .unwrap_err();
        assert!(e.message.contains("null"), "{e}");
        let e = validate_line(
            "{\"ev\":\"heartbeat\",\"t\":1,\"events\":1,\"heap\":0,\"args\":{\"x\":1,\"x\":2}}",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate key \"x\""), "{e}");
        let e = validate_line("[{\"ev\":\"heartbeat\"}]").unwrap_err();
        assert!(e.message.contains("must be a JSON object"), "{e}");
    }
}
