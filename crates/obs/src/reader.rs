//! Reader for the JSONL traces the [`crate::trace::Tracer`] emits.
//!
//! Each line is one flat JSON object with no whitespace: string keys and
//! scalar values. The vendored `serde_json` parses it; this module holds
//! the line to that shape and splits off the envelope into a
//! [`TraceEvent`]. It also reconstructs causal structure from
//! `span_begin` / `span_end` events: [`span_path_at`] names the
//! open-span stack enclosing any sequence number, which is what the
//! `automon trace diff` determinism debugger reports at the first
//! divergence.

use std::fmt;

use serde::Value;

/// One parsed trace line: the envelope stamps plus the remaining fields
/// in emission order, with the raw line kept for faithful reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub seq: u64,
    pub round: u64,
    pub ops: u64,
    pub kind: String,
    pub fields: Vec<(String, Value)>,
    pub raw: String,
}

impl TraceEvent {
    /// Look up a non-envelope field by name.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as u64 (`None` when absent or non-integer).
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(as_u64)
    }

    /// Field as string slice.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Value::as_str)
    }
}

/// A non-negative integer's value; the parser reads every other number
/// as `Int` or `F64`.
fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        _ => None,
    }
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// Parse a whole JSONL trace. Empty lines are rejected — the tracer
/// never emits them, so one signals a corrupt file.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            parse_line(line).map_err(|reason| TraceParseError {
                line: i + 1,
                reason,
            })
        })
        .collect()
}

/// Parse one event line.
pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let value = serde_json::from_str::<Value>(line).map_err(|e| e.to_string())?;
    let Value::Map(entries) = value else {
        return Err(format!("expected an object, got {}", value.kind()));
    };
    // `serde_json` skips whitespace around the value; the tracer writes
    // none, so a padded line is not one of its lines.
    if line.trim().len() != line.len() {
        return Err("whitespace around the object".into());
    }
    let mut seq = None;
    let mut round = None;
    let mut ops = None;
    let mut kind = None;
    let mut fields = Vec::new();
    for (key, val) in entries {
        if matches!(val, Value::Seq(_) | Value::Map(_)) {
            return Err(format!("nested value at `{key}`"));
        }
        match key.as_str() {
            "seq" => seq = as_u64(&val),
            "round" => round = as_u64(&val),
            "ops" => ops = as_u64(&val),
            "kind" => kind = val.as_str().map(str::to_string),
            _ => fields.push((key, val)),
        }
    }
    Ok(TraceEvent {
        seq: seq.ok_or("missing seq")?,
        round: round.ok_or("missing round")?,
        ops: ops.ok_or("missing ops")?,
        kind: kind.ok_or("missing kind")?,
        fields,
        raw: line.to_string(),
    })
}

/// Names of the spans open at (i.e. enclosing) event `seq`, outermost
/// first — the "span path" `automon trace diff` prints. Rebuilt by
/// replaying `span_begin`/`span_end` up to but not including `seq`; an
/// event past the end of the trace sees whatever is still open.
pub fn span_path_at(events: &[TraceEvent], seq: u64) -> Vec<String> {
    let mut stack: Vec<(u64, String)> = Vec::new();
    for ev in events {
        if ev.seq >= seq {
            break;
        }
        match ev.kind.as_str() {
            "span_begin" => {
                let id = ev.u64("span").unwrap_or(0);
                let name = ev.str("name").unwrap_or("?").to_string();
                stack.push((id, name));
            }
            "span_end" => {
                if let Some(id) = ev.u64("span") {
                    if let Some(pos) = stack.iter().rposition(|(open, _)| *open == id) {
                        stack.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }
    stack.into_iter().map(|(_, name)| name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LogicalClock, SpanId, Tracer};

    #[test]
    fn round_trips_tracer_output() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        clock.set_round(4);
        clock.add_ops(9);
        t.record(
            &clock,
            "full_sync",
            &[
                ("epoch", 3u64.into()),
                ("value", 0.25f64.into()),
                ("msg", "a\"b\nc".into()),
                ("ok", true.into()),
                ("none", f64::NAN.into()),
            ],
        );
        let events = parse_trace(&t.to_jsonl()).unwrap();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!((ev.seq, ev.round, ev.ops), (0, 4, 9));
        assert_eq!(ev.kind, "full_sync");
        assert_eq!(ev.u64("epoch"), Some(3));
        assert_eq!(ev.field("value"), Some(&Value::F64(0.25)));
        assert_eq!(ev.str("msg"), Some("a\"b\nc"));
        assert_eq!(ev.field("ok"), Some(&Value::Bool(true)));
        assert_eq!(ev.field("none"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        let ok = "{\"seq\":1,\"round\":0,\"ops\":0,\"kind\":\"x\"}";
        assert!(parse_line(ok).is_ok());
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("[1]").is_err(), "not an object");
        assert!(parse_line("7").is_err(), "not an object");
        assert!(parse_line("{\"seq\":1}").is_err(), "missing envelope keys");
        for key in ["seq", "round", "ops", "kind"] {
            let without = ok.replace(&format!("\"{key}\""), "\"other\"");
            assert!(parse_line(&without).is_err(), "missing {key}");
        }
        assert!(parse_line(&format!("{ok} ")).is_err(), "trailing whitespace");
        assert!(parse_line(&format!(" {ok}")).is_err(), "leading whitespace");
        let nested = "{\"seq\":1,\"round\":0,\"ops\":0,\"kind\":\"x\",\"v\":[1]}";
        assert!(parse_line(nested).is_err(), "nested array");
        assert!(parse_line(&nested.replace("[1]", "{}")).is_err(), "nested object");
        assert!(parse_trace("{\"seq\":0,\"round\":0,\"ops\":0,\"kind\":\"x\"}\n\nbad")
            .is_err());
    }

    #[test]
    fn span_paths_follow_open_spans() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        let outer = t.span_begin(&clock, "violation", SpanId::NONE, &[]);
        let inner = t.span_begin(&clock, "handle", outer, &[]);
        t.record(&clock, "full_sync", &[]);
        t.span_end(&clock, inner, &[]);
        t.record(&clock, "round", &[]);
        t.span_end(&clock, outer, &[]);
        let events = parse_trace(&t.to_jsonl()).unwrap();
        assert_eq!(span_path_at(&events, 0), Vec::<String>::new());
        assert_eq!(span_path_at(&events, 2), vec!["violation", "handle"]);
        assert_eq!(span_path_at(&events, 4), vec!["violation"]);
        assert_eq!(span_path_at(&events, 99), Vec::<String>::new());
    }
}
