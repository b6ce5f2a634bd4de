//! Span-based structured tracing on a logical clock.
//!
//! Wall-clock time is banned from the trace: events are stamped with the
//! protocol round and a deterministic operation counter, both advanced
//! only by instrumented code. Same seed ⇒ same control flow ⇒ the same
//! stamps in the same order ⇒ a byte-identical JSONL file.
//!
//! The determinism contract has one rule for writers: **trace events may
//! only be emitted from sequential control flow** (the coordinator's
//! handler path, full-sync/ADCD, the chaos fabric, the sim round loop).
//! Parallel contexts — node batch handlers, net reader threads — must
//! stick to commutative counters. The sequence number below is an atomic
//! only so the `Tracer` is `Sync`; correctness of the byte-identical
//! guarantee rests on that single-writer discipline.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock;

/// Envelope keys every event line starts with; user fields must not
/// reuse them or the line would carry duplicate JSON keys and readers
/// would silently drop one of the two values.
pub const RESERVED_KEYS: [&str; 4] = ["seq", "round", "ops", "kind"];

/// Identifier of one causal span. Allocated deterministically by
/// [`Tracer::span_begin`] in emission order, so the same seed assigns
/// the same ids. `SpanId::NONE` (0) means "no enclosing span" — it is
/// what rides in a frame header when telemetry is disabled, and what a
/// root span records as its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots; disabled-telemetry context).
    pub const NONE: SpanId = SpanId(0);

    /// True when this is a real span, not [`SpanId::NONE`].
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Wire-propagated trace context: the open span on the sending side plus
/// the sender's epoch. The span id rides in every frame header
/// (`automon_net::wire`); the epoch is recovered from the message body on
/// decode. Carrying the context across the transport makes a node-side
/// violation span the causal parent of the coordinator's handler span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The open span on the sending side; `SpanId::NONE` when telemetry
    /// is disabled or no span is open.
    pub span: SpanId,
    /// The sender's protocol epoch at emission time.
    pub epoch: u64,
}

impl TraceCtx {
    /// The empty context (no span, epoch 0).
    pub const NONE: TraceCtx = TraceCtx {
        span: SpanId::NONE,
        epoch: 0,
    };

    /// Context for `span` at `epoch`.
    pub fn new(span: SpanId, epoch: u64) -> Self {
        Self { span, epoch }
    }
}

thread_local! {
    /// Reusable per-thread formatting buffer. `record` renders each event
    /// here before appending it to the shared trace, so steady-state
    /// tracing allocates nothing per event — both this scratch and the
    /// shared buffer grow geometrically and are then reused.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Round + deterministic-op clock. `ops` counts algorithmic work units
/// (Hessian replays, probe evaluations) declared by instrumented code, so
/// it advances identically on identical inputs — a portable stand-in for
/// "elapsed time" that survives re-runs and machine changes.
#[derive(Debug, Default)]
pub struct LogicalClock {
    round: AtomicU64,
    ops: AtomicU64,
}

impl LogicalClock {
    /// Set the current protocol round.
    pub fn set_round(&self, r: u64) {
        self.round.store(r, Ordering::Relaxed);
    }

    /// The current protocol round.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Advance the deterministic op counter by `n` work units.
    pub fn add_ops(&self, n: u64) {
        self.ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Total deterministic ops so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

/// A typed field value for a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    /// A string built at run time.
    Str(String),
    /// A string fixed at compile time (a cause, tier or kind name):
    /// recorded exactly as [`FieldValue::Str`], without allocating.
    Static(&'static str),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Static(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// Append-only JSONL event sink.
///
/// Events accumulate in one shared newline-delimited buffer; rendering
/// happens in a thread-local scratch [`String`] so the steady state does
/// no per-event heap allocation.
#[derive(Debug, Default)]
pub struct Tracer {
    seq: AtomicU64,
    next_span: AtomicU64,
    buf: Mutex<TraceBuf>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    jsonl: String,
}

impl Tracer {
    /// Record one event. Each line is a flat JSON object:
    /// `{"seq":N,"round":R,"ops":O,"kind":"...", <fields>...}`.
    ///
    /// Field names must avoid the [`RESERVED_KEYS`] envelope keys —
    /// reusing one would emit a duplicate JSON key (debug builds assert).
    pub fn record(&self, clock: &LogicalClock, kind: &str, fields: &[(&str, FieldValue)]) {
        debug_assert!(
            fields.iter().all(|(k, _)| !RESERVED_KEYS.contains(k)),
            "trace field collides with an envelope key ({RESERVED_KEYS:?}): {:?}",
            fields.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        SCRATCH.with(|cell| {
            let mut line = cell.borrow_mut();
            line.clear();
            let _ = write!(
                line,
                "{{\"seq\":{seq},\"round\":{},\"ops\":{},\"kind\":\"{}\"",
                clock.round(),
                clock.ops(),
                Escaped(kind)
            );
            for (k, v) in fields {
                let _ = write!(line, ",\"{}\":", Escaped(k));
                match v {
                    FieldValue::U64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    FieldValue::I64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    FieldValue::F64(x) => {
                        if x.is_finite() {
                            // Rust's shortest-roundtrip `{}` for f64 is
                            // deterministic and valid JSON for finite values.
                            let _ = write!(line, "{x}");
                        } else {
                            let _ = write!(line, "null");
                        }
                    }
                    FieldValue::Str(s) => {
                        let _ = write!(line, "\"{}\"", Escaped(s));
                    }
                    FieldValue::Static(s) => {
                        let _ = write!(line, "\"{}\"", Escaped(s));
                    }
                    FieldValue::Bool(b) => {
                        let _ = write!(line, "{b}");
                    }
                }
            }
            line.push('}');
            line.push('\n');
            let mut buf = lock(&self.buf);
            buf.jsonl.push_str(&line);
        });
    }

    /// Open a causal span and return its id. Emits a `span_begin` event
    /// carrying the span id, its parent (0 for roots), and the span
    /// `name`, plus any extra `fields`. Ids are allocated in emission
    /// order starting from 1, so they are as deterministic as the event
    /// stream itself.
    pub fn span_begin(
        &self,
        clock: &LogicalClock,
        name: &'static str,
        parent: SpanId,
        fields: &[(&str, FieldValue)],
    ) -> SpanId {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1);
        let mut all: Vec<(&str, FieldValue)> = Vec::with_capacity(fields.len() + 3);
        all.push(("span", id.0.into()));
        all.push(("parent", parent.0.into()));
        all.push(("name", name.into()));
        all.extend_from_slice(fields);
        self.record(clock, "span_begin", &all);
        id
    }

    /// Close a span opened by [`Tracer::span_begin`]. Emits a `span_end`
    /// event for `span` with any extra `fields` (callers typically attach
    /// the deterministic-op delta as `span_ops`).
    pub fn span_end(&self, clock: &LogicalClock, span: SpanId, fields: &[(&str, FieldValue)]) {
        let mut all: Vec<(&str, FieldValue)> = Vec::with_capacity(fields.len() + 1);
        all.push(("span", span.0.into()));
        all.extend_from_slice(fields);
        self.record(clock, "span_end", &all);
    }

    /// Number of events recorded since creation (drained or not).
    pub fn len(&self) -> usize {
        self.seq.load(Ordering::Relaxed) as usize
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The currently buffered trace as JSONL (one event per line,
    /// trailing newline when non-empty). Events already moved out by
    /// [`Tracer::drain_to`] are not re-returned.
    pub fn to_jsonl(&self) -> String {
        lock(&self.buf).jsonl.clone()
    }

    /// Move the buffered events out to `w`, leaving the buffer empty.
    /// Repeated drains interleaved with records reproduce exactly the
    /// bytes a single final [`Tracer::to_jsonl`] would have returned, so
    /// long runs can stream the trace with bounded memory. Returns the
    /// number of bytes written.
    pub fn drain_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let chunk = {
            let mut buf = lock(&self.buf);
            if buf.jsonl.is_empty() {
                return Ok(0);
            }
            std::mem::take(&mut buf.jsonl)
        };
        w.write_all(chunk.as_bytes())?;
        Ok(chunk.len())
    }
}

/// JSON string escaping for the minimal set a flat event line needs.
struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_clock_and_fields() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        clock.set_round(3);
        clock.add_ops(10);
        t.record(
            &clock,
            "full_sync",
            &[("epoch", 2u64.into()), ("r", 0.5f64.into())],
        );
        t.record(&clock, "fault", &[("fault", "drop".into())]);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"round\":3,\"ops\":10,\"kind\":\"full_sync\",\"epoch\":2,\"r\":0.5}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"round\":3,\"ops\":10,\"kind\":\"fault\",\"fault\":\"drop\"}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "envelope key")]
    fn reserved_envelope_keys_are_rejected() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        t.record(&clock, "fault", &[("kind", "drop".into())]);
    }

    #[test]
    fn spans_allocate_deterministic_ids_and_nest() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        clock.set_round(2);
        let root = t.span_begin(&clock, "violation", SpanId::NONE, &[("node", 1u64.into())]);
        let child = t.span_begin(&clock, "handle", root, &[]);
        t.span_end(&clock, child, &[("span_ops", 4u64.into())]);
        t.span_end(&clock, root, &[]);
        assert_eq!(root, SpanId(1));
        assert_eq!(child, SpanId(2));
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"round\":2,\"ops\":0,\"kind\":\"span_begin\",\"span\":1,\"parent\":0,\"name\":\"violation\",\"node\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"round\":2,\"ops\":0,\"kind\":\"span_begin\",\"span\":2,\"parent\":1,\"name\":\"handle\"}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"round\":2,\"ops\":0,\"kind\":\"span_end\",\"span\":2,\"span_ops\":4}"
        );
        assert_eq!(
            lines[3],
            "{\"seq\":3,\"round\":2,\"ops\":0,\"kind\":\"span_end\",\"span\":1}"
        );
    }

    #[test]
    fn drain_to_streams_the_same_bytes_as_to_jsonl() {
        let clock = LogicalClock::default();
        let reference = Tracer::default();
        let streamed = Tracer::default();
        let mut out: Vec<u8> = Vec::new();
        for i in 0..5u64 {
            reference.record(&clock, "tick", &[("i", i.into())]);
            streamed.record(&clock, "tick", &[("i", i.into())]);
            if i % 2 == 0 {
                streamed.drain_to(&mut out).unwrap();
            }
        }
        assert_eq!(streamed.len(), 5, "len counts drained events too");
        streamed.drain_to(&mut out).unwrap();
        assert_eq!(streamed.drain_to(&mut out).unwrap(), 0, "empty drain");
        assert!(streamed.to_jsonl().is_empty());
        assert_eq!(String::from_utf8(out).unwrap(), reference.to_jsonl());
    }

    #[test]
    fn strings_are_escaped() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        t.record(&clock, "x", &[("msg", "a\"b\\c\nd".into())]);
        assert!(t.to_jsonl().contains("\"msg\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let clock = LogicalClock::default();
        let t = Tracer::default();
        t.record(&clock, "x", &[("v", f64::NAN.into())]);
        assert!(t.to_jsonl().contains("\"v\":null"));
    }
}
