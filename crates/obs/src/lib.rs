//! # automon-obs — deterministic observability
//!
//! Metrics and structured tracing for the AutoMon reproduction, built to
//! the same contract as the rest of the workspace: **offline, no external
//! dependencies, and bit-deterministic under a fixed seed**.
//!
//! Three pieces:
//!
//! * [`metrics`] — lock-cheap counters/gauges/fixed-bucket histograms in
//!   a sorted [`metrics::Registry`], rendered as Prometheus text
//!   exposition. Histogram sums are fixed-point so snapshots merge
//!   associatively/commutatively (parallel lanes ≡ sequential).
//! * [`trace`] — a JSONL event sink stamped by a [`trace::LogicalClock`]
//!   (protocol round + deterministic op counter, never wall time), so
//!   same-seed runs emit byte-identical traces.
//! * [`serve`] / [`expo`] — a minimal HTTP/1.0 scrape endpoint and the
//!   matching exposition parser for round-trip validation.
//!
//! The entry point is [`Telemetry`]: a cheaply clonable handle threaded
//! through coordinator, nodes, net, chaos fabric, and sim runners.
//! [`Telemetry::disabled()`] carries no allocation and every operation on
//! it is a single `Option` branch, preserving the instrumented hot paths'
//! performance when observability is off (the default everywhere).

pub mod expo;
pub mod metrics;
pub mod reader;
pub mod serve;
pub mod trace;

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

pub use expo::{parse_prometheus, value_of, Sample};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use reader::{parse_trace, span_path_at, TraceEvent};
pub use serve::MetricsServer;
pub use trace::{FieldValue, LogicalClock, SpanId, TraceCtx, Tracer, RESERVED_KEYS};

/// Lock `m`, recovering the guard if a panicking thread poisoned it:
/// every critical section here leaves the registry or trace buffer
/// consistent, so a panic elsewhere must not take telemetry down too.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shared state behind an enabled [`Telemetry`].
#[derive(Default)]
struct Inner {
    registry: Registry,
    tracer: Tracer,
    clock: LogicalClock,
}

/// The observability handle threaded through the protocol stack.
///
/// `Clone` is an `Option<Arc>` copy; pass it by value freely. A disabled
/// handle is `None` inside, so instrumentation costs one branch per call
/// site — cheap enough to leave compiled into hot paths.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A no-op handle. All registrations return inert metric handles, all
    /// events vanish, all sinks render empty.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live handle with a fresh registry, tracer, and logical clock.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a counter. See [`Registry::counter`].
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(i) => i.registry.counter(name, help),
        }
    }

    /// Register (or look up) a gauge. See [`Registry::gauge`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(i) => i.registry.gauge(name, help),
        }
    }

    /// Register (or look up) a histogram. See [`Registry::histogram`].
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(i) => i.registry.histogram(name, help, bounds),
        }
    }

    /// Set the logical clock's protocol round.
    #[inline]
    pub fn set_round(&self, round: u64) {
        if let Some(i) = &self.inner {
            i.clock.set_round(round);
        }
    }

    /// Current protocol round (0 when disabled).
    pub fn round(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.round())
    }

    /// Advance the deterministic op counter by `n` work units.
    #[inline]
    pub fn add_ops(&self, n: u64) {
        if let Some(i) = &self.inner {
            i.clock.add_ops(n);
        }
    }

    /// Total deterministic ops (0 when disabled).
    pub fn ops(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.ops())
    }

    /// Record a trace event. **Call only from sequential control flow**
    /// (see the determinism contract in [`trace`]).
    #[inline]
    pub fn event(&self, kind: &str, fields: &[(&str, FieldValue)]) {
        if let Some(i) = &self.inner {
            i.tracer.record(&i.clock, kind, fields);
        }
    }

    /// Open a causal span under `parent` (use [`SpanId::NONE`] for a
    /// root). Returns [`SpanId::NONE`] when disabled — one branch, no
    /// allocation. Sequential contexts only, like [`Telemetry::event`].
    #[inline]
    pub fn span_begin(
        &self,
        name: &'static str,
        parent: SpanId,
        fields: &[(&str, FieldValue)],
    ) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(i) => i.tracer.span_begin(&i.clock, name, parent, fields),
        }
    }

    /// Close a span opened with [`Telemetry::span_begin`]. A no-op when
    /// disabled or when `span` is [`SpanId::NONE`].
    #[inline]
    pub fn span_end(&self, span: SpanId, fields: &[(&str, FieldValue)]) {
        if let Some(i) = &self.inner {
            if span.is_some() {
                i.tracer.span_end(&i.clock, span, fields);
            }
        }
    }

    /// Open a root span with an RAII guard: emits `span_begin` now and
    /// `span_end` (with the deterministic op delta as `span_ops`) when
    /// the guard drops. Sequential contexts only, like
    /// [`Telemetry::event`].
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let start_ops = self.ops();
        let id = self.span_begin(name, SpanId::NONE, &[]);
        SpanGuard {
            tel: self.clone(),
            id,
            start_ops,
        }
    }

    /// Number of recorded trace events (0 when disabled).
    pub fn trace_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.tracer.len())
    }

    /// Render the metrics registry as Prometheus text exposition
    /// (empty when disabled).
    pub fn prometheus(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |i| i.registry.render_prometheus())
    }

    /// The trace as JSONL (empty when disabled).
    pub fn trace_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |i| i.tracer.to_jsonl())
    }

    /// Dump the Prometheus exposition to `path`.
    pub fn write_metrics(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.prometheus().as_bytes())
    }

    /// Dump the JSONL trace to `path`.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.trace_jsonl().as_bytes())
    }

    /// Move buffered trace events out to `w` (see [`Tracer::drain_to`]).
    /// Call between rounds to stream `--trace-out` with bounded memory;
    /// the concatenation of all drains plus a final [`Telemetry::trace_jsonl`]
    /// is byte-identical to an undrained trace. Returns bytes written
    /// (0 when disabled).
    pub fn drain_trace_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<usize> {
        match &self.inner {
            None => Ok(0),
            Some(i) => i.tracer.drain_to(w),
        }
    }
}

/// RAII guard closing a [`Telemetry::span`]. The `span_end` event carries
/// the span's deterministic op count, the logical-clock analogue of
/// duration.
pub struct SpanGuard {
    tel: Telemetry,
    id: SpanId,
    start_ops: u64,
}

impl SpanGuard {
    /// The guarded span's id ([`SpanId::NONE`] when telemetry is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id.is_some() {
            let delta = self.tel.ops() - self.start_ops;
            self.tel.span_end(self.id, &[("span_ops", delta.into())]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_cheap_to_clone() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("c", "c").inc();
        tel.set_round(9);
        tel.add_ops(100);
        tel.event("x", &[]);
        {
            let _span = tel.span("adcd");
        }
        assert_eq!(tel.round(), 0);
        assert_eq!(tel.ops(), 0);
        assert_eq!(tel.trace_len(), 0);
        assert_eq!(tel.prometheus(), "");
        assert_eq!(tel.trace_jsonl(), "");
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tel.counter("automon_x_total", "x").inc();
        other.counter("automon_x_total", "x").add(4);
        assert_eq!(tel.counter("automon_x_total", "x").get(), 5);
        tel.set_round(3);
        assert_eq!(other.round(), 3);
    }

    #[test]
    fn span_emits_begin_and_end_with_op_delta() {
        let tel = Telemetry::enabled();
        tel.set_round(2);
        {
            let span = tel.span("decompose");
            assert_eq!(span.id(), SpanId(1));
            tel.add_ops(17);
        }
        let jsonl = tel.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span_begin\""), "{}", lines[0]);
        assert!(lines[0].contains("\"name\":\"decompose\""), "{}", lines[0]);
        assert!(lines[0].contains("\"parent\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"span_end\""), "{}", lines[1]);
        assert!(lines[1].contains("\"span\":1"), "{}", lines[1]);
        assert!(lines[1].contains("\"span_ops\":17"), "{}", lines[1]);
    }

    #[test]
    fn explicit_spans_propagate_parents_across_handles() {
        let tel = Telemetry::enabled();
        let node_side = tel.span_begin("violation", SpanId::NONE, &[("node", 2u64.into())]);
        // The id crosses the wire; the coordinator side resumes under it.
        let coord_side = tel.span_begin("handle", node_side, &[]);
        tel.span_end(coord_side, &[]);
        tel.span_end(node_side, &[]);
        let jsonl = tel.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[1].contains("\"name\":\"handle\""), "{}", lines[1]);
        assert!(lines[1].contains("\"parent\":1"), "{}", lines[1]);
        assert_eq!(tel.trace_len(), 4);
    }

    #[test]
    fn file_sinks_write_exact_bytes() {
        let tel = Telemetry::enabled();
        tel.counter("automon_y_total", "y").add(2);
        tel.event("done", &[("ok", true.into())]);
        let dir = std::env::temp_dir().join("automon-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = dir.join("metrics.prom");
        let t = dir.join("trace.jsonl");
        tel.write_metrics(&m).unwrap();
        tel.write_trace(&t).unwrap();
        assert_eq!(std::fs::read_to_string(&m).unwrap(), tel.prometheus());
        assert_eq!(std::fs::read_to_string(&t).unwrap(), tel.trace_jsonl());
        let _ = std::fs::remove_file(m);
        let _ = std::fs::remove_file(t);
    }
}
