//! In-memory spans recorded by the benchmark's own code around each call
//! into a library layer.
//!
//! Spans are `(stage, start, end, violation id)`; they stay in a `Vec`
//! until the run ends and are written as JSONL only when `--trace-out`
//! asks. A switched-off [`Tracer`] reads no clock and stores nothing, so
//! the untraced passes that produce the end-to-end metrics run the same
//! driver code with one predictable branch per call site.

use std::io::Write;
use std::time::Instant;

/// The layer boundary a span was recorded at. `Pass` and `Resolve` are
/// parents: a pass's timed window, and one violation's resolution inside
/// it. Everything else is a leaf around exactly one library call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    Pass,
    Resolve,
    /// `Node::update_data` — the safe-zone check (`core.node`).
    NodeCheck,
    /// `Node::handle` — installing constraints/slack or answering a pull.
    NodeInstall,
    /// `Coordinator::handle` calls that completed a full sync.
    HandleFull,
    /// Every other `Coordinator::handle` call.
    HandleLazy,
    /// `TcpNodeTransport::send` (encode + write syscalls).
    NodeSend,
    /// Node send returned → coordinator `recv_timeout` returned
    /// (kernel, reactor read + decode, channel hop).
    UpTransit,
    /// `ReactorCoordinatorTransport::send` (queue + wake).
    CoordSend,
    /// Coordinator send returned → node `recv` returned (reactor encode
    /// + writev, kernel, node read + decode).
    DownTransit,
    /// `TcpNodeTransport::try_recv` that found nothing.
    IdlePoll,
    /// `Fleet::update`.
    FleetUpdate,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pass => "driver.pass",
            Stage::Resolve => "driver.resolve",
            Stage::NodeCheck => "core.node.check",
            Stage::NodeInstall => "core.node.install",
            Stage::HandleFull => "core.coordinator.handle_full",
            Stage::HandleLazy => "core.coordinator.handle_lazy",
            Stage::NodeSend => "net.tcp.node_send",
            Stage::UpTransit => "net.reactor.up_transit",
            Stage::CoordSend => "net.reactor.send",
            Stage::DownTransit => "net.reactor.down_transit",
            Stage::IdlePoll => "net.tcp.try_recv_idle",
            Stage::FleetUpdate => "fleet.update",
        }
    }

    fn is_parent(self) -> bool {
        matches!(self, Stage::Pass | Stage::Resolve)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Violation the span belongs to (0 = none: quiet-path work).
    pub vid: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink shared by every driver. Off by default.
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Violation id stamped on new spans; the driver sets it around each
    /// resolution.
    pub vid: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            vid: 0,
            spans: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created; 0 (no clock read) when
    /// tracing is off.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    #[inline]
    pub fn span(&mut self, stage: Stage, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                stage,
                start_ns,
                end_ns,
                vid: self.vid,
            });
        }
    }

    /// Durations in ns of every span of `stage`.
    pub fn durations(&self, stage: Stage) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Summed duration in ns of every span of `stage`.
    pub fn total(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(Span::ns)
            .sum()
    }

    /// Summed duration of all leaf spans: the numerator of
    /// `driver.stage_sum_over_total`.
    pub fn leaf_total(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.stage.is_parent())
            .map(Span::ns)
            .sum()
    }

    pub fn write_jsonl(&self, w: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"workload\":\"{workload}\",\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"vid\":{}}}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.vid
            )?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover. Children may overlap each other and may stick out of
/// the parent; only their union inside the parent counts.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.ns() - covered
}

/// Self time of every `Resolve` span against the leaf spans carrying its
/// violation id, summed: the time inside resolutions that no layer call
/// accounts for (driver bookkeeping, queue shuffling, clock reads).
pub fn resolve_self_time_ns(spans: &[Span]) -> u64 {
    let mut total = 0;
    for (i, parent) in spans.iter().enumerate() {
        if parent.stage != Stage::Resolve {
            continue;
        }
        // Leaves of a resolution are recorded before its parent span,
        // contiguously, all with the parent's vid.
        let leaves = spans[..i]
            .iter()
            .rev()
            .take_while(|s| s.vid == parent.vid && !s.stage.is_parent())
            .count();
        total += self_time_ns(parent, &spans[i - leaves..i]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start_ns: u64, end_ns: u64, vid: u32) -> Span {
        Span {
            stage,
            start_ns,
            end_ns,
            vid,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(Stage::Resolve, 100, 200, 1);
        // Disjoint children: 20 + 30 covered.
        let kids = [
            span(Stage::NodeSend, 110, 130, 1),
            span(Stage::HandleLazy, 150, 180, 1),
        ];
        assert_eq!(self_time_ns(&parent, &kids), 50);
        // Overlapping children count their union once: [110,160) = 50.
        let kids = [
            span(Stage::NodeSend, 110, 150, 1),
            span(Stage::HandleLazy, 140, 160, 1),
        ];
        assert_eq!(self_time_ns(&parent, &kids), 50);
        // A child sticking out of the parent is clipped to it.
        let kids = [
            span(Stage::NodeSend, 50, 120, 1),
            span(Stage::HandleLazy, 190, 400, 1),
        ];
        assert_eq!(self_time_ns(&parent, &kids), 70);
        // A child fully outside, and an empty child, cover nothing.
        let kids = [
            span(Stage::NodeSend, 0, 50, 1),
            span(Stage::NodeSend, 150, 150, 1),
        ];
        assert_eq!(self_time_ns(&parent, &kids), 100);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn resolve_self_time_pairs_parents_with_their_own_leaves() {
        let spans = [
            span(Stage::NodeCheck, 0, 10, 0),
            span(Stage::NodeSend, 12, 20, 1),
            span(Stage::HandleLazy, 25, 40, 1),
            span(Stage::Resolve, 10, 50, 1),
            span(Stage::NodeCheck, 50, 55, 0),
            span(Stage::HandleFull, 60, 90, 2),
            span(Stage::Resolve, 55, 100, 2),
        ];
        // vid 1: 40 − (8 + 15) = 17; vid 2: 45 − 30 = 15.
        assert_eq!(resolve_self_time_ns(&spans), 32);
    }

    #[test]
    fn tracer_off_records_nothing_and_reads_no_clock() {
        let mut t = Tracer::off();
        assert_eq!(t.now(), 0);
        t.span(Stage::NodeCheck, 0, 5);
        assert!(t.spans.is_empty());
        let mut t = Tracer::on();
        t.vid = 7;
        t.span(Stage::NodeCheck, 3, 8);
        t.span(Stage::Pass, 0, 10);
        assert_eq!(t.durations(Stage::NodeCheck), vec![5.0]);
        assert_eq!(t.leaf_total(), 5);
        assert_eq!(t.spans[0].vid, 7);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "w").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(
            text.starts_with("{\"workload\":\"w\",\"stage\":\"core.node.check\",\"start_ns\":3,")
        );
    }
}
