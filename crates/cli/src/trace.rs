//! `automon trace` — offline analysis of the JSONL traces `--trace-out`
//! writes.
//!
//! * `summarize` renders the causal span tree, per-span-kind durations
//!   in deterministic ops, and the communication-ledger breakdown (the
//!   `comm` events): messages and bytes per protocol cause, with a
//!   bytes-per-update column when the trace carries a `run_info` event.
//! * `diff` is the determinism debugger: it finds the first sequence
//!   number where two traces diverge and reports it with the enclosing
//!   span path, then exits non-zero. Byte-identical traces exit zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use automon_obs::{parse_trace, span_path_at, TraceEvent};

use crate::args::{Args, CliError, Flag};

/// Read and parse one JSONL trace file.
fn load(path: &str) -> Result<Vec<TraceEvent>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read `{path}`: {e}")))?;
    parse_trace(&text).map_err(|e| CliError::new(format!("{path}: {e}")))
}

/// Per-span-name aggregate: instance count and ops durations.
#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ops: u64,
    max_ops: u64,
}

/// Flags `automon trace summarize` reads.
pub(crate) const SUMMARIZE_FLAGS: &[Flag] = &[("input", "<FILE.jsonl>")];

/// `automon trace summarize --input FILE`
pub(crate) fn summarize(args: &Args) -> Result<String, CliError> {
    let path = args.require("input")?;
    let events = load(path)?;

    // Envelope rollups.
    let rounds = events.iter().map(|e| e.round + 1).max().unwrap_or(0);
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &events {
        *by_kind.entry(ev.kind.as_str()).or_default() += 1;
    }

    // Span reconstruction: id → (name, parent, begin ops), then tree
    // paths (parent chains) and per-name duration aggregates.
    let mut open: BTreeMap<u64, (String, u64, u64)> = BTreeMap::new();
    let mut durations: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut tree: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for ev in &events {
        match ev.kind.as_str() {
            "span_begin" => {
                let id = ev.u64("span").unwrap_or(0);
                let parent = ev.u64("parent").unwrap_or(0);
                let name = ev.str("name").unwrap_or("?").to_string();
                let mut trail = vec![name.clone()];
                let mut at = parent;
                while at != 0 {
                    let Some((pname, pparent, _)) = open.get(&at) else { break };
                    trail.push(pname.clone());
                    at = *pparent;
                }
                trail.reverse();
                *tree.entry(trail).or_default() += 1;
                open.insert(id, (name, parent, ev.ops));
            }
            "span_end" => {
                if let Some(id) = ev.u64("span") {
                    if let Some((name, _, begin_ops)) = open.remove(&id) {
                        let d = ev.ops.saturating_sub(begin_ops);
                        let agg = durations.entry(name).or_default();
                        agg.count += 1;
                        agg.total_ops += d;
                        agg.max_ops = agg.max_ops.max(d);
                    }
                }
            }
            _ => {}
        }
    }

    // Communication ledger from the per-frame `comm` events.
    #[derive(Default)]
    struct CommAgg {
        up_msgs: u64,
        up_bytes: u64,
        down_msgs: u64,
        down_bytes: u64,
    }
    let mut comm: BTreeMap<String, CommAgg> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.kind == "comm") {
        let cause = ev.str("cause").unwrap_or("?").to_string();
        let bytes = ev.u64("bytes").unwrap_or(0);
        let agg = comm.entry(cause).or_default();
        if ev.str("dir") == Some("up") {
            agg.up_msgs += 1;
            agg.up_bytes += bytes;
        } else {
            agg.down_msgs += 1;
            agg.down_bytes += bytes;
        }
    }
    let updates = events
        .iter()
        .rev()
        .find(|e| e.kind == "run_info")
        .and_then(|e| e.u64("updates"))
        .filter(|u| *u > 0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace summary: {} events over {rounds} rounds ({path})\n",
        events.len()
    );

    let _ = writeln!(out, "events by kind:");
    for (kind, n) in &by_kind {
        let _ = writeln!(out, "  {kind:<18} {n:>8}");
    }

    if !tree.is_empty() {
        let _ = writeln!(out, "\nspan tree (count per causal path):");
        for (trail, n) in &tree {
            let depth = trail.len() - 1;
            let name = trail.last().expect("non-empty trail");
            let _ = writeln!(out, "  {:indent$}{name:<w$} {n:>8}", "", indent = 2 * depth, w = 18usize.saturating_sub(2 * depth));
        }
        let _ = writeln!(out, "\nspan durations (deterministic ops):");
        let _ = writeln!(out, "  {:<18} {:>8} {:>12} {:>10}", "span", "count", "total_ops", "max_ops");
        for (name, agg) in &durations {
            let _ = writeln!(
                out,
                "  {name:<18} {:>8} {:>12} {:>10}",
                agg.count, agg.total_ops, agg.max_ops
            );
        }
    }

    if !comm.is_empty() {
        let header = match updates {
            Some(u) => format!("\ncomm by cause (bytes/update over {u} updates):"),
            None => "\ncomm by cause:".to_string(),
        };
        let _ = writeln!(out, "{header}");
        let _ = writeln!(
            out,
            "  {:<22} {:>6} {:>10} {:>10} {:>10} {:>12}",
            "cause", "msgs", "up_bytes", "dn_bytes", "bytes", "bytes/update"
        );
        let mut t = CommAgg::default();
        for (cause, a) in &comm {
            let bytes = a.up_bytes + a.down_bytes;
            let per_update = updates
                .map(|u| format!("{:.3}", bytes as f64 / u as f64))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "  {cause:<22} {:>6} {:>10} {:>10} {bytes:>10} {per_update:>12}",
                a.up_msgs + a.down_msgs,
                a.up_bytes,
                a.down_bytes,
            );
            t.up_msgs += a.up_msgs;
            t.up_bytes += a.up_bytes;
            t.down_msgs += a.down_msgs;
            t.down_bytes += a.down_bytes;
        }
        let total_bytes = t.up_bytes + t.down_bytes;
        let per_update = updates
            .map(|u| format!("{:.3}", total_bytes as f64 / u as f64))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "  {:<22} {:>6} {:>10} {:>10} {total_bytes:>10} {per_update:>12}",
            "total",
            t.up_msgs + t.down_msgs,
            t.up_bytes,
            t.down_bytes,
        );
    }
    Ok(out)
}

/// Flags `automon trace diff` reads.
pub(crate) const DIFF_FLAGS: &[Flag] = &[("left", "<A.jsonl>"), ("right", "<B.jsonl>")];

/// `automon trace diff --left FILE --right FILE`
pub(crate) fn diff(args: &Args) -> Result<String, CliError> {
    let left_path = args.require("left")?;
    let right_path = args.require("right")?;
    let left = load(left_path)?;
    let right = load(right_path)?;

    let n = left.len().min(right.len());
    for i in 0..n {
        if left[i].raw != right[i].raw {
            return Err(divergence(
                left[i].seq,
                &left,
                Some(&left[i].raw),
                Some(&right[i].raw),
                left_path,
                right_path,
            ));
        }
    }
    if left.len() != right.len() {
        let (longer, seq) = if left.len() > right.len() {
            (&left, left[n].seq)
        } else {
            (&right, right[n].seq)
        };
        return Err(divergence(
            seq,
            longer,
            left.get(n).map(|e| e.raw.as_str()),
            right.get(n).map(|e| e.raw.as_str()),
            left_path,
            right_path,
        ));
    }
    Ok(format!("traces identical: {} events", left.len()))
}

/// Render the first-divergence report as the command's error (non-zero
/// exit), with the enclosing span path from the reference trace.
fn divergence(
    seq: u64,
    reference: &[TraceEvent],
    left: Option<&str>,
    right: Option<&str>,
    left_path: &str,
    right_path: &str,
) -> CliError {
    let path = span_path_at(reference, seq);
    let span_path = if path.is_empty() {
        "(top level)".to_string()
    } else {
        path.join(" > ")
    };
    let round = reference
        .iter()
        .find(|e| e.seq == seq)
        .map(|e| e.round)
        .unwrap_or(0);
    CliError::new(format!(
        "traces diverge at seq {seq} (round {round})\n\
         span path: {span_path}\n\
         left  ({left_path}): {}\n\
         right ({right_path}): {}",
        left.unwrap_or("<trace ended>"),
        right.unwrap_or("<trace ended>"),
    ))
}

#[cfg(test)]
mod tests {
    use crate::testkit::{assert_ledger_conserves, cli};

    /// Produce a real trace file by running the simulator with
    /// `--trace-out`; returns its path and the run's `--json` report.
    fn emit_trace(name: &str, function: &str, seed: &str) -> (String, String) {
        let dir = std::env::temp_dir().join("automon_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).display().to_string();
        let json = cli(&[
            "simulate", "--function", function, "--rounds", "60", "--nodes", "3", "--seed", seed,
            "--json", "--trace-out", &path,
        ])
        .unwrap();
        (path, json)
    }

    // Carries ci.sh step 9 (retired): per function, the `--json` ledger
    // conserves the counters and `summarize` renders the by-cause table.
    #[test]
    fn summarize_reports_spans_and_comm_causes() {
        for function in ["inner-product", "variance"] {
            let (path, json) = emit_trace(&format!("summ-{function}.jsonl"), function, "1");
            assert_ledger_conserves(&serde_json::from_str(&json).expect("valid JSON"));
            let out = cli(&["trace", "summarize", "--input", &path]).unwrap();
            assert!(out.contains("trace summary:"), "{out}");
            assert!(out.contains("span tree"), "{out}");
            assert!(out.contains("violation"), "{out}");
            assert!(out.contains("handle"), "{out}");
            assert!(out.contains("comm by cause (bytes/update"), "{out}");
            assert!(out.contains("registration"), "{out}");
            assert!(out.contains("full_sync"), "{out}");
            assert!(out.contains("total"), "{out}");
        }
    }

    // Carries ci.sh step 8 (retired).
    #[test]
    fn diff_accepts_identical_and_pinpoints_divergence() {
        let (a, _) = emit_trace("diff_a.jsonl", "inner-product", "1");
        let (b, _) = emit_trace("diff_b.jsonl", "inner-product", "1");
        let same = cli(&["trace", "diff", "--left", &a, "--right", &b]).unwrap();
        assert!(same.contains("traces identical"), "{same}");

        let (c, _) = emit_trace("diff_c.jsonl", "inner-product", "2");
        let msg = cli(&["trace", "diff", "--left", &a, "--right", &c]).unwrap_err().to_string();
        assert!(msg.contains("diverge at seq"), "{msg}");
        assert!(msg.contains("span path:"), "{msg}");
    }

    #[test]
    fn diff_flags_truncation() {
        let (a, _) = emit_trace("trunc_a.jsonl", "inner-product", "1");
        let text = std::fs::read_to_string(&a).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let b = a.replace("trunc_a", "trunc_b");
        let mut shorter = lines[..lines.len() - 3].join("\n");
        shorter.push('\n');
        std::fs::write(&b, shorter).unwrap();
        let msg = cli(&["trace", "diff", "--left", &a, "--right", &b]).unwrap_err().to_string();
        assert!(msg.contains("diverge at seq"), "{msg}");
        assert!(msg.contains("<trace ended>"), "{msg}");
    }

    #[test]
    fn trace_usage_errors() {
        assert!(cli(&["trace"]).is_err());
        assert!(cli(&["trace", "frobnicate"]).is_err());
        assert!(cli(&["trace", "summarize"]).is_err(), "missing --input");
        assert!(cli(&["trace", "summarize", "--input", "/no/such/file"]).is_err());
        assert!(cli(&["trace", "diff", "--left", "x"]).is_err(), "missing --right");
    }
}
