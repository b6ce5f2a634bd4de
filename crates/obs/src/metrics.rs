//! Lock-cheap metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Option<Arc<atomic>>` wrappers: a handle from a disabled
//! [`Telemetry`](crate::Telemetry) holds `None`, so every operation is a
//! single predictable branch — cheap enough to leave in the protocol hot
//! path. Enabled handles touch relaxed atomics only; the registry lock is
//! taken at registration and render time, never per update.
//!
//! Histogram sums are accumulated in **fixed-point** (micro-units, see
//! [`SUM_SCALE`]): integer addition is associative and commutative, so
//! observations split across worker threads — or across per-lane
//! histograms later [`HistogramSnapshot::merge`]d — produce byte-identical
//! snapshots regardless of interleaving. An `f64` sum would not.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;

/// Fixed-point scale for histogram sums: 1 unit = 1e-6 of the observed
/// value. Chosen to hold protocol-scale quantities (errors, byte counts,
/// operation counts) without overflow at realistic run lengths.
pub const SUM_SCALE: f64 = 1e6;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores every update.
    pub fn disabled() -> Self {
        Self(None)
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Self(Some(cell))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that ignores every update.
    pub fn disabled() -> Self {
        Self(None)
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Self(Some(cell))
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Shared storage of one histogram. Buckets hold *non-cumulative* counts;
/// the Prometheus renderer accumulates them into `le` form.
#[derive(Debug)]
pub struct HistogramCore {
    /// Upper bucket bounds, strictly increasing. An implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Fixed-point sum of observations ([`SUM_SCALE`] units).
    sum_fp: AtomicI64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_fp: AtomicI64::new(0),
        }
    }
}

/// A fixed-bucket histogram.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that ignores every update.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An unregistered, live histogram — for per-lane accumulation that
    /// ends in [`HistogramSnapshot::merge`] rather than exposition.
    pub fn standalone(bounds: &[f64]) -> Self {
        Self(Some(Arc::new(HistogramCore::new(bounds))))
    }

    pub(crate) fn live(core: Arc<HistogramCore>) -> Self {
        Self(Some(core))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            let idx = h
                .bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(h.bounds.len());
            h.buckets[idx].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum_fp
                .fetch_add((v * SUM_SCALE).round() as i64, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram's state. Empty (no bounds,
    /// zero counts) when disabled.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::empty(&[]),
            Some(h) => HistogramSnapshot {
                bounds: h.bounds.clone(),
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count.load(Ordering::Relaxed),
                sum_fp: h.sum_fp.load(Ordering::Relaxed),
            },
        }
    }
}

/// An owned, mergeable copy of a histogram's state.
///
/// `merge` is integer addition per field, so it is associative and
/// commutative — the algebraic property the determinism proptests pin
/// down. Two snapshots compare with `==` field-for-field (bucket bounds
/// come from configuration, never computation, so `f64` equality on them
/// is sound).
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (excluding the implicit `+Inf`).
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Fixed-point sum ([`SUM_SCALE`] units).
    pub sum_fp: i64,
}

impl HistogramSnapshot {
    /// A zeroed snapshot over `bounds`.
    pub fn empty(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum_fp: 0,
        }
    }

    /// Combine two snapshots of histograms with identical bounds.
    ///
    /// # Panics
    /// Panics when the bucket layouts disagree.
    pub fn merge(&self, other: &Self) -> Self {
        assert_eq!(self.bounds, other.bounds, "merge: bucket layout mismatch");
        Self {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum_fp: self.sum_fp + other.sum_fp,
        }
    }

    /// The sum of observations, back in value units.
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 / SUM_SCALE
    }
}

/// One registered metric.
enum Metric {
    Counter {
        help: String,
        cell: Arc<AtomicU64>,
    },
    Gauge {
        help: String,
        cell: Arc<AtomicU64>,
    },
    Histogram {
        help: String,
        core: Arc<HistogramCore>,
    },
}

/// A named collection of metrics, rendered in deterministic (sorted)
/// order. Registration is idempotent: asking for an existing name returns
/// a handle to the same cell, which is how every node shares one
/// `automon_node_checks_total`.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter. Counter and gauge names may carry
    /// a Prometheus label set (`name{k="v"}`); the exposition's `# HELP`/
    /// `# TYPE` lines use the base name.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut m = lock(&self.inner);
        let entry = m.entry(name.to_string()).or_insert_with(|| Metric::Counter {
            help: help.to_string(),
            cell: Arc::new(AtomicU64::new(0)),
        });
        match entry {
            Metric::Counter { cell, .. } => Counter::live(cell.clone()),
            _ => panic!("metric `{name}` already registered as a non-counter"),
        }
    }

    /// Register (or look up) a gauge.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut m = lock(&self.inner);
        let entry = m.entry(name.to_string()).or_insert_with(|| Metric::Gauge {
            help: help.to_string(),
            cell: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        });
        match entry {
            Metric::Gauge { cell, .. } => Gauge::live(cell.clone()),
            _ => panic!("metric `{name}` already registered as a non-gauge"),
        }
    }

    /// Register (or look up) a histogram. Histogram names must be
    /// label-free (labels would collide with the generated `le`).
    ///
    /// # Panics
    /// Panics on a kind mismatch or a labelled name.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        assert!(
            !name.contains('{'),
            "histogram `{name}`: labels are not supported on histograms"
        );
        let mut m = lock(&self.inner);
        let entry = m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram {
                help: help.to_string(),
                core: Arc::new(HistogramCore::new(bounds)),
            });
        match entry {
            Metric::Histogram { core, .. } => Histogram::live(core.clone()),
            _ => panic!("metric `{name}` already registered as a non-histogram"),
        }
    }

    /// Render every metric in Prometheus text-exposition format
    /// (version 0.0.4), sorted by name.
    pub fn render_prometheus(&self) -> String {
        let m = lock(&self.inner);
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for (name, metric) in m.iter() {
            let base = name.split('{').next().expect("split yields one part");
            let (help, kind) = match metric {
                Metric::Counter { help, .. } => (help, "counter"),
                Metric::Gauge { help, .. } => (help, "gauge"),
                Metric::Histogram { help, .. } => (help, "histogram"),
            };
            if last_base.as_deref() != Some(base) {
                out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} {kind}\n"));
                last_base = Some(base.to_string());
            }
            match metric {
                Metric::Counter { cell, .. } => {
                    out.push_str(&format!("{name} {}\n", cell.load(Ordering::Relaxed)));
                }
                Metric::Gauge { cell, .. } => {
                    let v = f64::from_bits(cell.load(Ordering::Relaxed));
                    out.push_str(&format!("{name} {}\n", format_value(v)));
                }
                Metric::Histogram { core, .. } => {
                    let snap = Histogram::live(core.clone()).snapshot();
                    let mut cumulative = 0u64;
                    for (i, b) in snap.bounds.iter().enumerate() {
                        cumulative += snap.buckets[i];
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            format_value(*b)
                        ));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
                    out.push_str(&format!("{name}_sum {}\n", format_value(snap.sum())));
                    out.push_str(&format!("{name}_count {}\n", snap.count));
                }
            }
        }
        out
    }
}

/// Prometheus sample-value formatting: shortest-roundtrip decimal, with
/// the exposition spellings for the non-finite values.
pub fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.inc();
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::disabled();
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::disabled();
        h.observe(1.0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn registry_shares_cells_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.gauge("x", "x");
        let _ = r.counter("x", "x");
    }

    #[test]
    fn histogram_buckets_and_fixed_point_sum() {
        let h = Histogram::standalone(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 2, 1, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum() - 56.05).abs() < 1e-9, "{}", s.sum());
    }

    #[test]
    fn snapshot_merge_adds_fields() {
        let a = Histogram::standalone(&[1.0]);
        let b = Histogram::standalone(&[1.0]);
        a.observe(0.5);
        b.observe(2.0);
        b.observe(0.25);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.buckets, vec![2, 1]);
        assert!((merged.sum() - 2.75).abs() < 1e-9);
    }

    #[test]
    fn render_is_sorted_and_groups_labelled_families() {
        let r = Registry::new();
        r.counter("zz_total", "last").inc();
        r.counter("automon_faults_total{kind=\"drop\"}", "faults").add(2);
        r.counter("automon_faults_total{kind=\"delay\"}", "faults").add(1);
        r.gauge("automon_round", "round").set(7.0);
        let text = r.render_prometheus();
        let type_lines: Vec<&str> =
            text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert_eq!(
            type_lines,
            vec![
                "# TYPE automon_faults_total counter",
                "# TYPE automon_round gauge",
                "# TYPE zz_total counter",
            ]
        );
        assert!(text.contains("automon_faults_total{kind=\"drop\"} 2\n"));
        assert!(text.contains("automon_round 7\n"));
    }
}
