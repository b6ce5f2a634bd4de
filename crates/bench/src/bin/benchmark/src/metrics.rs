//! The metric tables: names, units, directions and regression bounds.
//! `/BENCHMARK.json` repeats them for the driver; a unit test keeps the two
//! in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The six end-to-end metrics, reported untraced for every workload.
///
/// Bounds. The counts repeat exactly for a seed and move by under 3 %
/// between seeds, so 0.10 holds them. The timings are at the largest bound
/// the driver allows because this host needs it: three ten-seed sets taken
/// over one evening spread by 2–9 %, 5–18 % and 3–21 % (quartile distance
/// over median), and medians moved by up to 27 % between sets an hour
/// apart — minutes in which memory-touching code runs slower and no probe
/// tried here notices.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "resolve_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fullsync_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_update",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "bytes_per_update",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which way is good; read by `/BENCHMARK.json`'s consistency test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics of a traced run, by crate and module. A layer the
/// workload does not run reports 0 for its shares and counts; its
/// timings then come from a short probe of that layer on the workload's
/// own function and data (README, "Probes").
pub const PER_LAYER: [PerLayer; 66] = [
    layer("driver.stage_sum_over_total", "ratio", Higher),
    layer("driver.trace_overhead_ratio", "ratio", Lower),
    layer("driver.resolve_p99_us", "us", Lower),
    layer("driver.resolve_max_us", "us", Lower),
    layer("driver.violation_ratio", "ratio", Lower),
    layer("driver.fullsync_ratio", "ratio", Lower),
    layer("driver.max_err_over_eps", "ratio", Lower),
    layer("driver.mean_err_over_eps", "ratio", Lower),
    layer("driver.pass_spread", "ratio", Lower),
    layer("core.node.check_ns_p50", "ns", Lower),
    layer("core.node.check_share", "ratio", Lower),
    layer("core.node.check_over_eval", "ratio", Lower),
    layer("core.node.install_ns_p50", "ns", Lower),
    layer("core.node.install_share", "ratio", Lower),
    layer("core.coordinator.handle_lazy_us_p50", "us", Lower),
    layer("core.coordinator.handle_full_us_p50", "us", Lower),
    layer("core.coordinator.handle_share", "ratio", Lower),
    layer("core.coordinator.msgs_per_violation", "count", Lower),
    layer("core.coordinator.lazy_resolved_ratio", "ratio", Higher),
    layer("core.adcd.decompose_us_p50", "us", Lower),
    layer("core.adcd.decompose_share_of_full", "ratio", Lower),
    layer("core.adcd.decompose_us_d10", "us", Lower),
    layer("core.adcd.decompose_us_d20", "us", Lower),
    layer("core.adcd.decompose_us_d40", "us", Lower),
    layer("core.adcd.eigen_probes_per_decompose", "count", Lower),
    layer("core.adcd.hvp_applies_per_decompose", "count", Lower),
    layer("core.adcd.auto_over_seq", "ratio", Lower),
    layer("core.cache.replay_hit_ratio", "ratio", Higher),
    layer("core.cache.lookup_hit_ns", "ns", Lower),
    layer("core.cache.lookup_miss_ns", "ns", Lower),
    layer("autodiff.eval_ns", "ns", Lower),
    layer("autodiff.grad_ns", "ns", Lower),
    layer("autodiff.hessian_us", "us", Lower),
    layer("linalg.eigen_us", "us", Lower),
    layer("linalg.lanczos_us", "us", Lower),
    layer("net.wire.encode_up_ns", "ns", Lower),
    layer("net.wire.decode_up_ns", "ns", Lower),
    layer("net.wire.encode_down_ns", "ns", Lower),
    layer("net.wire.decode_down_ns", "ns", Lower),
    layer("net.wire.up_bytes_per_frame", "B", Lower),
    layer("net.wire.down_bytes_per_frame", "B", Lower),
    layer("net.wire.share", "ratio", Lower),
    layer("net.tcp.node_send_us_p50", "us", Lower),
    layer("net.tcp.node_recv_wait_us_p50", "us", Lower),
    layer("net.tcp.try_recv_idle_us_p50", "us", Lower),
    layer("net.tcp.threaded_over_reactor_resolve", "ratio", Lower),
    layer("net.reactor.up_transit_us_p50", "us", Lower),
    layer("net.reactor.down_transit_us_p50", "us", Lower),
    layer("net.reactor.send_us_p50", "us", Lower),
    layer("net.reactor.syscalls_per_frame", "count", Lower),
    layer("net.reactor.frames_per_read", "count", Higher),
    layer("net.reactor.backpressured_sends", "count", Lower),
    layer("net.reactor.transit_share", "ratio", Lower),
    layer("net.link_share", "ratio", Lower),
    layer("store.wal_append_us_p50", "us", Lower),
    layer("store.wal_bytes_per_update", "B", Lower),
    layer("store.journal_share", "ratio", Lower),
    layer("fleet.update_ns_p50", "ns", Lower),
    layer("fleet.root_msgs_per_update", "count", Lower),
    layer("fleet.leaf_msgs_per_update", "count", Lower),
    layer("fleet.root_over_leaf_msgs", "ratio", Lower),
    layer("fleet.leaf_reports", "count", Lower),
    layer("obs.enabled_over_disabled", "ratio", Lower),
    layer("proc.peak_rss_mib", "MiB", Lower),
    layer("proc.cpu_s_over_wall", "ratio", Lower),
    layer("proc.ctx_switches_per_update", "count", Lower),
];

/// Named values of one run, in table order, with their units.
pub struct Values(Vec<(&'static str, &'static str, f64)>);

impl Values {
    /// All end-to-end metrics, unset.
    pub fn end_to_end() -> Self {
        Values(
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, f64::NAN))
                .collect(),
        )
    }

    /// All per-layer metrics at 0: a layer that did not run has no work.
    pub fn per_layer() -> Self {
        Values(PER_LAYER.iter().map(|m| (m.name, m.unit, 0.0)).collect())
    }

    /// # Panics
    /// Panics on a name that is not in the table: a typo, not an input.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        slot.2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |(_, _, v)| *v)
    }

    /// Names whose value was never set or is not a finite number.
    pub fn unset(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, _, v)| !v.is_finite())
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Rust's shortest round-trip rendering; JSON has no NaN or infinity, so
/// those (a bug upstream) become null and fail the driver's parse loudly.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(m) => {
                &m.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Seq(s) => s,
            _ => panic!("not an array"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::F64(x) => *x,
            Value::UInt(x) => *x as f64,
            Value::Int(x) => *x as f64,
            _ => panic!("not a number"),
        }
    }

    /// `/BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&raw).expect("valid JSON");

        let e2e = list(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(have, "name")), want.name);
            assert_eq!(text(field(have, "unit")), want.unit);
            assert_eq!(text(field(have, "better")), want.better.as_str());
            assert_eq!(number(field(have, "bound")), want.bound, "{}", want.name);
        }
        let layers = list(field(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(have, "name")), want.name);
            assert_eq!(text(field(have, "unit")), want.unit);
            assert_eq!(text(field(have, "better")), want.better.as_str());
        }
        let workloads = list(field(&doc, "workloads"));
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (have, (name, why)) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(text(field(have, "name")), *name);
            assert_eq!(text(field(have, "why")), *why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            number(field(&doc, "run_seconds")) as u64,
            crate::RUN_SECONDS,
            "suite mode must measure as long as the driver does"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workload::WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn values_render_every_digit_and_flag_gaps() {
        let mut v = Values::end_to_end();
        assert_eq!(v.unset().len(), END_TO_END.len());
        v.set("setup_s", 0.1 + 0.2);
        assert_eq!(v.get("setup_s"), 0.30000000000000004);
        assert!(v
            .to_json()
            .contains("\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}"));
        assert_eq!(v.unset().len(), END_TO_END.len() - 1);
        assert_eq!(json_number(f64::NAN), "null");
        assert!(Values::per_layer().unset().is_empty());
    }
}
