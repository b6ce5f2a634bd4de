//! The decomposition-cache bit-identity contract (DESIGN §3.11):
//! enabling the cache must leave the monitoring output bit-identical to
//! a cache-off run. A hit replays a stored decomposition whose inputs
//! matched bitwise, so the protocol cannot observe the cache at all.
//!
//! Every cached run here also proves, through the telemetry counters,
//! that the cache was actually consulted — a parity test passes
//! vacuously against a cache that `full_sync` never reaches.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_chaos::FaultPlan;
use automon_core::{DecompCacheConfig, MonitorConfig, MonitoredFunction};
use automon_data::air_quality::{self, AirQualityParams};
use automon_data::synthetic::RozenbrockDataset;
use automon_data::windowed_mean_series;
use automon_functions::{KlDivergence, Rozenbrock};
use automon_obs::{parse_prometheus, parse_trace, value_of, JsonVal, Telemetry};
use automon_sim::{RunStats, Simulation, Workload};

/// Rozenbrock: non-constant Hessian, so full syncs run ADCD-X and the
/// cache sits on the hot path.
fn rozenbrock_setup() -> (Arc<dyn MonitoredFunction>, Workload) {
    let raw = RozenbrockDataset::generate(4, 140, 21);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
    (f, w)
}

/// KLD over air-quality histograms: the other non-constant-Hessian
/// §4.2 function. (A constant-Hessian function decomposes once through
/// ADCD-E and never consults the cache, so it cannot test it.)
fn kld_setup() -> (Arc<dyn MonitoredFunction>, Workload) {
    let (nodes, window, bins) = (4, 40, 3);
    let streams = air_quality::generate(&AirQualityParams {
        sites: nodes,
        hours: 120 + window - 1,
        seed: 5,
    });
    let w = Workload::from_dense(&air_quality::kld_series(&streams, window, bins));
    let f: Arc<dyn MonitoredFunction> =
        Arc::new(AutoDiffFn::new(KlDivergence::with_paper_tau(2 * bins, nodes, window)));
    (f, w)
}

fn cfg_with(epsilon: f64, cached: bool) -> MonitorConfig {
    let b = MonitorConfig::builder(epsilon);
    if cached {
        b.decomp_cache(DecompCacheConfig::default()).build()
    } else {
        b.build()
    }
}

/// One instrumented run: the stats, the JSONL trace, and the cache's
/// `(hits, misses)` as the exposition reports them.
fn observed(sim: Simulation, w: &Workload) -> (RunStats, String, (u64, u64)) {
    let tel = Telemetry::enabled();
    let stats = sim.with_telemetry(tel.clone()).run(w);
    let samples = parse_prometheus(&tel.prometheus()).expect("well-formed exposition");
    let count = |name: &str| value_of(&samples, name, &[]).expect("counter exported") as u64;
    let counters = (
        count("automon_coord_decomp_cache_hits_total"),
        count("automon_coord_decomp_cache_misses_total"),
    );
    (stats, tel.trace_jsonl(), counters)
}

#[test]
fn cache_on_matches_cache_off_on_section_4_2_functions() {
    type Setup = fn() -> (Arc<dyn MonitoredFunction>, Workload);
    for (name, setup, epsilon) in [
        ("rozenbrock", rozenbrock_setup as Setup, 0.2),
        ("kld", kld_setup as Setup, 0.02),
    ] {
        let (f, w) = setup();
        let (baseline, plain_trace, untouched) =
            observed(Simulation::new(f.clone(), cfg_with(epsilon, false)), &w);
        assert!(baseline.full_syncs > 1, "{name}: workload must sync");
        assert_eq!(untouched, (0, 0), "{name}: cache off must not count lookups");

        let (cached, cached_trace, (hits, misses)) =
            observed(Simulation::new(f, cfg_with(epsilon, true)), &w);
        assert!(misses > 0, "{name}: the cached run never consulted the cache");
        assert_eq!(cached, baseline, "{name} diverged with the cache on");
        // Byte-identical trace unless something hit (the coarse KLD
        // histograms do recur bitwise; the drifting Rozenbrock means
        // never do), and then identical in every protocol event.
        assert_eq!(cached_trace == plain_trace, hits == 0, "{name}: {hits} hits");
        assert_eq!(protocol_view(&cached_trace), protocol_view(&plain_trace), "{name}");
    }
}

/// The trace with the lines a hit elides projected away: the
/// `adcd_decompose` span and its `adcd_split` event (skipped on a
/// hit), the `decomp_cache` hit marker, and the stamps those shift —
/// `seq`, the deterministic-op clock (`ops`, `span_ops`) and span-id
/// numbering (renumbered here in order of first appearance). What is
/// left is every protocol event: violations, handles, syncs, comm.
fn protocol_view(trace: &str) -> Vec<String> {
    let mut skipped_spans = BTreeSet::new();
    let mut renumbered = BTreeMap::from([(0u64, 0usize)]);
    let mut view = Vec::new();
    for ev in parse_trace(trace).expect("well-formed trace") {
        if ev.kind == "span_begin" && ev.str("name") == Some("adcd_decompose") {
            skipped_spans.insert(ev.u64("span").expect("span id"));
            continue;
        }
        let in_skipped = ev.u64("span").is_some_and(|s| skipped_spans.contains(&s));
        if in_skipped || ev.kind == "adcd_split" || ev.kind == "decomp_cache" {
            continue;
        }
        let mut line = format!("round {} {}", ev.round, ev.kind);
        for (key, value) in &ev.fields {
            match (key.as_str(), value) {
                ("span_ops", _) => {}
                ("span" | "parent", JsonVal::U64(id)) => {
                    let next = renumbered.len();
                    let id = renumbered.entry(*id).or_insert(next);
                    line.push_str(&format!(" {key}={id}"));
                }
                _ => line.push_str(&format!(" {key}={value:?}")),
            }
        }
        view.push(line);
    }
    view
}

/// The workload the cache exists for: every node flips between two
/// bit-equal local states, so full syncs recur at bit-identical
/// reference points and the second lap onward is served from the cache.
#[test]
fn recurring_workload_hits_and_stays_identical_to_cache_off() {
    let states = [
        [[0.9, 1.1], [-0.6, 0.2]],
        [[1.2, 0.7], [-0.3, 0.5]],
        [[0.8, 1.4], [-0.8, -0.1]],
    ];
    let series: Vec<Vec<Vec<f64>>> = states
        .iter()
        .map(|ab| (0..60).map(|t| ab[(t / 5) % 2].to_vec()).collect())
        .collect();
    let w = Workload::from_dense(&series);
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
    let (plain, plain_trace, _) = observed(Simulation::new(f.clone(), cfg_with(0.2, false)), &w);
    let (cached, cached_trace, (hits, misses)) = observed(Simulation::new(f, cfg_with(0.2, true)), &w);
    assert!(misses > 0, "first lap must miss");
    assert!(hits > 0, "recurring reference points must hit ({misses} misses)");
    assert_eq!(hits + misses, plain.full_syncs as u64, "one lookup per full sync");
    assert_eq!(cached, plain);
    assert_ne!(cached_trace, plain_trace, "hits elide their adcd_decompose spans");
    assert_eq!(protocol_view(&cached_trace), protocol_view(&plain_trace));
}

#[test]
fn chaos_run_with_cache_is_byte_identical_under_fixed_seed() {
    let plan = || {
        FaultPlan::seeded(0xC0FFEE)
            .with_drop_rate(0.08)
            .with_duplicate_rate(0.03)
            .with_delay(0.03, 2)
            .with_crash(2, 30, Some(60))
            .with_partition(vec![1], 15, 25)
    };
    let run = || {
        let (f, w) = rozenbrock_setup();
        let tel = Telemetry::enabled();
        let report = Simulation::new(f, cfg_with(0.2, true))
            .with_plan(plan())
            .with_telemetry(tel.clone())
            .run_report(&w);
        (report, tel.trace_jsonl(), tel.prometheus())
    };
    let (report_a, trace_a, metrics_a) = run();
    let (report_b, trace_b, metrics_b) = run();
    assert!(!trace_a.is_empty(), "instrumented run must emit events");
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(report_a.fault_trace, report_b.fault_trace);
    assert_eq!(trace_a, trace_b);
    assert_eq!(metrics_a, metrics_b);
}

#[test]
fn chaos_with_cache_matches_chaos_without_cache() {
    let (f, w) = rozenbrock_setup();
    let plain = Simulation::new(f.clone(), cfg_with(0.2, false))
        .with_plan(FaultPlan::none())
        .run_report(&w);
    let cached = Simulation::new(f, cfg_with(0.2, true))
        .with_plan(FaultPlan::none())
        .run_report(&w);
    assert_eq!(cached, plain);
}
