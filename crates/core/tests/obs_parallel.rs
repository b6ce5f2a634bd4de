//! The observability contract across threads: metrics are commutative
//! atomics, so the final registry state — counters, histogram snapshot,
//! rendered exposition — is identical whether the samples were recorded
//! on one thread or striped over any number of them (nodes, the reactor
//! and the metrics server all share one registry in a deployment).

use automon_obs::Telemetry;
use proptest::prelude::*;

const BOUNDS: &[f64] = &[0.1, 1.0, 10.0, 100.0];

/// Record `samples` striped over `workers` scoped threads and return
/// the rendered exposition (registry state is the only output that
/// matters).
fn run_instrumented(samples: &[f64], workers: usize) -> String {
    let tel = Telemetry::enabled();
    let observed = tel.counter("work_items_total", "Items processed");
    let hist = tel.histogram("work_value", "Observed values", BOUNDS);
    std::thread::scope(|s| {
        for k in 0..workers {
            let (c, h) = (observed.clone(), hist.clone());
            s.spawn(move || {
                for &v in samples.iter().skip(k).step_by(workers) {
                    c.inc();
                    h.observe(v);
                }
            });
        }
    });
    tel.prometheus()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One thread and every thread count land on byte-identical
    /// exposition output.
    #[test]
    fn registry_state_is_thread_count_invariant(
        samples in proptest::collection::vec(-5.0f64..500.0, 0..128usize),
        workers in 2usize..9usize,
    ) {
        let sequential = run_instrumented(&samples, 1);
        let threaded = run_instrumented(&samples, workers);
        prop_assert_eq!(threaded, sequential);
    }
}
