//! Property tests for histogram snapshots: merging is associative and
//! commutative (the fixed-point integer sum makes it exact, no float
//! reassociation error), and concurrent observation over atomics lands
//! on the same snapshot as a single sequential pass.

use automon_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

const BOUNDS: &[f64] = &[0.1, 1.0, 10.0, 100.0];

fn snap_of(samples: &[f64]) -> HistogramSnapshot {
    let h = Histogram::standalone(BOUNDS);
    for &v in samples {
        h.observe(v);
    }
    h.snapshot()
}

fn lane() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..1000.0, 0..64usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// merge(a, b) == merge(b, a).
    #[test]
    fn merge_is_commutative(a in lane(), b in lane()) {
        let (sa, sb) = (snap_of(&a), snap_of(&b));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)).
    #[test]
    fn merge_is_associative(a in lane(), b in lane(), c in lane()) {
        let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
    }

    /// Merging per-lane snapshots equals observing the concatenation,
    /// and observing lanes concurrently into ONE histogram from scoped
    /// threads also equals it — the atomics commute exactly.
    #[test]
    fn parallel_lanes_equal_sequential(lanes in proptest::collection::vec(lane(), 1..6usize)) {
        let all: Vec<f64> = lanes.iter().flatten().copied().collect();
        let sequential = snap_of(&all);

        let mut merged = HistogramSnapshot::empty(BOUNDS);
        for lane in &lanes {
            merged = merged.merge(&snap_of(lane));
        }
        prop_assert_eq!(&merged, &sequential);

        let shared = Histogram::standalone(BOUNDS);
        // The scope joins every lane and re-raises a worker's panic.
        std::thread::scope(|s| {
            for lane in &lanes {
                let h = &shared;
                s.spawn(move || {
                    for &v in lane {
                        h.observe(v);
                    }
                });
            }
        });
        prop_assert_eq!(shared.snapshot(), sequential);
    }
}
