//! Property tests for the decomposition cache's eviction order, driven
//! through `DecompCache`'s public API only: residency never exceeds
//! capacity and the counters stay consistent, the same operation
//! sequence always produces the same outcomes, and a key that has
//! recurred survives a scan of one-shot inserts — the property a plain
//! LRU lacks, and the reason segmented LRU is the order that was kept.

use automon_core::{CacheLookup, CacheStats, DecompCache, DecompCacheConfig, NeighborhoodBox};
use proptest::prelude::*;

const FN_ID: u64 = 7;
const R: f64 = 0.5;

fn cache(capacity: usize) -> DecompCache {
    DecompCache::new(DecompCacheConfig {
        capacity,
        ..DecompCacheConfig::default()
    })
}

/// Key `id`: one exact reference point per 1e-3 cell.
fn point(id: usize) -> ([f64; 1], NeighborhoodBox) {
    let x = id as f64;
    let b = NeighborhoodBox {
        lo: vec![x - R],
        hi: vec![x + R],
    };
    ([x], b)
}

fn is_resident(cache: &mut DecompCache, id: usize) -> bool {
    let (x0, b) = point(id);
    matches!(cache.lookup(FN_ID, &x0, R, &b), CacheLookup::Exact(_))
}

/// The coordinator's access pattern: look up, and on a miss insert.
/// Returns `(hit, evicted)`.
fn access(cache: &mut DecompCache, id: usize) -> (bool, bool) {
    if is_resident(cache, id) {
        return (true, false);
    }
    let (x0, b) = point(id);
    (false, cache.insert(FN_ID, &x0, R, b, dummy_dec(), None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn residency_is_bounded_and_counters_agree(
        ops in proptest::collection::vec(0usize..32, 1..96),
        cap in 1usize..8,
    ) {
        let mut cache = cache(cap);
        let mut reported_evictions = 0u64;
        for &id in &ops {
            let (_, evicted) = access(&mut cache, id);
            reported_evictions += u64::from(evicted);
            prop_assert!(cache.len() <= cap);
        }
        let CacheStats { hits, misses, insertions, evictions } = cache.stats();
        prop_assert_eq!(hits + misses, ops.len() as u64);
        prop_assert_eq!(insertions - evictions, cache.len() as u64);
        prop_assert_eq!(evictions, reported_evictions);
    }

    /// Same operation sequence ⇒ same hit/eviction outcome at every
    /// step and the same keys resident at the end.
    #[test]
    fn same_ops_give_the_same_eviction_sequence(
        ops in proptest::collection::vec(0usize..48, 1..128),
        cap in 1usize..8,
    ) {
        let (mut a, mut b) = (cache(cap), cache(cap));
        for &id in &ops {
            prop_assert_eq!(access(&mut a, id), access(&mut b, id));
        }
        for id in 0..48 {
            prop_assert_eq!(is_resident(&mut a, id), is_resident(&mut b, id), "key {}", id);
        }
    }

    /// Scan resistance: whatever came before, a key hit twice is still
    /// resident after `capacity` one-shot inserts. (Capacity 1 has no
    /// protected segment to resist with.)
    #[test]
    fn twice_hit_key_survives_a_capacity_long_scan(
        warmup in proptest::collection::vec(0usize..32, 0..64),
        cap in 2usize..10,
    ) {
        let mut cache = cache(cap);
        for &id in &warmup {
            access(&mut cache, id);
        }
        let hot = 1000;
        access(&mut cache, hot);
        prop_assert!(is_resident(&mut cache, hot));
        prop_assert!(is_resident(&mut cache, hot));
        for one_shot in 0..cap {
            let (hit, _) = access(&mut cache, 2000 + one_shot);
            prop_assert!(!hit);
        }
        prop_assert!(is_resident(&mut cache, hot), "scan evicted the recurring key");
    }
}

fn dummy_dec() -> automon_core::DcDecomposition {
    automon_core::DcDecomposition {
        kind: automon_core::AdcdKind::X,
        dc: automon_core::DcKind::ConvexDiff,
        curvature: automon_core::Curvature::Scalar(1.0),
        lambda_min_hat: -1.0,
        lambda_max_hat: 1.0,
        spectral: automon_core::SpectralStats::default(),
    }
}
