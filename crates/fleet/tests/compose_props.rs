//! Property: weighted composition of shard partial means is *bitwise*
//! equal to the flat global mean, provided both sides follow the
//! canonical shard-major summation order (DESIGN §3.14). This is the
//! contract that lets a fleet run and a flat run share one truth
//! series; it holds for any shard count, round-robin and adopted maps
//! alike, and any rebalancing history, because the order is fixed by
//! the *current* shard map, not by how it came to be.

use automon_fleet::compose::{compose_global_mean, flat_global_mean, partials_of};
use automon_fleet::ShardMap;
use proptest::prelude::*;

fn assert_bitwise_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-robin maps: composed == flat, bitwise, for random data
    /// spanning several orders of magnitude (where FP non-associativity
    /// actually bites).
    #[test]
    fn round_robin_composition_is_bitwise_exact(
        shards in 1usize..8,
        extra in 0usize..20,
        dim in 1usize..5,
        scale in proptest::collection::vec(-9i32..9, 1..5),
        seed in proptest::collection::vec(-1.0f64..1.0, 1..200),
    ) {
        let streams = shards + extra;
        let map = ShardMap::round_robin(streams, shards);
        let xs: Vec<Vec<f64>> = (0..streams)
            .map(|g| {
                (0..dim)
                    .map(|k| {
                        let s = seed[(g * dim + k) % seed.len()];
                        let e = scale[(g + k) % scale.len()];
                        s * 10f64.powi(e)
                    })
                    .collect()
            })
            .collect();
        let composed = compose_global_mean(&partials_of(&map, &xs));
        let flat = flat_global_mean(&map, &xs);
        assert_bitwise_eq(&composed, &flat);
    }

    /// Rebalancing moves members between shards but the contract is a
    /// property of the *resulting* map: after an adoption, composition
    /// under the new map still matches the flat reference bitwise.
    #[test]
    fn composition_survives_adoption_bitwise(
        shards in 2usize..6,
        extra in 0usize..15,
        from in 0usize..6,
        seed in proptest::collection::vec(-10.0f64..10.0, 1..80),
    ) {
        let streams = shards + extra;
        let mut map = ShardMap::round_robin(streams, shards);
        let from = from % shards;
        let to = (from + 1) % shards;
        map.adopt(from, to);
        let xs: Vec<Vec<f64>> = (0..streams)
            .map(|g| vec![seed[g % seed.len()], seed[(g + 3) % seed.len()]])
            .collect();
        let composed = compose_global_mean(&partials_of(&map, &xs));
        let flat = flat_global_mean(&map, &xs);
        assert_bitwise_eq(&composed, &flat);
    }
}
