//! Decomposition-cache hot path (DESIGN §3.11): a drifting-mean
//! workload whose reference point cycles through a small lattice of
//! exact `x0` values. `cache_off` pays the full ADCD-X eigen search on
//! every full sync; `cache_hit` replays pre-warmed entries (BTreeMap
//! probe + clone); `churn_slru` is the eviction bookkeeping under a
//! working set twice the capacity. The acceptance bar for the cache is
//! `cache_hit` ≥ 3× faster than `cache_off` at identical results.

use automon_core::{
    adcd, CacheLookup, DecompCache, DecompCacheConfig, EigenSearch, MonitorConfig,
    NeighborhoodBox,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const LATTICE: usize = 8;
const FN_ID: u64 = 1;

fn cfg() -> MonitorConfig {
    MonitorConfig::builder(0.1)
        .eigen_search(EigenSearch {
            probes: 4,
            nm_iters: 12,
            seed: 2,
            ..Default::default()
        })
        .build()
}

/// The drifting mean: `LATTICE` exact reference points stepping along
/// the simplex diagonal, as a slowly wandering stream mean would
/// revisit quantization cells.
fn lattice(d: usize) -> Vec<(Vec<f64>, NeighborhoodBox)> {
    (0..LATTICE)
        .map(|j| {
            let x0: Vec<f64> = (0..d)
                .map(|i| 1.0 / d as f64 + 1e-3 * j as f64 + 1e-5 * i as f64)
                .collect();
            let b = NeighborhoodBox {
                lo: x0.iter().map(|v| (v - 0.05).max(1e-6)).collect(),
                hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
            };
            (x0, b)
        })
        .collect()
}

fn warmed_cache(
    f: &dyn automon_core::MonitoredFunction,
    points: &[(Vec<f64>, NeighborhoodBox)],
    r: f64,
    cfg: &MonitorConfig,
    cache_cfg: DecompCacheConfig,
) -> DecompCache {
    let mut cache = DecompCache::new(cache_cfg);
    for (x0, b) in points {
        let dec = adcd::decompose(f, x0, Some(b), cfg);
        cache.insert(FN_ID, x0, r, b.clone(), dec, None);
    }
    cache
}

fn bench_decomp_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomp_cache");
    group.sample_size(10);
    let cfg = cfg();
    let r = 0.05;

    for d in [10usize, 20] {
        let bench = automon_bench::funcs::kld(d, 2, 30, 1);
        let f = bench.f.as_ref();
        let points = lattice(d);

        // Cold path: every full sync runs the eigen search.
        group.bench_with_input(BenchmarkId::new("cache_off", d), &d, |bch, _| {
            let mut j = 0usize;
            bch.iter(|| {
                let (x0, b) = &points[j % LATTICE];
                j += 1;
                std::hint::black_box(adcd::decompose(f, std::hint::black_box(x0), Some(b), &cfg))
            })
        });

        // Hot path: pre-warmed cache, every lookup is an exact hit.
        group.bench_with_input(BenchmarkId::new("cache_hit", d), &d, |bch, _| {
            let mut cache = warmed_cache(f, &points, r, &cfg, DecompCacheConfig::default());
            let mut j = 0usize;
            bch.iter(|| {
                let (x0, b) = &points[j % LATTICE];
                j += 1;
                match cache.lookup(FN_ID, std::hint::black_box(x0), r, b) {
                    CacheLookup::Exact(dec) => std::hint::black_box(dec),
                    other => panic!("expected exact hit, got {other:?}"),
                }
            })
        });

        // Eviction bookkeeping under a working set 2× capacity.
        group.bench_with_input(BenchmarkId::new("churn_slru", d), &d, |bch, _| {
            let cache_cfg = DecompCacheConfig {
                capacity: LATTICE / 2,
                ..DecompCacheConfig::default()
            };
            let mut cache = warmed_cache(f, &points, r, &cfg, cache_cfg);
            let dec0 = adcd::decompose(f, &points[0].0, Some(&points[0].1), &cfg);
            let mut j = 0usize;
            bch.iter(|| {
                let (x0, b) = &points[j % LATTICE];
                j += 1;
                match cache.lookup(FN_ID, x0, r, b) {
                    CacheLookup::Exact(dec) => std::hint::black_box(dec),
                    CacheLookup::Miss => {
                        cache.insert(FN_ID, x0, r, b.clone(), dec0.clone(), None);
                        std::hint::black_box(dec0.clone())
                    }
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decomp_cache);
criterion_main!(benches);
