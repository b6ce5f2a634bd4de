//! §4.4 coordinator runtime: full-sync cost. ADCD-X is dominated by the
//! extreme-eigenvalue search and grows with dimension; ADCD-E performs
//! its eigendecomposition once, so full syncs stay cheap and flat.

use automon_core::{adcd, EigenSearch, MonitorConfig, NeighborhoodBox};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

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

fn bench_full_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_sync_decompose");
    group.sample_size(10);

    // ADCD-X on KLD (non-constant Hessian): λ search over the box, on
    // the default configuration. The `_seq` in the key dates from when
    // a threaded variant ran beside it; it is kept so the snapshot
    // trajectory (ROADMAP "Perf trajectory") stays comparable.
    let cfg = cfg();
    for d in [10usize, 20, 40] {
        let bench = automon_bench::funcs::kld(d, 2, 30, 1);
        let x0 = vec![1.0 / d as f64; d];
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| (v - 0.05).max(0.0)).collect(),
            hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
        };
        group.bench_with_input(BenchmarkId::new("adcd_x_kld_seq", d), &d, |bch, _| {
            bch.iter(|| {
                std::hint::black_box(adcd::decompose(
                    bench.f.as_ref(),
                    std::hint::black_box(&x0),
                    Some(&b),
                    &cfg,
                ))
            })
        });
    }

    // ADCD-E on the inner product: one eigendecomposition.
    for d in [10usize, 40, 100] {
        let bench = automon_bench::funcs::inner_product(d, 2, 30, 1);
        let x0 = vec![0.1; d];
        group.bench_with_input(BenchmarkId::new("adcd_e_inner_product", d), &d, |bch, _| {
            bch.iter(|| {
                std::hint::black_box(adcd::decompose(
                    bench.f.as_ref(),
                    std::hint::black_box(&x0),
                    None,
                    &cfg,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_sync);
criterion_main!(benches);
