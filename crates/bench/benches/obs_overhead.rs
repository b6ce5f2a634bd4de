//! Telemetry overhead on the ADCD hot path (DESIGN §3.9).
//!
//! `decompose_bare` is the exact `full_sync_decompose/adcd_x_kld_seq`
//! configuration from `coordinator_full_sync.rs`; `decompose_disabled_tel`
//! routes through `decompose_observed` with `Telemetry::disabled()`
//! (`tests/disabled_telemetry.rs` asserts it returns the bare path's
//! bits), and `decompose_enabled_tel` prices live counters + one trace event
//! per decomposition. The micro group isolates the per-call primitives.

use automon_core::{adcd, EigenSearch, MonitorConfig, NeighborhoodBox};
use automon_obs::Telemetry;
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

fn bench_decompose_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);

    for d in [10usize, 40] {
        let bench = automon_bench::funcs::kld(d, 2, 30, 1);
        let x0 = vec![1.0 / d as f64; d];
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| (v - 0.05).max(0.0)).collect(),
            hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
        };
        let cfg = cfg();

        group.bench_with_input(BenchmarkId::new("decompose_bare", d), &d, |bch, _| {
            bch.iter(|| {
                std::hint::black_box(adcd::decompose(
                    bench.f.as_ref(),
                    std::hint::black_box(&x0),
                    Some(&b),
                    &cfg,
                ))
            })
        });

        let disabled = Telemetry::disabled();
        group.bench_with_input(
            BenchmarkId::new("decompose_disabled_tel", d),
            &d,
            |bch, _| {
                bch.iter(|| {
                    std::hint::black_box(adcd::decompose_observed(
                        bench.f.as_ref(),
                        std::hint::black_box(&x0),
                        Some(&b),
                        &cfg,
                        &disabled,
                    ))
                })
            },
        );

        let enabled = Telemetry::enabled();
        group.bench_with_input(
            BenchmarkId::new("decompose_enabled_tel", d),
            &d,
            |bch, _| {
                bch.iter(|| {
                    std::hint::black_box(adcd::decompose_observed(
                        bench.f.as_ref(),
                        std::hint::black_box(&x0),
                        Some(&b),
                        &cfg,
                        &enabled,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group.sample_size(10);

    let disabled = Telemetry::disabled();
    let enabled = Telemetry::enabled();
    let c_off = disabled.counter("bench_ops_total", "disabled counter");
    let c_on = enabled.counter("bench_ops_total", "live counter");
    let h_on = enabled.histogram("bench_obs", "live histogram", &[0.5, 5.0, 50.0]);

    group.bench_function("counter_inc_disabled/1", |bch| bch.iter(|| c_off.inc()));
    group.bench_function("counter_inc_enabled/1", |bch| bch.iter(|| c_on.inc()));
    group.bench_function("histogram_observe/1", |bch| {
        bch.iter(|| h_on.observe(std::hint::black_box(3.7)))
    });
    group.bench_function("event_disabled/1", |bch| {
        bch.iter(|| disabled.event("noop", &[("x", 1u64.into())]))
    });
    group.bench_function("event_enabled/1", |bch| {
        bch.iter(|| enabled.event("tick", &[("x", 1u64.into())]))
    });
    group.bench_function("span_disabled/1", |bch| {
        bch.iter(|| {
            let s = disabled.span_begin("noop", automon_obs::SpanId::NONE, &[]);
            disabled.span_end(s, &[]);
        })
    });
    group.bench_function("span_enabled/1", |bch| {
        bch.iter(|| {
            let s = enabled.span_begin("tick", automon_obs::SpanId::NONE, &[("x", 1u64.into())]);
            enabled.span_end(s, &[]);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_decompose_overhead, bench_primitives);
criterion_main!(benches);
