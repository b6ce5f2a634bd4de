//! DESIGN §3.9's near-no-op contract for the ADCD hot path, as a count:
//! `decompose_observed` with `Telemetry::disabled()` returns the bits of
//! the bare `decompose` and records nothing, and a live handle moves the
//! `automon_adcd_*` counters by the decomposition's own spectral counts.
//! Configurations: KLD at d = 10 and 40 (ADCD-X) and inner product at
//! d = 10 (ADCD-E). What telemetry costs in time is the benchmark's
//! `obs.enabled_over_disabled`.

use automon_core::{
    adcd, AdcdKind, Curvature, DcDecomposition, EigenSearch, MonitorConfig, NeighborhoodBox,
};
use automon_obs::Telemetry;

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

/// `(f, x0, B)` per case: ADCD-X cases carry a box, ADCD-E ignores it.
fn cases() -> Vec<(automon_bench::funcs::Bench, Vec<f64>, NeighborhoodBox)> {
    let mut out = Vec::new();
    for d in [10usize, 40] {
        let x0 = vec![1.0 / d as f64; d];
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| (v - 0.05).max(0.0)).collect(),
            hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
        };
        out.push((automon_bench::funcs::kld(d, 2, 30, 1), x0, b));
    }
    let x0 = vec![0.05; 10];
    let b = NeighborhoodBox {
        lo: x0.iter().map(|v| v - 0.5).collect(),
        hi: x0.iter().map(|v| v + 0.5).collect(),
    };
    out.push((automon_bench::funcs::inner_product(10, 1, 25, 1), x0, b));
    out
}

fn curvature_bits(c: &Curvature) -> Vec<u64> {
    match c {
        Curvature::Scalar(c) => vec![c.to_bits()],
        Curvature::Quadratic(m) => m.as_slice().iter().map(|v| v.to_bits()).collect(),
    }
}

fn assert_same(a: &DcDecomposition, b: &DcDecomposition, what: &str) {
    assert_eq!(a.kind, b.kind, "{what}");
    assert_eq!(a.dc, b.dc, "{what}");
    assert_eq!(
        curvature_bits(&a.curvature),
        curvature_bits(&b.curvature),
        "{what}"
    );
    assert_eq!(
        a.lambda_min_hat.to_bits(),
        b.lambda_min_hat.to_bits(),
        "{what}"
    );
    assert_eq!(
        a.lambda_max_hat.to_bits(),
        b.lambda_max_hat.to_bits(),
        "{what}"
    );
    assert_eq!(a.spectral, b.spectral, "{what}");
}

#[test]
fn a_disabled_handle_changes_no_bit_and_records_nothing() {
    let cfg = cfg();
    let disabled = Telemetry::disabled();
    for (bench, x0, b) in cases() {
        let bare = adcd::decompose(bench.f.as_ref(), &x0, Some(&b), &cfg);
        let observed = adcd::decompose_observed(bench.f.as_ref(), &x0, Some(&b), &cfg, &disabled);
        assert_same(&observed, &bare, &bench.name);
    }
    assert_eq!(disabled.trace_len(), 0);
    assert_eq!(disabled.ops(), 0);
    assert!(disabled.prometheus().is_empty());
}

#[test]
fn an_enabled_handle_moves_the_adcd_counters() {
    let cfg = cfg();
    for (bench, x0, b) in cases() {
        let tel = Telemetry::enabled();
        let bare = adcd::decompose(bench.f.as_ref(), &x0, Some(&b), &cfg);
        let observed = adcd::decompose_observed(bench.f.as_ref(), &x0, Some(&b), &cfg, &tel);
        assert_same(&observed, &bare, &bench.name);
        let count = |name: &str| tel.counter(name, "").get();
        let sp = bare.spectral;
        assert_eq!(
            count("automon_adcd_decompositions_total"),
            1,
            "{}",
            bench.name
        );
        assert_eq!(
            count("automon_adcd_hessian_replays_total"),
            sp.hessian_materializations
        );
        assert_eq!(count("automon_adcd_eigen_probes_total"), sp.eigen_probes);
        assert_eq!(
            count("automon_adcd_lanczos_iters_total"),
            sp.lanczos_iterations
        );
        assert_eq!(count("automon_adcd_reorth_passes_total"), sp.reorth_passes);
        if bare.kind == AdcdKind::X {
            assert!(
                sp.eigen_probes > 0 && sp.lanczos_iterations > 0,
                "{}",
                bench.name
            );
        }
        assert!(tel.trace_len() > 0, "{}: no adcd_split event", bench.name);
    }
}
