//! Design-choice ablations beyond the paper's Figure 9, exercising the
//! claims the paper makes in passing:
//!
//! * **DC heuristic** (§3.4): choosing convex vs concave difference by
//!   the heuristic should beat always-convex / always-concave ("reduced
//!   safe zone violations by up to 30%" in the paper's preliminary
//!   experiments).
//! * **ADCD-E vs ADCD-X** (§3.2): for constant-Hessian functions,
//!   forcing ADCD-X must produce at least as many violations as ADCD-E
//!   (the paper proves the X safe zone is a subset of the E safe zone).
//! * **Exact vs Gershgorin eigen bounds** (§6 extension): Gershgorin is
//!   cheaper per full sync but more conservative, so it trades messages
//!   for coordinator time.
//! * **Hybrid Periodic fallback** (§6 extension): under thrashing
//!   (tiny ε on fast data) the fallback must cap communication.

use automon_core::{AdcdKind, DcKind, MonitorConfig};
use automon_sim::{HybridConfig, Simulation};

use crate::funcs;
use crate::{f, Scale, Table};

/// DC heuristic vs forced representations, on the paper's own example:
/// sin(x) (§3.4), with the reference point sweeping across convex and
/// concave stretches so the per-sync choice matters.
fn dc_heuristic(scale: Scale) -> Table {
    let rounds = match scale {
        Scale::Quick => 600,
        Scale::Full => 1500,
    };
    let mut table = Table::new(
        "ablation_dc_heuristic",
        &["function", "policy", "messages", "safezone_violations", "max_error"],
    );
    // Nodes drift together through several periods of sin, with small
    // per-node jitter.
    let raw: Vec<Vec<Vec<f64>>> = (0..6)
        .map(|i| {
            let mut rng = automon_data::NormalSampler::new(0xAB01 + i as u64);
            (0..rounds)
                .map(|t| {
                    vec![t as f64 / rounds as f64 * 4.0 * std::f64::consts::PI
                        + rng.normal(0.0, 0.05)]
                })
                .collect()
        })
        .collect();
    let bench = funcs::Bench {
        name: "sin(x)".into(),
        f: std::sync::Arc::new(automon_autodiff::AutoDiffFn::new(
            automon_functions::Sine,
        )),
        workload: automon_sim::Workload::from_dense(&raw),
    };
    let eps = 0.25;
    let policies: [(&str, MonitorConfig); 3] = [
        ("heuristic", MonitorConfig::builder(eps).build()),
        (
            "always-convex",
            MonitorConfig::builder(eps).dc(DcKind::ConvexDiff).build(),
        ),
        (
            "always-concave",
            MonitorConfig::builder(eps).dc(DcKind::ConcaveDiff).build(),
        ),
    ];
    for (name, cfg) in policies {
        let stats = Simulation::new(bench.f.clone(), cfg).run(&bench.workload);
        table.push(vec![
            bench.name.clone(),
            name.into(),
            stats.messages.to_string(),
            stats.safezone_violations.to_string(),
            f(stats.max_error),
        ]);
    }
    table
}

/// ADCD-E vs forced ADCD-X on a constant-Hessian function.
fn e_vs_x(scale: Scale) -> Table {
    let rounds = match scale {
        Scale::Quick => 400,
        Scale::Full => 1000,
    };
    let mut table = Table::new(
        "ablation_adcd_e_vs_x",
        &["function", "variant", "messages", "safezone_violations", "max_error"],
    );
    let bench = funcs::inner_product(10, 6, rounds, 0xAB02);
    let eps = 0.2;
    for (name, cfg) in [
        ("ADCD-E (auto)", MonitorConfig::builder(eps).build()),
        (
            "ADCD-X (forced)",
            MonitorConfig::builder(eps).adcd(AdcdKind::X).build(),
        ),
    ] {
        let stats = Simulation::new(bench.f.clone(), cfg).run(&bench.workload);
        table.push(vec![
            bench.name.clone(),
            name.into(),
            stats.messages.to_string(),
            stats.safezone_violations.to_string(),
            f(stats.max_error),
        ]);
    }
    table
}

/// Exact vs Gershgorin per-probe eigen computation.
fn eigen_objective(scale: Scale) -> Table {
    let rounds = match scale {
        Scale::Quick => 300,
        Scale::Full => 800,
    };
    let mut table = Table::new(
        "ablation_eigen_objective",
        &["function", "objective", "messages", "full_sync_ms_total", "max_error"],
    );
    let bench = funcs::kld(10, 6, rounds, 0xAB03);
    let eps = 0.1;
    for (name, cfg) in [
        ("exact", MonitorConfig::builder(eps).build()),
        ("gershgorin", MonitorConfig::builder(eps).gershgorin_bounds().build()),
    ] {
        let t0 = std::time::Instant::now();
        let stats = Simulation::new(bench.f.clone(), cfg).run(&bench.workload);
        table.push(vec![
            bench.name.clone(),
            name.into(),
            stats.messages.to_string(),
            f(t0.elapsed().as_secs_f64() * 1e3),
            f(stats.max_error),
        ]);
    }
    table
}

/// Hybrid fallback under thrashing vs plain AutoMon.
fn hybrid_fallback(scale: Scale) -> Table {
    let rounds = match scale {
        Scale::Quick => 400,
        Scale::Full => 1000,
    };
    let mut table = Table::new(
        "ablation_hybrid_fallback",
        &["policy", "messages", "fallbacks", "periodic_rounds", "max_error"],
    );
    // Quadratic with the violent outlier node and a tight bound: plain
    // AutoMon thrashes; the hybrid caps communication.
    let bench = funcs::quadratic(10, 6, rounds, 0xAB04);
    let eps = 0.01;
    let plain = Simulation::new(bench.f.clone(), MonitorConfig::builder(eps).build())
        .run(&bench.workload);
    table.push(vec![
        "AutoMon".into(),
        plain.messages.to_string(),
        "0".into(),
        "0".into(),
        f(plain.max_error),
    ]);
    let hybrid = Simulation::new(bench.f.clone(), MonitorConfig::builder(eps).build()).run_hybrid(
        &bench.workload,
        HybridConfig {
            switch_threshold: 0.7,
            rate_window: 20,
            period: 1,
            cooldown: 60,
        },
    );
    table.push(vec![
        "Hybrid(AutoMon→Periodic)".into(),
        hybrid.run.messages.to_string(),
        hybrid.fallbacks.to_string(),
        hybrid.periodic_rounds.to_string(),
        f(hybrid.run.max_error),
    ]);
    table
}

/// All design ablations.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![
        dc_heuristic(scale),
        e_vs_x(scale),
        eigen_objective(scale),
        hybrid_fallback(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_dominates_x_on_constant_hessian() {
        let t = e_vs_x(Scale::Quick);
        let msgs: Vec<usize> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // ADCD-E (row 0) must use no more messages than forced ADCD-X.
        assert!(msgs[0] <= msgs[1], "{msgs:?}");
    }

    #[test]
    fn gershgorin_is_no_less_safe() {
        let t = eigen_objective(Scale::Quick);
        for row in &t.rows {
            let err: f64 = row[4].parse().unwrap();
            assert!(err <= 0.1 + 1e-9, "{row:?}");
        }
    }
}
