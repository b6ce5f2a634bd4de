//! Figure 8 and the §4.5 text table: effectiveness of the
//! neighborhood-size tuning procedure (Algorithm 2).
//!
//! For Rozenbrock and MLP-2, over a sweep of ε and several seeded
//! repeats: messages when monitoring with the grid-searched optimal
//! `r*`, the tuned `r̂`, and fixed radii {0.05, 0.5, 2.5} — plus the
//! mean relative deviation of `r̂` from `r*`.

use automon_core::{MonitorConfig, NeighborhoodMode};
use automon_sim::Simulation;

use crate::funcs::{self, Bench};
use crate::{f, Scale, Table};

const FIXED_RADII: [f64; 3] = [0.05, 0.5, 2.5];

fn build(function: &str, rounds: usize, seed: u64) -> Bench {
    match function {
        "Rozenbrock" => funcs::rozenbrock(10, rounds, seed),
        "MLP-2" => funcs::mlp_d(2, 10, rounds, seed),
        other => panic!("unknown function {other}"),
    }
}

/// The paper's setting: the radius stays where it was put.
fn fixed(eps: f64, r: f64) -> MonitorConfig {
    MonitorConfig::builder(eps)
        .neighborhood(NeighborhoodMode::Fixed(r))
        .build()
}

/// Grid search the true optimal `r*` by running full monitoring at each
/// candidate radius and keeping the message minimizer.
fn optimal_r(bench: &Bench, eps: f64, radii: &[f64]) -> (f64, usize) {
    let mut best = (radii[0], usize::MAX);
    for &r in radii {
        let messages = messages_with_r(bench, eps, r);
        if messages < best.1 {
            best = (r, messages);
        }
    }
    best
}

fn messages_with_r(bench: &Bench, eps: f64, r: f64) -> usize {
    Simulation::new(bench.f.clone(), fixed(eps, r))
        .run(&bench.workload)
        .messages
}

/// Run the Figure 8 study.
pub fn run(scale: Scale) -> Vec<Table> {
    let (rounds, tuning_rounds, repeats) = match scale {
        Scale::Quick => (300, 100, 2),
        Scale::Full => (1000, 200, 5),
    };
    let mut table = Table::new(
        "fig8_tuning_effectiveness",
        &[
            "function",
            "epsilon",
            "seed",
            "r_star",
            "r_hat",
            "msgs_r_star",
            "msgs_r_hat",
            "msgs_r_0.05",
            "msgs_r_0.5",
            "msgs_r_2.5",
        ],
    );
    let mut rel = Table::new(
        "sec4_5_tuning_relative_error",
        &["function", "mean_rel_error_pct"],
    );

    let grid: Vec<f64> = (1..=10).map(|i| i as f64 * 0.05).collect();
    let eps_per_fn: [(&str, Vec<f64>); 2] = [
        ("Rozenbrock", vec![0.1, 0.5, 1.0]),
        ("MLP-2", vec![0.05, 0.15, 0.3]),
    ];

    for (function, epsilons) in &eps_per_fn {
        let mut rel_errs = Vec::new();
        for &eps in epsilons {
            for rep in 0..repeats {
                let seed = 0xF168 + rep as u64 * 101;
                let bench = build(function, rounds, seed);
                let (r_star, msgs_star) = optimal_r(&bench, eps, &grid);

                // Algorithm 2 on the tuning prefix, scored under the mode
                // the `r̂` run below uses.
                let r_hat = Simulation::new(bench.f.clone(), fixed(eps, 1.0))
                    .tune_r(&bench.workload.prefix(tuning_rounds))
                    .r;

                let msgs_hat = messages_with_r(&bench, eps, r_hat);
                let fixed: Vec<usize> = FIXED_RADII
                    .iter()
                    .map(|&r| messages_with_r(&bench, eps, r))
                    .collect();

                rel_errs.push((r_hat - r_star).abs() / r_star.max(1e-9));
                table.push(vec![
                    function.to_string(),
                    f(eps),
                    rep.to_string(),
                    f(r_star),
                    f(r_hat),
                    msgs_star.to_string(),
                    msgs_hat.to_string(),
                    fixed[0].to_string(),
                    fixed[1].to_string(),
                    fixed[2].to_string(),
                ]);
            }
        }
        let mean_rel = 100.0 * rel_errs.iter().sum::<f64>() / rel_errs.len() as f64;
        rel.push(vec![function.to_string(), f(mean_rel)]);
    }
    vec![table, rel]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_r_picks_message_minimizer() {
        let bench = funcs::rozenbrock(3, 80, 7);
        let (r, msgs) = optimal_r(&bench, 0.5, &[0.05, 0.2, 0.8]);
        assert!(msgs < usize::MAX);
        assert!([0.05, 0.2, 0.8].contains(&r));
        // Any fixed radius must use at least as many messages.
        for cand in [0.05, 0.2, 0.8] {
            assert!(messages_with_r(&bench, 0.5, cand) >= msgs);
        }
    }
}
