//! Figure 3: the effect of neighborhood size `r` on the number of
//! violations while monitoring Rozenbrock at several error bounds.
//!
//! Paper setup: Rozenbrock, inputs N(0, 0.2²),
//! ε ∈ {0.05, 0.25, 0.95}, violations (neighborhood and safe-zone)
//! counted over a sweep of `r`; the optimal `r*` minimizes their total.

use automon_core::{MonitorConfig, NeighborhoodMode};
use automon_sim::Simulation;

use crate::funcs;
use crate::{f, Scale, Table};

/// Run the Figure 3 sweep.
pub fn run(scale: Scale) -> Vec<Table> {
    let rounds = match scale {
        Scale::Quick => 400,
        Scale::Full => 1000,
    };
    let nodes = 10;
    let bench = funcs::rozenbrock(nodes, rounds, 0xF163);

    let radii: Vec<f64> = (1..=12).map(|i| i as f64 * 0.02).collect();
    let mut table = Table::new(
        "fig3_neighborhood_size",
        &[
            "epsilon",
            "r",
            "neighborhood_violations",
            "safezone_violations",
            "total",
        ],
    );
    let mut optima = Table::new("fig3_optimal_r", &["epsilon", "r_star", "min_total"]);

    for eps in [0.05, 0.25, 0.95] {
        let mut best = (radii[0], usize::MAX);
        for &r in &radii {
            let cfg = MonitorConfig::builder(eps)
                .neighborhood(NeighborhoodMode::Fixed(r))
                .build();
            let run = Simulation::new(bench.f.clone(), cfg).run(&bench.workload);
            let total = run.neighborhood_violations + run.safezone_violations;
            table.push(vec![
                f(eps),
                f(r),
                run.neighborhood_violations.to_string(),
                run.safezone_violations.to_string(),
                total.to_string(),
            ]);
            if total < best.1 {
                best = (r, total);
            }
        }
        optima.push(vec![f(eps), f(best.0), best.1.to_string()]);
    }
    vec![table, optima]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_rows_for_each_epsilon_and_radius() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 3 * 12);
        assert_eq!(tables[1].rows.len(), 3);
    }
}
