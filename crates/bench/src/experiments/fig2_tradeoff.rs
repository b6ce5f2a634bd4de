//! Figure 2: the neighborhood-size / safe-zone-size tradeoff.
//!
//! The paper's Figure 2 is a schematic: a small neighborhood `B` yields a
//! large safe zone (but many neighborhood violations), a large `B` yields
//! a small safe zone. Here the picture is *computed* for a real function
//! (Rozenbrock at a reference point): for each radius we run ADCD-X over
//! `B`, build the actual safe zone, and measure the areas by grid
//! sampling — emitting both the area table and an SVG rendering of
//! admissible region, box, and zone.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{adcd, MonitorConfig, MonitoredFunction, NeighborhoodBox, SafeZone, ZoneUpdate};
use automon_functions::Rozenbrock;

use crate::plot::{Chart, Series};
use crate::{f, results_dir, Scale, Table};

const GRID: usize = 90;
const SPAN: f64 = 0.8; // half-width of the sampled square around x0

struct ZoneGeometry {
    admissible: Vec<(f64, f64)>,
    in_zone: Vec<(f64, f64)>,
    box_corners: (f64, f64, f64, f64),
    admissible_count: usize,
    zone_count: usize,
    zone_in_box_count: usize,
}

fn geometry(r: f64, eps: f64) -> ZoneGeometry {
    let func: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
    let x0 = vec![0.1, 0.05];
    let f0 = func.eval(&x0);
    let (_, grad0) = func.eval_grad(&x0);
    let b = NeighborhoodBox {
        lo: vec![x0[0] - r, x0[1] - r],
        hi: vec![x0[0] + r, x0[1] + r],
    };
    let cfg = MonitorConfig::builder(eps).build();
    let dec = adcd::decompose(func.as_ref(), &x0, Some(&b), &cfg);
    // Zone without the box, so membership can be classified separately.
    let zone = SafeZone::new(
        ZoneUpdate {
            x0: x0.clone(),
            f0,
            grad0,
            l: f0 - eps,
            u: f0 + eps,
            dc: dec.dc,
            neighborhood: None,
        },
        dec.curvature.clone(),
    );

    let mut admissible = Vec::new();
    let mut in_zone = Vec::new();
    let (mut n_adm, mut n_zone, mut n_zone_box) = (0usize, 0usize, 0usize);
    for i in 0..GRID {
        for j in 0..GRID {
            let x = x0[0] - SPAN + 2.0 * SPAN * i as f64 / (GRID - 1) as f64;
            let y = x0[1] - SPAN + 2.0 * SPAN * j as f64 / (GRID - 1) as f64;
            let p = [x, y];
            let v = func.eval(&p);
            let adm = (v - f0).abs() <= eps;
            let zone_ok = zone.contains(func.as_ref(), &p);
            if adm {
                n_adm += 1;
                admissible.push((x, y));
            }
            if zone_ok {
                n_zone += 1;
                if b.contains(&p) {
                    n_zone_box += 1;
                }
                in_zone.push((x, y));
            }
        }
    }
    ZoneGeometry {
        admissible,
        in_zone,
        box_corners: (x0[0] - r, x0[1] - r, x0[0] + r, x0[1] + r),
        admissible_count: n_adm,
        zone_count: n_zone,
        zone_in_box_count: n_zone_box,
    }
}

/// Run the Figure 2 computation.
pub fn run(_scale: Scale) -> Vec<Table> {
    let eps = 0.5;
    let mut table = Table::new(
        "fig2_neighborhood_tradeoff",
        &[
            "r",
            "admissible_pts",
            "safezone_pts",
            "safezone_in_box_pts",
            "zone_fraction_of_admissible",
        ],
    );
    for (label, r) in [("small", 0.08), ("large", 0.8)] {
        let g = geometry(r, eps);
        table.push(vec![
            format!("{r} ({label})"),
            g.admissible_count.to_string(),
            g.zone_count.to_string(),
            g.zone_in_box_count.to_string(),
            f(g.zone_count as f64 / g.admissible_count.max(1) as f64),
        ]);

        // SVG: admissible cloud, safe-zone cloud, box outline.
        let mut chart = Chart::new(
            &format!("fig2 — Rozenbrock zone, r = {r} ({label})"),
            "x1",
            "x2",
        );
        chart.push(Series::scatter("admissible", g.admissible));
        chart.push(Series::scatter("safe zone", g.in_zone));
        let (lx, ly, hx, hy) = g.box_corners;
        chart.push(Series::line(
            "neighborhood B",
            vec![(lx, ly), (hx, ly), (hx, hy), (lx, hy), (lx, ly)],
        ));
        if let Err(e) = chart.write_svg(&results_dir(), &format!("fig2_zone_r_{label}")) {
            eprintln!("(could not write fig2 chart: {e})");
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_neighborhood_gives_larger_zone() {
        // The paper's Figure 2 claim, computed: the safe zone from the
        // small box covers at least as much of the admissible region as
        // the one from the large box.
        let small = geometry(0.08, 0.5);
        let large = geometry(0.8, 0.5);
        assert!(
            small.zone_count >= large.zone_count,
            "small-r zone {} pts vs large-r zone {} pts",
            small.zone_count,
            large.zone_count
        );
        // Both zones stay inside the admissible region.
        assert!(small.zone_count <= small.admissible_count);
        assert!(large.zone_count <= large.admissible_count);
    }
}
