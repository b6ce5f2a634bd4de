//! Figure 1: the ADCD local constraints for `sin(x)` at `x0 = π/2`.
//!
//! The paper's illustration fixes `L = 0.8`, `U = 1.2` and global
//! curvature extremes `λ⁻ = -1`, `λ⁺ = 1`, and reads off:
//!
//! * admissible region `[0.927, 2.214]` (panel a),
//! * convex-difference safe zone `≈ [0.938, 2.203]` (panel b),
//! * concave-difference safe zone `≈ [1.121, 2.021]` (panel c; the axis
//!   ticks in the paper read 1.1206 and 2.0210).
//!
//! This experiment recomputes all six boundaries by bisection on the
//! actual constraint implementations — digit-level agreement is the
//! strongest check that eqs. (4)/(5) are implemented exactly.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{Curvature, DcKind, MonitoredFunction, SafeZone, ZoneUpdate};
use automon_functions::Sine;

use crate::{f, Scale, Table};

fn zone(dc: DcKind) -> SafeZone {
    let head = ZoneUpdate {
        x0: vec![std::f64::consts::FRAC_PI_2],
        f0: 1.0,
        grad0: vec![0.0],
        l: 0.8,
        u: 1.2,
        dc,
        neighborhood: None,
    };
    SafeZone::new(head, Curvature::Scalar(1.0))
}

/// Bisect the boundary of `inside` within `[lo, hi]`, assuming exactly
/// one crossing.
fn bisect(mut lo: f64, mut hi: f64, inside: impl Fn(f64) -> bool) -> f64 {
    // Establish orientation: `lo` side state.
    let lo_in = inside(lo);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if inside(mid) == lo_in {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Run the Figure 1 boundary computation.
pub fn run(_scale: Scale) -> Vec<Table> {
    let sine: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sine));
    let mut table = Table::new(
        "fig1_safezone_boundaries",
        &["region", "left", "right", "paper_left", "paper_right"],
    );

    // (a) Admissible region: sin(x) ≥ 0.8 around π/2.
    let admissible = |x: f64| x.sin() >= 0.8;
    let a_left = bisect(0.5, std::f64::consts::FRAC_PI_2, admissible);
    let a_right = bisect(std::f64::consts::FRAC_PI_2, 2.6, admissible);
    table.push(vec![
        "admissible".into(),
        f(a_left),
        f(a_right),
        "0.927".into(),
        "2.214".into(),
    ]);

    // (b) Convex-difference safe zone.
    let zc = zone(DcKind::ConvexDiff);
    let f_ref = sine.clone();
    let inside = move |x: f64| zc.contains(f_ref.as_ref(), &[x]);
    let b_left = bisect(0.5, std::f64::consts::FRAC_PI_2, &inside);
    let b_right = bisect(std::f64::consts::FRAC_PI_2, 2.6, &inside);
    table.push(vec![
        "convex difference".into(),
        f(b_left),
        f(b_right),
        "0.938".into(),
        "2.203".into(),
    ]);

    // (c) Concave-difference safe zone.
    let zk = zone(DcKind::ConcaveDiff);
    let f_ref = sine.clone();
    let inside = move |x: f64| zk.contains(f_ref.as_ref(), &[x]);
    let c_left = bisect(0.5, std::f64::consts::FRAC_PI_2, &inside);
    let c_right = bisect(std::f64::consts::FRAC_PI_2, 2.6, &inside);
    table.push(vec![
        "concave difference".into(),
        f(c_left),
        f(c_right),
        "1.1206".into(),
        "2.0210".into(),
    ]);

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_match_paper_to_three_decimals() {
        let t = &run(Scale::Quick)[0];
        let get = |row: usize, col: usize| -> f64 { t.rows[row][col].parse().unwrap() };
        // Admissible region.
        assert!((get(0, 1) - 0.9273).abs() < 1e-3);
        assert!((get(0, 2) - 2.2143).abs() < 1e-3);
        // Convex difference.
        assert!((get(1, 1) - 0.938).abs() < 2e-3);
        assert!((get(1, 2) - 2.203).abs() < 2e-3);
        // Concave difference (paper's axis ticks).
        assert!((get(2, 1) - 1.1206).abs() < 2e-3);
        assert!((get(2, 2) - 2.0210).abs() < 2e-3);
        // Both safe zones sit inside the admissible region.
        assert!(get(1, 1) >= get(0, 1) - 1e-6);
        assert!(get(2, 1) >= get(0, 1) - 1e-6);
        assert!(get(1, 2) <= get(0, 2) + 1e-6);
        assert!(get(2, 2) <= get(0, 2) + 1e-6);
    }
}
