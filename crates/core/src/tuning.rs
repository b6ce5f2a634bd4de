//! Neighborhood-size tuning (paper §3.6, Algorithm 2).
//!
//! The optimal neighborhood size `r*` balances neighborhood violations
//! (too small a box) against safe-zone violations (too extreme eigenvalues
//! from too big a box). [`tune_neighborhood_size`] reproduces Algorithm 2:
//! bracket the interesting range by halving/doubling, then grid-search ten
//! radii and keep the one with the fewest total violations. A candidate is
//! scored by whoever runs the protocol — the round driver's
//! `Simulation::tune_r` runs it over a stream prefix at that radius; this
//! module only searches.

/// Violation/communication counts of one protocol run over the tuning
/// prefix at one candidate radius.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Neighborhood violations reported.
    pub neighborhood: usize,
    /// Safe-zone violations reported.
    pub safezone: usize,
    /// Faulty-constraint reports.
    pub faulty: usize,
    /// Full syncs performed (including the initial one).
    pub full_syncs: usize,
    /// Lazy syncs resolved.
    pub lazy_syncs: usize,
    /// Total protocol messages exchanged (both directions).
    pub messages: usize,
}

impl ReplayCounts {
    /// Neighborhood + safe-zone violations (the quantity Algorithm 2
    /// minimizes).
    pub fn total_violations(&self) -> usize {
        self.neighborhood + self.safezone
    }
}

/// Result of the tuning procedure.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The recommended neighborhood size `r̂`.
    pub r: f64,
    /// Every `(r, counts)` pair evaluated on the final grid.
    pub grid: Vec<(f64, ReplayCounts)>,
}

/// Paper Algorithm 2: find an approximately optimal neighborhood size.
///
/// `score(r)` runs the protocol at radius `r` over a small prefix of the
/// streams (the paper uses ~200 rounds of synthetic data / ~1.5% of real
/// data) and returns what it counted; each radius is scored once.
///
/// ```
/// use automon_core::tuning::{tune_neighborhood_size, ReplayCounts};
///
/// // A stand-in protocol: small boxes are left often, big ones are tight.
/// let result = tune_neighborhood_size(|r| ReplayCounts {
///     neighborhood: (0.2 / r) as usize,
///     safezone: (40.0 * r) as usize,
///     ..ReplayCounts::default()
/// });
/// assert!(result.r > 0.03 && result.r < 0.2, "{}", result.r);
/// ```
pub fn tune_neighborhood_size(mut score: impl FnMut(f64) -> ReplayCounts) -> TuningResult {
    // 16 halvings span radii down to ~1.5e-5 and up to 65536× — far
    // beyond any data scale the protocol can use; each step is a full
    // prefix run, so the cap is also the tuning-cost bound.
    const MAX_STEPS: usize = 16;
    // Memoize scores: the bracket loops and the grid revisit radii.
    let mut cache: std::collections::BTreeMap<u64, ReplayCounts> =
        std::collections::BTreeMap::new();
    let mut scored = |r: f64| -> ReplayCounts {
        cache
            .entry(r.to_bits())
            .or_insert_with(|| score(r))
            .clone()
    };

    // b ← 1; while no neighborhood violations, halve.
    let mut b = 1.0f64;
    let mut saw_neighborhood = false;
    for _ in 0..MAX_STEPS {
        if scored(b).neighborhood > 0 {
            saw_neighborhood = true;
            break;
        }
        b /= 2.0;
    }
    // lo ← b; while safe-zone violations persist, halve.
    let mut lo = b;
    for _ in 0..MAX_STEPS {
        if scored(lo).safezone == 0 {
            break;
        }
        lo /= 2.0;
    }
    // hi ← b; while neighborhood violations persist, double.
    // Guard beyond the paper's pseudocode: if the prefix was so quiet
    // that halving never produced a neighborhood violation, the bracket
    // would collapse to a microscopic radius that floods the real run
    // with neighborhood violations. Anchor `hi` back at the default
    // radius instead.
    let mut hi = if saw_neighborhood { b } else { 1.0 };
    for _ in 0..MAX_STEPS {
        if scored(hi).neighborhood == 0 {
            break;
        }
        hi *= 2.0;
    }
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }

    // Grid of 10 radii in [lo, hi]; keep the total-violation minimizer.
    // Ties break toward the LARGEST radius: on a quiet tuning prefix many
    // radii show zero violations, and a too-small r would flood the full
    // run with neighborhood violations later.
    let grid_r: Vec<f64> = (0..10)
        .map(|i| lo + (hi - lo) * i as f64 / 9.0)
        .filter(|&r| r > 0.0)
        .collect();
    let grid: Vec<(f64, ReplayCounts)> =
        grid_r.iter().map(|&r| (r, scored(r))).collect();
    let best = grid
        .iter()
        .rev()
        .min_by_key(|(_, c)| c.total_violations())
        .expect("non-empty grid");
    TuningResult {
        r: best.0,
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(neighborhood: usize, safezone: usize) -> ReplayCounts {
        ReplayCounts {
            neighborhood,
            safezone,
            ..ReplayCounts::default()
        }
    }

    #[test]
    fn tuning_returns_radius_in_bracket() {
        // Neighborhood violations below 0.1, safe-zone violations above 0.3.
        let result = tune_neighborhood_size(|r| {
            counts(
                if r < 0.1 { (1.0 / r) as usize } else { 0 },
                if r > 0.3 { (100.0 * r) as usize } else { 0 },
            )
        });
        // b halves 1 → 1/16 (first neighborhood violation), lo stays there
        // (no safe-zone violation), hi doubles back up to 1/8.
        assert_eq!(result.grid.len(), 10);
        assert_eq!(result.grid[0].0, 0.0625);
        assert_eq!(result.grid[9].0, 0.125);
        let min = result
            .grid
            .iter()
            .map(|(_, c)| c.total_violations())
            .min()
            .unwrap();
        let picked = result.grid.iter().find(|(r, _)| *r == result.r).unwrap();
        assert_eq!(picked.1.total_violations(), min);
    }

    #[test]
    fn ties_break_toward_the_largest_radius() {
        let result = tune_neighborhood_size(|r| counts(usize::from(r < 0.2), 0));
        assert_eq!(result.r, result.grid.last().unwrap().0);
    }

    #[test]
    fn a_quiet_prefix_anchors_the_bracket_at_the_default_radius() {
        // No radius ever shows a violation: without the guard the bracket
        // collapses to 2⁻¹⁶.
        let result = tune_neighborhood_size(|_| counts(0, 0));
        assert_eq!(result.r, 1.0);
    }

    #[test]
    fn each_radius_is_scored_once() {
        let mut seen = Vec::new();
        tune_neighborhood_size(|r| {
            assert!(!seen.contains(&r.to_bits()), "r = {r} scored twice");
            seen.push(r.to_bits());
            counts(usize::from(r < 0.1), usize::from(r > 0.3))
        });
        assert!(seen.len() >= 10);
    }
}
