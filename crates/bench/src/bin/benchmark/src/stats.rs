//! Order statistics and the input hash.
//!
//! Every timing the benchmark publishes is a median; tail percentiles are
//! only published at a rank that has at least [`TAIL_SAMPLES`] samples
//! beyond it, so a "p99" over 300 samples silently becomes the highest
//! percentile those samples can support.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths).
/// `None` for an empty slice. Sorts `v` in place.
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// [`median`] over a borrowed slice, `0.0` when empty — for metrics whose
/// layer did not run on this workload.
pub fn median_or_zero(v: &[f64]) -> f64 {
    median(&mut v.to_vec()).unwrap_or(0.0)
}

/// The highest percentile `≤ p` that still has [`TAIL_SAMPLES`] samples
/// beyond its rank, and the fraction actually used. `None` when even the
/// median cannot satisfy the rule (fewer than `2 · TAIL_SAMPLES` samples).
pub fn guarded_percentile(v: &mut [f64], p: f64) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    v.sort_unstable_by(f64::total_cmp);
    let max_rank = n - TAIL_SAMPLES;
    let rank = ((p * n as f64).ceil() as usize).clamp(1, max_rank);
    Some((v[rank - 1], rank as f64 / n as f64))
}

/// `(max − min) / median`: how far single passes spread around the
/// published median.
pub fn rel_spread(v: &[f64]) -> f64 {
    let Some(med) = median(&mut v.to_vec()) else {
        return 0.0;
    };
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if med == 0.0 {
        0.0
    } else {
        (hi - lo) / med
    }
}

/// `|a − b| / |a|`, the relative difference `--sets 2` prints beside each
/// bound (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// FNV-1a over the bit patterns of the generated inputs: the workload
/// identity guard. Any change to `automon_data` or to the generators here
/// that reshapes a workload changes this value for a given seed.
#[derive(Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.write_u64(x.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly ten beyond it and is granted.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(guarded_percentile(&mut v, 0.99), Some((990.0, 0.99)));
        // 300 samples cannot support p99: the rank is pulled down to the
        // last one with ten samples above it.
        let mut v: Vec<f64> = (1..=300).map(f64::from).collect();
        let (value, used) = guarded_percentile(&mut v, 0.99).unwrap();
        assert_eq!(value, 290.0);
        assert!((used - 290.0 / 300.0).abs() < 1e-12);
        // Below twenty samples nothing is reported at all.
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(guarded_percentile(&mut v, 0.5), None);
    }

    #[test]
    fn spread_and_rel_diff() {
        assert!((rel_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_spread(&[]), 0.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(10.0, 11.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv64::new();
        a.write_f64s(&[1.0, 2.0]);
        let mut b = Fnv64::new();
        b.write_f64s(&[2.0, 1.0]);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(0);
        assert_eq!(c.finish(), 0xa8c7_f832_281a_39c5);
    }
}
