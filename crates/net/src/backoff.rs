//! Deterministic jittered backoff for a node's connect retries.
//!
//! One policy: an exponential schedule with *seeded* jitter, so two runs
//! with the same seed sleep the same sequence of durations — chaos and
//! determinism smokes stay byte-identical while still avoiding the
//! thundering-herd resonance that un-jittered retry loops produce.
//!
//! The jitter source is a tiny splitmix/xorshift chain rather than
//! `rand`, so `automon-net` keeps its dependency surface and the
//! sequence is stable across platforms.

use std::time::Duration;

/// Exponential backoff with deterministic jitter.
///
/// Delay for attempt `k` (0-based) is `min(base << k, max)` scaled by a
/// jitter factor in `[0.5, 1.0]` drawn from a seeded xorshift64* chain.
/// [`Backoff::reset`] rewinds the exponent but *not* the jitter chain,
/// so distinct bursts of retries still decorrelate.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempt: u32,
    state: u64,
}

impl Backoff {
    /// A schedule starting at `base`, capping at `max`, jittered from
    /// `seed`. A zero seed is mapped to a fixed non-zero constant
    /// (xorshift has a zero fixpoint).
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        Self {
            base,
            max,
            attempt: 0,
            // splitmix64 scramble: nearby seeds (node ids) give
            // unrelated jitter chains.
            state: splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// Next delay in the schedule; advances the exponent and the jitter
    /// chain.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.max);
        self.attempt = self.attempt.saturating_add(1);
        // Jitter factor in [0.5, 1.0]: scale nanos by (1/2 + u/2).
        let u = self.next_u64();
        let frac = (u >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let nanos = exp.as_nanos() as f64 * (0.5 + frac * 0.5);
        Duration::from_nanos(nanos as u64)
    }

    /// Rewind the exponent after a success; the jitter chain advances
    /// monotonically so the next burst draws fresh factors.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts taken since the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, well-distributed enough for
        // jitter (this is not a statistical RNG).
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 7);
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 7);
        let da: Vec<_> = (0..10).map(|_| a.next_delay()).collect();
        let db: Vec<_> = (0..10).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "seeded backoff must be deterministic");
    }

    #[test]
    fn different_seed_different_jitter() {
        let mut a = Backoff::new(Duration::from_millis(4), Duration::from_secs(1), 1);
        let mut b = Backoff::new(Duration::from_millis(4), Duration::from_secs(1), 2);
        let da: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let db: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn delays_grow_and_cap_within_jitter_band() {
        let base = Duration::from_millis(2);
        let max = Duration::from_millis(16);
        let mut bo = Backoff::new(base, max, 3);
        let mut prev_ceiling = Duration::ZERO;
        for k in 0..8 {
            let d = bo.next_delay();
            let ceiling = base.saturating_mul(1 << k.min(16)).min(max);
            assert!(d <= ceiling, "attempt {k}: {d:?} above {ceiling:?}");
            assert!(d >= ceiling / 2, "attempt {k}: {d:?} under half ceiling");
            assert!(ceiling >= prev_ceiling, "schedule must be monotone");
            prev_ceiling = ceiling;
        }
    }

    #[test]
    fn reset_rewinds_exponent_not_chain() {
        let mut bo = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 9);
        let first = bo.next_delay();
        let _ = bo.next_delay();
        bo.reset();
        assert_eq!(bo.attempt(), 0);
        let again = bo.next_delay();
        // Same ceiling (1ms), but a later jitter draw: almost surely a
        // different duration — and never above the ceiling.
        assert!(again <= Duration::from_millis(1));
        assert_ne!(first, again, "jitter chain must advance across resets");
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut bo = Backoff::new(Duration::from_millis(1), Duration::from_millis(8), 0);
        assert!(bo.next_delay() > Duration::ZERO);
    }
}
