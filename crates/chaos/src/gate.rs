//! The seeded fault ladder as a standalone, transport-pluggable gate.
//!
//! [`ChaosFabric`](crate::ChaosFabric) applies its probabilistic fault
//! ladder at the decoded-frame boundary of the in-process fabric. The
//! reactor transport (`automon_net::Reactor`) exposes the same boundary
//! through the [`FrameGate`] trait; [`LadderGate`] is the ladder
//! factored out so both paths share one implementation — and, more
//! importantly, one *draw sequence*: a plan that replays byte-identically
//! on the in-process fabric replays byte-identically on the reactor,
//! because the ladder consumes exactly one uniform draw per non-immune
//! frame (plus one bounded draw per delay) in both.

use automon_net::{FrameGate, GateVerdict};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::plan::FaultPlan;

/// Per-kind tally of faults the gate has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Frames discarded.
    pub drops: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames pushed behind their queue.
    pub reorders: u64,
    /// Frames parked for later rounds.
    pub delays: u64,
    /// Non-immune frames that crossed the gate (denominator).
    pub gated: u64,
}

impl GateCounts {
    /// Total injected faults.
    pub fn injected(&self) -> u64 {
        self.drops + self.duplicates + self.reorders + self.delays
    }
}

/// The probabilistic fault ladder: one draw, at most one fault per
/// frame.
///
/// Cumulative thresholds walk drop → duplicate → reorder → delay; a
/// delay consumes a second draw for its round count. Immune frames (the
/// late copy of a duplicate, a matured delayed frame) deliver untouched
/// and consume **no** randomness, so the draw sequence is a function of
/// how many first-time frames crossed the gate — the invariant behind
/// seed-exact replay.
#[derive(Debug, Clone)]
pub struct LadderGate {
    drop_rate: f64,
    duplicate_rate: f64,
    reorder_rate: f64,
    delay_rate: f64,
    max_delay_rounds: usize,
    rng: SmallRng,
    counts: GateCounts,
}

impl LadderGate {
    /// The ladder of `plan`, seeded from `plan.seed` exactly as
    /// [`ChaosFabric`](crate::ChaosFabric) seeds its own. The plan's rates
    /// are taken as given: the executor installing the gate has
    /// [admitted](crate::Executor::admit) the plan.
    pub fn new(plan: &FaultPlan) -> Self {
        Self {
            drop_rate: plan.drop_rate,
            duplicate_rate: plan.duplicate_rate,
            reorder_rate: plan.reorder_rate,
            delay_rate: plan.delay_rate,
            max_delay_rounds: plan.max_delay_rounds,
            rng: SmallRng::seed_from_u64(plan.seed),
            counts: GateCounts::default(),
        }
    }

    /// `true` when every rate is zero — the gate never draws and the
    /// transport behaves exactly as if no gate were installed.
    pub fn is_transparent(&self) -> bool {
        self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.delay_rate == 0.0
    }

    /// Faults injected so far.
    pub fn counts(&self) -> GateCounts {
        self.counts
    }

    fn decide(&mut self, immune: bool) -> GateVerdict {
        if immune || self.is_transparent() {
            return GateVerdict::Deliver;
        }
        self.counts.gated += 1;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let mut threshold = self.drop_rate;
        if u < threshold {
            self.counts.drops += 1;
            return GateVerdict::Discard;
        }
        threshold += self.duplicate_rate;
        if u < threshold {
            self.counts.duplicates += 1;
            return GateVerdict::DeliverTwice;
        }
        threshold += self.reorder_rate;
        if u < threshold {
            self.counts.reorders += 1;
            return GateVerdict::Reorder;
        }
        threshold += self.delay_rate;
        if u < threshold {
            let rounds = self.rng.gen_range(1..=self.max_delay_rounds);
            self.counts.delays += 1;
            return GateVerdict::Delay(rounds);
        }
        GateVerdict::Deliver
    }
}

impl FrameGate for LadderGate {
    fn gate(&mut self, immune: bool) -> GateVerdict {
        self.decide(immune)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::seeded(42)
            .with_drop_rate(0.2)
            .with_duplicate_rate(0.1)
            .with_reorder_rate(0.1)
            .with_delay(0.1, 3)
    }

    #[test]
    fn same_seed_same_verdict_sequence() {
        let mut a = LadderGate::new(&plan());
        let mut b = LadderGate::new(&plan());
        let va: Vec<_> = (0..500).map(|_| a.decide(false)).collect();
        let vb: Vec<_> = (0..500).map(|_| b.decide(false)).collect();
        assert_eq!(va, vb, "ladder must replay bit-identically");
        assert!(a.counts().injected() > 0, "rates this high must fire");
    }

    #[test]
    fn immune_frames_consume_no_draw() {
        let mut a = LadderGate::new(&plan());
        let mut b = LadderGate::new(&plan());
        // Interleave immune frames into `a` only: the non-immune verdict
        // sequence must be unchanged.
        let mut va = Vec::new();
        for i in 0..300 {
            if i % 3 == 0 {
                assert_eq!(a.decide(true), GateVerdict::Deliver);
            }
            va.push(a.decide(false));
        }
        let vb: Vec<_> = (0..300).map(|_| b.decide(false)).collect();
        assert_eq!(va, vb, "immune frames must not advance the rng");
    }

    #[test]
    fn transparent_gate_never_draws() {
        let mut g = LadderGate::new(&FaultPlan::seeded(7));
        assert!(g.is_transparent());
        for _ in 0..100 {
            assert_eq!(g.decide(false), GateVerdict::Deliver);
        }
        assert_eq!(g.counts(), GateCounts::default());
    }
}
