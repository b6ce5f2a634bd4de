//! The seeded fault ladder, shared by every link that injects frame
//! faults.
//!
//! `automon-sim`'s chaos link applies the probabilistic fault ladder to
//! every frame crossing the in-process fabric, and its reactor link to
//! every node frame the reactor decodes. Both ask [`LadderGate::gate`]
//! for the verdict of each fresh frame they pop from their
//! [`FaultQueue`](crate::FaultQueue), which carries it out. So both paths share one implementation and, more importantly, one *draw
//! sequence*: exactly one uniform draw per fresh frame (plus one bounded
//! draw per delay), whichever link asks.

use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::plan::FaultPlan;

/// What the ladder decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// Deliver normally.
    Deliver,
    /// Deliver now and a copy behind the frames already queued.
    DeliverTwice,
    /// Deliver the frame behind the frames already queued, out of order.
    Reorder,
    /// Park the frame for this many protocol rounds, then deliver it.
    Delay(usize),
    /// Discard the frame; the sender observes nothing.
    Discard,
}

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
    /// Frames that drew a verdict (denominator).
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
/// delay consumes a second draw for its round count. Only fresh frames
/// are gated (a [`FaultQueue`](crate::FaultQueue) re-injects the others
/// untouched), so the draw sequence is a function of how many first-time
/// frames crossed the gate — the invariant behind seed-exact replay.
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
    /// The ladder of `plan`, seeded from `plan.seed`: every link that
    /// gates with it draws the same sequence. The plan's rates are taken
    /// as given: the executor installing the gate has
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

    /// Faults injected so far.
    pub fn counts(&self) -> GateCounts {
        self.counts
    }

    /// Decide what happens to one fresh frame. A ladder whose rates are
    /// all zero delivers every frame and consumes no randomness.
    pub fn gate(&mut self) -> GateVerdict {
        let transparent = self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.delay_rate == 0.0;
        if transparent {
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
        let va: Vec<_> = (0..500).map(|_| a.gate()).collect();
        let vb: Vec<_> = (0..500).map(|_| b.gate()).collect();
        assert_eq!(va, vb, "ladder must replay bit-identically");
        assert!(a.counts().injected() > 0, "rates this high must fire");
    }

    #[test]
    fn transparent_gate_never_draws() {
        // A plan with no rates: every frame delivers, none is counted as
        // gated, and the rng is never touched.
        let mut g = LadderGate::new(&FaultPlan::seeded(7));
        for _ in 0..100 {
            assert_eq!(g.gate(), GateVerdict::Deliver);
        }
        assert_eq!(g.counts(), GateCounts::default());
    }
}
