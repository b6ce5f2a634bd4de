//! The fault queue: the one place a ladder verdict moves a frame.
//!
//! `automon-sim`'s chaos and reactor links keep their frames in a
//! [`FaultQueue`] and gate each when they pop it. Only a fresh frame (one the link pushed) is offered for a verdict; a
//! frame the queue re-injects — a duplicate's copy, a reordered frame, a
//! matured delayed one — is immune and delivers untouched, so nothing is
//! re-duplicated forever and the ladder's draws depend only on fresh
//! frames. [`settle`](FaultQueue::settle) takes the verdict as a value:
//! whatever chooses it ([`LadderGate::gate`](crate::LadderGate::gate)
//! today) is the run's single choice point for frame faults.
//!
//! [`begin_round`](FaultQueue::begin_round) and
//! [`release_matured`](FaultQueue::release_matured) are apart because a
//! round's coordinator recovery and rejoins run between them, so matured
//! frames reach the rebuilt coordinator and the restarted nodes.

use std::collections::{BTreeMap, VecDeque};

use crate::gate::GateVerdict;

/// Frames in flight through a faulty link: a live FIFO and the frames
/// parked by a delay.
#[derive(Debug)]
pub struct FaultQueue<F> {
    /// Frames waiting to be popped, each with `true` while it is fresh
    /// (not yet immune).
    live: VecDeque<(F, bool)>,
    /// Frames held by a delay, keyed by the round they mature in.
    delayed: BTreeMap<usize, Vec<F>>,
    round: usize,
}

/// An empty queue at round 0.
impl<F> Default for FaultQueue<F> {
    fn default() -> Self {
        Self {
            live: VecDeque::new(),
            delayed: BTreeMap::new(),
            round: 0,
        }
    }
}

impl<F: Clone> FaultQueue<F> {
    /// Queue a fresh frame at the back: it is offered for a verdict when
    /// popped.
    pub fn push(&mut self, frame: F) {
        self.live.push_back((frame, true));
    }

    /// The oldest live frame and whether it is fresh. A frame that is not
    /// fresh is immune: settle it as [`GateVerdict::Deliver`].
    pub fn pop(&mut self) -> Option<(F, bool)> {
        self.live.pop_front()
    }

    /// Carry out `verdict` on a popped frame; returns the frame when it is
    /// to be delivered now. A duplicate's copy and a reordered frame go to
    /// the back of the live queue, a delayed frame is parked until its
    /// round; all three come back immune.
    pub fn settle(&mut self, frame: F, verdict: GateVerdict) -> Option<F> {
        match verdict {
            GateVerdict::Deliver => Some(frame),
            GateVerdict::DeliverTwice => {
                self.live.push_back((frame.clone(), false));
                Some(frame)
            }
            GateVerdict::Reorder => {
                self.live.push_back((frame, false));
                None
            }
            GateVerdict::Delay(rounds) => {
                let due = self.round + rounds;
                self.delayed.entry(due).or_default().push(frame);
                None
            }
            GateVerdict::Discard => None,
        }
    }

    /// Advance the clock delays are counted from. Nothing matures until
    /// [`release_matured`](Self::release_matured).
    pub fn begin_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Move every parked frame due by the current round to the back of the
    /// live queue, immune, in maturity order and then park order.
    pub fn release_matured(&mut self) {
        let later = self.delayed.split_off(&(self.round + 1));
        for (_, frames) in std::mem::replace(&mut self.delayed, later) {
            self.live.extend(frames.into_iter().map(|f| (f, false)));
        }
    }

    /// Frames the queue holds, live and parked; quiescence needs zero.
    pub fn in_flight(&self) -> usize {
        self.live.len() + self.delayed.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, LadderGate};

    /// Pop everything, settling fresh frames with `verdicts` in order and
    /// re-injected ones as `Deliver`; the delivered frames, and the frames
    /// that were offered a verdict, in pop order.
    fn drain(q: &mut FaultQueue<u32>, verdicts: &[GateVerdict]) -> (Vec<u32>, Vec<u32>) {
        let mut verdicts = verdicts.iter().copied();
        let (mut delivered, mut offered) = (Vec::new(), Vec::new());
        while let Some((frame, fresh)) = q.pop() {
            let verdict = if fresh {
                offered.push(frame);
                verdicts.next().expect("a verdict per fresh frame")
            } else {
                GateVerdict::Deliver
            };
            delivered.extend(q.settle(frame, verdict));
        }
        assert_eq!(verdicts.next(), None, "every verdict used");
        (delivered, offered)
    }

    fn queue_of(frames: &[u32]) -> FaultQueue<u32> {
        let mut q = FaultQueue::default();
        frames.iter().for_each(|&f| q.push(f));
        q
    }

    #[test]
    fn each_verdict_puts_the_frame_where_it_belongs() {
        use GateVerdict::*;
        let mut q = queue_of(&[1, 2, 3, 4, 5]);
        let (delivered, _) = drain(&mut q, &[Deliver, DeliverTwice, Reorder, Delay(2), Discard]);
        // 1 now; 2 now and its copy at the back; 3 behind everything live;
        // 4 parked; 5 gone.
        assert_eq!(delivered, vec![1, 2, 2, 3]);
        assert_eq!(q.in_flight(), 1, "the delayed frame is still in flight");
        q.begin_round(1);
        q.release_matured();
        assert_eq!(q.pop(), None, "not due before round 2");
        q.begin_round(2);
        q.release_matured();
        assert_eq!(drain(&mut q, &[]).0, vec![4]);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn reinjected_frames_are_never_offered_for_a_verdict() {
        use GateVerdict::*;
        let mut q = queue_of(&[1, 2, 3]);
        let (delivered, offered) = drain(&mut q, &[DeliverTwice, Reorder, Delay(1)]);
        assert_eq!(offered, vec![1, 2, 3], "only the pushed frames drew");
        assert_eq!(delivered, vec![1, 1, 2]);
        q.begin_round(1);
        q.release_matured();
        let (delivered, offered) = drain(&mut q, &[]);
        assert_eq!((delivered, offered), (vec![3], vec![]));
    }

    /// The ladder draws once per fresh frame only, so interleaving the
    /// re-injected frames of one run leaves its verdict sequence that of
    /// a bare ladder's.
    #[test]
    fn reinjected_frames_consume_no_draw() {
        let plan = FaultPlan::seeded(42)
            .with_drop_rate(0.2)
            .with_duplicate_rate(0.1)
            .with_reorder_rate(0.1)
            .with_delay(0.1, 3);
        let (mut queued, mut bare) = (LadderGate::new(&plan), LadderGate::new(&plan));
        let mut q = FaultQueue::default();
        let mut seen = Vec::new();
        for round in 0..100 {
            q.begin_round(round);
            q.release_matured();
            for f in 0..3 {
                q.push(round * 3 + f);
            }
            while let Some((frame, fresh)) = q.pop() {
                let verdict = if fresh {
                    let v = queued.gate();
                    seen.push(v);
                    v
                } else {
                    GateVerdict::Deliver
                };
                q.settle(frame, verdict);
            }
        }
        let want: Vec<_> = (0..300).map(|_| bare.gate()).collect();
        assert_eq!(seen, want);
        assert_eq!(queued.counts(), bare.counts());
        assert!(queued.counts().injected() > 0, "rates this high must fire");
    }

    #[test]
    fn matured_frames_release_in_park_order_and_only_on_release() {
        use GateVerdict::*;
        let mut q = queue_of(&[1, 2, 3, 4]);
        // Parked at rounds 3, 2, 3, 2.
        drain(&mut q, &[Delay(3), Delay(2), Delay(3), Delay(2)]);
        assert_eq!(q.in_flight(), 4, "parked frames are in flight");
        q.begin_round(5);
        assert_eq!(q.pop(), None, "begin_round releases nothing");
        assert_eq!(q.in_flight(), 4);
        q.push(9);
        q.release_matured();
        // The fresh frame first, then round 2's frames, then round 3's,
        // each round's in the order they were parked.
        let (delivered, offered) = drain(&mut q, &[Deliver]);
        assert_eq!(delivered, vec![9, 2, 4, 1, 3]);
        assert_eq!(offered, vec![9]);
        assert_eq!(q.in_flight(), 0);
    }
}
