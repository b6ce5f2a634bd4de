//! The communication ledger against a `BTreeMap` keyed (round, node,
//! cause) — the structure it replaced, kept here as the oracle.
//!
//! One random charge sequence feeds both: rounds that go backwards as
//! well as forwards, node ids in any order, causes out of enum order
//! within a round, and an `absorb_ledger` of a second ledger built from
//! its own sequence. Every public reader must agree with the oracle.

use std::collections::BTreeMap;

use automon_core::{CommCause, CommLedger, LedgerCell, LedgerEntry, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CAUSES: [CommCause; 14] = [
    CommCause::Registration,
    CommCause::ViolationNeighborhood,
    CommCause::ViolationSafeZone,
    CommCause::ViolationFaulty,
    CommCause::FullSync,
    CommCause::LazySync,
    CommCause::Resync,
    CommCause::Rejoin,
    CommCause::Eviction,
    CommCause::Retransmit,
    CommCause::Recovery,
    CommCause::LeafReport,
    CommCause::RootSync,
    CommCause::ShardRebalance,
];

type Key = (u64, NodeId, CommCause);

fn add(into: &mut LedgerCell, c: &LedgerCell) {
    into.up_msgs += c.up_msgs;
    into.up_bytes += c.up_bytes;
    into.down_msgs += c.down_msgs;
    into.down_bytes += c.down_bytes;
}

#[derive(Default)]
struct Oracle(BTreeMap<Key, LedgerCell>);

impl Oracle {
    fn charge(&mut self, (key, up, bytes): (Key, bool, u64)) {
        let c = if up {
            LedgerCell {
                up_msgs: 1,
                up_bytes: bytes,
                ..LedgerCell::default()
            }
        } else {
            LedgerCell {
                down_msgs: 1,
                down_bytes: bytes,
                ..LedgerCell::default()
            }
        };
        add(self.0.entry(key).or_default(), &c);
    }

    fn absorb(&mut self, other: &Oracle) {
        for (key, c) in &other.0 {
            add(self.0.entry(*key).or_default(), c);
        }
    }

    fn rollup<K: Ord>(&self, by: impl Fn(&Key) -> K) -> BTreeMap<K, LedgerCell> {
        let mut out = BTreeMap::new();
        for (key, c) in &self.0 {
            add(out.entry(by(key)).or_default(), c);
        }
        out
    }
}

fn charge(ledger: &mut CommLedger, ((round, node, cause), up, bytes): (Key, bool, u64)) {
    if up {
        ledger.charge_up(round, node, cause, bytes);
    } else {
        ledger.charge_down(round, node, cause, bytes);
    }
}

/// A charge sequence of up to `len` frames. The round mostly holds or
/// advances, as in a run, but one step in eight jumps back; nodes come
/// from a small id space in any order, so cells collide often.
fn sequence(rng: &mut SmallRng, len: usize) -> Vec<(Key, bool, u64)> {
    let mut round = rng.gen_range(0..4u64);
    (0..rng.gen_range(0..len))
        .map(|_| {
            match rng.gen_range(0..8u32) {
                0 => round = round.saturating_sub(rng.gen_range(1..4u64)),
                1 | 2 => round += 1,
                _ => {}
            }
            let node = rng.gen_range(0..12usize);
            let cause = CAUSES[rng.gen_range(0..CAUSES.len())];
            (
                (round, node, cause),
                rng.gen_bool(0.5),
                rng.gen_range(0..400u64),
            )
        })
        .collect()
}

fn assert_agree(ledger: &CommLedger, oracle: &Oracle) {
    let cells: Vec<(Key, LedgerCell)> = ledger.iter().map(|(k, c)| (k, *c)).collect();
    let want: Vec<(Key, LedgerCell)> = oracle.0.iter().map(|(k, c)| (*k, *c)).collect();
    assert_eq!(cells, want, "iter()");
    assert_eq!(ledger.by_cause(), oracle.rollup(|k| k.2), "by_cause()");
    assert_eq!(ledger.by_node(), oracle.rollup(|k| k.1), "by_node()");
    let totals = oracle.rollup(|_| ()).remove(&()).unwrap_or_default();
    assert_eq!(ledger.totals(), totals, "totals()");
    let entries: Vec<LedgerEntry> = oracle
        .rollup(|k| k.2)
        .into_iter()
        .map(|(cause, c)| LedgerEntry {
            cause: cause.name().to_string(),
            msgs: c.msgs(),
            bytes: c.bytes(),
        })
        .collect();
    assert_eq!(ledger.entries(), entries, "entries()");
    assert_eq!(
        ledger.check_conservation(totals.msgs(), totals.bytes()),
        None
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_readers_equal_the_btreemap_oracle(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (first, second) = (sequence(&mut rng, 200), sequence(&mut rng, 120));

        let (mut ledger, mut oracle) = (CommLedger::default(), Oracle::default());
        for &c in &first {
            charge(&mut ledger, c);
            oracle.charge(c);
        }
        assert_agree(&ledger, &oracle);

        let (mut other, mut other_oracle) = (CommLedger::default(), Oracle::default());
        for &c in &second {
            charge(&mut other, c);
            other_oracle.charge(c);
        }
        ledger.absorb_ledger(&other);
        oracle.absorb(&other_oracle);
        assert_agree(&ledger, &oracle);

        // The same cells make the same ledger, whichever way they came:
        // absorbing equals charging the second sequence directly.
        let mut direct = CommLedger::default();
        for &c in first.iter().chain(&second) {
            charge(&mut direct, c);
        }
        prop_assert!(direct == ledger);
    }
}
