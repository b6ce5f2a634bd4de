//! The communication ledger against a `BTreeMap` keyed by cause, the
//! plainest per-cause tally, kept here as the oracle.
//!
//! One random charge sequence feeds both: causes in any order, either
//! direction, any byte count, and an `absorb_ledger` of a second ledger
//! built from its own sequence. Every public reader must agree with the
//! oracle.

use std::collections::BTreeMap;

use automon_core::{CommCause, CommLedger, LedgerCell, LedgerEntry};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Charge = (CommCause, bool, u64);

fn add(into: &mut LedgerCell, c: &LedgerCell) {
    into.up_msgs += c.up_msgs;
    into.up_bytes += c.up_bytes;
    into.down_msgs += c.down_msgs;
    into.down_bytes += c.down_bytes;
}

#[derive(Default)]
struct Oracle(BTreeMap<CommCause, LedgerCell>);

impl Oracle {
    fn charge(&mut self, (cause, up, bytes): Charge) {
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
        add(self.0.entry(cause).or_default(), &c);
    }

    fn absorb(&mut self, other: &Oracle) {
        for (cause, c) in &other.0 {
            add(self.0.entry(*cause).or_default(), c);
        }
    }

    fn totals(&self) -> LedgerCell {
        let mut t = LedgerCell::default();
        for c in self.0.values() {
            add(&mut t, c);
        }
        t
    }
}

fn charge(ledger: &mut CommLedger, (cause, up, bytes): Charge) {
    if up {
        ledger.charge_up(cause, bytes);
    } else {
        ledger.charge_down(cause, bytes);
    }
}

/// A charge sequence of up to `len` frames, causes drawn uniformly so
/// some are charged often, some once and some never; zero-byte frames
/// included.
fn sequence(rng: &mut SmallRng, len: usize) -> Vec<Charge> {
    let causes = CommCause::ALL;
    (0..rng.gen_range(0..len))
        .map(|_| {
            (
                causes[rng.gen_range(0..causes.len())],
                rng.gen_bool(0.5),
                rng.gen_range(0..400u64),
            )
        })
        .collect()
}

fn assert_agree(ledger: &CommLedger, oracle: &Oracle) {
    assert_eq!(ledger.by_cause(), oracle.0, "by_cause()");
    let totals = oracle.totals();
    assert_eq!(ledger.totals(), totals, "totals()");
    let entries: Vec<LedgerEntry> = oracle
        .0
        .iter()
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
    assert!(ledger
        .check_conservation(totals.msgs() + 1, totals.bytes())
        .is_some());
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

        // The same charges make the same ledger, whichever way they
        // came: absorbing equals charging the second sequence directly.
        let mut direct = CommLedger::default();
        for &c in first.iter().chain(&second) {
            charge(&mut direct, c);
        }
        prop_assert!(direct == ledger);
    }
}
