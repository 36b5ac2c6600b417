//! The oracle's legs that more than one harness asks about, each written
//! once (DESIGN.md §7 lists every leg and who calls it).
//!
//! * **The ledger** ([`Ledger`]). In the decodable instances — the model
//!   checker's two harnesses and the fleet driver — logical transaction `i`
//!   deposits `1 << i` at each of its *places* (an object, or a shard's home
//!   object), so a place's committed balance is the bit-set of the
//!   transactions whose effects are there. The book is keyed by logical
//!   index: a coordinator crash reissues the global id of a transaction that
//!   left no durable trace, so an id may name two where an index names one.
//! * **The fold** ([`views_agree`]). The paper's two recovery views — redo
//!   in execution order (UIP, Theorem 9), intentions lists in commit order
//!   (DU, Theorem 10) — fold one log to one state, the one the system serves.
//!
//! A harness keeps what only it knows: its alphabet, the phases that decide
//! what a client was told, and how a violation is rendered.

use std::collections::BTreeMap;

use ccr_core::adt::Adt;
use ccr_core::ids::ObjectId;
use ccr_store::{replay_du, replay_uip, RecoveredLog};

use crate::sim::OracleFailure;

/// A global transaction whose outcome differs across its participants —
/// the global dynamic-atomicity violation [`check_uniform_outcome`] hunts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalAtomicityViolation {
    /// The split transaction's global id.
    pub gtid: u64,
    /// Participant shards where its effects are visible.
    pub committed_on: Vec<usize>,
    /// Participant shards where they are not.
    pub aborted_on: Vec<usize>,
}

/// The eighth oracle leg: every global transaction's outcome must be
/// uniform across its participants. `gtids` lists each global transaction
/// with its participant shards; `visible` reports whether its effects
/// survived on one shard. Single-participant transactions are trivially
/// uniform; the first split found is returned.
pub fn check_uniform_outcome(
    gtids: &[(u64, Vec<usize>)],
    mut visible: impl FnMut(u64, usize) -> bool,
) -> Result<(), GlobalAtomicityViolation> {
    for (gtid, parts) in gtids {
        let (committed_on, aborted_on): (Vec<usize>, Vec<usize>) =
            parts.iter().partition(|&&s| visible(*gtid, s));
        if !committed_on.is_empty() && !aborted_on.is_empty() {
            return Err(GlobalAtomicityViolation { gtid: *gtid, committed_on, aborted_on });
        }
    }
    Ok(())
}

/// What the client was told about one logical transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Told {
    /// The commit was acknowledged: visible at every place, from now on.
    Visible,
    /// Aborted, lost with the power, or never begun: visible nowhere.
    Invisible,
    /// No outcome yet (in doubt at a participant, or acknowledged by a flush
    /// the crash tore): either way is legal, nothing is asked.
    Pending,
}

/// What [`Ledger::check`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerViolation {
    /// A balance holds a bit no transaction may have put there.
    Stray {
        /// The place.
        place: usize,
        /// Its whole balance.
        state: u64,
    },
    /// A transaction (`gtid` is its logical index) is visible at some of its
    /// places and not at others.
    Split(GlobalAtomicityViolation),
    /// An acknowledged commit is missing.
    Lost {
        /// The transaction's logical index.
        txn: usize,
        /// The first of its places missing it.
        place: usize,
    },
    /// A transaction told invisible is there.
    Resurrected {
        /// The transaction's logical index.
        txn: usize,
        /// The first of its places showing it.
        place: usize,
    },
}

/// Where each logical transaction's bit may appear (see the module docs).
#[derive(Clone, Debug)]
pub struct Ledger {
    places: Vec<Vec<usize>>,
}

impl Ledger {
    /// A book of `places.len()` transactions; `places[i]` lists, ascending,
    /// where transaction `i` deposits.
    pub fn new(places: Vec<Vec<usize>>) -> Self {
        assert!(places.len() <= 64, "one bit of a u64 balance per transaction");
        Ledger { places }
    }

    /// The places of transaction `txn`, ascending.
    pub fn places(&self, txn: usize) -> &[usize] {
        &self.places[txn]
    }

    /// The deposit that is transaction `txn`'s bit.
    pub const fn amount(txn: usize) -> u64 {
        1 << txn
    }

    /// Whether transaction `txn`'s bit is in `place`'s balance.
    pub fn visible(states: &[u64], txn: usize, place: usize) -> bool {
        states[place] & Self::amount(txn) != 0
    }

    /// Judge `states` (one balance per place) against what the client was
    /// `told`, in this fixed order, transactions and places ascending: is
    /// every bit one some transaction may have put there (stray); is every
    /// settled transaction's outcome the same at all its places (the eighth
    /// leg); is every acknowledged commit there and nothing told invisible
    /// (durability, no resurrection). A [`Told::Pending`] transaction may
    /// own a bit and is otherwise not looked at.
    pub fn check(
        &self,
        told: impl Fn(usize) -> Told,
        states: &[u64],
    ) -> Result<(), LedgerViolation> {
        let txns = 0..self.places.len();
        for (place, &state) in states.iter().enumerate() {
            let at_place = txns.clone().filter(|&txn| self.places[txn].contains(&place));
            if state & !at_place.fold(0, |mask, txn| mask | Self::amount(txn)) != 0 {
                return Err(LedgerViolation::Stray { place, state });
            }
        }
        let settled: Vec<(u64, Vec<usize>)> = txns
            .filter(|&txn| told(txn) != Told::Pending)
            .map(|txn| (txn as u64, self.places[txn].clone()))
            .collect();
        check_uniform_outcome(&settled, |txn, place| Self::visible(states, txn as usize, place))
            .map_err(LedgerViolation::Split)?;
        for (txn, places) in self.places.iter().enumerate() {
            for &place in places {
                match (told(txn), Self::visible(states, txn, place)) {
                    (Told::Visible, false) => return Err(LedgerViolation::Lost { txn, place }),
                    (Told::Invisible, true) => {
                        return Err(LedgerViolation::Resurrected { txn, place })
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// "UIP fold = DU fold = what the system serves": fold `log`'s records
/// both ways — over its checkpoint image, and `objects` in their initial
/// state where it has none — and compare with `served`, object by object.
/// Returns the fold, or the first disagreement: `ShadowRefused` where the
/// commit-order fold meets an operation the specification refuses (`record`
/// counts from the first record after the image), `StateDiverged` where the
/// system serves something else, `RecoveryViewDiverged` where the
/// execution-order fold refuses or ends elsewhere.
pub fn views_agree<A: Adt>(
    adt: &A,
    log: &RecoveredLog<A>,
    objects: impl Iterator<Item = ObjectId>,
    mut served: impl FnMut(ObjectId) -> A::State,
) -> Result<BTreeMap<ObjectId, A::State>, OracleFailure> {
    let mut base: BTreeMap<_, _> = objects.map(|obj| (obj, adt.initial())).collect();
    base.extend(log.checkpoint.iter().flat_map(|cp| cp.states.iter().cloned()));
    let (base, records) = (&base, &log.records);
    let du = replay_du(adt, base, records)
        .map_err(|(record, op)| OracleFailure::ShadowRefused { record, op })?;
    for (obj, du_state) in &du {
        let engine_state = served(*obj);
        if engine_state != *du_state {
            return Err(OracleFailure::StateDiverged {
                obj: *obj,
                engine: format!("{engine_state:?}"),
                shadow: format!("{du_state:?}"),
            });
        }
    }
    let Some(uip) = replay_uip(adt, base, records) else {
        return Err(OracleFailure::RecoveryViewDiverged {
            obj: *du.keys().next().expect("a refused operation names an object both folds know"),
            uip: "refused".to_string(),
            du: "legal fold".to_string(),
        });
    };
    for (obj, du_state) in &du {
        if uip.get(obj) != Some(du_state) {
            return Err(OracleFailure::RecoveryViewDiverged {
                obj: *obj,
                uip: format!("{:?}", uip.get(obj)),
                du: format!("{du_state:?}"),
            });
        }
    }
    Ok(du)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_adt::bank::{BankAccount, BankInv, BankResp};
    use ccr_core::adt::Op;
    use ccr_store::CommitRecord;

    /// Two transactions: 0 at places 0 and 1, 1 at place 1 only.
    fn book() -> Ledger {
        Ledger::new(vec![vec![0, 1], vec![1]])
    }

    #[test]
    fn the_legs_fire_in_their_fixed_order() {
        let acked = |_| Told::Visible;
        assert_eq!(book().check(acked, &[0b01, 0b11]), Ok(()));
        // Transaction 1 never deposits at place 0: stray, before anything
        // is asked about transaction 0's missing half.
        assert_eq!(
            book().check(acked, &[0b10, 0b10]),
            Err(LedgerViolation::Stray { place: 0, state: 0b10 })
        );
        // A split is a split whatever the client was told...
        let split =
            GlobalAtomicityViolation { gtid: 0, committed_on: vec![0], aborted_on: vec![1] };
        assert_eq!(book().check(acked, &[0b01, 0b10]), Err(LedgerViolation::Split(split.clone())));
        assert_eq!(
            book().check(|_| Told::Invisible, &[0b01, 0b00]),
            Err(LedgerViolation::Split(split))
        );
        // ...unless it was told nothing yet.
        assert_eq!(book().check(|_| Told::Pending, &[0b01, 0b10]), Ok(()));
        assert_eq!(
            book().check(acked, &[0b00, 0b10]),
            Err(LedgerViolation::Lost { txn: 0, place: 0 })
        );
        assert_eq!(
            book().check(|_| Told::Invisible, &[0b00, 0b10]),
            Err(LedgerViolation::Resurrected { txn: 1, place: 1 })
        );
    }

    fn deposit(seq: u64, obj: u32, n: u64) -> (u64, ObjectId, Op<BankAccount>) {
        (seq, ObjectId(obj), Op::new(BankInv::Deposit(n), BankResp::Ok))
    }

    #[test]
    fn views_agree_names_the_first_disagreement() {
        let adt = BankAccount::default();
        let log = |records| RecoveredLog {
            checkpoint: None,
            records,
            in_doubt: Vec::new(),
            decisions: Vec::new(),
            txn_floor: 0,
            next_exec_seq: 0,
            stats: Default::default(),
            scan: Default::default(),
        };
        let objects = || [ObjectId(0), ObjectId(1)].into_iter();
        let records = vec![
            CommitRecord::<BankAccount> { floor: 1, ops: vec![deposit(1, 0, 5)] },
            CommitRecord { floor: 2, ops: vec![deposit(0, 1, 7)] },
        ];
        let first = records[0].clone();
        let fine = log(records);
        let fold = views_agree(&adt, &fine, objects(), |obj| [5, 7][obj.0 as usize]).unwrap();
        assert_eq!(fold, [(ObjectId(0), 5), (ObjectId(1), 7)].into());
        let lied = views_agree(&adt, &fine, objects(), |_| 5).unwrap_err();
        assert_eq!(lied.kind(), "state-diverged", "{lied}");
        let overdraft = (2, ObjectId(0), Op::new(BankInv::Withdraw(9), BankResp::Ok));
        let illegal = log(vec![first, CommitRecord { floor: 2, ops: vec![overdraft] }]);
        let refused = views_agree(&adt, &illegal, objects(), |_| 0).unwrap_err();
        assert!(matches!(refused, OracleFailure::ShadowRefused { record: 1, op: 0 }), "{refused}");
    }
}
