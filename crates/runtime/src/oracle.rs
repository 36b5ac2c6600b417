//! The oracle's verdict, and the legs that more than one driver asks about,
//! each written once (DESIGN.md §7 lists every leg and who calls it).
//!
//! * **The verdict** ([`Violation`], [`Failure`]). Every leg of every driver
//!   — `run_sim`, the model checker's `Harness` and the fleet walk of
//!   `sim --shards` over it — reports one [`Violation`], with one
//!   [`Violation::kind`] token per thing a leg can find; a [`Failure`] adds
//!   where a run surfaced it.
//! * **The ledger** ([`Ledger`]). In the decodable instances — the `Harness`
//!   and so the fleet walk — logical transaction `i` deposits `1 << i` at
//!   each of its *places* (an object, or a shard's home object), so a
//!   place's committed balance is the bit-set of the transactions whose
//!   effects are there. The book is keyed by logical index: a coordinator
//!   crash reissues the global id of a transaction that left no durable
//!   trace, so an id may name two where an index names one.
//! * **The fold** ([`views_agree`]). The paper's two recovery views — redo
//!   in execution order (UIP, Theorem 9), intentions lists in commit order
//!   (DU, Theorem 10) — fold one log to one state, the one the system serves.
//!
//! A driver keeps what only it knows: its alphabet and the phases that
//! decide what a client was told.

use std::collections::BTreeMap;
use std::fmt;

use ccr_core::adt::Adt;
use ccr_core::atomicity::DynAtomViolation;
use ccr_core::ids::ObjectId;
use ccr_store::{replay_du, replay_uip, ConvergenceFailure, RecoveredLog};

/// What one oracle leg found. [`Violation::kind`] is its stable token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The recorded history is not dynamic atomic.
    NotDynamicAtomic(DynAtomViolation),
    /// The log folded in commit order meets an operation the specification
    /// refuses: a committed effect depended on an uncommitted one.
    ShadowRefused {
        /// Log record index.
        record: usize,
        /// Operation index within the record.
        op: usize,
    },
    /// What the system serves is not the commit-order fold of its log.
    StateDiverged {
        /// The divergent object.
        obj: ObjectId,
        /// The served state (`Debug` form).
        engine: String,
        /// The fold's state (`Debug` form).
        shadow: String,
    },
    /// The paper's two recovery views — redo in execution order (UIP,
    /// Theorem 9) and the commit-order fold (DU, Theorem 10) — disagree.
    RecoveryViewDiverged {
        /// The divergent object.
        obj: ObjectId,
        /// The execution-order view (`Debug` form, or `"refused"`).
        uip: String,
        /// The commit-order view (`Debug` form).
        du: String,
    },
    /// A clean crash changed committed state.
    CrashStateMismatch {
        /// The divergent object.
        obj: ObjectId,
        /// Before the crash (`Debug` form).
        before: String,
        /// After recovery (`Debug` form).
        after: String,
    },
    /// A bit flip survived recovery undetected and changed committed state.
    SilentCorruption {
        /// The divergent object.
        obj: ObjectId,
        /// Before the fault (`Debug` form).
        before: String,
        /// After the undetected recovery (`Debug` form).
        after: String,
    },
    /// Strict recovery replayed a torn record as if it were complete.
    TornNotDetected {
        /// The torn record.
        record: usize,
    },
    /// Recovery refused, or failed to read, an image it must recover: the
    /// underlying error.
    RecoveryRefused(String),
    /// The caller's invariant over committed states broke, in its own words.
    InvariantViolated(String),
    /// The convergence probe: recovery crashed at some device op of its own
    /// eventually reached another outcome than the baseline recovery.
    RecoveryDiverged(ConvergenceFailure),
    /// Recovering a recovered image again changed committed state, or
    /// failed: what changed.
    NotIdempotent(String),
    /// A transaction outlived the liveness budget, or a driver ended neither
    /// committed, voluntarily aborted nor given up for a typed reason: which
    /// driver, and how its accounting failed.
    UnboundedOutcome(String),
    /// A balance holds a bit no transaction may have put there.
    StrayState {
        /// The place (an object id).
        place: usize,
        /// Its whole balance.
        state: u64,
    },
    /// A transaction is visible at some of its places and not at others —
    /// the eighth leg, global dynamic atomicity.
    GlobalSplit {
        /// The transaction (a logical index, or a global id).
        txn: u64,
        /// Places showing it (on a fleet, shard `s`'s home place is `s`).
        committed_on: Vec<usize>,
        /// Places missing it.
        aborted_on: Vec<usize>,
    },
    /// An acknowledged commit is missing.
    DurabilityLost {
        /// The transaction's logical index.
        txn: usize,
    },
    /// A transaction told aborted, lost or never begun is visible.
    Resurrection {
        /// The transaction's logical index.
        txn: usize,
    },
    /// The survivors of a torn group flush are not a prefix of the group.
    NotPrefix {
        /// The flush's transactions in commit order.
        flush: Vec<usize>,
        /// Which of them survived.
        survived: Vec<usize>,
    },
    /// The offline WAL inspector reads a shard's image otherwise than
    /// recovery does.
    InspectorDisagreement {
        /// The shard.
        shard: usize,
        /// The first disagreeing field.
        detail: String,
    },
    /// The model checker's harness was refused a transition a fault-free,
    /// conflict-free schedule never refuses: what was refused.
    Internal(String),
}

impl Violation {
    /// A [`Violation::RecoveryRefused`] naming `error`.
    pub fn refused(error: impl fmt::Debug) -> Self {
        Violation::RecoveryRefused(format!("{error:?}"))
    }

    /// Stable token: which leg fired, and what it found.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::NotDynamicAtomic(_) => "not-dynamic-atomic",
            Violation::ShadowRefused { .. } => "shadow-refused",
            Violation::StateDiverged { .. } => "state-diverged",
            Violation::RecoveryViewDiverged { .. } => "recovery-view-diverged",
            Violation::CrashStateMismatch { .. } => "crash-state-mismatch",
            Violation::SilentCorruption { .. } => "silent-corruption",
            Violation::TornNotDetected { .. } => "torn-not-detected",
            Violation::RecoveryRefused(_) => "recovery-refused",
            Violation::InvariantViolated(_) => "invariant-violated",
            Violation::RecoveryDiverged(_) => "recovery-diverged",
            Violation::NotIdempotent(_) => "not-idempotent",
            Violation::UnboundedOutcome(_) => "unbounded-outcome",
            Violation::StrayState { .. } => "stray-state",
            Violation::GlobalSplit { .. } => "global-split",
            Violation::DurabilityLost { .. } => "durability-lost",
            Violation::Resurrection { .. } => "resurrection",
            Violation::NotPrefix { .. } => "not-prefix",
            Violation::InspectorDisagreement { .. } => "inspector-disagreement",
            Violation::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotDynamicAtomic(v) => {
                write!(f, "history not dynamic atomic (refuting order {:?})", v.order)
            }
            Violation::ShadowRefused { record, op } => {
                write!(f, "journal record {record} op {op} illegal under serial refold")
            }
            Violation::StateDiverged { obj, engine, shadow } => write!(
                f,
                "committed state diverged at {obj}: engine {engine}, journal fold {shadow}"
            ),
            Violation::RecoveryViewDiverged { obj, uip, du } => write!(
                f,
                "recovery views diverged at {obj}: exec-order (UIP) {uip}, commit-order (DU) {du}"
            ),
            Violation::CrashStateMismatch { obj, before, after } => write!(
                f,
                "recovery changed committed state at {obj}: {before} before, {after} after"
            ),
            Violation::SilentCorruption { obj, before, after } => write!(
                f,
                "storage fault survived recovery undetected at {obj}: {before} before, {after} after"
            ),
            Violation::TornNotDetected { record } => {
                write!(f, "torn journal record {record} replayed as if complete")
            }
            Violation::RecoveryRefused(detail) => write!(f, "recovery refused: {detail}"),
            Violation::InvariantViolated(detail) => {
                write!(f, "state invariant violated: {detail}")
            }
            Violation::RecoveryDiverged(e) => write!(f, "recovery convergence violated: {e}"),
            Violation::NotIdempotent(detail) => write!(f, "recovery not idempotent: {detail}"),
            Violation::UnboundedOutcome(detail) => {
                write!(f, "bounded-outcome liveness violated: {detail}")
            }
            Violation::StrayState { place, state } => {
                write!(f, "object {place} recovered to undecodable state {state:#x}")
            }
            Violation::GlobalSplit { txn, committed_on, aborted_on } => write!(
                f,
                "global txn {txn} split: committed on {committed_on:?}, aborted on {aborted_on:?}"
            ),
            Violation::DurabilityLost { txn } => {
                write!(f, "acknowledged commit of txn {txn} lost after recovery")
            }
            Violation::Resurrection { txn } => {
                write!(f, "aborted/never-committed txn {txn} present after recovery")
            }
            Violation::NotPrefix { flush, survived } => {
                write!(f, "torn batch {flush:?} survived as non-prefix {survived:?}")
            }
            Violation::InspectorDisagreement { shard, detail } => {
                write!(f, "inspector disagrees with recovery on shard {shard}: {detail}")
            }
            Violation::Internal(detail) => write!(f, "harness internal error: {detail}"),
        }
    }
}

/// Where a run surfaced its violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Surfaced {
    /// A single-domain run: the event counter when the failing pass ran —
    /// the shrinker's search coordinate.
    Event(u64),
    /// A fleet walk: the harness actions that reached it, as
    /// `ccr-experiments mc --replay` reads them.
    Trace(String),
}

impl fmt::Display for Surfaced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Surfaced::Event(n) => write!(f, "at event {n}"),
            Surfaced::Trace(trace) => write!(f, "trace: {trace}"),
        }
    }
}

/// What a failing run stops at: the violation, and where it surfaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// What the oracle found.
    pub violation: Violation,
    /// Where.
    pub at: Surfaced,
}

impl Failure {
    /// The violation's [`Violation::kind`].
    pub fn kind(&self) -> &'static str {
        self.violation.kind()
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ({})", self.kind(), self.violation, self.at)
    }
}

/// The eighth oracle leg: every global transaction's outcome must be
/// uniform across its participants. `txns` lists each global transaction
/// with its participants; `visible` reports whether its effects survived
/// at one. Single-participant transactions are trivially uniform; the
/// first split found is returned as a [`Violation::GlobalSplit`].
pub fn check_uniform_outcome(
    txns: &[(u64, Vec<usize>)],
    mut visible: impl FnMut(u64, usize) -> bool,
) -> Result<(), Violation> {
    for (txn, parts) in txns {
        let (committed_on, aborted_on): (Vec<usize>, Vec<usize>) =
            parts.iter().partition(|&&s| visible(*txn, s));
        if !committed_on.is_empty() && !aborted_on.is_empty() {
            return Err(Violation::GlobalSplit { txn: *txn, committed_on, aborted_on });
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
    /// every bit one some transaction may have put there
    /// ([`Violation::StrayState`]); is every settled transaction's outcome
    /// the same at all its places (the eighth leg,
    /// [`Violation::GlobalSplit`]); is every acknowledged commit there and
    /// nothing told invisible ([`Violation::DurabilityLost`],
    /// [`Violation::Resurrection`]). A [`Told::Pending`] transaction may
    /// own a bit and is otherwise not looked at.
    pub fn check(&self, told: impl Fn(usize) -> Told, states: &[u64]) -> Result<(), Violation> {
        let txns = 0..self.places.len();
        for (place, &state) in states.iter().enumerate() {
            let at_place = txns.clone().filter(|&txn| self.places[txn].contains(&place));
            if state & !at_place.fold(0, |mask, txn| mask | Self::amount(txn)) != 0 {
                return Err(Violation::StrayState { place, state });
            }
        }
        let settled: Vec<(u64, Vec<usize>)> = txns
            .filter(|&txn| told(txn) != Told::Pending)
            .map(|txn| (txn as u64, self.places[txn].clone()))
            .collect();
        check_uniform_outcome(&settled, |txn, place| Self::visible(states, txn as usize, place))?;
        for (txn, places) in self.places.iter().enumerate() {
            for &place in places {
                match (told(txn), Self::visible(states, txn, place)) {
                    (Told::Visible, false) => return Err(Violation::DurabilityLost { txn }),
                    (Told::Invisible, true) => return Err(Violation::Resurrection { txn }),
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
/// Returns the fold, or the first disagreement: [`Violation::ShadowRefused`]
/// where the commit-order fold meets an operation the specification refuses
/// (`record` counts from the first record after the image),
/// [`Violation::StateDiverged`] where the system serves something else,
/// [`Violation::RecoveryViewDiverged`] where the execution-order fold
/// refuses or ends elsewhere.
pub fn views_agree<A: Adt>(
    adt: &A,
    log: &RecoveredLog<A>,
    objects: impl Iterator<Item = ObjectId>,
    mut served: impl FnMut(ObjectId) -> A::State,
) -> Result<BTreeMap<ObjectId, A::State>, Violation> {
    let mut base: BTreeMap<_, _> = objects.map(|obj| (obj, adt.initial())).collect();
    base.extend(log.checkpoint.iter().flat_map(|cp| cp.states.iter().cloned()));
    let (base, records) = (&base, &log.records);
    let du = replay_du(adt, base, records)
        .map_err(|(record, op)| Violation::ShadowRefused { record, op })?;
    for (obj, du_state) in &du {
        let engine_state = served(*obj);
        if engine_state != *du_state {
            return Err(Violation::StateDiverged {
                obj: *obj,
                engine: format!("{engine_state:?}"),
                shadow: format!("{du_state:?}"),
            });
        }
    }
    let Some(uip) = replay_uip(adt, base, records) else {
        return Err(Violation::RecoveryViewDiverged {
            obj: *du.keys().next().expect("a refused operation names an object both folds know"),
            uip: "refused".to_string(),
            du: "legal fold".to_string(),
        });
    };
    for (obj, du_state) in &du {
        if uip.get(obj) != Some(du_state) {
            return Err(Violation::RecoveryViewDiverged {
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
            Err(Violation::StrayState { place: 0, state: 0b10 })
        );
        // A split is a split whatever the client was told...
        let split = Violation::GlobalSplit { txn: 0, committed_on: vec![0], aborted_on: vec![1] };
        assert_eq!(book().check(acked, &[0b01, 0b10]), Err(split.clone()));
        assert_eq!(book().check(|_| Told::Invisible, &[0b01, 0b00]), Err(split));
        // ...unless it was told nothing yet.
        assert_eq!(book().check(|_| Told::Pending, &[0b01, 0b10]), Ok(()));
        assert_eq!(book().check(acked, &[0b00, 0b10]), Err(Violation::DurabilityLost { txn: 0 }));
        assert_eq!(
            book().check(|_| Told::Invisible, &[0b00, 0b10]),
            Err(Violation::Resurrection { txn: 1 })
        );
    }

    /// Two legs that fold into one token would read as one leg: every
    /// variant's token is its own.
    #[test]
    fn every_violation_has_its_own_kind() {
        let s = || String::new();
        let obj = ObjectId(0);
        let all = [
            Violation::NotDynamicAtomic(DynAtomViolation { commit_set: vec![], order: vec![] }),
            Violation::ShadowRefused { record: 0, op: 0 },
            Violation::StateDiverged { obj, engine: s(), shadow: s() },
            Violation::RecoveryViewDiverged { obj, uip: s(), du: s() },
            Violation::CrashStateMismatch { obj, before: s(), after: s() },
            Violation::SilentCorruption { obj, before: s(), after: s() },
            Violation::TornNotDetected { record: 0 },
            Violation::RecoveryRefused(s()),
            Violation::InvariantViolated(s()),
            Violation::RecoveryDiverged(ConvergenceFailure { trial: 0, reason: s() }),
            Violation::NotIdempotent(s()),
            Violation::UnboundedOutcome(s()),
            Violation::StrayState { place: 0, state: 0 },
            Violation::GlobalSplit { txn: 0, committed_on: vec![], aborted_on: vec![] },
            Violation::DurabilityLost { txn: 0 },
            Violation::Resurrection { txn: 0 },
            Violation::NotPrefix { flush: vec![], survived: vec![] },
            Violation::InspectorDisagreement { shard: 0, detail: s() },
            Violation::Internal(s()),
        ];
        for v in &all {
            // No wildcard: a new variant does not compile here until it is
            // listed above.
            match v {
                Violation::NotDynamicAtomic(_)
                | Violation::ShadowRefused { .. }
                | Violation::StateDiverged { .. }
                | Violation::RecoveryViewDiverged { .. }
                | Violation::CrashStateMismatch { .. }
                | Violation::SilentCorruption { .. }
                | Violation::TornNotDetected { .. }
                | Violation::RecoveryRefused(_)
                | Violation::InvariantViolated(_)
                | Violation::RecoveryDiverged(_)
                | Violation::NotIdempotent(_)
                | Violation::UnboundedOutcome(_)
                | Violation::StrayState { .. }
                | Violation::GlobalSplit { .. }
                | Violation::DurabilityLost { .. }
                | Violation::Resurrection { .. }
                | Violation::NotPrefix { .. }
                | Violation::InspectorDisagreement { .. }
                | Violation::Internal(_) => {}
            }
        }
        let kinds: std::collections::BTreeSet<_> = all.iter().map(Violation::kind).collect();
        assert_eq!(kinds.len(), all.len(), "{kinds:?}");
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
        assert_eq!(refused, Violation::ShadowRefused { record: 1, op: 0 }, "{refused}");
    }
}
