//! The escrow method (O'Neil \[16\]) as a runtime extension.
//!
//! The paper's §8 singles out O'Neil's escrow transactional method as an
//! algorithm whose conflict test *depends on the current state of the
//! object* and therefore does **not** fit the `I(X, Spec, View, Conflict)`
//! framework (where the conflict test is state-independent). This module
//! implements the method for bounded numeric accounts so the experiments
//! can quantify what the framework's restriction costs.
//!
//! Mechanics: the object tracks, besides the committed balance `v`, the sums
//! of uncommitted credits `C` and debits `D` of active transactions. Every
//! possible serialization leaves the balance in `[v − D, v + C]`:
//!
//! * `debit(n)` succeeds iff `v − D ≥ n` (guaranteed in every outcome),
//!   definitely fails iff `v + C < n`, and **blocks** otherwise (the answer
//!   depends on which concurrent transactions commit);
//! * `credit(n)` symmetrically against the capacity bound.
//!
//! Aborts simply release the transaction's reservations; commits fold them
//! into `v`. Compare the conflict-relation runtimes: under UIP+NRBC a debit
//! must wait for any uncommitted *credit* (`(debit_ok, credit_ok) ∈ NRBC`),
//! while escrow lets it proceed whenever the guaranteed lower bound
//! suffices — strictly more concurrency, bought by inspecting state.

use std::collections::BTreeMap;

use ccr_core::ids::TxnId;

use crate::error::TxnError;

/// A single escrow-managed account.
pub struct EscrowObject {
    cap: u64,
    /// Committed balance.
    committed: u64,
    /// Per-transaction pending deltas (credit positive, debit negative).
    pending: BTreeMap<TxnId, Vec<i64>>,
}

/// Result of an escrow operation request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EscrowOutcome {
    /// Granted: the operation succeeds in every serialization.
    Ok,
    /// Refused: the operation fails in every serialization.
    No,
}

impl EscrowObject {
    /// Create with capacity `cap` and initial balance `initial`.
    pub fn new(cap: u64, initial: u64) -> Self {
        assert!(initial <= cap);
        EscrowObject { cap, committed: initial, pending: BTreeMap::new() }
    }

    fn uncommitted_credits(&self) -> u64 {
        self.pending.values().flatten().filter(|d| **d > 0).map(|d| *d as u64).sum()
    }

    fn uncommitted_debits(&self) -> u64 {
        self.pending.values().flatten().filter(|d| **d < 0).map(|d| (-*d) as u64).sum()
    }

    /// The guaranteed balance interval over all serializations.
    pub fn bounds(&self) -> (u64, u64) {
        (self.committed - self.uncommitted_debits(), self.committed + self.uncommitted_credits())
    }

    /// Request `debit(n)` for `txn`. `Ok(Ok)` reserves the amount; `Ok(No)`
    /// is a definite refusal; `Err(Blocked)` means the outcome depends on
    /// concurrent transactions ([`holders`](Self::holders) names them).
    pub fn debit(&mut self, txn: TxnId, n: u64) -> Result<EscrowOutcome, TxnError> {
        let (low, high) = self.bounds();
        if low >= n {
            self.pending.entry(txn).or_default().push(-(n as i64));
            Ok(EscrowOutcome::Ok)
        } else if high < n {
            Ok(EscrowOutcome::No)
        } else {
            Err(TxnError::Blocked)
        }
    }

    /// Request `credit(n)` for `txn` (symmetric against the capacity).
    pub fn credit(&mut self, txn: TxnId, n: u64) -> Result<EscrowOutcome, TxnError> {
        let (low, high) = self.bounds();
        if high + n <= self.cap {
            self.pending.entry(txn).or_default().push(n as i64);
            Ok(EscrowOutcome::Ok)
        } else if low + n > self.cap {
            Ok(EscrowOutcome::No)
        } else {
            Err(TxnError::Blocked)
        }
    }

    /// The transactions other than `requester` holding reservations — whom a
    /// blocked `requester` is waiting for — ascending.
    pub fn holders(&self, requester: TxnId) -> Vec<TxnId> {
        self.pending.keys().copied().filter(|t| *t != requester).collect()
    }

    /// Commit `txn`: fold its reservations into the committed balance.
    pub fn commit(&mut self, txn: TxnId) {
        if let Some(deltas) = self.pending.remove(&txn) {
            for d in deltas {
                if d >= 0 {
                    self.committed += d as u64;
                } else {
                    self.committed -= (-d) as u64;
                }
            }
        }
        debug_assert!(self.committed <= self.cap);
    }

    /// Abort `txn`: release its reservations.
    pub fn abort(&mut self, txn: TxnId) {
        self.pending.remove(&txn);
    }

    /// The committed balance.
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u32) -> TxnId = TxnId;

    #[test]
    fn guaranteed_debits_proceed_concurrently_with_credits() {
        // Under UIP+NRBC, a debit blocks on any uncommitted credit. Escrow
        // grants it as long as the committed balance suffices.
        let mut e = EscrowObject::new(100, 50);
        assert_eq!(e.credit(T(0), 30), Ok(EscrowOutcome::Ok)); // active
        assert_eq!(e.debit(T(1), 40), Ok(EscrowOutcome::Ok)); // concurrent!
        e.commit(T(0));
        e.commit(T(1));
        assert_eq!(e.committed(), 40);
    }

    #[test]
    fn uncertain_outcomes_block() {
        let mut e = EscrowObject::new(100, 50);
        assert_eq!(e.debit(T(0), 30), Ok(EscrowOutcome::Ok));
        // low = 20, high = 50: a debit of 30 is uncertain.
        assert_eq!(e.debit(T(1), 30), Err(TxnError::Blocked));
        assert_eq!(e.holders(T(1)), [T(0)]);
        // After T0 aborts, the debit is guaranteed again.
        e.abort(T(0));
        assert_eq!(e.debit(T(1), 30), Ok(EscrowOutcome::Ok));
    }

    #[test]
    fn definite_refusals_do_not_block() {
        let mut e = EscrowObject::new(100, 10);
        assert_eq!(e.credit(T(0), 5), Ok(EscrowOutcome::Ok));
        // high = 15 < 40: refused in every serialization.
        assert_eq!(e.debit(T(1), 40), Ok(EscrowOutcome::No));
    }

    #[test]
    fn capacity_side_is_symmetric() {
        let mut e = EscrowObject::new(20, 10);
        assert_eq!(e.debit(T(0), 5), Ok(EscrowOutcome::Ok)); // low 5, high 10
        assert_eq!(e.credit(T(1), 10), Ok(EscrowOutcome::Ok)); // high 20 ≤ cap
        assert!(matches!(e.credit(T(2), 5), Err(TxnError::Blocked)));
        assert_eq!(e.credit(T(3), 20), Ok(EscrowOutcome::No)); // low+20 > cap
        e.commit(T(0));
        e.commit(T(1));
        assert_eq!(e.committed(), 15);
    }

    #[test]
    fn bounds_track_reservations() {
        let mut e = EscrowObject::new(100, 50);
        e.debit(T(0), 10).unwrap();
        e.credit(T(1), 20).unwrap();
        assert_eq!(e.bounds(), (40, 70));
        e.commit(T(0));
        assert_eq!(e.bounds(), (40, 60));
        e.abort(T(1));
        assert_eq!(e.bounds(), (40, 40));
    }
}
