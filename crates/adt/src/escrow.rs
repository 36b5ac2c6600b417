//! A bounded account in the style of O'Neil's escrow method \[16\], which the
//! paper's conclusion points to: balance constrained to `0 ..= cap`.
//!
//! Operations (`0 < i ≤ cap`):
//!
//! * `[credit(i), ok]` — enabled iff balance + i ≤ cap;
//! * `[credit(i), no]` — enabled iff balance + i > cap;
//! * `[debit(i), ok]` — enabled iff balance ≥ i;
//! * `[debit(i), no]` — enabled iff balance < i.
//!
//! Unlike the unbounded bank account, *credits* can also fail, which makes
//! the commutativity structure symmetric in the two bounds: successful
//! credits no longer commute forward with each other (two credits may
//! together overflow), mirroring the bank's withdrawals against zero.
//! The full O'Neil method additionally keeps per-transaction escrow ranges
//! and tests conflicts against the *current state*; that refinement is
//! outside the conflict-relation framework (the paper's §8 says exactly
//! this), and `ccr-runtime::escrow` implements it as an extension.

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::{InvertibleAdt, RwClassify};

/// The escrow-account specification. `cap` is the upper bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EscrowAccount {
    /// Upper bound on the balance.
    pub cap: u64,
    /// Amounts for the bounded-analysis alphabet (all ≤ `cap`).
    pub amounts: Vec<u64>,
}

impl EscrowAccount {
    /// Create with the given capacity and alphabet amounts (each clamped
    /// into `1..=cap`).
    pub fn new(cap: u64, amounts: impl IntoIterator<Item = u64>) -> Self {
        let amounts = amounts.into_iter().map(|a| a.clamp(1, cap)).collect();
        EscrowAccount { cap, amounts }
    }
}

impl Default for EscrowAccount {
    fn default() -> Self {
        EscrowAccount::new(5, [1, 2])
    }
}

/// Escrow invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EscrowInv {
    /// `credit(i)`.
    Credit(u64),
    /// `debit(i)`.
    Debit(u64),
}

/// Escrow responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EscrowResp {
    /// Success.
    Ok,
    /// Refused (bound would be violated).
    No,
}

impl Adt for EscrowAccount {
    type State = u64;
    type Invocation = EscrowInv;
    type Response = EscrowResp;

    fn initial(&self) -> u64 {
        0
    }

    fn step(&self, s: &u64, inv: &EscrowInv) -> Outcomes<(EscrowResp, u64)> {
        match inv {
            EscrowInv::Credit(i) if *i > 0 => {
                if s + i <= self.cap {
                    Outcomes::one((EscrowResp::Ok, s + i))
                } else {
                    Outcomes::one((EscrowResp::No, *s))
                }
            }
            EscrowInv::Debit(i) if *i > 0 => {
                if *s >= *i {
                    Outcomes::one((EscrowResp::Ok, s - i))
                } else {
                    Outcomes::one((EscrowResp::No, *s))
                }
            }
            _ => Outcomes::none(),
        }
    }
}

impl OpDeterministicAdt for EscrowAccount {}

impl EnumerableAdt for EscrowAccount {
    fn invocations(&self) -> Vec<EscrowInv> {
        let mut out = Vec::with_capacity(2 * self.amounts.len());
        for &a in &self.amounts {
            out.push(EscrowInv::Credit(a));
        }
        for &a in &self.amounts {
            out.push(EscrowInv::Debit(a));
        }
        out
    }
}

impl StateCover for EscrowAccount {
    /// Cover argument: the state space is already finite (`0..=cap`) and
    /// fully reachable by unit credits... more precisely by a single credit
    /// when the amount fits, else by two.
    fn state_cover(&self, _ops: &[Op<Self>]) -> Vec<u64> {
        (0..=self.cap).collect()
    }

    fn reach_sequence(&self, state: &u64) -> Option<Vec<Op<Self>>> {
        if *state > self.cap {
            return None;
        }
        if *state == 0 {
            Some(Vec::new())
        } else {
            Some(vec![Op::new(EscrowInv::Credit(*state), EscrowResp::Ok)])
        }
    }
}

impl InvertibleAdt for EscrowAccount {
    fn undo(&self, state: &u64, op: &Op<Self>) -> Option<u64> {
        match (&op.inv, &op.resp) {
            (EscrowInv::Credit(i), EscrowResp::Ok) => state.checked_sub(*i),
            (EscrowInv::Debit(i), EscrowResp::Ok) => {
                let s = state.checked_add(*i)?;
                (s <= self.cap).then_some(s)
            }
            (_, EscrowResp::No) => Some(*state),
        }
    }
}

impl RwClassify for EscrowAccount {
    fn is_write(&self, _inv: &EscrowInv) -> bool {
        true // every escrow operation updates (or may update) the balance
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[credit(i), ok]`
    pub fn credit_ok(i: u64) -> Op<EscrowAccount> {
        Op::new(EscrowInv::Credit(i), EscrowResp::Ok)
    }
    /// `[credit(i), no]`
    pub fn credit_no(i: u64) -> Op<EscrowAccount> {
        Op::new(EscrowInv::Credit(i), EscrowResp::No)
    }
    /// `[debit(i), ok]`
    pub fn debit_ok(i: u64) -> Op<EscrowAccount> {
        Op::new(EscrowInv::Debit(i), EscrowResp::Ok)
    }
    /// `[debit(i), no]`
    pub fn debit_no(i: u64) -> Op<EscrowAccount> {
        Op::new(EscrowInv::Debit(i), EscrowResp::No)
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::spec::legal;

    #[test]
    fn bounds_are_enforced() {
        let e = EscrowAccount::new(3, [1, 2]);
        assert!(legal(&e, &[credit_ok(3), credit_no(1), debit_ok(2), debit_no(2)]));
        assert!(!legal(&e, &[credit_ok(4)])); // 0 + 4 > cap ⇒ Ok is illegal
        assert!(!legal(&e, &[credit_ok(2), credit_ok(2)]));
    }

    #[test]
    fn undo_respects_cap() {
        let e = EscrowAccount::new(3, [1]);
        assert_eq!(e.undo(&3, &credit_ok(2)), Some(1));
        assert_eq!(e.undo(&2, &debit_ok(1)), Some(3));
        assert_eq!(e.undo(&3, &debit_ok(1)), None, "undo above cap impossible");
        assert_eq!(e.undo(&2, &credit_no(2)), Some(2));
    }

    #[test]
    fn both_relations_conflict_on_mirrored_bounds() {
        use ccr_core::conflict::{Conflict, Derived};
        let e = EscrowAccount::default();
        let (nfc, nrbc) = (Derived::nfc("escrow", e.clone()), Derived::nrbc("escrow", e));
        // Two successful credits can jointly overflow: NFC but not NRBC.
        assert!(nfc.conflicts(&credit_ok(1), &credit_ok(2)));
        assert!(!nrbc.conflicts(&credit_ok(1), &credit_ok(2)));
        // A failed credit cannot be pushed before a successful one: NRBC but
        // not NFC.
        assert!(nrbc.conflicts(&credit_no(1), &credit_ok(2)));
        assert!(!nfc.conflicts(&credit_no(1), &credit_ok(2)));
    }
}
