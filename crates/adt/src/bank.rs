//! The paper's running example: a bank account (§3.2, Figures 6-1/6-2).
//!
//! State: a non-negative integer balance, initially 0.
//! Operations (`i > 0` throughout, as in the paper):
//!
//! * `[deposit(i), ok]` — always enabled, adds `i`;
//! * `[withdraw(i), ok]` — enabled iff balance ≥ `i`, subtracts `i`;
//! * `[withdraw(i), no]` — enabled iff balance < `i`, no effect;
//! * `[balance, i]` — enabled iff balance = `i`, no effect.
//!
//! The hand-written conflict tables [`bank_nfc`] and [`bank_nrbc`] transcribe
//! the paper's Figure 6-1 (forward commutativity) and Figure 6-2 (right
//! backward commutativity); crate tests verify them against the relations
//! *computed* from this specification over a parameter grid, which is the
//! machine-checked reproduction of both figures.

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};
use ccr_core::conflict::FnConflict;

use crate::traits::{InvertibleAdt, RwClassify};

/// Money amounts; the paper leaves these abstract positive integers.
pub type Amount = u64;

/// The bank account specification.
///
/// `amounts` is the invocation alphabet used by bounded analyses (the grid of
/// `i`/`j` values in the figures); it does not restrict the specification
/// itself, which accepts any positive amount.
///
/// # Examples
///
/// Check the paper's §3.2 sequences against the specification:
///
/// ```
/// use ccr_adt::bank::{ops, BankAccount};
/// use ccr_core::spec::legal;
///
/// let ba = BankAccount::default();
/// assert!(legal(&ba, &[ops::deposit(5), ops::withdraw_ok(3), ops::balance(2)]));
/// assert!(!legal(&ba, &[ops::deposit(5), ops::withdraw_ok(3), ops::withdraw_ok(3)]));
/// ```
///
/// Decide commutativity (the relations behind Figures 6-1/6-2):
///
/// ```
/// use ccr_adt::bank::{ops, BankAccount};
/// use ccr_core::commutativity::{commute_forward, right_commutes_backward};
/// use ccr_core::equieffect::InclusionCfg;
///
/// let ba = BankAccount::default();
/// let cfg = InclusionCfg::default();
/// // Two successful withdrawals do not commute forward (they may overdraw)…
/// assert!(commute_forward(&ba, &ops::withdraw_ok(2), &ops::withdraw_ok(3), cfg).is_err());
/// // …but each right-commutes backward with the other, so update-in-place
/// // recovery lets them run concurrently (Theorem 9).
/// assert!(right_commutes_backward(&ba, &ops::withdraw_ok(2), &ops::withdraw_ok(3), cfg).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankAccount {
    /// Amounts used for deposit/withdraw invocations in bounded analyses.
    pub amounts: Vec<Amount>,
}

impl Default for BankAccount {
    fn default() -> Self {
        BankAccount { amounts: vec![1, 2, 3] }
    }
}

/// Bank account invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BankInv {
    /// `deposit(i)`, `i > 0`.
    Deposit(Amount),
    /// `withdraw(i)`, `i > 0`.
    Withdraw(Amount),
    /// `balance`.
    Balance,
}

/// Bank account responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BankResp {
    /// Success.
    Ok,
    /// Refused withdrawal (balance too low).
    No,
    /// The balance value.
    Val(Amount),
}

impl Adt for BankAccount {
    type State = Amount;
    type Invocation = BankInv;
    type Response = BankResp;

    fn initial(&self) -> Amount {
        0
    }

    fn step(&self, s: &Amount, inv: &BankInv) -> Outcomes<(BankResp, Amount)> {
        match inv {
            BankInv::Deposit(i) if *i > 0 => Outcomes::one((BankResp::Ok, s + i)),
            BankInv::Deposit(_) => Outcomes::none(), // the paper requires i > 0
            BankInv::Withdraw(i) if *i > 0 => {
                if *s >= *i {
                    Outcomes::one((BankResp::Ok, s - i))
                } else {
                    Outcomes::one((BankResp::No, *s))
                }
            }
            BankInv::Withdraw(_) => Outcomes::none(),
            BankInv::Balance => Outcomes::one((BankResp::Val(*s), *s)),
        }
    }
}

impl OpDeterministicAdt for BankAccount {}

impl EnumerableAdt for BankAccount {
    fn invocations(&self) -> Vec<BankInv> {
        let mut out = Vec::with_capacity(2 * self.amounts.len() + 1);
        for &a in &self.amounts {
            out.push(BankInv::Deposit(a));
        }
        for &a in &self.amounts {
            out.push(BankInv::Withdraw(a));
        }
        out.push(BankInv::Balance);
        out
    }
}

impl StateCover for BankAccount {
    /// Cover argument: the behaviour of any pair of operations with
    /// parameters drawn from `ops` (plus alphabet continuations) depends on
    /// the balance only through comparisons against sums of at most two of
    /// the mentioned amounts, and `[balance, v]` is enabled only at `v`.
    /// Hence balances `0 ..= Σ(mentioned amounts and values) + 1` contain a
    /// representative of every behavioural class, and every such balance is
    /// reachable (by a single deposit).
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Amount> {
        let mut bound: Amount = 1;
        for op in ops {
            bound += match &op.inv {
                BankInv::Deposit(i) | BankInv::Withdraw(i) => *i,
                BankInv::Balance => 0,
            };
            if let BankResp::Val(v) = &op.resp {
                bound += *v;
            }
        }
        bound += self.amounts.iter().copied().max().unwrap_or(0);
        (0..=bound).collect()
    }

    fn reach_sequence(&self, state: &Amount) -> Option<Vec<Op<Self>>> {
        if *state == 0 {
            Some(Vec::new())
        } else {
            Some(vec![Op::new(BankInv::Deposit(*state), BankResp::Ok)])
        }
    }
}

impl InvertibleAdt for BankAccount {
    fn undo(&self, state: &Amount, op: &Op<Self>) -> Option<Amount> {
        match (&op.inv, &op.resp) {
            (BankInv::Deposit(i), BankResp::Ok) => state.checked_sub(*i),
            (BankInv::Withdraw(i), BankResp::Ok) => state.checked_add(*i),
            (BankInv::Withdraw(_), BankResp::No) | (BankInv::Balance, _) => Some(*state),
            _ => None,
        }
    }
}

impl RwClassify for BankAccount {
    fn is_write(&self, inv: &BankInv) -> bool {
        !matches!(inv, BankInv::Balance)
    }
}

/// Operation kinds, the row/column labels of the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BankOpKind {
    /// `[deposit(i), ok]`
    DepositOk,
    /// `[withdraw(i), ok]`
    WithdrawOk,
    /// `[withdraw(i), no]`
    WithdrawNo,
    /// `[balance, i]`
    Balance,
}

/// Classify an operation into the figure's four kinds (`None` for
/// ill-formed pairs such as `[deposit(i), no]`, which no state enables).
pub fn kind(op: &Op<BankAccount>) -> Option<BankOpKind> {
    match (&op.inv, &op.resp) {
        (BankInv::Deposit(_), BankResp::Ok) => Some(BankOpKind::DepositOk),
        (BankInv::Withdraw(_), BankResp::Ok) => Some(BankOpKind::WithdrawOk),
        (BankInv::Withdraw(_), BankResp::No) => Some(BankOpKind::WithdrawNo),
        (BankInv::Balance, BankResp::Val(_)) => Some(BankOpKind::Balance),
        _ => None,
    }
}

/// Figure 6-1, transcribed: do operations of these kinds commute forward?
/// (Uniform in the parameters `i`, `j > 0` — verified in tests.)
pub fn fc_by_kind(p: BankOpKind, q: BankOpKind) -> bool {
    use BankOpKind::*;
    !matches!(
        (p, q),
        (DepositOk, WithdrawNo)
            | (DepositOk, Balance)
            | (WithdrawOk, WithdrawOk)
            | (WithdrawOk, Balance)
            | (WithdrawNo, DepositOk)
            | (Balance, DepositOk)
            | (Balance, WithdrawOk)
    )
}

/// Figure 6-2, transcribed: does an operation of kind `p` right commute
/// backward with one of kind `q`? Note the asymmetry: a deposit right
/// commutes backward with a successful withdrawal, but not conversely.
pub fn rbc_by_kind(p: BankOpKind, q: BankOpKind) -> bool {
    use BankOpKind::*;
    !matches!(
        (p, q),
        (DepositOk, WithdrawNo)
            | (DepositOk, Balance)
            | (WithdrawOk, DepositOk)
            | (WithdrawOk, Balance)
            | (WithdrawNo, WithdrawOk)
            | (Balance, DepositOk)
            | (Balance, WithdrawOk)
    )
}

/// The hand-written `NFC` conflict relation: the minimal conflict relation
/// for **deferred-update** recovery (Theorem 10). This is Figure 6-1's
/// complement refined to the instance level: the figure's marks hold for all
/// parameters *where the two operations can ever be co-enabled*; the corner
/// instances that cannot (e.g. `[withdraw(i), ok]` against `[balance, v]`
/// with `v < i`) commute vacuously and need no conflict. Operations outside
/// the four kinds conflict conservatively.
pub fn bank_nfc() -> FnConflict<BankAccount> {
    FnConflict::new("bank-NFC", |p, q| {
        let (Some(kp), Some(kq)) = (kind(p), kind(q)) else {
            return true;
        };
        use BankOpKind::*;
        match (kp, kq) {
            (DepositOk, WithdrawNo)
            | (WithdrawNo, DepositOk)
            | (DepositOk, Balance)
            | (Balance, DepositOk)
            | (WithdrawOk, WithdrawOk) => true,
            // A successful withdrawal of i and a balance read of v are
            // co-enabled only when v ≥ i.
            (WithdrawOk, Balance) => val(q) >= amount(p),
            (Balance, WithdrawOk) => val(p) >= amount(q),
            _ => false,
        }
    })
}

/// The hand-written `NRBC` conflict relation: the minimal conflict relation
/// for **update-in-place** recovery (Theorem 9); Figure 6-2's complement at
/// the instance level (see [`bank_nfc`] on the vacuous corner instances).
pub fn bank_nrbc() -> FnConflict<BankAccount> {
    FnConflict::new("bank-NRBC", |p, q| {
        let (Some(kp), Some(kq)) = (kind(p), kind(q)) else {
            return true;
        };
        use BankOpKind::*;
        match (kp, kq) {
            (DepositOk, WithdrawNo)
            | (DepositOk, Balance)
            | (WithdrawOk, DepositOk)
            | (WithdrawNo, WithdrawOk)
            | (Balance, WithdrawOk) => true,
            // `withdraw(i)·balance(v)` occurs only from balance v+i... the
            // problematic prefix `balance(v)·withdraw(i)` needs v ≥ i.
            (WithdrawOk, Balance) => val(q) >= amount(p),
            // `deposit(j)·balance(v)` needs a pre-balance of v − j ≥ 0.
            (Balance, DepositOk) => val(p) >= amount(q),
            _ => false,
        }
    })
}

fn amount(op: &Op<BankAccount>) -> Amount {
    match &op.inv {
        BankInv::Deposit(i) | BankInv::Withdraw(i) => *i,
        BankInv::Balance => 0,
    }
}

fn val(op: &Op<BankAccount>) -> Amount {
    match &op.resp {
        BankResp::Val(v) => *v,
        _ => 0,
    }
}

/// Convenience constructors for operations.
pub mod ops {
    use super::*;

    /// `[deposit(i), ok]`
    pub fn deposit(i: Amount) -> Op<BankAccount> {
        Op::new(BankInv::Deposit(i), BankResp::Ok)
    }

    /// `[withdraw(i), ok]`
    pub fn withdraw_ok(i: Amount) -> Op<BankAccount> {
        Op::new(BankInv::Withdraw(i), BankResp::Ok)
    }

    /// `[withdraw(i), no]`
    pub fn withdraw_no(i: Amount) -> Op<BankAccount> {
        Op::new(BankInv::Withdraw(i), BankResp::No)
    }

    /// `[balance, v]`
    pub fn balance(v: Amount) -> Op<BankAccount> {
        Op::new(BankInv::Balance, BankResp::Val(v))
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::prelude::*;
    use ccr_core::spec::legal;

    #[test]
    fn paper_section_3_2_example_sequences() {
        // Spec(BA) includes: deposit(5); withdraw(3) ok; balance 2;
        // withdraw(3) no.
        let ba = BankAccount::default();
        assert!(legal(&ba, &[deposit(5), withdraw_ok(3), balance(2), withdraw_no(3)]));
        // ... but not the same sequence with the final withdrawal succeeding.
        assert!(!legal(&ba, &[deposit(5), withdraw_ok(3), balance(2), withdraw_ok(3)]));
    }

    #[test]
    fn deposits_of_zero_are_undefined() {
        let ba = BankAccount::default();
        assert!(!legal(&ba, &[Op::new(BankInv::Deposit(0), BankResp::Ok)]));
        assert!(!legal(&ba, &[Op::new(BankInv::Withdraw(0), BankResp::Ok)]));
        assert!(!legal(&ba, &[Op::new(BankInv::Withdraw(0), BankResp::No)]));
    }

    #[test]
    fn withdraw_is_partial_on_results() {
        let ba = BankAccount::default();
        assert!(legal(&ba, &[withdraw_no(3)]));
        assert!(!legal(&ba, &[withdraw_ok(3)]));
        assert!(legal(&ba, &[deposit(3), withdraw_ok(3), balance(0)]));
    }

    #[test]
    fn undo_inverts_updates() {
        let ba = BankAccount::default();
        assert_eq!(ba.undo(&7, &deposit(3)), Some(4));
        assert_eq!(ba.undo(&7, &withdraw_ok(3)), Some(10));
        assert_eq!(ba.undo(&7, &withdraw_no(9)), Some(7));
        assert_eq!(ba.undo(&7, &balance(7)), Some(7));
        assert_eq!(ba.undo(&2, &deposit(3)), None, "cannot undo below zero");
    }

    #[test]
    fn state_cover_is_reachable_and_sufficient() {
        let ba = BankAccount::default();
        let ops = [deposit(2), withdraw_ok(3)];
        let cover = ba.state_cover(&ops);
        assert!(cover.contains(&0));
        assert!(cover.len() >= 6);
        for s in &cover {
            let seq = ba.reach_sequence(s).unwrap();
            let r = ccr_core::spec::reach(&ba, &seq);
            assert_eq!(r.states(), &[*s]);
        }
    }

    /// **Figure 6-1** (forward commutativity), verified cell by cell over a
    /// parameter grid: the computed relation matches the transcription for
    /// every combination of amounts.
    #[test]
    fn figure_6_1_forward_commutativity() {
        let ba = BankAccount::default();
        let cfg = InclusionCfg::default();
        let grid: Vec<Op<BankAccount>> = vec![
            deposit(1),
            deposit(2),
            deposit(3),
            withdraw_ok(1),
            withdraw_ok(2),
            withdraw_ok(3),
            withdraw_no(1),
            withdraw_no(2),
            withdraw_no(3),
            balance(0),
            balance(1),
            balance(2),
        ];
        use ccr_core::conflict::Conflict;
        use std::collections::HashMap;
        let nfc = bank_nfc();
        // Per-instance: the computed relation must equal the hand predicate.
        // Per-kind: a figure mark (x) means some instance pair of those kinds
        // conflicts — and for instances that can ever be co-enabled, all do.
        let mut any_conflict: HashMap<(BankOpKind, BankOpKind), bool> = HashMap::new();
        for p in &grid {
            for q in &grid {
                let computed = commute_forward(&ba, p, q, cfg);
                assert_eq!(
                    computed.is_err(),
                    nfc.conflicts(p, q),
                    "FC({p:?}, {q:?}): computed {:?} disagrees with the hand table",
                    computed.is_ok(),
                );
                if let Ok(e) = &computed {
                    assert!(e.exact, "verdict for ({p:?},{q:?}) must be exact");
                }
                let cell =
                    any_conflict.entry((kind(p).unwrap(), kind(q).unwrap())).or_insert(false);
                *cell |= computed.is_err();
            }
        }
        for ((kp, kq), conflicted) in any_conflict {
            assert_eq!(
                conflicted,
                !fc_by_kind(kp, kq),
                "Figure 6-1 cell ({kp:?}, {kq:?}) mismatch"
            );
        }
    }

    /// **Figure 6-2** (right backward commutativity), verified cell by cell.
    #[test]
    fn figure_6_2_right_backward_commutativity() {
        let ba = BankAccount::default();
        let cfg = InclusionCfg::default();
        let grid: Vec<Op<BankAccount>> = vec![
            deposit(1),
            deposit(3),
            withdraw_ok(1),
            withdraw_ok(3),
            withdraw_no(1),
            withdraw_no(3),
            balance(0),
            balance(2),
        ];
        use ccr_core::conflict::Conflict;
        use std::collections::HashMap;
        let nrbc = bank_nrbc();
        let mut any_conflict: HashMap<(BankOpKind, BankOpKind), bool> = HashMap::new();
        for p in &grid {
            for q in &grid {
                let computed = right_commutes_backward(&ba, p, q, cfg);
                assert_eq!(
                    computed.is_err(),
                    nrbc.conflicts(p, q),
                    "RBC({p:?}, {q:?}): computed {:?} disagrees with the hand table",
                    computed.is_ok(),
                );
                let cell =
                    any_conflict.entry((kind(p).unwrap(), kind(q).unwrap())).or_insert(false);
                *cell |= computed.is_err();
            }
        }
        for ((kp, kq), conflicted) in any_conflict {
            assert_eq!(
                conflicted,
                !rbc_by_kind(kp, kq),
                "Figure 6-2 cell ({kp:?}, {kq:?}) mismatch"
            );
        }
    }

    /// The paper's §6.3 worked example: a successful withdrawal does not
    /// right commute backward with a deposit, but the deposit does right
    /// commute backward with the withdrawal.
    #[test]
    fn section_6_3_asymmetry_example() {
        let ba = BankAccount::default();
        let cfg = InclusionCfg::default();
        let p = withdraw_ok(3);
        let q = deposit(2);
        let fail = right_commutes_backward(&ba, &p, &q, cfg).unwrap_err();
        // Witness: from some balance < 3 the deposit enables the withdrawal.
        let mut aqp = fail.prefix.clone();
        aqp.extend([q.clone(), p.clone()]);
        aqp.extend(fail.continuation.iter().cloned());
        assert!(legal(&ba, &aqp));
        // The converse direction holds.
        assert!(right_commutes_backward(&ba, &q, &p, cfg).is_ok());
    }

    /// §6.4: the two relations are incomparable — concrete witnesses.
    #[test]
    fn section_6_4_incomparability() {
        // (withdraw_ok, deposit) ∈ NRBC ∖ NFC: UIP must conflict, DU need not.
        assert!(!rbc_by_kind(BankOpKind::WithdrawOk, BankOpKind::DepositOk));
        assert!(fc_by_kind(BankOpKind::WithdrawOk, BankOpKind::DepositOk));
        // (withdraw_ok, withdraw_ok) ∈ NFC ∖ NRBC: DU must conflict, UIP
        // need not.
        assert!(rbc_by_kind(BankOpKind::WithdrawOk, BankOpKind::WithdrawOk));
        assert!(!fc_by_kind(BankOpKind::WithdrawOk, BankOpKind::WithdrawOk));
    }

    #[test]
    fn fc_table_is_symmetric_rbc_is_not() {
        use BankOpKind::*;
        let kinds = [DepositOk, WithdrawOk, WithdrawNo, Balance];
        for &a in &kinds {
            for &b in &kinds {
                assert_eq!(fc_by_kind(a, b), fc_by_kind(b, a));
            }
        }
        assert_ne!(rbc_by_kind(DepositOk, WithdrawOk), rbc_by_kind(WithdrawOk, DepositOk));
    }

    #[test]
    fn hand_conflicts_reject_malformed_ops() {
        use ccr_core::conflict::Conflict;
        let nfc = bank_nfc();
        let bad = Op::<BankAccount>::new(BankInv::Deposit(1), BankResp::No);
        assert!(nfc.conflicts(&bad, &deposit(1)));
    }
}
