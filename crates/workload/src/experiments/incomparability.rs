//! **E5 — §6.4/§8 incomparability**: the two recovery methods place
//! incomparable constraints on concurrency control.
//!
//! Beyond listing the witnesses `NRBC ∖ NFC` and `NFC ∖ NRBC` for several
//! ADTs, this experiment runs the two *executions* that realise the
//! trade-off on the bank account:
//!
//! * a successful withdrawal requested while a **deposit** is held proceeds
//!   under DU+NFC but blocks under UIP+NRBC (`(withdraw_ok, deposit) ∈
//!   NRBC ∖ NFC`);
//! * a successful withdrawal requested while another **withdrawal** is held
//!   proceeds under UIP+NRBC but blocks under DU+NFC (`(withdraw_ok,
//!   withdraw_ok) ∈ NFC ∖ NRBC`).

use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
use ccr_core::adt::{EnumerableAdt, Op, StateCover};
use ccr_core::commutativity::build_tables;
use ccr_core::equieffect::InclusionCfg;
use ccr_core::ids::ObjectId;
use ccr_runtime::engine::{DuEngine, UipEngine};
use ccr_runtime::error::TxnError;
use ccr_runtime::system::TxnSystem;

const X: ObjectId = ObjectId::SOLE;

/// Outcome of one probe execution: did the second operation proceed?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// The operation executed concurrently.
    Proceeded,
    /// The operation blocked on the holder.
    Blocked,
}

/// Deposit held by an active transaction, withdrawal requested.
pub fn withdraw_while_deposit_held_uip() -> Probe {
    let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
    seed(&mut sys);
    let a = sys.begin();
    let b = sys.begin();
    sys.invoke(a, X, BankInv::Deposit(5)).unwrap();
    probe(sys.invoke(b, X, BankInv::Withdraw(3)))
}

/// Same interleaving under deferred update + NFC.
pub fn withdraw_while_deposit_held_du() -> Probe {
    let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nfc());
    seed(&mut sys);
    let a = sys.begin();
    let b = sys.begin();
    sys.invoke(a, X, BankInv::Deposit(5)).unwrap();
    probe(sys.invoke(b, X, BankInv::Withdraw(3)))
}

/// Withdrawal held, second withdrawal requested — UIP side.
pub fn withdraw_while_withdraw_held_uip() -> Probe {
    let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
    seed(&mut sys);
    let a = sys.begin();
    let b = sys.begin();
    sys.invoke(a, X, BankInv::Withdraw(3)).unwrap();
    probe(sys.invoke(b, X, BankInv::Withdraw(3)))
}

/// Withdrawal held, second withdrawal requested — DU side.
pub fn withdraw_while_withdraw_held_du() -> Probe {
    let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nfc());
    seed(&mut sys);
    let a = sys.begin();
    let b = sys.begin();
    sys.invoke(a, X, BankInv::Withdraw(3)).unwrap();
    probe(sys.invoke(b, X, BankInv::Withdraw(3)))
}

fn seed<E, C>(sys: &mut TxnSystem<BankAccount, E, C>)
where
    E: ccr_runtime::engine::RecoveryEngine<BankAccount>,
    C: ccr_core::conflict::Conflict<BankAccount>,
{
    let t = sys.begin();
    sys.invoke(t, X, BankInv::Deposit(100)).unwrap();
    sys.commit(t).unwrap();
}

fn probe(r: Result<ccr_adt::bank::BankResp, TxnError>) -> Probe {
    match r {
        Ok(_) => Probe::Proceeded,
        Err(TxnError::Blocked) => Probe::Blocked,
        Err(e) => panic!("unexpected probe error: {e}"),
    }
}

/// Count `NRBC ∖ NFC` and `NFC ∖ NRBC` witnesses for an ADT over its
/// alphabet-induced operation grid.
pub fn witness_counts<A>(adt: &A) -> (usize, usize)
where
    A: EnumerableAdt + StateCover,
{
    // Build the op grid from the alphabet: ops enabled in some cover state.
    let cover = adt.state_cover(&[]);
    let ops: Vec<Op<A>> = adt.ops_enabled_somewhere(&cover);
    let t = build_tables(adt, &ops, InclusionCfg::default());
    (t.nrbc_minus_nfc().len(), t.nfc_minus_nrbc().len())
}

/// Run and render.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("## E5 — Incomparability of the two recovery methods (§6.4)\n\n");
    out.push_str("Execution probes on the bank account (seeded balance 100):\n\n");
    out.push_str("| interleaving | UIP + NRBC | DU + NFC |\n|---|---|---|\n");
    out.push_str(&format!(
        "| withdraw while a **deposit** is held | {:?} | {:?} |\n",
        withdraw_while_deposit_held_uip(),
        withdraw_while_deposit_held_du(),
    ));
    out.push_str(&format!(
        "| withdraw while a **withdrawal** is held | {:?} | {:?} |\n\n",
        withdraw_while_withdraw_held_uip(),
        withdraw_while_withdraw_held_du(),
    ));
    out.push_str(
        "Each method admits an interleaving the other must forbid — the relations are \
         incomparable, so neither recovery method dominates (the paper's central claim).\n\n",
    );
    out.push_str(
        "Witness counts per ADT (`|NRBC ∖ NFC|`, `|NFC ∖ NRBC|`) over the alphabet grids:\n\n",
    );
    out.push_str("| ADT | NRBC ∖ NFC | NFC ∖ NRBC |\n|---|---:|---:|\n");
    let bank = BankAccount { amounts: vec![1, 2] };
    let (a, b) = witness_counts(&bank);
    out.push_str(&format!("| bank account | {a} | {b} |\n"));
    let counter = ccr_adt::counter::Counter;
    let (a, b) = counter_counts(&counter);
    out.push_str(&format!("| counter | {a} | {b} |\n"));
    let escrow = ccr_adt::escrow::EscrowAccount::new(4, [1, 2]);
    let (a, b) = witness_counts(&escrow);
    out.push_str(&format!("| escrow account | {a} | {b} |\n"));
    let set = ccr_adt::set::IntSet { elems: vec![0, 1] };
    let (a, b) = witness_counts(&set);
    out.push_str(&format!("| set | {a} | {b} |\n"));
    let queue = ccr_adt::queue::FifoQueue { values: vec![0, 1] };
    let (a, b) = witness_counts(&queue);
    out.push_str(&format!("| FIFO queue | {a} | {b} |\n"));
    let sq = ccr_adt::semiqueue::Semiqueue { values: vec![0, 1] };
    let (a, b) = witness_counts(&sq);
    out.push_str(&format!("| semiqueue | {a} | {b} |\n"));
    let pq = ccr_adt::pqueue::PQueue { values: vec![0, 1] };
    let (a, b) = witness_counts(&pq);
    out.push_str(&format!("| priority queue | {a} | {b} |\n"));
    let mr = ccr_adt::maxreg::MaxRegister { values: vec![0, 1, 2] };
    let (a, b) = witness_counts(&mr);
    out.push_str(&format!("| max-register | {a} | {b} |\n"));
    out
}

/// The counter's cover is value-unbounded; use a clipped grid.
fn counter_counts(c: &ccr_adt::counter::Counter) -> (usize, usize) {
    use ccr_adt::counter::{CounterInv, CounterResp};
    let ops = vec![
        Op::new(CounterInv::Inc, CounterResp::Ok),
        Op::new(CounterInv::Dec, CounterResp::Ok),
        Op::new(CounterInv::Dec, CounterResp::No),
        Op::new(CounterInv::Read, CounterResp::Val(0)),
        Op::new(CounterInv::Read, CounterResp::Val(1)),
    ];
    let t = build_tables(c, &ops, InclusionCfg::default());
    (t.nrbc_minus_nfc().len(), t.nfc_minus_nrbc().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_probes_realise_the_tradeoff() {
        assert_eq!(withdraw_while_deposit_held_uip(), Probe::Blocked);
        assert_eq!(withdraw_while_deposit_held_du(), Probe::Proceeded);
        assert_eq!(withdraw_while_withdraw_held_uip(), Probe::Proceeded);
        assert_eq!(withdraw_while_withdraw_held_du(), Probe::Blocked);
    }

    #[test]
    fn every_adt_has_witnesses_in_both_directions() {
        let bank = BankAccount { amounts: vec![1, 2] };
        let (a, b) = witness_counts(&bank);
        assert!(a > 0 && b > 0, "bank: ({a}, {b})");
        let escrow = ccr_adt::escrow::EscrowAccount::new(4, [1, 2]);
        let (a, b) = witness_counts(&escrow);
        assert!(a > 0 && b > 0, "escrow: ({a}, {b})");
    }
}
