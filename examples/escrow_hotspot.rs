//! The escrow extension (§8): state-dependent conflict testing admits
//! concurrency that *no* conflict relation can.
//!
//! The probe: with a committed balance of 50, a debit of 40 is requested
//! while an uncommitted *credit* is held.
//!
//! * UIP + NRBC must block — `(debit_ok, credit_ok) ∈ NRBC(escrow)` — the
//!   conflict test may not look at the state.
//! * The escrow method inspects the guaranteed balance interval and grants
//!   the debit immediately.
//!
//! ```text
//! cargo run --example escrow_hotspot
//! ```

use ccr::adt::escrow::{EscrowAccount, EscrowInv};
use ccr::core::conflict::Derived;
use ccr::core::ids::{ObjectId, TxnId};
use ccr::runtime::escrow::{EscrowObject, EscrowOutcome};
use ccr::runtime::{TxnError, TxnSystem, UipEngine};

fn main() {
    const CAP: u64 = 1000;

    println!("== conflict-relation locking (UIP + NRBC) ==");
    let adt = EscrowAccount::new(CAP, [10, 40]);
    let nrbc = Derived::nrbc("escrow", adt.clone());
    let mut sys: TxnSystem<EscrowAccount, UipEngine<EscrowAccount>, _> =
        TxnSystem::new(adt, 1, nrbc);
    let t = sys.begin();
    sys.invoke(t, ObjectId::SOLE, EscrowInv::Credit(50)).unwrap();
    sys.commit(t).unwrap();

    let a = sys.begin();
    let b = sys.begin();
    sys.invoke(a, ObjectId::SOLE, EscrowInv::Credit(10)).unwrap();
    match sys.invoke(b, ObjectId::SOLE, EscrowInv::Debit(40)) {
        Err(TxnError::Blocked) => {
            println!("debit(40) while credit held: BLOCKED on {:?}", sys.waiting_on(b));
        }
        other => println!("debit(40): {other:?}"),
    }

    println!("\n== escrow method (state-dependent conflict test) ==");
    let mut escrow = EscrowObject::new(CAP, 50);
    let a = TxnId(0);
    let b = TxnId(1);
    assert_eq!(escrow.credit(a, 10), Ok(EscrowOutcome::Ok));
    match escrow.debit(b, 40) {
        Ok(EscrowOutcome::Ok) => {
            println!("debit(40) while credit held: GRANTED (guaranteed in every serialization)");
        }
        other => println!("debit(40): {other:?}"),
    }
    println!("guaranteed balance interval now: {:?}", escrow.bounds());
    escrow.commit(a);
    escrow.commit(b);
    println!("committed balance: {}", escrow.committed());

    println!(
        "\nThe escrow method's conflict test depends on the current state, which the \
         paper's I(X, Spec, View, Conflict) framework deliberately excludes (§8) — \
         this is the concurrency that exclusion costs."
    );
}
