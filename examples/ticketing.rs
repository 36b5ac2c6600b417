//! A heterogeneous application: ticket sales with an audit log.
//!
//! One system holds two kinds of objects via the [`SumAdt`] combinator:
//!
//! * object 0 — the ticket **inventory**, a bank-style account (a sale
//!   withdraws one ticket; a return deposits one);
//! * object 1 — the **audit log**, a semiqueue of event records (order
//!   deliberately not specified, which is what buys concurrency).
//!
//! Each sale transaction touches both objects atomically: if the withdrawal
//! is refused (sold out), the transaction records nothing and aborts.
//! Under update-in-place + NRBC, concurrent sales never block each other:
//! successful withdrawals commute, and semiqueue appends always commute.
//!
//! ```text
//! cargo run --example ticketing
//! ```

use ccr::adt::bank::{self, BankAccount, BankInv, BankResp};
use ccr::adt::combine::{Either, SumAdt, SumConflict};
use ccr::adt::semiqueue::{Semiqueue, SqInv};
use ccr::core::atomicity::{check_dynamic_atomic, SystemSpec};
use ccr::core::conflict::{Derived, FnConflict};
use ccr::core::ids::ObjectId;
use ccr::runtime::scheduler::{run, SchedulerCfg};
use ccr::runtime::script::{ConditionalScript, Script, Step};
use ccr::runtime::{TxnSystem, UipEngine};

type App = SumAdt<BankAccount, Semiqueue>;

const INVENTORY: ObjectId = ObjectId(0);
const AUDIT: ObjectId = ObjectId(1);

type AppConflict = SumConflict<FnConflict<BankAccount>, Derived<Semiqueue>>;

/// Dispatch the per-side NRBC relations through the sum.
fn app_nrbc() -> AppConflict {
    SumConflict::new(bank::bank_nrbc(), Derived::nrbc("semiqueue", Semiqueue::default()))
}

/// Sell one ticket: withdraw from inventory; on success, append an audit
/// record; on "sold out", abort.
fn sale(record: u8) -> ConditionalScript<App> {
    // ConditionalScript takes a fn pointer; encode the record value in the
    // step index trick instead: one script shape per record value bucket.
    let _ = record;
    ConditionalScript::new(|pos, last| match pos {
        0 => Step::Invoke(INVENTORY, Either::L(BankInv::Withdraw(1))),
        1 => match last {
            Some(Either::L(BankResp::Ok)) => Step::Invoke(AUDIT, Either::R(SqInv::Enq(1))),
            _ => Step::Abort,
        },
        _ => Step::Commit,
    })
}

fn main() {
    let mut sys = build_system();

    let scripts: Vec<Box<dyn Script<App>>> =
        (0..20).map(|i| Box::new(sale(i as u8)) as Box<dyn Script<App>>).collect();

    // Stock 12 tickets: 20 buyers compete, 8 must be refused.
    let t = sys.begin();
    for _ in 0..12 {
        sys.invoke(t, INVENTORY, Either::L(BankInv::Deposit(1))).unwrap();
    }
    sys.commit(t).unwrap();

    let report = run(&mut sys, scripts, &SchedulerCfg::default());
    println!(
        "sales committed: {}   sold-out aborts: {}   blocked ops: {}",
        report.committed, report.voluntary_aborts, report.blocked_ops
    );

    let stock = sys.committed_state(INVENTORY);
    let audit = sys.committed_state(AUDIT);
    let sold = match (&stock, &audit) {
        (Either::L(remaining), Either::R(log)) => {
            let sold: u32 = log.values().sum();
            println!("tickets remaining: {remaining}   audit records: {sold}");
            sold
        }
        _ => unreachable!("object kinds are fixed"),
    };
    assert_eq!(sold as u64, report.committed, "every sale is audited");

    let spec = SystemSpec::single(SumAdt::Left(BankAccount::default()))
        .with_object(AUDIT, SumAdt::Right(Semiqueue::default()));
    println!("execution dynamic atomic: {}", check_dynamic_atomic(&spec, sys.trace()).is_ok());
}

/// A 2-object system whose objects carry different inner ADTs (the SumAdt
/// instance attached to each object decides which side it accepts).
fn build_system() -> TxnSystem<App, UipEngine<App>, AppConflict> {
    TxnSystem::new_with(
        vec![
            (INVENTORY, SumAdt::Left(BankAccount::default())),
            (AUDIT, SumAdt::Right(Semiqueue::default())),
        ],
        app_nrbc(),
    )
}
