//! Money-conservation property: transfer transactions (withdraw here,
//! deposit there; abort on refusal) never create or destroy money, under any
//! engine, conflict relation, policy, schedule seed, or executor — the
//! application-level face of atomicity.

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv, BankResp};
use ccr::core::conflict::{Conflict, SymmetricClosure};
use ccr::core::ids::ObjectId;
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine, UipInverseEngine};
use ccr::runtime::scheduler::{run, SchedulerCfg};
use ccr::runtime::script::{ConditionalScript, Script, Step};
use ccr::runtime::threaded::{run_threaded, ThreadedCfg};
use ccr::runtime::{ConflictPolicy, TxnSystem};
use proptest::prelude::*;

include!("common/transfers.rs");

const SEED_FUNDS: u64 = 20;

fn total<E, C>(sys: &mut TxnSystem<BankAccount, E, C>) -> u64
where
    E: RecoveryEngine<BankAccount>,
    C: Conflict<BankAccount>,
{
    (0..ACCOUNTS).map(|i| sys.committed_state(ObjectId(i))).sum()
}

fn seed_funds<E, C>(sys: &mut TxnSystem<BankAccount, E, C>)
where
    E: RecoveryEngine<BankAccount>,
    C: Conflict<BankAccount>,
{
    let t = sys.begin();
    for i in 0..ACCOUNTS {
        sys.invoke(t, ObjectId(i), BankInv::Deposit(SEED_FUNDS)).unwrap();
    }
    sys.commit(t).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn conservation_under_every_configuration(
        seed in 0u64..10_000,
        n in 1usize..10,
        mpl in 0usize..4,
    ) {
        let cfg = SchedulerCfg { seed, mpl, ..Default::default() };

        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), ACCOUNTS, bank_nrbc());
        seed_funds(&mut sys);
        run(&mut sys, transfers(n), &cfg);
        prop_assert_eq!(total(&mut sys), SEED_FUNDS * ACCOUNTS as u64);

        let mut sys: TxnSystem<BankAccount, UipInverseEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), ACCOUNTS, bank_nrbc())
                .with_policy(ConflictPolicy::WoundWait);
        seed_funds(&mut sys);
        run(&mut sys, transfers(n), &cfg);
        prop_assert_eq!(total(&mut sys), SEED_FUNDS * ACCOUNTS as u64);

        let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), ACCOUNTS, bank_nfc());
        seed_funds(&mut sys);
        run(&mut sys, transfers(n), &cfg);
        prop_assert_eq!(total(&mut sys), SEED_FUNDS * ACCOUNTS as u64);

        // Even the mismatched pairing conserves: validation aborts discard
        // whole transactions, never halves of them (atomic commitment).
        let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), ACCOUNTS, SymmetricClosure(bank_nrbc()));
        seed_funds(&mut sys);
        run(&mut sys, transfers(n), &cfg);
        prop_assert_eq!(total(&mut sys), SEED_FUNDS * ACCOUNTS as u64);
    }
}

#[test]
fn conservation_under_optimistic_execution() {
    use ccr::runtime::optimistic::OptimisticSystem;
    use ccr::runtime::TxnError;
    let mut sys = OptimisticSystem::new(BankAccount::default(), ACCOUNTS, bank_nfc());
    let t = sys.begin();
    for i in 0..ACCOUNTS {
        sys.invoke(t, ObjectId(i), BankInv::Deposit(SEED_FUNDS)).unwrap();
    }
    sys.commit(t).unwrap();

    // Drive transfer scripts manually with retry-on-validation.
    for mut script in transfers(24) {
        let mut attempts = 0;
        'retry: loop {
            attempts += 1;
            assert!(attempts < 100, "optimistic retry storm");
            script.reset();
            let txn = sys.begin();
            let mut last = None;
            loop {
                match script.next(last.as_ref()) {
                    Step::Invoke(obj, inv) => {
                        last = Some(sys.invoke(txn, obj, inv).unwrap());
                    }
                    Step::Commit => match sys.commit(txn) {
                        Ok(()) => break 'retry,
                        Err(TxnError::Aborted(_)) => continue 'retry,
                        Err(e) => panic!("{e}"),
                    },
                    Step::Abort => {
                        sys.abort(txn).unwrap();
                        break 'retry;
                    }
                }
            }
        }
    }
    let total: u64 = (0..ACCOUNTS).map(|i| sys.committed_state(ObjectId(i))).sum();
    assert_eq!(total, SEED_FUNDS * ACCOUNTS as u64);
}

#[test]
fn conservation_under_threads() {
    for workers in [2usize, 4, 8] {
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), ACCOUNTS, bank_nrbc());
        seed_funds(&mut sys);
        let cfg = ThreadedCfg { workers, ..Default::default() };
        let (report, mut sys) = run_threaded(sys, transfers(24), &cfg);
        assert_eq!(report.committed + report.voluntary_aborts + report.gave_up, 24);
        assert_eq!(total(&mut sys), SEED_FUNDS * ACCOUNTS as u64, "{workers} workers");
    }
}
