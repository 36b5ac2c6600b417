//! End-to-end correctness property: every execution the runtime produces
//! under a Theorem-9/10-correct pairing is dynamic atomic — checked by the
//! independent formal machinery of `ccr-core` on randomly generated
//! workloads, schedules and seeds. This is the strongest cross-crate
//! invariant in the repository.

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
use ccr::adt::semiqueue::{Semiqueue, SqInv};
use ccr::core::atomicity::{check_dynamic_atomic, SystemSpec};
use ccr::core::conflict::{Conflict, Derived, SymmetricClosure, TotalConflict};
use ccr::core::ids::ObjectId;
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine, UipInverseEngine};
use ccr::runtime::scheduler::{run, SchedulerCfg};
use ccr::runtime::script::{OpsScript, Script};
use ccr::runtime::threaded::{run_threaded, ThreadedCfg};
use ccr::runtime::{ConflictPolicy, TxnSystem};
use proptest::prelude::*;

/// A random bank workload: per-script lists of (object, invocation).
fn bank_scripts() -> impl Strategy<Value = Vec<Vec<(u32, BankInv)>>> {
    let inv = prop_oneof![
        (1u64..=3).prop_map(BankInv::Deposit),
        (1u64..=3).prop_map(BankInv::Withdraw),
        Just(BankInv::Balance),
    ];
    prop::collection::vec(prop::collection::vec(((0u32..2), inv), 1..4), 1..6)
}

fn to_scripts(raw: &[Vec<(u32, BankInv)>]) -> Vec<Box<dyn Script<BankAccount>>> {
    raw.iter()
        .map(|steps| {
            Box::new(OpsScript::new(steps.iter().map(|(o, i)| (ObjectId(*o), i.clone())).collect()))
                as Box<dyn Script<BankAccount>>
        })
        .collect()
}

fn run_and_check<E, C>(raw: &[Vec<(u32, BankInv)>], conflict: C, seed: u64) -> (u64, bool)
where
    E: RecoveryEngine<BankAccount>,
    C: Conflict<BankAccount>,
{
    let mut sys: TxnSystem<BankAccount, E, C> = TxnSystem::new(BankAccount::default(), 2, conflict);
    // Seed funds so withdrawals can succeed.
    let t = sys.begin();
    sys.invoke(t, ObjectId(0), BankInv::Deposit(20)).unwrap();
    sys.invoke(t, ObjectId(1), BankInv::Deposit(20)).unwrap();
    sys.commit(t).unwrap();
    let report = run(&mut sys, to_scripts(raw), &SchedulerCfg { seed, ..Default::default() });
    let spec = SystemSpec::uniform(BankAccount::default(), 2);
    (report.committed, check_dynamic_atomic(&spec, sys.trace()).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// UIP + NRBC (Theorem 9's pairing): all commit, trace dynamic atomic.
    #[test]
    fn uip_nrbc_always_dynamic_atomic(raw in bank_scripts(), seed in 0u64..1000) {
        let n = raw.len() as u64;
        let (committed, da) = run_and_check::<UipEngine<BankAccount>, _>(&raw, bank_nrbc(), seed);
        prop_assert_eq!(committed, n, "every script must eventually commit");
        prop_assert!(da, "trace must be dynamic atomic");
    }

    /// Same with inverse-based undo — the ablation must not change
    /// semantics.
    #[test]
    fn uip_inverse_always_dynamic_atomic(raw in bank_scripts(), seed in 0u64..1000) {
        let (committed, da) =
            run_and_check::<UipInverseEngine<BankAccount>, _>(&raw, bank_nrbc(), seed);
        prop_assert_eq!(committed, raw.len() as u64);
        prop_assert!(da);
    }

    /// DU + NFC (Theorem 10's pairing).
    #[test]
    fn du_nfc_always_dynamic_atomic(raw in bank_scripts(), seed in 0u64..1000) {
        let (committed, da) = run_and_check::<DuEngine<BankAccount>, _>(&raw, bank_nfc(), seed);
        prop_assert_eq!(committed, raw.len() as u64);
        prop_assert!(da);
    }

    /// Over-approximating the required relation stays safe: UIP with
    /// sym(NRBC) and with the total relation.
    #[test]
    fn stronger_relations_remain_safe(raw in bank_scripts(), seed in 0u64..100) {
        let (_, da) = run_and_check::<UipEngine<BankAccount>, _>(
            &raw,
            SymmetricClosure(bank_nrbc()),
            seed,
        );
        prop_assert!(da);
        let (_, da) = run_and_check::<UipEngine<BankAccount>, _>(&raw, TotalConflict, seed);
        prop_assert!(da);
    }

    /// The *mismatched* pairing DU + NRBC may abort transactions at
    /// validation, but the committed trace must still be dynamic atomic
    /// (the runtime's last line of defence holds).
    #[test]
    fn du_with_nrbc_commits_are_still_atomic(raw in bank_scripts(), seed in 0u64..100) {
        let (_, da) = run_and_check::<DuEngine<BankAccount>, _>(&raw, bank_nrbc(), seed);
        prop_assert!(da);
    }
}

/// Crosswise balance-then-deposit scripts over two objects — the classic
/// deadlock-prone pattern (each script reads one object, then updates the
/// other, half of them in each order).
fn crosswise_scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
    let (x, y) = (ObjectId(0), ObjectId(1));
    (0..n)
        .map(|i| {
            let (first, second) = if i % 2 == 0 { (x, y) } else { (y, x) };
            Box::new(OpsScript::new(vec![(first, BankInv::Balance), (second, BankInv::Deposit(1))]))
                as Box<dyn Script<BankAccount>>
        })
        .collect()
}

/// Wound-wait under the threaded executor (≥ 4 workers): an older requester
/// wounds younger lock holders, so wait-for edges only ever point from
/// younger to older transactions — the graph stays acyclic and the
/// deadlock detector must never fire, while the deadlock-prone crosswise
/// workload still commits completely and stays dynamic atomic.
#[test]
fn threaded_wound_wait_keeps_wait_for_acyclic() {
    let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 2, bank_nrbc())
            .with_policy(ConflictPolicy::WoundWait);
    let cfg = ThreadedCfg { workers: 6, ..Default::default() };
    let (report, sys) = run_threaded(sys, crosswise_scripts(10), &cfg);
    assert_eq!(report.deadlock_aborts, 0, "wound-wait admits no wait-for cycles");
    assert_eq!(report.gave_up, 0, "the oldest transaction always progresses");
    assert_eq!(report.committed, 10);
    let spec = SystemSpec::uniform(BankAccount::default(), 2);
    assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
}

/// No-wait under the threaded executor: a conflicting request aborts
/// immediately instead of blocking, so nothing ever waits — zero blocked
/// operations and zero deadlock aborts by construction; a refused script
/// stays off the system until a commit (the executor's wake rule), so every
/// script commits within the default retry budget, and the committed trace
/// is dynamic atomic.
#[test]
fn threaded_no_wait_never_deadlocks() {
    let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 2, bank_nrbc()).with_policy(ConflictPolicy::NoWait);
    let cfg = ThreadedCfg { workers: 6, ..Default::default() };
    let (report, sys) = run_threaded(sys, crosswise_scripts(10), &cfg);
    assert_eq!(report.blocked_ops, 0, "no-wait must never block");
    assert_eq!(report.deadlock_aborts, 0, "nothing waits, so nothing deadlocks");
    assert_eq!(report.gave_up, 0, "a refused script waits for a commit, not for its budget");
    assert_eq!(report.committed, 10);
    let spec = SystemSpec::uniform(BankAccount::default(), 2);
    assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
}

// Non-deterministic specification end-to-end: semiqueue producers and
// consumers under both pairings.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn semiqueue_runs_dynamic_atomic(
        producers in 1usize..4,
        consumers in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut scripts: Vec<Box<dyn Script<Semiqueue>>> = Vec::new();
        for i in 0..producers {
            scripts.push(Box::new(OpsScript::on(
                ObjectId::SOLE,
                vec![SqInv::Enq(i as u8 % 3), SqInv::Enq((i as u8 + 1) % 3)],
            )));
        }
        for _ in 0..consumers {
            scripts.push(Box::new(OpsScript::on(ObjectId::SOLE, vec![SqInv::Deq])));
        }
        let spec = SystemSpec::single(Semiqueue::default());

        let mut sys: TxnSystem<Semiqueue, UipEngine<Semiqueue>, _> =
            TxnSystem::new(Semiqueue::default(), 1, Derived::nrbc("semiqueue", Semiqueue::default()));
        let report = run(&mut sys, scripts, &SchedulerCfg { seed, ..Default::default() });
        prop_assert_eq!(report.gave_up, 0);
        prop_assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }

    #[test]
    fn semiqueue_du_runs_dynamic_atomic(
        producers in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut scripts: Vec<Box<dyn Script<Semiqueue>>> = Vec::new();
        for i in 0..producers {
            scripts.push(Box::new(OpsScript::on(
                ObjectId::SOLE,
                vec![SqInv::Enq(i as u8 % 3), SqInv::Deq],
            )));
        }
        let spec = SystemSpec::single(Semiqueue::default());
        let mut sys: TxnSystem<Semiqueue, DuEngine<Semiqueue>, _> =
            TxnSystem::new(Semiqueue::default(), 1, Derived::nfc("semiqueue", Semiqueue::default()));
        let report = run(&mut sys, scripts, &SchedulerCfg { seed, ..Default::default() });
        prop_assert_eq!(report.gave_up, 0);
        prop_assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }
}
