//! Property tests for the simulated crash recovery: committed state always
//! survives, uncommitted work never does, and recovery is idempotent.

use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv, BankResp};
use ccr::core::ids::{ObjectId, TxnId};
use ccr::runtime::crash::DurableSystem;
use ccr::runtime::engine::UipEngine;
use ccr::runtime::TxnError;
use proptest::prelude::*;

type Durable = DurableSystem<
    BankAccount,
    UipEngine<BankAccount>,
    ccr::core::conflict::FnConflict<BankAccount>,
>;

#[derive(Clone, Debug)]
enum Ev {
    Begin(u8),
    Op(u8, u32, BankInv),
    Commit(u8),
    Abort(u8),
    Crash,
}

fn events() -> impl Strategy<Value = Vec<Ev>> {
    let inv = prop_oneof![
        (1u64..=3).prop_map(BankInv::Deposit),
        (1u64..=3).prop_map(BankInv::Withdraw),
        Just(BankInv::Balance),
    ];
    let ev = prop_oneof![
        4 => (0u8..3).prop_map(Ev::Begin),
        8 => ((0u8..3), (0u32..2), inv).prop_map(|(t, o, i)| Ev::Op(t, o, i)),
        4 => (0u8..3).prop_map(Ev::Commit),
        2 => (0u8..3).prop_map(Ev::Abort),
        1 => Just(Ev::Crash),
    ];
    prop::collection::vec(ev, 1..40)
}

/// Exhaustive crash-at-every-event-prefix sweep: two transactions of two
/// operations each, all 20 interleavings of their `(op, op, commit)` event
/// sequences, and a crash injected after *every* prefix of every
/// interleaving. After each recovery the durable state must equal the shadow
/// of exactly the transactions that committed before the crash, and a second
/// crash-recovery must be a no-op (idempotence).
#[test]
fn exhaustive_crash_prefix_sweep_two_txns_two_ops() {
    const SEED_FUNDS: u64 = 5;
    let scripts =
        [[BankInv::Deposit(2), BankInv::Withdraw(1)], [BankInv::Deposit(3), BankInv::Withdraw(2)]];

    // A 6-bit mask with exactly three set bits assigns each of the six
    // event slots to transaction 0 (set) or 1 (clear) — all C(6,3) = 20
    // interleavings.
    for mask in 0u32..64 {
        if mask.count_ones() != 3 {
            continue;
        }
        let order: Vec<usize> = (0..6).map(|i| usize::from(mask & (1 << i) == 0)).collect();
        for prefix in 0..=order.len() {
            let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
            let seed = sys.begin();
            sys.invoke(seed, ObjectId::SOLE, BankInv::Deposit(SEED_FUNDS)).unwrap();
            sys.commit(seed).unwrap();

            let mut txn: [Option<TxnId>; 2] = [None, None];
            let mut progress = [0usize; 2];
            let mut pending = [0i64; 2];
            let mut committed = SEED_FUNDS as i64;

            for &who in order.iter().take(prefix) {
                let step = progress[who];
                progress[who] += 1;
                if step < 2 {
                    let t = *txn[who].get_or_insert_with(|| sys.begin());
                    let inv = scripts[who][step].clone();
                    match sys.invoke(t, ObjectId::SOLE, inv.clone()) {
                        Ok(BankResp::Ok) => match inv {
                            BankInv::Deposit(i) => pending[who] += i as i64,
                            BankInv::Withdraw(i) => pending[who] -= i as i64,
                            BankInv::Balance => {}
                        },
                        Ok(_) => {}                  // refused withdrawal
                        Err(TxnError::Blocked) => {} // op lost to a conflict
                        Err(e) => panic!("unexpected: {e}"),
                    }
                } else if let Some(t) = txn[who].take() {
                    if sys.commit(t).is_ok() {
                        committed += pending[who];
                    }
                }
            }

            sys.crash_and_recover().unwrap_or_else(|e| {
                panic!("redo failed (mask {mask:#08b}, prefix {prefix}): {e:?}")
            });
            assert_eq!(
                sys.committed_state(ObjectId::SOLE) as i64,
                committed,
                "mask {mask:#08b}, prefix {prefix}"
            );
            sys.crash_and_recover().expect("recovery must be idempotent");
            assert_eq!(sys.committed_state(ObjectId::SOLE) as i64, committed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn crashes_preserve_exactly_the_committed_state(evs in events()) {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 2, bank_nrbc());
        let mut slots: [Option<TxnId>; 3] = [None; 3];
        // Shadow model: balances reflecting only *committed* transactions.
        let mut committed = [0u64; 2];
        let mut pending: [Vec<(usize, i64)>; 3] = [vec![], vec![], vec![]];

        for ev in evs {
            match ev {
                Ev::Begin(s) => {
                    if slots[s as usize].is_none() {
                        slots[s as usize] = Some(sys.begin());
                        pending[s as usize].clear();
                    }
                }
                Ev::Op(s, o, inv) => {
                    if let Some(t) = slots[s as usize] {
                        match sys.invoke(t, ObjectId(o), inv.clone()) {
                            Ok(ccr::adt::bank::BankResp::Ok) => match inv {
                                BankInv::Deposit(i) => {
                                    pending[s as usize].push((o as usize, i as i64))
                                }
                                BankInv::Withdraw(i) => {
                                    pending[s as usize].push((o as usize, -(i as i64)))
                                }
                                BankInv::Balance => {}
                            },
                            Ok(_) => {}
                            Err(TxnError::Blocked) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Ev::Commit(s) => {
                    if let Some(t) = slots[s as usize].take() {
                        if sys.commit(t).is_ok() {
                            for (o, d) in pending[s as usize].drain(..) {
                                committed[o] = (committed[o] as i64 + d) as u64;
                            }
                        }
                    }
                }
                Ev::Abort(s) => {
                    if let Some(t) = slots[s as usize].take() {
                        let _ = sys.abort(t);
                        pending[s as usize].clear();
                    }
                }
                Ev::Crash => {
                    sys.crash_and_recover().expect("redo must succeed under NRBC");
                    // All in-flight transactions die with the crash.
                    slots = [None; 3];
                    for p in &mut pending {
                        p.clear();
                    }
                    prop_assert_eq!(sys.committed_state(ObjectId(0)), committed[0]);
                    prop_assert_eq!(sys.committed_state(ObjectId(1)), committed[1]);
                }
            }
        }
        // Final crash: the durable state must equal the shadow model.
        sys.crash_and_recover().expect("redo must succeed");
        prop_assert_eq!(sys.committed_state(ObjectId(0)), committed[0]);
        prop_assert_eq!(sys.committed_state(ObjectId(1)), committed[1]);
        // And recovery is idempotent.
        sys.crash_and_recover().expect("second redo");
        prop_assert_eq!(sys.committed_state(ObjectId(0)), committed[0]);
    }
}
