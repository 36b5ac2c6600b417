//! Property tests for the simulated crash recovery: committed state always
//! survives, uncommitted work never does, recovery is idempotent, and redoing
//! a log at the engines rebuilds what re-invoking it would.

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv, BankResp};
use ccr::adt::semiqueue::{Semiqueue, SqInv, SqResp};
use ccr::core::adt::{Adt, Op};
use ccr::core::conflict::{Conflict, Derived};
use ccr::core::ids::{ObjectId, TxnId};
use ccr::runtime::crash::{DurableSystem, RedoError};
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine};
use ccr::runtime::{TxnError, TxnSystem};
use ccr::store::{LogBackend, MemBackend};
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

/// One generated transaction of a redo differential: its operations as
/// `(object, invocation)`, whether it commits (else it aborts), and whether a
/// checkpoint follows it.
type Step<I> = (Vec<(u32, I)>, bool, bool);

fn steps<I: std::fmt::Debug + Clone + 'static>(
    inv: impl Strategy<Value = I> + Clone + 'static,
) -> impl Strategy<Value = Vec<Step<I>>> {
    let ops = prop::collection::vec(((0u32..3), inv), 1..4);
    let step = (ops, (0u8..4), (0u8..6)).prop_map(|(ops, c, k)| (ops, c != 0, k == 0));
    prop::collection::vec(step, 0..12)
}

/// How a differential damages one logged operation: `flip` gives it a
/// response the first legal one is not, `illegal` an operation no view can
/// execute.
struct Damage<A: Adt> {
    flip: fn(&mut Op<A>),
    illegal: fn(&mut (u64, ObjectId, Op<A>)),
}

/// Run `script` serially on a durable system over the mem backend, crash it,
/// and hold the recovery to re-invoking the same log: every record through
/// public `begin` / `invoke` / `commit` on a fresh system. Then damage one
/// logged operation (`tamper` picks which, and how) and check that recovery
/// refuses it with the `RedoError` re-invoking earns — a diverged response
/// at its index, or a refused record — leaving the system it would have
/// replaced in place.
fn redo_matches_invoke<A, E, C>(
    spec: A,
    conflict: C,
    damage: Damage<A>,
    script: &[Step<A::Invocation>],
    tamper: (usize, usize, bool),
) -> Result<(), TestCaseError>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
{
    const N: u32 = 3;
    let mut sys: DurableSystem<A, E, C> = DurableSystem::new(spec.clone(), N, conflict.clone());
    for (ops, commit, checkpoint) in script {
        let t = sys.begin();
        for (obj, inv) in ops {
            sys.invoke(t, ObjectId(*obj), inv.clone()).expect("a lone transaction runs");
        }
        if *commit {
            sys.commit(t).expect("a lone transaction commits");
        } else {
            sys.abort(t).expect("abort");
        }
        if *checkpoint {
            sys.checkpoint();
        }
    }
    let log = sys.backend().read_log().expect("an intact log");

    let mut reference: TxnSystem<A, E, C> = TxnSystem::new(spec, N, conflict);
    for (obj, state) in log.checkpoint.iter().flat_map(|c| &c.states) {
        reference.restore_committed(*obj, state.clone());
    }
    for rec in &log.records {
        let t = reference.begin();
        for (_, obj, op) in &rec.ops {
            prop_assert_eq!(reference.invoke(t, *obj, op.inv.clone()).unwrap(), op.resp.clone());
        }
        reference.commit(t).expect("a lone transaction commits");
    }
    reference.reserve_txn_ids(log.txn_floor);
    let agree = |sys: &mut DurableSystem<A, E, C>, reference: &mut TxnSystem<A, E, C>| {
        for obj in (0..N).map(ObjectId) {
            prop_assert_eq!(sys.committed_state(obj), reference.committed_state(obj));
        }
        prop_assert_eq!(sys.system().next_txn_id(), reference.next_txn_id());
        prop_assert_eq!(sys.system().trace(), reference.trace());
        prop_assert_eq!(sys.trace_base(), log.checkpoint.as_ref().map(|c| c.states.as_slice()));
        Ok(())
    };
    sys.crash_and_recover().expect("an intact log redoes");
    agree(&mut sys, &mut reference)?;

    if log.records.is_empty() {
        return Ok(());
    }
    let mut records = log.records.clone();
    let record = tamper.0 % records.len();
    let op = tamper.1 % records[record].ops.len();
    let want = if tamper.2 {
        (damage.flip)(&mut records[record].ops[op].2);
        RedoError::ResponseDiverged { record, op }
    } else {
        (damage.illegal)(&mut records[record].ops[op]);
        RedoError::ReplayRefused { record }
    };
    let mut damaged = MemBackend::new();
    if let Some(img) = &log.checkpoint {
        damaged.write_checkpoint(img).expect("mem checkpoint");
    }
    for rec in &records {
        damaged.append_commit(rec).expect("mem append");
    }
    *sys.backend_mut() = damaged;
    prop_assert_eq!(sys.crash_and_recover(), Err(want));
    agree(&mut sys, &mut reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn redo_matches_invoke_bank_uip_nrbc(
        script in steps(prop_oneof![
            (1u64..=3).prop_map(BankInv::Deposit),
            (1u64..=3).prop_map(BankInv::Withdraw),
            Just(BankInv::Balance),
        ]),
        tamper in ((0usize..64), (0usize..8), (0u8..2)),
    ) {
        redo_matches_invoke::<_, UipEngine<BankAccount>, _>(
            BankAccount::default(), bank_nrbc(), bank_damage(), &script,
            (tamper.0, tamper.1, tamper.2 == 0),
        )?;
    }

    #[test]
    fn redo_matches_invoke_bank_du_nfc(
        script in steps(prop_oneof![
            (1u64..=3).prop_map(BankInv::Deposit),
            (1u64..=3).prop_map(BankInv::Withdraw),
            Just(BankInv::Balance),
        ]),
        tamper in ((0usize..64), (0usize..8), (0u8..2)),
    ) {
        redo_matches_invoke::<_, DuEngine<BankAccount>, _>(
            BankAccount::default(), bank_nfc(), bank_damage(), &script,
            (tamper.0, tamper.1, tamper.2 == 0),
        )?;
    }

    // Non-deterministic: a `deq` of a bag holding several values has several
    // legal responses, and recovery must pick the first, as `invoke` did.
    #[test]
    fn redo_matches_invoke_semiqueue_uip_nrbc(
        script in steps(prop_oneof![
            2 => (0u8..3).prop_map(SqInv::Enq),
            1 => Just(SqInv::Deq),
        ]),
        tamper in ((0usize..64), (0usize..8), (0u8..2)),
    ) {
        let spec = Semiqueue::default();
        let damage = Damage {
            flip: |op| {
                op.resp = match op.resp {
                    SqResp::Got(v) => SqResp::Got(v + 1),
                    SqResp::Ok | SqResp::Empty => SqResp::Got(0),
                }
            },
            illegal: |(_, obj, _)| *obj = ObjectId(3),
        };
        redo_matches_invoke::<_, UipEngine<Semiqueue>, _>(
            spec.clone(), Derived::nrbc("semiqueue", spec), damage, &script,
            (tamper.0, tamper.1, tamper.2 == 0),
        )?;
    }
}

fn bank_damage() -> Damage<BankAccount> {
    Damage {
        flip: |op| {
            op.resp = match op.resp {
                BankResp::Ok => BankResp::No,
                BankResp::No => BankResp::Ok,
                BankResp::Val(v) => BankResp::Val(v + 1),
            }
        },
        illegal: |(_, _, op)| op.inv = BankInv::Deposit(0),
    }
}
