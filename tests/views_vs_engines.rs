//! The runtime's recovery engines must realise the paper's `View` functions
//! exactly: at every step of an execution, the state an engine shows a
//! transaction equals the fold of `UIP(H, A)` / `DU(H, A)` computed by the
//! abstract definitions over the recorded history.

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
use ccr::core::ids::{ObjectId, TxnId};
use ccr::core::spec::reach;
use ccr::core::view::{Du, Uip, ViewFn};
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine};
use ccr::runtime::{TxnError, TxnSystem};
use proptest::prelude::*;

const OBJS: u32 = 2;

#[derive(Clone, Debug)]
enum Action {
    Invoke(u8, u32, BankInv), // txn slot, object, invocation
    Commit(u8),
    Abort(u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    let inv = prop_oneof![
        (1u64..=3).prop_map(BankInv::Deposit),
        (1u64..=3).prop_map(BankInv::Withdraw),
        Just(BankInv::Balance),
    ];
    prop_oneof![
        ((0u8..4), (0u32..OBJS), inv).prop_map(|(t, o, i)| Action::Invoke(t, o, i)),
        (0u8..4).prop_map(Action::Commit),
        (0u8..4).prop_map(Action::Abort),
    ]
}

/// Drive a random action sequence through the system, and after every
/// successful step compare each engine view with the abstract view computed
/// from the recorded trace.
fn check_views<E, V, C>(actions: &[Action], conflict: C, view: V)
where
    E: RecoveryEngine<BankAccount>,
    V: ViewFn<BankAccount>,
    C: ccr::core::conflict::Conflict<BankAccount>,
{
    let adt = BankAccount::default();
    let mut sys: TxnSystem<BankAccount, E, C> = TxnSystem::new(adt.clone(), OBJS, conflict);
    let mut slots: [Option<TxnId>; 4] = [None; 4];
    for a in actions {
        match a {
            Action::Invoke(slot, obj, inv) => {
                let txn = *slots[*slot as usize].get_or_insert_with(|| sys.begin());
                match sys.invoke(txn, ObjectId(*obj), inv.clone()) {
                    Ok(_) | Err(TxnError::Blocked) => {}
                    Err(TxnError::Aborted(_)) => slots[*slot as usize] = None,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            Action::Commit(slot) => {
                if let Some(txn) = slots[*slot as usize].take() {
                    let _ = sys.commit(txn);
                }
            }
            Action::Abort(slot) => {
                if let Some(txn) = slots[*slot as usize].take() {
                    let _ = sys.abort(txn);
                }
            }
        }
        // Engine views ≡ abstract views, for every live transaction and
        // object.
        let trace = sys.trace().clone();
        for slot in slots.iter().flatten() {
            for obj in 0..OBJS {
                let abstract_ops = view.view(&trace, ObjectId(obj), *slot);
                let abstract_state = reach(&adt, &abstract_ops);
                let engine_state = sys.view_state(*slot, ObjectId(obj)).expect("object exists");
                assert_eq!(
                    abstract_state.states(),
                    &[engine_state],
                    "engine diverged from {} view for {slot} at X{obj}",
                    view.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uip_engine_realises_uip_view(
        actions in prop::collection::vec(action_strategy(), 1..25)
    ) {
        check_views::<UipEngine<BankAccount>, _, _>(&actions, bank_nrbc(), Uip);
    }

    #[test]
    fn du_engine_realises_du_view(
        actions in prop::collection::vec(action_strategy(), 1..25)
    ) {
        check_views::<DuEngine<BankAccount>, _, _>(&actions, bank_nfc(), Du);
    }
}

/// A deterministic spot check including an abort in the middle — the
/// interesting case for UIP (replay) and DU (workspace discard).
#[test]
fn views_agree_across_aborts() {
    let actions = vec![
        Action::Invoke(0, 0, BankInv::Deposit(5)),
        Action::Invoke(1, 0, BankInv::Deposit(3)),
        Action::Invoke(0, 1, BankInv::Deposit(7)),
        Action::Abort(0),
        Action::Invoke(2, 0, BankInv::Balance),
        Action::Commit(1),
        Action::Invoke(2, 1, BankInv::Balance),
        Action::Commit(2),
    ];
    check_views::<UipEngine<BankAccount>, _, _>(&actions, bank_nrbc(), Uip);
    check_views::<DuEngine<BankAccount>, _, _>(&actions, bank_nfc(), Du);
}
