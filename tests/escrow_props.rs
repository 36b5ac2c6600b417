//! Property tests for the escrow extension: under arbitrary interleavings of
//! requests, commits and aborts, the guaranteed-bounds invariant holds and
//! every granted operation is safe in every serialization.

use ccr::core::ids::TxnId;
use ccr::runtime::escrow::{EscrowObject, EscrowOutcome};
use ccr::runtime::TxnError;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Ev {
    Credit(u8, u64),
    Debit(u8, u64),
    Commit(u8),
    Abort(u8),
}

fn events() -> impl Strategy<Value = Vec<Ev>> {
    let ev = prop_oneof![
        ((0u8..4), (1u64..30)).prop_map(|(t, n)| Ev::Credit(t, n)),
        ((0u8..4), (1u64..30)).prop_map(|(t, n)| Ev::Debit(t, n)),
        (0u8..4).prop_map(Ev::Commit),
        (0u8..4).prop_map(Ev::Abort),
    ];
    prop::collection::vec(ev, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replaying any prefix: the committed balance stays in `0..=cap`, the
    /// bounds interval stays within `0..=cap` and always contains the
    /// committed balance of every possible completion (checked by actually
    /// completing with both extremes: abort-all and commit-all).
    #[test]
    fn escrow_bounds_are_sound(cap in 20u64..120, initial_frac in 0u64..100, evs in events()) {
        let initial = cap * initial_frac / 100;
        let mut e = EscrowObject::new(cap, initial);
        // Track live transactions for the completion replays.
        let mut live: Vec<TxnId> = Vec::new();
        for ev in &evs {
            match ev {
                Ev::Credit(t, n) => {
                    let t = TxnId(*t as u32);
                    match e.credit(t, *n) {
                        Ok(EscrowOutcome::Ok) => {
                            if !live.contains(&t) { live.push(t); }
                        }
                        Ok(EscrowOutcome::No) | Err(TxnError::Blocked) => {}
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
                Ev::Debit(t, n) => {
                    let t = TxnId(*t as u32);
                    match e.debit(t, *n) {
                        Ok(EscrowOutcome::Ok) => {
                            if !live.contains(&t) { live.push(t); }
                        }
                        Ok(EscrowOutcome::No) | Err(TxnError::Blocked) => {}
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
                Ev::Commit(t) => {
                    let t = TxnId(*t as u32);
                    e.commit(t);
                    live.retain(|x| *x != t);
                }
                Ev::Abort(t) => {
                    let t = TxnId(*t as u32);
                    e.abort(t);
                    live.retain(|x| *x != t);
                }
            }
            let (low, high) = e.bounds();
            prop_assert!(low <= high);
            prop_assert!(high <= cap, "upper bound within capacity");
            prop_assert!(e.committed() <= cap);
            prop_assert!(low <= e.committed() && e.committed() <= high);
        }
        // Completion replay 1: abort everyone → committed must equal `low`
        // is not required (low was a lower bound over *all* completions),
        // but it must land inside the final bounds interval computed before
        // completing.
        let (low, high) = e.bounds();
        let mut abort_all = e;
        for t in &live {
            abort_all.abort(*t);
        }
        prop_assert!(abort_all.committed() >= low && abort_all.committed() <= high);

        // Completion replay 2 needs a second copy; rebuild by replay.
        let mut commit_all = EscrowObject::new(cap, initial);
        let mut live2: Vec<TxnId> = Vec::new();
        for ev in &evs {
            match ev {
                Ev::Credit(t, n) => {
                    let t = TxnId(*t as u32);
                    if matches!(commit_all.credit(t, *n), Ok(EscrowOutcome::Ok))
                        && !live2.contains(&t)
                    {
                        live2.push(t);
                    }
                }
                Ev::Debit(t, n) => {
                    let t = TxnId(*t as u32);
                    if matches!(commit_all.debit(t, *n), Ok(EscrowOutcome::Ok))
                        && !live2.contains(&t)
                    {
                        live2.push(t);
                    }
                }
                Ev::Commit(t) => {
                    let t = TxnId(*t as u32);
                    commit_all.commit(t);
                    live2.retain(|x| *x != t);
                }
                Ev::Abort(t) => {
                    let t = TxnId(*t as u32);
                    commit_all.abort(t);
                    live2.retain(|x| *x != t);
                }
            }
        }
        for t in &live2 {
            commit_all.commit(*t);
        }
        prop_assert!(commit_all.committed() <= cap, "commit-all stays within capacity");
        prop_assert!(commit_all.committed() >= low && commit_all.committed() <= high);
    }

    /// Definite answers are definite: after a `No`, committing every live
    /// transaction still would not have made the operation legal, and after
    /// an `Ok`, aborting every live transaction leaves it legal.
    #[test]
    fn escrow_answers_are_serialization_proof(cap in 20u64..80, evs in events()) {
        let mut e = EscrowObject::new(cap, cap / 2);
        for ev in &evs {
            match ev {
                Ev::Debit(t, n) => {
                    let t = TxnId(*t as u32);
                    let (low, high) = e.bounds();
                    match e.debit(t, *n) {
                        Ok(EscrowOutcome::Ok) => prop_assert!(low >= *n),
                        Ok(EscrowOutcome::No) => prop_assert!(high < *n),
                        Err(TxnError::Blocked) => {
                            prop_assert!(low < *n && high >= *n)
                        }
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
                Ev::Credit(t, n) => {
                    let t = TxnId(*t as u32);
                    let (low, high) = e.bounds();
                    match e.credit(t, *n) {
                        Ok(EscrowOutcome::Ok) => prop_assert!(high + *n <= cap),
                        Ok(EscrowOutcome::No) => prop_assert!(low + *n > cap),
                        Err(TxnError::Blocked) => {
                            prop_assert!(high + *n > cap && low + *n <= cap)
                        }
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
                Ev::Commit(t) => e.commit(TxnId(*t as u32)),
                Ev::Abort(t) => e.abort(TxnId(*t as u32)),
            }
        }
    }
}
