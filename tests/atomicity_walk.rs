//! The per-object walk behind `check_dynamic_atomic` and
//! `check_online_dynamic_atomic`, against the definitions read literally:
//! every linear extension of `precedes` enumerated, and online every commit
//! set too. Inputs are random walks of object automata under `NoConflict`,
//! so many are not dynamic atomic and their refutations are compared.

use std::collections::BTreeSet;

use ccr::adt::bank::BankAccount;
use ccr::adt::semiqueue::Semiqueue;
use ccr::core::adt::{Adt, EnumerableAdt};
use ccr::core::atomicity::{
    check_dynamic_atomic, check_online_dynamic_atomic, serializable_in, DynAtomViolation,
    SystemSpec,
};
use ccr::core::conflict::NoConflict;
use ccr::core::explore::{random_history, ExploreCfg};
use ccr::core::history::{Event, History};
use ccr::core::ids::{ObjectId, TxnId};
use ccr::core::object::ObjectAutomaton;
use ccr::core::order::TxnOrder;
use ccr::core::view::{Du, Uip, ViewFn};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

include!("common/extensions.rs");

/// Dynamic atomicity by definition: the first linear extension of
/// `precedes` over `Committed(h)`, in lexicographic order, in which
/// `permanent(h)` does not serialize.
fn reference<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> Result<(), DynAtomViolation> {
    let permanent = h.permanent();
    let committed: Vec<TxnId> = permanent.txns().into_iter().collect();
    let prec = TxnOrder::from_pairs(h.precedes()).restrict(&committed);
    let mut violation = None;
    for_each_extension(&prec, &committed, |order| {
        if serializable_in(spec, &permanent, order) {
            true
        } else {
            violation =
                Some(DynAtomViolation { commit_set: committed.clone(), order: order.to_vec() });
            false
        }
    });
    violation.map_or(Ok(()), Err)
}

/// Online dynamic atomicity by definition: dynamic atomicity of `h|CS` for
/// every commit set `CS`, taken in the order of bit masks over the active
/// transactions.
fn reference_online<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> Result<(), DynAtomViolation> {
    let active: Vec<TxnId> = h.active().into_iter().collect();
    for mask in 0..(1u64 << active.len()) {
        let mut cs = h.committed();
        cs.extend(active.iter().enumerate().filter(|(i, _)| mask & 1 << i != 0).map(|(_, t)| *t));
        let hcs = h.project_txns(&cs);
        let cs_vec: Vec<TxnId> = hcs.txns().into_iter().collect();
        let prec = TxnOrder::from_pairs(hcs.precedes()).restrict(&cs_vec);
        let mut violation = None;
        for_each_extension(&prec, &cs_vec, |order| {
            if serializable_in(spec, &hcs, order) {
                true
            } else {
                violation =
                    Some(DynAtomViolation { commit_set: cs_vec.clone(), order: order.to_vec() });
                false
            }
        });
        if let Some(v) = violation {
            return Err(v);
        }
    }
    Ok(())
}

/// A uniform random walk of `steps` enabled events of a system of object
/// automata, branching as `enumerate_system` does: a transaction commits or
/// aborts at every object it touched at once.
fn random_system_history<A: EnumerableAdt, V: ViewFn<A>>(
    automata: &[ObjectAutomaton<A, V, NoConflict>],
    txns: u32,
    max_ops: usize,
    steps: usize,
    seed: u64,
) -> History<A> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h: History<A> = History::new();
    for _ in 0..steps {
        let (committed, aborted) = (h.committed(), h.aborted());
        let mut choices: Vec<Vec<Event<A>>> = Vec::new();
        for txn in (0..txns).map(TxnId) {
            if committed.contains(&txn) || aborted.contains(&txn) {
                continue;
            }
            if let Some((obj, inv)) = h.pending_invocation(txn) {
                let (inv, local) = (inv.clone(), h.project_obj(obj));
                let a = automata.iter().find(|a| a.obj() == obj).expect("an automaton per object");
                for resp in a.view_reach(&local, txn).responses(a.adt(), &inv) {
                    if a.response_enabled(&local, txn, &resp).is_ok() {
                        choices.push(vec![Event::Respond { txn, obj, resp }]);
                    }
                }
                continue;
            }
            let mine = h.project_txn(txn);
            let done = mine.opseq().len();
            if done < max_ops {
                for a in automata {
                    for inv in a.adt().invocations() {
                        choices.push(vec![Event::Invoke { txn, obj: a.obj(), inv }]);
                    }
                }
            }
            if done > 0 {
                let touched = mine.objects();
                choices.push(touched.iter().map(|&obj| Event::Commit { txn, obj }).collect());
                choices.push(touched.iter().map(|&obj| Event::Abort { txn, obj }).collect());
            }
        }
        let Some(events) = choices.choose(&mut rng) else { break };
        for e in events.clone() {
            h.push(e).expect("enabled events are well-formed");
        }
    }
    h
}

fn single<A: EnumerableAdt, V: ViewFn<A>>(adt: A, view: V, seed: u64, steps: usize) -> History<A> {
    let automaton = ObjectAutomaton::new(adt, view, NoConflict, ObjectId::SOLE);
    let cfg = ExploreCfg {
        txns: (0..4).map(TxnId).collect(),
        max_ops_per_txn: 2,
        max_total_ops: 7,
        allow_aborts: true,
        max_histories: 0,
    };
    random_history(&automaton, &cfg, steps, &mut StdRng::seed_from_u64(seed))
}

/// `v` refutes `h`: its commit set holds every committed transaction and no
/// aborted one, its order lists the set consistently with `precedes`, and
/// the projection does not serialize in that order.
fn genuine<A: Adt>(
    spec: &SystemSpec<A>,
    h: &History<A>,
    v: &DynAtomViolation,
) -> Result<(), TestCaseError> {
    let cs: BTreeSet<TxnId> = v.commit_set.iter().copied().collect();
    prop_assert!(h.committed().is_subset(&cs) && h.aborted().is_disjoint(&cs), "{v:?}");
    let mut listed = v.order.clone();
    listed.sort();
    prop_assert_eq!(&listed, &v.commit_set);
    let hcs = h.project_txns(&cs);
    prop_assert!(TxnOrder::from_pairs(hcs.precedes()).consistent(&v.order), "{v:?}");
    prop_assert!(!serializable_in(spec, &hcs, &v.order), "{v:?} serializes");
    Ok(())
}

/// The walk's verdicts equal the references', plain and online; its plain
/// refutation is the reference's, and every refutation it gives is genuine.
fn agrees<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> Result<(), TestCaseError> {
    let (walk, by_definition) = (check_dynamic_atomic(spec, h), reference(spec, h));
    let refutation = |r: &Result<(), DynAtomViolation>| {
        r.as_ref().err().map(|v| (v.commit_set.clone(), v.order.clone()))
    };
    prop_assert_eq!(refutation(&walk), refutation(&by_definition), "on {:?}", h);
    if let Err(v) = &walk {
        genuine(spec, h, v)?;
    }
    let online = check_online_dynamic_atomic(spec, h);
    prop_assert_eq!(online.is_ok(), reference_online(spec, h).is_ok(), "online, on {:?}", h);
    if let Err(v) = &online {
        genuine(spec, h, v)?;
    }
    Ok(())
}

/// Every extension, in order, as a list.
fn extensions(order: &TxnOrder, items: &[TxnId]) -> Vec<Vec<TxnId>> {
    let mut out = Vec::new();
    for_each_extension(order, items, |seq| {
        out.push(seq.to_vec());
        true
    });
    out
}

#[test]
fn the_reference_enumerates_exactly_the_linear_extensions() {
    let t = |ids: &[u32]| ids.iter().map(|&i| TxnId(i)).collect::<Vec<_>>();
    let all = t(&[0, 1, 2]);
    assert_eq!(extensions(&TxnOrder::empty(), &all).len(), 6);
    let halved = extensions(&TxnOrder::from_pairs(vec![(TxnId(0), TxnId(1))]), &all);
    assert_eq!(halved, [t(&[0, 1, 2]), t(&[0, 2, 1]), t(&[2, 0, 1])]);
    let chain = TxnOrder::from_pairs(vec![(TxnId(0), TxnId(1)), (TxnId(1), TxnId(2))]);
    assert_eq!(extensions(&chain, &t(&[2, 0, 1])), [t(&[0, 1, 2])]);
    let cycle = TxnOrder::from_pairs(vec![(TxnId(0), TxnId(1)), (TxnId(1), TxnId(0))]);
    assert!(extensions(&cycle, &t(&[0, 1])).is_empty());
    let mut count = 0;
    let finished = for_each_extension(&TxnOrder::empty(), &all, |_| {
        count += 1;
        count < 2
    });
    assert!(!finished && count == 2, "an early `false` stops the enumeration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bank_uip(seed in 0u64..1_000_000, steps in 4usize..24) {
        let adt = BankAccount { amounts: vec![1, 2] };
        agrees(&SystemSpec::single(adt.clone()), &single(adt, Uip, seed, steps))?;
    }

    #[test]
    fn bank_du(seed in 0u64..1_000_000, steps in 4usize..24) {
        let adt = BankAccount { amounts: vec![1, 2] };
        agrees(&SystemSpec::single(adt.clone()), &single(adt, Du, seed, steps))?;
    }

    #[test]
    fn semiqueue_uip(seed in 0u64..1_000_000, steps in 4usize..24) {
        let adt = Semiqueue::default();
        agrees(&SystemSpec::single(adt.clone()), &single(adt, Uip, seed, steps))?;
    }

    #[test]
    fn two_object_bank(seed in 0u64..1_000_000, steps in 4usize..28) {
        let adt = BankAccount { amounts: vec![1, 2] };
        let automata: Vec<_> = (0..2)
            .map(|x| ObjectAutomaton::new(adt.clone(), Uip, NoConflict, ObjectId(x)))
            .collect();
        let h = random_system_history(&automata, 4, 2, steps, seed);
        agrees(&SystemSpec::uniform(adt, 2), &h)?;
    }
}
