//! Property tests for the history algebra of §2–3, driven by random walks
//! of the abstract object automaton (so every input is a *realisable*
//! history, not just a well-formed one).

use ccr::adt::bank::{bank_nrbc, BankAccount};
use ccr::core::explore::{random_history, ExploreCfg};
use ccr::core::ids::TxnId;
use ccr::core::object::ObjectAutomaton;
use ccr::core::order::TxnOrder;
use ccr::core::view::Uip;
use ccr::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

include!("common/extensions.rs");

fn sample_history(seed: u64, steps: usize) -> History<BankAccount> {
    let automaton =
        ObjectAutomaton::new(BankAccount { amounts: vec![1, 2] }, Uip, bank_nrbc(), ObjectId::SOLE);
    let cfg = ExploreCfg {
        txns: vec![TxnId(0), TxnId(1), TxnId(2)],
        max_ops_per_txn: 3,
        max_total_ops: 8,
        allow_aborts: true,
        max_histories: 0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    random_history(&automaton, &cfg, steps, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Serial(H, T)` is equivalent to `H` (same per-transaction steps) for
    /// any permutation covering `H`'s transactions, and is serial and
    /// failure-free when `H` is failure-free.
    #[test]
    fn serial_is_equivalent_and_serial(seed in 0u64..5000, steps in 4usize..20) {
        let h = sample_history(seed, steps);
        let txns: Vec<TxnId> = h.txns().into_iter().collect();
        let s = h.serial(&txns);
        prop_assert!(h.equivalent(&s));
        if h.aborted().is_empty() {
            prop_assert!(s.is_serial_failure_free());
        }
    }

    /// `permanent(H)` contains exactly the committed transactions' events.
    #[test]
    fn permanent_projects_committed(seed in 0u64..5000, steps in 4usize..20) {
        let h = sample_history(seed, steps);
        let p = h.permanent();
        prop_assert_eq!(p.txns(), h.committed());
        for t in h.committed() {
            let lhs = p.project_txn(t);
            let rhs = h.project_txn(t);
            prop_assert_eq!(lhs.events(), rhs.events());
        }
    }

    /// `precedes(H)` is a partial order (acyclic), and `Commit-order(H)` is
    /// one of its linear extensions (restricted to committed transactions).
    #[test]
    fn precedes_is_acyclic_and_commit_order_consistent(
        seed in 0u64..5000,
        steps in 4usize..24,
    ) {
        let h = sample_history(seed, steps);
        let committed: Vec<TxnId> = h.committed().into_iter().collect();
        let prec = TxnOrder::from_pairs(h.precedes()).restrict(&committed);
        // Acyclicity ⇔ at least one linear extension exists (when the set is
        // non-empty).
        if !committed.is_empty() {
            let mut found = false;
            for_each_extension(&prec, &committed, |_| {
                found = true;
                false
            });
            prop_assert!(found, "precedes must be acyclic");
        }
        prop_assert!(
            prec.consistent(&h.commit_order()),
            "commit order must extend precedes"
        );
    }

    /// Projection commutes with `permanent` and preserves well-formedness
    /// invariants surfaced through the public API (Lemma 1 direction:
    /// `precedes(H|X) ⊆ precedes(H)`).
    #[test]
    fn lemma_1_precedes_projection(seed in 0u64..5000, steps in 4usize..24) {
        let h = sample_history(seed, steps);
        let local = h.project_obj(ObjectId::SOLE);
        let global: Vec<_> = h.precedes();
        for pair in local.precedes() {
            prop_assert!(
                global.contains(&pair),
                "precedes(H|X) ⊄ precedes(H): {pair:?}"
            );
        }
    }

    /// Opseq length equals the number of response events.
    #[test]
    fn opseq_counts_responses(seed in 0u64..5000, steps in 4usize..24) {
        let h = sample_history(seed, steps);
        let responses = h
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Respond { .. }))
            .count();
        prop_assert_eq!(h.opseq().len(), responses);
    }
}
