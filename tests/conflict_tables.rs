//! Cross-crate verification of the conflict relations derived from each
//! ADT's specification: they reproduce every verdict the hand-written
//! predicates gave (pinned before those were deleted) and the bank's
//! transcription of Figures 6-1/6-2 — the public-API version of the
//! reproduction of the figures, extended to the whole ADT library.

mod common;

use ccr::adt::counter::{Counter, CounterInv, CounterResp};
use ccr::adt::{escrow, kv, maxreg, pqueue, queue, register, semiqueue, set, stack};
use ccr::core::adt::{Adt, Op, StateCover};
use ccr::core::commutativity::{
    build_tables, build_tables_bounded, commute_forward, right_commutes_backward, FcFailure,
    FcFailureKind, PrefixCfg,
};
use ccr::core::conflict::{Conflict, Derived};
use ccr::core::equieffect::InclusionCfg;
use ccr::core::spec;
use common::{table_adt, TableAdt};
use proptest::prelude::*;

/// The pinned verdicts: one `adt relation requested held verdict` line
/// (tab-separated) per ordered pair of each ADT's grid below, generated from
/// the hand-written predicates at PR 26's parent. Grids reach past each
/// instance's alphabet.
const FIXTURE: &str = include_str!("fixtures/conflict_tables.txt");

/// One fixture line per relation and ordered pair of `grid`.
fn verdict_lines<A: Adt>(
    label: &str,
    grid: &[Op<A>],
    nfc: &dyn Conflict<A>,
    nrbc: &dyn Conflict<A>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (relation, c) in [("NFC", nfc), ("NRBC", nrbc)] {
        for p in grid {
            for q in grid {
                let verdict = if c.conflicts(p, q) { "conflict" } else { "commute" };
                out.push(format!("{label}\t{relation}\t{p:?}\t{q:?}\t{verdict}"));
            }
        }
    }
    out
}

/// Assert that NFC and NRBC derived from `adt` give every pinned verdict of
/// `label`.
fn assert_pinned<A: StateCover>(label: &str, adt: A, grid: &[Op<A>]) {
    let pinned: Vec<&str> =
        FIXTURE.lines().filter(|l| l.split('\t').next() == Some(label)).collect();
    let (nfc, nrbc) = (Derived::nfc(label, adt.clone()), Derived::nrbc(label, adt));
    let fresh = verdict_lines(label, grid, &nfc, &nrbc);
    assert_eq!(pinned.len(), fresh.len(), "{label}: the fixture pins a different grid");
    let moved: Vec<String> = pinned
        .iter()
        .zip(&fresh)
        .filter(|(p, f)| *p != f)
        .map(|(p, f)| format!("pinned {p}\n fresh {f}"))
        .collect();
    assert!(moved.is_empty(), "{label}: {} verdicts moved:\n{}", moved.len(), moved.join("\n"));
}

fn counter_grid() -> Vec<Op<Counter>> {
    let mut grid = vec![
        Op::new(CounterInv::Inc, CounterResp::Ok),
        Op::new(CounterInv::Dec, CounterResp::Ok),
        Op::new(CounterInv::Dec, CounterResp::No),
    ];
    grid.extend((0..=6).map(|v| Op::new(CounterInv::Read, CounterResp::Val(v))));
    grid
}

fn escrow_grid(top: u64) -> Vec<Op<escrow::EscrowAccount>> {
    use escrow::ops::*;
    (1..=top).flat_map(|i| [credit_ok(i), credit_no(i), debit_ok(i), debit_no(i)]).collect()
}

fn set_grid() -> Vec<Op<set::IntSet>> {
    use set::ops::*;
    (0..=3)
        .flat_map(|x| {
            let ops = [insert_added(x), insert_present(x), remove_removed(x), remove_absent(x)];
            ops.into_iter().chain([contains(x, true), contains(x, false)])
        })
        .collect()
}

fn kv_grid() -> Vec<Op<kv::KvStore>> {
    use kv::ops::*;
    let mut grid = Vec::new();
    for k in 0..=2 {
        grid.extend((0..=2).map(|v| put(k, v)));
        grid.push(get(k, None));
        grid.extend((0..=2).map(|v| get(k, Some(v))));
        grid.push(del(k));
    }
    grid
}

/// The produce/consume shape shared by the four buffers: `produce(v)` and
/// `consume(v)` for `v` in `0..=top`, then the empty consumption.
fn buffer_grid<A: Adt>(
    top: u8,
    produce: fn(u8) -> Op<A>,
    consume: fn(u8) -> Op<A>,
    empty: Op<A>,
) -> Vec<Op<A>> {
    let mut grid: Vec<Op<A>> = (0..=top).map(produce).chain((0..=top).map(consume)).collect();
    grid.push(empty);
    grid
}

/// How many ordered pairs of `grid` conflict under `c`.
fn density<A: Adt>(c: &dyn Conflict<A>, grid: &[Op<A>]) -> usize {
    grid.iter().map(|p| grid.iter().filter(|q| c.conflicts(p, q)).count()).sum()
}

/// The two register shapes: `write(v)` and `read(v)` for `v` in `0..=4`.
fn register_grid<A: Adt>(write: fn(u8) -> Op<A>, read: fn(u8) -> Op<A>) -> Vec<Op<A>> {
    (0..=4).map(write).chain((0..=4).map(read)).collect()
}

#[test]
fn bank_tables_match_over_a_wide_grid() {
    use ccr::adt::bank::{bank_nfc, bank_nrbc, ops, BankAccount};
    let adt = BankAccount { amounts: vec![1, 2, 3, 4] };
    let mut grid = Vec::new();
    for i in 1..=4 {
        grid.push(ops::deposit(i));
        grid.push(ops::withdraw_ok(i));
        grid.push(ops::withdraw_no(i));
    }
    for v in 0..=5 {
        grid.push(ops::balance(v));
    }
    let derived = (Derived::nfc("bank", adt.clone()), Derived::nrbc("bank", adt));
    assert_eq!(
        verdict_lines("bank", &grid, &derived.0, &derived.1),
        verdict_lines("bank", &grid, &bank_nfc(), &bank_nrbc())
    );
}

#[test]
fn escrow_tables_match_for_several_capacities() {
    for (cap, top) in [(3, 3), (5, 3), (7, 3), (20, 5)] {
        let adt = escrow::EscrowAccount::new(cap, [1, 2]);
        assert_pinned(&format!("escrow/cap{cap}"), adt, &escrow_grid(top));
    }
}

#[test]
fn queue_and_stack_tables_match() {
    use queue::ops::{deq_empty, deq_got, enq};
    assert_pinned("queue", queue::FifoQueue::default(), &buffer_grid(3, enq, deq_got, deq_empty()));
    use stack::ops::{pop_empty, pop_got, push};
    assert_pinned("stack", stack::Stack::default(), &buffer_grid(3, push, pop_got, pop_empty()));
}

#[test]
fn semiqueue_tables_match_and_beat_the_queue() {
    use semiqueue::ops::{deq_empty, deq_got, enq};
    let sq = semiqueue::Semiqueue::default();
    let grid = buffer_grid(3, enq, deq_got, deq_empty());
    assert_pinned("semiqueue", sq.clone(), &grid);

    // The concurrency pay-off of specification non-determinism: strictly
    // fewer conflicts than the FIFO queue over the analogous grid.
    let q = queue::FifoQueue::default();
    let q_grid = buffer_grid(3, queue::ops::enq, queue::ops::deq_got, queue::ops::deq_empty());
    let sq_nfc_n = density(&Derived::nfc("semiqueue", sq.clone()), &grid);
    let q_nfc_n = density(&Derived::nfc("queue", q.clone()), &q_grid);
    let sq_nrbc_n = density(&Derived::nrbc("semiqueue", sq), &grid);
    let q_nrbc_n = density(&Derived::nrbc("queue", q), &q_grid);
    assert!(sq_nfc_n < q_nfc_n, "semiqueue NFC {sq_nfc_n} vs queue {q_nfc_n}");
    assert!(sq_nrbc_n < q_nrbc_n, "semiqueue NRBC {sq_nrbc_n} vs queue {q_nrbc_n}");
}

#[test]
fn kv_and_register_tables_match() {
    assert_pinned("kv", kv::KvStore::default(), &kv_grid());
    let grid = register_grid(register::ops::write, register::ops::read);
    assert_pinned("register", register::RwRegister::default(), &grid);
}

#[test]
fn counter_set_pqueue_and_maxreg_tables_match() {
    assert_pinned("counter", Counter, &counter_grid());
    assert_pinned("set", set::IntSet::default(), &set_grid());
    use pqueue::ops::{extract_empty, extract_got, insert};
    let grid = buffer_grid(4, insert, extract_got, extract_empty());
    assert_pinned("pqueue", pqueue::PQueue::default(), &grid);
    let grid = register_grid(maxreg::ops::write_max, maxreg::ops::read);
    assert_pinned("maxreg", maxreg::MaxRegister::default(), &grid);
}

/// `KvStore::default()` has keys `{0, 1}`: on key 2 only a continuation
/// widened by [`StateCover::continuations`] can tell `del(2) · put(2, 0)`
/// from `put(2, 0) · del(2)`. Without it both relations would call the pair
/// commuting, and a lock manager would let the two run concurrently.
#[test]
fn a_key_outside_the_alphabet_still_conflicts() {
    use kv::ops::{del, put};
    let adt = kv::KvStore::default();
    let (nfc, nrbc) = (Derived::nfc("kv", adt.clone()), Derived::nrbc("kv", adt));
    for (p, q) in [(del(2), put(2, 0)), (put(2, 0), del(2))] {
        assert!(nfc.conflicts(&p, &q), "NFC must hold ({p:?}, {q:?})");
        assert!(nrbc.conflicts(&p, &q), "NRBC must hold ({p:?}, {q:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random specifications: FC is symmetric (Lemma 8) and the two
    /// decision engines agree pair-by-pair — so neither the curated ADT
    /// library nor hand-picked grids are load-bearing for the tables.
    #[test]
    fn random_tables_are_fc_symmetric_and_engine_agreed(adt in table_adt()) {
        let grid = adt.grid();
        let t = build_tables(&adt, &grid, InclusionCfg::default());
        prop_assert!(t.exact, "state-cover verdicts must be exact on {adt:?}");
        prop_assert!(t.fc_symmetric(), "Lemma 8: FC must be symmetric on {adt:?}");
        let b = build_tables_bounded(&adt, &grid, &PrefixCfg::default());
        prop_assert!(b.exact, "finite machine must close under prefixes");
        prop_assert_eq!(&t.fc, &b.fc, "engines disagree on FC for {:?}", &adt);
        prop_assert_eq!(&t.rbc, &b.rbc, "engines disagree on RBC for {:?}", &adt);
    }

    /// Every negative verdict on a random specification carries a witness
    /// that replays against the specification itself: `αQPγ` legal but
    /// `αPQγ` illegal for RBC, and `αP, αQ` legal with `αPQ` illegal for
    /// the `PqIllegal` mode of FC.
    #[test]
    fn random_table_refutations_are_replayable(adt in table_adt()) {
        let grid = adt.grid();
        let cfg = InclusionCfg::default();
        for p in &grid {
            for q in &grid {
                if let Err(f) = right_commutes_backward(&adt, p, q, cfg) {
                    let mut aqp = f.prefix.clone();
                    aqp.extend([q.clone(), p.clone()]);
                    aqp.extend(f.continuation.iter().cloned());
                    prop_assert!(spec::legal(&adt, &aqp), "αQPγ must be legal on {adt:?}");
                    let mut apq = f.prefix.clone();
                    apq.extend([p.clone(), q.clone()]);
                    apq.extend(f.continuation.iter().cloned());
                    prop_assert!(!spec::legal(&adt, &apq), "αPQγ must be illegal on {adt:?}");
                }
                if let Err(FcFailure { prefix, kind }) = commute_forward(&adt, p, q, cfg) {
                    let mut ap = prefix.clone();
                    ap.push(p.clone());
                    prop_assert!(spec::legal(&adt, &ap), "αP must be legal on {adt:?}");
                    let mut aq = prefix.clone();
                    aq.push(q.clone());
                    prop_assert!(spec::legal(&adt, &aq), "αQ must be legal on {adt:?}");
                    if matches!(kind, FcFailureKind::PqIllegal) {
                        let mut apq = ap;
                        apq.push(q.clone());
                        prop_assert!(!spec::legal(&adt, &apq), "αPQ must be illegal on {adt:?}");
                    }
                }
            }
        }
    }
}

/// FC and RBC are *incomparable* — in particular the tempting containment
/// "RBC admits every pair FC admits" (FC ⊆ RBC) is **false**. This is the
/// paper's §6.4 point: neither recovery method needs a subset of the other's
/// conflicts. Witnessed on the paper's own bank account:
///
/// * `(withdraw_ok, deposit)`: FC holds (both enabled ⇒ funds suffice in
///   either order, same final balance) yet withdraw_ok does **not** right
///   commute backward with deposit (`α·deposit·withdraw_ok` may be legal
///   only *because* of the deposit) — so FC ⊄ RBC;
/// * `(withdraw_ok, withdraw_ok)`: RBC holds (`α·w·w` legal ⇒ funds cover
///   both) yet FC fails (`αP, αQ` legal needs one withdrawal's funds, the
///   sequence needs both) — so RBC ⊄ FC.
///
/// RBC is also asymmetric on exactly this pair: deposit *does* right commute
/// backward with withdraw_ok while the converse fails (Figure 6-2's
/// asymmetric row).
#[test]
fn fc_and_rbc_are_incomparable_and_rbc_is_asymmetric() {
    use ccr::adt::bank::{ops, BankAccount};
    let adt = BankAccount { amounts: vec![1, 2, 3] };
    let cfg = InclusionCfg::default();
    let dep = ops::deposit(2);
    let wok = ops::withdraw_ok(2);

    // FC ⊄ RBC.
    assert!(commute_forward(&adt, &wok, &dep, cfg).is_ok());
    assert!(right_commutes_backward(&adt, &wok, &dep, cfg).is_err());
    // RBC ⊄ FC.
    assert!(right_commutes_backward(&adt, &wok, &wok, cfg).is_ok());
    assert!(commute_forward(&adt, &wok, &wok, cfg).is_err());
    // RBC asymmetry on (deposit, withdraw_ok).
    assert!(right_commutes_backward(&adt, &dep, &wok, cfg).is_ok());
}

/// RBC asymmetry is not a bank-account quirk: it shows up in randomly
/// generated specifications too (while FC symmetry never breaks — Lemma 8).
#[test]
fn rbc_asymmetry_appears_in_random_tables() {
    let mut asymmetric = 0u32;
    for seed in 0..64u64 {
        let adt = TableAdt::from_seed(seed);
        let grid = adt.grid();
        let t = build_tables(&adt, &grid, InclusionCfg::default());
        assert!(t.fc_symmetric(), "Lemma 8 violated on seed {seed}: {adt:?}");
        if !t.rbc_symmetric() {
            asymmetric += 1;
        }
    }
    assert!(asymmetric > 0, "no asymmetric RBC table in 64 random machines");
}

/// The two engines (state cover vs bounded prefix exploration) agree on a
/// finite-state ADT — cross-validation of the decision procedures
/// themselves.
#[test]
fn cover_and_bounded_engines_agree_on_escrow() {
    use ccr::adt::escrow::{ops, EscrowAccount};
    let adt = EscrowAccount::new(3, [1, 2]);
    let grid = vec![
        ops::credit_ok(1),
        ops::credit_ok(2),
        ops::credit_no(2),
        ops::debit_ok(1),
        ops::debit_no(2),
    ];
    let cfg = InclusionCfg::default();
    let bounded = build_tables_bounded(&adt, &grid, &PrefixCfg::default());
    assert!(bounded.exact, "escrow prefix space must close");
    for (i, p) in grid.iter().enumerate() {
        for (j, q) in grid.iter().enumerate() {
            assert_eq!(
                bounded.fc[i][j],
                commute_forward(&adt, p, q, cfg).is_ok(),
                "engines disagree on FC({p:?},{q:?})"
            );
            assert_eq!(
                bounded.rbc[i][j],
                right_commutes_backward(&adt, p, q, cfg).is_ok(),
                "engines disagree on RBC({p:?},{q:?})"
            );
        }
    }
}
