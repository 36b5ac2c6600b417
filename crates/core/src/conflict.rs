//! Conflict relations (paper §4).
//!
//! Concurrency control is abstracted as a binary relation on operations: a
//! response `<R, X, A>` can occur for invocation `<I, X, A>` only if the
//! operation `X:[I,R]` does **not** conflict with any operation already
//! executed by another *active* transaction. The pair is ordered:
//! `conflicts(requested, held)`. The paper stresses that conflict relations
//! need not be symmetric — requiring symmetry forces unnecessary conflicts
//! under UIP recovery (§6.3).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use crate::adt::{Adt, Op, StateCover};
use crate::commutativity::{commute_forward, right_commutes_backward, CommutativityTable};
use crate::equieffect::InclusionCfg;

/// A conflict relation on operations: the essential variable in
/// conflict-based locking.
pub trait Conflict<A: Adt>: std::fmt::Debug + Send + Sync + 'static {
    /// Whether the `requested` operation conflicts with the `held` operation
    /// (an operation already executed by another active transaction).
    fn conflicts(&self, requested: &Op<A>, held: &Op<A>) -> bool;

    /// Short human-readable name for reports.
    fn name(&self) -> String {
        "conflict".to_string()
    }
}

/// The empty conflict relation: no concurrency control at all. Useful as a
/// degenerate baseline; with either recovery method it admits non-atomic
/// histories (unless the type's operations all commute).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoConflict;

impl<A: Adt> Conflict<A> for NoConflict {
    fn conflicts(&self, _requested: &Op<A>, _held: &Op<A>) -> bool {
        false
    }

    fn name(&self) -> String {
        "none".to_string()
    }
}

/// The total conflict relation: every pair conflicts — degenerates to serial
/// execution of transactions with any recovery method.
#[derive(Clone, Copy, Debug, Default)]
pub struct TotalConflict;

impl<A: Adt> Conflict<A> for TotalConflict {
    fn conflicts(&self, _requested: &Op<A>, _held: &Op<A>) -> bool {
        true
    }

    fn name(&self) -> String {
        "total".to_string()
    }
}

/// A conflict relation given extensionally as a set of (requested, held)
/// pairs over a finite operation alphabet. Pairs outside the alphabet
/// conservatively conflict.
#[derive(Clone, Debug)]
pub struct TableConflict<A: Adt> {
    name: String,
    alphabet: Vec<Op<A>>,
    pairs: HashSet<(usize, usize)>,
}

impl<A: Adt> TableConflict<A> {
    /// Build from explicit conflicting pairs.
    pub fn new(name: impl Into<String>, alphabet: Vec<Op<A>>, pairs: &[(Op<A>, Op<A>)]) -> Self {
        let index = |op: &Op<A>| alphabet.iter().position(|o| o == op);
        let pairs = pairs.iter().filter_map(|(p, q)| Some((index(p)?, index(q)?))).collect();
        TableConflict { name: name.into(), alphabet, pairs }
    }

    /// The operation alphabet.
    pub fn alphabet(&self) -> &[Op<A>] {
        &self.alphabet
    }

    /// All (requested, held) pairs that conflict.
    pub fn pairs(&self) -> Vec<(Op<A>, Op<A>)> {
        self.pairs
            .iter()
            .map(|&(i, j)| (self.alphabet[i].clone(), self.alphabet[j].clone()))
            .collect()
    }

    /// Remove a pair (used by the theorem harness to probe the boundary:
    /// dropping any pair of `NRBC`/`NFC` must break correctness).
    pub fn without(&self, requested: &Op<A>, held: &Op<A>) -> Self {
        let mut out = self.clone();
        let i = self.alphabet.iter().position(|o| o == requested);
        let j = self.alphabet.iter().position(|o| o == held);
        if let (Some(i), Some(j)) = (i, j) {
            out.pairs.remove(&(i, j));
            out.name = format!("{} − ({:?},{:?})", self.name, requested, held);
        }
        out
    }

    /// Add a pair.
    pub fn with(&self, requested: &Op<A>, held: &Op<A>) -> Self {
        let mut out = self.clone();
        let i = self.alphabet.iter().position(|o| o == requested);
        let j = self.alphabet.iter().position(|o| o == held);
        if let (Some(i), Some(j)) = (i, j) {
            out.pairs.insert((i, j));
        }
        out
    }

    /// The symmetric closure: conflicts whenever this relation conflicts in
    /// either direction. This is what frameworks that *require* symmetric
    /// conflict relations (most prior work, cf. §6.3) would be forced to use.
    pub fn symmetric_closure(&self) -> Self {
        let mut pairs = self.pairs.clone();
        for &(i, j) in &self.pairs {
            pairs.insert((j, i));
        }
        TableConflict {
            name: format!("sym({})", self.name),
            alphabet: self.alphabet.clone(),
            pairs,
        }
    }

    /// Number of conflicting pairs (a crude measure of admitted concurrency:
    /// fewer conflicts ⇒ more concurrency).
    pub fn density(&self) -> usize {
        self.pairs.len()
    }

    /// Whether every pair of `other` is also a pair of `self`.
    pub fn contains(&self, other: &TableConflict<A>) -> bool {
        other.pairs().iter().all(|(p, q)| {
            let i = self.alphabet.iter().position(|o| o == p);
            let j = self.alphabet.iter().position(|o| o == q);
            matches!((i, j), (Some(i), Some(j)) if self.pairs.contains(&(i, j)))
        })
    }
}

impl<A: Adt> Conflict<A> for TableConflict<A> {
    fn conflicts(&self, requested: &Op<A>, held: &Op<A>) -> bool {
        let i = self.alphabet.iter().position(|o| o == requested);
        let j = self.alphabet.iter().position(|o| o == held);
        match (i, j) {
            (Some(i), Some(j)) => self.pairs.contains(&(i, j)),
            // Conservative: unknown operations conflict with everything.
            _ => true,
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// A conflict relation given intensionally as a function pointer, for
/// relations that are not computed from a specification (the bank's
/// transcription of Figures 6-1/6-2, which `bench/` names).
pub struct FnConflict<A: Adt> {
    name: &'static str,
    f: fn(&Op<A>, &Op<A>) -> bool,
}

impl<A: Adt> FnConflict<A> {
    /// Wrap a predicate `f(requested, held)`.
    pub fn new(name: &'static str, f: fn(&Op<A>, &Op<A>) -> bool) -> Self {
        FnConflict { name, f }
    }
}

impl<A: Adt> Clone for FnConflict<A> {
    fn clone(&self) -> Self {
        FnConflict { name: self.name, f: self.f }
    }
}

impl<A: Adt> std::fmt::Debug for FnConflict<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnConflict({})", self.name)
    }
}

impl<A: Adt> Conflict<A> for FnConflict<A> {
    fn conflicts(&self, requested: &Op<A>, held: &Op<A>) -> bool {
        (self.f)(requested, held)
    }

    fn name(&self) -> String {
        self.name.to_string()
    }
}

/// The symmetric closure of an arbitrary conflict relation: conflicts
/// whenever the inner relation conflicts in either direction. Models the
/// prior frameworks that require symmetric conflict relations (§6.3).
#[derive(Clone, Debug)]
pub struct SymmetricClosure<C>(pub C);

impl<A: Adt, C: Conflict<A>> Conflict<A> for SymmetricClosure<C> {
    fn conflicts(&self, requested: &Op<A>, held: &Op<A>) -> bool {
        self.0.conflicts(requested, held) || self.0.conflicts(held, requested)
    }

    fn name(&self) -> String {
        format!("sym({})", self.0.name())
    }
}

/// Which of the paper's two minimal relations a [`Derived`] relation or a
/// computed table is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Relation {
    /// `NFC`: not forward commuting — deferred update (Theorem 10).
    Nfc,
    /// `NRBC`: `requested` does not right commute backward with `held` —
    /// update in place (Theorem 9).
    Nrbc,
}

impl Relation {
    fn label(self) -> &'static str {
        match self {
            Relation::Nfc => "NFC",
            Relation::Nrbc => "NRBC",
        }
    }

    /// The verdict rule, stated once: `(requested, held)` conflicts unless
    /// the state-cover engine proves the pair commutes — a refutation and an
    /// inexact verdict both conflict.
    fn conflicts<A: StateCover>(
        self,
        adt: &A,
        requested: &Op<A>,
        held: &Op<A>,
        cfg: InclusionCfg,
    ) -> bool {
        let commutes = match self {
            Relation::Nfc => commute_forward(adt, requested, held, cfg).is_ok_and(|e| e.exact),
            Relation::Nrbc => {
                right_commutes_backward(adt, requested, held, cfg).is_ok_and(|e| e.exact)
            }
        };
        !commutes
    }

    fn table<A: StateCover>(
        self,
        adt: &A,
        alphabet: &[Op<A>],
        cfg: InclusionCfg,
    ) -> TableConflict<A> {
        let mut pairs = Vec::new();
        for p in alphabet {
            for q in alphabet {
                if self.conflicts(adt, p, q, cfg) {
                    pairs.push((p.clone(), q.clone()));
                }
            }
        }
        TableConflict::new(self.label(), alphabet.to_vec(), &pairs)
    }
}

/// `NFC(Spec)` over a finite alphabet, computed with the state-cover engine:
/// the minimal conflict relation for deferred-update recovery (Theorem 10).
pub fn nfc_table<A: StateCover>(
    adt: &A,
    alphabet: &[Op<A>],
    cfg: InclusionCfg,
) -> TableConflict<A> {
    Relation::Nfc.table(adt, alphabet, cfg)
}

/// `NRBC(Spec)` over a finite alphabet: the minimal conflict relation for
/// update-in-place recovery (Theorem 9). `conflicts(requested, held)` is
/// `(requested, held) ∈ NRBC`, i.e. `requested` does **not** right commute
/// backward with `held`.
pub fn nrbc_table<A: StateCover>(
    adt: &A,
    alphabet: &[Op<A>],
    cfg: InclusionCfg,
) -> TableConflict<A> {
    Relation::Nrbc.table(adt, alphabet, cfg)
}

/// `NFC` or `NRBC` of one ADT instance's specification, for operations with
/// any parameters — the relation the runtime locks with (Theorems 9 / 10 say
/// each is exactly what its recovery method needs).
///
/// Each ordered pair is decided once, by the same rule as [`nfc_table`] /
/// [`nrbc_table`], and remembered in a memo that clones share.
#[derive(Clone)]
pub struct Derived<A: StateCover> {
    adt: A,
    relation: Relation,
    name: String,
    memo: Arc<Mutex<Verdicts<A>>>,
}

/// Decided pairs: `(requested, held)` → conflicts.
type Verdicts<A> = HashMap<(Op<A>, Op<A>), bool>;

impl<A: StateCover> Derived<A> {
    /// `NFC(Spec(adt))`, named `"{adt_name}-NFC"`.
    pub fn nfc(adt_name: &str, adt: A) -> Self {
        Self::new(adt_name, adt, Relation::Nfc)
    }

    /// `NRBC(Spec(adt))`, named `"{adt_name}-NRBC"`.
    pub fn nrbc(adt_name: &str, adt: A) -> Self {
        Self::new(adt_name, adt, Relation::Nrbc)
    }

    fn new(adt_name: &str, adt: A, relation: Relation) -> Self {
        let name = format!("{adt_name}-{}", relation.label());
        Derived { adt, relation, name, memo: Arc::default() }
    }
}

impl<A: StateCover> std::fmt::Debug for Derived<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Derived({})", self.name)
    }
}

impl<A: StateCover> Conflict<A> for Derived<A> {
    fn conflicts(&self, requested: &Op<A>, held: &Op<A>) -> bool {
        let pair = (requested.clone(), held.clone());
        const POISON: &str = "no thread panics while holding the memo";
        if let Some(&verdict) = self.memo.lock().expect(POISON).get(&pair) {
            return verdict;
        }
        // Decided outside the lock: a pair may take milliseconds.
        let verdict = self.relation.conflicts(&self.adt, requested, held, InclusionCfg::default());
        self.memo.lock().expect(POISON).insert(pair, verdict);
        verdict
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Extract both minimal relations from a prebuilt [`CommutativityTable`].
pub fn tables_from_commutativity<A: Adt>(
    t: &CommutativityTable<A>,
) -> (TableConflict<A>, TableConflict<A>) {
    let nfc = TableConflict::new("NFC", t.ops.clone(), &t.nfc_pairs());
    let nrbc = TableConflict::new("NRBC", t.ops.clone(), &t.nrbc_pairs());
    (nfc, nrbc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::test_adt::*;

    fn inc() -> Op<MiniCounter> {
        Op::new(CInv::Inc, CResp::Ok)
    }
    fn dec_ok() -> Op<MiniCounter> {
        Op::new(CInv::Dec, CResp::Ok)
    }
    fn read(v: u32) -> Op<MiniCounter> {
        Op::new(CInv::Read, CResp::Val(v))
    }

    fn alphabet() -> Vec<Op<MiniCounter>> {
        vec![inc(), dec_ok(), read(0), read(1)]
    }

    #[test]
    fn table_conflict_lookup() {
        let t = TableConflict::new("t", alphabet(), &[(inc(), read(1))]);
        assert!(t.conflicts(&inc(), &read(1)));
        assert!(!t.conflicts(&read(1), &inc()));
        // unknown ops conflict conservatively
        assert!(t.conflicts(&read(9), &inc()));
    }

    #[test]
    fn symmetric_closure_adds_mirror_pairs() {
        let t = TableConflict::new("t", alphabet(), &[(inc(), read(1))]);
        let s = t.symmetric_closure();
        assert!(s.conflicts(&read(1), &inc()));
        assert_eq!(s.density(), 2);
        assert!(s.contains(&t));
        assert!(!t.contains(&s));
    }

    #[test]
    fn without_removes_exactly_one_pair() {
        let t = TableConflict::new("t", alphabet(), &[(inc(), read(1)), (inc(), read(0))]);
        let t2 = t.without(&inc(), &read(1));
        assert!(!t2.conflicts(&inc(), &read(1)));
        assert!(t2.conflicts(&inc(), &read(0)));
    }

    #[test]
    fn computed_tables_match_commutativity_engines() {
        let c = plain(3);
        let cfg = InclusionCfg::default();
        let nfc = nfc_table(&c, &alphabet(), cfg);
        let nrbc = nrbc_table(&c, &alphabet(), cfg);
        // FC symmetric ⇒ NFC symmetric.
        assert!(
            nfc.contains(&nfc.symmetric_closure()) || {
                // equivalent statement: closure adds nothing
                nfc.symmetric_closure().density() == nfc.density()
            }
        );
        // NRBC is not symmetric on the saturating counter: (inc, dec_ok) ∈
        // NRBC (see commutativity tests) — and (dec_ok, inc) ∈ NRBC as well
        // there; use read pairs instead: (read(1), inc) ∈ NRBC but
        // (inc, read(1)) ∈ NRBC too... density comparison suffices here:
        assert!(nrbc.density() > 0);
        assert!(nfc.density() > 0);
        // Incomparability on this ADT (established in commutativity tests):
        assert!(nfc.conflicts(&dec_ok(), &dec_ok()));
        assert!(!nrbc.conflicts(&dec_ok(), &dec_ok()));
        assert!(nrbc.conflicts(&inc(), &dec_ok()));
        assert!(!nfc.conflicts(&inc(), &dec_ok()));
    }

    #[test]
    fn tables_from_commutativity_match_direct_computation() {
        use crate::commutativity::build_tables;
        use crate::equieffect::InclusionCfg;
        let c = plain(3);
        let cfg = InclusionCfg::default();
        let t = build_tables(&c, &alphabet(), cfg);
        let (nfc_t, nrbc_t) = tables_from_commutativity(&t);
        let nfc_d = nfc_table(&c, &alphabet(), cfg);
        let nrbc_d = nrbc_table(&c, &alphabet(), cfg);
        assert_eq!(nfc_t.density(), nfc_d.density());
        assert_eq!(nrbc_t.density(), nrbc_d.density());
        for p in &alphabet() {
            for q in &alphabet() {
                assert_eq!(nfc_t.conflicts(p, q), nfc_d.conflicts(p, q));
                assert_eq!(nrbc_t.conflicts(p, q), nrbc_d.conflicts(p, q));
            }
        }
    }

    #[test]
    fn derived_reads_the_tables_rule_and_clones_share_its_memo() {
        let c = plain(3);
        let cfg = InclusionCfg::default();
        for (derived, table) in [
            (Derived::nfc("c", c.clone()), nfc_table(&c, &alphabet(), cfg)),
            (Derived::nrbc("c", c.clone()), nrbc_table(&c, &alphabet(), cfg)),
        ] {
            let twin = derived.clone();
            for p in &alphabet() {
                for q in &alphabet() {
                    assert_eq!(derived.conflicts(p, q), table.conflicts(p, q), "({p:?}, {q:?})");
                }
            }
            assert_eq!(twin.memo.lock().unwrap().len(), alphabet().len().pow(2));
            assert_eq!(twin.name(), format!("c-{}", table.name()));
        }
    }

    #[test]
    fn degenerate_relations() {
        let n = NoConflict;
        let t = TotalConflict;
        assert!(!Conflict::<MiniCounter>::conflicts(&n, &inc(), &inc()));
        assert!(Conflict::<MiniCounter>::conflicts(&t, &inc(), &inc()));
    }
}
