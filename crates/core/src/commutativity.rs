//! Forward and right-backward commutativity (paper §6.2–6.3).
//!
//! For operations `P`, `Q` and a specification `Spec`:
//!
//! * **Forward commutativity** (`FC`): `P` and `Q` commute forward iff for
//!   every sequence `α` with `αP ∈ Spec` and `αQ ∈ Spec`: `αPQ ∈ Spec` and
//!   `αPQ` is equieffective to `αQP`. `FC` is symmetric (Lemma 8). `NFC` is
//!   its complement; Theorem 10 shows `NFC(Spec)` is exactly the conflict
//!   requirement of deferred-update recovery.
//! * **Right backward commutativity** (`RBC`): `P` *right commutes backward*
//!   with `Q` iff for every `α`, `αQP` looks like `αPQ` — whenever `P`
//!   executes just after `Q` it can be pushed back before `Q`. `RBC` is
//!   **not** symmetric; Theorem 9 shows `NRBC(Spec)` is exactly the conflict
//!   requirement of update-in-place recovery.
//!
//! Both relations quantify over all prefixes `α`. We provide two engines:
//!
//! 1. **State-cover engine** — quantifies over a per-ADT finite set of
//!    reachable states ([`crate::adt::StateCover`]). For operation-
//!    deterministic ADTs every prefix reaches a single state, so covering the
//!    states covers the prefixes and verdicts are exact (given the documented
//!    per-ADT cover argument).
//! 2. **Bounded-prefix engine** — explores reach-sets of prefixes over the
//!    invocation alphabet, memoising on the reach-set (the verdict for a
//!    prefix depends only on its reach-set). Exact whenever the reachable
//!    reach-set space closes within the budget; otherwise the verdict is
//!    flagged as bounded. This engine handles hidden non-determinism.
//!
//! Verdicts carry concrete witnesses, which the Theorem 9/10 harness
//! ([`crate::theorems`]) turns into the paper's counterexample histories.

use std::collections::HashSet;

use crate::adt::{Adt, EnumerableAdt, Op, StateCover};
use crate::equieffect::{
    equieffective_sets, language_included, Equieffect, Inclusion, InclusionCfg,
};
use crate::spec::ReachSet;

/// Why a pair of operations fails to commute forward.
#[derive(Clone, Debug)]
pub enum FcFailureKind<A: Adt> {
    /// `αP, αQ ∈ Spec` but `αPQ ∉ Spec`.
    PqIllegal,
    /// `αPQ ∈ Spec` but `αPQ` and `αQP` are distinguishable.
    Distinguished {
        /// `true` iff `continuation` is legal after `αPQ` (and not `αQP`).
        after_pq: bool,
        /// The distinguishing continuation (may be empty when exactly one of
        /// the two sequences is itself illegal).
        continuation: Vec<Op<A>>,
    },
}

/// A witness refuting forward commutativity of `(P, Q)`.
#[derive(Clone, Debug)]
pub struct FcFailure<A: Adt> {
    /// A legal prefix `α` with `αP, αQ ∈ Spec` exhibiting the failure.
    pub prefix: Vec<Op<A>>,
    /// The failure mode.
    pub kind: FcFailureKind<A>,
}

/// A witness refuting `P RBC Q` (`P` right commutes backward with `Q`):
/// `α · Q · P · γ ∈ Spec` but `α · P · Q · γ ∉ Spec`.
#[derive(Clone, Debug)]
pub struct RbcFailure<A: Adt> {
    /// The prefix `α`.
    pub prefix: Vec<Op<A>>,
    /// The distinguishing continuation `γ` (possibly empty, when `αPQ`
    /// itself is illegal).
    pub continuation: Vec<Op<A>>,
}

/// A commutativity verdict. `Ok` carries whether the underlying exploration
/// was exhaustive (`exact`) or bounded.
pub type FcVerdict<A> = Result<Exactness, FcFailure<A>>;
/// See [`FcVerdict`].
pub type RbcVerdict<A> = Result<Exactness, RbcFailure<A>>;

/// Whether a positive verdict is exact or only holds up to the exploration
/// bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exactness {
    /// `true` iff the exploration closed (no bound was hit).
    pub exact: bool,
}

/// Check forward commutativity of `(p, q)` from a single prefix reach-set.
/// Returns `None` if the pair passes here, or the failure kind.
fn fc_at<A: EnumerableAdt>(
    adt: &A,
    alphabet: &[A::Invocation],
    r: &ReachSet<A>,
    p: &Op<A>,
    q: &Op<A>,
    cfg: InclusionCfg,
    exact: &mut bool,
) -> Option<FcFailureKind<A>> {
    let rp = r.advance(adt, p);
    let rq = r.advance(adt, q);
    if rp.is_empty() || rq.is_empty() {
        return None; // the quantifier's precondition fails here
    }
    let rpq = rp.advance(adt, q);
    if rpq.is_empty() {
        return Some(FcFailureKind::PqIllegal);
    }
    let rqp = rq.advance(adt, p);
    match equieffective_sets(adt, alphabet, &rpq, &rqp, cfg) {
        Equieffect::Holds { exact: e } => {
            *exact &= e;
            None
        }
        Equieffect::Fails { after_alpha, witness } => {
            Some(FcFailureKind::Distinguished { after_pq: after_alpha, continuation: witness })
        }
    }
}

/// Check `p RBC q` from a single prefix reach-set. Returns the distinguishing
/// continuation on failure.
fn rbc_at<A: EnumerableAdt>(
    adt: &A,
    alphabet: &[A::Invocation],
    r: &ReachSet<A>,
    p: &Op<A>,
    q: &Op<A>,
    cfg: InclusionCfg,
    exact: &mut bool,
) -> Option<Vec<Op<A>>> {
    let rqp = r.advance(adt, q).advance(adt, p);
    if rqp.is_empty() {
        return None; // αQP ∉ Spec ⇒ vacuously looks like anything
    }
    let rpq = r.advance(adt, p).advance(adt, q);
    match language_included(adt, alphabet, &rqp, &rpq, cfg) {
        Inclusion::Holds { exact: e } => {
            *exact &= e;
            None
        }
        Inclusion::Fails { witness } => Some(witness),
    }
}

/// Forward commutativity via the state-cover engine.
///
/// Exact for operation-deterministic ADTs whose [`StateCover`] contract
/// holds for `{p, q}`: states from its cover, continuations over its
/// [`continuations`](StateCover::continuations).
pub fn commute_forward<A: StateCover>(
    adt: &A,
    p: &Op<A>,
    q: &Op<A>,
    cfg: InclusionCfg,
) -> FcVerdict<A> {
    let mut exact = true;
    let pair = [p.clone(), q.clone()];
    let alphabet = adt.continuations(&pair);
    for s in adt.state_cover(&pair) {
        let r = ReachSet::singleton(s.clone());
        if let Some(kind) = fc_at(adt, &alphabet, &r, p, q, cfg, &mut exact) {
            let prefix =
                adt.reach_sequence(&s).expect("state_cover must contain only reachable states");
            return Err(FcFailure { prefix, kind });
        }
    }
    Ok(Exactness { exact })
}

/// `p` right commutes backward with `q`, via the state-cover engine.
pub fn right_commutes_backward<A: StateCover>(
    adt: &A,
    p: &Op<A>,
    q: &Op<A>,
    cfg: InclusionCfg,
) -> RbcVerdict<A> {
    let mut exact = true;
    let pair = [p.clone(), q.clone()];
    let alphabet = adt.continuations(&pair);
    for s in adt.state_cover(&pair) {
        let r = ReachSet::singleton(s.clone());
        if let Some(continuation) = rbc_at(adt, &alphabet, &r, p, q, cfg, &mut exact) {
            let prefix =
                adt.reach_sequence(&s).expect("state_cover must contain only reachable states");
            return Err(RbcFailure { prefix, continuation });
        }
    }
    Ok(Exactness { exact })
}

/// Exploration budget for the bounded-prefix engine.
#[derive(Clone, Copy, Debug)]
pub struct PrefixCfg {
    /// Maximum prefix length explored.
    pub max_prefix_len: usize,
    /// Maximum number of distinct prefix reach-sets visited.
    pub max_reach_sets: usize,
    /// Budget for inner equieffectiveness / inclusion queries.
    pub inclusion: InclusionCfg,
}

impl Default for PrefixCfg {
    fn default() -> Self {
        PrefixCfg { max_prefix_len: 32, max_reach_sets: 5_000, inclusion: InclusionCfg::default() }
    }
}

/// A prefix reach-set paired with a representative prefix reaching it.
type PrefixPoint<A> = (ReachSet<A>, Vec<Op<A>>);

/// All prefix reach-sets (with a representative prefix each) reachable over
/// the ADT's alphabet within the budget. Returns `(sets, closed)`.
fn prefix_reach_sets<A: EnumerableAdt>(adt: &A, cfg: &PrefixCfg) -> (Vec<PrefixPoint<A>>, bool) {
    let alphabet = adt.invocations();
    let mut out: Vec<PrefixPoint<A>> = Vec::new();
    let mut visited: HashSet<ReachSet<A>> = HashSet::new();
    let init = ReachSet::initial(adt);
    visited.insert(init.clone());
    out.push((init, Vec::new()));
    let mut frontier = vec![0usize];
    let mut closed = true;
    while let Some(idx) = frontier.pop() {
        let (r, prefix) = out[idx].clone();
        if prefix.len() >= cfg.max_prefix_len {
            closed = false;
            continue;
        }
        for inv in &alphabet {
            for resp in r.responses(adt, inv) {
                let op = Op::new(inv.clone(), resp);
                let r2 = r.advance(adt, &op);
                if r2.is_empty() || !visited.insert(r2.clone()) {
                    continue;
                }
                if out.len() >= cfg.max_reach_sets {
                    closed = false;
                    continue;
                }
                let mut p2 = prefix.clone();
                p2.push(op);
                out.push((r2, p2));
                frontier.push(out.len() - 1);
            }
        }
    }
    (out, closed)
}

/// The FC and RBC relations over a finite operation alphabet, as boolean
/// matrices — the machine-checked analogue of the paper's Figures 6-1/6-2.
pub struct CommutativityTable<A: Adt> {
    /// The operations indexing rows and columns.
    pub ops: Vec<Op<A>>,
    /// `fc[i][j]` ⇔ `ops[i]` and `ops[j]` commute forward.
    pub fc: Vec<Vec<bool>>,
    /// `rbc[i][j]` ⇔ `ops[i]` right commutes backward with `ops[j]`.
    pub rbc: Vec<Vec<bool>>,
    /// Whether every verdict in the table is exact.
    pub exact: bool,
}

impl<A: Adt> CommutativityTable<A> {
    /// Pairs in `NFC` (the complement of FC): the conflict requirement of
    /// deferred-update recovery (Theorem 10).
    pub fn nfc_pairs(&self) -> Vec<(Op<A>, Op<A>)> {
        self.complement(&self.fc)
    }

    /// Pairs in `NRBC`: the conflict requirement of update-in-place recovery
    /// (Theorem 9).
    pub fn nrbc_pairs(&self) -> Vec<(Op<A>, Op<A>)> {
        self.complement(&self.rbc)
    }

    fn complement(&self, rel: &[Vec<bool>]) -> Vec<(Op<A>, Op<A>)> {
        let mut out = Vec::new();
        for (i, row) in rel.iter().enumerate() {
            for (j, &holds) in row.iter().enumerate() {
                if !holds {
                    out.push((self.ops[i].clone(), self.ops[j].clone()));
                }
            }
        }
        out
    }

    /// Whether the FC matrix is symmetric (it must be, Lemma 8 — checked in
    /// tests as a sanity condition on the engines).
    pub fn fc_symmetric(&self) -> bool {
        let n = self.ops.len();
        (0..n).all(|i| (0..n).all(|j| self.fc[i][j] == self.fc[j][i]))
    }

    /// Whether the RBC matrix is symmetric (in general it is **not**).
    pub fn rbc_symmetric(&self) -> bool {
        let n = self.ops.len();
        (0..n).all(|i| (0..n).all(|j| self.rbc[i][j] == self.rbc[j][i]))
    }

    /// Pairs in `NRBC ∖ NFC` — conflicts UIP needs that DU does not.
    pub fn nrbc_minus_nfc(&self) -> Vec<(Op<A>, Op<A>)> {
        let n = self.ops.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if !self.rbc[i][j] && self.fc[i][j] {
                    out.push((self.ops[i].clone(), self.ops[j].clone()));
                }
            }
        }
        out
    }

    /// Pairs in `NFC ∖ NRBC` — conflicts DU needs that UIP does not.
    pub fn nfc_minus_nrbc(&self) -> Vec<(Op<A>, Op<A>)> {
        let n = self.ops.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if self.rbc[i][j] && !self.fc[i][j] {
                    out.push((self.ops[i].clone(), self.ops[j].clone()));
                }
            }
        }
        out
    }
}

/// Build both relations over `ops` with the state-cover engine.
pub fn build_tables<A: StateCover>(
    adt: &A,
    ops: &[Op<A>],
    cfg: InclusionCfg,
) -> CommutativityTable<A> {
    let n = ops.len();
    let mut fc = vec![vec![false; n]; n];
    let mut rbc = vec![vec![false; n]; n];
    let mut exact = true;
    for i in 0..n {
        for j in 0..n {
            match commute_forward(adt, &ops[i], &ops[j], cfg) {
                Ok(e) => {
                    fc[i][j] = true;
                    exact &= e.exact;
                }
                Err(_) => fc[i][j] = false,
            }
            match right_commutes_backward(adt, &ops[i], &ops[j], cfg) {
                Ok(e) => {
                    rbc[i][j] = true;
                    exact &= e.exact;
                }
                Err(_) => rbc[i][j] = false,
            }
        }
    }
    CommutativityTable { ops: ops.to_vec(), fc, rbc, exact }
}

/// Build both relations over `ops` with the bounded-prefix engine.
pub fn build_tables_bounded<A: EnumerableAdt>(
    adt: &A,
    ops: &[Op<A>],
    cfg: &PrefixCfg,
) -> CommutativityTable<A> {
    let n = ops.len();
    let mut fc = vec![vec![false; n]; n];
    let mut rbc = vec![vec![false; n]; n];
    let mut exact = true;
    // Share the prefix exploration across all pairs.
    let (sets, closed) = prefix_reach_sets(adt, cfg);
    let alphabet = adt.invocations();
    exact &= closed;
    for i in 0..n {
        for j in 0..n {
            let mut fc_ok = true;
            let mut rbc_ok = true;
            for (r, _) in &sets {
                let (p, q) = (&ops[i], &ops[j]);
                if fc_ok && fc_at(adt, &alphabet, r, p, q, cfg.inclusion, &mut exact).is_some() {
                    fc_ok = false;
                }
                if rbc_ok && rbc_at(adt, &alphabet, r, p, q, cfg.inclusion, &mut exact).is_some() {
                    rbc_ok = false;
                }
                if !fc_ok && !rbc_ok {
                    break;
                }
            }
            fc[i][j] = fc_ok;
            rbc[i][j] = rbc_ok;
        }
    }
    CommutativityTable { ops: ops.to_vec(), fc, rbc, exact }
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
    fn dec_no() -> Op<MiniCounter> {
        Op::new(CInv::Dec, CResp::No)
    }
    fn read(v: u32) -> Op<MiniCounter> {
        Op::new(CInv::Read, CResp::Val(v))
    }

    const CFG: InclusionCfg = InclusionCfg { max_depth: 64, max_pairs: 20_000 };

    #[test]
    fn dec_ok_pairs_commute_forward() {
        // Two successful decrements: both legal from s ⇒ s ≥ 1, but the
        // sequence needs s ≥ 2 ⇒ NOT forward commutative (like the paper's
        // withdraw/withdraw).
        let c = plain(5);
        let v = commute_forward(&c, &dec_ok(), &dec_ok(), CFG);
        assert!(matches!(v, Err(FcFailure { kind: FcFailureKind::PqIllegal, .. })));
    }

    #[test]
    fn dec_ok_rbc_with_itself() {
        // αQP legal ⇒ s ≥ 2 ⇒ αPQ legal with the same final state: RBC holds
        // (like the paper's withdraw(i),OK RBC withdraw(j),OK for bounded i+j).
        let c = plain(5);
        assert!(right_commutes_backward(&c, &dec_ok(), &dec_ok(), CFG).is_ok());
    }

    #[test]
    fn inc_does_not_rbc_with_dec_in_saturating_counter() {
        // α·dec_ok·inc legal from s=max ⇒ (max-1)+1 = max; α·inc·dec would
        // require inc legal at max — it is not. (Analogue of the paper's
        // deposit *not* right-commuting-backward with withdraw(NO).)
        let c = plain(3);
        let v = right_commutes_backward(&c, &inc(), &dec_ok(), CFG);
        assert!(v.is_err());
        // And the converse *does* hold: dec_ok RBC inc — α·inc·dec_ok legal
        // ⇒ α·dec_ok... requires s ≥ 1; s could be 0! inc then dec from 0 is
        // legal, dec first is not.
        let v2 = right_commutes_backward(&c, &dec_ok(), &inc(), CFG);
        assert!(v2.is_err(), "dec_ok does not RBC inc at state 0");
    }

    #[test]
    fn reads_commute_with_reads() {
        let c = plain(3);
        assert!(commute_forward(&c, &read(1), &read(1), CFG).is_ok());
        // read(1) and read(2) are never co-enabled ⇒ vacuously FC.
        assert!(commute_forward(&c, &read(1), &read(2), CFG).is_ok());
        assert!(right_commutes_backward(&c, &read(1), &read(2), CFG).is_ok());
    }

    #[test]
    fn inc_conflicts_with_read_in_both_relations() {
        let c = plain(3);
        assert!(commute_forward(&c, &inc(), &read(1), CFG).is_err());
        assert!(right_commutes_backward(&c, &inc(), &read(1), CFG).is_err());
        // read RBC inc fails too: α·inc·read(k) legal ⇒ α·read(k)·inc needs
        // state k before the inc, but it is k−1... wait read(k) after inc ⇒
        // pre-state k−1; read(k) first is illegal at k−1. So fails.
        assert!(right_commutes_backward(&c, &read(1), &inc(), CFG).is_err());
    }

    #[test]
    fn dec_no_is_identity_and_commutes_widely() {
        let c = plain(3);
        assert!(commute_forward(&c, &dec_no(), &dec_no(), CFG).is_ok());
        assert!(commute_forward(&c, &dec_no(), &read(0), CFG).is_ok());
        assert!(right_commutes_backward(&c, &dec_no(), &read(0), CFG).is_ok());
        // dec_no vs inc: both enabled only at 0; inc;dec_no illegal (state 1).
        assert!(commute_forward(&c, &dec_no(), &inc(), CFG).is_err());
    }

    #[test]
    fn fc_failure_witness_is_replayable() {
        let c = plain(5);
        let p = dec_ok();
        let q = dec_ok();
        let f = commute_forward(&c, &p, &q, CFG).unwrap_err();
        // The witness prefix must make both αP and αQ legal but αPQ illegal.
        let mut apq = f.prefix.clone();
        apq.push(p.clone());
        let mut ap = f.prefix.clone();
        ap.push(p.clone());
        assert!(crate::spec::legal(&c, &ap));
        apq.push(q.clone());
        assert!(!crate::spec::legal(&c, &apq));
    }

    #[test]
    fn rbc_failure_witness_is_replayable() {
        let c = plain(3);
        let p = inc();
        let q = dec_ok();
        let f = right_commutes_backward(&c, &p, &q, CFG).unwrap_err();
        let mut aqp = f.prefix.clone();
        aqp.extend([q.clone(), p.clone()]);
        aqp.extend(f.continuation.iter().cloned());
        assert!(crate::spec::legal(&c, &aqp), "αQPγ must be legal");
        let mut apq = f.prefix.clone();
        apq.extend([p.clone(), q.clone()]);
        apq.extend(f.continuation.iter().cloned());
        assert!(!crate::spec::legal(&c, &apq), "αPQγ must be illegal");
    }

    #[test]
    fn engines_agree_on_plain_counter() {
        let c = plain(3);
        let ops = vec![inc(), dec_ok(), dec_no(), read(0), read(2)];
        let cover = build_tables(&c, &ops, CFG);
        let bounded = build_tables_bounded(&c, &ops, &PrefixCfg::default());
        assert!(cover.exact);
        assert!(bounded.exact, "finite counter must close");
        assert_eq!(cover.fc, bounded.fc);
        assert_eq!(cover.rbc, bounded.rbc);
        assert!(cover.fc_symmetric());
    }

    #[test]
    fn bounded_engine_handles_hidden_nondeterminism() {
        let c = chaotic(6);
        // Chaotic inc vs read: certainly conflicting.
        let t = build_tables_bounded(&c, &[inc(), read(1)], &PrefixCfg::default());
        assert!(t.exact);
        assert!(!t.fc[0][1]);
        assert!(t.fc_symmetric());
        // Chaotic inc vs chaotic inc: reach-sets {s+1,s+2} both orders —
        // equieffective, and legal whenever both enabled ⇒ FC... careful:
        // both enabled needs s+1 ≤ max; sequence needs s+2 ≤ max at least.
        // At s = max−1: single inc enabled (only +1 fits), sequence illegal.
        assert!(!t.fc[0][0]);
    }

    #[test]
    fn incomparability_exists_even_on_counter() {
        // The saturating counter already exhibits NRBC ⊄ NFC and NFC ⊄ NRBC:
        // (dec_ok, dec_ok) ∈ NFC ∖ NRBC; (inc, dec_ok) ∈ NRBC ∖ NFC?
        // inc vs dec_ok FC: both enabled ⇒ 1 ≤ s < max; inc;dec = s, dec;inc = s,
        // both legal, equieffective ⇒ FC holds. And inc does not RBC dec_ok.
        let c = plain(3);
        let ops = vec![inc(), dec_ok()];
        let t = build_tables(&c, &ops, CFG);
        let uip_only = t.nrbc_minus_nfc();
        let du_only = t.nfc_minus_nrbc();
        assert!(uip_only.contains(&(inc(), dec_ok())));
        assert!(du_only.contains(&(dec_ok(), dec_ok())));
    }
}
