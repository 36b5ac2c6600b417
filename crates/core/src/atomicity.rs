//! Atomicity, serializability and dynamic atomicity (paper §3.3–3.4, §7).
//!
//! * A serial failure-free history is **acceptable** iff at every object the
//!   operation sequence is legal according to that object's serial
//!   specification.
//! * `H` is **serializable in order T** iff `Serial(H, T)` is acceptable, and
//!   **serializable** iff some order works.
//! * `H` is **atomic** iff `permanent(H)` is serializable.
//! * `H` is **dynamic atomic** iff `permanent(H)` is serializable in *every*
//!   total order consistent with `precedes(H)` — the local atomicity
//!   property characterising two-phase-locking-like protocols.
//! * `H` is **online dynamic atomic** (§7) iff for every commit set `CS`
//!   (`Committed(H) ⊆ CS`, `CS ∩ Aborted(H) = ∅`), `H|CS` is serializable in
//!   every total order consistent with `precedes(H|CS)`. This strengthens
//!   dynamic atomicity to account for active transactions that may yet
//!   commit, and is the induction invariant of Theorem 9.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::adt::Adt;
use crate::history::History;
use crate::ids::{ObjectId, TxnId};
use crate::order::TxnOrder;
use crate::spec::ReachSet;

/// The serial specifications of all objects in a system: one ADT instance
/// per object (instances may differ in configuration/initial state), and
/// optionally the state a checked history starts an object from.
#[derive(Clone, Debug)]
pub struct SystemSpec<A: Adt> {
    adts: BTreeMap<ObjectId, A>,
    /// Objects whose histories start from a state other than `initial()`.
    starts: BTreeMap<ObjectId, A::State>,
}

impl<A: Adt> SystemSpec<A> {
    /// A system with a single object [`ObjectId::SOLE`].
    pub fn single(adt: A) -> Self {
        let mut adts = BTreeMap::new();
        adts.insert(ObjectId::SOLE, adt);
        SystemSpec { adts, starts: BTreeMap::new() }
    }

    /// A system where `n` objects (ids `0..n`) share the same specification.
    pub fn uniform(adt: A, n: u32) -> Self {
        let mut adts = BTreeMap::new();
        for i in 0..n {
            adts.insert(ObjectId(i), adt.clone());
        }
        SystemSpec { adts, starts: BTreeMap::new() }
    }

    /// Add or replace an object's specification.
    pub fn with_object(mut self, obj: ObjectId, adt: A) -> Self {
        self.adts.insert(obj, adt);
        self
    }

    /// Judge histories as starting from `states` instead of each listed
    /// object's `initial()`: a history recorded by a system rebuilt from a
    /// checkpoint image begins at that image, not at the empty object.
    pub fn starting_from(mut self, states: &[(ObjectId, A::State)]) -> Self {
        self.starts = states.iter().cloned().collect();
        self
    }

    /// The reach-set of the empty sequence at `obj`: its starting state.
    fn start(&self, obj: ObjectId) -> ReachSet<A> {
        match self.starts.get(&obj) {
            Some(state) => ReachSet::singleton(state.clone()),
            None => ReachSet::initial(self.adt(obj)),
        }
    }

    /// The specification of `obj` (panics if absent — a programming error).
    pub fn adt(&self, obj: ObjectId) -> &A {
        self.adts.get(&obj).unwrap_or_else(|| panic!("no specification for object {obj}"))
    }

    /// The objects in the system.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.adts.keys().copied()
    }

    /// Whether the serial failure-free history `h` is acceptable: at every
    /// object, the operation sequence is legal (paper §3.3).
    pub fn acceptable(&self, h: &History<A>) -> bool {
        h.objects()
            .iter()
            .all(|obj| !self.start(*obj).advance_seq(self.adt(*obj), &h.opseq_at(*obj)).is_empty())
    }
}

/// Whether `h` is serializable in the order `order`: `Serial(h, order)` is
/// acceptable. Transactions of `h` missing from `order` make this `false`
/// (the order must cover `h`).
pub fn serializable_in<A: Adt>(spec: &SystemSpec<A>, h: &History<A>, order: &[TxnId]) -> bool {
    let txns = h.txns();
    if !txns.iter().all(|t| order.contains(t)) {
        return false;
    }
    spec.acceptable(&h.serial(order))
}

/// Search for a serialization order of `h`: a permutation of its
/// transactions making `Serial(h, ·)` acceptable. Returns a witness order.
///
/// Uses incremental per-object reach-sets to prune: a partial order whose
/// serial prefix is already illegal at some object cannot be completed.
pub fn find_serialization<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> Option<Vec<TxnId>> {
    let txns: Vec<TxnId> = h.txns().into_iter().collect();
    let objects: Vec<ObjectId> = h.objects().into_iter().collect();
    // Pre-project each transaction's ops per object.
    let mut ops: BTreeMap<(TxnId, ObjectId), Vec<crate::adt::Op<A>>> = BTreeMap::new();
    for &t in &txns {
        let ht = h.project_txn(t);
        for &obj in &objects {
            ops.insert((t, obj), ht.opseq_at(obj));
        }
    }
    let init: Vec<(ObjectId, ReachSet<A>)> =
        objects.iter().map(|&obj| (obj, spec.start(obj))).collect();

    fn rec<A: Adt>(
        spec: &SystemSpec<A>,
        ops: &BTreeMap<(TxnId, ObjectId), Vec<crate::adt::Op<A>>>,
        remaining: &mut Vec<TxnId>,
        prefix: &mut Vec<TxnId>,
        reach: &[(ObjectId, ReachSet<A>)],
    ) -> bool {
        if remaining.is_empty() {
            return true;
        }
        for i in 0..remaining.len() {
            let cand = remaining[i];
            let mut next: Vec<(ObjectId, ReachSet<A>)> = Vec::with_capacity(reach.len());
            let mut ok = true;
            for (obj, r) in reach {
                let seq = &ops[&(cand, *obj)];
                let r2 = r.advance_seq(spec.adt(*obj), seq);
                if r2.is_empty() {
                    ok = false;
                    break;
                }
                next.push((*obj, r2));
            }
            if !ok {
                continue;
            }
            remaining.remove(i);
            prefix.push(cand);
            if rec(spec, ops, remaining, prefix, &next) {
                return true;
            }
            prefix.pop();
            remaining.insert(i, cand);
        }
        false
    }

    let mut remaining = txns;
    let mut prefix = Vec::new();
    if rec(spec, &ops, &mut remaining, &mut prefix, &init) {
        Some(prefix)
    } else {
        None
    }
}

/// Whether `h` is serializable (some order works).
pub fn is_serializable<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> bool {
    find_serialization(spec, h).is_some()
}

/// Whether `h` is atomic: `permanent(h)` is serializable (paper §3.3).
pub fn is_atomic<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> bool {
    is_serializable(spec, &h.permanent())
}

/// A refutation of (online) dynamic atomicity: a commit set and an order
/// consistent with `precedes` in which the projection is not serializable.
#[derive(Clone, Debug)]
pub struct DynAtomViolation {
    /// The commit set used (`Committed(H)` itself for plain dynamic
    /// atomicity).
    pub commit_set: Vec<TxnId>,
    /// The consistent order in which serialization fails.
    pub order: Vec<TxnId>,
}

/// Whether `h` is dynamic atomic (paper §3.4): `permanent(h)` serializable
/// in every total order consistent with `precedes(h)`.
pub fn check_dynamic_atomic<A: Adt>(
    spec: &SystemSpec<A>,
    h: &History<A>,
) -> Result<(), DynAtomViolation> {
    let permanent = h.permanent();
    let committed: Vec<TxnId> = permanent.txns().into_iter().collect();
    let prec = TxnOrder::from_pairs(h.precedes()).restrict(&committed);
    let mut violation = None;
    prec.for_each_extension(&committed, |order| {
        if serializable_in(spec, &permanent, order) {
            true
        } else {
            violation =
                Some(DynAtomViolation { commit_set: committed.clone(), order: order.to_vec() });
            false
        }
    });
    match violation {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

/// Convenience wrapper for [`check_dynamic_atomic`].
pub fn is_dynamic_atomic<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> bool {
    check_dynamic_atomic(spec, h).is_ok()
}

/// Statistically check dynamic atomicity on histories too concurrent for the
/// exhaustive check: verify the commit order plus `samples` random linear
/// extensions of `precedes(h)`. The exhaustive check is exponential in the
/// number of mutually concurrent committed transactions; this sampler trades
/// completeness for scale (a refutation is still definitive — the property
/// is universally quantified).
pub fn check_dynamic_atomic_sampled<A: Adt, R: rand::Rng>(
    spec: &SystemSpec<A>,
    h: &History<A>,
    samples: usize,
    rng: &mut R,
) -> Result<(), DynAtomViolation> {
    use rand::seq::SliceRandom;
    let permanent = h.permanent();
    let committed: Vec<TxnId> = permanent.txns().into_iter().collect();
    let prec = TxnOrder::from_pairs(h.precedes()).restrict(&committed);
    let try_order = |order: &[TxnId]| -> Result<(), DynAtomViolation> {
        if serializable_in(spec, &permanent, order) {
            Ok(())
        } else {
            Err(DynAtomViolation { commit_set: committed.clone(), order: order.to_vec() })
        }
    };
    // The commit order is always consistent with precedes — check it first.
    try_order(&h.commit_order())?;
    for _ in 0..samples {
        // Random topological sort: repeatedly pick a random unconstrained
        // transaction.
        let mut remaining = committed.clone();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let candidates: Vec<usize> = (0..remaining.len())
                .filter(|&i| {
                    let cand = remaining[i];
                    !prec
                        .pairs()
                        .iter()
                        .any(|(a, b)| *b == cand && *a != cand && remaining.contains(a))
                })
                .collect();
            let &pick = candidates.choose(rng).expect("precedes is acyclic");
            order.push(remaining.remove(pick));
        }
        try_order(&order)?;
    }
    Ok(())
}

/// Check dynamic atomicity with an automatically chosen strategy: the
/// exhaustive checker when at most `exhaustive_limit` transactions committed
/// (its cost is factorial in the mutually concurrent committed transactions),
/// the seeded sampler with `samples` random consistent orders otherwise.
/// Deterministic: the same `(h, seed)` always examines the same orders.
pub fn check_dynamic_atomic_auto<A: Adt>(
    spec: &SystemSpec<A>,
    h: &History<A>,
    exhaustive_limit: usize,
    samples: usize,
    seed: u64,
) -> Result<(), DynAtomViolation> {
    if h.committed().len() <= exhaustive_limit {
        check_dynamic_atomic(spec, h)
    } else {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        check_dynamic_atomic_sampled(spec, h, samples, &mut rng)
    }
}

/// Whether `h` is *online* dynamic atomic (paper §7): dynamic atomicity for
/// every commit set. Exponential in the number of active transactions; meant
/// for the bounded model-checking harness.
pub fn check_online_dynamic_atomic<A: Adt>(
    spec: &SystemSpec<A>,
    h: &History<A>,
) -> Result<(), DynAtomViolation> {
    let committed: Vec<TxnId> = h.committed().into_iter().collect();
    let active: Vec<TxnId> = h.active().into_iter().collect();
    // Enumerate subsets of active transactions.
    let n = active.len();
    for mask in 0..(1u64 << n) {
        let mut cs: BTreeSet<TxnId> = committed.iter().copied().collect();
        for (i, t) in active.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cs.insert(*t);
            }
        }
        let hcs = h.project_txns(&cs);
        let cs_vec: Vec<TxnId> = hcs.txns().into_iter().collect();
        let prec = TxnOrder::from_pairs(hcs.precedes()).restrict(&cs_vec);
        let mut violation = None;
        prec.for_each_extension(&cs_vec, |order| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::test_adt::*;
    use crate::history::HistoryBuilder;

    const T: fn(u32) -> TxnId = TxnId;
    const X: ObjectId = ObjectId::SOLE;

    fn spec() -> SystemSpec<MiniCounter> {
        SystemSpec::single(plain(10))
    }

    #[test]
    fn acceptable_checks_every_object() {
        let s = spec();
        let good = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(0), X, CInv::Read, CResp::Val(1))
            .build();
        assert!(s.acceptable(&good));
        let bad = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Read, CResp::Val(5)) // flat sequence illegal
            .build();
        assert!(!s.acceptable(&bad));
    }

    #[test]
    fn serializable_in_specific_orders() {
        let s = spec();
        // A incs and commits; B reads 1 — only A-B is a valid order.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .commit(T(0), X)
            .commit(T(1), X)
            .build();
        assert!(serializable_in(&s, &h, &[T(0), T(1)]));
        assert!(!serializable_in(&s, &h, &[T(1), T(0)]));
        assert_eq!(find_serialization(&s, &h), Some(vec![T(0), T(1)]));
    }

    #[test]
    fn atomicity_ignores_aborted_and_active() {
        let s = spec();
        // B's dec is only legal thanks to A's inc — but A aborts; B reads 0
        // (consistent with A's effects undone). Atomicity considers only
        // committed transactions.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .abort(T(0), X)
            .op(T(1), X, CInv::Read, CResp::Val(0))
            .commit(T(1), X)
            .build();
        assert!(is_atomic(&s, &h));
    }

    #[test]
    fn non_serializable_history_is_not_atomic() {
        let s = spec();
        // Both transactions read 0, then both inc and read 1 — classic lost
        // update: neither order explains both reads.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Read, CResp::Val(0))
            .op(T(1), X, CInv::Read, CResp::Val(0))
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Inc, CResp::Ok)
            .op(T(0), X, CInv::Read, CResp::Val(1))
            .commit(T(0), X)
            .commit(T(1), X)
            .build();
        assert!(!is_atomic(&s, &h));
    }

    #[test]
    fn dynamic_atomicity_needs_every_consistent_order() {
        let s = spec();
        // A incs; B reads 1 *before* A commits: A and B are concurrent, so
        // both orders A-B and B-A must be acceptable — B-A is not.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .commit(T(0), X)
            .commit(T(1), X)
            .build();
        assert!(is_atomic(&s, &h), "atomic: A-B works");
        let v = check_dynamic_atomic(&s, &h).unwrap_err();
        assert_eq!(v.order, vec![T(1), T(0)]);
    }

    #[test]
    fn dynamic_atomicity_holds_when_precedes_pins_order() {
        let s = spec();
        // Same as above but B reads *after* A commits ⇒ (A,B) ∈ precedes ⇒
        // only A-B needs to serialize.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .commit(T(0), X)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .commit(T(1), X)
            .build();
        assert!(check_dynamic_atomic(&s, &h).is_ok());
    }

    #[test]
    fn online_dynamic_atomicity_catches_doomed_active_txns() {
        let s = spec();
        // A (active) incs; B reads 1 and commits while A is still active —
        // plain dynamic atomicity only checks {B}, which serializes iff B
        // alone is legal — read 1 alone is illegal, so even plain DA fails
        // here. Construct a subtler case: B reads 0 (ignoring A) and
        // commits; fine for {B}; but the commit set {A, B} with A committing
        // later has both orders required... A-B: inc, read0 — illegal.
        // B-A: read0, inc — legal. Since A executed its inc before B's
        // commit, neither precedes the other ⇒ both orders required ⇒ the
        // commit set {A,B} is refuted.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Read, CResp::Val(0))
            .commit(T(1), X)
            .build();
        assert!(check_dynamic_atomic(&s, &h).is_ok(), "B alone is fine");
        let v = check_online_dynamic_atomic(&s, &h).unwrap_err();
        assert_eq!(v.commit_set, vec![T(0), T(1)]);
    }

    #[test]
    fn multi_object_serializability() {
        let s = SystemSpec::uniform(plain(10), 2);
        let y = ObjectId(1);
        // A incs X; B incs Y; both read the other's object as 0 before the
        // other commits: serializable? A-B: A(incX, readY0), B(incY, readX?)
        // B read X as 0 but A comes first ⇒ illegal. B-A symmetric ⇒ not
        // atomic.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), y, CInv::Inc, CResp::Ok)
            .op(T(0), y, CInv::Read, CResp::Val(0))
            .op(T(1), X, CInv::Read, CResp::Val(0))
            .commit(T(0), X)
            .commit(T(0), y)
            .commit(T(1), X)
            .commit(T(1), y)
            .build();
        assert!(!is_atomic(&s, &h));
    }

    #[test]
    fn sampled_checker_agrees_with_exhaustive_on_small_histories() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = spec();
        let good = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .commit(T(0), X)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .commit(T(1), X)
            .build();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(check_dynamic_atomic_sampled(&s, &good, 32, &mut rng).is_ok());

        let bad = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .commit(T(0), X)
            .commit(T(1), X)
            .build();
        assert!(check_dynamic_atomic(&s, &bad).is_err());
        // With enough samples the 2-txn refutation is found w.h.p.
        let mut rng = StdRng::seed_from_u64(2);
        assert!(check_dynamic_atomic_sampled(&s, &bad, 64, &mut rng).is_err());
    }

    #[test]
    fn sampled_checker_scales_to_wide_concurrency() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // 9 mutually concurrent increments (within the counter's bound of
        // 10): 9! extensions — hopeless exhaustively, instant sampled.
        let s = spec();
        let mut b = HistoryBuilder::new(None);
        for i in 0..9 {
            b = b.op(T(i), X, CInv::Inc, CResp::Ok);
        }
        for i in 0..9 {
            b = b.commit(T(i), X);
        }
        let h = b.build();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(check_dynamic_atomic_sampled(&s, &h, 100, &mut rng).is_ok());
    }

    #[test]
    fn auto_checker_matches_exhaustive_and_sampled() {
        let s = spec();
        let bad = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .commit(T(0), X)
            .commit(T(1), X)
            .build();
        // Below the limit: exhaustive, deterministic refutation.
        assert!(check_dynamic_atomic_auto(&s, &bad, 8, 0, 0).is_err());
        // Above the limit: the sampler takes over (64 samples find the 2-txn
        // refutation with overwhelming probability at any seed).
        assert!(check_dynamic_atomic_auto(&s, &bad, 1, 64, 7).is_err());
    }

    #[test]
    fn a_starting_state_replaces_the_initial_one_for_every_checker() {
        // A history recorded after a rebuild from a checkpoint image: the
        // counter already stood at 1, so `dec → Ok; read → 0` is serial.
        let h = HistoryBuilder::new(None)
            .op(T(0), X, CInv::Dec, CResp::Ok)
            .commit(T(0), X)
            .op(T(1), X, CInv::Read, CResp::Val(0))
            .commit(T(1), X)
            .build();
        assert!(!is_atomic(&spec(), &h), "from the empty counter the decrement must refuse");
        let from_one = spec().starting_from(&[(X, 1)]);
        assert!(from_one.acceptable(&h.serial(&[T(0), T(1)])));
        assert_eq!(find_serialization(&from_one, &h), Some(vec![T(0), T(1)]));
        assert!(check_dynamic_atomic(&from_one, &h).is_ok());
        // The seed is a starting point, not a licence: a response that is
        // wrong from the image is still refuted.
        assert!(check_dynamic_atomic(&spec().starting_from(&[(X, 2)]), &h).is_err());
    }

    #[test]
    fn empty_history_is_everything() {
        let s = spec();
        let h = History::new();
        assert!(is_atomic(&s, &h));
        assert!(check_dynamic_atomic(&s, &h).is_ok());
        assert!(check_online_dynamic_atomic(&s, &h).is_ok());
    }
}
