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
//!
//! Both are decided exactly, one object at a time (the property is local):
//! a memoised walk over the downsets of `precedes` at each object.

use std::collections::{BTreeMap, HashMap};

use crate::adt::{Adt, Op};
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
    let mut ops: BTreeMap<(TxnId, ObjectId), Vec<Op<A>>> = BTreeMap::new();
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
        ops: &BTreeMap<(TxnId, ObjectId), Vec<Op<A>>>,
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynAtomViolation {
    /// The commit set used (`Committed(H)` itself for plain dynamic
    /// atomicity).
    pub commit_set: Vec<TxnId>,
    /// The consistent order in which serialization fails.
    pub order: Vec<TxnId>,
}

/// Whether `h` is dynamic atomic (paper §3.4): `permanent(h)` serializable
/// in every total order consistent with `precedes(h)`. Exact; the refuting
/// order is the lexicographically least one.
pub fn check_dynamic_atomic<A: Adt>(
    spec: &SystemSpec<A>,
    h: &History<A>,
) -> Result<(), DynAtomViolation> {
    walk(spec, &h.permanent())
}

/// Convenience wrapper for [`check_dynamic_atomic`].
pub fn is_dynamic_atomic<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> bool {
    check_dynamic_atomic(spec, h).is_ok()
}

/// Statistically check dynamic atomicity: verify the commit order plus
/// `samples` random linear extensions of `precedes(h)`. For histories whose
/// per-object orders are too many even for [`check_dynamic_atomic`]'s walk
/// (dozens of mutually concurrent transactions at one object); this trades
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
    let blocked = |remaining: &[TxnId], t: TxnId| {
        prec.pairs().iter().any(|(a, b)| *b == t && *a != t && remaining.contains(a))
    };
    // The commit order is always consistent with precedes — check it first.
    try_order(&h.commit_order())?;
    for _ in 0..samples {
        // Random topological sort: repeatedly pick a random unconstrained
        // transaction.
        let mut remaining = committed.clone();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let candidates: Vec<usize> =
                (0..remaining.len()).filter(|&i| !blocked(&remaining, remaining[i])).collect();
            let &pick = candidates.choose(rng).expect("precedes is acyclic");
            order.push(remaining.remove(pick));
        }
        try_order(&order)?;
    }
    Ok(())
}

/// Whether `h` is *online* dynamic atomic (paper §7): dynamic atomicity for
/// every commit set. Exact, by the same walk as [`check_dynamic_atomic`]
/// over every transaction that has not aborted.
pub fn check_online_dynamic_atomic<A: Adt>(
    spec: &SystemSpec<A>,
    h: &History<A>,
) -> Result<(), DynAtomViolation> {
    walk(spec, &h.project_not_aborted())
}

/// A state of an object's walk: the transactions ordered so far (a downset
/// of `precedes`, as a bit set of walk indices) and their reach-set there.
type WalkState<A> = (Vec<u64>, ReachSet<A>);

fn has(set: &[u64], i: usize) -> bool {
    set[i / 64] & 1 << (i % 64) != 0
}

fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

fn within(sub: &[u64], set: &[u64]) -> bool {
    sub.iter().zip(set).all(|(s, t)| s & !t == 0)
}

/// Decide dynamic atomicity exactly, one object at a time, over `h`'s
/// transactions: those that committed or may yet commit.
///
/// `precedes(h)` is transitive (a transaction responds only before it
/// commits, and only committed ones precede), so the consistent orders,
/// restricted to an object's transactions, are exactly the linear
/// extensions of `precedes` restricted to them. `h` is refuted iff at some
/// object such a prefix is illegal; the prefix refutes the commit set of
/// the committed transactions and the active ones in it, since an active
/// one precedes nobody. [`ObjectWalk`] memoises on (downset, reach-set).
///
/// The witness is the least refuting order, committed transactions ranked
/// before active ones with operations: the first free one after which some
/// object is still refutable, until the prefix is illegal; then the least
/// free ones of the commit set.
fn walk<A: Adt>(spec: &SystemSpec<A>, h: &History<A>) -> Result<(), DynAtomViolation> {
    let txns: Vec<TxnId> = h.txns().into_iter().collect();
    let index = |t: TxnId| txns.binary_search(&t).expect("a transaction of h");
    let words = txns.len() / 64 + 1;
    let mut preds = vec![vec![0u64; words]; txns.len()];
    for (a, b) in h.precedes() {
        insert(&mut preds[index(b)], index(a));
    }
    let projected: Vec<History<A>> = txns.iter().map(|&t| h.project_txn(t)).collect();
    let (mut walks, mut states): (Vec<ObjectWalk<'_, A>>, Vec<WalkState<A>>) = (h.objects())
        .into_iter()
        .map(|obj| {
            let members: Vec<_> = (projected.iter().map(|p| p.opseq_at(obj)).enumerate())
                .filter(|(_, seq)| !seq.is_empty())
                .map(|(i, seq)| (i, seq, preds[i].clone()))
                .collect();
            // Transactions without operations here count as ordered.
            let mut down = vec![!0u64; words];
            members.iter().for_each(|(i, ..)| down[i / 64] ^= 1 << (i % 64));
            let walk = ObjectWalk { adt: spec.adt(obj), members, decided: HashMap::new() };
            (walk, (down, spec.start(obj)))
        })
        .unzip();
    if !walks.iter_mut().zip(&states).any(|(w, state)| w.refutable(state.clone())) {
        return Ok(());
    }
    let free = |placed: &[u64], i: usize| !has(placed, i) && within(&preds[i], placed);
    let committed = h.committed();
    let (mut ranked, active): (Vec<usize>, Vec<usize>) =
        (0..txns.len()).partition(|&i| committed.contains(&txns[i]));
    ranked.extend(active.into_iter().filter(|&i| !projected[i].opseq().is_empty()));
    let (mut placed, mut order) = (vec![0u64; words], Vec::new());
    while states.iter().all(|(_, reach)| !reach.is_empty()) {
        let (i, next) = (ranked.iter().copied().filter(|&i| free(&placed, i)))
            .find_map(|i| {
                let next: Vec<_> = walks.iter().zip(&states).map(|(w, s)| w.after(s, i)).collect();
                let refuted = next.iter().any(|(_, reach)| reach.is_empty())
                    || walks.iter_mut().zip(&next).any(|(w, state)| w.refutable(state.clone()));
                refuted.then_some((i, next))
            })
            .expect("a refutable prefix has a refutable successor");
        insert(&mut placed, i);
        order.push(txns[i]);
        states = next;
    }
    let completes = |placed: &[u64], i: usize| committed.contains(&txns[i]) && free(placed, i);
    while let Some(i) = (0..txns.len()).find(|&i| completes(&placed, i)) {
        insert(&mut placed, i);
        order.push(txns[i]);
    }
    let mut commit_set = order.clone();
    commit_set.sort();
    Err(DynAtomViolation { commit_set, order })
}

/// One object's share of [`walk`].
struct ObjectWalk<'a, A: Adt> {
    adt: &'a A,
    /// The transactions with operations here, ascending: walk index,
    /// operations here, and predecessors.
    members: Vec<(usize, Vec<Op<A>>, Vec<u64>)>,
    /// Every state searched, and whether an illegal prefix follows it.
    decided: HashMap<WalkState<A>, bool>,
}

impl<A: Adt> ObjectWalk<'_, A> {
    /// Whether some consistent order of the rest makes an illegal prefix
    /// from `state`: free transactions are tried in ascending order, and the
    /// search stops at the first whose operations empty the reach-set.
    fn refutable(&mut self, state: WalkState<A>) -> bool {
        if let Some(&known) = self.decided.get(&state) {
            return known;
        }
        let found = (0..self.members.len()).any(|k| {
            let (i, _, preds) = &self.members[k];
            if has(&state.0, *i) || !within(preds, &state.0) {
                return false;
            }
            let next = self.after(&state, *i);
            next.1.is_empty() || self.refutable(next)
        });
        self.decided.insert(state, found);
        found
    }

    /// The state after transaction `i`, a member or not.
    fn after(&self, (down, reach): &WalkState<A>, i: usize) -> WalkState<A> {
        match self.members.binary_search_by_key(&i, |m| m.0) {
            Ok(k) => {
                let mut down = down.clone();
                insert(&mut down, i);
                (down, reach.advance_seq(self.adt, &self.members[k].1))
            }
            Err(_) => (down.clone(), reach.clone()),
        }
    }
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
        // 10): 9! extensions, of which the sampler tries 100.
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
        // Its exact twin: the walk visits the 2^9 downsets of the empty
        // order, not its 9! extensions.
        assert!(check_dynamic_atomic(&s, &h).is_ok());
    }

    #[test]
    fn rare_refuting_extensions_are_found() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // From 10 under a bound of 19, five concurrent `+2`s and five
        // concurrent `-2`s stay in range unless every `+2` comes before
        // every `-2`: 5!·5!/10! = 1 in 252 orders refutes.
        let s = SystemSpec::single(plain(19)).starting_from(&[(X, 10)]);
        let mut b = HistoryBuilder::new(None);
        for i in 0..10 {
            let (inv, resp) = if i < 5 { (CInv::Inc, CResp::Ok) } else { (CInv::Dec, CResp::Ok) };
            b = b.op(T(i), X, inv.clone(), resp.clone()).op(T(i), X, inv, resp);
        }
        for i in [0, 5, 1, 6, 2, 7, 3, 8, 4, 9] {
            b = b.commit(T(i), X);
        }
        let h = b.build();
        let v = check_dynamic_atomic(&s, &h).unwrap_err();
        assert_eq!(v.order, (0..10).map(T).collect::<Vec<_>>(), "the least refuting order");
        // 64 sampled orders (plus the commit order) miss it with
        // probability (251/252)^64 ≈ 0.78: on 17 of these 20 seeds.
        let misses = (0..20)
            .filter(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                check_dynamic_atomic_sampled(&s, &h, 64, &mut rng).is_ok()
            })
            .count();
        assert!(misses >= 10, "the sampler missed on {misses} of 20 seeds");
    }

    #[test]
    fn a_chain_longer_than_a_machine_word_is_decided() {
        // 130 transactions, each reading the one before it: a single
        // extension, spread over three words of every downset.
        let chain = |last: u32| {
            let mut b = HistoryBuilder::new(None);
            for i in 0..130 {
                let read = if i == 129 { last } else { i };
                b = b
                    .op(T(i), X, CInv::Read, CResp::Val(read))
                    .op(T(i), X, CInv::Inc, CResp::Ok)
                    .commit(T(i), X);
            }
            b.build()
        };
        let s = SystemSpec::single(plain(200));
        assert!(check_dynamic_atomic(&s, &chain(129)).is_ok());
        let v = check_dynamic_atomic(&s, &chain(0)).unwrap_err();
        assert_eq!(v.order, (0..130).map(T).collect::<Vec<_>>());
        assert_eq!(v.commit_set, v.order);
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
