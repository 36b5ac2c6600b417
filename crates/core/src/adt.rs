//! Abstract data types and operations.
//!
//! The paper (§3.2) models an object's *serial specification* `Spec(X)` as a
//! prefix-closed set of **operations** — pairs of an invocation and a
//! response. We generate such specifications from state machines: an [`Adt`]
//! gives a set of states and a step function mapping `(state, invocation)` to
//! the set of legal `(response, post-state)` pairs.
//!
//! * A **partial** operation is one whose step set is empty in some states
//!   (e.g. `withdraw(i)` has no `ok` response when the balance is below `i`).
//! * A **non-deterministic** operation is one whose step set has more than
//!   one element. Non-determinism can be visible in the response (e.g. a
//!   semiqueue's `deq` may return any enqueued element) or hidden in the
//!   post-state (the same `(invocation, response)` pair may lead to several
//!   states). The latter is captured by the set-of-states semantics in
//!   [`crate::spec`].
//!
//! The induced serial specification is
//! `Spec = { op sequences with a legal run from the initial state }`,
//! which is prefix-closed by construction — exactly the shape required by the
//! paper.

use std::fmt;
use std::hash::Hash;

/// What one transition produced: the `(response, post-state)` pairs of
/// [`Adt::step`], or the post-states of [`Adt::apply`].
///
/// None and one — all a deterministic invocation ever yields — are held
/// inline; only a non-deterministic invocation's second outcome spills to
/// the heap. Reads as a slice, compares with a `Vec`, iterates by value.
#[derive(Clone)]
pub struct Outcomes<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    None,
    One(T),
    /// Whatever is left of a spilled collection (any length, after
    /// [`Outcomes::remove`]).
    Many(Vec<T>),
}

impl<T> Outcomes<T> {
    /// No outcome: the invocation is not enabled (partiality).
    pub const fn none() -> Self {
        Outcomes(Repr::None)
    }

    /// The one outcome of a deterministic transition.
    pub const fn one(outcome: T) -> Self {
        Outcomes(Repr::One(outcome))
    }

    /// Append an outcome; the second one spills to a `Vec`.
    pub fn push(&mut self, outcome: T) {
        self.0 = match std::mem::replace(&mut self.0, Repr::None) {
            Repr::None => Repr::One(outcome),
            Repr::One(first) => Repr::Many(vec![first, outcome]),
            Repr::Many(mut all) => {
                all.push(outcome);
                Repr::Many(all)
            }
        };
    }

    /// Remove and return the outcome at `index`, shifting the later ones
    /// down, as [`Vec::remove`] does.
    ///
    /// # Panics
    ///
    /// If `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        match std::mem::replace(&mut self.0, Repr::None) {
            Repr::One(only) if index == 0 => only,
            Repr::Many(mut all) => {
                let removed = all.remove(index);
                self.0 = Repr::Many(all);
                removed
            }
            _ => panic!("removal index {index} is out of bounds"),
        }
    }
}

impl<T> std::ops::Deref for Outcomes<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::None => &[],
            Repr::One(only) => std::slice::from_ref(only),
            Repr::Many(all) => all,
        }
    }
}

impl<T> FromIterator<T> for Outcomes<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Outcomes::none();
        for outcome in iter {
            out.push(outcome);
        }
        out
    }
}

impl<T> IntoIterator for Outcomes<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (inline, spilled) = match self.0 {
            Repr::None => (None, Vec::new()),
            Repr::One(only) => (Some(only), Vec::new()),
            Repr::Many(all) => (None, all),
        };
        inline.into_iter().chain(spilled)
    }
}

impl<T: PartialEq> PartialEq for Outcomes<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for Outcomes<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: fmt::Debug> fmt::Debug for Outcomes<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// A state-machine presentation of a serial specification.
///
/// `Spec(X)` is the set of operation sequences that have at least one legal
/// run from [`Adt::initial`]. Implementations live in the `ccr-adt` crate;
/// the bank account of the paper's running example is
/// `ccr_adt::bank::BankAccount`.
pub trait Adt: Clone + fmt::Debug + Send + Sync + 'static {
    /// The (serial) state of the object. `Ord` is required so reach-sets can
    /// be canonicalised for memoisation; any structural order will do.
    /// `Send + Sync` lets the `ccr-runtime` crate share specifications and
    /// operations across worker threads.
    type State: Clone + Eq + Ord + Hash + fmt::Debug + Send + Sync;
    /// An invocation: operation name plus arguments (paper §2, `inv` events).
    type Invocation: Clone + Eq + Ord + Hash + fmt::Debug + Send + Sync;
    /// A response to an invocation (paper §2, `res` events).
    type Response: Clone + Eq + Ord + Hash + fmt::Debug + Send + Sync;

    /// The initial state of the object.
    fn initial(&self) -> Self::State;

    /// All legal `(response, post-state)` pairs for invoking `inv` in `state`.
    ///
    /// * empty ⇒ no operation with this invocation is enabled here
    ///   (partiality);
    /// * more than one entry ⇒ non-determinism.
    fn step(
        &self,
        state: &Self::State,
        inv: &Self::Invocation,
    ) -> Outcomes<(Self::Response, Self::State)>;

    /// Post-states of executing the *operation* `op` (invocation plus fixed
    /// response) in `state`. Empty means the operation is not legal here.
    fn apply(&self, state: &Self::State, op: &Op<Self>) -> Outcomes<Self::State> {
        self.step(state, &op.inv)
            .into_iter()
            .filter(|(resp, _)| *resp == op.resp)
            .map(|(_, post)| post)
            .collect()
    }

    /// Whether `op` is legal in `state`.
    fn enabled(&self, state: &Self::State, op: &Op<Self>) -> bool {
        self.step(state, &op.inv).iter().any(|(resp, _)| *resp == op.resp)
    }
}

/// An ADT with a finite, representative invocation alphabet.
///
/// Bounded analyses (language inclusion, commutativity tables, history
/// enumeration) quantify over this alphabet. For parameterised operations the
/// alphabet fixes a grid of parameters; experiment drivers sweep the grid and
/// check that verdicts are uniform, mirroring the parametric tables in the
/// paper's Figures 6-1 and 6-2.
pub trait EnumerableAdt: Adt {
    /// The invocation alphabet used for exploration.
    fn invocations(&self) -> Vec<Self::Invocation>;

    /// All operations in the alphabet that are legal in at least one of the
    /// given states.
    fn ops_enabled_somewhere(&self, states: &[Self::State]) -> Vec<Op<Self>> {
        let mut out = Vec::new();
        for inv in self.invocations() {
            let mut resps: Vec<Self::Response> = Vec::new();
            for s in states {
                for (resp, _) in self.step(s, &inv) {
                    if !resps.contains(&resp) {
                        resps.push(resp);
                    }
                }
            }
            resps.sort();
            for resp in resps {
                out.push(Op::new(inv.clone(), resp));
            }
        }
        out
    }
}

/// An ADT whose step relation is *operation-deterministic*: for every
/// `(state, invocation, response)` there is at most one post-state.
///
/// The response may still be non-deterministic (several responses enabled in
/// one state); what this rules out is hidden internal choice. For such ADTs
/// the reach-set of any legal operation sequence is a singleton, so the
/// state-cover commutativity engine ([`crate::commutativity`]) is exact.
/// This is a semantic contract; [`check_op_deterministic`] spot-checks it.
pub trait OpDeterministicAdt: Adt {}

/// Spot-check the [`OpDeterministicAdt`] contract on the given states: every
/// `(state, invocation)` step set must have pairwise-distinct responses.
pub fn check_op_deterministic<A: EnumerableAdt>(adt: &A, states: &[A::State]) -> bool {
    for s in states {
        for inv in adt.invocations() {
            let mut resps: Vec<A::Response> =
                adt.step(s, &inv).into_iter().map(|(r, _)| r).collect();
            let n = resps.len();
            resps.sort();
            resps.dedup();
            if resps.len() != n {
                return false;
            }
        }
    }
    true
}

/// An ADT that can produce a finite set of states sufficient for exact
/// commutativity decisions about a given set of operations.
///
/// The contract (documented per implementation with a short argument) is:
/// for the operations `ops`, if a commutativity property fails at *any*
/// reachable state then it fails at some state in `state_cover(ops)`, with a
/// distinguishing continuation over `continuations(ops)`, and every state in
/// the cover is reachable. For example, the bank account's behaviour on
/// `deposit(i)`/`withdraw(j)`/`balance` depends only on the balance relative
/// to the mentioned amounts, so balances `0 ..= Σ amounts + 1` form a cover.
pub trait StateCover: EnumerableAdt {
    /// A finite set of reachable states sufficient to decide commutativity of
    /// (sequences over) `ops`.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Self::State>;

    /// The invocations a distinguishing continuation may use when deciding
    /// commutativity of `ops` — widened per pair as [`state_cover`] widens
    /// the states, so an operation whose parameters lie outside the
    /// alphabet is still observed. Defaults to the alphabet.
    ///
    /// [`state_cover`]: StateCover::state_cover
    fn continuations(&self, _ops: &[Op<Self>]) -> Vec<Self::Invocation> {
        self.invocations()
    }

    /// A legal operation sequence leading from the initial state to `state`
    /// (used to turn state-level counterexample witnesses into the concrete
    /// histories of the paper's Theorem 9/10 constructions).
    fn reach_sequence(&self, state: &Self::State) -> Option<Vec<Op<Self>>>;
}

/// An operation in the paper's formal sense: an invocation paired with the
/// response it returned, e.g. `BA:[withdraw(3), ok]`.
///
/// Conflict relations and commutativity are defined on these pairs, so a lock
/// may depend on an operation's *result* as well as its name and arguments —
/// one of the generalisations the paper emphasises.
pub struct Op<A: Adt> {
    /// The invocation (name and arguments).
    pub inv: A::Invocation,
    /// The response.
    pub resp: A::Response,
}

impl<A: Adt> Op<A> {
    /// Create an operation from its invocation and response.
    pub fn new(inv: A::Invocation, resp: A::Response) -> Self {
        Op { inv, resp }
    }
}

// Manual impls: derives would (incorrectly) bound `A` itself.
impl<A: Adt> Clone for Op<A> {
    fn clone(&self) -> Self {
        Op { inv: self.inv.clone(), resp: self.resp.clone() }
    }
}
impl<A: Adt> PartialEq for Op<A> {
    fn eq(&self, other: &Self) -> bool {
        self.inv == other.inv && self.resp == other.resp
    }
}
impl<A: Adt> Eq for Op<A> {}
impl<A: Adt> PartialOrd for Op<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Adt> Ord for Op<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.inv, &self.resp).cmp(&(&other.inv, &other.resp))
    }
}
impl<A: Adt> Hash for Op<A> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inv.hash(state);
        self.resp.hash(state);
    }
}
impl<A: Adt> fmt::Debug for Op<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?},{:?}]", self.inv, self.resp)
    }
}

#[cfg(test)]
pub(crate) mod test_adt {
    //! A tiny in-crate ADT used by the core unit tests: a bounded counter
    //! with `Inc`, `Dec` (partial at 0) and `Read`, plus an op-nondeterministic
    //! `Chaos` variant used to exercise set-of-states semantics.

    use super::*;

    /// Bounded counter over `0..=max`. `Inc` saturates to partial at `max`.
    #[derive(Clone, Debug)]
    pub struct MiniCounter {
        pub max: u32,
        /// When true, `Inc` non-deterministically bumps by 1 *or* 2 while
        /// responding `Ok` either way (hidden internal choice).
        pub chaotic: bool,
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub enum CInv {
        Inc,
        Dec,
        Read,
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub enum CResp {
        Ok,
        No,
        Val(u32),
    }

    impl Adt for MiniCounter {
        type State = u32;
        type Invocation = CInv;
        type Response = CResp;

        fn initial(&self) -> u32 {
            0
        }

        fn step(&self, s: &u32, inv: &CInv) -> Outcomes<(CResp, u32)> {
            match inv {
                CInv::Inc => {
                    let mut out = Outcomes::none();
                    if *s < self.max {
                        out.push((CResp::Ok, s + 1));
                    }
                    if self.chaotic && s + 2 <= self.max {
                        out.push((CResp::Ok, s + 2));
                    }
                    out
                }
                CInv::Dec => {
                    if *s > 0 {
                        Outcomes::one((CResp::Ok, s - 1))
                    } else {
                        Outcomes::one((CResp::No, *s))
                    }
                }
                CInv::Read => Outcomes::one((CResp::Val(*s), *s)),
            }
        }
    }

    impl EnumerableAdt for MiniCounter {
        fn invocations(&self) -> Vec<CInv> {
            vec![CInv::Inc, CInv::Dec, CInv::Read]
        }
    }

    impl StateCover for MiniCounter {
        fn state_cover(&self, _ops: &[Op<Self>]) -> Vec<u32> {
            (0..=self.max).collect()
        }

        fn reach_sequence(&self, state: &u32) -> Option<Vec<Op<Self>>> {
            if *state > self.max {
                return None;
            }
            Some((0..*state).map(|_| Op::new(CInv::Inc, CResp::Ok)).collect())
        }
    }

    pub fn plain(max: u32) -> MiniCounter {
        MiniCounter { max, chaotic: false }
    }

    pub fn chaotic(max: u32) -> MiniCounter {
        MiniCounter { max, chaotic: true }
    }
}

#[cfg(test)]
mod tests {
    use super::test_adt::*;
    use super::*;

    #[test]
    fn outcomes_hold_none_one_and_many() {
        let none: Outcomes<u32> = Outcomes::none();
        assert!(none.is_empty());
        assert_eq!(none, Vec::new());
        assert_eq!(none.into_iter().next(), None);

        let one = Outcomes::one(7);
        assert_eq!((one.len(), one[0]), (1, 7));
        assert_eq!(one, vec![7]);
        assert_ne!(one, vec![7, 7]);
        assert_eq!(one.clone().into_iter().collect::<Vec<_>>(), [7]);
        assert_eq!(format!("{one:?}"), "[7]");

        let many: Outcomes<u32> = (1..=3).collect();
        assert_eq!(many, vec![1, 2, 3]);
        assert!(many.contains(&2) && !many.contains(&7));
        assert_eq!(many.iter().sum::<u32>(), 6);
        assert_eq!(many.into_iter().collect::<Vec<_>>(), [1, 2, 3]);
        // Collecting is how `apply` filters: nothing and one stay inline.
        assert_eq!((0..0).collect::<Outcomes<u32>>(), Outcomes::none());
        assert_eq!((7..8).collect::<Outcomes<u32>>(), one);
    }

    #[test]
    fn outcomes_remove_shifts_like_a_vec() {
        let mut one = Outcomes::one('a');
        assert_eq!(one.remove(0), 'a');
        assert!(one.is_empty());

        let mut many: Outcomes<char> = "abc".chars().collect();
        assert_eq!(many.remove(1), 'b');
        assert_eq!(many, vec!['a', 'c']);
        assert_eq!(many.remove(0), 'a');
        // A spilled collection that shrank still compares by contents.
        assert_eq!(many, Outcomes::one('c'));
        many.push('d');
        assert_eq!(many, vec!['c', 'd']);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn outcomes_remove_past_the_end_panics() {
        Outcomes::one(1).remove(1);
    }

    #[test]
    fn step_models_partiality() {
        let c = plain(3);
        assert_eq!(c.step(&0, &CInv::Dec), vec![(CResp::No, 0)]);
        assert_eq!(c.step(&3, &CInv::Inc), vec![]);
        assert_eq!(c.step(&1, &CInv::Inc), vec![(CResp::Ok, 2)]);
    }

    #[test]
    fn apply_filters_by_response() {
        let c = plain(3);
        let inc = Op::<MiniCounter>::new(CInv::Inc, CResp::Ok);
        assert_eq!(c.apply(&0, &inc), vec![1]);
        assert_eq!(c.apply(&3, &inc), Vec::<u32>::new());
        let read0 = Op::<MiniCounter>::new(CInv::Read, CResp::Val(0));
        assert!(c.enabled(&0, &read0));
        assert!(!c.enabled(&1, &read0));
    }

    #[test]
    fn chaotic_inc_has_two_post_states() {
        let c = chaotic(5);
        let inc = Op::<MiniCounter>::new(CInv::Inc, CResp::Ok);
        assert_eq!(c.apply(&0, &inc), vec![1, 2]);
    }

    #[test]
    fn op_determinism_check() {
        let states: Vec<u32> = (0..=5).collect();
        assert!(check_op_deterministic(&plain(5), &states));
        assert!(!check_op_deterministic(&chaotic(5), &states));
    }

    #[test]
    fn ops_enabled_somewhere_collects_distinct_operations() {
        let c = plain(2);
        let ops = c.ops_enabled_somewhere(&[0, 1]);
        // Inc/Ok, Dec/Ok, Dec/No, Read/0, Read/1
        assert_eq!(ops.len(), 5);
        assert!(ops.contains(&Op::new(CInv::Dec, CResp::No)));
        assert!(ops.contains(&Op::new(CInv::Read, CResp::Val(1))));
    }

    #[test]
    fn op_equality_and_ordering() {
        let a = Op::<MiniCounter>::new(CInv::Inc, CResp::Ok);
        let b = Op::<MiniCounter>::new(CInv::Inc, CResp::Ok);
        let c = Op::<MiniCounter>::new(CInv::Dec, CResp::Ok);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut v = [c.clone(), a.clone()];
        v.sort();
        // CInv declares Inc before Dec, so Inc sorts first.
        assert_eq!(v[0], a);
    }

    #[test]
    fn reach_sequence_reaches_state() {
        let c = plain(4);
        let seq = c.reach_sequence(&3).unwrap();
        assert_eq!(seq.len(), 3);
    }
}
