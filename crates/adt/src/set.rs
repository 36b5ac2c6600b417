//! A finite set of small integers with result-bearing operations.
//!
//! * `[insert(x), added]` / `[insert(x), present]`
//! * `[remove(x), removed]` / `[remove(x), absent]`
//! * `[contains(x), true]` / `[contains(x), false]`
//!
//! Operations on *different* elements always commute (both forward and
//! backward); operations on the same element reduce to a one-bit sub-state,
//! giving a 6×6 kind table per element. This is the standard example of
//! type-specific locking beating read/write locks: concurrent inserts of
//! different elements never conflict.

use std::collections::BTreeSet;

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::{InvertibleAdt, RwClassify};

/// Set elements.
pub type Elem = u8;

/// The set specification. `elems` is the alphabet for bounded analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntSet {
    /// Elements used by the bounded-analysis alphabet.
    pub elems: Vec<Elem>,
}

impl Default for IntSet {
    fn default() -> Self {
        IntSet { elems: vec![0, 1] }
    }
}

/// Set invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SetInv {
    /// Insert an element.
    Insert(Elem),
    /// Remove an element.
    Remove(Elem),
    /// Membership test.
    Contains(Elem),
}

/// Set responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SetResp {
    /// The element was inserted (was absent).
    Added,
    /// The element was already present.
    Present,
    /// The element was removed (was present).
    Removed,
    /// The element was not present.
    Absent,
    /// Membership result.
    Is(bool),
}

impl Adt for IntSet {
    type State = BTreeSet<Elem>;
    type Invocation = SetInv;
    type Response = SetResp;

    fn initial(&self) -> BTreeSet<Elem> {
        BTreeSet::new()
    }

    fn step(&self, s: &BTreeSet<Elem>, inv: &SetInv) -> Outcomes<(SetResp, BTreeSet<Elem>)> {
        match inv {
            SetInv::Insert(x) => {
                if s.contains(x) {
                    Outcomes::one((SetResp::Present, s.clone()))
                } else {
                    let mut s2 = s.clone();
                    s2.insert(*x);
                    Outcomes::one((SetResp::Added, s2))
                }
            }
            SetInv::Remove(x) => {
                if s.contains(x) {
                    let mut s2 = s.clone();
                    s2.remove(x);
                    Outcomes::one((SetResp::Removed, s2))
                } else {
                    Outcomes::one((SetResp::Absent, s.clone()))
                }
            }
            SetInv::Contains(x) => Outcomes::one((SetResp::Is(s.contains(x)), s.clone())),
        }
    }
}

impl OpDeterministicAdt for IntSet {}

impl EnumerableAdt for IntSet {
    fn invocations(&self) -> Vec<SetInv> {
        let mut out = Vec::with_capacity(3 * self.elems.len());
        for &x in &self.elems {
            out.push(SetInv::Insert(x));
            out.push(SetInv::Remove(x));
            out.push(SetInv::Contains(x));
        }
        out
    }
}

impl StateCover for IntSet {
    /// Cover argument: operation behaviour depends only on membership of the
    /// elements mentioned by the operations and the alphabet, so the powerset
    /// of those elements covers every behavioural class; every subset is
    /// reachable by inserts.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<BTreeSet<Elem>> {
        let mentioned: Vec<Elem> = ops
            .iter()
            .map(|op| match &op.inv {
                SetInv::Insert(x) | SetInv::Remove(x) | SetInv::Contains(x) => *x,
            })
            .collect();
        let elems = crate::cover_values(&mentioned, self.elems.clone(), 12); // powerset guard
        let mut out = Vec::with_capacity(1 << elems.len());
        for mask in 0u32..(1 << elems.len()) {
            let mut s = BTreeSet::new();
            for (i, &x) in elems.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(x);
                }
            }
            out.push(s);
        }
        out
    }

    fn reach_sequence(&self, state: &BTreeSet<Elem>) -> Option<Vec<Op<Self>>> {
        Some(state.iter().map(|&x| Op::new(SetInv::Insert(x), SetResp::Added)).collect())
    }
}

impl InvertibleAdt for IntSet {
    fn undo(&self, state: &BTreeSet<Elem>, op: &Op<Self>) -> Option<BTreeSet<Elem>> {
        match (&op.inv, &op.resp) {
            (SetInv::Insert(x), SetResp::Added) => {
                let mut s = state.clone();
                s.remove(x).then_some(s)
            }
            (SetInv::Remove(x), SetResp::Removed) => {
                let mut s = state.clone();
                s.insert(*x).then_some(s)
            }
            (SetInv::Insert(_), SetResp::Present)
            | (SetInv::Remove(_), SetResp::Absent)
            | (SetInv::Contains(_), SetResp::Is(_)) => Some(state.clone()),
            _ => None,
        }
    }
}

impl RwClassify for IntSet {
    fn is_write(&self, inv: &SetInv) -> bool {
        !matches!(inv, SetInv::Contains(_))
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[insert(x), added]`
    pub fn insert_added(x: Elem) -> Op<IntSet> {
        Op::new(SetInv::Insert(x), SetResp::Added)
    }
    /// `[insert(x), present]`
    pub fn insert_present(x: Elem) -> Op<IntSet> {
        Op::new(SetInv::Insert(x), SetResp::Present)
    }
    /// `[remove(x), removed]`
    pub fn remove_removed(x: Elem) -> Op<IntSet> {
        Op::new(SetInv::Remove(x), SetResp::Removed)
    }
    /// `[remove(x), absent]`
    pub fn remove_absent(x: Elem) -> Op<IntSet> {
        Op::new(SetInv::Remove(x), SetResp::Absent)
    }
    /// `[contains(x), b]`
    pub fn contains(x: Elem, b: bool) -> Op<IntSet> {
        Op::new(SetInv::Contains(x), SetResp::Is(b))
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::spec::legal;

    #[test]
    fn result_bearing_semantics() {
        let s = IntSet::default();
        assert!(legal(
            &s,
            &[
                insert_added(1),
                insert_present(1),
                contains(1, true),
                remove_removed(1),
                remove_absent(1),
                contains(1, false),
            ]
        ));
        assert!(!legal(&s, &[insert_added(1), insert_added(1)]));
        assert!(!legal(&s, &[remove_removed(1)]));
    }

    #[test]
    fn cross_element_independence() {
        use ccr_core::conflict::{Conflict, Derived};
        let nfc = Derived::nfc("set", IntSet::default());
        let nrbc = Derived::nrbc("set", IntSet::default());
        assert!(!nfc.conflicts(&insert_added(0), &insert_added(1)));
        assert!(!nrbc.conflicts(&insert_added(0), &remove_removed(1)));
        assert!(nfc.conflicts(&insert_added(0), &insert_added(0)));
    }

    #[test]
    fn undo_set_operations() {
        let s = IntSet::default();
        let st: BTreeSet<Elem> = [1, 2].into_iter().collect();
        assert_eq!(s.undo(&st, &insert_added(2)), Some([1].into_iter().collect()));
        assert_eq!(s.undo(&st, &remove_removed(3)), Some([1, 2, 3].into_iter().collect()));
        assert_eq!(s.undo(&st, &insert_added(3)), None, "3 is not present");
    }

    #[test]
    fn cover_is_powerset() {
        let s = IntSet { elems: vec![0, 1, 2] };
        let cover = s.state_cover(&[]);
        assert_eq!(cover.len(), 8);
    }
}
