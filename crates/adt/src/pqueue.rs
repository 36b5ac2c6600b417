//! A min-priority queue: `[insert(v), ok]`, `[extract_min, got(v)]`,
//! `[extract_min, empty]`.
//!
//! An instructive middle point between the FIFO queue and the semiqueue:
//! like the semiqueue, *inserts always commute* (the state is a multiset —
//! arrival order is unobservable); like the queue, extractions are ordered —
//! but by **value**, which makes the insert/extract conflicts
//! value-dependent: an insert of `w` disturbs an extraction of `v` only if
//! `w < v` (it would have become the minimum).

use std::collections::BTreeMap;

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::{InvertibleAdt, RwClassify};

/// Priority values (smaller = higher priority).
pub type Prio = u8;

/// Multiset state: value → count.
pub type Heap = BTreeMap<Prio, u32>;

/// The min-priority-queue specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PQueue {
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Prio>,
}

impl Default for PQueue {
    fn default() -> Self {
        PQueue { values: vec![0, 1, 2] }
    }
}

/// Priority-queue invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PqInv {
    /// Insert a value.
    Insert(Prio),
    /// Remove and return the minimum.
    ExtractMin,
}

/// Priority-queue responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PqResp {
    /// Insert succeeded.
    Ok,
    /// The extracted minimum.
    Got(Prio),
    /// The queue was empty.
    Empty,
}

impl Adt for PQueue {
    type State = Heap;
    type Invocation = PqInv;
    type Response = PqResp;

    fn initial(&self) -> Heap {
        Heap::new()
    }

    fn step(&self, s: &Heap, inv: &PqInv) -> Outcomes<(PqResp, Heap)> {
        match inv {
            PqInv::Insert(v) => {
                let mut s2 = s.clone();
                *s2.entry(*v).or_insert(0) += 1;
                Outcomes::one((PqResp::Ok, s2))
            }
            PqInv::ExtractMin => match s.keys().next().copied() {
                Some(min) => {
                    let mut s2 = s.clone();
                    match s2.get_mut(&min) {
                        Some(c) if *c > 1 => *c -= 1,
                        _ => {
                            s2.remove(&min);
                        }
                    }
                    Outcomes::one((PqResp::Got(min), s2))
                }
                None => Outcomes::one((PqResp::Empty, Heap::new())),
            },
        }
    }
}

impl OpDeterministicAdt for PQueue {}

impl EnumerableAdt for PQueue {
    fn invocations(&self) -> Vec<PqInv> {
        let mut out: Vec<PqInv> = self.values.iter().map(|&v| PqInv::Insert(v)).collect();
        out.push(PqInv::ExtractMin);
        out
    }
}

impl StateCover for PQueue {
    /// Cover argument: pairwise behaviour depends only on the counts (up to
    /// 2) of values mentioned by the operations/alphabet and on which of
    /// them is the minimum; multisets with counts ≤ 2 over the mentioned
    /// values plus one smaller and one larger fresh value cover every class.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Heap> {
        let mut mentioned = Vec::new();
        for op in ops {
            if let PqInv::Insert(v) = &op.inv {
                mentioned.push(*v);
            }
            if let PqResp::Got(v) = &op.resp {
                mentioned.push(*v);
            }
        }
        // A fresh value below and above the mentioned range, when available.
        let range = || mentioned.iter().chain(&self.values);
        let lo = range().min().and_then(|lo| lo.checked_sub(1));
        let hi = range().max().and_then(|hi| hi.checked_add(1));
        let fillers = lo.into_iter().chain(hi).chain(self.values.clone());
        let vals = crate::cover_values(&mentioned, fillers, 4);
        let mut out: Vec<Heap> = vec![Heap::new()];
        for &v in &vals {
            let mut next = Vec::new();
            for h in &out {
                for count in 0..=2u32 {
                    let mut h2 = h.clone();
                    if count > 0 {
                        h2.insert(v, count);
                    }
                    next.push(h2);
                }
            }
            out = next;
        }
        out
    }

    fn reach_sequence(&self, state: &Heap) -> Option<Vec<Op<Self>>> {
        let mut out = Vec::new();
        for (&v, &c) in state {
            for _ in 0..c {
                out.push(Op::new(PqInv::Insert(v), PqResp::Ok));
            }
        }
        Some(out)
    }
}

impl InvertibleAdt for PQueue {
    fn undo(&self, state: &Heap, op: &Op<Self>) -> Option<Heap> {
        match (&op.inv, &op.resp) {
            (PqInv::Insert(v), PqResp::Ok) => {
                let mut s = state.clone();
                match s.get_mut(v) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        s.remove(v);
                    }
                    None => return None,
                }
                Some(s)
            }
            (PqInv::ExtractMin, PqResp::Got(v)) => {
                // Re-inserting the extracted value is only a true inverse if
                // it stays consistent with later extractions; under NRBC
                // locking it does (a smaller concurrent extraction would
                // have conflicted).
                let mut s = state.clone();
                *s.entry(*v).or_insert(0) += 1;
                Some(s)
            }
            (PqInv::ExtractMin, PqResp::Empty) => Some(state.clone()),
            _ => None,
        }
    }
}

impl RwClassify for PQueue {
    fn is_write(&self, _inv: &PqInv) -> bool {
        true
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[insert(v), ok]`
    pub fn insert(v: Prio) -> Op<PQueue> {
        Op::new(PqInv::Insert(v), PqResp::Ok)
    }
    /// `[extract_min, got(v)]`
    pub fn extract_got(v: Prio) -> Op<PQueue> {
        Op::new(PqInv::ExtractMin, PqResp::Got(v))
    }
    /// `[extract_min, empty]`
    pub fn extract_empty() -> Op<PQueue> {
        Op::new(PqInv::ExtractMin, PqResp::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn extraction_is_value_ordered() {
        let pq = PQueue::default();
        assert!(legal(
            &pq,
            &[insert(2), insert(0), insert(1), extract_got(0), extract_got(1), extract_got(2)]
        ));
        assert!(!legal(&pq, &[insert(2), insert(0), extract_got(2)]));
        assert!(legal(&pq, &[extract_empty(), insert(1), extract_got(1), extract_empty()]));
    }

    #[test]
    fn insert_conflicts_are_value_dependent() {
        let nfc = Derived::nfc("pqueue", PQueue::default());
        // Inserting above the extracted minimum does not disturb it…
        assert!(!nfc.conflicts(&insert(2), &extract_got(1)));
        // …inserting below it does.
        assert!(nfc.conflicts(&insert(0), &extract_got(1)));
        // Inserts always commute with each other.
        assert!(!nfc.conflicts(&insert(0), &insert(2)));
    }

    #[test]
    fn undo_restores_heap() {
        let pq = PQueue::default();
        let h: Heap = [(1, 1), (2, 1)].into_iter().collect();
        assert_eq!(
            pq.undo(&h, &extract_got(0)),
            Some([(0, 1), (1, 1), (2, 1)].into_iter().collect())
        );
        assert_eq!(pq.undo(&h, &insert(1)), Some([(2, 1)].into_iter().collect()));
    }
}
