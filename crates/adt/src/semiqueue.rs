//! A *semiqueue* — an unordered buffer with a non-deterministic `deq`
//! (Weihl's classic example of using non-determinism in a specification to
//! buy concurrency; the paper's framework covers such types explicitly).
//!
//! * `[enq(v), ok]` — adds `v` to the multiset;
//! * `[deq, got(v)]` — removes **some** present `v` (any one: the choice is
//!   not constrained by the specification);
//! * `[deq, empty]` — enabled iff the buffer is empty.
//!
//! Compared with the FIFO queue: enqueues always commute forward (the
//! multiset is order-blind), and dequeues of the same value right-commute
//! backward, so under update-in-place recovery concurrent consumers never
//! conflict with each other. Giving up ordering buys almost all the
//! concurrency the queue lost.

use std::collections::BTreeMap;

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::{InvertibleAdt, RwClassify};

/// Buffer values.
pub type Val = u8;

/// Multiset state: value → count (no zero counts stored).
pub type Bag = BTreeMap<Val, u32>;

/// The semiqueue specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Semiqueue {
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Val>,
}

impl Default for Semiqueue {
    fn default() -> Self {
        Semiqueue { values: vec![0, 1] }
    }
}

/// Semiqueue invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SqInv {
    /// Add a value.
    Enq(Val),
    /// Remove an arbitrary present value.
    Deq,
}

/// Semiqueue responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SqResp {
    /// Enqueue succeeded.
    Ok,
    /// The removed value.
    Got(Val),
    /// The buffer was empty.
    Empty,
}

impl Adt for Semiqueue {
    type State = Bag;
    type Invocation = SqInv;
    type Response = SqResp;

    fn initial(&self) -> Bag {
        Bag::new()
    }

    fn step(&self, s: &Bag, inv: &SqInv) -> Outcomes<(SqResp, Bag)> {
        match inv {
            SqInv::Enq(v) => {
                let mut s2 = s.clone();
                *s2.entry(*v).or_insert(0) += 1;
                Outcomes::one((SqResp::Ok, s2))
            }
            SqInv::Deq => {
                if s.is_empty() {
                    return Outcomes::one((SqResp::Empty, Bag::new()));
                }
                // One transition per removable value: response
                // non-determinism, visible in the result.
                s.keys()
                    .map(|&v| {
                        let mut s2 = s.clone();
                        match s2.get_mut(&v) {
                            Some(c) if *c > 1 => *c -= 1,
                            _ => {
                                s2.remove(&v);
                            }
                        }
                        (SqResp::Got(v), s2)
                    })
                    .collect()
            }
        }
    }
}

// Each (state, Deq, Got(v)) has exactly one post-state, so the semiqueue is
// operation-deterministic despite the non-deterministic response.
impl OpDeterministicAdt for Semiqueue {}

impl EnumerableAdt for Semiqueue {
    fn invocations(&self) -> Vec<SqInv> {
        let mut out: Vec<SqInv> = self.values.iter().map(|&v| SqInv::Enq(v)).collect();
        out.push(SqInv::Deq);
        out
    }
}

impl StateCover for Semiqueue {
    /// Cover argument: pairwise behaviour depends only on the counts of the
    /// mentioned values up to 2 (enabledness needs ≥1, sequencing two
    /// removals needs ≥2) and on emptiness; bags with counts ≤ 2 over the
    /// mentioned values cover every class.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Bag> {
        let mut mentioned = Vec::new();
        for op in ops {
            if let SqInv::Enq(v) = &op.inv {
                mentioned.push(*v);
            }
            if let SqResp::Got(v) = &op.resp {
                mentioned.push(*v);
            }
        }
        let vals = crate::cover_values(&mentioned, self.values.clone(), 4);
        let mut out: Vec<Bag> = vec![Bag::new()];
        for &v in &vals {
            let mut next = Vec::new();
            for bag in &out {
                for count in 0..=2u32 {
                    let mut b2 = bag.clone();
                    if count > 0 {
                        b2.insert(v, count);
                    }
                    next.push(b2);
                }
            }
            out = next;
        }
        out
    }

    fn reach_sequence(&self, state: &Bag) -> Option<Vec<Op<Self>>> {
        let mut out = Vec::new();
        for (&v, &c) in state {
            for _ in 0..c {
                out.push(Op::new(SqInv::Enq(v), SqResp::Ok));
            }
        }
        Some(out)
    }
}

impl InvertibleAdt for Semiqueue {
    fn undo(&self, state: &Bag, op: &Op<Self>) -> Option<Bag> {
        match (&op.inv, &op.resp) {
            (SqInv::Enq(v), SqResp::Ok) => {
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
            (SqInv::Deq, SqResp::Got(v)) => {
                let mut s = state.clone();
                *s.entry(*v).or_insert(0) += 1;
                Some(s)
            }
            (SqInv::Deq, SqResp::Empty) => Some(state.clone()),
            _ => None,
        }
    }
}

impl RwClassify for Semiqueue {
    fn is_write(&self, _inv: &SqInv) -> bool {
        true
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[enq(v), ok]`
    pub fn enq(v: Val) -> Op<Semiqueue> {
        Op::new(SqInv::Enq(v), SqResp::Ok)
    }
    /// `[deq, got(v)]`
    pub fn deq_got(v: Val) -> Op<Semiqueue> {
        Op::new(SqInv::Deq, SqResp::Got(v))
    }
    /// `[deq, empty]`
    pub fn deq_empty() -> Op<Semiqueue> {
        Op::new(SqInv::Deq, SqResp::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn any_present_value_may_be_dequeued() {
        let s = Semiqueue::default();
        assert!(legal(&s, &[enq(1), enq(2), deq_got(2), deq_got(1), deq_empty()]));
        assert!(legal(&s, &[enq(1), enq(2), deq_got(1), deq_got(2)]));
        assert!(!legal(&s, &[enq(1), deq_got(2)]));
        assert!(!legal(&s, &[enq(1), deq_got(1), deq_got(1)]));
    }

    #[test]
    fn consumers_do_not_conflict_under_uip() {
        let nrbc = Derived::nrbc("semiqueue", Semiqueue::default());
        assert!(!nrbc.conflicts(&deq_got(1), &deq_got(1)));
        assert!(!nrbc.conflicts(&deq_got(1), &deq_got(2)));
        // …but DU still needs same-value consumers to conflict.
        let nfc = Derived::nfc("semiqueue", Semiqueue::default());
        assert!(nfc.conflicts(&deq_got(1), &deq_got(1)));
    }

    #[test]
    fn producers_always_commute() {
        let nfc = Derived::nfc("semiqueue", Semiqueue::default());
        assert!(!nfc.conflicts(&enq(1), &enq(2)), "unlike the FIFO queue");
    }

    #[test]
    fn undo_restores_counts() {
        let s = Semiqueue::default();
        let bag: Bag = [(1, 2)].into_iter().collect();
        assert_eq!(s.undo(&bag, &enq(1)), Some([(1, 1)].into_iter().collect()));
        assert_eq!(s.undo(&bag, &deq_got(2)), Some([(1, 2), (2, 1)].into_iter().collect()));
        assert_eq!(s.undo(&Bag::new(), &enq(1)), None);
    }
}
