//! An unbounded FIFO queue: `[enq(v), ok]`, `[deq, got(v)]`, `[deq, empty]`.
//!
//! Queues are the classic example of an ADT that admits *little*
//! commutativity-based concurrency: enqueues of different values do not
//! commute (order is observable), and dequeues conflict with each other.
//! One asymmetric subtlety survives: an enqueue right commutes backward with
//! a dequeue-of-a-value, so under update-in-place recovery a producer never
//! waits for a concurrent consumer — compare [`crate::semiqueue`], where
//! giving up FIFO order buys far more concurrency.

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::RwClassify;

/// Queue values.
pub type Val = u8;

/// The FIFO queue specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FifoQueue {
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Val>,
}

impl Default for FifoQueue {
    fn default() -> Self {
        FifoQueue { values: vec![0, 1] }
    }
}

/// Queue invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueueInv {
    /// Enqueue at the tail.
    Enq(Val),
    /// Dequeue from the head.
    Deq,
}

/// Queue responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueueResp {
    /// Enqueue succeeded.
    Ok,
    /// The dequeued value.
    Got(Val),
    /// The queue was empty.
    Empty,
}

/// Queue state — a `VecDeque` wrapped for `Ord`.
pub type QueueState = Vec<Val>;

impl Adt for FifoQueue {
    type State = QueueState;
    type Invocation = QueueInv;
    type Response = QueueResp;

    fn initial(&self) -> QueueState {
        Vec::new()
    }

    fn step(&self, s: &QueueState, inv: &QueueInv) -> Outcomes<(QueueResp, QueueState)> {
        match inv {
            QueueInv::Enq(v) => {
                let mut s2 = s.clone();
                s2.push(*v);
                Outcomes::one((QueueResp::Ok, s2))
            }
            QueueInv::Deq => match s.split_first() {
                Some((&head, rest)) => Outcomes::one((QueueResp::Got(head), rest.to_vec())),
                None => Outcomes::one((QueueResp::Empty, Vec::new())),
            },
        }
    }
}

impl OpDeterministicAdt for FifoQueue {}

impl EnumerableAdt for FifoQueue {
    fn invocations(&self) -> Vec<QueueInv> {
        let mut out: Vec<QueueInv> = self.values.iter().map(|&v| QueueInv::Enq(v)).collect();
        out.push(QueueInv::Deq);
        out
    }
}

impl StateCover for FifoQueue {
    /// Cover argument: the pairwise behaviour of two operations (plus the
    /// equieffectiveness continuations) is determined by the first few and
    /// last few elements of the queue; all queues of length ≤ 3 over the
    /// mentioned values (plus one fresh separator value) distinguish every
    /// case that any longer queue would.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<QueueState> {
        let mut mentioned = Vec::new();
        for op in ops {
            if let QueueInv::Enq(v) = &op.inv {
                mentioned.push(*v);
            }
            if let QueueResp::Got(v) = &op.resp {
                mentioned.push(*v);
            }
        }
        let fresh = (0..=Val::MAX).find(|v| !mentioned.contains(v) && !self.values.contains(v));
        let vals = crate::cover_values(&mentioned, fresh.into_iter().chain(self.values.clone()), 4);
        let mut out: Vec<QueueState> = vec![Vec::new()];
        let mut layer: Vec<QueueState> = vec![Vec::new()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for q in &layer {
                for &v in &vals {
                    let mut q2 = q.clone();
                    q2.push(v);
                    next.push(q2);
                }
            }
            out.extend(next.iter().cloned());
            layer = next;
        }
        out
    }

    fn reach_sequence(&self, state: &QueueState) -> Option<Vec<Op<Self>>> {
        Some(state.iter().map(|&v| Op::new(QueueInv::Enq(v), QueueResp::Ok)).collect())
    }
}

impl RwClassify for FifoQueue {
    fn is_write(&self, _inv: &QueueInv) -> bool {
        true // both operations mutate (deq) or may mutate (enq) the queue
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[enq(v), ok]`
    pub fn enq(v: Val) -> Op<FifoQueue> {
        Op::new(QueueInv::Enq(v), QueueResp::Ok)
    }
    /// `[deq, got(v)]`
    pub fn deq_got(v: Val) -> Op<FifoQueue> {
        Op::new(QueueInv::Deq, QueueResp::Got(v))
    }
    /// `[deq, empty]`
    pub fn deq_empty() -> Op<FifoQueue> {
        Op::new(QueueInv::Deq, QueueResp::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn fifo_order_is_observable() {
        let q = FifoQueue::default();
        assert!(legal(&q, &[enq(1), enq(2), deq_got(1), deq_got(2), deq_empty()]));
        assert!(!legal(&q, &[enq(1), enq(2), deq_got(2)]));
        assert!(!legal(&q, &[deq_got(0)]));
    }

    #[test]
    fn producers_push_back_past_consumers_but_not_conversely() {
        let nrbc = Derived::nrbc("queue", FifoQueue::default());
        assert!(!nrbc.conflicts(&enq(1), &deq_got(0)));
        assert!(nrbc.conflicts(&deq_got(1), &enq(1)));
        assert!(!nrbc.conflicts(&deq_got(1), &enq(0)));
    }

    #[test]
    fn same_value_enqueues_commute() {
        let nfc = Derived::nfc("queue", FifoQueue::default());
        assert!(!nfc.conflicts(&enq(1), &enq(1)));
        assert!(nfc.conflicts(&enq(1), &enq(2)));
    }
}
