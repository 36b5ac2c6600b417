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
use ccr_core::conflict::FnConflict;

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
        let mut vals = self.values.clone();
        for op in ops {
            if let QueueInv::Enq(v) = &op.inv {
                vals.push(*v);
            }
            if let QueueResp::Got(v) = &op.resp {
                vals.push(*v);
            }
        }
        let fresh = (0..=Val::MAX).find(|v| !vals.contains(v));
        if let Some(f) = fresh {
            vals.push(f);
        }
        vals.sort_unstable();
        vals.dedup();
        let vals: Vec<Val> = vals.into_iter().take(4).collect();
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kq {
    Enq(Val),
    Got(Val),
    Empty,
}

fn classify(op: &Op<FifoQueue>) -> Option<Kq> {
    match (&op.inv, &op.resp) {
        (QueueInv::Enq(v), QueueResp::Ok) => Some(Kq::Enq(*v)),
        (QueueInv::Deq, QueueResp::Got(v)) => Some(Kq::Got(*v)),
        (QueueInv::Deq, QueueResp::Empty) => Some(Kq::Empty),
        _ => None,
    }
}

/// Hand-written NFC for the FIFO queue:
/// enq/enq conflict iff values differ; got/got conflict iff values are
/// equal (different values are never both at the head); enq conflicts with
/// deq-empty in both directions.
pub fn queue_nfc() -> FnConflict<FifoQueue> {
    FnConflict::new("queue-NFC", |p, q| {
        let (Some(p), Some(q)) = (classify(p), classify(q)) else {
            return true;
        };
        use Kq::*;
        match (p, q) {
            (Enq(a), Enq(b)) => a != b,
            (Got(a), Got(b)) => a == b,
            (Enq(_), Empty) | (Empty, Enq(_)) => true,
            _ => false,
        }
    })
}

/// Hand-written NRBC for the FIFO queue. The asymmetries:
///
/// * `(enq, got)` never conflicts — a producer can always be pushed back
///   before a consumer — while `(got v, enq v)` conflicts (the consumed
///   value may be the one just produced);
/// * `(deq-empty, got)` conflicts, `(got, deq-empty)` is vacuous;
/// * `(deq-empty, enq)` is vacuous while `(enq, deq-empty)` conflicts.
pub fn queue_nrbc() -> FnConflict<FifoQueue> {
    FnConflict::new("queue-NRBC", |p, q| {
        let (Some(p), Some(q)) = (classify(p), classify(q)) else {
            return true;
        };
        use Kq::*;
        match (p, q) {
            (Enq(a), Enq(b)) => a != b,
            (Got(a), Got(b)) => a != b,
            (Got(a), Enq(b)) => a == b,
            (Enq(_), Got(_)) => false,
            (Enq(_), Empty) => true,
            (Empty, Got(_)) => true,
            (Empty, Enq(_)) | (Got(_), Empty) | (Empty, Empty) => false,
        }
    })
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
    use ccr_core::conflict::Conflict;
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
        let nrbc = queue_nrbc();
        assert!(!nrbc.conflicts(&enq(1), &deq_got(0)));
        assert!(nrbc.conflicts(&deq_got(1), &enq(1)));
        assert!(!nrbc.conflicts(&deq_got(1), &enq(0)));
    }

    #[test]
    fn same_value_enqueues_commute() {
        let nfc = queue_nfc();
        assert!(!nfc.conflicts(&enq(1), &enq(1)));
        assert!(nfc.conflicts(&enq(1), &enq(2)));
    }
}
