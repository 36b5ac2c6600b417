//! An unbounded LIFO stack: `[push(v), ok]`, `[pop, got(v)]`, `[pop, empty]`.
//!
//! Stacks admit even less concurrency than queues: a push cannot be pushed
//! back past a pop of a *different* value (the pop exposed what the push
//! would have hidden), so producers and consumers conflict under
//! update-in-place recovery too — compare [`crate::queue`], where
//! `(enq, got)` never conflicts.

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::RwClassify;

/// Stack values.
pub type Val = u8;

/// The LIFO stack specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stack {
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Val>,
}

impl Default for Stack {
    fn default() -> Self {
        Stack { values: vec![0, 1] }
    }
}

/// Stack invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StackInv {
    /// Push onto the top.
    Push(Val),
    /// Pop from the top.
    Pop,
}

/// Stack responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StackResp {
    /// Push succeeded.
    Ok,
    /// The popped value.
    Got(Val),
    /// The stack was empty.
    Empty,
}

impl Adt for Stack {
    type State = Vec<Val>; // top at the end
    type Invocation = StackInv;
    type Response = StackResp;

    fn initial(&self) -> Vec<Val> {
        Vec::new()
    }

    fn step(&self, s: &Vec<Val>, inv: &StackInv) -> Outcomes<(StackResp, Vec<Val>)> {
        match inv {
            StackInv::Push(v) => {
                let mut s2 = s.clone();
                s2.push(*v);
                Outcomes::one((StackResp::Ok, s2))
            }
            StackInv::Pop => match s.split_last() {
                Some((&top, rest)) => Outcomes::one((StackResp::Got(top), rest.to_vec())),
                None => Outcomes::one((StackResp::Empty, Vec::new())),
            },
        }
    }
}

impl OpDeterministicAdt for Stack {}

impl EnumerableAdt for Stack {
    fn invocations(&self) -> Vec<StackInv> {
        let mut out: Vec<StackInv> = self.values.iter().map(|&v| StackInv::Push(v)).collect();
        out.push(StackInv::Pop);
        out
    }
}

impl StateCover for Stack {
    /// Cover argument: as for the queue — behaviour of a pair of operations
    /// depends on the top few elements and emptiness, so stacks of depth ≤ 3
    /// over the mentioned values plus a fresh separator cover every class.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Vec<Val>> {
        let mut mentioned = Vec::new();
        for op in ops {
            if let StackInv::Push(v) = &op.inv {
                mentioned.push(*v);
            }
            if let StackResp::Got(v) = &op.resp {
                mentioned.push(*v);
            }
        }
        let fresh = (0..=Val::MAX).find(|v| !mentioned.contains(v) && !self.values.contains(v));
        let vals = crate::cover_values(&mentioned, fresh.into_iter().chain(self.values.clone()), 4);
        let mut out: Vec<Vec<Val>> = vec![Vec::new()];
        let mut layer: Vec<Vec<Val>> = vec![Vec::new()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for st in &layer {
                for &v in &vals {
                    let mut s2 = st.clone();
                    s2.push(v);
                    next.push(s2);
                }
            }
            out.extend(next.iter().cloned());
            layer = next;
        }
        out
    }

    fn reach_sequence(&self, state: &Vec<Val>) -> Option<Vec<Op<Self>>> {
        Some(state.iter().map(|&v| Op::new(StackInv::Push(v), StackResp::Ok)).collect())
    }
}

impl RwClassify for Stack {
    fn is_write(&self, _inv: &StackInv) -> bool {
        true
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[push(v), ok]`
    pub fn push(v: Val) -> Op<Stack> {
        Op::new(StackInv::Push(v), StackResp::Ok)
    }
    /// `[pop, got(v)]`
    pub fn pop_got(v: Val) -> Op<Stack> {
        Op::new(StackInv::Pop, StackResp::Got(v))
    }
    /// `[pop, empty]`
    pub fn pop_empty() -> Op<Stack> {
        Op::new(StackInv::Pop, StackResp::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn lifo_semantics() {
        let s = Stack::default();
        assert!(legal(&s, &[push(1), push(2), pop_got(2), pop_got(1), pop_empty()]));
        assert!(!legal(&s, &[push(1), push(2), pop_got(1)]));
    }

    #[test]
    fn stacks_are_less_concurrent_than_queues() {
        // Queue producers never conflict with consumers under NRBC; stack
        // producers do (for differing values).
        let nrbc = Derived::nrbc("stack", Stack::default());
        assert!(nrbc.conflicts(&push(1), &pop_got(0)));
        assert!(!nrbc.conflicts(&push(1), &pop_got(1)));
    }
}
