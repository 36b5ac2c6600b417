//! Combinators for heterogeneous systems: a sum of two ADTs.
//!
//! `ccr-core` is generic over a single ADT type per system; [`SumAdt`] makes
//! a system heterogeneous by letting each object be configured as either an
//! `A` or a `B`. Invocations of the wrong side are simply not enabled
//! (partiality), so a mismatched invocation can never produce a response.

use ccr_core::adt::{Adt, EnumerableAdt, Op, Outcomes, StateCover};

/// One of two ADTs, chosen per object at configuration time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SumAdt<A, B> {
    /// This object behaves as an `A`.
    Left(A),
    /// This object behaves as a `B`.
    Right(B),
}

/// A value from either side.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Either<L, R> {
    /// Left-side value.
    L(L),
    /// Right-side value.
    R(R),
}

impl<A: Adt, B: Adt> Adt for SumAdt<A, B> {
    type State = Either<A::State, B::State>;
    type Invocation = Either<A::Invocation, B::Invocation>;
    type Response = Either<A::Response, B::Response>;

    fn initial(&self) -> Self::State {
        match self {
            SumAdt::Left(a) => Either::L(a.initial()),
            SumAdt::Right(b) => Either::R(b.initial()),
        }
    }

    fn step(
        &self,
        s: &Self::State,
        inv: &Self::Invocation,
    ) -> Outcomes<(Self::Response, Self::State)> {
        match (self, s, inv) {
            (SumAdt::Left(a), Either::L(s), Either::L(i)) => {
                a.step(s, i).into_iter().map(|(r, s2)| (Either::L(r), Either::L(s2))).collect()
            }
            (SumAdt::Right(b), Either::R(s), Either::R(i)) => {
                b.step(s, i).into_iter().map(|(r, s2)| (Either::R(r), Either::R(s2))).collect()
            }
            _ => Outcomes::none(), // wrong side: not enabled
        }
    }
}

impl<A: EnumerableAdt, B: EnumerableAdt> EnumerableAdt for SumAdt<A, B> {
    fn invocations(&self) -> Vec<Self::Invocation> {
        match self {
            SumAdt::Left(a) => a.invocations().into_iter().map(Either::L).collect(),
            SumAdt::Right(b) => b.invocations().into_iter().map(Either::R).collect(),
        }
    }
}

impl<A: StateCover, B: StateCover> StateCover for SumAdt<A, B> {
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Self::State> {
        match self {
            SumAdt::Left(a) => a.state_cover(&sides(ops).0).into_iter().map(Either::L).collect(),
            SumAdt::Right(b) => b.state_cover(&sides(ops).1).into_iter().map(Either::R).collect(),
        }
    }

    fn continuations(&self, ops: &[Op<Self>]) -> Vec<Self::Invocation> {
        match self {
            SumAdt::Left(a) => a.continuations(&sides(ops).0).into_iter().map(Either::L).collect(),
            SumAdt::Right(b) => b.continuations(&sides(ops).1).into_iter().map(Either::R).collect(),
        }
    }

    fn reach_sequence(&self, state: &Self::State) -> Option<Vec<Op<Self>>> {
        match (self, state) {
            (SumAdt::Left(a), Either::L(s)) => Some(
                a.reach_sequence(s)?
                    .into_iter()
                    .map(|op| Op::new(Either::L(op.inv), Either::L(op.resp)))
                    .collect(),
            ),
            (SumAdt::Right(b), Either::R(s)) => Some(
                b.reach_sequence(s)?
                    .into_iter()
                    .map(|op| Op::new(Either::R(op.inv), Either::R(op.resp)))
                    .collect(),
            ),
            _ => None,
        }
    }
}

/// The left-side and the right-side operations among `ops`.
fn sides<A: Adt, B: Adt>(ops: &[Op<SumAdt<A, B>>]) -> (Vec<Op<A>>, Vec<Op<B>>) {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for op in ops {
        match (&op.inv, &op.resp) {
            (Either::L(i), Either::L(r)) => left.push(Op::new(i.clone(), r.clone())),
            (Either::R(i), Either::R(r)) => right.push(Op::new(i.clone(), r.clone())),
            _ => {}
        }
    }
    (left, right)
}

/// A conflict relation over a sum, dispatching to per-side relations.
/// Operations of different sides never conflict — they can only execute at
/// objects of different sides.
#[derive(Clone, Debug)]
pub struct SumConflict<CA, CB> {
    left: CA,
    right: CB,
}

impl<CA, CB> SumConflict<CA, CB> {
    /// Combine per-side conflict relations.
    pub fn new(left: CA, right: CB) -> Self {
        SumConflict { left, right }
    }
}

impl<A, B, CA, CB> ccr_core::conflict::Conflict<SumAdt<A, B>> for SumConflict<CA, CB>
where
    A: Adt,
    B: Adt,
    CA: ccr_core::conflict::Conflict<A>,
    CB: ccr_core::conflict::Conflict<B>,
{
    fn conflicts(&self, requested: &Op<SumAdt<A, B>>, held: &Op<SumAdt<A, B>>) -> bool {
        match ((&requested.inv, &requested.resp), (&held.inv, &held.resp)) {
            ((Either::L(pi), Either::L(pr)), (Either::L(qi), Either::L(qr))) => self
                .left
                .conflicts(&Op::new(pi.clone(), pr.clone()), &Op::new(qi.clone(), qr.clone())),
            ((Either::R(pi), Either::R(pr)), (Either::R(qi), Either::R(qr))) => self
                .right
                .conflicts(&Op::new(pi.clone(), pr.clone()), &Op::new(qi.clone(), qr.clone())),
            _ => false,
        }
    }

    fn name(&self) -> String {
        format!("{} ⊕ {}", self.left.name(), self.right.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{BankAccount, BankInv, BankResp};
    use crate::queue::{FifoQueue, QueueInv, QueueResp};
    use ccr_core::spec::legal;

    type Mixed = SumAdt<BankAccount, FifoQueue>;

    #[test]
    fn each_side_behaves_as_its_inner_adt() {
        let bank: Mixed = SumAdt::Left(BankAccount::default());
        let dep = Op::<Mixed>::new(Either::L(BankInv::Deposit(5)), Either::L(BankResp::Ok));
        let bal = Op::<Mixed>::new(Either::L(BankInv::Balance), Either::L(BankResp::Val(5)));
        assert!(legal(&bank, &[dep.clone(), bal]));

        let q: Mixed = SumAdt::Right(FifoQueue::default());
        let enq = Op::<Mixed>::new(Either::R(QueueInv::Enq(1)), Either::R(QueueResp::Ok));
        assert!(legal(&q, &[enq]));
        // A bank op against a queue object is never enabled.
        assert!(!legal(&q, &[dep]));
    }

    #[test]
    fn sum_conflict_dispatches_per_side() {
        use ccr_core::conflict::Conflict;
        let derived = ccr_core::conflict::Derived::nrbc("queue", FifoQueue::default());
        let c = SumConflict::new(crate::bank::bank_nrbc(), derived);
        let wok = Op::<Mixed>::new(Either::L(BankInv::Withdraw(1)), Either::L(BankResp::Ok));
        let dep = Op::<Mixed>::new(Either::L(BankInv::Deposit(1)), Either::L(BankResp::Ok));
        let enq = Op::<Mixed>::new(Either::R(QueueInv::Enq(1)), Either::R(QueueResp::Ok));
        assert!(c.conflicts(&wok, &dep), "bank NRBC applies on the left");
        assert!(!c.conflicts(&dep, &wok));
        assert!(!c.conflicts(&wok, &enq), "cross-side never conflicts");
        assert!(c.name().contains("⊕"));
    }

    #[test]
    fn covers_and_reach_sequences_lift_through_the_sum() {
        use ccr_core::adt::StateCover;
        let bank: Mixed = SumAdt::Left(BankAccount { amounts: vec![1] });
        let cover = bank.state_cover(&[]);
        assert!(cover.iter().all(|s| matches!(s, Either::L(_))));
        for s in &cover {
            let seq = bank.reach_sequence(s).expect("reachable");
            let r = ccr_core::spec::reach(&bank, &seq);
            assert_eq!(r.states(), std::slice::from_ref(s));
        }
        // A right-side state is unreachable for a left-configured object.
        assert!(bank.reach_sequence(&Either::R(Vec::new())).is_none());
    }

    #[test]
    fn alphabets_follow_the_side() {
        let bank: Mixed = SumAdt::Left(BankAccount::default());
        assert!(bank.invocations().iter().all(|i| matches!(i, Either::L(_))));
    }
}
