//! An unbounded counter: `inc`, `dec` (refused at zero) and `read`.
//!
//! Semantically a bank account with unit amounts; kept as a separate ADT
//! because it is the minimal example of a partial operation and is used
//! pervasively in hot-spot workloads (the "increment a shared aggregate"
//! pattern the paper's introduction calls out).

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::{InvertibleAdt, RwClassify};

/// The counter specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter;

/// Counter invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CounterInv {
    /// Add one.
    Inc,
    /// Subtract one; refused at zero.
    Dec,
    /// Read the value.
    Read,
}

/// Counter responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CounterResp {
    /// Success.
    Ok,
    /// Refused decrement.
    No,
    /// The counter value.
    Val(u64),
}

impl Adt for Counter {
    type State = u64;
    type Invocation = CounterInv;
    type Response = CounterResp;

    fn initial(&self) -> u64 {
        0
    }

    fn step(&self, s: &u64, inv: &CounterInv) -> Outcomes<(CounterResp, u64)> {
        match inv {
            CounterInv::Inc => Outcomes::one((CounterResp::Ok, s + 1)),
            CounterInv::Dec => {
                if *s > 0 {
                    Outcomes::one((CounterResp::Ok, s - 1))
                } else {
                    Outcomes::one((CounterResp::No, 0))
                }
            }
            CounterInv::Read => Outcomes::one((CounterResp::Val(*s), *s)),
        }
    }
}

impl OpDeterministicAdt for Counter {}

impl EnumerableAdt for Counter {
    fn invocations(&self) -> Vec<CounterInv> {
        vec![CounterInv::Inc, CounterInv::Dec, CounterInv::Read]
    }
}

impl StateCover for Counter {
    /// Cover argument: operation behaviour depends on the value only through
    /// comparisons with 0 and equality with mentioned `Read` values; values
    /// `0 ..= Σ mentioned + 3` represent every class (the `+3` accommodates
    /// two pending unit updates either side).
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<u64> {
        let mut bound = 3;
        for op in ops {
            if let CounterResp::Val(v) = &op.resp {
                bound += v;
            }
        }
        (0..=bound).collect()
    }

    fn reach_sequence(&self, state: &u64) -> Option<Vec<Op<Self>>> {
        Some((0..*state).map(|_| Op::new(CounterInv::Inc, CounterResp::Ok)).collect())
    }
}

impl InvertibleAdt for Counter {
    fn undo(&self, state: &u64, op: &Op<Self>) -> Option<u64> {
        match (&op.inv, &op.resp) {
            (CounterInv::Inc, CounterResp::Ok) => state.checked_sub(1),
            (CounterInv::Dec, CounterResp::Ok) => state.checked_add(1),
            (CounterInv::Dec, CounterResp::No) | (CounterInv::Read, _) => Some(*state),
            _ => None,
        }
    }
}

impl RwClassify for Counter {
    fn is_write(&self, inv: &CounterInv) -> bool {
        !matches!(inv, CounterInv::Read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_core::spec::legal;

    fn inc() -> Op<Counter> {
        Op::new(CounterInv::Inc, CounterResp::Ok)
    }
    fn dec() -> Op<Counter> {
        Op::new(CounterInv::Dec, CounterResp::Ok)
    }
    fn read(v: u64) -> Op<Counter> {
        Op::new(CounterInv::Read, CounterResp::Val(v))
    }

    #[test]
    fn basic_legality() {
        let c = Counter;
        assert!(legal(&c, &[inc(), inc(), dec(), read(1)]));
        assert!(!legal(&c, &[dec()]));
        assert!(legal(&c, &[Op::new(CounterInv::Dec, CounterResp::No), read(0)]));
    }

    #[test]
    fn undo_matches_semantics() {
        let c = Counter;
        assert_eq!(c.undo(&5, &inc()), Some(4));
        assert_eq!(c.undo(&5, &dec()), Some(6));
        assert_eq!(c.undo(&0, &inc()), None);
    }

    #[test]
    fn classification() {
        let c = Counter;
        assert!(c.is_write(&CounterInv::Inc));
        assert!(!c.is_write(&CounterInv::Read));
    }
}
