//! A max-register: `[write_max(v), ok]` joins `v` into a monotone maximum;
//! `[read, v]` observes it.
//!
//! The opposite extreme from the FIFO queue: **every pair of updates
//! commutes** (join is associative, commutative and idempotent — the
//! CRDT-style monotone aggregate), so under either recovery method updates
//! never conflict with each other; only reads constrain concurrency, and
//! even those only against *larger* concurrent writes (a write below the
//! read value is invisible).

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::RwClassify;

/// Register values.
pub type Val = u8;

/// The max-register specification (initial value 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaxRegister {
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Val>,
}

impl Default for MaxRegister {
    fn default() -> Self {
        MaxRegister { values: vec![0, 1, 2] }
    }
}

/// Max-register invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MaxInv {
    /// Join a value into the maximum.
    WriteMax(Val),
    /// Read the current maximum.
    Read,
}

/// Max-register responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MaxResp {
    /// Join succeeded.
    Ok,
    /// The maximum read.
    Val(Val),
}

impl Adt for MaxRegister {
    type State = Val;
    type Invocation = MaxInv;
    type Response = MaxResp;

    fn initial(&self) -> Val {
        0
    }

    fn step(&self, s: &Val, inv: &MaxInv) -> Outcomes<(MaxResp, Val)> {
        match inv {
            MaxInv::WriteMax(v) => Outcomes::one((MaxResp::Ok, (*s).max(*v))),
            MaxInv::Read => Outcomes::one((MaxResp::Val(*s), *s)),
        }
    }
}

impl OpDeterministicAdt for MaxRegister {}

impl EnumerableAdt for MaxRegister {
    fn invocations(&self) -> Vec<MaxInv> {
        let mut out: Vec<MaxInv> = self.values.iter().map(|&v| MaxInv::WriteMax(v)).collect();
        out.push(MaxInv::Read);
        out
    }
}

impl StateCover for MaxRegister {
    /// Cover argument: behaviour depends on the current maximum only through
    /// comparisons with mentioned values; those values, 0, and one value
    /// above the mentioned range cover every class. All are reachable with
    /// one write.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Val> {
        let mut vals = self.values.clone();
        vals.push(0);
        for op in ops {
            if let MaxInv::WriteMax(v) = &op.inv {
                vals.push(*v);
            }
            if let MaxResp::Val(v) = &op.resp {
                vals.push(*v);
            }
        }
        if let Some(&hi) = vals.iter().max() {
            if hi < Val::MAX {
                vals.push(hi + 1);
            }
        }
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    fn reach_sequence(&self, state: &Val) -> Option<Vec<Op<Self>>> {
        if *state == 0 {
            Some(Vec::new())
        } else {
            Some(vec![Op::new(MaxInv::WriteMax(*state), MaxResp::Ok)])
        }
    }
}

impl RwClassify for MaxRegister {
    fn is_write(&self, inv: &MaxInv) -> bool {
        matches!(inv, MaxInv::WriteMax(_))
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[write_max(v), ok]`
    pub fn write_max(v: Val) -> Op<MaxRegister> {
        Op::new(MaxInv::WriteMax(v), MaxResp::Ok)
    }
    /// `[read, v]`
    pub fn read(v: Val) -> Op<MaxRegister> {
        Op::new(MaxInv::Read, MaxResp::Val(v))
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn join_semantics() {
        let m = MaxRegister::default();
        assert!(legal(&m, &[write_max(2), write_max(1), read(2), write_max(3), read(3)]));
        assert!(!legal(&m, &[write_max(2), read(1)]));
    }

    #[test]
    fn updates_never_conflict() {
        let nfc = Derived::nfc("maxreg", MaxRegister::default());
        let nrbc = Derived::nrbc("maxreg", MaxRegister::default());
        for a in 0..4 {
            for b in 0..4 {
                assert!(!nfc.conflicts(&write_max(a), &write_max(b)));
                assert!(!nrbc.conflicts(&write_max(a), &write_max(b)));
            }
        }
    }

    #[test]
    fn small_writes_are_invisible_to_reads() {
        let nfc = Derived::nfc("maxreg", MaxRegister::default());
        assert!(!nfc.conflicts(&write_max(1), &read(2)), "write below the read");
        assert!(nfc.conflicts(&write_max(3), &read(2)), "write above the read");
        assert!(!nfc.conflicts(&write_max(2), &read(2)), "write equal to the read");
    }
}
