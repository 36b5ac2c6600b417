//! A read/write register — the classical single-version data model
//! (Hadzilacos \[8\]). Included as the baseline against which type-specific
//! commutativity shows its advantage: the only non-conflicting pairs are
//! read/read, same-value write/write, and read-of-the-written-value.

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::RwClassify;

/// Register values.
pub type Val = u8;

/// The register specification (initial value 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RwRegister {
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Val>,
}

impl Default for RwRegister {
    fn default() -> Self {
        RwRegister { values: vec![0, 1, 2] }
    }
}

/// Register invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegInv {
    /// Read the value.
    Read,
    /// Overwrite the value.
    Write(Val),
}

/// Register responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegResp {
    /// Write succeeded.
    Ok,
    /// The value read.
    Val(Val),
}

impl Adt for RwRegister {
    type State = Val;
    type Invocation = RegInv;
    type Response = RegResp;

    fn initial(&self) -> Val {
        0
    }

    fn step(&self, s: &Val, inv: &RegInv) -> Outcomes<(RegResp, Val)> {
        match inv {
            RegInv::Read => Outcomes::one((RegResp::Val(*s), *s)),
            RegInv::Write(v) => Outcomes::one((RegResp::Ok, *v)),
        }
    }
}

impl OpDeterministicAdt for RwRegister {}

impl EnumerableAdt for RwRegister {
    fn invocations(&self) -> Vec<RegInv> {
        let mut out: Vec<RegInv> = self.values.iter().map(|&v| RegInv::Write(v)).collect();
        out.push(RegInv::Read);
        out
    }
}

impl StateCover for RwRegister {
    /// Cover argument: behaviour depends only on equality of the current
    /// value with mentioned values; the mentioned values plus one fresh
    /// value cover every class. All values are reachable by one write.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<Val> {
        let mut vals = self.values.clone();
        vals.push(0); // initial
        for op in ops {
            if let RegInv::Write(v) = &op.inv {
                vals.push(*v);
            }
            if let RegResp::Val(v) = &op.resp {
                vals.push(*v);
            }
        }
        if let Some(f) = (0..=Val::MAX).find(|v| !vals.contains(v)) {
            vals.push(f);
        }
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    fn reach_sequence(&self, state: &Val) -> Option<Vec<Op<Self>>> {
        if *state == 0 {
            Some(Vec::new())
        } else {
            Some(vec![Op::new(RegInv::Write(*state), RegResp::Ok)])
        }
    }
}

impl RwClassify for RwRegister {
    fn is_write(&self, inv: &RegInv) -> bool {
        matches!(inv, RegInv::Write(_))
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[write(v), ok]`
    pub fn write(v: Val) -> Op<RwRegister> {
        Op::new(RegInv::Write(v), RegResp::Ok)
    }
    /// `[read, v]`
    pub fn read(v: Val) -> Op<RwRegister> {
        Op::new(RegInv::Read, RegResp::Val(v))
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn register_semantics() {
        let r = RwRegister::default();
        assert!(legal(&r, &[read(0), write(2), read(2), write(1), read(1)]));
        assert!(!legal(&r, &[write(2), read(1)]));
    }

    #[test]
    fn value_blind_2pl_vs_value_aware_tables() {
        let nfc = Derived::nfc("register", RwRegister::default());
        // Same-value blind writes commute — classical W/W locks would block.
        assert!(!nfc.conflicts(&write(1), &write(1)));
        assert!(nfc.conflicts(&write(1), &write(2)));
        // Reading exactly the written value commutes forward.
        assert!(!nfc.conflicts(&read(1), &write(1)));
        assert!(nfc.conflicts(&read(2), &write(1)));
    }
}
