//! A key-value store with blind writes — the ADT closest to the
//! single-version read/write databases of Hadzilacos \[8\] that the paper
//! contrasts with type-specific concurrency control.
//!
//! * `[put(k,v), ok]` — total, overwrites;
//! * `[get(k), u]` — `u : Option<Value>`, enabled iff the current value of
//!   `k` is `u`;
//! * `[del(k), ok]` — total, removes.
//!
//! Because locks here may depend on *results*, the commutativity relations
//! are finer than read/write locks: `[get(k), Some(v)]` commutes forward
//! with `[put(k,v), ok]` when the read returns exactly the written value.

use std::collections::BTreeMap;

use ccr_core::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};

use crate::traits::RwClassify;

/// Keys.
pub type Key = u8;
/// Values.
pub type Value = u8;

/// The key-value-store specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvStore {
    /// Keys for the bounded-analysis alphabet.
    pub keys: Vec<Key>,
    /// Values for the bounded-analysis alphabet.
    pub values: Vec<Value>,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore { keys: vec![0, 1], values: vec![0, 1] }
    }
}

/// KV invocations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum KvInv {
    /// Overwrite `k` with `v`.
    Put(Key, Value),
    /// Read `k`.
    Get(Key),
    /// Remove `k`.
    Del(Key),
}

/// KV responses.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum KvResp {
    /// Success (puts and deletes).
    Ok,
    /// The value read.
    Val(Option<Value>),
}

impl Adt for KvStore {
    type State = BTreeMap<Key, Value>;
    type Invocation = KvInv;
    type Response = KvResp;

    fn initial(&self) -> BTreeMap<Key, Value> {
        BTreeMap::new()
    }

    fn step(
        &self,
        s: &BTreeMap<Key, Value>,
        inv: &KvInv,
    ) -> Outcomes<(KvResp, BTreeMap<Key, Value>)> {
        match inv {
            KvInv::Put(k, v) => {
                let mut s2 = s.clone();
                s2.insert(*k, *v);
                Outcomes::one((KvResp::Ok, s2))
            }
            KvInv::Get(k) => Outcomes::one((KvResp::Val(s.get(k).copied()), s.clone())),
            KvInv::Del(k) => {
                let mut s2 = s.clone();
                s2.remove(k);
                Outcomes::one((KvResp::Ok, s2))
            }
        }
    }
}

impl OpDeterministicAdt for KvStore {}

impl EnumerableAdt for KvStore {
    fn invocations(&self) -> Vec<KvInv> {
        let mut out = Vec::new();
        for &k in &self.keys {
            for &v in &self.values {
                out.push(KvInv::Put(k, v));
            }
            out.push(KvInv::Get(k));
            out.push(KvInv::Del(k));
        }
        out
    }
}

impl StateCover for KvStore {
    /// Cover argument: behaviour depends only on the bindings of mentioned
    /// keys to mentioned values (or absence), so all maps from those keys to
    /// those values ∪ {absent} cover every class.
    fn state_cover(&self, ops: &[Op<Self>]) -> Vec<BTreeMap<Key, Value>> {
        let mut keys = Vec::new();
        let mut values = self.values.clone();
        for op in ops {
            match &op.inv {
                KvInv::Put(k, v) => {
                    keys.push(*k);
                    values.push(*v);
                }
                KvInv::Get(k) | KvInv::Del(k) => keys.push(*k),
            }
            if let KvResp::Val(Some(v)) = &op.resp {
                values.push(*v);
            }
        }
        values.sort_unstable();
        values.dedup();
        let keys = crate::cover_values(&keys, self.keys.clone(), 4);
        let mut out: Vec<BTreeMap<Key, Value>> = vec![BTreeMap::new()];
        for &k in &keys {
            let mut next = Vec::new();
            for m in &out {
                next.push(m.clone()); // k absent
                for &v in &values {
                    let mut m2 = m.clone();
                    m2.insert(k, v);
                    next.push(m2);
                }
            }
            out = next;
        }
        out
    }

    /// Continuation argument: keys are independent and `get(k)` observes
    /// all of `k`'s state, so adding a `get` of each key the operations
    /// mention — outside the alphabet too — lets a continuation see every
    /// difference the cover's maps can make.
    fn continuations(&self, ops: &[Op<Self>]) -> Vec<KvInv> {
        let mut out = self.invocations();
        for op in ops {
            let (KvInv::Put(k, _) | KvInv::Get(k) | KvInv::Del(k)) = &op.inv;
            if !out.contains(&KvInv::Get(*k)) {
                out.push(KvInv::Get(*k));
            }
        }
        out
    }

    fn reach_sequence(&self, state: &BTreeMap<Key, Value>) -> Option<Vec<Op<Self>>> {
        Some(state.iter().map(|(&k, &v)| Op::new(KvInv::Put(k, v), KvResp::Ok)).collect())
    }
}

impl RwClassify for KvStore {
    fn is_write(&self, inv: &KvInv) -> bool {
        !matches!(inv, KvInv::Get(_))
    }
}

/// Operation constructors.
pub mod ops {
    use super::*;

    /// `[put(k,v), ok]`
    pub fn put(k: Key, v: Value) -> Op<KvStore> {
        Op::new(KvInv::Put(k, v), KvResp::Ok)
    }
    /// `[get(k), u]`
    pub fn get(k: Key, u: Option<Value>) -> Op<KvStore> {
        Op::new(KvInv::Get(k), KvResp::Val(u))
    }
    /// `[del(k), ok]`
    pub fn del(k: Key) -> Op<KvStore> {
        Op::new(KvInv::Del(k), KvResp::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use ccr_core::conflict::{Conflict, Derived};
    use ccr_core::spec::legal;

    #[test]
    fn blind_write_semantics() {
        let s = KvStore::default();
        assert!(legal(
            &s,
            &[get(0, None), put(0, 1), get(0, Some(1)), put(0, 0), del(0), get(0, None)]
        ));
        assert!(!legal(&s, &[put(0, 1), get(0, None)]));
    }

    #[test]
    fn value_sensitive_conflicts() {
        let nfc = Derived::nfc("kv", KvStore::default());
        assert!(!nfc.conflicts(&put(0, 1), &put(0, 1)), "same value: no conflict");
        assert!(nfc.conflicts(&put(0, 1), &put(0, 2)));
        assert!(!nfc.conflicts(&get(0, Some(1)), &put(0, 1)));
        assert!(nfc.conflicts(&get(0, Some(2)), &put(0, 1)));
        assert!(!nfc.conflicts(&put(0, 1), &put(1, 2)), "different keys");
    }

    #[test]
    fn nrbc_asymmetry_on_reads() {
        let nrbc = Derived::nrbc("kv", KvStore::default());
        // A read of the written value cannot be pushed before the write…
        assert!(nrbc.conflicts(&get(0, Some(1)), &put(0, 1)));
        // …but the write pushes back past a read of its own value.
        assert!(!nrbc.conflicts(&put(0, 1), &get(0, Some(1))));
    }
}
