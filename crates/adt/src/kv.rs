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
use ccr_core::conflict::FnConflict;

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
        let mut keys = self.keys.clone();
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
        keys.sort_unstable();
        keys.dedup();
        values.sort_unstable();
        values.dedup();
        let keys: Vec<Key> = keys.into_iter().take(4).collect();
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

    fn reach_sequence(&self, state: &BTreeMap<Key, Value>) -> Option<Vec<Op<Self>>> {
        Some(state.iter().map(|(&k, &v)| Op::new(KvInv::Put(k, v), KvResp::Ok)).collect())
    }
}

impl RwClassify for KvStore {
    fn is_write(&self, inv: &KvInv) -> bool {
        !matches!(inv, KvInv::Get(_))
    }
}

/// Hand-written NFC. Cross-key operations never conflict; same-key:
///
/// * put/put conflict iff the values differ;
/// * put/get (either order) conflict iff the read is not exactly the written
///   value;
/// * del/get conflict iff the read is not `None`;
/// * put/del conflict always (final states differ);
/// * get/get, del/del never.
pub fn kv_nfc() -> FnConflict<KvStore> {
    FnConflict::new("kv-NFC", |p, q| {
        let Some((kp, p)) = part(p) else { return true };
        let Some((kq, q)) = part(q) else { return true };
        if kp != kq {
            return false;
        }
        use KvPart::*;
        match (p, q) {
            (Put(v1), Put(v2)) => v1 != v2,
            (Put(v), Get(u)) | (Get(u), Put(v)) => u != Some(v),
            (Del, Get(u)) | (Get(u), Del) => u.is_some(),
            (Put(_), Del) | (Del, Put(_)) => true,
            (Get(_), Get(_)) | (Del, Del) => false,
        }
    })
}

/// Hand-written NRBC. Same as NFC on the symmetric cells, but:
///
/// * `(get u, put v)` conflicts iff `u == Some(v)` (a read of the written
///   value cannot be pushed before the write) while `(put v, get u)`
///   conflicts iff `u != Some(v)`;
/// * `(get u, del)` conflicts iff `u == None`, `(del, get u)` iff
///   `u != None`.
pub fn kv_nrbc() -> FnConflict<KvStore> {
    FnConflict::new("kv-NRBC", |p, q| {
        let Some((kp, p)) = part(p) else { return true };
        let Some((kq, q)) = part(q) else { return true };
        if kp != kq {
            return false;
        }
        use KvPart::*;
        match (p, q) {
            (Put(v1), Put(v2)) => v1 != v2,
            (Put(v), Get(u)) => u != Some(v),
            (Get(u), Put(v)) => u == Some(v),
            (Del, Get(u)) => u.is_some(),
            (Get(u), Del) => u.is_none(),
            (Put(_), Del) | (Del, Put(_)) => true,
            (Get(_), Get(_)) | (Del, Del) => false,
        }
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum KvPart {
    Put(Value),
    Get(Option<Value>),
    Del,
}

fn part(op: &Op<KvStore>) -> Option<(Key, KvPart)> {
    match (&op.inv, &op.resp) {
        (KvInv::Put(k, v), KvResp::Ok) => Some((*k, KvPart::Put(*v))),
        (KvInv::Get(k), KvResp::Val(u)) => Some((*k, KvPart::Get(*u))),
        (KvInv::Del(k), KvResp::Ok) => Some((*k, KvPart::Del)),
        _ => None,
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
    use ccr_core::conflict::Conflict;
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
        let nfc = kv_nfc();
        assert!(!nfc.conflicts(&put(0, 1), &put(0, 1)), "same value: no conflict");
        assert!(nfc.conflicts(&put(0, 1), &put(0, 2)));
        assert!(!nfc.conflicts(&get(0, Some(1)), &put(0, 1)));
        assert!(nfc.conflicts(&get(0, Some(2)), &put(0, 1)));
        assert!(!nfc.conflicts(&put(0, 1), &put(1, 2)), "different keys");
    }

    #[test]
    fn nrbc_asymmetry_on_reads() {
        let nrbc = kv_nrbc();
        // A read of the written value cannot be pushed before the write…
        assert!(nrbc.conflicts(&get(0, Some(1)), &put(0, 1)));
        // …but the write pushes back past a read of its own value.
        assert!(!nrbc.conflicts(&put(0, 1), &get(0, Some(1))));
    }
}
