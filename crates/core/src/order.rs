//! Partial orders on transactions: the constraint relations, such as
//! `precedes(H)` (paper §3.4), that a serialization order must respect.

use crate::ids::TxnId;

/// A binary relation on transactions, interpreted as ordering constraints
/// `a before b`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnOrder {
    pairs: Vec<(TxnId, TxnId)>,
}

impl TxnOrder {
    /// The empty relation (every total order is consistent).
    pub fn empty() -> Self {
        TxnOrder { pairs: Vec::new() }
    }

    /// Build from explicit pairs.
    pub fn from_pairs(pairs: Vec<(TxnId, TxnId)>) -> Self {
        TxnOrder { pairs }
    }

    /// The constraint pairs.
    pub fn pairs(&self) -> &[(TxnId, TxnId)] {
        &self.pairs
    }

    /// Restrict to pairs whose endpoints are both in `keep`.
    pub fn restrict(&self, keep: &[TxnId]) -> Self {
        TxnOrder {
            pairs: self
                .pairs
                .iter()
                .filter(|(a, b)| keep.contains(a) && keep.contains(b))
                .copied()
                .collect(),
        }
    }

    /// Whether the total order given by `seq` is consistent with this
    /// relation: for each constraint `(a, b)` with both endpoints in `seq`,
    /// `a` appears before `b`.
    pub fn consistent(&self, seq: &[TxnId]) -> bool {
        let pos = |t: TxnId| seq.iter().position(|x| *x == t);
        self.pairs.iter().all(|(a, b)| match (pos(*a), pos(*b)) {
            (Some(i), Some(j)) => i < j,
            _ => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u32) -> TxnId = TxnId;

    #[test]
    fn consistency_ignores_absent_endpoints() {
        let o = TxnOrder::from_pairs(vec![(T(0), T(9))]);
        assert!(o.consistent(&[T(1), T(0)]));
        assert!(o.consistent(&[T(0), T(9)]));
        assert!(!o.consistent(&[T(9), T(0)]));
    }

    #[test]
    fn restrict_drops_external_constraints() {
        let o = TxnOrder::from_pairs(vec![(T(0), T(1)), (T(1), T(2))]);
        let r = o.restrict(&[T(0), T(1)]);
        assert_eq!(r.pairs(), &[(T(0), T(1))]);
    }
}
