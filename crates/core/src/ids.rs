//! Identifiers for the two kinds of entities in the computational model:
//! transactions and objects (paper §2).

use std::fmt;

/// A transaction identifier.
///
/// The paper writes transactions as `A`, `B`, `C`, …; we use small integers.
/// The ordering on `TxnId` is used by some runtime policies (e.g. picking the
/// youngest deadlock victim) but carries no semantic weight in the formal
/// model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u32);

impl TxnId {
    /// Convenience constructor.
    pub const fn new(n: u32) -> Self {
        TxnId(n)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render the first few ids the way the paper does (A, B, C, …) to make
        // reproduced histories easy to compare against the text.
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0 as u8) as char)
        } else {
            write!(f, "T{}", self.0)
        }
    }
}

/// Per-transaction state of the live transactions: a vector of rows sorted
/// by key — a [`TxnId`] unless the table names another (the sharded
/// runtime keys its global transactions and in-doubt prepares by `u64`
/// global id).
///
/// Keys only grow, so a newly begun transaction's row is appended, and no
/// more rows exist than transactions are live at once, so a look-up is a
/// search over a handful of entries and the vector never shrinks — unlike
/// an ordered map, whose root is allocated and freed every time the table
/// passes through empty. Iteration is ascending by key.
///
/// A table of lists (or of any other [`Reusable`] value) additionally keeps
/// the values of finished transactions, emptied, for the next
/// [`open`](TxnTable::open): in steady state neither a row nor a list is
/// allocated. `Clone` copies the rows and no spare capacity.
pub struct TxnTable<V, K = TxnId> {
    /// Sorted by key, one row per transaction.
    rows: Vec<(K, V)>,
    /// Emptied values waiting to be reused; never more than were once open
    /// at the same time.
    spare: Vec<V>,
}

/// A row value whose allocations a [`TxnTable`] keeps for reuse once its
/// row is closed.
pub trait Reusable: Default {
    /// Empty the value, keeping what it has allocated.
    fn reset(&mut self);
}

impl<T> Reusable for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

impl<V, K> TxnTable<V, K> {
    /// An empty table.
    pub const fn new() -> Self {
        TxnTable { rows: Vec::new(), spare: Vec::new() }
    }

    /// The number of transactions with a row.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no transaction has a row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop every row.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// The rows, ascending by key.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The keys with a row, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.rows.iter().map(|(key, _)| key)
    }
}

impl<V, K: Ord + Copy> TxnTable<V, K> {
    /// Where `key`'s row is (`Ok`) or would be inserted (`Err`).
    fn slot(&self, key: K) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&key, |(owner, _)| *owner)
    }

    /// Whether `key` has a row.
    pub fn contains_key(&self, key: &K) -> bool {
        self.slot(*key).is_ok()
    }

    /// `key`'s value.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slot(*key).ok().map(|slot| &self.rows[slot].1)
    }

    /// `key`'s value, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slot(*key).ok().map(|slot| &mut self.rows[slot].1)
    }

    /// Set `key`'s value, returning the one it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.slot(key) {
            Ok(slot) => Some(std::mem::replace(&mut self.rows[slot].1, value)),
            Err(slot) => {
                self.rows.insert(slot, (key, value));
                None
            }
        }
    }

    /// Take `key`'s row out.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.slot(*key).ok().map(|slot| self.rows.remove(slot).1)
    }
}

impl<V: Reusable, K: Ord + Copy> TxnTable<V, K> {
    /// `key`'s value, opened empty — a recycled one, while there is one — if
    /// it has none.
    pub fn open(&mut self, key: K) -> &mut V {
        let slot = self.slot(key).unwrap_or_else(|slot| {
            self.rows.insert(slot, (key, self.spare.pop().unwrap_or_default()));
            slot
        });
        &mut self.rows[slot].1
    }

    /// Hand back a value taken out with [`remove`](Self::remove): it is
    /// emptied and kept for the next [`open`](Self::open).
    pub fn recycle(&mut self, mut value: V) {
        value.reset();
        self.spare.push(value);
    }

    /// Drop `key`'s row, keeping its value for reuse.
    pub fn close(&mut self, key: &K) {
        if let Some(value) = self.remove(key) {
            self.recycle(value);
        }
    }

    /// Close every row whose key `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        let spare = &mut self.spare;
        self.rows.retain_mut(|(key, value)| {
            let kept = keep(*key);
            if !kept {
                value.reset();
                spare.push(std::mem::take(value));
            }
            kept
        });
    }
}

impl<V, K> Default for TxnTable<V, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone, K: Clone> Clone for TxnTable<V, K> {
    fn clone(&self) -> Self {
        TxnTable { rows: self.rows.clone(), spare: Vec::new() }
    }
}

impl<V: fmt::Debug, K: fmt::Debug> fmt::Debug for TxnTable<V, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V, K: Ord + Copy + fmt::Debug> std::ops::Index<&K> for TxnTable<V, K> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).unwrap_or_else(|| panic!("no row for {key:?}"))
    }
}

impl<'a, V, K> IntoIterator for &'a TxnTable<V, K> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter().map(|(key, value)| (key, value))
    }
}

/// An object identifier.
///
/// The paper writes objects as `X`, `Y`, `Z`. Single-object analyses use
/// [`ObjectId::SOLE`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The canonical object id for single-object histories.
    pub const SOLE: ObjectId = ObjectId(0);

    /// Convenience constructor.
    pub const fn new(n: u32) -> Self {
        ObjectId(n)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 3 {
            write!(f, "{}", (b'X' + self.0 as u8) as char)
        } else {
            write!(f, "X{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn txn_display_uses_letters() {
        assert_eq!(TxnId(0).to_string(), "A");
        assert_eq!(TxnId(2).to_string(), "C");
        assert_eq!(TxnId(30).to_string(), "T30");
    }

    #[test]
    fn object_display_uses_letters() {
        assert_eq!(ObjectId(0).to_string(), "X");
        assert_eq!(ObjectId(2).to_string(), "Z");
        assert_eq!(ObjectId(5).to_string(), "X5");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(TxnId(1) < TxnId(2));
        assert!(ObjectId(0) < ObjectId(1));
    }

    #[test]
    fn a_recycled_list_comes_back_empty_and_a_clone_takes_no_spares() {
        let mut table: TxnTable<Vec<u8>> = TxnTable::new();
        table.open(TxnId(0)).extend([1, 2, 3]);
        table.open(TxnId(1)).push(4);
        let taken = table.remove(&TxnId(0)).unwrap();
        assert_eq!(taken, [1, 2, 3]);
        table.recycle(taken);
        table.close(&TxnId(1));
        table.close(&TxnId(1)); // no row, nothing to keep
        assert!(table.is_empty() && table.spare.len() == 2);

        let mut copy = table.clone();
        assert_eq!(copy.open(TxnId(2)).capacity(), 0);
        // The original hands the emptied lists out again, last closed first.
        for (txn, room) in [(TxnId(2), 1), (TxnId(3), 3)] {
            let list = table.open(txn);
            assert!(list.is_empty() && list.capacity() >= room);
        }
        assert_eq!(table.open(TxnId(4)).capacity(), 0);
        // Opening an open row finds it as it was left.
        table.open(TxnId(3)).push(9);
        assert_eq!(table.open(TxnId(3)), &[9]);
        assert_eq!(format!("{table:?}"), "{T2: [], T3: [9], T4: []}");
        // No more lists are kept than were open at once.
        for round in 2..100 {
            (0..3).for_each(|i| table.open(TxnId(3 * round + i)).push(0));
            table.retain(|txn| txn.0 % 3 == 0);
            table.retain(|_| false);
            assert!(table.is_empty() && table.spare.len() == 6);
        }
    }

    #[test]
    fn a_table_of_plain_values_is_an_ordered_map() {
        let mut stamps: TxnTable<u64> = TxnTable::default();
        assert_eq!(stamps.insert(TxnId(7), 70), None);
        assert_eq!(stamps.insert(TxnId(3), 30), None);
        assert_eq!(stamps.insert(TxnId(7), 71), Some(70));
        assert_eq!(stamps.keys().copied().collect::<Vec<_>>(), [TxnId(3), TxnId(7)]);
        assert_eq!((stamps[&TxnId(3)], stamps.get(&TxnId(5))), (30, None));
        *stamps.get_mut(&TxnId(3)).unwrap() += 1;
        assert_eq!(stamps.remove(&TxnId(3)), Some(31));
        assert_eq!(stamps.remove(&TxnId(3)), None);
        assert!(stamps.contains_key(&TxnId(7)) && stamps.len() == 1);
        stamps.clear();
        assert!(stamps.is_empty() && stamps.iter().next().is_none());
    }

    /// One step of the model comparison below; `pick` selects among the
    /// transactions begun so far.
    #[derive(Clone, Debug)]
    enum Step {
        Begin(u8),
        Push(usize, u8),
        Remove(usize),
        Close(usize),
        Reopen(usize),
        Insert(usize, u8),
        Retain(u32),
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let pick = 0usize..64;
        prop::collection::vec(
            prop_oneof![
                3 => (0u8..=255).prop_map(Step::Begin),
                2 => (pick.clone(), 0u8..=255).prop_map(|(at, v)| Step::Push(at, v)),
                2 => pick.clone().prop_map(Step::Remove),
                2 => pick.clone().prop_map(Step::Close),
                1 => pick.clone().prop_map(Step::Reopen),
                1 => (pick, 0u8..=255).prop_map(|(at, v)| Step::Insert(at, v)),
                1 => (2u32..5).prop_map(Step::Retain),
            ],
            0..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Begin-order opens, out-of-order removals, `retain` and re-opens
        /// leave the table with the contents and the ascending iteration of
        /// an ordered map put through the same steps.
        #[test]
        fn the_table_agrees_with_an_ordered_map(steps in steps()) {
            let mut table: TxnTable<Vec<u8>> = TxnTable::new();
            let mut model: BTreeMap<TxnId, Vec<u8>> = BTreeMap::new();
            let mut begun = 0u32;
            for step in steps {
                if begun == 0 && !matches!(step, Step::Begin(_)) {
                    continue; // nothing to pick from yet
                }
                let pick = |at: usize| TxnId(at as u32 % begun);
                match step {
                    Step::Begin(v) => {
                        let list = table.open(TxnId(begun));
                        prop_assert!(list.is_empty());
                        list.push(v);
                        model.insert(TxnId(begun), vec![v]);
                        begun += 1;
                    }
                    Step::Push(at, v) => {
                        let pushed = table.get_mut(&pick(at)).map(|list| list.push(v));
                        prop_assert_eq!(pushed, model.get_mut(&pick(at)).map(|list| list.push(v)));
                    }
                    Step::Remove(at) => {
                        let removed = table.remove(&pick(at));
                        prop_assert_eq!(&removed, &model.remove(&pick(at)));
                        removed.into_iter().for_each(|list| table.recycle(list));
                    }
                    Step::Close(at) => {
                        table.close(&pick(at));
                        model.remove(&pick(at));
                    }
                    Step::Reopen(at) => {
                        let was_open = model.contains_key(&pick(at));
                        let list = table.open(pick(at));
                        prop_assert!(was_open || list.is_empty());
                        prop_assert_eq!(&*list, model.entry(pick(at)).or_default());
                    }
                    Step::Insert(at, v) => {
                        let replaced = table.insert(pick(at), vec![v]);
                        prop_assert_eq!(replaced, model.insert(pick(at), vec![v]));
                    }
                    Step::Retain(modulus) => {
                        table.retain(|txn| txn.0 % modulus != 0);
                        model.retain(|txn, _| txn.0 % modulus != 0);
                    }
                }
                prop_assert!(table.iter().eq(model.iter()));
                prop_assert!(table.keys().eq(model.keys()));
                prop_assert_eq!((table.len(), table.is_empty()), (model.len(), model.is_empty()));
                for txn in (0..=begun).map(TxnId) {
                    prop_assert_eq!(table.get(&txn), model.get(&txn));
                    prop_assert_eq!(table.contains_key(&txn), model.contains_key(&txn));
                }
                prop_assert!(table.spare.iter().all(Vec::is_empty));
            }
            let copy = table.clone();
            prop_assert!(copy.iter().eq(model.iter()) && copy.spare.is_empty());
        }
    }
}
