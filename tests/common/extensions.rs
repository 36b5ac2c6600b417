// The linear-extension enumerator that dynamic atomicity was once decided
// by, `include!`d (one definition, two test crates) by
// `tests/atomicity_walk.rs`, whose reference checkers run on it, and
// `tests/history_props.rs`; the including module brings `TxnId` and
// `TxnOrder` into scope.

/// Pass every linear extension of `order` over `items` (every permutation
/// of `items` consistent with its pairs) to `f`, in lexicographic order of
/// positions in `items`. Stops early and returns `false` if `f` returns
/// `false`; a cyclic relation has no extension. `items` holds no duplicates.
fn for_each_extension<F>(order: &TxnOrder, items: &[TxnId], mut f: F) -> bool
where
    F: FnMut(&[TxnId]) -> bool,
{
    fn rec<F: FnMut(&[TxnId]) -> bool>(
        order: &TxnOrder,
        prefix: &mut Vec<TxnId>,
        remaining: &mut Vec<TxnId>,
        f: &mut F,
    ) -> bool {
        if remaining.is_empty() {
            return f(prefix);
        }
        for i in 0..remaining.len() {
            let cand = remaining[i];
            // cand may come next iff no remaining element must precede it
            let pairs = order.pairs();
            if pairs.iter().any(|(a, b)| *b == cand && *a != cand && remaining.contains(a)) {
                continue;
            }
            remaining.remove(i);
            prefix.push(cand);
            let ok = rec(order, prefix, remaining, f);
            prefix.pop();
            remaining.insert(i, cand);
            if !ok {
                return false;
            }
        }
        true
    }
    rec(order, &mut Vec::with_capacity(items.len()), &mut items.to_vec(), &mut f)
}
