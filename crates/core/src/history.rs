//! Histories: well-formed finite sequences of events (paper §2).
//!
//! Four kinds of events occur at the interface between transactions and
//! objects: invocations, responses, commits and aborts. A **history** is a
//! finite event sequence satisfying the paper's well-formedness constraints:
//!
//! 1. A transaction waits for the response to its last invocation before
//!    invoking the next operation (no concurrency within a transaction), and
//!    an object can generate a response only for a pending invocation.
//! 2. A transaction can commit or abort, but not both (atomic commitment),
//!    and does so at most once per object.
//! 3. A transaction cannot commit while waiting for a response and cannot
//!    invoke operations after it commits (or aborts).
//!
//! The module also implements the derived notions of §3: `Opseq`,
//! `Serial(H,T)`, `permanent(H)`, `precedes(H)` and `Commit-order(H)`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::adt::{Adt, Op};
use crate::ids::{ObjectId, TxnId};

/// An event at the transaction/object interface (paper §2).
pub enum Event<A: Adt> {
    /// `<inv, X, A>` — transaction `txn` invokes an operation of `obj`.
    Invoke {
        /// The invoking transaction.
        txn: TxnId,
        /// The target object.
        obj: ObjectId,
        /// The operation name and arguments.
        inv: A::Invocation,
    },
    /// `<res, X, A>` — `obj` responds to `txn`'s pending invocation.
    Respond {
        /// The transaction receiving the response.
        txn: TxnId,
        /// The responding object.
        obj: ObjectId,
        /// The response value.
        resp: A::Response,
    },
    /// `<commit, X, A>` — `obj` learns that `txn` committed.
    Commit {
        /// The committing transaction.
        txn: TxnId,
        /// The object learning of the commit.
        obj: ObjectId,
    },
    /// `<abort, X, A>` — `obj` learns that `txn` aborted.
    Abort {
        /// The aborting transaction.
        txn: TxnId,
        /// The object learning of the abort.
        obj: ObjectId,
    },
}

impl<A: Adt> Event<A> {
    /// The transaction this event involves.
    pub fn txn(&self) -> TxnId {
        match self {
            Event::Invoke { txn, .. }
            | Event::Respond { txn, .. }
            | Event::Commit { txn, .. }
            | Event::Abort { txn, .. } => *txn,
        }
    }

    /// The object this event involves.
    pub fn obj(&self) -> ObjectId {
        match self {
            Event::Invoke { obj, .. }
            | Event::Respond { obj, .. }
            | Event::Commit { obj, .. }
            | Event::Abort { obj, .. } => *obj,
        }
    }
}

impl<A: Adt> Clone for Event<A> {
    fn clone(&self) -> Self {
        match self {
            Event::Invoke { txn, obj, inv } => {
                Event::Invoke { txn: *txn, obj: *obj, inv: inv.clone() }
            }
            Event::Respond { txn, obj, resp } => {
                Event::Respond { txn: *txn, obj: *obj, resp: resp.clone() }
            }
            Event::Commit { txn, obj } => Event::Commit { txn: *txn, obj: *obj },
            Event::Abort { txn, obj } => Event::Abort { txn: *txn, obj: *obj },
        }
    }
}

impl<A: Adt> PartialEq for Event<A> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Event::Invoke { txn: t1, obj: o1, inv: i1 },
                Event::Invoke { txn: t2, obj: o2, inv: i2 },
            ) => t1 == t2 && o1 == o2 && i1 == i2,
            (
                Event::Respond { txn: t1, obj: o1, resp: r1 },
                Event::Respond { txn: t2, obj: o2, resp: r2 },
            ) => t1 == t2 && o1 == o2 && r1 == r2,
            (Event::Commit { txn: t1, obj: o1 }, Event::Commit { txn: t2, obj: o2 })
            | (Event::Abort { txn: t1, obj: o1 }, Event::Abort { txn: t2, obj: o2 }) => {
                t1 == t2 && o1 == o2
            }
            _ => false,
        }
    }
}
impl<A: Adt> Eq for Event<A> {}

impl<A: Adt> fmt::Debug for Event<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Invoke { txn, obj, inv } => write!(f, "<{inv:?}, {obj}, {txn}>"),
            Event::Respond { txn, obj, resp } => write!(f, "<{resp:?}, {obj}, {txn}>"),
            Event::Commit { txn, obj } => write!(f, "<commit, {obj}, {txn}>"),
            Event::Abort { txn, obj } => write!(f, "<abort, {obj}, {txn}>"),
        }
    }
}

/// A violation of the well-formedness constraints of §2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WfError {
    /// A transaction invoked an operation while one was still pending.
    OverlappingInvocation {
        /// The offending transaction.
        txn: TxnId,
    },
    /// A response was generated with no matching pending invocation.
    ResponseWithoutInvocation {
        /// The transaction the response was addressed to.
        txn: TxnId,
        /// The object that generated the response.
        obj: ObjectId,
    },
    /// A transaction committed and aborted (possibly at different objects).
    CommitAndAbort {
        /// The offending transaction.
        txn: TxnId,
    },
    /// A transaction committed while an invocation was pending.
    CommitWhilePending {
        /// The offending transaction.
        txn: TxnId,
    },
    /// A transaction invoked an operation after committing or aborting.
    EventAfterCompletion {
        /// The offending transaction.
        txn: TxnId,
    },
    /// Duplicate commit or abort at the same object.
    DuplicateCompletion {
        /// The offending transaction.
        txn: TxnId,
        /// The object at which the duplicate completion occurred.
        obj: ObjectId,
    },
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfError::OverlappingInvocation { txn } => {
                write!(f, "{txn} invoked while an invocation was pending")
            }
            WfError::ResponseWithoutInvocation { txn, obj } => {
                write!(f, "response for {txn} at {obj} without a pending invocation")
            }
            WfError::CommitAndAbort { txn } => write!(f, "{txn} both committed and aborted"),
            WfError::CommitWhilePending { txn } => {
                write!(f, "{txn} committed while waiting for a response")
            }
            WfError::EventAfterCompletion { txn } => {
                write!(f, "{txn} invoked an operation after completing")
            }
            WfError::DuplicateCompletion { txn, obj } => {
                write!(f, "{txn} completed twice at {obj}")
            }
        }
    }
}

impl std::error::Error for WfError {}

/// A well-formed finite sequence of events (paper §2).
///
/// `History` maintains well-formedness as an invariant: events are added with
/// [`History::push`], which rejects ill-formed extensions.
pub struct History<A: Adt> {
    events: Vec<Event<A>>,
    /// What [`check_extension`](Self::check_extension) needs to know of the
    /// past, per transaction — a function of `events`, kept in step by
    /// `push` and `truncate` so that neither rescans the event list.
    index: BTreeMap<TxnId, TxnWf>,
}

/// One transaction's well-formedness state.
#[derive(Clone, Default)]
struct TxnWf {
    /// Positions in `events` of the transaction's `Invoke`s, in order.
    invokes: Vec<usize>,
    /// Whether the last of `invokes` still waits for its `Respond`.
    pending: bool,
    /// Objects with a `Commit` event of the transaction.
    committed_at: BTreeSet<ObjectId>,
    /// Objects with an `Abort` event of the transaction.
    aborted_at: BTreeSet<ObjectId>,
}

impl TxnWf {
    /// Account for `e`, a well-formed extension landing at position `at`.
    fn apply<A: Adt>(&mut self, at: usize, e: &Event<A>) {
        match e {
            Event::Invoke { .. } => {
                self.invokes.push(at);
                self.pending = true;
            }
            Event::Respond { .. } => self.pending = false,
            Event::Commit { obj, .. } => {
                self.committed_at.insert(*obj);
            }
            Event::Abort { obj, .. } => {
                self.aborted_at.insert(*obj);
            }
        }
    }

    /// Exact inverse of [`apply`](Self::apply) for the transaction's most
    /// recent event.
    fn undo<A: Adt>(&mut self, e: &Event<A>) {
        match e {
            Event::Invoke { .. } => {
                self.invokes.pop();
                self.pending = false;
            }
            Event::Respond { .. } => self.pending = true,
            Event::Commit { obj, .. } => {
                self.committed_at.remove(obj);
            }
            Event::Abort { obj, .. } => {
                self.aborted_at.remove(obj);
            }
        }
    }
}

impl<A: Adt> Clone for History<A> {
    fn clone(&self) -> Self {
        History { events: self.events.clone(), index: self.index.clone() }
    }
}

impl<A: Adt> PartialEq for History<A> {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}
impl<A: Adt> Eq for History<A> {}

impl<A: Adt> Default for History<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Adt> History<A> {
    /// The empty history Λ.
    pub fn new() -> Self {
        History { events: Vec::new(), index: BTreeMap::new() }
    }

    /// Wrap events already known to be well-formed (a projection or a
    /// reordering by transaction of a history), indexing them in one pass.
    fn indexed(events: Vec<Event<A>>) -> Self {
        let mut index: BTreeMap<TxnId, TxnWf> = BTreeMap::new();
        for (at, e) in events.iter().enumerate() {
            index.entry(e.txn()).or_default().apply(at, e);
        }
        History { events, index }
    }

    /// Build a history from events, validating well-formedness.
    pub fn from_events(events: Vec<Event<A>>) -> Result<Self, WfError> {
        let mut h = History::new();
        for e in events {
            h.push(e)?;
        }
        Ok(h)
    }

    /// The events, in order.
    pub fn events(&self) -> &[Event<A>] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether this is the empty history.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append an event, enforcing the well-formedness constraints.
    pub fn push(&mut self, e: Event<A>) -> Result<(), WfError> {
        self.check_extension(&e)?;
        self.index.entry(e.txn()).or_default().apply(self.events.len(), &e);
        self.events.push(e);
        Ok(())
    }

    /// A 64-bit FNV-1a digest of the history: the fold of every event's
    /// canonical `Debug` rendering, mixed with the event count. Two histories
    /// fingerprint equal iff they render the same event sequence — the
    /// determinism witness used by the fault-injection simulator (same seed
    /// and fault plan ⇒ same fingerprint across runs).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            mix(format!("{e:?}").as_bytes());
            mix(&[0xff]); // event separator
        }
        h
    }

    /// Whether `e` is a well-formed extension of this history.
    pub fn check_extension(&self, e: &Event<A>) -> Result<(), WfError> {
        let txn = e.txn();
        let wf = self.index.get(&txn);
        let committed = wf.is_some_and(|w| !w.committed_at.is_empty());
        let aborted = wf.is_some_and(|w| !w.aborted_at.is_empty());
        let pending = wf.is_some_and(|w| w.pending);
        match e {
            Event::Invoke { .. } => {
                if committed || aborted {
                    return Err(WfError::EventAfterCompletion { txn });
                }
                if pending {
                    return Err(WfError::OverlappingInvocation { txn });
                }
            }
            Event::Respond { obj, .. } => {
                if committed || aborted {
                    return Err(WfError::EventAfterCompletion { txn });
                }
                match self.pending_invocation(txn) {
                    Some((pobj, _)) if pobj == *obj => {}
                    _ => return Err(WfError::ResponseWithoutInvocation { txn, obj: *obj }),
                }
            }
            Event::Commit { obj, .. } => {
                if aborted {
                    return Err(WfError::CommitAndAbort { txn });
                }
                if pending {
                    return Err(WfError::CommitWhilePending { txn });
                }
                if wf.is_some_and(|w| w.committed_at.contains(obj)) {
                    return Err(WfError::DuplicateCompletion { txn, obj: *obj });
                }
            }
            Event::Abort { obj, .. } => {
                if committed {
                    return Err(WfError::CommitAndAbort { txn });
                }
                if wf.is_some_and(|w| w.aborted_at.contains(obj)) {
                    return Err(WfError::DuplicateCompletion { txn, obj: *obj });
                }
            }
        }
        Ok(())
    }

    /// Truncate to the first `len` events. Prefixes of well-formed histories
    /// are well-formed, so the invariant is preserved. Crate-internal: used
    /// by the explorer to backtrack cheaply (each dropped event is undone in
    /// the index; nothing is rebuilt).
    pub(crate) fn truncate(&mut self, len: usize) {
        while self.events.len() > len {
            let e = self.events.pop().expect("longer than len");
            self.index.get_mut(&e.txn()).expect("every event is indexed").undo(&e);
        }
    }

    /// The pending invocation of `txn`, if any: the object and invocation of
    /// the last `Invoke` with no later `Respond`.
    pub fn pending_invocation(&self, txn: TxnId) -> Option<(ObjectId, &A::Invocation)> {
        let wf = self.index.get(&txn).filter(|w| w.pending)?;
        match &self.events[*wf.invokes.last().expect("pending implies an invoke")] {
            Event::Invoke { obj, inv, .. } => Some((*obj, inv)),
            _ => unreachable!("`invokes` holds positions of Invoke events"),
        }
    }

    /// `Committed(H)`: transactions with a commit event.
    pub fn committed(&self) -> BTreeSet<TxnId> {
        self.index.iter().filter(|(_, w)| !w.committed_at.is_empty()).map(|(t, _)| *t).collect()
    }

    /// `Aborted(H)`: transactions with an abort event.
    pub fn aborted(&self) -> BTreeSet<TxnId> {
        self.index.iter().filter(|(_, w)| !w.aborted_at.is_empty()).map(|(t, _)| *t).collect()
    }

    /// Transactions appearing in this history.
    pub fn txns(&self) -> BTreeSet<TxnId> {
        self.events.iter().map(|e| e.txn()).collect()
    }

    /// `Active(H)` restricted to the transactions that appear in `H`:
    /// appearing transactions that neither committed nor aborted.
    pub fn active(&self) -> BTreeSet<TxnId> {
        let committed = self.committed();
        let aborted = self.aborted();
        self.txns().into_iter().filter(|t| !committed.contains(t) && !aborted.contains(t)).collect()
    }

    /// Objects appearing in this history.
    pub fn objects(&self) -> BTreeSet<ObjectId> {
        self.events.iter().map(|e| e.obj()).collect()
    }

    /// `H|A` for a set of transactions: the subsequence of events involving
    /// them. Projections of well-formed histories are well-formed.
    pub fn project_txns(&self, txns: &BTreeSet<TxnId>) -> History<A> {
        History::indexed(self.events.iter().filter(|e| txns.contains(&e.txn())).cloned().collect())
    }

    /// `H|A` for a single transaction.
    pub fn project_txn(&self, txn: TxnId) -> History<A> {
        let mut set = BTreeSet::new();
        set.insert(txn);
        self.project_txns(&set)
    }

    /// `H|X` for a single object.
    pub fn project_obj(&self, obj: ObjectId) -> History<A> {
        History::indexed(self.events.iter().filter(|e| e.obj() == obj).cloned().collect())
    }

    /// `permanent(H) = H | Committed(H)` (paper §3.3).
    pub fn permanent(&self) -> History<A> {
        self.project_txns(&self.committed())
    }

    /// `H | (ACT − Aborted(H))`: everything but aborted transactions; the
    /// basis of the UIP view (paper §5).
    pub fn project_not_aborted(&self) -> History<A> {
        let aborted = self.aborted();
        History::indexed(
            self.events.iter().filter(|e| !aborted.contains(&e.txn())).cloned().collect(),
        )
    }

    /// `Opseq(H)` (paper §3.3): the operations of `H` in response order,
    /// tagged with the object they executed at. Pending invocations, commits
    /// and aborts are ignored.
    pub fn opseq(&self) -> Vec<(ObjectId, Op<A>)> {
        let mut out = Vec::new();
        // For each Respond, find its pending invocation: track per txn.
        let mut pending: Vec<(TxnId, ObjectId, A::Invocation)> = Vec::new();
        for e in &self.events {
            match e {
                Event::Invoke { txn, obj, inv } => {
                    pending.retain(|(t, _, _)| t != txn);
                    pending.push((*txn, *obj, inv.clone()));
                }
                Event::Respond { txn, obj, resp } => {
                    if let Some(pos) = pending.iter().position(|(t, o, _)| t == txn && o == obj) {
                        let (_, _, inv) = pending.remove(pos);
                        out.push((*obj, Op::new(inv, resp.clone())));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// `Opseq(H|X)`: the operation sequence at a single object.
    pub fn opseq_at(&self, obj: ObjectId) -> Vec<Op<A>> {
        self.opseq().into_iter().filter(|(o, _)| *o == obj).map(|(_, op)| op).collect()
    }

    /// `Serial(H, T)` (paper §3.3): the serial history equivalent to `H` with
    /// transactions in the order given. Transactions of `H` not listed in
    /// `order` are dropped; listed transactions not in `H` contribute nothing.
    pub fn serial(&self, order: &[TxnId]) -> History<A> {
        let mut events = Vec::new();
        for txn in order {
            events.extend(self.events.iter().filter(|e| e.txn() == *txn).cloned());
        }
        History::indexed(events)
    }

    /// Two histories are equivalent iff every transaction performs the same
    /// steps in both (paper §3.3).
    pub fn equivalent(&self, other: &History<A>) -> bool {
        let mut txns = self.txns();
        txns.extend(other.txns());
        txns.iter().all(|t| self.project_txn(*t).events == other.project_txn(*t).events)
    }

    /// `precedes(H)` (paper §3.4): pairs `(A, B)` such that some operation
    /// invoked by `B` **responds after `A` commits** (at any objects). This is
    /// the dynamic serialization order that dynamic atomicity must respect.
    pub fn precedes(&self) -> Vec<(TxnId, TxnId)> {
        // first commit index per transaction
        let mut first_commit: Vec<(TxnId, usize)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if let Event::Commit { txn, .. } = e {
                if !first_commit.iter().any(|(t, _)| t == txn) {
                    first_commit.push((*txn, i));
                }
            }
        }
        let mut pairs = Vec::new();
        for (a, ci) in &first_commit {
            let mut seen = BTreeSet::new();
            for e in &self.events[ci + 1..] {
                if let Event::Respond { txn: b, .. } = e {
                    if b != a && seen.insert(*b) {
                        pairs.push((*a, *b));
                    }
                }
            }
        }
        pairs
    }

    /// `Commit-order(H)` (paper §5): committed transactions ordered by their
    /// first commit event.
    pub fn commit_order(&self) -> Vec<TxnId> {
        let mut order = Vec::new();
        for e in &self.events {
            if let Event::Commit { txn, .. } = e {
                if !order.contains(txn) {
                    order.push(*txn);
                }
            }
        }
        order
    }

    /// Whether this history is *serial and failure-free*: events of different
    /// transactions do not interleave and no transaction aborts (paper §3.3).
    pub fn is_serial_failure_free(&self) -> bool {
        if !self.aborted().is_empty() {
            return false;
        }
        let mut seen: Vec<TxnId> = Vec::new();
        for e in &self.events {
            let t = e.txn();
            match seen.last() {
                Some(last) if *last == t => {}
                _ => {
                    if seen.contains(&t) {
                        return false; // t re-appears after another txn ran
                    }
                    seen.push(t);
                }
            }
        }
        true
    }
}

impl<A: Adt> fmt::Debug for History<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "History [")?;
        for e in &self.events {
            writeln!(f, "  {e:?}")?;
        }
        write!(f, "]")
    }
}

impl<A: Adt> fmt::Display for History<A> {
    /// Render in the paper's event-listing notation, one event per line:
    ///
    /// ```text
    /// <deposit(3), X, A>
    /// <ok, X, A>
    /// <commit, X, A>
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e:?}")?;
        }
        Ok(())
    }
}

/// Builder sugar for constructing single- and multi-object histories in tests
/// and experiment drivers.
pub struct HistoryBuilder<A: Adt> {
    history: History<A>,
    adt_check: Option<A>,
}

impl<A: Adt> HistoryBuilder<A> {
    /// Start an empty history. If `adt` is given, every completed operation is
    /// additionally checked for *local* spec legality at each object, which
    /// catches typos in hand-written paper histories.
    pub fn new(adt_check: Option<A>) -> Self {
        HistoryBuilder { history: History::new(), adt_check }
    }

    /// Execute a complete operation (invocation immediately followed by its
    /// response) by `txn` at `obj`.
    pub fn op(mut self, txn: TxnId, obj: ObjectId, inv: A::Invocation, resp: A::Response) -> Self {
        self.history.push(Event::Invoke { txn, obj, inv }).expect("well-formed invoke");
        self.history.push(Event::Respond { txn, obj, resp }).expect("well-formed respond");
        if let Some(adt) = &self.adt_check {
            let ops = self.history.opseq_at(obj);
            assert!(
                crate::spec::legal(adt, &ops),
                "operation sequence at {obj} is not legal: {ops:?}"
            );
        }
        self
    }

    /// Commit `txn` at `obj`.
    pub fn commit(mut self, txn: TxnId, obj: ObjectId) -> Self {
        self.history.push(Event::Commit { txn, obj }).expect("well-formed commit");
        self
    }

    /// Abort `txn` at `obj`.
    pub fn abort(mut self, txn: TxnId, obj: ObjectId) -> Self {
        self.history.push(Event::Abort { txn, obj }).expect("well-formed abort");
        self
    }

    /// Finish building.
    pub fn build(self) -> History<A> {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::test_adt::*;

    type H = History<MiniCounter>;
    const T: fn(u32) -> TxnId = TxnId;
    const X: ObjectId = ObjectId::SOLE;

    fn ev_inv(t: u32, inv: CInv) -> Event<MiniCounter> {
        Event::Invoke { txn: T(t), obj: X, inv }
    }
    fn ev_resp(t: u32, resp: CResp) -> Event<MiniCounter> {
        Event::Respond { txn: T(t), obj: X, resp }
    }
    fn ev_commit(t: u32) -> Event<MiniCounter> {
        Event::Commit { txn: T(t), obj: X }
    }
    fn ev_abort(t: u32) -> Event<MiniCounter> {
        Event::Abort { txn: T(t), obj: X }
    }

    #[test]
    fn fingerprint_separates_histories_and_is_stable() {
        let a = H::from_events(vec![ev_inv(0, CInv::Inc), ev_resp(0, CResp::Ok), ev_commit(0)])
            .unwrap();
        let b =
            H::from_events(vec![ev_inv(0, CInv::Inc), ev_resp(0, CResp::Ok), ev_abort(0)]).unwrap();
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), H::new().fingerprint());
    }

    fn sample() -> H {
        History::from_events(vec![
            ev_inv(0, CInv::Inc),
            ev_resp(0, CResp::Ok),
            ev_inv(1, CInv::Inc),
            ev_resp(1, CResp::Ok),
            ev_commit(0),
            ev_inv(1, CInv::Read),
            ev_resp(1, CResp::Val(2)),
            ev_commit(1),
            ev_inv(2, CInv::Dec),
            ev_resp(2, CResp::Ok),
            ev_abort(2),
        ])
        .unwrap()
    }

    #[test]
    fn wf_rejects_overlapping_invocations() {
        let mut h = H::new();
        h.push(ev_inv(0, CInv::Inc)).unwrap();
        assert_eq!(
            h.push(ev_inv(0, CInv::Read)),
            Err(WfError::OverlappingInvocation { txn: T(0) })
        );
        // but a different transaction may invoke concurrently
        h.push(ev_inv(1, CInv::Read)).unwrap();
    }

    #[test]
    fn wf_rejects_response_without_invocation() {
        let mut h = H::new();
        assert_eq!(
            h.push(ev_resp(0, CResp::Ok)),
            Err(WfError::ResponseWithoutInvocation { txn: T(0), obj: X })
        );
    }

    #[test]
    fn wf_response_must_match_pending_object() {
        let mut h = H::new();
        h.push(ev_inv(0, CInv::Inc)).unwrap();
        let other = ObjectId(7);
        assert_eq!(
            h.push(Event::Respond { txn: T(0), obj: other, resp: CResp::Ok }),
            Err(WfError::ResponseWithoutInvocation { txn: T(0), obj: other })
        );
    }

    #[test]
    fn wf_rejects_commit_and_abort() {
        let mut h = H::new();
        h.push(ev_commit(0)).unwrap();
        assert_eq!(h.push(ev_abort(0)), Err(WfError::CommitAndAbort { txn: T(0) }));
        let mut h2 = H::new();
        h2.push(ev_abort(1)).unwrap();
        assert_eq!(h2.push(ev_commit(1)), Err(WfError::CommitAndAbort { txn: T(1) }));
    }

    #[test]
    fn wf_rejects_commit_while_pending_and_events_after_completion() {
        let mut h = H::new();
        h.push(ev_inv(0, CInv::Inc)).unwrap();
        assert_eq!(h.push(ev_commit(0)), Err(WfError::CommitWhilePending { txn: T(0) }));
        h.push(ev_resp(0, CResp::Ok)).unwrap();
        h.push(ev_commit(0)).unwrap();
        assert_eq!(h.push(ev_inv(0, CInv::Read)), Err(WfError::EventAfterCompletion { txn: T(0) }));
        assert_eq!(h.push(ev_commit(0)), Err(WfError::DuplicateCompletion { txn: T(0), obj: X }));
    }

    #[test]
    fn committed_aborted_active_sets() {
        let h = sample();
        assert_eq!(h.committed(), [T(0), T(1)].into_iter().collect());
        assert_eq!(h.aborted(), [T(2)].into_iter().collect());
        assert!(h.active().is_empty());
    }

    #[test]
    fn opseq_drops_pending_and_completion_events() {
        let mut h = sample();
        h.push(ev_inv(3, CInv::Read)).unwrap(); // pending, no response
        let ops = h.opseq();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[0].1, Op::new(CInv::Inc, CResp::Ok));
        assert_eq!(ops[2].1, Op::new(CInv::Read, CResp::Val(2)));
        assert_eq!(ops[3].1, Op::new(CInv::Dec, CResp::Ok));
    }

    #[test]
    fn permanent_keeps_only_committed() {
        let h = sample();
        let p = h.permanent();
        assert_eq!(p.txns(), [T(0), T(1)].into_iter().collect());
        assert_eq!(p.opseq().len(), 3);
    }

    #[test]
    fn serial_concatenates_projections() {
        let h = sample();
        let s = h.serial(&[T(1), T(0)]);
        let ops = s.opseq_at(X);
        // T1's ops (inc, read 2) then T0's (inc)
        assert_eq!(ops[0], Op::new(CInv::Inc, CResp::Ok));
        assert_eq!(ops[1], Op::new(CInv::Read, CResp::Val(2)));
        assert_eq!(ops[2], Op::new(CInv::Inc, CResp::Ok));
        assert!(s.is_serial_failure_free());
        assert!(h.equivalent(&h.serial(&[T(0), T(1), T(2)])));
    }

    #[test]
    fn precedes_captures_commit_response_order() {
        let h = sample();
        let prec = h.precedes();
        // T1's read responds after T0's commit; T2's dec responds after both.
        assert!(prec.contains(&(T(0), T(1))));
        assert!(prec.contains(&(T(0), T(2))));
        assert!(prec.contains(&(T(1), T(2))));
        assert!(!prec.contains(&(T(1), T(0))));
    }

    #[test]
    fn commit_order_is_first_commit_order() {
        let h = sample();
        assert_eq!(h.commit_order(), vec![T(0), T(1)]);
    }

    #[test]
    fn serial_failure_free_detects_interleaving() {
        let h = sample();
        assert!(!h.is_serial_failure_free()); // T2 aborted, T0/T1 interleave
        let s = h.permanent().serial(&[T(0), T(1)]);
        assert!(s.is_serial_failure_free());
        let interleaved = History::from_events(vec![
            ev_inv(0, CInv::Inc),
            ev_resp(0, CResp::Ok),
            ev_inv(1, CInv::Inc),
            ev_resp(1, CResp::Ok),
            ev_inv(0, CInv::Read),
            ev_resp(0, CResp::Val(2)),
        ])
        .unwrap();
        assert!(!interleaved.is_serial_failure_free());
    }

    #[test]
    fn builder_checks_local_legality() {
        let h = HistoryBuilder::new(Some(plain(3)))
            .op(T(0), X, CInv::Inc, CResp::Ok)
            .commit(T(0), X)
            .op(T(1), X, CInv::Read, CResp::Val(1))
            .build();
        assert_eq!(h.len(), 5);
    }

    #[test]
    #[should_panic(expected = "not legal")]
    fn builder_panics_on_illegal_op() {
        let _ = HistoryBuilder::new(Some(plain(3))).op(T(0), X, CInv::Read, CResp::Val(9)).build();
    }

    #[test]
    fn display_renders_paper_notation() {
        let h: History<MiniCounter> =
            HistoryBuilder::new(None).op(T(0), X, CInv::Inc, CResp::Ok).commit(T(0), X).build();
        let s = h.to_string();
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("<Inc, X, A>"));
        assert!(s.contains("<commit, X, A>"));
    }

    /// `check_extension` as it was before the index: every answer re-derived
    /// from the event list. The reference the indexed version must agree with.
    fn check_extension_by_scan(h: &H, e: &Event<MiniCounter>) -> Result<(), WfError> {
        let txn = e.txn();
        let events = h.events();
        let committed =
            events.iter().any(|p| matches!(p, Event::Commit { txn: t, .. } if *t == txn));
        let aborted = events.iter().any(|p| matches!(p, Event::Abort { txn: t, .. } if *t == txn));
        let mut pending = None;
        for p in events.iter().filter(|p| p.txn() == txn) {
            match p {
                Event::Invoke { obj, .. } => pending = Some(*obj),
                Event::Respond { .. } => pending = None,
                _ => {}
            }
        }
        match e {
            Event::Invoke { .. } => {
                if committed || aborted {
                    return Err(WfError::EventAfterCompletion { txn });
                }
                if pending.is_some() {
                    return Err(WfError::OverlappingInvocation { txn });
                }
            }
            Event::Respond { obj, .. } => {
                if committed || aborted {
                    return Err(WfError::EventAfterCompletion { txn });
                }
                if pending != Some(*obj) {
                    return Err(WfError::ResponseWithoutInvocation { txn, obj: *obj });
                }
            }
            Event::Commit { obj, .. } => {
                if aborted {
                    return Err(WfError::CommitAndAbort { txn });
                }
                if pending.is_some() {
                    return Err(WfError::CommitWhilePending { txn });
                }
                if events.contains(&Event::Commit { txn, obj: *obj }) {
                    return Err(WfError::DuplicateCompletion { txn, obj: *obj });
                }
            }
            Event::Abort { obj, .. } => {
                if committed {
                    return Err(WfError::CommitAndAbort { txn });
                }
                if events.contains(&Event::Abort { txn, obj: *obj }) {
                    return Err(WfError::DuplicateCompletion { txn, obj: *obj });
                }
            }
        }
        Ok(())
    }

    /// xorshift64*: the test's own stream, so the cases never move with a
    /// dependency.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
        }
    }

    /// A random event over a few transactions and objects. Three times in
    /// four it is one the transaction could plausibly issue next (so
    /// histories grow long); otherwise anything at all (so every `WfError`
    /// is provoked).
    fn random_event(h: &H, rng: &mut Rng) -> Event<MiniCounter> {
        let txn = T(rng.below(6) as u32);
        let mut obj = ObjectId(rng.below(3) as u32);
        let mut kind = rng.below(4);
        if rng.below(4) > 0 {
            match h.pending_invocation(txn) {
                Some((pobj, _)) => (kind, obj) = (1, pobj),
                None if kind == 1 => kind = 0,
                None => {}
            }
        }
        match kind {
            0 => Event::Invoke {
                txn,
                obj,
                inv: [CInv::Inc, CInv::Dec, CInv::Read][rng.below(3) as usize].clone(),
            },
            1 => Event::Respond { txn, obj, resp: CResp::Val(rng.below(3) as u32) },
            2 => Event::Commit { txn, obj },
            _ => Event::Abort { txn, obj },
        }
    }

    #[test]
    fn indexed_check_extension_agrees_with_the_scanning_reference() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut cases, mut accepted, mut refused) = (0u32, 0u32, 0u32);
        for _stream in 0..300 {
            let mut h = H::new();
            for _step in 0..60 {
                // Now and then swap the history for a derived one: the index
                // of a truncation, a clone, a projection or a serialisation
                // must answer exactly as one built by pushes.
                match rng.below(24) {
                    0 => h.truncate(rng.below(h.len() as u64 + 1) as usize),
                    1 => h = h.clone(),
                    2 => h = h.project_txns(&(0..6).filter(|_| rng.below(2) == 0).map(T).collect()),
                    3 => h = h.project_obj(ObjectId(rng.below(3) as u32)),
                    4 => h = h.project_not_aborted(),
                    5 => {
                        let mut order: Vec<TxnId> = h.txns().into_iter().collect();
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.below(i as u64 + 1) as usize);
                        }
                        h = h.serial(&order);
                    }
                    _ => {}
                }
                let e = random_event(&h, &mut rng);
                let verdict = h.check_extension(&e);
                assert_eq!(verdict, check_extension_by_scan(&h, &e), "extending {h:?} by {e:?}");
                cases += 1;
                match verdict {
                    Ok(()) => {
                        h.push(e).unwrap();
                        accepted += 1;
                    }
                    Err(_) => refused += 1,
                }
            }
        }
        assert!(cases >= 10_000, "{cases} cases");
        assert!(accepted >= 3_000 && refused >= 3_000, "{accepted} accepted, {refused} refused");
    }

    #[test]
    fn truncate_undoes_the_index_event_by_event() {
        // Backtracking as the explorer does it: pop one event, and the
        // history answers as if the event had never been pushed.
        let mut h = sample();
        let full = h.clone();
        while !h.is_empty() {
            let last = h.events()[h.len() - 1].clone();
            h.truncate(h.len() - 1);
            assert_eq!(h.check_extension(&last), Ok(()));
            assert_eq!(h.committed(), H::from_events(h.events().to_vec()).unwrap().committed());
        }
        assert!(h.committed().is_empty() && h.aborted().is_empty());
        assert_eq!(h.pending_invocation(T(0)), None);
        for e in full.events() {
            h.push(e.clone()).unwrap();
        }
        assert_eq!(h, full);
    }

    #[test]
    fn project_not_aborted_excludes_aborted() {
        let h = sample();
        let p = h.project_not_aborted();
        assert!(!p.txns().contains(&T(2)));
        assert_eq!(p.opseq().len(), 3);
    }
}
