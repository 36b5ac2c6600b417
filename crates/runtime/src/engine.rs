//! Recovery engines: executable realisations of the paper's two `View`
//! functions (§5).
//!
//! * [`UipEngine`] — **update-in-place**: a single current state plus a
//!   tagged operation log. Aborts remove the transaction's entries and
//!   rebuild the state — by *logical inverses* when the ADT provides them
//!   ([`ccr_adt::traits::InvertibleAdt`], O(ops-to-undo)), falling back to
//!   replay of the surviving log (O(log length)). The visible state equals
//!   the paper's `UIP(H, A)` view for every transaction.
//! * [`DuEngine`] — **deferred update**: a committed base state (in commit
//!   order) plus per-transaction intentions lists (private workspaces). The
//!   visible state equals `DU(H, A)`: the committed base plus the
//!   transaction's own operations. Commit applies the intentions to the
//!   base after a validation pass; abort just drops the list.
//!
//! Engine invariants are cross-checked against the abstract `View` functions
//! on recorded histories in the integration tests.

use std::sync::Arc;

use ccr_adt::traits::InvertibleAdt;
use ccr_core::adt::{Adt, Op};
use ccr_core::ids::{ObjectId, TxnId};

use crate::error::RecoveryError;

/// A per-object recovery engine.
pub trait RecoveryEngine<A: Adt>: Send + 'static {
    /// Construct for an object of the given specification, owned or shared.
    fn new(adt: impl Into<Arc<A>>, obj: ObjectId) -> Self;

    /// The serial state transaction `txn` observes (used to choose
    /// responses).
    fn view_state(&mut self, txn: TxnId) -> A::State;

    /// Record an executed operation (the response was chosen against
    /// `view_state(txn)`; `post` is the resulting state).
    fn record(&mut self, txn: TxnId, op: Op<A>, post: A::State);

    /// Validate that `txn` can commit (deferred-update engines check that
    /// the intentions apply to the current base). Must not mutate state.
    fn prepare_commit(&mut self, txn: TxnId) -> Result<(), RecoveryError>;

    /// Commit `txn` (infallible after a successful [`Self::prepare_commit`]).
    fn commit(&mut self, txn: TxnId);

    /// Abort `txn`, undoing its effects.
    fn abort(&mut self, txn: TxnId) -> Result<(), RecoveryError>;

    /// Whether `txn` can no longer proceed because recovery invalidated its
    /// view (deferred-update workspaces whose intentions no longer apply).
    /// The system aborts such transactions with a validation failure.
    fn is_doomed(&mut self, _txn: TxnId) -> bool {
        false
    }

    /// The state reflecting only committed transactions (for inspection and
    /// final-state assertions).
    fn committed_state(&mut self) -> A::State;

    /// Reset the engine so `state` is its committed base — used by crash
    /// recovery to seed an object from a checkpoint image before replaying
    /// the log suffix. All in-flight transaction state is discarded (a crash
    /// already destroyed it).
    fn restore(&mut self, state: A::State);

    /// Engine name for reports.
    fn name() -> &'static str;
}

/// What an engine keeps of the lists that empty when its object goes quiet,
/// so that the next transaction to visit allocates nothing: a list with room
/// for at most this many entries keeps its capacity, and at most this many
/// emptied lists are kept aside. Anything larger is freed, so an idle object
/// that was ever touched keeps at most `SPARE + 2` lists of `SPARE` entries —
/// in practice a few hundred bytes.
const SPARE: usize = 8;

/// Give up an emptied list's capacity unless it is small enough to keep.
fn settle<T>(emptied: &mut Vec<T>) {
    debug_assert!(emptied.is_empty());
    if emptied.capacity() > SPARE {
        *emptied = Vec::new();
    }
}

/// Update-in-place engine. See module docs.
///
/// `Clone` snapshots the full volatile engine state (base fold, in-flight
/// log, commit set) — the model checker's explorer clones whole systems.
#[derive(Clone)]
pub struct UipEngine<A: Adt> {
    adt: Arc<A>,
    obj: ObjectId,
    /// State reflecting `base_committed` (a fold of compacted log prefix).
    base: A::State,
    /// Operations of non-aborted transactions executed since `base`, in
    /// execution order.
    log: Vec<(TxnId, Op<A>)>,
    /// Cached fold of `base` + `log` — the single "current" state.
    current: A::State,
    /// Which of the log's owners have committed (for compaction), sorted.
    committed: Vec<TxnId>,
    /// How an abort undoes: by the logical inverses
    /// [`with_inverses`](Self::with_inverses) set, else by replaying the
    /// surviving log from the base.
    inverse: Option<UndoFn<A>>,
}

/// A logical-inverse function: remove `op`'s effect from the state.
type UndoFn<A> = fn(&A, &<A as Adt>::State, &Op<A>) -> Option<<A as Adt>::State>;

impl<A: Adt> RecoveryEngine<A> for UipEngine<A> {
    fn new(adt: impl Into<Arc<A>>, obj: ObjectId) -> Self {
        let adt = adt.into();
        let base = adt.initial();
        UipEngine {
            current: base.clone(),
            base,
            adt,
            obj,
            log: Vec::new(),
            committed: Vec::new(),
            inverse: None,
        }
    }

    fn view_state(&mut self, _txn: TxnId) -> A::State {
        // UIP exposes the same current state to every transaction.
        self.current.clone()
    }

    fn record(&mut self, txn: TxnId, op: Op<A>, post: A::State) {
        debug_assert!(self.adt.apply(&self.current, &op).contains(&post));
        self.log.push((txn, op));
        self.current = post;
    }

    fn prepare_commit(&mut self, _txn: TxnId) -> Result<(), RecoveryError> {
        Ok(()) // update-in-place commits are trivially valid
    }

    fn commit(&mut self, txn: TxnId) {
        if let Err(at) = self.committed.binary_search(&txn) {
            self.committed.insert(at, txn);
        }
        self.compact();
    }

    fn abort(&mut self, txn: TxnId) -> Result<(), RecoveryError> {
        let mut undone =
            self.log.iter().rev().filter(|(t, _)| *t == txn).map(|(_, op)| op).peekable();
        if undone.peek().is_none() {
            return Ok(());
        }
        // Newest first; an operation without an inverse falls back to replay.
        let inverted = self.inverse.and_then(|invert| {
            undone.try_fold(self.current.clone(), |s, op| invert(&self.adt, &s, op))
        });
        self.log.retain(|(t, _)| *t != txn);
        match inverted {
            Some(s) => {
                self.current = s;
                Ok(())
            }
            None => self.replay(),
        }
    }

    fn committed_state(&mut self) -> A::State {
        // Fold only committed owners' operations over the base. Under an
        // `NRBC`-containing conflict relation the committed subsequence is
        // legal; if not, fall back to the raw current state.
        let mut s = self.base.clone();
        for (t, op) in &self.log {
            if self.has_committed(*t) {
                match self.adt.apply(&s, op).into_iter().next() {
                    Some(s2) => s = s2,
                    None => return self.current.clone(),
                }
            }
        }
        s
    }

    fn restore(&mut self, state: A::State) {
        self.base = state.clone();
        self.current = state;
        self.log.clear();
        self.committed.clear();
    }

    fn name() -> &'static str {
        "UIP"
    }
}

impl<A: Adt> UipEngine<A> {
    fn has_committed(&self, txn: TxnId) -> bool {
        self.committed.binary_search(&txn).is_ok()
    }

    /// Rebuild `current` by replaying the surviving log over `base`.
    fn replay(&mut self) -> Result<(), RecoveryError> {
        let mut s = self.base.clone();
        for (_, op) in &self.log {
            // Op-deterministic ADTs have at most one post-state; for others
            // the first is taken (a fixed choice function, as §4 permits).
            match self.adt.apply(&s, op).into_iter().next() {
                Some(s2) => s = s2,
                None => return Err(RecoveryError::ReplayFailed { obj: self.obj }),
            }
        }
        self.current = s;
        Ok(())
    }

    /// Fold committed-prefix operations into the base state so logs do not
    /// grow without bound.
    fn compact(&mut self) {
        let mut folded = 0;
        let mut s = self.base.clone();
        for (t, op) in &self.log {
            if !self.has_committed(*t) {
                break;
            }
            match self.adt.apply(&s, op).into_iter().next() {
                Some(s2) => s = s2,
                None => break,
            }
            folded += 1;
        }
        if folded > 0 {
            self.base = s;
            self.log.drain(..folded);
            // Committed markers are only needed while the owner still has
            // entries in the log; drop the rest so the set stays bounded.
            let log = &self.log;
            self.committed.retain(|t| log.iter().any(|(owner, _)| owner == t));
            if self.committed.is_empty() {
                settle(&mut self.committed);
            }
        }
    }

    /// The number of log entries not yet compacted (for tests and metrics).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
}

impl<A: InvertibleAdt> UipEngine<A> {
    /// Switch abort handling to logical inverses (O(1) per undone op for
    /// constant-size states) with replay as the fallback.
    pub fn with_inverses(mut self) -> Self {
        self.inverse = Some(|adt, s, op| adt.undo(s, op));
        self
    }
}

/// A convenience engine type: update-in-place with inverse-based undo.
#[derive(Clone)]
pub struct UipInverseEngine<A: InvertibleAdt>(UipEngine<A>);

impl<A: InvertibleAdt> RecoveryEngine<A> for UipInverseEngine<A> {
    fn new(adt: impl Into<Arc<A>>, obj: ObjectId) -> Self {
        UipInverseEngine(UipEngine::new(adt, obj).with_inverses())
    }

    fn view_state(&mut self, txn: TxnId) -> A::State {
        self.0.view_state(txn)
    }

    fn record(&mut self, txn: TxnId, op: Op<A>, post: A::State) {
        self.0.record(txn, op, post)
    }

    fn prepare_commit(&mut self, txn: TxnId) -> Result<(), RecoveryError> {
        self.0.prepare_commit(txn)
    }

    fn commit(&mut self, txn: TxnId) {
        self.0.commit(txn)
    }

    fn abort(&mut self, txn: TxnId) -> Result<(), RecoveryError> {
        self.0.abort(txn)
    }

    fn committed_state(&mut self) -> A::State {
        self.0.committed_state()
    }

    fn restore(&mut self, state: A::State) {
        self.0.restore(state)
    }

    fn name() -> &'static str {
        "UIP-inverse"
    }
}

/// Deferred-update engine. See module docs.
///
/// `Clone` snapshots committed base plus every private workspace (and none
/// of the spare lists).
pub struct DuEngine<A: Adt> {
    adt: Arc<A>,
    obj: ObjectId,
    /// State reflecting committed transactions, in commit order.
    base: A::State,
    /// Bumped on every commit; invalidates private-workspace caches.
    base_version: u64,
    /// Intentions and cached private state, sorted by transaction. A
    /// transaction has a workspace iff it has executed an operation here
    /// (the invariant the system's lock table has): [`record`] opens it,
    /// `commit` and `abort` close it, and everybody else reads the base.
    ///
    /// [`record`]: RecoveryEngine::record
    workspaces: Vec<(TxnId, Workspace<A>)>,
    /// Emptied intentions lists of closed workspaces, at most [`SPARE`], for
    /// the next workspace to open.
    spare: Vec<Vec<Op<A>>>,
}

impl<A: Adt> Clone for DuEngine<A> {
    fn clone(&self) -> Self {
        DuEngine {
            adt: Arc::clone(&self.adt),
            obj: self.obj,
            base: self.base.clone(),
            base_version: self.base_version,
            workspaces: self.workspaces.clone(),
            spare: Vec::new(),
        }
    }
}

#[derive(Clone)]
struct Workspace<A: Adt> {
    intentions: Vec<Op<A>>,
    cached: A::State,
    cached_version: u64,
    /// Set if a base change made the intentions inapplicable — the
    /// transaction is doomed and must abort.
    doomed: bool,
}

impl<A: Adt> DuEngine<A> {
    /// Where `txn`'s workspace is (`Ok`) or would be inserted (`Err`).
    fn slot(&self, txn: TxnId) -> Result<usize, usize> {
        self.workspaces.binary_search_by_key(&txn, |(owner, _)| *owner)
    }

    /// The workspace at `slot`, its private state recomputed if the base
    /// moved under it.
    fn refresh(&mut self, slot: usize) -> &mut Workspace<A> {
        let ws = &mut self.workspaces[slot].1;
        if ws.cached_version != self.base_version {
            let mut s = self.base.clone();
            for op in &ws.intentions {
                match self.adt.apply(&s, op).into_iter().next() {
                    Some(s2) => s = s2,
                    None => {
                        ws.doomed = true;
                        break;
                    }
                }
            }
            if !ws.doomed {
                ws.cached = s;
            }
            ws.cached_version = self.base_version;
        }
        ws
    }

    /// `txn`'s up-to-date workspace, if it has executed anything here.
    fn workspace(&mut self, txn: TxnId) -> Option<&mut Workspace<A>> {
        let slot = self.slot(txn).ok()?;
        Some(self.refresh(slot))
    }

    /// Take `txn`'s workspace out, if it has one. An object nobody has a
    /// workspace at keeps no more memory for them than [`SPARE`] allows.
    fn close(&mut self, txn: TxnId) -> Option<Workspace<A>> {
        let slot = self.slot(txn).ok()?;
        let (_, ws) = self.workspaces.remove(slot);
        if self.workspaces.is_empty() {
            settle(&mut self.workspaces);
        }
        Some(ws)
    }

    /// Keep a closed workspace's intentions list, emptied, for the next one.
    fn recycle(&mut self, mut intentions: Vec<Op<A>>) {
        intentions.clear();
        if self.spare.len() < SPARE && intentions.capacity() <= SPARE {
            self.spare.push(intentions);
        }
    }

    /// The transactions holding a workspace, ascending.
    #[cfg(test)]
    pub(crate) fn workspace_owners(&self) -> Vec<TxnId> {
        self.workspaces.iter().map(|(owner, _)| *owner).collect()
    }
}

impl<A: Adt> RecoveryEngine<A> for DuEngine<A> {
    fn new(adt: impl Into<Arc<A>>, obj: ObjectId) -> Self {
        let adt = adt.into();
        DuEngine {
            base: adt.initial(),
            adt,
            obj,
            base_version: 0,
            workspaces: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn view_state(&mut self, txn: TxnId) -> A::State {
        match self.workspace(txn) {
            Some(ws) => ws.cached.clone(),
            None => self.base.clone(),
        }
    }

    fn record(&mut self, txn: TxnId, op: Op<A>, post: A::State) {
        match self.slot(txn) {
            Ok(slot) => {
                let ws = self.refresh(slot);
                debug_assert!(!ws.doomed, "recording on a doomed workspace");
                ws.intentions.push(op);
                ws.cached = post;
            }
            Err(slot) => {
                let mut intentions = self.spare.pop().unwrap_or_default();
                intentions.push(op);
                let ws = Workspace {
                    intentions,
                    cached: post,
                    cached_version: self.base_version,
                    doomed: false,
                };
                self.workspaces.insert(slot, (txn, ws));
            }
        }
    }

    fn prepare_commit(&mut self, txn: TxnId) -> Result<(), RecoveryError> {
        let obj = self.obj;
        let Ok(slot) = self.slot(txn) else {
            return Ok(()); // nothing executed here, nothing to validate
        };
        if self.refresh(slot).doomed {
            return Err(RecoveryError::ApplyFailed { obj });
        }
        let mut s = self.base.clone();
        for op in &self.workspaces[slot].1.intentions {
            match self.adt.apply(&s, op).into_iter().next() {
                Some(s2) => s = s2,
                None => return Err(RecoveryError::ApplyFailed { obj }),
            }
        }
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) {
        let Some(ws) = self.close(txn) else {
            return;
        };
        let mut s = self.base.clone();
        for op in &ws.intentions {
            match self.adt.apply(&s, op).into_iter().next() {
                Some(s2) => s = s2,
                None => unreachable!("commit after successful prepare_commit"),
            }
        }
        self.base = s;
        self.base_version += 1;
        self.recycle(ws.intentions);
    }

    fn abort(&mut self, txn: TxnId) -> Result<(), RecoveryError> {
        // Deferred update makes aborts trivial: discard the workspace.
        if let Some(ws) = self.close(txn) {
            self.recycle(ws.intentions);
        }
        Ok(())
    }

    /// A base change can invalidate a workspace's intentions — possible only
    /// when the conflict relation does not contain `NFC`.
    fn is_doomed(&mut self, txn: TxnId) -> bool {
        self.workspace(txn).is_some_and(|ws| ws.doomed)
    }

    fn committed_state(&mut self) -> A::State {
        self.base.clone()
    }

    fn restore(&mut self, state: A::State) {
        self.base = state;
        self.base_version += 1;
        self.workspaces.clear();
    }

    fn name() -> &'static str {
        "DU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_adt::bank::{ops::*, BankAccount};
    use ccr_core::ids::{ObjectId, TxnId};

    const T: fn(u32) -> TxnId = TxnId;
    const X: ObjectId = ObjectId::SOLE;

    fn record<E: RecoveryEngine<BankAccount>>(
        e: &mut E,
        txn: TxnId,
        op: ccr_core::adt::Op<BankAccount>,
    ) {
        let s = e.view_state(txn);
        let post =
            BankAccount::default().apply(&s, &op).into_iter().next().expect("op legal in view");
        e.record(txn, op, post);
    }

    use ccr_core::adt::Adt;

    #[test]
    fn uip_view_is_shared_and_abort_replays() {
        let mut e = UipEngine::new(BankAccount::default(), X);
        record(&mut e, T(0), deposit(5));
        record(&mut e, T(1), deposit(3));
        // Both transactions see 8 — UIP exposes uncommitted effects.
        assert_eq!(e.view_state(T(0)), 8);
        assert_eq!(e.view_state(T(2)), 8);
        e.abort(T(0)).unwrap();
        assert_eq!(e.view_state(T(1)), 3);
        e.commit(T(1));
        assert_eq!(e.committed_state(), 3);
    }

    #[test]
    fn uip_inverse_undo_matches_replay() {
        // Drive the same interleaving through both undo strategies; the
        // resulting states must agree at every step.
        let mut replay = UipEngine::new(BankAccount::default(), X);
        let mut inverse = UipInverseEngine::new(BankAccount::default(), X);
        let script: &[(&str, TxnId, Option<ccr_core::adt::Op<BankAccount>>)] = &[
            ("op", T(0), Some(deposit(5))),
            ("op", T(1), Some(deposit(7))),
            ("op", T(0), Some(withdraw_ok(2))),
            ("op", T(2), Some(withdraw_ok(4))),
            ("abort", T(0), None),
            ("commit", T(1), None),
            ("abort", T(2), None),
        ];
        for (what, t, op) in script {
            match *what {
                "op" => {
                    let op = op.clone().unwrap();
                    record(&mut replay, *t, op.clone());
                    record(&mut inverse, *t, op);
                }
                "abort" => {
                    replay.abort(*t).unwrap();
                    inverse.abort(*t).unwrap();
                }
                "commit" => {
                    replay.commit(*t);
                    inverse.commit(*t);
                }
                _ => unreachable!(),
            }
            assert_eq!(
                replay.view_state(T(99)),
                inverse.view_state(T(99)),
                "strategies diverged after {what} {t}"
            );
        }
        assert_eq!(replay.committed_state(), 7);
        assert_eq!(inverse.committed_state(), 7);
    }

    #[test]
    fn du_views_are_private() {
        let mut e = DuEngine::new(BankAccount::default(), X);
        record(&mut e, T(0), deposit(5));
        assert_eq!(e.view_state(T(0)), 5, "own ops visible");
        assert_eq!(e.view_state(T(1)), 0, "others' uncommitted ops invisible");
        e.prepare_commit(T(0)).unwrap();
        e.commit(T(0));
        assert_eq!(e.view_state(T(1)), 5, "committed ops visible");
        assert_eq!(e.committed_state(), 5);
    }

    #[test]
    fn du_looking_opens_no_workspace() {
        // Only `record` opens a workspace; a transaction that never executed
        // here reads the base, is never doomed and validates trivially.
        let mut e = DuEngine::new(BankAccount::default(), X);
        record(&mut e, T(0), deposit(5));
        assert_eq!(e.view_state(T(3)), 0);
        assert!(!e.is_doomed(T(4)));
        e.prepare_commit(T(5)).unwrap();
        e.commit(T(6));
        e.abort(T(7)).unwrap();
        assert_eq!(e.workspace_owners(), [T(0)]);
        e.commit(T(0));
        assert!(e.workspaces.is_empty());
        assert_eq!((e.view_state(T(3)), e.is_doomed(T(3))), (5, false));
        assert!(e.workspaces.is_empty());
    }

    #[test]
    fn du_abort_discards_workspace() {
        let mut e = DuEngine::new(BankAccount::default(), X);
        record(&mut e, T(0), deposit(5));
        e.abort(T(0)).unwrap();
        assert_eq!(e.committed_state(), 0);
        assert_eq!(e.view_state(T(0)), 0, "fresh workspace after abort");
    }

    #[test]
    fn du_workspaces_refresh_when_the_base_moves() {
        let mut e = DuEngine::new(BankAccount::default(), X);
        // T1 opens a workspace against the empty base.
        assert_eq!(e.view_state(T(1)), 0);
        record(&mut e, T(1), deposit(3));
        assert_eq!(e.view_state(T(1)), 3);
        // T0 commits a deposit: T1's private view must now include it
        // *before* T1's own intentions (commit order precedes the active
        // transaction's ops in DU(H, A)).
        record(&mut e, T(0), deposit(10));
        e.prepare_commit(T(0)).unwrap();
        e.commit(T(0));
        assert_eq!(e.view_state(T(1)), 13);
        assert!(!e.is_doomed(T(1)));
    }

    #[test]
    fn du_commit_orders_by_commit_not_execution() {
        let mut e = DuEngine::new(BankAccount::default(), X);
        record(&mut e, T(1), deposit(3)); // B executes first
        record(&mut e, T(0), deposit(5));
        e.prepare_commit(T(0)).unwrap();
        e.commit(T(0)); // A commits first
        e.prepare_commit(T(1)).unwrap();
        e.commit(T(1));
        assert_eq!(e.committed_state(), 8);
    }

    #[test]
    fn du_doomed_workspace_fails_validation() {
        // Without NFC conflicts, two concurrent withdrawals over-draw; the
        // second to commit must fail validation.
        let mut e = DuEngine::new(BankAccount::default(), X);
        record(&mut e, T(9), deposit(3));
        e.prepare_commit(T(9)).unwrap();
        e.commit(T(9));
        record(&mut e, T(0), withdraw_ok(3));
        record(&mut e, T(1), withdraw_ok(3)); // both see balance 3
        e.prepare_commit(T(0)).unwrap();
        e.commit(T(0));
        assert!(e.is_doomed(T(1)));
        assert!(e.prepare_commit(T(1)).is_err());
    }

    #[test]
    fn uip_committed_markers_stay_bounded_through_interleaved_commits() {
        // Windows of four transactions execute in id order and commit out of
        // it, so markers outlive their commit while an older owner's entry
        // still heads the log — but never the window.
        let mut e = UipEngine::new(BankAccount::default(), X);
        let mut want = 0;
        for window in 0..2500 {
            for i in 0..4 {
                record(&mut e, T(4 * window + i), deposit(1 + u64::from(i)));
            }
            for i in [2, 3, 0, 1] {
                e.commit(T(4 * window + i));
                want += 1 + u64::from(i);
                assert_eq!(e.committed_state(), want);
                assert!(e.committed.len() <= 2 && e.log_len() <= 4);
                assert!(e.committed.is_sorted());
            }
            assert!(e.committed.is_empty() && e.log_len() == 0);
        }
        assert_eq!(e.view_state(T(0)), want);
    }

    #[test]
    fn uip_compaction_bounds_log() {
        let mut e = UipEngine::new(BankAccount::default(), X);
        for i in 0..10 {
            record(&mut e, T(i), deposit(1));
            e.commit(T(i));
        }
        assert_eq!(e.log_len(), 0, "fully committed log compacts away");
        assert_eq!(e.committed_state(), 10);
    }
}
