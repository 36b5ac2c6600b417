//! The write-ahead buffer: how an executed operation becomes a
//! [`CommitRecord`].
//!
//! A [`TxnSystem`] executes operations; a redo log wants, per committed
//! transaction, its operations stamped with the global order they executed
//! in. [`WriteAhead`] is the one place that bookkeeping lives: it stamps on
//! invoke, drops the buffer on abort, and hands out the record on commit.
//! [`DurableSystem`](crate::crash::DurableSystem) is built from it, and the
//! threaded executor guards one with its system mutex.

use ccr_core::adt::{Adt, Op};
use ccr_core::conflict::Conflict;
use ccr_core::ids::{ObjectId, TxnId, TxnTable};
use ccr_store::CommitRecord;

use crate::engine::RecoveryEngine;
use crate::error::TxnError;
use crate::system::TxnSystem;

/// A [`TxnSystem`] plus the execution-sequence allocator and the
/// executed-but-uncommitted operations of every live transaction.
#[derive(Clone)]
pub(crate) struct WriteAhead<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> {
    /// The volatile system the operations execute in.
    pub(crate) sys: TxnSystem<A, E, C>,
    /// The next execution stamp (stamps every executed op, so UIP replay can
    /// restore execution order across transactions).
    next_seq: u64,
    /// A committed transaction's list leaves with its record and comes back
    /// through [`recycle`](Self::recycle); an aborted one's is emptied and
    /// reused.
    pending: TxnTable<Vec<(u64, ObjectId, Op<A>)>>,
}

impl<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> WriteAhead<A, E, C> {
    /// An empty buffer over `sys`, stamping from `next_seq` on.
    pub(crate) fn new(sys: TxnSystem<A, E, C>, next_seq: u64) -> Self {
        WriteAhead { sys, next_seq, pending: TxnTable::new() }
    }

    /// The next execution stamp to allocate.
    pub(crate) fn exec_seq(&self) -> u64 {
        self.next_seq
    }

    /// Execute an operation and buffer it under its execution stamp.
    pub(crate) fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        let resp = self.sys.invoke(txn, obj, inv.clone())?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.open(txn).push((seq, obj, Op::new(inv, resp.clone())));
        Ok(resp)
    }

    /// Forget `txn`'s buffered operations (it died, or is being killed,
    /// outside [`abort`](Self::abort)).
    pub(crate) fn discard(&mut self, txn: TxnId) {
        self.pending.close(&txn);
    }

    /// Abort `txn`: nothing of it will ever reach a log.
    pub(crate) fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        self.discard(txn);
        self.sys.abort(txn)
    }

    /// Take `txn`'s operations as the record a log would journal for it now.
    /// The floor rides along because recovery reads it back from the log.
    pub(crate) fn record(&mut self, txn: TxnId) -> CommitRecord<A> {
        let ops = self.pending.remove(&txn).unwrap_or_default();
        CommitRecord { floor: self.sys.next_txn_id(), ops }
    }

    /// Hand back the operation list of a record the log now holds, for the
    /// next transaction to fill.
    pub(crate) fn recycle(&mut self, rec: CommitRecord<A>) {
        self.pending.recycle(rec.ops);
    }

    /// Commit `txn` in the volatile system and take its record. A refused
    /// commit leaves the buffer to [`prune`](Self::prune) or
    /// [`discard`](Self::discard).
    pub(crate) fn commit(&mut self, txn: TxnId) -> Result<CommitRecord<A>, TxnError> {
        self.sys.commit(txn)?;
        Ok(self.record(txn))
    }

    /// Drop the buffers of transactions that ended without passing through
    /// here (wound-wait victims, wound storms).
    pub(crate) fn prune(&mut self) {
        self.sys.retain_active(&mut self.pending);
    }
}
