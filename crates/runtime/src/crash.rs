//! Crash recovery (simulated) — the paper's deferred future work (§1).
//!
//! The paper analyses *abort* recovery and explicitly leaves crash recovery
//! for later, noting that crash mechanisms are usually similar but must cope
//! with losing volatile state. This module provides that simulation: a redo
//! journal on stable storage behind the [`LogBackend`] trait, a
//! [`DurableSystem`] wrapper that journals each transaction's operations at
//! commit, and a `crash()` that discards all volatile state (active
//! transactions, lock table, engine caches) and rebuilds from whatever the
//! backend's recovery scan reconstructs.
//!
//! Two backends exist: [`MemBackend`] (the fast default — the struct itself
//! is stable memory, torn writes at operation granularity) and
//! `ccr-store`'s `WalBackend` (a segmented CRC'd write-ahead log on a
//! simulated sector device, with torn/reordered/bit-flipped flush injection).
//! Both feed the same replay pipeline here.
//!
//! Soundness note: the journal holds each committed transaction's operations
//! grouped by transaction, **in commit order**, each operation stamped with
//! its global execution sequence. Dynamic atomicity guarantees the committed
//! transactions are serializable in *every* order consistent with
//! `precedes`, and the commit order is such an order, so redo-replay is
//! legal whenever the underlying pairing is correct (Theorems 9/10) — the
//! recovery verifier checks each replayed response against the journal and
//! surfaces any divergence.
//!
//! Honesty of the restart model: the transaction-id floor, the execution
//! sequence and the durable storage counters are all read back *from the
//! recovered log* (last record's floor, else the checkpoint's, else cold
//! start) — never carried across the crash in process memory. The tracer is
//! the one deliberate exception: it models a monitoring store outside the
//! crashed process.

use std::collections::BTreeMap;

use ccr_core::adt::{Adt, Op};
use ccr_core::conflict::Conflict;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_obs::{CorruptionKind, Phase, Tracer};
use ccr_store::{
    CheckpointImage, CommitRecord, Detection, DiskError, LogBackend, MemBackend, RetryPolicy,
    ScanReport, StoreFailureKind, StoreStats, TailPolicy,
};

use crate::engine::RecoveryEngine;
use crate::error::TxnError;
use crate::system::TxnSystem;

/// The volatile mirror of stable storage: what a successful recovery of the
/// backend would reconstruct right now. The simulator's shadow-fold oracle
/// reads this (it needs the *intended* contents to compare against), while
/// the backend holds the possibly-damaged physical truth.
#[derive(Clone)]
pub struct Journal<A: Adt> {
    /// Commit records folded into the checkpoint base (monotone; never reset
    /// by truncation).
    base_records: u64,
    /// Checkpointed committed state per object, if a checkpoint was taken.
    base: Option<Vec<(ObjectId, A::State)>>,
    /// Commit records after the checkpoint, in commit order.
    records: Vec<CommitRecord<A>>,
}

impl<A: Adt> Default for Journal<A> {
    fn default() -> Self {
        Journal { base_records: 0, base: None, records: Vec::new() }
    }
}

impl<A: Adt> Journal<A> {
    /// Number of committed transactions journaled over the log's whole life
    /// (checkpointed-away records included).
    pub fn len(&self) -> usize {
        self.base_records as usize + self.records.len()
    }

    /// Whether nothing has ever been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records folded into the checkpoint base.
    pub fn base_records(&self) -> u64 {
        self.base_records
    }

    /// The checkpointed committed states, if a checkpoint was taken.
    pub fn base_states(&self) -> Option<&[(ObjectId, A::State)]> {
        self.base.as_deref()
    }

    /// The post-checkpoint commit records, in commit order.
    pub fn records(&self) -> &[CommitRecord<A>] {
        &self.records
    }

    /// The operations of each post-checkpoint record, in commit order — the
    /// input to the simulator's shadow-replay oracle.
    pub fn record_ops(&self) -> impl Iterator<Item = &[(u64, ObjectId, Op<A>)]> {
        self.records.iter().map(|r| r.ops.as_slice())
    }
}

/// Why recovery failed (a diagnostic, not an expected runtime condition —
/// under a Theorem-9/10-correct pairing and an intact journal redo always
/// succeeds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedoError {
    /// A journaled operation produced a different response on replay.
    ResponseDiverged {
        /// Journal record index.
        record: usize,
        /// Operation index within the record.
        op: usize,
    },
    /// A journaled operation was refused by the rebuilt system.
    ReplayRefused {
        /// Journal record index.
        record: usize,
    },
    /// The log tail is incomplete: the crash tore the final flush. Surfaced
    /// under [`TornPolicy::Strict`]. Units follow the backend's tear
    /// granularity: operations for the mem backend, sectors for the WAL.
    TornRecord {
        /// Journal record (mem) or frame (disk) index.
        record: usize,
        /// Units the header promised.
        expected: usize,
        /// Units actually present.
        found: usize,
    },
    /// The recovery scan found damage no tail policy may discard: a CRC
    /// mismatch, interior corruption behind intact frames, or a missing
    /// checkpoint after truncation. Recovery refuses loudly rather than
    /// replaying a log it cannot vouch for.
    CorruptRecord {
        /// First affected sector.
        sector: u64,
    },
    /// The device itself failed during recovery: the transient-retry budget
    /// was exhausted or the device is out of space. (A tripped crash-at-op
    /// trigger — [`DiskError::Crashed`] — never surfaces here: recovery
    /// acknowledges the power loss and recovers again internally.)
    Device {
        /// The underlying device error.
        error: DiskError,
    },
}

/// Whether the durable system accepts commits, or has fallen back to
/// read-only after the device misbehaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SystemMode {
    /// Commits journal through the backend as usual.
    #[default]
    Normal,
    /// The device exhausted its transient-I/O retries or reported itself
    /// full: commits are refused with [`TxnError::ReadOnly`] (the volatile
    /// mirror was rolled back to stable truth, so reads keep serving exactly
    /// the durable committed state). A successful [`DurableSystem::checkpoint`]
    /// on a [healed](DurableSystem::heal_device) device — or a successful
    /// recovery — returns to [`SystemMode::Normal`].
    Degraded,
}

/// How recovery treats a damaged log tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TornPolicy {
    /// Refuse to recover: surface [`RedoError::TornRecord`]. The default —
    /// a torn record must never be replayed as if complete.
    #[default]
    Strict,
    /// Discard the torn record and everything after it (the transaction's
    /// commit never fully reached stable storage, so dropping it is
    /// equivalent to the transaction having aborted), then recover. Interior
    /// corruption is still refused.
    DiscardTail,
}

impl TornPolicy {
    fn tail(self) -> TailPolicy {
        match self {
            TornPolicy::Strict => TailPolicy::Strict,
            TornPolicy::DiscardTail => TailPolicy::DiscardTail,
        }
    }
}

/// A [`TxnSystem`] with write-ahead redo journaling through a pluggable
/// [`LogBackend`] and crash simulation.
pub struct DurableSystem<A, E, C, B = MemBackend<A>>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    sys: TxnSystem<A, E, C>,
    backend: B,
    journal: Journal<A>,
    make: Box<dyn Fn() -> TxnSystem<A, E, C> + Send>,
    /// Global execution-sequence allocator (stamps every executed op, so UIP
    /// replay can restore execution order across transactions). Restored
    /// from the log on recovery.
    op_seq: u64,
    /// Executed-but-uncommitted operations per live transaction, with their
    /// execution stamps — the write-ahead buffer that `commit` journals.
    pending_ops: BTreeMap<TxnId, Vec<(u64, ObjectId, Op<A>)>>,
    /// In-doubt 2PC participants by global transaction id: durably PREPAREd
    /// (the yes-vote reached stable storage) but with no durable decision
    /// yet. The transaction stays *active* in the volatile system — holding
    /// every lock — until [`resolve`](Self::resolve) journals the decision.
    /// Rebuilt from the recovery scan's `in_doubt` set after a crash, with
    /// fresh ghost transactions re-holding the locks.
    prepared: BTreeMap<u64, (TxnId, CommitRecord<A>)>,
    /// Normal, or read-only degraded after a device failure the backend's
    /// retry budget could not hide.
    mode: SystemMode,
    /// Group-commit admission bound: batch members beyond this many staged
    /// records are shed before the volatile commit. 0 = unbounded.
    max_staged: usize,
    /// Stall-detector threshold: a commit attempt whose device-stall delta
    /// reaches this many ticks counts as one strike. 0 = detector off.
    stall_threshold: u64,
    /// Strikes (consecutive over-threshold samples) before the detector
    /// degrades the system. The hysteresis: one slow flush never flips the
    /// mode; sustained latency does.
    stall_strikes: u32,
    /// Consecutive over-threshold samples seen so far.
    stall_streak: u32,
    /// The backend's cumulative stall-tick figure at the last sample, so
    /// each observation charges only the delta.
    seen_stall_ticks: u64,
}

impl<A, E, C> DurableSystem<A, E, C, MemBackend<A>>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
{
    /// Create over a fresh system with `n` objects of `adt`, journaling to
    /// the fast in-memory backend.
    pub fn new(adt: A, n_objects: u32, conflict: C) -> Self {
        Self::with_backend(adt, n_objects, conflict, MemBackend::new())
    }
}

impl<A, E, C, B> DurableSystem<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    /// Create over a fresh system with `n` objects of `adt`, journaling to
    /// an explicit backend (e.g. `ccr-store`'s `WalBackend`).
    pub fn with_backend(adt: A, n_objects: u32, conflict: C, backend: B) -> Self {
        let make = {
            let adt = adt.clone();
            let conflict = conflict.clone();
            Box::new(move || TxnSystem::<A, E, C>::new(adt.clone(), n_objects, conflict.clone()))
        };
        let mut sys = DurableSystem {
            sys: make(),
            backend,
            journal: Journal::default(),
            make,
            op_seq: 0,
            pending_ops: BTreeMap::new(),
            prepared: BTreeMap::new(),
            mode: SystemMode::Normal,
            max_staged: 0,
            stall_threshold: 0,
            stall_strikes: 2,
            stall_streak: 0,
            seen_stall_ticks: 0,
        };
        sys.sys.obs_mut().set_label("backend", sys.backend.name());
        sys
    }

    /// Begin a transaction (volatile until commit).
    pub fn begin(&mut self) -> TxnId {
        self.sys.begin()
    }

    /// Execute an operation (volatile until commit; buffered for the
    /// write-ahead journal with its global execution stamp).
    pub fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        let resp = self.sys.invoke(txn, obj, inv.clone())?;
        let seq = self.op_seq;
        self.op_seq += 1;
        self.pending_ops.entry(txn).or_default().push((seq, obj, Op::new(inv, resp.clone())));
        Ok(resp)
    }

    /// Commit: journal the transaction's operations (force to stable
    /// storage, in commit order), then commit in the volatile system.
    ///
    /// In [`SystemMode::Degraded`] the commit is refused with
    /// [`TxnError::ReadOnly`] and the transaction aborted (its effects were
    /// volatile). A device failure during the append either degrades the
    /// system (retries exhausted, device full — the backend rolled the
    /// append back, so nothing of the record is durable) or, for a tripped
    /// crash-at-op trigger, power-cycles and recovers on the spot: the
    /// transaction then surfaces as [`TxnError::NotActive`], exactly as if
    /// the process had crashed before acknowledging.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), TxnError> {
        if self.mode == SystemMode::Degraded {
            self.pending_ops.remove(&txn);
            let _ = self.sys.abort(txn);
            return Err(TxnError::ReadOnly);
        }
        // Span accounting: the volatile commit (lock release + validate +
        // apply) runs inside the total, as does the journal append with its
        // retry events; both spans close before the append result is judged
        // so a crash-path recovery's events are not charged to this commit.
        let total = self.sys.obs_mut().span_begin(Phase::CommitTotal);
        if let Err(e) = self.sys.commit(txn) {
            self.sys.obs_mut().span_end(total);
            return Err(e);
        }
        let ops = self.pending_ops.remove(&txn).unwrap_or_default();
        // The floor is read back from the log on recovery: journal it.
        let rec = CommitRecord { floor: self.sys.next_txn_id(), ops };
        let journal_span = self.sys.obs_mut().span_begin(Phase::JournalAppend);
        let append = self.backend.append_commit(&rec);
        self.drain_retry_events();
        self.sys.obs_mut().span_end(journal_span);
        self.sys.obs_mut().span_end(total);
        match append {
            Ok(()) => {
                self.journal.records.push(rec);
                self.observe_stalls();
            }
            Err(fail) => {
                return Err(match fail.kind {
                    StoreFailureKind::Device(DiskError::Crashed) => {
                        // The device lost power mid-append: durability of the
                        // record is undecided. Acknowledge the power loss and
                        // recover; the unacknowledged tail is discardable.
                        self.backend.crash();
                        match self.recover_with(TornPolicy::DiscardTail) {
                            Ok(()) => TxnError::NotActive(txn),
                            Err(e) => {
                                self.enter_degraded(format!(
                                    "device crashed mid-commit and recovery failed: {e:?}"
                                ));
                                TxnError::ReadOnly
                            }
                        }
                    }
                    kind => {
                        self.enter_degraded(format!("commit append failed: {kind:?}"));
                        TxnError::ReadOnly
                    }
                });
            }
        }
        // Wound-wait victims and wound storms never reach `abort` here.
        self.sys.retain_active(&mut self.pending_ops);
        Ok(())
    }

    /// Group commit: commit each transaction in the volatile system, then
    /// journal every survivor's record with **one** flush
    /// ([`LogBackend::append_commits`]) instead of one fsync per commit.
    /// Results come back in input order; a transaction the volatile system
    /// refuses (already aborted, wounded behind our back) contributes no
    /// record and its `Err` is returned in its slot. The durability contract
    /// is all-or-prefix: a crash during the flush may lose a suffix of the
    /// batch, but once this returns the whole group is durable.
    pub fn commit_group(&mut self, txns: &[TxnId]) -> Vec<Result<(), TxnError>> {
        if self.mode == SystemMode::Degraded {
            return txns
                .iter()
                .map(|&t| {
                    self.pending_ops.remove(&t);
                    let _ = self.sys.abort(t);
                    Err(TxnError::ReadOnly)
                })
                .collect();
        }
        // One CommitTotal span covers the whole group: every member's
        // volatile commit (with its own Validate span) plus the single
        // batched journal append.
        let total = self.sys.obs_mut().span_begin(Phase::CommitTotal);
        let mut results = Vec::with_capacity(txns.len());
        let mut recs: Vec<CommitRecord<A>> = Vec::new();
        for &txn in txns {
            // Admission gate: once the staged batch reaches the bound, the
            // remaining members are shed *before* their volatile commit —
            // the journal never sees any of their operations, so the shed is
            // atomicity-preserving by construction (equivalent to a clean
            // abort). Callers retry shed transactions with backoff.
            if self.max_staged > 0 && recs.len() >= self.max_staged {
                self.pending_ops.remove(&txn);
                self.sys.obs_mut().on_shed(txn);
                let _ = self.sys.abort(txn);
                results.push(Err(TxnError::Shed));
                continue;
            }
            match self.sys.commit(txn) {
                Ok(()) => {
                    let ops = self.pending_ops.remove(&txn).unwrap_or_default();
                    recs.push(CommitRecord { floor: self.sys.next_txn_id(), ops });
                    results.push(Ok(()));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        if recs.is_empty() {
            self.sys.obs_mut().span_end(total);
        } else {
            let journal_span = self.sys.obs_mut().span_begin(Phase::JournalAppend);
            let append = self.backend.append_commits(&recs);
            self.drain_retry_events();
            self.sys.obs_mut().span_end(journal_span);
            self.sys.obs_mut().span_end(total);
            match append {
                Ok(()) => {
                    self.sys.obs_mut().on_group_flush(recs.len() as u64, 0);
                    self.journal.records.extend(recs);
                    self.observe_stalls();
                }
                Err(fail) => {
                    // The whole batch's durability failed together; rewrite
                    // every volatile acknowledgement. `None` marks the
                    // power-cycle path, where each transaction evaporated
                    // with the crash (NotActive per slot).
                    let err = match fail.kind {
                        StoreFailureKind::Device(DiskError::Crashed) => {
                            self.backend.crash();
                            match self.recover_with(TornPolicy::DiscardTail) {
                                Ok(()) => None,
                                Err(e) => {
                                    self.enter_degraded(format!(
                                        "device crashed mid-batch-flush and recovery failed: {e:?}"
                                    ));
                                    Some(TxnError::ReadOnly)
                                }
                            }
                        }
                        kind => {
                            self.enter_degraded(format!("batch flush failed: {kind:?}"));
                            Some(TxnError::ReadOnly)
                        }
                    };
                    for (slot, &t) in results.iter_mut().zip(txns) {
                        if slot.is_ok() {
                            *slot = Err(err.clone().unwrap_or(TxnError::NotActive(t)));
                        }
                    }
                    return results;
                }
            }
        }
        self.sys.retain_active(&mut self.pending_ops);
        results
    }

    /// Abort (nothing reaches the journal).
    pub fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        self.pending_ops.remove(&txn);
        self.sys.abort(txn)
    }

    /// 2PC phase one, participant side: durably journal a PREPARE record for
    /// `txn` under the coordinator's global id `gtid` — the yes-vote. The
    /// transaction does **not** commit: it stays active in the volatile
    /// system, holding every lock, until [`resolve`](Self::resolve) journals
    /// the coordinator's decision. `Ok` means the vote is durable: this
    /// participant will commit or abort on command, across any number of
    /// crashes (recovery restores the in-doubt transaction as a ghost).
    ///
    /// Any error is a no-vote — per presumed abort the coordinator needs no
    /// durable record to conclude abort. A tripped crash-at-op trigger
    /// power-cycles and recovers on the spot ([`TxnError::NotActive`]); the
    /// prepare may still have reached stable storage, in which case the gtid
    /// resurfaces [in doubt](Self::in_doubt) and the coordinator's abort
    /// decision (or presumption) resolves it.
    pub fn prepare(&mut self, txn: TxnId, gtid: u64) -> Result<(), TxnError> {
        if self.mode == SystemMode::Degraded {
            self.pending_ops.remove(&txn);
            let _ = self.sys.abort(txn);
            return Err(TxnError::ReadOnly);
        }
        if !self.sys.is_active(txn) {
            return Err(TxnError::NotActive(txn));
        }
        assert!(
            !self.prepared.contains_key(&gtid),
            "coordinator bug: gtid {gtid} prepared twice on one participant"
        );
        let ops = self.pending_ops.remove(&txn).unwrap_or_default();
        let rec = CommitRecord { floor: self.sys.next_txn_id(), ops };
        let journal_span = self.sys.obs_mut().span_begin(Phase::JournalAppend);
        let append = self.backend.append_prepare(gtid, &rec);
        self.drain_retry_events();
        self.sys.obs_mut().span_end(journal_span);
        match append {
            Ok(()) => {
                self.sys.obs_mut().on_prepare(txn, gtid);
                self.prepared.insert(gtid, (txn, rec));
                self.observe_stalls();
                Ok(())
            }
            Err(fail) => Err(match fail.kind {
                StoreFailureKind::Device(DiskError::Crashed) => {
                    self.backend.crash();
                    match self.recover_with(TornPolicy::DiscardTail) {
                        Ok(()) => TxnError::NotActive(txn),
                        Err(e) => {
                            self.enter_degraded(format!(
                                "device crashed mid-prepare and recovery failed: {e:?}"
                            ));
                            TxnError::ReadOnly
                        }
                    }
                }
                kind => {
                    self.enter_degraded(format!("prepare append failed: {kind:?}"));
                    TxnError::ReadOnly
                }
            }),
        }
    }

    /// 2PC phase two, participant side: durably journal the coordinator's
    /// decision for an in-doubt `gtid`, then apply it — commit the held
    /// transaction (its record enters the journal mirror at decision order)
    /// or abort it, releasing the locks either way. Idempotent: a gtid this
    /// participant no longer holds in doubt (already resolved, or the
    /// prepare never survived) acknowledges with `Ok` and journals nothing,
    /// so coordinators may retransmit decisions freely.
    ///
    /// A tripped crash-at-op trigger power-cycles and recovers
    /// ([`TxnError::NotActive`]): the decision may or may not have reached
    /// stable storage — the caller re-checks [`in_doubt`](Self::in_doubt)
    /// and retransmits if the gtid still surfaces.
    pub fn resolve(&mut self, gtid: u64, commit: bool) -> Result<(), TxnError> {
        if self.mode == SystemMode::Degraded {
            return Err(TxnError::ReadOnly);
        }
        let Some(txn) = self.prepared.get(&gtid).map(|(t, _)| *t) else {
            return Ok(());
        };
        let journal_span = self.sys.obs_mut().span_begin(Phase::JournalAppend);
        let append = self.backend.append_decision(gtid, commit);
        self.drain_retry_events();
        self.sys.obs_mut().span_end(journal_span);
        match append {
            Ok(()) => {
                let (txn, rec) = self.prepared.remove(&gtid).expect("checked above");
                self.sys.obs_mut().on_decide(gtid, commit);
                self.observe_stalls();
                if commit {
                    match self.sys.commit(txn) {
                        Ok(()) => self.journal.records.push(rec),
                        Err(_) => {
                            // The durable decision is the commit point; the
                            // volatile refusal (a theorem-impossible wound of
                            // a lock-holding preparee) cannot unwind it.
                            // Record durable truth and re-sync the mirror.
                            self.journal.records.push(rec);
                            let _ = self.rebuild_from_journal();
                        }
                    }
                } else {
                    self.pending_ops.remove(&txn);
                    let _ = self.sys.abort(txn);
                }
                self.sys.retain_active(&mut self.pending_ops);
                Ok(())
            }
            Err(fail) => Err(match fail.kind {
                StoreFailureKind::Device(DiskError::Crashed) => {
                    self.backend.crash();
                    match self.recover_with(TornPolicy::DiscardTail) {
                        Ok(()) => TxnError::NotActive(txn),
                        Err(e) => {
                            self.enter_degraded(format!(
                                "device crashed mid-decide and recovery failed: {e:?}"
                            ));
                            TxnError::ReadOnly
                        }
                    }
                }
                kind => {
                    self.enter_degraded(format!("decision append failed: {kind:?}"));
                    TxnError::ReadOnly
                }
            }),
        }
    }

    /// [`resolve`](Self::resolve) for a decision reached *after* recovery —
    /// by querying the coordinator's durable log or by presuming abort.
    /// Additionally emits the `Resolved` observability event (the in-doubt
    /// window spanned a power cycle, so no prepare-to-decide latency sample
    /// is recorded).
    pub fn resolve_in_doubt(&mut self, gtid: u64, commit: bool) -> Result<(), TxnError> {
        let known = self.prepared.contains_key(&gtid);
        self.resolve(gtid, commit)?;
        if known {
            self.sys.obs_mut().on_resolved(gtid, commit);
        }
        Ok(())
    }

    /// Global ids of in-doubt transactions: durably prepared, no durable
    /// decision. Ascending order.
    pub fn in_doubt(&self) -> Vec<u64> {
        self.prepared.keys().copied().collect()
    }

    /// The durably prepared record held in doubt under `gtid`, if any.
    pub fn in_doubt_record(&self, gtid: u64) -> Option<&CommitRecord<A>> {
        self.prepared.get(&gtid).map(|(_, r)| r)
    }

    /// Write a checkpoint: fold every object's committed state into a
    /// durable image, after which the backend may truncate the covered log
    /// prefix. Returns the number of whole segments truncated. No-op
    /// returning 0 when nothing was committed since the last checkpoint.
    ///
    /// This is also the exit from [`SystemMode::Degraded`]: a checkpoint
    /// that reaches stable storage is durable proof the
    /// [healed](Self::heal_device) device accepts writes again, so the
    /// system returns to [`SystemMode::Normal`]. A checkpoint the device
    /// refuses (returning 0) enters — or stays in — degraded mode.
    pub fn checkpoint(&mut self) -> u64 {
        // A checkpoint image captures only *committed* state; truncating the
        // log while prepares are in doubt would orphan their PREPARE frames.
        // Refuse until every 2PC decision lands.
        if !self.prepared.is_empty() {
            return 0;
        }
        let records = self.journal.records.len() as u64;
        if records == 0 && self.journal.base.is_some() && self.mode == SystemMode::Normal {
            return 0;
        }
        let states: Vec<(ObjectId, A::State)> = self
            .sys
            .object_ids()
            .into_iter()
            .map(|obj| {
                let state = self.sys.committed_state(obj);
                (obj, state)
            })
            .collect();
        let img = CheckpointImage {
            base_records: self.journal.base_records + records,
            txn_floor: self.sys.next_txn_id(),
            next_exec_seq: self.op_seq,
            states: states.clone(),
        };
        let write = self.backend.write_checkpoint(&img);
        self.drain_retry_events();
        match write {
            Ok(truncated) => {
                self.journal.base_records = img.base_records;
                self.journal.base = Some(states);
                self.journal.records.clear();
                self.sys.obs_mut().on_checkpoint(records, truncated);
                if self.mode == SystemMode::Degraded {
                    self.mode = SystemMode::Normal;
                    self.sys.obs_mut().on_degraded(false, String::new);
                }
                truncated
            }
            Err(fail) => {
                match fail.kind {
                    StoreFailureKind::Device(DiskError::Crashed) => {
                        // Power loss mid-checkpoint: recover from whichever
                        // image — old XOR new — reached stable storage
                        // (both fold to the same committed state).
                        self.backend.crash();
                        if let Err(e) = self.recover_with(TornPolicy::DiscardTail) {
                            self.enter_degraded(format!(
                                "device crashed mid-checkpoint and recovery failed: {e:?}"
                            ));
                        }
                    }
                    kind => {
                        // The journal mirror keeps the old base: whichever
                        // image is durably complete wins at the next
                        // recovery.
                        self.enter_degraded(format!("checkpoint write failed: {kind:?}"));
                    }
                }
                0
            }
        }
    }

    /// Simulate a crash: every piece of volatile state is lost — active
    /// transactions, their effects, the lock table, the backend's write
    /// cache — then rebuild from the backend's recovery scan. Each replayed
    /// response is verified against the journal. Equivalent to
    /// [`crash_and_recover_with`](Self::crash_and_recover_with) under
    /// [`TornPolicy::Strict`].
    pub fn crash_and_recover(&mut self) -> Result<(), RedoError> {
        self.crash_and_recover_with(TornPolicy::Strict)
    }

    /// Crash and recover under an explicit [`TornPolicy`]. On `Err` the
    /// pre-crash volatile system is left in place (recovery is
    /// all-or-nothing), with the failed scan's evidence recorded on its
    /// tracer — callers can inspect both; the fault simulator relies on
    /// this to diagnose oracle failures.
    pub fn crash_and_recover_with(&mut self, policy: TornPolicy) -> Result<(), RedoError> {
        self.backend.crash();
        self.recover_with(policy)
    }

    /// Re-run recovery against the *current* durable image, without crashing
    /// again. This is the retry path after a failed scan whose cause was
    /// repaired in place (e.g. [`repair_flips`](Self::repair_flips)): a
    /// fresh crash would wipe the backend's volatile detection counters, so
    /// the repair flow must not take one.
    pub fn recover_with(&mut self, policy: TornPolicy) -> Result<(), RedoError> {
        // Phase accounting: the scan/classify/repair stage splits come from
        // the backend's ScanReport (their op counts tile the successful
        // attempt's device-op delta exactly); rebuild and replay are timed
        // here. Units for the recovery total are the attempt's device ops.
        let wall = std::time::Instant::now();
        let mut attempt_ops;
        let recovered = loop {
            let ops0 = self.backend.device_op_count();
            let attempt = self.backend.recover(policy.tail());
            self.drain_retry_events();
            attempt_ops = self.backend.device_op_count() - ops0;
            match attempt {
                Ok(r) => break r,
                Err(fail) => {
                    match fail.kind {
                        // A crash-at-op trigger tripped *during recovery*:
                        // acknowledge the nested power loss and recover from
                        // whatever the interrupted attempt left durable. The
                        // trigger is one-shot (tripping consumes it), so
                        // this converges.
                        StoreFailureKind::Device(DiskError::Crashed) => {
                            self.backend.crash();
                            continue;
                        }
                        // A transient-error burst outlasted one op's retry
                        // budget mid-scan. The burst is finite and every
                        // failed attempt consumes part of it, so re-running
                        // the scan converges — recovery is the one path that
                        // must not give up on a retryable error, since
                        // nothing downstream can serve until it completes.
                        StoreFailureKind::Device(DiskError::Transient) => continue,
                        kind => {
                            // Surface the scan evidence on the surviving
                            // tracer even though the rebuild is refused.
                            emit_scan(self.sys.obs_mut(), &fail.report);
                            self.sys.obs_mut().on_phase(
                                Phase::RecoveryTotal,
                                attempt_ops,
                                wall.elapsed().as_nanos() as u64,
                            );
                            return Err(match kind {
                                StoreFailureKind::Torn { record, expected, found } => {
                                    RedoError::TornRecord { record, expected, found }
                                }
                                StoreFailureKind::Corrupt { sector } => {
                                    RedoError::CorruptRecord { sector }
                                }
                                StoreFailureKind::Device(error) => RedoError::Device { error },
                            });
                        }
                    }
                }
            }
        };
        // The tracer models durable monitoring state: carry it across the
        // rebuild so counters/histograms survive. The replay below runs
        // against the fresh system's own throwaway tracer (recovery must not
        // double-count the replayed commits), which is discarded on success.
        let rebuild_clock = std::time::Instant::now();
        let mut fresh = self.fresh_system();
        let mut restored = 0u64;
        if let Some(cp) = &recovered.checkpoint {
            for (obj, state) in &cp.states {
                fresh.restore_committed(*obj, state.clone());
                restored += 1;
            }
        }
        let rebuild_ns = rebuild_clock.elapsed().as_nanos() as u64;
        let replay_clock = std::time::Instant::now();
        let replayed = recovered.records.len();
        for (ri, rec) in recovered.records.iter().enumerate() {
            let t = fresh.begin();
            for (oi, (_seq, obj, op)) in rec.ops.iter().enumerate() {
                match fresh.invoke(t, *obj, op.inv.clone()) {
                    Ok(resp) if resp == op.resp => {}
                    Ok(_) => return Err(RedoError::ResponseDiverged { record: ri, op: oi }),
                    Err(_) => return Err(RedoError::ReplayRefused { record: ri }),
                }
            }
            fresh.commit(t).map_err(|_| RedoError::ReplayRefused { record: ri })?;
        }
        // Floors come from the log, not from pre-crash process memory — and
        // they already cover the in-doubt prepares, so the ghosts begun
        // below get fresh post-crash ids.
        fresh.reserve_txn_ids(recovered.txn_floor);
        // Restore each in-doubt prepare as a *ghost*: a fresh active
        // transaction that re-executes the prepared operations (responses
        // verified — two-phase locking kept conflicting committed work out,
        // so replaying committed-then-in-doubt must reproduce them) and is
        // left uncommitted, re-holding every lock until the coordinator's
        // decision resolves it. The original record (original execution
        // stamps) stays in the in-doubt map; the ghost's re-execution is
        // reconstruction, not new workload.
        let mut prepared: BTreeMap<u64, (TxnId, CommitRecord<A>)> = BTreeMap::new();
        for (gi, (gtid, rec)) in recovered.in_doubt.iter().enumerate() {
            let t = fresh.begin();
            for (oi, (_seq, obj, op)) in rec.ops.iter().enumerate() {
                match fresh.invoke(t, *obj, op.inv.clone()) {
                    Ok(resp) if resp == op.resp => {}
                    Ok(_) => {
                        return Err(RedoError::ResponseDiverged { record: replayed + gi, op: oi })
                    }
                    Err(_) => return Err(RedoError::ReplayRefused { record: replayed + gi }),
                }
            }
            prepared.insert(*gtid, (t, rec.clone()));
        }
        // Replay succeeded: move the surviving tracer over, record the scan
        // evidence and the recovery on it (on `Err` above the pre-crash
        // system is left in place, preserving all-or-nothing recovery).
        let replay_ns = replay_clock.elapsed().as_nanos() as u64;
        let mut obs = self.sys.take_obs();
        emit_scan(&mut obs, &recovered.scan);
        obs.on_phase(Phase::Rebuild, restored, rebuild_ns);
        obs.on_phase(Phase::Replay, replayed as u64, replay_ns);
        obs.on_recovery(replayed);
        if !prepared.is_empty() {
            obs.on_in_doubt(prepared.len() as u64);
        }
        obs.on_phase(Phase::RecoveryTotal, attempt_ops, wall.elapsed().as_nanos() as u64);
        fresh.set_obs(obs);
        self.op_seq = recovered.next_exec_seq;
        self.pending_ops.clear();
        self.prepared = prepared;
        self.journal = Journal {
            base_records: recovered.checkpoint.as_ref().map_or(0, |c| c.base_records),
            base: recovered.checkpoint.map(|c| c.states),
            records: recovered.records,
        };
        self.sys = fresh;
        // A successful recovery proved the device writable (the epoch bump
        // reached stable storage): leave degraded mode. The stall sampler
        // re-anchors on the recovered device — recovery's own ticks are not
        // charged to the next commit.
        self.seen_stall_ticks = self.backend.stall_ticks();
        self.stall_streak = 0;
        if self.mode == SystemMode::Degraded {
            self.mode = SystemMode::Normal;
            self.sys.obs_mut().on_degraded(false, String::new);
        }
        Ok(())
    }

    /// Inject a torn write: drop the last `drop_ops` units of the final
    /// journal append, leaving its header intact — as if the crash
    /// interrupted the record's flush to stable storage. Returns `false`
    /// when the backend's stable image cannot be torn that way.
    pub fn tear_last_record(&mut self, drop_ops: usize) -> bool {
        if !self.backend.tear_last_flush(drop_ops) {
            return false;
        }
        let record = self.journal.len().saturating_sub(1);
        self.sys.obs_mut().on_torn(record);
        true
    }

    /// Tear the last commit flush at the backend's physical granularity
    /// (sectors for the WAL, operations for the mem backend) *without*
    /// counting it as a torn-record fault — the simulator's sector-tear
    /// fault reports itself through its own counter. Returns `false` when
    /// the stable image cannot be torn that way.
    pub fn tear_last_flush(&mut self, sectors: usize) -> bool {
        self.backend.tear_last_flush(sectors)
    }

    /// Lose the first sector of the last multi-sector commit flush, as if
    /// the device reordered persistence across the un-fsynced write. Returns
    /// `false` when the backend's image cannot express that fault.
    pub fn reorder_last_flush(&mut self) -> bool {
        self.backend.reorder_last_flush()
    }

    /// Flip one durable bit (index reduced modulo the stable image size).
    /// Returns `false` for backends with no byte image.
    pub fn flip_bit(&mut self, bit: u64) -> bool {
        self.backend.flip_bit(bit)
    }

    /// Undo all injected bit flips (the medium is repaired; the log bytes
    /// return to what was written). Returns the number of repairs.
    pub fn repair_flips(&mut self) -> usize {
        self.backend.repair_flips()
    }

    /// An empty volatile system to rebuild into, serving as the current one
    /// does: `make` knows only the construction-time shape (ADT, objects,
    /// conflict relation), so the conflict policy and the history-recording
    /// switch set since then are carried over. Its own tracer is a silent
    /// throwaway (replay must not double-count); the caller installs the
    /// surviving one.
    fn fresh_system(&self) -> TxnSystem<A, E, C> {
        let mut fresh = (self.make)();
        fresh.set_policy(self.sys.policy());
        fresh.set_record_trace(self.sys.records_trace());
        fresh.obs_mut().set_record_events(false);
        fresh
    }

    /// Forward the backend's retry telemetry to the tracer (one `IoRetry`
    /// event per checked device op that needed retries).
    fn drain_retry_events(&mut self) {
        for r in self.backend.drain_retries() {
            self.sys.obs_mut().on_io_retry(r.attempts, r.backoff, r.ok);
        }
    }

    /// Bound the group-commit admission queue: [`commit_group`]
    /// (Self::commit_group) sheds batch members beyond `max_staged` staged
    /// records with [`TxnError::Shed`], before their volatile commit. 0
    /// (the default) admits everything.
    pub fn set_admission_bound(&mut self, max_staged: usize) {
        self.max_staged = max_staged;
    }

    /// The current group-commit admission bound (0 = unbounded).
    pub fn admission_bound(&self) -> usize {
        self.max_staged
    }

    /// Arm the gray-failure health detector: a commit attempt whose
    /// device-stall delta reaches `threshold` ticks counts as one strike;
    /// `strikes` *consecutive* over-threshold attempts degrade the system
    /// (read-only until the device is [healed](Self::heal_device) and a
    /// checkpoint or recovery proves it writable). `threshold == 0`
    /// disables the detector; stall deltas are still observed and counted.
    pub fn set_stall_detector(&mut self, threshold: u64, strikes: u32) {
        self.stall_threshold = threshold;
        self.stall_strikes = strikes.max(1);
    }

    /// Sample the backend's cumulative stall-tick counter, emit the delta as
    /// a `Stall` event (feeding the stall-latency histogram), and run the
    /// hysteresis detector. Called after every durable append that
    /// succeeded; a zero delta is a healthy sample and resets the streak.
    fn observe_stalls(&mut self) {
        let now = self.backend.stall_ticks();
        let delta = now.saturating_sub(self.seen_stall_ticks);
        self.seen_stall_ticks = now;
        if delta > 0 {
            self.sys.obs_mut().on_stall(delta);
        }
        if self.stall_threshold == 0 {
            return;
        }
        if delta >= self.stall_threshold {
            self.stall_streak += 1;
            if self.stall_streak >= self.stall_strikes && self.mode == SystemMode::Normal {
                self.stall_streak = 0;
                self.enter_degraded(format!(
                    "sustained device latency: {delta} stall ticks on the last of {} strikes",
                    self.stall_strikes
                ));
            }
        } else {
            self.stall_streak = 0;
        }
    }

    /// Enter read-only degraded mode: emit the event, then roll the volatile
    /// mirror back to stable truth by replaying the journal into a fresh
    /// system. Active transactions evaporate (their effects were volatile);
    /// reads keep serving the durable committed state. Idempotent.
    fn enter_degraded(&mut self, reason: String) {
        if self.mode == SystemMode::Degraded {
            return;
        }
        self.mode = SystemMode::Degraded;
        self.sys.obs_mut().on_degraded(true, || reason);
        // On the (theorem-impossible) replay failure the stale volatile
        // system stays in place; the simulator's oracle surfaces the
        // divergence.
        let _ = self.rebuild_from_journal();
    }

    /// Rebuild the volatile system from the journal *mirror* (no device I/O
    /// — the device just refused writes). Unlike a real recovery, the id
    /// floor and execution sequence carry over from process memory: the
    /// process did not crash, so monotonicity is preserved without re-reading
    /// the log.
    fn rebuild_from_journal(&mut self) -> Result<(), RedoError> {
        let mut fresh = self.fresh_system();
        if let Some(base) = self.journal.base.as_deref() {
            for (obj, state) in base {
                fresh.restore_committed(*obj, state.clone());
            }
        }
        for (ri, rec) in self.journal.records.iter().enumerate() {
            let t = fresh.begin();
            for (oi, (_seq, obj, op)) in rec.ops.iter().enumerate() {
                match fresh.invoke(t, *obj, op.inv.clone()) {
                    Ok(resp) if resp == op.resp => {}
                    Ok(_) => return Err(RedoError::ResponseDiverged { record: ri, op: oi }),
                    Err(_) => return Err(RedoError::ReplayRefused { record: ri }),
                }
            }
            fresh.commit(t).map_err(|_| RedoError::ReplayRefused { record: ri })?;
        }
        let floor = self.sys.next_txn_id();
        fresh.reserve_txn_ids(floor);
        // Re-install the in-doubt ghosts: the process did not crash, but the
        // volatile mirror is being rebuilt, so each durably prepared
        // transaction gets a fresh ghost re-holding its locks (responses
        // verified, original records kept).
        let base = self.journal.records.len();
        let mut ghosts: BTreeMap<u64, (TxnId, CommitRecord<A>)> = BTreeMap::new();
        for (gi, (gtid, (_old, rec))) in self.prepared.iter().enumerate() {
            let t = fresh.begin();
            for (oi, (_seq, obj, op)) in rec.ops.iter().enumerate() {
                match fresh.invoke(t, *obj, op.inv.clone()) {
                    Ok(resp) if resp == op.resp => {}
                    Ok(_) => return Err(RedoError::ResponseDiverged { record: base + gi, op: oi }),
                    Err(_) => return Err(RedoError::ReplayRefused { record: base + gi }),
                }
            }
            ghosts.insert(*gtid, (t, rec.clone()));
        }
        let obs = self.sys.take_obs();
        fresh.set_obs(obs);
        self.pending_ops.clear();
        self.prepared = ghosts;
        self.sys = fresh;
        Ok(())
    }

    /// Current [`SystemMode`].
    pub fn mode(&self) -> SystemMode {
        self.mode
    }

    /// Whether the system is refusing commits ([`SystemMode::Degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.mode == SystemMode::Degraded
    }

    /// Heal the device: clear the full condition and any un-consumed
    /// transient-error budget (the operator freed space / replaced the
    /// cable). Returns `false` for backends with no device. Healing alone
    /// does not exit degraded mode — a successful [`checkpoint`]
    /// (Self::checkpoint) or recovery must first prove the device writable.
    pub fn heal_device(&mut self) -> bool {
        self.backend.heal_device()
    }

    /// Replace the backend's transient-I/O retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.backend.set_retry_policy(policy);
    }

    /// The global execution-sequence counter (the next stamp to allocate).
    /// Part of the model checker's canonical state: two states that differ
    /// only here still journal different records from now on.
    pub fn exec_seq(&self) -> u64 {
        self.op_seq
    }

    /// The committed state of `obj`.
    pub fn committed_state(&mut self, obj: ObjectId) -> A::State {
        self.sys.committed_state(obj)
    }

    /// The volatile mirror of stable storage (what an undamaged recovery
    /// would reconstruct).
    pub fn journal(&self) -> &Journal<A> {
        &self.journal
    }

    /// The storage backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (tests and fault injection reach the disk
    /// through this).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The backend's durable counters (persisted in segment headers for the
    /// WAL; the struct itself for the mem backend).
    pub fn store_stats(&self) -> StoreStats {
        self.backend.stats()
    }

    /// Access the volatile system (e.g. for trace inspection).
    pub fn system(&self) -> &TxnSystem<A, E, C> {
        &self.sys
    }

    /// Mutable access to the volatile system (scheduler loops and fault
    /// injection need `abort_with`, `find_deadlock` etc.).
    pub fn system_mut(&mut self) -> &mut TxnSystem<A, E, C> {
        &mut self.sys
    }

    /// Execution counters (carried across crashes).
    pub fn stats(&self) -> &crate::system::SystemStats {
        self.sys.stats()
    }
}

/// A full snapshot of a [`DurableSystem`] at one instant: the volatile
/// system (lock table, engines, tracer), the stable backend (durable image
/// plus write cache and armed faults), the journal mirror and the counters.
/// The model checker's DFS explorer forks execution by taking a snapshot at
/// each decision point, trying one action, and [`DurableSystem::restore`]-ing
/// before trying the next.
///
/// The one piece *not* captured is the `make` closure — it is immutable
/// configuration (ADT, object count, conflict relation), so restoring into
/// the same `DurableSystem` is exact.
pub struct SystemSnapshot<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    sys: TxnSystem<A, E, C>,
    backend: B,
    journal: Journal<A>,
    op_seq: u64,
    pending_ops: BTreeMap<TxnId, Vec<(u64, ObjectId, Op<A>)>>,
    prepared: BTreeMap<u64, (TxnId, CommitRecord<A>)>,
    mode: SystemMode,
}

impl<A, E, C, B> Clone for SystemSnapshot<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A> + Clone,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    fn clone(&self) -> Self {
        SystemSnapshot {
            sys: self.sys.clone(),
            backend: self.backend.clone(),
            journal: self.journal.clone(),
            op_seq: self.op_seq,
            pending_ops: self.pending_ops.clone(),
            prepared: self.prepared.clone(),
            mode: self.mode,
        }
    }
}

impl<A, E, C, B> DurableSystem<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A> + Clone,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    /// Capture the complete state — volatile and stable — for later
    /// [`restore`](Self::restore). See [`SystemSnapshot`].
    pub fn snapshot(&self) -> SystemSnapshot<A, E, C, B> {
        SystemSnapshot {
            sys: self.sys.clone(),
            backend: self.backend.clone(),
            journal: self.journal.clone(),
            op_seq: self.op_seq,
            pending_ops: self.pending_ops.clone(),
            prepared: self.prepared.clone(),
            mode: self.mode,
        }
    }

    /// Rewind to a snapshot taken from this (or an identically configured)
    /// system. Non-consuming: the explorer restores the same snapshot once
    /// per branch of the decision point.
    pub fn restore(&mut self, snap: &SystemSnapshot<A, E, C, B>) {
        self.sys = snap.sys.clone();
        self.backend = snap.backend.clone();
        self.journal = snap.journal.clone();
        self.op_seq = snap.op_seq;
        self.pending_ops = snap.pending_ops.clone();
        self.prepared = snap.prepared.clone();
        self.mode = snap.mode;
        // Re-anchor the stall sampler on the restored backend so the next
        // observation charges only post-restore deltas; the strike streak
        // does not survive a rewind.
        self.seen_stall_ticks = self.backend.stall_ticks();
        self.stall_streak = 0;
    }

    /// Checked device operations performed so far (0 for backends with no
    /// device). Monotone except across [`restore`](Self::restore).
    pub fn device_op_count(&self) -> u64 {
        self.backend.device_op_count()
    }

    /// Count the checked device operations a clean crash-recovery would
    /// perform from the current state, without perturbing it: snapshot,
    /// crash + recover, measure, restore. Returns `None` when the backend
    /// has no checked-op notion (mem) or the probe recovery fails — in
    /// either case there are no crash points to enumerate.
    pub fn probe_recovery_ops(&mut self, policy: TornPolicy) -> Option<u64> {
        if self.backend.device_op_count() == 0 && self.backend.name() == "mem" {
            return None;
        }
        let snap = self.snapshot();
        self.backend.crash();
        let start = self.backend.device_op_count();
        let ok = self.recover_with(policy).is_ok();
        let ops = self.backend.device_op_count().saturating_sub(start);
        self.restore(&snap);
        if ok && ops > 0 {
            Some(ops)
        } else {
            None
        }
    }

    /// Crash, then arm the device to lose power again after `at_op` checked
    /// operations *of the recovery itself*, then recover. The nested power
    /// loss is absorbed by [`recover_with`](Self::recover_with)'s internal
    /// loop (the trigger is one-shot), so on `Ok` the system has fully
    /// recovered — possibly through an interrupted first attempt. Returns
    /// whether the backend could arm the trigger at all.
    pub fn crash_recover_interrupted(
        &mut self,
        policy: TornPolicy,
        at_op: u64,
    ) -> Result<bool, RedoError> {
        self.backend.crash();
        // Arm *after* the crash: crashing clears armed triggers (power-on
        // resets the device), so the order matters.
        let armed = self.backend.arm_crash_at_op(at_op);
        self.recover_with(policy).map(|()| armed)
    }
}

/// Record a recovery scan's physical evidence on the tracer: one corruption
/// event per damage site, then the scan summary (which also feeds the
/// scan-latency histogram).
fn emit_scan(obs: &mut Tracer, scan: &ScanReport) {
    for d in &scan.detections {
        let kind = match d {
            Detection::CrcMismatch { .. } => CorruptionKind::BitFlip,
            Detection::TornFrame { .. } | Detection::MissingData { .. } => CorruptionKind::TornTail,
            Detection::InteriorFrame { .. } => CorruptionKind::Interior,
        };
        obs.on_corruption(kind, d.sector());
    }
    // The per-stage splits from the scan: units are checked device ops
    // (zero for the mem backend, which has no device), wall time rides
    // along when the wall clock is enabled.
    obs.on_phase(Phase::Scan, scan.scan_ops, scan.scan_ns);
    obs.on_phase(Phase::Classify, scan.classify_ops, scan.classify_ns);
    obs.on_phase(Phase::Repair, scan.repair_ops, scan.repair_ns);
    obs.on_segment_scan(scan.segments, scan.frames, scan.sectors, || scan.damage.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::UipEngine;
    use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr_store::{WalBackend, WalConfig};

    const X: ObjectId = ObjectId::SOLE;

    type Durable = DurableSystem<
        BankAccount,
        UipEngine<BankAccount>,
        ccr_core::conflict::FnConflict<BankAccount>,
    >;

    type DiskDurable = DurableSystem<
        BankAccount,
        UipEngine<BankAccount>,
        ccr_core::conflict::FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;

    fn disk_sys(n_objects: u32) -> DiskDurable {
        DurableSystem::with_backend(
            BankAccount::default(),
            n_objects,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        )
    }

    #[test]
    fn committed_state_survives_a_crash() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.invoke(t, y, BankInv::Deposit(5)).unwrap();
        sys.commit(t).unwrap();
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Withdraw(4)).unwrap();
        sys.commit(u).unwrap();

        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 6);
        assert_eq!(sys.committed_state(y), 5);
        assert_eq!(sys.journal().len(), 2);
    }

    #[test]
    fn active_transactions_vanish_in_a_crash() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.commit(t).unwrap();
        // An active (uncommitted) withdrawal...
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Withdraw(9)).unwrap();
        // ...is lost by the crash: only the committed deposit survives.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 10);
        // The old handle is dead in the rebuilt system.
        assert!(matches!(sys.invoke(u, X, BankInv::Balance), Err(TxnError::NotActive(_))));
    }

    #[test]
    fn system_is_usable_after_recovery() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(3)).unwrap();
        sys.commit(t).unwrap();
        sys.crash_and_recover().unwrap();
        let u = sys.begin();
        assert_eq!(sys.invoke(u, X, BankInv::Balance).unwrap(), ccr_adt::bank::BankResp::Val(3));
        sys.commit(u).unwrap();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 3);
        assert_eq!(sys.journal().len(), 2);
    }

    #[test]
    fn torn_record_detected_strictly_then_discardable() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.commit(t).unwrap();
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
        sys.invoke(u, X, BankInv::Withdraw(2)).unwrap();
        sys.commit(u).unwrap();

        assert!(sys.tear_last_record(1));
        // Strict recovery refuses the torn record — never silent corruption.
        assert_eq!(
            sys.crash_and_recover(),
            Err(RedoError::TornRecord { record: 1, expected: 2, found: 1 })
        );
        // DiscardTail drops the torn commit entirely, as if `u` aborted.
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        assert_eq!(sys.committed_state(X), 10);
        assert_eq!(sys.journal().len(), 1);
        assert_eq!(sys.stats().torn_crashes, 1);
    }

    #[test]
    fn counters_and_txn_ids_survive_crashes() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(3)).unwrap();
        sys.commit(t).unwrap();
        let pre_next = sys.system().next_txn_id();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.stats().crashes, 1);
        assert_eq!(sys.stats().committed, 1, "replay must not double-count");
        // Post-recovery ids never collide with pre-crash ones.
        assert!(sys.system().next_txn_id() >= pre_next);
        let u = sys.begin();
        assert!(u.0 >= pre_next);
        sys.abort(u).unwrap();
    }

    #[test]
    fn repeated_crashes_are_idempotent() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        for i in 1..=4u64 {
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(i)).unwrap();
            sys.commit(t).unwrap();
            sys.crash_and_recover().unwrap();
            sys.crash_and_recover().unwrap();
            assert_eq!(sys.committed_state(X), (1..=i).sum::<u64>());
        }
    }

    #[test]
    fn checkpoint_truncates_and_recovery_replays_from_it() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        for i in 1..=3u64 {
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(i)).unwrap();
            sys.commit(t).unwrap();
        }
        sys.checkpoint();
        assert_eq!(sys.journal().base_records(), 3);
        assert_eq!(sys.journal().records().len(), 0);
        assert_eq!(sys.journal().len(), 3, "checkpointed records still count");
        // A post-checkpoint commit, then crash: recovery seeds from the
        // checkpoint image and replays only the suffix.
        let t = sys.begin();
        sys.invoke(t, y, BankInv::Deposit(7)).unwrap();
        sys.commit(t).unwrap();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 6);
        assert_eq!(sys.committed_state(y), 7);
        assert_eq!(sys.journal().base_records(), 3);
        assert_eq!(sys.journal().records().len(), 1);
        assert_eq!(sys.stats().checkpoints, 1);
        // Checkpointing again folds the replayed suffix...
        sys.checkpoint();
        assert_eq!(sys.store_stats().checkpoints, 2);
        // ...and an *empty* checkpoint (nothing committed since) is a no-op.
        assert_eq!(sys.checkpoint(), 0);
        assert_eq!(sys.store_stats().checkpoints, 2);
    }

    #[test]
    fn disk_backend_round_trips_through_real_recovery() {
        let mut sys = disk_sys(2);
        let y = ObjectId(1);
        for i in 1..=4u64 {
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(i)).unwrap();
            sys.invoke(t, y, BankInv::Deposit(i * 10)).unwrap();
            sys.commit(t).unwrap();
        }
        let pre_next = sys.system().next_txn_id();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 10);
        assert_eq!(sys.committed_state(y), 100);
        assert_eq!(sys.journal().len(), 4);
        assert!(sys.system().next_txn_id() >= pre_next, "floor read back from the log");
        assert_eq!(sys.store_stats().recoveries, 1);
        // Checkpoint, keep going, crash again: the suffix replays over the
        // checkpoint image.
        sys.checkpoint();
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Withdraw(9)).unwrap();
        sys.commit(t).unwrap();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 1);
        assert_eq!(sys.committed_state(y), 100);
    }

    #[test]
    fn disk_bitflip_is_detected_then_recoverable_after_repair() {
        let mut sys = disk_sys(1);
        for i in 1..=2u64 {
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(i)).unwrap();
            sys.commit(t).unwrap();
        }
        assert!(sys.flip_bit(700));
        let err = sys.crash_and_recover().unwrap_err();
        assert!(
            matches!(err, RedoError::CorruptRecord { .. } | RedoError::TornRecord { .. }),
            "a flipped bit must fail loudly, got {err:?}"
        );
        // The medium is repaired; the retry must NOT crash again (that would
        // wipe the backend's volatile detection counters before they are
        // persisted by the successful recovery).
        assert_eq!(sys.repair_flips(), 1);
        sys.recover_with(TornPolicy::Strict).unwrap();
        assert_eq!(sys.committed_state(X), 3);
        let stats = sys.store_stats();
        assert!(
            stats.bitflips_detected + stats.sector_tears + stats.reordered_flushes >= 1,
            "the failed scan's detection must be persisted: {stats:?}"
        );
    }

    #[test]
    fn group_commit_round_trips_through_disk_recovery() {
        let mut sys = disk_sys(1);
        let txns: Vec<TxnId> = (0..3)
            .map(|i| {
                let t = sys.begin();
                sys.invoke(t, X, BankInv::Deposit(i + 1)).unwrap();
                t
            })
            .collect();
        let results = sys.commit_group(&txns);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(sys.journal().len(), 3);
        assert_eq!(sys.stats().committed, 3);
        // The flush was observed once, for the whole batch.
        use ccr_obs::EventKind;
        let flushes: Vec<u64> = sys
            .system()
            .obs()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::GroupFlush { batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        assert_eq!(flushes, vec![3]);
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 6);
        assert_eq!(sys.journal().len(), 3);
    }

    #[test]
    fn torn_group_flush_recovers_a_batch_prefix() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(100)).unwrap();
        sys.commit(t).unwrap();
        let txns: Vec<TxnId> = (0..3)
            .map(|i| {
                let u = sys.begin();
                sys.invoke(u, X, BankInv::Deposit(10u64.pow(i))).unwrap();
                u
            })
            .collect();
        assert!(sys.commit_group(&txns).iter().all(|r| r.is_ok()));
        // Tear one sector off the batch flush: the final record is torn
        // mid-frame; the first two survive as an unacknowledged prefix.
        assert!(sys.tear_last_flush(1));
        assert!(matches!(sys.crash_and_recover(), Err(RedoError::TornRecord { .. })));
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        assert_eq!(sys.committed_state(X), 100 + 1 + 10);
        assert_eq!(sys.journal().len(), 3);
        // The repaired log is clean from now on.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 111);
    }

    #[test]
    fn disk_full_degrades_to_read_only_then_heals() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.commit(t).unwrap();

        assert!(sys.backend_mut().set_device_full(true));
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(5)).unwrap();
        assert_eq!(sys.commit(u), Err(TxnError::ReadOnly));
        assert!(sys.is_degraded());
        assert_eq!(sys.mode(), SystemMode::Degraded);
        // The failed commit's volatile effects were rolled back: reads serve
        // exactly the durable committed state.
        assert_eq!(sys.committed_state(X), 10);
        let r = sys.begin();
        assert_eq!(sys.invoke(r, X, BankInv::Balance).unwrap(), ccr_adt::bank::BankResp::Val(10));
        // Further commits keep being refused while degraded...
        assert_eq!(sys.commit(r), Err(TxnError::ReadOnly));
        // ...and healing alone is not enough: the checkpoint must prove the
        // device writable again.
        assert!(sys.heal_device());
        assert!(sys.is_degraded());
        sys.checkpoint();
        assert!(!sys.is_degraded());
        let v = sys.begin();
        sys.invoke(v, X, BankInv::Deposit(7)).unwrap();
        sys.commit(v).unwrap();
        assert_eq!(sys.committed_state(X), 17);
        // The healed log round-trips through real recovery.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 17);
        assert_eq!(sys.stats().degraded_entries, 1);
        assert_eq!(sys.stats().degraded_exits, 1);
    }

    #[test]
    fn transient_io_errors_are_absorbed_by_retries() {
        let mut sys = disk_sys(1);
        assert!(sys.backend_mut().arm_transient_io(2));
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(3)).unwrap();
        sys.commit(t).unwrap();
        assert!(!sys.is_degraded(), "retries must hide a transient budget below the attempt cap");
        assert!(sys.stats().io_retries >= 1, "the retries must be observable");
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 3);
    }

    #[test]
    fn exhausted_retries_degrade_and_recovery_restores_writes() {
        let mut sys = disk_sys(1);
        sys.set_retry_policy(RetryPolicy { attempts: 2, ..RetryPolicy::default() });
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(4)).unwrap();
        sys.commit(t).unwrap();
        // A transient budget at the attempt cap exhausts the retries.
        assert!(sys.backend_mut().arm_transient_io(64));
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
        assert_eq!(sys.commit(u), Err(TxnError::ReadOnly));
        assert!(sys.is_degraded());
        assert_eq!(sys.committed_state(X), 4, "the rolled-back append left nothing durable");
        // Recovery on the healed device is the other exit from degraded mode.
        assert!(sys.heal_device());
        sys.crash_and_recover().unwrap();
        assert!(!sys.is_degraded());
        let v = sys.begin();
        sys.invoke(v, X, BankInv::Deposit(2)).unwrap();
        sys.commit(v).unwrap();
        assert_eq!(sys.committed_state(X), 6);
    }

    #[test]
    fn crash_trigger_mid_commit_power_cycles_and_recovers() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(9)).unwrap();
        sys.commit(t).unwrap();
        // Arm the device to lose power on its very next checked op: the
        // commit's append dies mid-flight and the system power-cycles.
        sys.backend_mut().disk_mut().arm_crash_at_op(0);
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Withdraw(2)).unwrap();
        match sys.commit(u) {
            Err(TxnError::NotActive(id)) => assert_eq!(id, u),
            other => panic!("expected NotActive after a mid-commit power loss, got {other:?}"),
        }
        assert!(!sys.is_degraded(), "a power loss is survivable, not degrading");
        assert_eq!(sys.committed_state(X), 9);
        // The system is fully usable after the in-place recovery.
        let v = sys.begin();
        sys.invoke(v, X, BankInv::Withdraw(4)).unwrap();
        sys.commit(v).unwrap();
        assert_eq!(sys.committed_state(X), 5);
    }

    #[test]
    fn degraded_group_commit_refuses_the_whole_batch() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(8)).unwrap();
        sys.commit(t).unwrap();
        assert!(sys.backend_mut().set_device_full(true));
        let txns: Vec<TxnId> = (0..3)
            .map(|i| {
                let u = sys.begin();
                sys.invoke(u, X, BankInv::Deposit(i + 1)).unwrap();
                u
            })
            .collect();
        let results = sys.commit_group(&txns);
        assert!(results.iter().all(|r| r == &Err(TxnError::ReadOnly)));
        assert!(sys.is_degraded());
        assert_eq!(sys.committed_state(X), 8, "the scrubbed batch left nothing durable");
        assert_eq!(sys.journal().len(), 1);
    }

    #[test]
    fn admission_bound_sheds_the_batch_tail_atomically() {
        let mut sys = disk_sys(1);
        sys.set_admission_bound(2);
        let txns: Vec<TxnId> = (0..4)
            .map(|i| {
                let t = sys.begin();
                sys.invoke(t, X, BankInv::Deposit(i + 1)).unwrap();
                t
            })
            .collect();
        let results = sys.commit_group(&txns);
        assert_eq!(results[0], Ok(()));
        assert_eq!(results[1], Ok(()));
        assert_eq!(results[2], Err(TxnError::Shed));
        assert_eq!(results[3], Err(TxnError::Shed));
        // The shed transactions left nothing anywhere: neither in the
        // committed state nor in the journal.
        assert_eq!(sys.committed_state(X), 1 + 2);
        assert_eq!(sys.journal().len(), 2);
        assert_eq!(sys.stats().sheds, 2);
        assert_eq!(sys.stats().committed, 2);
        // A shed is equieffective with a clean abort: recovery reconstructs
        // exactly the admitted prefix.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 3);
        assert_eq!(sys.journal().len(), 2);
    }

    #[test]
    fn sustained_stalls_degrade_then_heal_via_checkpoint() {
        let mut sys = disk_sys(1);
        sys.set_stall_detector(1, 2);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
        sys.commit(t).unwrap();
        assert!(!sys.is_degraded(), "a healthy commit must not strike");
        // A gray device: every flush from now on stalls. The first stalled
        // commit is one strike (still acknowledged and durable); the second
        // consecutive strike trips the detector *after* acknowledging.
        assert!(sys.backend_mut().arm_fsync_stall(100, 8));
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
        sys.commit(u).unwrap();
        assert!(!sys.is_degraded(), "hysteresis: one slow flush never flips the mode");
        let v = sys.begin();
        sys.invoke(v, X, BankInv::Deposit(2)).unwrap();
        sys.commit(v).unwrap();
        assert!(sys.is_degraded(), "two consecutive strikes must degrade");
        // Both stalled commits were acknowledged before the flip: they are
        // durable and visible.
        assert_eq!(sys.committed_state(X), 8);
        let w = sys.begin();
        assert_eq!(sys.commit(w), Err(TxnError::ReadOnly));
        // Healing clears the armed stall channel; the checkpoint proves the
        // device writable again and exits degraded mode.
        assert!(sys.heal_device());
        sys.checkpoint();
        assert!(!sys.is_degraded());
        let x2 = sys.begin();
        sys.invoke(x2, X, BankInv::Deposit(4)).unwrap();
        sys.commit(x2).unwrap();
        assert_eq!(sys.committed_state(X), 12);
        assert!(sys.stats().stall_ticks > 0, "the stall deltas must be observed");
        assert_eq!(sys.stats().mode_flips, 2);
        // The whole episode round-trips through real recovery.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 12);
    }

    #[test]
    fn disk_torn_flush_respects_the_tail_policy() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
        sys.commit(t).unwrap();
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
        sys.invoke(u, X, BankInv::Withdraw(2)).unwrap();
        sys.commit(u).unwrap();
        assert!(sys.tear_last_record(1), "multi-sector commit frame is tearable");
        assert!(matches!(sys.crash_and_recover(), Err(RedoError::TornRecord { .. })));
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        assert_eq!(sys.committed_state(X), 5);
        assert_eq!(sys.journal().len(), 1);
    }

    #[test]
    fn prepare_holds_locks_and_resolve_commits() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.prepare(t, 7).unwrap();
        assert_eq!(sys.in_doubt(), vec![7]);
        // The preparee is still active and still holds its locks: a
        // conflicting withdrawal blocks on it.
        let u = sys.begin();
        assert!(matches!(sys.invoke(u, X, BankInv::Withdraw(1)), Err(TxnError::Blocked { .. })));
        sys.abort(u).unwrap();
        // Checkpoints refuse while a prepare is in doubt.
        assert_eq!(sys.checkpoint(), 0);
        sys.resolve(7, true).unwrap();
        assert!(sys.in_doubt().is_empty());
        assert_eq!(sys.committed_state(X), 10);
        assert_eq!(sys.journal().len(), 1);
        assert_eq!(sys.stats().prepares, 1);
        assert_eq!(sys.stats().decides, 1);
        // Resolving an unknown gtid is an idempotent ack.
        sys.resolve(7, true).unwrap();
        assert_eq!(sys.journal().len(), 1);
    }

    #[test]
    fn resolve_abort_releases_locks_and_journals_nothing_visible() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.prepare(t, 3).unwrap();
        sys.resolve(3, false).unwrap();
        assert!(sys.in_doubt().is_empty());
        assert_eq!(sys.committed_state(X), 0);
        assert_eq!(sys.journal().len(), 0, "aborted prepare never becomes a commit record");
        // The system moves on: a fresh transaction takes the lock and
        // commits normally.
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(4)).unwrap();
        sys.commit(u).unwrap();
        assert_eq!(sys.committed_state(X), 4);
    }

    #[test]
    fn in_doubt_prepare_survives_crash_as_a_lock_holding_ghost() {
        let mut sys = disk_sys(2);
        let y = ObjectId(1);
        let a = sys.begin();
        sys.invoke(a, y, BankInv::Deposit(100)).unwrap();
        sys.commit(a).unwrap();
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.prepare(t, 42).unwrap();
        // Crash: the prepare is durable, the decision never was.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.in_doubt(), vec![42], "prepare must survive the crash in doubt");
        assert_eq!(sys.in_doubt_record(42).unwrap().ops.len(), 1);
        // The ghost re-holds the lock; the prepared deposit is not visible.
        assert_eq!(sys.committed_state(X), 0);
        let u = sys.begin();
        assert!(matches!(sys.invoke(u, X, BankInv::Withdraw(1)), Err(TxnError::Blocked { .. })));
        sys.abort(u).unwrap();
        assert_eq!(sys.stats().in_doubt, 1);
        // A second crash keeps it in doubt — doubt is stable.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.in_doubt(), vec![42]);
        // The coordinator's durable decision arrives: commit.
        sys.resolve_in_doubt(42, true).unwrap();
        assert_eq!(sys.committed_state(X), 10);
        assert_eq!(sys.committed_state(y), 100);
        assert_eq!(sys.stats().resolved, 1);
        // And the outcome is itself durable.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 10);
        assert!(sys.in_doubt().is_empty());
    }

    #[test]
    fn in_doubt_presumed_abort_after_crash() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.prepare(t, 9).unwrap();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.in_doubt(), vec![9]);
        // No durable coordinator decision → presume abort.
        sys.resolve_in_doubt(9, false).unwrap();
        assert_eq!(sys.committed_state(X), 0);
        assert!(sys.in_doubt().is_empty());
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 0, "the abort outcome is durable");
        // The log stays live for ordinary work afterwards.
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(6)).unwrap();
        sys.commit(u).unwrap();
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 6);
    }

    #[test]
    fn snapshot_restore_round_trips_in_doubt_state() {
        let mut sys: Durable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
        sys.prepare(t, 1).unwrap();
        let snap = sys.snapshot();
        sys.resolve(1, true).unwrap();
        assert_eq!(sys.committed_state(X), 5);
        sys.restore(&snap);
        assert_eq!(sys.in_doubt(), vec![1], "restore rewinds to the in-doubt window");
        assert_eq!(sys.committed_state(X), 0);
        sys.resolve(1, false).unwrap();
        assert_eq!(sys.committed_state(X), 0);
    }

    #[test]
    fn crash_trigger_mid_prepare_is_a_no_vote() {
        let mut sys = disk_sys(1);
        let a = sys.begin();
        sys.invoke(a, X, BankInv::Deposit(3)).unwrap();
        sys.commit(a).unwrap();
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        assert!(sys.backend_mut().arm_crash_at_op(0));
        // The device loses power on the prepare's first checked op: the
        // participant recovers on the spot and reports no-vote.
        assert!(matches!(sys.prepare(t, 5), Err(TxnError::NotActive(_))));
        assert_eq!(sys.committed_state(X), 3);
        // Whether or not the prepare reached stable storage, a coordinator
        // abort (presumed or explicit) leaves the participant clean.
        for g in sys.in_doubt() {
            sys.resolve_in_doubt(g, false).unwrap();
        }
        assert!(sys.in_doubt().is_empty());
        assert_eq!(sys.committed_state(X), 3);
    }

    #[test]
    fn policy_and_trace_setting_survive_crash_and_degrade() {
        use crate::error::AbortReason;
        use crate::system::ConflictPolicy;
        let y = ObjectId(1);
        // What must hold of the volatile system after every rebuild.
        fn serves_as_configured(sys: &mut DiskDurable, policy: ConflictPolicy) {
            assert_eq!(sys.system().policy(), policy);
            assert_eq!(sys.system().obs().labels()["policy"], policy.label());
            assert!(!sys.system().records_trace());
            assert!(sys.system().trace().is_empty(), "replay and ghosts recorded nothing");
            // The policy acts, not just reads back: an older depositor
            // against a younger reader's held balance.
            let older = sys.begin();
            let younger = sys.begin();
            sys.invoke(younger, X, BankInv::Balance).unwrap();
            let got = sys.invoke(older, X, BankInv::Deposit(1));
            match policy {
                ConflictPolicy::WoundWait => assert_eq!(got, Ok(ccr_adt::bank::BankResp::Ok)),
                ConflictPolicy::NoWait => {
                    assert_eq!(got, Err(TxnError::Aborted(AbortReason::ConflictAbort)))
                }
                ConflictPolicy::Block => unreachable!("the default needs no carrying"),
            }
            let _ = sys.abort(older);
            let _ = sys.abort(younger);
        }
        for policy in [ConflictPolicy::WoundWait, ConflictPolicy::NoWait] {
            let mut sys = disk_sys(2);
            sys.system_mut().set_policy(policy);
            sys.system_mut().set_record_trace(false);
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
            sys.commit(t).unwrap();
            // An in-doubt prepare, so both rebuilds re-install a ghost.
            let p = sys.begin();
            sys.invoke(p, y, BankInv::Deposit(4)).unwrap();
            sys.prepare(p, 9).unwrap();

            sys.crash_and_recover().unwrap();
            assert_eq!(sys.in_doubt(), vec![9]);
            serves_as_configured(&mut sys, policy);

            // Degrading rebuilds from the journal mirror instead of the log.
            assert!(sys.backend_mut().set_device_full(true));
            let u = sys.begin();
            sys.invoke(u, X, BankInv::Deposit(5)).unwrap();
            assert_eq!(sys.commit(u), Err(TxnError::ReadOnly));
            assert!(sys.is_degraded());
            assert_eq!(sys.in_doubt(), vec![9]);
            serves_as_configured(&mut sys, policy);
            assert_eq!(sys.committed_state(X), 10);
        }
    }
}
