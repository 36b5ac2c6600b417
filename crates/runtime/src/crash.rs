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

use std::sync::Arc;

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_core::ids::{ObjectId, TxnId, TxnTable};
use ccr_obs::{CorruptionKind, Phase, SpanToken, Tracer};
use ccr_store::{
    CheckpointImage, CommitRecord, Detection, DiskError, LogBackend, MemBackend, RecoveredLog,
    ScanReport, SimDisk, StoreFailureKind, StoreStats,
};

use crate::engine::RecoveryEngine;
use crate::error::TxnError;
use crate::system::{Share, TxnSystem};
use crate::writeahead::WriteAhead;

/// What the durable system counts of its log; the records themselves are
/// the backend's ([`LogBackend::read_log`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Journal {
    /// Commit records folded into the checkpoint base (monotone; never reset
    /// by truncation), or `None` before the first checkpoint.
    base: Option<u64>,
    /// Commit records journaled after the checkpoint.
    since_base: u64,
}

impl Journal {
    /// Number of committed transactions journaled over the log's whole life
    /// (checkpointed-away records included).
    pub fn len(&self) -> usize {
        (self.base_records() + self.since_base) as usize
    }

    /// Whether nothing has ever been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records folded into the checkpoint base.
    pub fn base_records(&self) -> u64 {
        self.base.unwrap_or(0)
    }

    /// Records journaled after the checkpoint, the ones a recovery replays.
    pub fn since_base(&self) -> u64 {
        self.since_base
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

impl From<StoreFailureKind> for RedoError {
    fn from(kind: StoreFailureKind) -> Self {
        match kind {
            StoreFailureKind::Torn { record, expected, found } => {
                RedoError::TornRecord { record, expected, found }
            }
            StoreFailureKind::Corrupt { sector } => RedoError::CorruptRecord { sector },
            StoreFailureKind::Device(error) => RedoError::Device { error },
        }
    }
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
    /// system was rebuilt from the log, so reads keep serving exactly the
    /// durable committed state). A successful [`DurableSystem::checkpoint`]
    /// on a healed device — or a successful
    /// recovery — returns to [`SystemMode::Normal`].
    Degraded,
}

/// How recovery treats a damaged log tail: the store's policy, under the
/// name the runtime's callers know. `Strict` (the default) refuses and
/// surfaces [`RedoError::TornRecord`] — a torn record must never be
/// replayed as if complete; `DiscardTail` drops the torn record and
/// everything after it (the commit never fully reached stable storage, so
/// dropping it is equivalent to the transaction having aborted). Interior
/// corruption is refused either way.
pub use ccr_store::TailPolicy as TornPolicy;

/// Consecutive over-threshold stall samples before the health detector
/// degrades the system. The hysteresis: one slow flush never flips the mode;
/// sustained latency does.
const STALL_STRIKES: u32 = 2;

/// The durable writes, as the tracer names them when one fails.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Write {
    Commit,
    BatchFlush,
    Prepare,
    Decide,
    Checkpoint,
}

impl Write {
    /// What a power loss in the middle of the write interrupted, and what a
    /// refusal by the live device refused.
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            Write::Commit => ("commit", "commit append"),
            Write::BatchFlush => ("batch-flush", "batch flush"),
            Write::Prepare => ("prepare", "prepare append"),
            Write::Decide => ("decide", "decision append"),
            Write::Checkpoint => ("checkpoint", "checkpoint write"),
        }
    }
}

/// How a failed durable write left the system. Either way the caller's
/// acknowledgement is withdrawn and no volatile effect of the write
/// survives.
#[derive(Clone, Copy)]
enum Lost {
    /// The device lost power mid-write: the system power-cycled and
    /// recovered on the spot, exactly as if the process had crashed before
    /// acknowledging. Whether the record reached stable storage is whatever
    /// the recovery found.
    PowerCycled,
    /// The live device refused the write (retries exhausted, device full)
    /// and the backend rolled it back, or the power-cycle's recovery
    /// failed: the system is read-only [degraded](SystemMode::Degraded).
    Degraded,
}

impl Lost {
    /// The error the transaction behind the write sees.
    fn error_for(self, txn: TxnId) -> TxnError {
        match self {
            Lost::PowerCycled => TxnError::NotActive(txn),
            Lost::Degraded => TxnError::ReadOnly,
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
    /// The volatile system and the write-ahead buffer `commit` journals.
    vol: WriteAhead<A, E, C>,
    backend: B,
    journal: Journal,
    /// Builds a fresh volatile system over the objects of a share.
    make: Box<dyn Fn(Share) -> TxnSystem<A, E, C> + Send>,
    /// The objects this system holds; every rebuild builds exactly these.
    share: Share,
    /// In-doubt 2PC participants by global transaction id: durably PREPAREd
    /// (the yes-vote reached stable storage) but with no durable decision
    /// yet. The transaction stays *active* in the volatile system — holding
    /// every lock — until [`resolve`](Self::resolve) journals the decision;
    /// its record is the log's. Rebuilt from the log's in-doubt set after a
    /// crash, with fresh ghost transactions re-holding the locks.
    prepared: TxnTable<TxnId, u64>,
    /// The image the current history epoch was rebuilt from: the recorded
    /// trace restarts at every rebuild, from this base plus the replayed
    /// records. Kept only while history recording is on (nobody can ask
    /// what a trace starts from without a trace); a checkpoint taken
    /// mid-epoch moves the log's base but not this one.
    trace_base: Option<Vec<(ObjectId, A::State)>>,
    /// Normal, or read-only degraded after a device failure the backend's
    /// retry budget could not hide.
    mode: SystemMode,
    /// Group-commit admission bound: batch members beyond this many staged
    /// records are shed before the volatile commit. 0 = unbounded.
    max_staged: usize,
    /// Stall-detector threshold: a commit attempt whose device-stall delta
    /// reaches this many ticks counts as one strike. 0 = detector off.
    stall_threshold: u64,
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
            let adt = Arc::new(adt);
            let conflict = conflict.clone();
            Box::new(move |share| {
                TxnSystem::new_share(Arc::clone(&adt), n_objects, share, conflict.clone())
            })
        };
        let mut sys = DurableSystem {
            vol: WriteAhead::new(make(Share::ALL), 0),
            backend,
            journal: Journal::default(),
            make,
            share: Share::ALL,
            prepared: TxnTable::new(),
            trace_base: None,
            mode: SystemMode::Normal,
            max_staged: 0,
            stall_threshold: 0,
            stall_streak: 0,
            seen_stall_ticks: 0,
        };
        sys.vol.sys.obs_mut().set_label("backend", sys.backend.name());
        sys
    }

    /// Begin a transaction (volatile until commit).
    pub fn begin(&mut self) -> TxnId {
        self.vol.sys.begin()
    }

    /// Execute an operation (volatile until commit; buffered for the
    /// write-ahead journal with its global execution stamp).
    pub fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        self.vol.invoke(txn, obj, inv)
    }

    /// The durable write path — every append to the log goes through here.
    /// `write` performs the backend append; around it this times the
    /// `JournalAppend` span (checkpoints are not journal appends and run
    /// unspanned), forwards the retry telemetry, and closes the caller's
    /// `total` span, all *before* the result is judged, so the events of a
    /// crash-path recovery are not charged to the write.
    ///
    /// A failed write has two outcomes ([`Lost`]). A tripped crash-at-op
    /// trigger is a power loss: acknowledge it and recover — the
    /// unacknowledged tail is discardable, and for a checkpoint whichever
    /// image, old XOR new, reached stable storage folds to the same
    /// committed state. Any other failure means the live device refused and
    /// the backend rolled the append back, so nothing of it is durable:
    /// degrade to read-only. What success means is the caller's business.
    fn durable_write<T>(
        &mut self,
        kind: Write,
        total: Option<SpanToken>,
        write: impl FnOnce(&mut B) -> Result<T, StoreFailureKind>,
    ) -> Result<T, Lost> {
        let span = (kind != Write::Checkpoint)
            .then(|| self.vol.sys.obs_mut().span_begin(Phase::JournalAppend));
        let wrote = write(&mut self.backend);
        self.drain_retry_events();
        for s in span.into_iter().chain(total) {
            self.vol.sys.obs_mut().span_end(s);
        }
        let fail = match wrote {
            Ok(v) => return Ok(v),
            Err(fail) => fail,
        };
        let (interrupted, refused) = kind.labels();
        match fail {
            StoreFailureKind::Device(DiskError::Crashed) => {
                self.backend.crash();
                match self.recover_with(TornPolicy::DiscardTail) {
                    Ok(()) => return Err(Lost::PowerCycled),
                    Err(e) => self.enter_degraded(format!(
                        "device crashed mid-{interrupted} and recovery failed: {e:?}"
                    )),
                }
            }
            refusal => self.enter_degraded(format!("{refused} failed: {refusal:?}")),
        }
        Err(Lost::Degraded)
    }

    /// Commit: commit in the volatile system, then journal the
    /// transaction's operations (force to stable storage, in commit order).
    ///
    /// In [`SystemMode::Degraded`] the commit is refused with
    /// [`TxnError::ReadOnly`] and the transaction aborted (its effects were
    /// volatile). A failed append either degrades the system
    /// ([`TxnError::ReadOnly`]) or power-cycles it ([`TxnError::NotActive`])
    /// — see DESIGN.md §9, "The durable write path".
    pub fn commit(&mut self, txn: TxnId) -> Result<(), TxnError> {
        if self.mode == SystemMode::Degraded {
            let _ = self.vol.abort(txn);
            return Err(TxnError::ReadOnly);
        }
        // The volatile commit (lock release + validate + apply) runs inside
        // the total, as does the journal append with its retry events.
        let total = self.vol.sys.obs_mut().span_begin(Phase::CommitTotal);
        let rec = match self.vol.commit(txn) {
            Ok(rec) => rec,
            Err(e) => {
                self.vol.sys.obs_mut().span_end(total);
                return Err(e);
            }
        };
        self.durable_write(Write::Commit, Some(total), |b| {
            b.append_commit(&rec).map_err(|f| f.kind)
        })
        .map_err(|lost| lost.error_for(txn))?;
        self.journal.since_base += 1;
        self.vol.recycle(rec);
        self.observe_stalls();
        self.vol.prune();
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
                    let _ = self.vol.abort(t);
                    Err(TxnError::ReadOnly)
                })
                .collect();
        }
        // One CommitTotal span covers the whole group: every member's
        // volatile commit (with its own Validate span) plus the single
        // batched journal append.
        let total = self.vol.sys.obs_mut().span_begin(Phase::CommitTotal);
        let mut results = Vec::with_capacity(txns.len());
        let mut recs: Vec<CommitRecord<A>> = Vec::new();
        for &txn in txns {
            // Admission gate: once the staged batch reaches the bound, the
            // remaining members are shed *before* their volatile commit —
            // the journal never sees any of their operations, so the shed is
            // atomicity-preserving by construction (equivalent to a clean
            // abort). Callers retry shed transactions with backoff.
            if self.max_staged > 0 && recs.len() >= self.max_staged {
                self.vol.sys.obs_mut().on_shed(txn);
                let _ = self.vol.abort(txn);
                results.push(Err(TxnError::Shed));
                continue;
            }
            results.push(self.vol.commit(txn).map(|rec| recs.push(rec)));
        }
        if recs.is_empty() {
            self.vol.sys.obs_mut().span_end(total);
        } else {
            match self.durable_write(Write::BatchFlush, Some(total), |b| {
                b.append_commits(&recs).map_err(|f| f.kind)
            }) {
                Ok(()) => {
                    self.vol.sys.obs_mut().on_group_flush(recs.len() as u64, 0);
                    self.journal.since_base += recs.len() as u64;
                    recs.into_iter().for_each(|rec| self.vol.recycle(rec));
                    self.observe_stalls();
                }
                Err(lost) => {
                    // The whole batch's durability failed together: rewrite
                    // every volatile acknowledgement.
                    for (slot, &t) in results.iter_mut().zip(txns) {
                        if slot.is_ok() {
                            *slot = Err(lost.error_for(t));
                        }
                    }
                    return results;
                }
            }
        }
        self.vol.prune();
        results
    }

    /// Abort (nothing reaches the journal).
    pub fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        self.vol.abort(txn)
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
    /// durable record to conclude abort. After a power-cycle
    /// ([`TxnError::NotActive`]) the prepare may still have reached stable
    /// storage, in which case the gtid resurfaces [in doubt](Self::in_doubt)
    /// and the coordinator's abort decision (or presumption) resolves it.
    pub fn prepare(&mut self, txn: TxnId, gtid: u64) -> Result<(), TxnError> {
        if self.mode == SystemMode::Degraded {
            let _ = self.vol.abort(txn);
            return Err(TxnError::ReadOnly);
        }
        if !self.vol.sys.is_active(txn) {
            return Err(TxnError::NotActive(txn));
        }
        assert!(
            !self.prepared.contains_key(&gtid),
            "coordinator bug: gtid {gtid} prepared twice on one participant"
        );
        let rec = self.vol.record(txn);
        self.durable_write(Write::Prepare, None, |b| {
            b.append_prepare(gtid, &rec).map_err(|f| f.kind)
        })
        .map_err(|lost| lost.error_for(txn))?;
        self.vol.recycle(rec);
        self.vol.sys.obs_mut().on_prepare(txn, gtid);
        self.prepared.insert(gtid, txn);
        self.observe_stalls();
        Ok(())
    }

    /// 2PC phase two, participant side: durably journal the coordinator's
    /// decision for an in-doubt `gtid`, then apply it — commit the held
    /// transaction (the log replays its record at decision order) or abort
    /// it, releasing the locks either way. Idempotent: a gtid this
    /// participant no longer holds in doubt (already resolved, or the
    /// prepare never survived) acknowledges with `Ok` and journals nothing,
    /// so coordinators may retransmit decisions freely.
    ///
    /// After a power-cycle ([`TxnError::NotActive`]) the decision may or may
    /// not have reached stable storage — the caller re-checks
    /// [`in_doubt`](Self::in_doubt) and retransmits if the gtid still
    /// surfaces.
    pub fn resolve(&mut self, gtid: u64, commit: bool) -> Result<(), TxnError> {
        if self.mode == SystemMode::Degraded {
            return Err(TxnError::ReadOnly);
        }
        let Some(&txn) = self.prepared.get(&gtid) else {
            return Ok(());
        };
        self.durable_write(Write::Decide, None, |b| {
            b.append_decision(gtid, commit).map_err(|f| f.kind)
        })
        .map_err(|lost| lost.error_for(txn))?;
        self.prepared.remove(&gtid);
        self.vol.sys.obs_mut().on_decide(gtid, commit);
        self.observe_stalls();
        if commit {
            self.journal.since_base += 1;
            if self.vol.sys.commit(txn).is_err() {
                // The durable decision is the commit point; the volatile
                // refusal (a theorem-impossible wound of a lock-holding
                // preparee) cannot unwind it. Re-sync to the log.
                let _ = self.rebuild_from_log();
            }
        } else {
            let _ = self.vol.abort(txn);
        }
        self.vol.prune();
        Ok(())
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
            self.vol.sys.obs_mut().on_resolved(gtid, commit);
        }
        Ok(())
    }

    /// Global ids of in-doubt transactions: durably prepared, no durable
    /// decision. Ascending order.
    pub fn in_doubt(&self) -> Vec<u64> {
        self.prepared.keys().copied().collect()
    }

    /// Write a checkpoint: fold every object's committed state into a
    /// durable image, after which the backend may truncate the covered log
    /// prefix. Returns the number of whole segments truncated. No-op
    /// returning 0 when nothing was committed since the last checkpoint.
    ///
    /// This is also the exit from [`SystemMode::Degraded`]: a checkpoint
    /// that reaches stable storage is durable proof the healed device
    /// (`SimDisk::heal`) accepts writes again, so the system
    /// returns to [`SystemMode::Normal`]. A checkpoint the device refuses
    /// (returning 0) enters — or stays in — degraded mode, and whichever
    /// image is durably complete wins at the next recovery.
    pub fn checkpoint(&mut self) -> u64 {
        // A checkpoint image captures only *committed* state; truncating the
        // log while prepares are in doubt would orphan their PREPARE frames.
        // Refuse until every 2PC decision lands.
        if !self.prepared.is_empty() {
            return 0;
        }
        let records = self.journal.since_base;
        if records == 0 && self.journal.base.is_some() && self.mode == SystemMode::Normal {
            return 0;
        }
        let img = CheckpointImage {
            base_records: self.journal.base_records() + records,
            txn_floor: self.vol.sys.next_txn_id(),
            next_exec_seq: self.vol.exec_seq(),
            states: self.vol.sys.committed_states(),
        };
        let Ok(truncated) = self.durable_write(Write::Checkpoint, None, |b| {
            b.write_checkpoint(&img).map_err(|f| f.kind)
        }) else {
            return 0;
        };
        self.journal = Journal { base: Some(img.base_records), since_base: 0 };
        self.vol.sys.obs_mut().on_checkpoint(records, truncated);
        if self.mode == SystemMode::Degraded {
            self.mode = SystemMode::Normal;
            self.vol.sys.obs_mut().on_degraded(false, String::new);
        }
        truncated
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
    /// repaired in place (e.g. `SimDisk::unflip_all`): a fresh crash
    /// would wipe the backend's volatile detection counters, so the repair
    /// flow must not take one.
    pub fn recover_with(&mut self, policy: TornPolicy) -> Result<(), RedoError> {
        // Phase accounting: the scan/classify/repair stage splits come from
        // the backend's ScanReport (their op counts tile the successful
        // attempt's device-op delta exactly); rebuild and replay are timed
        // by `rebuild`. Units for the recovery total are the attempt's
        // device ops.
        let wall = std::time::Instant::now();
        let mut attempt_ops;
        let recovered = loop {
            let ops0 = self.backend.device_op_count();
            let attempt = self.backend.recover(policy);
            self.drain_retry_events();
            attempt_ops = self.backend.device_op_count() - ops0;
            let fail = match attempt {
                Ok(r) => break r,
                Err(fail) => fail,
            };
            match fail.kind {
                // A crash-at-op trigger tripped *during recovery*: acknowledge
                // the nested power loss and recover from whatever the
                // interrupted attempt left durable. The trigger is one-shot
                // (tripping consumes it), so this converges.
                StoreFailureKind::Device(DiskError::Crashed) => {
                    self.backend.crash();
                    continue;
                }
                // A transient-error burst outlasted one op's retry budget
                // mid-scan. The burst is finite and every failed attempt
                // consumes part of it, so re-running the scan converges —
                // recovery is the one path that must not give up on a
                // retryable error, since nothing downstream can serve until
                // it completes.
                StoreFailureKind::Device(DiskError::Transient) => continue,
                _ => {}
            }
            // Surface the scan evidence on the surviving tracer even though
            // the rebuild is refused.
            emit_scan(self.vol.sys.obs_mut(), &fail.report);
            self.vol.sys.obs_mut().on_phase(
                Phase::RecoveryTotal,
                attempt_ops,
                wall.elapsed().as_nanos() as u64,
            );
            return Err(fail.kind.into());
        };
        // Floors come from the log, not from pre-crash process memory — and
        // they already cover the in-doubt prepares, so the ghosts get fresh
        // post-crash ids.
        let rebuilt = self.rebuild(&recovered, recovered.txn_floor)?;
        // Replay succeeded: move the surviving tracer over (it models
        // durable monitoring state, so counters and histograms survive),
        // record the scan evidence and the recovery on it (on `Err` above
        // the pre-crash system is left in place, preserving all-or-nothing
        // recovery).
        let replayed = recovered.records.len();
        let restored = recovered.checkpoint.as_ref().map_or(0, |c| c.states.len() as u64);
        let mut obs = self.vol.sys.take_obs();
        emit_scan(&mut obs, &recovered.scan);
        obs.on_phase(Phase::Rebuild, restored, rebuilt.restore_ns);
        obs.on_phase(Phase::Replay, replayed as u64, rebuilt.replay_ns);
        obs.on_recovery(replayed);
        if !rebuilt.ghosts.is_empty() {
            obs.on_in_doubt(rebuilt.ghosts.len() as u64);
        }
        // Crash to serving includes tearing the crashed system down.
        self.vol = WriteAhead::new(rebuilt.sys, recovered.next_exec_seq);
        obs.on_phase(Phase::RecoveryTotal, attempt_ops, wall.elapsed().as_nanos() as u64);
        self.vol.sys.set_obs(obs);
        self.prepared = rebuilt.ghosts;
        self.trace_base = rebuilt.trace_base;
        let base = recovered.checkpoint.as_ref().map(|c| c.base_records);
        self.journal = Journal { base, since_base: replayed as u64 };
        // A successful recovery proved the device writable (the epoch bump
        // reached stable storage): leave degraded mode. The stall sampler
        // re-anchors on the recovered device — recovery's own ticks are not
        // charged to the next commit.
        self.seen_stall_ticks = self.stall_ticks();
        self.stall_streak = 0;
        if self.mode == SystemMode::Degraded {
            self.mode = SystemMode::Normal;
            self.vol.sys.obs_mut().on_degraded(false, String::new);
        }
        Ok(())
    }

    /// Build a volatile system that holds exactly what `log` holds: its
    /// checkpoint restored, its records redone in order at the engines
    /// ([`TxnSystem::redo`]: nothing is active, so no lock decides anything),
    /// the id floor reserved, and each in-doubt prepare re-installed as a
    /// *ghost* — a fresh transaction that re-invokes the prepared operations
    /// and stays active, re-holding every lock until the coordinator's
    /// decision resolves it. Every replayed response is checked against the
    /// record.
    ///
    /// Both ways back from the log come through here: a recovery
    /// ([`recover_with`](Self::recover_with)) passes its scan and the floor
    /// it read; a degrade ([`rebuild_from_log`](Self::rebuild_from_log))
    /// passes the log as it stands and the live floor. The system is
    /// returned, not installed: on `Err` the caller's current one stays. It
    /// keeps the conflict policy and history-recording switch set since
    /// construction, and a silent throwaway tracer the caller replaces.
    fn rebuild(&self, log: &RecoveredLog<A>, floor: u32) -> Result<Rebuilt<A, E, C>, RedoError> {
        let base = log.checkpoint.as_ref().map(|c| c.states.as_slice());
        let restore_clock = std::time::Instant::now();
        let mut fresh = (self.make)(self.share);
        fresh.set_policy(self.vol.sys.policy());
        fresh.set_record_trace(self.vol.sys.records_trace());
        fresh.obs_mut().set_record_events(false);
        for (obj, state) in base.unwrap_or_default() {
            fresh.restore_committed(*obj, state.clone());
        }
        let restore_ns = restore_clock.elapsed().as_nanos() as u64;
        let replay_clock = std::time::Instant::now();
        for (record, rec) in log.records.iter().enumerate() {
            fresh.redo(record, rec)?;
        }
        fresh.reserve_txn_ids(floor);
        let mut ghosts = TxnTable::new();
        for (gi, (gtid, rec)) in log.in_doubt.iter().enumerate() {
            let (record, t) = (log.records.len() + gi, fresh.begin());
            for (op, (_seq, obj, logged)) in rec.ops.iter().enumerate() {
                match fresh.invoke(t, *obj, logged.inv.clone()) {
                    Ok(resp) if resp == logged.resp => {}
                    Ok(_) => return Err(RedoError::ResponseDiverged { record, op }),
                    Err(_) => return Err(RedoError::ReplayRefused { record }),
                }
            }
            ghosts.insert(*gtid, t);
        }
        let replay_ns = replay_clock.elapsed().as_nanos() as u64;
        let trace_base = base.filter(|_| fresh.records_trace()).map(<[_]>::to_vec);
        Ok(Rebuilt { sys: fresh, ghosts, trace_base, restore_ns, replay_ns })
    }

    /// Forward the backend's retry telemetry to the tracer (one `IoRetry`
    /// event per checked device op that needed retries).
    fn drain_retry_events(&mut self) {
        for r in self.backend.drain_retries() {
            self.vol.sys.obs_mut().on_io_retry(r.attempts, r.backoff, r.ok);
        }
    }

    /// Bound the group-commit admission queue:
    /// [`commit_group`](Self::commit_group) sheds batch members beyond
    /// `max_staged` staged records with [`TxnError::Shed`], before their
    /// volatile commit. 0 (the default) admits everything.
    pub fn set_admission_bound(&mut self, max_staged: usize) {
        self.max_staged = max_staged;
    }

    /// Arm the gray-failure health detector: a commit attempt whose
    /// device-stall delta reaches `threshold` ticks counts as one strike;
    /// two *consecutive* over-threshold attempts degrade the system
    /// (read-only until the device is healed and a checkpoint or recovery
    /// proves it writable). `threshold == 0` disables the
    /// detector; stall deltas are still observed and counted.
    pub fn set_stall_detector(&mut self, threshold: u64) {
        self.stall_threshold = threshold;
    }

    /// The latency surplus the device's gray channels have charged so far (0
    /// without a device): the detector watches its delta across commits to
    /// tell a busy device from a lying one.
    fn stall_ticks(&self) -> u64 {
        self.backend.device().map_or(0, SimDisk::stall_ticks)
    }

    /// Sample the backend's cumulative stall-tick counter, emit the delta as
    /// a `Stall` event (feeding the stall-latency histogram), and run the
    /// hysteresis detector. Called after every durable append that
    /// succeeded; a zero delta is a healthy sample and resets the streak.
    fn observe_stalls(&mut self) {
        let now = self.stall_ticks();
        let delta = now.saturating_sub(self.seen_stall_ticks);
        self.seen_stall_ticks = now;
        if delta > 0 {
            self.vol.sys.obs_mut().on_stall(delta);
        }
        if self.stall_threshold == 0 {
            return;
        }
        if delta >= self.stall_threshold {
            self.stall_streak += 1;
            if self.stall_streak >= STALL_STRIKES && self.mode == SystemMode::Normal {
                self.stall_streak = 0;
                self.enter_degraded(format!(
                    "sustained device latency: {delta} stall ticks on the last of {STALL_STRIKES} strikes"
                ));
            }
        } else {
            self.stall_streak = 0;
        }
    }

    /// Enter read-only degraded mode: emit the event, then roll the volatile
    /// system back to stable truth by replaying the log into a fresh one.
    /// Active transactions evaporate (their effects were volatile); reads
    /// keep serving the durable committed state. Idempotent.
    fn enter_degraded(&mut self, reason: String) {
        if self.mode == SystemMode::Degraded {
            return;
        }
        self.mode = SystemMode::Degraded;
        self.vol.sys.obs_mut().on_degraded(true, || reason);
        // On the (theorem-impossible) replay failure the stale volatile
        // system stays in place; the simulator's oracle surfaces the
        // divergence.
        let _ = self.rebuild_from_log();
    }

    /// Rebuild the volatile system from the log read as it stands
    /// ([`LogBackend::read_log`]: the device just refused writes, and no
    /// armed fault may be consumed). The process did not crash, so the id
    /// floor and execution sequence carry over from process memory; the
    /// in-doubt prepares get fresh ghosts all the same.
    fn rebuild_from_log(&mut self) -> Result<(), RedoError> {
        let log = self.backend.read_log().map_err(|f| RedoError::from(f.kind))?;
        let rebuilt = self.rebuild(&log, self.vol.sys.next_txn_id())?;
        let mut fresh = rebuilt.sys;
        fresh.set_obs(self.vol.sys.take_obs());
        self.vol = WriteAhead::new(fresh, self.vol.exec_seq());
        self.prepared = rebuilt.ghosts;
        self.trace_base = rebuilt.trace_base;
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

    /// The global execution-sequence counter (the next stamp to allocate).
    /// Part of the model checker's canonical state: two states that differ
    /// only here still journal different records from now on.
    pub fn exec_seq(&self) -> u64 {
        self.vol.exec_seq()
    }

    /// The committed state of `obj`.
    pub fn committed_state(&mut self, obj: ObjectId) -> A::State {
        self.vol.sys.committed_state(obj)
    }

    /// How many commit records the log holds, before and after its
    /// checkpoint base.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The per-object states the recorded history
    /// ([`TxnSystem::trace`]) starts from, when the current system was
    /// rebuilt from a checkpoint image (`None`: from `initial()`, or
    /// history recording is off).
    pub fn trace_base(&self) -> Option<&[(ObjectId, A::State)]> {
        self.trace_base.as_deref()
    }

    /// The storage backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access: fault injection, device healing and the
    /// retry policy all reach the device through this, not through
    /// pass-throughs here.
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
        &self.vol.sys
    }

    /// Mutable access to the volatile system (scheduler loops and fault
    /// injection need `abort_with`, `find_deadlock` etc.).
    pub fn system_mut(&mut self) -> &mut TxnSystem<A, E, C> {
        &mut self.vol.sys
    }

    /// Execution counters (carried across crashes).
    pub fn stats(&self) -> &crate::system::SystemStats {
        self.vol.sys.stats()
    }

    /// Hold only the objects in `share`, now and in every rebuild: the
    /// fleet's narrowing of a shard it was handed fresh.
    pub(crate) fn keep_share(&mut self, share: Share) {
        self.share = share;
        self.vol.sys.keep_share(share);
    }
}

/// What [`DurableSystem::rebuild`] built: the system, the in-doubt ghosts
/// it holds, and the wall time of its two stages.
struct Rebuilt<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> {
    sys: TxnSystem<A, E, C>,
    ghosts: TxnTable<TxnId, u64>,
    /// The restored base, when the rebuilt system records its history.
    trace_base: Option<Vec<(ObjectId, A::State)>>,
    restore_ns: u64,
    replay_ns: u64,
}

/// A full snapshot of a [`DurableSystem`] at one instant: the volatile
/// system (lock table, engines, tracer) with its write-ahead buffer, the
/// stable backend (durable image plus write cache and armed faults), the
/// in-doubt table and the counters. The model checker's DFS explorer forks
/// execution by taking a snapshot at each decision point, trying one action,
/// and [`DurableSystem::restore`]-ing before trying the next.
///
/// The one piece *not* captured is the `make` closure and the share it
/// builds — immutable configuration (ADT, object count, conflict relation,
/// owned objects), so restoring into the same `DurableSystem` is exact.
#[derive(Clone)]
pub struct SystemSnapshot<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    vol: WriteAhead<A, E, C>,
    backend: B,
    journal: Journal,
    prepared: TxnTable<TxnId, u64>,
    trace_base: Option<Vec<(ObjectId, A::State)>>,
    mode: SystemMode,
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
            vol: self.vol.clone(),
            backend: self.backend.clone(),
            journal: self.journal,
            prepared: self.prepared.clone(),
            trace_base: self.trace_base.clone(),
            mode: self.mode,
        }
    }

    /// Rewind to a snapshot taken from this (or an identically configured)
    /// system. Non-consuming: the explorer restores the same snapshot once
    /// per branch of the decision point.
    pub fn restore(&mut self, snap: &SystemSnapshot<A, E, C, B>) {
        let SystemSnapshot { vol, backend, journal, prepared, trace_base, mode } = snap.clone();
        (self.vol, self.backend, self.journal, self.prepared, self.trace_base, self.mode) =
            (vol, backend, journal, prepared, trace_base, mode);
        // Re-anchor the stall sampler on the restored backend so the next
        // observation charges only post-restore deltas; the strike streak
        // does not survive a rewind.
        self.seen_stall_ticks = self.stall_ticks();
        self.stall_streak = 0;
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

        assert!(sys.backend_mut().tear_last_flush(1));
        // Strict recovery refuses the torn record — never silent corruption.
        assert_eq!(
            sys.crash_and_recover(),
            Err(RedoError::TornRecord { record: 1, expected: 2, found: 1 })
        );
        // DiscardTail drops the torn commit entirely, as if `u` aborted.
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        assert_eq!(sys.committed_state(X), 10);
        assert_eq!(sys.journal().len(), 1);
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
        assert_eq!(sys.journal().since_base(), 0);
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
        assert_eq!(sys.journal().since_base(), 1);
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
        assert!(sys.backend_mut().disk_mut().flip_bit(700));
        let err = sys.crash_and_recover().unwrap_err();
        assert!(
            matches!(err, RedoError::CorruptRecord { .. } | RedoError::TornRecord { .. }),
            "a flipped bit must fail loudly, got {err:?}"
        );
        // The medium is repaired; the retry must NOT crash again (that would
        // wipe the backend's volatile detection counters before they are
        // persisted by the successful recovery).
        assert_eq!(sys.backend_mut().disk_mut().unflip_all(), 1);
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
    fn a_torn_group_flush_recovers_none_of_the_batch() {
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
        // Tear one sector off the batch flush: the batch is one frame, so
        // none of it survives — it was never acknowledged.
        assert!(sys.backend_mut().tear_last_flush(1));
        assert!(matches!(sys.crash_and_recover(), Err(RedoError::TornRecord { .. })));
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        assert_eq!(sys.committed_state(X), 100);
        assert_eq!(sys.journal().len(), 1);
        // The repaired log is clean from now on.
        sys.crash_and_recover().unwrap();
        assert_eq!(sys.committed_state(X), 100);
    }

    #[test]
    fn disk_full_degrades_to_read_only_then_heals() {
        let mut sys = disk_sys(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.commit(t).unwrap();

        sys.backend_mut().disk_mut().set_full(true);
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
        sys.backend_mut().disk_mut().heal();
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
        sys.backend_mut().disk_mut().arm_transient_errors(2);
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
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(4)).unwrap();
        sys.commit(t).unwrap();
        // A transient budget at the attempt cap exhausts the retries.
        sys.backend_mut().disk_mut().arm_transient_errors(64);
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
        assert_eq!(sys.commit(u), Err(TxnError::ReadOnly));
        assert!(sys.is_degraded());
        assert_eq!(sys.committed_state(X), 4, "the rolled-back append left nothing durable");
        // Recovery on the healed device is the other exit from degraded mode.
        sys.backend_mut().disk_mut().heal();
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
        sys.backend_mut().disk_mut().set_full(true);
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
        sys.set_stall_detector(1);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
        sys.commit(t).unwrap();
        assert!(!sys.is_degraded(), "a healthy commit must not strike");
        // A gray device: every flush from now on stalls. The first stalled
        // commit is one strike (still acknowledged and durable); the second
        // consecutive strike trips the detector *after* acknowledging.
        sys.backend_mut().disk_mut().arm_fsync_stall(100, 8);
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
        sys.backend_mut().disk_mut().heal();
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
        assert!(sys.backend_mut().tear_last_flush(1), "multi-sector commit frame is tearable");
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
        assert!(matches!(sys.invoke(u, X, BankInv::Withdraw(1)), Err(TxnError::Blocked)));
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
        assert_eq!(sys.backend().read_log().unwrap().in_doubt[0].1.ops.len(), 1);
        // The ghost re-holds the lock; the prepared deposit is not visible.
        assert_eq!(sys.committed_state(X), 0);
        let u = sys.begin();
        assert!(matches!(sys.invoke(u, X, BankInv::Withdraw(1)), Err(TxnError::Blocked)));
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
        sys.backend_mut().disk_mut().arm_crash_at_op(0);
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

            // Degrading rebuilds from the log read as it stands.
            sys.backend_mut().disk_mut().set_full(true);
            let u = sys.begin();
            sys.invoke(u, X, BankInv::Deposit(5)).unwrap();
            assert_eq!(sys.commit(u), Err(TxnError::ReadOnly));
            assert!(sys.is_degraded());
            assert_eq!(sys.in_doubt(), vec![9]);
            serves_as_configured(&mut sys, policy);
            assert_eq!(sys.committed_state(X), 10);
        }
    }

    /// The two ways back from the log — a degrade reading it as it stands
    /// (no power loss) and a recovery rebuilding from the backend's scan —
    /// must land in the same place: same committed
    /// states, same in-doubt set, a ghost re-holding the same locks.
    #[test]
    fn degrade_and_recovery_rebuild_the_same_system() {
        let (y, z) = (ObjectId(1), ObjectId(2));
        // A checkpoint base, a record after it, one in-doubt prepare and
        // one transaction in flight.
        let pre_failure = || {
            let mut sys = disk_sys(3);
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
            sys.commit(t).unwrap();
            sys.checkpoint();
            let t = sys.begin();
            sys.invoke(t, y, BankInv::Deposit(4)).unwrap();
            sys.commit(t).unwrap();
            let p = sys.begin();
            sys.invoke(p, z, BankInv::Deposit(7)).unwrap();
            sys.prepare(p, 9).unwrap();
            let u = sys.begin();
            sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
            (sys, u)
        };
        let (mut degraded, u) = pre_failure();
        degraded.backend_mut().disk_mut().set_full(true);
        assert_eq!(degraded.commit(u), Err(TxnError::ReadOnly));
        assert!(degraded.is_degraded());
        let (mut recovered, _) = pre_failure();
        recovered.crash_and_recover().unwrap();
        // The documented difference: a degrade keeps the live counters (the
        // in-flight deposit's stamp and id stay spent), a recovery reads
        // both floors back from the log.
        assert_eq!((degraded.exec_seq(), recovered.exec_seq()), (4, 3));
        assert!(degraded.system().next_txn_id() > recovered.system().next_txn_id());

        for sys in [&mut degraded, &mut recovered] {
            assert_eq!([X, y, z].map(|obj| sys.committed_state(obj)), [10, 4, 0]);
            assert_eq!(sys.in_doubt(), vec![9]);
            assert_eq!(sys.journal().base_records(), 1);
            assert_eq!(sys.journal().since_base(), 1);
            // The ghost holds the prepared deposit's lock, and only that.
            let w = sys.begin();
            assert!(matches!(sys.invoke(w, z, BankInv::Withdraw(1)), Err(TxnError::Blocked)));
            sys.invoke(w, y, BankInv::Withdraw(1)).unwrap();
            sys.abort(w).unwrap();
        }
        let in_doubt = |sys: &DiskDurable| sys.backend().read_log().unwrap().in_doubt;
        assert_eq!(in_doubt(&degraded), in_doubt(&recovered));
    }

    /// The durable writes, each run against the same set-up: a committed
    /// deposit of 10 on X and — for the resolve rows — a durably prepared
    /// deposit of 5 on Y under gtid 7.
    #[derive(Clone, Copy, Debug)]
    enum Case {
        Commit,
        Group3,
        Prepare,
        ResolveCommit,
        ResolveAbort,
        Checkpoint,
    }

    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// A transient burst longer than the retry budget.
        Transient,
        Full,
        /// Power loss at the `k`-th checked device op of the write.
        CrashAt(u64),
    }

    /// Performs the write under test and renders what it returned.
    type Run = Box<dyn FnOnce(&mut DiskDurable) -> String>;

    /// Build the set-up for `case`, and its write.
    fn staged(case: Case) -> (DiskDurable, Run) {
        let y = ObjectId(1);
        let mut sys = disk_sys(2);
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(10)).unwrap();
        sys.commit(t).unwrap();
        let run: Run = match case {
            Case::Commit => {
                let u = sys.begin();
                sys.invoke(u, X, BankInv::Deposit(1)).unwrap();
                sys.invoke(u, y, BankInv::Deposit(2)).unwrap();
                Box::new(move |s| format!("{:?}", s.commit(u)))
            }
            Case::Group3 => {
                let txns: Vec<TxnId> = [(X, 1), (y, 2), (X, 4)]
                    .into_iter()
                    .map(|(obj, amount)| {
                        let u = sys.begin();
                        sys.invoke(u, obj, BankInv::Deposit(amount)).unwrap();
                        u
                    })
                    .collect();
                Box::new(move |s| format!("{:?}", s.commit_group(&txns)))
            }
            Case::Prepare => {
                let p = sys.begin();
                sys.invoke(p, y, BankInv::Deposit(5)).unwrap();
                Box::new(move |s| format!("{:?}", s.prepare(p, 7)))
            }
            Case::ResolveCommit | Case::ResolveAbort => {
                let p = sys.begin();
                sys.invoke(p, y, BankInv::Deposit(5)).unwrap();
                sys.prepare(p, 7).unwrap();
                let commit = matches!(case, Case::ResolveCommit);
                Box::new(move |s| format!("{:?}", s.resolve(7, commit)))
            }
            Case::Checkpoint => {
                let u = sys.begin();
                sys.invoke(u, y, BankInv::Deposit(3)).unwrap();
                sys.commit(u).unwrap();
                Box::new(|s| format!("truncated={}", s.checkpoint()))
            }
        };
        (sys, run)
    }

    /// One row of the table: what the write returned under the fault, the
    /// mode, in-doubt set and failure counters it left behind, and what a
    /// final discard-tail recovery of the healed device serves.
    fn failed_write_row(case: Case, fault: Fault) -> String {
        let y = ObjectId(1);
        let (mut sys, run) = staged(case);
        let disk = sys.backend_mut().disk_mut();
        match fault {
            Fault::Transient => disk.arm_transient_errors(64),
            Fault::Full => disk.set_full(true),
            Fault::CrashAt(k) => disk.arm_crash_at_op(k),
        }
        let returned = run(&mut sys);
        let (mode, doubt) = (sys.mode(), sys.in_doubt());
        let st = sys.stats().clone();
        sys.backend_mut().disk_mut().heal();
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        format!(
            "{case:?}/{fault:?}: {returned} mode={mode:?} doubt={doubt:?} io_retries={} \
             degraded={}/{} crashes={} | recovered: states={:?} doubt={:?}",
            st.io_retries,
            st.degraded_entries,
            st.degraded_exits,
            st.crashes,
            [sys.committed_state(X), sys.committed_state(y)],
            sys.in_doubt(),
        )
    }

    /// Every durable write × every way its append can fail, against values
    /// recorded before the five failure ladders became one: the error per
    /// slot, the mode, the in-doubt set, the counters, and the state a
    /// recovery serves afterwards.
    #[test]
    fn every_durable_write_fails_the_same_way_under_every_device_fault() {
        let mut rows = Vec::new();
        for case in [
            Case::Commit,
            Case::Group3,
            Case::Prepare,
            Case::ResolveCommit,
            Case::ResolveAbort,
            Case::Checkpoint,
        ] {
            // The write's checked device ops, measured on a fault-free twin.
            let (mut twin, run) = staged(case);
            let before = twin.backend().device_op_count();
            run(&mut twin);
            let ops = twin.backend().device_op_count() - before;
            assert!(ops >= 2, "{case:?}: a durable write is at least a write and a flush");
            rows.push(failed_write_row(case, Fault::Transient));
            rows.push(failed_write_row(case, Fault::Full));
            rows.extend((0..ops).map(|k| failed_write_row(case, Fault::CrashAt(k))));
        }
        let got = rows.join("\n");
        assert!(got == FAILED_WRITE_ROWS.trim(), "failed-write table changed:\n{got}");
    }

    const FAILED_WRITE_ROWS: &str = "
Commit/Transient: Err(ReadOnly) mode=Degraded doubt=[] io_retries=1 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[]
Commit/Full: Err(ReadOnly) mode=Degraded doubt=[] io_retries=0 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[]
Commit/CrashAt(0): Err(NotActive(T1)) mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[]
Commit/CrashAt(1): Err(NotActive(T1)) mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[]
Group3/Transient: [Err(ReadOnly), Err(ReadOnly), Err(ReadOnly)] mode=Degraded doubt=[] io_retries=1 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[]
Group3/Full: [Err(ReadOnly), Err(ReadOnly), Err(ReadOnly)] mode=Degraded doubt=[] io_retries=0 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[]
Group3/CrashAt(0): [Err(NotActive(T1)), Err(NotActive(T2)), Err(NotActive(T3))] mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[]
Group3/CrashAt(1): [Err(NotActive(T1)), Err(NotActive(T2)), Err(NotActive(T3))] mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[]
Prepare/Transient: Err(ReadOnly) mode=Degraded doubt=[] io_retries=1 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[]
Prepare/Full: Err(ReadOnly) mode=Degraded doubt=[] io_retries=0 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[]
Prepare/CrashAt(0): Err(NotActive(T1)) mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[]
Prepare/CrashAt(1): Err(NotActive(T1)) mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[]
ResolveCommit/Transient: Err(ReadOnly) mode=Degraded doubt=[7] io_retries=1 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[7]
ResolveCommit/Full: Err(ReadOnly) mode=Degraded doubt=[7] io_retries=0 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[7]
ResolveCommit/CrashAt(0): Err(NotActive(T1)) mode=Normal doubt=[7] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[7]
ResolveCommit/CrashAt(1): Err(NotActive(T1)) mode=Normal doubt=[7] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[7]
ResolveAbort/Transient: Err(ReadOnly) mode=Degraded doubt=[7] io_retries=1 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[7]
ResolveAbort/Full: Err(ReadOnly) mode=Degraded doubt=[7] io_retries=0 degraded=1/0 crashes=0 | recovered: states=[10, 0] doubt=[7]
ResolveAbort/CrashAt(0): Err(NotActive(T1)) mode=Normal doubt=[7] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[7]
ResolveAbort/CrashAt(1): Err(NotActive(T1)) mode=Normal doubt=[7] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 0] doubt=[7]
Checkpoint/Transient: truncated=0 mode=Degraded doubt=[] io_retries=1 degraded=1/0 crashes=0 | recovered: states=[10, 3] doubt=[]
Checkpoint/Full: truncated=0 mode=Degraded doubt=[] io_retries=0 degraded=1/0 crashes=0 | recovered: states=[10, 3] doubt=[]
Checkpoint/CrashAt(0): truncated=0 mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 3] doubt=[]
Checkpoint/CrashAt(1): truncated=0 mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 3] doubt=[]
Checkpoint/CrashAt(2): truncated=0 mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 3] doubt=[]
Checkpoint/CrashAt(3): truncated=0 mode=Normal doubt=[] io_retries=0 degraded=0/0 crashes=1 | recovered: states=[10, 3] doubt=[]
";
}
