//! The [`LogBackend`] abstraction: what the durable runtime needs from a
//! log, and the fast in-memory implementation.
//!
//! `DurableSystem` (in `ccr-runtime`) journals one [`CommitRecord`] per
//! committed transaction and periodically folds the log into a
//! [`CheckpointImage`]. After a crash it calls [`LogBackend::recover`] and
//! replays the surviving records. Two implementations exist:
//!
//! - [`MemBackend`]: a `Vec` of records. The struct itself plays the role of
//!   stable memory (crash is a no-op on it), and torn writes are modeled at
//!   *operation* granularity — the semantics the original in-memory journal
//!   had, preserved so the fast test suite keeps its exact failure shapes.
//! - [`crate::WalBackend`]: the real thing — a segmented CRC'd write-ahead
//!   log on a [`crate::SimDisk`], with sector-granularity fault injection.
//!
//! The recovery *views* of the paper live here too, as pure functions:
//! [`replay_uip`] folds operations in execution order (update-in-place redo);
//! [`replay_du`] folds whole intentions lists in commit order (deferred
//! update). For a dynamically atomic history the two folds agree — that
//! equality is the fifth leg of the simulator's oracle.

use std::collections::BTreeMap;

use ccr_core::adt::{Adt, Op};
use ccr_core::ids::ObjectId;

use crate::disk::{DiskError, SimDisk};

/// One retried device operation, as recorded by the backend and drained by
/// the runtime into observability events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryRecord {
    /// Retries performed (at least 1 — unretried ops are not recorded).
    pub attempts: u32,
    /// Total logical backoff ticks spent.
    pub backoff: u64,
    /// Whether the op eventually succeeded.
    pub ok: bool,
}

/// Result of a successful recovery-convergence probe: how many nested-crash
/// trials ran and how many device ops the baseline recovery consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Nested-crash trials executed (one per device-op index, plus retries).
    pub trials: u64,
    /// Device ops the baseline recovery consumed (= crash injection points).
    pub device_ops: u64,
}

/// A recovery-convergence violation: some nested-crash trial eventually
/// recovered to a state that differs from the baseline recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceFailure {
    /// Device-op index at which the nested crash was injected.
    pub trial: u64,
    /// What diverged (fingerprint, floors, stats) or why the trial could
    /// not complete.
    pub reason: String,
}

impl std::fmt::Display for ConvergenceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "recovery diverged at nested crash op {}: {}", self.trial, self.reason)
    }
}

/// One committed transaction as journaled: the transaction-id floor at
/// commit time plus the committed operations, each stamped with its global
/// execution sequence number (`exec_seq`) so UIP replay can restore
/// execution order across transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord<A: Adt> {
    /// `next_txn_id` immediately after this commit — recovery restores the
    /// id floor from the last surviving record (satellite: the floor must
    /// come from the log, not from process memory).
    pub floor: u32,
    /// `(exec_seq, object, operation)` in intention-list (per-transaction
    /// program) order.
    pub ops: Vec<(u64, ObjectId, Op<A>)>,
}

/// A checkpoint: the folded committed state of every object, plus the
/// counters a restart must not lose. Records before the checkpoint can be
/// truncated once it is durable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointImage<A: Adt> {
    /// How many commit records the checkpoint folds (monotone across the
    /// log's life, never reset by truncation).
    pub base_records: u64,
    /// Transaction-id floor at checkpoint time.
    pub txn_floor: u32,
    /// Global execution sequence floor at checkpoint time.
    pub next_exec_seq: u64,
    /// Committed state per object, sorted by object id.
    pub states: Vec<(ObjectId, A::State)>,
}

/// Durable counters a real restart reads back from the log (satellite:
/// `SystemStats` continuity across crashes must come from storage, not from
/// the fiction of surviving process memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Successful recoveries.
    pub recoveries: u64,
    /// Torn writes *detected* by recovery scans (frames extending into
    /// lost sectors; op-granularity tears for the mem backend).
    pub sector_tears: u64,
    /// Reordered flushes detected (a hole where a frame should start, with
    /// surviving data after it).
    pub reordered_flushes: u64,
    /// CRC mismatches detected on structurally complete frames.
    pub bitflips_detected: u64,
}

impl StoreStats {
    pub fn add(&mut self, other: &StoreStats) {
        self.checkpoints += other.checkpoints;
        self.recoveries += other.recoveries;
        self.sector_tears += other.sector_tears;
        self.reordered_flushes += other.reordered_flushes;
        self.bitflips_detected += other.bitflips_detected;
    }
}

/// One damage site found by a recovery scan, with the physical evidence
/// that classified it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detection {
    /// A frame extends into sectors that are absent or zero — the write was
    /// torn mid-frame.
    TornFrame { sector: u64 },
    /// A frame position holds no data but later sectors of the same segment
    /// do — the flush persisted out of order.
    MissingData { sector: u64 },
    /// A structurally complete frame whose CRC does not match — bit rot.
    CrcMismatch { sector: u64 },
    /// A valid frame found *after* a damage point — interior corruption,
    /// never recoverable by tail discard.
    InteriorFrame { sector: u64 },
}

impl Detection {
    pub fn sector(&self) -> u64 {
        match *self {
            Detection::TornFrame { sector }
            | Detection::MissingData { sector }
            | Detection::CrcMismatch { sector }
            | Detection::InteriorFrame { sector } => sector,
        }
    }
}

/// What a recovery scan saw, whether or not it succeeded. Carried on both
/// [`RecoveredLog`] and [`StoreFailure`] so the runtime can emit
/// observability events for every scan.
///
/// The `*_ops` fields split the scan's checked device operations across the
/// three recovery stages — walking the frames (*scan*), probing beyond a
/// damage site (*classify*), and mutating the image back to health
/// (*repair*: tail deletion, the sealing header fsync). They tile the
/// attempt's device-op total exactly, which is what the profiler's
/// phase-coverage check leans on. The `*_ns` fields carry
/// wall time for the same stages; wall time is inherently nondeterministic,
/// so equality ([`PartialEq`]) deliberately ignores it — two scans of the
/// same image compare equal whatever the clock did.
#[derive(Clone, Debug, Default)]
pub struct ScanReport {
    /// Log segments visited.
    pub segments: u64,
    /// Valid frames decoded.
    pub frames: u64,
    /// Durable sectors examined.
    pub sectors: u64,
    /// Damage sites, in scan order.
    pub detections: Vec<Detection>,
    /// Human-readable damage classification (`"clean"`, `"torn-tail"`,
    /// `"interior"`, ...).
    pub damage: &'static str,
    /// Checked device ops spent walking segment headers and frames.
    pub scan_ops: u64,
    /// Checked device ops spent probing beyond a damage site.
    pub classify_ops: u64,
    /// Checked device ops spent repairing the image (tail discard, sealing
    /// header write).
    pub repair_ops: u64,
    /// Wall nanoseconds of the scan stage (not compared; see above).
    pub scan_ns: u64,
    /// Wall nanoseconds of the classify stage (not compared).
    pub classify_ns: u64,
    /// Wall nanoseconds of the repair stage (not compared).
    pub repair_ns: u64,
}

impl PartialEq for ScanReport {
    fn eq(&self, other: &Self) -> bool {
        self.segments == other.segments
            && self.frames == other.frames
            && self.sectors == other.sectors
            && self.detections == other.detections
            && self.damage == other.damage
            && self.scan_ops == other.scan_ops
            && self.classify_ops == other.classify_ops
            && self.repair_ops == other.repair_ops
    }
}

impl Eq for ScanReport {}

/// The log contents reconstructed by a successful recovery.
#[derive(Clone, Debug)]
pub struct RecoveredLog<A: Adt> {
    /// The newest valid checkpoint, if any survived.
    pub checkpoint: Option<CheckpointImage<A>>,
    /// Commit records after the checkpoint, in commit order. A 2PC prepare
    /// whose commit decision is durable folds into this list *at the decide
    /// position* — replay order is decision order.
    pub records: Vec<CommitRecord<A>>,
    /// Prepared transactions with no durable decision, by global txn id:
    /// in doubt. The caller resolves each against the coordinator's log, or
    /// presumes abort when the coordinator has no commit record. Sorted by
    /// gtid.
    pub in_doubt: Vec<(u64, CommitRecord<A>)>,
    /// Every durable 2PC decision in append order (`true` = commit). This
    /// log is what a *coordinator* reads back after its own crash to answer
    /// participants' in-doubt queries.
    pub decisions: Vec<(u64, bool)>,
    /// Transaction-id floor to resume from.
    pub txn_floor: u32,
    /// Execution-sequence floor to resume from.
    pub next_exec_seq: u64,
    /// Durable counters, read back from the log and updated with this
    /// scan's detections.
    pub stats: StoreStats,
    /// Physical evidence from the scan.
    pub scan: ScanReport,
}

/// Why recovery refused to produce a state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreFailure {
    pub report: ScanReport,
    pub kind: StoreFailureKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFailureKind {
    /// The log tail is torn and the policy is [`TailPolicy::Strict`].
    /// For the WAL the units are sectors; for the mem backend, operations —
    /// matching the granularity at which the tear happened.
    Torn { record: usize, expected: usize, found: usize },
    /// Corruption that no tail policy may discard: interior damage, a CRC
    /// mismatch, or a missing checkpoint after truncation.
    Corrupt { sector: u64 },
    /// The device itself failed mid-operation and the retry budget could
    /// not mask it. `Crashed` means the crash-at-op trigger tripped — the
    /// caller should acknowledge the power loss ([`LogBackend::crash`]) and
    /// recover again; `Transient`/`Full` mean the retry budget is exhausted
    /// or the device is out of space — the caller should degrade to
    /// read-only.
    Device(DiskError),
}

impl StoreFailure {
    /// A pure device failure: no scan evidence, just the I/O error.
    pub fn device(err: DiskError) -> Self {
        StoreFailure {
            report: ScanReport { damage: "device", ..ScanReport::default() },
            kind: StoreFailureKind::Device(err),
        }
    }
}

/// What recovery may do with a damaged log tail (the runtime re-exports it
/// as `TornPolicy`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TailPolicy {
    /// Refuse to recover from any damage.
    #[default]
    Strict,
    /// Discard a damaged tail (committed-but-torn suffix is legitimately
    /// lost); still refuse interior corruption.
    DiscardTail,
}

/// A durable journal for one `DurableSystem`.
///
/// The backend is also the storage-fault injection point: `tear_last_flush`
/// / `reorder_last_flush` / `flip_bit` damage the stable image the way a
/// hostile device would, and return `false` when the image cannot express
/// that fault (the simulator then degrades the fault to a plain crash).
///
/// `Clone` is the snapshot hook: a clone duplicates the complete backend —
/// stable image, write cache, armed faults, counters — so the model
/// checker's explorer can fork a state, drive one branch, and restore the
/// other byte-for-byte. Both implementations are plain data, so cloning is
/// exact by construction.
///
/// `StoreFailure` carries the full [`ScanReport`] (including the profiler's
/// stage counters), which puts the `Err` variant over clippy's size
/// threshold. Failures are rare and terminal on these paths, so the move
/// cost of a fat `Err` never shows up on the hot path; boxing would only
/// complicate every caller.
#[allow(clippy::result_large_err)]
pub trait LogBackend<A: Adt>: Send + Clone {
    /// Durably append one commit record (write + fsync). On `Err` the
    /// record is *not* durable and nothing earlier was lost — the caller
    /// may retry after healing, or degrade to read-only.
    fn append_commit(&mut self, rec: &CommitRecord<A>) -> Result<(), StoreFailure>;

    /// Durably append a *group* of commit records — the group-commit flush.
    /// The contract is all-or-prefix: after a crash, recovery may keep any
    /// prefix of `recs` in commit order, but once this call returns `Ok`
    /// the whole group is durable; on `Err` none of the group is durable.
    /// The default flushes one record at a time (correct, unamortised);
    /// [`crate::WalBackend`] overrides it with one frame and a single fsync
    /// for the whole group.
    fn append_commits(&mut self, recs: &[CommitRecord<A>]) -> Result<(), StoreFailure> {
        for rec in recs {
            self.append_commit(rec)?;
        }
        Ok(())
    }

    /// Durably journal a 2PC PREPARE for global transaction `gtid`: the
    /// participant's full commit record, written *before* the vote. On `Ok`
    /// the transaction is in doubt — recovery surfaces it in
    /// [`RecoveredLog::in_doubt`] until a decision lands. On `Err` nothing
    /// is durable and the participant must vote no (which presumed abort
    /// turns into a global abort for free).
    fn append_prepare(&mut self, gtid: u64, rec: &CommitRecord<A>) -> Result<(), StoreFailure>;

    /// Durably journal the decision for a previously prepared `gtid`
    /// (`true` = commit). Per presumed abort the abort decision is
    /// optional — a prepare with no decision resolves to abort — but
    /// journaling it lets recovery release the in-doubt transaction without
    /// asking the coordinator.
    fn append_decision(&mut self, gtid: u64, commit: bool) -> Result<(), StoreFailure>;

    /// Durably write a checkpoint and truncate what it covers. Returns the
    /// number of whole segments truncated (always 0 for the mem backend).
    /// On `Err` the old checkpoint and log remain the replay base — the
    /// checkpoint write is all-or-nothing from the caller's view.
    fn write_checkpoint(&mut self, img: &CheckpointImage<A>) -> Result<u64, StoreFailure>;

    /// Power loss: drop everything not yet durable. Idempotent.
    fn crash(&mut self);

    /// Scan and validate the stable image, classify damage, and reconstruct
    /// the surviving log contents.
    fn recover(&mut self, policy: TailPolicy) -> Result<RecoveredLog<A>, StoreFailure>;

    /// What a [`TailPolicy::DiscardTail`] recovery would hand back — or
    /// refuse — read without one: nothing repaired or written, no checked
    /// device op ticked, no armed fault consumed. A live process reads its
    /// own log through this; `stats` is the current view.
    fn read_log(&self) -> Result<RecoveredLog<A>, StoreFailure>;

    /// Tear the most recent durable append, dropping its last `n` units
    /// (sectors or operations). `false` if the image cannot be torn that way.
    fn tear_last_flush(&mut self, n: usize) -> bool;

    /// Lose the *first* unit of the most recent multi-sector append, as if
    /// the device reordered persistence. `false` if inexpressible.
    fn reorder_last_flush(&mut self) -> bool;

    /// The simulated device under the log, where there is one: the handle
    /// through which a fault plan flips bits, arms transient errors, fills,
    /// slows, stalls or trips it, and through which its clocks are read.
    /// `None` for backends without a device (the simulator then degrades
    /// the fault to a plain crash).
    fn device(&self) -> Option<&SimDisk> {
        None
    }

    /// [`device`](Self::device), mutably.
    fn device_mut(&mut self) -> Option<&mut SimDisk> {
        None
    }

    /// Drain the retry records accumulated since the last drain, oldest
    /// first. Backends without a device never retry.
    fn drain_retries(&mut self) -> Vec<RetryRecord> {
        Vec::new()
    }

    /// The sixth oracle leg: prove recovery *converges*. Re-run recovery
    /// with a fresh crash injected at every device-op index of the baseline
    /// recovery; every trial that eventually succeeds must reproduce the
    /// identical recovered log (fingerprint, floors, stats). Leaves the
    /// backend recovered to the baseline state. Backends without a device
    /// trivially converge (zero trials).
    fn check_recovery_convergence(
        &mut self,
        _policy: TailPolicy,
    ) -> Result<ConvergenceReport, ConvergenceFailure> {
        Ok(ConvergenceReport::default())
    }

    /// Checked device ops performed so far (0 for backends without a
    /// device). The delta across a probed recovery is the enumeration
    /// domain for crash-at-every-op exploration.
    fn device_op_count(&self) -> u64 {
        self.device().map_or(0, SimDisk::device_ops)
    }

    /// A deterministic fingerprint of the *stable* image plus the cursor
    /// state that steers future appends (epoch, segment, head for the WAL;
    /// record shapes for the mem backend). Two backends with equal
    /// fingerprints behave identically under any subsequent operation
    /// sequence — the canonicalisation hook the explorer's dedup table
    /// folds in.
    fn image_fingerprint(&self) -> u64;

    /// Current durable-counter view (persisted + this process's detections).
    fn stats(&self) -> StoreStats;

    /// Backend name for labels and reproducers (`"mem"` / `"disk"`).
    fn name(&self) -> &'static str;

    /// Offline forensic dump of the stable image as JSON (segment map,
    /// frame listing, damage classification — see [`crate::inspect`]).
    /// `None` for backends without a byte image to inspect.
    fn wal_inspection(&self) -> Option<String> {
        None
    }

    /// The forensic leg: clone the backend, crash + recover the clone under
    /// [`TailPolicy::DiscardTail`] — the policy whose plan the inspector
    /// renders — and verify that the inspector's raw-read verdict on the
    /// untouched image (damage class, detections, log geometry, floors) is
    /// what recovery reported after checked reads and its repairs. `None`
    /// for backends without an image; `Err` describes the first
    /// disagreement.
    fn inspection_agrees_with_recovery(&self) -> Option<Result<(), String>> {
        None
    }
}

/// Fold `records` over `base` in *execution order* — the UIP view: every
/// committed operation is redone against the in-place state in the global
/// order it originally executed. `None` if some operation is not enabled
/// where replay puts it (the history was not recoverable under this view).
pub fn replay_uip<A: Adt>(
    adt: &A,
    base: &BTreeMap<ObjectId, A::State>,
    records: &[CommitRecord<A>],
) -> Option<BTreeMap<ObjectId, A::State>> {
    let mut states = base.clone();
    let mut ops: Vec<&(u64, ObjectId, Op<A>)> = records.iter().flat_map(|r| r.ops.iter()).collect();
    ops.sort_by_key(|(seq, _, _)| *seq);
    for (_, obj, op) in ops {
        let s = states.get(obj)?;
        let post = adt.apply(s, op);
        states.insert(*obj, post.into_iter().next()?);
    }
    Some(states)
}

/// Fold `records` over `base` in *commit order* — the DU view: each
/// transaction's intentions list is installed atomically when it commits,
/// in commit order, regardless of when its operations executed. `Err` names
/// the `(record, op)` the specification refuses where replay puts it — a
/// committed effect that depended on an uncommitted one.
pub fn replay_du<A: Adt>(
    adt: &A,
    base: &BTreeMap<ObjectId, A::State>,
    records: &[CommitRecord<A>],
) -> Result<BTreeMap<ObjectId, A::State>, (usize, usize)> {
    let mut states = base.clone();
    for (ri, rec) in records.iter().enumerate() {
        for (oi, (_, obj, op)) in rec.ops.iter().enumerate() {
            let post = states.get(obj).and_then(|s| adt.apply(s, op).into_iter().next());
            states.insert(*obj, post.ok_or((ri, oi))?);
        }
    }
    Ok(states)
}

/// The fast in-memory backend: the struct is the stable store.
///
/// Torn writes keep the record's original `op_count` while dropping trailing
/// operations, reproducing the op-granularity `TornRecord { record,
/// expected, found }` failure shape of the original in-memory journal.
#[derive(Clone, Debug, Default)]
pub struct MemBackend<A: Adt> {
    checkpoint: Option<CheckpointImage<A>>,
    records: Vec<StoredRecord<A>>,
    /// Prepared-but-undecided 2PC transactions, by gtid (the in-doubt set).
    prepared: BTreeMap<u64, CommitRecord<A>>,
    /// Durable 2PC decisions in append order (`true` = commit).
    decided: Vec<(u64, bool)>,
    stats: StoreStats,
    /// Whether the current torn tail has already been counted into `stats`.
    /// Repeated scans (a Strict refusal, then a DiscardTail retry) re-detect
    /// the same physical tear; one fault must count once.
    tear_counted: bool,
}

#[derive(Clone, Debug)]
struct StoredRecord<A: Adt> {
    /// Operation count at append time; survives a tear of the ops list.
    op_count: usize,
    rec: CommitRecord<A>,
}

impl<A: Adt> MemBackend<A> {
    pub fn new() -> Self {
        MemBackend {
            checkpoint: None,
            records: Vec::new(),
            prepared: BTreeMap::new(),
            decided: Vec::new(),
            stats: StoreStats::default(),
            tear_counted: false,
        }
    }

    fn floors(&self) -> (u32, u64) {
        // Transaction-id floors ride commit order, so the newest surviving
        // record wins. Exec-seq floors do NOT: a late-committing
        // transaction can hold *earlier* execution seqs than a record
        // journaled before it, so the floor is the max over every surviving
        // record (and the checkpoint) — restoring anything lower would let
        // post-recovery operations reuse seqs and sort *between* journaled
        // ops, breaking the UIP (execution-order) replay view.
        let cp_seq = self.checkpoint.as_ref().map_or(0, |c| c.next_exec_seq);
        let seq = self
            .records
            .iter()
            .map(|r| &r.rec)
            .chain(self.prepared.values())
            .flat_map(|r| r.ops.iter().map(|(s, _, _)| s + 1))
            .max()
            .unwrap_or(0)
            .max(cp_seq);
        // In-doubt prepares hold floors too: a decided commit re-enters the
        // record list at its decide position with the older prepare-time
        // floor, so the floor is the max over both sets, not "last record".
        let floor = self
            .records
            .iter()
            .map(|r| r.rec.floor)
            .chain(self.prepared.values().map(|r| r.floor))
            .max();
        if let Some(floor) = floor {
            (floor, seq)
        } else if let Some(cp) = &self.checkpoint {
            (cp.txn_floor, seq)
        } else {
            (0, seq)
        }
    }
}

impl<A: Adt> LogBackend<A> for MemBackend<A> {
    fn append_commit(&mut self, rec: &CommitRecord<A>) -> Result<(), StoreFailure> {
        self.records.push(StoredRecord { op_count: rec.ops.len(), rec: rec.clone() });
        self.tear_counted = false;
        Ok(())
    }

    fn append_prepare(&mut self, gtid: u64, rec: &CommitRecord<A>) -> Result<(), StoreFailure> {
        self.prepared.insert(gtid, rec.clone());
        self.tear_counted = false;
        Ok(())
    }

    fn append_decision(&mut self, gtid: u64, commit: bool) -> Result<(), StoreFailure> {
        self.decided.push((gtid, commit));
        if let Some(rec) = self.prepared.remove(&gtid) {
            if commit {
                // Replay order is decision order: the record enters the
                // commit list where the decision landed.
                self.records.push(StoredRecord { op_count: rec.ops.len(), rec });
            }
        }
        self.tear_counted = false;
        Ok(())
    }

    fn write_checkpoint(&mut self, img: &CheckpointImage<A>) -> Result<u64, StoreFailure> {
        self.checkpoint = Some(img.clone());
        self.records.clear();
        // The checkpoint folds every decided transaction; the decision log
        // before it is as redundant as the records it covers. (Callers
        // refuse to checkpoint while prepares are pending, so `prepared`
        // stays untouched here.)
        self.decided.clear();
        self.stats.checkpoints += 1;
        Ok(0)
    }

    fn crash(&mut self) {
        // The struct is the stable store; commit already "fsynced" by
        // returning. Nothing volatile to lose.
    }

    fn recover(&mut self, policy: TailPolicy) -> Result<RecoveredLog<A>, StoreFailure> {
        let mut report = ScanReport {
            segments: 1,
            frames: self.records.len() as u64 + self.checkpoint.is_some() as u64,
            damage: "clean",
            // No device: the per-stage op and wall counters stay zero.
            ..ScanReport::default()
        };
        if let Some(last) = self.records.last() {
            if last.rec.ops.len() < last.op_count {
                let idx = self.records.len() - 1;
                report.detections.push(Detection::TornFrame { sector: idx as u64 });
                report.damage = "torn-tail";
                if !self.tear_counted {
                    self.stats.sector_tears += 1;
                    self.tear_counted = true;
                }
                match policy {
                    TailPolicy::Strict => {
                        return Err(StoreFailure {
                            report,
                            kind: StoreFailureKind::Torn {
                                record: idx,
                                expected: last.op_count,
                                found: last.rec.ops.len(),
                            },
                        });
                    }
                    TailPolicy::DiscardTail => {
                        self.records.pop();
                        report.frames -= 1;
                        // The torn record is gone; a tear a later scan finds
                        // is a new fault.
                        self.tear_counted = false;
                    }
                }
            }
        }
        self.stats.recoveries += 1;
        let (txn_floor, next_exec_seq) = self.floors();
        Ok(RecoveredLog {
            checkpoint: self.checkpoint.clone(),
            records: self.records.iter().map(|r| r.rec.clone()).collect(),
            in_doubt: self.prepared.iter().map(|(g, r)| (*g, r.clone())).collect(),
            decisions: self.decided.clone(),
            txn_floor,
            next_exec_seq,
            stats: self.stats,
            scan: report,
        })
    }

    fn read_log(&self) -> Result<RecoveredLog<A>, StoreFailure> {
        let log = self.clone().recover(TailPolicy::DiscardTail)?;
        Ok(RecoveredLog { stats: self.stats, ..log })
    }

    fn tear_last_flush(&mut self, n: usize) -> bool {
        let Some(last) = self.records.last_mut() else { return false };
        if n == 0 || last.rec.ops.is_empty() {
            return false;
        }
        let keep = last.rec.ops.len().saturating_sub(n);
        last.rec.ops.truncate(keep);
        true
    }

    fn reorder_last_flush(&mut self) -> bool {
        false
    }

    fn image_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        if let Some(cp) = &self.checkpoint {
            cp.base_records.hash(&mut h);
            cp.txn_floor.hash(&mut h);
            cp.next_exec_seq.hash(&mut h);
            for (obj, state) in &cp.states {
                obj.hash(&mut h);
                state.hash(&mut h);
            }
        }
        for r in &self.records {
            r.op_count.hash(&mut h);
            r.rec.floor.hash(&mut h);
            for (seq, obj, op) in &r.rec.ops {
                seq.hash(&mut h);
                obj.hash(&mut h);
                op.inv.hash(&mut h);
                op.resp.hash(&mut h);
            }
        }
        for (gtid, rec) in &self.prepared {
            gtid.hash(&mut h);
            rec.floor.hash(&mut h);
            for (seq, obj, op) in &rec.ops {
                seq.hash(&mut h);
                obj.hash(&mut h);
                op.inv.hash(&mut h);
                op.resp.hash(&mut h);
            }
        }
        self.decided.hash(&mut h);
        h.finish()
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_adt::bank::{BankAccount, BankInv, BankResp};

    fn dep(amount: u64) -> Op<BankAccount> {
        Op::new(BankInv::Deposit(amount), BankResp::Ok)
    }

    fn rec(floor: u32, ops: Vec<(u64, ObjectId, Op<BankAccount>)>) -> CommitRecord<BankAccount> {
        CommitRecord { floor, ops }
    }

    #[test]
    fn mem_round_trip_and_floor_from_log() {
        let mut b = MemBackend::<BankAccount>::new();
        b.append_commit(&rec(1, vec![(0, ObjectId(0), dep(5))])).unwrap();
        b.append_commit(&rec(2, vec![(1, ObjectId(0), dep(3)), (2, ObjectId(0), dep(4))])).unwrap();
        b.crash();
        let out = b.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.txn_floor, 2);
        assert_eq!(out.next_exec_seq, 3);
        assert_eq!(out.stats.recoveries, 1);
        assert_eq!(out.scan.damage, "clean");
    }

    #[test]
    fn exec_seq_floor_survives_commit_order_inversion() {
        let mut b = MemBackend::<BankAccount>::new();
        // The transaction that commits FIRST executed the *later* ops
        // (seqs 2,3); the late committer holds the earlier seqs (0,1).
        // The recovered exec-seq floor must clear both records — resuming
        // from the last record's max (2) would hand post-recovery ops the
        // seqs 2 and 3 again, and the UIP (execution-order) replay view
        // would sort the fresh ops *between* journaled ones.
        b.append_commit(&rec(1, vec![(2, ObjectId(0), dep(5)), (3, ObjectId(0), dep(4))])).unwrap();
        b.append_commit(&rec(2, vec![(0, ObjectId(0), dep(3)), (1, ObjectId(0), dep(2))])).unwrap();
        b.crash();
        let out = b.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.txn_floor, 2);
        assert_eq!(out.next_exec_seq, 4);
    }

    #[test]
    fn mem_tear_matches_the_legacy_failure_shape() {
        let mut b = MemBackend::<BankAccount>::new();
        b.append_commit(&rec(1, vec![(0, ObjectId(0), dep(5))])).unwrap();
        b.append_commit(&rec(2, vec![(1, ObjectId(0), dep(3)), (2, ObjectId(0), dep(4))])).unwrap();
        assert!(b.tear_last_flush(1));
        b.crash();
        let err = b.recover(TailPolicy::Strict).unwrap_err();
        assert_eq!(err.kind, StoreFailureKind::Torn { record: 1, expected: 2, found: 1 });
        assert_eq!(err.report.damage, "torn-tail");
        let out = b.recover(TailPolicy::DiscardTail).unwrap();
        assert_eq!(out.records.len(), 1);
        // One physical tear, two scans: one count.
        assert_eq!(out.stats.sector_tears, 1);
        assert_eq!(out.txn_floor, 1);
    }

    #[test]
    fn checkpoint_clears_records_and_keeps_floors() {
        let mut b = MemBackend::<BankAccount>::new();
        b.append_commit(&rec(3, vec![(0, ObjectId(0), dep(5))])).unwrap();
        b.write_checkpoint(&CheckpointImage {
            base_records: 1,
            txn_floor: 3,
            next_exec_seq: 1,
            states: vec![(ObjectId(0), 5u64)],
        })
        .unwrap();
        let out = b.recover(TailPolicy::Strict).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.checkpoint.as_ref().unwrap().states, vec![(ObjectId(0), 5)]);
        assert_eq!(out.txn_floor, 3);
        assert_eq!(out.next_exec_seq, 1);
        assert_eq!(out.stats.checkpoints, 1);
    }

    #[test]
    fn uip_and_du_replays_agree_on_serializable_logs() {
        let adt = BankAccount::default();
        let base: BTreeMap<ObjectId, u64> =
            [(ObjectId(0), 0u64), (ObjectId(1), 0u64)].into_iter().collect();
        // Two transactions with interleaved execution (seq 0..3) committing
        // in order: UIP replays by seq, DU by commit; both end at the same
        // states because deposits commute.
        let records = vec![
            rec(1, vec![(0, ObjectId(0), dep(5)), (2, ObjectId(1), dep(1))]),
            rec(2, vec![(1, ObjectId(0), dep(3)), (3, ObjectId(1), dep(2))]),
        ];
        let uip = replay_uip(&adt, &base, &records).unwrap();
        let du = replay_du(&adt, &base, &records).unwrap();
        assert_eq!(uip, du);
        assert_eq!(uip[&ObjectId(0)], 8);
        assert_eq!(uip[&ObjectId(1)], 3);
    }

    #[test]
    fn replay_refuses_an_illegal_operation() {
        let adt = BankAccount::default();
        let base: BTreeMap<ObjectId, u64> = [(ObjectId(0), 0u64)].into_iter().collect();
        let bad = rec(1, vec![(0, ObjectId(0), Op::new(BankInv::Withdraw(5), BankResp::Ok))]);
        assert!(replay_uip(&adt, &base, std::slice::from_ref(&bad)).is_none());
        assert_eq!(replay_du(&adt, &base, &[bad]), Err((0, 0)));
    }
}
