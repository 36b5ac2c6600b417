//! The structured event schema (see DESIGN.md §8).
//!
//! Every runtime action of interest becomes one [`ObsEvent`], stamped with
//! the tracer's **logical event clock** (a `u64` that ticks once per emitted
//! event) and, in threaded runs that opt in, a wall-clock microsecond offset.
//! The logical stamp is the deterministic one: the same seed produces the
//! same event sequence with the same stamps, byte for byte, which is what
//! makes traces diffable CI artifacts. Wall stamps are for humans reading a
//! threaded profile and are off by default.

use ccr_core::ids::{ObjectId, TxnId};

use crate::span::Phase;

/// Why a transaction was aborted, as observed by the tracer. Richer than the
/// runtime's public `AbortReason`: it separates the abort paths that the
/// legacy counters distinguished (wound-wait victims vs no-wait requesters
/// vs externally forced aborts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// The application asked for the abort.
    Requested,
    /// Chosen as a deadlock victim.
    Deadlock,
    /// Deferred-update validation failed.
    Validation,
    /// Wounded by an older transaction under the wound-wait policy.
    Wounded,
    /// Aborted as a conflicting requester under the no-wait policy.
    NoWaitConflict,
    /// Aborted from outside the lock manager (fault injection, drivers).
    External,
    /// The transaction exceeded its logical-time deadline.
    Deadline,
}

impl AbortCause {
    /// Short lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::Requested => "requested",
            AbortCause::Deadlock => "deadlock",
            AbortCause::Validation => "validation",
            AbortCause::Wounded => "wounded",
            AbortCause::NoWaitConflict => "nowait",
            AbortCause::External => "external",
            AbortCause::Deadline => "deadline",
        }
    }
}

/// Which fault-injection counter an injected fault bumps (the crash-shaped
/// faults are counted by their [`EventKind::Recovery`] / torn-write events
/// instead, mirroring the pre-tracer counter semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCounter {
    /// A transaction was force-aborted by the plan.
    ForcedAbort,
    /// Every active transaction was aborted at once.
    WoundStorm,
    /// The next commit was artificially delayed.
    DelayedCommit,
    /// A commit's flush was torn at sector granularity.
    SectorTear,
    /// A commit's multi-sector flush reached the platter out of order.
    ReorderedFlush,
    /// The device was armed to fail checked ops with transient I/O errors.
    TransientIo,
    /// The device was put in the permanent out-of-space condition.
    DiskFull,
    /// The device was armed to serve checked ops slowly (gray failure).
    SlowDevice,
    /// The device was armed to stall fsyncs (gray failure).
    FsyncStall,
}

/// What kind of physical log damage recovery's scanner classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A frame's CRC failed: bits changed at rest.
    BitFlip,
    /// The log's tail is incomplete (torn frame or a hole where the frame's
    /// extent should be).
    TornTail,
    /// Damage *before* intact frames — unrecoverable under any tail policy.
    Interior,
}

impl CorruptionKind {
    /// Short lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CorruptionKind::BitFlip => "bitflip",
            CorruptionKind::TornTail => "torn_tail",
            CorruptionKind::Interior => "interior",
        }
    }
}

/// A wait-for-graph snapshot: `(waiter, holders)` edges at the instant of a
/// block or wound event.
pub type WaitGraph = Vec<(TxnId, Vec<TxnId>)>;

/// What happened. An event is built lazily (only when event recording is
/// on), so the counters-only mode renders and allocates nothing for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction began.
    Begin,
    /// An operation executed: invocation, chosen response, and the logical
    /// ticks the invocation spent blocked before succeeding (0 when it ran
    /// on the first attempt).
    Op {
        /// Rendered invocation.
        inv: String,
        /// Rendered response.
        resp: String,
        /// Logical ticks between the first blocked attempt and success.
        waited: u64,
    },
    /// An invocation found every legal response in conflict and blocked.
    Block {
        /// Rendered invocation.
        inv: String,
        /// The conflicting holders.
        on: Vec<TxnId>,
        /// Snapshot of the whole wait-for graph, including the new edges.
        graph: WaitGraph,
    },
    /// A previously blocked transaction's invocation succeeded.
    Unblock {
        /// Logical ticks spent blocked.
        waited: u64,
    },
    /// A holder was wounded (aborted) by an older requester.
    Wound {
        /// The older requester that wounded this transaction.
        by: TxnId,
        /// Wait-for graph at the instant of the wound.
        graph: WaitGraph,
    },
    /// The transaction committed at every object it touched.
    Commit,
    /// The transaction aborted.
    Abort {
        /// Why.
        cause: AbortCause,
    },
    /// Undo-replay failed while aborting (weak conflict relation under UIP).
    ReplayFailure,
    /// A torn journal record was injected (crash mid-flush).
    TornWrite {
        /// Index of the torn record.
        record: usize,
    },
    /// Crash recovery completed by replaying the journal.
    Recovery {
        /// Committed records replayed.
        replayed: usize,
    },
    /// A fault-plan entry fired (the crash-shaped ones are followed by
    /// [`EventKind::Recovery`] once the rebuild succeeds).
    Fault {
        /// The fault's compact text form (`crash`, `torn2`, `abort`, …).
        kind: String,
        /// Which injection counter the fault bumped, if it took effect
        /// (`None` for crash-shaped faults — those are counted by their
        /// recovery/torn-write events — and for no-op injections).
        counter: Option<FaultCounter>,
    },
    /// Recovery scanned the durable log segments.
    SegmentScan {
        /// Segments visited.
        segments: u64,
        /// Valid frames decoded.
        frames: u64,
        /// Sectors read.
        sectors: u64,
        /// Damage classification (`clean`, `torn-tail`, `interior`, …).
        damage: String,
    },
    /// The scanner detected physical log damage.
    CorruptionDetected {
        /// What kind of damage.
        kind: CorruptionKind,
        /// The first affected sector.
        sector: u64,
    },
    /// A checkpoint was written (and the log prefix truncated).
    Checkpoint {
        /// Committed records folded into the checkpoint image.
        records: u64,
        /// Whole log segments deleted by the truncation.
        truncated_segments: u64,
    },
    /// A group-commit flush made a batch of commit records durable with one
    /// fsync. Counter-neutral: the batch's transactions are counted by their
    /// own [`EventKind::Commit`] events.
    GroupFlush {
        /// Commit records in the flushed batch.
        batch: u64,
        /// Flush latency in wall microseconds (0 in logical-time runs).
        micros: u64,
    },
    /// A checked device operation was retried after transient I/O errors
    /// (one event per retried op, drained from the storage backend).
    IoRetry {
        /// Attempts consumed, including the final one.
        attempts: u32,
        /// Total logical-clock backoff ticks waited across the retries.
        backoff: u64,
        /// Whether the op eventually succeeded within the retry budget.
        ok: bool,
    },
    /// The durable system entered (or exited) read-only degraded mode.
    Degraded {
        /// `true` on entry (device failure), `false` on exit (healed device
        /// proved writable again by a checkpoint or recovery).
        entered: bool,
        /// Why the mode changed (rendered lazily; empty when exiting).
        reason: String,
    },
    /// The admission gate shed a commit: the in-flight journal backlog
    /// exceeded its bound, so the transaction was cleanly aborted before
    /// the journal saw it and told to back off.
    Shed,
    /// The durable path observed device stall time — the latency surplus
    /// the gray channels charged since the previous observation (one event
    /// per commit attempt that paid a stall).
    Stall {
        /// Extra logical ticks the device charged beyond healthy service.
        ticks: u64,
    },
    /// The recovery-convergence oracle leg ran: recovery was re-executed
    /// with a fresh crash injected at every device-op index and every
    /// eventual outcome matched the baseline.
    ConvergenceCheck {
        /// Nested-crash trials executed (one per device-op index).
        trials: u64,
        /// Device ops the baseline recovery consumed.
        device_ops: u64,
    },
    /// A participant durably journaled a 2PC PREPARE and voted yes: the
    /// transaction is in doubt on that shard until the decision lands.
    Prepare {
        /// Global (cross-shard) transaction id.
        gtid: u64,
    },
    /// The coordinator's decision for a prepared global transaction was
    /// durably journaled on a participant.
    Decide {
        /// Global transaction id.
        gtid: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
    },
    /// A recovery scan surfaced in-doubt transactions (prepares with no
    /// durable decision) awaiting resolution.
    InDoubt {
        /// In-doubt transactions found by the scan.
        count: u64,
    },
    /// An in-doubt transaction was resolved after recovery — by the
    /// coordinator's durable decision, or by presuming abort.
    Resolved {
        /// Global transaction id.
        gtid: u64,
        /// The resolved outcome (`false` includes presumed abort).
        commit: bool,
    },
    /// A profiled pipeline phase opened (see `ccr_obs::span`).
    /// Counter-neutral: phases measure time, they don't change outcomes.
    PhaseBegin {
        /// Which phase.
        phase: Phase,
    },
    /// A profiled pipeline phase closed. Counter-neutral.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
        /// Logical-tick duration (or deterministic phase units — device ops,
        /// records — for externally measured recovery stages).
        ticks: u64,
        /// Wall nanoseconds; 0 unless the tracer's wall clock is enabled.
        wall_ns: u64,
    },
}

/// What one observation adds to the counters: all that
/// [`SystemStats::absorb`](crate::SystemStats::absorb) reads of an event, as
/// a `Copy` value a hook can name without building the event. A variant is
/// named after the event kind that carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tally {
    /// Nothing: the observation ticks the clock and feeds histograms only.
    Neutral,
    Begin,
    Op,
    Block,
    Commit,
    Abort(AbortCause),
    ReplayFailure,
    TornWrite,
    Recovery,
    /// A fault that took effect.
    Fault(FaultCounter),
    BitFlip,
    Checkpoint,
    IoRetry,
    /// Degraded mode entered (`true`) or left.
    Degraded(bool),
    Shed,
    Stall(u64),
    ConvergenceCheck,
    Prepare,
    Decide,
    InDoubt(u64),
    Resolved,
}

impl EventKind {
    /// The event's counter contribution. The tracer counts the tally its
    /// hook names and, when it records, checks this derivation agrees.
    pub(crate) fn tally(&self) -> Tally {
        match *self {
            EventKind::Begin => Tally::Begin,
            EventKind::Op { .. } => Tally::Op,
            EventKind::Block { .. } => Tally::Block,
            EventKind::Commit => Tally::Commit,
            EventKind::Abort { cause } => Tally::Abort(cause),
            EventKind::ReplayFailure => Tally::ReplayFailure,
            EventKind::TornWrite { .. } => Tally::TornWrite,
            EventKind::Recovery { .. } => Tally::Recovery,
            // A fault may be recorded without a counter bump, e.g. a
            // force-abort that found no victim.
            EventKind::Fault { counter, .. } => counter.map_or(Tally::Neutral, Tally::Fault),
            // Torn tails and interior damage are counted by their fault /
            // torn-write events; the CRC detections get their own counter.
            EventKind::CorruptionDetected { kind: CorruptionKind::BitFlip, .. } => Tally::BitFlip,
            EventKind::Checkpoint { .. } => Tally::Checkpoint,
            EventKind::IoRetry { .. } => Tally::IoRetry,
            EventKind::Degraded { entered, .. } => Tally::Degraded(entered),
            EventKind::Shed => Tally::Shed,
            EventKind::Stall { ticks } => Tally::Stall(ticks),
            EventKind::ConvergenceCheck { .. } => Tally::ConvergenceCheck,
            EventKind::Prepare { .. } => Tally::Prepare,
            EventKind::Decide { .. } => Tally::Decide,
            EventKind::InDoubt { count } => Tally::InDoubt(count),
            EventKind::Resolved { .. } => Tally::Resolved,
            // A wound is counted by the Abort(Wounded) that follows, a group
            // flush's commits by their own Commit events; scans and spans
            // measure where time goes, their outcomes are counted elsewhere.
            EventKind::Unblock { .. }
            | EventKind::Wound { .. }
            | EventKind::SegmentScan { .. }
            | EventKind::CorruptionDetected { .. }
            | EventKind::GroupFlush { .. }
            | EventKind::PhaseBegin { .. }
            | EventKind::PhaseEnd { .. } => Tally::Neutral,
        }
    }
}

/// One structured trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Logical event-clock stamp (monotonic, ticks once per event).
    pub seq: u64,
    /// Microseconds since the tracer's wall epoch; `None` unless wall
    /// stamping was explicitly enabled (threaded profiling runs).
    pub wall_us: Option<u64>,
    /// The transaction the event belongs to, if any.
    pub txn: Option<TxnId>,
    /// The object involved, if any.
    pub obj: Option<ObjectId>,
    /// What happened.
    pub kind: EventKind,
}

impl ObsEvent {
    /// Short lowercase name of the event kind (exporter phase names).
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            EventKind::Begin => "begin",
            EventKind::Op { .. } => "op",
            EventKind::Block { .. } => "block",
            EventKind::Unblock { .. } => "unblock",
            EventKind::Wound { .. } => "wound",
            EventKind::Commit => "commit",
            EventKind::Abort { .. } => "abort",
            EventKind::ReplayFailure => "replay_failure",
            EventKind::TornWrite { .. } => "torn_write",
            EventKind::Recovery { .. } => "recovery",
            EventKind::Fault { .. } => "fault",
            EventKind::SegmentScan { .. } => "segment_scan",
            EventKind::CorruptionDetected { .. } => "corruption",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::GroupFlush { .. } => "group_flush",
            EventKind::IoRetry { .. } => "io_retry",
            EventKind::Degraded { .. } => "degraded",
            EventKind::Shed => "shed",
            EventKind::Stall { .. } => "stall",
            EventKind::ConvergenceCheck { .. } => "convergence_check",
            EventKind::Prepare { .. } => "prepare",
            EventKind::Decide { .. } => "decide",
            EventKind::InDoubt { .. } => "in_doubt",
            EventKind::Resolved { .. } => "resolved",
            EventKind::PhaseBegin { .. } => "phase_begin",
            EventKind::PhaseEnd { .. } => "phase_end",
        }
    }
}

impl std::fmt::Display for FaultCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultCounter::ForcedAbort => "forced_abort",
            FaultCounter::WoundStorm => "wound_storm",
            FaultCounter::DelayedCommit => "delayed_commit",
            FaultCounter::SectorTear => "sector_tear",
            FaultCounter::ReorderedFlush => "reordered_flush",
            FaultCounter::TransientIo => "transient_io",
            FaultCounter::DiskFull => "disk_full",
            FaultCounter::SlowDevice => "slow_device",
            FaultCounter::FsyncStall => "fsync_stall",
        };
        write!(f, "{s}")
    }
}
