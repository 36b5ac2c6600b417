//! The deterministic structured tracer.
//!
//! One [`Tracer`] lives inside each `TxnSystem` and observes the whole
//! transaction lifecycle: begin → op → block/unblock → wound → commit/abort
//! → crash recovery, plus injected faults. Each observation
//!
//! * ticks the **logical event clock** (the deterministic timestamp),
//! * counts its tally into the [`SystemStats`] projection (`emit`'s
//!   `stats.count(tally)` is the single place any counter is incremented),
//! * feeds the latency histograms (op latency, lock-wait time,
//!   time-to-commit, recovery replay length), and
//! * — when event recording is on — appends a structured [`ObsEvent`].
//!
//! Every hook hands `emit` its event as an `FnOnce` closure, so the
//! counters-only mode (used by long benchmark runs) builds no event: it
//! renders no string, allocates nothing and has nothing to drop.
//! Determinism: with wall stamping off (the default), the recorded event
//! stream is a pure function of the observation sequence, so a seeded
//! scheduler produces byte-identical exports run after run.

use std::collections::BTreeMap;
use std::time::Instant;

use ccr_core::ids::{ObjectId, TxnId, TxnTable};

use crate::conflict::{ConflictKey, ConflictMatrix};
use crate::event::{
    AbortCause, CorruptionKind, EventKind, FaultCounter, ObsEvent, Tally, WaitGraph,
};
use crate::hist::LogHistogram;
use crate::span::{Phase, PhaseProfiles, SpanToken};
use crate::stats::{self, SystemStats};

/// Structured event tracer + metrics recorder. See the module docs.
#[derive(Clone, Debug)]
pub struct Tracer {
    /// Logical event clock: the stamp of the most recent event.
    clock: u64,
    record_events: bool,
    wall_epoch: Option<Instant>,
    events: Vec<ObsEvent>,
    labels: BTreeMap<String, String>,
    stats: SystemStats,
    op_latency: LogHistogram,
    lock_wait: LogHistogram,
    time_to_commit: LogHistogram,
    replay_len: LogHistogram,
    scan_len: LogHistogram,
    batch_size: LogHistogram,
    flush_latency: LogHistogram,
    retry_backoff: LogHistogram,
    retry_jitter: LogHistogram,
    stall_latency: LogHistogram,
    prepare_to_decide: LogHistogram,
    /// Logical begin stamp of each live transaction.
    begin_seq: TxnTable<u64>,
    /// Logical prepare stamp of each in-flight 2PC participant vote, by
    /// gtid — consumed by the decide that closes the doubt window.
    prepare_seq: BTreeMap<u64, u64>,
    /// First blocked-attempt stamp of each currently blocked transaction.
    block_start: TxnTable<u64>,
    /// Per-phase duration histograms (commit + recovery pipelines).
    phases: PhaseProfiles,
    /// Observed-conflict matrix (populated only while events are recorded).
    conflicts: ConflictMatrix,
    /// Conflict keys of each blocked transaction's latest blocked attempt,
    /// credited with the blocked ticks on unblock.
    pending_conflicts: BTreeMap<TxnId, Vec<ConflictKey>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            clock: 0,
            record_events: true,
            wall_epoch: None,
            events: Vec::new(),
            labels: BTreeMap::new(),
            stats: SystemStats::default(),
            op_latency: LogHistogram::new(),
            lock_wait: LogHistogram::new(),
            time_to_commit: LogHistogram::new(),
            replay_len: LogHistogram::new(),
            scan_len: LogHistogram::new(),
            batch_size: LogHistogram::new(),
            flush_latency: LogHistogram::new(),
            retry_backoff: LogHistogram::new(),
            retry_jitter: LogHistogram::new(),
            stall_latency: LogHistogram::new(),
            prepare_to_decide: LogHistogram::new(),
            begin_seq: TxnTable::new(),
            prepare_seq: BTreeMap::new(),
            block_start: TxnTable::new(),
            phases: PhaseProfiles::new(),
            conflicts: ConflictMatrix::new(),
            pending_conflicts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// A fresh tracer (event recording on, wall stamping off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggle structured event recording. Counters and histograms are always
    /// maintained; only the per-event records (and their string rendering)
    /// are affected.
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// Whether structured events are being recorded.
    pub fn record_events(&self) -> bool {
        self.record_events
    }

    /// Stamp subsequent events with wall-clock microseconds as well as the
    /// logical clock. Only for threaded profiling runs — wall stamps destroy
    /// byte-identical determinism by design.
    pub fn enable_wall_clock(&mut self) {
        self.wall_epoch = Some(Instant::now());
    }

    /// Attach a `key=value` label (combo, policy, ADT, …) carried into every
    /// exporter's metadata.
    pub fn set_label(&mut self, key: &str, value: impl Into<String>) {
        self.labels.insert(key.to_string(), value.into());
    }

    /// The attached labels.
    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.labels
    }

    /// The current logical clock value (stamp of the latest event).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The recorded events (empty when recording is off).
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// The incrementally maintained counter projection.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Recompute the counters from the recorded events. Equals
    /// [`stats`](Self::stats) whenever event recording was on for the whole
    /// run — the tracer-refactor soundness check.
    pub fn project_stats(&self) -> SystemStats {
        stats::project(&self.events)
    }

    /// Op latency histogram: logical ticks from an invocation's first
    /// (possibly blocked) attempt to its successful response; 0 for
    /// operations that never blocked.
    pub fn op_latency(&self) -> &LogHistogram {
        &self.op_latency
    }

    /// Lock-wait histogram: blocked invocations only — ticks from first
    /// blocked attempt to success.
    pub fn lock_wait(&self) -> &LogHistogram {
        &self.lock_wait
    }

    /// Time-to-commit histogram: ticks from begin to commit, per committed
    /// transaction.
    pub fn time_to_commit(&self) -> &LogHistogram {
        &self.time_to_commit
    }

    /// Recovery replay-length histogram: journal records replayed per
    /// successful crash recovery.
    pub fn replay_len(&self) -> &LogHistogram {
        &self.replay_len
    }

    /// Recovery scan-latency histogram: sectors read per segment scan (both
    /// failed and successful scans are samples — a failed Strict scan
    /// followed by a DiscardTail retry is two).
    pub fn scan_len(&self) -> &LogHistogram {
        &self.scan_len
    }

    /// Group-commit batch-size histogram: commit records per group flush.
    pub fn batch_size(&self) -> &LogHistogram {
        &self.batch_size
    }

    /// Group-commit flush-latency histogram (wall microseconds; 0 samples in
    /// logical-time runs).
    pub fn flush_latency(&self) -> &LogHistogram {
        &self.flush_latency
    }

    /// Retry-backoff histogram: total logical-clock backoff ticks per
    /// retried device op (one sample per [`on_io_retry`](Self::on_io_retry)).
    pub fn retry_backoff(&self) -> &LogHistogram {
        &self.retry_backoff
    }

    /// Retry-jitter histogram: seeded jitter ticks added to each
    /// transaction-restart backoff (one sample per
    /// [`on_retry_jitter`](Self::on_retry_jitter)).
    pub fn retry_jitter(&self) -> &LogHistogram {
        &self.retry_jitter
    }

    /// Device-stall histogram: stall ticks observed per commit attempt that
    /// paid gray-channel latency (one sample per [`on_stall`](Self::on_stall)).
    pub fn stall_latency(&self) -> &LogHistogram {
        &self.stall_latency
    }

    /// Prepare-to-decide latency histogram: logical ticks a 2PC participant
    /// spent in doubt — from its durable PREPARE to the durable decision
    /// (one sample per decide whose prepare this tracer observed).
    pub fn prepare_to_decide(&self) -> &LogHistogram {
        &self.prepare_to_decide
    }

    /// Per-phase duration profiles for the commit and recovery pipelines.
    pub fn phase_profiles(&self) -> &PhaseProfiles {
        &self.phases
    }

    /// The observed-conflict matrix (empty unless events were recorded).
    pub fn conflict_matrix(&self) -> &ConflictMatrix {
        &self.conflicts
    }

    /// One observation: tick, count `tally`, and build the event only for
    /// a recording run (where its own tally must be the one just counted).
    /// The counters-only run takes no call beyond the two bumps.
    #[inline]
    fn emit(
        &mut self,
        txn: Option<TxnId>,
        obj: Option<ObjectId>,
        tally: Tally,
        kind: impl FnOnce() -> EventKind,
    ) -> u64 {
        self.clock += 1;
        self.stats.count(tally);
        if self.record_events {
            self.record(txn, obj, tally, kind);
        }
        self.clock
    }

    /// Build and keep the event of the observation [`emit`](Self::emit)
    /// just counted.
    #[cold]
    #[inline(never)]
    fn record(
        &mut self,
        txn: Option<TxnId>,
        obj: Option<ObjectId>,
        tally: Tally,
        kind: impl FnOnce() -> EventKind,
    ) {
        let kind = kind();
        debug_assert_eq!(kind.tally(), tally);
        let wall_us = self.wall_epoch.map(|e| e.elapsed().as_micros() as u64);
        self.events.push(ObsEvent { seq: self.clock, wall_us, txn, obj, kind });
    }

    /// A transaction began.
    #[inline]
    pub fn on_begin(&mut self, txn: TxnId) {
        let seq = self.emit(Some(txn), None, Tally::Begin, || EventKind::Begin);
        self.begin_seq.insert(txn, seq);
    }

    /// An operation executed successfully. `render` produces the
    /// `(invocation, response)` strings and runs only when events are
    /// recorded. Emits an `Unblock` first when the invocation had been
    /// blocked, and feeds the latency histograms either way.
    #[inline]
    pub fn on_op(&mut self, txn: TxnId, obj: ObjectId, render: impl FnOnce() -> (String, String)) {
        let waited = match self.block_start.remove(&txn) {
            Some(start) => {
                let waited = self.clock.saturating_sub(start);
                self.lock_wait.record(waited);
                if let Some(keys) = self.pending_conflicts.remove(&txn) {
                    for key in keys {
                        self.conflicts.credit_blocked(key, waited);
                    }
                }
                self.emit(Some(txn), Some(obj), Tally::Neutral, || EventKind::Unblock { waited });
                waited
            }
            None => 0,
        };
        self.op_latency.record(waited);
        self.emit(Some(txn), Some(obj), Tally::Op, || {
            let (inv, resp) = render();
            EventKind::Op { inv, resp, waited }
        });
    }

    /// An invocation blocked on conflicting holders. `snapshot` renders the
    /// invocation string and the wait-for-graph snapshot (including the new
    /// edges) and runs only when events are recorded. Every blocked attempt
    /// emits an event (matching the historical `blocks` counter), but the
    /// wait-start stamp is kept from the *first* blocked attempt.
    pub fn on_block(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        snapshot: impl FnOnce() -> (String, Vec<TxnId>, WaitGraph),
    ) {
        let seq = self.emit(Some(txn), Some(obj), Tally::Block, || {
            let (inv, on, graph) = snapshot();
            EventKind::Block { inv, on, graph }
        });
        if !self.block_start.contains_key(&txn) {
            self.block_start.insert(txn, seq);
        }
    }

    /// A holder was wounded by the older requester `by`.
    pub fn on_wound(&mut self, victim: TxnId, by: TxnId, graph: impl FnOnce() -> WaitGraph) {
        self.emit(Some(victim), None, Tally::Neutral, || EventKind::Wound { by, graph: graph() });
    }

    /// The transaction committed (once per transaction, not per object).
    #[inline]
    pub fn on_commit(&mut self, txn: TxnId) {
        let seq = self.emit(Some(txn), None, Tally::Commit, || EventKind::Commit);
        if let Some(begin) = self.begin_seq.remove(&txn) {
            self.time_to_commit.record(seq.saturating_sub(begin));
        }
        self.block_start.remove(&txn);
        self.pending_conflicts.remove(&txn);
    }

    /// The transaction aborted.
    pub fn on_abort(&mut self, txn: TxnId, cause: AbortCause) {
        self.emit(Some(txn), None, Tally::Abort(cause), || EventKind::Abort { cause });
        self.begin_seq.remove(&txn);
        self.block_start.remove(&txn);
        self.pending_conflicts.remove(&txn);
    }

    /// Undo-replay failed while aborting `txn` at `obj`.
    pub fn on_replay_failure(&mut self, txn: TxnId, obj: ObjectId) {
        self.emit(Some(txn), Some(obj), Tally::ReplayFailure, || EventKind::ReplayFailure);
    }

    /// A torn journal record was injected.
    pub fn on_torn(&mut self, record: usize) {
        self.emit(None, None, Tally::TornWrite, || EventKind::TornWrite { record });
    }

    /// Crash recovery completed after replaying `replayed` journal records.
    /// Active transactions evaporated with the crash, so their open spans
    /// are dropped.
    pub fn on_recovery(&mut self, replayed: usize) {
        self.emit(None, None, Tally::Recovery, || EventKind::Recovery { replayed });
        self.replay_len.record(replayed as u64);
        self.begin_seq.clear();
        self.block_start.clear();
        self.pending_conflicts.clear();
        // Doubt windows that span a power cycle yield no latency sample —
        // the logical clock of the dead process doesn't extend across it.
        self.prepare_seq.clear();
    }

    /// A fault-plan entry fired. `counter` names the injection counter to
    /// bump if the fault took effect; `render` produces the fault's compact
    /// text form and runs only when events are recorded.
    pub fn on_fault(&mut self, counter: Option<FaultCounter>, render: impl FnOnce() -> String) {
        let tally = counter.map_or(Tally::Neutral, Tally::Fault);
        self.emit(None, None, tally, || EventKind::Fault { kind: render(), counter });
    }

    /// Recovery scanned the durable log (whether or not it went on to
    /// succeed). `damage` is the scanner's classification and runs only when
    /// events are recorded; `sectors` feeds the scan-latency histogram.
    pub fn on_segment_scan(
        &mut self,
        segments: u64,
        frames: u64,
        sectors: u64,
        damage: impl FnOnce() -> String,
    ) {
        self.emit(None, None, Tally::Neutral, || EventKind::SegmentScan {
            segments,
            frames,
            sectors,
            damage: damage(),
        });
        self.scan_len.record(sectors);
    }

    /// The scanner detected physical log damage at `sector`.
    pub fn on_corruption(&mut self, kind: CorruptionKind, sector: u64) {
        let tally = if kind == CorruptionKind::BitFlip { Tally::BitFlip } else { Tally::Neutral };
        self.emit(None, None, tally, || EventKind::CorruptionDetected { kind, sector });
    }

    /// A checkpoint folded `records` committed records into an image,
    /// deleting `truncated_segments` whole log segments.
    pub fn on_checkpoint(&mut self, records: u64, truncated_segments: u64) {
        self.emit(None, None, Tally::Checkpoint, || EventKind::Checkpoint {
            records,
            truncated_segments,
        });
    }

    /// A group-commit flush made `batch` commit records durable with one
    /// fsync, taking `micros` wall microseconds (0 in logical-time runs).
    pub fn on_group_flush(&mut self, batch: u64, micros: u64) {
        self.emit(None, None, Tally::Neutral, || EventKind::GroupFlush { batch, micros });
        self.batch_size.record(batch);
        self.flush_latency.record(micros);
    }

    /// A checked device op needed `attempts` tries, waiting `backoff` total
    /// logical ticks; `ok` is whether it succeeded within the retry budget.
    pub fn on_io_retry(&mut self, attempts: u32, backoff: u64, ok: bool) {
        self.emit(None, None, Tally::IoRetry, || EventKind::IoRetry { attempts, backoff, ok });
        self.retry_backoff.record(backoff);
    }

    /// The durable system entered (`entered = true`) or exited read-only
    /// degraded mode. `reason` renders the cause lazily (entry only).
    pub fn on_degraded(&mut self, entered: bool, reason: impl FnOnce() -> String) {
        self.emit(None, None, Tally::Degraded(entered), || EventKind::Degraded {
            entered,
            reason: reason(),
        });
    }

    /// The admission gate shed `txn`'s commit (journal backlog over bound).
    pub fn on_shed(&mut self, txn: TxnId) {
        self.emit(Some(txn), None, Tally::Shed, || EventKind::Shed);
    }

    /// The durable path observed `ticks` of device stall time since its
    /// previous observation. Feeds the stall-latency histogram.
    pub fn on_stall(&mut self, ticks: u64) {
        self.emit(None, None, Tally::Stall(ticks), || EventKind::Stall { ticks });
        self.stall_latency.record(ticks);
    }

    /// A restarted script drew `jitter` seeded rounds to sit out once the
    /// commit it sleeps on has landed — the whole pause; the cooperative
    /// executor's `restart` is the one caller. Histogram-only:
    /// jitter shapes the schedule, the restart's outcome is counted by its
    /// own commit/abort events.
    pub fn on_retry_jitter(&mut self, jitter: u64) {
        self.retry_jitter.record(jitter);
    }

    /// The recovery-convergence leg ran `trials` nested-crash trials over a
    /// baseline recovery of `device_ops` checked device ops.
    pub fn on_convergence_check(&mut self, trials: u64, device_ops: u64) {
        self.emit(None, None, Tally::ConvergenceCheck, || EventKind::ConvergenceCheck {
            trials,
            device_ops,
        });
    }

    /// A participant durably journaled its 2PC PREPARE for `gtid` (the yes
    /// vote). Starts the doubt-window clock for the latency histogram.
    pub fn on_prepare(&mut self, txn: TxnId, gtid: u64) {
        let seq = self.emit(Some(txn), None, Tally::Prepare, || EventKind::Prepare { gtid });
        self.prepare_seq.insert(gtid, seq);
    }

    /// The decision for prepared `gtid` became durable on a participant.
    /// Closes the doubt window: the prepare-to-decide histogram gets the
    /// logical ticks between the two journal appends.
    pub fn on_decide(&mut self, gtid: u64, commit: bool) {
        let seq = self.emit(None, None, Tally::Decide, || EventKind::Decide { gtid, commit });
        if let Some(start) = self.prepare_seq.remove(&gtid) {
            self.prepare_to_decide.record(seq.saturating_sub(start));
        }
    }

    /// A recovery scan surfaced `count` in-doubt transactions (emitted even
    /// for recoveries that find none only when callers choose to; the
    /// convention is to emit only for `count > 0`).
    pub fn on_in_doubt(&mut self, count: u64) {
        self.emit(None, None, Tally::InDoubt(count), || EventKind::InDoubt { count });
    }

    /// An in-doubt `gtid` was resolved post-recovery (`commit = false`
    /// covers presumed abort). The doubt window survived a crash, so no
    /// latency sample — process-local clocks don't span power cycles.
    pub fn on_resolved(&mut self, gtid: u64, commit: bool) {
        self.emit(None, None, Tally::Resolved, || EventKind::Resolved { gtid, commit });
        self.prepare_seq.remove(&gtid);
    }

    /// Open a phase span. The returned token carries the logical mark (and a
    /// wall start when the wall clock is enabled); close it with
    /// [`span_end`](Self::span_end). Spans of the same pipeline must nest
    /// properly for the tiling invariant to hold, but the tracer does not
    /// enforce nesting — a dropped token simply never records.
    #[inline]
    pub fn span_begin(&mut self, phase: Phase) -> SpanToken {
        let start = self.wall_epoch.map(|_| Instant::now());
        let mark = self.emit(None, None, Tally::Neutral, || EventKind::PhaseBegin { phase });
        SpanToken { phase, mark, start }
    }

    /// Close a phase span: emits `PhaseEnd` carrying the span's logical-tick
    /// and wall-ns durations and records them in the per-phase histograms.
    ///
    /// Tick accounting (see the `span` module docs): a child phase is
    /// charged the events between its begin and end *plus its own two
    /// bookkeeping events*; a total phase is charged only the events in
    /// between. Back-to-back children therefore tile their total exactly.
    #[inline]
    pub fn span_end(&mut self, token: SpanToken) {
        let elapsed = self.clock.saturating_sub(token.mark);
        let ticks = if token.phase.is_total() { elapsed } else { elapsed + 2 };
        let wall_ns = token.start.map(|s| s.elapsed().as_nanos() as u64).unwrap_or(0);
        self.emit(None, None, Tally::Neutral, || EventKind::PhaseEnd {
            phase: token.phase,
            ticks,
            wall_ns,
        });
        self.phases.record(token.phase, ticks, wall_ns);
    }

    /// Record an externally measured phase (the recovery stages, whose
    /// durations come from the storage layer as deterministic device-op or
    /// record counts). Emits a single `PhaseEnd` with `ticks = units`;
    /// `wall_ns` is kept only when the wall clock is enabled, so
    /// deterministic runs record 0 regardless of what the caller measured.
    pub fn on_phase(&mut self, phase: Phase, units: u64, wall_ns: u64) {
        let wall_ns = if self.wall_epoch.is_some() { wall_ns } else { 0 };
        self.emit(None, None, Tally::Neutral, || EventKind::PhaseEnd {
            phase,
            ticks: units,
            wall_ns,
        });
        self.phases.record(phase, units, wall_ns);
    }

    /// An invocation found conflicting holders. `pairs` renders the
    /// `(requested, held)` op-kind pairs (one per held op in conflict) and
    /// runs only when events are recorded — the counters-only mode must not
    /// allocate. The ADT and relation halves of each key come from the
    /// tracer's `adt` / `conflict` labels. Each key gets a hit; if the
    /// requester then blocks, the same keys are credited with the blocked
    /// ticks on unblock (latest blocked attempt wins).
    pub fn on_conflict(&mut self, txn: TxnId, pairs: impl FnOnce() -> Vec<(String, String)>) {
        if !self.record_events {
            return;
        }
        let label = |k: &str| self.labels.get(k).cloned().unwrap_or_else(|| "?".into());
        let (adt, relation) = (label("adt"), label("conflict"));
        let keys: Vec<ConflictKey> = pairs()
            .into_iter()
            .map(|(requested, held)| ConflictKey {
                adt: adt.clone(),
                relation: relation.clone(),
                requested,
                held,
            })
            .collect();
        for key in &keys {
            self.conflicts.record_hit(key.clone());
        }
        self.pending_conflicts.insert(txn, keys);
    }

    /// A wound-wait wound resolved a conflict: credit the wound to the
    /// requester's pending conflict cells (recorded by the preceding
    /// [`on_conflict`](Self::on_conflict)).
    pub fn on_conflict_wound(&mut self, requester: TxnId) {
        if let Some(keys) = self.pending_conflicts.get(&requester).cloned() {
            for key in keys {
                self.conflicts.record_wound(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TxnId = TxnId(0);
    const T1: TxnId = TxnId(1);
    const X: ObjectId = ObjectId(0);

    fn op(t: &mut Tracer, txn: TxnId) {
        t.on_op(txn, X, || ("inc".into(), "ok".into()));
    }

    #[test]
    fn projection_equals_incremental_stats() {
        let mut t = Tracer::new();
        t.on_begin(T0);
        t.on_begin(T1);
        op(&mut t, T0);
        t.on_block(T1, X, || ("inc".into(), vec![T0], vec![(T1, vec![T0])]));
        t.on_commit(T0);
        op(&mut t, T1);
        t.on_wound(T1, T0, Vec::new);
        t.on_abort(T1, AbortCause::Wounded);
        t.on_fault(Some(FaultCounter::WoundStorm), || "wound".into());
        t.on_torn(3);
        t.on_recovery(2);
        assert_eq!(t.project_stats(), *t.stats());
        assert_eq!(t.stats().begun, 2);
        assert_eq!(t.stats().committed, 1);
        assert_eq!(t.stats().aborted, 1);
        assert_eq!(t.stats().wounds, 1);
        assert_eq!(t.stats().blocks, 1);
        assert_eq!(t.stats().wound_storms, 1);
        assert_eq!(t.stats().torn_crashes, 1);
        assert_eq!(t.stats().crashes, 1);
    }

    #[test]
    fn counters_only_mode_keeps_stats_without_events() {
        let mut t = Tracer::new();
        t.set_record_events(false);
        t.on_begin(T0);
        op(&mut t, T0);
        t.on_commit(T0);
        assert!(t.events().is_empty());
        assert_eq!(t.stats().committed, 1);
        assert_eq!(t.op_latency().count(), 1);
        assert_eq!(t.time_to_commit().count(), 1);
    }

    #[test]
    fn lock_wait_measured_from_first_blocked_attempt() {
        let mut t = Tracer::new();
        t.on_begin(T0);
        t.on_begin(T1);
        op(&mut t, T0); // seq 3
        let snap = || ("inc".to_string(), vec![T0], vec![(T1, vec![T0])]);
        t.on_block(T1, X, snap); // first attempt: seq 4
        t.on_block(T1, X, snap); // retried attempt: seq 5 (stamp kept at 4)
        t.on_commit(T0); // seq 6
        op(&mut t, T1); // unblock at seq 7: waited = 6 - 4 = 2
        assert_eq!(t.lock_wait().count(), 1);
        assert_eq!(t.lock_wait().max(), 2);
        assert_eq!(t.stats().blocks, 2, "every blocked attempt counts");
        // The unblock event carries the same wait.
        let unblock = t
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::Unblock { .. }))
            .expect("unblock recorded");
        assert!(matches!(unblock.kind, EventKind::Unblock { waited: 2 }));
    }

    #[test]
    fn logical_clock_is_deterministic_and_wall_free() {
        let run = || {
            let mut t = Tracer::new();
            t.on_begin(T0);
            op(&mut t, T0);
            t.on_commit(T0);
            t
        };
        let (a, b) = (run(), run());
        assert_eq!(a.events(), b.events());
        assert!(a.events().iter().all(|e| e.wall_us.is_none()));
        assert_eq!(a.events().last().unwrap().seq, a.clock());
    }

    #[test]
    fn retry_degraded_and_convergence_events_project() {
        let mut t = Tracer::new();
        t.on_io_retry(2, 6, true);
        t.on_io_retry(4, 14, false);
        t.on_degraded(true, || "device full".into());
        t.on_degraded(false, String::new);
        t.on_convergence_check(17, 17);
        assert_eq!(t.project_stats(), *t.stats());
        assert_eq!(t.stats().io_retries, 2);
        assert_eq!(t.stats().degraded_entries, 1);
        assert_eq!(t.stats().degraded_exits, 1);
        assert_eq!(t.stats().convergence_checks, 1);
        assert_eq!(t.retry_backoff().count(), 2);
        assert_eq!(t.retry_backoff().max(), 14);
    }

    #[test]
    fn child_spans_tile_their_total_exactly() {
        let mut t = Tracer::new();
        let total = t.span_begin(Phase::CommitTotal);
        let a = t.span_begin(Phase::Validate);
        t.on_begin(T0); // one interior event inside the child
        t.span_end(a); // ticks = 1 + 2 (own bookkeeping charged to child)
        let b = t.span_begin(Phase::JournalAppend);
        t.span_end(b); // empty child: ticks = 2
        t.span_end(total); // total: interior events only
        let prof = t.phase_profiles();
        assert_eq!(prof.get(Phase::Validate).ticks().sum(), 3);
        assert_eq!(prof.get(Phase::JournalAppend).ticks().sum(), 2);
        assert_eq!(prof.get(Phase::CommitTotal).ticks().sum(), 5);
        assert_eq!(prof.coverage(Phase::CommitTotal), Some(1.0));
        // Phase events are counter-neutral and wall-free by default.
        assert_eq!(t.project_stats(), *t.stats());
        assert_eq!(prof.get(Phase::CommitTotal).wall_ns().max(), 0);
    }

    #[test]
    fn conflicts_attribute_hits_blocked_time_and_wounds() {
        let key = || vec![("Withdraw->Ok".to_string(), "Deposit->Ok".to_string())];
        let mut t = Tracer::new();
        t.set_label("adt", "bank");
        t.set_label("conflict", "nrbc");
        t.on_begin(T0);
        t.on_begin(T1);
        op(&mut t, T0);
        t.on_conflict(T1, key);
        t.on_block(T1, X, || ("W".into(), vec![T0], vec![(T1, vec![T0])]));
        t.on_commit(T0);
        op(&mut t, T1); // unblocks: blocked ticks credited to the key
        assert_eq!(t.conflict_matrix().len(), 1);
        let cell = *t.conflict_matrix().iter().next().unwrap().1;
        assert_eq!(cell.hits, 1);
        assert_eq!(cell.blocked_ticks, 1, "block at seq 4, commit at 5: waited 1");
        t.on_conflict(T1, key);
        t.on_conflict_wound(T1);
        let cell = *t.conflict_matrix().iter().next().unwrap().1;
        assert_eq!((cell.hits, cell.wounds), (2, 1));
    }

    #[test]
    fn counters_only_mode_renders_nothing() {
        fn never<T>() -> T {
            panic!("must not render in counters-only mode")
        }
        let mut quiet = Tracer::new();
        quiet.set_record_events(false);
        quiet.on_conflict(T1, never);
        quiet.on_block(T1, X, never);
        quiet.on_op(T1, X, never); // an unblock and an op: two ticks
        quiet.on_wound(T0, T1, never);
        quiet.on_fault(Some(FaultCounter::SectorTear), never);
        quiet.on_segment_scan(1, 2, 3, never);
        quiet.on_degraded(true, never);
        assert_eq!(quiet.clock(), 7);
        let expected = SystemStats {
            blocks: 1,
            ops: 1,
            sector_tears: 1,
            mode_flips: 1,
            degraded_entries: 1,
            ..SystemStats::default()
        };
        assert_eq!(*quiet.stats(), expected);
        assert_eq!((quiet.lock_wait().count(), quiet.scan_len().max()), (1, 3));
        assert!(quiet.events().is_empty() && quiet.conflict_matrix().is_empty());
    }

    const _: () = assert!(std::mem::size_of::<Tally>() <= 16);

    /// `absorb`'s table as it stood when it matched on the event itself,
    /// one built event per `EventKind` variant (and per cause / counter).
    #[test]
    fn tally_of_a_built_event_counts_what_absorb_counted() {
        let s = String::new;
        let zero = SystemStats::default;
        let mut table = vec![
            (EventKind::Begin, SystemStats { begun: 1, ..zero() }),
            (EventKind::Op { inv: s(), resp: s(), waited: 3 }, SystemStats { ops: 1, ..zero() }),
            (
                EventKind::Block { inv: s(), on: vec![T0], graph: vec![] },
                SystemStats { blocks: 1, ..zero() },
            ),
            (EventKind::Unblock { waited: 3 }, zero()),
            (EventKind::Wound { by: T0, graph: vec![] }, zero()),
            (EventKind::Commit, SystemStats { committed: 1, ..zero() }),
            (EventKind::ReplayFailure, SystemStats { replay_failures: 1, ..zero() }),
            (EventKind::TornWrite { record: 2 }, SystemStats { torn_crashes: 1, ..zero() }),
            (EventKind::Recovery { replayed: 2 }, SystemStats { crashes: 1, ..zero() }),
            (EventKind::Fault { kind: s(), counter: None }, zero()),
            (EventKind::SegmentScan { segments: 1, frames: 2, sectors: 3, damage: s() }, zero()),
            (
                EventKind::CorruptionDetected { kind: CorruptionKind::BitFlip, sector: 1 },
                SystemStats { bitflips_detected: 1, ..zero() },
            ),
            (EventKind::CorruptionDetected { kind: CorruptionKind::TornTail, sector: 1 }, zero()),
            (EventKind::CorruptionDetected { kind: CorruptionKind::Interior, sector: 1 }, zero()),
            (
                EventKind::Checkpoint { records: 4, truncated_segments: 1 },
                SystemStats { checkpoints: 1, ..zero() },
            ),
            (EventKind::GroupFlush { batch: 4, micros: 9 }, zero()),
            (
                EventKind::IoRetry { attempts: 2, backoff: 6, ok: true },
                SystemStats { io_retries: 1, ..zero() },
            ),
            (
                EventKind::Degraded { entered: true, reason: s() },
                SystemStats { mode_flips: 1, degraded_entries: 1, ..zero() },
            ),
            (
                EventKind::Degraded { entered: false, reason: s() },
                SystemStats { mode_flips: 1, degraded_exits: 1, ..zero() },
            ),
            (EventKind::Shed, SystemStats { sheds: 1, ..zero() }),
            (EventKind::Stall { ticks: 5 }, SystemStats { stall_ticks: 5, ..zero() }),
            (
                EventKind::ConvergenceCheck { trials: 7, device_ops: 7 },
                SystemStats { convergence_checks: 1, ..zero() },
            ),
            (EventKind::Prepare { gtid: 9 }, SystemStats { prepares: 1, ..zero() }),
            (EventKind::Decide { gtid: 9, commit: true }, SystemStats { decides: 1, ..zero() }),
            (EventKind::InDoubt { count: 3 }, SystemStats { in_doubt: 3, ..zero() }),
            (EventKind::Resolved { gtid: 9, commit: false }, SystemStats { resolved: 1, ..zero() }),
            (EventKind::PhaseBegin { phase: Phase::Validate }, zero()),
            (EventKind::PhaseEnd { phase: Phase::Validate, ticks: 2, wall_ns: 0 }, zero()),
        ];
        let abort = |cause| EventKind::Abort { cause };
        let aborted = || SystemStats { aborted: 1, ..zero() };
        table.extend([
            (abort(AbortCause::Requested), aborted()),
            (abort(AbortCause::Deadlock), aborted()),
            (abort(AbortCause::External), aborted()),
            (abort(AbortCause::Validation), SystemStats { validation_aborts: 1, ..aborted() }),
            (abort(AbortCause::Wounded), SystemStats { wounds: 1, ..aborted() }),
            (abort(AbortCause::NoWaitConflict), SystemStats { conflict_aborts: 1, ..aborted() }),
            (abort(AbortCause::Deadline), SystemStats { deadline_aborts: 1, ..aborted() }),
        ]);
        let fault = |c| EventKind::Fault { kind: s(), counter: Some(c) };
        table.extend([
            (fault(FaultCounter::ForcedAbort), SystemStats { forced_aborts: 1, ..zero() }),
            (fault(FaultCounter::WoundStorm), SystemStats { wound_storms: 1, ..zero() }),
            (fault(FaultCounter::DelayedCommit), SystemStats { delayed_commits: 1, ..zero() }),
            (fault(FaultCounter::SectorTear), SystemStats { sector_tears: 1, ..zero() }),
            (fault(FaultCounter::ReorderedFlush), SystemStats { reordered_flushes: 1, ..zero() }),
            (fault(FaultCounter::TransientIo), SystemStats { transient_io_faults: 1, ..zero() }),
            (fault(FaultCounter::DiskFull), SystemStats { disk_full_faults: 1, ..zero() }),
            (fault(FaultCounter::SlowDevice), SystemStats { slow_device_faults: 1, ..zero() }),
            (fault(FaultCounter::FsyncStall), SystemStats { fsync_stall_faults: 1, ..zero() }),
        ]);
        for (kind, expected) in table {
            let mut counted = zero();
            counted.count(kind.tally());
            assert_eq!(counted, expected, "{kind:?}");
            let mut absorbed = zero();
            absorbed.absorb(&kind);
            assert_eq!(absorbed, expected, "{kind:?}");
        }
    }

    #[test]
    fn two_pc_events_project_and_feed_the_doubt_histogram() {
        let mut t = Tracer::new();
        t.on_begin(T0);
        t.on_prepare(T0, 5); // seq 2
        op(&mut t, T0); // another participant's work ticks the clock
        t.on_decide(5, true); // seq 4: doubt window = 2 ticks
        t.on_prepare(T1, 6);
        t.on_in_doubt(1);
        t.on_resolved(6, false); // presumed abort: no latency sample
        assert_eq!(t.project_stats(), *t.stats());
        assert_eq!(t.stats().prepares, 2);
        assert_eq!(t.stats().decides, 1);
        assert_eq!(t.stats().in_doubt, 1);
        assert_eq!(t.stats().resolved, 1);
        assert_eq!(t.prepare_to_decide().count(), 1);
        assert_eq!(t.prepare_to_decide().max(), 2);
    }

    #[test]
    fn recovery_drops_open_spans() {
        let mut t = Tracer::new();
        t.on_begin(T0);
        t.on_recovery(0);
        t.on_commit(T0); // begin stamp was dropped: no time-to-commit sample
        assert_eq!(t.time_to_commit().count(), 0);
        assert_eq!(t.replay_len().count(), 1);
    }
}
