//! Aggregate execution counters, derived from tracer events.
//!
//! [`SystemStats`] began life in `ccr-runtime` as a bag of manually bumped
//! counters. It now lives here and is a **projection of the event stream**:
//! the [`Tracer`](crate::Tracer) counts every observation's tally in
//! exactly one place (`SystemStats::count`), whether or not the event is
//! built, and [`Tracer::project_stats`](crate::Tracer::project_stats)
//! recomputes the same struct from the recorded events' tallies — the
//! equality of the two is a test invariant. `ccr-runtime` re-exports this
//! type, so existing `sys.stats().committed`-style call sites are unchanged.

use crate::event::{AbortCause, EventKind, FaultCounter, ObsEvent, Tally};

/// Aggregate counters for an execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (all reasons).
    pub aborted: u64,
    /// Aborts due to deferred-update validation failure.
    pub validation_aborts: u64,
    /// Operations executed.
    pub ops: u64,
    /// Invocations that came back blocked.
    pub blocks: u64,
    /// Holders aborted by the wound-wait policy.
    pub wounds: u64,
    /// Requesters aborted by the no-wait policy.
    pub conflict_aborts: u64,
    /// Undo-replay failures (weak conflict relation under UIP).
    pub replay_failures: u64,
    /// Simulated crashes survived (fault injection).
    pub crashes: u64,
    /// Crashes injected with a torn (truncated) final journal record.
    pub torn_crashes: u64,
    /// Transactions force-aborted by fault injection.
    pub forced_aborts: u64,
    /// Commits artificially delayed by fault injection.
    pub delayed_commits: u64,
    /// Wound-storm faults injected (every active transaction aborted).
    pub wound_storms: u64,
    /// Commit flushes torn at sector granularity by fault injection.
    pub sector_tears: u64,
    /// Commit flushes persisted out of order by fault injection.
    pub reordered_flushes: u64,
    /// Bit flips detected by the recovery scanner's CRC check.
    pub bitflips_detected: u64,
    /// Checkpoints written (log prefix truncations).
    pub checkpoints: u64,
    /// Transient-I/O fault injections (a budget of checked device ops armed
    /// to fail once; retries with backoff normally absorb them).
    pub transient_io_faults: u64,
    /// Disk-full fault injections (the permanent out-of-space condition).
    pub disk_full_faults: u64,
    /// Checked device ops that needed retries after transient I/O errors.
    pub io_retries: u64,
    /// Entries into read-only degraded mode (exhausted retries or a full
    /// device).
    pub degraded_entries: u64,
    /// Exits from degraded mode (a healed device proved writable again).
    pub degraded_exits: u64,
    /// Recovery-convergence oracle passes (nested crash-during-recovery
    /// sweeps that matched the baseline outcome).
    pub convergence_checks: u64,
    /// Commits shed by the admission gate (journal backlog over bound).
    pub sheds: u64,
    /// Transactions aborted for exceeding their logical-time deadline.
    pub deadline_aborts: u64,
    /// Device stall ticks observed by the durable path — the latency
    /// surplus the gray channels charged (sum over Stall events).
    pub stall_ticks: u64,
    /// Mode flips: every entry *or* exit of degraded mode (the hysteresis
    /// detector's activity figure; `degraded_entries + degraded_exits`).
    pub mode_flips: u64,
    /// Slow-device fault injections (checked ops armed to serve slowly).
    pub slow_device_faults: u64,
    /// Fsync-stall fault injections (flushes armed to hang).
    pub fsync_stall_faults: u64,
    /// 2PC PREPARE records durably journaled (yes-votes).
    pub prepares: u64,
    /// 2PC decisions durably journaled on participants (commit or abort).
    pub decides: u64,
    /// In-doubt transactions surfaced by recovery scans (sum over scans).
    pub in_doubt: u64,
    /// In-doubt transactions resolved after recovery — by the coordinator's
    /// durable decision or by presumed abort.
    pub resolved: u64,
}

impl SystemStats {
    /// Count one observation. This is the *only* place any of these counters
    /// is incremented — every layer that used to bump a field by hand now
    /// makes the corresponding observation instead. Inlined into `emit`
    /// whatever its size: almost every hook's tally is a constant, and only
    /// then does the match fold to that hook's one or two adds.
    #[inline(always)]
    pub(crate) fn count(&mut self, tally: Tally) {
        match tally {
            Tally::Neutral => {}
            Tally::Begin => self.begun += 1,
            Tally::Op => self.ops += 1,
            Tally::Block => self.blocks += 1,
            Tally::Commit => self.committed += 1,
            Tally::Abort(cause) => {
                self.aborted += 1;
                match cause {
                    AbortCause::Validation => self.validation_aborts += 1,
                    AbortCause::Wounded => self.wounds += 1,
                    AbortCause::NoWaitConflict => self.conflict_aborts += 1,
                    AbortCause::Deadline => self.deadline_aborts += 1,
                    AbortCause::Requested | AbortCause::Deadlock | AbortCause::External => {}
                }
            }
            Tally::ReplayFailure => self.replay_failures += 1,
            Tally::TornWrite => self.torn_crashes += 1,
            Tally::Recovery => self.crashes += 1,
            Tally::Fault(FaultCounter::ForcedAbort) => self.forced_aborts += 1,
            Tally::Fault(FaultCounter::WoundStorm) => self.wound_storms += 1,
            Tally::Fault(FaultCounter::DelayedCommit) => self.delayed_commits += 1,
            Tally::Fault(FaultCounter::SectorTear) => self.sector_tears += 1,
            Tally::Fault(FaultCounter::ReorderedFlush) => self.reordered_flushes += 1,
            Tally::Fault(FaultCounter::TransientIo) => self.transient_io_faults += 1,
            Tally::Fault(FaultCounter::DiskFull) => self.disk_full_faults += 1,
            Tally::Fault(FaultCounter::SlowDevice) => self.slow_device_faults += 1,
            Tally::Fault(FaultCounter::FsyncStall) => self.fsync_stall_faults += 1,
            Tally::BitFlip => self.bitflips_detected += 1,
            Tally::Checkpoint => self.checkpoints += 1,
            Tally::IoRetry => self.io_retries += 1,
            Tally::Degraded(entered) => {
                self.mode_flips += 1;
                if entered {
                    self.degraded_entries += 1;
                } else {
                    self.degraded_exits += 1;
                }
            }
            Tally::Shed => self.sheds += 1,
            Tally::Stall(ticks) => self.stall_ticks += ticks,
            Tally::ConvergenceCheck => self.convergence_checks += 1,
            Tally::Prepare => self.prepares += 1,
            Tally::Decide => self.decides += 1,
            Tally::InDoubt(count) => self.in_doubt += count,
            Tally::Resolved => self.resolved += 1,
        }
    }

    /// Count a built event: `count` of its tally.
    pub fn absorb(&mut self, kind: &EventKind) {
        self.count(kind.tally());
    }

    /// Render the counters as a JSON object (field order fixed).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"begun\":{},\"committed\":{},\"aborted\":{},\"validation_aborts\":{},",
                "\"ops\":{},\"blocks\":{},\"wounds\":{},\"conflict_aborts\":{},",
                "\"replay_failures\":{},\"crashes\":{},\"torn_crashes\":{},",
                "\"forced_aborts\":{},\"delayed_commits\":{},\"wound_storms\":{},",
                "\"sector_tears\":{},\"reordered_flushes\":{},\"bitflips_detected\":{},",
                "\"checkpoints\":{},\"transient_io_faults\":{},\"disk_full_faults\":{},",
                "\"io_retries\":{},\"degraded_entries\":{},\"degraded_exits\":{},",
                "\"convergence_checks\":{},\"sheds\":{},\"deadline_aborts\":{},",
                "\"stall_ticks\":{},\"mode_flips\":{},\"slow_device_faults\":{},",
                "\"fsync_stall_faults\":{},\"prepares\":{},\"decides\":{},",
                "\"in_doubt\":{},\"resolved\":{}}}"
            ),
            self.begun,
            self.committed,
            self.aborted,
            self.validation_aborts,
            self.ops,
            self.blocks,
            self.wounds,
            self.conflict_aborts,
            self.replay_failures,
            self.crashes,
            self.torn_crashes,
            self.forced_aborts,
            self.delayed_commits,
            self.wound_storms,
            self.sector_tears,
            self.reordered_flushes,
            self.bitflips_detected,
            self.checkpoints,
            self.transient_io_faults,
            self.disk_full_faults,
            self.io_retries,
            self.degraded_entries,
            self.degraded_exits,
            self.convergence_checks,
            self.sheds,
            self.deadline_aborts,
            self.stall_ticks,
            self.mode_flips,
            self.slow_device_faults,
            self.fsync_stall_faults,
            self.prepares,
            self.decides,
            self.in_doubt,
            self.resolved,
        )
    }
}

/// Recompute the counter projection from a recorded event stream. Equals the
/// incrementally maintained stats whenever event recording was on for the
/// whole run (asserted by the tracer tests).
pub fn project(events: &[ObsEvent]) -> SystemStats {
    let mut s = SystemStats::default();
    for e in events {
        s.count(e.kind.tally());
    }
    s
}
