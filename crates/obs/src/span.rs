//! Phase-scoped spans over the commit and recovery pipelines.
//!
//! A [`Phase`] names one stage of either pipeline. The tracer opens a span
//! with [`Tracer::span_begin`](crate::Tracer::span_begin) (emitting a
//! `PhaseBegin` event and returning a [`SpanToken`]) and closes it with
//! [`Tracer::span_end`](crate::Tracer::span_end) (emitting `PhaseEnd` with
//! the span's logical-tick and wall-nanosecond durations and feeding the
//! per-phase histograms in [`PhaseProfiles`]).
//!
//! **Tick accounting.** A span's logical duration is measured on the event
//! clock. For a *child* phase (e.g. `validate` inside `commit_total`) the
//! two bookkeeping events the span itself emits are charged *to that
//! phase*: `ticks = clock_before_end − mark + 2`, where `mark` is the clock
//! right after `PhaseBegin`. For a *total* phase the own bookkeeping is
//! excluded (`ticks = clock_before_end − mark`), so back-to-back children
//! tile their enclosing total exactly — the per-phase histograms then
//! account for 100% of the measured pipeline time by construction.
//!
//! Wall durations are only taken when the tracer's wall clock is enabled
//! (threaded profiling); in deterministic runs every `wall_ns` is 0 so
//! same-seed exports stay byte-identical.

use crate::hist::{HistogramSummary, LogHistogram};

/// One profiled stage of the commit or recovery pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Commit path: an invocation's conflict check + lock acquisition.
    LockAcquire,
    /// Commit path: deferred-update validation (`prepare_commit`).
    Validate,
    /// Commit path: journalling the commit record(s) to the log backend.
    JournalAppend,
    /// Commit path: the flush leader's fsync of a staged batch (wall time
    /// measured in the threaded executor).
    Fsync,
    /// Commit path: a follower waiting on the group-commit barrier.
    BarrierWait,
    /// The whole commit pipeline, begin-to-durable.
    CommitTotal,
    /// Recovery path: walking durable segments and decoding frames.
    Scan,
    /// Recovery path: probing beyond damage to classify it.
    Classify,
    /// Recovery path: tail repair (discard + the sealing header).
    Repair,
    /// Recovery path: replaying committed records into the fresh system.
    Replay,
    /// Recovery path: restoring the checkpoint image into the fresh system.
    Rebuild,
    /// The whole recovery pipeline, crash-to-serving.
    RecoveryTotal,
}

/// Number of phases (array size for [`PhaseProfiles`]).
pub const PHASE_COUNT: usize = 12;

impl Phase {
    /// Every phase, in export order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::LockAcquire,
        Phase::Validate,
        Phase::JournalAppend,
        Phase::Fsync,
        Phase::BarrierWait,
        Phase::CommitTotal,
        Phase::Scan,
        Phase::Classify,
        Phase::Repair,
        Phase::Replay,
        Phase::Rebuild,
        Phase::RecoveryTotal,
    ];

    /// Stable index into [`PhaseProfiles`].
    pub fn index(self) -> usize {
        match self {
            Phase::LockAcquire => 0,
            Phase::Validate => 1,
            Phase::JournalAppend => 2,
            Phase::Fsync => 3,
            Phase::BarrierWait => 4,
            Phase::CommitTotal => 5,
            Phase::Scan => 6,
            Phase::Classify => 7,
            Phase::Repair => 8,
            Phase::Replay => 9,
            Phase::Rebuild => 10,
            Phase::RecoveryTotal => 11,
        }
    }

    /// Short lowercase label (exporter names and JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Phase::LockAcquire => "lock_acquire",
            Phase::Validate => "validate",
            Phase::JournalAppend => "journal_append",
            Phase::Fsync => "fsync",
            Phase::BarrierWait => "barrier_wait",
            Phase::CommitTotal => "commit_total",
            Phase::Scan => "scan",
            Phase::Classify => "classify",
            Phase::Repair => "repair",
            Phase::Replay => "replay",
            Phase::Rebuild => "rebuild",
            Phase::RecoveryTotal => "recovery_total",
        }
    }

    /// Which pipeline the phase belongs to (`"commit"` / `"recovery"`).
    pub fn path(self) -> &'static str {
        match self {
            Phase::LockAcquire
            | Phase::Validate
            | Phase::JournalAppend
            | Phase::Fsync
            | Phase::BarrierWait
            | Phase::CommitTotal => "commit",
            _ => "recovery",
        }
    }

    /// Whether this is a whole-pipeline total (excluded from child tiling).
    pub fn is_total(self) -> bool {
        matches!(self, Phase::CommitTotal | Phase::RecoveryTotal)
    }

    /// Whether this child phase tiles its enclosing total in coverage
    /// accounting. `LockAcquire` is excluded: lock waits happen while the
    /// transaction is still executing operations, *before* the commit-total
    /// window opens (their cost is attributed through the conflict matrix,
    /// not the commit pipeline).
    pub fn tiles_total(self) -> bool {
        !self.is_total() && self != Phase::LockAcquire
    }
}

/// An open span returned by `Tracer::span_begin`, consumed by `span_end`.
#[derive(Debug)]
pub struct SpanToken {
    /// The phase being measured.
    pub(crate) phase: Phase,
    /// Logical clock right after the `PhaseBegin` event.
    pub(crate) mark: u64,
    /// Wall start, taken only when the tracer's wall clock is enabled.
    pub(crate) start: Option<std::time::Instant>,
}

impl SpanToken {
    /// The phase this token measures.
    pub fn phase(&self) -> Phase {
        self.phase
    }
}

/// Duration histograms for one phase: sample count, logical ticks (or
/// deterministic phase units for externally measured recovery stages), and
/// wall nanoseconds (all-zero samples in deterministic runs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    ticks: LogHistogram,
    wall_ns: LogHistogram,
}

impl PhaseProfile {
    /// Record one closed span.
    pub fn record(&mut self, ticks: u64, wall_ns: u64) {
        self.ticks.record(ticks);
        self.wall_ns.record(wall_ns);
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.ticks.count()
    }

    /// The logical-tick histogram.
    pub fn ticks(&self) -> &LogHistogram {
        &self.ticks
    }

    /// The wall-nanosecond histogram.
    pub fn wall_ns(&self) -> &LogHistogram {
        &self.wall_ns
    }

    /// Merge another profile in (element-wise, order-independent).
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.ticks.merge(&other.ticks);
        self.wall_ns.merge(&other.wall_ns);
    }

    /// Render as a JSON object (fixed field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"ticks_sum\":{},\"wall_ns_sum\":{},\"ticks\":{},\"wall_ns\":{}}}",
            self.count(),
            self.ticks.sum(),
            self.wall_ns.sum(),
            summary_json(&self.ticks.summary()),
            summary_json(&self.wall_ns.summary()),
        )
    }
}

fn summary_json(s: &HistogramSummary) -> String {
    s.to_json()
}

/// Per-phase profiles for the whole pipeline, indexed by [`Phase::index`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfiles {
    profiles: [PhaseProfile; PHASE_COUNT],
}

impl Default for PhaseProfiles {
    fn default() -> Self {
        PhaseProfiles { profiles: std::array::from_fn(|_| PhaseProfile::default()) }
    }
}

impl PhaseProfiles {
    /// A fresh, empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one closed span of `phase`.
    pub fn record(&mut self, phase: Phase, ticks: u64, wall_ns: u64) {
        self.profiles[phase.index()].record(ticks, wall_ns);
    }

    /// The profile of one phase.
    pub fn get(&self, phase: Phase) -> &PhaseProfile {
        &self.profiles[phase.index()]
    }

    /// Iterate phases with their profiles, in export order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &PhaseProfile)> {
        Phase::ALL.iter().map(move |&p| (p, &self.profiles[p.index()]))
    }

    /// Merge another set in (order-independent).
    pub fn merge(&mut self, other: &PhaseProfiles) {
        for (mine, theirs) in self.profiles.iter_mut().zip(other.profiles.iter()) {
            mine.merge(theirs);
        }
    }

    /// Fraction (0..=1) of a total phase's summed ticks covered by its
    /// children's summed ticks; `None` when the total has no samples. The
    /// span tick-accounting rule makes this exactly 1.0 for single-threaded
    /// deterministic runs.
    pub fn coverage(&self, total: Phase) -> Option<f64> {
        let total_sum = self.get(total).ticks().sum();
        if total_sum == 0 {
            return None;
        }
        let children: u64 = Phase::ALL
            .iter()
            .filter(|p| p.tiles_total() && p.path() == total.path())
            .map(|p| self.get(*p).ticks().sum())
            .sum();
        Some(children as f64 / total_sum as f64)
    }

    /// Wall-clock analogue of [`PhaseProfiles::coverage`]: fraction of a
    /// total phase's summed wall nanoseconds covered by its children's.
    /// `None` when the total has no wall time (deterministic runs, where
    /// every wall stamp is zero). Unlike tick coverage this is *measured*,
    /// not tiled by construction — the threaded executor samples fsync and
    /// barrier waits independently of the commit-total latency — so values
    /// hover near 1.0 rather than hitting it exactly.
    pub fn coverage_wall(&self, total: Phase) -> Option<f64> {
        let total_sum = self.get(total).wall_ns().sum();
        if total_sum == 0 {
            return None;
        }
        let children: u64 = Phase::ALL
            .iter()
            .filter(|p| p.tiles_total() && p.path() == total.path())
            .map(|p| self.get(*p).wall_ns().sum())
            .sum();
        Some(children as f64 / total_sum as f64)
    }

    /// Render as a JSON object keyed by phase label, in export order.
    pub fn to_json(&self) -> String {
        let body: Vec<String> =
            self.iter().map(|(p, prof)| format!("\"{}\":{}", p.label(), prof.to_json())).collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_a_bijection() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
        let labels: std::collections::BTreeSet<&str> =
            Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PHASE_COUNT);
    }

    #[test]
    fn coverage_over_tiled_children_is_exact() {
        let mut prof = PhaseProfiles::new();
        // Lock waits precede the commit window and must not tile it.
        prof.record(Phase::LockAcquire, 3, 0);
        prof.record(Phase::Validate, 4, 0);
        prof.record(Phase::JournalAppend, 5, 0);
        prof.record(Phase::CommitTotal, 9, 0);
        assert_eq!(prof.coverage(Phase::CommitTotal), Some(1.0));
        assert_eq!(prof.coverage(Phase::RecoveryTotal), None);
    }

    #[test]
    fn profiles_merge_and_render() {
        let mut a = PhaseProfiles::new();
        a.record(Phase::Scan, 7, 100);
        let mut b = PhaseProfiles::new();
        b.record(Phase::Scan, 9, 50);
        a.merge(&b);
        assert_eq!(a.get(Phase::Scan).count(), 2);
        assert_eq!(a.get(Phase::Scan).ticks().sum(), 16);
        let js = a.to_json();
        assert!(js.contains("\"scan\":{\"count\":2,\"ticks_sum\":16,"));
        assert!(js.contains("\"recovery_total\":{\"count\":0,"));
    }
}
