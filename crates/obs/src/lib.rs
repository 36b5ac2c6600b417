//! # ccr-obs — deterministic tracing and metrics for the ccr runtime
//!
//! Zero-dependency observability layer (only `ccr-core` for the id types).
//! The [`Tracer`] records structured [`ObsEvent`]s across the whole
//! transaction lifecycle — begin, op invoke/response, block/unblock, wound,
//! validation, commit/abort, fault injection, and crash-recovery replay —
//! stamped with a **logical event clock** so that a seeded run produces a
//! byte-identical trace every time. Wall-clock stamps are opt-in for
//! threaded profiling.
//!
//! On top of the event stream sit:
//!
//! * [`SystemStats`] — the aggregate counters, now *derived* from events in
//!   one place (`count(tally)`, behind the tracer's `emit` and
//!   [`SystemStats::absorb`]) instead of bumped ad hoc across the runtime;
//! * [`LogHistogram`] — log-bucketed, mergeable latency histograms for op
//!   latency, lock-wait time, time-to-commit and recovery replay length;
//! * exporters: [`chrome_trace`] (Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto), [`flame_summary`] (folded-stack text),
//!   and [`MetricsReport`] (JSON metrics snapshot).
//!
//! See DESIGN.md §8 for the schema and the determinism contract.

#![warn(missing_docs)]

pub mod conflict;
pub mod event;
pub mod export;
pub mod hist;
pub mod span;
pub mod stats;
pub mod tracer;

pub use conflict::{ConflictCell, ConflictKey, ConflictMatrix};
pub use event::{AbortCause, CorruptionKind, EventKind, FaultCounter, ObsEvent, WaitGraph};
pub use export::{chrome_trace, flame_summary, json_string, MetricsReport};
pub use hist::{HistogramSummary, LogHistogram};
pub use span::{Phase, PhaseProfile, PhaseProfiles, SpanToken};
pub use stats::{project, SystemStats};
pub use tracer::Tracer;
