//! Simulated durable storage for the recovery experiments.
//!
//! The paper's two recovery disciplines — update-in-place (UIP, Theorem 9)
//! and deferred-update (DU, Theorem 10) — differ in *which* concurrency
//! controls they make correct, but both presuppose a log that survives
//! crashes intact. This crate makes that assumption earn its keep: the log
//! is built on a virtual block device that is deterministically hostile at
//! sector granularity, and recovery must reconstruct committed state from
//! whatever physically survived.
//!
//! Layers, bottom up:
//!
//! * [`SimDisk`] ([`disk`]): a sector-addressed device with a write-back
//!   cache. Data is volatile until flushed; crashes drop the cache; armed
//!   faults tear, reorder, flip, or misdirect writes — deterministically.
//! * [`WalBackend`] ([`wal`]): a segmented write-ahead log of CRC'd,
//!   length-prefixed frames with epoch-stamped segment headers and
//!   checkpoint-based truncation, plus a recovery scanner that classifies
//!   damage (clean tail / torn tail / interior corruption).
//! * [`LogBackend`] ([`backend`]): the trait `ccr-runtime`'s
//!   `DurableSystem` journals through, with [`MemBackend`] as the fast
//!   in-memory implementation, and the pure [`replay_uip`] / [`replay_du`]
//!   folds that realise the paper's two views of a recovered log.
//! * [`Persist`] / [`crc32`] ([`codec`]): the hand-rolled byte codec (the
//!   build environment has no serde).
//!
//! The crate deliberately knows nothing about transactions-in-flight,
//! locking, or observability — it stores and recovers committed records.
//! `ccr-runtime` owns replay semantics and event emission; scan evidence
//! travels up in [`ScanReport`].

pub mod backend;
pub mod codec;
pub mod disk;
pub mod inspect;
mod scan;
pub mod wal;

pub use backend::{
    replay_du, replay_uip, CheckpointImage, CommitRecord, ConvergenceFailure, ConvergenceReport,
    Detection, LogBackend, MemBackend, RecoveredLog, RetryRecord, ScanReport, StoreFailure,
    StoreFailureKind, StoreStats, TailPolicy,
};
pub use codec::{crc32, Persist};
pub use disk::{DiskError, DiskImage, DiskStats, SectorRead, SimDisk, TRACK_SECTORS};
pub use inspect::{inspect_wal, FrameInfo, SegmentInfo, WalInspection};
pub use wal::{
    build_frame, check_frame, decode_commit, decode_decide, decode_prepare, encode_commits,
    encode_decide, encode_prepare, SegHeader, WalBackend, WalConfig,
};
