//! # ccr-runtime — an executable transactional runtime for abstract data
//! types with commutativity-based locking and pluggable recovery
//!
//! This crate turns the formal model of `ccr-core` into a system you can
//! run:
//!
//! * [`engine`] — recovery engines: update-in-place ([`engine::UipEngine`],
//!   with replay- or inverse-based undo) and deferred update
//!   ([`engine::DuEngine`], intentions lists / private workspaces);
//! * [`system`] — the transaction manager: conflict-relation locking with
//!   implicit locks, atomic commitment across objects, wait-for-graph
//!   deadlock detection, and full event-trace recording (executions can be
//!   checked dynamic atomic post-hoc by `ccr-core`);
//! * [`script`] + [`scheduler`] — deterministic, seeded execution of
//!   transaction scripts with blocking, retries and deadlock-victim
//!   handling (the substrate for the paper experiments);
//! * [`threaded`] — a multi-threaded executor over the same system
//!   (parking_lot-based blocking instead of scheduler polling);
//! * [`optimistic`] — optimistic concurrency control (§3.4's remark):
//!   execute without blocking, validate commutativity at commit;
//! * [`escrow`] — the O'Neil-style state-dependent conflict test the
//!   paper's §8 cites as *outside* the conflict-relation framework,
//!   implemented as an extension for comparison;
//! * [`crash`] — simulated crash recovery (the paper's deferred future
//!   work): a redo journal in commit order with verified replay,
//!   torn-write detection and checkpoint truncation, persisted through a
//!   pluggable `ccr-store` [`LogBackend`](ccr_store::LogBackend) — the
//!   fast in-memory journal or the segmented, checksummed WAL on a
//!   simulated sector device (DESIGN.md §9);
//! * [`fault`] + [`sim`] — deterministic fault injection: seeded fault
//!   plans (crashes, torn writes, forced aborts, delayed commits, wound
//!   storms, sector tears, flush reordering, bit flips) driven through a
//!   [`crash::DurableSystem`] with an atomicity / equieffectivity /
//!   recovery-view oracle after every fault;
//! * [`oracle`] — the legs more than one harness asks about, written once:
//!   the bit-set [`oracle::Ledger`] (stray, uniform outcome, durability,
//!   resurrection) and [`oracle::views_agree`].
//!
//! Every layer reports through the `ccr-obs` tracer embedded in the system
//! ([`system::TxnSystem::obs`]): structured events on a deterministic
//! logical clock, latency histograms, and the [`system::SystemStats`]
//! counters — which are now a *projection* of the event stream rather than
//! ad-hoc bumps (the struct itself lives in `ccr-obs` and is re-exported
//! here unchanged).
//!
//! The correct pairings (Theorems 9 and 10) are `UipEngine` with an
//! `NRBC`-containing conflict relation and `DuEngine` with an
//! `NFC`-containing one. The runtime lets you run the *incorrect* pairings
//! too — deferred-update validation and undo-replay failures then surface
//! exactly where the theory predicts, which the tests exploit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crash;
pub mod engine;
pub mod error;
pub mod escrow;
pub mod fault;
pub mod optimistic;
pub mod oracle;
pub mod scheduler;
pub mod script;
pub mod shard;
pub mod sim;
pub mod system;
pub mod threaded;
mod writeahead;

pub use crash::{DurableSystem, Journal, RedoError, SystemMode, SystemSnapshot, TornPolicy};
pub use engine::{DuEngine, RecoveryEngine, UipEngine, UipInverseEngine};
pub use error::{AbortReason, RecoveryError, TxnError};
pub use oracle::{check_uniform_outcome, GlobalAtomicityViolation};
pub use shard::{CoordinatorLog, ShardSet, ShardedSnapshot, ShardedSystem, TwoPcStep};
pub use system::{ConflictPolicy, SystemStats, TxnSystem};
