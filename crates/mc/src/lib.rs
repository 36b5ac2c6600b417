//! Bounded exhaustive model checking of the commit/recovery pipeline.
//!
//! The randomized oracle (`ccr-runtime`'s fault simulator) only *samples*
//! the pipeline's state space: a seeded sweep can miss a low-probability
//! interleaving of group commit, a torn group flush, crash-during-recovery or
//! a 2PC crash. This crate is the exhaustive complement: it drives small
//! finite instances (2–3 transactions, a bounded crash budget) through the
//! **real** `ShardedSystem` / `DurableSystem` code paths on `MemBackend` or
//! `WalBackend`, enumerating every interleaving of the action alphabet —
//! including a crash at every checked device operation inside recovery — by
//! depth-first search over cloneable snapshots with a canonical-state table
//! for deduplication.
//!
//! There is one harness ([`Harness`]) over a fleet of shards, and it is the
//! only code that drives a fleet: the explorer enumerates it, and
//! `ccr-experiments sim --shards N` walks it with seeded actions. A
//! transaction with one place is local to its shard (commit / batch flush);
//! one with more is global under presumed-abort 2PC (prepare / decide). The
//! explorer's one-shard fleet is the single system (commit / batch flush /
//! checkpoint / clean, torn, reordered and in-recovery crashes); with two or
//! more shards every transaction spans the fleet (prepare / decide / crash a
//! shard subset / crash the coordinator). The invariants, murodb's
//! `CrashResilience.tla` for the same abstraction plus the eighth oracle
//! leg, are checked once for all:
//!
//! * **the ledger**, after every action — every acknowledged commit is
//!   visible, nothing aborted, lost or never begun is, and every settled
//!   transaction is visible on all its shards or none (global uniform
//!   outcome);
//! * on every shard a crash recovered — **batch prefix** (a torn group
//!   flush loses only a suffix; on the WAL, which writes a group as one
//!   frame, the whole group or the part after a segment roll),
//!   **replay-view agreement** (the paper's UIP execution-order and DU
//!   commit-order folds of the recovered log agree with what the shard
//!   serves), **convergence** and **idempotence**.
//!
//! On a violation the explorer emits a *minimized* replayable trace (greedy
//! delta-debugging over the action list) plus a `ccr-experiments mc`
//! reproducer line carrying the exact instance configuration.

pub mod action;
pub mod explorer;
pub mod harness;
pub mod shrink;

pub use action::{McAction, McTrace, ParseTraceError};
pub use explorer::{explore, ExploreStats, McVerdict};
pub use harness::{Harness, McBackend, McBackendKind, McConfig, McViolation, Mutation};
pub use shrink::{reproducer, shrink};
