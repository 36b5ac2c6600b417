//! Bounded exhaustive model checking of the commit/recovery pipeline.
//!
//! The six-legged randomized oracle (`ccr-runtime`'s fault simulator) only
//! *samples* the pipeline's state space: a seeded sweep can miss a
//! low-probability interleaving of group commit, torn-batch repair and
//! crash-during-recovery. This crate is the exhaustive complement: it drives
//! small finite instances (2–3 transactions, a handful of objects, a bounded
//! crash budget) through the **real** `MemBackend`/`WalBackend`,
//! `DurableSystem::commit`/`commit_group`, `checkpoint` and `recover_with`
//! code paths, enumerating *every* interleaving of
//! commit / batch flush / checkpoint / crash / recover — including a crash at
//! every checked device operation inside recovery itself — by depth-first
//! search over cloneable system snapshots with a canonical-state table for
//! deduplication.
//!
//! The invariants checked are the ones murodb's `CrashResilience.tla`
//! states for the same abstraction (WAL as durable commit summaries, crash
//! discards volatile state, recovery replays commit order):
//!
//! * **committed-prefix durability** — every acknowledged commit survives
//!   every subsequent crash; a torn group flush may only lose a *suffix* of
//!   the batch (survivors form a prefix in commit order);
//! * **no resurrection** — an aborted or never-committed transaction's
//!   effects never appear in a recovered state;
//! * **recovery idempotence / convergence** — recovering twice from the same
//!   durable image yields the same committed states;
//! * **replay-view agreement** — the paper's two views of the recovered log
//!   (update-in-place replay in execution order, Theorem 9; deferred-update
//!   replay in commit order, Theorem 10) fold to the same committed states,
//!   which are the states the rebuilt system actually serves.
//!
//! On a violation the explorer emits a *minimized* replayable trace (greedy
//! delta-debugging over the action list) plus a `ccr-experiments mc`
//! reproducer line carrying the exact instance configuration.
//!
//! The instance is deliberately tiny and fully decodable: logical
//! transaction `i` deposits `1 << i` into object `i mod objects`, so every
//! committed state is a bit-set of exactly which transactions' effects are
//! present — durability and resurrection checks are exact, not statistical.
//!
//! With `shards >= 2` ([`McConfig::shards`]) the checker switches to the
//! **sharded** instance ([`shard_harness::ShardHarness`]): a fleet of real
//! `DurableSystem` shards under presumed-abort 2PC, explored with the
//! extended `p{i}` (prepare) / `q{i}` (decide commit) / `s{mask}`
//! (crash shard subset) / `z` (crash coordinator) alphabet, checking the
//! eighth oracle leg — **global uniform outcome** across every crash
//! subset — with the lose-decision mutation as its negative control.

pub mod action;
pub mod explorer;
pub mod harness;
pub mod shard_harness;
pub mod shrink;

pub use action::{McAction, McTrace, ParseTraceError};
pub use explorer::{explore, ExploreStats, McVerdict};
pub use harness::{Harness, McBackend, McBackendKind, McConfig, McViolation, Mutation};
pub use shard_harness::ShardHarness;
pub use shrink::{reproducer, shrink};
