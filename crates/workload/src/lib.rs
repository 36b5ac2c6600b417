//! # ccr-workload — workload generators, measurement harness and the
//! paper-experiment drivers
//!
//! * [`mod@bench`] — the group-commit durability benchmark: the same workload
//!   under per-commit fsyncs vs batched group flushes, producing
//!   `reports/BENCH_group_commit.json`;
//! * [`gen`] — seeded workload generators: hot-spot banking, counters,
//!   escrow accounts, producer/consumer queues and semiqueues, sets;
//! * [`harness`] — run a workload under a named (recovery engine, conflict
//!   relation) configuration and collect a serialisable [`harness::Outcome`]
//!   (commits, blocks, deadlocks, validation aborts, retries, wall time,
//!   and — for small runs — a dynamic-atomicity verdict on the full trace);
//! * [`experiments`] — one module per paper artifact (Figures 6-1/6-2,
//!   Theorems 9/10, the §6.4/§8 incomparability, the worked examples of
//!   §3.3/§5) plus the concurrency comparisons; each renders a markdown
//!   section consumed by `EXPERIMENTS.md` and the `ccr-experiments` binary;
//! * [`overload`] — the gray-failure survival benchmark: the same stalling
//!   device with and without the protection knobs (deadlines, MPL, WAL-lag
//!   shedding, stall detector), producing `reports/BENCH_overload.json`
//!   with SLO verdicts CI enforces by exit code;
//! * [`profile`] — the contention & recovery profiler's report assembly:
//!   per-phase span histograms, observed-conflict attribution, and the
//!   static admitted-concurrency tables, as one schema-pinned JSON document;
//! * [`shard_sim`] — the fleet driver: durable shards under presumed-abort
//!   2PC with the global uniform-outcome oracle leg, and the 2PC frame-cost
//!   bench;
//! * [`sim`] — fault-injection scenarios: one flag table that parses,
//!   prints and documents a run, engine × relation combos (including a
//!   deliberately weakened one), one `run` over either driver, template
//!   sweeps over seeds, and a delta-debugging shrinker that reduces an
//!   oracle failure to a replayable `ccr-experiments sim …` command line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod experiments;
pub mod gen;
pub mod harness;
pub mod overload;
pub mod profile;
pub mod shard_sim;
pub mod sim;
