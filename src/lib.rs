//! # ccr — commutativity-based concurrency control and recovery for
//! abstract data types
//!
//! A comprehensive Rust reproduction of
//!
//! > William E. Weihl, *The Impact of Recovery on Concurrency Control*
//! > (Extended Abstract), MIT/LCS/TM-382, February 1989 (PODS 1989).
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`core`] (`ccr-core`) — the formal model: histories, serial
//!   specifications, dynamic atomicity, forward/right-backward
//!   commutativity, the recovery views `UIP`/`DU`, the abstract object
//!   automaton `I(X, Spec, View, Conflict)` and executable Theorems 9/10;
//! * [`adt`] (`ccr-adt`) — the ADT library (the paper's bank account,
//!   counters, escrow accounts, sets, key-value stores, registers, queues,
//!   stacks, semiqueues), whose conflict relations are derived from each
//!   specification ([`core::conflict::Derived`]);
//! * [`runtime`] (`ccr-runtime`) — an executable transactional runtime:
//!   conflict-relation locking, update-in-place and deferred-update
//!   recovery engines, deadlock handling, optimistic validation and an
//!   escrow extension;
//! * [`store`] (`ccr-store`) — the durable storage engine: a simulated
//!   sector device with deterministic fault injection (torn writes, flush
//!   reordering, bit flips), a segmented checksummed write-ahead log with
//!   checkpoint truncation and the physical recovery scan the runtime's
//!   `DurableSystem` replays from (see `DESIGN.md` §9);
//! * [`obs`] (`ccr-obs`) — the deterministic tracing and metrics layer
//!   every runtime path reports through: structured events on a logical
//!   clock, latency histograms, the `SystemStats` projection and the
//!   Chrome-trace / flamegraph / metrics exporters (see `DESIGN.md` §8);
//! * [`workload`] (`ccr-workload`) — workload generators, the measurement
//!   harness and the drivers that regenerate every figure/table of the
//!   paper (see `EXPERIMENTS.md`).
//!
//! ## Quick start
//!
//! ```
//! use ccr::prelude::*;
//! use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv, BankResp};
//! use ccr::runtime::{TxnSystem, UipEngine};
//!
//! // A bank over update-in-place recovery with the minimal (Theorem 9)
//! // conflict relation.
//! let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
//!     TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
//!
//! let a = sys.begin();
//! let b = sys.begin();
//! sys.invoke(a, ObjectId::SOLE, BankInv::Deposit(5)).unwrap();
//! // Deposits commute: b is not blocked by a's uncommitted deposit.
//! assert_eq!(
//!     sys.invoke(b, ObjectId::SOLE, BankInv::Deposit(3)).unwrap(),
//!     BankResp::Ok
//! );
//! sys.commit(a).unwrap();
//! sys.commit(b).unwrap();
//! assert_eq!(sys.committed_state(ObjectId::SOLE), 8);
//!
//! // The recorded execution is provably dynamic atomic.
//! let spec = SystemSpec::single(BankAccount::default());
//! assert!(is_dynamic_atomic(&spec, sys.trace()));
//! ```

pub use ccr_adt as adt;
pub use ccr_core as core;
pub use ccr_mc as mc;
pub use ccr_obs as obs;
pub use ccr_runtime as runtime;
pub use ccr_store as store;
pub use ccr_workload as workload;

/// Common imports for applications.
pub mod prelude {
    pub use ccr_core::prelude::*;
    pub use ccr_runtime::{AbortReason, TxnError};
}
