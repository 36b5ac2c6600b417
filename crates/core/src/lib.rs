//! # ccr-core — the formal model of Weihl's *The Impact of Recovery on
//! Concurrency Control* (1989)
//!
//! This crate mechanises the paper's computational model and results:
//!
//! * [`ids`], [`history`] — transactions, objects, events, well-formed
//!   histories and their algebra (`Opseq`, `Serial`, `permanent`,
//!   `precedes`, commit order) — paper §2–3.
//! * [`adt`], [`spec`] — serial specifications as state machines with
//!   partial and non-deterministic operations; legality via set-of-states
//!   semantics — §3.2.
//! * [`atomicity`], [`order`] — serializability, atomicity, **dynamic
//!   atomicity** and online dynamic atomicity — §3.3–3.4, §7.
//! * [`view`] — the two recovery methods as `View` functions: update-in-place
//!   (`UIP`) and deferred-update (`DU`) — §5.
//! * [`equieffect`], [`commutativity`] — *looks like*, equieffectiveness,
//!   forward commutativity (`FC`) and right backward commutativity (`RBC`),
//!   with witness-producing decision procedures — §6.
//! * [`conflict`], [`object`] — conflict relations and the abstract object
//!   implementation `I(X, Spec, View, Conflict)` — §4.
//! * [`explore`], [`theorems`] — bounded model checking of the automaton's
//!   language and the executable Theorems 9/10, including automatic
//!   construction and verification of the proofs' counterexample
//!   histories — §7.
//! * [`table`] — rendering of commutativity relations in the style of
//!   Figures 6-1/6-2.
//!
//! The concrete ADTs (the paper's bank account among them) live in the
//! `ccr-adt` crate; an executable runtime realising these models lives in
//! `ccr-runtime`.
//!
//! ## Example
//!
//! ```
//! use ccr_core::prelude::*;
//!
//! // A set-once flag stands in for a tiny ADT.
//! #[derive(Clone, Debug)]
//! struct Flag;
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! enum Inv { Set, Get }
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! enum Resp { Ok, Val(bool) }
//!
//! impl Adt for Flag {
//!     type State = bool;
//!     type Invocation = Inv;
//!     type Response = Resp;
//!     fn initial(&self) -> bool { false }
//!     fn step(&self, s: &bool, inv: &Inv) -> Outcomes<(Resp, bool)> {
//!         Outcomes::one(match inv {
//!             Inv::Set => (Resp::Ok, true),
//!             Inv::Get => (Resp::Val(*s), *s),
//!         })
//!     }
//! }
//!
//! let set = Op::<Flag>::new(Inv::Set, Resp::Ok);
//! assert!(legal(&Flag, &[set.clone(), set]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adt;
pub mod atomicity;
pub mod commutativity;
pub mod conflict;
pub mod equieffect;
pub mod explore;
pub mod history;
pub mod ids;
pub mod object;
pub mod order;
pub mod spec;
pub mod table;
pub mod theorems;
pub mod view;

/// Convenience re-exports of the most common items.
pub mod prelude {
    pub use crate::adt::{Adt, EnumerableAdt, Op, OpDeterministicAdt, Outcomes, StateCover};
    pub use crate::atomicity::{
        check_dynamic_atomic, check_dynamic_atomic_sampled, check_online_dynamic_atomic,
        find_serialization, is_atomic, is_dynamic_atomic, is_serializable, SystemSpec,
    };
    pub use crate::commutativity::{
        build_tables, commute_forward, right_commutes_backward, CommutativityTable,
    };
    pub use crate::conflict::{nfc_table, nrbc_table, Conflict, NoConflict, TableConflict};
    pub use crate::equieffect::{equieffective, looks_like, InclusionCfg};
    pub use crate::history::{Event, History, HistoryBuilder};
    pub use crate::ids::{ObjectId, TxnId};
    pub use crate::object::ObjectAutomaton;
    pub use crate::spec::{legal, reach, ReachSet};
    pub use crate::view::{Du, Uip, ViewFn};
}
