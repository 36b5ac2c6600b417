//! # ccr-adt — transactional abstract data types
//!
//! Each module implements one ADT as a [`ccr_core::adt::Adt`] serial
//! specification, together with:
//!
//! * a finite invocation alphabet for bounded analyses
//!   ([`ccr_core::adt::EnumerableAdt`]);
//! * a documented finite **state cover** making the commutativity engines
//!   exact for operations with *any* parameters
//!   ([`ccr_core::adt::StateCover`]) — so the `NFC` / `NRBC` relations the
//!   `ccr-runtime` lock manager uses are derived from the specification
//!   ([`ccr_core::conflict::Derived`]), not written by hand; only the bank
//!   keeps its transcription of Figures 6-1/6-2 ([`bank::bank_nfc`]);
//! * where meaningful, a logical-inverse implementation
//!   ([`traits::InvertibleAdt`]) and a read/write classification
//!   ([`traits::RwClassify`]) for the strict two-phase-locking baseline.
//!
//! The ADTs:
//!
//! | module | ADT | notes |
//! |--------|-----|-------|
//! | [`bank`] | the paper's bank account | Figures 6-1/6-2 live here |
//! | [`counter`] | unbounded counter | minimal partial ADT |
//! | [`escrow`] | bounded account (escrow-style, cf. O'Neil \[16\]) | conflicts on both bounds |
//! | [`set`] | finite set | per-element commutativity |
//! | [`kv`] | key-value store | blind writes: models page read/write DBs |
//! | [`register`] | read/write register | the classical single-version model |
//! | [`maxreg`] | max-register (monotone aggregate) | all updates commute |
//! | [`pqueue`] | min-priority queue | value-dependent insert/extract conflicts |
//! | [`queue`] | FIFO queue | almost nothing commutes |
//! | [`stack`] | LIFO stack | ditto |
//! | [`semiqueue`] | unordered buffer | non-deterministic `deq` enables concurrency |
//! | [`combine`] | sum of two ADTs | heterogeneous systems |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod combine;
pub mod counter;
pub mod escrow;
pub mod kv;
pub mod maxreg;
pub mod pqueue;
pub mod queue;
pub mod register;
pub mod semiqueue;
pub mod set;
pub mod stack;
pub mod traits;

/// The values a bounded state cover is built over: every value in
/// `mentioned` first, then `fillers` in order, at most `n`, sorted — so a
/// value an operation mentions survives the bound whatever the alphabet.
pub(crate) fn cover_values<T: Ord + Copy>(
    mentioned: &[T],
    fillers: impl IntoIterator<Item = T>,
    n: usize,
) -> Vec<T> {
    let mut vals: Vec<T> = Vec::new();
    for v in mentioned.iter().copied().chain(fillers) {
        if vals.len() < n && !vals.contains(&v) {
            vals.push(v);
        }
    }
    vals.sort_unstable();
    vals
}
