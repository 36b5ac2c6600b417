//! Runtime error types.

use ccr_core::ids::{ObjectId, TxnId};
use std::fmt;

/// Why a transaction was aborted by the system (as opposed to by the
/// application calling `abort`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// Chosen as a deadlock victim.
    Deadlock,
    /// Deferred-update commit validation failed: the intentions list could
    /// not be applied to the committed base state. Cannot happen when the
    /// conflict relation contains `NFC` (Theorem 10); with weaker relations
    /// it is the runtime's last line of defence.
    Validation,
    /// The application requested the abort.
    Requested,
    /// Aborted because the conflict policy aborts requesters instead of
    /// blocking them (optimistic-flavoured configurations).
    ConflictAbort,
    /// The transaction exceeded its logical-time deadline. Deadline aborts
    /// go through the ordinary abort path, so they are atomicity-preserving
    /// by construction — the journal never sees the transaction.
    Deadline,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Deadlock => write!(f, "deadlock victim"),
            AbortReason::Validation => write!(f, "deferred-update validation failed"),
            AbortReason::Requested => write!(f, "requested"),
            AbortReason::ConflictAbort => write!(f, "conflict (abort policy)"),
            AbortReason::Deadline => write!(f, "deadline exceeded"),
        }
    }
}

/// Errors surfaced by [`crate::system::TxnSystem`] operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxnError {
    /// The operation conflicts with operations held by other active
    /// transactions; the caller should wait for one of them to finish (or
    /// abort and retry, per policy). Whom it waits for is the system's to
    /// say: `TxnSystem::waiting_on`.
    Blocked,
    /// The transaction has been aborted.
    Aborted(AbortReason),
    /// The transaction id is unknown or already completed.
    NotActive(TxnId),
    /// The object id is unknown.
    NoSuchObject(ObjectId),
    /// The invocation has no legal response in the transaction's view —
    /// either the specification is partial here, or (with a too-weak
    /// conflict relation) recovery corrupted the view.
    NoLegalResponse,
    /// The durable system is in read-only degraded mode (exhausted device
    /// retries or a full device): the commit was refused and the
    /// transaction's volatile effects rolled back. Reads keep serving;
    /// healing the device and writing a checkpoint restores writes.
    ReadOnly,
    /// The admission gate shed this commit: the in-flight journal backlog
    /// exceeded its bound, so the transaction was cleanly aborted before
    /// the journal saw it. The caller should back off and retry — shedding
    /// is overload protection, not failure.
    Shed,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Blocked => write!(f, "blocked by a conflicting holder"),
            TxnError::Aborted(r) => write!(f, "aborted: {r}"),
            TxnError::NotActive(t) => write!(f, "transaction {t} is not active"),
            TxnError::NoSuchObject(o) => write!(f, "no such object {o}"),
            TxnError::NoLegalResponse => write!(f, "no legal response in view"),
            TxnError::ReadOnly => write!(f, "system is in read-only degraded mode"),
            TxnError::Shed => write!(f, "shed by the admission gate (journal backlog)"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Internal recovery failures (engine level).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoveryError {
    /// Replaying the surviving log after an abort failed: some remaining
    /// operation is no longer legal. Cannot happen when the conflict
    /// relation contains `NRBC` (Theorem 9).
    ReplayFailed {
        /// Object whose log could not be replayed.
        obj: ObjectId,
    },
    /// A deferred-update intentions list could not be applied at commit.
    ApplyFailed {
        /// Object whose intentions could not be applied.
        obj: ObjectId,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::ReplayFailed { obj } => {
                write!(f, "undo replay failed at {obj} (conflict relation ⊉ NRBC?)")
            }
            RecoveryError::ApplyFailed { obj } => {
                write!(f, "intentions apply failed at {obj} (conflict relation ⊉ NFC?)")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}
