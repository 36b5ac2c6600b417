//! The model-checking harness: one small, fully decodable instance of the
//! real commit/recovery pipeline, plus the invariant checks run after every
//! recovery.
//!
//! Logical transaction `i` performs a single `Deposit(1 << i)` on object
//! `i mod objects`. Deposit amounts are distinct powers of two, so each
//! object's committed balance is a *bit-set* of exactly which transactions'
//! effects are present — the durability and resurrection checks decode it
//! exactly. Deposits commute under the bank's NRBC relation, so no
//! interleaving blocks: every enumerated schedule runs to completion and
//! state-space size is governed purely by the commit/crash alphabet.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv, BankResp};
use ccr_core::adt::Op;
use ccr_core::conflict::FnConflict;
use ccr_core::ids::ObjectId;
use ccr_runtime::crash::{DurableSystem, SystemMode, SystemSnapshot, TornPolicy};
use ccr_runtime::engine::UipEngine;
use ccr_runtime::fault::{crash_recover_interrupted, probe_recovery_ops};
use ccr_runtime::oracle::{views_agree, Ledger, LedgerViolation, Told};
use ccr_store::{CommitRecord, LogBackend, MemBackend, TailPolicy, WalBackend, WalConfig};

use crate::action::McAction;

/// Which storage backend the instance journals through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum McBackendKind {
    /// `ccr-store`'s segmented CRC'd write-ahead log on the simulated
    /// sector device — the full physical pipeline, including
    /// crash-at-device-op enumeration inside recovery.
    #[default]
    Disk,
    /// The fast in-memory backend (operation-granularity tears, no device
    /// ops — crash-in-recovery points don't exist here).
    Mem,
}

impl fmt::Display for McBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McBackendKind::Disk => write!(f, "disk"),
            McBackendKind::Mem => write!(f, "mem"),
        }
    }
}

impl FromStr for McBackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "disk" => Ok(McBackendKind::Disk),
            "mem" => Ok(McBackendKind::Mem),
            other => Err(format!("unknown backend `{other}` (expected disk|mem)")),
        }
    }
}

/// A deliberately seeded pipeline bug — the mutation-style negative
/// controls that prove the checker (and the randomized oracle's legs)
/// actually detect what they claim to detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// After acknowledging a (non-group) commit, silently tear its tail off
    /// the stable image — an ack without durability. Violates
    /// committed-prefix durability.
    DropAckedCommit,
    /// After acknowledging a group flush, silently lose its first sector —
    /// as if the device reordered persistence and nobody noticed. Violates
    /// the batch-prefix contract.
    ReorderLastBatch,
    /// On abort, covertly append the aborted transaction's operations to
    /// the journal as if it had committed. Violates no-resurrection.
    ResurrectAborted,
    /// Skip the WAL epoch bump (disk only): stale pre-truncation frames can
    /// be replayed as if current. Violates idempotence / view agreement.
    SkipEpochBump,
    /// Sharded instances only: the coordinator's first commit-decision
    /// record silently evaporates after one participant was already told to
    /// commit, and the coordinator dies mid-phase-two — settlement presumes
    /// abort on the stragglers. Violates global uniform outcome (the
    /// eighth oracle leg).
    LoseDecision,
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mutation::DropAckedCommit => "drop-acked-commit",
            Mutation::ReorderLastBatch => "reorder-last-batch",
            Mutation::ResurrectAborted => "resurrect-aborted",
            Mutation::SkipEpochBump => "skip-epoch-bump",
            Mutation::LoseDecision => "lose-decision",
        };
        write!(f, "{s}")
    }
}

impl FromStr for Mutation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "drop-acked-commit" => Ok(Mutation::DropAckedCommit),
            "reorder-last-batch" => Ok(Mutation::ReorderLastBatch),
            "resurrect-aborted" => Ok(Mutation::ResurrectAborted),
            "skip-epoch-bump" => Ok(Mutation::SkipEpochBump),
            "lose-decision" => Ok(Mutation::LoseDecision),
            other => Err(format!(
                "unknown mutation `{other}` (expected drop-acked-commit|reorder-last-batch|\
                 resurrect-aborted|skip-epoch-bump|lose-decision)"
            )),
        }
    }
}

/// The finite instance the explorer enumerates.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Logical transactions (1..=6; transaction `i` deposits `1 << i`).
    pub txns: usize,
    /// Objects (transaction `i` touches object `i mod objects`).
    pub objects: u32,
    /// Crashes allowed per trace (each crash action consumes one).
    pub crash_budget: u32,
    /// Checkpoints allowed per trace.
    pub ckpt_budget: u32,
    /// Group-commit mode: commits stage; a flush action batches them.
    pub group_commit: bool,
    /// Storage backend.
    pub backend: McBackendKind,
    /// Seeded bug, if running a negative control.
    pub mutation: Option<Mutation>,
    /// Cap on enumerated torn-tail sizes (`t1..=t<max_tears>`).
    pub max_tears: usize,
    /// Recovery domains. `1` is the classic single-system instance; `>= 2`
    /// switches to the sharded presumed-abort 2PC instance (one object per
    /// shard, every transaction cross-shard, `p`/`q`/`s`/`z` alphabet —
    /// see `shard_harness`), where `objects`, `group_commit`, `ckpt_budget`
    /// and `max_tears` are ignored.
    pub shards: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            txns: 2,
            objects: 2,
            crash_budget: 2,
            ckpt_budget: 1,
            group_commit: false,
            backend: McBackendKind::Disk,
            mutation: None,
            max_tears: 2,
            shards: 1,
        }
    }
}

/// An invariant violation: which `CrashResilience.tla`-style property broke,
/// with enough detail to read the minimized trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McViolation {
    /// An acknowledged commit's effect is missing after recovery.
    DurabilityLost {
        /// The logical transaction whose deposit vanished.
        txn: usize,
    },
    /// An aborted (or crash-lost, or never-started) transaction's effect is
    /// present after recovery.
    Resurrection {
        /// The logical transaction that rose from the dead.
        txn: usize,
    },
    /// A recovered object state decodes to bits no assigned transaction
    /// could have produced (e.g. a double-applied deposit).
    StrayState {
        /// The object.
        object: u32,
        /// Its undecodable recovered state.
        state: u64,
    },
    /// Survivors of a torn group flush are not a prefix of the batch in
    /// commit order (all-or-prefix contract broken).
    NotPrefix {
        /// The flush's transactions in commit order.
        flush: Vec<usize>,
        /// Which of them survived.
        survived: Vec<usize>,
    },
    /// The paper's two replay views (UIP execution-order fold, DU
    /// commit-order fold) or the rebuilt system disagree about the
    /// recovered committed states.
    ViewDivergence {
        /// What diverged.
        detail: String,
    },
    /// Recovering twice from the same durable image produced different
    /// committed states (or the second recovery failed).
    NotIdempotent {
        /// What changed.
        detail: String,
    },
    /// Recovery refused an image it must be able to recover.
    RecoveryRefused {
        /// The underlying redo error.
        detail: String,
    },
    /// Sharded instances: a global transaction's outcome is not uniform
    /// across its participants — committed on some shards, aborted on
    /// others (the eighth oracle leg, global dynamic atomicity).
    GlobalSplit {
        /// The logical transaction with the mixed outcome.
        txn: usize,
        /// Shards where its deposit is visible.
        committed_on: Vec<usize>,
        /// Shards where it is not.
        aborted_on: Vec<usize>,
    },
    /// The harness itself hit an impossible transition (a commit or invoke
    /// the volatile system refused on a conflict-free schedule).
    Internal {
        /// What happened.
        detail: String,
    },
}

impl McViolation {
    /// Stable short kind tag (JSON verdicts, test assertions).
    pub fn kind(&self) -> &'static str {
        match self {
            McViolation::DurabilityLost { .. } => "durability-lost",
            McViolation::Resurrection { .. } => "resurrection",
            McViolation::StrayState { .. } => "stray-state",
            McViolation::NotPrefix { .. } => "not-prefix",
            McViolation::ViewDivergence { .. } => "view-divergence",
            McViolation::NotIdempotent { .. } => "not-idempotent",
            McViolation::RecoveryRefused { .. } => "recovery-refused",
            McViolation::GlobalSplit { .. } => "global-split",
            McViolation::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for McViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McViolation::DurabilityLost { txn } => {
                write!(f, "acknowledged commit of txn {txn} lost after recovery")
            }
            McViolation::Resurrection { txn } => {
                write!(f, "aborted/never-committed txn {txn} present after recovery")
            }
            McViolation::StrayState { object, state } => {
                write!(f, "object {object} recovered to undecodable state {state:#x}")
            }
            McViolation::NotPrefix { flush, survived } => {
                write!(f, "torn batch {flush:?} survived as non-prefix {survived:?}")
            }
            McViolation::ViewDivergence { detail } => write!(f, "replay views diverge: {detail}"),
            McViolation::NotIdempotent { detail } => {
                write!(f, "recovery not idempotent: {detail}")
            }
            McViolation::RecoveryRefused { detail } => write!(f, "recovery refused: {detail}"),
            McViolation::GlobalSplit { txn, committed_on, aborted_on } => write!(
                f,
                "global txn {txn} split: committed on {committed_on:?}, aborted on {aborted_on:?}"
            ),
            McViolation::Internal { detail } => write!(f, "harness internal error: {detail}"),
        }
    }
}

/// Result of applying one action to the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The action took effect; exploration continues below it.
    Ok,
    /// The action is inapplicable in this state (e.g. the stable image
    /// cannot be torn that way) — the branch is dead, not a violation.
    Skip,
    /// An invariant broke.
    Violation(McViolation),
}

/// Backend plug for the harness: construction plus the backend-specific
/// sabotage hooks mutations need.
pub trait McBackend: LogBackend<BankAccount> {
    /// A fresh, empty backend.
    fn fresh() -> Self;
    /// Which [`McBackendKind`] this is.
    fn kind() -> McBackendKind;
    /// Arm the skip-epoch-bump sabotage, if this backend has epochs.
    /// Returns whether the sabotage exists here.
    fn sabotage_skip_epoch_bump(&mut self) -> bool {
        false
    }
}

impl McBackend for MemBackend<BankAccount> {
    fn fresh() -> Self {
        MemBackend::new()
    }

    fn kind() -> McBackendKind {
        McBackendKind::Mem
    }
}

impl McBackend for WalBackend<BankAccount> {
    fn fresh() -> Self {
        WalBackend::new(WalConfig::default())
    }

    fn kind() -> McBackendKind {
        McBackendKind::Disk
    }

    fn sabotage_skip_epoch_bump(&mut self) -> bool {
        self.set_skip_epoch_bump(true);
        true
    }
}

/// Where each logical transaction stands, from the *client's* point of view
/// (acks received, aborts issued) — the reference the invariants compare
/// recovered physical state against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Not begun.
    Fresh,
    /// Begun, deposit executed, volatile.
    Active,
    /// Group mode: volatile-committed intent, awaiting the batch flush.
    Staged,
    /// Commit acknowledged — must be durable from now on.
    Committed,
    /// Aborted — must never be durable.
    Aborted,
    /// Was volatile (active/staged) when a crash hit — must not be durable.
    Lost,
    /// Was acknowledged, but the acknowledging flush was torn/reordered by
    /// the crash: legally present or absent, subject to the batch-prefix
    /// rule. Resolved to `Committed`/`Lost` by the first recovery check.
    Undecided,
}

type Sys<B> = DurableSystem<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>;

/// The cloneable bookkeeping half of a harness snapshot.
#[derive(Clone)]
struct Book {
    phase: Vec<Phase>,
    handles: Vec<Option<ccr_core::ids::TxnId>>,
    /// Logical index → the (object, op) it executed, for forged records.
    ops: Vec<Option<(ObjectId, Op<BankAccount>)>>,
    staged: Vec<usize>,
    acked: Vec<usize>,
    /// Transactions acknowledged by the most recent *physical* append, in
    /// commit order — the candidates a torn/reordered crash may legally
    /// lose (as a suffix).
    last_flush: Vec<usize>,
    crash_left: u32,
    ckpt_left: u32,
    mutated: bool,
}

/// A full harness snapshot (system + bookkeeping), restorable any number of
/// times — the explorer's fork point.
pub struct HarnessSnapshot<B: McBackend> {
    sys: SystemSnapshot<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>,
    book: Book,
}

/// One instance under test: the real durable system plus the client-side
/// ledger the invariants check against.
pub struct Harness<B: McBackend> {
    cfg: McConfig,
    adt: BankAccount,
    sys: Sys<B>,
    /// Transaction `i`'s one place is object `i mod objects`.
    ledger: Ledger,
    book: Book,
}

impl<B: McBackend> Harness<B> {
    /// Build a fresh instance per `cfg` (applying construction-time
    /// mutations such as [`Mutation::SkipEpochBump`]).
    pub fn new(cfg: McConfig) -> Self {
        let adt = BankAccount::default();
        let mut backend = B::fresh();
        if cfg.mutation == Some(Mutation::SkipEpochBump) {
            backend.sabotage_skip_epoch_bump();
        }
        let sys = DurableSystem::with_backend(adt.clone(), cfg.objects, bank_nrbc(), backend);
        Harness {
            cfg,
            adt,
            sys,
            ledger: Ledger::new((0..cfg.txns).map(|i| vec![i % cfg.objects as usize]).collect()),
            book: Book {
                phase: vec![Phase::Fresh; cfg.txns],
                handles: vec![None; cfg.txns],
                ops: vec![None; cfg.txns],
                staged: Vec::new(),
                acked: Vec::new(),
                last_flush: Vec::new(),
                crash_left: cfg.crash_budget,
                ckpt_left: cfg.ckpt_budget,
                mutated: false,
            },
        }
    }

    /// The instance configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Snapshot system + bookkeeping.
    pub fn snapshot(&self) -> HarnessSnapshot<B> {
        HarnessSnapshot { sys: self.sys.snapshot(), book: self.book.clone() }
    }

    /// Rewind to a snapshot (non-consuming).
    pub fn restore(&mut self, snap: &HarnessSnapshot<B>) {
        self.sys.restore(&snap.sys);
        self.book = snap.book.clone();
    }

    /// Exact canonical encoding of everything that can influence future
    /// behavior or invariant outcomes. Two states with equal keys have
    /// identical subtrees, so the explorer prunes the second — the encoding
    /// is the full state (phases, ledgers, budgets, counters, and the
    /// backend's physical image fingerprint), not a lossy hash of it.
    pub fn canonical_key(&mut self) -> Vec<u8> {
        let mut k = Vec::with_capacity(64);
        for p in &self.book.phase {
            k.push(*p as u8);
        }
        k.push(0xfe);
        k.extend((self.book.staged.len() as u32).to_le_bytes());
        for &i in &self.book.staged {
            k.push(i as u8);
        }
        k.extend((self.book.acked.len() as u32).to_le_bytes());
        for &i in &self.book.acked {
            k.push(i as u8);
        }
        k.extend((self.book.last_flush.len() as u32).to_le_bytes());
        for &i in &self.book.last_flush {
            k.push(i as u8);
        }
        k.extend(self.book.crash_left.to_le_bytes());
        k.extend(self.book.ckpt_left.to_le_bytes());
        k.push(self.book.mutated as u8);
        k.push(match self.sys.mode() {
            SystemMode::Normal => 0,
            SystemMode::Degraded => 1,
        });
        k.extend(self.sys.journal().base_records().to_le_bytes());
        k.extend((self.sys.journal().records().len() as u64).to_le_bytes());
        k.extend(self.sys.system().next_txn_id().to_le_bytes());
        k.extend(self.sys.exec_seq().to_le_bytes());
        k.extend(self.sys.backend().image_fingerprint().to_le_bytes());
        for o in 0..self.cfg.objects {
            k.extend(self.sys.committed_state(ObjectId(o)).to_le_bytes());
        }
        k
    }

    /// The actions enabled in the current state, in deterministic order.
    /// (Some listed actions may still [`Applied::Skip`] on application —
    /// e.g. a tear the image cannot express; listing is conservative.)
    pub fn enabled_actions(&mut self) -> Vec<McAction> {
        let mut out = Vec::new();
        for i in 0..self.cfg.txns {
            if self.book.phase[i] == Phase::Fresh {
                out.push(McAction::Begin(i));
            }
        }
        for i in 0..self.cfg.txns {
            if self.book.phase[i] == Phase::Active {
                out.push(McAction::Commit(i));
                out.push(McAction::Abort(i));
            }
        }
        if self.cfg.group_commit && !self.book.staged.is_empty() {
            out.push(McAction::Flush);
        }
        if self.book.ckpt_left > 0 && !self.sys.journal().records().is_empty() {
            out.push(McAction::Checkpoint);
        }
        if self.book.crash_left > 0 {
            out.push(McAction::CrashClean);
            if !self.book.last_flush.is_empty() {
                for n in 1..=self.cfg.max_tears {
                    out.push(McAction::CrashTorn(n));
                }
                out.push(McAction::CrashReorder);
            }
            if B::kind() == McBackendKind::Disk {
                if let Some(n) = probe_recovery_ops(&mut self.sys, TornPolicy::DiscardTail) {
                    for d in 0..n {
                        out.push(McAction::CrashInRecovery(d));
                    }
                }
            }
        }
        out
    }

    /// Apply one action (with mutation sabotage where configured), running
    /// the full invariant battery after any action that recovers.
    pub fn apply(&mut self, action: McAction) -> Applied {
        match action {
            McAction::Begin(i) => self.do_begin(i),
            McAction::Commit(i) => self.do_commit(i),
            McAction::Abort(i) => self.do_abort(i),
            McAction::Flush => self.do_flush(),
            McAction::Checkpoint => self.do_checkpoint(),
            McAction::CrashClean => self.do_crash(CrashShape::Clean),
            McAction::CrashTorn(n) => self.do_crash(CrashShape::Torn(n)),
            McAction::CrashReorder => self.do_crash(CrashShape::Reorder),
            McAction::CrashInRecovery(d) => self.do_crash(CrashShape::InRecovery(d)),
            // 2PC actions exist only in the sharded instance
            // (`shard_harness`); here they are dead branches, not errors —
            // a shrunk sharded trace replayed against `--shards 1` must
            // not panic.
            McAction::Prepare(_)
            | McAction::DecideCommit(_)
            | McAction::CrashShards(_)
            | McAction::CrashCoordinator => Applied::Skip,
        }
    }

    fn do_begin(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != Phase::Fresh {
            return Applied::Skip;
        }
        let t = self.sys.begin();
        let obj = ObjectId(self.ledger.places(i)[0] as u32);
        let inv = BankInv::Deposit(Ledger::amount(i));
        match self.sys.invoke(t, obj, inv.clone()) {
            Ok(resp) => {
                debug_assert_eq!(resp, BankResp::Ok);
                self.book.phase[i] = Phase::Active;
                self.book.handles[i] = Some(t);
                self.book.ops[i] = Some((obj, Op::new(inv, resp)));
                Applied::Ok
            }
            Err(e) => Applied::Violation(McViolation::Internal {
                detail: format!("deposit of txn {i} refused: {e:?}"),
            }),
        }
    }

    fn do_commit(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != Phase::Active {
            return Applied::Skip;
        }
        if self.cfg.group_commit {
            self.book.phase[i] = Phase::Staged;
            self.book.staged.push(i);
            return Applied::Ok;
        }
        let t = self.book.handles[i].expect("active txn has a handle");
        match self.sys.commit(t) {
            Ok(()) => {
                self.book.phase[i] = Phase::Committed;
                self.book.acked.push(i);
                self.book.last_flush = vec![i];
                if self.cfg.mutation == Some(Mutation::DropAckedCommit) && !self.book.mutated {
                    // Sabotage: the ack stands, the bytes don't.
                    self.book.mutated = self.sys.backend_mut().tear_last_flush(1);
                }
                Applied::Ok
            }
            Err(e) => Applied::Violation(McViolation::Internal {
                detail: format!("commit of txn {i} refused: {e:?}"),
            }),
        }
    }

    fn do_abort(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != Phase::Active {
            return Applied::Skip;
        }
        let t = self.book.handles[i].expect("active txn has a handle");
        if let Err(e) = self.sys.abort(t) {
            return Applied::Violation(McViolation::Internal {
                detail: format!("abort of txn {i} refused: {e:?}"),
            });
        }
        self.book.phase[i] = Phase::Aborted;
        if self.cfg.mutation == Some(Mutation::ResurrectAborted) && !self.book.mutated {
            // Sabotage: forge a commit record for the aborted transaction.
            let (obj, op) = self.book.ops[i].clone().expect("begun txn recorded its op");
            let rec = CommitRecord {
                floor: self.sys.system().next_txn_id(),
                ops: vec![(1_000 + i as u64, obj, op)],
            };
            self.book.mutated = self.sys.backend_mut().append_commit(&rec).is_ok();
        }
        Applied::Ok
    }

    fn do_flush(&mut self) -> Applied {
        if !self.cfg.group_commit || self.book.staged.is_empty() {
            return Applied::Skip;
        }
        let staged = std::mem::take(&mut self.book.staged);
        let handles: Vec<_> = staged
            .iter()
            .map(|&i| self.book.handles[i].expect("staged txn has a handle"))
            .collect();
        let results = self.sys.commit_group(&handles);
        for (&i, r) in staged.iter().zip(&results) {
            match r {
                Ok(()) => {
                    self.book.phase[i] = Phase::Committed;
                    self.book.acked.push(i);
                }
                Err(e) => {
                    return Applied::Violation(McViolation::Internal {
                        detail: format!("group commit of txn {i} refused: {e:?}"),
                    });
                }
            }
        }
        self.book.last_flush = staged;
        if self.cfg.mutation == Some(Mutation::ReorderLastBatch) && !self.book.mutated {
            // Sabotage: the batch ack stands; its first sector doesn't.
            self.book.mutated = self.sys.backend_mut().reorder_last_flush();
        }
        Applied::Ok
    }

    fn do_checkpoint(&mut self) -> Applied {
        if self.book.ckpt_left == 0 || self.sys.journal().records().is_empty() {
            return Applied::Skip;
        }
        self.book.ckpt_left -= 1;
        self.sys.checkpoint();
        if self.sys.mode() != SystemMode::Normal {
            return Applied::Violation(McViolation::Internal {
                detail: "checkpoint degraded a fault-free device".to_string(),
            });
        }
        // The checkpoint image is now the last physical append; tearing it
        // must never lose an acked commit (old XOR new image both fold the
        // same states), so nothing is legally undecided any more.
        self.book.last_flush.clear();
        Applied::Ok
    }

    fn do_crash(&mut self, shape: CrashShape) -> Applied {
        if self.book.crash_left == 0 {
            return Applied::Skip;
        }
        // Tearing applies to the last *commit* flush only (after a
        // checkpoint or a recovery the tail is metadata whose loss must be
        // survivable — but those branches are covered by the clean crash).
        let mut undecided: Vec<usize> = Vec::new();
        match shape {
            CrashShape::Clean | CrashShape::InRecovery(_) => {}
            CrashShape::Torn(n) => {
                if self.book.last_flush.is_empty() || !self.sys.backend_mut().tear_last_flush(n) {
                    return Applied::Skip;
                }
                undecided = self.book.last_flush.clone();
            }
            CrashShape::Reorder => {
                if self.book.last_flush.is_empty() || !self.sys.backend_mut().reorder_last_flush() {
                    return Applied::Skip;
                }
                undecided = self.book.last_flush.clone();
            }
        }
        self.book.crash_left -= 1;
        // Volatile state dies with the power: active and staged
        // transactions are lost; undecided acks may go either way.
        for i in 0..self.cfg.txns {
            match self.book.phase[i] {
                Phase::Active | Phase::Staged => self.book.phase[i] = Phase::Lost,
                _ => {}
            }
        }
        for &i in &undecided {
            self.book.phase[i] = Phase::Undecided;
        }
        self.book.staged.clear();
        self.book.handles = vec![None; self.cfg.txns];
        self.book.last_flush.clear();
        let recovered = match shape {
            CrashShape::InRecovery(d) => {
                crash_recover_interrupted(&mut self.sys, TornPolicy::DiscardTail, d)
                    .map(|_armed| ())
            }
            _ => self.sys.crash_and_recover_with(TornPolicy::DiscardTail),
        };
        if let Err(e) = recovered {
            return Applied::Violation(McViolation::RecoveryRefused { detail: format!("{e:?}") });
        }
        match self.check_after_recovery(&undecided) {
            Some(v) => Applied::Violation(v),
            None => Applied::Ok,
        }
    }

    /// The invariant battery, run after every completed recovery. Resolves
    /// `Undecided` phases to what recovery durably decided.
    fn check_after_recovery(&mut self, undecided: &[usize]) -> Option<McViolation> {
        if self.sys.mode() != SystemMode::Normal {
            return Some(McViolation::RecoveryRefused {
                detail: "system degraded after a fault-free recovery".to_string(),
            });
        }
        // 1. The ledger: every recovered balance decodes to transactions
        //    that may be there, every acknowledged one is, nothing else is.
        let states: Vec<u64> =
            (0..self.cfg.objects).map(|o| self.sys.committed_state(ObjectId(o))).collect();
        let told = |i: usize| match self.book.phase[i] {
            Phase::Committed => Told::Visible,
            Phase::Aborted | Phase::Lost | Phase::Fresh => Told::Invisible,
            Phase::Active | Phase::Staged | Phase::Undecided => Told::Pending,
        };
        if let Err(v) = self.ledger.check(told, &states) {
            return Some(match v {
                LedgerViolation::Stray { place, state } => {
                    McViolation::StrayState { object: place as u32, state }
                }
                LedgerViolation::Lost { txn, .. } => McViolation::DurabilityLost { txn },
                LedgerViolation::Resurrected { txn, .. } => McViolation::Resurrection { txn },
                LedgerViolation::Split(_) => unreachable!("one place per transaction"),
            });
        }
        let present =
            |i: usize, states: &[u64]| Ledger::visible(states, i, self.ledger.places(i)[0]);
        // 2. Torn-batch survivors must be a prefix of the batch.
        if !undecided.is_empty() {
            let survived: Vec<usize> =
                undecided.iter().copied().filter(|&i| present(i, &states)).collect();
            let prefix: Vec<usize> = undecided[..survived.len()].to_vec();
            if survived != prefix {
                return Some(McViolation::NotPrefix { flush: undecided.to_vec(), survived });
            }
            // Resolve: recovery durably decided (the epoch bump fences the
            // discarded tail), so from here the survivors are committed and
            // the rest are gone for good.
            for &i in undecided {
                self.book.phase[i] =
                    if present(i, &states) { Phase::Committed } else { Phase::Lost };
            }
        }
        // 3. The paper's two replay views agree with each other and with
        //    the rebuilt system.
        if let Some(v) = self.check_views(&states) {
            return Some(v);
        }
        // 4. Convergence: PR 5's checked probe — recovery from this image
        //    must converge and durably seal itself (the epoch bump). Run on
        //    a clone so the explored state is untouched.
        let mut probe = self.sys.backend().clone();
        if let Err(e) = probe.check_recovery_convergence(TailPolicy::DiscardTail) {
            return Some(McViolation::NotIdempotent {
                detail: format!("convergence probe refused: {}", e.reason),
            });
        }
        // 5. Idempotence: a second recovery from the same image changes
        //    nothing. Probed on a snapshot so the explored state is intact.
        let snap = self.snapshot();
        let again = self.sys.crash_and_recover_with(TornPolicy::DiscardTail);
        let verdict = match again {
            Err(e) => Some(McViolation::NotIdempotent {
                detail: format!("second recovery refused: {e:?}"),
            }),
            Ok(()) => {
                let reread: Vec<u64> =
                    (0..self.cfg.objects).map(|o| self.sys.committed_state(ObjectId(o))).collect();
                if reread != states {
                    Some(McViolation::NotIdempotent {
                        detail: format!("states {states:?} became {reread:?}"),
                    })
                } else {
                    None
                }
            }
        };
        self.restore(&snap);
        verdict
    }

    /// Recover a clone of the durable image and ask [`views_agree`] about
    /// what it holds: both folds exist, agree, and are what the system
    /// serves.
    fn check_views(&mut self, states: &[u64]) -> Option<McViolation> {
        let mut probe = self.sys.backend().clone();
        probe.crash();
        let log = match probe.recover(TailPolicy::DiscardTail) {
            Ok(log) => log,
            Err(e) => {
                return Some(McViolation::ViewDivergence {
                    detail: format!("view probe scan failed: {e:?}"),
                });
            }
        };
        let mut base: BTreeMap<ObjectId, u64> =
            (0..self.cfg.objects).map(|o| (ObjectId(o), 0u64)).collect();
        if let Some(cp) = &log.checkpoint {
            base.extend(cp.states.iter().copied());
        }
        views_agree(&self.adt, &base, &log.records, |obj| states[obj.0 as usize])
            .err()
            .map(|f| McViolation::ViewDivergence { detail: f.to_string() })
    }

    /// Whether every transaction reached a terminal phase and nothing is
    /// staged — the explorer's terminal-state predicate (crash/checkpoint
    /// budgets may remain; those branches are still enumerated above).
    pub fn all_resolved(&self) -> bool {
        self.book.staged.is_empty()
            && self.book.phase.iter().all(|p| {
                matches!(p, Phase::Committed | Phase::Aborted | Phase::Lost | Phase::Undecided)
            })
    }
}

#[derive(Clone, Copy, Debug)]
enum CrashShape {
    Clean,
    Torn(usize),
    Reorder,
    InRecovery(u64),
}
