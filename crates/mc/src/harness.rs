//! The model-checking harness: one small, fully decodable instance of the
//! real commit/recovery pipeline — a [`ShardedSystem`] fleet of
//! `DurableSystem` shards — plus the invariant battery run after every
//! action.
//!
//! Logical transaction `i` deposits `1 << i` at each of its *places* (an
//! object on a shard). Deposit amounts are distinct powers of two, so each
//! object's committed balance is a *bit-set* of exactly which transactions'
//! effects are present — the durability, resurrection and global-split
//! checks decode it exactly. Deposits commute under the bank's NRBC
//! relation, so no interleaving blocks: state-space size is governed purely
//! by the commit/crash alphabet.
//!
//! The caller places the transactions. One place makes a local transaction
//! on that shard (`c`, staged and flushed under group commit); two or more
//! a global one under presumed-abort 2PC (`p` / `q`). A recovered in-doubt
//! participant stays in doubt while its coordinator lives (it may yet commit
//! from the durable yes-votes) and settles against the coordinator's durable
//! commit set — else presumed abort — once the coordinator crashes. The
//! explorer's placement ([`McConfig::placement`]) picks the instance and its
//! alphabet:
//!
//! * **one shard** — the single system: `cfg.objects` objects, transaction
//!   `i` on object `i mod objects`, alphabet `b a c f k x t r d`;
//! * **two or more** — all-cross-shard: object `s` lives on shard `s`,
//!   transaction `i` deposits on every shard's object, alphabet
//!   `b a p q s z`. `h` and `u` (phase two cut short, a shard crash inside
//!   its own recovery) replay but are not enumerated.
//!
//! The battery is written once: the ledger after every action that takes
//! effect, and after any action that recovered shards, on each of them the
//! recovery legs — batch prefix (after a torn flush), replay-view agreement,
//! the convergence probe and idempotence.

use std::fmt;
use std::str::FromStr;

use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv, BankResp};
use ccr_core::adt::Op;
use ccr_core::conflict::FnConflict;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_runtime::crash::{DurableSystem, SystemMode, TornPolicy};
use ccr_runtime::engine::UipEngine;
use ccr_runtime::fault::{crash_recover_interrupted, probe_recovery_ops};
use ccr_runtime::oracle::{views_agree, Ledger, LedgerViolation, Told};
use ccr_runtime::shard::{ShardedSnapshot, ShardedSystem};
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
    /// On abort, covertly append the aborted transaction's deposit to the
    /// journal of its first participant as if it had committed. Violates
    /// no-resurrection (global uniform outcome on a fleet).
    ResurrectAborted,
    /// Skip the WAL epoch bump (disk only): stale pre-truncation frames can
    /// be replayed as if current. Violates idempotence / view agreement.
    SkipEpochBump,
    /// Fleets only: the coordinator's first commit-decision record silently
    /// evaporates after one participant was already told to commit, and the
    /// coordinator dies mid-phase-two — settlement presumes abort on the
    /// stragglers. Violates global uniform outcome (the eighth oracle leg).
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
    /// Objects of the one-shard instance (transaction `i` touches object
    /// `i mod objects`).
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
    /// Shards in the fleet (1..=8), each with one object per shard when
    /// two or more. Under the explorer's placement every transaction is then
    /// cross-shard, so `objects`, `group_commit`, `ckpt_budget` and
    /// `max_tears` have no action to drive.
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

impl McConfig {
    /// The place of a fleet shard's home object: object `s`, which the
    /// fleet routes to shard `s`.
    pub fn home(&self, s: usize) -> usize {
        s
    }

    /// The explorer's placement: transaction `i` on object `i mod objects`
    /// of the one shard, or on every home object of a fleet.
    pub fn placement(&self) -> Vec<Vec<usize>> {
        let place = |i: usize| match self.shards {
            1 => vec![i % self.objects as usize],
            n => (0..n).map(|s| self.home(s)).collect(),
        };
        (0..self.txns).map(place).collect()
    }

    /// Refuse an instance the harness cannot enumerate, or a negative
    /// control outside the alphabet that reaches its sabotage.
    pub fn validate(&self) -> Result<(), String> {
        let fleet = self.shards >= 2;
        let is = |m: Mutation| self.mutation == Some(m);
        let refusal = if self.txns == 0 || self.txns > 6 {
            "--txns must be in 1..=6 (amounts are distinct powers of two)"
        } else if self.objects == 0 {
            "--objects must be at least 1"
        } else if self.shards == 0 || self.shards > 8 {
            "--shards must be in 1..=8 (keep the crash-subset alphabet enumerable)"
        } else if fleet && self.group_commit {
            "--group-commit needs --shards 1 (the explored fleet has no local txn to batch)"
        } else if fleet
            && (is(Mutation::DropAckedCommit)
                || is(Mutation::ReorderLastBatch)
                || is(Mutation::SkipEpochBump))
        {
            "--mutate drop-acked-commit|reorder-last-batch|skip-epoch-bump are one-shard \
             controls (they need --shards 1)"
        } else if is(Mutation::SkipEpochBump) && self.backend != McBackendKind::Disk {
            "--mutate skip-epoch-bump requires --backend disk (epochs live in the WAL)"
        } else if is(Mutation::ReorderLastBatch) && !self.group_commit {
            "--mutate reorder-last-batch requires --group-commit (it targets the batch flush)"
        } else if is(Mutation::LoseDecision) && !fleet {
            "--mutate lose-decision requires --shards >= 2 (it sabotages the 2PC coordinator)"
        } else {
            return Ok(());
        };
        Err(refusal.to_string())
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
    /// Fleets: a global transaction's outcome is not uniform across its
    /// participants — committed on some shards, aborted on others (the
    /// eighth oracle leg, global dynamic atomicity).
    GlobalSplit {
        /// The logical transaction with the mixed outcome.
        txn: usize,
        /// Shards where its deposit is visible.
        committed_on: Vec<usize>,
        /// Shards where it is not.
        aborted_on: Vec<usize>,
    },
    /// The offline WAL inspector's reading of a shard's image disagrees
    /// with a real recovery scan (the sharded simulator's last leg).
    InspectorDisagreement {
        /// The shard whose log was inspected.
        shard: usize,
        /// The first field-level disagreement.
        detail: String,
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
            McViolation::InspectorDisagreement { .. } => "inspector-disagreement",
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
            McViolation::InspectorDisagreement { shard, detail } => {
                write!(f, "inspector disagrees with recovery on shard {shard}: {detail}")
            }
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
}

impl McBackend for WalBackend<BankAccount> {
    fn fresh() -> Self {
        WalBackend::new(WalConfig::default())
    }

    fn sabotage_skip_epoch_bump(&mut self) -> bool {
        self.set_skip_epoch_bump(true);
        true
    }
}

/// Where each logical transaction stands, from the *client's* point of view
/// (acks received, aborts issued) — the reference the invariants compare
/// recovered physical state against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not begun.
    Fresh,
    /// Begun, deposits executed, volatile.
    Active,
    /// Group mode: volatile-committed intent, awaiting the batch flush.
    Staged,
    /// Every participant holds a durable PREPARE; awaiting the decision.
    Prepared,
    /// Commit acknowledged — must be durable (everywhere) from now on.
    Committed,
    /// Aborted (explicitly or presumed) — must never be durable.
    Aborted,
    /// Was volatile (active/staged, or unprepared somewhere) when a crash
    /// hit — must not be durable.
    Lost,
    /// Was acknowledged, but the acknowledging flush was torn/reordered by
    /// the crash: legally present or absent, subject to the batch-prefix
    /// rule. Resolved to `Committed`/`Lost` by the first recovery check.
    Undecided,
}

type Fleet<B> = ShardedSystem<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>;

/// The cloneable bookkeeping half of a harness snapshot.
#[derive(Clone)]
struct Book {
    phase: Vec<Phase>,
    /// Local transactions' handles (volatile, so not part of the state key).
    handles: Vec<Option<TxnId>>,
    /// Global transactions' ids.
    gtids: Vec<Option<u64>>,
    staged: Vec<usize>,
    acked: Vec<usize>,
    /// Transactions acknowledged by the most recent *physical* append, in
    /// commit order — the candidates a torn/reordered crash may legally
    /// lose (as a suffix). After such a crash, the flush the battery judges.
    last_flush: Vec<usize>,
    crash_left: u32,
    ckpt_left: u32,
    mutated: bool,
}

/// A full harness snapshot (fleet + bookkeeping), restorable any number of
/// times — the explorer's fork point.
pub struct HarnessSnapshot<B: McBackend> {
    sys: ShardedSnapshot<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>,
    book: Book,
}

/// One instance under test: the real fleet plus the client-side ledger the
/// invariants check against.
pub struct Harness<B: McBackend> {
    cfg: McConfig,
    adt: BankAccount,
    sys: Fleet<B>,
    /// The fleet's objects: place `p` is object `p`, held by shard
    /// `p mod shards`.
    objects: usize,
    ledger: Ledger,
    book: Book,
}

impl<B: McBackend> Harness<B> {
    /// Build a fresh instance per `cfg` with transaction `i` at `places[i]`
    /// (applying construction-time mutations such as
    /// [`Mutation::SkipEpochBump`]). Place `p` is object `p`: one shard
    /// holds `cfg.objects` objects; a fleet has one object per shard and
    /// routes object `o` to shard `o mod shards`, so its places are home
    /// objects ([`McConfig::home`]).
    pub fn new(cfg: McConfig, places: Vec<Vec<usize>>) -> Self {
        assert_eq!(places.len(), cfg.txns, "one place list per transaction");
        let n = cfg.shards;
        let objects = if n == 1 { cfg.objects as usize } else { n };
        let adt = BankAccount::default();
        let sys = ShardedSystem::new_with(n, |_| {
            let mut backend = B::fresh();
            if cfg.mutation == Some(Mutation::SkipEpochBump) {
                backend.sabotage_skip_epoch_bump();
            }
            DurableSystem::with_backend(adt.clone(), objects as u32, bank_nrbc(), backend)
        });
        Harness {
            cfg,
            adt,
            sys,
            objects,
            ledger: Ledger::new(places),
            book: Book {
                phase: vec![Phase::Fresh; cfg.txns],
                handles: vec![None; cfg.txns],
                gtids: vec![None; cfg.txns],
                staged: Vec::new(),
                acked: Vec::new(),
                last_flush: Vec::new(),
                crash_left: cfg.crash_budget,
                ckpt_left: if n == 1 { cfg.ckpt_budget } else { 0 },
                mutated: false,
            },
        }
    }

    fn is_fleet(&self) -> bool {
        self.cfg.shards >= 2
    }

    fn shard_mask(&self) -> u32 {
        (1u32 << self.cfg.shards) - 1
    }

    /// The shard of transaction `i`'s first place.
    fn home_shard(&self, i: usize) -> usize {
        self.ledger.places(i)[0] % self.cfg.shards
    }

    /// Whether transaction `i`'s client was told it committed.
    pub fn committed(&self, i: usize) -> bool {
        self.book.phase[i] == Phase::Committed
    }

    /// The transactions staged for the next flush, in commit order.
    pub fn staged(&self) -> &[usize] {
        &self.book.staged
    }

    /// The fleet under test.
    pub fn fleet(&self) -> &Fleet<B> {
        &self.sys
    }

    /// Snapshot fleet + bookkeeping.
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
    /// is the full state (phases, ledgers, gtids, budgets, the coordinator's
    /// durable set and allocator, and every shard's doubt list, counters and
    /// physical image fingerprint), not a lossy hash of it.
    pub fn canonical_key(&mut self) -> Vec<u8> {
        let book = &self.book;
        let mut k = Vec::with_capacity(128);
        k.extend(book.phase.iter().map(|&p| p as u8));
        k.push(0xfe);
        for list in [&book.staged, &book.acked, &book.last_flush] {
            k.extend((list.len() as u32).to_le_bytes());
            k.extend(list.iter().map(|&i| i as u8));
        }
        for g in &book.gtids {
            k.extend(g.unwrap_or(0).to_le_bytes());
        }
        k.extend(book.crash_left.to_le_bytes());
        k.extend(book.ckpt_left.to_le_bytes());
        k.push(book.mutated as u8);
        let durable: Vec<u64> = self.sys.coordinator().committed().collect();
        k.extend((durable.len() as u32).to_le_bytes());
        k.extend(durable.iter().flat_map(|g| g.to_le_bytes()));
        k.extend(self.sys.next_gtid().to_le_bytes());
        for s in 0..self.cfg.shards {
            let sh = self.sys.shard_mut(s);
            let doubt = sh.in_doubt();
            k.extend((doubt.len() as u32).to_le_bytes());
            k.extend(doubt.iter().flat_map(|g| g.to_le_bytes()));
            k.push(match sh.mode() {
                SystemMode::Normal => 0,
                SystemMode::Degraded => 1,
            });
            k.extend(sh.journal().base_records().to_le_bytes());
            k.extend(sh.journal().since_base().to_le_bytes());
            k.extend(sh.system().next_txn_id().to_le_bytes());
            k.extend(sh.exec_seq().to_le_bytes());
            k.extend(sh.backend().image_fingerprint().to_le_bytes());
            for p in (s..self.objects).step_by(self.cfg.shards) {
                k.extend(sh.committed_state(ObjectId(p as u32)).to_le_bytes());
            }
        }
        k
    }

    /// The actions enabled in the current state, in deterministic order.
    /// (Some listed actions may still [`Applied::Skip`] on application —
    /// e.g. a tear the image cannot express; listing is conservative.)
    pub fn enabled_actions(&mut self) -> Vec<McAction> {
        let fleet = self.is_fleet();
        let Book { phase: phases, gtids, .. } = &self.book;
        let mut out: Vec<McAction> = (0..self.cfg.txns)
            .filter(|&i| phases[i] == Phase::Fresh)
            .map(McAction::Begin)
            .collect();
        for (i, phase) in phases.iter().enumerate() {
            match phase {
                Phase::Active if gtids[i].is_some() => {
                    out.extend([McAction::Prepare(i), McAction::Abort(i)])
                }
                Phase::Active => out.extend([McAction::Commit(i), McAction::Abort(i)]),
                Phase::Prepared => out.extend([McAction::DecideCommit(i), McAction::Abort(i)]),
                _ => {}
            }
        }
        if self.cfg.group_commit && !self.book.staged.is_empty() {
            out.push(McAction::Flush);
        }
        if self.book.ckpt_left > 0 && self.sys.shard(0).journal().since_base() > 0 {
            out.push(McAction::Checkpoint);
        }
        if self.book.crash_left == 0 {
            return out;
        }
        if fleet {
            out.extend((1..=self.shard_mask()).map(McAction::CrashShards));
            out.push(McAction::CrashCoordinator);
            return out;
        }
        out.push(McAction::CrashClean);
        if !self.book.last_flush.is_empty() {
            out.extend((1..=self.cfg.max_tears).map(McAction::CrashTorn));
            out.push(McAction::CrashReorder);
        }
        let sys = self.sys.shard_mut(0);
        if sys.backend().device().is_some() {
            if let Some(n) = probe_recovery_ops(sys, TornPolicy::DiscardTail) {
                out.extend((0..n).map(McAction::CrashInRecovery));
            }
        }
        out
    }

    /// Apply one action (with mutation sabotage where configured), then run
    /// the invariant battery if it took effect. A token of the other shard
    /// count's alphabet is a dead branch, not an error — a shrunk trace
    /// pasted under the wrong `--shards` must not panic.
    pub fn apply(&mut self, action: McAction) -> Applied {
        let fleet = self.is_fleet();
        let (applied, recovered) = match action {
            McAction::Begin(i) => (self.do_begin(i), 0),
            McAction::Abort(i) => (self.do_abort(i), 0),
            McAction::Commit(i) => (self.do_commit(i), 0),
            McAction::Flush => (self.do_flush(), 0),
            McAction::Checkpoint => (self.do_checkpoint(), 0),
            McAction::CrashClean if !fleet => (self.do_crash(CrashShape::Clean), 1),
            McAction::CrashTorn(n) if !fleet => (self.do_crash(CrashShape::Torn(n)), 1),
            McAction::CrashReorder if !fleet => (self.do_crash(CrashShape::Reorder), 1),
            McAction::CrashInRecovery(d) if !fleet => (self.do_crash(CrashShape::InRecovery(d)), 1),
            McAction::Prepare(i) => (self.do_prepare(i), 0),
            McAction::DecideCommit(i) => self.do_decide(i, false),
            McAction::CrashShards(mask) if fleet => {
                (self.do_crash_shards(mask), mask & self.shard_mask())
            }
            McAction::CrashCoordinator if fleet => (self.do_crash_coordinator(), 0),
            McAction::CutPhaseTwo(i) if fleet => self.do_decide(i, true),
            McAction::CrashShardInRecovery(s, n) if fleet && s < self.cfg.shards => {
                (self.do_crash_shard_in_recovery(s, n), 1 << s)
            }
            _ => (Applied::Skip, 0),
        };
        match applied {
            Applied::Ok => match self.check(recovered) {
                Some(v) => Applied::Violation(v),
                None => Applied::Ok,
            },
            other => other,
        }
    }

    fn do_begin(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != Phase::Fresh {
            return Applied::Skip;
        }
        let n = self.cfg.shards;
        if self.ledger.places(i).len() == 1 {
            self.book.handles[i] = Some(self.sys.shard_mut(self.home_shard(i)).begin());
        } else {
            self.book.gtids[i] = Some(self.sys.begin_global());
        }
        for &p in self.ledger.places(i) {
            let obj = ObjectId(p as u32);
            let inv = BankInv::Deposit(Ledger::amount(i));
            let resp = match (self.book.gtids[i], self.book.handles[i]) {
                (Some(g), _) => self.sys.invoke_global(g, obj, inv),
                (None, t) => self.sys.shard_mut(p % n).invoke(t.expect("local handle"), obj, inv),
            };
            match resp {
                Ok(resp) => debug_assert_eq!(resp, BankResp::Ok),
                Err(e) => {
                    return Applied::Violation(McViolation::Internal {
                        detail: format!("deposit of txn {i} at place {p} refused: {e:?}"),
                    });
                }
            }
        }
        self.book.phase[i] = Phase::Active;
        Applied::Ok
    }

    fn do_commit(&mut self, i: usize) -> Applied {
        let local = i < self.cfg.txns && self.book.gtids[i].is_none();
        if !local || self.book.phase[i] != Phase::Active {
            return Applied::Skip;
        }
        if self.cfg.group_commit {
            self.book.phase[i] = Phase::Staged;
            self.book.staged.push(i);
            return Applied::Ok;
        }
        let t = self.book.handles[i].expect("active txn has a handle");
        let sys = self.sys.shard_mut(self.home_shard(i));
        if let Err(e) = sys.commit(t) {
            return Applied::Violation(McViolation::Internal {
                detail: format!("commit of txn {i} refused: {e:?}"),
            });
        }
        self.book.phase[i] = Phase::Committed;
        self.book.acked.push(i);
        self.book.last_flush = vec![i];
        if self.cfg.mutation == Some(Mutation::DropAckedCommit) && !self.book.mutated {
            // Sabotage: the ack stands, the bytes don't.
            self.book.mutated = sys.backend_mut().tear_last_flush(1);
        }
        Applied::Ok
    }

    fn do_abort(&mut self, i: usize) -> Applied {
        let open = |p: &Phase| matches!(p, Phase::Active | Phase::Staged | Phase::Prepared);
        if i >= self.cfg.txns || !open(&self.book.phase[i]) {
            return Applied::Skip;
        }
        // A global transaction aborts locally where unprepared and journals
        // a durable abort decision where prepared — nothing at the
        // coordinator, per presumed abort.
        match (self.book.gtids[i], self.book.handles[i]) {
            (Some(g), _) => self.sys.abort_global(g),
            (None, t) => {
                let sys = self.sys.shard_mut(self.home_shard(i));
                if let Err(e) = sys.abort(t.expect("open txn has a handle")) {
                    return Applied::Violation(McViolation::Internal {
                        detail: format!("abort of txn {i} refused: {e:?}"),
                    });
                }
            }
        }
        self.book.staged.retain(|&j| j != i);
        self.book.phase[i] = Phase::Aborted;
        if self.cfg.mutation == Some(Mutation::ResurrectAborted) && !self.book.mutated {
            // Sabotage: forge a commit record for the aborted transaction on
            // its first participant.
            let p = self.ledger.places(i)[0];
            let sys = self.sys.shard_mut(p % self.cfg.shards);
            let op = Op::new(BankInv::Deposit(Ledger::amount(i)), BankResp::Ok);
            let obj = ObjectId(p as u32);
            let rec = CommitRecord {
                floor: sys.system().next_txn_id(),
                ops: vec![(1_000 + i as u64, obj, op)],
            };
            self.book.mutated = sys.backend_mut().append_commit(&rec).is_ok();
        }
        Applied::Ok
    }

    fn do_flush(&mut self) -> Applied {
        if !self.cfg.group_commit || self.book.staged.is_empty() {
            return Applied::Skip;
        }
        let staged = std::mem::take(&mut self.book.staged);
        for s in 0..self.cfg.shards {
            let batch: Vec<usize> =
                staged.iter().copied().filter(|&i| self.home_shard(i) == s).collect();
            if batch.is_empty() {
                continue;
            }
            let handles: Vec<_> = batch
                .iter()
                .map(|&i| self.book.handles[i].expect("staged txn has a handle"))
                .collect();
            let sys = self.sys.shard_mut(s);
            for (&i, r) in batch.iter().zip(sys.commit_group(&handles)) {
                if let Err(e) = r {
                    return Applied::Violation(McViolation::Internal {
                        detail: format!("group commit of txn {i} refused: {e:?}"),
                    });
                }
                self.book.phase[i] = Phase::Committed;
                self.book.acked.push(i);
            }
            if self.cfg.mutation == Some(Mutation::ReorderLastBatch) && !self.book.mutated {
                // Sabotage: the batch ack stands; its first sector doesn't.
                self.book.mutated = sys.backend_mut().reorder_last_flush();
            }
        }
        self.book.last_flush = staged;
        Applied::Ok
    }

    fn do_checkpoint(&mut self) -> Applied {
        let sys = self.sys.shard_mut(0);
        if self.book.ckpt_left == 0 || sys.journal().since_base() == 0 {
            return Applied::Skip;
        }
        self.book.ckpt_left -= 1;
        sys.checkpoint();
        if sys.mode() != SystemMode::Normal {
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

    /// Volatile state dies with the power: every active or staged
    /// transaction with a place on a shard in `crashed` is lost, with its
    /// local handle — and, if the `coordinator` crashed, every global one
    /// not yet prepared.
    fn lose_volatile(&mut self, crashed: u32, coordinator: bool) {
        let n = self.cfg.shards;
        for i in 0..self.cfg.txns {
            let hit = (coordinator && self.book.gtids[i].is_some())
                || self.ledger.places(i).iter().any(|&p| crashed >> (p % n) & 1 == 1);
            if hit && matches!(self.book.phase[i], Phase::Active | Phase::Staged) {
                self.book.phase[i] = Phase::Lost;
                self.book.handles[i] = None;
            }
        }
        let phase = &self.book.phase;
        self.book.staged.retain(|&i| phase[i] == Phase::Staged);
    }

    fn do_crash(&mut self, shape: CrashShape) -> Applied {
        if self.book.crash_left == 0 {
            return Applied::Skip;
        }
        // Tearing applies to the last *commit* flush only (after a
        // checkpoint or a recovery the tail is metadata whose loss must be
        // survivable — but those branches are covered by the clean crash).
        let flush = !self.book.last_flush.is_empty();
        let backend = self.sys.shard_mut(0).backend_mut();
        let torn = match shape {
            CrashShape::Clean | CrashShape::InRecovery(_) => false,
            CrashShape::Torn(n) if flush && backend.tear_last_flush(n) => true,
            CrashShape::Reorder if flush && backend.reorder_last_flush() => true,
            CrashShape::Torn(_) | CrashShape::Reorder => return Applied::Skip,
        };
        self.book.crash_left -= 1;
        // Undecided acks may go either way; the battery judges the torn
        // flush, still in `last_flush`, and clears it.
        self.lose_volatile(1, false);
        if torn {
            for &i in &self.book.last_flush {
                self.book.phase[i] = Phase::Undecided;
            }
        } else {
            self.book.last_flush.clear();
        }
        let sys = self.sys.shard_mut(0);
        let recovered = match shape {
            CrashShape::InRecovery(d) => {
                crash_recover_interrupted(sys, TornPolicy::DiscardTail, d).map(|_armed| ())
            }
            _ => sys.crash_and_recover_with(TornPolicy::DiscardTail),
        };
        match recovered {
            Ok(()) => Applied::Ok,
            Err(e) => Applied::Violation(McViolation::RecoveryRefused { detail: format!("{e:?}") }),
        }
    }

    fn gtid_of(&self, i: usize) -> u64 {
        self.book.gtids[i].expect("begun txn has a gtid")
    }

    fn do_prepare(&mut self, i: usize) -> Applied {
        let global = i < self.cfg.txns && self.book.gtids[i].is_some();
        if !global || self.book.phase[i] != Phase::Active {
            return Applied::Skip;
        }
        match self.sys.prepare_all(self.gtid_of(i)) {
            Ok(()) => {
                self.book.phase[i] = Phase::Prepared;
                Applied::Ok
            }
            // No shard is degraded and no device is faulted in the explored
            // instance: a no-vote here is a harness/runtime bug.
            Err(e) => Applied::Violation(McViolation::Internal {
                detail: format!("prepare of gtxn {i} no-voted on a fault-free fleet: {e:?}"),
            }),
        }
    }

    /// `q{i}` records commit for the prepared global transaction `i` and
    /// tells every participant; `h{i}` (`cut`) tells only the first, then
    /// every other participant and the coordinator lose power and the fleet
    /// settles. Returns the shards a crash recovered.
    fn do_decide(&mut self, i: usize, cut: bool) -> (Applied, u32) {
        if i >= self.cfg.txns || self.book.phase[i] != Phase::Prepared {
            return (Applied::Skip, 0);
        }
        let gtid = self.gtid_of(i);
        let parts = self.sys.participants(gtid);
        let first = parts.first().expect("a prepared global transaction");
        if cut && (self.book.crash_left == 0 || parts.len() < 2) {
            return (Applied::Skip, 0);
        }
        self.book.phase[i] = Phase::Committed;
        if self.cfg.mutation == Some(Mutation::LoseDecision) && !self.book.mutated {
            // Sabotage: the decision record never lands (no
            // `decide_commit`), one participant is told to commit on the
            // coordinator's volatile word, and the coordinator dies before
            // reaching the rest — settlement then presumes abort on the
            // stragglers. The textbook mixed outcome.
            self.book.mutated = true;
            let _ = self.sys.resolve_participant(gtid, first, true);
            self.coordinator_crash_fallout();
            return (Applied::Ok, 0);
        }
        self.sys.decide_commit(gtid);
        for s in parts.into_iter().take(if cut { 1 } else { parts.len() }) {
            if let Err(e) = self.sys.resolve_participant(gtid, s, true) {
                let detail = format!("decided commit of gtxn {i} refused on shard {s}: {e:?}");
                return (Applied::Violation(McViolation::Internal { detail }), 0);
            }
        }
        if !cut {
            return (Applied::Ok, 0);
        }
        let rest = parts.mask() & !(1 << first);
        let crashed = self.do_crash_shards(rest);
        if crashed == Applied::Ok {
            self.coordinator_crash_fallout();
        }
        (crashed, rest)
    }

    fn do_crash_shards(&mut self, mask: u32) -> Applied {
        let mask = mask & self.shard_mask();
        if self.book.crash_left == 0 || mask == 0 {
            return Applied::Skip;
        }
        self.book.crash_left -= 1;
        if let Err(e) = self.sys.crash_subset(mask) {
            return Applied::Violation(McViolation::RecoveryRefused { detail: format!("{e:?}") });
        }
        // An active global transaction with a place on a crashed shard held
        // an unprepared half there: it aborted globally inside
        // `crash_subset`. Fully prepared transactions stay live — their
        // doubt is durable, and the coordinator (still running) may yet
        // decide either way. No flush was torn.
        self.lose_volatile(mask, false);
        self.book.last_flush.clear();
        Applied::Ok
    }

    /// `u{s}.{n}`: shard `s` crashes as under `s{1 << s}` — the fleet learns
    /// which volatile halves died —, then loses power again with its
    /// recovery interrupted after `n` device operations.
    fn do_crash_shard_in_recovery(&mut self, s: usize, n: u64) -> Applied {
        let crashed = self.do_crash_shards(1 << s);
        if crashed != Applied::Ok {
            return crashed;
        }
        match crash_recover_interrupted(self.sys.shard_mut(s), TornPolicy::DiscardTail, n) {
            Ok(_armed) => Applied::Ok,
            Err(e) => Applied::Violation(McViolation::RecoveryRefused { detail: format!("{e:?}") }),
        }
    }

    fn do_crash_coordinator(&mut self) -> Applied {
        if self.book.crash_left == 0 {
            return Applied::Skip;
        }
        self.book.crash_left -= 1;
        self.coordinator_crash_fallout();
        Applied::Ok
    }

    /// Crash the coordinator and settle the fleet from durable truth:
    /// unprepared halves abort locally, in-doubt prepares resolve against
    /// the durable commit set (presumed abort otherwise).
    fn coordinator_crash_fallout(&mut self) {
        self.sys.crash_coordinator();
        self.sys.resolve_in_doubt();
        self.lose_volatile(0, true);
        for i in 0..self.cfg.txns {
            if self.book.phase[i] == Phase::Prepared {
                self.book.phase[i] = if self.sys.coordinator().decision(self.gtid_of(i)) {
                    Phase::Committed
                } else {
                    Phase::Aborted
                };
            }
        }
    }

    /// Every place's committed state, in place order.
    pub fn states(&mut self) -> Vec<u64> {
        let n = self.cfg.shards;
        (0..self.objects)
            .map(|p| self.sys.shard_mut(p % n).committed_state(ObjectId(p as u32)))
            .collect()
    }

    /// The invariant battery, run after every action that took effect: the
    /// ledger over every object of every shard, then — on each shard in
    /// `recovered` — the recovery legs. Transactions still in doubt
    /// somewhere are pending (their visibility is legitimately nowhere yet)
    /// and are re-checked once settled; `Undecided` ones are resolved to
    /// what recovery durably decided.
    fn check(&mut self, recovered: u32) -> Option<McViolation> {
        let shards: Vec<usize> =
            (0..self.cfg.shards).filter(|s| recovered & (1 << s) != 0).collect();
        if shards.iter().any(|&s| self.sys.shard(s).mode() != SystemMode::Normal) {
            return Some(McViolation::RecoveryRefused {
                detail: "system degraded after a fault-free recovery".to_string(),
            });
        }
        let states = self.states();
        let pending = self.sys.in_doubt();
        let book = &self.book;
        let told = |i: usize| match book.phase[i] {
            _ if book.gtids[i].is_some_and(|g| pending.contains(&g)) => Told::Pending,
            Phase::Committed => Told::Visible,
            Phase::Undecided => Told::Pending,
            _ => Told::Invisible,
        };
        let n = self.cfg.shards;
        if let Err(v) = self.ledger.check(told, &states) {
            return Some(match v {
                LedgerViolation::Stray { place, state } => {
                    McViolation::StrayState { object: place as u32, state }
                }
                LedgerViolation::Split(v) => McViolation::GlobalSplit {
                    txn: v.gtid as usize,
                    committed_on: v.committed_on.iter().map(|p| p % n).collect(),
                    aborted_on: v.aborted_on.iter().map(|p| p % n).collect(),
                },
                LedgerViolation::Lost { txn, .. } => McViolation::DurabilityLost { txn },
                LedgerViolation::Resurrected { txn, .. } => McViolation::Resurrection { txn },
            });
        }
        if shards.is_empty() {
            return None;
        }
        // Torn-flush survivors must be a prefix of the batch. Recovery
        // durably decided (the epoch bump fences the discarded tail), so
        // from here the survivors are committed and the rest are gone.
        let torn: Vec<usize> = std::mem::take(&mut self.book.last_flush);
        if !torn.is_empty() {
            let present = |i: usize| Ledger::visible(&states, i, self.ledger.places(i)[0]);
            let survived: Vec<usize> = torn.iter().copied().filter(|&i| present(i)).collect();
            if survived[..] != torn[..survived.len()] {
                return Some(McViolation::NotPrefix { flush: torn, survived });
            }
            for &i in &torn {
                self.book.phase[i] = if present(i) { Phase::Committed } else { Phase::Lost };
            }
        }
        shards.into_iter().find_map(|s| self.check_recovered(s, &states))
    }

    /// The recovery legs on shard `s`, over the objects it holds (`states`
    /// is every place's): the paper's two replay views agree with each
    /// other and with what the shard serves, recovery from its image
    /// converges, and recovering again changes nothing. Every probe runs on
    /// a clone or is rewound.
    fn check_recovered(&mut self, s: usize, states: &[u64]) -> Option<McViolation> {
        let held: Vec<ObjectId> =
            (s..self.objects).step_by(self.cfg.shards).map(|p| ObjectId(p as u32)).collect();
        let sys = self.sys.shard_mut(s);
        let log = match sys.backend().read_log() {
            Ok(log) => log,
            Err(e) => {
                return Some(McViolation::ViewDivergence {
                    detail: format!("view probe scan failed: {e:?}"),
                });
            }
        };
        let served = |obj: ObjectId| states[obj.0 as usize];
        if let Err(f) = views_agree(&self.adt, &log, held.iter().copied(), served) {
            return Some(McViolation::ViewDivergence { detail: f.to_string() });
        }
        let mut probe = sys.backend().clone();
        if let Err(e) = probe.check_recovery_convergence(TailPolicy::DiscardTail) {
            return Some(McViolation::NotIdempotent {
                detail: format!("convergence probe refused: {}", e.reason),
            });
        }
        let snap = sys.snapshot();
        let verdict = match sys.crash_and_recover_with(TornPolicy::DiscardTail) {
            Err(e) => Some(format!("second recovery refused: {e:?}")),
            Ok(()) => {
                let before: Vec<u64> = held.iter().map(|&o| served(o)).collect();
                let reread: Vec<u64> = held.iter().map(|&o| sys.committed_state(o)).collect();
                (reread != before).then(|| format!("states {before:?} became {reread:?}"))
            }
        };
        sys.restore(&snap);
        verdict.map(|detail| McViolation::NotIdempotent { detail })
    }
}

#[derive(Clone, Copy, Debug)]
enum CrashShape {
    Clean,
    Torn(usize),
    Reorder,
    InRecovery(u64),
}

#[cfg(test)]
mod tests {
    use ccr_adt::bank::BankAccount;
    use ccr_runtime::oracle::Ledger;
    use ccr_store::MemBackend;

    use super::{Applied, Harness, McViolation};
    use crate::explorer::run_trace;
    use crate::harness::{McBackendKind, McConfig};

    /// A three-shard mem fleet with transaction `i` on the shards
    /// `parts[i]`, driven through `trace`.
    fn walked(parts: &[&[usize]], trace: &str) -> Harness<MemBackend<BankAccount>> {
        let cfg = McConfig {
            txns: parts.len(),
            shards: 3,
            backend: McBackendKind::Mem,
            ..McConfig::default()
        };
        let places = parts.iter().map(|p| p.iter().map(|&s| cfg.home(s)).collect()).collect();
        let mut h = Harness::new(cfg, places);
        for token in trace.split_whitespace() {
            assert_eq!(h.apply(token.parse().unwrap()), Applied::Ok, "{token}");
        }
        h
    }

    /// ROADMAP item 7: a fleet crash aborts a global transaction that left
    /// no durable trace, the allocator restarts below its gtid by design,
    /// and the next global transaction is issued the same id. The eighth leg
    /// judges each against its own participants.
    #[test]
    fn a_reissued_gtid_names_two_transactions_in_the_book() {
        let mut h = walked(&[&[0, 1, 2], &[0, 1]], "b0 s7 z b1 p1 q1");
        assert_eq!(h.book.gtids[0], h.book.gtids[1], "the crash must reissue the gtid");
        assert!(!h.committed(0) && h.committed(1));
        // The leg still fires on a real split of the successor: a book that
        // says it had a third participant, where its effects never went.
        let home = |s: usize| h.cfg.home(s);
        h.ledger = Ledger::new(vec![vec![home(0), home(1), home(2)]; 2]);
        assert_eq!(h.check(0).map(|v| v.kind()), Some("global-split"));
    }

    #[test]
    fn a_bit_on_a_shard_that_never_took_part_is_stray() {
        let mut h = walked(&[&[0, 1, 2]], "b0 p0 q0");
        // Had routing never sent it to shard 2, the bit there is nobody's.
        h.ledger = Ledger::new(vec![vec![h.cfg.home(0), h.cfg.home(1)]]);
        assert_eq!(h.check(0), Some(McViolation::StrayState { object: 2, state: 1 }));
    }

    /// A token of the other shard count's alphabet is a dead branch, not a
    /// panic: a shrunk trace pasted under the wrong `--shards` degrades
    /// gracefully.
    #[test]
    fn foreign_tokens_are_dead_branches() {
        let single = McConfig::default();
        assert!(run_trace(single, &"b0 p0 q0 s3 z c0 x".parse().unwrap()).is_none());
        let fleet = McConfig { shards: 2, ..single };
        assert!(run_trace(fleet, &"b0 c0 f k x t1 r d0 p0 q0 s1".parse().unwrap()).is_none());
    }
}
