//! Sharded fault-simulation driver: a fleet of durable shards under
//! presumed-abort 2PC — the driver [`crate::sim::run`] hands a scenario with
//! `shards >= 2` to, so the one sweep and the one shrinker of [`crate::sim`]
//! reach it — and a deterministic 2PC frame-cost bench.
//!
//! The instance is the model checker's fully decodable one: logical
//! transaction `i` deposits `1 << i` into each participant's home object
//! (object `s` lives on shard `s`), so every shard's committed balance is a
//! bit-set of exactly which transactions survived there, and the one
//! [`Ledger`] both ask judges it exactly — stray bits, the **eighth oracle
//! leg** (a bit present on one participant and absent on another is a split,
//! whatever crash subset produced it), durability, no resurrection.
//!
//! Per-transaction shape is drawn deterministically from the scenario seed:
//! about two thirds are cross-shard (2..=n participants), the rest
//! single-shard and driven directly on their home shard — through
//! `commit_group` when the scenario's group-commit knob is on, so batch
//! frames and 2PC frames coexist on the same logs. Fault kinds the sharded
//! mix draws map as: `shards{mask}` crashes that subset (each shard
//! recovering under `DiscardTail`), `twopc{step}` arms a crash at that
//! protocol step for the next cross-shard commit, plain crashes take the
//! whole fleet plus the coordinator down, `abort`/`wound` force-abort;
//! device-latency kinds have no scheduler to bite in this driver and are
//! counted as skipped.
//!
//! Every sharded **disk** run ends by asking the offline WAL inspector to
//! re-classify each shard's final image and cross-checking it field by
//! field against a real recovery scan — prepare/decide frames included —
//! so the forensics tooling can never drift from recovery on 2PC logs.

use std::fmt;

use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv};
use ccr_core::conflict::FnConflict;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_runtime::crash::DurableSystem;
use ccr_runtime::engine::UipEngine;
use ccr_runtime::fault::{FaultKind, FaultSpec};
use ccr_runtime::oracle::{Ledger, LedgerViolation, Told};
use ccr_runtime::{GlobalAtomicityViolation, ShardedSystem, TwoPcStep};
use ccr_store::{inspect_wal, LogBackend, MemBackend, WalBackend, WalConfig};

use crate::sim::{Backend, SimScenario};

type Shard<B> = DurableSystem<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>;
type Fleet<B> = ShardedSystem<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>;

/// Most transactions one sharded scenario can carry: each owns one bit of
/// every participant's balance.
pub(crate) const MAX_TXNS: usize = 60;

/// Outcome counters of one passing sharded run. Deterministic in the
/// scenario — [`ShardReport::to_json`] is byte-identical across reruns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardReport {
    /// Shards in the fleet.
    pub shards: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Transactions acknowledged committed.
    pub committed: u64,
    /// Of those, cross-shard (full presumed-abort 2PC).
    pub cross_committed: u64,
    /// Transactions aborted (faulted, forced, or crash-doomed).
    pub aborted: u64,
    /// Full-fleet crashes (coordinator included).
    pub crashes: u64,
    /// `shards{mask}` subset crashes fired.
    pub crash_subsets: u64,
    /// Cross-shard commits driven through a 2PC-step crash.
    pub twopc_crashes: u64,
    /// Transactions force-aborted by `abort`/`wound` faults.
    pub forced_aborts: u64,
    /// In-doubt participants settled against durable coordinator truth.
    pub resolved_in_doubt: u64,
    /// Commit decisions the driver withheld from the coordinator's log (0
    /// unless the lose-decision control is armed).
    pub lost_decisions: u64,
    /// Fault kinds with nothing to bite in this driver (device latency).
    pub skipped_faults: u64,
    /// Oracle sweeps performed (after every fault, transaction, and the
    /// final fleet-wide crash).
    pub oracle_checks: u64,
    /// FNV-1a over final per-shard states and per-transaction outcomes.
    pub fingerprint: u64,
}

impl ShardReport {
    /// Deterministic JSON rendering: fixed key order, no wall-clock.
    pub fn to_json(&self, scenario: &SimScenario) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str("  \"mode\": \"shard\",\n");
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"txns\": {},\n", scenario.txns));
        out.push_str(&format!("  \"backend\": \"{}\",\n", scenario.backend));
        out.push_str(&format!("  \"group_commit\": {},\n", scenario.cfg.group_commit));
        out.push_str(&format!("  \"twopc_crash\": {},\n", scenario.twopc_crash));
        out.push_str(&format!("  \"committed\": {},\n", self.committed));
        out.push_str(&format!("  \"cross_committed\": {},\n", self.cross_committed));
        out.push_str(&format!("  \"aborted\": {},\n", self.aborted));
        out.push_str(&format!("  \"crashes\": {},\n", self.crashes));
        out.push_str(&format!("  \"crash_subsets\": {},\n", self.crash_subsets));
        out.push_str(&format!("  \"twopc_crashes\": {},\n", self.twopc_crashes));
        out.push_str(&format!("  \"forced_aborts\": {},\n", self.forced_aborts));
        out.push_str(&format!("  \"resolved_in_doubt\": {},\n", self.resolved_in_doubt));
        out.push_str(&format!("  \"lost_decisions\": {},\n", self.lost_decisions));
        out.push_str(&format!("  \"skipped_faults\": {},\n", self.skipped_faults));
        out.push_str(&format!("  \"oracle_checks\": {},\n", self.oracle_checks));
        out.push_str(&format!("  \"fingerprint\": \"0x{:016x}\"\n", self.fingerprint));
        out.push_str("}\n");
        out
    }
}

/// An oracle violation in a sharded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardFailure {
    /// The eighth leg: a global transaction committed on some participants
    /// and aborted on others.
    GlobalSplit(GlobalAtomicityViolation),
    /// An acknowledged commit's effects are missing on a participant.
    DurabilityLost {
        /// The lost transaction's index.
        txn: usize,
        /// The participant shard missing its effects.
        shard: usize,
    },
    /// An aborted (or never-acknowledged) transaction's effects are
    /// visible somewhere.
    Resurrection {
        /// The resurrected transaction's index.
        txn: usize,
        /// The shard showing its effects.
        shard: usize,
    },
    /// A shard's balance holds a bit no participant there could have
    /// deposited.
    StrayState {
        /// The shard.
        shard: usize,
        /// Its home object's undecodable balance.
        state: u64,
    },
    /// The offline WAL inspector's classification of a shard's final image
    /// disagrees with a real recovery scan.
    InspectorDisagreement {
        /// The shard whose log was inspected.
        shard: usize,
        /// The first field-level disagreement.
        error: String,
    },
}

impl ShardFailure {
    /// Stable failure-kind token (the shrinker's preservation key).
    pub fn kind(&self) -> &'static str {
        match self {
            ShardFailure::GlobalSplit(_) => "global-split",
            ShardFailure::DurabilityLost { .. } => "durability-lost",
            ShardFailure::Resurrection { .. } => "resurrection",
            ShardFailure::StrayState { .. } => "stray-state",
            ShardFailure::InspectorDisagreement { .. } => "inspector-disagreement",
        }
    }
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFailure::GlobalSplit(v) => write!(
                f,
                "global atomicity split: gtid {} committed on {:?} but aborted on {:?}",
                v.gtid, v.committed_on, v.aborted_on
            ),
            ShardFailure::DurabilityLost { txn, shard } => {
                write!(f, "durability lost: committed txn {txn} missing on shard {shard}")
            }
            ShardFailure::Resurrection { txn, shard } => {
                write!(f, "resurrection: unacked txn {txn} visible on shard {shard}")
            }
            ShardFailure::StrayState { shard, state } => {
                write!(f, "stray state: shard {shard} recovered to undecodable state {state:#x}")
            }
            ShardFailure::InspectorDisagreement { shard, error } => {
                write!(f, "inspector disagrees with recovery on shard {shard}: {error}")
            }
        }
    }
}

/// Per-transaction lifecycle in the driver's book.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Skipped by the shrinker, never begun.
    Skipped,
    /// Not yet begun.
    Pending,
    /// Begun and invoked, commit not yet attempted.
    Active,
    /// Single-shard, staged for a group-commit flush (not yet acked).
    Staged,
    /// Acknowledged committed.
    Committed,
    /// Aborted, doomed by a crash, or lost unacked.
    Aborted,
}

/// splitmix64: the per-transaction shape hash (participants, home shard).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The participant shards of logical transaction `i` (sorted): about two
/// thirds cross-shard, the rest single-shard. The lose-decision control
/// needs a cross-shard victim, so it forces transaction 0 to span the
/// whole fleet.
fn parts_for(seed: u64, i: usize, nshards: usize, lose_decision: bool) -> Vec<usize> {
    if lose_decision && i == 0 {
        return (0..nshards).collect();
    }
    let h = mix(seed, i as u64);
    if h.is_multiple_of(3) {
        return vec![(h >> 4) as usize % nshards];
    }
    let k = 2 + ((h >> 8) as usize % (nshards - 1));
    let base = (h >> 16) as usize % nshards;
    let mut parts: Vec<usize> = (0..k).map(|j| (base + j) % nshards).collect();
    parts.sort_unstable();
    parts
}

struct Driver<'a, B: LogBackend<BankAccount>> {
    scenario: &'a SimScenario,
    sys: Fleet<B>,
    nshards: usize,
    phase: Vec<Phase>,
    /// Global id of cross-shard transaction `i` (assigned at begin).
    gtid_of: Vec<Option<u64>>,
    /// Local handle of a directly driven single-shard transaction.
    local_of: Vec<Option<(usize, TxnId)>>,
    /// Place `s` is shard `s`'s home object; a transaction's places are
    /// its participant shards.
    ledger: Ledger,
    /// Per-shard group-commit staging: (local txn, logical index).
    pending_batch: Vec<Vec<(TxnId, usize)>>,
    /// One-shot 2PC crash step armed by a `twopc{step}` fault.
    pending_step: Option<u32>,
    faults: Vec<FaultSpec>,
    next_fault: usize,
    lose_fired: bool,
    report: ShardReport,
}

impl<'a, B: LogBackend<BankAccount>> Driver<'a, B> {
    fn new(scenario: &'a SimScenario, sys: Fleet<B>) -> Self {
        let n = scenario.shards;
        let phase = (0..scenario.txns)
            .map(|i| if scenario.skip.contains(&i) { Phase::Skipped } else { Phase::Pending })
            .collect();
        Driver {
            scenario,
            sys,
            nshards: n,
            phase,
            gtid_of: vec![None; scenario.txns],
            local_of: vec![None; scenario.txns],
            ledger: Ledger::new(
                (0..scenario.txns)
                    .map(|i| parts_for(scenario.cfg.seed, i, n, scenario.lose_decision))
                    .collect(),
            ),
            pending_batch: vec![Vec::new(); n],
            pending_step: None,
            faults: scenario.plan.faults().to_vec(),
            next_fault: 0,
            lose_fired: false,
            report: ShardReport {
                shards: n,
                seed: scenario.cfg.seed,
                committed: 0,
                cross_committed: 0,
                aborted: 0,
                crashes: 0,
                crash_subsets: 0,
                twopc_crashes: 0,
                forced_aborts: 0,
                resolved_in_doubt: 0,
                lost_decisions: 0,
                skipped_faults: 0,
                oracle_checks: 0,
                fingerprint: 0,
            },
        }
    }

    /// Drop a staged (unacked) single-shard transaction whose shard is
    /// about to crash: its volatile staging evaporates with the power.
    fn evict_staged(&mut self, mask: u32) {
        for s in 0..self.nshards {
            if mask & (1 << s) == 0 {
                continue;
            }
            for (_, i) in std::mem::take(&mut self.pending_batch[s]) {
                self.phase[i] = Phase::Aborted;
                self.report.aborted += 1;
            }
        }
    }

    /// Flush shard `s`'s staged batch through `commit_group`: one
    /// multi-record flush, per-transaction verdicts.
    fn flush_batch(&mut self, s: usize) {
        let staged = std::mem::take(&mut self.pending_batch[s]);
        if staged.is_empty() {
            return;
        }
        let txns: Vec<TxnId> = staged.iter().map(|&(t, _)| t).collect();
        let results = self.sys.shard_mut(s).commit_group(&txns);
        for ((_, i), r) in staged.into_iter().zip(results) {
            match r {
                Ok(()) => {
                    self.phase[i] = Phase::Committed;
                    self.report.committed += 1;
                }
                Err(_) => {
                    self.phase[i] = Phase::Aborted;
                    self.report.aborted += 1;
                }
            }
        }
    }

    /// Crash the shard subset `mask`: staged singles on those shards are
    /// lost unacked; live cross-shard transactions with an unprepared half
    /// there are doomed globally (the fleet aborts their surviving halves
    /// durably); each crashed shard recovers under `DiscardTail`, and any
    /// durable doubt settles against coordinator truth.
    fn crash_shards(&mut self, mask: u32) {
        let mask = mask & ((1u32 << self.nshards) - 1);
        if mask == 0 {
            self.report.skipped_faults += 1;
            return;
        }
        self.evict_staged(mask);
        for i in 0..self.phase.len() {
            if self.phase[i] != Phase::Active {
                continue;
            }
            let hit = match (&self.local_of[i], &self.gtid_of[i]) {
                (Some((s, _)), _) => mask & (1 << *s) != 0,
                (None, Some(_)) => self.ledger.places(i).iter().any(|&s| mask & (1 << s) != 0),
                (None, None) => false,
            };
            if hit {
                self.phase[i] = Phase::Aborted;
                self.report.aborted += 1;
            }
        }
        self.sys.crash_subset(mask).expect("recovery of an untorn shard image succeeds");
        self.report.resolved_in_doubt += self.sys.resolve_in_doubt() as u64;
        self.report.crash_subsets += 1;
    }

    /// Full-fleet power loss: every shard plus the coordinator.
    fn crash_fleet(&mut self) {
        let full = (1u32 << self.nshards) - 1;
        self.evict_staged(full);
        for i in 0..self.phase.len() {
            if self.phase[i] == Phase::Active {
                self.phase[i] = Phase::Aborted;
                self.report.aborted += 1;
            }
        }
        self.sys.crash_subset(full).expect("recovery of an untorn shard image succeeds");
        self.sys.crash_coordinator();
        self.report.resolved_in_doubt += self.sys.resolve_in_doubt() as u64;
        self.report.crashes += 1;
    }

    /// Force-abort the oldest outstanding transaction, if any.
    fn force_abort_one(&mut self) -> bool {
        for i in 0..self.phase.len() {
            match self.phase[i] {
                Phase::Active => {
                    if let Some(g) = self.gtid_of[i] {
                        self.sys.abort_global(g);
                    } else if let Some((s, t)) = self.local_of[i] {
                        let _ = self.sys.shard_mut(s).abort(t);
                    }
                    self.phase[i] = Phase::Aborted;
                    self.report.aborted += 1;
                    self.report.forced_aborts += 1;
                    return true;
                }
                Phase::Staged => {
                    let (s, t) = self.local_of[i].expect("staged txns are single-shard");
                    self.pending_batch[s].retain(|&(bt, _)| bt != t);
                    let _ = self.sys.shard_mut(s).abort(t);
                    self.phase[i] = Phase::Aborted;
                    self.report.aborted += 1;
                    self.report.forced_aborts += 1;
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Fire every planned fault due at or before event `ev` (`u64::MAX`
    /// drains the plan), oracle-checking after each.
    fn fire_due(&mut self, ev: u64) -> Result<(), ShardFailure> {
        while self.next_fault < self.faults.len() && self.faults[self.next_fault].at_event <= ev {
            let kind = self.faults[self.next_fault].kind;
            self.next_fault += 1;
            match kind {
                FaultKind::CrashShards { mask } => self.crash_shards(mask),
                FaultKind::TwoPcCrash { step } => {
                    self.pending_step = Some(step);
                }
                FaultKind::Crash
                | FaultKind::TornCrash { .. }
                | FaultKind::SectorTorn { .. }
                | FaultKind::ReorderFlush
                | FaultKind::BitFlip { .. } => self.crash_fleet(),
                FaultKind::ForceAbort => {
                    self.force_abort_one();
                }
                FaultKind::WoundStorm => while self.force_abort_one() {},
                FaultKind::DelayCommit { .. }
                | FaultKind::TransientIo { .. }
                | FaultKind::DiskFull
                | FaultKind::SlowDisk { .. }
                | FaultKind::FsyncStall { .. } => self.report.skipped_faults += 1,
            }
            self.check()?;
        }
        Ok(())
    }

    /// The oracle sweep: every shard's committed balance goes to the
    /// ledger (stray bits, the eighth leg, durability, no resurrection).
    /// Unresolved doubt has no outcome yet.
    fn check(&mut self) -> Result<(), ShardFailure> {
        self.report.oracle_checks += 1;
        let doubt: Vec<u64> = self.sys.in_doubt();
        let states: Vec<u64> = (0..self.nshards)
            .map(|s| self.sys.shard_mut(s).committed_state(ObjectId(s as u32)))
            .collect();
        let told = |i: usize| match self.phase[i] {
            _ if self.gtid_of[i].is_some_and(|g| doubt.contains(&g)) => Told::Pending,
            Phase::Committed => Told::Visible,
            _ => Told::Invisible,
        };
        self.ledger.check(told, &states).map_err(|v| match v {
            LedgerViolation::Stray { place, state } => {
                ShardFailure::StrayState { shard: place, state }
            }
            // The book is keyed by logical index and the report names the
            // gtid; a single-shard transaction cannot split.
            LedgerViolation::Split(split) => {
                let gtid = self.gtid_of[split.gtid as usize].expect("only global txns split");
                ShardFailure::GlobalSplit(GlobalAtomicityViolation { gtid, ..split })
            }
            LedgerViolation::Lost { txn, place } => {
                ShardFailure::DurabilityLost { txn, shard: place }
            }
            LedgerViolation::Resurrected { txn, place } => {
                ShardFailure::Resurrection { txn, shard: place }
            }
        })
    }

    /// Begin + invoke transaction `i`.
    fn begin_txn(&mut self, i: usize) {
        let parts = self.ledger.places(i).to_vec();
        let amount = Ledger::amount(i);
        if parts.len() == 1 {
            let s = parts[0];
            let t = self.sys.shard_mut(s).begin();
            let r = self.sys.shard_mut(s).invoke(t, ObjectId(s as u32), BankInv::Deposit(amount));
            self.local_of[i] = Some((s, t));
            self.phase[i] = if r.is_ok() { Phase::Active } else { Phase::Aborted };
            if r.is_err() {
                let _ = self.sys.shard_mut(s).abort(t);
                self.report.aborted += 1;
            }
        } else {
            let g = self.sys.begin_global();
            self.gtid_of[i] = Some(g);
            self.phase[i] = Phase::Active;
            for &s in &parts {
                if self.phase[i] != Phase::Active {
                    break;
                }
                if self.sys.invoke_global(g, ObjectId(s as u32), BankInv::Deposit(amount)).is_err()
                {
                    self.sys.abort_global(g);
                    self.phase[i] = Phase::Aborted;
                    self.report.aborted += 1;
                }
            }
        }
    }

    /// Attempt to commit transaction `i` (no-op if a fault already settled
    /// it). Cross-shard commits honour an armed or scenario-wide 2PC crash
    /// step; single-shard commits go direct, or stage for `commit_group`
    /// under the group-commit discipline.
    fn commit_txn(&mut self, i: usize) -> Result<(), ShardFailure> {
        if self.phase[i] != Phase::Active {
            return Ok(());
        }
        if let Some(g) = self.gtid_of[i] {
            if self.scenario.lose_decision && !self.lose_fired {
                self.lose_fired = true;
                return self.commit_with_lost_decision(i, g);
            }
            let armed = self.pending_step.take();
            if armed.is_some() || self.scenario.twopc_crash {
                let step = TwoPcStep::from_index(armed.unwrap_or(i as u32));
                self.evict_staged(self.crashed_by(step, i));
                let committed = self
                    .sys
                    .commit_global_with_crash(g, step)
                    .expect("recovery of an untorn shard image succeeds");
                self.report.twopc_crashes += 1;
                self.settle(i, committed, true);
            } else {
                let committed = self.sys.commit_global(g).is_ok();
                self.settle(i, committed, true);
            }
        } else {
            let (s, t) = self.local_of[i].expect("non-global txns carry a local handle");
            if self.scenario.cfg.group_commit {
                self.pending_batch[s].push((t, i));
                self.phase[i] = Phase::Staged;
                if self.pending_batch[s].len() >= 2 {
                    self.flush_batch(s);
                }
            } else {
                let committed = self.sys.shard_mut(s).commit(t).is_ok();
                self.settle(i, committed, false);
            }
        }
        Ok(())
    }

    /// The shard subset a 2PC-step crash will take down (so staged singles
    /// there can be evicted before the power goes).
    fn crashed_by(&self, step: TwoPcStep, i: usize) -> u32 {
        let parts = self.ledger.places(i);
        match step {
            TwoPcStep::CoordinatorAfterPrepare => 0,
            TwoPcStep::ParticipantInDoubt | TwoPcStep::CrashDuringRecovery => 1 << parts[0],
            TwoPcStep::BothAfterDecide => parts[1..].iter().fold(0, |m, &s| m | (1 << s)),
        }
    }

    fn settle(&mut self, i: usize, committed: bool, cross: bool) {
        if committed {
            self.phase[i] = Phase::Committed;
            self.report.committed += 1;
            if cross {
                self.report.cross_committed += 1;
            }
        } else {
            self.phase[i] = Phase::Aborted;
            self.report.aborted += 1;
        }
    }

    /// The planted eighth-leg bug: the coordinator's commit decision
    /// record never lands (no `decide_commit`), yet it acks the client and
    /// resolves one participant before dying. Presumed abort then settles
    /// the remaining doubt the other way — a split the oracle must catch.
    fn commit_with_lost_decision(&mut self, i: usize, g: u64) -> Result<(), ShardFailure> {
        if self.sys.prepare_all(g).is_err() {
            self.settle(i, false, true);
            return Ok(());
        }
        let first = self.ledger.places(i)[0];
        let _ = self.sys.resolve_participant(g, first, true);
        self.settle(i, true, true); // the client saw the ack
        self.sys.crash_coordinator();
        self.report.resolved_in_doubt += self.sys.resolve_in_doubt() as u64;
        self.report.lost_decisions += 1;
        self.check()
    }

    fn fingerprint(&mut self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for s in 0..self.nshards {
            eat(self.sys.shard_mut(s).committed_state(ObjectId(s as u32)));
        }
        for p in &self.phase {
            eat(*p as u64);
        }
        h
    }

    fn run(mut self) -> Result<ShardReport, ShardFailure> {
        let mut ev = 0u64;
        for i in 0..self.scenario.txns {
            if self.phase[i] == Phase::Skipped {
                continue;
            }
            self.fire_due(ev)?;
            self.begin_txn(i);
            ev += 1;
            self.fire_due(ev)?;
            self.commit_txn(i)?;
            ev += 1;
            self.check()?;
        }
        self.fire_due(u64::MAX)?;
        for s in 0..self.nshards {
            self.flush_batch(s);
        }
        self.check()?;
        // The run's last word: a fleet-wide power loss. Everything acked
        // must come back; nothing else may.
        self.crash_fleet();
        self.check()?;
        // Forensic leg on disk: the offline inspector's reading of every
        // shard's final image — prepare and decide frames included — must
        // agree field by field with a real recovery scan.
        for s in 0..self.nshards {
            if let Some(r) = self.sys.shard(s).backend().inspection_agrees_with_recovery() {
                r.map_err(|error| ShardFailure::InspectorDisagreement { shard: s, error })?;
            }
        }
        self.report.fingerprint = self.fingerprint();
        Ok(self.report)
    }
}

/// A fleet of `n` bank shards (one home object per shard) under NRBC, each
/// journaling to its own `backend()`.
fn fleet<B: LogBackend<BankAccount>>(n: usize, backend: impl Fn() -> B) -> Fleet<B> {
    Fleet::new_with(n, |_| {
        Shard::with_backend(BankAccount::default(), n as u32, bank_nrbc(), backend())
    })
}

/// Run one sharded scenario to completion or its first oracle failure — the
/// arm of [`crate::sim::run`] for callers that need the typed
/// [`ShardReport`]. Fully deterministic in the scenario.
pub fn run_shard_scenario(scenario: &SimScenario) -> Result<ShardReport, ShardFailure> {
    assert!(scenario.txns <= MAX_TXNS, "at most {MAX_TXNS} transactions (one bit each)");
    let n = scenario.shards;
    match scenario.backend {
        Backend::Disk => {
            Driver::new(scenario, fleet(n, || WalBackend::new(WalConfig::default()))).run()
        }
        Backend::Mem => Driver::new(scenario, fleet(n, MemBackend::new)).run(),
    }
}

/// Shape of the deterministic 2PC frame-cost bench.
#[derive(Clone, Copy, Debug)]
pub struct ShardBenchCfg {
    /// Transactions per side.
    pub txns: usize,
    /// Shards in the fleet.
    pub shards: usize,
}

impl Default for ShardBenchCfg {
    fn default() -> Self {
        ShardBenchCfg { txns: 48, shards: 3 }
    }
}

/// One side of the bench: all-single-shard (fast path) or all-cross-shard
/// (full 2PC), measured in WAL frames — the deterministic cost unit (wall
/// clock drifts; frame counts cannot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBenchSide {
    /// Transactions acknowledged committed.
    pub committed: u64,
    /// Plain commit frames across all shard logs.
    pub commit_frames: u64,
    /// Prepare frames across all shard logs.
    pub prepare_frames: u64,
    /// Decide frames across all shard logs.
    pub decide_frames: u64,
    /// Data frames (commit + prepare + decide) per committed transaction,
    /// in thousandths (deterministic fixed-point; no floats in the JSON).
    pub frames_per_commit_milli: u64,
}

/// The bench report: cross-shard commit overhead versus the single-shard
/// baseline, in frames. Byte-deterministic — CI regenerates and compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBenchReport {
    /// Transactions per side.
    pub txns: usize,
    /// Shards in the fleet.
    pub shards: usize,
    /// The single-shard fast-path side.
    pub single: ShardBenchSide,
    /// The all-cross-shard 2PC side.
    pub cross: ShardBenchSide,
    /// `cross.frames_per_commit / single.frames_per_commit`, in
    /// thousandths.
    pub frame_overhead_milli: u64,
}

fn bench_side(cfg: &ShardBenchCfg, cross: bool) -> ShardBenchSide {
    let n = cfg.shards;
    let mut sys = fleet(n, || WalBackend::new(WalConfig::default()));
    let mut committed = 0u64;
    for i in 0..cfg.txns {
        let g = sys.begin_global();
        if cross {
            for s in 0..n {
                sys.invoke_global(g, ObjectId(s as u32), BankInv::Deposit(1))
                    .expect("bench deposits apply");
            }
        } else {
            sys.invoke_global(g, ObjectId((i % n) as u32), BankInv::Deposit(1))
                .expect("bench deposits apply");
        }
        if sys.commit_global(g).is_ok() {
            committed += 1;
        }
    }
    let (mut commit_frames, mut prepare_frames, mut decide_frames) = (0u64, 0u64, 0u64);
    for s in 0..n {
        let backend = sys.shard(s).backend();
        let insp = inspect_wal::<BankAccount>(backend.disk(), &backend.config());
        for seg in &insp.segments {
            for f in &seg.frames {
                if f.status != "valid" {
                    continue;
                }
                match f.kind {
                    "commit" | "batch" => commit_frames += 1,
                    "prepare" => prepare_frames += 1,
                    "decide" => decide_frames += 1,
                    _ => {}
                }
            }
        }
    }
    let data_frames = commit_frames + prepare_frames + decide_frames;
    ShardBenchSide {
        committed,
        commit_frames,
        prepare_frames,
        decide_frames,
        frames_per_commit_milli: (data_frames * 1000).checked_div(committed).unwrap_or(0),
    }
}

/// Run the 2PC frame-cost bench: `cfg.txns` single-shard commits versus
/// `cfg.txns` fleet-spanning commits on identical disk fleets.
pub fn run_shard_bench(cfg: &ShardBenchCfg) -> ShardBenchReport {
    assert!((2..=8).contains(&cfg.shards), "bench fleets are 2..=8 shards");
    let single = bench_side(cfg, false);
    let cross = bench_side(cfg, true);
    let frame_overhead_milli = (cross.frames_per_commit_milli * 1000)
        .checked_div(single.frames_per_commit_milli)
        .unwrap_or(0);
    ShardBenchReport { txns: cfg.txns, shards: cfg.shards, single, cross, frame_overhead_milli }
}

impl ShardBenchReport {
    /// Deterministic JSON rendering (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        let side = |s: &ShardBenchSide| {
            format!(
                "{{\n    \"committed\": {},\n    \"commit_frames\": {},\n    \
                 \"prepare_frames\": {},\n    \"decide_frames\": {},\n    \
                 \"frames_per_commit_milli\": {}\n  }}",
                s.committed,
                s.commit_frames,
                s.prepare_frames,
                s.decide_frames,
                s.frames_per_commit_milli
            )
        };
        format!(
            "{{\n  \"mode\": \"bench-shard\",\n  \"txns\": {},\n  \"shards\": {},\n  \
             \"single\": {},\n  \"cross\": {},\n  \"frame_overhead_milli\": {}\n}}\n",
            self.txns,
            self.shards,
            side(&self.single),
            side(&self.cross),
            self.frame_overhead_milli
        )
    }

    /// Exit-code-enforced bounds: every violated bound, empty when the
    /// report is healthy. Presumed abort's ledger is exact — a
    /// single-shard commit costs one commit frame and zero 2PC frames; a
    /// fleet-spanning commit costs one prepare plus one decide frame per
    /// participant and no coordinator record beyond the decision — so the
    /// bounds are equalities, not tolerances.
    pub fn guard_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let txns = self.txns as u64;
        let shards = self.shards as u64;
        if self.single.committed != txns {
            v.push(format!("single side committed {}/{txns}", self.single.committed));
        }
        if self.cross.committed != txns {
            v.push(format!("cross side committed {}/{txns}", self.cross.committed));
        }
        if self.single.prepare_frames != 0 || self.single.decide_frames != 0 {
            v.push(format!(
                "fast path must write no 2PC frames (prepare {}, decide {})",
                self.single.prepare_frames, self.single.decide_frames
            ));
        }
        if self.single.commit_frames != txns {
            v.push(format!(
                "single side wrote {} commit frames, want {txns}",
                self.single.commit_frames
            ));
        }
        if self.cross.prepare_frames != txns * shards {
            v.push(format!(
                "cross side wrote {} prepare frames, want {}",
                self.cross.prepare_frames,
                txns * shards
            ));
        }
        if self.cross.decide_frames != txns * shards {
            v.push(format!(
                "cross side wrote {} decide frames, want {}",
                self.cross.decide_frames,
                txns * shards
            ));
        }
        if self.cross.commit_frames != 0 {
            v.push(format!(
                "2PC commits must carry their records in prepare frames, found {} commit frames",
                self.cross.commit_frames
            ));
        }
        if self.frame_overhead_milli > 2 * shards * 1000 {
            v.push(format!(
                "cross-shard frame overhead {}m exceeds 2×shards bound {}m",
                self.frame_overhead_milli,
                2 * shards * 1000
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run, shrink, sweep, Combo, Sweep};
    use ccr_runtime::fault::{FaultMix, FaultPlan};

    fn base(seed: u64, shards: usize) -> SimScenario {
        let plan = FaultPlan::from_seed(seed, 40, 3, FaultMix::Sharded { nshards: shards as u32 });
        let mut s = SimScenario::new(Combo::UipNrbc, seed, plan);
        s.shards = shards;
        s
    }

    fn template(shards: usize) -> SimScenario {
        SimScenario { twopc_crash: true, ..base(0, shards) }
    }

    #[test]
    fn sharded_sweeps_pass_on_both_backends() {
        for backend in [Backend::Disk, Backend::Mem] {
            let cells = Sweep::new(SimScenario { backend, ..template(2) }, 4);
            assert!(sweep(&cells).is_none(), "sharded sweep must pass on {backend}");
        }
    }

    #[test]
    fn group_commit_and_three_shards_survive_the_sweep() {
        let mut template = template(3);
        template.cfg.group_commit = true;
        assert!(sweep(&Sweep::new(template, 4)).is_none());
    }

    #[test]
    fn lose_decision_is_caught_as_a_global_split() {
        let mut scenario = base(11, 2);
        scenario.lose_decision = true;
        let failure = run(&scenario).expect_err("the planted bug must be caught");
        assert_eq!(failure.kind(), "global-split", "got {failure}");
        // The shrunk reproducer still pins the driver-routing knobs.
        let found = shrink(&scenario);
        assert_eq!(found.failure.kind(), "global-split");
        let line = found.shrunk.reproducer();
        assert!(line.contains(" --shards 2"), "reproducer must pin shards: {line}");
        assert!(line.contains(" --lose-decision"), "reproducer must pin the control: {line}");
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let mut scenario = base(7, 3);
        scenario.twopc_crash = true;
        let a = run_shard_scenario(&scenario).unwrap();
        let b = run_shard_scenario(&scenario).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(&scenario), b.to_json(&scenario));
    }

    #[test]
    fn twopc_crash_exercises_every_step_and_still_settles_uniformly() {
        // 8 transactions with steps cycling i % 4 cover all four canonical
        // crash points at least once (for the cross-shard majority).
        let plan = FaultPlan::default();
        let mut scenario = SimScenario::new(Combo::UipNrbc, 5, plan);
        scenario.shards = 2;
        scenario.twopc_crash = true;
        let report = run_shard_scenario(&scenario).unwrap();
        assert!(report.twopc_crashes >= 4, "want every step exercised: {report:?}");
    }

    #[test]
    fn a_reissued_gtid_names_two_transactions_in_the_book() {
        // ROADMAP item 7: a fleet crash aborts a global transaction that
        // left no durable trace, the allocator restarts below its gtid by
        // design, and the next global transaction is issued the same id.
        // The eighth leg must judge each against its own participants.
        let mut scenario = SimScenario::new(Combo::UipNrbc, 0, FaultPlan::none());
        scenario.shards = 3;
        scenario.txns = 2;
        let mut d = Driver::new(&scenario, fleet(3, MemBackend::new));
        d.ledger = Ledger::new(vec![vec![0, 1, 2], vec![0, 1]]);
        d.begin_txn(0);
        d.crash_fleet();
        d.begin_txn(1);
        d.commit_txn(1).unwrap();
        assert_eq!(d.gtid_of[0], d.gtid_of[1], "the crash must reissue the gtid");
        assert_eq!(d.phase, [Phase::Aborted, Phase::Committed]);
        d.check().expect("txn 0 aborted everywhere, txn 1 committed on both its shards");
        // The leg still fires on a real split of the successor: forget its
        // effects on one of its two participants.
        d.ledger = Ledger::new(vec![vec![0, 1, 2], vec![0, 1, 2]]);
        let split = d.check().expect_err("visible on 0 and 1 but not on participant 2");
        assert_eq!(split.kind(), "global-split", "got {split}");
    }

    #[test]
    fn a_bit_on_a_shard_that_never_took_part_is_stray() {
        let mut scenario = SimScenario::new(Combo::UipNrbc, 0, FaultPlan::none());
        scenario.shards = 3;
        scenario.txns = 1;
        let mut d = Driver::new(&scenario, fleet(3, MemBackend::new));
        d.ledger = Ledger::new(vec![vec![0, 1, 2]]);
        d.begin_txn(0);
        d.commit_txn(0).unwrap();
        d.check().expect("committed on all three participants");
        // Had routing never sent it to shard 2, the bit there is nobody's.
        d.ledger = Ledger::new(vec![vec![0, 1]]);
        let stray = d.check().expect_err("shard 2 holds a bit no participant deposited");
        assert_eq!(stray, ShardFailure::StrayState { shard: 2, state: 1 });
        assert_eq!(stray.kind(), "stray-state", "got {stray}");
    }

    #[test]
    fn bench_counts_the_exact_2pc_frame_ledger() {
        let cfg = ShardBenchCfg { txns: 8, shards: 2 };
        let report = run_shard_bench(&cfg);
        assert_eq!(report.single.commit_frames, 8);
        assert_eq!(report.single.prepare_frames, 0);
        assert_eq!(report.cross.prepare_frames, 16);
        assert_eq!(report.cross.decide_frames, 16);
        assert_eq!(report.frame_overhead_milli, 4000, "2 shards ⇒ 4 frames per cross commit");
        assert!(report.guard_violations().is_empty(), "{:?}", report.guard_violations());
        // Byte-deterministic across reruns (CI compares the committed file).
        assert_eq!(report.to_json(), run_shard_bench(&cfg).to_json());
    }
}
