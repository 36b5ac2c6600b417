//! The sharded model-checking instance: a fleet of real [`DurableSystem`]
//! shards under presumed-abort 2PC ([`ShardedSystem`]), explored with the
//! extended `p`/`q`/`s`/`z` alphabet.
//!
//! The instance is deliberately all-cross-shard: there is one object per
//! shard (object `s` lives on shard `s`), and logical transaction `i`
//! deposits `1 << i` on *every* shard's object. Each shard's committed
//! balance is then a bit-set of exactly which global transactions committed
//! *there* — so the eighth oracle leg (global dynamic atomicity, asked of
//! the runtime's own [`Ledger`]) is an exact bit comparison, not a heuristic.
//!
//! Doubt is settled the way the protocol settles it: a recovered in-doubt
//! participant stays in doubt while its coordinator is alive and still
//! undecided (the coordinator may yet commit from the durable yes-votes —
//! the `ParticipantInDoubt` schedule), and is resolved against the
//! coordinator's durable commit set — else presumed abort — once the
//! coordinator crashes ([`McAction::CrashCoordinator`]).
//!
//! Per-shard recovery internals (torn tails, nested recovery crashes,
//! checkpoint interplay, view agreement) are the *single-system* checker's
//! job — the same code paths run here, already exhaustively covered. This
//! instance spends its state space purely on the cross-shard protocol.

use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv, BankResp};
use ccr_core::conflict::FnConflict;
use ccr_core::ids::ObjectId;
use ccr_runtime::crash::{DurableSystem, SystemMode};
use ccr_runtime::engine::UipEngine;
use ccr_runtime::oracle::{Ledger, LedgerViolation, Told};
use ccr_runtime::shard::{ShardedSnapshot, ShardedSystem};

use crate::action::McAction;
use crate::harness::{Applied, McBackend, McConfig, McViolation, Mutation};

type Fleet<B> = ShardedSystem<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>;
type FleetSnap<B> =
    ShardedSnapshot<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>, B>;

/// Client-visible standing of one global transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GPhase {
    /// Not begun.
    Fresh,
    /// Begun; its deposit executed (volatile) on every shard.
    Active,
    /// Every participant holds a durable PREPARE; awaiting the decision.
    Prepared,
    /// Commit decided and acknowledged — must be durably visible on every
    /// shard from now on.
    Committed,
    /// Abort decided (explicit or presumed) — must never become visible.
    Aborted,
    /// Was active (unprepared somewhere) when a crash hit: its yes-vote can
    /// never be collected, so it aborted globally — must never be visible.
    Lost,
}

/// The cloneable bookkeeping half of a sharded-harness snapshot.
#[derive(Clone)]
struct ShardBook {
    phase: Vec<GPhase>,
    gtids: Vec<Option<u64>>,
    crash_left: u32,
    mutated: bool,
}

/// A full sharded-harness snapshot (fleet + bookkeeping) — the explorer's
/// fork point.
pub struct ShardHarnessSnapshot<B: McBackend> {
    sys: FleetSnap<B>,
    book: ShardBook,
}

/// One sharded instance under test: the real fleet plus the client-side
/// ledger the global invariants check against.
pub struct ShardHarness<B: McBackend> {
    cfg: McConfig,
    sys: Fleet<B>,
    /// Place `s * shards + o` is object `o` as shard `s` holds it; every
    /// transaction's places are the home objects, `s * shards + s`.
    ledger: Ledger,
    book: ShardBook,
}

impl<B: McBackend> ShardHarness<B> {
    /// Build a fresh fleet per `cfg` (`cfg.shards >= 2`; `objects`,
    /// `group_commit`, `ckpt_budget` and `max_tears` are ignored here).
    pub fn new(cfg: McConfig) -> Self {
        assert!(cfg.shards >= 2, "the sharded instance needs at least two shards");
        assert!(cfg.shards <= 8, "keep the crash-subset alphabet enumerable");
        let nshards = cfg.shards;
        let sys = ShardedSystem::new_with(nshards, |_| {
            DurableSystem::with_backend(
                BankAccount::default(),
                nshards as u32,
                bank_nrbc(),
                B::fresh(),
            )
        });
        let homes: Vec<usize> = (0..nshards).map(|s| s * nshards + s).collect();
        ShardHarness {
            cfg,
            sys,
            ledger: Ledger::new(vec![homes; cfg.txns]),
            book: ShardBook {
                phase: vec![GPhase::Fresh; cfg.txns],
                gtids: vec![None; cfg.txns],
                crash_left: cfg.crash_budget,
                mutated: false,
            },
        }
    }

    /// The instance configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    fn gtid_of(&self, i: usize) -> u64 {
        self.book.gtids[i].expect("begun txn has a gtid")
    }

    /// Snapshot fleet + bookkeeping.
    pub fn snapshot(&self) -> ShardHarnessSnapshot<B> {
        ShardHarnessSnapshot { sys: self.sys.snapshot(), book: self.book.clone() }
    }

    /// Rewind to a snapshot (non-consuming).
    pub fn restore(&mut self, snap: &ShardHarnessSnapshot<B>) {
        self.sys.restore(&snap.sys);
        self.book = snap.book.clone();
    }

    /// Exact canonical encoding of everything that can influence future
    /// behavior or invariant outcomes — phases, gtid assignment, budgets,
    /// the coordinator's durable set and allocator, and every shard's
    /// doubt list, counters and physical image fingerprint.
    pub fn canonical_key(&mut self) -> Vec<u8> {
        let mut k = Vec::with_capacity(128);
        for p in &self.book.phase {
            k.push(*p as u8);
        }
        k.push(0xfe);
        for g in &self.book.gtids {
            k.extend(g.unwrap_or(0).to_le_bytes());
        }
        k.extend(self.book.crash_left.to_le_bytes());
        k.push(self.book.mutated as u8);
        let durable: Vec<u64> = self.sys.coordinator().committed().collect();
        k.extend((durable.len() as u32).to_le_bytes());
        for g in durable {
            k.extend(g.to_le_bytes());
        }
        k.extend(self.sys.next_gtid().to_le_bytes());
        for s in 0..self.cfg.shards {
            let doubt = self.sys.shard(s).in_doubt();
            k.extend((doubt.len() as u32).to_le_bytes());
            for g in doubt {
                k.extend(g.to_le_bytes());
            }
            {
                let sh = self.sys.shard(s);
                k.push(match sh.mode() {
                    SystemMode::Normal => 0,
                    SystemMode::Degraded => 1,
                });
                k.extend(sh.journal().base_records().to_le_bytes());
                k.extend((sh.journal().records().len() as u64).to_le_bytes());
                k.extend(sh.system().next_txn_id().to_le_bytes());
                k.extend(sh.exec_seq().to_le_bytes());
                k.extend(sh.backend().image_fingerprint().to_le_bytes());
            }
            for o in 0..self.cfg.shards as u32 {
                k.extend(self.sys.shard_mut(s).committed_state(ObjectId(o)).to_le_bytes());
            }
        }
        k
    }

    /// The actions enabled in the current state, in deterministic order.
    pub fn enabled_actions(&mut self) -> Vec<McAction> {
        let mut out = Vec::new();
        for i in 0..self.cfg.txns {
            if self.book.phase[i] == GPhase::Fresh {
                out.push(McAction::Begin(i));
            }
        }
        for i in 0..self.cfg.txns {
            match self.book.phase[i] {
                GPhase::Active => {
                    out.push(McAction::Prepare(i));
                    out.push(McAction::Abort(i));
                }
                GPhase::Prepared => {
                    out.push(McAction::DecideCommit(i));
                    out.push(McAction::Abort(i));
                }
                _ => {}
            }
        }
        if self.book.crash_left > 0 {
            for mask in 1..(1u32 << self.cfg.shards) {
                out.push(McAction::CrashShards(mask));
            }
            out.push(McAction::CrashCoordinator);
        }
        out
    }

    /// Apply one action, running the global invariant battery after any
    /// action that took effect.
    pub fn apply(&mut self, action: McAction) -> Applied {
        let applied = match action {
            McAction::Begin(i) => self.do_begin(i),
            McAction::Abort(i) => self.do_abort(i),
            McAction::Prepare(i) => self.do_prepare(i),
            McAction::DecideCommit(i) => self.do_decide(i),
            McAction::CrashShards(mask) => self.do_crash_shards(mask),
            McAction::CrashCoordinator => self.do_crash_coordinator(),
            // Single-system tokens (commit, flush, checkpoint, torn/clean
            // crashes) are dead branches in the sharded instance.
            _ => Applied::Skip,
        };
        match applied {
            Applied::Ok => match self.check() {
                Some(v) => Applied::Violation(v),
                None => Applied::Ok,
            },
            other => other,
        }
    }

    fn do_begin(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != GPhase::Fresh {
            return Applied::Skip;
        }
        let gtid = self.sys.begin_global();
        for s in 0..self.cfg.shards {
            let inv = BankInv::Deposit(Ledger::amount(i));
            match self.sys.invoke_global(gtid, ObjectId(s as u32), inv) {
                Ok(resp) => debug_assert_eq!(resp, BankResp::Ok),
                Err(e) => {
                    return Applied::Violation(McViolation::Internal {
                        detail: format!("deposit of gtxn {i} on shard {s} refused: {e:?}"),
                    });
                }
            }
        }
        self.book.phase[i] = GPhase::Active;
        self.book.gtids[i] = Some(gtid);
        Applied::Ok
    }

    fn do_abort(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || !matches!(self.book.phase[i], GPhase::Active | GPhase::Prepared) {
            return Applied::Skip;
        }
        // Local aborts on unprepared halves, durable abort decisions on
        // prepared ones (including in-doubt ghosts) — nothing at the
        // coordinator, per presumed abort.
        self.sys.abort_global(self.gtid_of(i));
        self.book.phase[i] = GPhase::Aborted;
        Applied::Ok
    }

    fn do_prepare(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != GPhase::Active {
            return Applied::Skip;
        }
        match self.sys.prepare_all(self.gtid_of(i)) {
            Ok(()) => {
                self.book.phase[i] = GPhase::Prepared;
                Applied::Ok
            }
            // No shard is degraded and no device is faulted in the explored
            // instance: a no-vote here is a harness/runtime bug.
            Err(e) => Applied::Violation(McViolation::Internal {
                detail: format!("prepare of gtxn {i} no-voted on a fault-free fleet: {e:?}"),
            }),
        }
    }

    fn do_decide(&mut self, i: usize) -> Applied {
        if i >= self.cfg.txns || self.book.phase[i] != GPhase::Prepared {
            return Applied::Skip;
        }
        let gtid = self.gtid_of(i);
        if self.cfg.mutation == Some(Mutation::LoseDecision) && !self.book.mutated {
            // Sabotage: the decision record never lands (no
            // `decide_commit`), one participant is told to commit on the
            // coordinator's volatile word, and the coordinator dies before
            // reaching the rest — settlement then presumes abort on the
            // stragglers. The textbook mixed outcome.
            self.book.mutated = true;
            let first = self.sys.participants(gtid)[0];
            let _ = self.sys.resolve_participant(gtid, first, true);
            self.book.phase[i] = GPhase::Committed;
            return self.coordinator_crash_fallout();
        }
        self.sys.decide_commit(gtid);
        for s in self.sys.participants(gtid) {
            if let Err(e) = self.sys.resolve_participant(gtid, s, true) {
                return Applied::Violation(McViolation::Internal {
                    detail: format!("decided commit of gtxn {i} refused on shard {s}: {e:?}"),
                });
            }
        }
        self.book.phase[i] = GPhase::Committed;
        Applied::Ok
    }

    fn do_crash_shards(&mut self, mask: u32) -> Applied {
        if self.book.crash_left == 0 {
            return Applied::Skip;
        }
        let mask = mask & ((1u32 << self.cfg.shards) - 1);
        if mask == 0 {
            return Applied::Skip;
        }
        self.book.crash_left -= 1;
        if let Err(e) = self.sys.crash_subset(mask) {
            return Applied::Violation(McViolation::RecoveryRefused { detail: format!("{e:?}") });
        }
        // Every transaction is cross-shard over the whole fleet, so any
        // crashed shard held an unprepared half of every active one: those
        // abort globally inside `crash_subset`. Fully prepared transactions
        // stay live — their doubt is durable, and the coordinator (still
        // running) may yet decide either way.
        for p in &mut self.book.phase {
            if *p == GPhase::Active {
                *p = GPhase::Lost;
            }
        }
        Applied::Ok
    }

    fn do_crash_coordinator(&mut self) -> Applied {
        if self.book.crash_left == 0 {
            return Applied::Skip;
        }
        self.book.crash_left -= 1;
        self.coordinator_crash_fallout()
    }

    /// Crash the coordinator and settle the fleet from durable truth:
    /// unprepared halves abort locally, in-doubt prepares resolve against
    /// the durable commit set (presumed abort otherwise).
    fn coordinator_crash_fallout(&mut self) -> Applied {
        self.sys.crash_coordinator();
        self.sys.resolve_in_doubt();
        for i in 0..self.cfg.txns {
            match self.book.phase[i] {
                GPhase::Active => self.book.phase[i] = GPhase::Lost,
                GPhase::Prepared => {
                    // Settled from the coordinator's durable word.
                    self.book.phase[i] = if self.sys.coordinator().decision(self.gtid_of(i)) {
                        GPhase::Committed
                    } else {
                        GPhase::Aborted
                    };
                }
                _ => {}
            }
        }
        Applied::Ok
    }

    /// The global invariant battery, run after every effective action: the
    /// ledger over every object of every shard (foreign objects never
    /// receive deposits — routing owns placement). Transactions still in
    /// doubt somewhere are pending — their visibility is legitimately
    /// nowhere yet — and are re-checked once settled.
    fn check(&mut self) -> Option<McViolation> {
        let n = self.cfg.shards;
        let states: Vec<u64> = (0..n * n)
            .map(|p| self.sys.shard_mut(p / n).committed_state(ObjectId((p % n) as u32)))
            .collect();
        let pending = self.sys.in_doubt();
        let told = |i: usize| match self.book.phase[i] {
            _ if self.book.gtids[i].is_some_and(|g| pending.contains(&g)) => Told::Pending,
            GPhase::Committed => Told::Visible,
            GPhase::Fresh | GPhase::Active | GPhase::Prepared | GPhase::Aborted | GPhase::Lost => {
                Told::Invisible
            }
        };
        self.ledger.check(told, &states).err().map(|v| match v {
            LedgerViolation::Stray { place, state } => {
                McViolation::StrayState { object: (place % n) as u32, state }
            }
            LedgerViolation::Split(v) => McViolation::GlobalSplit {
                txn: v.gtid as usize,
                committed_on: v.committed_on.iter().map(|p| p / n).collect(),
                aborted_on: v.aborted_on.iter().map(|p| p / n).collect(),
            },
            LedgerViolation::Lost { txn, .. } => McViolation::DurabilityLost { txn },
            LedgerViolation::Resurrected { txn, .. } => McViolation::Resurrection { txn },
        })
    }

    /// Whether every transaction reached a terminal phase — the explorer's
    /// terminal-state predicate (the crash budget may remain; those
    /// branches are still enumerated).
    pub fn all_resolved(&self) -> bool {
        self.book
            .phase
            .iter()
            .all(|p| matches!(p, GPhase::Committed | GPhase::Aborted | GPhase::Lost))
    }
}

#[cfg(test)]
mod tests {
    use crate::explorer::{explore, run_trace};
    use crate::harness::{McBackendKind, McConfig, Mutation};

    fn sharded(backend: McBackendKind) -> McConfig {
        McConfig { shards: 2, backend, ..Default::default() }
    }

    /// The acceptance-criteria instance: a 2-shard fleet, exhaustively
    /// explored with the prepare/decide/crash-subset alphabet, is
    /// violation-free with a non-trivial state space on both backends.
    #[test]
    fn two_shard_instance_is_violation_free() {
        for backend in [McBackendKind::Mem, McBackendKind::Disk] {
            let v = explore(sharded(backend));
            assert!(v.passed(), "violation on {backend}: {:?}", v.violation);
            assert!(v.stats.states >= 100, "state space too small on {backend}: {:?}", v.stats);
            assert!(v.stats.terminals > 0, "no terminal states on {backend}: {:?}", v.stats);
        }
    }

    /// The negative control for the eighth oracle leg: losing the
    /// coordinator's commit-decision record after one participant resolved
    /// must surface as a global split, with a minimal replayable trace.
    #[test]
    fn lose_decision_mutation_is_caught_as_a_global_split() {
        let cfg =
            McConfig { mutation: Some(Mutation::LoseDecision), ..sharded(McBackendKind::Disk) };
        let v = explore(cfg);
        let (violation, trace) = v.violation.expect("the lost decision must be caught");
        assert_eq!(violation.kind(), "global-split", "wrong invariant fired: {violation}");
        assert_eq!(trace.to_string(), "b0 p0 q0", "not minimal: {trace}");
        let replayed = run_trace(cfg, &trace).expect("minimized trace must replay");
        assert_eq!(replayed.kind(), "global-split");
    }

    /// Sharded instances produce byte-identical verdict JSON run-to-run.
    #[test]
    fn sharded_verdicts_are_deterministic() {
        let cfg = sharded(McBackendKind::Disk);
        let (a, b) = (explore(cfg), explore(cfg));
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"shards\": 2"));
    }

    /// 2PC tokens replayed against a single-system instance are dead
    /// branches, not panics (a shrunk sharded trace pasted under
    /// `--shards 1` must degrade gracefully).
    #[test]
    fn sharded_tokens_are_dead_branches_on_single_system_instances() {
        let cfg = McConfig::default();
        assert_eq!(cfg.shards, 1);
        let trace = "b0 p0 q0 s3 z c0 x".parse().unwrap();
        assert!(run_trace(cfg, &trace).is_none());
    }
}
