//! Acceptance tests for the sharded durable runtime (DESIGN.md §15), driven
//! through the public facade exactly as the `ccr-experiments sim --shards N`
//! CLI drives it: 32-seed sweeps whose fault plans crash every shard subset
//! and every canonical 2PC step (including a crash inside a participant's
//! own recovery), the eighth oracle leg (global dynamic atomicity across
//! shards) staying quiet on correct runs, and the lose-the-decision-record
//! negative control being caught, shrunk, and pinned in its reproducer.

use ccr::mc::explorer::run_trace;
use ccr::mc::{McAction, McConfig, McTrace, Mutation};
use ccr::runtime::fault::{FaultMix, FaultPlan};
use ccr::runtime::oracle::{Failure, Surfaced};
use ccr::workload::shard_sim::run_shard_scenario;
use ccr::workload::sim::{run, shrink, sweep, Backend, Combo, SimScenario, Sweep};

/// A fault-free `shards`-shard scenario with every cross-shard commit routed
/// through a 2PC-step crash — the template the acceptance sweeps run.
fn crashing_fleet(shards: usize) -> SimScenario {
    let mut template = SimScenario::new(Combo::UipNrbc, 0, FaultPlan::none());
    template.shards = shards;
    template.twopc_crash = true;
    template
}

/// The acceptance sweep: 32 seeds per cell over shard count × group commit
/// on the disk backend, every cross-shard commit cut short at one of the
/// four canonical 2PC steps (cycling), with the seeded fault plans
/// additionally drawing crash-of-any-shard-subset and 2PC-step arms. Every
/// run must pass the full battery: the ledger with its eighth (global
/// atomicity) leg, and the recovery legs on every shard a crash recovered.
#[test]
fn sharded_sweep_survives_crashes_of_every_shard_subset_and_2pc_step() {
    for shards in [2usize, 3] {
        for group_commit in [false, true] {
            let mut template = crashing_fleet(shards);
            template.cfg.group_commit = group_commit;
            let failure = sweep(&Sweep { horizon: 60, faults: 4, ..Sweep::new(template, 32) });
            assert!(
                failure.is_none(),
                "sharded sweep failed (shards: {shards}, group_commit: {group_commit}): {:?}",
                failure.map(|f| f.shrunk.reproducer())
            );
        }
    }
}

/// The same sweep on the mem backend: crash-subset arms degrade to
/// volatile-state loss without WAL recovery, and the global-atomicity leg
/// must still hold (the coordinator log is the only durable truth).
#[test]
fn sharded_sweep_passes_on_the_mem_backend() {
    let template = SimScenario { backend: Backend::Mem, ..crashing_fleet(2) };
    let cells = Sweep { horizon: 60, faults: 4, ..Sweep::new(template, 32) };
    assert!(sweep(&cells).is_none(), "mem-backend sharded sweep must pass");
}

/// Same sharded scenario ⇒ identical reports and byte-identical JSON —
/// the determinism contract the CI `shard-fuzz` job enforces end to end
/// with `cmp` on two CLI runs.
#[test]
fn sharded_runs_are_deterministic_through_the_facade() {
    let plan = FaultPlan::from_seed(9, 60, 4, FaultMix::Sharded { nshards: 3 });
    let mut scenario = SimScenario::new(Combo::UipNrbc, 9, plan);
    scenario.shards = 3;
    scenario.twopc_crash = true;
    let a = run_shard_scenario(&scenario).expect("correct run must pass the oracle");
    let b = run_shard_scenario(&scenario).expect("correct run must pass the oracle");
    assert_eq!(a, b, "sharded report must be identical across runs");
    assert_eq!(a.to_json(&scenario), b.to_json(&scenario), "JSON must be byte-identical");
    assert!(a.crash_subsets + a.twopc_crashes > 0, "the sharded fault arms must actually fire");
}

/// Negative control for the eighth oracle leg: losing the coordinator's
/// decision record after one participant applied the commit must be caught
/// as a global split, shrink to a minimal scenario that still fails with
/// the same kind, and emit a reproducer pinning the sharded knobs
/// (`--shards`, `--lose-decision`) — the flag-pinning bug class fixed for
/// `--backend` in PR 6 and `--gray` in PR 8 must not recur here.
#[test]
fn lost_decision_record_is_caught_shrunk_and_pinned() {
    let plan = FaultPlan::from_seed(11, 40, 3, FaultMix::Sharded { nshards: 2 });
    let mut scenario = SimScenario::new(Combo::UipNrbc, 11, plan);
    scenario.shards = 2;
    scenario.lose_decision = true;
    let failure = run(&scenario).expect_err("the planted bug must be caught");
    assert_eq!(failure.kind(), "global-split", "wrong leg fired: {failure}");

    let found = shrink(&scenario);
    assert_eq!(found.failure.kind(), "global-split", "shrinking must preserve the kind");
    let line = found.shrunk.reproducer();
    assert!(run(&found.shrunk).is_err(), "shrunk reproducer must still fail: {line}");
    for flag in [" --shards 2", " --lose-decision", " --backend "] {
        assert!(line.contains(flag), "reproducer missing {flag:?}: {line}");
    }
}

/// A fleet failure is explained by its report alone: the walk's harness
/// actions ride with the violation, the shrunk lose-decision failure's trace
/// still ends in the decision that split the transaction, and `mc --replay`
/// reads the same split off it.
#[test]
fn a_fleet_failure_carries_the_trace_that_reached_it() {
    let plan = FaultPlan::from_seed(11, 40, 3, FaultMix::Sharded { nshards: 2 });
    let mut scenario = SimScenario::new(Combo::UipNrbc, 11, plan);
    scenario.shards = 2;
    scenario.lose_decision = true;
    let Failure { violation, at: Surfaced::Trace(trace) } = shrink(&scenario).failure else {
        panic!("a fleet fails as a fleet");
    };
    assert_eq!(violation.kind(), "global-split");
    let trace: McTrace = trace.parse().expect("the trace reads back");
    assert_eq!(trace.0.last(), Some(&McAction::DecideCommit(0)), "{trace}");
    let cfg = McConfig { shards: 2, mutation: Some(Mutation::LoseDecision), ..McConfig::default() };
    assert_eq!(run_trace(cfg, &trace), Some(violation), "{trace}");
}

/// ROADMAP item 7, red from PR 11 to PR 15: one `crash` fault at event 9 of
/// this three-shard run aborts logical transaction 4 while it holds gtid 3
/// with no durable trace; the coordinator's allocator restarts below it by
/// design and transaction 5 is issued gtid 3 again. The eighth leg used to
/// key its book by gtid and judged 4's participant list `[0, 1, 2]` against
/// 5's visibility on `[0, 1]` — an oracle false positive, not a split. The
/// same run from the command line: `ccr-experiments sim --combo uip-nrbc
/// --seed 0 --txns 8 --skip 6,7 --shards 3 --faults 9:crash`.
#[test]
fn a_plain_crash_on_three_shards_must_not_split_a_global_transaction() {
    let plan = "9:crash".parse().expect("a well-formed fault plan");
    let mut scenario = SimScenario::new(Combo::UipNrbc, 0, plan);
    scenario.skip = vec![6, 7];
    scenario.shards = 3;
    if let Err(failure) = run(&scenario) {
        panic!("{failure}\n  {}", scenario.reproducer());
    }
}

/// The fleet's 2PC bookkeeping against a reference kept in ordered maps and
/// sets: three mem-backed shards of two accounts each, deposits only (they
/// commute under NRBC, so no call blocks and every committed balance is the
/// sum of the committed deposits).
mod bookkeeping {
    use std::collections::{BTreeMap, BTreeSet};

    use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr::core::conflict::FnConflict;
    use ccr::core::ids::ObjectId;
    use ccr::runtime::{DurableSystem, ShardedSystem, UipEngine};
    use ccr::store::MemBackend;
    use proptest::prelude::*;

    const SHARDS: usize = 3;
    const OBJECTS: u32 = 2 * SHARDS as u32;

    type Fleet = ShardedSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        MemBackend<BankAccount>,
    >;

    /// One call on the fleet; the `u16` picks a global transaction
    /// ([`Model::pick`]).
    #[derive(Clone, Debug)]
    enum Step {
        Invoke(u16, u32, u64),
        Prepare(u16),
        Decide(u16),
        Resolve(u16, usize, bool),
        Abort(u16),
        Commit(u16),
        CrashSubset(u32),
        CrashCoordinator,
        ResolveInDoubt,
    }

    fn step() -> impl Strategy<Value = Step> {
        let pick = 0u16..1024;
        prop_oneof![
            48 => (pick.clone(), 0..OBJECTS, 1u64..10).prop_map(|(g, o, a)| Step::Invoke(g, o, a)),
            12 => pick.clone().prop_map(Step::Prepare),
            12 => pick.clone().prop_map(Step::Decide),
            12 => (pick.clone(), 0..SHARDS, 0u8..2).prop_map(|(g, s, c)| Step::Resolve(g, s, c == 1)),
            4 => pick.clone().prop_map(Step::Abort),
            24 => pick.prop_map(Step::Commit),
            4 => (1u32..1 << SHARDS).prop_map(Step::CrashSubset),
            1 => Just(Step::CrashCoordinator),
            4 => Just(Step::ResolveInDoubt),
        ]
    }

    /// A round begins one global transaction, then runs its steps: at least
    /// 200 rounds, so committed ids cross 64-bit word boundaries.
    fn rounds() -> impl Strategy<Value = Vec<Vec<Step>>> {
        prop::collection::vec(prop::collection::vec(step(), 0..7), 200..240)
    }

    /// A participant half: its deposits and whether it holds a durable
    /// yes-vote.
    #[derive(Clone, Debug, Default)]
    struct Half {
        deposits: Vec<(ObjectId, u64)>,
        prepared: bool,
    }

    /// What the fleet should hold, in ordered maps.
    #[derive(Default)]
    struct Model {
        next_gtid: u64,
        live: BTreeMap<u64, BTreeMap<usize, Half>>,
        /// Per shard, the prepared deposits held in doubt by gtid.
        doubt: [BTreeMap<u64, Vec<(ObjectId, u64)>>; SHARDS],
        committed: BTreeSet<u64>,
        balance: BTreeMap<ObjectId, u64>,
    }

    impl Model {
        fn apply(&mut self, deposits: &[(ObjectId, u64)]) {
            for &(obj, amount) in deposits {
                *self.balance.entry(obj).or_default() += amount;
            }
        }

        /// Shard `s` journals and applies a decision for `gtid`, if it holds
        /// it in doubt.
        fn decide_on(&mut self, s: usize, gtid: u64, commit: bool) {
            if let Some(deposits) = self.doubt[s].remove(&gtid) {
                if commit {
                    self.apply(&deposits);
                }
            }
        }

        /// Drop `gtid`'s half on `s` from the live table, and the entry once
        /// no half is left.
        fn settle(&mut self, gtid: u64, s: usize) {
            if let Some(parts) = self.live.get_mut(&gtid) {
                parts.remove(&s);
                if parts.is_empty() {
                    self.live.remove(&gtid);
                }
            }
        }

        /// Abort `gtid` everywhere: prepared halves get an abort decision,
        /// unprepared ones lose their deposits.
        fn abort(&mut self, gtid: u64) {
            for (s, half) in self.live.remove(&gtid).unwrap_or_default() {
                if half.prepared {
                    self.decide_on(s, gtid, false);
                }
            }
        }

        fn prepare(&mut self, gtid: u64) {
            let parts = self.live.get_mut(&gtid).expect("a live transaction");
            for (&s, half) in parts.iter_mut() {
                half.prepared = true;
                let held = self.doubt[s].insert(gtid, half.deposits.clone());
                assert!(held.is_none(), "gtid {gtid} prepared twice on shard {s}");
            }
        }

        /// Any id up to the next one, the newest live transaction, or any
        /// live one.
        fn pick(&self, at: u16) -> u64 {
            let newest = self.live.keys().next_back().copied();
            match (at % 4, newest) {
                (1, Some(newest)) => newest,
                (2 | 3, Some(_)) => {
                    *self.live.keys().nth(usize::from(at) % self.live.len()).expect("in range")
                }
                _ => u64::from(at) % (self.next_gtid + 1),
            }
        }

        fn any_prepared(&self, gtid: u64) -> bool {
            self.live.get(&gtid).is_some_and(|parts| parts.values().any(|h| h.prepared))
        }
    }

    fn fleet() -> Fleet {
        ShardedSystem::new_with(SHARDS, |_| {
            DurableSystem::new(BankAccount::default(), OBJECTS, bank_nrbc())
        })
    }

    /// Run `step` on both; `Ok(false)` if its precondition ruled it out.
    fn run(fleet: &mut Fleet, model: &mut Model, step: &Step) -> Result<bool, TestCaseError> {
        match *step {
            Step::Invoke(at, obj, amount) => {
                let (gtid, obj) = (model.pick(at), ObjectId(obj));
                let s = fleet.shard_of(obj);
                let Some(parts) = model.live.get_mut(&gtid) else {
                    prop_assert!(fleet.invoke_global(gtid, obj, BankInv::Deposit(amount)).is_err());
                    return Ok(true);
                };
                if parts.values().any(|h| h.prepared) || model.committed.contains(&gtid) {
                    return Ok(false); // an operation after the vote
                }
                parts.entry(s).or_default().deposits.push((obj, amount));
                prop_assert!(fleet.invoke_global(gtid, obj, BankInv::Deposit(amount)).is_ok());
            }
            Step::Prepare(at) => {
                let gtid = model.pick(at);
                if model.any_prepared(gtid) {
                    return Ok(false); // a participant votes once
                }
                let live = model.live.contains_key(&gtid);
                if live {
                    model.prepare(gtid);
                }
                prop_assert_eq!(fleet.prepare_all(gtid).is_ok(), live);
            }
            Step::Decide(at) => {
                let gtid = model.pick(at);
                match model.live.get(&gtid) {
                    Some(parts) if parts.values().all(|h| h.prepared) => {
                        model.committed.insert(gtid);
                        fleet.decide_commit(gtid);
                    }
                    _ => return Ok(false), // commit needs every yes-vote
                }
            }
            Step::Resolve(at, s, commit) => {
                let gtid = model.pick(at);
                let half = model.live.get(&gtid).and_then(|parts| parts.get(&s));
                if half.is_some_and(|h| !h.prepared) {
                    return Ok(false); // only a preparee awaits a decision
                }
                model.decide_on(s, gtid, commit);
                model.settle(gtid, s);
                prop_assert!(fleet.resolve_participant(gtid, s, commit).is_ok());
            }
            Step::Abort(at) => {
                let gtid = model.pick(at);
                model.abort(gtid);
                fleet.abort_global(gtid);
            }
            Step::Commit(at) => {
                let gtid = model.pick(at);
                if model.any_prepared(gtid) {
                    return Ok(false);
                }
                let Some(parts) = model.live.get(&gtid) else {
                    prop_assert!(fleet.commit_global(gtid).is_err());
                    return Ok(true);
                };
                let shards: Vec<usize> = parts.keys().copied().collect();
                if shards.len() >= 2 {
                    model.prepare(gtid);
                    model.committed.insert(gtid);
                    for s in shards {
                        model.decide_on(s, gtid, true);
                        model.settle(gtid, s);
                    }
                } else {
                    let parts = model.live.remove(&gtid).expect("live");
                    parts.values().for_each(|h| model.apply(&h.deposits));
                }
                prop_assert!(fleet.commit_global(gtid).is_ok());
            }
            Step::CrashSubset(mask) => {
                let doomed: Vec<u64> = model
                    .live
                    .iter()
                    .filter(|(_, parts)| {
                        parts.iter().any(|(&s, h)| mask & (1 << s) != 0 && !h.prepared)
                    })
                    .map(|(&g, _)| g)
                    .collect();
                doomed.into_iter().for_each(|g| model.abort(g));
                prop_assert!(fleet.crash_subset(mask).is_ok());
            }
            Step::CrashCoordinator => {
                model.live.clear();
                let newest = model.committed.last().copied();
                let doubt = model.doubt.iter().flat_map(|d| d.keys().copied());
                model.next_gtid = newest.into_iter().chain(doubt).max().unwrap_or(0) + 1;
                fleet.crash_coordinator();
            }
            Step::ResolveInDoubt => {
                let mut resolved = 0;
                for s in 0..SHARDS {
                    let held: Vec<u64> = model.doubt[s].keys().copied().collect();
                    for gtid in held {
                        let commit = model.committed.contains(&gtid);
                        model.decide_on(s, gtid, commit);
                        model.settle(gtid, s);
                        resolved += 1;
                    }
                }
                prop_assert_eq!(fleet.resolve_in_doubt(), resolved);
            }
        }
        Ok(true)
    }

    /// Every view of the bookkeeping the fleet offers, against the model.
    fn agree(fleet: &mut Fleet, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(fleet.next_gtid(), model.next_gtid);
        for gtid in 0..model.next_gtid + 2 {
            let parts: Vec<usize> = fleet.participants(gtid).into_iter().collect();
            let expected: Vec<usize> =
                model.live.get(&gtid).map(|p| p.keys().copied().collect()).unwrap_or_default();
            prop_assert_eq!(parts, expected, "participants of gtid {}", gtid);
            prop_assert_eq!(fleet.coordinator().decision(gtid), model.committed.contains(&gtid));
        }
        let log = fleet.coordinator();
        prop_assert!(log.committed().eq(model.committed.iter().copied()));
        prop_assert!(log.committed().rev().eq(model.committed.iter().rev().copied()));
        prop_assert_eq!(log.committed().next_back(), model.committed.last().copied());
        let mut all = BTreeSet::new();
        for (s, doubt) in model.doubt.iter().enumerate() {
            prop_assert!(fleet.shard(s).in_doubt().into_iter().eq(doubt.keys().copied()));
            all.extend(doubt.keys().copied());
        }
        prop_assert!(fleet.in_doubt().into_iter().eq(all));
        for s in 0..SHARDS {
            let owned: Vec<ObjectId> =
                (0..OBJECTS).filter(|o| *o as usize % SHARDS == s).map(ObjectId).collect();
            prop_assert_eq!(fleet.shard(s).system().object_ids(), owned, "shard {}", s);
        }
        for obj in (0..OBJECTS).map(ObjectId) {
            let s = fleet.shard_of(obj);
            let expected = model.balance.get(&obj).copied().unwrap_or(0);
            prop_assert_eq!(fleet.shard_mut(s).committed_state(obj), expected, "{:?}", obj);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random begin / invoke / prepare / decide / resolve / abort /
        /// commit / crash-subset / crash-coordinator / settle sequences leave
        /// the fleet's live table, in-doubt sets, decision log, id allocator
        /// and balances where ordered maps put through the same calls are.
        #[test]
        fn fleet_bookkeeping_agrees_with_a_map_model(rounds in rounds()) {
            let mut fleet = fleet();
            let mut model = Model { next_gtid: 1, ..Model::default() };
            let mut ran = 0;
            for steps in &rounds {
                prop_assert_eq!(fleet.begin_global(), model.next_gtid);
                model.live.insert(model.next_gtid, BTreeMap::new());
                model.next_gtid += 1;
                agree(&mut fleet, &model)?;
                for step in steps {
                    if run(&mut fleet, &mut model, step)? {
                        ran += 1;
                        agree(&mut fleet, &model)?;
                    }
                }
            }
            prop_assert!(model.committed.last().is_some_and(|&g| g > 128), "ids stayed below two words: {:?} {}", model.committed.last(), model.next_gtid);
            prop_assert!(ran > rounds.len(), "preconditions ruled out most steps");
        }
    }
}

/// Each object is its own unit of recovery, so a shard's recovery domain is
/// the objects the fleet routes to it: shard `s` of `N` holds, checkpoints
/// and rebuilds exactly `{o : o % N == s}` — after construction, after a
/// subset crash and its recovery, after a degrade rebuild and after a
/// checkpoint — while a routed read of any object still returns what a map
/// of the committed deposits says.
mod ownership {
    use std::collections::BTreeMap;

    use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr::core::conflict::FnConflict;
    use ccr::core::ids::ObjectId;
    use ccr::runtime::{DurableSystem, ShardedSystem, SystemMode, UipEngine};
    use ccr::store::{LogBackend, WalBackend, WalConfig};

    const OBJECTS: u32 = 24;

    type Fleet = ShardedSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;

    fn fleet(nshards: usize) -> Fleet {
        ShardedSystem::new_with(nshards, |_| {
            DurableSystem::with_backend(
                BankAccount::default(),
                OBJECTS,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            )
        })
    }

    fn owned(s: usize, nshards: usize) -> Vec<ObjectId> {
        (0..OBJECTS).filter(|o| *o as usize % nshards == s).map(ObjectId).collect()
    }

    /// Every shard holds its share, its durable checkpoint image (if any)
    /// lists only that share, and every object reads as `model` says.
    fn holds_its_share(fleet: &mut Fleet, model: &BTreeMap<ObjectId, u64>, at: &str) {
        let n = fleet.nshards();
        for s in 0..n {
            assert_eq!(fleet.shard(s).system().object_ids(), owned(s, n), "{at}: shard {s}");
            let log = fleet.shard(s).backend().read_log().expect("an intact log");
            if let Some(image) = log.checkpoint {
                let ids: Vec<ObjectId> = image.states.iter().map(|(o, _)| *o).collect();
                assert_eq!(ids, owned(s, n), "{at}: shard {s}'s checkpoint image");
            }
        }
        for obj in (0..OBJECTS).map(ObjectId) {
            let s = fleet.shard_of(obj);
            let want = model.get(&obj).copied().unwrap_or(0);
            assert_eq!(fleet.shard_mut(s).committed_state(obj), want, "{at}: {obj}");
        }
    }

    /// One global deposit at each of `objs`, committed and booked in `model`.
    fn deposit(fleet: &mut Fleet, model: &mut BTreeMap<ObjectId, u64>, objs: &[u32], amount: u64) {
        let g = fleet.begin_global();
        for &o in objs {
            fleet.invoke_global(g, ObjectId(o), BankInv::Deposit(amount)).unwrap();
        }
        fleet.commit_global(g).unwrap();
        for &o in objs {
            *model.entry(ObjectId(o)).or_default() += amount;
        }
    }

    #[test]
    fn a_shard_holds_checkpoints_and_rebuilds_only_the_objects_it_owns() {
        let mut model = BTreeMap::new();
        let mut sys = fleet(4);
        holds_its_share(&mut sys, &model, "construction");
        deposit(&mut sys, &mut model, &[0, 5, 10, 23], 3);
        deposit(&mut sys, &mut model, &[7], 2);
        for s in 0..4 {
            sys.shard_mut(s).checkpoint();
            assert!(sys.shard(s).backend().read_log().unwrap().checkpoint.is_some(), "shard {s}");
        }
        holds_its_share(&mut sys, &model, "checkpoint");
        deposit(&mut sys, &mut model, &[1, 2, 19], 4);
        sys.crash_subset(0b0101).unwrap();
        holds_its_share(&mut sys, &model, "subset crash");
        // Shard 1's device fills: its next commit degrades it, and the
        // degrade rebuilds the shard from its log.
        sys.shard_mut(1).backend_mut().disk_mut().set_full(true);
        let g = sys.begin_global();
        sys.invoke_global(g, ObjectId(9), BankInv::Deposit(100)).unwrap();
        assert!(sys.commit_global(g).is_err());
        assert_eq!(sys.shard(1).mode(), SystemMode::Degraded);
        holds_its_share(&mut sys, &model, "degrade rebuild");
        sys.shard_mut(1).backend_mut().disk_mut().heal();
        sys.shard_mut(1).checkpoint();
        assert_eq!(sys.shard(1).mode(), SystemMode::Normal);
        deposit(&mut sys, &mut model, &[9, 14], 5);
        sys.crash_subset(0b1111).unwrap();
        holds_its_share(&mut sys, &model, "whole-fleet crash");
    }

    #[test]
    fn a_one_shard_fleet_holds_every_object() {
        let mut model = BTreeMap::new();
        let mut sys = fleet(1);
        deposit(&mut sys, &mut model, &[0, 13, 23], 6);
        sys.shard_mut(0).checkpoint();
        sys.crash_subset(1).unwrap();
        holds_its_share(&mut sys, &model, "one shard");
        assert_eq!(sys.shard(0).system().object_ids().len(), OBJECTS as usize);
    }
}
