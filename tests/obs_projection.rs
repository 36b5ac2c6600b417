//! The `SystemStats` counters are maintained incrementally by the tracer's
//! `count(tally)` as observations are made — and `ccr::obs::project` counts
//! the tallies of the recorded event stream. These tests pin the refactor's
//! core invariant: on every scenario (policies, engines, every fault kind,
//! crash recovery) the projection of the recorded events equals the
//! incrementally maintained counters, i.e. the counters really are a pure
//! function of the trace.

use std::sync::{Arc, Barrier};

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
use ccr::core::adt::Adt;
use ccr::core::atomicity::SystemSpec;
use ccr::core::conflict::FnConflict;
use ccr::core::ids::ObjectId;
use ccr::obs::Tracer;
use ccr::runtime::crash::{DurableSystem, TornPolicy};
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine};
use ccr::runtime::fault::{FaultKind, FaultMix, FaultPlan, FaultSpec};
use ccr::runtime::scheduler::{run, RunReport, SchedulerCfg};
use ccr::runtime::script::{OpsScript, Script, Step};
use ccr::runtime::shard::ShardedSystem;
use ccr::runtime::sim::{run_sim, SimCfg};
use ccr::runtime::system::{ConflictPolicy, TxnSystem};
use ccr::runtime::threaded::{run_threaded, run_threaded_durable, GroupCommitCfg, ThreadedCfg};
use ccr::store::{WalBackend, WalConfig};
use ccr::workload::gen::{banking, WorkloadCfg};

include!("common/rendezvous.rs");

const X: ObjectId = ObjectId::SOLE;

fn scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
    (0..n)
        .map(|_| {
            Box::new(OpsScript::on(X, vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                as Box<dyn Script<BankAccount>>
        })
        .collect()
}

fn assert_projection_matches<A, E, C>(sys: &TxnSystem<A, E, C>)
where
    A: ccr::core::adt::Adt,
    E: ccr::runtime::engine::RecoveryEngine<A>,
    C: ccr::core::conflict::Conflict<A>,
{
    let obs = sys.obs();
    assert!(obs.record_events(), "projection needs the event stream");
    assert_eq!(
        obs.project_stats(),
        *obs.stats(),
        "projected counters must equal incrementally absorbed counters"
    );
}

#[test]
fn projection_matches_under_every_conflict_policy() {
    for policy in [ConflictPolicy::Block, ConflictPolicy::WoundWait, ConflictPolicy::NoWait] {
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc()).with_policy(policy);
        run(&mut sys, scripts(8), &SchedulerCfg { seed: 3, ..Default::default() });
        assert!(sys.stats().committed > 0);
        assert_projection_matches(&sys);
    }
}

#[test]
fn projection_matches_for_deferred_update_with_validation() {
    let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nfc());
    run(&mut sys, scripts(8), &SchedulerCfg { seed: 5, ..Default::default() });
    assert_projection_matches(&sys);
}

#[test]
fn projection_matches_across_every_fault_kind_and_crash_recovery() {
    let plan = FaultPlan::new(vec![
        FaultSpec { at_event: 2, kind: FaultKind::ForceAbort },
        FaultSpec { at_event: 5, kind: FaultKind::DelayCommit { rounds: 3 } },
        FaultSpec { at_event: 9, kind: FaultKind::TornCrash { drop_ops: 1 } },
        FaultSpec { at_event: 14, kind: FaultKind::WoundStorm },
        FaultSpec { at_event: 20, kind: FaultKind::Crash },
    ]);
    let spec = SystemSpec::single(BankAccount::default());

    let mut uip: DurableSystem<BankAccount, UipEngine<BankAccount>, _> =
        DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
    let r = run_sim(&mut uip, scripts(6), &plan, &SimCfg::default(), &spec, None).unwrap();
    assert_eq!(r.faults_injected, 5);
    assert!(uip.system().stats().crashes >= 1, "the plan's crashes must have fired");
    assert_projection_matches(uip.system());

    let mut du: DurableSystem<BankAccount, DuEngine<BankAccount>, _> =
        DurableSystem::new(BankAccount::default(), 1, bank_nfc());
    let r = run_sim(&mut du, scripts(6), &plan, &SimCfg::default(), &spec, None).unwrap();
    assert_eq!(r.faults_injected, 5);
    assert_projection_matches(du.system());
}

#[test]
fn run_report_semantics_agree_across_executors() {
    // The shared RunReport field semantics documented on the struct must
    // hold under both executors: the outcome partition covers every script,
    // blocked_ops never exceeds the raw block counter, admission_rounds is
    // zero when MPL is unlimited and positive when an MPL bound parks work
    // (on BOTH executors — the threaded one routes begins through the same
    // gate), and the threaded attempt identity
    // (rounds == committed + voluntary_aborts + retries) is exact.
    let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
    let r = run(&mut sys, scripts(8), &SchedulerCfg { seed: 3, ..Default::default() });
    assert_eq!(r.committed + r.voluntary_aborts + r.gave_up, 8);
    assert_eq!(r.admission_rounds, 0, "no admission control configured");
    assert!(r.blocked_ops <= r.stats.blocks);
    assert_eq!(r.stats.committed, r.committed);
    assert_projection_matches(&sys);

    let tsys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
    let (tr, tsys) = run_threaded(tsys, scripts(8), &ThreadedCfg::default());
    assert_eq!(tr.committed + tr.voluntary_aborts + tr.gave_up, 8);
    assert_eq!(tr.admission_rounds, 0, "no MPL bound configured");
    assert!(tr.blocked_ops <= tr.stats.blocks);
    assert_eq!(tr.stats.committed, tr.committed);
    assert_eq!(
        tr.rounds,
        tr.committed + tr.voluntary_aborts + tr.retries,
        "threaded attempt identity: {tr:?}"
    );
    assert_projection_matches(&tsys);

    // Bounded MPL: the hot-spot workload must park someone on each executor,
    // and every shared-semantics assertion still holds.
    let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
    let r = run(&mut sys, scripts(8), &SchedulerCfg { seed: 3, mpl: 1, ..Default::default() });
    assert_eq!(r.committed, 8);
    assert!(r.admission_rounds > 0, "MPL 1 must queue scheduler drivers");
    assert_projection_matches(&sys);

    // Someone must be parked for that: the first slot-holder leaves its
    // rendezvous four admission slices in, by when every other worker has
    // started and found the single slot taken.
    let tsys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
    let cfg = ThreadedCfg { mpl: 1, ..Default::default() };
    let gate = Arc::new(Barrier::new(2));
    let held = meeting_first(scripts(64), 1, 1, &gate);
    let (tr, tsys) = opened_after(&gate, 4 * cfg.wait_slice, || run_threaded(tsys, held, &cfg));
    assert_eq!(tr.committed, 64);
    assert!(tr.admission_rounds > 0, "MPL 1 must park threaded workers");
    assert_eq!(
        tr.rounds,
        tr.committed + tr.voluntary_aborts + tr.retries,
        "attempt identity under MPL: {tr:?}"
    );
    assert_projection_matches(&tsys);

    // Contention, on both threaded executors: two crosswise scripts that
    // meet once each holds its balance lock deadlock by construction. One is
    // the victim and retries; the first to ask for its deposit waited at
    // least one slice; the victim sleeps until the survivor has committed,
    // so nobody gives up; and the attempt identity still holds.
    let deadlocked_pair = || {
        let y = ObjectId(1);
        let pair: Vec<Box<dyn Script<BankAccount>>> = vec![
            Box::new(OpsScript::new(vec![(X, BankInv::Balance), (y, BankInv::Deposit(1))])),
            Box::new(OpsScript::new(vec![(y, BankInv::Balance), (X, BankInv::Deposit(1))])),
        ];
        meeting_first(pair, 2, 1, &Arc::new(Barrier::new(2)))
    };
    let two_accounts = || -> TxnSystem<BankAccount, UipEngine<BankAccount>, _> {
        TxnSystem::new(BankAccount::default(), 2, bank_nrbc())
    };
    let check = |r: &RunReport| {
        assert_eq!((r.committed, r.gave_up), (2, 0), "{r:?}");
        assert!(r.deadlock_aborts >= 1 && r.retries >= 1 && r.wait_rounds >= 1, "{r:?}");
        assert_eq!(r.rounds, r.committed + r.voluntary_aborts + r.retries, "{r:?}");
        assert!(r.blocked_ops <= r.stats.blocks);
        assert_eq!(r.stats.committed, r.committed);
    };
    let (tr, tsys) = run_threaded(two_accounts(), deadlocked_pair(), &ThreadedCfg::default());
    check(&tr);
    assert_projection_matches(&tsys);
    let run = run_threaded_durable(
        two_accounts(),
        WalBackend::new(WalConfig::default()),
        deadlocked_pair(),
        &ThreadedCfg::default(),
        &GroupCommitCfg::default(),
    );
    check(&run.report);
    assert_projection_matches(&run.sys);
}

/// The fault simulator drives the plain scheduler's executor: with no fault
/// to inject, `run_sim` over a durable system and `run` over a bare one are
/// the same function of (seed, scripts, policy, MPL, deadline) — the same
/// history, rounds, retries and deadlock victims. It is the test that keeps
/// a second scheduling loop from growing back (before PR 20 the two loops
/// agreed on every cell without a deadline and on a third of those with one:
/// a deadline victim sat out a different number of rounds in each).
#[test]
fn fault_free_sim_matches_plain_run() {
    fn twin<E: RecoveryEngine<BankAccount>>(
        pairing: &str,
        conflict: fn() -> FnConflict<BankAccount>,
    ) {
        let spec = SystemSpec::uniform(BankAccount::default(), 2);
        let mut restarted = 0;
        for policy in [ConflictPolicy::Block, ConflictPolicy::WoundWait, ConflictPolicy::NoWait] {
            for (seed, mpl, deadline) in
                (0..16).flat_map(|s| [(s, 0, 0), (s, 3, 0), (s, 0, 4), (s, 3, 4)])
            {
                let scripts = || {
                    let shape = WorkloadCfg {
                        txns: 10,
                        ops_per_txn: 3,
                        objects: 2,
                        hot_fraction: 0.8,
                        seed,
                    };
                    banking(&shape, 0.8)
                };
                let mut plain: TxnSystem<BankAccount, E, _> =
                    TxnSystem::new(BankAccount::default(), 2, conflict()).with_policy(policy);
                let cfg = SchedulerCfg { seed, mpl, deadline, ..Default::default() };
                let r = run(&mut plain, scripts(), &cfg);
                let mut durable: DurableSystem<BankAccount, E, _> =
                    DurableSystem::new(BankAccount::default(), 2, conflict());
                durable.system_mut().set_policy(policy);
                let cfg = SimCfg { seed, mpl, deadline, ..Default::default() };
                let s = run_sim(&mut durable, scripts(), &FaultPlan::none(), &cfg, &spec, None)
                    .expect("a correct pairing passes the oracle");
                assert_eq!(
                    (plain.trace().fingerprint(), r.rounds, r.retries, r.deadlock_aborts),
                    (
                        durable.system().trace().fingerprint(),
                        s.rounds,
                        s.retries,
                        s.deadlock_aborts
                    ),
                    "{pairing} {policy:?} seed {seed} mpl {mpl} deadline {deadline}"
                );
                assert_eq!((r.committed, r.gave_up), (s.committed, s.gave_up));
                restarted += u64::from(r.retries > 0);
            }
        }
        assert!(
            restarted > 96,
            "{pairing}: the cells must restart scripts ({restarted} of 192 do)"
        );
    }
    twin::<UipEngine<BankAccount>>("UIP+NRBC", bank_nrbc);
    twin::<DuEngine<BankAccount>>("DU+NFC", bank_nfc);
}

#[test]
fn projection_is_neutral_to_group_flush_events() {
    // A disk-backed group-commit run emits GroupFlush events; they feed the
    // histograms only, so the counter projection must still match.
    let spec = SystemSpec::uniform(BankAccount::default(), 6);
    let mut sys: DurableSystem<BankAccount, UipEngine<BankAccount>, _, WalBackend<BankAccount>> =
        DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
    let scripts: Vec<Box<dyn Script<BankAccount>>> = (0..6)
        .map(|i| {
            Box::new(OpsScript::on(ObjectId(i), vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                as Box<dyn Script<BankAccount>>
        })
        .collect();
    let cfg = SimCfg { group_commit: true, ..Default::default() };
    run_sim(&mut sys, scripts, &FaultPlan::none(), &cfg, &spec, None).unwrap();
    let flushes =
        sys.system().obs().events().iter().filter(|e| e.kind_name() == "group_flush").count();
    assert!(flushes >= 1, "the group-commit path must have flushed");
    assert_projection_matches(sys.system());
}

#[test]
fn projection_matches_on_seeded_fault_plans() {
    // Seeded plans mix fault kinds and land on arbitrary event indices —
    // a broader net than the hand-picked plan above.
    let spec = SystemSpec::single(BankAccount::default());
    for seed in 0..8 {
        let plan = FaultPlan::from_seed(seed, 40, 4, FaultMix::Storage);
        let mut sys: DurableSystem<BankAccount, UipEngine<BankAccount>, _> =
            DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        run_sim(&mut sys, scripts(6), &plan, &SimCfg { seed, ..Default::default() }, &spec, None)
            .unwrap();
        assert_projection_matches(sys.system());
    }
}

/// A counters-only run (`set_record_events(false)`) is its recording twin
/// minus the events: the same clock, counters, histograms and phase
/// profiles, nothing recorded and nothing attributed. Recording decides
/// only whether an observation's event is built, never what it counts.
#[test]
fn counters_only_run_equals_its_recording_twin() {
    fn assert_twins(loud: &Tracer, quiet: &Tracer, what: &str) {
        assert!(loud.record_events() && !quiet.record_events(), "{what}");
        assert_eq!(loud.project_stats(), *loud.stats(), "{what}");
        assert_eq!(loud.stats(), quiet.stats(), "{what}: counters");
        assert_eq!(loud.clock(), quiet.clock(), "{what}: clock");
        type Histogram = fn(&Tracer) -> &ccr::obs::LogHistogram;
        let histograms: [(&str, Histogram); 11] = [
            ("op_latency", Tracer::op_latency),
            ("lock_wait", Tracer::lock_wait),
            ("time_to_commit", Tracer::time_to_commit),
            ("replay_len", Tracer::replay_len),
            ("scan_len", Tracer::scan_len),
            ("batch_size", Tracer::batch_size),
            ("flush_latency", Tracer::flush_latency),
            ("retry_backoff", Tracer::retry_backoff),
            ("retry_jitter", Tracer::retry_jitter),
            ("stall_latency", Tracer::stall_latency),
            ("prepare_to_decide", Tracer::prepare_to_decide),
        ];
        for (name, of) in histograms {
            assert_eq!(of(loud), of(quiet), "{what}: {name}");
        }
        assert_eq!(loud.phase_profiles(), quiet.phase_profiles(), "{what}: phases");
        assert_eq!(loud.events().len() as u64, loud.clock(), "{what}: one event per tick");
        assert!(quiet.events().is_empty(), "{what}: the quiet side records nothing");
        assert!(quiet.conflict_matrix().is_empty(), "{what}: the matrix is recording-only");
    }

    fn scheduled<E: RecoveryEngine<BankAccount>>(
        pairing: &str,
        conflict: fn() -> FnConflict<BankAccount>,
    ) {
        for policy in [ConflictPolicy::Block, ConflictPolicy::WoundWait, ConflictPolicy::NoWait] {
            let mut blocks = 0;
            for seed in 0..20 {
                let side = |record: bool| {
                    let mut sys: TxnSystem<BankAccount, E, _> =
                        TxnSystem::new(BankAccount::default(), 2, conflict()).with_policy(policy);
                    sys.obs_mut().set_record_events(record);
                    let shape = WorkloadCfg {
                        txns: 12,
                        ops_per_txn: 3,
                        objects: 2,
                        hot_fraction: 0.8,
                        seed,
                    };
                    run(
                        &mut sys,
                        banking(&shape, 0.8),
                        &SchedulerCfg { seed, ..Default::default() },
                    );
                    sys.take_obs()
                };
                let (loud, quiet) = (side(true), side(false));
                assert_twins(&loud, &quiet, &format!("{pairing} {policy:?} seed {seed}"));
                blocks += quiet.stats().blocks;
            }
            assert!(
                blocks > 0 || policy == ConflictPolicy::NoWait,
                "{pairing} {policy:?}: the twins must contend"
            );
        }
    }
    scheduled::<UipEngine<BankAccount>>("UIP+NRBC", bank_nrbc);
    scheduled::<DuEngine<BankAccount>>("DU+NFC", bank_nfc);

    type OnDisk = DurableSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;
    fn on_disk(record: bool) -> OnDisk {
        let wal = WalBackend::new(WalConfig::default());
        let mut sys = DurableSystem::with_backend(BankAccount::default(), 2, bank_nrbc(), wal);
        sys.system_mut().obs_mut().set_record_events(record);
        sys
    }

    // The durable path: checkpoint, group flush, an absorbed transient I/O
    // burst, and a recovery that scans the log.
    let durable = |record: bool| {
        let mut sys = on_disk(record);
        let deposit = |sys: &mut OnDisk, obj: u32| {
            let t = sys.begin();
            sys.invoke(t, ObjectId(obj), BankInv::Deposit(3)).unwrap();
            t
        };
        let t = deposit(&mut sys, 0);
        sys.commit(t).unwrap();
        sys.checkpoint();
        let batch = [deposit(&mut sys, 0), deposit(&mut sys, 1)];
        assert!(sys.commit_group(&batch).iter().all(Result::is_ok));
        sys.backend_mut().disk_mut().arm_transient_errors(2);
        let t = deposit(&mut sys, 1);
        sys.commit(t).unwrap();
        sys.crash_and_recover_with(TornPolicy::DiscardTail).unwrap();
        sys.system_mut().take_obs()
    };
    let (loud, quiet) = (durable(true), durable(false));
    assert_twins(&loud, &quiet, "durable");
    let s = quiet.stats();
    assert!(s.checkpoints == 1 && s.io_retries >= 1 && s.crashes == 1, "{s:?}");
    assert_eq!((quiet.batch_size().count(), quiet.scan_len().count()), (1, 1));

    // The 2PC path: a cross-shard commit, then one whose first participant
    // dies in doubt and settles from the decision record.
    let sharded = |record: bool| {
        let mut fleet = ShardedSystem::new_with(2, |_| on_disk(record));
        for in_doubt in [false, true] {
            let g = fleet.begin_global();
            fleet.invoke_global(g, ObjectId(0), BankInv::Deposit(10)).unwrap();
            fleet.invoke_global(g, ObjectId(1), BankInv::Deposit(20)).unwrap();
            if !in_doubt {
                fleet.commit_global(g).unwrap();
                continue;
            }
            fleet.prepare_all(g).unwrap();
            fleet.crash_subset(0b01).unwrap();
            fleet.decide_commit(g);
            fleet.resolve_participant(g, 1, true).unwrap();
            assert_eq!(fleet.resolve_in_doubt(), 1);
        }
        [0, 1].map(|i| fleet.shard_mut(i).system_mut().take_obs())
    };
    let (loud, quiet) = (sharded(true), sharded(false));
    for i in 0..2 {
        assert_twins(&loud[i], &quiet[i], &format!("shard {i}"));
    }
    let s = quiet[0].stats();
    assert!(s.prepares == 2 && s.decides == 2 && s.in_doubt == 1 && s.resolved == 1, "{s:?}");
    assert_eq!(quiet[0].prepare_to_decide().count(), 1);
}
