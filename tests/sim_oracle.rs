//! Acceptance tests for the deterministic fault-injection simulator, driven
//! through the public facade crate exactly as the `ccr-experiments sim` CLI
//! drives it: determinism of `(seed, FaultPlan)` runs, detection + shrinking
//! of a deliberately weakened conflict relation, and torn-write crashes
//! surfacing as `RedoError`s rather than silent state divergence.

use ccr::runtime::fault::FaultPlan;
use ccr::runtime::oracle::Surfaced;
use ccr::workload::sim::{
    run, run_scenario, run_scenario_traced, sweep, Backend, Combo, SimScenario, Sweep,
};

/// Same `(seed, FaultPlan)` ⇒ identical run reports (which embed the
/// history fingerprint and every per-fault-kind counter), run twice through
/// the full public pipeline.
#[test]
fn same_seed_and_plan_give_identical_reports() {
    let plan: FaultPlan = "5:crash,11:torn1,17:abort,23:delay2,29:wound".parse().unwrap();
    for combo in [Combo::UipNrbc, Combo::DuNfc, Combo::EscrowUipNrbc] {
        let scenario = SimScenario::new(combo, 42, plan.clone());
        let a = run_scenario(&scenario).expect("correct pairing must pass the oracle");
        let b = run_scenario(&scenario).expect("correct pairing must pass the oracle");
        assert_eq!(a, b, "report must be identical across runs of {combo}");
        assert!(a.faults_injected > 0, "the plan must actually fire on {combo}");
    }
}

/// The `SystemStats` counters are now a projection of the tracer's event
/// stream; a traced run (events recorded, artifacts rendered) must report
/// exactly the counters the untraced legacy path reports, and event
/// recording must not perturb the run itself.
#[test]
fn traced_runs_report_the_legacy_counters() {
    let plan: FaultPlan = "5:crash,11:torn1,17:abort,23:delay2,29:wound".parse().unwrap();
    for combo in [Combo::UipNrbc, Combo::DuNfc, Combo::EscrowUipNrbc] {
        let scenario = SimScenario::new(combo, 42, plan.clone());
        let untraced = run_scenario(&scenario).expect("correct pairing must pass the oracle");
        let (traced, artifacts) = run_scenario_traced(&scenario);
        let traced = traced.expect("correct pairing must pass the oracle");
        assert_eq!(untraced, traced, "recording events must not perturb the run of {combo}");
        assert_eq!(
            artifacts.metrics.stats, untraced.stats,
            "metrics stats must equal the legacy counters on {combo}"
        );
        assert!(artifacts.chrome.contains("\"recovery\""), "{combo}: crash must be traced");
    }
}

/// The weakened relation (symmetric-FC under update-in-place recovery) is
/// caught by the oracle within a bounded seed sweep, and the shrinker
/// reduces the failure to at most three live transactions whose reproducer
/// still fails.
#[test]
fn weakened_relation_is_caught_and_shrunk() {
    let template = SimScenario::new(Combo::UipSymNfc, 0, FaultPlan::none());
    let hunt = Sweep { horizon: 60, faults: 4, ..Sweep::new(template, 64) };
    let f = sweep(&hunt).expect("weakened combo must be caught");
    assert!(f.shrunk.live_txns() <= 3, "reproducer too large: {}", f.shrunk.reproducer());
    assert!(
        run(&f.shrunk).is_err(),
        "shrunk reproducer must still fail: {}",
        f.shrunk.reproducer()
    );
}

/// Acceptance sweep for the sixth oracle leg (recovery convergence): 32
/// seeds per configuration on the disk backend, with and without group
/// commit, each run ending with crashes injected at every device-op index
/// of recovery itself. Every eventual recovery must reproduce the baseline
/// outcome, under both the update-in-place and deferred-update pairings.
#[test]
fn recovery_convergence_survives_a_32_seed_sweep() {
    for combo in [Combo::UipNrbc, Combo::DuNfc] {
        for group_commit in [false, true] {
            let mut template = SimScenario::new(combo, 0, FaultPlan::none());
            template.cfg.group_commit = group_commit;
            template.cfg.fault_during_recovery = true;
            let cells = Sweep { horizon: 60, faults: 4, ..Sweep::new(template, 32) };
            assert!(
                sweep(&cells).is_none(),
                "recovery convergence failed for {combo} (group_commit: {group_commit})"
            );
        }
    }
}

/// Negative control for the convergence leg, end to end through the
/// runtime: a recovery that forgets the epoch bump reuses batch ids across
/// the crash boundary, and the probe must refuse it rather than converge.
#[test]
fn skipped_epoch_bump_divergence_is_caught_by_the_convergence_leg() {
    use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr::core::conflict::FnConflict;
    use ccr::core::ids::ObjectId;
    use ccr::runtime::crash::DurableSystem;
    use ccr::runtime::engine::UipEngine;
    use ccr::store::{LogBackend, TailPolicy, WalBackend, WalConfig};

    let mut sys: DurableSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    > = DurableSystem::with_backend(
        BankAccount::default(),
        2,
        bank_nrbc(),
        WalBackend::new(WalConfig::default()),
    );
    for i in 0..3u32 {
        let t = sys.begin();
        sys.invoke(t, ObjectId(i % 2), BankInv::Deposit(u64::from(i) + 1)).unwrap();
        sys.commit(t).unwrap();
    }
    let ok = sys
        .backend_mut()
        .check_recovery_convergence(TailPolicy::DiscardTail)
        .expect("a faithful recovery must converge");
    assert!(ok.trials > 0, "the probe must exercise at least one nested crash");

    sys.backend_mut().set_skip_epoch_bump(true);
    let err = sys
        .backend_mut()
        .check_recovery_convergence(TailPolicy::DiscardTail)
        .expect_err("skipping the epoch bump must be caught");
    assert!(err.reason.contains("epoch"), "unexpected divergence reason: {}", err.reason);
}

/// Parse a `sim` command line exactly as the CLI does.
fn scenario(flags: &str) -> SimScenario {
    let args: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
    SimScenario::parse_args(&args, |_, _| Ok(false)).expect("a well-formed sim command line")
}

/// ROADMAP item 8, red from PR 14 to PR 15: a crash (or a degrade) after a
/// checkpoint rebuilds the system from the checkpoint image, and the
/// recorded history restarts from there — but the history leg judged it
/// against objects starting at `initial()`, so any response that was only
/// legal thanks to the image's balance read as a dynamic-atomicity
/// violation. The leg is now seeded from the image the trace epoch was
/// rebuilt from; these four runs (checkpoint-then-crash on both backends, a
/// degrade-rebuild under group commit, a storage tear across a checkpoint on
/// escrow) are correct pairings and must pass.
#[test]
fn histories_that_restart_from_a_checkpoint_image_pass_the_history_leg() {
    for flags in [
        "--combo uip-nrbc --policy wound --seed 7 --txns 16 --objects 4 --ckpt 4 --faults 78:crash",
        "--combo uip-nrbc --policy wound --seed 7 --txns 16 --objects 4 --ckpt 4 --backend mem \
         --faults 78:crash",
        "--combo du-nfc --seed 5 --group-commit --faults 25:full,53:crash",
        "--combo escrow-uip-nrbc --seed 7 --objects 4 --ckpt 4 --faults 24:sect1,40:flip4093",
    ] {
        let scenario = scenario(flags);
        if let Err(failure) = run(&scenario) {
            panic!("{failure}\n  {}", scenario.reproducer());
        }
    }
}

/// The other direction: seeding the history leg from the checkpoint image
/// must not blind it. Three checkpoints precede this run's crash, the
/// weakened relation then commits a serially impossible response in the
/// epoch rebuilt from the third image, and the leg must still refuse it.
#[test]
fn a_non_atomic_history_across_a_checkpoint_still_fails_the_history_leg() {
    let scenario = scenario(
        "--combo uip-sym-nfc --policy wound --seed 13 --txns 16 --objects 2 --ckpt 2 \
         --faults 60:crash",
    );
    let (result, artifacts) = run_scenario_traced(&scenario);
    let failure = result.expect_err("the weakened relation must be caught after the rebuild");
    assert_eq!(failure.kind(), "not-dynamic-atomic", "wrong leg fired: {failure}");
    let Surfaced::Event(at) = failure.at else { panic!("one domain surfaces at an event") };
    assert!(at > 60, "the refuted epoch must be the post-crash one: {failure}");
    let first = |name: &str| artifacts.chrome.find(&format!("\"name\":\"{name}\""));
    assert!(
        first("checkpoint").expect("checkpoints traced") < first("fault").expect("crash traced"),
        "a checkpoint must precede the crash for the epoch to start from an image"
    );
}

/// A finished driver used to keep its `TxnId`, a rebuilt system numbers
/// transactions from the floor its log gives it, and the simulator found
/// "the driver of transaction t" by first match — so after a recovery a
/// finished script's stale handle answered for a live transaction, and the
/// verdict still read `pass` (PR 20; two pinned runs). In this one, at round
/// 25 a batch member's `Ok` for `T1` went to driver 0, which had finished in
/// an earlier epoch as a `T1` of its own, instead of the staged driver 1,
/// whose script then ran — and committed — again: 11 acknowledged commits
/// for 10 scripts.
#[test]
fn a_batch_acknowledgement_is_not_taken_by_a_finished_namesake() {
    let scenario = scenario(
        "--combo uip-nrbc --policy block --seed 14 --txns 10 --ops 3 --objects 2 --backend disk \
         --ckpt 3 --group-commit --faults 4:sect1,8:crash,38:delay3,45:sect2,51:flip372626",
    );
    let report = run_scenario(&scenario).expect("a correct pairing passes the oracle");
    assert_eq!(report.committed, 10);
    assert_eq!(report.commit_latency_rounds.len(), 10, "one acknowledgement per script");
    assert_eq!(report.stats.committed, 10, "and one commit per acknowledgement");
}

/// The other face of the stale handle: the wrong driver took a victim's
/// restart, the live one's next `invoke` was refused `NotActive`, and its
/// script was silently given up with half its retry budget unused — a
/// refusal, not an exhausted budget (`committed 9, gave_up 1`).
#[test]
fn a_victims_restart_is_not_taken_by_a_finished_namesake() {
    let scenario = scenario(
        "--combo escrow-uip-nrbc --policy block --seed 27 --txns 10 --ops 3 --objects 2 \
         --backend disk --faults 6:wound,11:full,11:crash,13:flip1131,57:sect2",
    );
    let report = run_scenario(&scenario).expect("a correct pairing passes the oracle");
    assert_eq!((report.committed, report.gave_up), (10, 0), "{} retries", report.retries);
}

// ---------------------------------------------------------------------------
// Mutation-style negative controls: one seeded bug per oracle leg, each
// asserting that *this* leg — not a test-side recomputation — flags it.
// `tests/mc_props.rs` holds the model-checker counterparts: the `ccr-mc`
// explorer catches the same bug classes (drop-acked-commit, reorder,
// resurrection, skipped epoch bump) with minimized replayable traces.
// Leg 1 (dynamic atomicity) is controlled by
// `weakened_relation_is_caught_and_shrunk` above: the deliberately
// symmetric conflict relation is exactly the §6.3 seeded bug, and the
// sweep's first failure is `NotDynamicAtomic`.
// ---------------------------------------------------------------------------

mod leg_controls {
    use std::collections::BTreeMap;

    use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv, BankResp};
    use ccr::core::adt::Op;
    use ccr::core::atomicity::SystemSpec;
    use ccr::core::conflict::FnConflict;
    use ccr::core::ids::ObjectId;
    use ccr::runtime::fault::{FaultKind, FaultPlan, FaultSpec};
    use ccr::runtime::oracle::Violation;
    use ccr::runtime::script::{OpsScript, Script};
    use ccr::runtime::sim::{run_sim, SimCfg};
    use ccr::runtime::{DuEngine, DurableSystem, UipEngine};
    use ccr::store::{CommitRecord, LogBackend, WalBackend, WalConfig};

    type DiskUip = DurableSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;
    type DiskDu = DurableSystem<
        BankAccount,
        DuEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;

    const X: ObjectId = ObjectId(0);
    /// Larger than any balance the scripts can reach, so a forged
    /// `withdraw(HUGE)` refuses wherever the replay puts it.
    const HUGE: u64 = 1 << 40;

    fn fresh_uip() -> DiskUip {
        DurableSystem::with_backend(
            BankAccount::default(),
            1,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        )
    }

    fn scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
        (0..n)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    fn spec() -> SystemSpec<BankAccount> {
        SystemSpec::single(BankAccount::default())
    }

    fn one_crash() -> FaultPlan {
        FaultPlan::new(vec![FaultSpec { at_event: 10, kind: FaultKind::Crash }])
    }

    /// Leg 1 across a rebuild: with balance 5 folded into a checkpoint
    /// image, a crash restarts the recorded history from that image, and a
    /// committed `withdraw(4) → Ok` — impossible from the empty account — is
    /// serial from it. The history leg must judge the epoch from the image
    /// it was rebuilt from.
    #[test]
    fn history_leg_starts_each_epoch_from_the_image_it_was_rebuilt_from() {
        let mut sys = fresh_uip();
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
        sys.commit(t).unwrap();
        sys.checkpoint();
        let withdraw: Vec<Box<dyn Script<BankAccount>>> =
            vec![Box::new(OpsScript::on(X, vec![BankInv::Withdraw(4)]))];
        let crash_first = FaultPlan::new(vec![FaultSpec { at_event: 1, kind: FaultKind::Crash }]);
        run_sim(&mut sys, withdraw, &crash_first, &SimCfg::default(), &spec(), None)
            .expect("a withdrawal the image covers is serial from the image");
        assert_eq!(sys.committed_state(X), 1);
    }

    /// ... and only from that image: under the weakened relation a
    /// `withdraw(7)` reads through an uncommitted `deposit(3)` on top of the
    /// image's 5; a fault aborting the depositor leaves a committed response
    /// that is not serial from 5 either. Seeding the leg must not excuse it.
    #[test]
    fn history_leg_still_refutes_a_non_atomic_epoch_rebuilt_from_an_image() {
        use ccr::core::conflict::SymmetricClosure;
        type Weak = DurableSystem<
            BankAccount,
            UipEngine<BankAccount>,
            SymmetricClosure<FnConflict<BankAccount>>,
            WalBackend<BankAccount>,
        >;
        let mut caught = 0;
        for seed in 0..32u64 {
            for abort_at in 2..12u64 {
                let mut sys: Weak = DurableSystem::with_backend(
                    BankAccount::default(),
                    1,
                    SymmetricClosure(bank_nfc()),
                    WalBackend::new(WalConfig::default()),
                );
                let t = sys.begin();
                sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
                sys.commit(t).unwrap();
                sys.checkpoint();
                let scripts: Vec<Box<dyn Script<BankAccount>>> = vec![
                    Box::new(OpsScript::on(X, vec![BankInv::Deposit(3)])),
                    Box::new(OpsScript::on(X, vec![BankInv::Withdraw(7)])),
                ];
                let plan = FaultPlan::new(vec![
                    FaultSpec { at_event: 1, kind: FaultKind::Crash },
                    FaultSpec { at_event: abort_at, kind: FaultKind::ForceAbort },
                ]);
                let cfg = SimCfg { seed, ..Default::default() };
                if let Err(e) = run_sim(&mut sys, scripts, &plan, &cfg, &spec(), None) {
                    assert!(
                        matches!(e.violation, Violation::NotDynamicAtomic(_)),
                        "wrong leg fired: {}",
                        e.violation
                    );
                    caught += 1;
                }
            }
        }
        assert!(caught > 0, "the read-through must be refuted from the image within the sweep");
    }

    /// Leg 2 (journal equieffectivity): a WAL record whose recorded
    /// response is serially impossible — `withdraw(HUGE) → Ok` on an empty
    /// account — must be refused by the replay's response check when a
    /// crash forces the journal to be rebuilt from the log. The mc
    /// counterpart is `Mutation::ResurrectAborted` (a forged record the
    /// decode/presence invariant rejects).
    #[test]
    fn forged_impossible_response_is_refused_by_replay() {
        let mut sys = fresh_uip();
        let forged = CommitRecord {
            floor: 50,
            ops: vec![(500, X, Op::new(BankInv::Withdraw(HUGE), BankResp::Ok))],
        };
        sys.backend_mut().append_commit(&forged).unwrap();
        let err = run_sim(&mut sys, scripts(4), &one_crash(), &SimCfg::default(), &spec(), None)
            .expect_err("a serially impossible journal record must not replay");
        let replay_refused = |detail: &str| {
            detail.starts_with("ResponseDiverged") || detail.starts_with("ReplayRefused")
        };
        assert!(
            match &err.violation {
                Violation::RecoveryRefused(detail) => replay_refused(detail),
                other => matches!(other, Violation::ShadowRefused { .. }),
            },
            "wrong leg fired: {}",
            err.violation
        );
    }

    /// Leg 3 (committed-prefix durability): a committed effect appearing
    /// from nowhere — a forged but serially *legal* deposit record — makes
    /// post-recovery state differ from the pre-crash snapshot, and the
    /// crash-state leg must say so. The mc counterpart is
    /// `Mutation::DropAckedCommit` (the same leg, in the losing direction).
    #[test]
    fn forged_committed_effect_is_caught_by_the_crash_state_leg() {
        let mut sys = fresh_uip();
        let forged = CommitRecord {
            floor: 50,
            ops: vec![(500, X, Op::new(BankInv::Deposit(7), BankResp::Ok))],
        };
        sys.backend_mut().append_commit(&forged).unwrap();
        let err = run_sim(&mut sys, scripts(4), &one_crash(), &SimCfg::default(), &spec(), None)
            .expect_err("recovery must not invent committed state");
        assert!(
            matches!(err.violation, Violation::CrashStateMismatch { .. }),
            "wrong leg fired: {}",
            err.violation
        );
    }

    /// Leg 4 (caller-supplied state invariant): a workload that leaks units
    /// against a conservation invariant must be reported as
    /// `InvariantViolated` with the invariant's own detail string.
    #[test]
    fn conservation_invariant_violations_are_reported() {
        let mut sys = fresh_uip();
        let inv = |states: &BTreeMap<ObjectId, u64>| -> Result<(), String> {
            let total: u64 = states.values().sum();
            if total == 0 {
                Ok(())
            } else {
                Err(format!("leaked {total} units"))
            }
        };
        let err = run_sim(
            &mut sys,
            scripts(4),
            &FaultPlan::none(),
            &SimCfg::default(),
            &spec(),
            Some(&inv),
        )
        .expect_err("the leaking workload must violate the conservation invariant");
        match err.violation {
            Violation::InvariantViolated(detail) => {
                assert!(detail.contains("leaked"), "wrong detail: {detail}")
            }
            other => panic!("wrong leg fired: {other}"),
        }
    }

    /// Leg 5 (recovery-view agreement): two forged records whose commit
    /// order is `deposit(HUGE); withdraw(HUGE)` (a legal, state-neutral DU
    /// fold) but whose execution sequence numbers put the withdrawal
    /// *first* (refused in the UIP view). Since the net effect is zero the
    /// durability leg stays quiet, and the view-agreement leg must be the
    /// one to flag the divergence. The mc explorer runs this same
    /// UIP-vs-DU comparison after every recovery.
    #[test]
    fn inverted_exec_order_is_caught_by_the_view_agreement_leg() {
        let mut sys: DiskDu = DurableSystem::with_backend(
            BankAccount::default(),
            1,
            bank_nfc(),
            WalBackend::new(WalConfig::default()),
        );
        let dep = CommitRecord {
            floor: 50,
            ops: vec![(999, X, Op::new(BankInv::Deposit(HUGE), BankResp::Ok))],
        };
        let wd = CommitRecord {
            floor: 51,
            ops: vec![(998, X, Op::new(BankInv::Withdraw(HUGE), BankResp::Ok))],
        };
        sys.backend_mut().append_commit(&dep).unwrap();
        sys.backend_mut().append_commit(&wd).unwrap();
        let err = run_sim(&mut sys, scripts(4), &one_crash(), &SimCfg::default(), &spec(), None)
            .expect_err("the UIP and DU views must be seen to disagree");
        match err.violation {
            Violation::RecoveryViewDiverged { uip, .. } => {
                assert_eq!(uip, "refused", "the UIP view must refuse the inverted order")
            }
            other => panic!("wrong leg fired: {other}"),
        }
    }

    /// Leg 6 (recovery convergence): skipping the epoch bump — the seeded
    /// bug of DESIGN.md §11 — must surface through the full `run_sim`
    /// pipeline as `RecoveryDiverged`, not only through the direct probe
    /// (tested above). The mc counterpart is `Mutation::SkipEpochBump`,
    /// caught by the explorer's convergence invariant.
    #[test]
    fn skipped_epoch_bump_is_caught_end_to_end_by_the_convergence_leg() {
        let mut sys = fresh_uip();
        sys.backend_mut().set_skip_epoch_bump(true);
        let cfg = SimCfg { fault_during_recovery: true, ..Default::default() };
        let err = run_sim(&mut sys, scripts(4), &one_crash(), &cfg, &spec(), None)
            .expect_err("a recovery that forgets the epoch bump must not converge");
        match err.violation {
            Violation::RecoveryDiverged(e) => {
                assert!(e.reason.contains("epoch"), "wrong divergence detail: {e}")
            }
            other => panic!("wrong leg fired: {other}"),
        }
    }
}

/// Satellite fix: reproducer lines must pin the *complete* configuration —
/// backend even when it is the default, group commit, and the
/// fault-during-recovery leg — so an emitted command never silently
/// replays under different settings than the failing run.
#[test]
fn reproducer_lines_pin_the_full_configuration() {
    let plan: FaultPlan = "5:crash".parse().unwrap();
    let mut scenario = SimScenario::new(Combo::UipNrbc, 3, plan);
    let line = scenario.reproducer();
    assert!(line.contains("--backend disk"), "default backend must be explicit: {line}");
    scenario.backend = Backend::Mem;
    scenario.cfg.group_commit = true;
    scenario.cfg.fault_during_recovery = true;
    let line = scenario.reproducer();
    assert!(line.contains("--backend mem"), "missing backend: {line}");
    assert!(line.contains("--group-commit"), "missing group commit: {line}");
    assert!(line.contains("--fault-during-recovery"), "missing recovery leg: {line}");
}
