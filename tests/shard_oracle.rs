//! Acceptance tests for the sharded durable runtime (DESIGN.md §15), driven
//! through the public facade exactly as the `ccr-experiments sim --shards N`
//! CLI drives it: 32-seed sweeps whose fault plans crash every shard subset
//! and every canonical 2PC step (including a crash inside a participant's
//! own recovery), the eighth oracle leg (global dynamic atomicity across
//! shards) staying quiet on correct runs, and the lose-the-decision-record
//! negative control being caught, shrunk, and pinned in its reproducer.

use ccr::runtime::fault::FaultPlan;
use ccr::workload::shard_sim::{run_shard_scenario, shrink_shard, sweep_shard};
use ccr::workload::sim::{Backend, Combo, SimScenario, SweepCfg};

/// The acceptance sweep: 32 seeds per cell over shard count × group commit
/// on the disk backend, every cross-shard commit routed through
/// `commit_global_with_crash` (crash-at-every-2PC-step, cycling all four
/// canonical points), with the seeded fault plans additionally drawing
/// crash-of-any-shard-subset and 2PC-step arms. Every run must pass the
/// full oracle battery including the eighth (global atomicity) leg.
#[test]
fn sharded_sweep_survives_crashes_of_every_shard_subset_and_2pc_step() {
    for shards in [2usize, 3] {
        for group_commit in [false, true] {
            let cfg = SweepCfg {
                horizon: 60,
                faults: 4,
                shards,
                group_commit,
                twopc_crash: true,
                ..SweepCfg::new(Combo::UipNrbc, 32)
            };
            let failure = sweep_shard(&cfg);
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
    let cfg = SweepCfg {
        horizon: 60,
        faults: 4,
        backend: Backend::Mem,
        shards: 2,
        twopc_crash: true,
        ..SweepCfg::new(Combo::UipNrbc, 32)
    };
    assert!(sweep_shard(&cfg).is_none(), "mem-backend sharded sweep must pass");
}

/// Same sharded scenario ⇒ identical reports and byte-identical JSON —
/// the determinism contract the CI `shard-fuzz` job enforces end to end
/// with `cmp` on two CLI runs.
#[test]
fn sharded_runs_are_deterministic_through_the_facade() {
    let plan = FaultPlan::from_seed_sharded(9, 60, 4, 3);
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
    let plan = FaultPlan::from_seed_sharded(11, 40, 3, 2);
    let mut scenario = SimScenario::new(Combo::UipNrbc, 11, plan);
    scenario.shards = 2;
    scenario.lose_decision = true;
    let failure = run_shard_scenario(&scenario).expect_err("the planted bug must be caught");
    assert_eq!(failure.kind(), "global-split", "wrong leg fired: {failure}");

    let (shrunk, shrunk_failure, _) = shrink_shard(&scenario);
    assert_eq!(shrunk_failure.kind(), "global-split", "shrinking must preserve the kind");
    assert!(
        run_shard_scenario(&shrunk).is_err(),
        "shrunk reproducer must still fail: {}",
        shrunk.reproducer()
    );
    let line = shrunk.reproducer();
    for flag in [" --shards 2", " --lose-decision", " --backend "] {
        assert!(line.contains(flag), "reproducer missing {flag:?}: {line}");
    }
}

/// Open finding (ROADMAP item 7), red since PR 11: one `crash` fault at
/// event 9 of this three-shard run leaves gtid 3 committed on shards 0 and 1
/// and aborted on shard 2, and the eighth oracle leg says so
/// (`global atomicity split`). The assertion is the behaviour the fix must
/// produce; un-ignore the test in the PR that makes it pass. The same run
/// from the command line:
/// `ccr-experiments sim --combo uip-nrbc --seed 0 --txns 8 --ops 2
/// --objects 1 --skip 6,7 --shards 3 --faults 9:crash`.
#[test]
#[ignore = "open finding: global atomicity split under a plain crash on 3 shards (ROADMAP item 7)"]
fn a_plain_crash_on_three_shards_must_not_split_a_global_transaction() {
    let plan = "9:crash".parse().expect("a well-formed fault plan");
    let mut scenario = SimScenario::new(Combo::UipNrbc, 0, plan);
    scenario.skip = vec![6, 7];
    scenario.shards = 3;
    if let Err(failure) = run_shard_scenario(&scenario) {
        panic!("{failure}\n  {}", scenario.reproducer());
    }
}
