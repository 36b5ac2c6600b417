//! Acceptance tests for the sharded durable runtime (DESIGN.md §15), driven
//! through the public facade exactly as the `ccr-experiments sim --shards N`
//! CLI drives it: 32-seed sweeps whose fault plans crash every shard subset
//! and every canonical 2PC step (including a crash inside a participant's
//! own recovery), the eighth oracle leg (global dynamic atomicity across
//! shards) staying quiet on correct runs, and the lose-the-decision-record
//! negative control being caught, shrunk, and pinned in its reproducer.

use ccr::runtime::fault::{FaultMix, FaultPlan};
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
/// on the disk backend, every cross-shard commit routed through
/// `commit_global_with_crash` (crash-at-every-2PC-step, cycling all four
/// canonical points), with the seeded fault plans additionally drawing
/// crash-of-any-shard-subset and 2PC-step arms. Every run must pass the
/// full oracle battery including the eighth (global atomicity) leg.
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
