//! Acceptance tests for the `ccr-mc` bounded exhaustive model checker
//! (DESIGN.md §12), driven through the public facade exactly as the
//! `ccr-experiments mc` CLI drives it: the pinned instance matrix is
//! violation-free with deterministic byte-identical JSON verdicts, and
//! every mutation-style negative control is caught with a minimized,
//! replayable trace. These are the model-checker counterparts of the
//! per-leg oracle controls in `tests/sim_oracle.rs`.

use ccr::adt::bank::BankAccount;
use ccr::mc::explorer::run_trace;
use ccr::mc::harness::Applied;
use ccr::mc::{explore, reproducer, Harness, McBackendKind, McConfig, McTrace, Mutation};
use ccr::store::WalBackend;

fn base(backend: McBackendKind, group_commit: bool) -> McConfig {
    McConfig { backend, group_commit, ..Default::default() }
}

/// The acceptance-criteria instance matrix: 2 txns × 2 objects, crash
/// budget 2, mem + disk × group-commit on/off, plus the deeper 3-txn disk
/// cell. Every interleaving the explorer enumerates must satisfy the full
/// invariant battery, and the state space is pinned exactly — a count that
/// drifts either way is an enumeration change to explain (DESIGN.md §12).
#[test]
fn pinned_instance_matrix_is_violation_free() {
    for (backend, group_commit, txns, states, transitions) in [
        (McBackendKind::Mem, false, 2, 266, 496),
        (McBackendKind::Mem, true, 2, 336, 668),
        (McBackendKind::Disk, false, 2, 375, 1709),
        (McBackendKind::Disk, true, 2, 477, 2213),
        (McBackendKind::Disk, false, 3, 8229, 38914),
    ] {
        let v = explore(McConfig { txns, ..base(backend, group_commit) });
        assert!(
            v.passed(),
            "violation on {backend} (group_commit: {group_commit}, txns: {txns}): {:?}",
            v.violation
        );
        assert_eq!(
            (v.stats.states, v.stats.transitions),
            (states, transitions),
            "state space drifted on {backend} (group_commit: {group_commit}, txns: {txns})"
        );
        assert!(v.stats.terminals > 0, "no terminal states explored: {:?}", v.stats);
    }
}

/// Same instance ⇒ byte-identical JSON verdict, the determinism half of
/// the acceptance criteria. DFS order, canonicalization, and the verdict
/// rendering must all be free of incidental nondeterminism.
#[test]
fn same_instance_runs_produce_byte_identical_json() {
    for cfg in [
        base(McBackendKind::Disk, true),
        McConfig { shards: 2, ..base(McBackendKind::Disk, false) },
    ] {
        let (a, b) = (explore(cfg), explore(cfg));
        assert_eq!(a.to_json(), b.to_json(), "verdict JSON must be byte-identical: {cfg:?}");
    }
}

/// Negative control for the durability invariant (sim-oracle leg 3):
/// dropping an acknowledged commit from the last flush must be caught.
/// On the mem backend the loss is visible directly as a missing committed
/// txn; on the disk backend the tear corrupts the live log and strict
/// recovery refuses it — either way the seeded bug cannot pass silently.
#[test]
fn dropped_acked_commit_is_caught() {
    for (backend, kinds) in [
        (McBackendKind::Mem, &["durability-lost"][..]),
        (McBackendKind::Disk, &["durability-lost", "recovery-refused"][..]),
    ] {
        let cfg = McConfig { mutation: Some(Mutation::DropAckedCommit), ..base(backend, false) };
        let v = explore(cfg);
        let (violation, trace) = v.violation.expect("the dropped commit must be caught");
        assert!(
            kinds.contains(&violation.kind()),
            "wrong invariant fired on {backend}: {violation}"
        );
        assert_minimized_and_replayable(cfg, &trace, violation.kind());
    }
}

/// Negative control for the batch-prefix rule: an acknowledged group flush
/// that silently loses its first sector must be caught. The flush is one
/// commit frame, so the hole reads as a torn tail; once a later frame lands
/// behind it, recovery refuses the image as interior corruption.
#[test]
fn reordered_group_flush_is_caught() {
    let cfg =
        McConfig { mutation: Some(Mutation::ReorderLastBatch), ..base(McBackendKind::Disk, true) };
    let v = explore(cfg);
    let (violation, trace) = v.violation.expect("the reordered batch must be caught");
    assert_eq!(violation.kind(), "recovery-refused", "wrong invariant fired: {violation}");
    assert_minimized_and_replayable(cfg, &trace, violation.kind());
}

/// Negative control for the no-resurrection invariant (sim-oracle legs
/// 2/3): a forged commit record for an aborted transaction must be
/// flagged after recovery, on both backends.
#[test]
fn resurrected_aborted_txn_is_caught() {
    for backend in [McBackendKind::Mem, McBackendKind::Disk] {
        let cfg = McConfig { mutation: Some(Mutation::ResurrectAborted), ..base(backend, false) };
        let v = explore(cfg);
        let (violation, trace) = v.violation.expect("the resurrected txn must be caught");
        assert_eq!(violation.kind(), "resurrection", "wrong invariant fired: {violation}");
        assert_minimized_and_replayable(cfg, &trace, violation.kind());
    }
}

/// Negative control for the convergence invariant (sim-oracle leg 6): a
/// recovery that skips the epoch bump is refused by the checked convergence
/// probe the explorer runs after every recovery — the leg `run_sim` names
/// `recovery-diverged` too.
#[test]
fn skipped_epoch_bump_is_caught() {
    let cfg =
        McConfig { mutation: Some(Mutation::SkipEpochBump), ..base(McBackendKind::Disk, false) };
    let v = explore(cfg);
    let (violation, trace) = v.violation.expect("the skipped epoch bump must be caught");
    assert_eq!(violation.kind(), "recovery-diverged", "wrong invariant fired: {violation}");
    assert_minimized_and_replayable(cfg, &trace, violation.kind());
}

/// A caught counterexample must (a) replay to the same violation kind via
/// `run_trace` (the `--replay` path), (b) be 1-minimal (no single action
/// can be dropped), and (c) round-trip through its textual form, with the
/// reproducer line pinning every configuration flag.
fn assert_minimized_and_replayable(cfg: McConfig, trace: &McTrace, kind: &str) {
    let replayed = run_trace(cfg, trace).expect("minimized trace must still fail");
    assert_eq!(replayed.kind(), kind, "replay found a different violation");
    for i in 0..trace.0.len() {
        let mut shorter = trace.0.clone();
        shorter.remove(i);
        let still = run_trace(cfg, &McTrace(shorter)).map(|v| v.kind() == kind);
        assert_ne!(still, Some(true), "trace not 1-minimal: {trace} (drop index {i})");
    }
    let reparsed: McTrace = trace.to_string().parse().expect("trace must round-trip");
    assert_eq!(reparsed.to_string(), trace.to_string());
    let line = reproducer(&cfg, trace);
    for flag in ["--txns", "--objects", "--crash-budget", "--backend", "--shards", "--replay"] {
        assert!(line.contains(flag), "reproducer missing {flag}: {line}");
    }
    assert!(line.contains("--mutate"), "reproducer must pin the mutation: {line}");
}

/// Action traces round-trip through parse/display, and junk is rejected.
#[test]
fn traces_round_trip_and_reject_junk() {
    let t: McTrace = "b0 c0 b1 a1 f k t1 r x d3".parse().expect("valid trace");
    assert_eq!(t.to_string(), "b0 c0 b1 a1 f k t1 r x d3");
    assert!("b0 y7".parse::<McTrace>().is_err(), "junk token must be rejected");
    let sharded: McTrace = "b0 p0 q0 s3 z".parse().expect("sharded alphabet must parse");
    assert_eq!(sharded.to_string(), "b0 p0 q0 s3 z");
}

/// The fleet instances (DESIGN.md §12): 2 and 3 shards with the
/// begin/abort/prepare/decide/crash-subset/coordinator-crash alphabet are
/// exhaustively explored, every recovered shard through the recovery legs,
/// and must be violation-free on both backends with exactly pinned state
/// spaces.
#[test]
fn sharded_instance_matrix_is_violation_free() {
    for (backend, shards, states, transitions) in [
        (McBackendKind::Mem, 2, 3226, 6048),
        (McBackendKind::Disk, 2, 12804, 16970),
        (McBackendKind::Mem, 3, 9590, 21288),
        (McBackendKind::Disk, 3, 51654, 67286),
    ] {
        let v = explore(McConfig { shards, ..base(backend, false) });
        assert!(v.passed(), "violation on {shards}-shard {backend}: {:?}", v.violation);
        assert_eq!(
            (v.stats.states, v.stats.transitions),
            (states, transitions),
            "state space drifted on {shards}-shard {backend}"
        );
        assert!(v.stats.terminals > 0, "no terminal states explored: {:?}", v.stats);
    }
}

/// Negative control for no-resurrection on a fleet: a commit record forged
/// on the aborted transaction's first participant surfaces, once that
/// shard recovers, as a global split — visible on shard 0, not on shard 1.
#[test]
fn resurrection_on_a_fleet_is_caught() {
    for backend in [McBackendKind::Mem, McBackendKind::Disk] {
        let cfg = McConfig {
            shards: 2,
            mutation: Some(Mutation::ResurrectAborted),
            ..base(backend, false)
        };
        let v = explore(cfg);
        let (violation, trace) = v.violation.expect("the resurrected txn must be caught");
        assert_eq!(violation.kind(), "global-split", "wrong invariant fired on {backend}");
        assert_eq!(trace.to_string(), "b1 a1 s1", "not the pinned minimal trace on {backend}");
        assert_minimized_and_replayable(cfg, &trace, violation.kind());
    }
}

/// Negative control for the eighth oracle leg (global dynamic atomicity
/// across shards): losing the coordinator's durable decision record after
/// one participant already applied the commit must surface as a
/// global-split — one shard committed, the other presumed abort — and the
/// minimized reproducer must pin the sharded instance explicitly.
#[test]
fn lost_decision_record_is_caught_as_a_global_split() {
    let cfg = McConfig {
        shards: 2,
        mutation: Some(Mutation::LoseDecision),
        ..base(McBackendKind::Disk, false)
    };
    let v = explore(cfg);
    let (violation, trace) = v.violation.expect("the lost decision record must be caught");
    assert_eq!(violation.kind(), "global-split", "wrong invariant fired: {violation}");
    assert_eq!(trace.to_string(), "b0 p0 q0", "not the pinned minimal trace");
    assert_minimized_and_replayable(cfg, &trace, violation.kind());
    let line = reproducer(&cfg, &trace);
    assert!(line.contains("--shards 2"), "reproducer must pin the shard count: {line}");
}

/// The four canonical 2PC crash steps, spelled as traces on a two-shard
/// disk fleet (the sharded simulator spells `twopc{step}` the same way):
/// presumed abort when the coordinator dies after the prepares (step 0) or
/// the first participant dies in doubt and again inside its own recovery
/// (step 3); commit when that participant dies in doubt under a live
/// coordinator (step 1) or phase two is cut short after a durable decision
/// (step 2). Either way the outcome is uniform, nothing stays in doubt, and
/// it survives one more full-fleet crash.
#[test]
fn every_2pc_crash_step_settles_uniformly() {
    for (step, trace, committed) in [
        (0, "b0 p0 z", false),
        (1, "b0 p0 s1 q0", true),
        (2, "b0 p0 h0", true),
        (3, "b0 p0 u0.2 z", false),
    ] {
        let cfg =
            McConfig { txns: 1, shards: 2, crash_budget: 3, ..base(McBackendKind::Disk, false) };
        let mut h = Harness::<WalBackend<BankAccount>>::new(cfg, cfg.placement());
        let trace: McTrace = format!("{trace} s3").parse().unwrap();
        for action in trace.0 {
            assert_eq!(h.apply(action), Applied::Ok, "step {step}: {action}");
        }
        assert_eq!(h.committed(0), committed, "step {step}");
        assert!(h.fleet().in_doubt().is_empty(), "step {step}");
        let deposit = u64::from(committed);
        let homes = [cfg.home(0), cfg.home(1)].map(|p| h.states()[p]);
        assert_eq!(homes, [deposit; 2], "step {step}");
    }
}

/// The fifth accidental blind spot (ROADMAP item 13): a coordinator crash
/// reissues the gtid of a transaction that left no durable trace, so a book
/// keyed by gtid reads transaction 0's bit for transaction 1 and the eighth
/// leg sees nothing — only durability behind it caught the split. Keyed by
/// logical index the split is reported as what it is.
#[test]
fn a_reissued_gtid_split_is_a_global_split() {
    let trace: McTrace = "b0 a0 z b1 p1 q1".parse().unwrap();
    for backend in [McBackendKind::Mem, McBackendKind::Disk] {
        let cfg =
            McConfig { shards: 2, mutation: Some(Mutation::LoseDecision), ..base(backend, false) };
        let violation = run_trace(cfg, &trace).expect("the split must be caught");
        assert_eq!(violation.kind(), "global-split", "wrong leg fired on {backend}: {violation}");
    }
}

/// The instance rules live beside the alphabet they protect: a negative
/// control is accepted exactly where an action reaches its sabotage.
#[test]
fn config_rules_follow_the_alphabet() {
    let fleet = McConfig { shards: 2, ..McConfig::default() };
    for (cfg, ok) in [
        (McConfig { mutation: Some(Mutation::ResurrectAborted), ..fleet }, true),
        (McConfig { mutation: Some(Mutation::LoseDecision), ..fleet }, true),
        (McConfig { mutation: Some(Mutation::DropAckedCommit), ..fleet }, false),
        (McConfig { mutation: Some(Mutation::SkipEpochBump), ..fleet }, false),
        (McConfig { group_commit: true, ..fleet }, false),
        (McConfig { mutation: Some(Mutation::LoseDecision), ..McConfig::default() }, false),
        (McConfig { shards: 0, ..McConfig::default() }, false),
        (McConfig { shards: 9, ..McConfig::default() }, false),
        (McConfig { txns: 7, ..McConfig::default() }, false),
    ] {
        assert_eq!(cfg.validate().is_ok(), ok, "{cfg:?}: {:?}", cfg.validate());
    }
}
