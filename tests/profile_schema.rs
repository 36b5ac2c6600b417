//! Schema pin and determinism tests for the contention & recovery profiler
//! (`ccr-experiments profile` / `inspect`). The profile JSON is the contract
//! the CI bench-guard job and EXPERIMENTS.md S7 script against: its key set
//! must not drift silently, same-seed runs must render byte-identical
//! documents, the per-phase histograms must account for the measured
//! commit/recovery pipeline time, and the offline WAL inspector must agree
//! with recovery's own damage classification on every image a fault sweep
//! can produce.

use std::collections::BTreeSet;

use ccr::runtime::fault::{FaultMix, FaultPlan};
use ccr::workload::sim::{run_scenario_traced, Combo, SimScenario};

/// Collect every distinct `"key":` token in a JSON blob (nested objects
/// included — histogram and row sub-keys are part of the schema).
fn json_keys(s: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            if j + 1 < bytes.len() && bytes[j + 1] == b':' {
                keys.insert(s[start..j].to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}

/// Extract a numeric field (integer or fraction) from a JSON blob.
fn num_field(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let start = json.find(&tag).unwrap_or_else(|| panic!("missing {key:?}")) + tag.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or_else(|_| panic!("{key:?} not numeric: {}", &rest[..end]))
}

/// A contended faulted scenario: 8 txns on one hot object (block policy)
/// exercise the conflict matrix, a mid-run crash and a torn group flush
/// exercise the recovery pipeline and WAL damage classification.
fn traced_scenario() -> SimScenario {
    let plan: FaultPlan = "12:crash,30:torn2".parse().expect("fault spec parses");
    let mut scenario = SimScenario::new(Combo::UipNrbc, 7, plan);
    scenario.cfg.group_commit = true;
    scenario
}

#[test]
fn profile_schema_is_pinned() {
    let (result, artifacts) = run_scenario_traced(&traced_scenario());
    assert!(result.is_ok(), "the correct combo must pass the oracle");

    let expected: BTreeSet<String> = [
        // Top level: scenario echo + verdict + run counters.
        "schema",
        "combo",
        "adt",
        "backend",
        "seed",
        "group_commit",
        "verdict",
        "failure",
        "committed",
        "gave_up",
        "retries",
        "rounds",
        "events",
        "oracle_checks",
        "faults_injected",
        "history_fingerprint",
        // Coverage of the pipeline totals by their child phases.
        "coverage",
        "commit_ticks",
        "recovery_ticks",
        "commit_wall",
        "recovery_wall",
        // Per-phase histograms, one entry per `Phase`.
        "phases",
        "lock_acquire",
        "validate",
        "journal_append",
        "fsync",
        "barrier_wait",
        "commit_total",
        "scan",
        "classify",
        "repair",
        "replay",
        "rebuild",
        "recovery_total",
        "count",
        "ticks_sum",
        "wall_ns_sum",
        "ticks",
        "wall_ns",
        "max",
        "p50",
        "p90",
        "p99",
        // Observed-conflict rows ("adt" doubles as a top-level key).
        "conflicts",
        "relation",
        "requested",
        "held",
        "hits",
        "wounds",
        "blocked_ticks",
        // Static admitted-concurrency tables.
        "admitted",
        "ops",
        "table",
        "p",
        "q",
        "fc",
        "rbc",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(
        json_keys(&artifacts.profile),
        expected,
        "profile JSON keys drifted — update this pin, `ccr-experiments profile` \
         consumers and DESIGN.md §13 together"
    );
    assert!(artifacts.profile.contains("\"schema\":\"ccr-profile-v1\""));
    assert!(
        !artifacts.profile.contains("\"conflicts\":[]"),
        "one hot object under the block policy must exercise conflicts"
    );
}

#[test]
fn same_seed_profiles_are_byte_identical() {
    let scenario = traced_scenario();
    let (_, a) = run_scenario_traced(&scenario);
    let (_, b) = run_scenario_traced(&scenario);
    assert_eq!(a.profile, b.profile, "profile export must be deterministic in the seed");
    assert_eq!(a.inspection, b.inspection, "WAL inspection must be deterministic in the seed");
    assert!(a.inspection.is_some(), "disk-backed runs render an inspection");
}

#[test]
fn phase_histograms_cover_the_measured_pipelines() {
    let (_, artifacts) = run_scenario_traced(&traced_scenario());
    let commit = num_field(&artifacts.profile, "commit_ticks");
    let recovery = num_field(&artifacts.profile, "recovery_ticks");
    // The span tick-accounting rule tiles commit children exactly; recovery
    // phases tile the device-op budget and add replay/rebuild units on top.
    assert!(commit >= 0.95, "commit phases must cover the commit total: {commit}");
    assert!(recovery >= 0.95, "recovery phases must cover the recovery total: {recovery}");
}

#[test]
fn inspector_agrees_with_recovery_across_a_32_seed_sweep() {
    // The acceptance sweep: disk backend, group commit on, the same seeded
    // fault plans `sim --sweep` uses. Every final WAL image must round-trip
    // through the offline inspector with a damage classification recovery
    // itself confirms — both on the image as-is and with its last flush
    // re-torn.
    for seed in 0..32 {
        let plan = FaultPlan::from_seed(seed, 60, 4, FaultMix::Storage);
        let mut scenario = SimScenario::new(Combo::UipNrbc, seed, plan);
        scenario.cfg.group_commit = true;
        let (_, artifacts) = run_scenario_traced(&scenario);
        assert_eq!(
            artifacts.inspect_agreement,
            Some(Ok(())),
            "seed {seed}: inspector and recovery must classify the image identically"
        );
    }
}

#[test]
fn threaded_wall_coverage_accounts_for_commit_time() {
    use std::time::Duration;

    use ccr::adt::bank::{bank_nrbc, BankAccount};
    use ccr::obs::Phase;
    use ccr::runtime::engine::UipEngine;
    use ccr::runtime::system::TxnSystem;
    use ccr::runtime::threaded::{run_threaded_durable, GroupCommitCfg, ThreadedCfg};
    use ccr::store::{WalBackend, WalConfig};
    use ccr::workload::gen::{banking, WorkloadCfg};

    let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), 8, bank_nrbc());
    sys.obs_mut().enable_wall_clock();
    let wcfg = WorkloadCfg { txns: 32, ops_per_txn: 2, objects: 8, hot_fraction: 0.2, seed: 0 };
    let scripts = banking(&wcfg, 0.8);
    let tcfg = ThreadedCfg { workers: 4, ..Default::default() };
    // A flush delay that dwarfs scheduling noise: nearly all of a commit's
    // entry-to-durable latency is then spent in the fsync (leader) or on the
    // commit barrier (followers), the two phases the executor samples. The
    // noise is the queue on the system mutex between commit entry and
    // staging — hundreds of microseconds when this test shares two cores
    // with its siblings — so the delay is 5 ms, not 500 us.
    let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_millis(5) };
    let run = run_threaded_durable(sys, WalBackend::new(WalConfig::default()), scripts, &tcfg, &gc);
    assert_eq!(run.report.committed, 32);

    let profiles = run.sys.obs().phase_profiles();
    let wall = profiles
        .coverage_wall(Phase::CommitTotal)
        .expect("wall clock armed: commit totals carry wall time");
    // Measured ~0.97-0.99 across flush delays and modes; the uncovered
    // slack is lock handoffs between commit entry and staging.
    assert!(
        wall >= 0.95,
        "fsync + barrier-wait samples must account for >=95% of commit wall time: {wall}"
    );
    assert!(profiles.get(Phase::Fsync).wall_ns().sum() > 0, "leader fsyncs are wall-timed");
    assert!(
        profiles.get(Phase::BarrierWait).wall_ns().sum() > 0,
        "followers wait on the barrier under a 5 ms flush"
    );
}
