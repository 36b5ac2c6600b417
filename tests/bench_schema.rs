//! Schema pin for `reports/BENCH_baseline.json`: the committed baseline and
//! a freshly produced [`Outcome`] must expose exactly the same JSON keys.
//! Values drift with the machine (wall time, throughput); the key set is
//! the contract downstream tooling scripts against, and CI fails on drift.

use std::collections::BTreeSet;

use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv};
use ccr::core::ids::ObjectId;
use ccr::runtime::engine::UipEngine;
use ccr::workload::gen::{banking, WorkloadCfg};
use ccr::workload::harness::{run_config, HarnessCfg};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reports/BENCH_baseline.json");

/// Collect every distinct `"key":` token in a JSON blob (nested objects
/// included — histogram sub-keys are part of the schema).
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

#[test]
fn baseline_report_schema_matches_fresh_outcomes() {
    let baseline = std::fs::read_to_string(BASELINE).expect(
        "reports/BENCH_baseline.json is committed; regenerate with `ccr-experiments --json`",
    );
    let baseline_keys = json_keys(&baseline);
    assert!(!baseline_keys.is_empty(), "baseline must contain JSON objects");

    let wcfg = WorkloadCfg { txns: 6, ops_per_txn: 2, objects: 2, ..Default::default() };
    let setup: Vec<(ObjectId, BankInv)> =
        (0..2).map(|i| (ObjectId(i), BankInv::Deposit(100))).collect();
    let outcome = run_config::<BankAccount, UipEngine<BankAccount>, _>(
        "schema-probe",
        "banking",
        BankAccount::default(),
        2,
        bank_nrbc(),
        &setup,
        banking(&wcfg, 0.7),
        &HarnessCfg::default(),
    );
    let fresh_keys = json_keys(&outcome.to_json());

    assert_eq!(
        baseline_keys, fresh_keys,
        "Outcome::to_json keys drifted from the committed baseline — \
         regenerate reports/BENCH_baseline.json with `ccr-experiments --json` \
         in the same commit that changes the schema"
    );
}

/// Pin the fault-counter schema of [`SystemStats::to_json`] and the
/// histogram roster of `MetricsReport::to_json`: downstream tooling scripts
/// against `sim --json` / `trace --metrics` output, and the storage-fault
/// counters (`sector_tears`, `reordered_flushes`, `bitflips_detected`,
/// `checkpoints`) plus the recovery-scan histogram (`scan_len`) are part of
/// that contract.
#[test]
fn sim_metrics_schema_pins_the_storage_fault_counters() {
    use ccr::runtime::fault::FaultPlan;
    use ccr::workload::sim::{run_scenario_traced, Combo, SimScenario};

    let scenario = SimScenario::new(Combo::UipNrbc, 7, FaultPlan::none());
    let (result, artifacts) = run_scenario_traced(&scenario);
    assert!(result.is_ok(), "fault-free run must pass the oracle");

    let stats_keys: BTreeSet<String> = [
        "begun",
        "committed",
        "aborted",
        "validation_aborts",
        "ops",
        "blocks",
        "wounds",
        "conflict_aborts",
        "replay_failures",
        "crashes",
        "torn_crashes",
        "forced_aborts",
        "delayed_commits",
        "wound_storms",
        "sector_tears",
        "reordered_flushes",
        "bitflips_detected",
        "checkpoints",
        "transient_io_faults",
        "disk_full_faults",
        "io_retries",
        "degraded_entries",
        "degraded_exits",
        "convergence_checks",
        "sheds",
        "deadline_aborts",
        "stall_ticks",
        "mode_flips",
        "slow_device_faults",
        "fsync_stall_faults",
        "prepares",
        "decides",
        "in_doubt",
        "resolved",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(
        json_keys(&artifacts.metrics.stats.to_json()),
        stats_keys,
        "SystemStats::to_json keys drifted — update this pin, `sim --json` \
         consumers and DESIGN.md together"
    );

    let metrics_keys = json_keys(&artifacts.metrics.to_json());
    for key in [
        "labels",
        "events",
        "stats",
        "op_latency",
        "lock_wait",
        "time_to_commit",
        "replay_len",
        "scan_len",
        "batch_size",
        "flush_latency",
        "retry_backoff",
        "retry_jitter",
        "stall_latency",
        "prepare_to_decide",
    ] {
        assert!(metrics_keys.contains(key), "MetricsReport::to_json must expose {key:?}");
    }
}

/// Schema pin for `reports/BENCH_group_commit.json`: the committed report
/// and a freshly produced [`BenchReport`] must expose exactly the same JSON
/// keys. Values drift with the machine; the key set (commits-per-fsync and
/// the latency percentiles of both sides) is the contract the CI bench
/// smoke step and EXPERIMENTS.md S4 script against.
#[test]
fn group_commit_bench_schema_matches_fresh_report() {
    use ccr::workload::bench::{run_bench, BenchCfg};

    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/reports/BENCH_group_commit.json"
    ))
    .expect(
        "reports/BENCH_group_commit.json is committed; regenerate with \
         `ccr-experiments bench --out reports/BENCH_group_commit.json`",
    );
    let committed_keys = json_keys(&committed);
    assert!(!committed_keys.is_empty(), "committed report must contain JSON objects");

    // A small shape keeps the smoke run fast; the schema is shape-independent.
    let fresh = run_bench(&BenchCfg { txns: 16, flush_delay_us: 100, ..Default::default() });
    assert_eq!(fresh.baseline.committed, 16);
    assert_eq!(fresh.grouped.committed, 16);
    assert_eq!(
        committed_keys,
        json_keys(&fresh.to_json()),
        "BenchReport::to_json keys drifted from the committed report — \
         regenerate reports/BENCH_group_commit.json with `ccr-experiments \
         bench --out reports/BENCH_group_commit.json` in the same commit"
    );
}

/// Schema pin for `reports/BENCH_overload.json`: the committed gray-failure
/// survival report and a freshly produced [`OverloadReport`] must expose
/// exactly the same JSON keys. Values are deterministic integers in logical
/// rounds, but the key set (both sides' goodput/latency/shedding figures and
/// the two SLO verdicts) is the contract the CI chaos-overload job and
/// EXPERIMENTS.md S8 script against.
#[test]
fn overload_bench_schema_matches_fresh_report() {
    use ccr::workload::overload::{run_overload, OverloadCfg};

    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/reports/BENCH_overload.json"
    ))
    .expect(
        "reports/BENCH_overload.json is committed; regenerate with \
         `ccr-experiments overload --out reports/BENCH_overload.json`",
    );
    let committed_keys = json_keys(&committed);
    assert!(!committed_keys.is_empty(), "committed report must contain JSON objects");

    let fresh = run_overload(&OverloadCfg::default());
    assert!(fresh.goodput_improved && fresh.p99_bounded, "default shape passes its own SLOs");
    assert_eq!(
        committed_keys,
        json_keys(&fresh.to_json()),
        "OverloadReport::to_json keys drifted from the committed report — \
         regenerate reports/BENCH_overload.json with `ccr-experiments \
         overload --out reports/BENCH_overload.json` in the same commit"
    );
}

/// Schema pin for `reports/BENCH_shard.json`: the committed cross-shard
/// commit-overhead report and a freshly produced [`ShardBenchReport`] must
/// expose exactly the same JSON keys. The report is integer-deterministic
/// (WAL frame counts, not wall time), so the CI `shard-fuzz` job also
/// byte-compares a regenerated copy; this pin catches schema drift at
/// `cargo test` time with a smaller shape.
#[test]
fn shard_bench_schema_matches_fresh_report() {
    use ccr::workload::shard_sim::{run_shard_bench, ShardBenchCfg};

    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/reports/BENCH_shard.json"))
            .expect(
                "reports/BENCH_shard.json is committed; regenerate with \
         `ccr-experiments bench-shard --out reports/BENCH_shard.json`",
            );
    let committed_keys = json_keys(&committed);
    assert!(!committed_keys.is_empty(), "committed report must contain JSON objects");

    let fresh = run_shard_bench(&ShardBenchCfg { txns: 8, shards: 2 });
    assert!(fresh.guard_violations().is_empty(), "fresh report passes its own frame-ledger guard");
    assert_eq!(
        committed_keys,
        json_keys(&fresh.to_json()),
        "ShardBenchReport::to_json keys drifted from the committed report — \
         regenerate reports/BENCH_shard.json with `ccr-experiments \
         bench-shard --out reports/BENCH_shard.json` in the same commit"
    );
}

/// Pin the repair-then-rescan reconciliation of the flip counters: after a
/// detected bit flip is repaired and the log rescanned, the disk-level
/// tally must satisfy `flipped_bits == repaired_bits` (nothing tore the
/// flipped sector away) and the header-persisted detection counter must
/// count the damage site exactly once.
#[test]
fn unflip_repair_reconciles_disk_and_header_stats() {
    use ccr::adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr::core::conflict::FnConflict;
    use ccr::core::ids::ObjectId;
    use ccr::runtime::crash::{DurableSystem, RedoError, TornPolicy};
    use ccr::runtime::engine::UipEngine;
    use ccr::store::{WalBackend, WalConfig};

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
    let t = sys.begin();
    sys.invoke(t, ObjectId(0), BankInv::Deposit(7)).unwrap();
    sys.commit(t).unwrap();

    // Hunt for a payload bit whose flip the CRC layer detects (slack bits
    // recover silently and repair nothing).
    let bits = sys.backend().disk().durable_bits();
    let mut reconciled = false;
    for bit in 0..bits {
        assert!(sys.backend_mut().disk_mut().flip_bit(bit), "bit {bit} must be flippable");
        match sys.crash_and_recover() {
            Ok(()) => {
                // Slack bit: undo it so later flips stay single-site.
                assert_eq!(sys.backend_mut().disk_mut().unflip_all(), 1);
            }
            Err(RedoError::CorruptRecord { .. }) | Err(RedoError::TornRecord { .. }) => {
                assert_eq!(
                    sys.backend_mut().disk_mut().unflip_all(),
                    1,
                    "exactly the injected flip repairs"
                );
                sys.recover_with(TornPolicy::Strict)
                    .unwrap_or_else(|e| panic!("bit {bit}: repaired medium must recover: {e:?}"));
                let disk = sys.backend_mut().disk_mut().stats();
                assert_eq!(
                    disk.flipped_bits, disk.repaired_bits,
                    "bit {bit}: every flip was repaired, so the counters reconcile"
                );
                assert_eq!(
                    sys.store_stats().bitflips_detected,
                    1,
                    "bit {bit}: the repair-then-rescan path counts the site once"
                );
                reconciled = true;
                break;
            }
            Err(e) => panic!("bit {bit}: unexpected redo error {e:?}"),
        }
    }
    assert!(reconciled, "some payload bit must be CRC-protected");
}

/// Pin the per-scan vs cumulative split of the recovery-scan detection
/// counters: one injected storage fault must count once in `sim --json`
/// output, no matter how many scans recovery needs (the strict scan that
/// refuses plus the discard-tail scan that repairs used to double-count
/// every hole).
#[test]
fn recovery_scan_counters_count_each_fault_once() {
    use ccr::runtime::fault::FaultPlan;
    use ccr::workload::sim::{run_scenario, Combo, SimScenario};

    let plan: FaultPlan = "30:reorder,45:sect1".parse().expect("fault spec parses");
    let mut scenario = SimScenario::new(Combo::UipNrbc, 3, plan);
    // Group commit makes the flushes multi-record, so the tears land on
    // batch tails — the case whose repair takes the most re-scanning.
    scenario.cfg.group_commit = true;
    let report = run_scenario(&scenario).expect("oracle must pass");
    assert_eq!(report.faults_injected, 2, "both storage faults must fire");
    assert_eq!(
        report.stats.reordered_flushes, 1,
        "one reorder fault counts once across recovery scans"
    );
    assert_eq!(report.stats.sector_tears, 1, "one sector tear counts once across recovery scans");
}
