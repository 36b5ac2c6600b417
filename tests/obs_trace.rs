//! Determinism contract of the tracing layer: the same seed must render the
//! same bytes. The logical event clock ticks once per emitted event and the
//! Chrome exporter stamps `ts` from it (wall-clock stamping is opt-in and
//! off here), so any nondeterminism in scheduling, iteration order or string
//! rendering shows up as a byte diff.

use ccr::adt::bank::{bank_nrbc, BankAccount};
use ccr::obs::chrome_trace;
use ccr::runtime::engine::UipEngine;
use ccr::runtime::fault::FaultPlan;
use ccr::runtime::system::TxnSystem;
use ccr::runtime::threaded::{run_threaded, ThreadedCfg};
use ccr::workload::gen::{banking, WorkloadCfg};
use ccr::workload::sim::{run_scenario_traced, Combo, SimScenario};

#[test]
fn same_seed_renders_byte_identical_chrome_traces() {
    for combo in [Combo::UipNrbc, Combo::DuNfc, Combo::EscrowUipNrbc] {
        let scenario = SimScenario::new(combo, 7, FaultPlan::none());
        let (r1, a1) = run_scenario_traced(&scenario);
        let (r2, a2) = run_scenario_traced(&scenario);
        assert!(r1.is_ok() && r2.is_ok(), "{combo}: correct pairings pass the oracle");
        assert_eq!(a1.chrome, a2.chrome, "{combo}: chrome trace must be byte-identical");
        assert_eq!(a1.flame, a2.flame, "{combo}: flame summary must be byte-identical");
        assert_eq!(
            a1.metrics.to_json(),
            a2.metrics.to_json(),
            "{combo}: metrics report must be byte-identical"
        );
    }
}

#[test]
fn same_seed_with_faults_renders_byte_identical_traces() {
    // Fault injection exercises crash recovery (tracer carried across the
    // rebuilt system), torn writes and forced aborts — all of which must
    // stay on the logical clock.
    let plan: FaultPlan = "12:crash,30:torn2,45:abort,60:delay5,80:wound".parse().unwrap();
    let scenario = SimScenario::new(Combo::UipNrbc, 3, plan);
    let (r1, a1) = run_scenario_traced(&scenario);
    let (r2, a2) = run_scenario_traced(&scenario);
    assert!(r1.is_ok() && r2.is_ok());
    assert_eq!(a1.chrome, a2.chrome);
    assert!(a1.chrome.contains("\"fault\""), "fault injections must appear as trace events");
    assert!(a1.chrome.contains("\"recovery\""), "crash recovery must appear as a trace event");
}

#[test]
fn threaded_run_is_trace_deterministic_on_the_logical_clock() {
    // One worker makes the interleaving deterministic; the point here is
    // that nothing in the threaded path (condvars, retries, lock handoff)
    // stamps wall time unless explicitly enabled.
    let trace = |seed: u64| {
        let wcfg = WorkloadCfg { txns: 8, ops_per_txn: 2, objects: 1, seed, ..Default::default() };
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let cfg = ThreadedCfg { workers: 1, ..Default::default() };
        let (_, sys) = run_threaded(sys, banking(&wcfg, 0.8), &cfg);
        chrome_trace(sys.obs())
    };
    assert_eq!(trace(11), trace(11), "same seed, one worker: byte-identical trace");
    assert!(trace(11).contains("\"ts\""));
}

#[test]
fn traces_carry_the_run_labels() {
    let scenario = SimScenario::new(Combo::EscrowDuNfc, 5, FaultPlan::none());
    let (_, artifacts) = run_scenario_traced(&scenario);
    let json = artifacts.metrics.to_json();
    assert!(json.contains("\"combo\":\"escrow-du-nfc\""));
    assert!(json.contains("\"adt\":\"escrow\""));
    assert!(json.contains("\"seed\":\"5\""));
    assert!(json.contains("\"policy\":\"block\""));
}
