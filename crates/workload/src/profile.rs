//! The contention & recovery profiler's report assembly.
//!
//! A **profile** is one schema-pinned JSON document summarising a traced
//! simulated run: the per-phase commit/recovery histograms (ticks and wall
//! nanoseconds), their coverage against the pipeline totals, the observed
//! conflict matrix, and — for the paper's "admitted vs. exercised"
//! comparison (§6.4/§8) — the static FC/RBC tables of the ADT the run drove.
//! The static half says which op pairs a relation *admits* concurrently;
//! the matrix says which pairs the workload actually *exercised* and what
//! they cost (hits, wounds, blocked ticks). A pair admitted but never
//! exercised is concurrency on paper only; a pair with heavy blocked time
//! is where the incomparability result says switching recovery disciplines
//! would pay.
//!
//! Everything here is deterministic in the scenario: the JSON is asserted
//! byte-identical across same-seed runs, and the key set is pinned by
//! `tests/profile_schema.rs` (values may drift with the code, the schema
//! must not drift silently).

use ccr_adt::{bank, escrow};
use ccr_core::conflict::{Conflict, Derived};
use ccr_obs::{json_string, Phase, Tracer};
use ccr_runtime::sim::{SimFailure, SimReport};

use crate::sim::SimScenario;

/// Schema tag carried by every profile document.
pub const PROFILE_SCHEMA: &str = "ccr-profile-v1";

/// Render an `Option<f64>` coverage fraction (`null` when unmeasured).
fn frac(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "null".to_string(),
    }
}

fn admitted_rows(
    names: &[&str],
    fc: impl Fn(usize, usize) -> bool,
    rbc: impl Fn(usize, usize) -> bool,
) -> String {
    let mut rows = Vec::new();
    for (i, p) in names.iter().enumerate() {
        for (j, q) in names.iter().enumerate() {
            rows.push(format!(
                "{{\"p\":\"{p}\",\"q\":\"{q}\",\"fc\":{},\"rbc\":{}}}",
                fc(i, j),
                rbc(i, j)
            ));
        }
    }
    rows.join(",")
}

/// The static admitted-concurrency tables of one ADT as JSON: the op kinds
/// and the full FC/RBC matrix over them (the paper's Figures 6-1/6-2 for
/// the bank account, the escrow analogue for the escrow account).
pub fn admitted_json(adt: &str) -> String {
    let (ops, table): (Vec<&str>, String) = match adt {
        "bank" => {
            use bank::BankOpKind::*;
            let kinds = [DepositOk, WithdrawOk, WithdrawNo, Balance];
            let names = vec!["DepositOk", "WithdrawOk", "WithdrawNo", "Balance"];
            let rows = admitted_rows(
                &names,
                |i, j| bank::fc_by_kind(kinds[i], kinds[j]),
                |i, j| bank::rbc_by_kind(kinds[i], kinds[j]),
            );
            (names, rows)
        }
        "escrow" => {
            // One operation per kind: the derived relations are uniform in
            // the amounts.
            use escrow::ops::*;
            let ops = [credit_ok(1), credit_no(1), debit_ok(1), debit_no(1)];
            let names = vec!["CreditOk", "CreditNo", "DebitOk", "DebitNo"];
            let adt = escrow::EscrowAccount::default();
            let (nfc, nrbc) = (Derived::nfc("escrow", adt.clone()), Derived::nrbc("escrow", adt));
            let rows = admitted_rows(
                &names,
                |i, j| !nfc.conflicts(&ops[i], &ops[j]),
                |i, j| !nrbc.conflicts(&ops[i], &ops[j]),
            );
            (names, rows)
        }
        _ => (Vec::new(), String::new()),
    };
    let names: Vec<String> = ops.iter().map(|n| format!("\"{n}\"")).collect();
    format!("{{\"adt\":{},\"ops\":[{}],\"table\":[{}]}}", json_string(adt), names.join(","), table)
}

/// Assemble the full profile document for one finished (traced) run.
/// Deterministic in the scenario: fixed key order, no wall-clock values in
/// deterministic runs, conflict rows in key order.
pub fn profile_json(
    scenario: &SimScenario,
    result: &Result<SimReport, SimFailure>,
    obs: &Tracer,
) -> String {
    let phases = obs.phase_profiles();
    let (verdict, failure) = match result {
        Ok(_) => ("pass", String::new()),
        Err(f) => ("fail", f.to_string()),
    };
    let zero = SimReport::default();
    let r = result.as_ref().unwrap_or(&zero);
    format!(
        concat!(
            "{{\"schema\":{},\"combo\":{},\"adt\":{},\"backend\":{},\"seed\":{},",
            "\"group_commit\":{},\"verdict\":{},\"failure\":{},",
            "\"committed\":{},\"gave_up\":{},\"retries\":{},\"rounds\":{},",
            "\"events\":{},\"oracle_checks\":{},\"faults_injected\":{},",
            "\"history_fingerprint\":{},",
            "\"coverage\":{{\"commit_ticks\":{},\"recovery_ticks\":{},",
            "\"commit_wall\":{},\"recovery_wall\":{}}},",
            "\"phases\":{},\"conflicts\":{},\"admitted\":{}}}"
        ),
        json_string(PROFILE_SCHEMA),
        json_string(&scenario.combo.to_string()),
        json_string(scenario.combo.adt_name()),
        json_string(&scenario.backend.to_string()),
        scenario.cfg.seed,
        scenario.cfg.group_commit,
        json_string(verdict),
        json_string(&failure),
        r.committed,
        r.gave_up,
        r.retries,
        r.rounds,
        r.events,
        r.oracle_checks,
        r.faults_injected,
        json_string(&format!("{:#018x}", r.history_fingerprint)),
        frac(phases.coverage(Phase::CommitTotal)),
        frac(phases.coverage(Phase::RecoveryTotal)),
        frac(phases.coverage_wall(Phase::CommitTotal)),
        frac(phases.coverage_wall(Phase::RecoveryTotal)),
        phases.to_json(),
        obs.conflict_matrix().to_json(),
        admitted_json(scenario.combo.adt_name()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_tables_cover_both_adts_and_all_pairs() {
        for adt in ["bank", "escrow"] {
            let js = admitted_json(adt);
            assert_eq!(js.matches("\"fc\":").count(), 16, "{adt}: 4x4 pairs");
            assert!(js.contains(&format!("\"adt\":\"{adt}\"")));
        }
        // The bank table encodes the paper's asymmetry: a deposit right
        // commutes backward past a successful withdrawal, not conversely.
        let bank = admitted_json("bank");
        assert!(
            bank.contains("{\"p\":\"DepositOk\",\"q\":\"WithdrawOk\",\"fc\":true,\"rbc\":true}")
        );
        assert!(
            bank.contains("{\"p\":\"WithdrawOk\",\"q\":\"DepositOk\",\"fc\":true,\"rbc\":false}")
        );
        assert_eq!(admitted_json("queue"), "{\"adt\":\"queue\",\"ops\":[],\"table\":[]}");
    }

    /// The escrow table is derived from the specification now; it must read
    /// exactly as the hand kind table rendered it (PR 26's parent).
    #[test]
    fn the_derived_escrow_table_is_the_hand_one() {
        let parent = concat!(
            "{\"adt\":\"escrow\",\"ops\":[\"CreditOk\",\"CreditNo\",\"DebitOk\",\"DebitNo\"],\"table\":[",
            "{\"p\":\"CreditOk\",\"q\":\"CreditOk\",\"fc\":false,\"rbc\":true},",
            "{\"p\":\"CreditOk\",\"q\":\"CreditNo\",\"fc\":true,\"rbc\":true},",
            "{\"p\":\"CreditOk\",\"q\":\"DebitOk\",\"fc\":true,\"rbc\":false},",
            "{\"p\":\"CreditOk\",\"q\":\"DebitNo\",\"fc\":false,\"rbc\":false},",
            "{\"p\":\"CreditNo\",\"q\":\"CreditOk\",\"fc\":true,\"rbc\":false},",
            "{\"p\":\"CreditNo\",\"q\":\"CreditNo\",\"fc\":true,\"rbc\":true},",
            "{\"p\":\"CreditNo\",\"q\":\"DebitOk\",\"fc\":false,\"rbc\":true},",
            "{\"p\":\"CreditNo\",\"q\":\"DebitNo\",\"fc\":true,\"rbc\":true},",
            "{\"p\":\"DebitOk\",\"q\":\"CreditOk\",\"fc\":true,\"rbc\":false},",
            "{\"p\":\"DebitOk\",\"q\":\"CreditNo\",\"fc\":false,\"rbc\":false},",
            "{\"p\":\"DebitOk\",\"q\":\"DebitOk\",\"fc\":false,\"rbc\":true},",
            "{\"p\":\"DebitOk\",\"q\":\"DebitNo\",\"fc\":true,\"rbc\":true},",
            "{\"p\":\"DebitNo\",\"q\":\"CreditOk\",\"fc\":false,\"rbc\":true},",
            "{\"p\":\"DebitNo\",\"q\":\"CreditNo\",\"fc\":true,\"rbc\":true},",
            "{\"p\":\"DebitNo\",\"q\":\"DebitOk\",\"fc\":true,\"rbc\":false},",
            "{\"p\":\"DebitNo\",\"q\":\"DebitNo\",\"fc\":true,\"rbc\":true}",
            "]}"
        );
        assert_eq!(admitted_json("escrow"), parent);
    }
}
