//! Measurement harness: run a workload under a named configuration and
//! collect a serialisable outcome.

use std::time::Instant;

use ccr_core::adt::Adt;
use ccr_core::atomicity::{check_dynamic_atomic, SystemSpec};
use ccr_core::conflict::Conflict;
use ccr_core::ids::ObjectId;
use ccr_obs::{json_string, HistogramSummary};
use ccr_runtime::engine::RecoveryEngine;
use ccr_runtime::scheduler::{run, SchedulerCfg};
use ccr_runtime::script::Script;
use ccr_runtime::system::{ConflictPolicy, TxnSystem};

/// Aggregated measurements from one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Configuration name, e.g. `"UIP + NRBC"`.
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Scripts that committed.
    pub committed: u64,
    /// Scripts that exhausted retries.
    pub gave_up: u64,
    /// Operations that hit a conflict (first attempts only; retried waits
    /// are not re-counted).
    pub blocks: u64,
    /// Raw blocked attempts including scheduler retries.
    pub block_attempts: u64,
    /// Scheduler rounds until completion (logical makespan).
    pub rounds: u64,
    /// Driver-rounds spent waiting — the primary lost-concurrency measure.
    pub wait_rounds: u64,
    /// Deadlock-victim aborts.
    pub deadlock_aborts: u64,
    /// Deferred-update validation aborts.
    pub validation_aborts: u64,
    /// Script restarts.
    pub retries: u64,
    /// Operations executed (including those of later-aborted attempts).
    pub ops: u64,
    /// Wall-clock time of the scheduled run, microseconds.
    pub wall_micros: u128,
    /// Committed transactions per wall-clock second (0 when the run was too
    /// fast to time).
    pub throughput: f64,
    /// Per-operation wait latency in logical ticks (0 for ops that never
    /// blocked), from the tracer histogram.
    pub op_latency: HistogramSummary,
    /// Lock-wait latency in logical ticks, recorded only for ops that
    /// blocked at least once.
    pub lock_wait: HistogramSummary,
    /// Begin-to-commit span in logical ticks, per committed transaction.
    pub time_to_commit: HistogramSummary,
    /// Dynamic-atomicity verdict on the recorded trace (only computed for
    /// small runs — the check is exponential).
    pub dynamic_atomic: Option<bool>,
}

impl Outcome {
    /// Render as a JSON object (hand-rolled: the build has no serde).
    pub fn to_json(&self) -> String {
        let da = match self.dynamic_atomic {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"config\":{},\"workload\":{},\"committed\":{},\"gave_up\":{},",
                "\"blocks\":{},\"block_attempts\":{},\"rounds\":{},\"wait_rounds\":{},",
                "\"deadlock_aborts\":{},\"validation_aborts\":{},\"retries\":{},",
                "\"ops\":{},\"wall_micros\":{},\"throughput\":{:.3},",
                "\"op_latency\":{},\"lock_wait\":{},\"time_to_commit\":{},",
                "\"dynamic_atomic\":{}}}"
            ),
            json_string(&self.config),
            json_string(&self.workload),
            self.committed,
            self.gave_up,
            self.blocks,
            self.block_attempts,
            self.rounds,
            self.wait_rounds,
            self.deadlock_aborts,
            self.validation_aborts,
            self.retries,
            self.ops,
            self.wall_micros,
            self.throughput,
            self.op_latency.to_json(),
            self.lock_wait.to_json(),
            self.time_to_commit.to_json(),
            da,
        )
    }
}

/// Render outcomes as a pretty-printed JSON array.
pub fn outcomes_json(outcomes: &[Outcome]) -> String {
    let body =
        outcomes.iter().map(|o| format!("  {}", o.to_json())).collect::<Vec<_>>().join(",\n");
    format!("[\n{body}\n]")
}

/// Harness knobs.
#[derive(Clone, Copy, Debug)]
pub struct HarnessCfg {
    /// Scheduler seed.
    pub seed: u64,
    /// Check the full trace for dynamic atomicity afterwards, exactly (the
    /// cost is exponential in the concurrent transactions at one object).
    pub check_atomicity: bool,
    /// Check the trace against this many *sampled* consistent orders instead
    /// (scales to arbitrarily concurrent runs; 0 disables). Ignored when
    /// `check_atomicity` is set.
    pub check_atomicity_sampled: usize,
    /// Admission control: maximum transactions in flight (0 = unlimited).
    pub mpl: usize,
    /// Conflict policy (blocking with deadlock detection, or wound-wait).
    pub policy: ConflictPolicy,
}

impl Default for HarnessCfg {
    fn default() -> Self {
        HarnessCfg {
            seed: 0,
            check_atomicity: false,
            check_atomicity_sampled: 0,
            mpl: 0,
            policy: ConflictPolicy::Block,
        }
    }
}

/// Run `scripts` over a fresh system with `n_objects` objects of `adt`,
/// engine `E` and conflict relation `conflict`. `setup` operations are
/// applied first in their own committed transaction (e.g. seeding account
/// balances).
#[allow(clippy::too_many_arguments)] // orchestration entry point: each knob is load-bearing
pub fn run_config<A, E, C>(
    config_name: &str,
    workload_name: &str,
    adt: A,
    n_objects: u32,
    conflict: C,
    setup: &[(ObjectId, A::Invocation)],
    scripts: Vec<Box<dyn Script<A>>>,
    cfg: &HarnessCfg,
) -> Outcome
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
{
    let mut sys: TxnSystem<A, E, C> =
        TxnSystem::new(adt.clone(), n_objects, conflict).with_policy(cfg.policy);
    sys.set_record_trace(cfg.check_atomicity || cfg.check_atomicity_sampled > 0);
    if !setup.is_empty() {
        let t = sys.begin();
        for (obj, inv) in setup {
            sys.invoke(t, *obj, inv.clone()).expect("setup operations must not conflict");
        }
        sys.commit(t).expect("setup commit");
    }
    let started = Instant::now();
    let report = run(
        &mut sys,
        scripts,
        &SchedulerCfg { seed: cfg.seed, mpl: cfg.mpl, ..Default::default() },
    );
    let wall = started.elapsed();
    let dynamic_atomic = if cfg.check_atomicity {
        let spec = SystemSpec::uniform(adt, n_objects);
        Some(check_dynamic_atomic(&spec, sys.trace()).is_ok())
    } else if cfg.check_atomicity_sampled > 0 {
        use rand::SeedableRng;
        let spec = SystemSpec::uniform(adt, n_objects);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        Some(
            ccr_core::atomicity::check_dynamic_atomic_sampled(
                &spec,
                sys.trace(),
                cfg.check_atomicity_sampled,
                &mut rng,
            )
            .is_ok(),
        )
    } else {
        None
    };
    let wall_secs = wall.as_secs_f64();
    let throughput = if wall_secs > 0.0 { report.committed as f64 / wall_secs } else { 0.0 };
    Outcome {
        config: config_name.to_string(),
        workload: workload_name.to_string(),
        committed: report.committed,
        gave_up: report.gave_up,
        blocks: report.blocked_ops,
        block_attempts: report.stats.blocks,
        rounds: report.rounds,
        wait_rounds: report.wait_rounds,
        deadlock_aborts: report.deadlock_aborts,
        validation_aborts: report.validation_aborts,
        retries: report.retries,
        ops: report.stats.ops,
        wall_micros: wall.as_micros(),
        throughput,
        op_latency: sys.obs().op_latency().summary(),
        lock_wait: sys.obs().lock_wait().summary(),
        time_to_commit: sys.obs().time_to_commit().summary(),
        dynamic_atomic,
    }
}

/// Render a set of outcomes as a markdown table (one row per outcome).
pub fn outcomes_table(outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    out.push_str(
        "| config | workload | committed | gave up | blocked ops | wait rounds | makespan | deadlocks | validation aborts | retries | dyn. atomic |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n");
    for o in outcomes {
        let da = match o.dynamic_atomic {
            Some(true) => "yes",
            Some(false) => "VIOLATED",
            None => "—",
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            o.config,
            o.workload,
            o.committed,
            o.gave_up,
            o.blocks,
            o.wait_rounds,
            o.rounds,
            o.deadlock_aborts,
            o.validation_aborts,
            o.retries,
            da,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{banking, WorkloadCfg};
    use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr_runtime::engine::UipEngine;

    #[test]
    fn harness_runs_and_checks_atomicity() {
        let wcfg = WorkloadCfg { txns: 10, ops_per_txn: 2, objects: 2, ..Default::default() };
        let scripts = banking(&wcfg, 0.7);
        let setup: Vec<(ObjectId, BankInv)> =
            (0..2).map(|i| (ObjectId(i), BankInv::Deposit(100))).collect();
        let outcome = run_config::<BankAccount, UipEngine<BankAccount>, _>(
            "UIP + NRBC",
            "banking",
            BankAccount::default(),
            2,
            bank_nrbc(),
            &setup,
            scripts,
            &HarnessCfg { seed: 1, check_atomicity: true, ..Default::default() },
        );
        assert_eq!(outcome.committed + outcome.gave_up, 10);
        assert_eq!(outcome.dynamic_atomic, Some(true));
        assert!(outcome.ops >= outcome.committed * 2);
    }

    #[test]
    fn outcomes_render_as_markdown() {
        let o = Outcome {
            config: "X".into(),
            workload: "w".into(),
            committed: 5,
            gave_up: 0,
            blocks: 2,
            block_attempts: 4,
            rounds: 9,
            wait_rounds: 3,
            deadlock_aborts: 1,
            validation_aborts: 0,
            retries: 1,
            ops: 12,
            wall_micros: 1000,
            throughput: 5000.0,
            op_latency: HistogramSummary::default(),
            lock_wait: HistogramSummary::default(),
            time_to_commit: HistogramSummary::default(),
            dynamic_atomic: Some(true),
        };
        let t = outcomes_table(&[o]);
        assert!(t.contains("| X | w | 5 |"));
        assert!(t.contains("| 2 | 3 | 9 |"));
    }
}
