//! Group-commit durability benchmark.
//!
//! Runs the same seeded banking workload twice through the threaded durable
//! executor ([`ccr_runtime::threaded::run_threaded_durable`]): once with
//! per-commit fsyncs (the baseline every storage engine starts from) and
//! once with group commit, where a flush leader drains the staged batch and
//! makes it durable with a single fsync while the followers wait on the
//! commit barrier. The report carries the two figures the tentpole is
//! judged on — commits per fsync, and the p50/p90/p99 commit latency of the
//! grouped run against the baseline — rendered as the JSON checked in at
//! `reports/BENCH_group_commit.json` (schema-pinned by `bench_schema.rs`;
//! values drift with the machine, the key set must not).

use std::time::{Duration, Instant};

use ccr_adt::bank::{bank_nrbc, BankAccount};
use ccr_obs::json_string;
use ccr_runtime::engine::UipEngine;
use ccr_runtime::system::TxnSystem;
use ccr_runtime::threaded::{run_threaded_durable, GroupCommitCfg, ThreadedCfg};
use ccr_store::{WalBackend, WalConfig};

use crate::gen::{banking, WorkloadCfg};

/// Benchmark shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct BenchCfg {
    /// Transactions per side.
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Objects (bank accounts).
    pub objects: u32,
    /// Worker threads.
    pub workers: usize,
    /// Simulated device flush time in microseconds. A nonzero delay is what
    /// makes batches form: committers arriving during an in-flight flush
    /// stage behind it and share the next fsync.
    pub flush_delay_us: u64,
    /// Workload and interleaving seed.
    pub seed: u64,
}

impl Default for BenchCfg {
    fn default() -> Self {
        BenchCfg { txns: 200, ops_per_txn: 2, objects: 8, workers: 4, flush_delay_us: 200, seed: 0 }
    }
}

/// Measured figures of one side (baseline or grouped) of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct BenchSide {
    /// Transactions committed (and durably acknowledged).
    pub committed: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// `committed / fsyncs` — the amortisation the tentpole buys.
    pub commits_per_fsync: f64,
    /// Median commit latency, commit entry to durability, microseconds.
    pub p50_us: u64,
    /// 90th-percentile commit latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile commit latency, microseconds.
    pub p99_us: u64,
    /// Wall-clock time of the whole run, microseconds.
    pub wall_micros: u128,
}

impl BenchSide {
    fn to_json(self) -> String {
        format!(
            concat!(
                "{{\"committed\":{},\"fsyncs\":{},\"commits_per_fsync\":{:.3},",
                "\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"wall_micros\":{}}}"
            ),
            self.committed,
            self.fsyncs,
            self.commits_per_fsync,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.wall_micros,
        )
    }
}

/// The full benchmark report: the configuration and both sides.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// The shape the benchmark ran with.
    pub cfg: BenchCfg,
    /// Per-commit-fsync discipline.
    pub baseline: BenchSide,
    /// Group-commit discipline.
    pub grouped: BenchSide,
}

impl BenchReport {
    /// Grouped p99 commit latency over baseline p99 (the acceptance bound
    /// is ≤ 2.0; under contention grouping usually *wins*).
    pub fn p99_ratio(&self) -> f64 {
        if self.baseline.p99_us == 0 {
            f64::NAN
        } else {
            self.grouped.p99_us as f64 / self.baseline.p99_us as f64
        }
    }

    /// Render as a JSON object (hand-rolled: the build has no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"txns\":{},\"ops_per_txn\":{},\"objects\":{},",
                "\"workers\":{},\"flush_delay_us\":{},\"seed\":{},",
                "\"baseline\":{},\"grouped\":{},\"p99_ratio\":{:.3}}}"
            ),
            json_string("group_commit"),
            self.cfg.txns,
            self.cfg.ops_per_txn,
            self.cfg.objects,
            self.cfg.workers,
            self.cfg.flush_delay_us,
            self.cfg.seed,
            self.baseline.to_json(),
            self.grouped.to_json(),
            self.p99_ratio(),
        )
    }
}

/// Extract the flat object following `"key":{` (the bench sides have no
/// nested braces, so the first `}` closes it).
fn side_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":{{");
    let start = json.find(&tag)? + tag.len();
    let end = json[start..].find('}')? + start;
    Some(&json[start..end])
}

/// Extract a numeric field from a flat JSON object fragment.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = obj.find(&tag)? + tag.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The perf-regression guard: check a fresh benchmark run against the
/// committed baseline JSON (`reports/BENCH_profile.json`). The bounds are
/// deliberately loose — absolute latencies drift with the machine, the CI
/// runner included — and pin only what a regression would break:
///
/// * the workload completes (committed counts equal the baseline's);
/// * group commit still amortises fsyncs (`commits_per_fsync ≥ 1` and at
///   least half the committed figure);
/// * grouped p99 commit latency stays within 2× the *same run's* baseline
///   side (the tentpole acceptance bound, machine-relative by design).
///
/// Returns the list of violated bounds (empty = pass). `Err` means the
/// baseline file no longer parses against the pinned schema — schema drift
/// fails the guard outright rather than vacuously passing.
pub fn guard_violations(current: &BenchReport, baseline_json: &str) -> Result<Vec<String>, String> {
    let base = side_object(baseline_json, "baseline")
        .ok_or("baseline JSON lacks a \"baseline\" object (schema drift?)")?;
    let grouped = side_object(baseline_json, "grouped")
        .ok_or("baseline JSON lacks a \"grouped\" object (schema drift?)")?;
    let want = |obj: &str, key: &str| {
        num_field(obj, key).ok_or_else(|| format!("baseline JSON lacks numeric {key:?}"))
    };
    let base_committed = want(base, "committed")?;
    let grouped_committed = want(grouped, "committed")?;
    let grouped_cpf = want(grouped, "commits_per_fsync")?;

    let mut violations = Vec::new();
    if current.baseline.committed as f64 != base_committed {
        violations.push(format!(
            "baseline committed {} != recorded {}",
            current.baseline.committed, base_committed
        ));
    }
    if current.grouped.committed as f64 != grouped_committed {
        violations.push(format!(
            "grouped committed {} != recorded {}",
            current.grouped.committed, grouped_committed
        ));
    }
    if current.grouped.commits_per_fsync < 1.0 {
        violations.push(format!(
            "group commit no longer amortises: {:.3} commits/fsync",
            current.grouped.commits_per_fsync
        ));
    }
    if current.grouped.commits_per_fsync < grouped_cpf / 2.0 {
        violations.push(format!(
            "commits/fsync regressed: {:.3} < half of recorded {:.3}",
            current.grouped.commits_per_fsync, grouped_cpf
        ));
    }
    let p99_ratio = current.p99_ratio();
    if p99_ratio.is_nan() || p99_ratio > 2.0 {
        violations.push(format!("grouped/baseline p99 ratio {p99_ratio:.3} > 2.0"));
    }
    Ok(violations)
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn run_side(cfg: &BenchCfg, group_commit: bool) -> BenchSide {
    let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
        TxnSystem::new(BankAccount::default(), cfg.objects, bank_nrbc());
    let wcfg = WorkloadCfg {
        txns: cfg.txns,
        ops_per_txn: cfg.ops_per_txn,
        objects: cfg.objects,
        hot_fraction: 0.2,
        seed: cfg.seed,
    };
    let scripts = banking(&wcfg, 0.8);
    let tcfg = ThreadedCfg { workers: cfg.workers, ..Default::default() };
    let gc =
        GroupCommitCfg { group_commit, flush_delay: Duration::from_micros(cfg.flush_delay_us) };
    let started = Instant::now();
    let run = run_threaded_durable(sys, WalBackend::new(WalConfig::default()), scripts, &tcfg, &gc);
    let wall = started.elapsed();
    let committed = run.report.committed;
    let commits_per_fsync =
        if run.fsyncs == 0 { f64::NAN } else { committed as f64 / run.fsyncs as f64 };
    BenchSide {
        committed,
        fsyncs: run.fsyncs,
        commits_per_fsync,
        p50_us: percentile(&run.commit_latencies_us, 0.50),
        p90_us: percentile(&run.commit_latencies_us, 0.90),
        p99_us: percentile(&run.commit_latencies_us, 0.99),
        wall_micros: wall.as_micros(),
    }
}

/// Run both sides of the benchmark under `cfg`.
pub fn run_bench(cfg: &BenchCfg) -> BenchReport {
    let baseline = run_side(cfg, false);
    let grouped = run_side(cfg, true);
    BenchReport { cfg: *cfg, baseline, grouped }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_amortises_fsyncs_with_group_commit() {
        // Small shape so the test stays fast; the flush delay still forces
        // batching (every committer arriving mid-flush shares the next one).
        let cfg = BenchCfg { txns: 32, flush_delay_us: 300, ..Default::default() };
        let report = run_bench(&cfg);
        assert_eq!(report.baseline.committed, 32);
        assert_eq!(report.grouped.committed, 32);
        assert_eq!(report.baseline.fsyncs, 32, "baseline pays one fsync per commit");
        assert!(
            report.grouped.fsyncs < report.baseline.fsyncs,
            "group commit must amortise fsyncs: {} vs {}",
            report.grouped.fsyncs,
            report.baseline.fsyncs
        );
        assert!(report.grouped.commits_per_fsync > 1.0);
        let json = report.to_json();
        assert!(json.contains("\"commits_per_fsync\""));
        assert!(json.contains("\"p99_ratio\""));
    }

    #[test]
    fn guard_passes_its_own_report_and_flags_regressions() {
        let cfg = BenchCfg { txns: 32, flush_delay_us: 300, ..Default::default() };
        let report = run_bench(&cfg);
        let json = report.to_json();
        assert_eq!(guard_violations(&report, &json), Ok(Vec::new()));

        // A run that stopped amortising or lost commits must trip bounds.
        let mut broken = report.clone();
        broken.grouped.commits_per_fsync = 0.9;
        broken.grouped.committed -= 1;
        let violations = guard_violations(&broken, &json).unwrap();
        assert!(violations.iter().any(|v| v.contains("no longer amortises")), "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("grouped committed")), "{violations:?}");

        // Schema drift in the committed baseline fails, not vacuously passes.
        assert!(guard_violations(&report, "{}").is_err());
        assert!(guard_violations(&report, &json.replace("commits_per_fsync", "cpf")).is_err());
    }

    #[test]
    fn percentiles_index_the_sorted_tail() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
    }
}
