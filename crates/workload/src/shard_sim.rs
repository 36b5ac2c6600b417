//! The sharded simulator — a seeded walk of the model checker's fleet, the
//! arm [`crate::sim::run`] hands a scenario with `shards >= 2` to, so the one
//! sweep and the one shrinker of [`crate::sim`] reach it — and a
//! deterministic 2PC frame-cost bench on the same fleet.
//!
//! The fleet is [`ccr_mc::Harness`]'s: logical transaction `i` deposits
//! `1 << i` into each participant's home object (object `s` lives on shard
//! `s`). The walker turns the scenario — seed, fault plan, shape — into
//! harness actions and applies them one at a time, so every step runs the
//! harness's battery: the ledger (stray bits, the **eighth oracle leg**,
//! durability, no resurrection) after each, and on every shard a crash
//! recovered the batch-prefix, replay-view, convergence and idempotence
//! legs. A failure is the [`McViolation`] with the trace that reached it.
//!
//! Participants are drawn from the seed (`parts_for`): about two thirds of
//! the transactions are global (2..=n participants, `b p q`), the rest local
//! to one shard (`b c`, staged and flushed with `f` under group commit). The
//! clock is two events per transaction (begin, commit); fault kinds map as:
//! `shards{mask}` → `s{mask}`; crash and storage kinds → `s{all} z`;
//! `abort` / `wound` → `a{i}` on the oldest open transaction; `twopc{step}`
//! (or `--2pc-crash`, step `i mod 4`) spells the next global commit's phase
//! two as `z`, `s{first} q`, `h` or `u{first}.2 z`; device-latency kinds have
//! nothing to bite and are counted as skipped. `--lose-decision` is
//! [`Mutation::LoseDecision`].
//!
//! A run ends with a flush, a fleet-wide crash and, on disk, the offline WAL
//! inspector's reading of each shard's final image checked field by field
//! against a real recovery scan — prepare and decide frames included.

use ccr_adt::bank::BankAccount;
use ccr_mc::harness::Applied;
use ccr_mc::{Harness, McAction, McBackend, McConfig, McTrace, McViolation, Mutation};
use ccr_runtime::fault::FaultKind;
use ccr_store::{inspect_wal, MemBackend, WalBackend};

use crate::sim::{Backend, SimScenario};

/// Most transactions one sharded scenario can carry: each owns one bit of
/// every participant's balance.
pub(crate) const MAX_TXNS: usize = 60;

/// Outcome counters of one passing sharded run. Deterministic in the
/// scenario — [`ShardReport::to_json`] is byte-identical across reruns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Transactions acknowledged committed.
    pub committed: u64,
    /// Of those, cross-shard (full presumed-abort 2PC).
    pub cross_committed: u64,
    /// Transactions aborted (faulted, forced, or crash-doomed).
    pub aborted: u64,
    /// Full-fleet crashes (coordinator included).
    pub crashes: u64,
    /// `shards{mask}` subset crashes fired.
    pub crash_subsets: u64,
    /// Cross-shard commits driven through a 2PC-step crash.
    pub twopc_crashes: u64,
    /// Transactions force-aborted by `abort`/`wound` faults.
    pub forced_aborts: u64,
    /// In-doubt participants settled after a crash against durable
    /// coordinator truth.
    pub resolved_in_doubt: u64,
    /// Commit decisions the walker withheld from the coordinator's log (0
    /// unless the lose-decision control is armed).
    pub lost_decisions: u64,
    /// Faults with nothing to bite in this walker (device latency, a crash
    /// mask naming no shard).
    pub skipped_faults: u64,
    /// Harness actions applied — the battery runs after each.
    pub oracle_checks: u64,
    /// FNV-1a over final per-shard states and per-transaction outcomes.
    pub fingerprint: u64,
}

impl ShardReport {
    /// Deterministic JSON rendering: fixed key order, no wall-clock.
    pub fn to_json(&self, scenario: &SimScenario) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str("  \"mode\": \"shard\",\n");
        out.push_str(&format!("  \"shards\": {},\n", scenario.shards));
        out.push_str(&format!("  \"seed\": {},\n", scenario.cfg.seed));
        out.push_str(&format!("  \"txns\": {},\n", scenario.txns));
        out.push_str(&format!("  \"backend\": \"{}\",\n", scenario.backend));
        out.push_str(&format!("  \"group_commit\": {},\n", scenario.cfg.group_commit));
        out.push_str(&format!("  \"twopc_crash\": {},\n", scenario.twopc_crash));
        out.push_str(&format!("  \"committed\": {},\n", self.committed));
        out.push_str(&format!("  \"cross_committed\": {},\n", self.cross_committed));
        out.push_str(&format!("  \"aborted\": {},\n", self.aborted));
        out.push_str(&format!("  \"crashes\": {},\n", self.crashes));
        out.push_str(&format!("  \"crash_subsets\": {},\n", self.crash_subsets));
        out.push_str(&format!("  \"twopc_crashes\": {},\n", self.twopc_crashes));
        out.push_str(&format!("  \"forced_aborts\": {},\n", self.forced_aborts));
        out.push_str(&format!("  \"resolved_in_doubt\": {},\n", self.resolved_in_doubt));
        out.push_str(&format!("  \"lost_decisions\": {},\n", self.lost_decisions));
        out.push_str(&format!("  \"skipped_faults\": {},\n", self.skipped_faults));
        out.push_str(&format!("  \"oracle_checks\": {},\n", self.oracle_checks));
        out.push_str(&format!("  \"fingerprint\": \"0x{:016x}\"\n", self.fingerprint));
        out.push_str("}\n");
        out
    }
}

/// splitmix64: the per-transaction shape hash (participants, home shard).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The participant shards of logical transaction `i` (sorted): about two
/// thirds cross-shard, the rest single-shard. The lose-decision control
/// needs a cross-shard victim, so it forces transaction 0 to span the
/// whole fleet.
fn parts_for(seed: u64, i: usize, nshards: usize, lose_decision: bool) -> Vec<usize> {
    if lose_decision && i == 0 {
        return (0..nshards).collect();
    }
    let h = mix(seed, i as u64);
    if h.is_multiple_of(3) {
        return vec![(h >> 4) as usize % nshards];
    }
    let k = 2 + ((h >> 8) as usize % (nshards - 1));
    let base = (h >> 16) as usize % nshards;
    let mut parts: Vec<usize> = (0..k).map(|j| (base + j) % nshards).collect();
    parts.sort_unstable();
    parts
}

/// One seeded walk: the harness, the scenario's placement and the actions
/// that took effect so far.
struct Walk<'a, B: McBackend> {
    scenario: &'a SimScenario,
    harness: Harness<B>,
    /// Participant shards of each transaction.
    parts: Vec<Vec<usize>>,
    trace: Vec<McAction>,
    next_fault: usize,
    /// One-shot 2PC crash step armed by a `twopc{step}` fault.
    armed_step: Option<u32>,
    /// Every shard, as a crash mask.
    full: u32,
    report: ShardReport,
}

impl<'a, B: McBackend> Walk<'a, B> {
    fn new(scenario: &'a SimScenario) -> Self {
        let n = scenario.shards;
        let cfg = McConfig {
            txns: scenario.txns,
            shards: n,
            crash_budget: u32::MAX,
            ckpt_budget: 0,
            group_commit: scenario.cfg.group_commit,
            backend: scenario.backend,
            mutation: scenario.lose_decision.then_some(Mutation::LoseDecision),
            ..McConfig::default()
        };
        let parts: Vec<Vec<usize>> = (0..scenario.txns)
            .map(|i| parts_for(scenario.cfg.seed, i, n, scenario.lose_decision))
            .collect();
        let places = parts.iter().map(|p| p.iter().map(|&s| cfg.home(s)).collect()).collect();
        Walk {
            scenario,
            harness: Harness::new(cfg, places),
            parts,
            trace: Vec::new(),
            next_fault: 0,
            armed_step: None,
            full: (1u32 << n) - 1,
            report: ShardReport::default(),
        }
    }

    /// Apply one action; `Ok(false)` if it was inapplicable.
    fn apply(&mut self, action: McAction) -> Result<bool, McViolation> {
        let applied = self.harness.apply(action);
        if applied != Applied::Skip {
            self.trace.push(action);
        }
        match applied {
            Applied::Ok => Ok(true),
            Applied::Skip => Ok(false),
            Applied::Violation(v) => Err(v),
        }
    }

    /// Full-fleet power loss: every shard, then the coordinator.
    fn crash_fleet(&mut self) -> Result<(), McViolation> {
        self.apply(McAction::CrashShards(self.full))?;
        self.apply(McAction::CrashCoordinator)?;
        self.report.crashes += 1;
        Ok(())
    }

    /// Force-abort the oldest open transaction, if any.
    fn abort_oldest(&mut self) -> Result<bool, McViolation> {
        for i in 0..self.scenario.txns {
            if self.apply(McAction::Abort(i))? {
                self.report.forced_aborts += 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Fire every planned fault due at or before event `ev` (`u64::MAX`
    /// drains the plan).
    fn fire_due(&mut self, ev: u64) -> Result<(), McViolation> {
        let faults = self.scenario.plan.faults();
        while let Some(fault) = faults.get(self.next_fault).filter(|f| f.at_event <= ev) {
            self.next_fault += 1;
            match fault.kind {
                FaultKind::CrashShards { mask } if mask & self.full != 0 => {
                    self.apply(McAction::CrashShards(mask & self.full))?;
                    self.report.crash_subsets += 1;
                }
                FaultKind::TwoPcCrash { step } => self.armed_step = Some(step),
                FaultKind::Crash
                | FaultKind::TornCrash { .. }
                | FaultKind::SectorTorn { .. }
                | FaultKind::ReorderFlush
                | FaultKind::BitFlip { .. } => self.crash_fleet()?,
                FaultKind::ForceAbort => _ = self.abort_oldest()?,
                FaultKind::WoundStorm => while self.abort_oldest()? {},
                FaultKind::CrashShards { .. }
                | FaultKind::DelayCommit { .. }
                | FaultKind::TransientIo { .. }
                | FaultKind::DiskFull
                | FaultKind::SlowDisk { .. }
                | FaultKind::FsyncStall { .. } => self.report.skipped_faults += 1,
            }
        }
        Ok(())
    }

    /// Commit transaction `i` if it is still open: a local one directly (or
    /// staged, its shard flushing every second staged commit), a global one
    /// through phase one and then phase two as the armed or scenario-wide
    /// 2PC crash step, or the lose-decision control, spells it.
    fn commit(&mut self, i: usize) -> Result<(), McViolation> {
        let first = self.parts[i][0];
        if self.parts[i].len() == 1 {
            if self.apply(McAction::Commit(i))? && self.scenario.cfg.group_commit {
                let staged = self.harness.staged().iter();
                if staged.filter(|&&j| self.parts[j][0] == first).count() >= 2 {
                    self.apply(McAction::Flush)?;
                }
            }
            return Ok(());
        }
        if !self.apply(McAction::Prepare(i))? {
            return Ok(());
        }
        let step = if self.scenario.lose_decision && self.report.lost_decisions == 0 {
            self.report.lost_decisions += 1;
            None
        } else {
            self.armed_step.take().or(self.scenario.twopc_crash.then_some(i as u32))
        };
        let phase_two = match step.map(|step| step % 4) {
            None => vec![McAction::DecideCommit(i)],
            Some(0) => vec![McAction::CrashCoordinator],
            Some(1) => vec![McAction::CrashShards(1 << first), McAction::DecideCommit(i)],
            Some(2) => vec![McAction::CutPhaseTwo(i)],
            Some(_) => vec![McAction::CrashShardInRecovery(first, 2), McAction::CrashCoordinator],
        };
        self.report.twopc_crashes += u64::from(step.is_some());
        for action in phase_two {
            self.apply(action)?;
        }
        Ok(())
    }

    /// Walk the scenario to its end or its first violation.
    fn walk(&mut self) -> Result<(), McViolation> {
        let mut ev = 0u64;
        for i in 0..self.scenario.txns {
            if self.scenario.skip.contains(&i) {
                continue;
            }
            self.fire_due(ev)?;
            self.apply(McAction::Begin(i))?;
            ev += 1;
            self.fire_due(ev)?;
            self.commit(i)?;
            ev += 1;
        }
        self.fire_due(u64::MAX)?;
        self.apply(McAction::Flush)?;
        // The run's last word: a fleet-wide power loss. Everything acked
        // must come back; nothing else may.
        self.crash_fleet()?;
        // Forensic leg on disk: the offline inspector's reading of every
        // shard's final image must agree field by field with a real
        // recovery scan.
        for shard in 0..self.scenario.shards {
            let backend = self.harness.fleet().shard(shard).backend();
            if let Some(Err(detail)) = backend.inspection_agrees_with_recovery() {
                return Err(McViolation::InspectorDisagreement { shard, detail });
            }
        }
        Ok(())
    }

    /// The counters of a passing walk, with the FNV-1a fingerprint over
    /// final states and per-transaction outcomes — or the violation and the
    /// actions that reached it.
    fn run(mut self) -> Result<ShardReport, (McViolation, McTrace)> {
        if let Err(violation) = self.walk() {
            return Err((violation, McTrace(self.trace)));
        }
        let mut report = ShardReport { oracle_checks: self.trace.len() as u64, ..self.report };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        self.harness.states().into_iter().for_each(&mut eat);
        for (i, parts) in self.parts.iter().enumerate() {
            let committed = self.harness.committed(i);
            eat(u64::from(committed));
            report.committed += u64::from(committed);
            report.cross_committed += u64::from(committed && parts.len() >= 2);
        }
        report.fingerprint = h;
        report.aborted = self.scenario.live_txns() as u64 - report.committed;
        let fleet = self.harness.fleet();
        report.resolved_in_doubt =
            (0..self.scenario.shards).map(|s| fleet.shard(s).stats().resolved).sum();
        Ok(report)
    }
}

/// Run one sharded scenario to completion or its first violation, with the
/// actions that reached it — the arm of [`crate::sim::run`] for callers
/// that need the typed [`ShardReport`]. Fully deterministic in the scenario.
pub fn run_shard_scenario(scenario: &SimScenario) -> Result<ShardReport, (McViolation, McTrace)> {
    assert!(scenario.txns <= MAX_TXNS, "at most {MAX_TXNS} transactions (one bit each)");
    match scenario.backend {
        Backend::Disk => Walk::<WalBackend<BankAccount>>::new(scenario).run(),
        Backend::Mem => Walk::<MemBackend<BankAccount>>::new(scenario).run(),
    }
}

/// Shape of the deterministic 2PC frame-cost bench.
#[derive(Clone, Copy, Debug)]
pub struct ShardBenchCfg {
    /// Transactions per side.
    pub txns: usize,
    /// Shards in the fleet.
    pub shards: usize,
}

impl Default for ShardBenchCfg {
    fn default() -> Self {
        ShardBenchCfg { txns: 48, shards: 3 }
    }
}

/// One side of the bench: all-single-shard (fast path) or all-cross-shard
/// (full 2PC), measured in WAL frames — the deterministic cost unit (wall
/// clock drifts; frame counts cannot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBenchSide {
    /// Transactions acknowledged committed.
    pub committed: u64,
    /// Plain commit frames across all shard logs.
    pub commit_frames: u64,
    /// Prepare frames across all shard logs.
    pub prepare_frames: u64,
    /// Decide frames across all shard logs.
    pub decide_frames: u64,
    /// Data frames (commit + prepare + decide) per committed transaction,
    /// in thousandths (deterministic fixed-point; no floats in the JSON).
    pub frames_per_commit_milli: u64,
}

/// The bench report: cross-shard commit overhead versus the single-shard
/// baseline, in frames. Byte-deterministic — CI regenerates and compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBenchReport {
    /// Transactions per side.
    pub txns: usize,
    /// Shards in the fleet.
    pub shards: usize,
    /// The single-shard fast-path side.
    pub single: ShardBenchSide,
    /// The all-cross-shard 2PC side.
    pub cross: ShardBenchSide,
    /// `cross.frames_per_commit / single.frames_per_commit`, in
    /// thousandths.
    pub frame_overhead_milli: u64,
}

fn bench_side(cfg: &ShardBenchCfg, cross: bool) -> ShardBenchSide {
    let n = cfg.shards;
    let mc = McConfig { txns: cfg.txns, shards: n, ..McConfig::default() };
    let shards = |i: usize| if cross { (0..n).collect() } else { vec![i % n] };
    let places = (0..cfg.txns).map(|i| shards(i).into_iter().map(|s| mc.home(s)).collect());
    let mut h = Harness::<WalBackend<BankAccount>>::new(mc, places.collect());
    for i in 0..cfg.txns {
        let spelled = if cross { format!("b{i} p{i} q{i}") } else { format!("b{i} c{i}") };
        for action in spelled.parse::<McTrace>().expect("a well-formed trace").0 {
            h.apply(action);
        }
    }
    let committed = (0..cfg.txns).filter(|&i| h.committed(i)).count() as u64;
    let (mut commit_frames, mut prepare_frames, mut decide_frames) = (0u64, 0u64, 0u64);
    for s in 0..n {
        let backend = h.fleet().shard(s).backend();
        let insp = inspect_wal::<BankAccount>(backend.disk(), &backend.config());
        for seg in &insp.segments {
            for f in &seg.frames {
                if f.status != "valid" {
                    continue;
                }
                match f.kind {
                    "commit" => commit_frames += 1,
                    "prepare" => prepare_frames += 1,
                    "decide" => decide_frames += 1,
                    _ => {}
                }
            }
        }
    }
    let data_frames = commit_frames + prepare_frames + decide_frames;
    ShardBenchSide {
        committed,
        commit_frames,
        prepare_frames,
        decide_frames,
        frames_per_commit_milli: (data_frames * 1000).checked_div(committed).unwrap_or(0),
    }
}

/// Run the 2PC frame-cost bench: `cfg.txns` single-shard commits versus
/// `cfg.txns` fleet-spanning commits on identical disk fleets.
pub fn run_shard_bench(cfg: &ShardBenchCfg) -> ShardBenchReport {
    assert!((2..=8).contains(&cfg.shards), "bench fleets are 2..=8 shards");
    let single = bench_side(cfg, false);
    let cross = bench_side(cfg, true);
    let frame_overhead_milli = (cross.frames_per_commit_milli * 1000)
        .checked_div(single.frames_per_commit_milli)
        .unwrap_or(0);
    ShardBenchReport { txns: cfg.txns, shards: cfg.shards, single, cross, frame_overhead_milli }
}

impl ShardBenchReport {
    /// Deterministic JSON rendering (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        let side = |s: &ShardBenchSide| {
            format!(
                "{{\n    \"committed\": {},\n    \"commit_frames\": {},\n    \
                 \"prepare_frames\": {},\n    \"decide_frames\": {},\n    \
                 \"frames_per_commit_milli\": {}\n  }}",
                s.committed,
                s.commit_frames,
                s.prepare_frames,
                s.decide_frames,
                s.frames_per_commit_milli
            )
        };
        format!(
            "{{\n  \"mode\": \"bench-shard\",\n  \"txns\": {},\n  \"shards\": {},\n  \
             \"single\": {},\n  \"cross\": {},\n  \"frame_overhead_milli\": {}\n}}\n",
            self.txns,
            self.shards,
            side(&self.single),
            side(&self.cross),
            self.frame_overhead_milli
        )
    }

    /// Exit-code-enforced bounds: every violated bound, empty when the
    /// report is healthy. Presumed abort's ledger is exact — a
    /// single-shard commit costs one commit frame and zero 2PC frames; a
    /// fleet-spanning commit costs one prepare plus one decide frame per
    /// participant and no coordinator record beyond the decision — so the
    /// bounds are equalities, not tolerances.
    pub fn guard_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let txns = self.txns as u64;
        let shards = self.shards as u64;
        if self.single.committed != txns {
            v.push(format!("single side committed {}/{txns}", self.single.committed));
        }
        if self.cross.committed != txns {
            v.push(format!("cross side committed {}/{txns}", self.cross.committed));
        }
        if self.single.prepare_frames != 0 || self.single.decide_frames != 0 {
            v.push(format!(
                "fast path must write no 2PC frames (prepare {}, decide {})",
                self.single.prepare_frames, self.single.decide_frames
            ));
        }
        if self.single.commit_frames != txns {
            v.push(format!(
                "single side wrote {} commit frames, want {txns}",
                self.single.commit_frames
            ));
        }
        if self.cross.prepare_frames != txns * shards {
            v.push(format!(
                "cross side wrote {} prepare frames, want {}",
                self.cross.prepare_frames,
                txns * shards
            ));
        }
        if self.cross.decide_frames != txns * shards {
            v.push(format!(
                "cross side wrote {} decide frames, want {}",
                self.cross.decide_frames,
                txns * shards
            ));
        }
        if self.cross.commit_frames != 0 {
            v.push(format!(
                "2PC commits must carry their records in prepare frames, found {} commit frames",
                self.cross.commit_frames
            ));
        }
        if self.frame_overhead_milli > 2 * shards * 1000 {
            v.push(format!(
                "cross-shard frame overhead {}m exceeds 2×shards bound {}m",
                self.frame_overhead_milli,
                2 * shards * 1000
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run, shrink, sweep, Combo, Sweep};
    use ccr_runtime::fault::{FaultMix, FaultPlan};

    fn base(seed: u64, shards: usize) -> SimScenario {
        let plan = FaultPlan::from_seed(seed, 40, 3, FaultMix::Sharded { nshards: shards as u32 });
        let mut s = SimScenario::new(Combo::UipNrbc, seed, plan);
        s.shards = shards;
        s
    }

    fn template(shards: usize) -> SimScenario {
        SimScenario { twopc_crash: true, ..base(0, shards) }
    }

    #[test]
    fn sharded_sweeps_pass_on_both_backends() {
        for backend in [Backend::Disk, Backend::Mem] {
            let cells = Sweep::new(SimScenario { backend, ..template(2) }, 4);
            assert!(sweep(&cells).is_none(), "sharded sweep must pass on {backend}");
        }
    }

    #[test]
    fn group_commit_and_three_shards_survive_the_sweep() {
        let mut template = template(3);
        template.cfg.group_commit = true;
        assert!(sweep(&Sweep::new(template, 4)).is_none());
    }

    #[test]
    fn lose_decision_is_caught_as_a_global_split() {
        let mut scenario = base(11, 2);
        scenario.lose_decision = true;
        let failure = run(&scenario).expect_err("the planted bug must be caught");
        assert_eq!(failure.kind(), "global-split", "got {failure}");
        // The shrunk reproducer still pins the driver-routing knobs.
        let found = shrink(&scenario);
        assert_eq!(found.failure.kind(), "global-split");
        let line = found.shrunk.reproducer();
        assert!(line.contains(" --shards 2"), "reproducer must pin shards: {line}");
        assert!(line.contains(" --lose-decision"), "reproducer must pin the control: {line}");
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let mut scenario = base(7, 3);
        scenario.twopc_crash = true;
        let a = run_shard_scenario(&scenario).unwrap();
        let b = run_shard_scenario(&scenario).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(&scenario), b.to_json(&scenario));
    }

    #[test]
    fn twopc_crash_exercises_every_step_and_still_settles_uniformly() {
        // 8 transactions with steps cycling i % 4 cover all four canonical
        // crash points at least once (for the cross-shard majority).
        let plan = FaultPlan::default();
        let mut scenario = SimScenario::new(Combo::UipNrbc, 5, plan);
        scenario.shards = 2;
        scenario.twopc_crash = true;
        let report = run_shard_scenario(&scenario).unwrap();
        assert!(report.twopc_crashes >= 4, "want every step exercised: {report:?}");
    }

    #[test]
    fn bench_counts_the_exact_2pc_frame_ledger() {
        let cfg = ShardBenchCfg { txns: 8, shards: 2 };
        let report = run_shard_bench(&cfg);
        assert_eq!(report.single.commit_frames, 8);
        assert_eq!(report.single.prepare_frames, 0);
        assert_eq!(report.cross.prepare_frames, 16);
        assert_eq!(report.cross.decide_frames, 16);
        assert_eq!(report.frame_overhead_milli, 4000, "2 shards ⇒ 4 frames per cross commit");
        assert!(report.guard_violations().is_empty(), "{:?}", report.guard_violations());
        // Byte-deterministic across reruns (CI compares the committed file).
        assert_eq!(report.to_json(), run_shard_bench(&cfg).to_json());
    }
}
