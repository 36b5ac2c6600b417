//! Deterministic fault-injection simulation with an atomicity oracle.
//!
//! [`run_sim`] drives seeded scripts through a [`DurableSystem`] with the
//! plain scheduler's own executor (`scheduler.rs`'s `RoundRobin` — a
//! fault-free run is [`crate::scheduler::run`] step for step), but counts
//! every driver visit on a global *event counter* and injects the faults of
//! a [`FaultPlan`] when the counter reaches their indices: crashes (with
//! optional torn final journal record), forced aborts, delayed commits,
//! wound storms, and — through the `ccr-store` backend —
//! sector-granularity storage faults: torn flushes,
//! reordered flushes, bit flips, transient I/O budgets (absorbed by the
//! backend's bounded retries) and a disk-full condition (driving the system
//! into read-only degraded mode until the scheduler's deterministic heal
//! flow checkpoints it back). After every injected fault — and once more
//! at the end of the run — the **oracle** runs its legs (DESIGN.md §7 states
//! each once: dynamic atomicity of the recorded history, the journal folded
//! both ways against the served states by [`crate::oracle::views_agree`],
//! damage always detected, pre-crash states preserved, the caller's
//! invariant, and at the end recovery convergence and bounded outcomes).
//!
//! Everything is deterministic in `(seed, plan, scripts)`: the report —
//! including a fingerprint folded over every crash epoch's history — is
//! byte-identical across runs, which is what makes failures shrinkable
//! (see `ccr-workload`'s shrinker).

use std::collections::BTreeMap;

use ccr_core::adt::Adt;
use ccr_core::atomicity::{check_dynamic_atomic, SystemSpec};
use ccr_core::conflict::Conflict;
use ccr_core::history::History;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_obs::{FaultCounter, Tracer};
use ccr_store::{LogBackend, SimDisk, TailPolicy};

use crate::crash::{DurableSystem, RedoError, TornPolicy};
use crate::engine::RecoveryEngine;
use crate::error::{AbortReason, TxnError};
use crate::fault::{FaultKind, FaultPlan};
use crate::oracle::{views_agree, Failure, Surfaced, Violation};
use crate::scheduler::{Driven, RoundRobin, SchedulerCfg, Stepped, Wake};
use crate::script::Script;
use crate::system::{SystemStats, TxnSystem};

/// Retries per script before the executor gives up on it.
const MAX_RETRIES: usize = 64;
/// Safety cap on scheduler rounds.
const MAX_ROUNDS: u64 = 100_000;
/// Seventh-leg liveness budget: a live transaction older than this many
/// rounds fails the bounded-outcome oracle.
const OUTCOME_BUDGET: u64 = 10_000;

/// Simulator configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCfg {
    /// RNG seed for the interleaving order.
    pub seed: u64,
    /// Write a checkpoint (folding the journal prefix into a durable image
    /// and letting the backend truncate) every this many commits. `None`
    /// disables checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Group commit: drivers reaching their commit step stage it instead of
    /// flushing immediately; at the end of every scheduler round the staged
    /// batch is committed and made durable with **one** flush
    /// ([`DurableSystem::commit_group`]), and only then are the drivers
    /// acknowledged. Storage faults that tear the batch flush exercise
    /// recovery's tail rules: strict recovery must refuse the tail, discard
    /// recovery must keep exactly a prefix of the batch (on the WAL, which
    /// writes a batch as one frame, none of it).
    pub group_commit: bool,
    /// Run the sixth oracle leg at the end of the run: crash the device at
    /// *every* op index recovery itself consumes
    /// ([`LogBackend::check_recovery_convergence`]) and demand every
    /// eventual recovery reproduce the baseline outcome. No-op on backends
    /// without a device.
    pub fault_during_recovery: bool,
    /// Multiprogramming level: drivers wanting to *begin* a transaction
    /// wait while this many are already in flight. 0 = unlimited.
    pub mpl: usize,
    /// Per-transaction deadline in scheduler rounds: a transaction older
    /// than this is aborted with `AbortReason::Deadline` and its driver
    /// restarted under jittered backoff. 0 = no deadlines.
    pub deadline: u64,
    /// Group-commit admission bound ([`DurableSystem::set_admission_bound`]):
    /// batch members beyond this many staged records are shed with
    /// [`TxnError::Shed`] and their drivers restarted under backpressure.
    /// 0 = unbounded.
    pub max_staged: usize,
    /// Gray-failure health detector threshold
    /// ([`DurableSystem::set_stall_detector`], two strikes): a commit whose
    /// device-stall delta reaches this many ticks counts toward degrading
    /// the system. 0 = detector off.
    pub stall_threshold: u64,
    /// Negative control for the seventh leg: swallow the admission gate's
    /// shed acknowledgement (the driver is silently marked done instead of
    /// restarted). The bounded-outcome oracle must catch the resulting
    /// unaccounted driver — a run with this flag that *passes* means the
    /// leg has gone blind.
    pub mutate_swallow_shed: bool,
}

/// Outcome of a fault-free-of-violations simulation. Contains no wall-clock
/// or other nondeterministic data: the same `(seed, plan, scripts)` must
/// produce an identical report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Scripts that ultimately committed.
    pub committed: u64,
    /// Scripts that ended with a voluntary abort.
    pub voluntary_aborts: u64,
    /// Scripts that exhausted their retries (or lost their step to
    /// corruption).
    pub gave_up: u64,
    /// Script restarts.
    pub retries: u64,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Global events counted (the fault clock).
    pub events: u64,
    /// Faults actually injected (plan entries beyond the run never fire).
    pub faults_injected: u64,
    /// Oracle passes executed.
    pub oracle_checks: u64,
    /// Deadlock victims aborted by the simulator.
    pub deadlock_aborts: u64,
    /// Fingerprint folded over every crash epoch's recorded history — the
    /// determinism witness.
    pub history_fingerprint: u64,
    /// Per-committed-script latency in scheduler rounds (last begin to
    /// commit acknowledgement), sorted ascending. Logical time, so the
    /// vector is deterministic in `(seed, plan, scripts)` — the overload
    /// bench's p99 source.
    pub commit_latency_rounds: Vec<u64>,
    /// Final system counters (crash/fault counters included).
    pub stats: SystemStats,
}

/// A caller-supplied invariant over the map of committed states.
pub type StateInvariant<A> = dyn Fn(&BTreeMap<ObjectId, <A as Adt>::State>) -> Result<(), String>;

impl<A, E, C, B> Driven<A> for DurableSystem<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    type Engine = E;
    type Conflict = C;
    fn txns(&mut self) -> &mut TxnSystem<A, E, C> {
        self.system_mut()
    }
    fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        DurableSystem::invoke(self, txn, obj, inv)
    }
    fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        DurableSystem::abort(self, txn)
    }
}

/// One simulated run: the system under test, the executor driving it, and
/// what the fault clock and the oracle carry between calls.
struct Sim<'a, A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    sys: &'a mut DurableSystem<A, E, C, B>,
    exec: RoundRobin<A>,
    cfg: &'a SimCfg,
    spec: &'a SystemSpec<A>,
    invariant: Option<&'a StateInvariant<A>>,
    report: SimReport,
    /// Fingerprint fold across crash epochs: each crash seals the epoch's
    /// history into the fold before the trace is lost.
    fp_fold: u64,
    /// A pending delayed-commit fault, consumed by the next committer.
    delay_next_commit: Option<u32>,
}

/// Run `scripts` through `sys` under `plan`, checking the oracle after every
/// injected fault and at the end. Returns the deterministic report, or the
/// first oracle failure.
pub fn run_sim<A, E, C, B>(
    sys: &mut DurableSystem<A, E, C, B>,
    scripts: Vec<Box<dyn Script<A>>>,
    plan: &FaultPlan,
    cfg: &SimCfg,
    spec: &SystemSpec<A>,
    invariant: Option<&StateInvariant<A>>,
) -> Result<SimReport, Failure>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    // Overload-protection knobs live on the durable system; the sim config
    // is their single source of truth so reproducer command lines pin them.
    sys.set_admission_bound(cfg.max_staged);
    if cfg.stall_threshold > 0 {
        sys.set_stall_detector(cfg.stall_threshold);
    }
    // The executor is the plain scheduler's.
    let exec_cfg = SchedulerCfg {
        seed: cfg.seed,
        max_retries: MAX_RETRIES,
        max_rounds: MAX_ROUNDS,
        mpl: cfg.mpl,
        deadline: cfg.deadline,
    };
    let mut sim = Sim {
        sys,
        exec: RoundRobin::new(scripts, exec_cfg),
        cfg,
        spec,
        invariant,
        report: SimReport::default(),
        fp_fold: 0,
        delay_next_commit: None,
    };
    let mut faults = plan.faults().iter().peekable();

    while let Some(order) = sim.exec.next_round() {
        for i in order {
            if sim.exec.drivers[i].done {
                continue;
            }
            // The fault clock ticks once per scheduled driver visit.
            sim.report.events += 1;
            while let Some(f) = faults.next_if(|f| f.at_event <= sim.report.events) {
                sim.report.faults_injected += 1;
                sim.inject(f.kind)?;
            }
            // Seventh-leg in-run check: no live transaction may outlive the
            // liveness budget — an admitted transaction that neither commits
            // nor aborts within it is a bounded-outcome violation. (A fault
            // may have exhausted this driver's retries: it then holds no
            // transaction, and the gate below skips it.)
            let d = &sim.exec.drivers[i];
            let age = sim.exec.round.saturating_sub(d.began_round);
            if d.txn.is_some() && age > OUTCOME_BUDGET {
                return Err(sim.fail(Violation::UnboundedOutcome(format!(
                    "driver {i} transaction alive for {age} rounds (budget {OUTCOME_BUDGET})"
                ))));
            }
            if !sim.exec.gate(sim.sys, i) {
                continue;
            }
            let pre_crashes = sim.sys.stats().crashes;
            if let Stepped::Commit(txn) = sim.exec.step(sim.sys, i) {
                sim.commit(i, txn);
            }
            sim.heal_device_failures(pre_crashes);
        }
        if cfg.group_commit {
            let pre_crashes = sim.sys.stats().crashes;
            sim.flush_group();
            sim.heal_device_failures(pre_crashes);
        }
        // Every live driver blocked or sleeping: break a deadlock or wake a
        // sleeper, as the plain scheduler does.
        if !sim.exec.break_stall(sim.sys) {
            break;
        }
    }

    // Final oracle pass over the last epoch.
    sim.oracle(None)?;

    // Sixth leg: recovery convergence. Heal any armed-but-unexercised device
    // fault first (the probe demands a healthy device at the start) and
    // crash the device at every op index recovery itself consumes; every
    // eventual recovery must reproduce the baseline outcome.
    if cfg.fault_during_recovery {
        if let Some(disk) = sim.device() {
            disk.heal();
        }
        match sim.sys.backend_mut().check_recovery_convergence(TailPolicy::DiscardTail) {
            Ok(probe) => {
                sim.report.oracle_checks += 1;
                if probe.device_ops > 0 {
                    sim.obs().on_convergence_check(probe.trials, probe.device_ops);
                }
            }
            Err(e) => return Err(sim.fail(Violation::RecoveryDiverged(e))),
        }
    }

    // Seventh leg: bounded outcomes. Every driver must end accounted —
    // committed, voluntarily aborted, or given up for a *typed* reason
    // (retry budget exhausted, refused invocation). A driver that is
    // neither is a liveness hole: its transaction was admitted and then
    // silently went nowhere (the swallow-shed mutation manufactures
    // exactly this). An acknowledged commit is terminal by construction
    // (committed drivers are done and never restarted); durability of the
    // ack is covered by the shadow-fold and crash-state legs above.
    sim.report.oracle_checks += 1;
    for (i, d) in sim.exec.drivers.iter().enumerate() {
        if d.committed || d.voluntary_abort {
            continue;
        }
        let budget_exhausted = d.retries > MAX_RETRIES;
        if !d.done || !(budget_exhausted || d.refused) {
            return Err(sim.fail(Violation::UnboundedOutcome(format!(
                "driver {i} ended unaccounted: done={}, retries={}/{MAX_RETRIES}, refused={}",
                d.done, d.retries, d.refused
            ))));
        }
    }

    // The executor's accounting is the plain scheduler's; its wait and
    // admission tallies are kept and simply not surfaced.
    let Sim { sys, exec, mut report, fp_fold, .. } = sim;
    let run = exec.finish(sys);
    report.commit_latency_rounds.sort_unstable();
    Ok(SimReport {
        committed: run.committed,
        voluntary_aborts: run.voluntary_aborts,
        gave_up: run.gave_up,
        retries: run.retries,
        rounds: run.rounds,
        deadlock_aborts: run.deadlock_aborts,
        history_fingerprint: fold_fp(fp_fold, sys.system().trace()),
        stats: run.stats,
        ..report
    })
}

fn fold_fp<A: Adt>(fold: u64, trace: &History<A>) -> u64 {
    fold.rotate_left(7) ^ trace.fingerprint()
}

impl<A, E, C, B> Sim<'_, A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    fn obs(&mut self) -> &mut Tracer {
        self.sys.system_mut().obs_mut()
    }

    /// The device under the log, if the backend has one.
    fn device(&mut self) -> Option<&mut SimDisk> {
        self.sys.backend_mut().device_mut()
    }

    /// A violation at the current event.
    fn fail(&self, violation: Violation) -> Failure {
        Failure { violation, at: Surfaced::Event(self.report.events) }
    }

    /// Inject one fault and run the oracle afterwards.
    fn inject(&mut self, kind: FaultKind) -> Result<(), Failure> {
        /// Apply `kind`'s damage to the device, or arm it. `false` when this
        /// backend cannot express the fault.
        fn arm<A: Adt, B: LogBackend<A>>(kind: FaultKind, backend: &mut B) -> bool {
            let on_device = |backend: &mut B, arm: &dyn Fn(&mut SimDisk)| {
                backend.device_mut().map(arm).is_some()
            };
            match kind {
                // Nothing journaled yet, no tearable flush, or the tear would
                // remove the whole flush — indistinguishable from a plain
                // crash before the write.
                FaultKind::TornCrash { drop_ops } => backend.tear_last_flush(drop_ops),
                FaultKind::SectorTorn { sectors } => backend.tear_last_flush(sectors),
                // The last flush was a single sector, or there is no sector
                // image: reordering is inexpressible.
                FaultKind::ReorderFlush => backend.reorder_last_flush(),
                // No durable byte image (mem backend).
                FaultKind::BitFlip { bit } => {
                    backend.device_mut().is_some_and(|disk| disk.flip_bit(bit))
                }
                // No device to misbehave, fill, slow down or stall (mem
                // backend). The gray arms charge a fixed surcharge — 4 ticks
                // per slow op, 32 per hung flush — which keeps the run a pure
                // function of the plan.
                FaultKind::TransientIo { errors } => {
                    on_device(backend, &|d| d.arm_transient_errors(errors))
                }
                FaultKind::DiskFull => on_device(backend, &|d| d.set_full(true)),
                FaultKind::SlowDisk { ops } => on_device(backend, &|d| d.arm_slow_ops(ops, 4)),
                FaultKind::FsyncStall { stalls } => {
                    on_device(backend, &|d| d.arm_fsync_stall(stalls, 32))
                }
                // Sharded arms in a single-system run: there is exactly one
                // "shard", so any subset crash (and any 2PC step crash — no
                // cross-shard commit exists) is a plain crash. The sharded
                // simulator, `ccr_workload::shard_sim`, handles them
                // natively.
                FaultKind::CrashShards { .. } | FaultKind::TwoPcCrash { .. } => false,
                FaultKind::Crash
                | FaultKind::ForceAbort
                | FaultKind::WoundStorm
                | FaultKind::DelayCommit { .. } => true,
            }
        }
        // A fault this backend cannot express degrades to a plain crash.
        let kind = if arm(kind, self.sys.backend_mut()) { kind } else { FaultKind::Crash };
        match kind {
            // (`arm` has already turned the sharded arms into `Crash`.)
            FaultKind::Crash | FaultKind::CrashShards { .. } | FaultKind::TwoPcCrash { .. } => {
                self.obs().on_fault(None, || kind.to_string());
                let pre_states = self.committed_states();
                self.seal_epoch()?;
                self.sys.crash_and_recover().map_err(|e| self.fail(Violation::refused(e)))?;
                self.restart_all();
                self.oracle(Some(&pre_states))
            }
            FaultKind::TornCrash { .. } => {
                let record = self.sys.journal().len().saturating_sub(1);
                self.obs().on_torn(record);
                self.obs().on_fault(None, || kind.to_string());
                self.torn_storage_flow()
            }
            FaultKind::SectorTorn { .. } => {
                self.obs().on_fault(Some(FaultCounter::SectorTear), || kind.to_string());
                self.torn_storage_flow()
            }
            FaultKind::ReorderFlush => {
                self.obs().on_fault(Some(FaultCounter::ReorderedFlush), || kind.to_string());
                self.torn_storage_flow()
            }
            FaultKind::BitFlip { .. } => {
                self.obs().on_fault(None, || kind.to_string());
                let pre_states = self.committed_states();
                self.seal_epoch()?;
                let detected = match self.sys.crash_and_recover() {
                    // Recovery claims the log is intact despite the flip: the
                    // oracle below decides with the pre-crash states whether
                    // that claim was honest (any divergence is the
                    // silent-corruption verdict).
                    Ok(()) => false,
                    Err(_) => {
                        // Detected. Repair the medium and retry WITHOUT a
                        // fresh crash (a crash would wipe the backend's
                        // volatile detection counters before a successful
                        // recovery persists them); nothing was lost, so
                        // strict recovery must now succeed.
                        if let Some(disk) = self.device() {
                            disk.unflip_all();
                        }
                        self.sys
                            .recover_with(TornPolicy::Strict)
                            .map_err(|e| self.fail(Violation::refused(e)))?;
                        true
                    }
                };
                self.restart_all();
                self.oracle(Some(&pre_states)).map_err(|e| match e.violation {
                    // An undetected flip that changed state is the silent-
                    // corruption verdict; after a *detected* flip the
                    // repair-and-retry path keeps the plain mismatch name.
                    Violation::CrashStateMismatch { obj, before, after } if !detected => Failure {
                        violation: Violation::SilentCorruption { obj, before, after },
                        ..e
                    },
                    _ => e,
                })
            }
            FaultKind::ForceAbort => {
                let victim = self.sys.system().active().max();
                // The counter is bumped only when the fault found a victim;
                // the fault *event* is recorded either way so traces show
                // every injection.
                self.obs().on_fault(victim.map(|_| FaultCounter::ForcedAbort), || kind.to_string());
                if let Some(t) = victim {
                    self.sys
                        .system_mut()
                        .abort_with(t, AbortReason::ConflictAbort)
                        .expect("victim is active");
                    if let Some(i) = self.exec.holder(t) {
                        self.exec.restart(self.sys, i, Wake::AfterCommit);
                    }
                }
                self.oracle(None)
            }
            FaultKind::WoundStorm => {
                self.obs().on_fault(Some(FaultCounter::WoundStorm), || kind.to_string());
                let victims: Vec<TxnId> = self.sys.system().active().collect();
                for t in &victims {
                    self.sys
                        .system_mut()
                        .abort_with(*t, AbortReason::ConflictAbort)
                        .expect("victim is active");
                }
                for i in 0..self.exec.drivers.len() {
                    if self.exec.drivers[i].txn.is_some_and(|t| victims.contains(&t)) {
                        self.exec.restart(self.sys, i, Wake::AfterCommit);
                    }
                }
                self.oracle(None)
            }
            FaultKind::DelayCommit { rounds } => {
                self.delay_next_commit = Some(rounds);
                self.obs().on_fault(Some(FaultCounter::DelayedCommit), || kind.to_string());
                Ok(())
            }
            // Arming a device fault is not yet an observable failure, so no
            // oracle pass here. The next commits' bounded retries are
            // expected to absorb a transient budget (visible only in the
            // retry telemetry). A full device drives the system into
            // read-only degraded mode at the next durable append; the
            // scheduler's heal flow then restarts the killed drivers and
            // exits it through a checkpoint. A slow or stalling device
            // serves, just late — the classic gray symptoms — and becomes
            // visible in the stall-latency telemetry and, when armed, to the
            // hysteresis detector.
            FaultKind::TransientIo { .. }
            | FaultKind::DiskFull
            | FaultKind::SlowDisk { .. }
            | FaultKind::FsyncStall { .. } => {
                let counter = match kind {
                    FaultKind::TransientIo { .. } => FaultCounter::TransientIo,
                    FaultKind::DiskFull => FaultCounter::DiskFull,
                    FaultKind::SlowDisk { .. } => FaultCounter::SlowDevice,
                    _ => FaultCounter::FsyncStall,
                };
                self.obs().on_fault(Some(counter), || kind.to_string());
                Ok(())
            }
        }
    }

    /// What every crash-style fault does before it pulls the plug: seal the
    /// epoch's history into the fingerprint, let the oracle examine the
    /// pre-crash history *before* it is lost, and free a full device —
    /// restarting after a power loss includes the operator freeing space (a
    /// still-full device would fail recovery's epoch seal on a correct
    /// pairing).
    fn seal_epoch(&mut self) -> Result<(), Failure> {
        self.fp_fold = fold_fp(self.fp_fold, self.sys.system().trace());
        self.check_history()?;
        if let Some(disk) = self.device() {
            disk.set_full(false);
        }
        Ok(())
    }

    /// The shared tail of every torn-storage fault (torn record, torn flush,
    /// reordered flush), run after the damage was injected and the fault
    /// event emitted: seal the epoch, demand that strict recovery *refuses*
    /// the damaged tail (silence is itself an oracle failure), recover under
    /// `DiscardTail`, and re-run the oracle. The torn transaction's
    /// durability was legitimately lost, so there is no pre-crash state
    /// comparison — the journal shadow fold remains the equieffectivity
    /// authority.
    fn torn_storage_flow(&mut self) -> Result<(), Failure> {
        self.seal_epoch()?;
        match self.sys.crash_and_recover() {
            Ok(()) => {
                let record = self.sys.journal().len().saturating_sub(1);
                return Err(self.fail(Violation::TornNotDetected { record }));
            }
            Err(RedoError::TornRecord { .. }) => {}
            Err(e) => return Err(self.fail(Violation::refused(e))),
        }
        self.sys
            .crash_and_recover_with(TornPolicy::DiscardTail)
            .map_err(|e| self.fail(Violation::refused(e)))?;
        self.restart_all();
        self.oracle(None)
    }

    /// The liveness half of the degradation model, run after every driver
    /// step and group flush. Two device failures can strand the run
    /// mid-round:
    ///
    /// - a commit-time power loss (`crashes` grew): the system already
    ///   power-cycled and recovered in place, but every *other* driver's
    ///   transaction evaporated with it — restart them before they mistake
    ///   their stale handles for refusals;
    /// - the system entered read-only degraded mode: deterministic operator
    ///   intervention — restart the killed drivers, heal the device, and
    ///   prove it writable again with a checkpoint (the degraded-exit path).
    fn heal_device_failures(&mut self, pre_crashes: u64) {
        if self.sys.stats().crashes > pre_crashes {
            self.restart_all();
        }
        if self.sys.is_degraded() {
            self.restart_all();
            if let Some(disk) = self.device() {
                disk.heal();
            }
            self.sys.checkpoint();
        }
    }

    /// Restart every driver whose transaction evaporated in a crash. Crash
    /// restarts carry no commit backoff: the rebuilt system holds no locks.
    fn restart_all(&mut self) {
        for i in 0..self.exec.drivers.len() {
            if self.exec.drivers[i].txn.is_some() {
                self.exec.restart(self.sys, i, Wake::Now);
            }
        }
    }

    fn committed_states(&mut self) -> BTreeMap<ObjectId, A::State> {
        self.sys.system_mut().committed_states().into_iter().collect()
    }

    /// Dynamic-atomicity leg of the oracle, over the system's recorded
    /// history. The trace restarts at every rebuild — from the restored
    /// checkpoint image plus the replayed suffix — so it is judged from the
    /// image *this* epoch was rebuilt from, not from `initial()` and not
    /// from the journal's current base (a checkpoint taken mid-epoch
    /// advances that one while the trace still holds the transactions it
    /// folded).
    fn check_history(&mut self) -> Result<(), Failure> {
        self.report.oracle_checks += 1;
        let seeded = self.sys.trace_base().map(|base| self.spec.clone().starting_from(base));
        let (spec, trace) = (seeded.as_ref().unwrap_or(self.spec), self.sys.system().trace());
        check_dynamic_atomic(spec, trace).map_err(|v| self.fail(Violation::NotDynamicAtomic(v)))
    }

    /// The full oracle: dynamic atomicity of the current trace, journal
    /// shadow fold vs engine committed states, optional pre-crash state
    /// comparison, optional caller invariant.
    fn oracle(&mut self, pre_states: Option<&BTreeMap<ObjectId, A::State>>) -> Result<(), Failure> {
        self.check_history()?;
        let served = self.committed_states();
        let sys = &*self.sys;

        // Second and fifth legs: refold the log through the serial spec,
        // starting from its checkpoint image when one was taken (the image
        // stands in for the truncated records' effects). The log is read as
        // it stands, not recovered: what is folded is what is durable.
        let shadow = match served.keys().next() {
            Some(first) => {
                let adt = sys.system().adt_of(*first).expect("object exists");
                let log = sys.backend().read_log();
                let log = log.map_err(|f| self.fail(Violation::refused(f.kind)))?;
                let base_records = log.checkpoint.as_ref().map_or(0, |cp| cp.base_records as usize);
                let objects = served.keys().copied();
                views_agree(adt, &log, objects, |obj| served[&obj].clone()).map_err(
                    |violation| match violation {
                        Violation::ShadowRefused { record, op } => self
                            .fail(Violation::ShadowRefused { record: base_records + record, op }),
                        other => self.fail(other),
                    },
                )?
            }
            None => BTreeMap::new(),
        };

        if let Some(pre) = pre_states {
            for (obj, before) in pre {
                let after = &served[obj];
                if after != before {
                    return Err(self.fail(Violation::CrashStateMismatch {
                        obj: *obj,
                        before: format!("{before:?}"),
                        after: format!("{after:?}"),
                    }));
                }
            }
        }

        if let Some(inv) = self.invariant {
            inv(&shadow).map_err(|detail| self.fail(Violation::InvariantViolated(detail)))?;
        }
        Ok(())
    }

    /// Driver `i`'s script asks to commit `txn`: sit out a pending
    /// delayed-commit fault, stage the commit in group-commit mode, or
    /// commit durably now.
    fn commit(&mut self, i: usize, txn: TxnId) {
        if let Some(rounds) = self.delay_next_commit.take() {
            self.exec.postpone_commit(i, u64::from(rounds));
        } else if self.cfg.group_commit {
            // Stage the commit for the round-end group flush; the driver
            // is acknowledged (or restarted) only after the batch flush.
            self.exec.drivers[i].staged = true;
        } else {
            let res = self.sys.commit(txn);
            if let (Ok(()), Some(every)) = (&res, self.cfg.checkpoint_every) {
                if every > 0 && self.sys.stats().committed.is_multiple_of(every) {
                    self.sys.checkpoint();
                }
            }
            self.settle_commit(i, res);
        }
    }

    /// Commit every staged driver's transaction as one durable batch (group-
    /// commit mode, end of a scheduler round). Drivers whose transaction
    /// evaporated mid-round (a fault restarted them) simply drop out of the
    /// batch; the rest are acknowledged or restarted from the per-transaction
    /// results of [`DurableSystem::commit_group`].
    fn flush_group(&mut self) {
        let staged = self.exec.drivers.iter().enumerate().filter(|(_, d)| d.staged);
        let (members, batch): (Vec<usize>, Vec<TxnId>) =
            staged.filter_map(|(i, d)| Some((i, d.txn?))).unzip();
        if batch.is_empty() {
            return;
        }
        let pre = self.sys.stats().committed;
        let results = self.sys.commit_group(&batch);
        for (i, res) in members.into_iter().zip(results) {
            self.settle_commit(i, res);
        }
        if let Some(every) = self.cfg.checkpoint_every {
            // A batch can cross the cadence boundary anywhere inside itself;
            // checkpoint whenever it did.
            if every > 0 && self.sys.stats().committed / every > pre / every {
                self.sys.checkpoint();
            }
        }
    }

    /// Acknowledge, restart or give up driver `i` on the result of its
    /// commit — its own durable commit, or its slot of a batch's.
    fn settle_commit(&mut self, i: usize, res: Result<(), TxnError>) {
        match res {
            Ok(()) => {
                let began = self.exec.drivers[i].began_round;
                self.report.commit_latency_rounds.push(self.exec.round.saturating_sub(began) + 1);
                self.exec.drivers[i].acknowledged();
            }
            Err(TxnError::Aborted(_)) => self.exec.restart(self.sys, i, Wake::AfterCommit),
            // The admission gate shed this member: it was cleanly aborted
            // before the journal saw it. Restart under backpressure — the
            // shed ack plus jittered backoff is the WAL-lag flow-control
            // loop. The negative control swallows the ack instead, leaving
            // the driver unaccounted for the bounded-outcome leg to catch.
            Err(TxnError::Shed) if self.cfg.mutate_swallow_shed => self.exec.drivers[i].retire(),
            Err(TxnError::Shed) => self.exec.restart(self.sys, i, Wake::AfterCommitAndJitter),
            // The durability of the commit — or of its whole batch — failed:
            // the write either power-cycled the system in place (each
            // transaction evaporated, NotActive) or degraded it (ReadOnly).
            // Crash-style restart, no backoff — the rebuilt system holds no
            // locks.
            Err(TxnError::ReadOnly) | Err(TxnError::NotActive(_)) => {
                self.exec.restart(self.sys, i, Wake::Now)
            }
            Err(_) => {
                self.exec.drivers[i].refused = true;
                self.exec.drivers[i].retire();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DuEngine, UipEngine};
    use crate::fault::{FaultMix, FaultSpec};
    use crate::script::OpsScript;
    use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
    use ccr_core::conflict::{FnConflict, SymmetricClosure};
    use ccr_store::{WalBackend, WalConfig};

    const X: ObjectId = ObjectId::SOLE;

    type UipDurable = DurableSystem<BankAccount, UipEngine<BankAccount>, FnConflict<BankAccount>>;
    type DuDurable = DurableSystem<BankAccount, DuEngine<BankAccount>, FnConflict<BankAccount>>;
    type DiskUip = DurableSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;
    type DiskDu = DurableSystem<
        BankAccount,
        DuEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;

    fn transfer_scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
        (0..n)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    fn spec() -> SystemSpec<BankAccount> {
        SystemSpec::single(BankAccount::default())
    }

    fn spec_n(n: u32) -> SystemSpec<BankAccount> {
        SystemSpec::uniform(BankAccount::default(), n)
    }

    #[test]
    fn a_finished_driver_forgets_its_transaction() {
        // Driver 0 finishes as some `Tk`. Tearing the flush of its
        // acknowledged record and recovering under `DiscardTail`, as the
        // torn faults do, drops the log's floor back, so the rebuilt system
        // issues `Tk` again — to driver 1. A victim `Tk` is then driver 1's
        // to restart; the finished driver's stale handle must not answer.
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let mut exec = RoundRobin::new(transfer_scripts(2), SchedulerCfg::default());
        exec.next_round().expect("two live drivers");
        let finished = loop {
            if let Stepped::Commit(txn) = exec.step(&mut sys, 0) {
                sys.commit(txn).expect("an uncontended commit");
                exec.drivers[0].acknowledged();
                break txn;
            }
        };
        assert!(sys.backend_mut().tear_last_flush(1), "the record's flush is tearable");
        assert!(matches!(sys.crash_and_recover(), Err(RedoError::TornRecord { .. })));
        sys.crash_and_recover_with(TornPolicy::DiscardTail).expect("the torn tail is discardable");
        assert!(matches!(exec.step(&mut sys, 1), Stepped::Progressed));
        assert_eq!(exec.drivers[1].txn, Some(finished), "the rebuilt system reissues the id");

        sys.system_mut().abort_with(finished, AbortReason::Deadlock).expect("it is active");
        let victim = exec.holder(finished).expect("a live driver holds it");
        exec.restart(&mut sys, victim, Wake::AfterCommit);
        assert_eq!((exec.drivers[0].retries, exec.drivers[1].retries), (0, 1));
        assert!(exec.drivers[0].committed && exec.drivers[0].txn.is_none());
    }

    /// The fold reads the log, not a copy of what was appended: a commit
    /// record that vanishes from the device with no crash at all — the
    /// drop-a-record saboteur — is caught by the next oracle pass.
    #[test]
    fn the_fold_sees_a_record_dropped_from_the_device() {
        let wal = WalBackend::new(WalConfig { sector: 512, seg_sectors: 64 });
        let mut sys: DiskUip =
            DurableSystem::with_backend(BankAccount::default(), 1, bank_nrbc(), wal);
        for amount in 1..=3 {
            let t = sys.begin();
            sys.invoke(t, X, BankInv::Deposit(amount)).unwrap();
            sys.commit(t).unwrap();
        }
        let disk = sys.backend_mut().disk_mut();
        let last = disk.durable_in(..).last().expect("the commits are durable");
        assert!(disk.delete(last));
        let plan = FaultPlan::new(Vec::new());
        let err = run_sim(&mut sys, Vec::new(), &plan, &SimCfg::default(), &spec(), None)
            .expect_err("the third deposit is served but no longer durable");
        assert!(matches!(err.violation, Violation::StateDiverged { .. }), "{err}");
    }

    #[test]
    fn crash_faults_pass_the_oracle_on_a_correct_pairing() {
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 3, kind: FaultKind::Crash },
            FaultSpec { at_event: 9, kind: FaultKind::Crash },
        ]);
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let report =
            run_sim(&mut sys, transfer_scripts(6), &plan, &SimCfg::default(), &spec(), None)
                .unwrap();
        assert_eq!(report.faults_injected, 2);
        assert_eq!(report.stats.crashes, 2);
        assert_eq!(report.committed, 6);
        assert_eq!(sys.committed_state(X), 6);
    }

    #[test]
    fn every_fault_kind_passes_on_correct_pairings() {
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 2, kind: FaultKind::ForceAbort },
            FaultSpec { at_event: 5, kind: FaultKind::DelayCommit { rounds: 3 } },
            FaultSpec { at_event: 9, kind: FaultKind::TornCrash { drop_ops: 1 } },
            FaultSpec { at_event: 14, kind: FaultKind::WoundStorm },
            FaultSpec { at_event: 20, kind: FaultKind::Crash },
        ]);
        let mut uip: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let r1 = run_sim(&mut uip, transfer_scripts(6), &plan, &SimCfg::default(), &spec(), None)
            .unwrap();
        assert_eq!(r1.faults_injected, 5);

        let mut du: DuDurable = DurableSystem::new(BankAccount::default(), 1, bank_nfc());
        let r2 = run_sim(&mut du, transfer_scripts(6), &plan, &SimCfg::default(), &spec(), None)
            .unwrap();
        assert_eq!(r2.faults_injected, 5);
    }

    #[test]
    fn same_seed_and_plan_give_identical_reports() {
        let plan = FaultPlan::from_seed(11, 40, 4, FaultMix::Storage);
        let run_once = || {
            let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
            run_sim(
                &mut sys,
                transfer_scripts(6),
                &plan,
                &SimCfg { seed: 5, ..Default::default() },
                &spec(),
                None,
            )
            .unwrap()
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a, b, "SimReport must be byte-identical across runs");
        assert_eq!(a.history_fingerprint, b.history_fingerprint);
    }

    #[test]
    fn weakened_relation_under_uip_is_caught() {
        // UIP paired with (symmetrised) FC instead of RBC: FC does not
        // relate withdraw-ok to a pending deposit, so a withdrawal can read
        // through an uncommitted deposit under update-in-place; a fault
        // aborting the depositor leaves a committed withdrawal whose
        // response is serially impossible. The oracle must notice.
        let conflict = SymmetricClosure(bank_nfc());
        type Weak = DurableSystem<
            BankAccount,
            UipEngine<BankAccount>,
            SymmetricClosure<FnConflict<BankAccount>>,
        >;
        let mut caught = None;
        'seeds: for seed in 0..64u64 {
            for f in 1..12u64 {
                let plan =
                    FaultPlan::new(vec![FaultSpec { at_event: f, kind: FaultKind::ForceAbort }]);
                let scripts: Vec<Box<dyn Script<BankAccount>>> = vec![
                    Box::new(OpsScript::on(X, vec![BankInv::Deposit(3)])),
                    Box::new(OpsScript::on(X, vec![BankInv::Withdraw(3)])),
                ];
                let mut sys: Weak = DurableSystem::new(BankAccount::default(), 1, conflict.clone());
                let cfg = SimCfg { seed, ..Default::default() };
                if let Err(e) = run_sim(&mut sys, scripts, &plan, &cfg, &spec(), None) {
                    caught = Some(e);
                    break 'seeds;
                }
            }
        }
        let failure = caught.expect("the weakened relation must be refuted within the sweep");
        assert!(
            matches!(
                failure.violation,
                Violation::NotDynamicAtomic(_)
                    | Violation::ShadowRefused { .. }
                    | Violation::StateDiverged { .. }
                    | Violation::RecoveryViewDiverged { .. }
                    | Violation::RecoveryRefused(_)
            ),
            "unexpected failure mode: {failure}"
        );
    }

    #[test]
    fn torn_writes_surface_as_redo_errors_never_silent_mismatch() {
        for at in 3..20u64 {
            let plan = FaultPlan::new(vec![FaultSpec {
                at_event: at,
                kind: FaultKind::TornCrash { drop_ops: 1 },
            }]);
            let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
            let result =
                run_sim(&mut sys, transfer_scripts(5), &plan, &SimCfg::default(), &spec(), None);
            // A correct pairing recovers from every torn write: strict
            // recovery reports TornRecord internally, DiscardTail then
            // succeeds and the oracle holds. Any failure here would be a
            // torn write slipping through as silent state divergence.
            let report = result.unwrap_or_else(|e| panic!("torn crash at {at}: {e}"));
            if report.stats.torn_crashes > 0 {
                // The discarded commit is visible as journal < committed.
                assert!(sys.journal().len() as u64 <= report.stats.committed);
            }
        }
    }

    /// Scripts on six *distinct* objects: no lock contention, so commits
    /// (and hence tearable commit flushes) land at predictable events.
    fn disjoint_scripts() -> Vec<Box<dyn Script<BankAccount>>> {
        (0..6)
            .map(|i| {
                Box::new(OpsScript::on(
                    ObjectId(i),
                    vec![BankInv::Deposit(2), BankInv::Withdraw(1)],
                )) as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    /// Run one storage fault through a disk-backed system under both
    /// pairings, returning the UIP run's stats. With six disjoint drivers,
    /// round 3 (events 13–18) is all commits, so a fault at event 16 always
    /// finds a fresh, tearable commit flush.
    fn one_storage_fault(kind: FaultKind) -> SystemStats {
        let plan = FaultPlan::new(vec![FaultSpec { at_event: 16, kind }]);
        let mut uip: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let r1 = run_sim(&mut uip, disjoint_scripts(), &plan, &SimCfg::default(), &spec_n(6), None)
            .unwrap();
        assert_eq!(r1.faults_injected, 1);
        assert_eq!(r1.committed, 6, "every script recommits after the fault");

        let mut du: DiskDu = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nfc(),
            WalBackend::new(WalConfig::default()),
        );
        let r2 = run_sim(&mut du, disjoint_scripts(), &plan, &SimCfg::default(), &spec_n(6), None)
            .unwrap();
        assert_eq!(r2.faults_injected, 1);
        r1.stats
    }

    #[test]
    fn sector_tears_pass_the_oracle_on_the_disk_backend() {
        let stats = one_storage_fault(FaultKind::SectorTorn { sectors: 1 });
        assert_eq!(stats.sector_tears, 1, "the tear must not degrade: {stats:?}");
        assert_eq!(stats.torn_crashes, 0, "sector tears report via their own counter");
    }

    #[test]
    fn reordered_flushes_pass_the_oracle_on_the_disk_backend() {
        let stats = one_storage_fault(FaultKind::ReorderFlush);
        assert_eq!(stats.reordered_flushes, 1, "the reorder must not degrade: {stats:?}");
    }

    #[test]
    fn bitflips_are_always_detected_on_the_disk_backend() {
        // Zero-silent-corruption criterion: whatever durable bit the flip
        // lands on, the CRC scan must detect it (the oracle inside run_sim
        // would report SilentCorruption otherwise).
        for bit in [3, 997, 4093, 65_537] {
            let stats = one_storage_fault(FaultKind::BitFlip { bit });
            assert!(stats.bitflips_detected >= 1, "flip at {bit} undetected: {stats:?}");
        }
    }

    #[test]
    fn storage_faults_on_the_mem_backend_degrade_to_crashes() {
        // The mem backend has no sector image: reorder and flip degrade to
        // plain crashes, and the run still passes the oracle.
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 16, kind: FaultKind::ReorderFlush },
            FaultSpec { at_event: 24, kind: FaultKind::BitFlip { bit: 997 } },
        ]);
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let report =
            run_sim(&mut sys, transfer_scripts(6), &plan, &SimCfg::default(), &spec(), None)
                .unwrap();
        assert_eq!(report.faults_injected, 2);
        assert_eq!(report.stats.crashes, 2, "both faults degrade to crashes: {:?}", report.stats);
        assert_eq!(report.stats.bitflips_detected, 0);
        assert_eq!(report.stats.reordered_flushes, 0);
    }

    #[test]
    fn group_commit_batches_a_round_of_commits() {
        // Six disjoint drivers all reach their commit step in the same
        // scheduler round: group commit must stage them and flush the whole
        // batch with one group flush of size six.
        let mut sys: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let cfg = SimCfg { group_commit: true, ..Default::default() };
        let report =
            run_sim(&mut sys, disjoint_scripts(), &FaultPlan::none(), &cfg, &spec_n(6), None)
                .unwrap();
        assert_eq!(report.committed, 6);
        let batches: Vec<u64> = sys
            .system()
            .obs()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                ccr_obs::EventKind::GroupFlush { batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![6], "one flush for the whole round's commits");
    }

    #[test]
    fn group_commit_agrees_with_per_commit_on_final_state() {
        // Same contended workload, same seed, both commit disciplines: the
        // batching must change only durability mechanics, never outcomes.
        let run = |group_commit: bool| {
            let mut sys: DiskUip = DurableSystem::with_backend(
                BankAccount::default(),
                1,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            );
            let cfg = SimCfg { seed: 9, group_commit, ..Default::default() };
            let report =
                run_sim(&mut sys, transfer_scripts(6), &FaultPlan::none(), &cfg, &spec(), None)
                    .unwrap();
            (report.committed, sys.committed_state(X))
        };
        assert_eq!(run(false), run(true), "group commit must not change outcomes");
        assert_eq!(run(true), (6, 6));
    }

    /// Three short and three long disjoint scripts: the short wave's commits
    /// form a three-record batch flushed at the end of round 3, and round 4
    /// still ticks events, so a storage fault there always finds that
    /// multi-record batch as the most recent flush.
    fn staggered_scripts() -> Vec<Box<dyn Script<BankAccount>>> {
        (0..6)
            .map(|i| {
                let ops = if i < 3 {
                    vec![BankInv::Deposit(2), BankInv::Withdraw(1)]
                } else {
                    vec![BankInv::Deposit(2), BankInv::Deposit(2), BankInv::Withdraw(1)]
                };
                Box::new(OpsScript::on(ObjectId(i), ops)) as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    #[test]
    fn torn_group_flush_passes_the_oracle_with_group_commit() {
        // Tear the tail off a durable multi-record batch flush: strict
        // recovery must refuse the torn batch, DiscardTail must drop the
        // batch's one frame, and the oracle (shadow fold, UIP-vs-DU
        // agreement) must hold over the surviving journal — the group-commit
        // leg of the tear oracle.
        let plan = FaultPlan::new(vec![FaultSpec {
            at_event: 20,
            kind: FaultKind::SectorTorn { sectors: 1 },
        }]);
        let mut sys: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let cfg = SimCfg { group_commit: true, ..Default::default() };
        let report = run_sim(&mut sys, staggered_scripts(), &plan, &cfg, &spec_n(6), None).unwrap();
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.stats.sector_tears, 1, "the tear must not degrade: {:?}", report.stats);
        assert_eq!(report.committed, 6, "every script recommits after the fault");
        // The torn batch was legitimately discarded with the tail.
        assert!((sys.journal().len() as u64) < report.stats.committed);
    }

    #[test]
    fn group_commit_disk_runs_are_deterministic_under_faults() {
        let plan = FaultPlan::from_seed(23, 60, 5, FaultMix::Storage);
        let run_once = || {
            let mut sys: DiskUip = DurableSystem::with_backend(
                BankAccount::default(),
                1,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            );
            let cfg = SimCfg {
                seed: 7,
                checkpoint_every: Some(2),
                group_commit: true,
                ..Default::default()
            };
            run_sim(&mut sys, transfer_scripts(6), &plan, &cfg, &spec(), None).unwrap()
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a, b, "SimReport must be byte-identical across runs");
    }

    #[test]
    fn disk_backend_runs_are_deterministic_with_checkpoints() {
        let plan = FaultPlan::from_seed(23, 60, 5, FaultMix::Storage);
        let run_once = || {
            let mut sys: DiskUip = DurableSystem::with_backend(
                BankAccount::default(),
                1,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            );
            let cfg = SimCfg { seed: 7, checkpoint_every: Some(2), ..Default::default() };
            run_sim(&mut sys, transfer_scripts(6), &plan, &cfg, &spec(), None).unwrap()
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a, b, "SimReport must be byte-identical across runs");
        assert!(a.stats.checkpoints >= 1, "checkpoint cadence never fired: {:?}", a.stats);
    }

    #[test]
    fn checkpointed_and_uncheckpointed_runs_agree_on_final_state() {
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 6, kind: FaultKind::Crash },
            FaultSpec { at_event: 13, kind: FaultKind::Crash },
        ]);
        let run = |every: Option<u64>| {
            let mut sys: DiskUip = DurableSystem::with_backend(
                BankAccount::default(),
                1,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            );
            let cfg = SimCfg { seed: 3, checkpoint_every: every, ..Default::default() };
            let report =
                run_sim(&mut sys, transfer_scripts(6), &plan, &cfg, &spec(), None).unwrap();
            (report.committed, sys.committed_state(X))
        };
        assert_eq!(run(None), run(Some(1)), "checkpointing must not change outcomes");
    }

    #[test]
    fn transient_io_faults_are_absorbed_by_retries_in_the_sim() {
        let stats = one_storage_fault(FaultKind::TransientIo { errors: 3 });
        assert_eq!(stats.transient_io_faults, 1, "the fault must not degrade: {stats:?}");
        assert!(stats.io_retries >= 1, "the armed budget must be visibly retried: {stats:?}");
        assert_eq!(stats.degraded_entries, 0, "absorbed retries never degrade: {stats:?}");
    }

    #[test]
    fn disk_full_degrades_then_heals_and_every_script_commits() {
        let stats = one_storage_fault(FaultKind::DiskFull);
        assert_eq!(stats.disk_full_faults, 1, "the fault must not degrade to a crash: {stats:?}");
        assert_eq!(stats.degraded_entries, 1, "the full device must degrade the system: {stats:?}");
        assert_eq!(stats.degraded_exits, 1, "the heal flow must exit degraded mode: {stats:?}");
    }

    #[test]
    fn device_faults_on_the_mem_backend_degrade_to_crashes() {
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 16, kind: FaultKind::TransientIo { errors: 2 } },
            FaultSpec { at_event: 24, kind: FaultKind::DiskFull },
        ]);
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let report =
            run_sim(&mut sys, transfer_scripts(6), &plan, &SimCfg::default(), &spec(), None)
                .unwrap();
        assert_eq!(report.faults_injected, 2);
        assert_eq!(report.stats.crashes, 2, "both faults degrade to crashes: {:?}", report.stats);
        assert_eq!(report.stats.transient_io_faults, 0);
        assert_eq!(report.stats.disk_full_faults, 0);
    }

    #[test]
    fn recovery_convergence_leg_passes_on_the_disk_backend() {
        let plan = FaultPlan::from_seed(31, 60, 4, FaultMix::Storage);
        let mut sys: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let cfg = SimCfg { seed: 5, fault_during_recovery: true, ..Default::default() };
        let report = run_sim(&mut sys, disjoint_scripts(), &plan, &cfg, &spec_n(6), None).unwrap();
        assert_eq!(
            report.stats.convergence_checks, 1,
            "the sixth leg must run and pass: {:?}",
            report.stats
        );
    }

    #[test]
    fn convergence_runs_are_deterministic() {
        let plan = FaultPlan::from_seed(31, 60, 4, FaultMix::Storage);
        let run_once = || {
            let mut sys: DiskUip = DurableSystem::with_backend(
                BankAccount::default(),
                1,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            );
            let cfg = SimCfg {
                seed: 7,
                checkpoint_every: Some(2),
                fault_during_recovery: true,
                ..Default::default()
            };
            run_sim(&mut sys, transfer_scripts(6), &plan, &cfg, &spec(), None).unwrap()
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a, b, "SimReport must be byte-identical across runs");
    }

    #[test]
    fn gray_faults_pass_the_oracle_on_the_disk_backend() {
        let stats = one_storage_fault(FaultKind::SlowDisk { ops: 4 });
        assert_eq!(stats.slow_device_faults, 1, "the fault must not degrade: {stats:?}");
        assert!(stats.stall_ticks > 0, "slow ops must surface as stall ticks: {stats:?}");
        let stats = one_storage_fault(FaultKind::FsyncStall { stalls: 2 });
        assert_eq!(stats.fsync_stall_faults, 1, "the fault must not degrade: {stats:?}");
        assert!(stats.stall_ticks > 0, "stalled flushes must surface as stall ticks: {stats:?}");
    }

    #[test]
    fn gray_faults_on_the_mem_backend_degrade_to_crashes() {
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 16, kind: FaultKind::SlowDisk { ops: 4 } },
            FaultSpec { at_event: 24, kind: FaultKind::FsyncStall { stalls: 2 } },
        ]);
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let report =
            run_sim(&mut sys, transfer_scripts(6), &plan, &SimCfg::default(), &spec(), None)
                .unwrap();
        assert_eq!(report.faults_injected, 2);
        assert_eq!(report.stats.crashes, 2, "both faults degrade to crashes: {:?}", report.stats);
        assert_eq!(report.stats.slow_device_faults, 0);
        assert_eq!(report.stats.fsync_stall_faults, 0);
    }

    #[test]
    fn sustained_gray_faults_trip_the_detector_and_the_run_survives() {
        // Many stalled flushes with the detector armed: the system must
        // degrade on sustained latency, the heal flow must bring it back,
        // and every script must still commit under the oracle.
        let plan = FaultPlan::new(vec![FaultSpec {
            at_event: 4,
            kind: FaultKind::FsyncStall { stalls: 8 },
        }]);
        let mut sys: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let cfg = SimCfg { stall_threshold: 16, ..Default::default() };
        let report = run_sim(&mut sys, disjoint_scripts(), &plan, &cfg, &spec_n(6), None).unwrap();
        assert_eq!(report.committed, 6, "every script recommits after the gray episode");
        assert!(
            report.stats.mode_flips >= 2,
            "degrade and heal must both happen: {:?}",
            report.stats
        );
        assert!(report.stats.stall_ticks > 0);
    }

    #[test]
    fn admission_bound_sheds_under_group_commit_and_everyone_commits() {
        let mut sys: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let cfg = SimCfg { group_commit: true, max_staged: 2, ..Default::default() };
        let report =
            run_sim(&mut sys, disjoint_scripts(), &FaultPlan::none(), &cfg, &spec_n(6), None)
                .unwrap();
        assert_eq!(report.committed, 6, "shed transactions retry and commit");
        assert!(report.stats.sheds > 0, "six same-round commits over a bound of 2 must shed");
        assert!(report.retries >= report.stats.sheds, "every shed is a restart");
    }

    #[test]
    fn deadlines_and_mpl_type_aborts_and_everything_still_commits() {
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let cfg = SimCfg { seed: 3, deadline: 4, mpl: 2, ..Default::default() };
        let report =
            run_sim(&mut sys, transfer_scripts(8), &FaultPlan::none(), &cfg, &spec(), None)
                .unwrap();
        assert_eq!(report.committed, 8);
        assert_eq!(sys.committed_state(X), 8);
    }

    #[test]
    fn overload_protected_runs_are_deterministic() {
        let plan = FaultPlan::from_seed(23, 60, 5, FaultMix::Gray);
        let run_once = || {
            let mut sys: DiskUip = DurableSystem::with_backend(
                BankAccount::default(),
                1,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            );
            let cfg = SimCfg {
                seed: 7,
                group_commit: true,
                max_staged: 2,
                deadline: 20,
                mpl: 3,
                stall_threshold: 16,
                ..Default::default()
            };
            run_sim(&mut sys, transfer_scripts(6), &plan, &cfg, &spec(), None).unwrap()
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a, b, "SimReport must be byte-identical across runs");
    }

    #[test]
    fn swallowed_shed_ack_is_caught_by_the_bounded_outcome_leg() {
        // The negative control: the admission gate sheds, but the mutated
        // flush path drops the acknowledgement on the floor instead of
        // restarting the driver. The seventh leg must flag the unaccounted
        // driver — if this test fails, the liveness oracle has gone blind.
        let mut sys: DiskUip = DurableSystem::with_backend(
            BankAccount::default(),
            6,
            bank_nrbc(),
            WalBackend::new(WalConfig::default()),
        );
        let cfg = SimCfg {
            group_commit: true,
            max_staged: 2,
            mutate_swallow_shed: true,
            ..Default::default()
        };
        let err = run_sim(&mut sys, disjoint_scripts(), &FaultPlan::none(), &cfg, &spec_n(6), None)
            .unwrap_err();
        assert!(
            matches!(err.violation, Violation::UnboundedOutcome(_)),
            "expected the bounded-outcome leg to fire, got: {err}"
        );
    }

    #[test]
    fn invariant_violations_are_reported() {
        let mut sys: UipDurable = DurableSystem::new(BankAccount::default(), 1, bank_nrbc());
        let inv = |_: &BTreeMap<ObjectId, u64>| Err("always wrong".to_string());
        let err = run_sim(
            &mut sys,
            transfer_scripts(2),
            &FaultPlan::none(),
            &SimCfg::default(),
            &spec(),
            Some(&inv),
        )
        .unwrap_err();
        assert!(matches!(err.violation, Violation::InvariantViolated(_)));
    }
}
