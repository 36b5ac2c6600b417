//! A deterministic, seeded scheduler driving scripts through a
//! [`TxnSystem`], and the executor core it shares with the threaded one.
//!
//! Begin → invoke → blocked / deadlock / deadline → commit → restart is
//! written once, on the crate-private `Driver`: one script's state and its
//! transitions. The crate-private `RoundRobin` steps drivers in a seeded
//! order — [`run`] over a bare [`TxnSystem`], the fault simulator
//! ([`crate::sim::run_sim`]) over a durable one with a fault plan and an
//! oracle — and breaks stalls through the wait-for graph (aborting the
//! youngest transaction on a cycle); same seed ⇒ same execution, so runs
//! reproduce and failures shrink. The threaded executor
//! ([`crate::threaded`]) steps the same drivers from worker threads
//! (DESIGN.md §7, "The executor core").

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_obs::Phase;

use crate::engine::RecoveryEngine;
use crate::error::{AbortReason, TxnError};
use crate::script::{Script, Step};
use crate::system::{SystemStats, TxnSystem};

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerCfg {
    /// RNG seed for the interleaving order.
    pub seed: u64,
    /// Retries per script before giving up (deadlock victims and validation
    /// aborts restart the script).
    pub max_retries: usize,
    /// Safety cap on scheduler iterations.
    pub max_rounds: u64,
    /// Admission control: maximum transactions in flight (0 = unlimited).
    /// Throttling the multiprogramming level is the classical remedy for
    /// lock thrashing on conflict-dense workloads.
    pub mpl: usize,
    /// Per-transaction deadline in scheduler rounds (0 = none): a
    /// transaction still in flight this many rounds after it began is
    /// aborted with [`AbortReason::Deadline`] and its script restarted
    /// against the retry budget, sitting out a seeded jitter of at most
    /// `2^min(retries,5)` rounds first. Bounds the time any admitted
    /// transaction can hold locks on a stalling system.
    pub deadline: u64,
}

impl Default for SchedulerCfg {
    fn default() -> Self {
        SchedulerCfg { seed: 0, max_retries: 64, max_rounds: 1_000_000, mpl: 0, deadline: 0 }
    }
}

/// Result of a run, under either executor. The experiment projections
/// compare the two, so every field means the same under both (asserted by
/// `tests/obs_projection.rs`); where the units differ, the field says how.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Scripts that ultimately committed. `committed`, `voluntary_aborts`
    /// and `gave_up` partition the scripts.
    pub committed: u64,
    /// Scripts that ended with a voluntary abort.
    pub voluntary_aborts: u64,
    /// Scripts that exhausted their retries.
    pub gave_up: u64,
    /// Deadlock victims (counted per abort, not per script).
    pub deadlock_aborts: u64,
    /// System-initiated validation aborts.
    pub validation_aborts: u64,
    /// Script restarts after a system abort (a script's final failed
    /// attempt counts as a retry *and* a give-up).
    pub retries: u64,
    /// Time queued by admission control under an MPL bound: driver-rounds
    /// held back (scheduler), wait slices parked (threaded). Zero when `mpl`
    /// is unlimited.
    pub admission_rounds: u64,
    /// Operations whose **first** attempt hit a conflict (the raw
    /// `stats.blocks` also counts every retried attempt, which is waiting).
    pub blocked_ops: u64,
    /// Forward progress: scheduler rounds until all scripts finished (a
    /// makespan in logical time); transaction attempts for the threaded
    /// executor, which has no round clock — there every attempt ends in a
    /// commit, a voluntary abort or a retry, so `rounds == committed +
    /// voluntary_aborts + retries` exactly.
    pub rounds: u64,
    /// Lost concurrency: one per blocked invocation attempt, plus the
    /// driver-rounds held back blocked, asleep or paused (scheduler) or the
    /// condvar wait slices asleep after a restart (threaded).
    pub wait_rounds: u64,
    /// Final system counters.
    pub stats: SystemStats,
}

/// What a bare [`TxnSystem`], the threaded executor's write-ahead buffer and
/// a [`DurableSystem`](crate::crash::DurableSystem) do differently under a
/// driver: the last two override `invoke` and `abort` to buffer every
/// executed operation for a log. Everything else a driver needs — begin,
/// liveness, the wait-for graph, the counters, the tracer — is the
/// transaction system's own.
pub(crate) trait Driven<A: Adt> {
    /// The recovery engine of the system underneath.
    type Engine: RecoveryEngine<A>;
    /// The conflict relation of the system underneath.
    type Conflict: Conflict<A>;
    /// The transaction system underneath.
    fn txns(&mut self) -> &mut TxnSystem<A, Self::Engine, Self::Conflict>;
    /// Execute one operation of `txn` at `obj`.
    fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        self.txns().invoke(txn, obj, inv)
    }
    /// Abort `txn` at its script's request.
    fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        self.txns().abort(txn)
    }
}

impl<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> Driven<A> for TxnSystem<A, E, C> {
    type Engine = E;
    type Conflict = C;
    fn txns(&mut self) -> &mut TxnSystem<A, E, C> {
        self
    }
}

/// One script driven through the system as one transaction (re-begun on
/// retry): its state and the transitions both executors share — `step`,
/// `restart` and `expire`. Whoever drives it decides only when it moves.
pub(crate) struct Driver<A: Adt> {
    script: Box<dyn Script<A>>,
    /// The transaction in flight. A finished driver has none: a rebuilt
    /// system numbers transactions from the floor its log gives it, so an id
    /// a finished script once ran under can be issued again, and no lookup
    /// by id may then reach the stale handle.
    pub(crate) txn: Option<TxnId>,
    last: Option<A::Response>,
    pending: Option<Step<A>>,
    /// The pending step has not been tried yet: its first block is counted
    /// in `blocked_ops`, a retry of it is waiting.
    fresh: bool,
    /// Completion epoch at the time this driver last blocked — retried only
    /// after some transaction completes (releasing locks).
    blocked_epoch: Option<u64>,
    /// Commit count at the time this driver was restarted after a system
    /// abort — it stays asleep until someone commits (backoff that lets a
    /// conflict clique drain one committer at a time).
    sleep_until_commit: Option<u64>,
    /// Rounds left to sit out, ticked down once per visit: the seeded jitter
    /// of a deadline or shed victim, or a delayed-commit fault.
    pause: u64,
    /// Commit staged for the round-end group flush (the simulator's
    /// group-commit mode); the driver is acknowledged only once its record's
    /// batch is durable, and no deadline reaches it in between.
    pub(crate) staged: bool,
    /// The round the current transaction began — the deadline and liveness
    /// clocks both measure from here (meaningless while `txn` is `None`).
    pub(crate) began_round: u64,
    pub(crate) retries: usize,
    pub(crate) done: bool,
    pub(crate) committed: bool,
    pub(crate) voluntary_abort: bool,
    /// Typed give-up marker: an invocation or commit was *refused* (not
    /// aborted) and the script stopped. The bounded-outcome leg accepts
    /// this — and an exhausted retry budget — as the only legitimate ways
    /// to give up.
    pub(crate) refused: bool,
}

impl<A: Adt> Driver<A> {
    pub(crate) fn new(mut script: Box<dyn Script<A>>) -> Self {
        script.reset();
        Driver {
            script,
            txn: None,
            last: None,
            pending: None,
            fresh: false,
            blocked_epoch: None,
            sleep_until_commit: None,
            pause: 0,
            staged: false,
            began_round: 0,
            retries: 0,
            done: false,
            committed: false,
            voluntary_abort: false,
            refused: false,
        }
    }

    /// Draw the script's next step unless one is pending. The only place
    /// `Script::next` runs, so a driver behind a lock draws first, without
    /// it.
    pub(crate) fn draw(&mut self) {
        if self.pending.is_none() {
            self.pending = Some(self.script.next(self.last.as_ref()));
            self.fresh = true;
        }
    }

    /// The transaction in flight, begun now if there is none.
    pub(crate) fn begin<S: Driven<A>>(&mut self, sys: &mut S) -> TxnId {
        *self.txn.get_or_insert_with(|| sys.txns().begin())
    }

    /// One step: [`begin`](Self::begin), then the pending-or-next step —
    /// `invoke` and the classification of its outcome, or a voluntary abort.
    /// A commit goes back to the caller, since committing is exactly where
    /// the runs differ.
    pub(crate) fn step<S: Driven<A>>(&mut self, sys: &mut S, report: &mut RunReport) -> Stepped {
        let txn = self.begin(sys);
        self.draw();
        match self.pending.take().expect("a step was drawn") {
            Step::Invoke(obj, inv) => match sys.invoke(txn, obj, inv.clone()) {
                Ok(resp) => {
                    self.last = Some(resp);
                    self.blocked_epoch = None;
                    Stepped::Progressed
                }
                Err(TxnError::Blocked) => {
                    report.blocked_ops += u64::from(std::mem::take(&mut self.fresh));
                    report.wait_rounds += 1;
                    self.pending = Some(Step::Invoke(obj, inv));
                    self.blocked_epoch = Some(epoch(sys.txns().stats()));
                    Stepped::Blocked
                }
                Err(TxnError::Aborted(_)) => Stepped::Aborted,
                // A refusal is typed and terminal. A bare system refuses
                // only what the script got wrong; under fault injection a
                // script can be stranded in a state its generator never
                // anticipated, gives up, and the oracle remains the arbiter
                // of correctness — the caller tells the two apart.
                Err(e) => {
                    let _ = sys.abort(txn);
                    self.refused = true;
                    self.retire();
                    Stepped::Refused(e)
                }
            },
            Step::Commit => Stepped::Commit(txn),
            Step::Abort => {
                // The script ends by its own choice whether or not the
                // transaction was still there to abort.
                let _ = sys.abort(txn);
                self.voluntary_abort = true;
                self.retire();
                Stepped::Progressed
            }
        }
    }

    /// Reset after the transaction was aborted (by the system, a fault, or a
    /// crash) — the only place `retries` is charged and the budget checked.
    /// Unless `wake` is [`Wake::Now`] the driver sleeps until a commit;
    /// `false` when the budget is spent and the script is given up.
    pub(crate) fn restart<S: Driven<A>>(
        &mut self,
        sys: &mut S,
        report: &mut RunReport,
        wake: Wake,
        max_retries: usize,
    ) -> bool {
        self.sleep_until_commit = (wake != Wake::Now).then_some(sys.txns().stats().committed);
        self.txn = None;
        self.last = None;
        self.pending = None;
        self.blocked_epoch = None;
        self.staged = false;
        self.retries += 1;
        report.retries += 1;
        self.script.reset();
        if self.retries > max_retries {
            self.retire();
        }
        !self.done
    }

    /// The deadline guard, for a caller that found the transaction overdue:
    /// abort it with [`AbortReason::Deadline`] if it is still active. One
    /// that wound-wait already killed is left to its next `invoke` (`false`).
    pub(crate) fn expire<S: Driven<A>>(&mut self, sys: &mut S) -> bool {
        let Some(txn) = self.txn.filter(|&t| sys.txns().is_active(t)) else { return false };
        sys.txns().abort_with(txn, AbortReason::Deadline).expect("txn is active");
        true
    }

    /// [`Wake::AfterCommit`]'s predicate: a restarted driver sleeps until the
    /// commit count moves past the one its restart sampled.
    pub(crate) fn asleep(&mut self, committed: u64) -> bool {
        self.sleep_until_commit = self.sleep_until_commit.filter(|&c| c == committed);
        self.sleep_until_commit.is_some()
    }

    /// The commit was acknowledged.
    pub(crate) fn acknowledged(&mut self) {
        self.committed = true;
        self.retire();
    }

    /// The script is over, for whichever reason the caller recorded.
    pub(crate) fn retire(&mut self) {
        self.done = true;
        self.txn = None;
        self.staged = false;
    }

    /// Count a finished script into `report`'s partition.
    pub(crate) fn tally(&self, report: &mut RunReport) {
        let outcome = if self.committed {
            &mut report.committed
        } else if self.voluntary_abort {
            &mut report.voluntary_aborts
        } else {
            &mut report.gave_up
        };
        *outcome += 1;
    }
}

/// When a restarted script may try again.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// Once some transaction has committed — for victims the system picked
    /// by conflict (deadlock, validation, no-wait, wound, forced abort), so
    /// that a restarted victim does not re-acquire its locks and get chosen
    /// again: clique-shaped conflicts livelock otherwise. Both executors
    /// wait on it; [`RoundRobin::break_stall`] wakes a sleeper.
    AfterCommit,
    /// After a commit *and* `seeded_jitter(seed, txn, retries)` rounds — for
    /// victims the system did not pick by conflict (a deadline ran out, the
    /// group flush shed its commit): all victims of one overload episode
    /// would otherwise wake in lockstep and collide again. The sample lands
    /// in the `retry_jitter` histogram.
    AfterCommitAndJitter,
    /// At its next visit — crash-style restarts: the rebuilt system holds
    /// no locks.
    Now,
}

/// What one [`Driver::step`] did.
pub(crate) enum Stepped {
    /// An operation executed, or the script aborted itself (and is done).
    Progressed,
    /// The operation conflicts and stays pending.
    Blocked,
    /// The system aborted the transaction; the caller restarts the driver.
    Aborted,
    /// The script asks to commit — the caller's business.
    Commit(TxnId),
    /// The system refused the invocation outright; the script gave up.
    Refused(TxnError),
}

fn epoch(stats: &SystemStats) -> u64 {
    stats.committed + stats.aborted
}

/// The cooperative schedule: drivers visited round-robin in a seeded order,
/// one step per visit. [`run`] drives it over a bare [`TxnSystem`], the fault
/// simulator over a durable one with a fault plan and an oracle around the
/// same calls.
pub(crate) struct RoundRobin<A: Adt> {
    cfg: SchedulerCfg,
    rng: StdRng,
    pub(crate) drivers: Vec<Driver<A>>,
    pub(crate) round: u64,
    /// Whether any visit of the current round made progress.
    progressed: bool,
    report: RunReport,
}

impl<A: Adt> RoundRobin<A> {
    pub(crate) fn new(scripts: Vec<Box<dyn Script<A>>>, cfg: SchedulerCfg) -> Self {
        RoundRobin {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            drivers: scripts.into_iter().map(Driver::new).collect(),
            round: 0,
            progressed: false,
            report: RunReport::default(),
        }
    }

    /// Open the next round: the unfinished drivers in this round's seeded
    /// visiting order, or `None` once every script is over (or the round cap
    /// is hit).
    pub(crate) fn next_round(&mut self) -> Option<Vec<usize>> {
        self.round += 1;
        if self.round > self.cfg.max_rounds {
            return None;
        }
        let mut order: Vec<usize> =
            (0..self.drivers.len()).filter(|&i| !self.drivers[i].done).collect();
        if order.is_empty() {
            return None;
        }
        order.shuffle(&mut self.rng);
        self.progressed = false;
        Some(order)
    }

    /// Whether driver `i` may take a step at this visit. The checks run in a
    /// fixed order — deadline, pause tick, sleep-until-commit, blocked epoch,
    /// admission — and the first that holds the driver back ends the visit.
    pub(crate) fn gate<S: Driven<A>>(&mut self, sys: &mut S, i: usize) -> bool {
        let d = &mut self.drivers[i];
        if d.done {
            return false;
        }
        // Deadline: a transaction in flight past its round budget is aborted
        // and its script restarted (against the retry budget) under jittered
        // backoff — bounded outcome on a stalling system.
        if self.cfg.deadline > 0
            && !d.staged
            && self.round.saturating_sub(d.began_round) > self.cfg.deadline
            && d.expire(sys)
        {
            self.restart(sys, i, Wake::AfterCommitAndJitter);
            self.progressed = true;
            return false;
        }
        // The tick-down is forward progress (the pause is finite), not a
        // stall.
        if d.pause > 0 {
            d.pause -= 1;
            self.report.wait_rounds += 1;
            self.progressed = true;
            return false;
        }
        // A blocked driver is only retried once some transaction has
        // completed since it blocked (locks are released on completion);
        // a restarted victim additionally waits for a commit.
        let stats = sys.txns().stats();
        if d.asleep(stats.committed) || d.blocked_epoch == Some(epoch(stats)) {
            self.report.wait_rounds += 1;
            return false;
        }
        // Admission control: a driver without a transaction may only begin
        // one while fewer than `mpl` are in flight. It waits without
        // progress — the stall breaker must still see a stuck round.
        if self.cfg.mpl > 0 && self.drivers[i].txn.is_none() {
            let in_flight = self.drivers.iter().filter(|d| d.txn.is_some()).count();
            if in_flight >= self.cfg.mpl {
                self.report.admission_rounds += 1;
                return false;
            }
        }
        true
    }

    /// Advance driver `i` by one step of its script; a system abort restarts
    /// it.
    pub(crate) fn step<S: Driven<A>>(&mut self, sys: &mut S, i: usize) -> Stepped {
        let d = &mut self.drivers[i];
        if d.txn.is_none() {
            d.began_round = self.round;
        }
        let stepped = match d.step(sys, &mut self.report) {
            Stepped::Blocked => return Stepped::Blocked,
            Stepped::Aborted => {
                self.restart(sys, i, Wake::AfterCommit);
                Stepped::Progressed
            }
            stepped => stepped,
        };
        self.progressed = true;
        stepped
    }

    /// Put a commit the caller is not taking yet back as driver `i`'s
    /// pending step, to be asked for again after `rounds` visits.
    pub(crate) fn postpone_commit(&mut self, i: usize, rounds: u64) {
        self.drivers[i].pending = Some(Step::Commit);
        self.drivers[i].pause = rounds;
    }

    /// The driver whose transaction in flight is `txn`.
    pub(crate) fn holder(&self, txn: TxnId) -> Option<usize> {
        self.drivers.iter().position(|d| d.txn == Some(txn))
    }

    /// [`Driver::restart`] for driver `i` under this run's budget, drawing
    /// the seeded pause [`Wake::AfterCommitAndJitter`] asks for.
    pub(crate) fn restart<S: Driven<A>>(&mut self, sys: &mut S, i: usize, wake: Wake) {
        let d = &mut self.drivers[i];
        d.pause = 0;
        if wake == Wake::AfterCommitAndJitter {
            let victim = d.txn.expect("a victim held a transaction");
            d.pause = seeded_jitter(self.cfg.seed, u64::from(victim.0), d.retries);
            sys.txns().obs_mut().on_retry_jitter(d.pause);
        }
        d.restart(sys, &mut self.report, wake, self.cfg.max_retries);
    }

    /// Close a round. One in which no visit made progress has every live
    /// driver blocked or sleeping: a cycle must exist in the wait-for graph
    /// — abort the youngest transaction on some cycle; failing that the
    /// youngest in flight, to guarantee progress; and when no driver holds a
    /// transaction at all (everyone sleeps after a restart with no commit in
    /// sight) wake one. `false` when nobody is left to run.
    pub(crate) fn break_stall<S: Driven<A>>(&mut self, sys: &mut S) -> bool {
        if self.progressed {
            return true;
        }
        let in_flight = || self.drivers.iter().filter_map(|d| d.txn);
        let on_cycle = in_flight()
            .find_map(|t| sys.txns().find_deadlock(t))
            .and_then(|cycle| cycle.into_iter().max());
        let Some(victim) = on_cycle.or_else(|| in_flight().max()) else {
            let Some(sleeper) = self.drivers.iter_mut().find(|d| !d.done) else {
                return false;
            };
            sleeper.blocked_epoch = None;
            sleeper.sleep_until_commit = None;
            return true;
        };
        self.report.deadlock_aborts += u64::from(on_cycle.is_some());
        sys.txns().abort_with(victim, AbortReason::Deadlock).expect("victim is active");
        if let Some(i) = self.holder(victim) {
            self.restart(sys, i, Wake::AfterCommit);
        }
        true
    }

    /// Fold the drivers and the system's counters into the report.
    pub(crate) fn finish<S: Driven<A>>(mut self, sys: &mut S) -> RunReport {
        self.report.rounds = self.round;
        for d in &self.drivers {
            d.tally(&mut self.report);
        }
        let stats = sys.txns().stats();
        self.report.validation_aborts = stats.validation_aborts;
        self.report.stats = stats.clone();
        self.report
    }
}

/// Drive `scripts` to completion over `sys`. Each script runs as one
/// transaction (re-begun on retry).
pub fn run<A, E, C>(
    sys: &mut TxnSystem<A, E, C>,
    scripts: Vec<Box<dyn Script<A>>>,
    cfg: &SchedulerCfg,
) -> RunReport
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
{
    let mut exec = RoundRobin::new(scripts, *cfg);
    while let Some(order) = exec.next_round() {
        for i in order {
            if !exec.gate(sys, i) {
                continue;
            }
            match exec.step(sys, i) {
                Stepped::Commit(txn) => {
                    // Volatile runs still get a commit-total phase window:
                    // here it covers exactly the validate+apply work (no
                    // journal below us).
                    let total = sys.obs_mut().span_begin(Phase::CommitTotal);
                    let outcome = sys.commit(txn);
                    sys.obs_mut().span_end(total);
                    match outcome {
                        Ok(()) => exec.drivers[i].acknowledged(),
                        Err(TxnError::Aborted(_)) => exec.restart(sys, i, Wake::AfterCommit),
                        Err(e) => panic!("commit error: {e}"),
                    }
                }
                Stepped::Refused(e) => panic!("script error: {e}"),
                Stepped::Progressed | Stepped::Blocked | Stepped::Aborted => {}
            }
        }
        if !exec.break_stall(sys) {
            break;
        }
    }
    exec.finish(sys)
}

/// Deterministic restart jitter: a seeded hash of the restarting
/// transaction and its retry count, bounded by the exponential base for
/// that retry. Jitter decorrelates the restart schedule of a conflict
/// clique (all victims of one storm would otherwise wake in lockstep and
/// collide again) while keeping the run a pure function of the seed.
pub(crate) fn seeded_jitter(seed: u64, salt: u64, retries: usize) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (seed, salt, retries as u64).hash(&mut h);
    h.finish() % (backoff_base(retries) + 1)
}

/// Exponential backoff base for the `retries`-th restart, in scheduler
/// rounds: 1, 2, 4, … capped at 32 so an exhausted retry budget cannot
/// stretch a run past `max_rounds`.
pub(crate) fn backoff_base(retries: usize) -> u64 {
    1u64 << retries.min(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DuEngine, UipEngine};
    use crate::script::OpsScript;
    use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
    use ccr_core::atomicity::{check_dynamic_atomic, SystemSpec};
    use ccr_core::ids::ObjectId;

    const X: ObjectId = ObjectId::SOLE;

    fn transfer_scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
        // Each deposits 2 then withdraws 1 on the single hot account.
        (0..n)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    #[test]
    fn uip_nrbc_runs_hotspot_without_blocking() {
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let report = run(&mut sys, transfer_scripts(8), &SchedulerCfg::default());
        assert_eq!(report.committed, 8);
        assert_eq!(report.gave_up, 0);
        assert_eq!(sys.committed_state(X), 8);
        // Every recorded execution must be dynamic atomic (Theorem 9).
        let spec = SystemSpec::single(BankAccount::default());
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }

    #[test]
    fn du_nfc_commits_all_with_blocking() {
        let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nfc());
        let report = run(&mut sys, transfer_scripts(8), &SchedulerCfg::default());
        assert_eq!(report.committed, 8);
        assert_eq!(sys.committed_state(X), 8);
        let spec = SystemSpec::single(BankAccount::default());
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }

    #[test]
    fn admission_control_bounds_in_flight_transactions() {
        // With MPL 1 everything serialises: no blocks, no deadlocks, ever —
        // even on the clique-shaped hotspot that thrashes unthrottled.
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let cfg = SchedulerCfg { mpl: 1, ..Default::default() };
        let report = run(&mut sys, transfer_scripts(8), &cfg);
        assert_eq!(report.committed, 8);
        assert_eq!(report.blocked_ops, 0);
        assert_eq!(report.deadlock_aborts, 0);
        assert!(report.admission_rounds > 0);
        assert_eq!(sys.committed_state(X), 8);
    }

    #[test]
    fn deadlines_type_the_abort_and_everything_still_commits() {
        // Blocking DU hotspot under a tight deadline: transactions stuck
        // behind the lock queue exceed their round budget, are aborted with
        // the typed Deadline reason, back off with seeded jitter, and every
        // script still commits within the retry budget.
        let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nfc());
        let cfg = SchedulerCfg { deadline: 6, ..Default::default() };
        let report = run(&mut sys, transfer_scripts(8), &cfg);
        assert_eq!(report.committed, 8);
        assert_eq!(report.gave_up, 0);
        assert_eq!(sys.committed_state(X), 8);
        assert!(report.stats.deadline_aborts > 0, "the tight deadline must fire");
        assert!(report.retries > 0, "deadline aborts restart the script");
        let spec = SystemSpec::single(BankAccount::default());
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }

    #[test]
    fn deadline_runs_are_deterministic() {
        let run_once = || {
            let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
                TxnSystem::new(BankAccount::default(), 1, bank_nfc());
            let cfg = SchedulerCfg { seed: 11, deadline: 6, ..Default::default() };
            let r = run(&mut sys, transfer_scripts(8), &cfg);
            (r.rounds, r.retries, r.stats.deadline_aborts, sys.trace().clone())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn voluntary_aborts_are_counted_not_retried() {
        use crate::script::ConditionalScript;
        use ccr_adt::bank::BankResp;
        // Withdraw 5 from an empty account; on refusal, abort voluntarily.
        fn decide(pos: usize, last: Option<&BankResp>) -> Step<BankAccount> {
            match pos {
                0 => Step::Invoke(X, BankInv::Withdraw(5)),
                _ => match last {
                    Some(BankResp::Ok) => Step::Commit,
                    _ => Step::Abort,
                },
            }
        }
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let scripts: Vec<Box<dyn Script<BankAccount>>> =
            vec![Box::new(ConditionalScript::new(decide))];
        let report = run(&mut sys, scripts, &SchedulerCfg::default());
        assert_eq!(report.voluntary_aborts, 1);
        assert_eq!(report.committed, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(sys.committed_state(X), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run_once = |seed: u64| {
            let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
                TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
            let cfg = SchedulerCfg { seed, ..Default::default() };
            let r = run(&mut sys, transfer_scripts(6), &cfg);
            (r.stats.ops, r.stats.blocks, sys.trace().clone())
        };
        assert_eq!(run_once(7).2, run_once(7).2);
        assert_eq!(run_once(7).0, run_once(7).0);
    }

    #[test]
    fn no_wait_terminates_on_the_hotspot() {
        use crate::system::ConflictPolicy;
        // A conflict-heavy hotspot under no-wait: every conflict aborts the
        // requester, yet retries with post-abort backoff drain the queue.
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc())
                .with_policy(ConflictPolicy::NoWait);
        let scripts: Vec<Box<dyn Script<BankAccount>>> = (0..8)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Balance, BankInv::Deposit(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect();
        let report = run(&mut sys, scripts, &SchedulerCfg::default());
        assert_eq!(report.committed, 8);
        assert_eq!(report.deadlock_aborts, 0, "no-wait never needs detection");
        assert!(report.stats.conflict_aborts > 0, "conflicts occurred");
        assert_eq!(sys.committed_state(X), 8);
    }

    #[test]
    fn wound_wait_is_deadlock_free() {
        use crate::system::ConflictPolicy;
        use ccr_core::ids::ObjectId;
        // The crosswise balance/deposit pattern that deadlocks under the
        // blocking policy cannot deadlock under wound-wait: no deadlock
        // aborts may ever be needed.
        let y = ObjectId(1);
        for seed in 0..8u64 {
            let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
                TxnSystem::new(BankAccount::default(), 2, bank_nrbc())
                    .with_policy(ConflictPolicy::WoundWait);
            let mut scripts: Vec<Box<dyn Script<BankAccount>>> = Vec::new();
            for i in 0..8 {
                let (a, b) = if i % 2 == 0 {
                    (ccr_core::ids::ObjectId(0), y)
                } else {
                    (y, ccr_core::ids::ObjectId(0))
                };
                scripts.push(Box::new(OpsScript::new(vec![
                    (a, BankInv::Balance),
                    (b, BankInv::Deposit(1)),
                ])));
            }
            let cfg = SchedulerCfg { seed, ..Default::default() };
            let report = run(&mut sys, scripts, &cfg);
            assert_eq!(report.committed, 8, "all must commit (seed {seed})");
            assert_eq!(report.deadlock_aborts, 0, "wound-wait never deadlocks");
            // The committed trace remains dynamic atomic.
            use ccr_core::atomicity::{check_dynamic_atomic, SystemSpec};
            let spec = SystemSpec::uniform(BankAccount::default(), 2);
            assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
        }
    }

    #[test]
    fn a_deadline_leaves_a_wounded_transaction_to_its_next_invoke() {
        use crate::system::ConflictPolicy;
        // Wound-wait kills a victim behind its driver's back; when the
        // victim's deadline has passed by the driver's next turn there is
        // nothing left to abort, and the script restarts off the wound
        // marker. (Two transactions of one round, the older one held up a
        // round by a third: on a third of these seeds it wounds the younger
        // in the round the deadline of both runs out.)
        let y = ObjectId(1);
        let (mut wounds, mut deadline_aborts) = (0, 0);
        for seed in 0..16u64 {
            let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
                TxnSystem::new(BankAccount::default(), 2, bank_nrbc())
                    .with_policy(ConflictPolicy::WoundWait);
            let scripts = (0..12)
                .map(|i| {
                    let (a, b) = if i % 2 == 0 { (X, y) } else { (y, X) };
                    Box::new(OpsScript::new(vec![
                        (a, BankInv::Balance),
                        (b, BankInv::Deposit(1)),
                        (a, BankInv::Deposit(1)),
                        (b, BankInv::Balance),
                    ])) as Box<dyn Script<BankAccount>>
                })
                .collect();
            let cfg = SchedulerCfg { seed, deadline: 5, ..Default::default() };
            let report = run(&mut sys, scripts, &cfg);
            assert_eq!((report.committed, report.gave_up), (12, 0), "seed {seed}");
            wounds += report.stats.wounds;
            deadline_aborts += report.stats.deadline_aborts;
            let spec = SystemSpec::uniform(BankAccount::default(), 2);
            assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
        }
        assert!(wounds > 0 && deadline_aborts > 0, "{wounds} wounds, {deadline_aborts} deadlines");
    }

    #[test]
    fn each_wake_rule_sleeps_and_pauses_as_it_says() {
        let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let cfg = SchedulerCfg { seed: 9, ..Default::default() };
        let mut exec = RoundRobin::new(transfer_scripts(3), cfg);
        exec.next_round().expect("three live drivers");
        // Begin driver `i`'s transaction, abort it behind its back and
        // restart the driver under `wake`; the retry-jitter samples drawn.
        let mut victimise = |exec: &mut RoundRobin<BankAccount>, i: usize, wake| {
            assert!(matches!(exec.step(&mut sys, i), Stepped::Progressed));
            let txn = exec.drivers[i].txn.expect("the step began a transaction");
            sys.abort_with(txn, AbortReason::ConflictAbort).expect("it is active");
            let before = sys.obs().retry_jitter().count();
            exec.restart(&mut sys, i, wake);
            assert_eq!(exec.drivers[i].txn, None);
            sys.obs().retry_jitter().count() - before
        };
        // `Now` neither sleeps nor pauses: the next visit steps.
        assert_eq!(victimise(&mut exec, 0, Wake::Now), 0);
        assert_eq!((exec.drivers[0].sleep_until_commit, exec.drivers[0].pause), (None, 0));
        // `AfterCommit` sleeps on the commit count, without pause or sample.
        assert_eq!(victimise(&mut exec, 1, Wake::AfterCommit), 0);
        assert_eq!((exec.drivers[1].sleep_until_commit, exec.drivers[1].pause), (Some(0), 0));
        // `AfterCommitAndJitter` sleeps, and sits out the one sample it
        // records — at most the exponential base of the retries so far.
        for retries in 0..8 {
            assert_eq!(victimise(&mut exec, 2, Wake::AfterCommitAndJitter), 1);
            let d = &exec.drivers[2];
            assert_eq!((d.sleep_until_commit, d.retries), (Some(0), retries + 1));
            assert!(d.pause <= backoff_base(retries), "retry {retries}: pause {}", d.pause);
        }
        assert!(sys.obs().retry_jitter().max() > 1, "the later draws range past the first base");
    }

    #[test]
    fn mismatched_pairing_still_terminates_correctly() {
        // DU with the (insufficient) NRBC relation: validation aborts kick
        // in, every script eventually commits via retry, and the committed
        // trace remains atomic.
        let mut sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let scripts: Vec<Box<dyn Script<BankAccount>>> = (0..6)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Deposit(5), BankInv::Withdraw(3)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect();
        let report = run(&mut sys, scripts, &SchedulerCfg::default());
        assert_eq!(report.committed, 6);
        assert_eq!(sys.committed_state(X), 12);
    }
}
