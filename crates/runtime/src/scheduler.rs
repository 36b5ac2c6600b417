//! A deterministic, seeded scheduler driving scripts through a
//! [`TxnSystem`].
//!
//! The scheduler interleaves scripts in a seeded random order, retries
//! blocked invocations when a blocker completes, detects deadlocks through
//! the system's wait-for graph (aborting the youngest transaction in the
//! cycle), and restarts scripts whose transactions were aborted by the
//! system. Determinism (same seed ⇒ same execution) makes experiment runs
//! reproducible and lets property tests shrink failures.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_core::ids::TxnId;
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
    /// against the retry budget. Bounds the time any admitted transaction
    /// can hold locks on a stalling system.
    pub deadline: u64,
    /// Exponential post-restart backoff with seeded jitter: a restarted
    /// script sleeps `2^min(retries,5) + jitter` rounds before its next
    /// attempt, decorrelating the wakeups of a conflict clique. Off by
    /// default — it lengthens logical makespans, so the comparative
    /// experiments keep the bare restart-on-commit discipline unless a run
    /// opts in (the fault simulator's overload path does).
    pub backoff: bool,
}

impl Default for SchedulerCfg {
    fn default() -> Self {
        SchedulerCfg {
            seed: 0,
            max_retries: 64,
            max_rounds: 1_000_000,
            mpl: 0,
            deadline: 0,
            backoff: false,
        }
    }
}

/// Result of a scheduled run.
///
/// **Shared field semantics.** This report is produced by both executors —
/// the seeded scheduler here and `threaded.rs`'s worker pool — and the
/// experiment projections compare them, so every field means the same thing
/// under both (asserted by `tests/obs_projection.rs`):
///
/// - `committed` / `voluntary_aborts` / `gave_up` partition the scripts;
///   `retries` counts script restarts after a system abort (a script's final
///   failed attempt counts as a retry *and* a give-up).
/// - `blocked_ops` counts operations whose **first** attempt hit a conflict;
///   re-attempts of the same blocked operation are waiting, not new blocks,
///   and land in `wait_rounds` instead.
/// - `rounds` is the executor's unit of forward progress: scheduler rounds
///   (a logical makespan) for the seeded scheduler, transaction attempts for
///   the threaded executor (which has no global round clock) — where every
///   attempt ends in a commit, a voluntary abort, or a retry, so
///   `rounds == committed + voluntary_aborts + retries` holds exactly.
/// - `wait_rounds` is the executor's unit of lost concurrency: driver-rounds
///   spent blocked or sleeping (scheduler), condvar wait slices elapsed
///   while blocked or asleep after a restart (threaded).
/// - `admission_rounds` counts time queued by admission control under an
///   MPL bound: driver-rounds held back (scheduler), admission wait slices
///   elapsed while parked (threaded). Zero when `mpl` is unlimited.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Scripts that ultimately committed.
    pub committed: u64,
    /// Scripts that ended with a voluntary abort.
    pub voluntary_aborts: u64,
    /// Scripts that exhausted their retries.
    pub gave_up: u64,
    /// Deadlock victims (counted per abort, not per script).
    pub deadlock_aborts: u64,
    /// System-initiated validation aborts.
    pub validation_aborts: u64,
    /// Total retries across scripts.
    pub retries: u64,
    /// Time spent queued by admission control under an MPL bound, in the
    /// executor's wait unit (distinct from `wait_rounds`, which counts lock
    /// waits). Zero when `mpl` is unlimited.
    pub admission_rounds: u64,
    /// Operations that hit a conflict on their first attempt (the raw
    /// `stats.blocks` additionally counts every retried attempt).
    pub blocked_ops: u64,
    /// Scheduler rounds until all scripts finished (a makespan in logical
    /// time: more blocking ⇒ more rounds); transaction attempts for the
    /// threaded executor.
    pub rounds: u64,
    /// Driver-rounds spent waiting (blocked or sleeping after an abort) —
    /// the cross-configuration "lost concurrency" measure. Condvar wait
    /// slices, blocked or asleep after a restart, for the threaded executor.
    pub wait_rounds: u64,
    /// Final system counters.
    pub stats: SystemStats,
}

struct Driver<A: Adt> {
    script: Box<dyn Script<A>>,
    txn: Option<TxnId>,
    last: Option<A::Response>,
    pending: Option<Step<A>>,
    /// Completion epoch at the time this driver last blocked — retried only
    /// after some transaction completes (releasing locks).
    blocked_epoch: Option<u64>,
    /// Commit count at the time this driver was restarted after a system
    /// abort — it stays asleep until someone commits (backoff that lets a
    /// conflict clique drain one committer at a time).
    sleep_until_commit: Option<u64>,
    /// Exponential-backoff rounds (with seeded jitter) left to sleep after
    /// a restart, ticked down once per scheduler visit.
    backoff_rounds: u64,
    /// Scheduler round at which the current transaction began (deadline
    /// accounting; meaningless while `txn` is `None`).
    began_round: u64,
    retries: usize,
    done: bool,
    committed: bool,
    voluntary_abort: bool,
}

fn epoch(stats: &SystemStats) -> u64 {
    stats.committed + stats.aborted
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
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = RunReport::default();
    let mut drivers: Vec<Driver<A>> = scripts
        .into_iter()
        .map(|mut script| {
            script.reset();
            Driver {
                script,
                txn: None,
                last: None,
                pending: None,
                blocked_epoch: None,
                sleep_until_commit: None,
                backoff_rounds: 0,
                began_round: 0,
                retries: 0,
                done: false,
                committed: false,
                voluntary_abort: false,
            }
        })
        .collect();

    let mut rounds = 0u64;
    loop {
        rounds += 1;
        if rounds > cfg.max_rounds {
            break;
        }
        let mut order: Vec<usize> = (0..drivers.len()).filter(|&i| !drivers[i].done).collect();
        if order.is_empty() {
            break;
        }
        order.shuffle(&mut rng);
        let mut progressed = false;
        for i in order {
            if drivers[i].done {
                continue;
            }
            // Deadline: a transaction in flight past its budget is aborted
            // with a typed reason and its script restarted (against the
            // retry budget) — bounded outcome on a stalling system. One that
            // wound-wait already killed is left to its next `invoke`, which
            // consumes the wound marker and restarts the script.
            if cfg.deadline > 0 {
                if let Some(t) = drivers[i].txn {
                    if rounds.saturating_sub(drivers[i].began_round) > cfg.deadline
                        && sys.is_active(t)
                    {
                        sys.abort_with(t, AbortReason::Deadline).expect("txn is active");
                        let commits = sys.stats().committed;
                        let jitter = restart_jitter(sys, cfg, t, drivers[i].retries);
                        restart(&mut drivers[i], cfg, &mut report, commits, jitter);
                        progressed = true;
                        continue;
                    }
                }
            }
            // Exponential backoff after a restart: the tick-down is forward
            // progress (the sleep is finite), not a stall.
            if drivers[i].backoff_rounds > 0 {
                drivers[i].backoff_rounds -= 1;
                report.wait_rounds += 1;
                progressed = true;
                continue;
            }
            // A blocked driver is only retried once some transaction has
            // completed since it blocked (locks are released on completion);
            // a restarted victim additionally waits for a commit.
            if let Some(c) = drivers[i].sleep_until_commit {
                if sys.stats().committed == c {
                    report.wait_rounds += 1;
                    continue;
                }
                drivers[i].sleep_until_commit = None;
            }
            if let Some(e) = drivers[i].blocked_epoch {
                if epoch(sys.stats()) == e {
                    report.wait_rounds += 1;
                    continue;
                }
            }
            // Admission control: a driver without a transaction may only
            // begin one while fewer than `mpl` are in flight.
            if cfg.mpl > 0 && drivers[i].txn.is_none() {
                let in_flight = drivers.iter().filter(|d| !d.done && d.txn.is_some()).count();
                if in_flight >= cfg.mpl {
                    report.admission_rounds += 1;
                    continue;
                }
            }
            if step_driver(sys, &mut drivers[i], cfg, &mut report, rounds) {
                progressed = true;
            } else {
                report.wait_rounds += 1;
            }
        }
        if !progressed {
            // Every live driver is blocked: a cycle must exist in the
            // wait-for graph. Abort the youngest transaction on some cycle.
            let blocked: Vec<TxnId> =
                drivers.iter().filter(|d| !d.done).filter_map(|d| d.txn).collect();
            let mut victim = None;
            for &t in &blocked {
                if let Some(cycle) = sys.find_deadlock(t) {
                    victim = cycle.into_iter().max();
                    break;
                }
            }
            let Some(victim) = victim else {
                match blocked.into_iter().max() {
                    // No cycle found: abort the youngest blocked transaction
                    // to guarantee progress.
                    Some(t) => {
                        abort_and_restart(sys, &mut drivers, t, cfg, &mut report);
                        continue;
                    }
                    // No driver holds a transaction: everyone is sleeping
                    // after a restart with no commit in sight — wake one.
                    None => match drivers.iter_mut().find(|d| !d.done) {
                        Some(d) => {
                            d.blocked_epoch = None;
                            d.sleep_until_commit = None;
                            d.backoff_rounds = 0;
                            continue;
                        }
                        None => break,
                    },
                }
            };
            report.deadlock_aborts += 1;
            abort_and_restart(sys, &mut drivers, victim, cfg, &mut report);
        }
    }

    report.rounds = rounds;
    for d in &drivers {
        if d.committed {
            report.committed += 1;
        } else if d.voluntary_abort {
            report.voluntary_aborts += 1;
        } else {
            report.gave_up += 1;
        }
    }
    report.validation_aborts = sys.stats().validation_aborts;
    report.stats = sys.stats().clone();
    report
}

/// Advance one driver by one step. Returns whether it made progress.
fn step_driver<A, E, C>(
    sys: &mut TxnSystem<A, E, C>,
    d: &mut Driver<A>,
    cfg: &SchedulerCfg,
    report: &mut RunReport,
    round: u64,
) -> bool
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
{
    let txn = match d.txn {
        Some(t) => t,
        None => {
            let t = sys.begin();
            d.txn = Some(t);
            d.began_round = round;
            t
        }
    };
    let (step, fresh) = match d.pending.take() {
        Some(s) => (s, false),
        None => (d.script.next(d.last.as_ref()), true),
    };
    match step {
        Step::Invoke(obj, inv) => match sys.invoke(txn, obj, inv.clone()) {
            Ok(resp) => {
                d.last = Some(resp);
                d.blocked_epoch = None;
                true
            }
            Err(TxnError::Blocked) => {
                if fresh {
                    report.blocked_ops += 1;
                }
                d.pending = Some(Step::Invoke(obj, inv));
                d.blocked_epoch = Some(epoch(sys.stats()));
                false
            }
            Err(TxnError::Aborted(_)) => {
                let jitter = restart_jitter(sys, cfg, txn, d.retries);
                restart(d, cfg, report, sys.stats().committed, jitter);
                true
            }
            Err(e) => panic!("script error: {e}"),
        },
        Step::Commit => {
            // Volatile runs still get a commit-total phase window: here it
            // covers exactly the validate+apply work (no journal below us).
            let total = sys.obs_mut().span_begin(Phase::CommitTotal);
            let outcome = sys.commit(txn);
            sys.obs_mut().span_end(total);
            match outcome {
                Ok(()) => {
                    d.done = true;
                    d.committed = true;
                    true
                }
                Err(TxnError::Aborted(_)) => {
                    let jitter = restart_jitter(sys, cfg, txn, d.retries);
                    restart(d, cfg, report, sys.stats().committed, jitter);
                    true
                }
                Err(e) => panic!("commit error: {e}"),
            }
        }
        Step::Abort => {
            sys.abort(txn).expect("active transaction");
            d.done = true;
            d.voluntary_abort = true;
            true
        }
    }
}

/// With backoff enabled, compute this restart's seeded jitter and record it
/// in the retry-jitter histogram; with backoff off the restart is immediate
/// and nothing is sampled.
fn restart_jitter<A, E, C>(
    sys: &mut TxnSystem<A, E, C>,
    cfg: &SchedulerCfg,
    txn: TxnId,
    retries: usize,
) -> u64
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
{
    if !cfg.backoff {
        return 0;
    }
    let jitter = seeded_jitter(cfg.seed, txn.0 as u64, retries);
    sys.obs_mut().on_retry_jitter(jitter);
    jitter
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

/// Reset a driver after a system abort. The driver sleeps (via
/// `sleep_until_commit`) until some transaction commits, so that a restarted
/// deadlock victim does not immediately re-acquire its locks and get chosen
/// as the victim again — without this, clique-shaped conflicts livelock.
/// It is the wake rule `threaded.rs`'s `restart` states for the worker pool
/// (there "or no transaction is active" is a clause of the wait; here the
/// no-progress arm of [`run`] wakes a sleeper). On top of that it backs off
/// exponentially with the caller's seeded jitter, so repeat offenders
/// retreat further each time.
fn restart<A: Adt>(
    d: &mut Driver<A>,
    cfg: &SchedulerCfg,
    report: &mut RunReport,
    commits_now: u64,
    jitter: u64,
) {
    d.txn = None;
    d.last = None;
    d.pending = None;
    d.blocked_epoch = None;
    d.sleep_until_commit = Some(commits_now);
    d.backoff_rounds = if cfg.backoff { backoff_base(d.retries) + jitter } else { 0 };
    d.retries += 1;
    report.retries += 1;
    d.script.reset();
    if d.retries > cfg.max_retries {
        d.done = true;
    }
}

fn abort_and_restart<A, E, C>(
    sys: &mut TxnSystem<A, E, C>,
    drivers: &mut [Driver<A>],
    victim: TxnId,
    cfg: &SchedulerCfg,
    report: &mut RunReport,
) where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
{
    sys.abort_with(victim, AbortReason::Deadlock).expect("victim is active");
    let commits = sys.stats().committed;
    if let Some(d) = drivers.iter_mut().find(|d| d.txn == Some(victim)) {
        let jitter = restart_jitter(sys, cfg, victim, d.retries);
        restart(d, cfg, report, commits, jitter);
    }
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
        let cfg = SchedulerCfg { deadline: 6, backoff: true, ..Default::default() };
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
            let cfg = SchedulerCfg { seed: 11, deadline: 6, backoff: true, ..Default::default() };
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
            let cfg = SchedulerCfg { seed, deadline: 5, backoff: true, ..Default::default() };
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
