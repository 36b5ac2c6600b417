//! The multi-threaded executor over [`TxnSystem`]: worker threads that step
//! the cooperative executor's `Driver` (`scheduler.rs`) against a
//! mutex-protected `WriteAhead` (the system plus the buffer that turns
//! executed operations into commit records), with or without a log
//! underneath.
//!
//! A worker adds only the schedule: a blocked invocation waits on a condvar
//! signalled whenever a transaction completes (which releases its locks),
//! the youngest worker on a wait-for cycle aborts itself, and an aborted
//! attempt sleeps by the wake rule. Waiting transactions release the system
//! mutex, so the admitted interleavings are those of the conflict relation.
//!
//! The one thing a log adds is where a commit's record goes: [`run_threaded`]
//! drops it, [`run_threaded_durable`] hands it to a `CommitLog` over a
//! [`LogBackend`] with **group commit** — committers stage their record in a
//! shared batch buffer and wait on a commit barrier; one of them becomes the
//! flush leader, drains the whole batch, and makes it durable with a single
//! fsync while the followers hold no lock on the system — the next batch
//! forms behind the in-flight flush. See DESIGN.md §10.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_obs::Phase;
use ccr_store::{CommitRecord, LogBackend, MemBackend};

use crate::engine::RecoveryEngine;
use crate::error::{AbortReason, TxnError};
use crate::scheduler::{Driven, Driver, RunReport, Stepped, Wake};
use crate::script::Script;
use crate::system::TxnSystem;
use crate::writeahead::WriteAhead;

/// Threaded-executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedCfg {
    /// Worker threads.
    pub workers: usize,
    /// Retries per script.
    pub max_retries: usize,
    /// Condvar wait slice (re-checks deadlock after each).
    pub wait_slice: Duration,
    /// Admission control: maximum transactions in flight (0 = unlimited),
    /// the scheduler's [`mpl`](crate::scheduler::SchedulerCfg::mpl) gate.
    /// Workers park on an admission condvar before `begin`; each elapsed
    /// wait slice counts into [`RunReport::admission_rounds`].
    pub mpl: usize,
    /// Per-transaction wall-clock deadline (`ZERO` = none), the scheduler's
    /// [`deadline`](crate::scheduler::SchedulerCfg::deadline) in wall time:
    /// checked on every wakeup from a blocked wait, the only place a
    /// threaded transaction can stall.
    pub deadline: Duration,
}

impl Default for ThreadedCfg {
    fn default() -> Self {
        ThreadedCfg {
            workers: 4,
            max_retries: 64,
            wait_slice: Duration::from_millis(5),
            mpl: 0,
            deadline: Duration::ZERO,
        }
    }
}

impl<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> Driven<A> for WriteAhead<A, E, C> {
    type Engine = E;
    type Conflict = C;
    fn txns(&mut self) -> &mut TxnSystem<A, E, C> {
        &mut self.sys
    }
    fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        WriteAhead::invoke(self, txn, obj, inv)
    }
    fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        WriteAhead::abort(self, txn)
    }
}

/// A held system mutex.
type Vol<'s, A, E, C> = MutexGuard<'s, WriteAhead<A, E, C>>;

struct Shared<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> {
    cfg: ThreadedCfg,
    /// The system mutex: the transaction system plus the write-ahead buffer
    /// a commit takes its record from.
    vol: Mutex<WriteAhead<A, E, C>>,
    queue: Mutex<VecDeque<Box<dyn Script<A>>>>,
    /// Signalled on every completion (paired with `vol`): blocked
    /// invocations and restarted scripts wait on it.
    completed: Condvar,
    /// Transactions currently holding an admission slot (live, or — with a
    /// log attached — committed but still riding the commit barrier, so WAL
    /// lag exerts backpressure on admission).
    in_flight: Mutex<usize>,
    /// Signalled when an admission slot frees up (paired with `in_flight`).
    admitted: Condvar,
}

/// Run `scripts` over `sys` with `cfg.workers` threads; returns the report
/// and the system (for trace/state inspection).
pub fn run_threaded<A, E, C>(
    sys: TxnSystem<A, E, C>,
    scripts: Vec<Box<dyn Script<A>>>,
    cfg: &ThreadedCfg,
) -> (RunReport, TxnSystem<A, E, C>)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
{
    // No log: the backend type only names the `None`.
    run(sys, scripts, cfg, None::<&CommitLog<A, MemBackend<A>>>)
}

/// The executor proper: drain `scripts` with `cfg.workers` threads, handing
/// every commit record to `log` if there is one. Each worker counts into its
/// own report; they are summed once every worker is done.
fn run<A, E, C, B>(
    sys: TxnSystem<A, E, C>,
    scripts: Vec<Box<dyn Script<A>>>,
    cfg: &ThreadedCfg,
    log: Option<&CommitLog<A, B>>,
) -> (RunReport, TxnSystem<A, E, C>)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
    B: LogBackend<A>,
{
    let shared = Shared {
        cfg: *cfg,
        vol: Mutex::new(WriteAhead::new(sys, 0)),
        queue: Mutex::new(VecDeque::from(scripts)),
        completed: Condvar::new(),
        in_flight: Mutex::new(0),
        admitted: Condvar::new(),
    };
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..cfg.workers.max(1)).map(|_| scope.spawn(|| shared.worker(log))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut report = RunReport::default();
    for r in reports {
        report.committed += r.committed;
        report.voluntary_aborts += r.voluntary_aborts;
        report.gave_up += r.gave_up;
        report.deadlock_aborts += r.deadlock_aborts;
        report.retries += r.retries;
        report.admission_rounds += r.admission_rounds;
        report.blocked_ops += r.blocked_ops;
        report.rounds += r.rounds;
        report.wait_rounds += r.wait_rounds;
    }
    let sys = shared.vol.into_inner().sys;
    let stats = sys.stats();
    (RunReport { validation_aborts: stats.validation_aborts, stats: stats.clone(), ..report }, sys)
}

impl<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> Shared<A, E, C> {
    /// One worker: pop a script and step its driver under the system mutex
    /// until the script is over, then the next. An attempt begins as soon as
    /// it is admitted, so the wake rule's "some transaction is active" counts
    /// it; `script.next` runs with no lock held.
    fn worker<B: LogBackend<A>>(&self, log: Option<&CommitLog<A, B>>) -> RunReport {
        let mut report = RunReport::default();
        loop {
            let Some(script) = self.queue.lock().pop_front() else { return report };
            let mut d = Driver::new(script);
            let mut began = Instant::now();
            while !d.done {
                if d.txn.is_none() {
                    self.admit(&mut report);
                    began = Instant::now();
                    d.begin(&mut *self.vol.lock());
                }
                d.draw();
                let entered = Instant::now();
                let mut vol = self.vol.lock();
                let aborted = loop {
                    match d.step(&mut *vol, &mut report) {
                        Stepped::Progressed => {
                            if d.done {
                                // A voluntary abort released its locks.
                                self.completed.notify_all();
                                self.release();
                            }
                            break None;
                        }
                        Stepped::Blocked => {
                            // Deadlock check: self-abort if this txn is the
                            // youngest on a cycle it belongs to.
                            let txn = d.txn.expect("a blocked driver holds a transaction");
                            if let Some(cycle) = vol.sys.find_deadlock(txn) {
                                if cycle.iter().max() == Some(&txn) {
                                    vol.sys.abort_with(txn, AbortReason::Deadlock).expect("active");
                                    report.deadlock_aborts += 1;
                                    break Some(vol);
                                }
                                // Another worker owns the victim: wake every
                                // waiter so the victim re-checks the cycle
                                // *now* instead of sleeping out its slice.
                                self.completed.notify_all();
                            }
                            self.completed.wait_for(&mut vol, self.cfg.wait_slice);
                            let deadline = self.cfg.deadline;
                            if !deadline.is_zero()
                                && began.elapsed() > deadline
                                && d.expire(&mut *vol)
                            {
                                break Some(vol);
                            }
                        }
                        Stepped::Commit(txn) => match vol.commit(txn) {
                            // The admission slot is held until the record is
                            // durable: commit-barrier lag (a stalling WAL
                            // device) backpressures admission under MPL.
                            Ok(rec) => {
                                match log {
                                    Some(log) => {
                                        make_durable(log, &self.completed, rec, entered, vol)
                                    }
                                    None => {
                                        drop(vol);
                                        self.completed.notify_all();
                                    }
                                }
                                self.release();
                                d.acknowledged();
                                break None;
                            }
                            Err(TxnError::Aborted(_)) => break Some(vol),
                            Err(e) => panic!("commit error: {e}"),
                        },
                        Stepped::Aborted => break Some(vol),
                        Stepped::Refused(e) => panic!("script error: {e}"),
                    }
                };
                if let Some(vol) = aborted {
                    self.sleep_after_abort(vol, &mut d, &mut report);
                }
            }
            d.tally(&mut report);
        }
    }

    /// Every system abort ends here, under `vol`, the guard it happened
    /// under. In order: discard the write-ahead buffer; notify `completed`;
    /// release the admission slot, so no sleeper holds it; charge the retry
    /// budget ([`Driver::restart`]); then the **wake rule** — wait on
    /// `completed` while the driver is asleep ([`Wake::AfterCommit`]) and
    /// some transaction is active, re-checked under that guard so no wake-up
    /// is lost (DESIGN.md §10).
    fn sleep_after_abort(
        &self,
        mut vol: Vol<'_, A, E, C>,
        d: &mut Driver<A>,
        report: &mut RunReport,
    ) {
        vol.discard(d.txn.expect("a victim holds a transaction"));
        self.completed.notify_all();
        self.release();
        if d.restart(&mut *vol, report, Wake::AfterCommit, self.cfg.max_retries) {
            while d.asleep(vol.sys.stats().committed) && vol.sys.active().next().is_some() {
                report.wait_rounds += 1;
                self.completed.wait_for(&mut vol, self.cfg.wait_slice);
            }
        }
    }

    /// Claim an admission slot for one more attempt (counted in `rounds`):
    /// with `mpl > 0`, park until fewer than `mpl` transactions are in
    /// flight, counting each elapsed wait slice into `admission_rounds`.
    fn admit(&self, report: &mut RunReport) {
        let mut in_flight = self.in_flight.lock();
        while self.cfg.mpl > 0 && *in_flight >= self.cfg.mpl {
            report.admission_rounds += 1;
            self.admitted.wait_for(&mut in_flight, self.cfg.wait_slice);
        }
        *in_flight += 1;
        report.rounds += 1;
    }

    /// Release an admission slot (the transaction committed or aborted) and
    /// wake one parked admitter.
    fn release(&self) {
        *self.in_flight.lock() -= 1;
        self.admitted.notify_one();
    }
}

/// Durability discipline for [`run_threaded_durable`].
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitCfg {
    /// Batch commit records and flush each batch with **one** fsync via a
    /// leader thread; `false` is the per-commit-fsync baseline the bench
    /// compares against.
    pub group_commit: bool,
    /// Simulated device flush time, charged while the backend lock is held.
    /// A nonzero delay is what makes batches form under load: committers
    /// arriving during the in-flight flush stage behind it and share the
    /// next fsync.
    pub flush_delay: Duration,
}

impl Default for GroupCommitCfg {
    fn default() -> Self {
        GroupCommitCfg { group_commit: true, flush_delay: Duration::ZERO }
    }
}

/// Result of a durable threaded run: the report, the system (trace/state
/// inspection), the backend (its durable image can be recovered from), and
/// the measured durability figures.
pub struct DurableRun<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>, B> {
    /// Scheduler-shaped run report (see [`RunReport`] field semantics).
    pub report: RunReport,
    /// The volatile system, with one `group_flush` trace event replayed per
    /// fsync (batch size and flush latency feed the tracer's histograms).
    pub sys: TxnSystem<A, E, C>,
    /// The log backend holding every acknowledged commit record durably.
    pub backend: B,
    /// Fsyncs issued (group mode: one per batch; baseline: one per commit).
    pub fsyncs: u64,
    /// Per-commit latency in wall microseconds from commit entry to
    /// durability acknowledgement, sorted ascending.
    pub commit_latencies_us: Vec<u64>,
}

/// Commit-barrier state: staged records, the durable watermark the barrier
/// waits on, and the measured flush figures.
struct Stage<A: Adt> {
    /// Records staged for the next group flush, in commit order.
    staged: Vec<CommitRecord<A>>,
    /// Total records ever staged; a committer's record is durable once
    /// `durable` reaches the value this held when it staged.
    seq: u64,
    /// Total records flushed durably.
    durable: u64,
    /// A leader is currently flushing (at most one at a time, so batches
    /// reach the log in staging order).
    leader: bool,
    /// `(batch_len, micros)` per fsync, replayed into the tracer post-join.
    flushes: Vec<(u64, u64)>,
    /// Commit-entry→durability latency per acknowledged commit (unsorted;
    /// workers push on acknowledgement).
    latencies_us: Vec<u64>,
    /// Wall nanoseconds each follower spent parked on the commit barrier
    /// (one sample per committer that had to wait), replayed into the
    /// tracer's `BarrierWait` phase post-join.
    barrier_ns: Vec<u64>,
}

/// What a durable run adds to the executor: the commit barrier and the log
/// device behind it.
struct CommitLog<A: Adt, B> {
    stage: Mutex<Stage<A>>,
    /// Signalled by the flush leader when a batch becomes durable.
    durable: Condvar,
    /// The log device. Held across `append`+`flush_delay` so fsyncs
    /// serialise; never acquired while holding the system mutex or `stage`
    /// — that is what lets followers (and fresh committers) run while a
    /// flush is in flight.
    backend: Mutex<B>,
    gc: GroupCommitCfg,
}

/// Run `scripts` over `sys` with durable commits journaled to `backend`.
/// With `gc.group_commit` the commit path is: apply the commit in the
/// volatile system, stage the redo record, release the system mutex, and
/// wait on the commit barrier until a flush leader has made the record's
/// batch durable with one fsync. Without it, every committer appends and
/// fsyncs its own record (the baseline).
pub fn run_threaded_durable<A, E, C, B>(
    mut sys: TxnSystem<A, E, C>,
    backend: B,
    scripts: Vec<Box<dyn Script<A>>>,
    cfg: &ThreadedCfg,
    gc: &GroupCommitCfg,
) -> DurableRun<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
    B: LogBackend<A> + Send,
{
    sys.obs_mut().set_label("backend", backend.name());
    let log = CommitLog {
        stage: Mutex::new(Stage {
            staged: Vec::new(),
            seq: 0,
            durable: 0,
            leader: false,
            flushes: Vec::new(),
            latencies_us: Vec::new(),
            barrier_ns: Vec::new(),
        }),
        durable: Condvar::new(),
        backend: Mutex::new(backend),
        gc: *gc,
    };
    let (report, mut sys) = run(sys, scripts, cfg, Some(&log));
    let stage = log.stage.into_inner();
    // Replay the flush log into the tracer: one group_flush event per fsync
    // feeds the batch-size and flush-latency histograms, and one `Fsync`
    // phase sample per fsync feeds the per-phase profile. Barrier-park and
    // commit-entry→durable latencies become `BarrierWait` / `CommitTotal`
    // samples (wall stamps survive only when the caller armed the tracer's
    // wall epoch, so deterministic runs stay byte-identical).
    for &(batch, micros) in &stage.flushes {
        sys.obs_mut().on_group_flush(batch, micros);
        sys.obs_mut().on_phase(Phase::Fsync, batch, micros * 1_000);
    }
    for &ns in &stage.barrier_ns {
        sys.obs_mut().on_phase(Phase::BarrierWait, 1, ns);
    }
    for &us in &stage.latencies_us {
        sys.obs_mut().on_phase(Phase::CommitTotal, 1, us * 1_000);
    }
    let mut latencies = stage.latencies_us;
    latencies.sort_unstable();
    DurableRun {
        report,
        sys,
        backend: log.backend.into_inner(),
        fsyncs: stage.flushes.len() as u64,
        commit_latencies_us: latencies,
    }
}

/// Make one committed transaction's record durable. `rec` was built under
/// the `vol` guard, which is handed in still held: the append (baseline) or
/// staging (group) slot is claimed **before** the system mutex is released,
/// so the log's record order always equals the volatile commit order — and
/// only then is `vol` dropped, letting other workers run during the flush.
fn make_durable<A, E, C, B>(
    log: &CommitLog<A, B>,
    completed: &Condvar,
    rec: CommitRecord<A>,
    entered: Instant,
    vol: Vol<'_, A, E, C>,
) where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    // Stage the record, then hold the barrier until a flush leader has made
    // it durable. Whoever finds work staged and no leader in flight leads;
    // everyone else parks holding no lock but the stage's. The leader drains
    // the staged batch in chunks of `k` records, one fsync each: all of it
    // with group commit, one record in the per-commit baseline (which thus
    // acknowledges each committer as soon as *its* record is durable).
    let mut stage = log.stage.lock();
    drop(vol);
    completed.notify_all();
    stage.staged.push(rec);
    stage.seq += 1;
    let my_seq = stage.seq;
    let mut waited_ns = 0u64;
    while stage.durable < my_seq {
        if !stage.leader && !stage.staged.is_empty() {
            stage.leader = true;
            let batch = std::mem::take(&mut stage.staged);
            let k = if log.gc.group_commit { batch.len() } else { 1 };
            for chunk in batch.chunks(k) {
                drop(stage);
                let micros = {
                    let mut backend = log.backend.lock();
                    let t0 = Instant::now();
                    backend
                        .append_commits(chunk)
                        .expect("threaded harness runs on a healthy device");
                    if !log.gc.flush_delay.is_zero() {
                        std::thread::sleep(log.gc.flush_delay);
                    }
                    t0.elapsed().as_micros() as u64
                };
                stage = log.stage.lock();
                stage.durable += chunk.len() as u64;
                stage.flushes.push((chunk.len() as u64, micros));
                log.durable.notify_all();
            }
            stage.leader = false;
        } else {
            let parked = Instant::now();
            log.durable.wait(&mut stage);
            waited_ns += parked.elapsed().as_nanos() as u64;
        }
    }
    if waited_ns > 0 {
        stage.barrier_ns.push(waited_ns);
    }
    let latency = entered.elapsed().as_micros() as u64;
    stage.latencies_us.push(latency);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{DurableSystem, TornPolicy};
    use crate::engine::{DuEngine, UipEngine};
    use crate::script::{OpsScript, Step};
    use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
    use ccr_core::atomicity::{check_dynamic_atomic, SystemSpec};
    use ccr_core::conflict::FnConflict;
    use ccr_core::ids::ObjectId;
    use ccr_obs::EventKind;
    use ccr_store::{WalBackend, WalConfig};
    use std::sync::{Arc, Barrier};

    include!("../../../tests/common/rendezvous.rs");

    const X: ObjectId = ObjectId::SOLE;
    const Y: ObjectId = ObjectId(1);

    type Bank = FnConflict<BankAccount>;
    type Uip = TxnSystem<BankAccount, UipEngine<BankAccount>, Bank>;

    fn uip(objects: u32) -> Uip {
        TxnSystem::new(BankAccount::default(), objects, bank_nrbc())
    }

    /// The hot spot: every script deposits 2 and withdraws 1 on `X`.
    fn scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
        (0..n)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    /// The crosswise clique: balance-then-deposit over `X` and `Y`, half the
    /// scripts in each order (the deadlock pattern from the system tests).
    fn crosswise(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
        (0..n)
            .map(|i| {
                let (first, second) = if i % 2 == 0 { (X, Y) } else { (Y, X) };
                Box::new(OpsScript::new(vec![
                    (first, BankInv::Balance),
                    (second, BankInv::Deposit(1)),
                ])) as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    /// A fresh system recovered, strictly, from what `backend` holds durably.
    fn recovered(
        backend: WalBackend<BankAccount>,
        objects: u32,
    ) -> DurableSystem<BankAccount, UipEngine<BankAccount>, Bank, WalBackend<BankAccount>> {
        let mut rec =
            DurableSystem::with_backend(BankAccount::default(), objects, bank_nrbc(), backend);
        rec.crash_and_recover_with(TornPolicy::Strict).unwrap();
        rec
    }

    #[test]
    fn threaded_uip_commits_everything() {
        let (report, mut sys) = run_threaded(uip(1), scripts(16), &ThreadedCfg::default());
        assert_eq!(report.committed, 16);
        assert_eq!(sys.committed_state(X), 16);
        let spec = SystemSpec::single(BankAccount::default());
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }

    #[test]
    fn threaded_du_commits_everything() {
        let sys: TxnSystem<BankAccount, DuEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nfc());
        let (report, mut sys) = run_threaded(sys, scripts(16), &ThreadedCfg::default());
        assert_eq!(report.committed, 16);
        assert_eq!(sys.committed_state(X), 16);
    }

    #[test]
    fn attempt_accounting_identity_holds() {
        // Shared RunReport semantics: every transaction attempt ends in a
        // commit, a voluntary abort, or a retry — so `rounds` (attempts)
        // must equal their sum. With no MPL configured, admission never
        // parks anyone.
        let (report, _) = run_threaded(uip(1), scripts(16), &ThreadedCfg::default());
        assert_eq!(
            report.rounds,
            report.committed + report.voluntary_aborts + report.retries,
            "attempt identity: {report:?}"
        );
        assert!(report.rounds >= 16, "at least one attempt per script");
        assert_eq!(report.admission_rounds, 0);
    }

    #[test]
    fn a_restarted_victim_waits_for_a_commit() {
        // ROADMAP item 6's reproducer: 2 048 scripts of the crosswise clique
        // and of the hot spot, four workers, the default 64-retry budget.
        // Without the wake rule (`sleep_after_abort`) a deadlock victim
        // re-takes the unfair mutex before the survivor it woke is scheduled,
        // rebuilds the cycle and exhausts its budget (`gave_up > 0`,
        // thousands of deadlock aborts); with it every script commits. The small tests
        // above cannot show this — their 16 scripts finish before a second
        // worker is scheduled.
        const N: u64 = 2048;
        let cfg = ThreadedCfg::default();
        let check = |arm: &str, report: &RunReport| {
            assert_eq!(report.gave_up, 0, "{arm}: a victim burnt its budget: {report:?}");
            assert_eq!(report.committed, N, "{arm}: {report:?}");
            assert!(report.deadlock_aborts < N, "{arm}: victims rebuilt their cycles: {report:?}");
        };

        let (report, mut sys) = run_threaded(uip(2), crosswise(N as usize), &cfg);
        check("clique", &report);
        assert_eq!((sys.committed_state(X), sys.committed_state(Y)), (N / 2, N / 2));

        let (report, mut sys) = run_threaded(uip(1), scripts(N as usize), &cfg);
        check("hot spot", &report);
        assert_eq!(sys.committed_state(X), N);

        let wal = || WalBackend::new(WalConfig::default());
        let gc = GroupCommitCfg::default();
        let run = run_threaded_durable(uip(2), wal(), crosswise(N as usize), &cfg, &gc);
        check("durable clique", &run.report);
        let mut rec = recovered(run.backend, 2);
        assert_eq!(rec.journal().len() as u64, N);
        assert_eq!((rec.committed_state(X), rec.committed_state(Y)), (N / 2, N / 2));

        let run = run_threaded_durable(uip(1), wal(), scripts(N as usize), &cfg, &gc);
        check("durable hot spot", &run.report);
        let mut rec = recovered(run.backend, 1);
        assert_eq!(rec.journal().len() as u64, N);
        assert_eq!(rec.committed_state(X), N);
    }

    #[test]
    fn mpl_serialises_the_crosswise_clique_without_deadlocks() {
        // The same admission gate the scheduler has: with MPL 1 the
        // crosswise deadlock clique serialises — no blocks, no deadlock
        // aborts — and the parked workers' wait slices show up in
        // `admission_rounds` instead of a hardcoded zero.
        //
        // Someone must be parked for that: the first slot-holder leaves its
        // rendezvous four admission slices in, by when every other worker
        // has started and found the single slot taken.
        let cfg = ThreadedCfg { workers: 4, mpl: 1, ..Default::default() };
        let gate = Arc::new(Barrier::new(2));
        let scripts = meeting_first(crosswise(64), 1, 1, &gate);
        let (report, mut sys) =
            opened_after(&gate, 4 * cfg.wait_slice, || run_threaded(uip(2), scripts, &cfg));
        assert_eq!(report.committed, 64);
        assert_eq!(report.blocked_ops, 0);
        assert_eq!(report.deadlock_aborts, 0);
        assert!(report.admission_rounds > 0, "parked workers must be tallied: {report:?}");
        assert_eq!(sys.committed_state(X) + sys.committed_state(Y), 64);
    }

    #[test]
    fn deadlines_type_the_abort_and_the_clique_still_drains() {
        // A deadline of one nanosecond turns every blocked wait into a
        // typed Deadline self-abort on wakeup; the wake rule alone paces the
        // retries, and the crosswise clique still fully commits without a
        // single hung transaction. The first four scripts (one per worker)
        // meet once each holds its balance lock, so all four block on their
        // deposit and waits actually happen.
        let n = 64;
        let gate = Arc::new(Barrier::new(4));
        let cfg = ThreadedCfg {
            workers: 4,
            max_retries: 10_000,
            wait_slice: Duration::from_micros(200),
            deadline: Duration::from_nanos(1),
            ..Default::default()
        };
        let (report, mut sys) =
            run_threaded(uip(2), meeting_first(crosswise(n), 4, 1, &gate), &cfg);
        assert_eq!(report.committed, n as u64);
        assert_eq!(report.gave_up, 0);
        assert!(
            report.stats.deadline_aborts > 0,
            "blocked waits must become typed deadline aborts: {report:?}"
        );
        assert_eq!(sys.committed_state(X) + sys.committed_state(Y), n as u64);
    }

    #[test]
    fn deadlock_victims_are_woken_not_slept_out() {
        // Regression: when a worker detects a deadlock whose victim belongs
        // to another worker, it must notify the condvar so the victim
        // re-checks the cycle immediately. Before the fix the victim slept
        // out its full wait slice — with a 5-second slice, any reliance on
        // the timeout makes this run take multiple seconds.
        let cfg =
            ThreadedCfg { workers: 4, wait_slice: Duration::from_secs(5), ..Default::default() };
        let t0 = Instant::now();
        let (report, _sys) = run_threaded(uip(2), crosswise(16), &cfg);
        let elapsed = t0.elapsed();
        assert_eq!(report.committed + report.gave_up, 16);
        assert_eq!(report.gave_up, 0);
        assert!(
            elapsed < Duration::from_millis(2500),
            "victims must be woken immediately, not after the wait slice: {elapsed:?}"
        );
    }

    #[test]
    fn cross_object_deadlocks_resolve() {
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let (report, mut sys) = run_threaded(uip(2), crosswise(8), &cfg);
        assert_eq!(report.committed + report.gave_up, 8);
        assert_eq!(report.gave_up, 0, "retries must eventually succeed");
        let spec = SystemSpec::uniform(BankAccount::default(), 2);
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
        let _ = sys.committed_state(X);
    }

    fn spread_scripts(n: u32, objects: u32) -> Vec<Box<dyn Script<BankAccount>>> {
        (0..n)
            .map(|i| {
                Box::new(OpsScript::on(ObjectId(i % objects), vec![BankInv::Deposit(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    #[test]
    fn durable_group_commit_amortises_fsyncs_and_recovers() {
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_micros(500) };
        let run = run_threaded_durable(
            uip(8),
            WalBackend::new(WalConfig::default()),
            spread_scripts(32, 8),
            &cfg,
            &gc,
        );
        assert_eq!(run.report.committed, 32);
        assert_eq!(run.commit_latencies_us.len(), 32);
        assert!(run.fsyncs < 32, "batches must amortise fsyncs: {} for 32 commits", run.fsyncs);
        // The replayed group_flush events cover every commit exactly once.
        let flushed: u64 = run
            .sys
            .obs()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::GroupFlush { batch, .. } => Some(batch),
                _ => None,
            })
            .sum();
        assert_eq!(flushed, 32);
        // Every acknowledged commit is durable: a fresh system recovering
        // from the backend's stable image replays all 32 records strictly.
        let mut rec = recovered(run.backend, 8);
        assert_eq!(rec.journal().len(), 32);
        for i in 0..8 {
            assert_eq!(rec.committed_state(ObjectId(i)), 4);
        }
    }

    #[test]
    fn durable_baseline_pays_one_fsync_per_commit() {
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: false, flush_delay: Duration::ZERO };
        let run = run_threaded_durable(
            uip(8),
            WalBackend::new(WalConfig::default()),
            spread_scripts(16, 8),
            &cfg,
            &gc,
        );
        assert_eq!(run.report.committed, 16);
        assert_eq!(run.fsyncs, 16, "baseline: one fsync per commit");
        assert_eq!(
            run.report.rounds,
            run.report.committed + run.report.voluntary_aborts + run.report.retries,
            "attempt identity holds for the durable executor too"
        );
    }

    #[test]
    fn durable_mpl_holds_slots_through_the_commit_barrier() {
        // MPL on the durable executor: a committer keeps its admission slot
        // until its record is durable, so a slow flush device throttles
        // admission instead of letting transactions pile up behind the WAL.
        let cfg = ThreadedCfg { workers: 4, mpl: 1, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_micros(500) };
        let run = run_threaded_durable(
            uip(8),
            WalBackend::new(WalConfig::default()),
            spread_scripts(16, 8),
            &cfg,
            &gc,
        );
        assert_eq!(run.report.committed, 16);
        assert!(run.report.admission_rounds > 0, "slow flushes must park admitters");
        assert_eq!(recovered(run.backend, 8).journal().len(), 16);
    }

    #[test]
    fn durable_group_commit_handles_contention_and_deadlocks() {
        // The contended crosswise pattern under the durable executor with
        // group commit: every script must still commit, and the journal must
        // replay to the same state.
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_micros(200) };
        let run = run_threaded_durable(
            uip(2),
            WalBackend::new(WalConfig::default()),
            crosswise(8),
            &cfg,
            &gc,
        );
        assert_eq!(run.report.committed, 8);
        let mut rec = recovered(run.backend, 2);
        assert_eq!(rec.journal().len(), 8);
        assert_eq!(rec.committed_state(X) + rec.committed_state(Y), 8);
    }
}
