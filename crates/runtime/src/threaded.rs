//! A multi-threaded executor over [`TxnSystem`].
//!
//! Worker threads pull scripts from a shared queue and drive them against a
//! mutex-protected system. Blocked invocations wait on a condvar that is
//! signalled whenever any transaction completes (completion is what releases
//! implicit locks). Deadlocks are detected while holding the manager lock:
//! a blocked worker checks the wait-for graph and, if its own transaction is
//! the youngest on a cycle, self-aborts and retries.
//!
//! The manager lock serialises bookkeeping, not transactions: waiting
//! transactions release the lock, so the admitted interleavings are those of
//! the conflict relation, which is what the experiments measure.
//!
//! [`run_threaded_durable`] adds write-ahead journaling through a
//! [`LogBackend`] with **group commit**: committers stage their record in a
//! shared batch buffer and wait on a commit barrier; one of them becomes the
//! flush leader, drains the whole batch, and makes it durable with a single
//! fsync while the followers hold no lock on the system — the next batch
//! forms behind the in-flight flush. See DESIGN.md §10.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_core::ids::TxnId;
use ccr_obs::Phase;
use ccr_store::{CommitRecord, LogBackend};

use crate::engine::RecoveryEngine;
use crate::error::{AbortReason, TxnError};
use crate::scheduler::RunReport;
use crate::script::{Script, Step};
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
    /// Stamp tracer events with wall-clock microseconds in addition to the
    /// logical clock. Off by default: wall stamps are nondeterministic by
    /// nature and exist only for human-read threaded profiles.
    pub wall_clock: bool,
    /// Admission control: maximum transactions in flight (0 = unlimited),
    /// the same gate [`SchedulerCfg::mpl`] applies in the round-robin
    /// scheduler. Workers park on an admission condvar before `begin`;
    /// each elapsed wait slice counts into [`RunReport::admission_rounds`].
    ///
    /// [`SchedulerCfg::mpl`]: crate::scheduler::SchedulerCfg::mpl
    pub mpl: usize,
    /// Per-transaction wall-clock deadline (`ZERO` = none): a transaction
    /// still blocked past this budget self-aborts with
    /// [`AbortReason::Deadline`] and its script retries against the retry
    /// budget — the threaded analogue of [`SchedulerCfg::deadline`]'s round
    /// budget. Checked on every wakeup from a blocked wait, which is the
    /// only place a threaded transaction can stall.
    ///
    /// [`SchedulerCfg::deadline`]: crate::scheduler::SchedulerCfg::deadline
    pub deadline: Duration,
    /// Exponential post-restart backoff with seeded jitter, the threaded
    /// analogue of [`SchedulerCfg::backoff`]: a restarted script sleeps
    /// `2^min(retries,5) + jitter` tenths of a wait slice before its next
    /// attempt, decorrelating the wakeups of a conflict clique.
    ///
    /// [`SchedulerCfg::backoff`]: crate::scheduler::SchedulerCfg::backoff
    pub backoff: bool,
}

impl Default for ThreadedCfg {
    fn default() -> Self {
        ThreadedCfg {
            workers: 4,
            max_retries: 64,
            wait_slice: Duration::from_millis(5),
            wall_clock: false,
            mpl: 0,
            deadline: Duration::ZERO,
            backoff: false,
        }
    }
}

struct Shared<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> {
    sys: Mutex<TxnSystem<A, E, C>>,
    queue: Mutex<VecDeque<Box<dyn Script<A>>>>,
    completed: Condvar,
    tallies: Mutex<Tallies>,
    /// Signalled when an admission slot frees up (paired with `tallies`).
    admitted: Condvar,
}

#[derive(Default)]
struct Tallies {
    committed: u64,
    voluntary_aborts: u64,
    gave_up: u64,
    deadlock_aborts: u64,
    retries: u64,
    blocked_ops: u64,
    /// Transaction attempts (each `begin` of a script attempt) — the
    /// threaded meaning of [`RunReport::rounds`].
    rounds: u64,
    /// Condvar wait slices elapsed while blocked — the threaded meaning of
    /// [`RunReport::wait_rounds`].
    wait_rounds: u64,
    /// Admission wait slices elapsed while parked for an MPL slot — the
    /// threaded meaning of [`RunReport::admission_rounds`].
    admission_rounds: u64,
    /// Transactions currently holding an admission slot (live, or — on the
    /// durable executor — committed but still riding the commit barrier, so
    /// WAL lag exerts backpressure on admission).
    in_flight: u64,
}

/// Claim an admission slot: with `cfg.mpl > 0`, park until fewer than `mpl`
/// transactions are in flight, tallying each elapsed wait slice into
/// `admission_rounds`. With `mpl == 0` admission is unbounded and this only
/// tracks the in-flight count.
fn admit(tallies: &Mutex<Tallies>, admitted: &Condvar, cfg: &ThreadedCfg) {
    let mut t = tallies.lock();
    while cfg.mpl > 0 && t.in_flight as usize >= cfg.mpl {
        t.admission_rounds += 1;
        admitted.wait_for(&mut t, cfg.wait_slice);
    }
    t.in_flight += 1;
}

/// Release an admission slot (the transaction committed or aborted) and
/// wake one parked admitter.
fn release(tallies: &Mutex<Tallies>, admitted: &Condvar) {
    tallies.lock().in_flight -= 1;
    admitted.notify_one();
}

/// With backoff enabled, sleep out this restart's exponential backoff
/// (same schedule as the scheduler's, scaled to tenths of a wait slice so
/// even a budget-capped backoff stays in the low milliseconds) after
/// reporting the drawn jitter to `observe` for the retry-jitter histogram.
fn pause_for_backoff(cfg: &ThreadedCfg, txn: TxnId, retries: usize, observe: impl FnOnce(u64)) {
    if !cfg.backoff {
        return;
    }
    let jitter = crate::scheduler::seeded_jitter(0, txn.0 as u64, retries);
    observe(jitter);
    let units = crate::scheduler::backoff_base(retries) + jitter;
    std::thread::sleep(cfg.wait_slice / 10 * units as u32);
}

/// Run `scripts` over `sys` with `cfg.workers` threads; returns the report
/// and the system (for trace/state inspection).
pub fn run_threaded<A, E, C>(
    mut sys: TxnSystem<A, E, C>,
    scripts: Vec<Box<dyn Script<A>>>,
    cfg: &ThreadedCfg,
) -> (RunReport, TxnSystem<A, E, C>)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
{
    if cfg.wall_clock {
        sys.obs_mut().enable_wall_clock();
    }
    let shared = Arc::new(Shared {
        sys: Mutex::new(sys),
        queue: Mutex::new(scripts.into_iter().collect::<VecDeque<_>>()),
        completed: Condvar::new(),
        tallies: Mutex::new(Tallies::default()),
        admitted: Condvar::new(),
    });

    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let cfg = *cfg;
            scope.spawn(move || worker(&shared, &cfg));
        }
    });

    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("workers joined"));
    let sys = shared.sys.into_inner();
    let t = shared.tallies.into_inner();
    let report = report_from(&t, &sys);
    (report, sys)
}

/// Assemble a [`RunReport`] from worker tallies under the shared field
/// semantics documented on [`RunReport`]: `rounds` counts transaction
/// attempts, `wait_rounds` counts elapsed lock-wait slices, and
/// `admission_rounds` counts elapsed admission-wait slices (zero when
/// [`ThreadedCfg::mpl`] is unlimited).
fn report_from<A, E, C>(t: &Tallies, sys: &TxnSystem<A, E, C>) -> RunReport
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
{
    RunReport {
        committed: t.committed,
        voluntary_aborts: t.voluntary_aborts,
        gave_up: t.gave_up,
        deadlock_aborts: t.deadlock_aborts,
        validation_aborts: sys.stats().validation_aborts,
        retries: t.retries,
        admission_rounds: t.admission_rounds,
        blocked_ops: t.blocked_ops,
        rounds: t.rounds,
        wait_rounds: t.wait_rounds,
        stats: sys.stats().clone(),
    }
}

fn worker<A, E, C>(shared: &Shared<A, E, C>, cfg: &ThreadedCfg)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
{
    loop {
        let script = {
            let mut q = shared.queue.lock();
            match q.pop_front() {
                Some(s) => s,
                None => return,
            }
        };
        drive(shared, cfg, script);
    }
}

fn drive<A, E, C>(shared: &Shared<A, E, C>, cfg: &ThreadedCfg, mut script: Box<dyn Script<A>>)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
{
    let mut retries = 0usize;
    'attempt: loop {
        admit(&shared.tallies, &shared.admitted, cfg);
        shared.tallies.lock().rounds += 1;
        let began = Instant::now();
        script.reset();
        let mut last: Option<A::Response> = None;
        let txn = shared.sys.lock().begin();
        loop {
            let step = script.next(last.as_ref());
            match step {
                Step::Invoke(obj, inv) => {
                    let mut sys = shared.sys.lock();
                    let mut first_attempt = true;
                    loop {
                        match sys.invoke(txn, obj, inv.clone()) {
                            Ok(resp) => {
                                last = Some(resp);
                                break;
                            }
                            Err(TxnError::Blocked { .. }) => {
                                if first_attempt {
                                    shared.tallies.lock().blocked_ops += 1;
                                    first_attempt = false;
                                }
                                // Deadlock check: self-abort if this txn is
                                // the youngest on a cycle it belongs to.
                                if let Some(cycle) = sys.find_deadlock(txn) {
                                    let victim =
                                        cycle.iter().copied().max().expect("non-empty cycle");
                                    if victim == txn {
                                        sys.abort_with(txn, AbortReason::Deadlock).expect("active");
                                        shared.tallies.lock().deadlock_aborts += 1;
                                        shared.completed.notify_all();
                                        drop(sys);
                                        release(&shared.tallies, &shared.admitted);
                                        retries += 1;
                                        shared.tallies.lock().retries += 1;
                                        if retries > cfg.max_retries {
                                            shared.tallies.lock().gave_up += 1;
                                            return;
                                        }
                                        pause_for_backoff(cfg, txn, retries, |j| {
                                            shared.sys.lock().obs_mut().on_retry_jitter(j)
                                        });
                                        continue 'attempt;
                                    }
                                    // Another worker owns the victim: wake
                                    // every waiter so the victim re-checks
                                    // the cycle *now* instead of sleeping
                                    // out its full wait slice.
                                    shared.completed.notify_all();
                                }
                                shared.tallies.lock().wait_rounds += 1;
                                shared.completed.wait_for(&mut sys, cfg.wait_slice);
                                // Deadline: a transaction still blocked past
                                // its wall budget self-aborts with a typed
                                // reason and retries — bounded time on any
                                // lock it cannot get.
                                if !cfg.deadline.is_zero() && began.elapsed() > cfg.deadline {
                                    sys.abort_with(txn, AbortReason::Deadline).expect("active");
                                    shared.completed.notify_all();
                                    drop(sys);
                                    release(&shared.tallies, &shared.admitted);
                                    retries += 1;
                                    shared.tallies.lock().retries += 1;
                                    if retries > cfg.max_retries {
                                        shared.tallies.lock().gave_up += 1;
                                        return;
                                    }
                                    pause_for_backoff(cfg, txn, retries, |j| {
                                        shared.sys.lock().obs_mut().on_retry_jitter(j)
                                    });
                                    continue 'attempt;
                                }
                            }
                            Err(TxnError::Aborted(_)) => {
                                drop(sys);
                                shared.completed.notify_all();
                                release(&shared.tallies, &shared.admitted);
                                retries += 1;
                                shared.tallies.lock().retries += 1;
                                if retries > cfg.max_retries {
                                    shared.tallies.lock().gave_up += 1;
                                    return;
                                }
                                pause_for_backoff(cfg, txn, retries, |j| {
                                    shared.sys.lock().obs_mut().on_retry_jitter(j)
                                });
                                continue 'attempt;
                            }
                            Err(e) => panic!("script error: {e}"),
                        }
                    }
                }
                Step::Commit => {
                    let mut sys = shared.sys.lock();
                    match sys.commit(txn) {
                        Ok(()) => {
                            drop(sys);
                            shared.completed.notify_all();
                            release(&shared.tallies, &shared.admitted);
                            shared.tallies.lock().committed += 1;
                            return;
                        }
                        Err(TxnError::Aborted(_)) => {
                            drop(sys);
                            shared.completed.notify_all();
                            release(&shared.tallies, &shared.admitted);
                            retries += 1;
                            shared.tallies.lock().retries += 1;
                            if retries > cfg.max_retries {
                                shared.tallies.lock().gave_up += 1;
                                return;
                            }
                            pause_for_backoff(cfg, txn, retries, |j| {
                                shared.sys.lock().obs_mut().on_retry_jitter(j)
                            });
                            continue 'attempt;
                        }
                        Err(e) => panic!("commit error: {e}"),
                    }
                }
                Step::Abort => {
                    shared.sys.lock().abort(txn).expect("active");
                    shared.completed.notify_all();
                    release(&shared.tallies, &shared.admitted);
                    shared.tallies.lock().voluntary_aborts += 1;
                    return;
                }
            }
        }
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
pub struct DurableRun<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
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

struct DurableShared<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    /// The volatile half of the durable executor: the transaction system
    /// plus the write-ahead buffer that commit journals.
    vol: Mutex<WriteAhead<A, E, C>>,
    queue: Mutex<VecDeque<Box<dyn Script<A>>>>,
    completed: Condvar,
    tallies: Mutex<Tallies>,
    /// Signalled when an admission slot frees up (paired with `tallies`).
    /// A committer holds its slot until its record is durable, so a lagging
    /// WAL throttles admission.
    admitted: Condvar,
    stage: Mutex<Stage<A>>,
    /// Signalled by the flush leader when a batch becomes durable.
    durable: Condvar,
    /// The log device. Held across `append`+`flush_delay` so fsyncs
    /// serialise; never acquired while holding `vol` or `stage` — that is
    /// what lets followers (and fresh committers) run while a flush is in
    /// flight.
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
    if cfg.wall_clock {
        sys.obs_mut().enable_wall_clock();
    }
    sys.obs_mut().set_label("backend", backend.name());
    let shared = Arc::new(DurableShared {
        vol: Mutex::new(WriteAhead::new(sys, 0)),
        queue: Mutex::new(scripts.into_iter().collect::<VecDeque<_>>()),
        completed: Condvar::new(),
        tallies: Mutex::new(Tallies::default()),
        admitted: Condvar::new(),
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
    });

    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let cfg = *cfg;
            scope.spawn(move || durable_worker(&shared, &cfg));
        }
    });

    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("workers joined"));
    let mut vol = shared.vol.into_inner();
    let t = shared.tallies.into_inner();
    let stage = shared.stage.into_inner();
    // Replay the flush log into the tracer: one group_flush event per fsync
    // feeds the batch-size and flush-latency histograms, and one `Fsync`
    // phase sample per fsync feeds the per-phase profile. Barrier-park and
    // commit-entry→durable latencies become `BarrierWait` / `CommitTotal`
    // samples (wall stamps survive only when `cfg.wall_clock` armed the
    // tracer's wall epoch, so deterministic runs stay byte-identical).
    for &(batch, micros) in &stage.flushes {
        vol.sys.obs_mut().on_group_flush(batch, micros);
        vol.sys.obs_mut().on_phase(Phase::Fsync, batch, micros * 1_000);
    }
    for &ns in &stage.barrier_ns {
        vol.sys.obs_mut().on_phase(Phase::BarrierWait, 1, ns);
    }
    for &us in &stage.latencies_us {
        vol.sys.obs_mut().on_phase(Phase::CommitTotal, 1, us * 1_000);
    }
    let report = report_from(&t, &vol.sys);
    let mut latencies = stage.latencies_us;
    latencies.sort_unstable();
    DurableRun {
        report,
        sys: vol.sys,
        backend: shared.backend.into_inner(),
        fsyncs: stage.flushes.len() as u64,
        commit_latencies_us: latencies,
    }
}

fn durable_worker<A, E, C, B>(shared: &DurableShared<A, E, C, B>, cfg: &ThreadedCfg)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
    B: LogBackend<A> + Send,
{
    loop {
        let script = {
            let mut q = shared.queue.lock();
            match q.pop_front() {
                Some(s) => s,
                None => return,
            }
        };
        drive_durable(shared, cfg, script);
    }
}

/// Make one committed transaction's record durable. `rec` was built under
/// the `vol` guard, which is handed in still held: the append (baseline) or
/// staging (group) slot is claimed **before** the system mutex is released,
/// so the log's record order always equals the volatile commit order — and
/// only then is `vol` dropped, letting other workers run during the flush.
fn make_durable<A, E, C, B>(
    shared: &DurableShared<A, E, C, B>,
    rec: CommitRecord<A>,
    entered: Instant,
    vol: parking_lot::MutexGuard<'_, WriteAhead<A, E, C>>,
) where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    // Stage the record, then hold the barrier until a flush leader has made
    // it durable. Whoever finds work staged and no leader in flight becomes
    // the leader; everyone else parks on the barrier holding no lock but the
    // stage's. The leader drains the whole staged batch either way — with
    // group commit it costs ONE fsync, without it one fsync per record (the
    // per-commit baseline: same ordering discipline, no amortisation).
    let mut stage = shared.stage.lock();
    drop(vol);
    shared.completed.notify_all();
    stage.staged.push(rec);
    stage.seq += 1;
    let my_seq = stage.seq;
    let mut waited_ns = 0u64;
    while stage.durable < my_seq {
        if !stage.leader && !stage.staged.is_empty() {
            stage.leader = true;
            let batch = std::mem::take(&mut stage.staged);
            drop(stage);
            if shared.gc.group_commit {
                let micros = {
                    let mut backend = shared.backend.lock();
                    let t0 = Instant::now();
                    backend
                        .append_commits(&batch)
                        .expect("threaded harness runs on a healthy device");
                    if !shared.gc.flush_delay.is_zero() {
                        std::thread::sleep(shared.gc.flush_delay);
                    }
                    t0.elapsed().as_micros() as u64
                };
                stage = shared.stage.lock();
                stage.durable += batch.len() as u64;
                stage.flushes.push((batch.len() as u64, micros));
            } else {
                // Per-commit baseline: every record pays its own fsync, and
                // each committer is released as soon as *its* record is
                // durable.
                for r in &batch {
                    let micros = {
                        let mut backend = shared.backend.lock();
                        let t0 = Instant::now();
                        backend
                            .append_commit(r)
                            .expect("threaded harness runs on a healthy device");
                        if !shared.gc.flush_delay.is_zero() {
                            std::thread::sleep(shared.gc.flush_delay);
                        }
                        t0.elapsed().as_micros() as u64
                    };
                    let mut s = shared.stage.lock();
                    s.durable += 1;
                    s.flushes.push((1, micros));
                    shared.durable.notify_all();
                }
                stage = shared.stage.lock();
            }
            stage.leader = false;
            shared.durable.notify_all();
        } else {
            let parked = Instant::now();
            shared.durable.wait(&mut stage);
            waited_ns += parked.elapsed().as_nanos() as u64;
        }
    }
    if waited_ns > 0 {
        stage.barrier_ns.push(waited_ns);
    }
    let latency = entered.elapsed().as_micros() as u64;
    stage.latencies_us.push(latency);
}

fn drive_durable<A, E, C, B>(
    shared: &DurableShared<A, E, C, B>,
    cfg: &ThreadedCfg,
    mut script: Box<dyn Script<A>>,
) where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Send + Sync,
    B: LogBackend<A> + Send,
{
    let mut retries = 0usize;
    'attempt: loop {
        admit(&shared.tallies, &shared.admitted, cfg);
        shared.tallies.lock().rounds += 1;
        let began = Instant::now();
        script.reset();
        let mut last: Option<A::Response> = None;
        let txn = shared.vol.lock().sys.begin();
        loop {
            let step = script.next(last.as_ref());
            match step {
                Step::Invoke(obj, inv) => {
                    let mut vol = shared.vol.lock();
                    let mut first_attempt = true;
                    loop {
                        match vol.invoke(txn, obj, inv.clone()) {
                            Ok(resp) => {
                                last = Some(resp);
                                break;
                            }
                            Err(TxnError::Blocked { .. }) => {
                                if first_attempt {
                                    shared.tallies.lock().blocked_ops += 1;
                                    first_attempt = false;
                                }
                                if let Some(cycle) = vol.sys.find_deadlock(txn) {
                                    let victim =
                                        cycle.iter().copied().max().expect("non-empty cycle");
                                    if victim == txn {
                                        vol.sys
                                            .abort_with(txn, AbortReason::Deadlock)
                                            .expect("active");
                                        vol.discard(txn);
                                        shared.tallies.lock().deadlock_aborts += 1;
                                        shared.completed.notify_all();
                                        drop(vol);
                                        release(&shared.tallies, &shared.admitted);
                                        retries += 1;
                                        shared.tallies.lock().retries += 1;
                                        if retries > cfg.max_retries {
                                            shared.tallies.lock().gave_up += 1;
                                            return;
                                        }
                                        pause_for_backoff(cfg, txn, retries, |j| {
                                            shared.vol.lock().sys.obs_mut().on_retry_jitter(j)
                                        });
                                        continue 'attempt;
                                    }
                                    // Another worker owns the victim: wake
                                    // every waiter so it re-checks now.
                                    shared.completed.notify_all();
                                }
                                shared.tallies.lock().wait_rounds += 1;
                                shared.completed.wait_for(&mut vol, cfg.wait_slice);
                                // Deadline: still blocked past the wall
                                // budget — self-abort with a typed reason
                                // and retry.
                                if !cfg.deadline.is_zero() && began.elapsed() > cfg.deadline {
                                    vol.sys.abort_with(txn, AbortReason::Deadline).expect("active");
                                    vol.discard(txn);
                                    shared.completed.notify_all();
                                    drop(vol);
                                    release(&shared.tallies, &shared.admitted);
                                    retries += 1;
                                    shared.tallies.lock().retries += 1;
                                    if retries > cfg.max_retries {
                                        shared.tallies.lock().gave_up += 1;
                                        return;
                                    }
                                    pause_for_backoff(cfg, txn, retries, |j| {
                                        shared.vol.lock().sys.obs_mut().on_retry_jitter(j)
                                    });
                                    continue 'attempt;
                                }
                            }
                            Err(TxnError::Aborted(_)) => {
                                vol.discard(txn);
                                drop(vol);
                                shared.completed.notify_all();
                                release(&shared.tallies, &shared.admitted);
                                retries += 1;
                                shared.tallies.lock().retries += 1;
                                if retries > cfg.max_retries {
                                    shared.tallies.lock().gave_up += 1;
                                    return;
                                }
                                pause_for_backoff(cfg, txn, retries, |j| {
                                    shared.vol.lock().sys.obs_mut().on_retry_jitter(j)
                                });
                                continue 'attempt;
                            }
                            Err(e) => panic!("script error: {e}"),
                        }
                    }
                }
                Step::Commit => {
                    let entered = Instant::now();
                    let mut vol = shared.vol.lock();
                    match vol.commit(txn) {
                        Ok(rec) => {
                            // Wound-wait victims never reach an abort arm
                            // here.
                            vol.prune();
                            // The system mutex is released inside
                            // make_durable (after the log slot is claimed):
                            // other workers invoke and commit while this
                            // record rides the barrier.
                            // The admission slot is held until the record is
                            // durable: commit-barrier lag (a stalling WAL
                            // device) backpressures admission under MPL.
                            make_durable(shared, rec, entered, vol);
                            release(&shared.tallies, &shared.admitted);
                            shared.tallies.lock().committed += 1;
                            return;
                        }
                        Err(TxnError::Aborted(_)) => {
                            vol.discard(txn);
                            drop(vol);
                            shared.completed.notify_all();
                            release(&shared.tallies, &shared.admitted);
                            retries += 1;
                            shared.tallies.lock().retries += 1;
                            if retries > cfg.max_retries {
                                shared.tallies.lock().gave_up += 1;
                                return;
                            }
                            pause_for_backoff(cfg, txn, retries, |j| {
                                shared.vol.lock().sys.obs_mut().on_retry_jitter(j)
                            });
                            continue 'attempt;
                        }
                        Err(e) => panic!("commit error: {e}"),
                    }
                }
                Step::Abort => {
                    let mut vol = shared.vol.lock();
                    vol.abort(txn).expect("active");
                    drop(vol);
                    shared.completed.notify_all();
                    release(&shared.tallies, &shared.admitted);
                    shared.tallies.lock().voluntary_aborts += 1;
                    return;
                }
            }
        }
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

    fn scripts(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
        (0..n)
            .map(|_| {
                Box::new(OpsScript::on(X, vec![BankInv::Deposit(2), BankInv::Withdraw(1)]))
                    as Box<dyn Script<BankAccount>>
            })
            .collect()
    }

    #[test]
    fn threaded_uip_commits_everything() {
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let (report, mut sys) = run_threaded(sys, scripts(16), &ThreadedCfg::default());
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
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let (report, _) = run_threaded(sys, scripts(16), &ThreadedCfg::default());
        assert_eq!(
            report.rounds,
            report.committed + report.voluntary_aborts + report.retries,
            "attempt identity: {report:?}"
        );
        assert!(report.rounds >= 16, "at least one attempt per script");
        assert_eq!(report.admission_rounds, 0);
    }

    #[test]
    fn mpl_serialises_the_crosswise_clique_without_deadlocks() {
        // The same admission gate the scheduler has: with MPL 1 the
        // crosswise deadlock clique serialises — no blocks, no deadlock
        // aborts — and the parked workers' wait slices show up in
        // `admission_rounds` instead of a hardcoded zero.
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        // 2048 scripts so the run comfortably outlasts worker-thread startup
        // and someone is always parked at the single admission slot.
        let mut scripts: Vec<Box<dyn Script<BankAccount>>> = Vec::new();
        for i in 0..2048 {
            let (first, second) = if i % 2 == 0 { (X, y) } else { (y, X) };
            scripts.push(Box::new(OpsScript::new(vec![
                (first, BankInv::Balance),
                (second, BankInv::Deposit(1)),
            ])));
        }
        let cfg = ThreadedCfg { workers: 4, mpl: 1, ..Default::default() };
        let (report, mut sys) = run_threaded(sys, scripts, &cfg);
        assert_eq!(report.committed, 2048);
        assert_eq!(report.blocked_ops, 0);
        assert_eq!(report.deadlock_aborts, 0);
        assert!(report.admission_rounds > 0, "parked workers must be tallied: {report:?}");
        assert_eq!(sys.committed_state(X) + sys.committed_state(y), 2048);
    }

    #[test]
    fn deadlines_type_the_abort_and_the_clique_still_drains() {
        // A deadline of one nanosecond turns every blocked wait into a
        // typed Deadline self-abort on wakeup; jittered backoff decorrelates
        // the retries, and the crosswise clique still fully commits without
        // a single hung transaction. 2048 scripts so the run comfortably
        // outlasts worker-thread startup and waits actually happen.
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        let mut scripts: Vec<Box<dyn Script<BankAccount>>> = Vec::new();
        let n = 2048;
        for i in 0..n {
            let (first, second) = if i % 2 == 0 { (X, y) } else { (y, X) };
            scripts.push(Box::new(OpsScript::new(vec![
                (first, BankInv::Balance),
                (second, BankInv::Deposit(1)),
            ])));
        }
        let cfg = ThreadedCfg {
            workers: 4,
            max_retries: 10_000,
            wait_slice: Duration::from_micros(200),
            deadline: Duration::from_nanos(1),
            backoff: true,
            ..Default::default()
        };
        let (report, mut sys) = run_threaded(sys, scripts, &cfg);
        assert_eq!(report.committed, n as u64);
        assert_eq!(report.gave_up, 0);
        assert!(
            report.stats.deadline_aborts > 0,
            "blocked waits must become typed deadline aborts: {report:?}"
        );
        assert_eq!(sys.committed_state(X) + sys.committed_state(y), n as u64);
    }

    #[test]
    fn deadlock_victims_are_woken_not_slept_out() {
        // Regression: when a worker detects a deadlock whose victim belongs
        // to another worker, it must notify the condvar so the victim
        // re-checks the cycle immediately. Before the fix the victim slept
        // out its full wait slice — with a 5-second slice, any reliance on
        // the timeout makes this run take multiple seconds.
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        let mut scripts: Vec<Box<dyn Script<BankAccount>>> = Vec::new();
        for i in 0..16 {
            let (first, second) = if i % 2 == 0 { (X, y) } else { (y, X) };
            scripts.push(Box::new(OpsScript::new(vec![
                (first, BankInv::Balance),
                (second, BankInv::Deposit(1)),
            ])));
        }
        let cfg =
            ThreadedCfg { workers: 4, wait_slice: Duration::from_secs(5), ..Default::default() };
        let t0 = Instant::now();
        let (report, _sys) = run_threaded(sys, scripts, &cfg);
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
        // Balance-then-deposit crosswise over two objects (the deadlock
        // pattern from the system tests), many times over.
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        let mut scripts: Vec<Box<dyn Script<BankAccount>>> = Vec::new();
        for i in 0..8 {
            let (first, second) = if i % 2 == 0 { (X, y) } else { (y, X) };
            scripts.push(Box::new(OpsScript::new(vec![
                (first, BankInv::Balance),
                (second, BankInv::Deposit(1)),
            ])));
        }
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let (report, mut sys) = run_threaded(sys, scripts, &cfg);
        assert_eq!(report.committed + report.gave_up, 8);
        assert_eq!(report.gave_up, 0, "retries must eventually succeed");
        let spec = SystemSpec::uniform(BankAccount::default(), 2);
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
        let _ = sys.committed_state(X);
    }

    use crate::crash::{DurableSystem, TornPolicy};
    use ccr_obs::EventKind;
    use ccr_store::{WalBackend, WalConfig};

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
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 8, bank_nrbc());
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_micros(500) };
        let run = run_threaded_durable(
            sys,
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
        let mut rec: DurableSystem<
            BankAccount,
            UipEngine<BankAccount>,
            _,
            WalBackend<BankAccount>,
        > = DurableSystem::with_backend(BankAccount::default(), 8, bank_nrbc(), run.backend);
        rec.crash_and_recover_with(TornPolicy::Strict).unwrap();
        assert_eq!(rec.journal().len(), 32);
        for i in 0..8 {
            assert_eq!(rec.committed_state(ObjectId(i)), 4);
        }
    }

    #[test]
    fn durable_baseline_pays_one_fsync_per_commit() {
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 8, bank_nrbc());
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: false, flush_delay: Duration::ZERO };
        let run = run_threaded_durable(
            sys,
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
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 8, bank_nrbc());
        let cfg = ThreadedCfg { workers: 4, mpl: 1, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_micros(500) };
        let run = run_threaded_durable(
            sys,
            WalBackend::new(WalConfig::default()),
            spread_scripts(16, 8),
            &cfg,
            &gc,
        );
        assert_eq!(run.report.committed, 16);
        assert!(run.report.admission_rounds > 0, "slow flushes must park admitters");
        let mut rec: DurableSystem<
            BankAccount,
            UipEngine<BankAccount>,
            _,
            WalBackend<BankAccount>,
        > = DurableSystem::with_backend(BankAccount::default(), 8, bank_nrbc(), run.backend);
        rec.crash_and_recover_with(TornPolicy::Strict).unwrap();
        assert_eq!(rec.journal().len(), 16);
    }

    #[test]
    fn durable_group_commit_handles_contention_and_deadlocks() {
        // The contended crosswise pattern under the durable executor with
        // group commit: every script must still commit, and the journal must
        // replay to the same state.
        let sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
            TxnSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        let mut scripts: Vec<Box<dyn Script<BankAccount>>> = Vec::new();
        for i in 0..8 {
            let (first, second) = if i % 2 == 0 { (X, y) } else { (y, X) };
            scripts.push(Box::new(OpsScript::new(vec![
                (first, BankInv::Balance),
                (second, BankInv::Deposit(1)),
            ])));
        }
        let cfg = ThreadedCfg { workers: 4, ..Default::default() };
        let gc = GroupCommitCfg { group_commit: true, flush_delay: Duration::from_micros(200) };
        let run =
            run_threaded_durable(sys, WalBackend::new(WalConfig::default()), scripts, &cfg, &gc);
        assert_eq!(run.report.committed, 8);
        let mut rec: DurableSystem<
            BankAccount,
            UipEngine<BankAccount>,
            _,
            WalBackend<BankAccount>,
        > = DurableSystem::with_backend(BankAccount::default(), 2, bank_nrbc(), run.backend);
        rec.crash_and_recover_with(TornPolicy::Strict).unwrap();
        assert_eq!(rec.journal().len(), 8);
        assert_eq!(rec.committed_state(X) + rec.committed_state(y), 8);
    }
}
