//! The closed-loop driver. `MPL` logical clients are multiplexed round-robin
//! in this one thread; each waits for the reply to its call before making
//! the next, so a slow system is offered less load, event counts repeat
//! exactly for a seed, and the two cores of the sandbox are never
//! oversubscribed.
//!
//! One run is: set-up (several times; the last one is kept), then cycles of
//! forward epochs (`epoch_commits` commits closed by a checkpoint) and a
//! crash point (`crash_suffix` more commits, crash with the other clients in
//! flight, recover, verify against the model), until the forward share of
//! `--seconds` is spent.

use std::time::{Duration, Instant};

use ccr_adt::bank::{BankInv, BankResp};
use ccr_core::ids::ObjectId;
use ccr_runtime::TxnError;

use crate::rng::Rng;
use crate::span::{Call, NoTrace, Recorder, Trace};
use crate::stats::{fastest, median, percentile, supported_tail, Fast};
use crate::sut::{Counters, Sut};
use crate::workload::{
    Generator, Scale, Spec, RETRY_BUDGET, RSS_EPOCHS, SAMPLE_EVERY, SECTOR, SEED_BALANCE,
};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Trace every other epoch and report the per-layer numbers.
    pub trace: bool,
    pub scale: Scale,
    /// Run exactly this many epochs instead of watching the clock (the
    /// determinism check: counts must then repeat bit for bit).
    pub epochs: Option<usize>,
    /// Negative control: drop one acknowledged commit from the model, which
    /// the durability check must then report.
    pub selftest: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    /// Sampled raw spans of the traced epochs, as JSON.
    pub spans: Option<String>,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

struct Client<T> {
    rng: Rng,
    script: Vec<(ObjectId, BankInv)>,
    /// Balance changes of the current attempt's executed operations.
    effects: Vec<(ObjectId, i64)>,
    script_no: u64,
    txn: Option<T>,
    next: usize,
    attempts: u32,
    /// First `begin` of the current script.
    started: Instant,
    sampled: Option<u32>,
}

/// Event counts since the last [`Driver::take_tally`].
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    issued: u64,
    commits: u64,
    cross_commits: u64,
    failed: u64,
    begins: u64,
    invokes: u64,
    blocked: u64,
    /// Operations executed by attempts that went on to commit.
    useful_ops: u64,
    /// Most begins any one committed script needed.
    max_attempts: u32,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.issued += other.issued;
        self.commits += other.commits;
        self.cross_commits += other.cross_commits;
        self.failed += other.failed;
        self.begins += other.begins;
        self.invokes += other.invokes;
        self.blocked += other.blocked;
        self.useful_ops += other.useful_ops;
        self.max_attempts = self.max_attempts.max(other.max_attempts);
    }
}

struct Driver<'a, S: Sut> {
    spec: &'a Spec,
    sut: S,
    gen: Generator,
    clients: Vec<Client<S::Txn>>,
    cursor: usize,
    /// Expected committed balance per object: the seed plus the effects of
    /// acknowledged commits, and of nothing else.
    model: Vec<i64>,
    tally: Tally,
    /// Begin-to-ack latency of every script committed since the last drain.
    latencies: Vec<u64>,
    problems: Vec<String>,
    drop_next_ack: bool,
}

impl<'a, S: Sut> Driver<'a, S> {
    /// Build, seed every account, warm up, checkpoint.
    fn set_up(spec: &'a Spec, opts: &Options, make: &impl Fn() -> S) -> Self {
        let clients = (0..spec.mpl)
            .map(|c| Client {
                rng: Rng::fork(opts.seed, 1 + c as u64),
                script: Vec::new(),
                effects: Vec::new(),
                script_no: 0,
                txn: None,
                next: 0,
                attempts: 0,
                started: Instant::now(),
                sampled: None,
            })
            .collect();
        let mut d = Driver {
            spec,
            sut: make(),
            gen: Generator::new(spec, opts.seed),
            clients,
            cursor: 0,
            model: vec![SEED_BALANCE as i64; spec.objects as usize],
            tally: Tally::default(),
            latencies: Vec::new(),
            problems: Vec::new(),
            drop_next_ack: false,
        };
        for obj in (0..spec.objects).map(ObjectId) {
            let t = d.sut.begin();
            let seeded = d.sut.invoke(t, obj, BankInv::Deposit(SEED_BALANCE));
            assert_eq!(seeded, Ok(BankResp::Ok), "seeding an idle system");
            d.sut.commit(t, &mut NoTrace).expect("seeding an idle system");
        }
        d.run_commits(&mut NoTrace, opts.scale.warmup_commits);
        d.sut.checkpoint();
        d.take_tally();
        d.latencies.clear();
        d
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    /// Serve clients in turn until `commits` more scripts have committed.
    fn run_commits<T: Trace>(&mut self, tr: &mut T, commits: u64) {
        let target = self.tally.commits + commits;
        while self.tally.commits < target {
            let i = self.cursor;
            self.cursor = (i + 1) % self.clients.len();
            self.turn(i, tr);
        }
    }

    /// One turn of client `i`: a fresh attempt begins and makes its first
    /// call; otherwise exactly one call (an invoke, or the commit).
    fn turn<T: Trace>(&mut self, i: usize, tr: &mut T) {
        let Driver {
            spec,
            sut,
            gen,
            clients,
            model,
            tally,
            latencies,
            problems,
            drop_next_ack,
            ..
        } = self;
        let c = &mut clients[i];
        if c.script.is_empty() {
            gen.fill(&mut c.rng, &mut c.script);
            c.script_no = tally.issued;
            c.attempts = 0;
            tally.issued += 1;
        }
        if c.txn.is_none() {
            if c.attempts == RETRY_BUDGET {
                tally.failed += 1;
                c.script.clear();
                return;
            }
            if c.attempts == 0 {
                c.started = Instant::now();
            }
            c.attempts += 1;
            c.next = 0;
            c.effects.clear();
            if c.script_no % SAMPLE_EVERY == 0 {
                c.sampled = tr.attempt_begin(i as u32, c.script_no, c.attempts);
            }
        }
        tr.set_context(c.sampled);
        let txn = match c.txn {
            Some(t) => t,
            None => {
                tally.begins += 1;
                *c.txn.insert(tr.call(Call::Begin, || sut.begin()))
            }
        };
        let outcome = if let Some((obj, inv)) = c.script.get(c.next).cloned() {
            tally.invokes += 1;
            tr.call(Call::Invoke, || sut.invoke(txn, obj, inv.clone())).map(|resp| {
                let change = match (&inv, resp) {
                    (BankInv::Deposit(a), BankResp::Ok) => *a as i64,
                    (BankInv::Withdraw(a), BankResp::Ok) => -(*a as i64),
                    _ => 0,
                };
                c.effects.push((obj, change));
                c.next += 1;
                false
            })
        } else {
            sut.commit(txn, tr).map(|()| true)
        };
        match outcome {
            Ok(false) => {}
            Ok(true) => {
                latencies.push(c.started.elapsed().as_nanos() as u64);
                let net = |obj: ObjectId| -> i64 {
                    c.effects.iter().filter(|e| e.0 == obj).map(|e| e.1).sum()
                };
                if *drop_next_ack && c.effects.iter().any(|e| net(e.0) != 0) {
                    // Negative control: this acknowledgement never reaches
                    // the model, and it changed a balance, so it must show.
                    *drop_next_ack = false;
                } else {
                    for &(obj, change) in &c.effects {
                        model[obj.0 as usize] += change;
                    }
                }
                tally.commits += 1;
                tally.useful_ops += c.script.len() as u64;
                tally.max_attempts = tally.max_attempts.max(c.attempts);
                let shard = |op: &(ObjectId, BankInv)| op.0 .0 % spec.shards;
                let home = shard(&c.script[0]);
                tally.cross_commits += u64::from(c.script.iter().any(|op| shard(op) != home));
                if let Some(id) = c.sampled.take() {
                    tr.attempt_end(id, true);
                }
                c.txn = None;
                c.script.clear();
            }
            Err(TxnError::Blocked { .. }) => tally.blocked += 1,
            // Wounded by an older transaction (or, across shards, found
            // dead at prepare): the attempt is over, the script retries.
            Err(TxnError::Aborted(_) | TxnError::NotActive(_)) => {
                sut.abandon(txn, tr);
                if let Some(id) = c.sampled.take() {
                    tr.attempt_end(id, false);
                }
                c.txn = None;
            }
            Err(e) => {
                problems.push(format!("script {} of client {i}: {e}", c.script_no));
                sut.abandon(txn, tr);
                tally.failed += 1;
                c.sampled = None;
                c.txn = None;
                c.script.clear();
            }
        }
        tr.set_context(None);
    }

    /// Give every idle client one turn so the crash finds it in flight.
    /// Returns the transactions in flight.
    fn fill_pipeline(&mut self) -> usize {
        for i in 0..self.clients.len() {
            if self.clients[i].txn.is_none() && i != self.cursor {
                self.turn(i, &mut NoTrace);
            }
        }
        self.clients.iter().filter(|c| c.txn.is_some()).count()
    }

    /// Drop the driver's handles on what the crash is about to destroy.
    fn forget_in_flight(&mut self) {
        for c in &mut self.clients {
            c.txn = None;
            c.sampled = None;
            c.script.clear();
        }
        self.latencies.clear();
    }

    /// The durability check: every object's committed state equals the
    /// model. Returns the number of objects that differ, naming the first
    /// few when `explain` is set.
    fn mismatches(&mut self, explain: bool) -> usize {
        let mut wrong = 0;
        for (i, &want) in self.model.iter().enumerate() {
            let got = self.sut.committed_state(ObjectId(i as u32)) as i64;
            if got != want {
                if explain && wrong < 3 {
                    self.problems.push(format!("object {i}: recovered {got}, acknowledged {want}"));
                }
                wrong += 1;
            }
        }
        wrong
    }
}

struct Epoch {
    wall: Duration,
    checkpoint: Duration,
    traced: bool,
    p50_ns: u64,
    p99_ns: u64,
}

/// What the forward epochs of all cycles leave behind for the report.
#[derive(Default)]
struct Forward {
    epochs: Vec<Epoch>,
    /// Time spent in forward epochs (crash points excluded).
    wall: Duration,
    tally: Tally,
    /// The system's counters over the forward epochs.
    used: Counters,
    /// Every script committed in a forward epoch: its latency, ascending.
    latencies: Vec<u64>,
    rss_mb: Option<f64>,
}

/// What the crash points leave behind for the report.
#[derive(Default)]
struct Crash {
    tally: Tally,
    in_flight: usize,
    stranded: usize,
    recovery_s: Vec<f64>,
    /// Bare-scan time over recovery time, per recovery (traced runs only).
    scan_share: Vec<f64>,
    wrong_objects: usize,
}

fn per_sec(count: u64, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

impl<S: Sut> Driver<'_, S> {
    /// One epoch: `commits` commits, then the checkpoint every client waits
    /// for. Returns the checkpoint's stall.
    fn epoch<T: Trace>(&mut self, tr: &mut T, commits: u64) -> Duration {
        self.run_commits(tr, commits);
        let t = Instant::now();
        tr.call(Call::Checkpoint, || self.sut.checkpoint());
        t.elapsed()
    }

    /// The measured run: as many cycles as there are crash points, each a
    /// slice of forward epochs followed by a crash point, so that recovery
    /// is sampled across the whole run and not in one short window at its
    /// end (the sandbox changes speed for seconds at a time).
    fn measure(&mut self, opts: &Options, rec: &mut Recorder) -> (Forward, Crash) {
        let (mut fwd, mut crash) = (Forward::default(), Crash::default());
        let cycles = opts.scale.recoveries;
        self.drop_next_ack = opts.selftest;
        for cycle in 1..=cycles {
            self.forward_slice(opts, rec, &mut fwd, cycle as f64 / cycles as f64);
            self.crash_point(opts, &mut crash, opts.scale.recovery_floor_s / cycles as f64);
        }
        fwd.latencies.sort_unstable();
        if crash.wrong_objects > 0 {
            self.problems.push(format!(
                "durability check: {} object reads differ from the acknowledged commits",
                crash.wrong_objects
            ));
        }
        (fwd, crash)
    }

    /// Whole epochs until `share` of the forward time (or of the fixed epoch
    /// count) is used up. A traced run traces every other epoch, so the same
    /// run also yields the tracing overhead.
    fn forward_slice(&mut self, opts: &Options, rec: &mut Recorder, fwd: &mut Forward, share: f64) {
        let commits = opts.scale.epoch_commits;
        let budget = opts.seconds * self.spec.forward_share * share;
        // The run as a whole needs an epoch, a traced one an epoch of each kind.
        let least = if share < 1.0 { 0 } else { 1 + usize::from(opts.trace) };
        let before = self.sut.counters();
        let start = Instant::now();
        loop {
            let spent = fwd.wall + start.elapsed();
            let enough = match opts.epochs {
                Some(n) => fwd.epochs.len() >= (n as f64 * share).ceil() as usize,
                None => spent.as_secs_f64() >= budget,
            };
            if enough && fwd.epochs.len() >= least {
                break;
            }
            let traced = opts.trace && fwd.epochs.len() % 2 == 1;
            let epoch_start = Instant::now();
            let checkpoint = if traced {
                rec.window_begin();
                let stall = self.epoch(rec, commits);
                rec.window_end();
                stall
            } else {
                self.epoch(&mut NoTrace, commits)
            };
            let wall = epoch_start.elapsed();
            self.latencies.sort_unstable();
            fwd.epochs.push(Epoch {
                wall,
                checkpoint,
                traced,
                p50_ns: percentile(&self.latencies, 0.5),
                p99_ns: percentile(&self.latencies, 0.99),
            });
            fwd.latencies.append(&mut self.latencies);
            if fwd.epochs.len() == RSS_EPOCHS {
                fwd.rss_mb = Some(peak_rss_mb());
            }
        }
        fwd.wall += start.elapsed();
        fwd.tally.add(&self.take_tally());
        fwd.used = fwd.used.plus(&self.sut.counters().since(&before));
    }

    /// One crash point: a fixed suffix past the last checkpoint, the other
    /// clients in flight, (sharded) one participant pair in doubt; then
    /// crash, recover and verify — again on the recovered image until
    /// `floor_s` of recovery time has been sampled here.
    fn crash_point(&mut self, opts: &Options, crash: &mut Crash, floor_s: f64) {
        self.run_commits(&mut NoTrace, (self.spec.crash_suffix / opts.scale.suffix_div).max(1));
        crash.in_flight = self.fill_pipeline();
        let stranded = self.sut.strand_in_doubt();
        crash.stranded += stranded;
        crash.tally.add(&self.take_tally());
        self.forget_in_flight();

        let (mut sampled_s, mut due) = (0.0, 2 * stranded);
        loop {
            let scan_ns = opts.trace.then(|| self.sut.bare_scan_ns());
            let t = Instant::now();
            let settled = self.sut.crash_and_recover();
            let took = t.elapsed();
            crash.recovery_s.push(took.as_secs_f64());
            crash.scan_share.extend(scan_ns.map(|ns| ns as f64 / took.as_nanos() as f64));
            let round = crash.recovery_s.len();
            match settled {
                Ok(n) if n != due => self.problems.push(format!(
                    "recovery {round} settled {n} in-doubt participant(s), {due} were stranded"
                )),
                Ok(_) => {}
                Err(e) => self.problems.push(format!("recovery {round} failed: {e:?}")),
            }
            let doubt = self.sut.in_doubt();
            if doubt != 0 {
                self.problems.push(format!("{doubt} transaction(s) still in doubt after recovery"));
            }
            crash.wrong_objects += self.mismatches(crash.wrong_objects == 0);
            sampled_s += took.as_secs_f64();
            due = 0;
            if sampled_s >= floor_s {
                break;
            }
        }
    }
}

pub fn run<S: Sut>(spec: &Spec, opts: &Options, make: impl Fn() -> S) -> Report {
    // Set-up, several times over; the last build is the one measured.
    let mut setup_s = Vec::new();
    let mut d = loop {
        let t = Instant::now();
        let d = Driver::set_up(spec, opts, &make);
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == opts.scale.setups {
            break d;
        }
    };
    let mut rec = Recorder::default();
    let (fwd, crash) = d.measure(opts, &mut rec);

    let mut metrics: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric { name: name.to_string(), value, unit });
    };
    // End-to-end numbers, always from untraced epochs. A neighbour on the
    // shared host can only slow an epoch down, never speed it up, so a
    // timing is its fastest sample: the best epoch, the quickest recovery,
    // the quickest set-up. The medians are printed beside them.
    let commits = fwd.tally.commits as f64;
    let of_epochs = |pick: &dyn Fn(&Epoch) -> f64, traced: bool| -> Vec<f64> {
        fwd.epochs.iter().filter(|e| e.traced == traced).map(pick).collect()
    };
    let tps = |e: &Epoch| per_sec(opts.scale.epoch_commits, e.wall);
    put("setup_s", fastest(&setup_s, Fast::Low), "s");
    put("setup_s_median", median(&setup_s), "s");
    put("commit_tps", fastest(&of_epochs(&tps, false), Fast::High), "1/s");
    put("commit_tps_median", median(&of_epochs(&tps, false)), "1/s");
    put("commit_tps_mean", per_sec(fwd.tally.commits, fwd.wall), "1/s");
    let p50 = of_epochs(&|e| e.p50_ns as f64 / 1e3, false);
    let p99 = of_epochs(&|e| e.p99_ns as f64 / 1e3, false);
    put("txn_latency_p50_us", fastest(&p50, Fast::Low), "us");
    put("txn_latency_p99_us", fastest(&p99, Fast::Low), "us");
    if let Some(p) = supported_tail(fwd.latencies.len()) {
        put("txn_latency_tail_us", percentile(&fwd.latencies, p) as f64 / 1e3, "us");
        put("txn_latency_tail_percentile", p * 100.0, "%");
    }
    put("txn_latency_samples", fwd.latencies.len() as f64, "count");
    put("attempts_per_commit", fwd.tally.begins as f64 / commits, "ratio");
    put("attempts_max", f64::from(fwd.tally.max_attempts), "count");
    put("flushes_per_commit", fwd.used.flushes as f64 / commits, "ratio");
    put("log_bytes_per_commit", (fwd.used.sectors * SECTOR as u64) as f64 / commits, "B");
    put("recovery_s", fastest(&crash.recovery_s, Fast::Low), "s");
    put("recovery_s_median", median(&crash.recovery_s), "s");
    put("peak_rss_mb", fwd.rss_mb.unwrap_or_else(peak_rss_mb), "MiB");
    let failed = fwd.tally.failed + crash.tally.failed;
    let attempted = fwd.tally.commits + crash.tally.commits + failed;
    put("failed_ratio", failed as f64 / attempted as f64, "ratio");
    put("epochs", fwd.epochs.len() as f64, "count");
    put("timed_run_s", fwd.wall.as_secs_f64() + crash.recovery_s.iter().sum::<f64>(), "s");
    put("in_flight_at_crash", crash.in_flight as f64, "count");
    put("in_doubt_at_crash", crash.stranded as f64, "count");

    // Layer numbers the driver times or reads from the system's counters
    // in every run. The checkpoint is one call either way, so traced and
    // untraced epochs both count.
    let stalls: Vec<f64> = fwd.epochs.iter().map(|e| e.checkpoint.as_secs_f64() * 1e3).collect();
    put("runtime.crash.checkpoint_stall_ms", median(&stalls), "ms");
    put("runtime.system.blocked_per_commit", fwd.tally.blocked as f64 / commits, "ratio");
    put("runtime.system.wounds_per_commit", fwd.used.wounds as f64 / commits, "ratio");
    put(
        "runtime.system.useful_invoke_ratio",
        fwd.tally.useful_ops as f64 / fwd.tally.invokes as f64,
        "ratio",
    );
    put(
        "runtime.engine.validation_aborts_per_commit",
        fwd.used.validation_aborts as f64 / commits,
        "ratio",
    );
    put("store.wal.device_ops_per_commit", fwd.used.device_ops as f64 / commits, "ratio");
    put("store.disk.sectors_per_flush", fwd.used.sectors as f64 / fwd.used.flushes as f64, "ratio");
    if fwd.tally.cross_commits > 0 {
        put(
            "runtime.shard.frames_per_cross_commit",
            fwd.used.twopc_frames as f64 / fwd.tally.cross_commits as f64,
            "ratio",
        );
    }

    // Layer numbers from the traced epochs' spans.
    let mut spans = None;
    if opts.trace {
        let window = rec.window_ns() as f64;
        let share = |calls: &[Call]| calls.iter().map(|&c| rec.busy_share(c)).sum::<f64>();
        let p = |call: Call, q: f64| rec.agg(call).durations.quantile(q);
        put("runtime.crash.invoke_busy_share", share(&[Call::Invoke]), "ratio");
        put("runtime.crash.invoke_ns_p50", p(Call::Invoke, 0.5), "ns");
        let commit_path = [Call::Commit, Call::TwoPc, Call::Prepare, Call::Decide, Call::Resolve];
        put("runtime.crash.commit_busy_share", share(&commit_path), "ratio");
        put("runtime.crash.commit_ns_p50", p(Call::Commit, 0.5), "ns");
        put("runtime.crash.commit_ns_p99", p(Call::Commit, 0.99), "ns");
        put("runtime.crash.begin_busy_share", share(&[Call::Begin]), "ratio");
        put("runtime.crash.abort_busy_share", share(&[Call::Abort]), "ratio");
        put("runtime.crash.checkpoint_busy_share", share(&[Call::Checkpoint]), "ratio");
        if rec.agg(Call::TwoPc).count > 0 {
            put("runtime.shard.prepare_us_p50", p(Call::Prepare, 0.5) / 1e3, "us");
            put("runtime.shard.decide_us_p50", p(Call::Decide, 0.5) / 1e3, "us");
            put("runtime.shard.resolve_us_p50", p(Call::Resolve, 0.5) / 1e3, "us");
            put("runtime.shard.fastpath_commit_us_p50", p(Call::Commit, 0.5) / 1e3, "us");
            let twopc = rec.agg(Call::TwoPc).total_ns as f64 / window;
            put("runtime.shard.twopc_busy_share", twopc, "ratio");
        }
        put("runtime.crash.recover_scan_share", median(&crash.scan_share), "ratio");
        put("runtime.crash.recover_replay_share", 1.0 - median(&crash.scan_share), "ratio");
        put("driver.self_share", rec.gap_ns() as f64 / window, "ratio");
        let overhead = fastest(&of_epochs(&tps, false), Fast::High)
            / fastest(&of_epochs(&tps, true), Fast::High);
        put("trace.overhead_ratio", overhead, "ratio");
        spans = Some(rec.dump_json(spec.name, opts.seed));
    }

    if failed > 0 {
        d.problems.push(format!(
            "{failed} script(s) exhausted {RETRY_BUDGET} attempts or hit a hard error"
        ));
    }
    Report {
        correct: d.problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems: d.problems,
        spans,
    }
}
