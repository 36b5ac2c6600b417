//! Isolated probes: each layer's public functions timed on their own, on
//! inputs captured from `oltp_zipf` (its scripts, run serially against a
//! balance model, give the operations, responses and commit records). A
//! probe says what a layer costs by itself; the traced run says what share
//! of a workload that is. `layers` gives every probe at least a second,
//! a traced run repeats them briefly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv, BankResp};
use ccr_core::adt::{Adt, Op};
use ccr_core::conflict::{Conflict, FnConflict};
use ccr_core::ids::{ObjectId, TxnId};
use ccr_runtime::{
    DuEngine, DurableSystem, RecoveryEngine, TornPolicy, TxnSystem, UipEngine, UipInverseEngine,
};
use ccr_store::{
    CheckpointImage, CommitRecord, LogBackend, MemBackend, Persist, SimDisk, TailPolicy, WalBackend,
};

use crate::driver::Metric;
use crate::rng::Rng;
use crate::sut::wal;
use crate::workload::{find, Generator, SECTOR, SEED_BALANCE};

type Bank = BankAccount;
type Record = CommitRecord<Bank>;

/// How long each probe measures and how much input it is given.
#[derive(Clone, Copy)]
pub struct Effort {
    per_probe: Duration,
    records: usize,
    /// Transactions in each half of the events-on / events-off comparison.
    events_slice: usize,
}

pub const THOROUGH: Effort =
    Effort { per_probe: Duration::from_secs(1), records: 100_000, events_slice: 20_000 };
pub const BRIEF: Effort =
    Effort { per_probe: Duration::from_millis(80), records: 20_000, events_slice: 4_000 };
/// Enough to see every probe run (`--quick`).
pub const SMOKE: Effort =
    Effort { per_probe: Duration::from_millis(2), records: 2_000, events_slice: 200 };

/// Mean nanoseconds per unit. `batch` prepares untimed, then returns the
/// time it measured and the units that covers; batches repeat until the
/// measured time fills the budget.
fn ns_per_unit(budget: Duration, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let (mut spent, mut units) = (Duration::ZERO, 0u64);
    while spent < budget {
        let (took, done) = batch();
        spent += took;
        units += done;
    }
    spent.as_nanos() as f64 / units as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// The first `n` `oltp_zipf` scripts as the commit records a serial
/// execution journals: real operations, real responses, execution stamps.
fn captured_records(seed: u64, n: usize) -> Vec<Record> {
    let spec = find("oltp_zipf").expect("the probe input workload");
    let gen = Generator::new(spec, seed);
    let mut rng = Rng::fork(seed, 1);
    let adt = Bank::default();
    let mut balances = vec![SEED_BALANCE; spec.objects as usize];
    let mut script = Vec::new();
    let mut seq = 0u64;
    (0..n)
        .map(|i| {
            gen.fill(&mut rng, &mut script);
            let ops = script
                .iter()
                .map(|(obj, inv)| {
                    let balance = &mut balances[obj.0 as usize];
                    let (resp, post) = adt.step(balance, inv).remove(0);
                    *balance = post;
                    seq += 1;
                    (seq - 1, *obj, Op::new(inv.clone(), resp))
                })
                .collect();
            CommitRecord { floor: i as u32 + 1, ops }
        })
        .collect()
}

fn image(objects: u32, base_records: u64) -> CheckpointImage<Bank> {
    CheckpointImage {
        base_records,
        txn_floor: base_records as u32,
        next_exec_seq: base_records * 4,
        states: (0..objects).map(|i| (ObjectId(i), SEED_BALANCE)).collect(),
    }
}

/// No history, no tracer events: what the measured workloads run with.
fn hush<E: RecoveryEngine<Bank>>(txns: &mut TxnSystem<Bank, E, FnConflict<Bank>>) {
    txns.set_record_trace(false);
    txns.obs_mut().set_record_events(false);
}

fn quiet<E: RecoveryEngine<Bank>>(
    objects: u32,
    conflict: FnConflict<Bank>,
) -> TxnSystem<Bank, E, FnConflict<Bank>> {
    let mut sys = TxnSystem::new(Bank::default(), objects, conflict);
    hush(&mut sys);
    sys
}

fn deposit() -> Op<Bank> {
    Op::new(BankInv::Deposit(1), BankResp::Ok)
}

/// `Conflict::conflicts` over consecutive captured operations.
fn conflict_ns(budget: Duration, relation: &FnConflict<Bank>, ops: &[Op<Bank>]) -> f64 {
    ns_per_unit(budget, || {
        let (took, hits) =
            timed(|| ops.windows(2).filter(|w| relation.conflicts(&w[0], &w[1])).count());
        black_box(hits);
        (took, ops.len() as u64 - 1)
    })
}

/// A commuting `Deposit` against an object on which `held` other active
/// transactions hold one operation each: the conflict scan of
/// `TxnSystem::invoke` (DU+NFC, where a deposit commutes with deposits).
/// A batch is begin, 64 invokes, abort.
fn invoke_ns(budget: Duration, held: u32) -> f64 {
    let mut sys = quiet::<DuEngine<Bank>>(1, bank_nfc());
    for _ in 0..held {
        let t = sys.begin();
        sys.invoke(t, ObjectId::SOLE, BankInv::Deposit(1)).expect("deposits commute");
    }
    ns_per_unit(budget, || {
        let (took, ()) = timed(|| {
            let t = sys.begin();
            for _ in 0..64 {
                black_box(sys.invoke(t, ObjectId::SOLE, BankInv::Deposit(1)))
                    .expect("deposits commute");
            }
            sys.abort(t).expect("own transaction");
        });
        (took, 64)
    })
}

/// `TxnSystem::commit` of one-operation transactions in a system of
/// `objects` objects (64 begun and executed untimed, then committed).
fn commit_ns(budget: Duration, objects: u32) -> f64 {
    let mut sys = quiet::<UipEngine<Bank>>(objects, bank_nrbc());
    ns_per_unit(budget, || {
        let txns: Vec<TxnId> = (0..64)
            .map(|i| {
                let t = sys.begin();
                sys.invoke(t, ObjectId(i % objects), BankInv::Deposit(1))
                    .expect("deposits commute");
                t
            })
            .collect();
        let (took, ()) = timed(|| {
            for &t in &txns {
                sys.commit(t).expect("nothing conflicts");
            }
        });
        (took, 64)
    })
}

/// `abort` of a one-operation transaction whose object's log holds 64
/// operations of other live transactions (each abort timed on its own).
fn uip_abort_ns<E: RecoveryEngine<Bank>>(budget: Duration) -> f64 {
    let mut engine = E::new(Bank::default(), ObjectId::SOLE);
    engine.restore(SEED_BALANCE);
    for i in 0..64 {
        engine.record(TxnId(i), deposit(), SEED_BALANCE + u64::from(i) + 1);
    }
    let victim = TxnId(64);
    ns_per_unit(budget, || {
        engine.record(victim, deposit(), SEED_BALANCE + 65);
        let (took, undone) = timed(|| engine.abort(victim));
        undone.expect("a deposit undoes");
        (took, 1)
    })
}

struct WalProbes {
    append_us: f64,
    append_batch8_us_per_record: f64,
    sectors_per_record: f64,
    prepare_us: f64,
    decide_us: f64,
    checkpoint_ms: f64,
}

/// The WAL's append paths. Every batch ends with an untimed checkpoint so
/// the simulated device holds a bounded number of segments.
fn wal_probes(budget: Duration, records: &[Record]) -> WalProbes {
    let mut log = wal();
    let mut base = 0u64;
    let mut next = 0usize;
    let mut take = |n: usize| {
        let start = if next + n > records.len() { 0 } else { next };
        next = start + n;
        &records[start..start + n]
    };
    let small = image(8, 0);
    let mut truncate = |log: &mut WalBackend<Bank>| {
        base += 1;
        log.write_checkpoint(&CheckpointImage { base_records: base, ..small.clone() })
            .expect("a healthy device");
    };
    let (mut appended, mut append_sectors) = (0u64, 0u64);
    let append_ns = ns_per_unit(budget, || {
        let recs = take(2_000);
        let sectors = log.disk().stats().sectors_flushed;
        let (took, ()) = timed(|| {
            for rec in recs {
                log.append_commit(rec).expect("a healthy device");
            }
        });
        appended += 2_000;
        append_sectors += log.disk().stats().sectors_flushed - sectors;
        truncate(&mut log);
        (took, 2_000)
    });
    let sectors_per_record = append_sectors as f64 / appended as f64;
    let batch_ns = ns_per_unit(budget, || {
        let recs = take(2_000);
        let (took, ()) = timed(|| {
            for group in recs.chunks(8) {
                log.append_commits(group).expect("a healthy device");
            }
        });
        truncate(&mut log);
        (took, 2_000)
    });
    let mut gtid = 0u64;
    let (mut prepare, mut decide) = (Duration::ZERO, Duration::ZERO);
    let mut decided = 0u64;
    while prepare + decide < 2 * budget {
        let recs = take(512);
        let first = gtid;
        prepare += timed(|| {
            for rec in recs {
                gtid += 1;
                log.append_prepare(gtid, rec).expect("a healthy device");
            }
        })
        .0;
        decide += timed(|| {
            for g in first + 1..=gtid {
                log.append_decision(g, true).expect("a healthy device");
            }
        })
        .0;
        decided += 512;
        truncate(&mut log);
    }
    let big = image(4096, 0);
    let checkpoint_ns = ns_per_unit(budget, || {
        base += 1;
        let img = CheckpointImage { base_records: base, ..big.clone() };
        let (took, wrote) = timed(|| log.write_checkpoint(&img).is_ok());
        assert!(wrote, "a healthy device");
        (took, 1)
    });
    WalProbes {
        append_us: append_ns / 1e3,
        append_batch8_us_per_record: batch_ns / 1e3,
        sectors_per_record,
        prepare_us: prepare.as_nanos() as f64 / decided as f64 / 1e3,
        decide_us: decide.as_nanos() as f64 / decided as f64 / 1e3,
        checkpoint_ms: checkpoint_ns / 1e6,
    }
}

/// `WalBackend::recover` of a 2000-record log, per record.
fn scan_us_per_record(budget: Duration, records: &[Record]) -> f64 {
    let mut log = wal();
    for rec in &records[..2_000] {
        log.append_commit(rec).expect("a healthy device");
    }
    ns_per_unit(budget, || {
        let mut image = log.clone();
        image.crash();
        let (took, scanned) =
            timed(|| image.recover(TailPolicy::DiscardTail).map(|log| log.records.len()).ok());
        assert_eq!(scanned, Some(2_000), "a clean log scans");
        (took, 2_000)
    }) / 1e3
}

/// `crash_and_recover` of `n` journaled records over `MemBackend` (no scan,
/// so this is rebuild + replay), per record.
fn replay_us_per_record(budget: Duration, records: &[Record], n: usize) -> f64 {
    let mut sys: Serial<MemBackend<Bank>> = DurableSystem::new(Bank::default(), 4096, bank_nrbc());
    hush(sys.system_mut());
    seed_accounts(&mut sys);
    serial(&mut sys, &records[..n]);
    ns_per_unit(budget, || {
        let (took, recovered) = timed(|| sys.crash_and_recover_with(TornPolicy::DiscardTail));
        recovered.expect("an intact journal replays");
        (took, n as u64)
    }) / 1e3
}

type Serial<B> = DurableSystem<Bank, UipEngine<Bank>, FnConflict<Bank>, B>;

/// Give every account the balance the captured records assume, and fold
/// that into a checkpoint.
fn seed_accounts<B: LogBackend<Bank>>(sys: &mut Serial<B>) {
    for obj in (0..4096).map(ObjectId) {
        let t = sys.begin();
        sys.invoke(t, obj, BankInv::Deposit(SEED_BALANCE)).expect("an idle system");
        sys.commit(t).expect("an idle system");
    }
    sys.checkpoint();
}

/// Run `records` as serial transactions.
fn serial<B: LogBackend<Bank>>(sys: &mut Serial<B>, records: &[Record]) {
    for rec in records {
        let t = sys.begin();
        for (_, obj, op) in &rec.ops {
            let resp = sys.invoke(t, *obj, op.inv.clone()).expect("a serial run never blocks");
            debug_assert_eq!(resp, op.resp);
        }
        sys.commit(t).expect("a serial run never aborts");
    }
}

/// Wall time of a serial slice with tracer events recorded over the same
/// slice without (the price of leaving `set_record_events` on). Each side
/// runs twice, alternating, and keeps its faster time, so one neighbour's
/// burst cannot decide the ratio.
fn events_on_slowdown(records: &[Record]) -> f64 {
    let run = |events: bool| {
        let mut sys = DurableSystem::with_backend(Bank::default(), 4096, bank_nrbc(), wal());
        hush(sys.system_mut());
        seed_accounts(&mut sys);
        sys.system_mut().obs_mut().set_record_events(events);
        timed(|| serial(&mut sys, records)).0.as_secs_f64()
    };
    let (off, on) = (run(false), run(true));
    on.min(run(true)) / off.min(run(false))
}

pub fn run_all(seed: u64, effort: Effort) -> Vec<Metric> {
    let budget = effort.per_probe;
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric { name: name.to_string(), value, unit });
    };
    let records = captured_records(seed, effort.records);
    let ops: Vec<Op<Bank>> = records
        .iter()
        .take(5_000)
        .flat_map(|r| r.ops.iter().map(|(_, _, op)| op.clone()))
        .collect();
    let adt = Bank::default();

    put("core.conflict.nrbc_ns", conflict_ns(budget, &bank_nrbc(), &ops), "ns");
    put("core.conflict.nfc_ns", conflict_ns(budget, &bank_nfc(), &ops), "ns");
    let step = ns_per_unit(budget, || {
        let (took, n) = timed(|| {
            ops.iter().map(|op| adt.step(black_box(&SEED_BALANCE), &op.inv).len()).sum::<usize>()
        });
        black_box(n);
        (took, ops.len() as u64)
    });
    put("adt.bank.step_ns", step, "ns");

    for held in [1, 64, 1024] {
        put(&format!("runtime.system.invoke_ns_held{held}"), invoke_ns(budget, held), "ns");
    }
    for objects in [64, 4096] {
        put(&format!("runtime.system.commit_ns_obj{objects}"), commit_ns(budget, objects), "ns");
    }

    let mut uip = UipEngine::new(adt.clone(), ObjectId::SOLE);
    let record = ns_per_unit(budget, || {
        uip.restore(SEED_BALANCE);
        let (took, ()) = timed(|| {
            for i in 0..256u32 {
                uip.record(TxnId(i), deposit(), SEED_BALANCE + u64::from(i) + 1);
            }
        });
        (took, 256)
    });
    put("runtime.engine.uip_record_ns", record, "ns");
    put("runtime.engine.uip_abort_ns_log64", uip_abort_ns::<UipEngine<Bank>>(budget), "ns");
    put(
        "runtime.engine.uip_inverse_abort_ns_log64",
        uip_abort_ns::<UipInverseEngine<Bank>>(budget),
        "ns",
    );

    // 64 workspaces of four intentions each; another transaction's commit
    // moves the base, so every view has to re-apply its intentions.
    let mut du = DuEngine::new(adt.clone(), ObjectId::SOLE);
    du.restore(SEED_BALANCE);
    for t in (0..64).map(TxnId) {
        for k in 1..=4 {
            let seen = du.view_state(t);
            du.record(t, deposit(), seen + 1);
            debug_assert_eq!(seen + 1, SEED_BALANCE + k);
        }
    }
    let mut mover = 1_000u32;
    let view = ns_per_unit(budget, || {
        mover += 1;
        let seen = du.view_state(TxnId(mover));
        du.record(TxnId(mover), deposit(), seen + 1);
        du.commit(TxnId(mover));
        let (took, sum) = timed(|| (0..64).map(|t| du.view_state(TxnId(t))).sum::<u64>());
        black_box(sum);
        (took, 64)
    });
    put("runtime.engine.du_view_ns_int4", view, "ns");
    let validate = ns_per_unit(budget, || {
        let (took, ok) = timed(|| (0..64).filter(|&t| du.prepare_commit(TxnId(t)).is_ok()).count());
        assert_eq!(ok, 64, "deposits always validate");
        (took, 64)
    });
    put("runtime.engine.du_validate_ns", validate, "ns");

    let slice = &records[..records.len().min(10_000)];
    let mut buf = Vec::new();
    let encode = ns_per_unit(budget, || {
        buf.clear();
        let (took, ()) = timed(|| {
            for rec in slice {
                rec.floor.encode(&mut buf);
                rec.ops.encode(&mut buf);
            }
        });
        (took, slice.len() as u64)
    });
    put("store.codec.encode_ns_per_record", encode, "ns");
    put("store.codec.bytes_per_record", buf.len() as f64 / slice.len() as f64, "B");
    let decode = ns_per_unit(budget, || {
        let mut pos = 0;
        let (took, decoded) = timed(|| {
            (0..slice.len())
                .filter(|_| {
                    u32::decode(&buf, &mut pos).is_some()
                        && Vec::<(u64, ObjectId, Op<Bank>)>::decode(&buf, &mut pos).is_some()
                })
                .count()
        });
        assert_eq!(decoded, slice.len(), "what was encoded decodes");
        (took, slice.len() as u64)
    });
    put("store.codec.decode_ns_per_record", decode, "ns");

    put("store.wal.scan_us_per_record", scan_us_per_record(budget, &records), "us");
    let w = wal_probes(budget, &records);
    put("store.wal.append_us", w.append_us, "us");
    put("store.wal.append_batch8_us_per_record", w.append_batch8_us_per_record, "us");
    put("store.wal.sectors_per_record", w.sectors_per_record, "ratio");
    put("store.wal.prepare_us", w.prepare_us, "us");
    put("store.wal.decide_us", w.decide_us, "us");
    put("store.wal.checkpoint_ms_obj4096", w.checkpoint_ms, "ms");

    let mut disk = SimDisk::new(SECTOR);
    let sector = vec![0xA5u8; SECTOR];
    let mut at = 0u64;
    let flush = ns_per_unit(budget, || {
        let (took, ()) = timed(|| {
            for _ in 0..1_024 {
                disk.write(at % 4_096, &sector);
                disk.flush();
                at += 1;
            }
        });
        (took, 1_024)
    });
    put("store.disk.write_flush_ns_per_sector", flush, "ns");

    // Four times the records at far more than four times the cost is the
    // super-linear replay `recovery_s` pays for.
    put(
        "runtime.crash.replay_us_per_record_n500",
        replay_us_per_record(budget, &records, 500),
        "us",
    );
    put(
        "runtime.crash.replay_us_per_record_n2000",
        replay_us_per_record(budget, &records, 2_000),
        "us",
    );
    put("obs.events_on_slowdown", events_on_slowdown(&records[..effort.events_slice]), "ratio");
    out
}
