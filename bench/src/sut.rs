//! The system under test, as the driver sees it: one small interface over a
//! single `DurableSystem` and over a `ShardedSystem`, made only of calls into
//! their public functions and reads of their public counters.

use std::time::Instant;

use ccr_adt::bank::{BankAccount, BankInv, BankResp};
use ccr_core::conflict::FnConflict;
use ccr_core::ids::{ObjectId, TxnId};
use ccr_runtime::crash::RedoError;
use ccr_runtime::{
    ConflictPolicy, DurableSystem, RecoveryEngine, ShardedSystem, TornPolicy, TxnError, UipEngine,
};
use ccr_store::{LogBackend, TailPolicy, WalBackend, WalConfig};

use crate::span::{Call, Trace};
use crate::workload::{SECTOR, SEG_SECTORS};

type Bank = BankAccount;
type Wal = WalBackend<Bank>;
type Durable<E> = DurableSystem<Bank, E, FnConflict<Bank>, Wal>;

/// Monotone counters read from the system's public statistics; the driver
/// reports differences between two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `DiskStats::flushes`, summed over devices.
    pub flushes: u64,
    /// `DiskStats::sectors_flushed`, summed over devices.
    pub sectors: u64,
    /// `device_op_count`, summed over devices.
    pub device_ops: u64,
    pub wounds: u64,
    pub validation_aborts: u64,
    /// PREPARE plus DECIDE frames journaled.
    pub twopc_frames: u64,
}

impl Counters {
    fn zip(&self, other: &Counters, f: fn(u64, u64) -> u64) -> Counters {
        Counters {
            flushes: f(self.flushes, other.flushes),
            sectors: f(self.sectors, other.sectors),
            device_ops: f(self.device_ops, other.device_ops),
            wounds: f(self.wounds, other.wounds),
            validation_aborts: f(self.validation_aborts, other.validation_aborts),
            twopc_frames: f(self.twopc_frames, other.twopc_frames),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |now, then| now - then)
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }
}

pub trait Sut {
    type Txn: Copy;

    fn begin(&mut self) -> Self::Txn;

    fn invoke(&mut self, txn: Self::Txn, obj: ObjectId, inv: BankInv)
        -> Result<BankResp, TxnError>;

    /// The whole durable commit path: `Ok` is the acknowledgement.
    fn commit<T: Trace>(&mut self, txn: Self::Txn, tr: &mut T) -> Result<(), TxnError>;

    /// Release whatever a transaction the system reported aborted still
    /// holds elsewhere.
    fn abandon<T: Trace>(&mut self, txn: Self::Txn, tr: &mut T);

    fn checkpoint(&mut self);

    /// Power-cycle every device, recover under `DiscardTail`, settle any
    /// in-doubt transaction and return to serving configuration. Returns
    /// the number of in-doubt participants settled on the way.
    fn crash_and_recover(&mut self) -> Result<usize, RedoError>;

    /// Time a bare `WalBackend::recover` of the current stable image(s) on a
    /// clone: the scan share of what [`Sut::crash_and_recover`] will pay.
    fn bare_scan_ns(&self) -> u64;

    /// Leave one transaction durably prepared and undecided, so the crash
    /// has an in-doubt participant to settle. Returns how many it stranded.
    fn strand_in_doubt(&mut self) -> usize {
        0
    }

    fn in_doubt(&self) -> usize;

    fn committed_state(&mut self, obj: ObjectId) -> u64;

    fn counters(&self) -> Counters;
}

/// An empty WAL of the benchmark's geometry.
pub fn wal() -> Wal {
    WalBackend::new(WalConfig { sector: SECTOR, seg_sectors: SEG_SECTORS })
}

/// A rebuilt system starts from `TxnSystem::new`'s defaults, so this runs
/// after construction *and* after every recovery.
fn configure<E: RecoveryEngine<Bank>>(sys: &mut Durable<E>) {
    let txns = sys.system_mut();
    txns.set_policy(ConflictPolicy::WoundWait);
    txns.set_record_trace(false);
    txns.obs_mut().set_record_events(false);
}

fn durable<E: RecoveryEngine<Bank>>(objects: u32, conflict: FnConflict<Bank>) -> Durable<E> {
    let mut sys = DurableSystem::with_backend(Bank::default(), objects, conflict, wal());
    configure(&mut sys);
    sys
}

fn scan_ns(backend: &Wal) -> u64 {
    let mut image = backend.clone();
    image.crash();
    let t = Instant::now();
    let scanned = image.recover(TailPolicy::DiscardTail);
    let ns = t.elapsed().as_nanos() as u64;
    assert!(scanned.is_ok(), "a clean image scans");
    ns
}

fn counters_of<E: RecoveryEngine<Bank>>(sys: &Durable<E>) -> Counters {
    let disk = sys.backend().disk().stats();
    let stats = sys.stats();
    Counters {
        flushes: disk.flushes,
        sectors: disk.sectors_flushed,
        device_ops: sys.backend().device_op_count(),
        wounds: stats.wounds,
        validation_aborts: stats.validation_aborts,
        twopc_frames: stats.prepares + stats.decides,
    }
}

/// One `DurableSystem` over one WAL.
pub struct Single<E: RecoveryEngine<Bank>>(Durable<E>);

impl<E: RecoveryEngine<Bank>> Single<E> {
    pub fn new(objects: u32, conflict: FnConflict<Bank>) -> Self {
        Single(durable(objects, conflict))
    }
}

impl<E: RecoveryEngine<Bank>> Sut for Single<E> {
    type Txn = TxnId;

    fn begin(&mut self) -> TxnId {
        self.0.begin()
    }

    fn invoke(&mut self, txn: TxnId, obj: ObjectId, inv: BankInv) -> Result<BankResp, TxnError> {
        self.0.invoke(txn, obj, inv)
    }

    fn commit<T: Trace>(&mut self, txn: TxnId, tr: &mut T) -> Result<(), TxnError> {
        tr.call(Call::Commit, || self.0.commit(txn))
    }

    /// Nothing to do: the system already aborted it everywhere, and its
    /// write-ahead buffer is pruned by the next commit.
    fn abandon<T: Trace>(&mut self, _txn: TxnId, _tr: &mut T) {}

    fn checkpoint(&mut self) {
        self.0.checkpoint();
    }

    fn crash_and_recover(&mut self) -> Result<usize, RedoError> {
        self.0.crash_and_recover_with(TornPolicy::DiscardTail)?;
        configure(&mut self.0);
        Ok(0)
    }

    fn bare_scan_ns(&self) -> u64 {
        scan_ns(self.0.backend())
    }

    fn in_doubt(&self) -> usize {
        self.0.in_doubt().len()
    }

    fn committed_state(&mut self, obj: ObjectId) -> u64 {
        self.0.committed_state(obj)
    }

    fn counters(&self) -> Counters {
        counters_of(&self.0)
    }
}

/// A fleet of UIP+NRBC shards under presumed-abort 2PC. The driver runs the
/// 2PC steps `commit_global` is made of itself, so each gets its own span.
pub struct Sharded(ShardedSystem<Bank, UipEngine<Bank>, FnConflict<Bank>, Wal>);

impl Sharded {
    pub fn new(shards: u32, objects: u32, conflict: FnConflict<Bank>) -> Self {
        Sharded(ShardedSystem::new_with(shards as usize, |_| durable(objects, conflict.clone())))
    }

    fn shards(&self) -> impl Iterator<Item = &Durable<UipEngine<Bank>>> {
        (0..self.0.nshards()).map(|s| self.0.shard(s))
    }
}

impl Sut for Sharded {
    type Txn = u64;

    fn begin(&mut self) -> u64 {
        self.0.begin_global()
    }

    fn invoke(&mut self, txn: u64, obj: ObjectId, inv: BankInv) -> Result<BankResp, TxnError> {
        self.0.invoke_global(txn, obj, inv)
    }

    fn commit<T: Trace>(&mut self, txn: u64, tr: &mut T) -> Result<(), TxnError> {
        let parts = self.0.participants(txn);
        if parts.len() < 2 {
            return tr.call(Call::Commit, || self.0.commit_global(txn));
        }
        tr.open(Call::TwoPc);
        let mut result = tr.call(Call::Prepare, || self.0.prepare_all(txn));
        if result.is_ok() {
            tr.call(Call::Decide, || self.0.decide_commit(txn));
            for s in parts {
                let resolved = tr.call(Call::Resolve, || self.0.resolve_participant(txn, s, true));
                result = result.and(resolved);
            }
        }
        tr.close();
        result
    }

    /// A wound reaches one shard; the halves on the others still hold locks.
    fn abandon<T: Trace>(&mut self, txn: u64, tr: &mut T) {
        tr.call(Call::Abort, || self.0.abort_global(txn));
    }

    fn checkpoint(&mut self) {
        for s in 0..self.0.nshards() {
            self.0.shard_mut(s).checkpoint();
        }
    }

    fn crash_and_recover(&mut self) -> Result<usize, RedoError> {
        self.0.crash_subset(u32::MAX)?;
        self.0.crash_coordinator();
        let settled = self.0.resolve_in_doubt();
        for s in 0..self.0.nshards() {
            configure(self.0.shard_mut(s));
        }
        Ok(settled)
    }

    fn bare_scan_ns(&self) -> u64 {
        self.shards().map(|shard| scan_ns(shard.backend())).sum()
    }

    /// A driver-owned cross-shard transfer of 1 between two accounts no
    /// in-flight client holds, taken as far as the durable yes-votes.
    fn strand_in_doubt(&mut self) -> usize {
        let n = self.0.nshards() as u32;
        for k in 0..64u32 {
            let (from, to) = (ObjectId(k * n), ObjectId(k * n + 1));
            let txn = self.0.begin_global();
            let ran = self.0.invoke_global(txn, from, BankInv::Withdraw(1)).is_ok()
                && self.0.invoke_global(txn, to, BankInv::Deposit(1)).is_ok();
            if ran && self.0.prepare_all(txn).is_ok() {
                return 1;
            }
            self.0.abort_global(txn);
        }
        0
    }

    fn in_doubt(&self) -> usize {
        self.0.in_doubt().len()
    }

    fn committed_state(&mut self, obj: ObjectId) -> u64 {
        let s = self.0.shard_of(obj);
        self.0.shard_mut(s).committed_state(obj)
    }

    fn counters(&self) -> Counters {
        self.shards().map(counters_of).fold(Counters::default(), |sum, c| sum.plus(&c))
    }
}
