//! The operation path allocates nothing: a budget on heap allocations and on
//! live heap bytes, counted by this binary's own global allocator (which is
//! why the file holds one test — a second one would run beside it and be
//! counted too).
//!
//! Eight round-robin clients run four-operation bank scripts over eight
//! objects under wound-wait, history and event recording off, for both
//! recovery methods. After warm-up every table, pool and scratch list has met
//! its working size, so a bare `TxnSystem` may allocate only when one of them
//! still grows. A `DurableSystem` owes nothing more: a record's operation list
//! goes back for reuse once the log holds it, and what remains is the room the
//! growing log takes on the device: about the bytes a commit frame occupies,
//! not the whole sectors it spans. A fleet of them owes the same, and its
//! two-phase commit bookkeeping nothing. A recovery owes the records it redoes,
//! not the objects it rebuilds. And a fleet holds each object once, on the
//! shard it routes to: its live heap is about one system's over as many
//! objects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv, BankResp};
use ccr::core::conflict::{Conflict, FnConflict};
use ccr::core::ids::{ObjectId, TxnId};
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine};
use ccr::runtime::{ConflictPolicy, DurableSystem, ShardedSystem, TxnError, TxnSystem};
use ccr::store::{LogBackend, WalBackend, WalConfig};

thread_local! {
    /// Allocations made by this thread (the harness's own threads do not
    /// count against the test's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated less those it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// One allocation that changes the live bytes by `bytes`.
fn count(bytes: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    grow(bytes);
}

fn grow(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a `const`-initialised
// thread-local `Cell` without a destructor, so touching it neither allocates
// nor runs after the thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` because every method here forwards to it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CLIENTS: usize = 8;
const OBJECTS: u32 = 8;
const SCRIPT: usize = 4;
const WARM_UP: u64 = 2_000;
const MEASURED: u64 = 10_000;
/// Objects of the recovery and heap arms: the spine's object count.
const ACCOUNTS: u32 = 4096;

/// What the driver needs of a system, bare or durable.
trait Sut {
    fn begin(&mut self) -> TxnId;
    fn invoke(&mut self, txn: TxnId, obj: ObjectId, inv: BankInv) -> Result<BankResp, TxnError>;
    fn commit(&mut self, txn: TxnId) -> Result<(), TxnError>;
}

impl<E: RecoveryEngine<BankAccount>, C: Conflict<BankAccount>> Sut
    for TxnSystem<BankAccount, E, C>
{
    fn begin(&mut self) -> TxnId {
        TxnSystem::begin(self)
    }

    fn invoke(&mut self, txn: TxnId, obj: ObjectId, inv: BankInv) -> Result<BankResp, TxnError> {
        TxnSystem::invoke(self, txn, obj, inv)
    }

    fn commit(&mut self, txn: TxnId) -> Result<(), TxnError> {
        TxnSystem::commit(self, txn)
    }
}

impl<E, C, B> Sut for DurableSystem<BankAccount, E, C, B>
where
    E: RecoveryEngine<BankAccount>,
    C: Conflict<BankAccount> + Clone,
    B: LogBackend<BankAccount>,
{
    fn begin(&mut self) -> TxnId {
        DurableSystem::begin(self)
    }

    fn invoke(&mut self, txn: TxnId, obj: ObjectId, inv: BankInv) -> Result<BankResp, TxnError> {
        DurableSystem::invoke(self, txn, obj, inv)
    }

    fn commit(&mut self, txn: TxnId) -> Result<(), TxnError> {
        DurableSystem::commit(self, txn)
    }
}

fn configure<E, C>(sys: &mut TxnSystem<BankAccount, E, C>)
where
    E: RecoveryEngine<BankAccount>,
    C: Conflict<BankAccount>,
{
    sys.set_policy(ConflictPolicy::WoundWait);
    sys.set_record_trace(false);
    sys.obs_mut().set_record_events(false);
}

struct Client {
    script: [(ObjectId, BankInv); SCRIPT],
    txn: Option<TxnId>,
    done: usize,
}

#[derive(Default, Debug)]
struct Tally {
    invokes: u64,
    blocked: u64,
    wounded: u64,
}

/// A seeded draw below its argument (xorshift).
fn below() -> impl FnMut(u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) % n
    }
}

/// What the measured part of a run cost the heap.
#[derive(Debug)]
struct Spent {
    allocations: u64,
    /// Growth of the live bytes.
    bytes: i64,
}

/// Drive `sys` for `WARM_UP + MEASURED` commits; returns what the measured
/// part cost and what the attempts came to.
fn allocations_of(sys: &mut impl Sut) -> (Spent, Tally) {
    let mut below = below();
    let mut script = move || {
        std::array::from_fn(|_| {
            let inv = match below(4) {
                0 | 1 => BankInv::Deposit(1 + below(3)),
                2 => BankInv::Withdraw(1 + below(3)),
                _ => BankInv::Balance,
            };
            (ObjectId(below(u64::from(OBJECTS)) as u32), inv)
        })
    };
    let mut clients: [Client; CLIENTS] =
        std::array::from_fn(|_| Client { script: script(), txn: None, done: 0 });
    let (mut commits, mut start, mut tally) = (0, None, Tally::default());
    for turn in 0.. {
        if commits == WARM_UP && start.is_none() {
            start = Some((ALLOCATIONS.get(), LIVE.get()));
            tally = Tally::default();
        }
        if commits == WARM_UP + MEASURED {
            break;
        }
        let c = &mut clients[turn % CLIENTS];
        let txn = *c.txn.get_or_insert_with(|| sys.begin());
        let outcome = match c.script.get(c.done) {
            Some((obj, inv)) => {
                tally.invokes += 1;
                sys.invoke(txn, *obj, inv.clone()).map(|_| c.done += 1)
            }
            None => sys.commit(txn).map(|()| {
                commits += 1;
                *c = Client { script: script(), txn: None, done: 0 };
            }),
        };
        match outcome {
            Ok(()) => {}
            Err(TxnError::Blocked) => tally.blocked += 1,
            // Wounded behind its back: the same script runs again.
            Err(TxnError::Aborted(_)) => {
                tally.wounded += 1;
                (c.txn, c.done) = (None, 0);
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
    let (allocations, bytes) = start.expect("the warm-up ends");
    (Spent { allocations: ALLOCATIONS.get() - allocations, bytes: LIVE.get() - bytes }, tally)
}

fn check<E: RecoveryEngine<BankAccount>>(conflict: impl Conflict<BankAccount> + Clone) {
    let mut bare: TxnSystem<BankAccount, E, _> =
        TxnSystem::new(BankAccount::default(), OBJECTS, conflict.clone());
    configure(&mut bare);
    let (spent, tally) = allocations_of(&mut bare);
    // The run is the contended one the budget is about.
    assert!(tally.blocked * 4 > tally.invokes && tally.wounded > 1_000, "{tally:?}");
    assert!(spent.allocations <= 32, "{}: {spent:?} over {MEASURED} commits, {tally:?}", E::name());

    let wal = WalBackend::new(WalConfig { sector: 512, seg_sectors: 2048 });
    let mut durable: DurableSystem<BankAccount, E, _, _> =
        DurableSystem::with_backend(BankAccount::default(), OBJECTS, conflict, wal);
    configure(durable.system_mut());
    let (spent, tally) = allocations_of(&mut durable);
    assert!(
        100 * spent.allocations <= 5 * MEASURED,
        "{} through the WAL: {spent:?} over {MEASURED} commits, {tally:?}",
        E::name()
    );
    // Nothing checkpoints, so the whole log stays on the device: a commit
    // frame of about a hundred bytes, not the 512-byte sector it lies in.
    assert!(
        spent.bytes <= 160 * MEASURED as i64,
        "{} through the WAL: {spent:?} over {MEASURED} commits, {tally:?}",
        E::name()
    );
}

type Fleet = ShardedSystem<
    BankAccount,
    UipEngine<BankAccount>,
    FnConflict<BankAccount>,
    WalBackend<BankAccount>,
>;

/// Commits of a fleet run, by kind.
#[derive(Default, Debug)]
struct FleetTally {
    single: u64,
    cross: u64,
    blocked: u64,
    restarts: u64,
}

/// Eight clients run two-operation transfers through `commit_global` on a
/// two-shard fleet over the WAL, half of them across the shards, for
/// `WARM_UP + MEASURED` commits. A client blocked for many turns in a row
/// aborts and retries: wound-wait breaks waits on one shard, not a cycle
/// through two. Returns the allocations of the measured part.
fn fleet_allocations() -> (u64, FleetTally) {
    const SHARDS: u32 = 2;
    const PATIENCE: u32 = 64;
    let mut fleet: Fleet = ShardedSystem::new_with(SHARDS as usize, |_| {
        let wal = WalBackend::new(WalConfig { sector: 512, seg_sectors: 2048 });
        DurableSystem::with_backend(BankAccount::default(), 4 * OBJECTS, bank_nrbc(), wal)
    });
    for s in 0..SHARDS as usize {
        configure(fleet.shard_mut(s).system_mut());
    }
    let mut below = below();
    let mut transfer = move || {
        let from = below(u64::from(4 * OBJECTS)) as u32;
        // The other shard half of the time; never the same account.
        let step = if below(2) == 0 { 1 + 2 * below(2) as u32 } else { 2 + 2 * below(3) as u32 };
        let to = (from + step) % (4 * OBJECTS);
        let amount = 1 + below(3);
        [(ObjectId(from), BankInv::Withdraw(amount)), (ObjectId(to), BankInv::Deposit(amount))]
    };
    struct Transfer {
        script: [(ObjectId, BankInv); 2],
        gtid: Option<u64>,
        done: usize,
        waited: u32,
    }
    let mut clients: [Transfer; CLIENTS] =
        std::array::from_fn(|_| Transfer { script: transfer(), gtid: None, done: 0, waited: 0 });
    let (mut start, mut tally) = (None, FleetTally::default());
    for turn in 0.. {
        let commits = tally.single + tally.cross;
        if commits == WARM_UP && start.is_none() {
            start = Some(ALLOCATIONS.get());
            tally = FleetTally::default();
        }
        if start.is_some() && commits == MEASURED {
            break;
        }
        let c = &mut clients[turn % CLIENTS];
        let gtid = *c.gtid.get_or_insert_with(|| fleet.begin_global());
        let outcome = match c.script.get(c.done) {
            Some((obj, inv)) => fleet.invoke_global(gtid, *obj, inv.clone()).map(|_| c.done += 1),
            None => fleet.commit_global(gtid).map(|()| {
                let (from, to) = (c.script[0].0, c.script[1].0);
                if from.0 % SHARDS == to.0 % SHARDS {
                    tally.single += 1;
                } else {
                    tally.cross += 1;
                }
                *c = Transfer { script: transfer(), gtid: None, done: 0, waited: 0 };
            }),
        };
        let restart = match outcome {
            Ok(()) => {
                c.waited = 0;
                false
            }
            Err(TxnError::Blocked) => {
                tally.blocked += 1;
                c.waited += 1;
                c.waited > PATIENCE
            }
            Err(TxnError::Aborted(_) | TxnError::NotActive(_)) => true,
            Err(e) => panic!("unexpected {e:?}"),
        };
        if restart {
            tally.restarts += 1;
            fleet.abort_global(gtid);
            (c.gtid, c.done, c.waited) = (None, 0, 0);
        }
    }
    (ALLOCATIONS.get() - start.unwrap_or(0), tally)
}

/// Allocations of two recoveries of a 4 096-object system over the WAL, from a
/// checkpoint: one with an empty suffix, one with `SUFFIX` four-operation
/// records to redo.
fn recovery_allocations() -> (u64, u64) {
    const SUFFIX: u64 = 2_000;
    let wal = WalBackend::new(WalConfig { sector: 512, seg_sectors: 2048 });
    let mut sys: DurableSystem<BankAccount, UipEngine<BankAccount>, _, _> =
        DurableSystem::with_backend(BankAccount::default(), ACCOUNTS, bank_nrbc(), wal);
    configure(sys.system_mut());
    let mut below = below();
    let mut commit = |sys: &mut DurableSystem<_, _, _, _>| {
        let t = sys.begin();
        for _ in 0..SCRIPT {
            let obj = ObjectId(below(u64::from(ACCOUNTS)) as u32);
            sys.invoke(t, obj, BankInv::Deposit(1 + below(3))).expect("a lone transaction runs");
        }
        sys.commit(t).expect("a lone transaction commits");
    };
    for _ in 0..WARM_UP {
        commit(&mut sys);
    }
    sys.checkpoint();
    let recover = |sys: &mut DurableSystem<_, _, _, _>| {
        let start = ALLOCATIONS.get();
        sys.crash_and_recover().expect("an intact log recovers");
        ALLOCATIONS.get() - start
    };
    let empty = recover(&mut sys);
    for _ in 0..SUFFIX {
        commit(&mut sys);
    }
    assert_eq!(sys.journal().since_base(), SUFFIX);
    (empty, recover(&mut sys))
}

/// The live heap a system built by `make` holds once `seed` has committed a
/// deposit at each of `ACCOUNTS` objects, one transaction each (the
/// benchmark's seeding).
fn seeded_heap<S>(make: impl FnOnce() -> S, seed: impl Fn(&mut S, ObjectId)) -> i64 {
    let before = LIVE.get();
    let mut sys = make();
    for obj in (0..ACCOUNTS).map(ObjectId) {
        seed(&mut sys, obj);
    }
    LIVE.get() - before
}

/// The live heap of one WAL system and of a four-shard WAL fleet, each over
/// `ACCOUNTS` objects, after seeding.
fn seeded_heaps() -> (i64, i64) {
    let durable = || {
        let wal = WalBackend::new(WalConfig { sector: 512, seg_sectors: 2048 });
        let mut sys: DurableSystem<BankAccount, UipEngine<BankAccount>, _, _> =
            DurableSystem::with_backend(BankAccount::default(), ACCOUNTS, bank_nrbc(), wal);
        configure(sys.system_mut());
        sys
    };
    let single = seeded_heap(durable, |sys, obj| {
        let t = sys.begin();
        sys.invoke(t, obj, BankInv::Deposit(100)).expect("an idle system runs");
        sys.commit(t).expect("an idle system commits");
    });
    let fleet = seeded_heap(
        || -> Fleet { ShardedSystem::new_with(4, |_| durable()) },
        |fleet, obj| {
            let g = fleet.begin_global();
            fleet.invoke_global(g, obj, BankInv::Deposit(100)).expect("an idle fleet runs");
            fleet.commit_global(g).expect("an idle fleet commits");
        },
    );
    (single, fleet)
}

#[test]
fn the_operation_path_allocates_nothing() {
    check::<UipEngine<BankAccount>>(bank_nrbc());
    check::<DuEngine<BankAccount>>(bank_nfc());

    // A fleet owes its commits, single-shard or across the shards, only the
    // room the growing logs take.
    let (spent, tally) = fleet_allocations();
    assert!(tally.cross * 3 > MEASURED && tally.single * 3 > MEASURED, "{tally:?}");
    assert!(
        10 * spent <= MEASURED,
        "fleet: {spent} allocations over {MEASURED} commits, {tally:?}"
    );

    // Rebuilding the objects costs O(1) allocations; redoing a record, what
    // reading it back off the device does.
    let (empty, suffix) = recovery_allocations();
    assert!(empty <= 32 && suffix <= 10_000, "recovery: {empty} / {suffix} allocations");

    // Shard `s` of a fleet holds only the objects routed to it, so four
    // shards hold about what one system over the same objects does.
    let (single, fleet) = seeded_heaps();
    assert!(
        4 * fleet <= 5 * single,
        "live heap after seeding: four-shard fleet {fleet} B, one system {single} B"
    );
}
