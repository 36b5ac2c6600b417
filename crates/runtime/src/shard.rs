//! Sharded durable runtime: presumed-abort two-phase commit across
//! independently crashing [`DurableSystem`] shards.
//!
//! The paper's model (and every layer below this one) is a single recovery
//! domain: one log, one crash, one recovery scan. This module partitions
//! the object space across `n` durable systems — each holding only the
//! objects routed to it, with its own WAL, checkpoint lifecycle,
//! [`SystemMode`](crate::SystemMode) and fault channels — and
//! coordinates cross-shard transactions with **presumed-abort 2PC**
//! journaled through the very same frame/recovery machinery:
//!
//! * phase one: every participant durably appends a PREPARE frame (the
//!   full commit record under the coordinator's global id) — the yes-vote
//!   — and keeps the transaction *active*, holding its locks;
//! * the coordinator durably records only **commit** decisions
//!   ([`CoordinatorLog`]); the absence of a record *is* the abort decision
//!   (presumed abort — no durable write on the abort path, none on
//!   read-only votes);
//! * phase two: each participant durably appends the DECIDE frame, then
//!   applies it (volatile commit or abort, locks released either way).
//!
//! Crash of any shard subset is survivable at any point: a participant
//! that lost power between its PREPARE and DECIDE frames recovers the
//! transaction *in doubt* — a ghost re-holding the locks — and
//! [`ShardedSystem::resolve_in_doubt`] settles it deterministically by
//! querying the coordinator's durable commit set, else presuming abort. A
//! torn PREPARE classifies as a torn tail and is discarded by recovery:
//! exactly the no-vote the coordinator presumed. A degraded shard refuses
//! its own prepares ([`TxnError::ReadOnly`] — a no-vote) but is never
//! consulted for transactions that do not touch it.
//!
//! No subset crash, coordinator crash, or crash at any 2PC step may commit a
//! transaction on one shard and abort it on another: the oracle's eighth leg
//! ([`crate::oracle`]). Its negative control is a driver that tells a
//! participant to commit *without* [`ShardedSystem::decide_commit`] first —
//! the decision record that never landed.

use std::fmt;

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_core::ids::{ObjectId, Reusable, TxnId, TxnTable};
use ccr_store::LogBackend;

use crate::crash::{DurableSystem, RedoError, SystemSnapshot, TornPolicy};
use crate::engine::RecoveryEngine;
use crate::error::TxnError;
use crate::system::Share;

/// The coordinator's stable storage: the set of global transaction ids
/// durably decided **commit**, as a bitset indexed by gtid — one bit per
/// issued id up to the newest decided. Presumed abort needs nothing else —
/// an id absent from this set, with no live coordinator memory, is abort.
#[derive(Clone, Default)]
pub struct CoordinatorLog {
    /// Bit `g % 64` of word `g / 64` is set iff gtid `g` committed; the
    /// last word is never zero.
    words: Vec<u64>,
}

impl CoordinatorLog {
    /// Durably record a commit decision.
    pub fn log_commit(&mut self, gtid: u64) {
        let word = (gtid / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (gtid % 64);
    }

    /// The durable decision for `gtid`: `true` iff a commit record exists
    /// (presumed abort otherwise).
    pub fn decision(&self, gtid: u64) -> bool {
        self.words.get((gtid / 64) as usize).is_some_and(|w| w >> (gtid % 64) & 1 == 1)
    }

    /// Every durably committed global id, ascending.
    pub fn committed(&self) -> impl DoubleEndedIterator<Item = u64> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(i, &word)| Bits(word).map(move |bit| i as u64 * 64 + bit as u64))
    }
}

impl fmt::Debug for CoordinatorLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.committed()).finish()
    }
}

/// A set of shards of one fleet: bit `i` is shard `i`. Its width is the
/// most shards a fleet may have ([`ShardSet::CAP`]) — the width of the
/// crash mask [`ShardedSystem::crash_subset`] takes.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSet(u32);

impl ShardSet {
    /// The most shards a fleet may have.
    pub const CAP: usize = u32::BITS as usize;

    /// Shards `0..n`.
    fn first_n(n: usize) -> Self {
        ShardSet(u32::MAX >> (Self::CAP - n))
    }

    /// The set as a crash mask: bit `i` is shard `i`.
    pub fn mask(self) -> u32 {
        self.0
    }

    /// The number of shards in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest shard in the set.
    pub fn first(self) -> Option<usize> {
        self.into_iter().next()
    }

    /// Whether shard `s` is in the set.
    pub fn contains(self, s: usize) -> bool {
        s < Self::CAP && self.0 >> s & 1 == 1
    }

    /// The set with shard `s` added.
    fn with(self, s: usize) -> Self {
        ShardSet(self.0 | 1 << s)
    }

    /// The set without shard `s`.
    fn without(self, s: usize) -> Self {
        ShardSet(self.0 & !(1 << s))
    }
}

impl IntoIterator for ShardSet {
    type Item = usize;
    type IntoIter = Bits;

    /// The shards, ascending.
    fn into_iter(self) -> Bits {
        Bits(u64::from(self.0))
    }
}

impl fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(*self).finish()
    }
}

/// The positions of a word's set bits, ascending (and from the top with
/// `next_back`): how a [`ShardSet`] lists its shards and the
/// [`CoordinatorLog`] its commits.
#[derive(Clone, Debug)]
pub struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let bit = (self.0 != 0).then(|| self.0.trailing_zeros() as usize)?;
        self.0 &= self.0 - 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Bits {
    fn next_back(&mut self) -> Option<usize> {
        let bit = (self.0 != 0).then(|| 63 - self.0.leading_zeros() as usize)?;
        self.0 &= !(1 << bit);
        Some(bit)
    }
}

impl ExactSizeIterator for Bits {}

/// A live cross-shard transaction: one local transaction per participant
/// shard, plus which of those participants hold a durable PREPARE. The
/// live table recycles the list.
#[derive(Clone, Debug, Default)]
struct GlobalTxn {
    /// `(shard, local transaction)`, ascending by shard.
    parts: Vec<(usize, TxnId)>,
    /// The participants whose yes-vote is durable.
    prepared: ShardSet,
}

impl GlobalTxn {
    /// The participant shards.
    fn shards(&self) -> ShardSet {
        self.parts.iter().fold(ShardSet::default(), |set, &(s, _)| set.with(s))
    }

    /// Where shard `s`'s row is (`Ok`) or would go (`Err`).
    fn slot(&self, s: usize) -> Result<usize, usize> {
        self.parts.binary_search_by_key(&s, |&(p, _)| p)
    }
}

impl Reusable for GlobalTxn {
    fn reset(&mut self) {
        self.parts.clear();
        self.prepared = ShardSet::default();
    }
}

/// `n` durable systems, each holding and recovering only the objects it
/// owns (`ObjectId % n`), coordinated by presumed-abort 2PC. See the
/// module docs for the protocol.
pub struct ShardedSystem<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    shards: Vec<DurableSystem<A, E, C, B>>,
    coord: CoordinatorLog,
    next_gtid: u64,
    live: TxnTable<GlobalTxn, u64>,
}

impl<A, E, C, B> ShardedSystem<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A> + Clone,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    /// Build a fleet from per-shard constructors: `make(i)` builds shard
    /// `i` fresh over the whole object space `0..n`, and the fleet keeps of
    /// it only the objects routed there, `{o : o % nshards == i}`. Each
    /// object is its own unit of recovery, so that share is the shard's
    /// whole recovery domain: its object table, its checkpoint image and
    /// every rebuild (crash recovery, the degrade rebuild) hold exactly
    /// those objects. At most [`ShardSet::CAP`] shards.
    pub fn new_with(
        nshards: usize,
        mut make: impl FnMut(usize) -> DurableSystem<A, E, C, B>,
    ) -> Self {
        assert!(nshards >= 1, "a fleet needs at least one shard");
        assert!(nshards <= ShardSet::CAP, "a fleet has at most {} shards", ShardSet::CAP);
        let own = |s: usize| {
            let mut shard = make(s);
            shard.keep_share(Share::new(s, nshards));
            shard
        };
        ShardedSystem {
            shards: (0..nshards).map(own).collect(),
            coord: CoordinatorLog::default(),
            next_gtid: 1,
            live: TxnTable::new(),
        }
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `obj`.
    pub fn shard_of(&self, obj: ObjectId) -> usize {
        obj.0 as usize % self.shards.len()
    }

    /// Shared access to shard `i`.
    pub fn shard(&self, i: usize) -> &DurableSystem<A, E, C, B> {
        &self.shards[i]
    }

    /// Mutable access to shard `i` (fault injection, state reads).
    pub fn shard_mut(&mut self, i: usize) -> &mut DurableSystem<A, E, C, B> {
        &mut self.shards[i]
    }

    /// The coordinator's durable commit set.
    pub fn coordinator(&self) -> &CoordinatorLog {
        &self.coord
    }

    /// The next global id the allocator will hand out (model checker's
    /// canonical state key).
    pub fn next_gtid(&self) -> u64 {
        self.next_gtid
    }

    /// Begin a global transaction. Local transactions are begun lazily on
    /// the first operation routed to each shard.
    pub fn begin_global(&mut self) -> u64 {
        let gtid = self.next_gtid;
        self.next_gtid += 1;
        self.live.open(gtid);
        gtid
    }

    /// Execute one operation of global transaction `gtid` on the shard
    /// owning `obj`.
    pub fn invoke_global(
        &mut self,
        gtid: u64,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        let s = self.shard_of(obj);
        let Some(gt) = self.live.get_mut(&gtid) else {
            return Err(TxnError::NotActive(TxnId(gtid as u32)));
        };
        let txn = match gt.slot(s) {
            Ok(at) => gt.parts[at].1,
            Err(at) => {
                let t = self.shards[s].begin();
                gt.parts.insert(at, (s, t));
                t
            }
        };
        self.shards[s].invoke(txn, obj, inv)
    }

    /// The participant shards of a live global transaction (empty for any
    /// other id).
    pub fn participants(&self, gtid: u64) -> ShardSet {
        self.live.get(&gtid).map_or(ShardSet::default(), GlobalTxn::shards)
    }

    /// Abort a global transaction everywhere: local aborts on unprepared
    /// participants, durable abort decisions on prepared ones. Per
    /// presumed abort the coordinator records nothing.
    pub fn abort_global(&mut self, gtid: u64) {
        self.abort_global_after(ShardSet::default(), gtid);
    }

    /// [`abort_global`](Self::abort_global) after the shards in `crashed`
    /// lost power: their unprepared halves evaporated with them, and the
    /// dead local ids must not be aborted again.
    fn abort_global_after(&mut self, crashed: ShardSet, gtid: u64) {
        let Some(gt) = self.live.remove(&gtid) else { return };
        for &(s, txn) in &gt.parts {
            if gt.prepared.contains(s) {
                let _ = self.shards[s].resolve(gtid, false);
            } else if !crashed.contains(s) {
                let _ = self.shards[s].abort(txn);
            }
        }
        self.live.recycle(gt);
    }

    /// 2PC phase one: collect a durable yes-vote from every participant,
    /// in shard order. Any no-vote (degraded shard, crashed device, dead
    /// transaction) aborts the transaction globally — prepared
    /// participants get a durable abort decision, unprepared ones a local
    /// abort — and surfaces the vote's error. On `Ok` every participant
    /// holds a durable PREPARE and awaits the decision.
    pub fn prepare_all(&mut self, gtid: u64) -> Result<(), TxnError> {
        let Some(gt) = self.live.get_mut(&gtid) else {
            return Err(TxnError::NotActive(TxnId(gtid as u32)));
        };
        let mut vote = Ok(());
        for &(s, txn) in &gt.parts {
            vote = self.shards[s].prepare(txn, gtid);
            if vote.is_err() {
                break;
            }
            gt.prepared = gt.prepared.with(s);
        }
        if vote.is_err() {
            self.abort_global(gtid);
        }
        vote
    }

    /// 2PC decision: durably record commit for a fully prepared
    /// transaction. Panics if a participant has not durably voted —
    /// deciding commit without every yes-vote is a coordinator bug, not a
    /// runtime condition.
    pub fn decide_commit(&mut self, gtid: u64) {
        let gt = self.live.get(&gtid).expect("decide for a live transaction");
        assert!(
            gt.prepared == gt.shards(),
            "coordinator bug: commit decided for gtid {gtid} without every yes-vote"
        );
        self.coord.log_commit(gtid)
    }

    /// 2PC phase two for one participant: durably journal and apply the
    /// decision on shard `s`.
    pub fn resolve_participant(
        &mut self,
        gtid: u64,
        s: usize,
        commit: bool,
    ) -> Result<(), TxnError> {
        self.shards[s].resolve(gtid, commit)?;
        self.settle(gtid, s);
        Ok(())
    }

    /// Scrub the settled half on shard `s` from the live table, dropping
    /// the entry once no part is left.
    fn settle(&mut self, gtid: u64, s: usize) {
        if let Some(gt) = self.live.get_mut(&gtid) {
            if let Ok(at) = gt.slot(s) {
                gt.parts.remove(at);
            }
            gt.prepared = gt.prepared.without(s);
            if gt.parts.is_empty() {
                self.live.close(&gtid);
            }
        }
    }

    /// Commit a global transaction. Single-participant transactions take
    /// the fast path — a plain local commit, no PREPARE/DECIDE frames, no
    /// coordinator record (the shard's own log is the whole recovery
    /// domain). Cross-shard transactions run full presumed-abort 2PC.
    pub fn commit_global(&mut self, gtid: u64) -> Result<(), TxnError> {
        let Some(gt) = self.live.get(&gtid) else {
            return Err(TxnError::NotActive(TxnId(gtid as u32)));
        };
        match *gt.parts {
            [] => {
                self.live.close(&gtid);
                Ok(())
            }
            [(s, txn)] => {
                let r = self.shards[s].commit(txn);
                self.live.close(&gtid);
                r
            }
            _ => {
                self.prepare_all(gtid)?;
                self.decide_commit(gtid);
                for s in self.participants(gtid) {
                    self.resolve_participant(gtid, s, true)?;
                }
                Ok(())
            }
        }
    }

    /// Crash the shard subset named by `mask` (bit `i` ⇒ shard `i`), each
    /// recovering under [`TornPolicy::DiscardTail`] — a torn tail is a
    /// commit (or prepare) that never finished, which presumed abort
    /// already accounts for. A live global transaction that lost an
    /// *unprepared* half (its volatile operations evaporated with the
    /// shard) can never collect that yes-vote: it is aborted globally —
    /// prepared halves anywhere get a durable abort decision (a ghost
    /// resolves by gtid just like a live preparee), unprepared halves on
    /// surviving shards a local abort. A transaction whose crashed halves
    /// were all *prepared* stays live: its doubt is durable, and the
    /// still-running coordinator may yet decide either way.
    pub fn crash_subset(&mut self, mask: u32) -> Result<(), RedoError> {
        let crashed = ShardSet(mask & ShardSet::first_n(self.shards.len()).mask());
        if crashed.is_empty() {
            return Ok(());
        }
        for s in crashed {
            self.shards[s].crash_and_recover_with(TornPolicy::DiscardTail)?;
        }
        let doomed: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, gt)| gt.shards().mask() & !gt.prepared.mask() & crashed.mask() != 0)
            .map(|(&g, _)| g)
            .collect();
        for gtid in doomed {
            debug_assert!(!self.coord.decision(gtid), "commit decided without every yes-vote");
            self.abort_global_after(crashed, gtid);
        }
        Ok(())
    }

    /// Crash the coordinator: its volatile memory (live transaction table,
    /// id allocator) is lost; only [`CoordinatorLog`]'s durable commit set
    /// survives. Participants keep running — unprepared halves of orphaned
    /// transactions are aborted locally, prepared halves stay in doubt
    /// until [`resolve_in_doubt`](Self::resolve_in_doubt). The global-id
    /// allocator restarts above every id with a durable trace (a decision
    /// record or an in-doubt prepare), so no live id is ever reissued.
    pub fn crash_coordinator(&mut self) {
        for (_, gt) in &self.live {
            for &(s, txn) in &gt.parts {
                // A prepared half stays in doubt on its shard.
                if !gt.prepared.contains(s) {
                    let _ = self.shards[s].abort(txn);
                }
            }
        }
        self.live.retain(|_| false);
        // The greatest committed id is the last one: the set holds every
        // cross-shard commit ever decided and must not be walked here.
        let newest = self.coord.committed().next_back();
        let floor = newest.into_iter().chain(self.in_doubt()).max().unwrap_or(0);
        self.next_gtid = floor + 1;
    }

    /// Settle every in-doubt transaction on every shard from durable
    /// truth: the coordinator's commit record if one exists, presumed
    /// abort otherwise. Returns the number resolved. Idempotent —
    /// resolution is itself durable, so a crash mid-settlement just leaves
    /// fewer entries for the retry.
    pub fn resolve_in_doubt(&mut self) -> usize {
        let mut resolved = 0;
        for s in 0..self.shards.len() {
            for gtid in self.shards[s].in_doubt() {
                let commit = self.coord.decision(gtid);
                if self.shards[s].resolve_in_doubt(gtid, commit).is_ok() {
                    resolved += 1;
                    // The ghost's pre-crash TxnId is long dead.
                    self.settle(gtid, s);
                }
            }
        }
        resolved
    }

    /// Global ids in doubt anywhere in the fleet, ascending, deduplicated.
    pub fn in_doubt(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.shards.iter().flat_map(DurableSystem::in_doubt).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Capture the complete fleet state — every shard's volatile + stable
    /// snapshot, the coordinator log, the id allocator and the live
    /// transaction table — for later [`restore`](Self::restore). The
    /// sharded model checker's DFS fork point.
    pub fn snapshot(&self) -> ShardedSnapshot<A, E, C, B> {
        ShardedSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            coord: self.coord.clone(),
            next_gtid: self.next_gtid,
            live: self.live.clone(),
        }
    }

    /// Rewind to a snapshot taken from this (or an identically configured)
    /// fleet. Non-consuming.
    pub fn restore(&mut self, snap: &ShardedSnapshot<A, E, C, B>) {
        assert_eq!(self.shards.len(), snap.shards.len(), "snapshot from a different fleet");
        for (shard, s) in self.shards.iter_mut().zip(&snap.shards) {
            shard.restore(s);
        }
        self.coord = snap.coord.clone();
        self.next_gtid = snap.next_gtid;
        self.live = snap.live.clone();
    }
}

/// A restorable snapshot of a whole [`ShardedSystem`]: one
/// [`SystemSnapshot`] per shard plus the coordinator log, the global-id
/// allocator and the live cross-shard transaction table.
pub struct ShardedSnapshot<A, E, C, B>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A>,
    B: LogBackend<A>,
{
    shards: Vec<SystemSnapshot<A, E, C, B>>,
    coord: CoordinatorLog,
    next_gtid: u64,
    live: TxnTable<GlobalTxn, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::SystemMode;
    use crate::engine::UipEngine;
    use crate::oracle::{check_uniform_outcome, GlobalAtomicityViolation};
    use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv};
    use ccr_store::{MemBackend, WalBackend, WalConfig};

    type Sharded = ShardedSystem<
        BankAccount,
        UipEngine<BankAccount>,
        ccr_core::conflict::FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;

    /// Two disk-backed shards over four objects: 0/2 live on shard 0,
    /// 1/3 on shard 1.
    fn fleet(nshards: usize) -> Sharded {
        ShardedSystem::new_with(nshards, |_| {
            DurableSystem::with_backend(
                BankAccount::default(),
                4,
                bank_nrbc(),
                WalBackend::new(WalConfig::default()),
            )
        })
    }

    const S0: ObjectId = ObjectId(0);
    const S1: ObjectId = ObjectId(1);

    #[test]
    fn cross_shard_commit_is_durable_on_every_shard() {
        let mut sys = fleet(2);
        let g = sys.begin_global();
        sys.invoke_global(g, S0, BankInv::Deposit(10)).unwrap();
        sys.invoke_global(g, S1, BankInv::Deposit(20)).unwrap();
        assert!(sys.participants(g).into_iter().eq([0, 1]));
        sys.commit_global(g).unwrap();
        sys.crash_subset(0b11).unwrap();
        assert!(sys.in_doubt().is_empty());
        assert_eq!(sys.shard_mut(0).committed_state(S0), 10);
        assert_eq!(sys.shard_mut(1).committed_state(S1), 20);
        // The decision was journaled per participant: each shard's own log
        // replays it without the coordinator.
        assert!(sys.coordinator().decision(g));
    }

    #[test]
    fn single_participant_commit_skips_two_phase() {
        let mut sys = fleet(2);
        let g = sys.begin_global();
        sys.invoke_global(g, S0, BankInv::Deposit(7)).unwrap();
        sys.commit_global(g).unwrap();
        // Fast path: no coordinator record, no prepare/decide frames.
        assert!(!sys.coordinator().decision(g));
        assert_eq!(sys.shard(0).stats().prepares, 0);
        sys.crash_subset(0b01).unwrap();
        assert_eq!(sys.shard_mut(0).committed_state(S0), 7);
    }

    #[test]
    fn lost_decision_record_is_caught_by_the_uniformity_leg() {
        let mut sys = fleet(2);
        let g = sys.begin_global();
        sys.invoke_global(g, S0, BankInv::Deposit(10)).unwrap();
        sys.invoke_global(g, S1, BankInv::Deposit(20)).unwrap();
        sys.prepare_all(g).unwrap();
        // Sabotage: the commit decision never lands (no `decide_commit`)...
        // ...but shard 0 is told to commit before anyone notices...
        sys.resolve_participant(g, 0, true).unwrap();
        // ...and shard 1 dies in doubt. Settlement presumes abort there.
        sys.crash_subset(0b10).unwrap();
        assert_eq!(sys.resolve_in_doubt(), 1);
        assert!(!sys.coordinator().decision(g));
        // Mixed outcome: exactly what the eighth leg exists to catch.
        let err = check_uniform_outcome(&[(g, vec![0, 1])], |_, s| {
            sys.shard_mut(s).committed_state(ObjectId(s as u32)) != 0
        })
        .unwrap_err();
        assert_eq!(
            err,
            GlobalAtomicityViolation { gtid: g, committed_on: vec![0], aborted_on: vec![1] }
        );
    }

    #[test]
    fn degraded_shard_never_blocks_commits_that_avoid_it() {
        let mut sys = fleet(2);
        // Shard 1's device fills up and its next commit degrades it.
        sys.shard_mut(1).backend_mut().disk_mut().set_full(true);
        let g = sys.begin_global();
        sys.invoke_global(g, S1, BankInv::Deposit(1)).unwrap();
        assert!(sys.commit_global(g).is_err());
        assert_eq!(sys.shard(1).mode(), SystemMode::Degraded);
        // A transaction touching only shard 0 commits unimpeded.
        let h = sys.begin_global();
        sys.invoke_global(h, S0, BankInv::Deposit(5)).unwrap();
        sys.commit_global(h).unwrap();
        assert_eq!(sys.shard_mut(0).committed_state(S0), 5);
        // A cross-shard transaction gets shard 1's no-vote and aborts
        // uniformly — shard 0's half must not commit.
        let k = sys.begin_global();
        sys.invoke_global(k, S0, BankInv::Deposit(100)).unwrap();
        sys.invoke_global(k, S1, BankInv::Deposit(100)).unwrap();
        assert!(matches!(sys.commit_global(k), Err(TxnError::ReadOnly)));
        assert_eq!(sys.shard_mut(0).committed_state(S0), 5);
        assert_eq!(sys.shard_mut(1).committed_state(S1), 0);
        assert!(sys.in_doubt().is_empty());
    }

    /// As many shards as the crash mask is wide: the full mask reaches the
    /// last one, and a transaction with an unprepared half there aborts.
    #[test]
    fn a_full_crash_mask_reaches_the_last_of_thirty_two_shards() {
        let mut sys: ShardedSystem<_, UipEngine<_>, _, MemBackend<_>> =
            ShardedSystem::new_with(32, |_| {
                DurableSystem::new(BankAccount::default(), 32, bank_nrbc())
            });
        let last = ObjectId(31);
        let g = sys.begin_global();
        sys.invoke_global(g, last, BankInv::Deposit(1)).unwrap();
        sys.crash_subset(u32::MAX).unwrap();
        assert!(sys.participants(g).is_empty());
        assert!(matches!(sys.commit_global(g), Err(TxnError::NotActive(_))));
        // The half evaporated with its shard, lock and all.
        let h = sys.begin_global();
        sys.invoke_global(h, last, BankInv::Balance).unwrap();
        sys.commit_global(h).unwrap();
        assert_eq!(sys.shard_mut(31).committed_state(last), 0);
    }

    #[test]
    #[should_panic(expected = "at most 32 shards")]
    fn a_fleet_is_no_wider_than_a_shard_set() {
        ShardedSystem::<_, UipEngine<_>, _, MemBackend<_>>::new_with(33, |_| {
            DurableSystem::new(BankAccount::default(), 1, bank_nrbc())
        });
    }

    #[test]
    fn shard_sets_and_the_decision_log_list_in_order() {
        let set = ShardSet(0b1000_0000_0000_0000_0000_0000_0010_0110);
        assert_eq!((set.len(), set.first(), set.mask()), (4, Some(1), set.0));
        assert!(set.into_iter().eq([1, 2, 5, 31]));
        assert!(set.into_iter().rev().eq([31, 5, 2, 1]));
        assert_eq!(format!("{set:?}"), "{1, 2, 5, 31}");
        assert!(ShardSet::default().is_empty() && ShardSet::default().first().is_none());
        assert_eq!(ShardSet::first_n(32).mask(), u32::MAX);

        let mut log = CoordinatorLog::default();
        for g in [200, 3, 64, 63] {
            log.log_commit(g);
        }
        assert!(log.committed().eq([3, 63, 64, 200]));
        assert_eq!(log.committed().next_back(), Some(200));
        assert!((0..300).all(|g| log.decision(g) == [3, 63, 64, 200].contains(&g)));
        assert_eq!(format!("{log:?}"), "{3, 63, 64, 200}");
    }

    #[test]
    fn coordinator_restart_reissues_no_traced_gtid() {
        let mut sys = fleet(2);
        let g = sys.begin_global();
        sys.invoke_global(g, S0, BankInv::Deposit(1)).unwrap();
        sys.invoke_global(g, S1, BankInv::Deposit(1)).unwrap();
        sys.commit_global(g).unwrap();
        let h = sys.begin_global();
        sys.invoke_global(h, S0, BankInv::Deposit(2)).unwrap();
        sys.invoke_global(h, S1, BankInv::Deposit(2)).unwrap();
        sys.prepare_all(h).unwrap();
        sys.crash_coordinator();
        // Both the decided gtid and the in-doubt one stay retired.
        let next = sys.begin_global();
        assert!(next > g && next > h);
        sys.resolve_in_doubt();
        assert_eq!(sys.shard_mut(0).committed_state(S0), 1);
    }
}
