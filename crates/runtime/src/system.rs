//! The transactional object system: conflict-based locking over pluggable
//! recovery engines.
//!
//! `TxnSystem` is the executable counterpart of the paper's
//! `I(X, Spec, View, Conflict)` automaton (§4), generalised to many objects
//! with atomic commitment across them:
//!
//! * **locks are implicit**: the operations a transaction has executed at an
//!   object are its locks; they are released when it commits or aborts;
//! * an invocation executes only if its operation (invocation *plus* chosen
//!   response) conflicts with no operation held by another active
//!   transaction — otherwise the caller gets [`TxnError::Blocked`] and the
//!   wait-for edges are registered here, where deadlock detection reads them;
//! * responses are chosen against the recovery engine's view, so the same
//!   system runs update-in-place or deferred-update by swapping the engine.
//!
//! Every event is recorded in a [`History`], so entire executions can be
//! checked dynamic atomic by `ccr-core` — the strongest end-to-end invariant
//! in the test suite.

use std::collections::BTreeSet;
use std::sync::Arc;

use ccr_core::adt::{Adt, Op};
use ccr_core::conflict::Conflict;
use ccr_core::history::{Event, History};
use ccr_core::ids::{ObjectId, TxnId, TxnTable};
use ccr_obs::{AbortCause, Phase, Tracer, WaitGraph};
use ccr_store::CommitRecord;

use crate::crash::RedoError;
use crate::engine::RecoveryEngine;
use crate::error::{AbortReason, RecoveryError, TxnError};

pub use ccr_obs::SystemStats;

/// What to do when a requested operation conflicts with held operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConflictPolicy {
    /// Return [`TxnError::Blocked`]; the caller waits for a holder to
    /// complete (deadlocks are possible and handled by detection).
    #[default]
    Block,
    /// Wound-wait (Rosenkrantz et al.): an **older** requester wounds
    /// (aborts) younger conflicting holders and proceeds; a requester with an
    /// older conflicting holder waits for the older ones (any younger ones
    /// are wounded on the retry, once the older have finished). Waits only
    /// ever point from younger to older transactions, so the wait-for graph
    /// is acyclic — deadlock-free by construction (asserted in tests).
    WoundWait,
    /// No-wait: a conflicting requester is aborted immediately (it never
    /// waits). Trivially deadlock-free; trades waiting for retry work.
    NoWait,
}

impl ConflictPolicy {
    /// Short lowercase label (tracer/exporter metadata).
    pub fn label(self) -> &'static str {
        match self {
            ConflictPolicy::Block => "block",
            ConflictPolicy::WoundWait => "wound-wait",
            ConflictPolicy::NoWait => "no-wait",
        }
    }
}

/// Render an operation's kind for the observed-conflict matrix: invocation
/// constructor `->` response constructor — the granularity of the paper's
/// per-kind conflict tables (e.g. `Withdraw->Ok` and `Withdraw->No` are
/// distinct operations, distinguished by their response).
fn op_kind_label<A: Adt>(op: &Op<A>) -> String {
    fn ctor(s: &str) -> &str {
        s.split(['(', ' ', '{']).next().unwrap_or(s)
    }
    let inv = format!("{:?}", op.inv);
    let resp = format!("{:?}", op.resp);
    format!("{}->{}", ctor(&inv), ctor(&resp))
}

/// A transactional system over objects of a single ADT type `A`, one engine
/// `E` per object, and a shared conflict relation `C`.
///
/// # Examples
///
/// ```
/// use ccr_adt::bank::{bank_nrbc, BankAccount, BankInv, BankResp};
/// use ccr_core::ids::ObjectId;
/// use ccr_runtime::{TxnSystem, UipEngine};
///
/// let mut sys: TxnSystem<BankAccount, UipEngine<BankAccount>, _> =
///     TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
/// let a = sys.begin();
/// let b = sys.begin();
/// sys.invoke(a, ObjectId::SOLE, BankInv::Deposit(5)).unwrap();
/// // Deposits commute: b proceeds while a's deposit is uncommitted.
/// assert_eq!(sys.invoke(b, ObjectId::SOLE, BankInv::Deposit(3)).unwrap(), BankResp::Ok);
/// sys.commit(a).unwrap();
/// sys.commit(b).unwrap();
/// assert_eq!(sys.committed_state(ObjectId::SOLE), 8);
/// ```
pub struct TxnSystem<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> {
    conflict: C,
    objects: Objects<A, E>,
    /// Active transactions, each with the objects it holds operations at,
    /// ascending: `obj ∈ active[t]` iff `objects[obj].held` has an entry for
    /// `t`. Commit and abort release exactly these, in that order.
    active: TxnTable<Vec<ObjectId>>,
    next_txn: u32,
    /// (waiter, holders) wait-for edges from the last `Blocked` results,
    /// holders ascending.
    waits: TxnTable<Vec<TxnId>>,
    /// Transactions aborted by the wound-wait policy whose owners have not
    /// yet observed the abort.
    wounded: TxnTable<()>,
    policy: ConflictPolicy,
    trace: History<A>,
    /// Structured tracer; the stats counters are a projection of its events.
    obs: Tracer,
    record_trace: bool,
    /// Scratch for the holders an invocation conflicts with; kept for its
    /// capacity, meaningless between calls.
    blockers: Vec<TxnId>,
    /// Emptied lock vectors of objects that went quiet, for the next object
    /// somebody takes a first lock at.
    lock_lists: Vec<LockList<A>>,
}

/// How many emptied lock vectors the system keeps: room for every object a
/// few dozen short transactions hold at once, however many objects exist.
const SPARE_LOCK_LISTS: usize = 64;

/// An object: its engine, its locks, and the spec it shares with its engine.
#[derive(Clone)]
struct ObjectRt<A: Adt, E> {
    engine: E,
    held: Held<A>,
    adt: Arc<A>,
}

impl<A: Adt, E: RecoveryEngine<A>> ObjectRt<A, E> {
    fn new(adt: Arc<A>, obj: ObjectId) -> Self {
        ObjectRt { engine: E::new(Arc::clone(&adt), obj), held: Held(Vec::new()), adt }
    }
}

/// The objects of `0..n` one system holds: every id `o` with
/// `o % of == index`. A lone system holds them all ([`Share::ALL`]); shard
/// `s` of an `n`-shard fleet holds `Share::new(s, n)`, exactly the objects
/// the fleet routes to it, so its checkpoint image, its recovery and its
/// object table are the size of its share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Share {
    index: u32,
    of: u32,
}

impl Share {
    /// Every object.
    pub(crate) const ALL: Share = Share { index: 0, of: 1 };

    /// Share `index` of `of`.
    pub(crate) fn new(index: usize, of: usize) -> Self {
        assert!(index < of, "share {index} of {of}");
        Share { index: index as u32, of: of as u32 }
    }

    /// Whether `obj` is in the share.
    fn holds(self, obj: ObjectId) -> bool {
        obj.0 % self.of == self.index
    }

    /// The share's ids below `n`, ascending.
    fn ids(self, n: u32) -> impl Iterator<Item = ObjectId> {
        (self.index..n).step_by(self.of as usize).map(ObjectId)
    }
}

/// The objects, in a vector sorted by id. When the ids are evenly spaced —
/// `0..n` ([`TxnSystem::new`]) or a fleet shard's `s, s + n, s + 2n, …` —
/// `ObjectId(i)` sits at slot `i / stride` and is found there without a
/// search: a shift when the stride is a power of two (stride 1 included), a
/// division otherwise. Ids past a gap ([`TxnSystem::new_with`]) are found
/// by binary search.
struct Objects<A: Adt, E> {
    slots: Vec<(ObjectId, ObjectRt<A, E>)>,
    stride: u32,
    /// `stride`'s log2 when it is a power of two.
    shift: u32,
}

impl<A: Adt, E> Objects<A, E> {
    /// As a map built from the same pairs would be: ascending, and of two
    /// entries with one id the later one stays.
    fn new(mut slots: Vec<(ObjectId, ObjectRt<A, E>)>) -> Self {
        slots.sort_by_key(|(id, _)| *id);
        slots.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        Self::spaced(slots, 1)
    }

    /// Ascending slots whose ids are `stride` apart.
    fn spaced(slots: Vec<(ObjectId, ObjectRt<A, E>)>, stride: u32) -> Self {
        Objects { slots, stride, shift: stride.trailing_zeros() }
    }

    fn slot(&self, obj: ObjectId) -> Option<usize> {
        let shifted = self.stride == 1 << self.shift;
        let dense = if shifted { obj.0 >> self.shift } else { obj.0 / self.stride } as usize;
        if self.slots.get(dense).is_some_and(|(id, _)| *id == obj) {
            return Some(dense);
        }
        self.slots.binary_search_by_key(&obj, |(id, _)| *id).ok()
    }

    fn get(&self, obj: &ObjectId) -> Option<&ObjectRt<A, E>> {
        self.slot(*obj).map(|slot| &self.slots[slot].1)
    }

    fn get_mut(&mut self, obj: &ObjectId) -> Option<&mut ObjectRt<A, E>> {
        self.slot(*obj).map(|slot| &mut self.slots[slot].1)
    }

    fn keys(&self) -> impl Iterator<Item = &ObjectId> {
        self.slots.iter().map(|(id, _)| id)
    }
}

/// Implicit locks at one object: the operations each active transaction has
/// executed here, in one vector sorted by transaction (a transaction's
/// operations in execution order). A release drains a range, so while
/// anybody holds an operation here the vector keeps its capacity and the
/// object allocates nothing; an object nobody holds anything at keeps no
/// memory for locks — its vector goes to the system's bounded pool of spares
/// and the next object to be locked picks it up.
struct Held<A: Adt>(LockList<A>);

type LockList<A> = Vec<(TxnId, Op<A>)>;

impl<A: Adt> Clone for Held<A> {
    fn clone(&self) -> Self {
        Held(self.0.clone())
    }
}

impl<A: Adt> Held<A> {
    fn push(&mut self, txn: TxnId, op: Op<A>, spares: &mut Vec<LockList<A>>) {
        if self.0.capacity() == 0 {
            self.0 = spares.pop().unwrap_or_default();
        }
        let at = self.0.partition_point(|(holder, _)| *holder <= txn);
        self.0.insert(at, (txn, op));
    }

    fn remove(&mut self, txn: &TxnId, spares: &mut Vec<LockList<A>>) {
        let from = self.0.partition_point(|(holder, _)| holder < txn);
        let len = self.0[from..].partition_point(|(holder, _)| holder == txn);
        self.0.drain(from..from + len);
        // A redone commit held nothing here, and has no list to give back.
        if self.0.is_empty() && self.0.capacity() > 0 {
            let quiet = std::mem::take(&mut self.0);
            if spares.len() < SPARE_LOCK_LISTS {
                spares.push(quiet);
            }
        }
    }
}

/// Iterates `(holder, its operations)`, holders ascending.
impl<'a, A: Adt> IntoIterator for &'a Held<A> {
    type Item = (&'a TxnId, &'a [(TxnId, Op<A>)]);
    type IntoIter = Holders<'a, A>;

    fn into_iter(self) -> Holders<'a, A> {
        Holders(&self.0)
    }
}

struct Holders<'a, A: Adt>(&'a [(TxnId, Op<A>)]);

impl<'a, A: Adt> Iterator for Holders<'a, A> {
    type Item = (&'a TxnId, &'a [(TxnId, Op<A>)]);

    fn next(&mut self) -> Option<Self::Item> {
        let (holder, _) = self.0.first()?;
        let len = self.0.iter().position(|(t, _)| t != holder).unwrap_or(self.0.len());
        let (ops, rest) = self.0.split_at(len);
        self.0 = rest;
        Some((holder, ops))
    }
}

// Snapshot hook for the model checker: cloning a `TxnSystem` duplicates
// every object's engine, the lock table, the wait graph and the tracer, so
// an explorer can fork execution at any decision point — contents only,
// never scratch or spare capacity. A manual impl (rather than `derive`)
// keeps the bounds honest: `derive` would demand `A: Clone` on the *derived*
// impl twice over and, more importantly, hide that `E` and `C` must
// themselves be snapshot-able.
impl<A: Adt, E: RecoveryEngine<A> + Clone, C: Conflict<A> + Clone> Clone for TxnSystem<A, E, C> {
    fn clone(&self) -> Self {
        TxnSystem {
            conflict: self.conflict.clone(),
            objects: Objects { slots: self.objects.slots.clone(), ..self.objects },
            active: self.active.clone(),
            next_txn: self.next_txn,
            waits: self.waits.clone(),
            wounded: self.wounded.clone(),
            policy: self.policy,
            trace: self.trace.clone(),
            obs: self.obs.clone(),
            record_trace: self.record_trace,
            blockers: Vec::new(),
            lock_lists: Vec::new(),
        }
    }
}

impl<A: Adt, E: RecoveryEngine<A>, C: Conflict<A>> TxnSystem<A, E, C> {
    /// Create a system with objects `0..n`, all sharing specification `adt`
    /// (owned, or an `Arc` shared with whoever else holds it).
    pub fn new(adt: impl Into<Arc<A>>, n_objects: u32, conflict: C) -> Self {
        Self::new_share(adt.into(), n_objects, Share::ALL, conflict)
    }

    /// Create a system with the objects of `0..n` in `share`, all sharing
    /// specification `adt`.
    pub(crate) fn new_share(adt: Arc<A>, n_objects: u32, share: Share, conflict: C) -> Self {
        let slots = share.ids(n_objects).map(|id| (id, ObjectRt::new(Arc::clone(&adt), id)));
        Self::over(Objects::spaced(slots.collect(), share.of), conflict)
    }

    /// Create a system with explicitly configured objects — use when
    /// objects carry different specifications (e.g. different sides of a
    /// [`SumAdt`](https://docs.rs/ccr-adt) sum, or different capacities).
    pub fn new_with(objects: Vec<(ObjectId, A)>, conflict: C) -> Self {
        let slots = objects.into_iter().map(|(obj, adt)| (obj, ObjectRt::new(Arc::new(adt), obj)));
        Self::over(Objects::new(slots.collect()), conflict)
    }

    fn over(objects: Objects<A, E>, conflict: C) -> Self {
        TxnSystem {
            obs: Self::init_obs(&conflict),
            conflict,
            objects,
            active: TxnTable::new(),
            next_txn: 0,
            waits: TxnTable::new(),
            wounded: TxnTable::new(),
            policy: ConflictPolicy::Block,
            trace: History::new(),
            record_trace: true,
            blockers: Vec::new(),
            lock_lists: Vec::new(),
        }
    }

    fn init_obs(conflict: &C) -> Tracer {
        let mut obs = Tracer::new();
        obs.set_label("conflict", conflict.name());
        obs.set_label("policy", ConflictPolicy::Block.label());
        obs
    }

    /// Select the conflict policy (default: [`ConflictPolicy::Block`]).
    pub fn with_policy(mut self, policy: ConflictPolicy) -> Self {
        self.set_policy(policy);
        self
    }

    /// Set the conflict policy in place (for systems behind wrappers that
    /// obstruct the builder form, e.g. [`crate::crash::DurableSystem`]).
    pub fn set_policy(&mut self, policy: ConflictPolicy) {
        self.policy = policy;
        self.obs.set_label("policy", policy.label());
    }

    /// The conflict policy in force.
    pub fn policy(&self) -> ConflictPolicy {
        self.policy
    }

    /// Whether events are being recorded into the [`trace`](Self::trace).
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }

    /// Disable history recording (for long benchmark runs). Structured
    /// tracer events are controlled separately via
    /// [`obs_mut`](Self::obs_mut) — the atomicity oracle needs the history
    /// even when nobody wants a rendered trace, and vice versa.
    pub fn set_record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Begin a new transaction.
    pub fn begin(&mut self) -> TxnId {
        let t = TxnId(self.next_txn);
        self.next_txn += 1;
        self.active.open(t);
        self.obs.on_begin(t);
        t
    }

    /// Execute one operation of `txn` at `obj`.
    ///
    /// Chooses a legal response from the engine's view; if several are legal
    /// (non-deterministic specifications) it prefers one that does not
    /// conflict with held operations. Returns `Blocked` (with wait-for edges
    /// registered) when every legal response conflicts.
    pub fn invoke(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        inv: A::Invocation,
    ) -> Result<A::Response, TxnError> {
        if self.take_wound(txn) {
            return Err(TxnError::Aborted(AbortReason::ConflictAbort));
        }
        if !self.is_active(txn) {
            return Err(TxnError::NotActive(txn));
        }
        let conflict = &self.conflict;
        let o = self.objects.get_mut(&obj).ok_or(TxnError::NoSuchObject(obj))?;
        if o.engine.is_doomed(txn) {
            self.abort_inner(txn, AbortCause::Validation);
            return Err(TxnError::Aborted(AbortReason::Validation));
        }
        let view = o.engine.view_state(txn);
        let candidates = o.adt.step(&view, &inv);
        if candidates.is_empty() {
            return Err(TxnError::NoLegalResponse);
        }
        // The whole conflict check + execute is the lock-acquire phase: an
        // operation's implicit lock is granted exactly when a response
        // executes conflict-free (blocked attempts are failed acquisitions).
        let recording = self.obs.record_events();
        let lock_span = self.obs.span_begin(Phase::LockAcquire);
        let blockers = &mut self.blockers;
        blockers.clear();
        // (requested, held) op-kind pairs in conflict, rendered only while
        // events are recorded, attributed to the conflict matrix when every
        // candidate response conflicts.
        let mut pairs: Vec<(String, String)> = Vec::new();
        for (resp, post) in candidates {
            let op = Op::new(inv.clone(), resp.clone());
            let blocked_before = blockers.len();
            for (&holder, ops) in &o.held {
                if holder == txn {
                    continue;
                }
                let mut hit = false;
                for (_, held) in ops {
                    if conflict.conflicts(&op, held) {
                        hit = true;
                        if !recording {
                            break;
                        }
                        pairs.push((op_kind_label::<A>(&op), op_kind_label::<A>(held)));
                    }
                }
                if hit {
                    blockers.push(holder);
                }
            }
            if blockers.len() == blocked_before {
                let rendered = recording.then(|| (format!("{:?}", op.inv), format!("{resp:?}")));
                o.held.push(txn, op.clone(), &mut self.lock_lists);
                self.execute(txn, obj, op, post);
                self.waits.close(&txn);
                self.obs.span_end(lock_span);
                self.obs.on_op(txn, obj, || rendered.expect("rendered when recording"));
                return Ok(resp);
            }
        }
        // Holders come out ascending per candidate; merge the candidates.
        blockers.sort_unstable();
        blockers.dedup();
        // Every legal response conflicted: attribute the exercised pairs
        // before the policy decides who pays for them.
        let rendered_pairs = recording.then_some(pairs);
        self.obs.on_conflict(txn, || rendered_pairs.expect("rendered when recording"));
        self.obs.span_end(lock_span);
        if self.policy == ConflictPolicy::NoWait {
            self.abort_inner(txn, AbortCause::NoWaitConflict);
            return Err(TxnError::Aborted(AbortReason::ConflictAbort));
        }
        if self.policy == ConflictPolicy::WoundWait && self.blockers.iter().all(|b| *b > txn) {
            // Older requester: wound every younger conflicting holder, then
            // retry the invocation against the cleaned lock table.
            self.obs.on_conflict_wound(txn);
            let victims = std::mem::take(&mut self.blockers);
            for &v in &victims {
                let graph = recording.then(|| self.graph_snapshot());
                self.obs.on_wound(v, txn, || graph.unwrap_or_default());
                self.abort_inner(v, AbortCause::Wounded);
                self.wounded.insert(v, ());
            }
            self.blockers = victims;
            return self.invoke(txn, obj, inv);
        }
        // A retry that blocks again rewrites its wait-for edges in place.
        // Under wound-wait the requester waits for its *older* blockers only
        // — the younger ones it wounds on the retry that finds no older one
        // left — so that every edge points from younger to older.
        let older_only = self.policy == ConflictPolicy::WoundWait;
        let edges = self.waits.open(txn);
        edges.clear();
        edges.extend(self.blockers.iter().filter(|b| !older_only || **b < txn));
        let snap =
            recording.then(|| (format!("{inv:?}"), self.blockers.clone(), self.graph_snapshot()));
        self.obs.on_block(txn, obj, || snap.expect("rendered when recording"));
        Err(TxnError::Blocked)
    }

    /// The transactions `txn` registered wait-for edges to when its last
    /// invocation was refused with [`TxnError::Blocked`], ascending; empty
    /// once it has been granted an operation, committed or aborted.
    pub fn waiting_on(&self, txn: TxnId) -> &[TxnId] {
        self.waits.get(&txn).map_or(&[], Vec::as_slice)
    }

    /// Snapshot the wait-for graph (for block/wound events).
    fn graph_snapshot(&self) -> WaitGraph {
        self.waits.iter().map(|(w, hs)| (*w, hs.clone())).collect()
    }

    /// If `txn` was wounded, consume the marker. Returns `true` when the
    /// caller should observe the abort.
    fn take_wound(&mut self, txn: TxnId) -> bool {
        self.wounded.remove(&txn).is_some()
    }

    /// Commit `txn` at all objects it touched (atomic commitment: validate
    /// everywhere, then apply everywhere). On validation failure the
    /// transaction is aborted instead and `Aborted(Validation)` is returned.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), TxnError> {
        if self.take_wound(txn) {
            return Err(TxnError::Aborted(AbortReason::ConflictAbort));
        }
        if !self.is_active(txn) {
            return Err(TxnError::NotActive(txn));
        }
        let validate_span = self.obs.span_begin(Phase::Validate);
        if !self.settle(txn) {
            self.obs.span_end(validate_span);
            self.abort_inner(txn, AbortCause::Validation);
            return Err(TxnError::Aborted(AbortReason::Validation));
        }
        // The span closes after the commit events so the validate+apply
        // window and the journal window tile the commit total exactly (the
        // profiler's tick-coverage check leans on this).
        self.waits.close(&txn);
        self.obs.on_commit(txn);
        self.obs.span_end(validate_span);
        Ok(())
    }

    /// Atomic commitment: validate `txn` everywhere it executed, then commit
    /// and release it there; `false`, applying nothing, if an engine refuses.
    #[inline(always)]
    fn settle(&mut self, txn: TxnId) -> bool {
        let objects = &mut self.objects;
        let valid = self.active[&txn].iter().all(|obj| {
            let o = objects.get_mut(obj).expect("touched object exists");
            o.engine.prepare_commit(txn).is_ok()
        });
        if !valid {
            return false;
        }
        let touched = self.active.remove(&txn).expect("checked active above");
        for &obj in &touched {
            let o = self.objects.get_mut(&obj).expect("touched object exists");
            o.engine.commit(txn);
            o.held.remove(&txn, &mut self.lock_lists);
            if self.record_trace {
                self.trace.push(Event::Commit { txn, obj }).expect("well-formed commit");
            }
        }
        self.active.recycle(touched);
        true
    }

    /// The execute step `invoke` and `redo` share: `txn`'s engine at `obj`
    /// records `op`, the history (when recorded) gets its invocation and
    /// response, and `obj` joins the objects `txn` touched.
    #[inline(always)]
    fn execute(&mut self, txn: TxnId, obj: ObjectId, op: Op<A>, post: A::State) {
        if self.record_trace {
            let (inv, resp) = (op.inv.clone(), op.resp.clone());
            self.trace.push(Event::Invoke { txn, obj, inv }).expect("well-formed invoke");
            self.trace.push(Event::Respond { txn, obj, resp }).expect("well-formed respond");
        }
        self.objects.get_mut(&obj).expect("executing at an object").engine.record(txn, op, post);
        let touched = self.active.get_mut(&txn).expect("executing for an active transaction");
        if let Err(at) = touched.binary_search(&obj) {
            touched.insert(at, obj);
        }
    }

    /// Redo committed record `record` with no transaction active: a fresh
    /// transaction executes each logged operation at the first legal
    /// response of its view — what [`invoke`](Self::invoke) picks when nobody
    /// holds anything — then validates and commits, with no lock, span or
    /// tracer hook. On `Err` the system is fit only to be dropped.
    pub(crate) fn redo(&mut self, record: usize, rec: &CommitRecord<A>) -> Result<(), RedoError> {
        let refused = || RedoError::ReplayRefused { record };
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        self.active.open(txn);
        for (at, (_, obj, op)) in rec.ops.iter().enumerate() {
            let o = self.objects.get_mut(obj).ok_or_else(refused)?;
            let view = o.engine.view_state(txn);
            let (resp, post) = o.adt.step(&view, &op.inv).into_iter().next().ok_or_else(refused)?;
            if resp != op.resp {
                return Err(RedoError::ResponseDiverged { record, op: at });
            }
            self.execute(txn, *obj, op.clone(), post);
        }
        self.settle(txn).then_some(()).ok_or_else(refused)
    }

    /// Abort `txn` (application-requested).
    pub fn abort(&mut self, txn: TxnId) -> Result<(), TxnError> {
        if self.take_wound(txn) {
            return Ok(()); // already aborted by the policy
        }
        if !self.is_active(txn) {
            return Err(TxnError::NotActive(txn));
        }
        self.abort_inner(txn, AbortCause::Requested);
        Ok(())
    }

    /// Abort with an explicit reason (used by schedulers for deadlock
    /// victims and by fault injection).
    pub fn abort_with(&mut self, txn: TxnId, reason: AbortReason) -> Result<(), TxnError> {
        if !self.is_active(txn) {
            return Err(TxnError::NotActive(txn));
        }
        // `ConflictAbort` through this external entry point is a driver or
        // fault-injector decision, not the no-wait policy path — the tracer
        // distinguishes the two so the `conflict_aborts` counter keeps its
        // historical meaning (requesters aborted *by the policy*).
        let cause = match reason {
            AbortReason::Deadlock => AbortCause::Deadlock,
            AbortReason::Validation => AbortCause::Validation,
            AbortReason::Requested => AbortCause::Requested,
            AbortReason::ConflictAbort => AbortCause::External,
            AbortReason::Deadline => AbortCause::Deadline,
        };
        self.abort_inner(txn, cause);
        Ok(())
    }

    fn abort_inner(&mut self, txn: TxnId, cause: AbortCause) {
        if let Some(touched) = self.active.remove(&txn) {
            for &obj in &touched {
                let o = self.objects.get_mut(&obj).expect("touched object exists");
                if let Err(RecoveryError::ReplayFailed { .. }) = o.engine.abort(txn) {
                    self.obs.on_replay_failure(txn, obj);
                }
                o.held.remove(&txn, &mut self.lock_lists);
                if self.record_trace {
                    self.trace.push(Event::Abort { txn, obj }).expect("well-formed abort");
                }
            }
            self.active.recycle(touched);
        }
        self.waits.close(&txn);
        self.obs.on_abort(txn, cause);
    }

    /// Detect a deadlock reachable from `start` in the wait-for graph.
    /// Returns the cycle's transactions if one exists.
    pub fn find_deadlock(&self, start: TxnId) -> Option<Vec<TxnId>> {
        // DFS from `start`; a path returning to a node on the stack is a
        // cycle. Waits only exist for blocked transactions, so graphs are
        // tiny.
        fn dfs(
            waits: &TxnTable<Vec<TxnId>>,
            node: TxnId,
            stack: &mut Vec<TxnId>,
            visited: &mut BTreeSet<TxnId>,
        ) -> Option<Vec<TxnId>> {
            if let Some(pos) = stack.iter().position(|t| *t == node) {
                return Some(stack[pos..].to_vec());
            }
            if !visited.insert(node) {
                return None;
            }
            stack.push(node);
            if let Some(next) = waits.get(&node) {
                for &n in next {
                    if let Some(c) = dfs(waits, n, stack, visited) {
                        return Some(c);
                    }
                }
            }
            stack.pop();
            None
        }
        let mut stack = Vec::new();
        let mut visited = BTreeSet::new();
        dfs(&self.waits, start, &mut stack, &mut visited)
    }

    /// The serial state `txn` currently observes at `obj` (the engine's
    /// realisation of the paper's `View` function) — for inspection and the
    /// cross-crate view-equivalence tests.
    pub fn view_state(&mut self, txn: TxnId, obj: ObjectId) -> Option<A::State> {
        Some(self.objects.get_mut(&obj)?.engine.view_state(txn))
    }

    /// The committed state of `obj`.
    pub fn committed_state(&mut self, obj: ObjectId) -> A::State {
        self.objects
            .get_mut(&obj)
            .unwrap_or_else(|| panic!("no such object {obj}"))
            .engine
            .committed_state()
    }

    /// Every object's committed state, ascending by id, in one walk of the
    /// objects — what a checkpoint image is made of.
    pub fn committed_states(&mut self) -> Vec<(ObjectId, A::State)> {
        self.objects.slots.iter_mut().map(|(id, o)| (*id, o.engine.committed_state())).collect()
    }

    /// Reset `obj`'s engine so `state` is its committed base — crash
    /// recovery seeds freshly built systems from a checkpoint image this way
    /// before replaying the log suffix. Only valid on a system with no
    /// in-flight transactions at `obj`.
    pub fn restore_committed(&mut self, obj: ObjectId, state: A::State) {
        self.objects
            .get_mut(&obj)
            .unwrap_or_else(|| panic!("no such object {obj}"))
            .engine
            .restore(state);
    }

    /// Currently active transactions, in ascending id order.
    pub fn active(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.active.keys().copied()
    }

    /// Whether `txn` is active (begun, neither committed nor aborted).
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }

    /// Drop the entries of a per-transaction side table (a write-ahead
    /// buffer) whose transaction is no longer active — wound-wait victims
    /// are aborted behind their owner's back and never get to clean up.
    /// Every live entry belongs to an active transaction, so the table is
    /// walked only when it has more entries than there are active
    /// transactions; otherwise this is one comparison.
    pub(crate) fn retain_active<T>(&self, table: &mut TxnTable<Vec<T>>) {
        if table.len() > self.active.len() {
            table.retain(|t| self.is_active(t));
        }
    }

    /// The recorded event history.
    pub fn trace(&self) -> &History<A> {
        &self.trace
    }

    /// Execution counters (a projection of the tracer's event stream).
    pub fn stats(&self) -> &SystemStats {
        self.obs.stats()
    }

    /// The structured tracer: events, histograms, labels and counters.
    pub fn obs(&self) -> &Tracer {
        &self.obs
    }

    /// Mutable tracer access (fault injection emits events through this; the
    /// trace subcommand toggles event recording and wall stamping).
    pub fn obs_mut(&mut self) -> &mut Tracer {
        &mut self.obs
    }

    /// Take the tracer out, leaving a fresh one — used by crash recovery to
    /// carry the observability state across the rebuild (the tracer models a
    /// monitoring store that survives the crash, unlike volatile transaction
    /// state).
    pub fn take_obs(&mut self) -> Tracer {
        std::mem::take(&mut self.obs)
    }

    /// Install a tracer wholesale (the other half of
    /// [`take_obs`](Self::take_obs)).
    pub fn set_obs(&mut self, obs: Tracer) {
        self.obs = obs;
    }

    /// The id the next [`begin`](Self::begin) will allocate.
    pub fn next_txn_id(&self) -> u32 {
        self.next_txn
    }

    /// Raise the transaction-id allocator to at least `floor`, so ids stay
    /// globally unique across a crash/rebuild (replayed journal records must
    /// not collide with pre-crash ids recorded in histories).
    pub fn reserve_txn_ids(&mut self, floor: u32) {
        self.next_txn = self.next_txn.max(floor);
    }

    /// The ids of all objects in the system.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// Keep only the objects in `share` (a fleet narrowing a shard it was
    /// handed whole); lookups stay O(1) over the share's spacing. The
    /// dropped objects must hold no operation.
    pub(crate) fn keep_share(&mut self, share: Share) {
        let slots = &mut self.objects.slots;
        slots.retain(|(id, o)| {
            let keep = share.holds(*id);
            assert!(keep || o.held.0.is_empty(), "object {id} outside the share is in use");
            keep
        });
        slots.shrink_to_fit();
        self.objects = Objects::spaced(std::mem::take(slots), share.of);
    }

    /// The serial specification configured at `obj`.
    pub fn adt_of(&self, obj: ObjectId) -> Option<&A> {
        self.objects.get(&obj).map(|o| &*o.adt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DuEngine, UipEngine};
    use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv, BankResp};
    use ccr_core::atomicity::{check_dynamic_atomic, SystemSpec};
    use ccr_core::conflict::FnConflict;

    type BankSys<E> = TxnSystem<BankAccount, E, FnConflict<BankAccount>>;
    type UipSys = BankSys<UipEngine<BankAccount>>;
    type DuSys = BankSys<DuEngine<BankAccount>>;

    const X: ObjectId = ObjectId::SOLE;

    // Map-shaped read access to the lock table, for the invariant checks.
    impl<A: Adt, E> Objects<A, E> {
        fn values(&self) -> impl Iterator<Item = &ObjectRt<A, E>> {
            self.slots.iter().map(|(_, o)| o)
        }
    }

    impl<A: Adt, E> std::ops::Index<&ObjectId> for Objects<A, E> {
        type Output = ObjectRt<A, E>;

        fn index(&self, obj: &ObjectId) -> &ObjectRt<A, E> {
            self.get(obj).expect("object exists")
        }
    }

    impl<'a, A: Adt, E> IntoIterator for &'a Objects<A, E> {
        type Item = &'a (ObjectId, ObjectRt<A, E>);
        type IntoIter = std::slice::Iter<'a, (ObjectId, ObjectRt<A, E>)>;

        fn into_iter(self) -> Self::IntoIter {
            self.slots.iter()
        }
    }

    impl<A: Adt> Held<A> {
        fn contains_key(&self, txn: &TxnId) -> bool {
            self.into_iter().any(|(holder, _)| holder == txn)
        }
    }

    #[test]
    fn basic_commit_flow() {
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        assert_eq!(sys.invoke(t, X, BankInv::Deposit(5)).unwrap(), BankResp::Ok);
        assert_eq!(sys.invoke(t, X, BankInv::Balance).unwrap(), BankResp::Val(5));
        sys.commit(t).unwrap();
        assert_eq!(sys.committed_state(X), 5);
        assert_eq!(sys.stats().committed, 1);
    }

    #[test]
    fn uip_nrbc_allows_concurrent_withdrawals() {
        // (withdraw_ok, withdraw_ok) ∉ NRBC: two withdrawals proceed
        // concurrently under update-in-place.
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let setup = sys.begin();
        sys.invoke(setup, X, BankInv::Deposit(10)).unwrap();
        sys.commit(setup).unwrap();

        let a = sys.begin();
        let b = sys.begin();
        assert_eq!(sys.invoke(a, X, BankInv::Withdraw(4)).unwrap(), BankResp::Ok);
        assert_eq!(sys.invoke(b, X, BankInv::Withdraw(4)).unwrap(), BankResp::Ok);
        sys.commit(a).unwrap();
        sys.commit(b).unwrap();
        assert_eq!(sys.committed_state(X), 2);
    }

    #[test]
    fn du_nfc_blocks_concurrent_withdrawals() {
        // (withdraw_ok, withdraw_ok) ∈ NFC: the second withdrawal blocks
        // under deferred update.
        let mut sys: DuSys = TxnSystem::new(BankAccount::default(), 1, bank_nfc());
        let setup = sys.begin();
        sys.invoke(setup, X, BankInv::Deposit(10)).unwrap();
        sys.commit(setup).unwrap();

        let a = sys.begin();
        let b = sys.begin();
        assert_eq!(sys.invoke(a, X, BankInv::Withdraw(4)).unwrap(), BankResp::Ok);
        assert_eq!(sys.invoke(b, X, BankInv::Withdraw(4)), Err(TxnError::Blocked));
        assert_eq!(sys.waiting_on(b), [a]);
        sys.commit(a).unwrap();
        // After a's commit the lock is released and b can proceed.
        assert_eq!(sys.invoke(b, X, BankInv::Withdraw(4)).unwrap(), BankResp::Ok);
        assert_eq!(sys.waiting_on(b), []);
        sys.commit(b).unwrap();
        assert_eq!(sys.committed_state(X), 2);
    }

    #[test]
    fn du_nrbc_yields_incorrect_but_detected_executions() {
        // Using UIP's relation under DU is exactly what Theorem 10 forbids:
        // concurrent withdrawals both see the full balance; validation
        // catches the second at commit.
        let mut sys: DuSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let setup = sys.begin();
        sys.invoke(setup, X, BankInv::Deposit(5)).unwrap();
        sys.commit(setup).unwrap();

        let a = sys.begin();
        let b = sys.begin();
        assert_eq!(sys.invoke(a, X, BankInv::Withdraw(4)).unwrap(), BankResp::Ok);
        assert_eq!(sys.invoke(b, X, BankInv::Withdraw(4)).unwrap(), BankResp::Ok);
        sys.commit(a).unwrap();
        assert_eq!(sys.commit(b), Err(TxnError::Aborted(AbortReason::Validation)));
        assert_eq!(sys.committed_state(X), 1);
        // The committed trace is still atomic thanks to the forced abort.
        let spec = SystemSpec::single(BankAccount::default());
        assert!(check_dynamic_atomic(&spec, sys.trace()).is_ok());
    }

    #[test]
    fn uip_abort_restores_state_for_others() {
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let a = sys.begin();
        let b = sys.begin();
        sys.invoke(a, X, BankInv::Deposit(5)).unwrap();
        sys.invoke(b, X, BankInv::Deposit(3)).unwrap();
        sys.abort(a).unwrap();
        assert_eq!(sys.invoke(b, X, BankInv::Balance).unwrap(), BankResp::Val(3));
        sys.commit(b).unwrap();
        assert_eq!(sys.committed_state(X), 3);
    }

    #[test]
    fn deadlock_detection_finds_cycles() {
        // Two balance readers block two depositors crosswise over two
        // objects.
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 2, bank_nrbc());
        let y = ObjectId(1);
        let a = sys.begin();
        let b = sys.begin();
        sys.invoke(a, X, BankInv::Balance).unwrap();
        sys.invoke(b, y, BankInv::Balance).unwrap();
        // (deposit, balance) ∈ NRBC: each deposit blocks on the other's read.
        assert!(matches!(sys.invoke(a, y, BankInv::Deposit(1)), Err(TxnError::Blocked)));
        assert!(matches!(sys.invoke(b, X, BankInv::Deposit(1)), Err(TxnError::Blocked)));
        let cycle = sys.find_deadlock(b).expect("deadlock");
        assert!(cycle.contains(&a) && cycle.contains(&b));
        sys.abort_with(b, AbortReason::Deadlock).unwrap();
        assert_eq!(sys.invoke(a, y, BankInv::Deposit(1)).unwrap(), BankResp::Ok);
        sys.commit(a).unwrap();
    }

    #[test]
    fn undefined_invocations_surface_as_no_legal_response() {
        // deposit(0) has no transition (the paper requires i > 0).
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        assert_eq!(sys.invoke(t, X, BankInv::Deposit(0)), Err(TxnError::NoLegalResponse));
        // The transaction survives and can continue.
        assert_eq!(sys.invoke(t, X, BankInv::Deposit(1)).unwrap(), BankResp::Ok);
        sys.commit(t).unwrap();
    }

    #[test]
    fn a_nondeterministic_invocation_executes_its_first_free_candidate() {
        use ccr_adt::semiqueue::{Semiqueue, SqInv, SqResp};
        use ccr_core::conflict::Derived;
        // `deq` on {1, 2, 3} has three legal responses, tried in that order;
        // under NFC two removals of one value conflict.
        let mut sys: TxnSystem<Semiqueue, DuEngine<Semiqueue>, _> = TxnSystem::new(
            Semiqueue::default(),
            1,
            Derived::nfc("semiqueue", Semiqueue::default()),
        );
        let setup = sys.begin();
        for v in [1, 2, 3] {
            sys.invoke(setup, X, SqInv::Enq(v)).unwrap();
        }
        sys.commit(setup).unwrap();
        let takers = [sys.begin(), sys.begin(), sys.begin()];
        for (t, v) in takers.iter().zip([1, 2, 3]) {
            assert_eq!(sys.invoke(*t, X, SqInv::Deq), Ok(SqResp::Got(v)));
        }
        // Every candidate is taken: the blockers of all three are merged.
        let late = sys.begin();
        assert_eq!(sys.invoke(late, X, SqInv::Deq), Err(TxnError::Blocked));
        assert_eq!(sys.waiting_on(late), takers);
        sys.abort(takers[1]).unwrap();
        assert_eq!(sys.invoke(late, X, SqInv::Deq), Ok(SqResp::Got(2)));
        for t in [takers[0], takers[2], late] {
            sys.commit(t).unwrap();
        }
        assert!(sys.committed_state(X).is_empty());
    }

    #[test]
    fn wound_wait_aborts_younger_holders() {
        use super::ConflictPolicy;
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc())
            .with_policy(ConflictPolicy::WoundWait);
        let setup = sys.begin();
        sys.invoke(setup, X, BankInv::Deposit(10)).unwrap();
        sys.commit(setup).unwrap();

        let older = sys.begin();
        let younger = sys.begin();
        // The younger transaction takes a balance read (held op).
        sys.invoke(younger, X, BankInv::Balance).unwrap();
        // The older transaction's deposit conflicts with the held read:
        // under wound-wait it wounds the younger holder and proceeds.
        assert_eq!(sys.invoke(older, X, BankInv::Deposit(1)).unwrap(), BankResp::Ok);
        assert_eq!(sys.stats().wounds, 1);
        // The younger transaction observes its abort on its next call.
        assert_eq!(
            sys.invoke(younger, X, BankInv::Balance),
            Err(TxnError::Aborted(AbortReason::ConflictAbort))
        );
        sys.commit(older).unwrap();
        assert_eq!(sys.committed_state(X), 11);
    }

    #[test]
    fn no_wait_aborts_the_requester_immediately() {
        use super::ConflictPolicy;
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc())
            .with_policy(ConflictPolicy::NoWait);
        let a = sys.begin();
        let b = sys.begin();
        sys.invoke(a, X, BankInv::Balance).unwrap();
        assert_eq!(
            sys.invoke(b, X, BankInv::Deposit(1)),
            Err(TxnError::Aborted(AbortReason::ConflictAbort))
        );
        assert_eq!(sys.stats().conflict_aborts, 1);
        // The holder is untouched.
        sys.commit(a).unwrap();
    }

    #[test]
    fn wound_wait_younger_requesters_still_wait() {
        use super::ConflictPolicy;
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc())
            .with_policy(ConflictPolicy::WoundWait);
        let older = sys.begin();
        let younger = sys.begin();
        sys.invoke(older, X, BankInv::Balance).unwrap();
        // Younger requester vs older holder: must block, not wound.
        assert!(matches!(sys.invoke(younger, X, BankInv::Deposit(1)), Err(TxnError::Blocked)));
        assert_eq!(sys.stats().wounds, 0);
    }

    #[test]
    fn wound_wait_requesters_wait_for_their_older_blockers_only() {
        // T1 and T3 read; T2's deposit conflicts with both. It may not wound
        // (T1 is older), so it waits — for T1 alone: an edge to the younger
        // T3 would close a cycle as soon as T3 blocks on T2.
        let y = ObjectId(1);
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 2, bank_nrbc())
            .with_policy(ConflictPolicy::WoundWait);
        let (t1, t2, t3) = (sys.begin(), sys.begin(), sys.begin());
        sys.invoke(t1, X, BankInv::Balance).unwrap();
        sys.invoke(t3, X, BankInv::Balance).unwrap();
        sys.invoke(t2, y, BankInv::Balance).unwrap();
        assert_eq!(sys.invoke(t2, X, BankInv::Deposit(1)), Err(TxnError::Blocked));
        assert_eq!(sys.waiting_on(t2), [t1]);
        assert_eq!(sys.invoke(t3, y, BankInv::Deposit(1)), Err(TxnError::Blocked));
        assert_eq!(sys.waiting_on(t3), [t2]);
        assert_eq!(sys.find_deadlock(t2), None);
        assert_eq!(sys.find_deadlock(t3), None);
        assert_eq!(sys.stats().wounds, 0);
        // Once the older holder is gone the retry wounds the younger one.
        sys.commit(t1).unwrap();
        assert_eq!(sys.invoke(t2, X, BankInv::Deposit(1)), Ok(BankResp::Ok));
        assert_eq!((sys.stats().wounds, sys.is_active(t3)), (1, false));
        // Under plain blocking the same requester waits for both.
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let (t1, t2, t3) = (sys.begin(), sys.begin(), sys.begin());
        sys.invoke(t1, X, BankInv::Balance).unwrap();
        sys.invoke(t3, X, BankInv::Balance).unwrap();
        assert_eq!(sys.invoke(t2, X, BankInv::Deposit(1)), Err(TxnError::Blocked));
        assert_eq!(sys.waiting_on(t2), [t1, t3]);
    }

    #[test]
    fn locks_are_released_in_ascending_object_order() {
        // Both transactions touch the objects in descending order; the
        // recorded completion events come out ascending all the same (the
        // order every same-seed fingerprint was taken under) — for dense
        // ids, for a dense prefix followed by a gap, and for ids that are
        // all past a gap and were configured out of order.
        for ids in [[0, 1, 2, 3], [0, 1, 2, 10], [70_000, 3, 9, 4]] {
            let configured = ids.iter().map(|&i| (ObjectId(i), BankAccount::default())).collect();
            let mut sys: UipSys = TxnSystem::new_with(configured, bank_nrbc());
            let mut ids = ids.map(ObjectId);
            ids.sort();
            assert_eq!(sys.object_ids(), ids);
            let (c, a) = (sys.begin(), sys.begin());
            for &obj in ids.iter().rev() {
                sys.invoke(c, obj, BankInv::Deposit(1)).unwrap();
                sys.invoke(a, obj, BankInv::Deposit(2)).unwrap();
            }
            sys.commit(c).unwrap();
            sys.abort(a).unwrap();
            let tail: Vec<_> = sys.trace().events()[16..].to_vec();
            let mut want: Vec<_> = ids.iter().map(|&obj| Event::Commit { txn: c, obj }).collect();
            want.extend(ids.iter().map(|&obj| Event::Abort { txn: a, obj }));
            assert_eq!(tail, want);
            assert!(ids.iter().all(|&obj| sys.committed_state(obj) == 1));
        }
    }

    #[test]
    fn sparse_object_ids_are_found_and_absent_ones_are_not() {
        // `[3, 70_000]`: nothing sits at its dense slot. `[0, 1, 2, 10]`: a
        // dense prefix, then a gap.
        for (ids, absent) in [
            (vec![70_000, 3], vec![0, 1, 2, 4, 69_999, 70_001]),
            (vec![10, 0, 2, 1], vec![3, 4, 9, 11]),
            (vec![], vec![0]),
        ] {
            let configured = ids.iter().map(|&i| (ObjectId(i), BankAccount::default())).collect();
            let mut sys: DuSys = TxnSystem::new_with(configured, bank_nfc());
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(sys.object_ids(), sorted.iter().map(|&i| ObjectId(i)).collect::<Vec<_>>());
            let t = sys.begin();
            for &i in &ids {
                let obj = ObjectId(i);
                assert!(sys.adt_of(obj).is_some());
                assert_eq!(
                    sys.invoke(t, obj, BankInv::Deposit(u64::from(i) + 1)),
                    Ok(BankResp::Ok)
                );
                assert_eq!(sys.view_state(t, obj), Some(u64::from(i) + 1));
            }
            for &i in &absent {
                let obj = ObjectId(i);
                assert_eq!(sys.invoke(t, obj, BankInv::Balance), Err(TxnError::NoSuchObject(obj)));
                assert!(sys.adt_of(obj).is_none() && sys.view_state(t, obj).is_none());
            }
            sys.commit(t).unwrap();
            assert!(ids.iter().all(|&i| sys.committed_state(ObjectId(i)) == u64::from(i) + 1));
        }
    }

    #[test]
    fn a_repeated_object_id_keeps_its_last_configuration() {
        let configured = vec![
            (ObjectId(1), BankAccount::default()),
            (X, BankAccount::default()),
            (ObjectId(1), BankAccount { amounts: vec![5] }),
        ];
        let sys: UipSys = TxnSystem::new_with(configured, bank_nrbc());
        assert_eq!(sys.object_ids(), vec![X, ObjectId(1)]);
        assert_eq!(sys.adt_of(ObjectId(1)), Some(&BankAccount { amounts: vec![5] }));
    }

    /// `active` and the per-object `held` maps say the same thing.
    fn assert_index_matches_lock_table<E: RecoveryEngine<BankAccount>>(sys: &BankSys<E>) {
        assert!(sys.active().eq(sys.active.keys().copied()));
        for (obj, o) in &sys.objects {
            for (holder, ops) in &o.held {
                assert!(!ops.is_empty());
                assert!(sys.active[holder].contains(obj), "{holder} holds at {obj}, unindexed");
            }
        }
        for (txn, touched) in &sys.active {
            assert!(!sys.wounded.contains_key(txn));
            for obj in touched {
                assert!(sys.objects[obj].held.contains_key(txn), "{txn} indexed at {obj}, no lock");
            }
        }
    }

    /// Six clients issuing random deposits, withdrawals, balance reads,
    /// commits and aborts over four objects under wound-wait, from an own
    /// xorshift stream; `check` runs after every call into the system.
    fn seeded_wound_wait_run(seed: u64, steps: usize, check: impl Fn(&UipSys)) -> UipSys {
        seeded_wound_wait_run_under(bank_nrbc(), seed, steps, check)
    }

    /// The same run for either engine, under the relation that goes with it.
    fn seeded_wound_wait_run_under<E: RecoveryEngine<BankAccount>>(
        conflict: FnConflict<BankAccount>,
        seed: u64,
        steps: usize,
        check: impl Fn(&BankSys<E>),
    ) -> BankSys<E> {
        let mut sys: BankSys<E> = TxnSystem::new(BankAccount::default(), 4, conflict)
            .with_policy(ConflictPolicy::WoundWait);
        let mut x = seed;
        let mut below = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        let mut clients: [Option<TxnId>; 6] = [None; 6];
        for _ in 0..steps {
            let slot = &mut clients[below(6) as usize];
            let Some(txn) = *slot else {
                *slot = Some(sys.begin());
                check(&sys);
                continue;
            };
            let done = match below(10) {
                0 => sys.abort(txn).map(|()| true),
                1 | 2 => sys.commit(txn).map(|()| true),
                _ => {
                    let inv = match below(3) {
                        0 => BankInv::Deposit(1 + below(3)),
                        1 => BankInv::Withdraw(1 + below(2)),
                        _ => BankInv::Balance,
                    };
                    sys.invoke(txn, ObjectId(below(4) as u32), inv).map(|_| false)
                }
            };
            check(&sys);
            match done {
                Ok(false) | Err(TxnError::Blocked) => {}
                Ok(true) | Err(TxnError::Aborted(_)) => *slot = None,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        sys
    }

    #[test]
    fn touched_index_tracks_the_lock_table_through_a_wound_wait_run() {
        let sys = seeded_wound_wait_run(0xC0FF_EE11, 4000, assert_index_matches_lock_table);
        assert!(sys.stats().wounds > 50 && sys.stats().committed > 200, "{:?}", sys.stats());
    }

    /// Under deferred update a workspace is one more per-object entry that
    /// exists exactly where the transaction holds an operation.
    fn assert_workspaces_match_lock_table(sys: &DuSys) {
        assert_index_matches_lock_table(sys);
        for o in sys.objects.values() {
            let holders: Vec<TxnId> = o.held.into_iter().map(|(holder, _)| *holder).collect();
            assert_eq!(o.engine.workspace_owners(), holders);
        }
    }

    #[test]
    fn du_workspaces_track_the_lock_table_through_a_wound_wait_run() {
        let sys = seeded_wound_wait_run_under(
            bank_nfc(),
            0xC0FF_EE13,
            4000,
            assert_workspaces_match_lock_table,
        );
        assert!(sys.stats().wounds > 50 && sys.stats().committed > 200, "{:?}", sys.stats());
        assert!(sys.stats().blocks > 200, "{:?}", sys.stats());
    }

    #[test]
    fn a_fixed_seed_du_history_fingerprint_is_pinned() {
        // Taken at the commit before workspaces, objects and held operations
        // moved into flat vectors: same events, same order.
        let sys: DuSys = seeded_wound_wait_run_under(bank_nfc(), 0x5EED_0013, 1500, |_| {});
        assert_eq!(sys.trace().fingerprint(), 0xaa75_e99e_6bba_cbb6);
    }

    #[test]
    fn blocked_then_aborted_transactions_leave_no_du_workspace_behind() {
        // The holder's withdrawal blocks every younger withdrawal at `X`. A
        // waiter only *looked* at `X`; whether it then gives up or is wounded
        // over its deposit at `y`, nothing of it may stay behind at `X`.
        let y = ObjectId(1);
        let mut sys: DuSys = TxnSystem::new(BankAccount::default(), 2, bank_nfc())
            .with_policy(ConflictPolicy::WoundWait);
        let setup = sys.begin();
        sys.invoke(setup, X, BankInv::Deposit(10)).unwrap();
        sys.commit(setup).unwrap();
        let holder = sys.begin();
        assert_eq!(sys.invoke(holder, X, BankInv::Withdraw(1)), Ok(BankResp::Ok));
        for i in 0..1000 {
            let reader = sys.begin();
            let waiter = sys.begin();
            sys.invoke(waiter, y, BankInv::Deposit(1)).unwrap();
            assert_eq!(sys.invoke(waiter, X, BankInv::Withdraw(1)), Err(TxnError::Blocked));
            assert_eq!(sys.waiting_on(waiter), [holder]);
            if i % 2 == 0 {
                sys.abort(waiter).unwrap();
            } else {
                // An older transaction's read of `y` wounds the depositor.
                assert!(sys.invoke(reader, y, BankInv::Balance).is_ok());
                assert!(!sys.is_active(waiter));
            }
            sys.abort(reader).unwrap();
        }
        assert_eq!(sys.stats().wounds, 500);
        assert_workspaces_match_lock_table(&sys);
        assert_eq!(sys.objects[&X].engine.workspace_owners(), [holder]);
        assert_eq!(sys.objects[&y].engine.workspace_owners(), []);
    }

    #[test]
    fn a_wounded_victims_index_entry_is_gone_and_not_inherited() {
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 2, bank_nrbc())
            .with_policy(ConflictPolicy::WoundWait);
        let older = sys.begin();
        let victim = sys.begin();
        sys.invoke(victim, X, BankInv::Balance).unwrap();
        sys.invoke(victim, ObjectId(1), BankInv::Deposit(7)).unwrap();
        sys.invoke(older, X, BankInv::Deposit(1)).unwrap(); // wounds the reader
        assert!(!sys.is_active(victim) && !sys.active.contains_key(&victim));
        assert!(sys.objects.values().all(|o| !o.held.contains_key(&victim)));
        let events = sys.trace().len();
        // A transaction begun afterwards starts from nothing: committing it
        // releases no locks and records no events.
        let fresh = sys.begin();
        assert!(sys.active[&fresh].is_empty());
        sys.commit(fresh).unwrap();
        assert_eq!(sys.trace().len(), events);
        assert_index_matches_lock_table(&sys);
        assert_eq!(sys.active().collect::<Vec<_>>(), vec![older]);
    }

    #[test]
    fn a_fixed_seed_history_fingerprint_is_pinned() {
        // Taken at the commit before locks were indexed per transaction
        // (release then scanned every object): same events, same order.
        let sys = seeded_wound_wait_run(0x5EED_0012, 1500, |_| {});
        assert_eq!(sys.trace().fingerprint(), 0xa2ae_853b_232f_9fde);
    }

    #[test]
    fn trace_records_full_history() {
        let mut sys: UipSys = TxnSystem::new(BankAccount::default(), 1, bank_nrbc());
        let t = sys.begin();
        sys.invoke(t, X, BankInv::Deposit(5)).unwrap();
        sys.commit(t).unwrap();
        let u = sys.begin();
        sys.invoke(u, X, BankInv::Withdraw(9)).unwrap(); // refused: No
        sys.abort(u).unwrap();
        assert_eq!(sys.trace().len(), 6);
        assert_eq!(sys.trace().committed().len(), 1);
        assert_eq!(sys.trace().aborted().len(), 1);
    }
}
