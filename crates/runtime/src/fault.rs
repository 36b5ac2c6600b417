//! Fault plans: deterministic schedules of injected failures.
//!
//! A [`FaultPlan`] is a sorted list of (event index, fault kind) pairs. The
//! simulator ([`crate::sim`]) counts scheduler events and injects each fault
//! exactly when the global event counter reaches its index — so the same
//! `(seed, plan)` pair always injects the same faults at the same points of
//! the same interleaving. Plans render to and parse from a compact text form
//! (`"12:crash,30:torn2,45:abort,60:delay5,80:wound"`) so a failing run can
//! be re-executed from a command line.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ccr_core::adt::Adt;
use ccr_core::conflict::Conflict;
use ccr_store::LogBackend;

use crate::crash::{DurableSystem, RedoError, TornPolicy};
use crate::engine::RecoveryEngine;

/// One kind of injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the durable system (volatile state lost, redo from journal).
    Crash,
    /// Crash with a torn final journal record: the last `drop_ops`
    /// operations of the most recent record are lost mid-flush.
    TornCrash {
        /// Operations torn off the final record's body.
        drop_ops: usize,
    },
    /// Force-abort the youngest active transaction.
    ForceAbort,
    /// Delay the next commit attempt by `rounds` scheduler turns.
    DelayCommit {
        /// Turns the committing driver is forced to sleep.
        rounds: u32,
    },
    /// Abort *every* active transaction at once (a wound storm).
    WoundStorm,
    /// Crash with the last commit flush torn at *sector* granularity: its
    /// trailing `sectors` sectors never reach the platter (power loss
    /// mid-fsync). Degrades to [`FaultKind::Crash`] on backends without a
    /// sector image or when the tear would remove the whole flush.
    SectorTorn {
        /// Trailing sectors torn off the final flush.
        sectors: usize,
    },
    /// Crash with the last commit flush reordered: the device persisted its
    /// later sectors but not the first (write reordering across an
    /// un-fsynced multi-sector write). Degrades to [`FaultKind::Crash`]
    /// when inexpressible.
    ReorderFlush,
    /// Flip one durable bit (index reduced modulo the stable image size),
    /// then crash. The CRC layer must detect the flip during the recovery
    /// scan — an undetected flip that changes state is the
    /// silent-corruption verdict. Degrades to [`FaultKind::Crash`] on
    /// backends without a byte image.
    BitFlip {
        /// The bit index to flip.
        bit: u64,
    },
    /// Arm a budget of `errors` transient I/O failures: the device's next
    /// `errors` checked ops each fail once before succeeding. The backend's
    /// bounded retries with backoff normally absorb the whole budget
    /// invisibly (except in the retry telemetry). Degrades to
    /// [`FaultKind::Crash`] on backends without a device.
    TransientIo {
        /// Checked device ops that will fail once each.
        errors: u32,
    },
    /// The device reports itself permanently out of space: every durable
    /// append fails until healed, driving the system into read-only
    /// degraded mode at the next commit. Degrades to [`FaultKind::Crash`]
    /// on backends without a device.
    DiskFull,
    /// Gray failure: the device's next `ops` checked operations each serve
    /// *slowly* (extra latency ticks charged, no error reported) — the
    /// stalling-not-failing hardware that health checks miss. Degrades to
    /// [`FaultKind::Crash`] on backends without a device.
    SlowDisk {
        /// Checked device ops that will serve slowly.
        ops: u32,
    },
    /// Gray failure: the device's next `stalls` non-empty flushes each hang
    /// for extra latency ticks before completing (fsync stalls — the
    /// classic gray symptom under a filling write cache). Degrades to
    /// [`FaultKind::Crash`] on backends without a device.
    FsyncStall {
        /// Non-empty flushes that will stall.
        stalls: u32,
    },
    /// Sharded runs only: crash the shard subset named by `mask` (bit `i`
    /// set ⇒ shard `i` loses power and recovers; bits beyond the shard
    /// count are reduced modulo the fleet). Single-system runs degrade this
    /// to [`FaultKind::Crash`].
    CrashShards {
        /// Bitmask of shards to crash together.
        mask: u32,
    },
    /// Sharded runs only: arm a crash at 2PC step `step` of the *next*
    /// cross-shard commit. Steps cycle through the protocol's decision
    /// points — 0: coordinator dies after the prepares (participants left
    /// in doubt), 1: the first participant dies in doubt, 2: the decision is
    /// durable and reached the first participant, then the coordinator and
    /// every other participant die, 3: the first participant dies in doubt
    /// and again while recovering (nested crash during participant
    /// recovery). Single-system runs degrade to [`FaultKind::Crash`].
    TwoPcCrash {
        /// Protocol decision point (reduced modulo the step table).
        step: u32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::TornCrash { drop_ops } => write!(f, "torn{drop_ops}"),
            FaultKind::ForceAbort => write!(f, "abort"),
            FaultKind::DelayCommit { rounds } => write!(f, "delay{rounds}"),
            FaultKind::WoundStorm => write!(f, "wound"),
            FaultKind::SectorTorn { sectors } => write!(f, "sect{sectors}"),
            FaultKind::ReorderFlush => write!(f, "reorder"),
            FaultKind::BitFlip { bit } => write!(f, "flip{bit}"),
            FaultKind::TransientIo { errors } => write!(f, "io{errors}"),
            FaultKind::DiskFull => write!(f, "full"),
            FaultKind::SlowDisk { ops } => write!(f, "slow{ops}"),
            FaultKind::FsyncStall { stalls } => write!(f, "stall{stalls}"),
            FaultKind::CrashShards { mask } => write!(f, "shards{mask}"),
            FaultKind::TwoPcCrash { step } => write!(f, "twopc{step}"),
        }
    }
}

/// Which fault kinds a seeded plan draws from, and how often: the mix is
/// data — an RNG salt and a weight table — and [`FaultPlan::from_seed`] is
/// the one generator over it. Each mix salts its own RNG stream, so the
/// plans of one mix never move when another mix's table changes (replay
/// command lines keep producing byte-identical plans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMix {
    /// Crashes, aborts, delays and the storage arms (`sect`/`reorder`/`flip`/
    /// `io`/`full`).
    Storage,
    /// The storage mix plus the stalling-device arms (`slow{n}`/`stall{n}`).
    Gray,
    /// The sharded arms — crash of any non-empty shard subset
    /// (`shards{mask}`, masks bounded to the `nshards`-shard fleet) and a
    /// crash at every 2PC step (`twopc{step}`) — beside a thinner storage
    /// mix.
    Sharded {
        /// Shards in the fleet the plan is for.
        nshards: u32,
    },
}

impl FaultMix {
    /// The mix's RNG salt and its weight column in [`ARMS`].
    fn salt_and_column(self) -> (u64, usize) {
        match self {
            FaultMix::Storage => (0xFA17_FA17_FA17_FA17, 0),
            FaultMix::Gray => (0x6BA7_6BA7_6BA7_6BA7, 1),
            FaultMix::Sharded { .. } => (0x5AAD_5AAD_5AAD_5AAD, 2),
        }
    }
}

/// One row of the planner's table: the arm's weight in the storage, gray and
/// sharded mix, and how one fault of that kind draws its parameters (the
/// second argument is the fleet size, for the subset masks).
type Arm = ([u32; 3], fn(&mut StdRng, u32) -> FaultKind);

/// The planner's weight table. Row order is part of the plan format: a
/// ticket walks the rows top to bottom.
const ARMS: &[Arm] = &[
    ([2, 2, 1], |_, _| FaultKind::Crash),
    ([1, 1, 1], |r, _| FaultKind::TornCrash { drop_ops: r.gen_range(1usize..3) }),
    ([2, 2, 2], |_, _| FaultKind::ForceAbort),
    ([1, 1, 1], |r, _| FaultKind::DelayCommit { rounds: r.gen_range(1u32..6) }),
    ([1, 1, 1], |_, _| FaultKind::WoundStorm),
    ([2, 2, 1], |r, _| FaultKind::SectorTorn { sectors: r.gen_range(1usize..3) }),
    ([1, 1, 1], |_, _| FaultKind::ReorderFlush),
    ([1, 1, 0], |r, _| FaultKind::BitFlip { bit: r.gen_range(0u64..1_000_000) }),
    // A budget below the default retry attempt cap: transient errors are
    // expected to be absorbed, not to degrade.
    ([2, 2, 1], |r, _| FaultKind::TransientIo { errors: r.gen_range(1u32..4) }),
    ([1, 1, 0], |_, _| FaultKind::DiskFull),
    ([0, 2, 0], |r, _| FaultKind::SlowDisk { ops: r.gen_range(2u32..8) }),
    ([0, 2, 0], |r, _| FaultKind::FsyncStall { stalls: r.gen_range(1u32..4) }),
    // The sharded arms take the weight the sharded mix saves on storage:
    // any non-empty shard subset, and every 2PC decision point.
    ([0, 0, 4], |r, n| FaultKind::CrashShards {
        mask: r.gen_range(1..=(1u32 << n.clamp(1, 5)) - 1),
    }),
    ([0, 0, 3], |r, _| FaultKind::TwoPcCrash { step: r.gen_range(0u32..4) }),
];

/// A fault scheduled at a global event index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The simulator's global event counter value at which to inject.
    pub at_event: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.at_event, self.kind)
    }
}

/// A deterministic schedule of faults, sorted by event index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Build a plan from faults (sorted by event index; ties keep their
    /// given order).
    pub fn new(mut faults: Vec<FaultSpec>) -> Self {
        faults.sort_by_key(|f| f.at_event);
        FaultPlan { faults }
    }

    /// The empty plan (fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Derive `count` faults over event indices `1..horizon` from `seed`,
    /// their kinds drawn from `mix`. Deterministic: the same arguments always
    /// yield the same plan.
    pub fn from_seed(seed: u64, horizon: u64, count: usize, mix: FaultMix) -> Self {
        let (salt, column) = mix.salt_and_column();
        let nshards = if let FaultMix::Sharded { nshards } = mix { nshards } else { 1 };
        let mut rng = StdRng::seed_from_u64(seed ^ salt);
        let horizon = horizon.max(2);
        let total: u32 = ARMS.iter().map(|(weights, _)| weights[column]).sum();
        let faults = (0..count)
            .map(|_| {
                let at_event = rng.gen_range(1..horizon);
                let mut ticket = rng.gen_range(0u32..total);
                let mut arms = ARMS.iter();
                let draw = loop {
                    let (weights, draw) = arms.next().expect("a ticket is below the total weight");
                    if ticket < weights[column] {
                        break draw;
                    }
                    ticket -= weights[column];
                };
                FaultSpec { at_event, kind: draw(&mut rng, nshards) }
            })
            .collect();
        FaultPlan::new(faults)
    }

    /// The scheduled faults, sorted by event index.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The plan without the fault at `index` (for delta-debugging).
    pub fn without_index(&self, index: usize) -> Self {
        let mut faults = self.faults.clone();
        faults.remove(index);
        FaultPlan { faults }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "none");
        }
        for (i, fs) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fs}")?;
        }
        Ok(())
    }
}

/// Why a fault-plan string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError(pub String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

impl FromStr for FaultKind {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || FaultParseError(s.to_string());
        if s == "crash" {
            Ok(FaultKind::Crash)
        } else if s == "abort" {
            Ok(FaultKind::ForceAbort)
        } else if s == "wound" {
            Ok(FaultKind::WoundStorm)
        } else if s == "reorder" {
            Ok(FaultKind::ReorderFlush)
        } else if let Some(n) = s.strip_prefix("sect") {
            Ok(FaultKind::SectorTorn { sectors: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("flip") {
            Ok(FaultKind::BitFlip { bit: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("torn") {
            Ok(FaultKind::TornCrash { drop_ops: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("delay") {
            Ok(FaultKind::DelayCommit { rounds: n.parse().map_err(|_| err())? })
        } else if s == "full" {
            Ok(FaultKind::DiskFull)
        } else if let Some(n) = s.strip_prefix("io") {
            Ok(FaultKind::TransientIo { errors: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("slow") {
            Ok(FaultKind::SlowDisk { ops: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("stall") {
            Ok(FaultKind::FsyncStall { stalls: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("shards") {
            Ok(FaultKind::CrashShards { mask: n.parse().map_err(|_| err())? })
        } else if let Some(n) = s.strip_prefix("twopc") {
            Ok(FaultKind::TwoPcCrash { step: n.parse().map_err(|_| err())? })
        } else {
            Err(err())
        }
    }
}

impl FromStr for FaultPlan {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(FaultPlan::none());
        }
        let mut faults = Vec::new();
        for part in s.split(',') {
            let (at, kind) =
                part.split_once(':').ok_or_else(|| FaultParseError(part.to_string()))?;
            faults.push(FaultSpec {
                at_event: at.trim().parse().map_err(|_| FaultParseError(part.to_string()))?,
                kind: kind.trim().parse()?,
            });
        }
        Ok(FaultPlan::new(faults))
    }
}

/// Count the checked device operations a clean crash-recovery of `sys`
/// would perform from its current state, without perturbing it: snapshot,
/// crash + recover, measure, restore. `None` when the backend has no
/// checked-op notion (mem) or the probe recovery fails — in either case
/// there are no crash points to enumerate.
pub fn probe_recovery_ops<A, E, C, B>(
    sys: &mut DurableSystem<A, E, C, B>,
    policy: TornPolicy,
) -> Option<u64>
where
    A: Adt,
    E: RecoveryEngine<A> + Clone,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    let snap = sys.snapshot();
    sys.backend_mut().crash();
    let start = sys.backend().device_op_count();
    let ok = sys.recover_with(policy).is_ok();
    let ops = sys.backend().device_op_count().saturating_sub(start);
    sys.restore(&snap);
    (ok && ops > 0).then_some(ops)
}

/// Crash `sys`, then arm its device to lose power again after `at_op`
/// checked operations *of the recovery itself*, then recover. The nested
/// power loss is absorbed by [`DurableSystem::recover_with`]'s internal loop
/// (the trigger is one-shot), so on `Ok` the system has fully recovered —
/// possibly through an interrupted first attempt. Returns whether the
/// backend could arm the trigger at all.
pub fn crash_recover_interrupted<A, E, C, B>(
    sys: &mut DurableSystem<A, E, C, B>,
    policy: TornPolicy,
    at_op: u64,
) -> Result<bool, RedoError>
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    sys.backend_mut().crash();
    // Arm *after* the crash: crashing clears armed triggers (power-on
    // resets the device), so the order matters.
    let device = sys.backend_mut().device_mut();
    let armed = device.map(|disk| disk.arm_crash_at_op(at_op)).is_some();
    sys.recover_with(policy).map(|()| armed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        let plan = FaultPlan::new(vec![
            FaultSpec { at_event: 45, kind: FaultKind::ForceAbort },
            FaultSpec { at_event: 12, kind: FaultKind::Crash },
            FaultSpec { at_event: 30, kind: FaultKind::TornCrash { drop_ops: 2 } },
            FaultSpec { at_event: 60, kind: FaultKind::DelayCommit { rounds: 5 } },
            FaultSpec { at_event: 80, kind: FaultKind::WoundStorm },
        ]);
        let s = plan.to_string();
        assert_eq!(s, "12:crash,30:torn2,45:abort,60:delay5,80:wound");
        assert_eq!(s.parse::<FaultPlan>().unwrap(), plan);
        let storage = FaultPlan::new(vec![
            FaultSpec { at_event: 5, kind: FaultKind::SectorTorn { sectors: 2 } },
            FaultSpec { at_event: 9, kind: FaultKind::ReorderFlush },
            FaultSpec { at_event: 14, kind: FaultKind::BitFlip { bit: 4093 } },
            FaultSpec { at_event: 17, kind: FaultKind::TransientIo { errors: 3 } },
            FaultSpec { at_event: 21, kind: FaultKind::DiskFull },
        ]);
        let s = storage.to_string();
        assert_eq!(s, "5:sect2,9:reorder,14:flip4093,17:io3,21:full");
        assert_eq!(s.parse::<FaultPlan>().unwrap(), storage);
        let gray = FaultPlan::new(vec![
            FaultSpec { at_event: 3, kind: FaultKind::SlowDisk { ops: 4 } },
            FaultSpec { at_event: 8, kind: FaultKind::FsyncStall { stalls: 2 } },
        ]);
        let s = gray.to_string();
        assert_eq!(s, "3:slow4,8:stall2");
        assert_eq!(s.parse::<FaultPlan>().unwrap(), gray);
        let sharded = FaultPlan::new(vec![
            FaultSpec { at_event: 4, kind: FaultKind::CrashShards { mask: 3 } },
            FaultSpec { at_event: 8, kind: FaultKind::TwoPcCrash { step: 2 } },
        ]);
        let s = sharded.to_string();
        assert_eq!(s, "4:shards3,8:twopc2");
        assert_eq!(s.parse::<FaultPlan>().unwrap(), sharded);
        assert_eq!("none".parse::<FaultPlan>().unwrap(), FaultPlan::none());
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::none());
        assert!("7:meteor".parse::<FaultPlan>().is_err());
        assert!("crash".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn from_seed_is_deterministic_and_sorted() {
        let a = FaultPlan::from_seed(9, 100, 6, FaultMix::Storage);
        let b = FaultPlan::from_seed(9, 100, 6, FaultMix::Storage);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.faults().windows(2).all(|w| w[0].at_event <= w[1].at_event));
        assert!(a.faults().iter().all(|f| (1..100).contains(&f.at_event)));
        assert_ne!(a, FaultPlan::from_seed(10, 100, 6, FaultMix::Storage));
    }

    #[test]
    fn each_mix_draws_its_own_stream_and_its_own_arms() {
        let sharded = FaultMix::Sharded { nshards: 2 };
        let plans = [FaultMix::Storage, FaultMix::Gray, sharded]
            .map(|mix| FaultPlan::from_seed(9, 100, 8, mix));
        for plan in &plans {
            assert_eq!(plan.len(), 8);
            assert!(plan.faults().windows(2).all(|w| w[0].at_event <= w[1].at_event));
            assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), *plan);
        }
        // Same seed, three salts: three different plans.
        assert_ne!(plans[0], plans[1]);
        assert_ne!(plans[0], plans[2]);
        assert_ne!(plans[1], plans[2]);
        // Over enough draws every mix-specific arm appears, and only in its
        // own mix; subset masks stay within the 2-shard fleet.
        let is_gray =
            |k: &FaultKind| matches!(k, FaultKind::SlowDisk { .. } | FaultKind::FsyncStall { .. });
        let is_sharded = |k: &FaultKind| {
            matches!(k, FaultKind::CrashShards { .. } | FaultKind::TwoPcCrash { .. })
        };
        let many = |mix| FaultPlan::from_seed(7, 1000, 64, mix);
        let kinds = |mix| many(mix).faults().iter().map(|f| f.kind).collect::<Vec<_>>();
        assert!(!kinds(FaultMix::Storage).iter().any(|k| is_gray(k) || is_sharded(k)));
        assert!(kinds(FaultMix::Gray).iter().any(is_gray));
        assert!(!kinds(FaultMix::Gray).iter().any(is_sharded));
        assert!(kinds(sharded).iter().any(|k| matches!(k, FaultKind::CrashShards { .. })));
        assert!(kinds(sharded).iter().any(|k| matches!(k, FaultKind::TwoPcCrash { .. })));
        for k in kinds(sharded) {
            if let FaultKind::CrashShards { mask } = k {
                assert!((1..=3).contains(&mask));
            }
        }
    }

    #[test]
    fn without_index_supports_shrinking() {
        let plan = FaultPlan::from_seed(3, 50, 4, FaultMix::Storage);
        let dropped = plan.without_index(1);
        assert_eq!(dropped.len(), 3);
        assert_eq!(dropped.faults(), [plan.faults()[0], plan.faults()[2], plan.faults()[3]]);
    }
}
