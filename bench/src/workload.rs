//! The four workloads: what is built, what the clients send, and why.
//!
//! Sizes were measured on the seed commit and are frozen here; later changes
//! to the program are compared on exactly these inputs.

use ccr_adt::bank::BankInv;
use ccr_core::ids::ObjectId;

use crate::rng::{Rng, Zipf};

/// WAL geometry of every workload: 512-byte sectors, 1 MiB segments.
pub const SECTOR: usize = 512;
pub const SEG_SECTORS: u64 = 2048;
/// Every account starts at this balance (one seeding commit per object).
pub const SEED_BALANCE: u64 = 1_000;
/// Begins allowed per script before it counts as failed.
pub const RETRY_BUDGET: u32 = 64;
/// Raw spans are kept for every 64th script of a traced epoch.
pub const SAMPLE_EVERY: u64 = 64;
/// Epochs after which `peak_rss_mb` is read, so it is memory at a stated
/// amount of work, not at whatever count a faster program reaches.
pub const RSS_EPOCHS: usize = 10;

/// Which runtime stack a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// `DurableSystem<BankAccount, UipEngine, bank_nrbc, WalBackend>`.
    UipNrbc,
    /// `DurableSystem<BankAccount, DuEngine, bank_nfc, WalBackend>`.
    DuNfc,
    /// `ShardedSystem` of UIP+NRBC shards, one `WalBackend` each.
    ShardedUipNrbc,
}

#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// `ops` operations per script, objects Zipf(θ)-chosen; `balance_pct`
    /// reads, the rest split evenly between deposits and withdrawals.
    Bank { ops: usize, theta: f64, balance_pct: u64 },
    /// `Withdraw(a)` on one uniform account then `Deposit(a)` on another;
    /// `cross_pct` of the pairs straddle two shards.
    Transfer { cross_pct: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub stack: Stack,
    /// Objects in total (each shard's system spans the whole id space and
    /// owns `id % shards`).
    pub objects: u32,
    pub shards: u32,
    pub mix: Mix,
    /// Logical clients multiplexed round-robin in the one driver thread.
    pub mpl: usize,
    /// Share of `--seconds` given to the forward run; the crash and the
    /// recoveries take the rest.
    pub forward_share: f64,
    /// Commits between the last checkpoint and the crash: the log suffix
    /// every recovery replays.
    pub crash_suffix: u64,
}

/// How much work one run does. `FULL` is what `BENCHMARK.json` measures;
/// `QUICK` is the 1/50 smoke size with the same phases and checks.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Commits per epoch; every epoch ends with a checkpoint.
    pub epoch_commits: u64,
    pub warmup_commits: u64,
    /// Set-ups per run (the median is `setup_s`).
    pub setups: usize,
    /// Crash → recover → verify cycles (the median is `recovery_s`): at
    /// least this many, and more until their times add up to the floor, so
    /// a fleet that recovers in 70 ms is sampled as long as one that takes
    /// a second.
    pub recoveries: usize,
    pub recovery_floor_s: f64,
    /// Divides every workload's `crash_suffix`.
    pub suffix_div: u64,
}

pub const FULL: Scale = Scale {
    epoch_commits: 10_000,
    warmup_commits: 20_000,
    setups: 3,
    recoveries: 5,
    recovery_floor_s: 1.0,
    suffix_div: 1,
};

pub const QUICK: Scale = Scale {
    epoch_commits: 200,
    warmup_commits: 400,
    setups: 1,
    recoveries: 2,
    recovery_floor_s: 0.0,
    suffix_div: 10,
};

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "oltp_zipf",
        why: "broad path: UIP+NRBC over 4096 objects, Zipf 0.99, 4 ops/txn, MPL 8, a flush per \
              commit, checkpoint every 10k; per-commit and per-checkpoint O(objects) work shows",
        stack: Stack::UipNrbc,
        objects: 4096,
        shards: 1,
        mix: Mix::Bank { ops: 4, theta: 0.99, balance_pct: 20 },
        mpl: 8,
        forward_share: 0.8,
        crash_suffix: 1_000,
    },
    Spec {
        name: "hotspot_du",
        why: "the paper's hot spot: DU+NFC on 8 objects, MPL 8; conflict scan, blocking, wounds, \
              intentions and retries dominate while object scan, checkpoint and WAL shares are small",
        stack: Stack::DuNfc,
        objects: 8,
        shards: 1,
        mix: Mix::Bank { ops: 4, theta: 0.99, balance_pct: 10 },
        // 16 clients starve the unluckiest scripts past the retry budget
        // (restarts get a younger wound-wait timestamp); 8 never come close.
        mpl: 8,
        forward_share: 0.8,
        crash_suffix: 1_000,
    },
    Spec {
        name: "sharded_2pc",
        why: "4 shards x 1024 objects, uniform 2-op transfers, half cross-shard (PREPARE/DECIDE \
              2PC) and half single-shard fast path, MPL 8; runtime.shard and 2PC frames do the work",
        stack: Stack::ShardedUipNrbc,
        objects: 4096,
        shards: 4,
        mix: Mix::Transfer { cross_pct: 50 },
        mpl: 8,
        forward_share: 0.8,
        crash_suffix: 1_000,
    },
    Spec {
        name: "recovery_replay",
        why: "oltp_zipf's system crashed 2000 commits past a checkpoint: scan, decode, classify \
              and replay take most of the run, on the same WAL bytes the other three write",
        stack: Stack::UipNrbc,
        objects: 4096,
        shards: 1,
        mix: Mix::Bank { ops: 4, theta: 0.99, balance_pct: 20 },
        mpl: 8,
        forward_share: 0.45,
        crash_suffix: 2_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Turns a client's random stream into scripts. Built once per set-up from
/// the run seed; the system under test only ever sees the generated calls.
pub struct Generator {
    mix: Mix,
    objects: u32,
    shards: u32,
    zipf: Option<Zipf>,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let zipf = match spec.mix {
            Mix::Bank { theta, .. } => {
                Some(Zipf::new(spec.objects, theta, &mut Rng::fork(seed, 0)))
            }
            Mix::Transfer { .. } => None,
        };
        Generator { mix: spec.mix, objects: spec.objects, shards: spec.shards, zipf }
    }

    /// Replace `out` with the client's next script.
    pub fn fill(&self, rng: &mut Rng, out: &mut Vec<(ObjectId, BankInv)>) {
        out.clear();
        match self.mix {
            Mix::Bank { ops, balance_pct, .. } => {
                let zipf = self.zipf.as_ref().expect("bank mixes are Zipf-keyed");
                for _ in 0..ops {
                    let obj = ObjectId(zipf.sample(rng));
                    let kind = rng.below(100);
                    let amount = 1 + rng.below(9);
                    let inv = if kind < balance_pct {
                        BankInv::Balance
                    } else if kind < balance_pct + (100 - balance_pct) / 2 {
                        BankInv::Deposit(amount)
                    } else {
                        BankInv::Withdraw(amount)
                    };
                    out.push((obj, inv));
                }
            }
            Mix::Transfer { cross_pct } => {
                let from = rng.below(u64::from(self.objects)) as u32;
                let cross = rng.below(100) < cross_pct;
                let to = loop {
                    let cand = rng.below(u64::from(self.objects)) as u32;
                    let same_shard = cand % self.shards == from % self.shards;
                    if cand != from && same_shard != cross {
                        break cand;
                    }
                };
                let amount = 1 + rng.below(9);
                out.push((ObjectId(from), BankInv::Withdraw(amount)));
                out.push((ObjectId(to), BankInv::Deposit(amount)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_split_evenly_between_cross_and_single_shard() {
        let spec = find("sharded_2pc").unwrap();
        let gen = Generator::new(spec, 3);
        let mut rng = Rng::new(3);
        let mut script = Vec::new();
        let mut cross = 0;
        for _ in 0..20_000 {
            gen.fill(&mut rng, &mut script);
            assert_eq!(script.len(), 2);
            assert_ne!(script[0].0, script[1].0);
            cross += usize::from(script[0].0 .0 % 4 != script[1].0 .0 % 4);
        }
        assert!((9_500..10_500).contains(&cross), "{cross} of 20000 cross-shard");
    }

    #[test]
    fn bank_mix_honours_its_percentages() {
        let spec = find("hotspot_du").unwrap();
        let gen = Generator::new(spec, 5);
        let mut rng = Rng::new(5);
        let mut script = Vec::new();
        let (mut reads, mut total) = (0, 0);
        for _ in 0..10_000 {
            gen.fill(&mut rng, &mut script);
            total += script.len();
            reads += script.iter().filter(|(o, i)| o.0 < 8 && *i == BankInv::Balance).count();
        }
        assert_eq!(total, 40_000);
        assert!((3_600..4_400).contains(&reads), "{reads} reads of 40000 ops");
    }
}
