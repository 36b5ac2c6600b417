//! Seeded workload generators.
//!
//! Each generator produces a vector of transaction scripts. Generation is
//! deterministic in the seed, so experiment and benchmark runs are
//! reproducible. Object access uses a simple skew parameter: with
//! probability `hot_fraction` a transaction targets object 0 (the hot spot),
//! otherwise a uniformly random object — the "hot-spot" pattern the paper's
//! introduction motivates type-specific concurrency control with.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ccr_adt::bank::{BankAccount, BankInv};
use ccr_adt::counter::{Counter, CounterInv};
use ccr_adt::escrow::{EscrowAccount, EscrowInv};
use ccr_adt::queue::{FifoQueue, QueueInv};
use ccr_adt::set::{IntSet, SetInv};
use ccr_core::adt::Adt;
use ccr_core::ids::ObjectId;
use ccr_runtime::script::{OpsScript, Script};

/// Common workload shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Number of transactions (scripts).
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Number of objects.
    pub objects: u32,
    /// Probability of targeting object 0.
    pub hot_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg { txns: 64, ops_per_txn: 4, objects: 4, hot_fraction: 0.8, seed: 42 }
    }
}

fn pick_obj(rng: &mut StdRng, cfg: &WorkloadCfg) -> ObjectId {
    if cfg.objects <= 1 || rng.gen_bool(cfg.hot_fraction) {
        ObjectId(0)
    } else {
        ObjectId(rng.gen_range(1..cfg.objects))
    }
}

fn scripts_from<A, F>(cfg: &WorkloadCfg, mut op: F) -> Vec<Box<dyn Script<A>>>
where
    A: Adt,
    F: FnMut(&mut StdRng) -> A::Invocation,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.txns)
        .map(|_| {
            let steps: Vec<(ObjectId, A::Invocation)> =
                (0..cfg.ops_per_txn).map(|_| (pick_obj(&mut rng, cfg), op(&mut rng))).collect();
            Box::new(OpsScript::new(steps)) as Box<dyn Script<A>>
        })
        .collect()
}

/// Banking mix: deposits, withdrawals and balance reads on shared accounts.
///
/// `update_fraction` splits updates vs balance reads; updates split evenly
/// between deposits and withdrawals with amounts in `1..=3`. Withdrawals may
/// legitimately be refused (`no`), which is part of the type's concurrency
/// story.
pub fn banking(cfg: &WorkloadCfg, update_fraction: f64) -> Vec<Box<dyn Script<BankAccount>>> {
    scripts_from(cfg, move |rng| {
        if rng.gen_bool(update_fraction) {
            let amount = rng.gen_range(1..=3);
            if rng.gen_bool(0.5) {
                BankInv::Deposit(amount)
            } else {
                BankInv::Withdraw(amount)
            }
        } else {
            BankInv::Balance
        }
    })
}

/// Withdraw-heavy banking: every update is a withdrawal against a seeded
/// balance. This is the workload where UIP+NRBC and DU+NFC diverge most:
/// `(withdraw_ok, withdraw_ok) ∈ NFC ∖ NRBC`.
pub fn withdraw_heavy(cfg: &WorkloadCfg) -> Vec<Box<dyn Script<BankAccount>>> {
    scripts_from(cfg, move |rng| BankInv::Withdraw(rng.gen_range(1..=2)))
}

/// Deposit-heavy banking with occasional withdrawals: the workload where the
/// *asymmetry* of NRBC pays — `(deposit, withdraw_ok) ∉ NRBC` but its mirror
/// is, so a symmetric closure forfeits concurrency.
pub fn deposit_heavy(cfg: &WorkloadCfg) -> Vec<Box<dyn Script<BankAccount>>> {
    scripts_from(cfg, move |rng| {
        if rng.gen_bool(0.85) {
            BankInv::Deposit(rng.gen_range(1..=3))
        } else {
            BankInv::Withdraw(1)
        }
    })
}

/// Deposit-only banking: the paper's motivating hot-spot aggregate. No two
/// deposits conflict under either commutativity relation, while classical
/// 2PL write-locks serialise them completely.
pub fn deposit_only(cfg: &WorkloadCfg) -> Vec<Box<dyn Script<BankAccount>>> {
    scripts_from(cfg, move |rng| BankInv::Deposit(rng.gen_range(1..=3)))
}

/// Hot-spot counter increments with occasional reads.
pub fn counter_hotspot(cfg: &WorkloadCfg, read_fraction: f64) -> Vec<Box<dyn Script<Counter>>> {
    scripts_from(cfg, move |rng| {
        if rng.gen_bool(read_fraction) {
            CounterInv::Read
        } else if rng.gen_bool(0.8) {
            CounterInv::Inc
        } else {
            CounterInv::Dec
        }
    })
}

/// Escrow credits/debits against accounts of capacity `cap`.
pub fn escrow_mix(cfg: &WorkloadCfg, cap: u64) -> Vec<Box<dyn Script<EscrowAccount>>> {
    let max = (cap / 4).max(1);
    scripts_from(cfg, move |rng| {
        let amount = rng.gen_range(1..=max);
        if rng.gen_bool(0.5) {
            EscrowInv::Credit(amount)
        } else {
            EscrowInv::Debit(amount)
        }
    })
}

/// Credit-only escrow traffic (the bounded analogue of the deposit-only
/// hot-spot: all credits commute under both relations while the capacity
/// check still exercises the bound).
pub fn escrow_credits(cfg: &WorkloadCfg) -> Vec<Box<dyn Script<EscrowAccount>>> {
    scripts_from(cfg, move |rng| EscrowInv::Credit(rng.gen_range(1..=3)))
}

/// Producer/consumer over FIFO queues: each transaction either enqueues
/// `ops_per_txn` values or dequeues as many.
pub fn queue_producer_consumer(cfg: &WorkloadCfg) -> Vec<Box<dyn Script<FifoQueue>>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.txns)
        .map(|i| {
            let obj = pick_obj(&mut rng, cfg);
            let steps: Vec<(ObjectId, QueueInv)> = (0..cfg.ops_per_txn)
                .map(|_| {
                    if i % 2 == 0 {
                        (obj, QueueInv::Enq(rng.gen_range(0..4)))
                    } else {
                        (obj, QueueInv::Deq)
                    }
                })
                .collect();
            Box::new(OpsScript::new(steps)) as Box<dyn Script<FifoQueue>>
        })
        .collect()
}

/// Set membership churn: inserts, removes and membership tests over a small
/// element universe (cross-element operations never conflict).
pub fn set_churn(cfg: &WorkloadCfg, universe: u8) -> Vec<Box<dyn Script<IntSet>>> {
    scripts_from(cfg, move |rng| {
        let x = rng.gen_range(0..universe);
        match rng.gen_range(0..3) {
            0 => SetInv::Insert(x),
            1 => SetInv::Remove(x),
            _ => SetInv::Contains(x),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadCfg::default();
        let a = banking(&cfg, 0.5);
        let b = banking(&cfg, 0.5);
        assert_eq!(a.len(), b.len());
        // Drive both first scripts and compare the step streams.
        let (mut s1, mut s2) = (a.into_iter().next().unwrap(), b.into_iter().next().unwrap());
        s1.reset();
        s2.reset();
        for _ in 0..=cfg.ops_per_txn {
            assert_eq!(s1.next(None), s2.next(None));
        }
    }

    #[test]
    fn hot_fraction_skews_access() {
        let cfg =
            WorkloadCfg { txns: 200, ops_per_txn: 1, hot_fraction: 0.9, ..Default::default() };
        let scripts = counter_hotspot(&cfg, 0.0);
        let mut hot = 0;
        for mut s in scripts {
            s.reset();
            if let ccr_runtime::script::Step::Invoke(obj, _) = s.next(None) {
                if obj == ObjectId(0) {
                    hot += 1;
                }
            }
        }
        assert!(hot > 150, "expected strong skew, got {hot}/200");
    }

    #[test]
    fn escrow_credit_amounts_stay_in_range() {
        let cfg = WorkloadCfg { txns: 50, ops_per_txn: 2, objects: 1, ..Default::default() };
        for mut s in escrow_credits(&cfg) {
            s.reset();
            for _ in 0..cfg.ops_per_txn {
                match s.next(None) {
                    ccr_runtime::script::Step::Invoke(_, EscrowInv::Credit(n)) => {
                        assert!((1..=3).contains(&n));
                    }
                    other => panic!("unexpected step {other:?}"),
                }
            }
        }
    }

    #[test]
    fn producer_consumer_alternates() {
        let cfg = WorkloadCfg { txns: 4, ops_per_txn: 2, objects: 1, ..Default::default() };
        let scripts = queue_producer_consumer(&cfg);
        let kinds: Vec<bool> = scripts
            .into_iter()
            .map(|mut s| {
                s.reset();
                matches!(s.next(None), ccr_runtime::script::Step::Invoke(_, QueueInv::Enq(_)))
            })
            .collect();
        assert_eq!(kinds, vec![true, false, true, false]);
    }
}
