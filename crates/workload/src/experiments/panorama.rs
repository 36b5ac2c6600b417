//! **B4 — type-specific locking across the ADT library**: for each ADT with
//! a hot-spot workload, compare update-in-place + NRBC against classical
//! read/write 2PL on the same engine. The gap is the concurrency the type's
//! algebra buys — large for counters and sets, smaller for escrow (whose
//! operations are all writers but mostly commute), and absent only where the
//! specification itself serialises.

use ccr_adt::counter::Counter;
use ccr_adt::escrow::{EscrowAccount, EscrowInv};
use ccr_adt::set::IntSet;
use ccr_adt::traits::{RwClassify, RwConflict};
use ccr_core::adt::Adt;
use ccr_core::conflict::{Conflict, Derived};
use ccr_core::ids::ObjectId;
use ccr_runtime::engine::UipEngine;
use ccr_runtime::script::Script;

use crate::gen::{counter_hotspot, escrow_credits, escrow_mix, set_churn, WorkloadCfg};
use crate::harness::{outcomes_table, run_config, HarnessCfg, Outcome};

fn w() -> WorkloadCfg {
    WorkloadCfg { txns: 24, ops_per_txn: 3, objects: 1, hot_fraction: 1.0, seed: 21 }
}

fn cfg() -> HarnessCfg {
    HarnessCfg { seed: 3, check_atomicity_sampled: 50, ..Default::default() }
}

fn pair<A, C>(
    adt_name: &str,
    adt: A,
    nrbc: C,
    setup: &[(ObjectId, A::Invocation)],
    make: impl Fn() -> Vec<Box<dyn Script<A>>>,
) -> (Outcome, Outcome)
where
    A: Adt + RwClassify,
    C: Conflict<A>,
{
    let typed = run_config::<A, UipEngine<A>, C>(
        &format!("{adt_name}: UIP + NRBC"),
        adt_name,
        adt.clone(),
        1,
        nrbc,
        setup,
        make(),
        &cfg(),
    );
    let classical = run_config::<A, UipEngine<A>, RwConflict<A>>(
        &format!("{adt_name}: UIP + 2PL"),
        adt_name,
        adt.clone(),
        1,
        RwConflict::new(adt),
        setup,
        make(),
        &cfg(),
    );
    (typed, classical)
}

/// All panorama outcomes, `(typed, classical)` per ADT.
pub fn outcomes() -> Vec<(Outcome, Outcome)> {
    let w = w();
    let mut out = Vec::new();
    let nrbc = Derived::nrbc("counter", Counter);
    out.push(pair("counter", Counter, nrbc, &[], || counter_hotspot(&w, 0.1)));
    let set = IntSet { elems: (0..8).collect() };
    let nrbc = Derived::nrbc("set", set.clone());
    out.push(pair("set", set, nrbc, &[], || set_churn(&w, 8)));
    // Credit-only escrow: the commuting side of the type. The *mixed*
    // credit/debit workload has bidirectional NRBC conflicts and thrashes at
    // this multiprogramming level (same admission-control caveat as the
    // mixed banking workload in B1) — reported separately below.
    let escrow = EscrowAccount::new(1000, [1, 2, 3]);
    let nrbc = Derived::nrbc("escrow", escrow.clone());
    out.push(pair("escrow (credits)", escrow, nrbc, &[], || escrow_credits(&w)));
    out
}

/// The mixed escrow workload for the caveat row (not part of the
/// typed-beats-2PL claim).
pub fn escrow_mixed_outcomes() -> (Outcome, Outcome) {
    let w = w();
    let escrow = EscrowAccount::new(1000, [1, 2, 3]);
    pair(
        "escrow (mixed)",
        escrow.clone(),
        Derived::nrbc("escrow", escrow),
        &[(ObjectId::SOLE, EscrowInv::Credit(500))],
        || escrow_mix(&w, 1000),
    )
}

/// Run and render.
pub fn run() -> String {
    let mut outi = String::new();
    outi.push_str("## B4 — Type-specific locking across the ADT library\n\n");
    let mut all: Vec<Outcome> = outcomes().into_iter().flat_map(|(a, b)| [a, b]).collect();
    let (em_typed, em_classical) = escrow_mixed_outcomes();
    all.push(em_typed);
    all.push(em_classical);
    outi.push_str(&outcomes_table(&all));
    outi.push_str(
        "\nThe hot-spot gap between the type's minimal relation and read/write \
         locks is the paper's motivating observation; the escrow-credits row \
         shows it persists even when every operation is a writer (2PL has no \
         read/read escape hatch, while credits commute). The escrow-mixed row \
         repeats B1's honest caveat: bidirectional credit/debit conflicts \
         thrash without admission control at this multiprogramming level.\n",
    );
    outi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_locking_beats_2pl_on_every_adt() {
        for (typed, classical) in outcomes() {
            assert_eq!(typed.committed, classical.committed, "{}", typed.workload);
            assert_eq!(typed.dynamic_atomic, Some(true), "{}", typed.config);
            assert_eq!(classical.dynamic_atomic, Some(true), "{}", classical.config);
            assert!(
                typed.wait_rounds < classical.wait_rounds,
                "{}: typed {} vs classical {}",
                typed.workload,
                typed.wait_rounds,
                classical.wait_rounds
            );
        }
    }
}
