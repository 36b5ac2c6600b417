//! **B3 — what ordering costs**: producer/consumer workloads over the FIFO
//! queue, the min-priority queue, and the semiqueue.
//!
//! The three buffers form a spectrum of specification strength:
//!
//! * FIFO queue — arrival order observable: enqueues of different values
//!   conflict, consumers conflict;
//! * priority queue — arrival order hidden, value order observable: inserts
//!   always commute, insert/extract conflicts only when the insert undercuts
//!   the extracted minimum;
//! * semiqueue — no order at all (non-deterministic `deq`): consumers never
//!   conflict with each other or with producers under UIP+NRBC.
//!
//! This is Weihl's classic argument for weakening specifications to buy
//! concurrency, measured.

use ccr_adt::pqueue::{PQueue, PqInv};
use ccr_adt::queue::{FifoQueue, QueueInv};
use ccr_adt::semiqueue::{Semiqueue, SqInv};
use ccr_core::adt::{Adt, StateCover};
use ccr_core::conflict::Derived;
use ccr_core::ids::ObjectId;
use ccr_runtime::engine::UipEngine;
use ccr_runtime::script::{OpsScript, Script};

use crate::harness::{outcomes_table, run_config, HarnessCfg, Outcome};

const TXNS: usize = 24;
const OPS: usize = 2;

fn producer_consumer<A, FP, FC_>(mut prod: FP, mut cons: FC_) -> Vec<Box<dyn Script<A>>>
where
    A: Adt,
    FP: FnMut(usize) -> A::Invocation,
    FC_: FnMut() -> A::Invocation,
{
    (0..TXNS)
        .map(|i| {
            let invs: Vec<A::Invocation> =
                (0..OPS).map(|k| if i % 2 == 0 { prod(i * OPS + k) } else { cons() }).collect();
            Box::new(OpsScript::on(ObjectId::SOLE, invs)) as Box<dyn Script<A>>
        })
        .collect()
}

/// Run one buffer type under UIP + its NRBC relation, named `adt_name`.
fn run_buffer<A: StateCover>(
    name: &str,
    adt_name: &str,
    adt: A,
    scripts: Vec<Box<dyn Script<A>>>,
) -> Outcome {
    run_config::<A, UipEngine<A>, Derived<A>>(
        name,
        "producer/consumer",
        adt.clone(),
        1,
        Derived::nrbc(adt_name, adt),
        &[],
        scripts,
        &HarnessCfg { seed: 13, check_atomicity_sampled: 50, ..Default::default() },
    )
}

/// The three outcomes `(fifo, pqueue, semiqueue)`.
pub fn outcomes() -> (Outcome, Outcome, Outcome) {
    let fifo = run_buffer(
        "FIFO queue (UIP + NRBC)",
        "queue",
        FifoQueue { values: vec![0, 1, 2, 3] },
        producer_consumer::<FifoQueue, _, _>(|i| QueueInv::Enq((i % 4) as u8), || QueueInv::Deq),
    );
    let pq = run_buffer(
        "priority queue (UIP + NRBC)",
        "pqueue",
        PQueue { values: vec![0, 1, 2, 3] },
        producer_consumer::<PQueue, _, _>(|i| PqInv::Insert((i % 4) as u8), || PqInv::ExtractMin),
    );
    let sq = run_buffer(
        "semiqueue (UIP + NRBC)",
        "semiqueue",
        Semiqueue { values: vec![0, 1, 2, 3] },
        producer_consumer::<Semiqueue, _, _>(|i| SqInv::Enq((i % 4) as u8), || SqInv::Deq),
    );
    (fifo, pq, sq)
}

/// Run and render.
pub fn run() -> String {
    let (fifo, pq, sq) = outcomes();
    let mut out = String::new();
    out.push_str("## B3 — The price of ordering (queue vs priority queue vs semiqueue)\n\n");
    out.push_str(&outcomes_table(&[fifo, pq, sq]));
    out.push_str(
        "\nWeakening the specification monotonically buys concurrency: the FIFO queue \
         serialises consumers and cross-value producers; the priority queue frees the \
         producers (multiset state) but keeps value-ordered extraction conflicts; the \
         semiqueue's non-deterministic `deq` removes consumer/consumer and \
         consumer/producer conflicts entirely under update-in-place recovery.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weaker_specifications_wait_less() {
        let (fifo, pq, sq) = outcomes();
        assert_eq!(fifo.committed, TXNS as u64);
        assert_eq!(pq.committed, TXNS as u64);
        assert_eq!(sq.committed, TXNS as u64);
        assert!(
            sq.wait_rounds <= pq.wait_rounds && pq.wait_rounds <= fifo.wait_rounds,
            "expected semiqueue ≤ pqueue ≤ fifo, got {} / {} / {}",
            sq.wait_rounds,
            pq.wait_rounds,
            fifo.wait_rounds
        );
        assert!(
            sq.wait_rounds < fifo.wait_rounds,
            "the spectrum must be strict end to end: {} vs {}",
            sq.wait_rounds,
            fifo.wait_rounds
        );
    }
}
