// Test support for the threaded executor, `include!`d (one definition, two
// crates) by `tests/obs_projection.rs` and by the unit tests of
// `crates/runtime/src/threaded.rs`; the including module brings `Adt`,
// `Script` and `Step` into scope.

/// A script that stops inside `next()` — once, the first time it has executed
/// `at` operations — until every party of `gate` has arrived. The executor
/// calls `next` with no lock held, so a transaction stopped here keeps the
/// implicit locks of those `at` operations and its admission slot while the
/// other parties catch up: contention a test can force instead of sizing a
/// queue to hope for it.
pub struct Rendezvous<A: Adt> {
    inner: Box<dyn Script<A>>,
    gate: Option<std::sync::Arc<std::sync::Barrier>>,
    at: usize,
    executed: usize,
}

impl<A: Adt> Script<A> for Rendezvous<A> {
    fn reset(&mut self) {
        self.executed = 0;
        self.inner.reset();
    }

    fn next(&mut self, last: Option<&A::Response>) -> Step<A> {
        if self.executed == self.at {
            if let Some(gate) = self.gate.take() {
                gate.wait();
            }
        }
        self.executed += 1;
        self.inner.next(last)
    }
}

/// `scripts` with the first `n` of them meeting at `gate` once each holds the
/// locks of its first `at` operations. With `n` workers and an `n`-party
/// gate those are the only transactions in flight until the gate opens.
pub fn meeting_first<A: Adt>(
    scripts: Vec<Box<dyn Script<A>>>,
    n: usize,
    at: usize,
    gate: &std::sync::Arc<std::sync::Barrier>,
) -> Vec<Box<dyn Script<A>>> {
    scripts
        .into_iter()
        .enumerate()
        .map(|(i, inner)| -> Box<dyn Script<A>> {
            if i < n {
                Box::new(Rendezvous { inner, gate: Some(gate.clone()), at, executed: 0 })
            } else {
                inner
            }
        })
        .collect()
}

/// Run `f` with a clock as the last party of `gate`: it arrives `delay` from
/// now. For the one thing no script can see — a worker parked at admission —
/// the slot-holder meets this clock instead of another script: the one
/// time-based wait in this file.
pub fn opened_after<T>(
    gate: &std::sync::Barrier,
    delay: std::time::Duration,
    f: impl FnOnce() -> T,
) -> T {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(delay);
            gate.wait();
        });
        f()
    })
}
