//! Shared support for the integration tests: randomly generated
//! table-driven ADTs.
//!
//! A [`TableAdt`] is a deterministic partial state machine over a small
//! fixed state set and invocation alphabet, with a single (constant)
//! response. Random transition tables give random serial specifications, so
//! properties of the commutativity relations and of Theorems 9/10 can be
//! tested over *arbitrary* specifications rather than the curated ADT
//! library.

#![allow(dead_code)]

use ccr::core::adt::{Adt, EnumerableAdt, Op, Outcomes, StateCover};
use proptest::prelude::*;

/// States of a [`TableAdt`] are `0..N_STATES`.
pub const N_STATES: usize = 4;
/// Invocations of a [`TableAdt`] are `0..N_INVS`.
pub const N_INVS: usize = 3;

/// A randomly generated deterministic partial state machine.
///
/// `trans[s][i]` is the post-state of invocation `i` in state `s`, or `None`
/// when `i` is disabled there (partiality). Every invocation responds `0`,
/// so operations and invocations coincide.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableAdt {
    /// The transition table, indexed `[state][invocation]`.
    pub trans: Vec<Vec<Option<u8>>>,
}

impl TableAdt {
    /// Build a table from `N_STATES * N_INVS` raw values; each value is
    /// reduced mod `N_STATES + 1`, with the extra residue meaning
    /// "disabled".
    pub fn from_raw(raw: &[u8]) -> TableAdt {
        assert_eq!(raw.len(), N_STATES * N_INVS);
        let trans = (0..N_STATES)
            .map(|s| {
                (0..N_INVS)
                    .map(|i| {
                        let v = raw[s * N_INVS + i] % (N_STATES as u8 + 1);
                        (v < N_STATES as u8).then_some(v)
                    })
                    .collect()
            })
            .collect();
        TableAdt { trans }
    }

    /// Deterministically derive a table from a seed (splitmix64 stream).
    pub fn from_seed(seed: u64) -> TableAdt {
        let mut x = seed;
        let raw: Vec<u8> = (0..N_STATES * N_INVS)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z >> 56) as u8
            })
            .collect();
        TableAdt::from_raw(&raw)
    }

    /// All states reachable from the initial state, in BFS order.
    pub fn reachable(&self) -> Vec<u8> {
        let mut seen = [false; N_STATES];
        let mut out = vec![0u8];
        seen[0] = true;
        let mut head = 0;
        while head < out.len() {
            let s = out[head] as usize;
            head += 1;
            for t in self.trans[s].iter().flatten() {
                if !seen[*t as usize] {
                    seen[*t as usize] = true;
                    out.push(*t);
                }
            }
        }
        out
    }

    /// Every operation enabled in at least one reachable state.
    pub fn grid(&self) -> Vec<Op<TableAdt>> {
        self.ops_enabled_somewhere(&self.reachable())
    }
}

impl Adt for TableAdt {
    type State = u8;
    type Invocation = u8;
    type Response = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&self, s: &u8, inv: &u8) -> Outcomes<(u8, u8)> {
        match self.trans[*s as usize][*inv as usize] {
            Some(t) => Outcomes::one((0, t)),
            None => Outcomes::none(),
        }
    }
}

impl EnumerableAdt for TableAdt {
    fn invocations(&self) -> Vec<u8> {
        (0..N_INVS as u8).collect()
    }
}

impl StateCover for TableAdt {
    // Cover argument: the machine is deterministic with a single response
    // per invocation, so every legal operation sequence reaches exactly one
    // state. Covering the (finitely many) reachable states therefore covers
    // all prefixes, and the state-cover engine's verdicts are exact.
    fn state_cover(&self, _ops: &[Op<Self>]) -> Vec<u8> {
        self.reachable()
    }

    fn reach_sequence(&self, state: &u8) -> Option<Vec<Op<Self>>> {
        // BFS from the initial state, recording the operation that first
        // discovered each state.
        let mut parent: [Option<(u8, u8)>; N_STATES] = [None; N_STATES]; // (pred, inv)
        let mut seen = [false; N_STATES];
        let mut queue = vec![0u8];
        seen[0] = true;
        let mut head = 0;
        while head < queue.len() {
            let s = queue[head];
            head += 1;
            for (i, t) in self.trans[s as usize].iter().enumerate() {
                if let Some(t) = t {
                    if !seen[*t as usize] {
                        seen[*t as usize] = true;
                        parent[*t as usize] = Some((s, i as u8));
                        queue.push(*t);
                    }
                }
            }
        }
        if !seen[*state as usize] {
            return None;
        }
        let mut ops = Vec::new();
        let mut cur = *state;
        while let Some((pred, inv)) = parent[cur as usize] {
            ops.push(Op::new(inv, 0));
            cur = pred;
        }
        ops.reverse();
        Some(ops)
    }
}

/// A proptest strategy over random transition tables.
pub fn table_adt() -> impl Strategy<Value = TableAdt> {
    prop::collection::vec(0u8..(N_STATES as u8 + 1), N_STATES * N_INVS)
        .prop_map(|raw| TableAdt::from_raw(&raw))
}
