//! Depth-first exhaustive enumeration over harness snapshots, with a
//! canonical-state table for deduplication, plus trace replay (the
//! shrinker's and the CLI `--replay` mode's engine) and the deterministic
//! JSON verdict.

use std::collections::BTreeSet;

use ccr_adt::bank::BankAccount;
use ccr_obs::json_string;
use ccr_runtime::oracle::Violation;
use ccr_store::{MemBackend, WalBackend};

use crate::action::{McAction, McTrace};
use crate::harness::{Applied, Harness, McBackend, McBackendKind, McConfig};
use crate::shrink::{reproducer, shrink};

/// Size and shape of the explored state space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct canonical states visited (deduplicated).
    pub states: u64,
    /// Transitions taken (actions that applied; revisits included).
    pub transitions: u64,
    /// Listed actions that turned out inapplicable (dead branches).
    pub skipped: u64,
    /// Terminal states reached (no enabled actions).
    pub terminals: u64,
    /// Longest trace explored.
    pub max_depth: usize,
}

/// The checker's result for one instance: the instance echo, the state-space
/// counts, and — if an invariant broke — the minimized trace plus a
/// reproducer line.
#[derive(Clone, Debug)]
pub struct McVerdict {
    /// The instance explored.
    pub config: McConfig,
    /// State-space counts.
    pub stats: ExploreStats,
    /// The violation found (if any), with its minimized trace.
    pub violation: Option<(Violation, McTrace)>,
}

impl McVerdict {
    /// Whether the instance satisfied every invariant.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// Deterministic JSON rendering: fixed key order, no wall-clock, no
    /// hash-iteration — same instance, byte-identical output.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let s = &self.stats;
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str("  \"mode\": \"mc\",\n");
        out.push_str(&format!("  \"txns\": {},\n", c.txns));
        out.push_str(&format!("  \"objects\": {},\n", c.objects));
        out.push_str(&format!("  \"shards\": {},\n", c.shards));
        out.push_str(&format!("  \"crash_budget\": {},\n", c.crash_budget));
        out.push_str(&format!("  \"ckpt_budget\": {},\n", c.ckpt_budget));
        out.push_str(&format!("  \"group_commit\": {},\n", c.group_commit));
        out.push_str(&format!("  \"backend\": \"{}\",\n", c.backend));
        match c.mutation {
            Some(m) => out.push_str(&format!("  \"mutation\": \"{m}\",\n")),
            None => out.push_str("  \"mutation\": null,\n"),
        }
        out.push_str(&format!("  \"max_tears\": {},\n", c.max_tears));
        out.push_str(&format!("  \"states\": {},\n", s.states));
        out.push_str(&format!("  \"transitions\": {},\n", s.transitions));
        out.push_str(&format!("  \"skipped\": {},\n", s.skipped));
        out.push_str(&format!("  \"terminals\": {},\n", s.terminals));
        out.push_str(&format!("  \"max_depth\": {},\n", s.max_depth));
        out.push_str(&format!("  \"violations\": {}", u32::from(!self.passed())));
        if let Some((v, trace)) = &self.violation {
            out.push_str(",\n");
            out.push_str(&format!("  \"violation_kind\": \"{}\",\n", v.kind()));
            out.push_str(&format!("  \"violation\": {},\n", json_string(&v.to_string())));
            out.push_str(&format!("  \"trace\": {},\n", json_string(&trace.to_string())));
            out.push_str(&format!("  \"reproducer\": {}\n", json_string(&reproducer(c, trace))));
        } else {
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// Exhaustively explore the instance, shrink any violation found, and
/// return the verdict.
pub fn explore(cfg: McConfig) -> McVerdict {
    match cfg.backend {
        McBackendKind::Mem => explore_with::<MemBackend<BankAccount>>(cfg),
        McBackendKind::Disk => explore_with::<WalBackend<BankAccount>>(cfg),
    }
}

/// Replay a recorded trace against a fresh instance; `Some` is the first
/// violation hit. Inapplicable actions are no-ops (the shrinker leans on
/// this: deleting a prefix action may strand a later one).
pub fn run_trace(cfg: McConfig, trace: &McTrace) -> Option<Violation> {
    match cfg.backend {
        McBackendKind::Mem => run_trace_with::<MemBackend<BankAccount>>(cfg, trace),
        McBackendKind::Disk => run_trace_with::<WalBackend<BankAccount>>(cfg, trace),
    }
}

fn run_trace_with<B: McBackend>(cfg: McConfig, trace: &McTrace) -> Option<Violation> {
    let mut h = Harness::<B>::new(cfg, cfg.placement());
    trace.0.iter().find_map(|&a| match h.apply(a) {
        Applied::Violation(v) => Some(v),
        _ => None,
    })
}

fn explore_with<B: McBackend>(cfg: McConfig) -> McVerdict {
    let mut h = Harness::<B>::new(cfg, cfg.placement());
    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut stats = ExploreStats::default();
    let mut trace: Vec<McAction> = Vec::new();
    let found = dfs(&mut h, &mut seen, &mut trace, &mut stats);
    let violation = found.map(|(v, raw)| {
        let minimized = shrink(cfg, &McTrace(raw), v.kind());
        // Report the violation the *minimized* trace produces (same kind by
        // construction, but possibly different details — e.g. a different
        // surviving transaction id than the raw counterexample's).
        let v = run_trace(cfg, &minimized).unwrap_or(v);
        (v, minimized)
    });
    McVerdict { config: cfg, stats, violation }
}

fn dfs<B: McBackend>(
    h: &mut Harness<B>,
    seen: &mut BTreeSet<Vec<u8>>,
    trace: &mut Vec<McAction>,
    stats: &mut ExploreStats,
) -> Option<(Violation, Vec<McAction>)> {
    if !seen.insert(h.canonical_key()) {
        return None;
    }
    stats.states += 1;
    stats.max_depth = stats.max_depth.max(trace.len());
    let actions = h.enabled_actions();
    if actions.is_empty() {
        stats.terminals += 1;
        return None;
    }
    let snap = h.snapshot();
    for a in actions {
        trace.push(a);
        match h.apply(a) {
            Applied::Ok => {
                stats.transitions += 1;
                if let Some(hit) = dfs(h, seen, trace, stats) {
                    return Some(hit);
                }
            }
            Applied::Skip => stats.skipped += 1,
            Applied::Violation(v) => {
                stats.transitions += 1;
                let raw = trace.clone();
                return Some((v, raw));
            }
        }
        trace.pop();
        h.restore(&snap);
    }
    None
}
