//! Fault-simulation scenarios: seeded workloads × engine/relation combos ×
//! fault plans — one way to describe, run, sweep and shrink them.
//!
//! A [`SimScenario`] is a fully serialisable description of one simulated
//! run. Its command-line form is declared once, in the flag table [`FLAGS`]:
//! [`SimScenario::parse_args`] reads a command line through the table,
//! [`SimScenario::reproducer`] prints the scenario back through it as a
//! replayable `ccr-experiments sim …` line, and [`usage`] lists it. [`run`]
//! runs a scenario under the driver its shard count calls for — one durable
//! domain ([`run_scenario`]) or a fleet under 2PC
//! ([`crate::shard_sim`]); [`sweep`] runs a scenario as a template over a
//! range of seeds and seeded fault plans; [`shrink`] minimises a failing
//! scenario with a delta-debugging loop over a list of passes (drop faults,
//! skip scripts, shorten transactions, bisect fault event indices) so the
//! reproducer is as small as the defect allows — typically two or three
//! transactions for a weakened conflict relation.

use std::fmt;
use std::str::FromStr;

use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount};
use ccr_adt::escrow::EscrowAccount;
use ccr_core::adt::Adt;
use ccr_core::atomicity::SystemSpec;
use ccr_core::conflict::{Conflict, Derived, SymmetricClosure};
use ccr_obs::{chrome_trace, flame_summary, MetricsReport};
use ccr_runtime::crash::DurableSystem;
use ccr_runtime::engine::{DuEngine, RecoveryEngine, UipEngine};
use ccr_runtime::fault::{FaultMix, FaultPlan};
use ccr_runtime::script::Script;
use ccr_runtime::sim::{run_sim, SimCfg, SimFailure, SimReport, StateInvariant};
use ccr_runtime::system::ConflictPolicy;
use ccr_store::{LogBackend, MemBackend, Persist, WalBackend, WalConfig};

use crate::gen::{banking, escrow_mix, WorkloadCfg};
use crate::shard_sim::{run_shard_scenario, ShardFailure, ShardReport};

/// Escrow capacity used by the escrow scenarios.
const ESCROW_CAP: u64 = 20;

/// An engine × conflict-relation pairing the simulator can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combo {
    /// Update-in-place with NRBC — correct (Theorem 9).
    UipNrbc,
    /// Deferred update with NFC — correct (Theorem 10).
    DuNfc,
    /// Update-in-place with symmetrised NFC — **deliberately weakened**:
    /// FC does not order operations against pending non-commuting updates
    /// the way RBC does, so UIP executions can commit serially impossible
    /// responses. The oracle must catch this combo.
    UipSymNfc,
    /// Escrow accounts under update-in-place with NRBC — correct.
    EscrowUipNrbc,
    /// Escrow accounts under deferred update with NFC — correct.
    EscrowDuNfc,
}

impl Combo {
    /// All combos, for sweeps.
    pub const ALL: [Combo; 5] =
        [Combo::UipNrbc, Combo::DuNfc, Combo::UipSymNfc, Combo::EscrowUipNrbc, Combo::EscrowDuNfc];

    /// Whether the pairing is one of the paper's correct ones (the oracle is
    /// expected to pass on these under every fault plan).
    pub fn is_correct_pairing(self) -> bool {
        !matches!(self, Combo::UipSymNfc)
    }

    /// The ADT the combo runs over (tracer label).
    pub fn adt_name(self) -> &'static str {
        match self {
            Combo::UipNrbc | Combo::DuNfc | Combo::UipSymNfc => "bank",
            Combo::EscrowUipNrbc | Combo::EscrowDuNfc => "escrow",
        }
    }
}

impl fmt::Display for Combo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Combo::UipNrbc => "uip-nrbc",
            Combo::DuNfc => "du-nfc",
            Combo::UipSymNfc => "uip-sym-nfc",
            Combo::EscrowUipNrbc => "escrow-uip-nrbc",
            Combo::EscrowDuNfc => "escrow-du-nfc",
        };
        write!(f, "{s}")
    }
}

impl FromStr for Combo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uip-nrbc" => Ok(Combo::UipNrbc),
            "du-nfc" => Ok(Combo::DuNfc),
            "uip-sym-nfc" => Ok(Combo::UipSymNfc),
            "escrow-uip-nrbc" => Ok(Combo::EscrowUipNrbc),
            "escrow-du-nfc" => Ok(Combo::EscrowDuNfc),
            other => Err(format!("unknown combo {other:?}")),
        }
    }
}

/// Which storage backend a scenario journals through: `ccr-store`'s
/// segmented WAL on the simulated sector device (`disk`, the default, and
/// the only backend that can express the sector-level storage faults), or
/// the fast in-memory one (`mem`, where those faults degrade to plain
/// crashes). The model checker's instances take the same choice.
pub use ccr_mc::McBackendKind as Backend;

fn parse_policy(s: &str) -> Result<ConflictPolicy, String> {
    match s {
        "block" => Ok(ConflictPolicy::Block),
        "wound" => Ok(ConflictPolicy::WoundWait),
        "nowait" => Ok(ConflictPolicy::NoWait),
        other => Err(format!("unknown policy {other:?}")),
    }
}

fn policy_name(p: ConflictPolicy) -> &'static str {
    match p {
        ConflictPolicy::Block => "block",
        ConflictPolicy::WoundWait => "wound",
        ConflictPolicy::NoWait => "nowait",
    }
}

/// One fully reproducible simulated run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimScenario {
    /// Engine × conflict-relation pairing.
    pub combo: Combo,
    /// Conflict policy.
    pub policy: ConflictPolicy,
    /// Scripts generated (before `skip` filtering).
    pub txns: usize,
    /// Operations per script.
    pub ops_per_txn: usize,
    /// Objects in the system.
    pub objects: u32,
    /// Generated script indices to omit (the shrinker's script minimiser).
    pub skip: Vec<usize>,
    /// The fault plan.
    pub plan: FaultPlan,
    /// Storage backend the journal lives on.
    pub backend: Backend,
    /// The simulator configuration the run goes under, handed to
    /// [`run_sim`] as it stands. `cfg.seed` seeds both workload generation
    /// and scheduler interleaving; the checkpoint cadence, group commit, the
    /// recovery-convergence leg and the overload knobs (`mpl`, `deadline`,
    /// `max_staged`, `stall_threshold`) are the ones with a flag in
    /// [`FLAGS`].
    pub cfg: SimCfg,
    /// Durable shard count. `1` (the default) is the classic single-domain
    /// run; `>= 2` is a fleet under presumed-abort 2PC
    /// ([`crate::shard_sim`]), where `combo`, `policy`, `ops_per_txn`,
    /// `objects` and every `cfg` field but the seed and group commit are
    /// ignored (the sharded instance is one object per shard under the bank
    /// ADT).
    pub shards: usize,
    /// Crash-at-every-2PC-step arm: drive every cross-shard commit through
    /// `commit_global_with_crash` at a step cycling through the four
    /// canonical decision points. Sharded runs only.
    pub twopc_crash: bool,
    /// Negative control for the eighth oracle leg: lose the coordinator's
    /// first commit-decision record while still acking the client and
    /// resolving one participant — the planted bug the global
    /// uniform-outcome check must catch. Sharded runs only.
    pub lose_decision: bool,
}

impl Default for SimScenario {
    /// The default workload shape: what a command line with no scenario
    /// flag but `--combo uip-nrbc` runs.
    fn default() -> Self {
        SimScenario {
            combo: Combo::UipNrbc,
            policy: ConflictPolicy::Block,
            txns: 8,
            ops_per_txn: 2,
            objects: 1,
            skip: Vec::new(),
            plan: FaultPlan::none(),
            backend: Backend::Disk,
            cfg: SimCfg::default(),
            shards: 1,
            twopc_crash: false,
            lose_decision: false,
        }
    }
}

/// One scenario flag. [`FLAGS`] is the only place a scenario flag is named:
/// the parser ([`SimScenario::parse_args`]), the reproducer
/// ([`SimScenario::reproducer`]) and every usage text ([`usage`]) are read
/// off it.
pub struct Flag {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    /// The value's placeholder in the usage text; `None` marks a switch.
    pub value: Option<&'static str>,
    /// Whether a reproducer prints the flag even at its default. A
    /// reproducer that leans on a default silently replays the wrong run
    /// when that default changes, so everything that shapes the workload,
    /// changes scheduling (the overload knobs) or routes the run (`--backend`,
    /// `--shards`) is pinned; only the off-by-default extras are elided.
    pub pinned: bool,
    /// Whether the command line must give it.
    pub required: bool,
    /// One usage line.
    pub help: &'static str,
    /// Store the value (`""` for a switch).
    set: fn(&mut SimScenario, &str) -> Result<(), String>,
    /// The value as a reproducer prints it (for a switch: whether it is on).
    get: fn(&SimScenario) -> String,
}

type Access = (fn(&mut SimScenario, &str) -> Result<(), String>, fn(&SimScenario) -> String);

const fn pinned(name: &'static str, value: &'static str, help: &'static str, at: Access) -> Flag {
    Flag { name, value: Some(value), pinned: true, required: false, help, set: at.0, get: at.1 }
}

const fn elided(name: &'static str, value: &'static str, help: &'static str, at: Access) -> Flag {
    Flag { pinned: false, ..pinned(name, value, help, at) }
}

const fn switch(name: &'static str, help: &'static str, at: Access) -> Flag {
    Flag { value: None, ..elided(name, "", help, at) }
}

/// Access to a scenario field that parses with `FromStr` and prints with
/// `Display`.
macro_rules! field {
    ($($place:tt)+) => {
        (
            |s, v| {
                s.$($place)+ = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            },
            |s| s.$($place)+.to_string(),
        )
    };
}

/// Access to a boolean scenario field its switch turns on.
macro_rules! on {
    ($($place:tt)+) => {
        (
            |s, _| {
                s.$($place)+ = true;
                Ok(())
            },
            |s| s.$($place)+.to_string(),
        )
    };
}

const COMBOS: &str = "uip-nrbc | du-nfc | uip-sym-nfc | escrow-uip-nrbc | escrow-du-nfc";
const POLICY: Access = (
    |s, v| {
        s.policy = parse_policy(v)?;
        Ok(())
    },
    |s| policy_name(s.policy).to_string(),
);
const SKIP: Access = (
    |s, v| {
        s.skip = v
            .split(',')
            .map(|i| i.trim().parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
        Ok(())
    },
    |s| s.skip.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
);
const CKPT: Access = (
    |s, v| {
        s.cfg.checkpoint_every = Some(v.parse().map_err(|e| format!("{e}"))?);
        Ok(())
    },
    |s| s.cfg.checkpoint_every.map_or(String::new(), |every| every.to_string()),
);

/// The scenario flags, in the order a reproducer prints them.
pub const FLAGS: &[Flag] = &[
    Flag { required: true, ..pinned("--combo", "C", COMBOS, field!(combo)) },
    pinned("--policy", "block|wound|nowait", "what a conflicting request does", POLICY),
    pinned("--seed", "N", "workload and interleaving seed", field!(cfg.seed)),
    pinned("--txns", "N", "scripts generated", field!(txns)),
    pinned("--ops", "N", "operations per script", field!(ops_per_txn)),
    pinned("--objects", "N", "objects in the system", field!(objects)),
    elided("--skip", "i,j,...", "script indices to leave out", SKIP),
    pinned("--backend", "disk|mem", "where the journal lives", field!(backend)),
    pinned("--mpl", "N", "transactions in flight (0 = unlimited)", field!(cfg.mpl)),
    pinned("--deadline", "ROUNDS", "per-transaction deadline (0 = none)", field!(cfg.deadline)),
    pinned("--max-staged", "N", "group-flush shed bound (0 = none)", field!(cfg.max_staged)),
    pinned("--stall-threshold", "TICKS", "stall strike (0 = off)", field!(cfg.stall_threshold)),
    pinned("--shards", "N", "durable shards; 2..=8 is a fleet under 2PC", field!(shards)),
    switch("--2pc-crash", "fleet: crash each global commit at a 2PC step", on!(twopc_crash)),
    switch("--lose-decision", "fleet: lose a decision record (exit 1)", on!(lose_decision)),
    elided("--ckpt", "N", "checkpoint every N commits", CKPT),
    switch("--group-commit", "one flush per scheduler round", on!(cfg.group_commit)),
    switch(
        "--fault-during-recovery",
        "crash recovery at each of its device ops",
        on!(cfg.fault_during_recovery),
    ),
    pinned("--faults", "SPEC|none", "fault plan, e.g. 12:crash,30:torn2", field!(plan)),
];

/// Reads the value of the flag being parsed off the argument list.
pub type NextValue<'a, 'v> = &'v mut dyn FnMut() -> Result<&'a str, String>;

/// Walk a flag list, handing each flag and a reader for its value to
/// `on_flag`; a flag it does not take (`Ok(false)`) is an error.
pub fn parse_flags<'a>(
    args: &'a [String],
    mut on_flag: impl FnMut(&'a str, NextValue<'a, '_>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value =
            || rest.next().map(String::as_str).ok_or_else(|| format!("{arg} needs a value"));
        if !on_flag(arg, &mut value)? {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(())
}

/// Usage text of a subcommand: its `own` flags and notes, and — if it takes
/// a `scenario` — one line per scenario flag.
pub fn usage(subcommand: &str, scenario: bool, own: &str) -> String {
    let mut text = format!("usage: ccr-experiments {subcommand} ");
    if !scenario {
        return text + own;
    }
    text += &format!("<scenario flags> {own}scenario flags:\n");
    for f in FLAGS {
        let flag = format!("{} {}", f.name, f.value.unwrap_or_default());
        let required = if f.required { " (required)" } else { "" };
        text += &format!("  {flag:<34} {}{required}\n", f.help);
    }
    text
}

impl SimScenario {
    /// A scenario with the default workload shape.
    pub fn new(combo: Combo, seed: u64, plan: FaultPlan) -> Self {
        SimScenario {
            combo,
            plan,
            cfg: SimCfg { seed, ..SimCfg::default() },
            ..SimScenario::default()
        }
    }

    /// Parse a command line: the scenario flags of [`FLAGS`] fill the
    /// scenario, every other flag is offered to `extra`. The scenario is
    /// [`validate`](Self::validate)d before it is returned.
    pub fn parse_args<'a>(
        args: &'a [String],
        mut extra: impl FnMut(&'a str, NextValue<'a, '_>) -> Result<bool, String>,
    ) -> Result<SimScenario, String> {
        let mut scenario = SimScenario::default();
        let mut missing: Vec<&str> = FLAGS.iter().filter(|f| f.required).map(|f| f.name).collect();
        parse_flags(args, |arg, value| {
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                return extra(arg, value);
            };
            let v = if flag.value.is_some() { value()? } else { "" };
            (flag.set)(&mut scenario, v).map_err(|e| format!("{arg}: {e}"))?;
            missing.retain(|name| *name != arg);
            Ok(true)
        })?;
        if let Some(name) = missing.first() {
            return Err(format!("missing {name}"));
        }
        scenario.validate()?;
        Ok(scenario)
    }

    /// Refuse flag combinations no driver can run.
    pub fn validate(&self) -> Result<(), String> {
        let max_txns = crate::shard_sim::MAX_TXNS;
        let refusal = if self.shards > 8 {
            "--shards takes 2..=8; larger fleets explode the crash-subset space".to_string()
        } else if self.sharded() && self.cfg.fault_during_recovery {
            "--fault-during-recovery is single-domain; the sharded driver's twopc step 3 \
             crashes a participant inside its own recovery"
                .to_string()
        } else if self.sharded() && self.txns > max_txns {
            format!("--txns takes at most {max_txns} on a fleet (one balance bit each)")
        } else if !self.sharded() && self.lose_decision {
            "--lose-decision needs --shards >= 2 (it sabotages the 2PC coordinator)".to_string()
        } else if !self.sharded() && self.twopc_crash {
            "--2pc-crash needs --shards >= 2 (there is no 2PC on one shard)".to_string()
        } else {
            return Ok(());
        };
        Err(refusal)
    }

    /// Whether the scenario is a fleet of durable shards under 2PC rather
    /// than one durable domain.
    pub fn sharded(&self) -> bool {
        self.shards >= 2
    }

    /// The mix a sweep of this scenario draws its fault plans from: the
    /// sharded mix for a fleet, else the gray mix when asked for, else the
    /// storage mix.
    pub fn fault_mix(&self, gray: bool) -> Result<FaultMix, String> {
        match (self.sharded(), gray) {
            (true, true) => Err("--gray is single-domain; sharded sweeps draw from the sharded \
                                 fault mix (crash subsets + 2PC steps) already"
                .to_string()),
            (true, false) => Ok(FaultMix::Sharded { nshards: self.shards as u32 }),
            (false, true) => Ok(FaultMix::Gray),
            (false, false) => Ok(FaultMix::Storage),
        }
    }

    /// Scripts actually run (after skipping).
    pub fn live_txns(&self) -> usize {
        self.txns - self.skip.iter().filter(|&&i| i < self.txns).count()
    }

    /// The replayable command line for this scenario.
    pub fn reproducer(&self) -> String {
        let default = SimScenario::default();
        let mut line = String::from("ccr-experiments sim");
        for flag in FLAGS {
            let value = (flag.get)(self);
            if flag.pinned || value != (flag.get)(&default) {
                line.push(' ');
                line.push_str(flag.name);
                if flag.value.is_some() {
                    line.push(' ');
                    line.push_str(&value);
                }
            }
        }
        line
    }
}

/// Rendered observability artifacts of one traced scenario run: the Chrome
/// `trace_event` JSON, the folded-stack flame summary, the metrics report,
/// the profiler document, and the WAL forensics. All byte-deterministic in
/// the scenario.
#[derive(Clone, Debug)]
pub struct TraceArtifacts {
    /// Chrome `trace_event` JSON (load in `chrome://tracing` / Perfetto).
    pub chrome: String,
    /// Folded-stack text flamegraph summary.
    pub flame: String,
    /// Labels + counters + histogram percentiles.
    pub metrics: MetricsReport,
    /// The schema-pinned profile document (see [`crate::profile`]).
    pub profile: String,
    /// Offline WAL inspection of the final device image (`None` on the mem
    /// backend, which has no byte image).
    pub inspection: Option<String>,
    /// Whether the offline inspector's classification of the final image —
    /// and of a deliberately re-torn copy of it — agrees with a real
    /// `DiscardTail` recovery scan (`None` on the mem backend).
    pub inspect_agreement: Option<Result<(), String>>,
}

/// What a combo runs over: the ADT, its conflict relation, the generated
/// scripts (after skipping) and the ADT's state invariant, if it has one.
struct Workload<A: Adt, C> {
    adt: A,
    conflict: C,
    scripts: Vec<Box<dyn Script<A>>>,
    invariant: Option<&'static StateInvariant<A>>,
}

fn run_combo<A, E, C>(
    scenario: &SimScenario,
    workload: Workload<A, C>,
    traced: bool,
) -> (Result<SimReport, SimFailure>, Option<TraceArtifacts>)
where
    A: Adt,
    A::State: Persist,
    A::Invocation: Persist,
    A::Response: Persist,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
{
    match scenario.backend {
        Backend::Disk => {
            let wal = WalBackend::new(WalConfig::default());
            run_combo_on::<A, E, C, _>(scenario, workload, wal, traced)
        }
        Backend::Mem => run_combo_on::<A, E, C, _>(scenario, workload, MemBackend::new(), traced),
    }
}

fn run_combo_on<A, E, C, B>(
    scenario: &SimScenario,
    Workload { adt, conflict, scripts, invariant }: Workload<A, C>,
    backend: B,
    traced: bool,
) -> (Result<SimReport, SimFailure>, Option<TraceArtifacts>)
where
    A: Adt,
    E: RecoveryEngine<A>,
    C: Conflict<A> + Clone,
    B: LogBackend<A>,
{
    let mut sys: DurableSystem<A, E, C, B> =
        DurableSystem::with_backend(adt.clone(), scenario.objects, conflict, backend);
    sys.system_mut().set_policy(scenario.policy);
    if traced {
        let obs = sys.system_mut().obs_mut();
        obs.set_label("combo", scenario.combo.to_string());
        obs.set_label("adt", scenario.combo.adt_name());
        obs.set_label("seed", scenario.cfg.seed.to_string());
    } else {
        // Counters and histograms stay on; only the per-event records (and
        // their string rendering) are skipped. The shrinker runs thousands
        // of scenarios, so the untraced path must not allocate per event.
        sys.system_mut().obs_mut().set_record_events(false);
    }
    let spec = SystemSpec::uniform(adt, scenario.objects);
    let result = run_sim(&mut sys, scripts, &scenario.plan, &scenario.cfg, &spec, invariant);
    let artifacts = traced.then(|| {
        // The forensic leg: the inspector must agree with recovery on the
        // final image, and on a copy with its last flush re-torn (so every
        // traced run exercises the damaged-image path too, not just clean).
        let inspect_agreement = sys.backend().inspection_agrees_with_recovery().map(|clean| {
            clean.and_then(|()| {
                let mut torn = sys.backend().clone();
                if torn.tear_last_flush(1) {
                    torn.inspection_agrees_with_recovery()
                        .expect("a tearable backend has an image")
                        .map_err(|e| format!("after tear: {e}"))
                } else {
                    Ok(())
                }
            })
        });
        let inspection = sys.backend().wal_inspection();
        let obs = sys.system().obs();
        TraceArtifacts {
            chrome: chrome_trace(obs),
            flame: flame_summary(obs),
            metrics: obs.metrics_report(),
            profile: crate::profile::profile_json(scenario, &result, obs),
            inspection,
            inspect_agreement,
        }
    });
    (result, artifacts)
}

/// Run one single-domain scenario to completion (or its first oracle
/// failure) — the arm of [`run`] for callers that need the typed
/// [`SimReport`]. Structured event recording is off on this path — the sweep
/// and shrink drivers call it thousands of times; use
/// [`run_scenario_traced`] to render artifacts.
pub fn run_scenario(scenario: &SimScenario) -> Result<SimReport, SimFailure> {
    run_scenario_inner(scenario, false).0
}

/// Run one scenario with full event recording and render the observability
/// artifacts (Chrome trace, flame summary, metrics report). The artifacts
/// are produced whether or not the oracle passes — a failing run's trace is
/// exactly the one worth looking at.
pub fn run_scenario_traced(
    scenario: &SimScenario,
) -> (Result<SimReport, SimFailure>, TraceArtifacts) {
    let (result, artifacts) = run_scenario_inner(scenario, true);
    (result, artifacts.expect("traced run renders artifacts"))
}

fn run_scenario_inner(
    scenario: &SimScenario,
    traced: bool,
) -> (Result<SimReport, SimFailure>, Option<TraceArtifacts>) {
    type Uip<A> = UipEngine<A>;
    type Du<A> = DuEngine<A>;
    match scenario.combo {
        Combo::UipNrbc => run_combo::<_, Uip<_>, _>(scenario, bank(scenario, bank_nrbc()), traced),
        Combo::DuNfc => run_combo::<_, Du<_>, _>(scenario, bank(scenario, bank_nfc()), traced),
        Combo::UipSymNfc => {
            let weakened = SymmetricClosure(bank_nfc());
            run_combo::<_, Uip<_>, _>(scenario, bank(scenario, weakened), traced)
        }
        Combo::EscrowUipNrbc => {
            run_combo::<_, Uip<_>, _>(scenario, escrow(scenario, Derived::nrbc), traced)
        }
        Combo::EscrowDuNfc => {
            run_combo::<_, Du<_>, _>(scenario, escrow(scenario, Derived::nfc), traced)
        }
    }
}

/// The scenario's generated scripts, minus the skipped ones.
fn scripts_of<A: Adt>(
    scenario: &SimScenario,
    generate: impl Fn(&WorkloadCfg) -> Vec<Box<dyn Script<A>>>,
) -> Vec<Box<dyn Script<A>>> {
    let wcfg = WorkloadCfg {
        txns: scenario.txns,
        ops_per_txn: scenario.ops_per_txn,
        objects: scenario.objects,
        hot_fraction: 0.8,
        seed: scenario.cfg.seed,
    };
    let kept = generate(&wcfg).into_iter().enumerate().filter(|(i, _)| !scenario.skip.contains(i));
    kept.map(|(_, script)| script).collect()
}

fn bank<C>(scenario: &SimScenario, conflict: C) -> Workload<BankAccount, C> {
    let scripts = scripts_of(scenario, |wcfg| banking(wcfg, 0.8));
    Workload { adt: BankAccount::default(), conflict, scripts, invariant: None }
}

/// The escrow workload under the relation `derive` computes from its
/// instance.
fn escrow(
    scenario: &SimScenario,
    derive: fn(&str, EscrowAccount) -> Derived<EscrowAccount>,
) -> Workload<EscrowAccount, Derived<EscrowAccount>> {
    let adt = EscrowAccount::new(ESCROW_CAP, [1, 2, 3]);
    let scripts = scripts_of(scenario, |wcfg| escrow_mix(wcfg, ESCROW_CAP));
    Workload {
        conflict: derive("escrow", adt.clone()),
        adt,
        scripts,
        invariant: Some(&escrow_invariant),
    }
}

/// Escrow conservation: every committed balance stays within the capacity
/// bound (the ADT's defining invariant, checked over the journal fold).
fn escrow_invariant(
    states: &std::collections::BTreeMap<ccr_core::ids::ObjectId, u64>,
) -> Result<(), String> {
    for (obj, s) in states {
        if *s > ESCROW_CAP {
            return Err(format!("escrow {obj} holds {s} > cap {ESCROW_CAP}"));
        }
    }
    Ok(())
}

/// What a passing [`run`] reports: the driver's own counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Report {
    /// One durable domain ([`run_scenario`]).
    Single(Box<SimReport>),
    /// A fleet under 2PC ([`run_shard_scenario`]).
    Sharded(ShardReport),
}

/// The oracle violation a failing [`run`] stopped at.
#[derive(Clone, Debug)]
pub enum Failure {
    /// One of the seven single-domain legs, with the event it surfaced at.
    Single(SimFailure),
    /// One of the fleet legs (the eighth among them).
    Sharded(ShardFailure),
}

impl Failure {
    /// Stable failure-kind token: which oracle leg fired.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Single(f) => f.failure.kind(),
            Failure::Sharded(f) => f.kind(),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Single(failure) => failure.fmt(f),
            Failure::Sharded(failure) => failure.fmt(f),
        }
    }
}

/// Run one scenario under the driver its shard count calls for. This is the
/// only place a driver is chosen: [`sweep`], [`shrink`] and the CLI all come
/// through here.
pub fn run(scenario: &SimScenario) -> Result<Report, Failure> {
    if scenario.sharded() {
        run_shard_scenario(scenario).map(Report::Sharded).map_err(Failure::Sharded)
    } else {
        run_scenario(scenario).map(|r| Report::Single(Box::new(r))).map_err(Failure::Single)
    }
}

/// A seed sweep: the `template` scenario run once per seed `0..seeds`, seed
/// `s` being the template with `cfg.seed = s` under a seed-`s` plan of
/// `faults` faults over `horizon` events drawn from `mix`. Everything else —
/// combo, policy, shape, backend, checkpoint cadence, knobs, shard count — is
/// the template's, so every scenario flag reaches every sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The scenario every seed runs (its own seed and plan are replaced).
    pub template: SimScenario,
    /// Seeds `0..seeds` to run.
    pub seeds: u64,
    /// Fault-plan event horizon.
    pub horizon: u64,
    /// Faults per plan.
    pub faults: usize,
    /// The mix plans are drawn from (see [`SimScenario::fault_mix`]).
    pub mix: FaultMix,
}

impl Sweep {
    /// A sweep of `template` over `seeds` seeds with the default fault shape
    /// (horizon 40, 3 faults) from the template's own non-gray mix.
    pub fn new(template: SimScenario, seeds: u64) -> Self {
        let mix = template.fault_mix(false).expect("only the gray mix can be refused");
        Sweep { template, seeds, horizon: 40, faults: 3, mix }
    }
}

/// A failing scenario and what [`shrink`] made of it — what a [`sweep`]
/// stops at.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// The original (pre-shrink) failing scenario.
    pub original: SimScenario,
    /// The minimised scenario.
    pub shrunk: SimScenario,
    /// The failure the shrunk scenario still reproduces.
    pub failure: Failure,
    /// Scenario runs spent shrinking.
    pub shrink_runs: u64,
}

/// Run every seed of `sweep`. Returns the first oracle failure, shrunk to a
/// minimal reproducer — or `None` if every run passed.
pub fn sweep(sweep: &Sweep) -> Option<SweepFailure> {
    for seed in 0..sweep.seeds {
        let mut scenario = sweep.template.clone();
        scenario.cfg.seed = seed;
        scenario.plan = FaultPlan::from_seed(seed, sweep.horizon, sweep.faults, sweep.mix);
        if run(&scenario).is_err() {
            return Some(shrink(&scenario));
        }
    }
    None
}

/// A shrink in progress: the smallest failing scenario so far, its failure,
/// and the runs spent.
struct Shrink {
    best: SimScenario,
    failure: Failure,
    runs: u64,
    /// The failure kind every accepted candidate must reproduce; `None`
    /// accepts any failure.
    keep_kind: Option<&'static str>,
}

impl Shrink {
    /// Run `candidate`; if it still fails the way the rule demands it
    /// becomes the new best.
    fn adopt_if_failing(&mut self, candidate: SimScenario) -> bool {
        self.runs += 1;
        match run(&candidate) {
            Err(e) if self.keep_kind.is_none_or(|kind| e.kind() == kind) => {
                self.best = candidate;
                self.failure = e;
                true
            }
            _ => false,
        }
    }
}

/// One reduction dimension of the shrinker. Returns whether it shrank the
/// scenario.
type Pass = fn(&mut Shrink) -> bool;

/// Drop faults one at a time.
fn drop_faults(s: &mut Shrink) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < s.best.plan.len() {
        let plan = s.best.plan.without_index(i);
        if s.adopt_if_failing(SimScenario { plan, ..s.best.clone() }) {
            changed = true;
        } else {
            i += 1;
        }
    }
    changed
}

/// Skip scripts one at a time (latest first, so surviving indices — and, on
/// a fleet, their bit positions — stay meaningful for the reproducer).
fn skip_txns(s: &mut Shrink) -> bool {
    let mut changed = false;
    for idx in (0..s.best.txns).rev() {
        if s.best.skip.contains(&idx) {
            continue;
        }
        let mut candidate = s.best.clone();
        candidate.skip.push(idx);
        candidate.skip.sort_unstable();
        changed |= s.adopt_if_failing(candidate);
    }
    changed
}

/// Greedy skipping can stall above the true minimum because removing a
/// script reshuffles the interleaving: each single drop may pass while a pair
/// or triple alone still fails. When few enough scripts remain, search all
/// 2- and 3-element script subsets outright — each candidate run is tiny, and
/// this guarantees a minimal script set whenever one exists.
fn txn_subsets(s: &mut Shrink) -> bool {
    if s.best.live_txns() <= 3 || s.best.txns > 16 {
        return false;
    }
    let live: Vec<usize> = (0..s.best.txns).filter(|i| !s.best.skip.contains(i)).collect();
    for size in 2..=3usize {
        for subset in k_subsets(&live, size) {
            let skip = (0..s.best.txns).filter(|i| !subset.contains(i)).collect();
            if s.adopt_if_failing(SimScenario { skip, ..s.best.clone() }) {
                return true;
            }
        }
    }
    false
}

/// Shorten transactions.
fn shorten_txns(s: &mut Shrink) -> bool {
    let mut changed = false;
    while s.best.ops_per_txn > 1 {
        let ops_per_txn = s.best.ops_per_txn - 1;
        if !s.adopt_if_failing(SimScenario { ops_per_txn, ..s.best.clone() }) {
            break;
        }
        changed = true;
    }
    changed
}

/// Bisect each fault's event index to the smallest still-failing trigger
/// point.
fn bisect_faults(s: &mut Shrink) -> bool {
    let mut changed = false;
    for fi in 0..s.best.plan.len() {
        let (mut lo, mut hi) = (1u64, s.best.plan.faults()[fi].at_event);
        // Invariant: firing at `hi` fails; search the least such index.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut faults = s.best.plan.faults().to_vec();
            faults[fi].at_event = mid;
            if s.adopt_if_failing(SimScenario { plan: FaultPlan::new(faults), ..s.best.clone() }) {
                changed = true;
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }
    changed
}

impl SimScenario {
    /// The shrinker's passes for this scenario and whether they must
    /// preserve the failure *kind*. One durable domain takes every pass
    /// under any-failure (a weakened relation fails several legs
    /// interchangeably); a fleet drops faults and skips transactions only —
    /// its shape is drawn from the seed and its plan's event indices are
    /// protocol steps — and keeps the kind, so a planted split cannot shrink
    /// into an unrelated finding.
    fn shrink_rule(&self) -> (&'static [Pass], bool) {
        const PASSES: &[Pass] = &[drop_faults, skip_txns, txn_subsets, shorten_txns, bisect_faults];
        if self.sharded() {
            (&PASSES[..2], true)
        } else {
            (PASSES, false)
        }
    }
}

/// Minimise a failing scenario by delta debugging: the smallest
/// still-failing scenario found, its failure, and the number of candidate
/// runs spent. Panics if `scenario` does not fail (a shrinker needs a
/// failure to preserve).
pub fn shrink(scenario: &SimScenario) -> SweepFailure {
    let failure = run(scenario).expect_err("shrink() called on a passing scenario");
    let (passes, same_kind) = scenario.shrink_rule();
    let keep_kind = same_kind.then(|| failure.kind());
    let mut s = Shrink { best: scenario.clone(), failure, runs: 1, keep_kind };
    // Each pass may unlock further reductions in another dimension; iterate
    // to a global fixpoint (bounded: every accepted step strictly shrinks).
    loop {
        let mut changed = false;
        for pass in passes {
            changed |= pass(&mut s);
        }
        if !changed {
            let original = scenario.clone();
            let Shrink { best: shrunk, failure, runs: shrink_runs, .. } = s;
            return SweepFailure { original, shrunk, failure, shrink_runs };
        }
    }
}

/// All `k`-element subsets of `items`, in lexicographic order (the shrinker
/// bounds `items` to 16 and `k` to 3, so at most 560 subsets).
fn k_subsets(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        for rest in k_subsets(&items[i + 1..], k - 1) {
            out.push([&[*first][..], &rest].concat());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(combo: Combo) -> SimScenario {
        SimScenario::new(combo, 0, FaultPlan::none())
    }

    #[test]
    fn correct_pairings_survive_a_fault_sweep() {
        for combo in Combo::ALL {
            if !combo.is_correct_pairing() {
                continue;
            }
            assert!(
                sweep(&Sweep::new(template(combo), 6)).is_none(),
                "correct pairing {combo} failed a fault sweep"
            );
        }
    }

    #[test]
    fn correct_pairings_survive_a_fault_sweep_with_group_commit() {
        // Group commit turns every round's commits into one multi-record
        // flush, so the same sweep now exercises torn *batch* tails.
        for combo in [Combo::UipNrbc, Combo::DuNfc] {
            let mut template = template(combo);
            template.cfg.group_commit = true;
            assert!(
                sweep(&Sweep::new(template, 6)).is_none(),
                "correct pairing {combo} failed a group-commit fault sweep"
            );
        }
    }

    #[test]
    fn correct_pairings_survive_a_gray_sweep_with_overload_knobs() {
        // The gray mix adds stalling-device faults to the plan; deadlines,
        // MPL, a shed bound, and the stall detector are all on. Every
        // admitted transaction must still reach a bounded outcome (the
        // seventh oracle leg runs inside every scenario).
        for combo in [Combo::UipNrbc, Combo::DuNfc] {
            let mut template = template(combo);
            template.cfg = SimCfg {
                group_commit: true,
                mpl: 4,
                deadline: 50,
                max_staged: 2,
                stall_threshold: 64,
                ..template.cfg
            };
            let gray = Sweep { mix: FaultMix::Gray, ..Sweep::new(template, 6) };
            assert!(sweep(&gray).is_none(), "correct pairing {combo} failed a gray sweep");
        }
    }

    #[test]
    fn gray_sweep_degrades_cleanly_on_the_mem_backend() {
        // Device-latency faults degrade to crashes on the mem backend; the
        // sweep must still pass end to end.
        let template = SimScenario { backend: Backend::Mem, ..template(Combo::UipNrbc) };
        let gray = Sweep { mix: FaultMix::Gray, ..Sweep::new(template, 6) };
        assert!(sweep(&gray).is_none(), "gray sweep must degrade cleanly on mem");
    }

    #[test]
    fn reproducer_pins_the_overload_knobs_explicitly() {
        // A reproducer that leaned on default knobs would silently replay
        // the wrong configuration if a default changed: every gray-survival
        // knob is rendered even at its default, like --backend.
        let plan = FaultPlan::from_seed(7, 40, 3, FaultMix::Gray);
        let mut scenario = SimScenario::new(Combo::UipNrbc, 7, plan);
        let line = scenario.reproducer();
        assert!(line.contains(" --mpl 0"), "default mpl must be pinned: {line}");
        assert!(line.contains(" --deadline 0"), "default deadline must be pinned: {line}");
        assert!(line.contains(" --max-staged 0"), "default shed bound must be pinned: {line}");
        assert!(line.contains(" --stall-threshold 0"), "default detector must be pinned: {line}");

        scenario.cfg.mpl = 2;
        scenario.cfg.deadline = 40;
        scenario.cfg.max_staged = 2;
        scenario.cfg.stall_threshold = 16;
        let line = scenario.reproducer();
        assert!(line.contains(" --mpl 2"));
        assert!(line.contains(" --deadline 40"));
        assert!(line.contains(" --max-staged 2"));
        assert!(line.contains(" --stall-threshold 16"));
        assert!(run_scenario(&scenario).is_ok());
    }

    #[test]
    fn reproducer_pins_the_shard_knobs_explicitly() {
        // Same bug class as the once-unpinned --backend (PR 6) and --gray
        // (PR 8): the shard count routes the replay to a different driver,
        // so it is rendered even at its default of 1.
        let plan = FaultPlan::from_seed(3, 40, 3, FaultMix::Sharded { nshards: 2 });
        let mut scenario = SimScenario::new(Combo::UipNrbc, 3, plan);
        let line = scenario.reproducer();
        assert!(line.contains(" --shards 1"), "default shard count must be pinned: {line}");
        assert!(!line.contains("--2pc-crash") && !line.contains("--lose-decision"));

        scenario.shards = 3;
        scenario.twopc_crash = true;
        scenario.lose_decision = true;
        let line = scenario.reproducer();
        assert!(line.contains(" --shards 3"));
        assert!(line.contains(" --2pc-crash"));
        assert!(line.contains(" --lose-decision"));
    }

    #[test]
    fn group_commit_reproducer_round_trips() {
        let plan = FaultPlan::from_seed(5, 40, 3, FaultMix::Storage);
        let mut scenario = SimScenario::new(Combo::UipNrbc, 5, plan);
        scenario.cfg.group_commit = true;
        assert!(scenario.reproducer().contains(" --group-commit"));
        assert!(run_scenario(&scenario).is_ok());
    }

    #[test]
    fn weakened_combo_is_caught_and_shrunk_small() {
        let hunt = Sweep { horizon: 60, faults: 4, ..Sweep::new(template(Combo::UipSymNfc), 64) };
        let fail = sweep(&hunt).expect("uip-sym-nfc must fail within the sweep");
        // The shrunk reproducer involves at most 3 live transactions.
        assert!(
            fail.shrunk.live_txns() <= 3,
            "reproducer too large: {} txns\n{}",
            fail.shrunk.live_txns(),
            fail.shrunk.reproducer()
        );
        // The reproducer line round-trips through the scenario runner.
        assert!(run(&fail.shrunk).is_err(), "shrunk scenario must still fail");
        let line = fail.shrunk.reproducer();
        assert!(line.contains("--combo uip-sym-nfc") && line.contains("--faults"));
    }

    #[test]
    fn k_subsets_come_in_lexicographic_order() {
        assert_eq!(
            k_subsets(&[1, 2, 4, 7], 2),
            [[1, 2], [1, 4], [1, 7], [2, 4], [2, 7], [4, 7]].map(Vec::from)
        );
        assert_eq!(
            k_subsets(&[1, 2, 4, 7], 3),
            [[1, 2, 4], [1, 2, 7], [1, 4, 7], [2, 4, 7]].map(Vec::from)
        );
        assert!(k_subsets(&[1, 2], 3).is_empty());
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let plan = FaultPlan::from_seed(3, 40, 3, FaultMix::Storage);
        let scenario = SimScenario::new(Combo::DuNfc, 3, plan);
        let a = run_scenario(&scenario).unwrap();
        let b = run_scenario(&scenario).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn combo_and_policy_parse_round_trip() {
        for combo in Combo::ALL {
            assert_eq!(combo.to_string().parse::<Combo>().unwrap(), combo);
        }
        assert!("2pl".parse::<Combo>().is_err());
        for p in [ConflictPolicy::Block, ConflictPolicy::WoundWait, ConflictPolicy::NoWait] {
            assert_eq!(parse_policy(policy_name(p)).unwrap(), p);
        }
        assert!(parse_policy("optimism").is_err());
    }
}
