//! Regenerate every paper artifact and print the markdown report.
//!
//! ```text
//! cargo run --release -p ccr-workload --bin ccr-experiments            # markdown
//! cargo run --release -p ccr-workload --bin ccr-experiments -- --json # raw outcomes
//!
//! # Deterministic fault-injection simulation (see DESIGN.md):
//! ccr-experiments sim --combo uip-nrbc --seed 7 --faults 12:crash,30:torn2
//! ccr-experiments sim --combo uip-nrbc --seed 7 --faults 16:sect2,25:flip4093
//! ccr-experiments sim --combo uip-nrbc --seed 7 --faults 20:io3,40:full
//! ccr-experiments sim --combo uip-sym-nfc --sweep 64        # hunt + shrink
//! ccr-experiments sim --combo uip-nrbc --sweep 32 --fault-during-recovery
//! # a sweep runs the scenario as a template, so every flag reaches it:
//! ccr-experiments sim --combo du-nfc --policy wound --objects 4 --ckpt 4 --sweep 32
//!
//! # Sharded durable runtime under presumed-abort 2PC (DESIGN.md §15):
//! # crash-any-shard-subset / crash-at-every-2PC-step sweeps with the
//! # eighth oracle leg (global uniform outcome), and its negative control.
//! ccr-experiments sim --combo uip-nrbc --shards 3 --2pc-crash --sweep 32
//! ccr-experiments sim --combo uip-nrbc --shards 2 --seed 7 --faults 3:shards1,9:twopc2
//! ccr-experiments sim --combo uip-nrbc --shards 2 --lose-decision   # must exit 1
//! ccr-experiments bench-shard --out reports/BENCH_shard.json
//!
//! # Deterministic tracing (see DESIGN.md §8): Chrome trace_event JSON,
//! # flamegraph summary and a metrics report from one simulated run.
//! ccr-experiments trace --combo uip-nrbc --seed 7 --out trace.json
//! ccr-experiments trace --combo uip-nrbc --seed 7 --flame flame.txt --metrics metrics.json
//!
//! # Group-commit durability benchmark (see DESIGN.md §10, EXPERIMENTS.md S4):
//! ccr-experiments bench --out reports/BENCH_group_commit.json
//!
//! # Contention & recovery profiler (see DESIGN.md §13, EXPERIMENTS.md S7):
//! # schema-pinned, seed-deterministic profile JSON + flamegraph summary.
//! ccr-experiments profile --combo uip-nrbc --seed 7 --out profile.json
//! ccr-experiments profile --combo escrow-du-nfc --seed 3 --flame flame.txt
//!
//! # WAL forensics: offline segment/frame/damage dump of the run's final
//! # device image, cross-checked against recovery's own classification.
//! ccr-experiments inspect --combo uip-nrbc --seed 7 --group-commit
//! ccr-experiments inspect --combo uip-nrbc --seed 7 --check --out wal.json
//!
//! # Regenerate the checked-in markdown report:
//! ccr-experiments report --out reports/experiment_report.md
//!
//! # Perf-regression guard (CI): fresh bench run vs committed bounds.
//! ccr-experiments bench --guard reports/BENCH_profile.json
//!
//! # Gray-failure survival benchmark (see DESIGN.md §14, EXPERIMENTS.md S8):
//! ccr-experiments overload --out reports/BENCH_overload.json
//!
//! # Bounded exhaustive model checker (see DESIGN.md §12):
//! ccr-experiments mc --txns 2 --objects 2 --crash-budget 2 --backend disk --json
//! ```
//!
//! Every subcommand is a row of `SUBCOMMANDS`; a test keeps this header and
//! README.md's command list naming exactly those rows. The flags that
//! describe a run (`sim`, `trace`, `profile`, `inspect`) are the rows of
//! `ccr_workload::sim::FLAGS`; a refused command line prints them.

use std::process::ExitCode;

use ccr_mc::{McBackendKind, McConfig, McTrace};
use ccr_obs::json_string;
use ccr_runtime::fault::FaultMix;
use ccr_runtime::sim::{SimFailure, SimReport};
use ccr_workload::bench::{guard_violations, run_bench, BenchCfg};
use ccr_workload::experiments;
use ccr_workload::overload::{run_overload, OverloadCfg};
use ccr_workload::shard_sim::{run_shard_bench, ShardBenchCfg};
use ccr_workload::sim::{
    parse_flags, run, run_scenario_traced, shrink, sweep, usage, Failure, Report, SimScenario,
    Sweep, SweepFailure, TraceArtifacts,
};

/// One subcommand: its name, its entry point, whether it takes the scenario
/// flags, and its own flags and notes — what the usage text printed after a
/// refused command line (exit code 2) is assembled from.
struct Subcommand {
    name: &'static str,
    run: fn(&[String]) -> Result<ExitCode, String>,
    scenario: bool,
    usage: &'static str,
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "sim",
        run: sim_main,
        scenario: true,
        usage: "[--json] [--sweep SEEDS [--horizon N] [--fault-count N] [--gray]]
--sweep runs the scenario as a template: seed s is the scenario with --seed s and a seed-s
fault plan, drawn from the sharded mix with --shards >= 2, the gray mix with --gray, the
storage mix otherwise
fault SPEC: e.g. 12:crash,30:torn2,45:abort,60:delay5,80:wound
  sharded faults (--shards >= 2): 10:shards3 (crash subset mask), 20:twopc1 (2PC-step crash)
  storage faults (disk backend): 16:sect2,20:reorder,25:flip4093
  device faults (disk backend): 20:io3 (transient I/O), 40:full (disk full)
  gray faults (disk backend): 20:slow4 (slow sectors), 40:stall2 (fsync stalls)\n",
    },
    Subcommand {
        name: "trace",
        run: trace_main,
        scenario: true,
        usage: "[--out trace.json] [--flame flame.txt] [--metrics metrics.json]
without --out the Chrome trace JSON (chrome://tracing, ui.perfetto.dev) goes to stdout\n",
    },
    Subcommand {
        name: "profile",
        run: profile_main,
        scenario: true,
        usage: "[--out profile.json] [--flame flame.txt]
without --out the profile JSON goes to stdout\n",
    },
    Subcommand {
        name: "inspect",
        run: inspect_main,
        scenario: true,
        usage: "[--out wal.json] [--check]
without --out the WAL inspection JSON goes to stdout;
--check cross-checks the inspector against recovery (exit 1 on disagreement)\n",
    },
    Subcommand {
        name: "report",
        run: report_main,
        scenario: false,
        usage: "[--out reports/experiment_report.md]\n",
    },
    Subcommand {
        name: "bench",
        run: bench_main,
        scenario: false,
        usage: "[--txns N] [--ops N] [--objects N] [--workers N] [--flush-delay-us N]
           [--seed N] [--out FILE] [--guard BASELINE.json]
without --out the report JSON goes to stdout;
--guard checks the run against the committed bounds (exit 1 on regression)\n",
    },
    Subcommand {
        name: "bench-shard",
        run: bench_shard_main,
        scenario: false,
        usage: "[--txns N] [--shards N] [--out FILE]
without --out the report JSON goes to stdout;
exit 1 unless the 2PC frame ledger holds exactly (cross-shard commit = one prepare + one
decide frame per participant; fast path = one commit frame)\n",
    },
    Subcommand {
        name: "overload",
        run: overload_main,
        scenario: false,
        usage: "[--seed N] [--txns N] [--objects N] [--mpl N] [--deadline ROUNDS]
           [--max-staged N] [--stall-threshold TICKS] [--out FILE]
without --out the report JSON goes to stdout;
exit 1 unless the protected run beats the unprotected baseline on the SLOs\n",
    },
    Subcommand {
        name: "mc",
        run: mc_main,
        scenario: false,
        usage: "[--txns N] [--objects N] [--crash-budget N] [--ckpt-budget N] [--max-tears N]
           [--group-commit] [--backend disk|mem] [--shards N] [--mutate M] [--json]
           [--min-states N] [--replay \"b0 c0 x\"]
mutations M: drop-acked-commit|reorder-last-batch|resurrect-aborted|skip-epoch-bump
  sharded (--shards >= 2, alphabet b/p/q/s/z): lose-decision
exit codes: 0 all invariants hold; 1 violation (or --min-states bound missed)\n",
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = args.first().and_then(|name| SUBCOMMANDS.iter().find(|c| c.name == name));
    if let Some(cmd) = subcommand {
        return (cmd.run)(&args[1..]).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            eprint!("{}", usage(cmd.name, cmd.scenario, cmd.usage));
            ExitCode::from(2)
        });
    }
    if args.iter().any(|a| a == "--json") {
        // Structured outcomes of the measurement experiments (the figure /
        // theorem sections are exact reproductions with no free parameters,
        // so they are omitted from the JSON form).
        let mut outcomes = Vec::new();
        let (fifo, pq, sq) = experiments::queues::outcomes();
        outcomes.extend([fifo, pq, sq]);
        for (typed, classical) in experiments::panorama::outcomes() {
            outcomes.extend([typed, classical]);
        }
        for (_, typed, classical) in experiments::admission::sweep() {
            outcomes.extend([typed, classical]);
        }
        println!("{}", ccr_workload::harness::outcomes_json(&outcomes));
        return ExitCode::SUCCESS;
    }
    println!("# ccr experiment report\n");
    println!("Reproduction of Weihl, *The Impact of Recovery on Concurrency Control* (1989).\n");
    print!("{}", experiments::run_all());
    ExitCode::SUCCESS
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad number {s:?}"))
}

/// Write a document to the `--out` path, or to stdout without one.
fn emit(out: Option<&str>, body: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{body}"),
    }
    Ok(())
}

fn exit_code(pass: bool) -> ExitCode {
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse and run the `mc` subcommand: the bounded exhaustive model checker
/// (see DESIGN.md §12). Exit code 0: every invariant held over the whole
/// state space (and any `--min-states` bound was met); 1: a violation was
/// found (minimized trace + reproducer printed) or the state count fell
/// short of `--min-states`; 2: bad args.
fn mc_main(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = McConfig::default();
    let mut json = false;
    let mut min_states: Option<u64> = None;
    let mut replay: Option<McTrace> = None;

    parse_flags(args, |flag, value| {
        match flag {
            "--txns" => cfg.txns = parse_num(flag, value()?)?,
            "--objects" => cfg.objects = parse_num(flag, value()?)?,
            "--crash-budget" => cfg.crash_budget = parse_num(flag, value()?)?,
            "--ckpt-budget" => cfg.ckpt_budget = parse_num(flag, value()?)?,
            "--max-tears" => cfg.max_tears = parse_num(flag, value()?)?,
            "--group-commit" => cfg.group_commit = true,
            "--shards" => cfg.shards = parse_num(flag, value()?)?,
            "--backend" => cfg.backend = value()?.parse()?,
            "--mutate" => cfg.mutation = Some(value()?.parse()?),
            "--json" => json = true,
            "--min-states" => min_states = Some(parse_num(flag, value()?)?),
            "--replay" => replay = Some(value()?.parse().map_err(|e| format!("--replay: {e}"))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if cfg.txns == 0 || cfg.txns > 6 {
        return Err("--txns must be in 1..=6 (amounts are distinct powers of two)".to_string());
    }
    if cfg.objects == 0 {
        return Err("--objects must be at least 1".to_string());
    }
    if cfg.mutation == Some(ccr_mc::Mutation::SkipEpochBump) && cfg.backend != McBackendKind::Disk {
        return Err(
            "--mutate skip-epoch-bump requires --backend disk (epochs live in the WAL)".to_string()
        );
    }
    if cfg.mutation == Some(ccr_mc::Mutation::ReorderLastBatch) && !cfg.group_commit {
        return Err("--mutate reorder-last-batch requires --group-commit (it targets the batch \
                    flush)"
            .to_string());
    }
    if cfg.shards > 8 {
        return Err(
            "--shards must be in 1..=8 (keep the crash-subset alphabet enumerable)".to_string()
        );
    }
    if cfg.mutation == Some(ccr_mc::Mutation::LoseDecision) && cfg.shards < 2 {
        return Err("--mutate lose-decision requires --shards >= 2 (it sabotages the 2PC \
                    coordinator)"
            .to_string());
    }
    if cfg.shards >= 2 && !matches!(cfg.mutation, None | Some(ccr_mc::Mutation::LoseDecision)) {
        return Err(format!(
            "--mutate {} targets the single-system harness; the sharded instance only \
             supports lose-decision",
            cfg.mutation.expect("checked Some above")
        ));
    }
    if cfg.shards >= 2 && cfg.group_commit {
        return Err("--group-commit is single-system; the sharded instance's alphabet has no \
                    batch action"
            .to_string());
    }

    if let Some(trace) = replay {
        return Ok(match ccr_mc::explorer::run_trace(cfg, &trace) {
            Some(v) => {
                println!("violation [{}]: {v}", v.kind());
                println!("trace: {trace}");
                ExitCode::from(1)
            }
            None => {
                println!("trace replayed clean ({} actions)", trace.0.len());
                ExitCode::SUCCESS
            }
        });
    }

    let verdict = ccr_mc::explore(cfg);
    if json {
        print!("{}", verdict.to_json());
    } else {
        let s = &verdict.stats;
        println!(
            "mc {} txns={} objects={} crash-budget={} ckpt-budget={} group-commit={}",
            cfg.backend, cfg.txns, cfg.objects, cfg.crash_budget, cfg.ckpt_budget, cfg.group_commit
        );
        println!(
            "explored {} states, {} transitions ({} skipped), {} terminals, depth {}",
            s.states, s.transitions, s.skipped, s.terminals, s.max_depth
        );
        match &verdict.violation {
            None => println!("all invariants hold"),
            Some((v, trace)) => {
                println!("VIOLATION [{}]: {v}", v.kind());
                println!("minimized trace: {trace}");
                println!("reproduce: {}", ccr_mc::reproducer(&cfg, trace));
            }
        }
    }
    let mut failed = !verdict.passed();
    if let Some(min) = min_states {
        if verdict.stats.states < min {
            eprintln!(
                "state count {} below the --min-states bound {min} (enumeration regressed?)",
                verdict.stats.states
            );
            failed = true;
        }
    }
    Ok(exit_code(!failed))
}

/// Parse and run the `sim` subcommand: one scenario, or (`--sweep`) the
/// scenario as a template over a range of seeds. Exit code 0: oracle passed;
/// 1: an oracle failure was found (with a shrunk reproducer printed); 2: bad
/// args. Which driver runs — one durable domain or a fleet under 2PC — is
/// [`run`]'s business; the text and `--json` forms differ between the two
/// only in the fields the reports and failures themselves carry.
fn sim_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut seeds, mut horizon, mut faults) = (None, 60u64, 4usize);
    let (mut gray, mut json) = (false, false);
    let scenario = SimScenario::parse_args(args, |flag, value| {
        match flag {
            "--sweep" => seeds = Some(parse_num(flag, value()?)?),
            "--horizon" => horizon = parse_num(flag, value()?)?,
            "--fault-count" => faults = parse_num(flag, value()?)?,
            "--gray" => gray = true,
            "--json" => json = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mix = scenario.fault_mix(gray)?;
    Ok(match seeds {
        Some(seeds) => {
            sweep_verdict(&Sweep { template: scenario, seeds, horizon, faults, mix }, json)
        }
        None => run_verdict(&scenario, json),
    })
}

/// `oracle FAILED…` with the failure's own text; a fleet failure names its
/// kind, which its shrinker preserved.
fn failed_line(failure: &Failure) -> String {
    match failure {
        Failure::Single(f) => format!("oracle FAILED: {f}"),
        Failure::Sharded(f) => format!("oracle FAILED [{}]: {f}", f.kind()),
    }
}

/// The tail of every failing `--json` verdict: what failed (as the shrunk
/// scenario reproduces it; a single-domain failure also says at which event
/// it `first` surfaced), then the original and shrunk reproducers.
fn failure_json(first: &Failure, found: &SweepFailure) -> String {
    let SweepFailure { original, shrunk, failure: shrunk_failure, shrink_runs: runs } = found;
    let what = match (shrunk_failure, first) {
        (Failure::Single(s), Failure::Single(f)) => format!(
            "\"failure\":{},\"at_event\":{}",
            json_string(&s.failure.to_string()),
            f.at_event
        ),
        _ => format!(
            "\"failure\":{},\"failure_kind\":{}",
            json_string(&shrunk_failure.to_string()),
            json_string(shrunk_failure.kind())
        ),
    };
    format!(
        "\"verdict\":\"fail\",{what},\"original\":{},\"shrunk\":{},\"shrunk_txns\":{},\
         \"shrunk_faults\":{},\"shrink_runs\":{runs}",
        json_string(&original.reproducer()),
        json_string(&shrunk.reproducer()),
        shrunk.live_txns(),
        shrunk.plan.len(),
    )
}

/// Run a sweep and print its verdict.
fn sweep_verdict(cells: &Sweep, json: bool) -> ExitCode {
    let Sweep { template, seeds, horizon, faults, mix } = cells;
    let (head, pass_line, pass_json) = match mix {
        FaultMix::Sharded { nshards } => (
            format!("\"mode\":\"shard-sweep\",\"shards\":{nshards},\"seeds\":{seeds}"),
            format!(
                "swept {seeds} seeds over {nshards} shards (sharded fault planner): \
                 oracle passed on every seed"
            ),
            format!("\"twopc_crash\":{},\"verdict\":\"pass\"", template.twopc_crash),
        ),
        FaultMix::Storage | FaultMix::Gray => {
            if !json {
                let gray = if *mix == FaultMix::Gray { ", gray generator" } else { "" };
                println!(
                    "sweeping {seeds} seeds of {} (horizon {horizon}, {faults} faults per plan{gray})",
                    template.combo
                );
            }
            (
                format!(
                    "\"mode\":\"sweep\",\"combo\":{},\"seeds\":{seeds}",
                    json_string(&template.combo.to_string())
                ),
                "oracle passed on every seed".to_string(),
                "\"verdict\":\"pass\"".to_string(),
            )
        }
    };
    let found = sweep(cells);
    match (&found, json) {
        (None, false) => println!("{pass_line}"),
        (None, true) => println!("{{{head},{pass_json}}}"),
        (Some(f), false) => {
            if let Failure::Single(_) = f.failure {
                println!();
            }
            println!("{}", failed_line(&f.failure));
            println!("original: {}", f.original.reproducer());
            println!(
                "shrunk to {} txns, {} faults in {} runs:",
                f.shrunk.live_txns(),
                f.shrunk.plan.len(),
                f.shrink_runs
            );
            println!("  {}", f.shrunk.reproducer());
        }
        (Some(f), true) => println!("{{{head},{}}}", failure_json(&f.failure, f)),
    }
    exit_code(found.is_none())
}

/// Run one scenario and print its verdict: the report's counters, or the
/// failure and what it shrinks to.
fn run_verdict(scenario: &SimScenario, json: bool) -> ExitCode {
    let failure = match run(scenario) {
        Ok(report) => {
            if json {
                print!("{}", report_json(&report, scenario));
            } else {
                println!("oracle passed: {}", scenario.reproducer());
                print!("{}", report_text(&report));
            }
            return ExitCode::SUCCESS;
        }
        Err(failure) => failure,
    };
    let found = shrink(scenario);
    if json {
        let mode = match failure {
            Failure::Single(_) => "run",
            Failure::Sharded(_) => "shard-run",
        };
        println!("{{\"mode\":\"{mode}\",{}}}", failure_json(&failure, &found));
    } else {
        println!("{}", failed_line(&failure));
        println!(
            "shrunk to {} txns, {} faults in {} runs ({}):",
            found.shrunk.live_txns(),
            found.shrunk.plan.len(),
            found.shrink_runs,
            found.failure,
        );
        println!("  {}", found.shrunk.reproducer());
    }
    ExitCode::FAILURE
}

/// The counter lines under `oracle passed: …`.
fn report_text(report: &Report) -> String {
    match report {
        Report::Single(r) => {
            let s = &r.stats;
            format!(
                "committed {}  gave-up {}  retries {}  rounds {}  events {}  oracle-checks {}\n\
                 faults injected {}  crashes {}  torn {}  forced-aborts {}  delayed-commits {}  \
                 wound-storms {}\n\
                 storage: sector-tears {}  reordered-flushes {}  bitflips-detected {}  \
                 checkpoints {}\n\
                 device: transient-io {}  disk-full {}  io-retries {}  degraded-entries {}  \
                 degraded-exits {}  convergence-checks {}\n\
                 overload: slow-device {}  fsync-stalls {}  stall-ticks {}  sheds {}  \
                 deadline-aborts {}  mode-flips {}\n\
                 history fingerprint {:#018x}\n",
                r.committed,
                r.gave_up,
                r.retries,
                r.rounds,
                r.events,
                r.oracle_checks,
                r.faults_injected,
                s.crashes,
                s.torn_crashes,
                s.forced_aborts,
                s.delayed_commits,
                s.wound_storms,
                s.sector_tears,
                s.reordered_flushes,
                s.bitflips_detected,
                s.checkpoints,
                s.transient_io_faults,
                s.disk_full_faults,
                s.io_retries,
                s.degraded_entries,
                s.degraded_exits,
                s.convergence_checks,
                s.slow_device_faults,
                s.fsync_stall_faults,
                s.stall_ticks,
                s.sheds,
                s.deadline_aborts,
                s.mode_flips,
                r.history_fingerprint,
            )
        }
        Report::Sharded(r) => format!(
            "committed {} (cross-shard {})  aborted {}  oracle-checks {}\n\
             crashes {}  crash-subsets {}  2pc-crashes {}  forced-aborts {}  \
             resolved-in-doubt {}  skipped-faults {}\n\
             fleet fingerprint {:#018x}\n",
            r.committed,
            r.cross_committed,
            r.aborted,
            r.oracle_checks,
            r.crashes,
            r.crash_subsets,
            r.twopc_crashes,
            r.forced_aborts,
            r.resolved_in_doubt,
            r.skipped_faults,
            r.fingerprint,
        ),
    }
}

/// The `sim --json` structured run report of a passing run: the oracle
/// verdict, the run counters and the per-fault-kind counters.
fn report_json(report: &Report, scenario: &SimScenario) -> String {
    let r = match report {
        Report::Single(r) => r,
        Report::Sharded(r) => return r.to_json(scenario),
    };
    let s = &r.stats;
    format!(
        concat!(
            "{{\"mode\":\"run\",\"verdict\":\"pass\",\"reproducer\":{},",
            "\"committed\":{},\"gave_up\":{},\"retries\":{},\"rounds\":{},",
            "\"events\":{},\"oracle_checks\":{},\"faults_injected\":{},",
            "\"fault_counters\":{{\"crashes\":{},\"torn_crashes\":{},",
            "\"forced_aborts\":{},\"delayed_commits\":{},\"wound_storms\":{},",
            "\"sector_tears\":{},\"reordered_flushes\":{},",
            "\"bitflips_detected\":{},\"transient_io\":{},\"disk_full\":{},",
            "\"slow_device\":{},\"fsync_stall\":{}}},",
            "\"checkpoints\":{},\"io_retries\":{},\"degraded_entries\":{},",
            "\"degraded_exits\":{},\"convergence_checks\":{},",
            "\"sheds\":{},\"deadline_aborts\":{},\"stall_ticks\":{},",
            "\"mode_flips\":{},",
            "\"history_fingerprint\":{}}}\n"
        ),
        json_string(&scenario.reproducer()),
        r.committed,
        r.gave_up,
        r.retries,
        r.rounds,
        r.events,
        r.oracle_checks,
        r.faults_injected,
        s.crashes,
        s.torn_crashes,
        s.forced_aborts,
        s.delayed_commits,
        s.wound_storms,
        s.sector_tears,
        s.reordered_flushes,
        s.bitflips_detected,
        s.transient_io_faults,
        s.disk_full_faults,
        s.slow_device_faults,
        s.fsync_stall_faults,
        s.checkpoints,
        s.io_retries,
        s.degraded_entries,
        s.degraded_exits,
        s.convergence_checks,
        s.sheds,
        s.deadline_aborts,
        s.stall_ticks,
        s.mode_flips,
        json_string(&format!("{:#018x}", r.history_fingerprint)),
    )
}

/// What `trace`, `profile` and `inspect` share: one scenario parse, taking
/// the subcommand's own output `files` (flags with a path) and `switches`
/// beside the scenario flags, and one traced single-domain run.
struct Traced {
    scenario: SimScenario,
    result: Result<SimReport, SimFailure>,
    artifacts: TraceArtifacts,
    paths: Vec<(&'static str, String)>,
    switched: Vec<&'static str>,
}

impl Traced {
    fn run(
        args: &[String],
        files: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Traced, String> {
        let (mut paths, mut switched) = (Vec::new(), Vec::new());
        let scenario = SimScenario::parse_args(args, |flag, value| {
            if let Some(file) = files.iter().find(|f| **f == flag) {
                paths.push((*file, value()?.to_string()));
            } else if let Some(switch) = switches.iter().find(|s| **s == flag) {
                switched.push(*switch);
            } else {
                return Ok(false);
            }
            Ok(true)
        })?;
        if scenario.sharded() {
            return Err("sharded scenarios are sim-only: trace/profile/inspect drive one durable \
                        domain (drop --shards, or use `sim --shards N`)"
                .to_string());
        }
        let (result, artifacts) = run_scenario_traced(&scenario);
        Ok(Traced { scenario, result, artifacts, paths, switched })
    }

    /// The path given for `file` (the last one wins), if any.
    fn path(&self, file: &str) -> Option<&str> {
        self.paths.iter().rev().find(|(f, _)| *f == file).map(|(_, path)| path.as_str())
    }

    /// Write a side artifact if its flag was given.
    fn emit_if_asked(&self, file: &str, body: &str) -> Result<(), String> {
        match self.path(file) {
            Some(path) => emit(Some(path), body),
            None => Ok(()),
        }
    }

    /// The verdict epilogue: one line on stderr, and whether the oracle
    /// passed. The artifacts are written either way — a failing run's are
    /// the ones worth opening.
    fn verdict(&self) -> bool {
        match &self.result {
            Ok(report) => eprintln!(
                "oracle passed: {} (committed {}, events {}, faults {})",
                self.scenario.reproducer(),
                report.committed,
                report.events,
                report.faults_injected,
            ),
            Err(failure) => eprintln!("oracle FAILED: {failure}"),
        }
        self.result.is_ok()
    }
}

/// Parse and run the `trace` subcommand: run one scenario with full event
/// recording and write the Chrome `trace_event` JSON (stdout, or `--out`),
/// plus an optional flamegraph summary and metrics report. Exit code 0 when
/// the oracle passed, 1 when it failed.
fn trace_main(args: &[String]) -> Result<ExitCode, String> {
    let t = Traced::run(args, &["--out", "--flame", "--metrics"], &[])?;
    // The file is the bare document; stdout gets a line.
    match t.path("--out") {
        Some(path) => emit(Some(path), &t.artifacts.chrome)?,
        None => println!("{}", t.artifacts.chrome),
    }
    t.emit_if_asked("--flame", &t.artifacts.flame)?;
    t.emit_if_asked("--metrics", &t.artifacts.metrics.to_json())?;
    Ok(exit_code(t.verdict()))
}

/// Parse and run the `profile` subcommand: run one scenario with full event
/// recording and emit the schema-pinned profile JSON — per-phase
/// commit/recovery histograms with coverage fractions, the observed-conflict
/// matrix, and the ADT's static admitted-concurrency tables (see DESIGN.md
/// §13, EXPERIMENTS.md S7). The document is byte-identical across runs of
/// the same scenario and carries the verdict. Exit code 0 when the oracle
/// passed, 1 when it failed.
fn profile_main(args: &[String]) -> Result<ExitCode, String> {
    let t = Traced::run(args, &["--out", "--flame"], &[])?;
    emit(t.path("--out"), &format!("{}\n", t.artifacts.profile))?;
    t.emit_if_asked("--flame", &t.artifacts.flame)?;
    Ok(exit_code(t.verdict()))
}

/// Parse and run the `inspect` subcommand: run one scenario and dump the
/// offline WAL inspection of its final device image — segment map, frame
/// listing, damage classification (see DESIGN.md §13). With `--check` the
/// inspector's verdict is cross-checked against what recovery itself
/// concludes on the same image (and on a copy with its last flush re-torn);
/// disagreement exits 1. The oracle verdict goes to stderr but does not set
/// the exit code — a failing run's WAL is exactly the one worth inspecting.
fn inspect_main(args: &[String]) -> Result<ExitCode, String> {
    let t = Traced::run(args, &["--out"], &["--check"])?;
    let inspection = t
        .artifacts
        .inspection
        .as_ref()
        .ok_or("no WAL image to inspect (the mem backend keeps no log; use --backend disk)")?;
    emit(t.path("--out"), &format!("{inspection}\n"))?;
    t.verdict();
    if t.switched.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    Ok(match &t.artifacts.inspect_agreement {
        Some(Ok(())) => {
            eprintln!("inspector agrees with recovery (final image and re-torn tail)");
            ExitCode::SUCCESS
        }
        Some(Err(msg)) => {
            eprintln!("inspector DISAGREES with recovery: {msg}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("--check needs a disk-backed run");
            ExitCode::FAILURE
        }
    })
}

/// Parse and run the `report` subcommand: regenerate the full markdown
/// experiment report, byte-for-byte as committed at
/// `reports/experiment_report.md`.
fn report_main(args: &[String]) -> Result<ExitCode, String> {
    let mut out: Option<String> = None;
    parse_flags(args, |flag, value| {
        match flag {
            "--out" => out = Some(value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    emit(out.as_deref(), &experiments::report_markdown())?;
    Ok(ExitCode::SUCCESS)
}

/// Parse and run the `bench` subcommand: the group-commit durability
/// benchmark (per-commit-fsync baseline vs batched group flushes over the
/// same workload). Writes the JSON report to `--out` or stdout and prints a
/// human summary to stderr. Exit code 0 when group commit amortised fsyncs
/// (commits-per-fsync > 1) with p99 commit latency within 2× the baseline —
/// the tentpole's acceptance bound — and 1 otherwise.
fn bench_main(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = BenchCfg::default();
    let mut out: Option<String> = None;
    let mut guard: Option<String> = None;

    parse_flags(args, |flag, value| {
        match flag {
            "--txns" => cfg.txns = parse_num(flag, value()?)?,
            "--ops" => cfg.ops_per_txn = parse_num(flag, value()?)?,
            "--objects" => cfg.objects = parse_num(flag, value()?)?,
            "--workers" => cfg.workers = parse_num(flag, value()?)?,
            "--flush-delay-us" => cfg.flush_delay_us = parse_num(flag, value()?)?,
            "--seed" => cfg.seed = parse_num(flag, value()?)?,
            "--out" => out = Some(value()?.to_string()),
            "--guard" => guard = Some(value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;

    // Read the guard baseline before writing --out: pointing both at the
    // same file must judge the run against the *committed* bounds, not the
    // fresh figures about to replace them.
    let guard_baseline = match &guard {
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?),
        None => None,
    };
    let report = run_bench(&cfg);
    emit(out.as_deref(), &format!("{}\n", report.to_json()))?;
    eprintln!(
        "baseline: {} commits, {} fsyncs, p50/p90/p99 {}/{}/{} us",
        report.baseline.committed,
        report.baseline.fsyncs,
        report.baseline.p50_us,
        report.baseline.p90_us,
        report.baseline.p99_us,
    );
    eprintln!(
        "grouped:  {} commits, {} fsyncs ({:.2} commits/fsync), p50/p90/p99 {}/{}/{} us",
        report.grouped.committed,
        report.grouped.fsyncs,
        report.grouped.commits_per_fsync,
        report.grouped.p50_us,
        report.grouped.p90_us,
        report.grouped.p99_us,
    );
    let mut pass = report.grouped.commits_per_fsync > 1.0 && report.p99_ratio() <= 2.0;
    eprintln!(
        "p99 ratio grouped/baseline: {:.3} ({})",
        report.p99_ratio(),
        if pass { "ok" } else { "FAIL" }
    );
    if let (Some(path), Some(baseline)) = (&guard, &guard_baseline) {
        match guard_violations(&report, baseline) {
            Ok(violations) if violations.is_empty() => {
                eprintln!("guard: within the bounds recorded in {path}");
            }
            Ok(violations) => {
                for v in &violations {
                    eprintln!("guard violation: {v}");
                }
                pass = false;
            }
            Err(e) => {
                eprintln!("guard: baseline {path} unusable (schema drift?): {e}");
                pass = false;
            }
        }
    }
    Ok(exit_code(pass))
}

/// Parse and run the `bench-shard` subcommand: the deterministic 2PC
/// frame-cost bench (all-single-shard fast path vs all-cross-shard 2PC on
/// identical disk fleets, costed in WAL frames). Writes the JSON report to
/// `--out` or stdout, prints a summary to stderr, and exits 0 only when
/// the exact frame ledger holds (see `ShardBenchReport::guard_violations`).
fn bench_shard_main(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = ShardBenchCfg::default();
    let mut out: Option<String> = None;

    parse_flags(args, |flag, value| {
        match flag {
            "--txns" => cfg.txns = parse_num(flag, value()?)?,
            "--shards" => cfg.shards = parse_num(flag, value()?)?,
            "--out" => out = Some(value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if !(2..=8).contains(&cfg.shards) {
        return Err("--shards must be in 2..=8".to_string());
    }
    if cfg.txns == 0 || cfg.txns > 60 {
        return Err("--txns must be in 1..=60".to_string());
    }

    let report = run_shard_bench(&cfg);
    emit(out.as_deref(), &report.to_json())?;
    eprintln!(
        "single: {} commits, frames c/p/d {}/{}/{} ({}m frames per commit)",
        report.single.committed,
        report.single.commit_frames,
        report.single.prepare_frames,
        report.single.decide_frames,
        report.single.frames_per_commit_milli,
    );
    eprintln!(
        "cross:  {} commits, frames c/p/d {}/{}/{} ({}m frames per commit)",
        report.cross.committed,
        report.cross.commit_frames,
        report.cross.prepare_frames,
        report.cross.decide_frames,
        report.cross.frames_per_commit_milli,
    );
    let violations = report.guard_violations();
    eprintln!(
        "cross-shard frame overhead {}m over the single-shard baseline ({})",
        report.frame_overhead_milli,
        if violations.is_empty() { "ok" } else { "FAIL" }
    );
    for v in &violations {
        eprintln!("bound violated: {v}");
    }
    Ok(exit_code(violations.is_empty()))
}

/// Parse and run the `overload` subcommand: the gray-failure survival
/// benchmark (unprotected run vs the same seeded workload under deadlines,
/// MPL, WAL-lag shedding and the stall detector, both against a stalling
/// device). Writes the JSON report to `--out` or stdout, prints a human
/// summary to stderr, and exits 0 only when both SLO verdicts hold:
/// protected goodput strictly higher, protected p99 latency bounded.
fn overload_main(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = OverloadCfg::default();
    let mut out: Option<String> = None;

    parse_flags(args, |flag, value| {
        match flag {
            "--seed" => cfg.seed = parse_num(flag, value()?)?,
            "--txns" => cfg.txns = parse_num(flag, value()?)?,
            "--objects" => cfg.objects = parse_num(flag, value()?)?,
            "--mpl" => cfg.mpl = parse_num(flag, value()?)?,
            "--deadline" => cfg.deadline = parse_num(flag, value()?)?,
            "--max-staged" => cfg.max_staged = parse_num(flag, value()?)?,
            "--stall-threshold" => cfg.stall_threshold = parse_num(flag, value()?)?,
            "--out" => out = Some(value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;

    let report = run_overload(&cfg);
    emit(out.as_deref(), &format!("{}\n", report.to_json()))?;
    eprintln!(
        "unprotected: committed {} / gave-up {} in {} rounds (goodput {}m/round), p99 {} rounds, stall-ticks {}",
        report.unprotected.committed,
        report.unprotected.gave_up,
        report.unprotected.rounds,
        report.unprotected.goodput_milli,
        report.unprotected.p99_latency_rounds,
        report.unprotected.stall_ticks,
    );
    eprintln!(
        "protected:   committed {} / gave-up {} in {} rounds (goodput {}m/round), p99 {} rounds, sheds {}, deadline-aborts {}, mode-flips {}",
        report.protected.committed,
        report.protected.gave_up,
        report.protected.rounds,
        report.protected.goodput_milli,
        report.protected.p99_latency_rounds,
        report.protected.sheds,
        report.protected.deadline_aborts,
        report.protected.mode_flips,
    );
    eprintln!(
        "verdicts: goodput_improved={} p99_bounded={}",
        report.goodput_improved, report.p99_bounded
    );
    Ok(exit_code(report.goodput_improved && report.p99_bounded))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// The subcommands a hand-written text shows: every word after the
    /// binary's name that is not a flag or a comment.
    fn shown(text: &str) -> BTreeSet<&str> {
        let after = text.split("ccr-experiments ").skip(1);
        let words = after.filter_map(|rest| rest.split_whitespace().next());
        words.filter(|w| w.starts_with(|c: char| c.is_ascii_lowercase())).collect()
    }

    #[test]
    fn the_module_header_and_the_readme_show_exactly_the_tabled_subcommands() {
        let tabled: BTreeSet<&str> = super::SUBCOMMANDS.iter().map(|c| c.name).collect();
        let source = include_str!("ccr-experiments.rs");
        let header: Vec<&str> = source.lines().take_while(|l| l.starts_with("//!")).collect();
        assert_eq!(shown(&header.join("\n")), tabled, "module header");
        assert_eq!(shown(include_str!("../../../../README.md")), tabled, "README.md");
    }
}
