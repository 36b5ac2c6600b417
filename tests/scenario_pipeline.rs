//! The scenario pipeline — flag table → scenario → run / sweep / shrink
//! (DESIGN.md §7) — pinned from the outside: what the table parses it
//! prints and what it prints it parses, the reproducer and fault-plan
//! formats are byte-for-byte the ones replay command lines in old bug
//! reports use, a sweep honours every flag of its template, and the one
//! `run` / `shrink` agree with the typed per-driver arms they dispatch to.

use ccr::runtime::fault::{FaultMix, FaultPlan};
use ccr::runtime::sim::SimCfg;
use ccr::runtime::system::ConflictPolicy;
use ccr::workload::shard_sim::run_shard_scenario;
use ccr::workload::sim::{
    run, run_scenario, shrink, sweep, usage, Backend, Combo, Report, SimScenario, Sweep, FLAGS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parse a reproducer line (or any `sim` flag list) exactly as the CLI does.
fn parse(line: &str) -> Result<SimScenario, String> {
    let flags = line.strip_prefix("ccr-experiments sim").unwrap_or(line);
    let args: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
    SimScenario::parse_args(&args, |_, _| Ok(false))
}

/// A random scenario that passes `validate`: any value in every flag's
/// field, the sharded rows included.
fn random_scenario(rng: &mut StdRng) -> SimScenario {
    let shards = if rng.gen_bool(0.5) { 1 } else { rng.gen_range(2usize..=8) };
    let sharded = shards >= 2;
    let txns = rng.gen_range(1usize..40);
    let mix = [FaultMix::Storage, FaultMix::Gray, FaultMix::Sharded { nshards: 3 }];
    SimScenario {
        combo: Combo::ALL[rng.gen_range(0..Combo::ALL.len())],
        policy: [ConflictPolicy::Block, ConflictPolicy::WoundWait, ConflictPolicy::NoWait]
            [rng.gen_range(0..3usize)],
        txns,
        ops_per_txn: rng.gen_range(1usize..5),
        objects: rng.gen_range(1u32..6),
        skip: (0..txns).filter(|_| rng.gen_bool(0.2)).collect(),
        plan: FaultPlan::from_seed(
            rng.gen(),
            60,
            rng.gen_range(0usize..5),
            mix[rng.gen_range(0..3usize)],
        ),
        backend: if rng.gen_bool(0.5) { Backend::Disk } else { Backend::Mem },
        cfg: SimCfg {
            seed: rng.gen(),
            checkpoint_every: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..9)),
            group_commit: rng.gen_bool(0.5),
            fault_during_recovery: !sharded && rng.gen_bool(0.5),
            mpl: rng.gen_range(0usize..6),
            deadline: rng.gen_range(0u64..80),
            max_staged: rng.gen_range(0usize..4),
            stall_threshold: rng.gen_range(0u64..100),
            ..SimCfg::default()
        },
        shards,
        twopc_crash: sharded && rng.gen_bool(0.5),
        lose_decision: sharded && rng.gen_bool(0.5),
    }
}

#[test]
fn every_scenario_round_trips_through_its_reproducer() {
    let mut rng = StdRng::seed_from_u64(0x5CE7_A210);
    let mut printed = vec![false; FLAGS.len()];
    for _ in 0..256 {
        let scenario = random_scenario(&mut rng);
        let line = scenario.reproducer();
        assert_eq!(parse(&line).as_ref(), Ok(&scenario), "{line}");
        for (row, flag) in FLAGS.iter().enumerate() {
            printed[row] |= line.split(' ').any(|word| word == flag.name);
        }
    }
    for (flag, seen) in FLAGS.iter().zip(printed) {
        assert!(seen, "no generated reproducer exercised {}", flag.name);
    }
}

#[test]
fn the_parser_refuses_what_no_driver_can_run() {
    for (line, complaint) in [
        ("--policy wound", "missing --combo"),
        ("--combo uip-nrbc --lose-decision", "needs --shards >= 2"),
        ("--combo uip-nrbc --2pc-crash", "needs --shards >= 2"),
        ("--combo uip-nrbc --shards 9", "2..=8"),
        ("--combo uip-nrbc --shards 0", "1..=8"),
        ("--combo uip-nrbc --shards 2 --fault-during-recovery", "single-domain"),
        ("--combo uip-nrbc --shards 2 --txns 61", "at most 60"),
        ("--combo uip-nrbc --txns many", "--txns"),
        ("--combo uip-nrbc --seed", "needs a value"),
        ("--combo uip-nrbc --frobnicate", "unknown flag"),
    ] {
        let refusal = parse(line).expect_err(line);
        assert!(refusal.contains(complaint), "{line}: {refusal}");
    }
}

#[test]
fn the_usage_text_names_every_flag() {
    let text = usage("sim", true, "[--json]\nnotes\n");
    assert!(text.starts_with("usage: ccr-experiments sim <scenario flags> [--json]\nnotes\n"));
    for flag in FLAGS {
        let line = text.lines().find(|l| l.split(' ').any(|word| word == flag.name));
        let line = line.unwrap_or_else(|| panic!("{} is missing from the usage text", flag.name));
        assert!(line.contains(flag.help), "{} lost its help: {line}", flag.name);
        assert_eq!(line.contains("(required)"), flag.required, "{line}");
    }
    let plain = usage("report", false, "[--out FILE]\n");
    assert_eq!(plain, "usage: ccr-experiments report [--out FILE]\n");
}

/// Generated at the parent commit of the flag-table refactor by the
/// hand-assembled `reproducer()`: every elision rule (`--skip`, `--ckpt`
/// including `--ckpt 0`, the three off-by-default switches, the two sharded
/// switches) and every pinned-at-default flag, one scenario a line.
#[test]
fn reproducer_lines_are_byte_identical_to_the_hand_assembled_ones() {
    let pinned: Vec<&str> = include_str!("fixtures/reproducers.txt").lines().collect();
    assert_eq!(pinned.len(), 15);
    for line in pinned {
        let scenario = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(scenario.reproducer(), line);
    }
}

/// Generated at the parent commit by the three pasted generators (storage,
/// gray, sharded) the one planner replaces: seeds 0..32 of each mix at two
/// shapes. Old replay command lines name plans by
/// `(seed, horizon, count)`; the one planner must keep drawing them.
#[test]
fn seeded_plans_are_byte_identical_to_the_three_generators_they_replace() {
    let mut lines = 0;
    for line in include_str!("fixtures/fault_plans.txt").lines() {
        let mut cols = line.split(' ');
        let mut next = || cols.next().expect("mix seed horizon count plan");
        let mix = match next() {
            "storage" => FaultMix::Storage,
            "gray" => FaultMix::Gray,
            "sharded2" => FaultMix::Sharded { nshards: 2 },
            "sharded3" => FaultMix::Sharded { nshards: 3 },
            other => panic!("unknown mix {other}"),
        };
        let (seed, horizon, count) =
            (next().parse().unwrap(), next().parse().unwrap(), next().parse().unwrap());
        assert_eq!(FaultPlan::from_seed(seed, horizon, count, mix).to_string(), next(), "{line}");
        lines += 1;
    }
    assert_eq!(lines, 32 * 6);
}

/// Before the template sweep, `sim --combo uip-sym-nfc --policy wound
/// --objects 4 --ckpt 4 --txns 12 --sweep 16` silently swept `--policy block
/// --objects 1 --txns 8` with no checkpoint, and its `original:` line said so.
#[test]
fn a_sweep_honours_every_flag_of_its_template() {
    let template = parse("--combo uip-sym-nfc --policy wound --objects 4 --ckpt 4 --txns 12")
        .expect("a well-formed template");
    let cells = Sweep { horizon: 60, faults: 4, ..Sweep::new(template, 16) };
    let found = sweep(&cells).expect("the weakened relation must be caught under any shape");
    let original = found.original.reproducer();
    for pinned in [" --policy wound", " --objects 4", " --ckpt 4", " --txns 12"] {
        assert!(original.contains(pinned), "the sweep dropped{pinned}: {original}");
    }
    let shrunk = found.shrunk.reproducer();
    for kept in [" --policy wound", " --objects 4", " --ckpt 4"] {
        assert!(shrunk.contains(kept), "the shrinker dropped{kept}: {shrunk}");
    }
}

#[test]
fn run_reports_what_the_typed_arm_it_dispatches_to_reports() {
    for seed in 0..16 {
        let plan = FaultPlan::from_seed(seed, 60, 4, FaultMix::Storage);
        let single = SimScenario::new(Combo::DuNfc, seed, plan);
        let typed = run_scenario(&single).expect("a correct pairing passes");
        assert_eq!(
            run(&single).expect("a correct pairing passes"),
            Report::Single(Box::new(typed))
        );

        let plan = FaultPlan::from_seed(seed, 60, 4, FaultMix::Sharded { nshards: 3 });
        let fleet = SimScenario { shards: 3, ..SimScenario::new(Combo::UipNrbc, seed, plan) };
        let typed = run_shard_scenario(&fleet).expect("a correct fleet passes");
        assert_eq!(run(&fleet).expect("a correct fleet passes"), Report::Sharded(typed));
    }
}

/// Runs spent and shrunk reproducers recorded at the parent commit from the
/// two shrinkers the pass list replaces: `sim --combo uip-sym-nfc --sweep 16`
/// (all five passes, any failure) and `sim --combo uip-nrbc --shards 2
/// --lose-decision` (two passes, same kind).
#[test]
fn the_pass_list_shrinks_exactly_as_the_two_shrinkers_it_replaces() {
    let template = SimScenario::new(Combo::UipSymNfc, 0, FaultPlan::none());
    let found = sweep(&Sweep { horizon: 60, faults: 4, ..Sweep::new(template, 16) })
        .expect("the weakened relation must be caught");
    assert_eq!(found.shrink_runs, 53);
    assert_eq!(
        found.shrunk.reproducer(),
        "ccr-experiments sim --combo uip-sym-nfc --policy block --seed 0 --txns 8 --ops 1 \
         --objects 1 --skip 2,3,5,6,7 --backend disk --mpl 0 --deadline 0 --max-staged 0 \
         --stall-threshold 0 --shards 1 --faults 4:torn1"
    );

    let planted = parse("--combo uip-nrbc --shards 2 --lose-decision").expect("well-formed");
    let found = shrink(&planted);
    assert_eq!((found.failure.kind(), found.shrink_runs), ("global-split", 10));
    assert_eq!(
        found.shrunk.reproducer(),
        "ccr-experiments sim --combo uip-nrbc --policy block --seed 0 --txns 8 --ops 2 \
         --objects 1 --skip 1,2,3,4,5,6,7 --backend disk --mpl 0 --deadline 0 --max-staged 0 \
         --stall-threshold 0 --shards 2 --lose-decision --faults none"
    );
}
