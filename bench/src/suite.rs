//! Everything that runs more than one measurement: the full set (a process
//! per workload, so `peak_rss_mb` and allocator state are per workload), the
//! determinism check, the negative control and the spread over repeats.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use crate::driver::Report;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workload::WORKLOADS;
use crate::Args;

/// A measured value with all its digits (shortest form that round-trips).
pub fn number(v: f64) -> String {
    format!("{v}")
}

/// The contract's last line: one JSON object with the end-to-end metrics of
/// an untraced run, or the per-layer metrics of a traced one.
pub fn result_line(report: &Report, traced: bool) -> Result<String, String> {
    let wanted: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = report.get(name).ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value));
    }
    out.push_str("}}");
    Ok(out)
}

/// Raw spans go to `bench/results/` of the checkout the command runs from.
/// They are a by-product: failing to write them never fails a run.
pub fn write_spans(workload: &str, seed: u64, json: &str) {
    let dir = std::path::Path::new("bench/results");
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("spans {}", path.display()),
        Err(e) => eprintln!("ccr-perfbench: raw spans not written to {}: {e}", path.display()),
    }
}

struct Child {
    ok: bool,
    stdout: String,
    /// `metric` lines, value kept as printed so equality is bit equality.
    metrics: BTreeMap<String, String>,
}

/// One workload in a process of its own.
fn child(workload: &str, seed: u64, args: &Args, extra: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(n) = args.epochs {
        cmd.args(["--epochs", &n.to_string()]);
    }
    cmd.args(extra);
    let out = cmd.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut parts = l.split(' ');
            Some((parts.next()?.to_string(), parts.next()?.to_string()))
        })
        .collect();
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok(Child { ok: out.status.success(), stdout, metrics })
}

fn selected(args: &Args) -> Result<Vec<&'static str>, String> {
    match &args.workload {
        None => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => match crate::workload::find(name) {
            Some(w) => Ok(vec![w.name]),
            None => Err(format!("unknown workload {name}")),
        },
    }
}

/// Counts that must repeat bit for bit when seed and epoch count repeat.
const EXACT: [&str; 7] = [
    "attempts_per_commit",
    "flushes_per_commit",
    "log_bytes_per_commit",
    "runtime.system.blocked_per_commit",
    "runtime.system.wounds_per_commit",
    "runtime.system.useful_invoke_ratio",
    "store.wal.device_ops_per_commit",
];

/// `run --check-determinism`: each workload twice at two epochs (about 1/20
/// of a full run) on the same seed; the exact counts must be bit-identical.
fn check_determinism(args: &Args) -> Result<ExitCode, String> {
    let small = Args { epochs: Some(2), ..args.clone() };
    let mut bad = 0;
    for name in selected(args)? {
        let (a, b) = (child(name, args.seed, &small, &[])?, child(name, args.seed, &small, &[])?);
        let differing: Vec<&str> =
            EXACT.iter().copied().filter(|m| a.metrics.get(*m) != b.metrics.get(*m)).collect();
        let measured = EXACT.iter().all(|m| a.metrics.contains_key(*m));
        if a.ok && b.ok && measured && differing.is_empty() {
            println!("determinism {name}: {} exact counts repeat bit for bit", EXACT.len());
        } else {
            println!(
                "determinism {name}: FAILED (runs ok: {} {}; differing: {differing:?})",
                a.ok, b.ok
            );
            bad += 1;
        }
    }
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run`: every selected workload once, a process each. With `--selftest`
/// every run must *fail* its durability check (and so does this command).
pub fn run(args: &Args) -> Result<ExitCode, String> {
    if args.check_determinism {
        return check_determinism(args);
    }
    let extra: &[&str] = if args.selftest { &["--selftest"] } else { &[] };
    let mut bad = 0;
    for name in selected(args)? {
        let c = child(name, args.seed, args, extra)?;
        print!("{}", c.stdout);
        match (args.selftest, c.ok) {
            (false, true) => {}
            (false, false) => {
                println!("run {name}: FAILED");
                bad += 1;
            }
            (true, false) if c.stdout.contains("problem durability check") => {
                println!(
                    "selftest {name}: the durability check caught the dropped acknowledgement"
                );
                bad += 1;
            }
            (true, _) => {
                return Err(format!("selftest {name}: the dropped acknowledgement went unnoticed"))
            }
        }
    }
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `repeat N`: the full set N times on seeds `seed .. seed+N`, then for each
/// gated metric and workload the median, quartiles and spreads. Fails when
/// an interquartile spread exceeds the metric's bound.
pub fn repeat(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args
        .positional
        .get(1)
        .ok_or("repeat needs a count")?
        .parse()
        .map_err(|e| format!("repeat count: {e}"))?;
    if n < 2 {
        return Err("repeat needs at least 2 runs to have a spread".into());
    }
    let names = selected(args)?;
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for i in 0..n as u64 {
        for &name in &names {
            let c = child(name, args.seed + i, args, &[])?;
            if !c.ok {
                print!("{}", c.stdout);
                return Err(format!("{name} failed on seed {}", args.seed + i));
            }
            for m in &END_TO_END {
                let v = c.metrics.get(m.name).and_then(|v| v.parse().ok());
                samples
                    .entry((name, m.name))
                    .or_default()
                    .push(v.ok_or(format!("{name}: no {}", m.name))?);
            }
            eprintln!("repeat {}/{n} {name} done", i + 1);
        }
    }
    let mut over = 0;
    let mut json = format!(
        "{{\n  \"runs\": {n},\n  \"first_seed\": {},\n  \"seconds\": {},\n  \"rows\": [",
        args.seed, args.seconds
    );
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for (row, ((workload, metric), values)) in samples.iter().enumerate() {
        let m = END_TO_END.iter().find(|m| m.name == *metric).expect("sampled from the table");
        let (q1, q3) = quartiles(values);
        let med = median(values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (iqr, range) = ((q3 - q1) / med, (hi - lo) / med);
        // Set-up time is bounded between medians only, as the driver does.
        let flag = if iqr > m.bound && *metric != "setup_s" {
            over += 1;
            " OVER"
        } else {
            ""
        };
        println!(
            "{workload:<16} {metric:<22} {med:>12.4} {q1:>12.4} {q3:>12.4} {iqr:>8.4} {range:>8.4} {:>6}{flag}",
            m.bound
        );
        let sep = if row == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\n    {{\"workload\": \"{workload}\", \"metric\": \"{metric}\", \"unit\": \"{}\", \
             \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"bound\": {}}}",
            m.unit,
            number(med),
            number(q1),
            number(q3),
            number(lo),
            number(hi),
            m.bound
        );
    }
    json.push_str("\n  ]\n}\n");
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if over > 0 {
        println!("repeat: {over} interquartile spread(s) exceed their bound");
    }
    Ok(if over == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
