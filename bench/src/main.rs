//! `ccr-perfbench` — the repository's one benchmark. See `README.md`.
//!
//! ```text
//! ccr-perfbench --workload W --seed N --seconds S --trace 0|1   one measured run (BENCHMARK.json)
//! ccr-perfbench run [--workload W] [--seed N] [--seconds S] [--traced] [--quick]
//!                   [--selftest] [--check-determinism]          every workload, a process each
//! ccr-perfbench repeat N [--seed N] [--seconds S] [--out FILE]  spread of the gated metrics
//! ccr-perfbench layers [--seed N]                               the isolated probes, >= 1 s each
//! ccr-perfbench manifest                                        print BENCHMARK.json
//! ```

mod driver;
mod layers;
mod metrics;
mod rng;
mod span;
mod stats;
mod suite;
mod sut;
mod workload;

use std::process::ExitCode;

use ccr_adt::bank::{bank_nfc, bank_nrbc, BankAccount};
use ccr_runtime::{DuEngine, UipEngine};

use driver::{Options, Report};
use sut::{Sharded, Single};
use workload::{Spec, Stack, FULL, QUICK};

/// Command-line flags shared by every mode.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub selftest: bool,
    pub check_determinism: bool,
    pub epochs: Option<usize>,
    pub out: Option<String>,
    pub positional: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        selftest: false,
        check_determinism: false,
        epochs: None,
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.trace = true,
            "--quick" => a.quick = true,
            "--selftest" => a.selftest = true,
            "--check-determinism" => a.check_determinism = true,
            "--epochs" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--epochs: {e}"))?;
                a.epochs = Some(n.max(1));
            }
            "--out" => a.out = Some(value("a path")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Run one workload in this process.
fn measure(spec: &Spec, args: &Args) -> Report {
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.quick { QUICK } else { FULL },
        // The quick size is a smoke test of the phases, not a measurement:
        // two epochs, whatever the clock says.
        epochs: args.epochs.or(args.quick.then_some(2)),
        selftest: args.selftest,
    };
    match spec.stack {
        Stack::UipNrbc => driver::run(spec, &opts, || {
            Single::<UipEngine<BankAccount>>::new(spec.objects, bank_nrbc())
        }),
        Stack::DuNfc => driver::run(spec, &opts, || {
            Single::<DuEngine<BankAccount>>::new(spec.objects, bank_nfc())
        }),
        Stack::ShardedUipNrbc => {
            driver::run(spec, &opts, || Sharded::new(spec.shards, spec.objects, bank_nrbc()))
        }
    }
}

/// The contract mode: one workload, `metric` lines, then the result line.
fn single_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let mut report = measure(spec, args);
    if args.trace {
        // The isolated probes do not depend on the workload; every traced
        // run repeats them briefly so its result line is self-contained.
        let effort = if args.quick { layers::SMOKE } else { layers::BRIEF };
        report.metrics.extend(layers::run_all(args.seed, effort));
        if let Some(spans) = &report.spans {
            suite::write_spans(spec.name, args.seed, spans);
        }
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, suite::number(m.value), m.unit);
    }
    for p in &report.problems {
        println!("problem {p}");
    }
    println!("{}", suite::result_line(&report, args.trace)?);
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| match args.positional.first().map(String::as_str) {
        None => single_run(&args),
        Some("run") => suite::run(&args),
        Some("repeat") => suite::repeat(&args),
        Some("layers") => {
            for m in layers::run_all(args.seed, layers::THOROUGH) {
                println!("metric {} {} {}", m.name, suite::number(m.value), m.unit);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown mode {other}; see bench/README.md")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("ccr-perfbench: {e}");
        ExitCode::from(2)
    })
}
