//! Command line of the benchmark; README.md has the manual.

use nokeys_benchmark::corpus::Sizes;
use nokeys_benchmark::runner::{self, Config, Outcome};
use nokeys_benchmark::{alloc, compare, report, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: nokeys-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       nokeys-benchmark --compare A.json B.json

Without --workload all four workloads run, their passes interleaved, and a
result file is written for --compare. With it, the last line of standard
output is the driver's JSON object.";

/// Where result and trace files go, and where the bounds are read from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Args {
    workload: Option<String>,
    cfg: Config,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: 2022,
            seconds: 20.0,
            trace: false,
            sizes: Sizes::FULL,
        },
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.cfg.seconds = seconds;
            }
            "--trace" => {
                args.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let report = compare::compare(&read(a)?, &read(b)?, &read(Path::new(BENCHMARK_JSON))?)?;
    print!("{}", report.table());
    Ok(if report.violated() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let outcomes: Vec<Outcome> = runner::run(&names, &args.cfg)
        .ok_or_else(|| format!("unknown workload; there are {:?}", workloads::NAMES))?;
    print!("{}", report::table(&outcomes));

    if args.cfg.trace {
        for outcome in &outcomes {
            let path = Path::new(OUT_DIR).join(format!("trace-{}.json", outcome.workload));
            write(&path, &report::trace_file(outcome, &args.cfg))?;
        }
    }
    let result_path = args.out.clone().or_else(|| {
        let kind = if args.cfg.trace { "-trace" } else { "" };
        let name = format!("result-seed{}{kind}.json", args.cfg.seed);
        args.workload
            .is_none()
            .then(|| Path::new(OUT_DIR).join(name))
    });
    if let Some(path) = result_path {
        write(&path, &report::result_file(&outcomes, &args.cfg))?;
        println!("result file: {}", path.display());
    }
    if args.workload.is_some() {
        println!("{}", report::driver_line(&outcomes[0], args.cfg.trace));
    }
    Ok(if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match &args.compare {
        Some((a, b)) => compare_files(a, b),
        None => measure(&args),
    };
    done.unwrap_or_else(|problem| {
        eprintln!("{problem}");
        ExitCode::from(2)
    })
}
