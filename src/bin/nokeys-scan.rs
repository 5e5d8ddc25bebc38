//! `nokeys-scan` — the scanning pipeline as a standalone tool over real
//! TCP, for scanning infrastructure you are authorized to test.
//!
//! ```text
//! nokeys-scan --target 192.0.2.0/28 [--ports 80,443,8080] [--rate 200]
//!             [--shards N] [--json out.json] [--metrics-out m.json]
//!             [--include-reserved] [--retries N] [--fault-rate P]
//!             [--checkpoint FILE] [--resume]
//! ```
//!
//! `--shards N` is the scan's one concurrency setting: N worker threads
//! each draw the next batch from one shared cursor (default 16 — live
//! scanning is latency-bound, so more workers than CPUs pays off). The report is byte-identical at any N, and `--rate`
//! stays a whole-scan bound shared by all workers.
//!
//! `--checkpoint FILE` appends every finished batch to the log at
//! `FILE`; `--resume` continues an interrupted scan from that log
//! instead of starting over, rescanning only the batches it lacks.
//!
//! Like the paper's scanner, the tool is strictly non-intrusive: it only
//! issues non-state-changing `GET` requests and infers the presence of a
//! MAV from the presence of the vulnerable functionality.
//!
//! `--retries N` gives every probe/connect N total attempts with
//! deterministic exponential backoff (1 disables retrying). For
//! rehearsing that path against lab targets, `--fault-rate P` injects
//! synthetic SYN loss and connect timeouts at per-attempt probability
//! `P`, keyed on (lane, endpoint, request target, try): a live scan has
//! no virtual instant, so a rescan repeats the last one's fates.
//! `--metrics-out` counts them as `fault.{probe,connect}.injected`.

use nokeys::http::transport::TcpTransport;
use nokeys::http::Client;
use nokeys::netsim::{FaultPlan, FaultyTransport};
use nokeys::scanner::json::ToJson;
use nokeys::scanner::{Pipeline, PipelineConfig, Telemetry};

struct Args {
    /// The scan the flags describe.
    config: PipelineConfig,
    fault_rate: f64,
    json: Option<String>,
    metrics_out: Option<String>,
    resume: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: nokeys-scan --target CIDR [--target CIDR ...]\n\
         \x20                [--ports p1,p2,...] [--shards N] [--rate PROBES_PER_SEC]\n\
         \x20                [--retries N] [--fault-rate P]\n\
         \x20                [--include-reserved] [--json FILE] [--metrics-out FILE]\n\
         \x20                [--checkpoint FILE] [--resume]\n\
         \n\
         --shards N       scan on N worker threads\n\
         \x20                (default 16; byte-identical report at any N)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: PipelineConfig {
            shards: 16,
            // Over real sockets one backoff unit is a millisecond, so
            // exhausted budgets actually pace the retries instead of
            // hammering the target.
            backoff_unit: std::time::Duration::from_millis(1),
            ..PipelineConfig::new(Vec::new())
        },
        fault_rate: 0.0,
        json: None,
        metrics_out: None,
        resume: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--target" => {
                i += 1;
                let cidr = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                args.config.targets.push(cidr);
            }
            "--ports" => {
                i += 1;
                // Every element must parse: "80,abc,443" is an error,
                // not a two-port list (filter_map used to silently drop
                // the bad entries).
                args.config.ports = argv
                    .get(i)
                    .and_then(|s| {
                        s.split(',')
                            .map(|p| p.parse().ok())
                            .collect::<Option<Vec<u16>>>()
                    })
                    .unwrap_or_else(|| usage());
                if args.config.ports.is_empty() {
                    usage();
                }
            }
            "--rate" => {
                i += 1;
                args.config.max_probes_per_sec = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|r: &f64| r.is_finite() && *r > 0.0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--shards" => {
                i += 1;
                args.config.shards = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--retries" => {
                i += 1;
                args.config.max_attempts = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fault-rate" => {
                i += 1;
                args.fault_rate = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage());
            }
            "--include-reserved" => args.config.exclude_reserved = false,
            "--resume" => args.resume = true,
            "--checkpoint" => {
                i += 1;
                args.config.checkpoint_path =
                    Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--json" => {
                i += 1;
                args.json = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                i += 1;
                args.metrics_out = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if args.config.targets.is_empty() {
        usage();
    }
    if args.resume && args.config.checkpoint_path.is_none() {
        eprintln!("error: --resume requires --checkpoint FILE");
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let config = &args.config;
    let addresses: u64 = config.targets.iter().map(|t| t.size()).sum();
    eprintln!(
        "scanning {} addresses on {} ports with {} workers (non-intrusive GET requests only)",
        addresses,
        config.ports.len(),
        config.shards
    );
    if let Some(path) = &config.checkpoint_path {
        eprintln!("checkpointing to {}", path.display());
    }

    // Resume when asked to and something is there to resume from;
    // otherwise a fresh (checkpointed) run.
    let resume_from =
        (config.checkpoint_path.as_deref()).filter(|path| args.resume && path.exists());
    if let Some(path) = resume_from {
        eprintln!("resuming from checkpoint {}", path.display());
    }
    let resume = resume_from.is_some();
    let telemetry = Telemetry::new();
    let pipeline = Pipeline::new(args.config, &telemetry);

    // The fault-injection wrapper is a passthrough at rate 0 (the
    // default); its draws are keyed on each try, so every worker draws
    // the same fates whichever batches it runs.
    if args.fault_rate > 0.0 {
        eprintln!(
            "injecting synthetic transport faults at rate {}",
            args.fault_rate
        );
    }
    let client = Client::new(FaultyTransport::new(
        TcpTransport::default(),
        FaultPlan::new(args.fault_rate, 0x6e6f_6b65_7973),
    ));
    let outcome = if resume {
        pipeline.resume(&client)
    } else {
        pipeline.run(&client)
    };
    let report = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    for f in &report.findings {
        println!(
            "{}\t{}\t{}\t{}",
            f.endpoint,
            f.app.name(),
            if f.vulnerable {
                "VULNERABLE"
            } else {
                "identified"
            },
            f.version.map(|v| v.number()).unwrap_or_else(|| "-".into()),
        );
    }
    eprintln!(
        "done: {} AWE hosts identified, {} with a missing-authentication vulnerability",
        report.total_hosts(),
        report.total_mavs()
    );

    if let Some(path) = args.json {
        std::fs::write(&path, report.to_json().write_pretty()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("report written to {path}");
    }

    if let Some(path) = args.metrics_out {
        let snapshot = telemetry.snapshot();
        eprint!("{}", snapshot.render_text());
        std::fs::write(&path, snapshot.to_json_pretty()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
}
