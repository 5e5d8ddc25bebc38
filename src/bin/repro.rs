//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <id>... [--seed N] [--quick] [--out DIR] [--metrics-out FILE]
//!               [--fault-rate P] [--retries N] [--shards N]
//!               [--checkpoint FILE] [--resume]
//! repro all [--seed N] [--quick]
//! repro list
//! ```
//!
//! `--quick` uses the small test universe and daily longevity rescans;
//! without it the harness runs at full reproduction scale (4,221
//! vulnerable hosts, 3-hourly rescans) — under ten seconds in a release
//! build.
//! `--metrics-out FILE` writes the harness-wide telemetry snapshot
//! (deterministic JSON) after all experiments finish.
//! `--fault-rate P` injects transient faults (SYN loss, connect
//! timeouts) into the simulated transport at per-attempt probability
//! `P`; each fate is a pure function of (lane, endpoint, instant,
//! request target, try), so every output is still byte-identical run to
//! run, in any experiment order and after `--resume`. `--retries N` sets
//! the per-operation transport attempt budget (default 3; 1 disables
//! retrying).
//!
//! `--shards N` runs the scan on N worker threads (at most 1,024), each
//! drawing the next batch from one shared cursor (default: the number
//! of CPUs).
//! Like fault injection, sharding never changes the output: every table
//! and figure is byte-identical at any N.
//!
//! `--checkpoint FILE` makes the scan crash-safe: every finished batch
//! is appended to the log at `FILE` (the only file this creates), so a
//! killed scan loses only the batches in flight. With `--resume`, an
//! existing log at `FILE` is continued instead of restarting the scan —
//! the final report and telemetry are byte-identical to an
//! uninterrupted run.
//!
//! A usage error, an unknown id included, exits 2 before anything runs.
//! A scan that fails — a corrupt or foreign checkpoint log, an I/O
//! error — prints `error: …` and exits 1.

use nokeys::cli::{value, write_metrics, ScanFlags};
use nokeys::repro::{Repro, Scale};
use nokeys::scanner::PipelineConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro <id>...|all|list [--seed N] [--quick] [--out DIR] [--metrics-out FILE]\n\
         \x20      [--fault-rate P] [--retries N] [--shards N]\n\
         \x20      [--checkpoint FILE] [--resume]"
    );
    eprintln!("experiment ids: {}", Repro::all_ids().join(", "));
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut seed: u64 = 2022;
    let mut scale = Scale::Full;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut scan = PipelineConfig {
        shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..PipelineConfig::new(Vec::new())
    };
    let mut flags = ScanFlags::default();
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => out_dir = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--seed" => seed = value(&mut args).unwrap_or_else(|| usage()),
            "list" => {
                for id in Repro::all_ids() {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(Repro::all_ids().iter().map(|s| s.to_string())),
            other => match flags.read(other, &mut args, &mut scan) {
                Some(true) => {}
                Some(false) if Repro::all_ids().contains(&other) => ids.push(other.to_string()),
                Some(false) if !other.starts_with('-') => {
                    eprintln!("error: unknown experiment id '{other}'");
                    usage()
                }
                _ => usage(),
            },
        }
    }
    if ids.is_empty() || !flags.fit(&scan) {
        usage();
    }

    let mut harness = Repro::new(seed, scale).with_fault_rate(flags.fault_rate);
    harness.config.max_attempts = scan.max_attempts;
    harness.config.shards = scan.shards;
    harness.config.checkpoint_path = scan.checkpoint_path;
    harness.resume = flags.resume;
    println!(
        "# nokeys repro — seed {seed}, scale {:?}, universe {}",
        scale,
        harness.universe_config().space
    );
    for id in ids {
        let started = std::time::Instant::now();
        match harness.run(&id) {
            Ok(rendered) => {
                println!("\n{rendered}");
                println!("[{id} regenerated in {:.1?}]", started.elapsed());
                if let Some(dir) = &out_dir {
                    std::fs::create_dir_all(dir).expect("create output dir");
                    let path = dir.join(format!("{id}.txt"));
                    std::fs::write(&path, &rendered).expect("write artifact");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &flags.metrics_out {
        write_metrics(harness.telemetry(), path);
    }
}
