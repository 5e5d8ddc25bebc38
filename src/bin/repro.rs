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
//! `--shards N` runs the scan on N worker threads, each drawing the
//! next batch from one shared cursor (default: the number of CPUs).
//! Like fault injection, sharding never changes the output: every table
//! and figure is byte-identical at any N.
//!
//! `--checkpoint FILE` makes the scan crash-safe: every finished batch
//! is appended to the log at `FILE` (the only file this creates), so a
//! killed scan loses only the batches in flight. With `--resume`, an
//! existing log at `FILE` is continued instead of restarting the scan —
//! the final report and telemetry are byte-identical to an
//! uninterrupted run.

use nokeys::repro::{Repro, Scale};

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut seed: u64 = 2022;
    let mut scale = Scale::Full;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<String> = None;
    let mut fault_rate: f64 = 0.0;
    let mut retries: u32 = 3;
    let mut shards: usize = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut checkpoint: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--resume" => resume = true,
            "--checkpoint" => {
                i += 1;
                checkpoint = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--fault-rate" => {
                i += 1;
                fault_rate = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage());
            }
            "--retries" => {
                i += 1;
                retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "list" => {
                for id in Repro::all_ids() {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(Repro::all_ids().iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
    }

    if resume && checkpoint.is_none() {
        eprintln!("error: --resume requires --checkpoint FILE");
        usage();
    }

    let mut harness = Repro::new(seed, scale).with_fault_rate(fault_rate);
    harness.config.max_attempts = retries;
    harness.config.shards = shards;
    harness.config.checkpoint_path = checkpoint;
    harness.resume = resume;
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
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = metrics_out {
        let snapshot = harness.telemetry().snapshot();
        eprint!("{}", snapshot.render_text());
        std::fs::write(&path, snapshot.to_json_pretty()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
}
