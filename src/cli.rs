//! What the `repro` and `nokeys-scan` command lines share: the six scan
//! flags and their checks, when a scan resumes, and the `--metrics-out`
//! writer. Each binary keeps its own usage text, defaults and fault seed.

use nokeys_scanner::{PipelineConfig, Telemetry};
use std::path::Path;
use std::str::FromStr;

/// The most `--shards` takes. Each shard is an OS thread, and a scan
/// starts one per batch up to the count asked for (0.0.0.0/0 has
/// 262,144 batches), so the flag is bounded where it is read. 1,024 is
/// ample next to the binaries' defaults: 16, or the CPU count.
pub const MAX_SHARDS: usize = 1024;

/// The shared scan flags that are not [`PipelineConfig`] fields.
#[derive(Debug, Default)]
pub struct ScanFlags {
    /// `--fault-rate P`: the per-try probability of an injected fault.
    pub fault_rate: f64,
    /// `--resume`: continue the log at `--checkpoint FILE`.
    pub resume: bool,
    /// `--metrics-out FILE`: where the telemetry snapshot is written.
    pub metrics_out: Option<String>,
}

impl ScanFlags {
    /// Read `flag` if it is a shared scan flag, taking its value from
    /// `args`: `--shards N` (1 ≤ N ≤ [`MAX_SHARDS`]), `--retries N` and
    /// `--checkpoint FILE` into `config`; `--fault-rate P` (0 ≤ P ≤ 1),
    /// `--resume` and `--metrics-out FILE` into `self`. `Some(false)` if `flag` is none
    /// of them, `None` if its value is missing or malformed.
    pub fn read(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
        config: &mut PipelineConfig,
    ) -> Option<bool> {
        match flag {
            "--shards" => {
                config.shards = value(args).filter(|n| (1..=MAX_SHARDS).contains(n))?;
            }
            "--retries" => config.max_attempts = value(args)?,
            "--fault-rate" => {
                self.fault_rate = value(args).filter(|r| (0.0..=1.0).contains(r))?;
            }
            "--checkpoint" => config.checkpoint_path = Some(args.next()?.into()),
            "--resume" => self.resume = true,
            "--metrics-out" => self.metrics_out = Some(args.next()?),
            _ => return Some(false),
        }
        Some(true)
    }

    /// Whether the flags fit together: `--resume` needs `--checkpoint`.
    /// Says why on stderr when they do not.
    pub fn fit(&self, config: &PipelineConfig) -> bool {
        let fit = !self.resume || config.checkpoint_path.is_some();
        if !fit {
            eprintln!("error: --resume requires --checkpoint FILE");
        }
        fit
    }
}

/// The next item of `args`, parsed; `None` if it is missing or malformed.
pub fn value<T: FromStr>(args: &mut impl Iterator<Item = String>) -> Option<T> {
    args.next()?.parse().ok()
}

/// The log a scan continues from: `config`'s checkpoint, when `resume`
/// asks for it and the file exists. Otherwise the scan starts over
/// (checkpointed, if there is a path).
pub fn resume_from(config: &PipelineConfig, resume: bool) -> Option<&Path> {
    (config.checkpoint_path.as_deref()).filter(|path| resume && path.exists())
}

/// Print `telemetry`'s snapshot on stderr and write it as JSON to
/// `path`; exit 1 if the file cannot be written.
pub fn write_metrics(telemetry: &Telemetry, path: &str) {
    let snapshot = telemetry.snapshot();
    eprint!("{}", snapshot.render_text());
    std::fs::write(path, snapshot.to_json_pretty()).unwrap_or_else(|e| {
        eprintln!("error writing {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("metrics written to {path}");
}
