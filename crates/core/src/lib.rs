//! The paper's primary contribution: a three-stage Internet-wide scanning
//! pipeline for **missing authentication vulnerabilities** (MAVs) in
//! administrative web endpoints (AWEs), modeled after the Tsunami scanner.
//!
//! * **Stage I** ([`portscan`]): masscan-style port sweep — randomized
//!   /24 block order, IANA reserved-range exclusion, 12 target ports.
//! * **Stage II** ([`prefilter`]): HTTP(S) probe with redirect following
//!   and 90 per-application [`signatures`] that discard out-of-scope
//!   hosts, compiled into a single-pass [`multipattern`] automaton.
//! * **Stage III** ([`plugin`]): per-application MAV verification, one
//!   interpreter over a table whose rows are the paper's Appendix
//!   Table 10 steps, each with its sentence; a step can only `GET`.
//! * **Version fingerprinting** ([`fingerprint`]): voluntary version
//!   disclosure plus a static-file hash knowledge base with a crawler.
//! * **Longevity observation** ([`observer`]): 3-hourly rescans of
//!   vulnerable hosts over four weeks (Figure 2).
//! * **Telemetry** ([`telemetry`]): a lock-cheap metrics registry
//!   threaded through every stage — counters and fixed-bucket
//!   histograms, snapshot as deterministic JSON.
//! * **Execution** ([`shard`], [`checkpoint`]): the one scan engine —
//!   shard workers on OS threads drawing batches from one cursor and
//!   filing them in one ledger, with a crash-safe append-only
//!   checkpoint log behind it.
//!
//! Everything is synchronous and std-only; [`json`] is the workspace's
//! JSON reader/writer.
//!
//! The pipeline is generic over the [`Transport`](nokeys_http::Transport)
//! abstraction: the same code scans the simulated universe
//! (`nokeys-netsim`) and real sockets (`live_scan` example).

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod ct;
pub mod disclosure;
pub mod fingerprint;
pub mod htmlcheck;
pub mod json;
pub mod multipattern;
pub mod observer;
pub mod pattern;
pub mod pipeline;
pub mod plugin;
pub mod portscan;
pub mod prefilter;
pub mod rate;
pub mod report;
pub mod retry;
pub mod scratch;
pub mod shard;
pub mod signatures;
pub mod telemetry;

pub use checkpoint::{CheckpointError, CheckpointLog};
pub use multipattern::{MultiPattern, ViewUse};
pub use pattern::{MatchMode, Pattern, PreparedBody};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError};
pub use plugin::{detect_mav, plugin_steps};
pub use portscan::PortScanner;
pub use prefilter::{Prefilter, PrefilterHit};
pub use rate::SharedPacer;
pub use report::{FingerprintMethod, HostFinding, ScanReport};
pub use retry::RetryTransport;
pub use scratch::Scratch;
pub use telemetry::{Telemetry, TelemetrySnapshot};
