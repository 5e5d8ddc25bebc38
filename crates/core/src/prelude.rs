//! One-stop import for downstream users of the scanner.
//!
//! ```
//! use nokeys_scanner::prelude::*;
//! ```
//!
//! Re-exports the user-facing surface: pipeline configuration and
//! execution, reports and telemetry, checkpointing and pacing.
//! Internal machinery (prefilter internals, the batch ledger, signature
//! tables) stays behind its modules.

pub use crate::checkpoint::{CheckpointError, ConfigFingerprint};
pub use crate::observer::{observe, LongevityStudy, ObserverConfig};
pub use crate::pipeline::{Pipeline, PipelineConfig, PipelineConfigBuilder, PipelineError};
pub use crate::portscan::{Cidr, PortScanConfig};
pub use crate::rate::SharedPacer;
pub use crate::report::{FingerprintMethod, HostFinding, ScanReport};
pub use crate::retry::RetryPolicy;
pub use crate::telemetry::{Telemetry, TelemetrySnapshot};
