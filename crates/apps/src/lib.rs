//! Behavioural models of the 25 administrative web endpoints (AWEs)
//! investigated by *No Keys to the Kingdom Required* (IMC 2022).
//!
//! Each application is modeled as a small HTTP state machine that
//!
//! * serves the identification markers used by the scanning pipeline's
//!   prefilter signatures,
//! * serves the exact detection endpoints the paper's Tsunami plugins
//!   check (Appendix Table 10), with version- and configuration-dependent
//!   behaviour,
//! * implements its abuse surface (system-command execution, API-based
//!   code execution, SQL execution or installation hijack), emitting
//!   [`events::AppEvent`]s that the honeypot monitor records, and
//! * exposes a static-asset corpus for the hash-based version
//!   fingerprinter.
//!
//! The models are *behavioural equivalents*, not reimplementations, of the
//! real products; `DESIGN.md` documents the modeling decisions.

#![forbid(unsafe_code)]

pub mod assets;
pub mod background;
pub(crate) mod base;
pub mod catalog;
pub mod config;
pub mod events;
pub mod generic;
pub mod html;
pub mod instance;
pub mod traits;
pub mod version;

pub mod ci;
pub mod cm;
pub mod cms;
pub mod cp;
pub mod nb;

pub use catalog::{
    AppId, AppInfo, AttackVector, Category, DefaultPosture, Warning, CATALOG, SCAN_PORTS,
};
pub use config::AppConfig;
pub use events::{AppEvent, HandleOutcome};
pub use instance::{build_instance, secure_instance, vulnerable_instance};
pub use traits::{Driver, WebApp};
pub use version::{release_history, version_at, ReleaseDate, Version};
