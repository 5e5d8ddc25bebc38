//! `nokeys` — reproduction of *No Keys to the Kingdom Required:
//! A Comprehensive Investigation of Missing Authentication
//! Vulnerabilities in the Wild* (IMC 2022).
//!
//! This facade crate re-exports the workspace members and hosts the
//! experiment-regeneration harness used by the `repro` binary, the
//! examples and the integration tests.

#![forbid(unsafe_code)]

pub use nokeys_analysis as analysis;
pub use nokeys_apps as apps;
pub use nokeys_attack as attack;
pub use nokeys_defend as defend;
pub use nokeys_honeypot as honeypot;
pub use nokeys_http as http;
pub use nokeys_netsim as netsim;
pub use nokeys_scanner as scanner;

pub mod repro;
