//! High-interaction honeypot framework (Section 4 of the paper).
//!
//! Eighteen vulnerable application instances are deployed behind the
//! in-memory HTTP transport, monitored by an audit layer (the analog of
//! Packetbeat + Auditbeat) that ships records to a central append-only
//! log. A resource monitor watches simulated CPU usage out-of-band and
//! restores snapshots after compromises, keeping trust-on-first-use
//! applications attackable.
//!
//! * [`logserver`] — central append-only audit log (the Elasticsearch
//!   analog),
//! * [`monitor`] — per-honeypot request/event capture,
//! * [`resource`] — CPU/persistence model + thresholds,
//! * [`deploy`] — honeypot fleet construction,
//! * [`detect`] — attack extraction with the 15-minute source-IP
//!   grouping,
//! * [`cluster`] — unique-attack and actor clustering by payload/IP,
//! * [`study`] — the four-week study driver.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod deploy;
pub mod detect;
pub mod logserver;
pub mod monitor;
pub mod resource;
pub mod study;

pub use cluster::{cluster_actors, unique_attacks, ActorCluster};
pub use deploy::{Fleet, Honeypot};
pub use detect::{detect_attacks, Attack};
pub use logserver::{AuditRecord, CentralLog};
pub use study::{run_study, StudyConfig, StudyResult};
