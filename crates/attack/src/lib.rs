//! Simulated attacker ecosystem for the honeypot study (Section 4).
//!
//! The paper observed 2,195 attacks from 160 IP addresses against 7 of
//! the 18 honeypots over four weeks. This crate models that ecosystem:
//!
//! * a [`payloads`] library (Kinsing-style campaign, Monero miner with
//!   cron persistence and competitor killing, vigilante shutdowns,
//!   generic downloaders),
//! * an [`actor`] model — attackers with IP pools, target applications
//!   and payload repertoires,
//! * [`script`]s — the HTTP request sequences an attack performs against
//!   each application's abuse surface, and
//! * a calibrated [`plan`] — the full four-week attack schedule whose
//!   per-application totals, payload diversity, IP diversity and timing
//!   reproduce Tables 5–8 and Figures 3–4.

#![forbid(unsafe_code)]

pub mod actor;
pub mod payloads;
pub mod plan;
pub mod script;

pub use actor::{Attacker, AttackerId};
pub use payloads::{Payload, PayloadKind};
pub use plan::{study_plan, PlannedAttack, StudyPlan};
pub use script::attack_script;
