//! Deterministic simulated IPv4 Internet for the *No Keys to the Kingdom*
//! reproduction.
//!
//! The paper's substrate is the live IPv4 address space; this crate
//! provides the synthetic equivalent: a seeded population of hosts running
//! the application models from `nokeys-apps` plus realistic background
//! noise, reachable through an in-memory implementation of the
//! `nokeys-http` [`Transport`](nokeys_http::Transport) abstraction, with a
//! virtual clock driving host lifecycle (fixes, shutdowns, updates) for
//! the four-week longevity study.
//!
//! Everything is deterministic given `UniverseConfig::seed`.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod clock;
pub mod fault;
pub mod geo;
pub mod host;
pub mod ip;
pub mod killswitch;
pub mod lifecycle;
pub mod transport;
pub mod universe;
pub mod vhost;

pub use clock::{SimDuration, SimTime};
pub use fault::{FaultPlan, FaultyTransport};
pub use geo::{AsInfo, CountryCode, GeoDb, GeoRecord};
pub use host::{Host, SchemeSupport, Service, ServiceKind};
pub use ip::{Cidr, ReservedRanges};
pub use killswitch::{KillSwitch, KillableTransport};
pub use lifecycle::LifecyclePlan;
pub use nokeys_http::{rng, FaultLane};
pub use transport::SimTransport;
pub use universe::{Universe, UniverseConfig};
pub use vhost::{CtEntry, VhostState, VirtualHost};
