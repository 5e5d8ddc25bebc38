//! The repository's own `crates/http` sources, compiled in place.

#[path = "../../../crates/http/src/ip.rs"]
pub mod ip;
