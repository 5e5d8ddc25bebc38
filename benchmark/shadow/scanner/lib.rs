//! The repository's own `crates/core` sources, compiled in place.

// `Scratch::crawl_buf` serves the crawler, which needs the HTTP client and
// is not bound.
#![allow(dead_code)]

#[path = "../../../crates/core/src/htmlcheck.rs"]
pub mod htmlcheck;
#[path = "../../../crates/core/src/multipattern.rs"]
pub mod multipattern;
#[path = "../../../crates/core/src/pattern.rs"]
pub mod pattern;
#[path = "../../../crates/core/src/scratch.rs"]
pub mod scratch;
#[path = "../../../crates/core/src/signatures.rs"]
pub mod signatures;

pub mod fingerprint;
