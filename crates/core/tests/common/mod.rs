//! Helpers shared by this crate's test binaries.

pub mod alloc;
