//! A std-only benchmark of the response-classification core: the matcher,
//! the scratch arenas, the signature set, the knowledge base and the block
//! planner, compiled from the repository's own files. See README.md.

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod corpus;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod program;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
