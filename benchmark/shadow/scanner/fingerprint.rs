//! `crates/core/src/fingerprint/mod.rs` needs the HTTP client; only the
//! knowledge base is bound.

#[path = "../../../crates/core/src/fingerprint/knowledge_base.rs"]
pub mod knowledge_base;
