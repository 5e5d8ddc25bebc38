//! The repository's own `crates/apps` sources, compiled in place.

#[path = "../../../crates/apps/src/assets.rs"]
pub mod assets;
#[path = "../../../crates/apps/src/catalog.rs"]
pub mod catalog;
#[path = "../../../crates/apps/src/html.rs"]
pub mod html;
#[path = "../../../crates/apps/src/version.rs"]
pub mod version;

// The re-exports `crates/core` relies on, as in `crates/apps/src/lib.rs`.
pub use catalog::AppId;
pub use version::{release_history, Version};
