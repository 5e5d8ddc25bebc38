//! Models of the two commercial security scanners from the
//! defender-awareness study (Section 5, RQ7).
//!
//! The paper anonymizes the vendors; what matters for RQ7 is *coverage*:
//! Scanner 1 detects 5 of the 18 MAVs (Consul, Docker, Jupyter Notebook,
//! WordPress, Hadoop), Scanner 2 detects 3 (Consul, Docker, Jenkins) and
//! flags 4 more as informational (Joomla, phpMyAdmin, Kubernetes,
//! Hadoop). Both models run real HTTP checks against targets — only the
//! set of checks differs from the study's own pipeline.

#![forbid(unsafe_code)]

pub mod model;
pub mod race;

pub use model::{CommercialScanner, Severity, VendorFinding, SCANNER1, SCANNER2};
pub use race::{lost_races, race, RaceOutcome};
