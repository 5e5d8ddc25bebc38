//! Analysis: regenerates every table and figure of the paper from the
//! simulation's scan reports, longevity studies, honeypot results and
//! defender scans.
//!
//! Each `tableN`/`figN` module produces a typed result plus an ASCII
//! rendering that shows the measured values side by side with the
//! paper's published numbers, so `EXPERIMENTS.md` can record both.

#![forbid(unsafe_code)]

pub mod case_studies;
pub mod ct_compare;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod longevity_stats;
pub mod race_table;
pub mod render;
pub mod restores;
pub mod rq2;
pub mod scan_model;
pub mod stats;
pub mod table1;
pub mod table10;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;

pub use render::Table;
