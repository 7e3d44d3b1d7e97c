//! # lacnet-core
//!
//! The paper, as a library: one experiment module per figure and table of
//! *"Ten years of the Venezuelan crisis — An Internet perspective"*
//! (SIGCOMM 2024). Each experiment consumes the datasets of a generated
//! (or real) world through the substrate crates and emits
//! [`artifact::Artifact`]s — figure series, tables, heatmaps — plus
//! [`artifact::Finding`]s that compare the paper's quoted numbers with
//! the measured ones (the content of EXPERIMENTS.md).
//!
//! The `vzla-report` binary runs the whole battery:
//!
//! ```text
//! cargo run -p lacnet-core --bin vzla-report --release
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod artifact;
pub mod datasets;
pub mod experiments;
pub mod extensions;
pub mod markdown;
mod proptests;
pub mod registry;
pub mod render;
pub mod serve;
pub mod source;

pub use artifact::{Artifact, ExperimentResult, Figure, Finding, Heatmap, Line, Panel, Table};
pub use datasets::{DumpOptions, DumpSummary};
pub use source::{ArchiveWorld, DataSource};
