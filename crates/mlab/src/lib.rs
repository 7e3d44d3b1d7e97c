//! # lacnet-mlab
//!
//! An M-Lab NDT-shaped throughput substrate: test records, a crowdsourced
//! test generator, and the streaming month-country aggregation that turns
//! hundreds of millions of rows into the median download-speed series of
//! Fig. 11 (≈447M tests across 28 LACNIC countries in the real archive).
//!
//! The aggregator offers both an exact (sort-based) and a P² streaming
//! median per group; the `lacnet-bench` ablation compares them.
//!
//! Archives store NDT rows in one on-disk encoding, the [`columnar`]
//! `.ndtc` container, whose cold load is bounded by disk bandwidth
//! instead of per-row text parsing. [`ndt`] holds the in-memory test
//! record; it has no text rendering of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod columnar;
pub mod multi;
pub mod ndt;
pub mod synth;

pub use aggregate::{GroupStats, MonthlyAggregator};
pub use columnar::{
    BlockEntry, BlockRun, BlockView, ColumnBatch, ColumnReader, ColumnSelection, ColumnSet,
    ColumnSlice, DecodeScratch, ReadStats, ShardFormat,
};
pub use multi::{Group, Metric, MultiAggregator};
pub use ndt::NdtTest;
pub use synth::SpeedSampler;
