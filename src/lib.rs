//! # lacnet — a country-level Internet measurement analysis toolkit
//!
//! This umbrella crate re-exports the full workspace that reproduces
//! *"Ten years of the Venezuelan crisis — An Internet perspective"*
//! (ACM SIGCOMM 2024):
//!
//! * [`types`] — dates, prefixes, countries, geo, stats, RNG;
//! * [`bgp`] — AS relationships, valley-free propagation, pfx2as;
//! * [`registry`] — LACNIC delegation files and exhaustion phases;
//! * [`peeringdb`] — facilities, IXPs, memberships;
//! * [`telegeo`] — the submarine cable map;
//! * [`atlas`] — probes, CHAOS TXT decoding, anycast, GPDNS RTT;
//! * [`mlab`] — NDT records and streaming month-country medians;
//! * [`offnets`] — hypergiant off-net detection, as2org+, populations;
//! * [`webmeas`] — third-party DNS/CA/CDN/HTTPS adoption;
//! * [`crisis`] — the generative world model standing in for the gated
//!   real datasets;
//! * [`core`] — one experiment per paper figure/table, plus rendering.
//!
//! ## Quickstart
//!
//! ```no_run
//! use lacnet::core::{experiments, render, DataSource};
//! use lacnet::crisis::{World, WorldConfig};
//!
//! // The generated world moves into the source the battery reads; a
//! // dumped archive loads with `DataSource::from_archive(dir)` instead.
//! let source = DataSource::from(World::generate(WorldConfig::default()));
//! for result in experiments::all(&source) {
//!     print!("{}", render::render_result(&result));
//! }
//! ```

#![forbid(unsafe_code)]

pub use lacnet_atlas as atlas;
pub use lacnet_bgp as bgp;
pub use lacnet_core as core;
pub use lacnet_crisis as crisis;
pub use lacnet_mlab as mlab;
pub use lacnet_offnets as offnets;
pub use lacnet_peeringdb as peeringdb;
pub use lacnet_registry as registry;
pub use lacnet_telegeo as telegeo;
pub use lacnet_types as types;
pub use lacnet_webmeas as webmeas;
