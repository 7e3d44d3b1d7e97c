//! # lacnet-types
//!
//! Foundational types shared by every crate in the `lacnet` workspace:
//!
//! * [`Asn`] — autonomous system numbers, plus the well-known ASNs that the
//!   SIGCOMM 2024 Venezuelan-crisis study keys its analysis on.
//! * [`CountryCode`] and the [`country`] registry — ISO 3166-1 alpha-2 codes
//!   with metadata for every economy in the LACNIC service region.
//! * [`Date`] / [`MonthStamp`] — proleptic-Gregorian civil dates and a
//!   compact month index used for every longitudinal series in the study.
//! * [`Ipv4Net`] and [`PrefixTrie`] — CIDR arithmetic and longest-prefix
//!   matching for prefix-to-AS joins.
//! * [`GeoPoint`] — great-circle geometry for the anycast/RTT models.
//! * [`TimeSeries`] — the month-indexed series container all figures use.
//! * [`stats`] — exact and streaming (P²) quantiles, log-normal sampling.
//! * [`rng`] — self-contained deterministic PRNGs (SplitMix64,
//!   xoshiro256**) so generated worlds are bit-stable across dependency
//!   upgrades.
//! * [`json`] — dependency-free JSON: a borrowed pull parser the
//!   JSON-shaped dataset formats (PeeringDB dumps, cable maps, …) decode
//!   from, and a value tree they write through.
//! * [`toml`] — a strict TOML-subset parser producing the same [`json`]
//!   value tree, for the hand-edited scenario sidecars.
//! * [`codec`] — varints, zigzag, fixed-width little-endian floats,
//!   CRC-32 and FNV-1a for the binary columnar shard container and the
//!   incremental-refresh manifest.
//! * [`lru`] — a bounded least-recently-used cache with single-flight
//!   computation, the `lacnet-serve` response cache.
//! * [`http`] — a dependency-free HTTP/1.1 request parser (typed
//!   400/413/414/431 errors, hard resource limits) and response writer.
//! * [`sweep`] — deterministic parallel sweeps over month ranges and
//!   independent build tasks on `std::thread::scope` workers.
//!
//! Everything here is self-contained std: no sockets, no clocks, no
//! global state ([`http`] parses from any `BufRead`; the substrate stays
//! pure data). Higher crates layer dataset formats, simulators and the
//! serving layer on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod codec;
pub mod country;
pub mod date;
pub mod error;
pub mod geo;
pub mod http;
pub mod json;
pub mod lru;
pub mod net;
pub mod rng;
pub mod series;
pub mod stats;
pub mod sweep;
pub mod toml;
pub mod trie;

pub use asn::Asn;
pub use country::CountryCode;
pub use date::{Date, MonthStamp};
pub use error::{Error, Result};
pub use geo::GeoPoint;
pub use net::Ipv4Net;
pub use series::TimeSeries;
pub use trie::PrefixTrie;
