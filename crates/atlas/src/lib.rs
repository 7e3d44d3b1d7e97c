//! # lacnet-atlas
//!
//! A RIPE-Atlas-shaped measurement substrate: a probe registry, an anycast
//! catchment model, per-root-letter CHAOS TXT naming grammars, and the two
//! built-in campaigns the study consumes:
//!
//! * **CHAOS TXT to all 13 root letters** (§3.1, §5.4, Appendices E/F):
//!   every 30 minutes on the real platform; here, monthly snapshots that
//!   decode instance identifiers to airport codes and countries, yielding
//!   the root-replica counts of Fig. 6, the origin heatmap of Fig. 16 and
//!   the probe-coverage series of Fig. 17.
//! * **Traceroutes to Google Public DNS** (MSM 1591146; §3.3, §7.2,
//!   Appendix J): monthly min-RTT per probe over a geographic latency
//!   model, yielding the country-median RTT series of Fig. 12 and the
//!   probe map of Fig. 20.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anycast;
pub mod campaign;
pub mod chaos;
pub mod gpdns;
pub mod outages;
pub mod probes;
mod proptests;
pub mod roots;
pub mod traceroute;

pub use anycast::{AnycastFleet, AnycastSite, SiteScope};
pub use campaign::{ChaosCampaign, ChaosObservation};
pub use chaos::{decode, encode, SiteRef};
pub use gpdns::{GpdnsCampaign, GpdnsSite, LatencyModel, RttBucket, RttObservation};
pub use outages::{DetectorConfig, OutageEvent, ReachabilitySeries};
pub use probes::{Probe, ProbeId, ProbeRegistry};
pub use roots::{RootDeployment, RootInstance, RootLetter};
pub use traceroute::{Hop, Traceroute};
