//! # lacnet-webmeas
//!
//! Third-party dependency measurement in the style of Kumar et al.
//! (SIGMETRICS'23), which Appendix H applies to Venezuela: scrape each
//! country's top sites from a local vantage point, identify the serving
//! infrastructure of every page, and compute the share of sites using
//! (1) HTTPS, (2) third-party DNS, (3) third-party CAs, (4) third-party
//! CDNs. Only sites *unique* to one country's top list are counted, so
//! the metric reflects local hosting practice rather than the global
//! giants every list shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scrape;
pub mod thirdparty;

pub use scrape::{CountryTopSites, SiteObservation};
pub use thirdparty::{AdoptionReport, ServiceKind};
