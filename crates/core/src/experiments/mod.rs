//! One module per paper artifact. [`all`] runs the full battery.

use crate::artifact::ExperimentResult;
use crate::source::DataSource;

pub mod fig01_macro;
pub mod fig02_address_space;
pub mod fig03_facilities;
pub mod fig04_cables;
pub mod fig05_ipv6;
pub mod fig06_roots;
pub mod fig07_offnets;
pub mod fig08_cantv_degree;
pub mod fig09_transit_heatmap;
pub mod fig10_ixp_matrix;
pub mod fig11_bandwidth;
pub mod fig12_gpdns_rtt;
pub mod fig13_gdp_ranks;
pub mod fig14_prefix_heatmap;
pub mod fig15_ve_facilities;
pub mod fig16_root_origins;
pub mod fig17_probe_coverage;
pub mod fig18_all_hypergiants;
pub mod fig19_third_party;
pub mod fig20_probe_map;
pub mod fig21_us_ixps;
pub mod tab01_isps;

/// Shared helpers for the experiment modules.
pub(crate) mod common {
    use crate::artifact::Line;
    use lacnet_types::{country, CountryCode, TimeSeries};
    use std::collections::BTreeMap;

    /// The comparable peers highlighted in vivid colours in most figures.
    pub fn peers() -> Vec<CountryCode> {
        country::COMPARABLE_PEERS.to_vec()
    }

    /// Build one line per country from a map of series, peers first.
    pub fn country_lines(series: &BTreeMap<CountryCode, TimeSeries>) -> Vec<Line> {
        let peers = peers();
        let mut lines: Vec<Line> = Vec::new();
        for &cc in &peers {
            if let Some(s) = series.get(&cc) {
                lines.push(Line::new(cc.as_str(), s.clone()));
            }
        }
        if let Some(s) = series.get(&country::VE) {
            lines.push(Line::new("VE", s.clone()));
        }
        for (cc, s) in series {
            if *cc != country::VE && !peers.contains(cc) {
                lines.push(Line::new(cc.as_str(), s.clone()));
            }
        }
        lines
    }
}

/// Run every experiment in paper order, distributing the battery across
/// worker threads. The battery itself lives in [`crate::registry`] — the
/// one list `vzla-report`, `lacnet-serve` and the golden suite all
/// consume. The result is identical — byte for byte once rendered — to
/// [`all_serial`]; `tests/parallel_equivalence.rs` holds that invariant.
pub fn all(source: &DataSource) -> Vec<ExperimentResult> {
    lacnet_types::sweep::parallel_map(&crate::registry::paper_battery(), |run| run(source))
}

/// Run every experiment in paper order on the calling thread — the
/// reference implementation the parallel battery is checked against.
pub fn all_serial(source: &DataSource) -> Vec<ExperimentResult> {
    crate::registry::paper_battery()
        .into_iter()
        .map(|run| run(source))
        .collect()
}

/// Shared lazily-generated world for the experiment test modules — world
/// generation takes seconds, so the test binary builds it once.
#[cfg(test)]
pub(crate) mod testworld {
    use crate::source::DataSource;
    use lacnet_crisis::{World, WorldConfig};
    use std::sync::{Arc, OnceLock};

    static WORLD: OnceLock<World> = OnceLock::new();
    static SOURCE: OnceLock<Arc<DataSource>> = OnceLock::new();

    /// The shared test world, for the tests that dump or inspect a
    /// [`World`] itself.
    pub fn world() -> &'static World {
        WORLD.get_or_init(|| World::generate(WorldConfig::test()))
    }

    /// The in-memory [`DataSource`] the experiment tests run against: the
    /// same test world, generated on its own and moved in.
    pub fn source() -> &'static Arc<DataSource> {
        SOURCE.get_or_init(|| Arc::new(DataSource::from(World::generate(WorldConfig::test()))))
    }
}
