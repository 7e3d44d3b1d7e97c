//! The single registry of every artifact the pipeline can produce: the
//! 22 paper experiments and the 3 extensions, each with its stable id,
//! its runner, and its HTTP route.
//!
//! This is the one place figure naming lives. `vzla-report` assembles
//! its battery from it, `lacnet-serve` routes requests through it, the
//! golden suite derives its expected fixture set from it — so an
//! endpoint cannot exist in one surface and silently miss the others.

use crate::artifact::ExperimentResult;
use crate::source::DataSource;
use crate::{experiments, extensions};
use lacnet_mlab::{ColumnSet, MonthlyAggregator};

/// Which battery an endpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One of the paper's 22 figures/tables, in paper order.
    Paper,
    /// A beyond-the-paper extension analysis.
    Extension,
}

/// One runnable endpoint.
pub struct Endpoint {
    /// Stable artifact id — also the golden fixture stem (`fig11`,
    /// `tab01`, `ext-blackouts`).
    pub id: &'static str,
    /// Paper battery or extension.
    pub kind: Kind,
    /// The experiment, a pure function of its [`DataSource`].
    pub run: fn(&DataSource) -> ExperimentResult,
    /// Which `.ndtc` columns the runner's NDT consumption needs. Most
    /// endpoints never touch the M-Lab substrate and declare
    /// [`ColumnSet::NONE`]; an archive load decodes only the union of
    /// these declarations (plus the resident aggregate's own needs), so
    /// adding an NDT-hungry endpoint here is what widens the decode.
    pub ndt_columns: ColumnSet,
}

impl Endpoint {
    /// The HTTP route `lacnet-serve` exposes this endpoint under:
    /// `fig11` → `/fig/11`, `tab01` → `/tab01`,
    /// `ext-blackouts` → `/ext/blackouts`.
    pub fn http_path(&self) -> String {
        if let Some(n) = self.id.strip_prefix("fig") {
            format!("/fig/{n}")
        } else if let Some(name) = self.id.strip_prefix("ext-") {
            format!("/ext/{name}")
        } else {
            format!("/{}", self.id)
        }
    }
}

/// The single-month NDT query route `lacnet-serve` exposes alongside the
/// registry endpoints: one `(country, month)` query with selective
/// column decode on columnar archives.
pub const NDT_MONTH_ROUTE: &str = "/ndt/{CC}/{YYYY-MM}";

/// The NDT range-query route: an inclusive month window read off the
/// country's container in one read and folded in month order. Served by
/// the same `/ndt/` prefix — a path with no month segment selects the
/// range form.
pub const NDT_RANGE_ROUTE: &str = "/ndt/{CC}?from=YYYY-MM&to=YYYY-MM";

/// Every endpoint, paper battery first (in paper order — `tab01` sits
/// between figs 12 and 13, as in the study), then the extensions.
pub const ENDPOINTS: [Endpoint; 25] = [
    Endpoint {
        id: "fig01",
        kind: Kind::Paper,
        run: experiments::fig01_macro::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig02",
        kind: Kind::Paper,
        run: experiments::fig02_address_space::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig03",
        kind: Kind::Paper,
        run: experiments::fig03_facilities::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig04",
        kind: Kind::Paper,
        run: experiments::fig04_cables::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig05",
        kind: Kind::Paper,
        run: experiments::fig05_ipv6::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig06",
        kind: Kind::Paper,
        run: experiments::fig06_roots::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig07",
        kind: Kind::Paper,
        run: experiments::fig07_offnets::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig08",
        kind: Kind::Paper,
        run: experiments::fig08_cantv_degree::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig09",
        kind: Kind::Paper,
        run: experiments::fig09_transit_heatmap::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig10",
        kind: Kind::Paper,
        run: experiments::fig10_ixp_matrix::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig11",
        kind: Kind::Paper,
        run: experiments::fig11_bandwidth::run,
        ndt_columns: MonthlyAggregator::REQUIRED_COLUMNS,
    },
    Endpoint {
        id: "fig12",
        kind: Kind::Paper,
        run: experiments::fig12_gpdns_rtt::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "tab01",
        kind: Kind::Paper,
        run: experiments::tab01_isps::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig13",
        kind: Kind::Paper,
        run: experiments::fig13_gdp_ranks::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig14",
        kind: Kind::Paper,
        run: experiments::fig14_prefix_heatmap::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig15",
        kind: Kind::Paper,
        run: experiments::fig15_ve_facilities::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig16",
        kind: Kind::Paper,
        run: experiments::fig16_root_origins::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig17",
        kind: Kind::Paper,
        run: experiments::fig17_probe_coverage::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig18",
        kind: Kind::Paper,
        run: experiments::fig18_all_hypergiants::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig19",
        kind: Kind::Paper,
        run: experiments::fig19_third_party::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig20",
        kind: Kind::Paper,
        run: experiments::fig20_probe_map::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "fig21",
        kind: Kind::Paper,
        run: experiments::fig21_us_ixps::run,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "ext-blackouts",
        kind: Kind::Extension,
        run: extensions::ext_blackouts,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "ext-inference",
        kind: Kind::Extension,
        run: extensions::ext_inference,
        ndt_columns: ColumnSet::NONE,
    },
    Endpoint {
        id: "ext-network-split",
        kind: Kind::Extension,
        run: extensions::ext_network_split,
        ndt_columns: ColumnSet::NONE,
    },
];

/// The runners of the paper battery, in paper order.
pub fn paper_battery() -> Vec<fn(&DataSource) -> ExperimentResult> {
    ENDPOINTS
        .iter()
        .filter(|e| e.kind == Kind::Paper)
        .map(|e| e.run)
        .collect()
}

/// The runners of the extension battery, in registry order.
pub fn extension_battery() -> Vec<fn(&DataSource) -> ExperimentResult> {
    ENDPOINTS
        .iter()
        .filter(|e| e.kind == Kind::Extension)
        .map(|e| e.run)
        .collect()
}

/// The union of every registered endpoint's declared NDT column needs,
/// plus what the resident [`MonthlyAggregator`] itself reads — the
/// [`ColumnSelection`](lacnet_mlab::ColumnSelection) an archive load
/// must decode. Today that is exactly [`ColumnSet::AGGREGATE`]; an
/// endpoint declaring, say, loss-rate needs would widen it here and
/// nowhere else.
pub fn ndt_column_union() -> ColumnSet {
    ENDPOINTS
        .iter()
        .fold(MonthlyAggregator::REQUIRED_COLUMNS, |set, e| {
            set.union(e.ndt_columns)
        })
}

/// The endpoint with artifact id `id`.
pub fn find(id: &str) -> Option<&'static Endpoint> {
    ENDPOINTS.iter().find(|e| e.id == id)
}

/// The endpoint served under HTTP route `path`.
pub fn find_by_path(path: &str) -> Option<&'static Endpoint> {
    ENDPOINTS.iter().find(|e| e.http_path() == path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_and_routes_are_unique_and_round_trip() {
        let ids: BTreeSet<&str> = ENDPOINTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), ENDPOINTS.len(), "duplicate artifact id");
        let paths: BTreeSet<String> = ENDPOINTS.iter().map(|e| e.http_path()).collect();
        assert_eq!(paths.len(), ENDPOINTS.len(), "duplicate HTTP route");
        for e in &ENDPOINTS {
            assert_eq!(find(e.id).unwrap().id, e.id);
            assert_eq!(find_by_path(&e.http_path()).unwrap().id, e.id);
        }
        assert_eq!(find_by_path("/fig/11").unwrap().id, "fig11");
        assert_eq!(find_by_path("/tab01").unwrap().id, "tab01");
        assert_eq!(find_by_path("/ext/blackouts").unwrap().id, "ext-blackouts");
        assert!(find_by_path("/fig/99").is_none());
    }

    #[test]
    fn battery_split_covers_everything() {
        assert_eq!(paper_battery().len(), 22);
        assert_eq!(extension_battery().len(), 3);
        // Every endpoint id is reachable through exactly one battery.
        assert_eq!(ENDPOINTS.len(), 25);
    }

    #[test]
    fn ndt_column_union_covers_the_aggregate_and_nothing_more_today() {
        assert_eq!(ndt_column_union(), ColumnSet::AGGREGATE);
        assert_eq!(find("fig11").unwrap().ndt_columns, ColumnSet::AGGREGATE);
        // Only the bandwidth figure consumes the NDT substrate directly.
        for e in ENDPOINTS.iter().filter(|e| e.id != "fig11") {
            assert_eq!(e.ndt_columns, ColumnSet::NONE, "{}", e.id);
        }
    }

    #[test]
    fn endpoint_ids_match_what_the_runners_produce() {
        // The registry id must be the id the experiment stamps on its
        // result — the property that keeps URLs, fixtures and artifact
        // ids in lockstep.
        let src = crate::experiments::testworld::source();
        for e in &ENDPOINTS {
            assert_eq!(
                (e.run)(src).id,
                e.id,
                "registry id diverges from artifact id"
            );
        }
    }
}
