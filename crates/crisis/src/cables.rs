//! The region's submarine-cable build-out (Fig. 4).
//!
//! A curated cable table shaped on the public record: 13 systems serving
//! the LACNIC region by the end of 2000, 54 by early 2024. The Venezuelan
//! story is exact — four systems reached its shores before 2001, and the
//! *only* addition since is ALBA-1 to Cuba (2011). Per-country counts
//! match the paper's quoted trajectories: Brazil 5→17, Colombia 5→13,
//! Chile 2→9, Argentina 3→9; Nicaragua and Haiti never expand; Honduras,
//! Aruba and Belize add exactly one.

use lacnet_telegeo::{Cable, CableMap, LandingPoint};
use lacnet_types::{country, CountryCode, Date, GeoPoint};

/// `(name, rfs year, rfs month, landing countries, length km)`.
type Row = (&'static str, i32, u8, &'static [&'static str], f64);

/// The cable table. RFS dates before 2001 form the paper's "13 cables by
/// 2000" baseline; the rest are the post-2000 wave Venezuela missed.
const CABLES: &[Row] = &[
    // ——— In service by end-2000 (13 systems) ———
    (
        "PAN-AM",
        1999,
        1,
        &["VE", "CO", "EC", "PE", "CL", "PA", "AW"],
        7_225.0,
    ),
    (
        "Americas-II",
        2000,
        8,
        &["VE", "BR", "TT", "GF", "CW"],
        8_373.0,
    ),
    ("GlobeNet", 2000, 11, &["VE", "BR", "CO"], 23_500.0),
    ("CANTV Festoon", 1998, 5, &["VE", "CW"], 1_300.0),
    (
        "South American Crossing (SAC)",
        2000,
        9,
        &["BR", "AR", "CL", "PE", "CO", "PA"],
        20_000.0,
    ),
    ("Atlantis-2", 2000, 2, &["BR", "AR"], 8_500.0),
    ("UNISUR", 1995, 3, &["BR", "UY", "AR"], 1_715.0),
    ("Columbus-II", 1994, 6, &["MX"], 12_200.0),
    ("Maya-1", 2000, 10, &["MX", "HN", "CR", "PA", "CO"], 4_400.0),
    (
        "ARCOS",
        2000,
        12,
        &["MX", "BZ", "HN", "GT", "NI", "CR", "PA", "CO", "DO"],
        8_600.0,
    ),
    ("TCS-1", 1995, 1, &["TT"], 320.0),
    ("ECFS", 1995, 9, &["TT"], 1_730.0),
    ("Antillas-1", 1997, 4, &["DO", "HT"], 650.0),
    // ——— The post-2000 wave (41 systems; VE only in ALBA-1) ———
    (
        "SAm-1",
        2001,
        3,
        &["BR", "AR", "CL", "PE", "EC", "GT"],
        25_000.0,
    ),
    ("ALBA-1", 2011, 2, &["VE", "CU"], 1_860.0),
    ("Fibralink", 2006, 8, &["DO"], 1_100.0),
    ("East-West", 2008, 6, &["TT", "GY", "SR"], 1_700.0),
    ("AMX-1", 2014, 2, &["BR", "CO", "MX", "GT", "DO"], 17_800.0),
    ("PCCS", 2015, 9, &["EC", "PA", "CO", "AW", "CW"], 6_000.0),
    ("Monet", 2017, 12, &["BR"], 10_556.0),
    ("Seabras-1", 2017, 9, &["BR"], 10_800.0),
    ("Tannat", 2018, 7, &["BR", "UY"], 2_000.0),
    ("Junior", 2018, 10, &["BR"], 390.0),
    ("EllaLink", 2021, 6, &["BR"], 9_200.0),
    ("BRUSA", 2018, 9, &["BR"], 11_000.0),
    ("Mistral", 2021, 5, &["CL", "PE", "EC", "GT"], 7_300.0),
    ("Curie", 2020, 4, &["CL", "PA"], 10_500.0),
    ("Prat", 2016, 1, &["CL"], 3_500.0),
    ("FOS Quellon-Chacabuco", 2019, 3, &["CL"], 2_800.0),
    (
        "Asia-South America Digital Gateway",
        2024,
        1,
        &["CL"],
        14_800.0,
    ),
    ("ARBR", 2020, 7, &["AR", "BR"], 2_600.0),
    ("Malbec", 2021, 4, &["AR", "BR"], 2_600.0),
    ("Firmina", 2023, 11, &["BR", "AR", "UY"], 14_500.0),
    ("IBIS-2", 2019, 5, &["BR"], 300.0),
    ("CFX-1", 2008, 9, &["CO"], 2_400.0),
    ("San Andres", 2010, 5, &["CO"], 800.0),
    ("Deep Blue One", 2020, 12, &["CO", "TT"], 2_000.0),
    ("AURORA", 2023, 7, &["CO", "PA"], 2_300.0),
    ("Caribbean Express", 2024, 1, &["PA", "CO", "MX"], 3_500.0),
    ("SPAN", 2015, 4, &["CO", "PA"], 1_200.0),
    ("Pacific Fiber", 2013, 6, &["CL", "PE", "EC"], 4_200.0),
    ("Tannat Extension", 2020, 10, &["AR", "UY"], 400.0),
    ("Atlantis-3", 2018, 3, &["AR", "UY"], 900.0),
    ("Honduras Express", 2009, 7, &["HN"], 450.0),
    ("Belize-1", 2012, 4, &["BZ"], 300.0),
    ("Gulf of California", 2008, 2, &["MX"], 700.0),
    ("Lazaro Cardenas", 2012, 11, &["MX"], 1_100.0),
    ("PAC", 2021, 8, &["PA", "CR"], 900.0),
    ("Antillas-2", 2014, 6, &["DO"], 700.0),
    ("Taino-Carib-2", 2016, 2, &["DO"], 500.0),
    ("CR-1", 2017, 5, &["CR"], 600.0),
    ("Lurin", 2018, 8, &["PE", "EC"], 1_300.0),
    ("GT Pacific", 2015, 11, &["GT", "SV"], 800.0),
    ("SV Conexion", 2019, 9, &["SV", "CR"], 700.0),
];

/// Build the region's cable map, applying scenario failure events: each
/// [`CableFailure`](crate::scenario::CableFailure) whose name matches a
/// system marks it out of service from that day. An empty slice is the
/// pure historical record.
pub fn build_cable_map_with(failures: &[crate::scenario::CableFailure]) -> CableMap {
    let mut map = CableMap::new();
    for &(name, y, m, ccs, length) in CABLES {
        let mut landings: Vec<LandingPoint> = ccs
            .iter()
            .map(|cc| {
                let code = CountryCode::of(cc);
                let (city, loc) = coastal_landing(code);
                LandingPoint {
                    city: city.into(),
                    country: code,
                    location: loc,
                }
            })
            .collect();
        // Domestic festoons (one country) still have two landing
        // stations; synthesise the second a little up the coast.
        if landings.len() == 1 {
            let first = landings[0].clone();
            landings.push(LandingPoint {
                city: format!("{} Norte", first.city),
                country: first.country,
                location: GeoPoint::new(
                    first.location.lat_deg() + 1.5,
                    first.location.lon_deg() + 0.5,
                ),
            });
        }
        map.add(Cable {
            name: name.into(),
            rfs: Date::ymd(y, m, 15),
            landings,
            length_km: length,
            failure: failures.iter().find(|f| f.cable == name).map(|f| f.failure),
        })
        .expect("static cable table is valid");
    }
    map
}

/// A representative landing station per country (coastal cities where the
/// capital is inland).
fn coastal_landing(cc: CountryCode) -> (&'static str, GeoPoint) {
    match cc.as_str() {
        "VE" => ("Camuri", GeoPoint::new(10.61, -66.84)),
        "BR" => ("Fortaleza", GeoPoint::new(-3.73, -38.52)),
        "AR" => ("Las Toninas", GeoPoint::new(-36.49, -56.70)),
        "CL" => ("Valparaiso", GeoPoint::new(-33.05, -71.62)),
        "CO" => ("Barranquilla", GeoPoint::new(10.96, -74.80)),
        "MX" => ("Cancun", GeoPoint::new(21.16, -86.85)),
        "PE" => ("Lurin", GeoPoint::new(-12.28, -76.87)),
        "EC" => ("Punta Carnero", GeoPoint::new(-2.25, -80.92)),
        "PA" => ("Colon", GeoPoint::new(9.36, -79.90)),
        "CR" => ("Limon", GeoPoint::new(9.99, -83.03)),
        "GT" => ("Puerto Barrios", GeoPoint::new(15.73, -88.60)),
        "UY" => ("Maldonado", GeoPoint::new(-34.91, -54.96)),
        "CU" => ("Siboney", GeoPoint::new(19.96, -75.70)),
        _ => {
            // Fall back to the capital from the registry.
            let info = country::info(cc).expect("cable lands in a known country");
            (info.capital, info.location)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::MonthStamp;

    #[test]
    fn region_counts_match_fig4() {
        let map = build_cable_map_with(&[]);
        let region: Vec<CountryCode> = country::lacnic_codes().collect();
        let s = map.region_series(&region, MonthStamp::new(2000, 12), MonthStamp::new(2024, 2));
        assert_eq!(
            s.get(MonthStamp::new(2000, 12)),
            Some(13.0),
            "13 cables by 2000"
        );
        assert_eq!(
            s.get(MonthStamp::new(2024, 2)),
            Some(54.0),
            "54 cables by 2024"
        );
    }

    #[test]
    fn venezuela_only_added_alba() {
        let map = build_cable_map_with(&[]);
        let added = map.added_between(country::VE, Date::ymd(2001, 1, 1), Date::ymd(2024, 2, 28));
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].name, "ALBA-1");
        assert!(added[0].lands_in(country::CU), "ALBA connects to Cuba");
        // 4 systems pre-2001, 5 total after ALBA.
        assert_eq!(map.serving(country::VE, Date::ymd(2000, 12, 31)).len(), 4);
        assert_eq!(map.serving(country::VE, Date::ymd(2024, 1, 1)).len(), 5);
    }

    #[test]
    fn quoted_country_trajectories() {
        let map = build_cable_map_with(&[]);
        let count = |cc, y: i32| map.serving(cc, Date::ymd(y, 12, 31)).len();
        assert_eq!(count(country::BR, 2000), 5);
        assert_eq!(count(country::BR, 2023), 17);
        assert_eq!(count(country::CO, 2000), 5);
        assert_eq!(count(country::CO, 2023), 12); // 13 with Caribbean Express (2024-01)
        assert_eq!(map.serving(country::CO, Date::ymd(2024, 2, 1)).len(), 13);
        assert_eq!(count(country::CL, 2000), 2);
        assert_eq!(map.serving(country::CL, Date::ymd(2024, 2, 1)).len(), 9);
        assert_eq!(count(country::AR, 2000), 3);
        assert_eq!(count(country::AR, 2023), 9);
    }

    #[test]
    fn stagnant_countries() {
        let map = build_cable_map_with(&[]);
        let ni = CountryCode::of("NI");
        let ht = CountryCode::of("HT");
        for cc in [ni, ht] {
            assert_eq!(
                map.serving(cc, Date::ymd(2000, 12, 31)).len(),
                map.serving(cc, Date::ymd(2024, 2, 1)).len(),
                "{cc} must not expand"
            );
        }
        // Honduras, Aruba and Belize add exactly one.
        for cc in ["HN", "AW", "BZ"] {
            let cc = CountryCode::of(cc);
            let added = map.added_between(cc, Date::ymd(2001, 1, 1), Date::ymd(2024, 2, 28));
            assert_eq!(added.len(), 1, "{cc} adds exactly one cable");
        }
    }

    #[test]
    fn all_landings_are_in_the_region() {
        let map = build_cable_map_with(&[]);
        for cable in map.cables() {
            assert!(cable.landings.len() >= 2, "{}", cable.name);
            for l in &cable.landings {
                assert!(
                    country::in_lacnic(l.country),
                    "{} lands outside region",
                    cable.name
                );
            }
        }
    }

    #[test]
    fn map_roundtrips_through_json() {
        let map = build_cable_map_with(&[]);
        let back = CableMap::from_json(&map.to_json()).unwrap();
        assert_eq!(back.len(), map.len());
    }
}
