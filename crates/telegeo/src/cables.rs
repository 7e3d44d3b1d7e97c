//! Cable registry, landing points, and RFS-timeline analytics.

use lacnet_types::json::{Json, ToJson};
use lacnet_types::{CountryCode, Date, Error, GeoPoint, MonthStamp, Result, TimeSeries};
use std::collections::BTreeSet;

/// A cable landing point.
#[derive(Debug, Clone, PartialEq)]
pub struct LandingPoint {
    /// City or locality of the landing station.
    pub city: String,
    /// Country of the landing station.
    pub country: CountryCode,
    /// Coordinates.
    pub location: GeoPoint,
}

/// A submarine cable system.
#[derive(Debug, Clone, PartialEq)]
pub struct Cable {
    /// System name, e.g. `"ALBA-1"`, `"South American Crossing (SAC)"`.
    pub name: String,
    /// Ready-for-service date.
    pub rfs: Date,
    /// Landing points (at least two).
    pub landings: Vec<LandingPoint>,
    /// Approximate length in kilometres.
    pub length_km: f64,
    /// Day the system went out of service, if it ever did — scenario
    /// cable-cut events set this; the historical record leaves it `None`.
    pub failure: Option<Date>,
}

impl Cable {
    /// Countries the cable touches (deduplicated).
    pub fn countries(&self) -> BTreeSet<CountryCode> {
        self.landings.iter().map(|l| l.country).collect()
    }

    /// Whether the cable lands in `country`.
    pub fn lands_in(&self, country: CountryCode) -> bool {
        self.landings.iter().any(|l| l.country == country)
    }

    /// Whether the cable was in service on `date`: at or past its RFS
    /// date and before its failure date, if any.
    pub fn in_service(&self, date: Date) -> bool {
        self.rfs <= date && self.failure.is_none_or(|f| date < f)
    }
}

/// The full cable map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CableMap {
    cables: Vec<Cable>,
}

impl CableMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a cable. Rejects cables with fewer than two landing points or a
    /// duplicate name.
    pub fn add(&mut self, cable: Cable) -> Result<()> {
        if cable.landings.len() < 2 {
            return Err(Error::invalid("cable needs at least two landing points"));
        }
        if self.cables.iter().any(|c| c.name == cable.name) {
            return Err(Error::invalid("duplicate cable name"));
        }
        self.cables.push(cable);
        Ok(())
    }

    /// All cables.
    pub fn cables(&self) -> &[Cable] {
        &self.cables
    }

    /// Number of cables registered.
    pub fn len(&self) -> usize {
        self.cables.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.cables.is_empty()
    }

    /// Cables in service on `date` that land in `country`.
    pub fn serving(&self, country: CountryCode, date: Date) -> Vec<&Cable> {
        self.cables
            .iter()
            .filter(|c| c.in_service(date) && c.lands_in(country))
            .collect()
    }

    /// Monthly count of in-service cables landing in `country` over
    /// `[start, end]` — one Fig. 4 line.
    pub fn count_series(
        &self,
        country: CountryCode,
        start: MonthStamp,
        end: MonthStamp,
    ) -> TimeSeries {
        start
            .through(end)
            .map(|m| (m, self.serving(country, m.last_day()).len() as f64))
            .collect()
    }

    /// Monthly count of in-service cables landing in *any* of the given
    /// countries (each cable counted once) — the Fig. 4 regional panel.
    pub fn region_series(
        &self,
        countries: &[CountryCode],
        start: MonthStamp,
        end: MonthStamp,
    ) -> TimeSeries {
        let set: BTreeSet<CountryCode> = countries.iter().copied().collect();
        start
            .through(end)
            .map(|m| {
                let date = m.last_day();
                let n = self
                    .cables
                    .iter()
                    .filter(|c| {
                        c.in_service(date) && c.countries().iter().any(|cc| set.contains(cc))
                    })
                    .count();
                (m, n as f64)
            })
            .collect()
    }

    /// Cables whose RFS date falls within `[start, end]` and that land in
    /// `country` — "cables added during the period".
    pub fn added_between(&self, country: CountryCode, start: Date, end: Date) -> Vec<&Cable> {
        self.cables
            .iter()
            .filter(|c| c.lands_in(country) && c.rfs >= start && c.rfs <= end)
            .collect()
    }

    /// JSON serialisation (the generated stand-in for Telegeography's
    /// licensed export).
    pub fn to_json(&self) -> String {
        lacnet_types::json::to_string(self)
    }

    /// Parse a JSON cable map.
    pub fn from_json(text: &str) -> Result<Self> {
        lacnet_types::json::from_str(text)
    }
}

lacnet_types::impl_json_struct!(LandingPoint {
    city,
    country,
    location
});
// Hand-written (not `impl_json_struct!`) so the `failure` member is
// omitted entirely when `None` — the overwhelmingly common case — and
// the serialised cable map stays byte-identical to the pre-scenario
// format for every cable without a failure date.
impl ToJson for Cable {
    fn to_json_value(&self) -> Json {
        let mut pairs = vec![
            ("name".to_owned(), self.name.to_json_value()),
            ("rfs".to_owned(), self.rfs.to_json_value()),
            ("landings".to_owned(), self.landings.to_json_value()),
            ("length_km".to_owned(), self.length_km.to_json_value()),
        ];
        if let Some(failure) = self.failure {
            pairs.push(("failure".to_owned(), failure.to_json_value()));
        }
        Json::Obj(pairs)
    }
}

lacnet_types::impl_json_struct!(FromJson for Cable {
    name,
    rfs,
    landings,
    length_km,
    failure
});
lacnet_types::impl_json_struct!(CableMap { cables });

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    fn lp(city: &str, cc: CountryCode, lat: f64, lon: f64) -> LandingPoint {
        LandingPoint {
            city: city.into(),
            country: cc,
            location: GeoPoint::new(lat, lon),
        }
    }

    fn toy_map() -> CableMap {
        let mut map = CableMap::new();
        map.add(Cable {
            name: "Americas-II".into(),
            rfs: Date::ymd(2000, 8, 15),
            landings: vec![
                lp("Camuri", country::VE, 10.6, -66.8),
                lp("Hollywood", country::US, 26.0, -80.1),
                lp("Fortaleza", country::BR, -3.7, -38.5),
            ],
            length_km: 8373.0,
            failure: None,
        })
        .unwrap();
        map.add(Cable {
            name: "ALBA-1".into(),
            rfs: Date::ymd(2011, 2, 9),
            landings: vec![
                lp("Camuri", country::VE, 10.6, -66.8),
                lp("Siboney", country::CU, 19.96, -75.7),
            ],
            length_km: 1860.0,
            failure: None,
        })
        .unwrap();
        map.add(Cable {
            name: "Monet".into(),
            rfs: Date::ymd(2017, 12, 1),
            landings: vec![
                lp("Boca Raton", country::US, 26.4, -80.1),
                lp("Fortaleza", country::BR, -3.7, -38.5),
            ],
            length_km: 10556.0,
            failure: None,
        })
        .unwrap();
        map
    }

    #[test]
    fn cable_predicates() {
        let map = toy_map();
        let alba = &map.cables()[1];
        assert!(alba.lands_in(country::VE));
        assert!(alba.lands_in(country::CU));
        assert!(!alba.lands_in(country::BR));
        assert!(!alba.in_service(Date::ymd(2011, 2, 8)));
        assert!(alba.in_service(Date::ymd(2011, 2, 9)));
        assert_eq!(alba.countries().len(), 2);
    }

    #[test]
    fn add_validation() {
        let mut map = toy_map();
        assert!(map
            .add(Cable {
                name: "Lonely".into(),
                rfs: Date::ymd(2020, 1, 1),
                landings: vec![lp("Camuri", country::VE, 10.6, -66.8)],
                length_km: 1.0,
                failure: None,
            })
            .is_err());
        assert!(map
            .add(Cable {
                name: "ALBA-1".into(),
                rfs: Date::ymd(2020, 1, 1),
                landings: vec![
                    lp("A", country::VE, 10.6, -66.8),
                    lp("B", country::CU, 19.9, -75.7)
                ],
                length_km: 1.0,
                failure: None,
            })
            .is_err());
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn serving_and_series() {
        let map = toy_map();
        assert_eq!(map.serving(country::VE, Date::ymd(2005, 1, 1)).len(), 1);
        assert_eq!(map.serving(country::VE, Date::ymd(2012, 1, 1)).len(), 2);
        let s = map.count_series(
            country::VE,
            MonthStamp::new(2000, 1),
            MonthStamp::new(2020, 1),
        );
        assert_eq!(s.get(MonthStamp::new(2000, 1)), Some(0.0));
        assert_eq!(
            s.get(MonthStamp::new(2000, 8)),
            Some(1.0),
            "counts within RFS month"
        );
        assert_eq!(s.get(MonthStamp::new(2020, 1)), Some(2.0));
    }

    #[test]
    fn region_counts_each_cable_once() {
        let map = toy_map();
        let s = map.region_series(
            &[country::VE, country::BR, country::CU],
            MonthStamp::new(2018, 1),
            MonthStamp::new(2018, 1),
        );
        // Americas-II touches VE and BR but counts once; ALBA and Monet.
        assert_eq!(s.get(MonthStamp::new(2018, 1)), Some(3.0));
        // US alone: Americas-II + Monet.
        let s = map.region_series(
            &[country::US],
            MonthStamp::new(2018, 1),
            MonthStamp::new(2018, 1),
        );
        assert_eq!(s.get(MonthStamp::new(2018, 1)), Some(2.0));
    }

    #[test]
    fn added_between_matches_paper_framing() {
        let map = toy_map();
        // "The only cable that landed in Venezuela in the past decade is
        // the ALBA cable" — RFS window 2004..2024.
        let added = map.added_between(country::VE, Date::ymd(2004, 1, 1), Date::ymd(2024, 1, 1));
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].name, "ALBA-1");
    }

    #[test]
    fn json_roundtrip() {
        let map = toy_map();
        let back = CableMap::from_json(&map.to_json()).unwrap();
        assert_eq!(back, map);
        assert!(CableMap::from_json("nope").is_err());
    }

    #[test]
    fn failure_dates_end_service_and_roundtrip() {
        let mut map = toy_map();
        // A failure date is omitted from the wire form entirely when
        // absent, so the pre-failure serialisation is byte-stable.
        assert!(!map.to_json().contains("failure"));
        let alba = map.cables.iter_mut().find(|c| c.name == "ALBA-1").unwrap();
        alba.failure = Some(Date::ymd(2019, 8, 15));
        assert!(alba.in_service(Date::ymd(2019, 8, 14)));
        assert!(
            !alba.in_service(Date::ymd(2019, 8, 15)),
            "failure day is out"
        );
        let back = CableMap::from_json(&map.to_json()).unwrap();
        assert_eq!(back, map);
        // The monthly count drops after the cut.
        let s = map.count_series(
            country::VE,
            MonthStamp::new(2019, 7),
            MonthStamp::new(2019, 8),
        );
        assert_eq!(s.get(MonthStamp::new(2019, 7)), Some(2.0));
        assert_eq!(s.get(MonthStamp::new(2019, 8)), Some(1.0));
    }
}
