//! Root DNS letters, instances, and deployments over time.

use lacnet_types::{CountryCode, GeoPoint, MonthStamp};
use std::fmt;

/// The thirteen root-server letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum RootLetter {
    A,
    B,
    C,
    D,
    E,
    F,
    G,
    H,
    I,
    J,
    K,
    L,
    M,
}

impl RootLetter {
    /// All thirteen letters, in order.
    pub const ALL: [RootLetter; 13] = [
        RootLetter::A,
        RootLetter::B,
        RootLetter::C,
        RootLetter::D,
        RootLetter::E,
        RootLetter::F,
        RootLetter::G,
        RootLetter::H,
        RootLetter::I,
        RootLetter::J,
        RootLetter::K,
        RootLetter::L,
        RootLetter::M,
    ];

    /// Lowercase letter, as used in hostnames.
    pub const fn as_char(self) -> char {
        match self {
            RootLetter::A => 'a',
            RootLetter::B => 'b',
            RootLetter::C => 'c',
            RootLetter::D => 'd',
            RootLetter::E => 'e',
            RootLetter::F => 'f',
            RootLetter::G => 'g',
            RootLetter::H => 'h',
            RootLetter::I => 'i',
            RootLetter::J => 'j',
            RootLetter::K => 'k',
            RootLetter::L => 'l',
            RootLetter::M => 'm',
        }
    }
}

impl fmt::Display for RootLetter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

/// One anycast instance of a root letter at a specific site.
#[derive(Debug, Clone, PartialEq)]
pub struct RootInstance {
    /// The letter served.
    pub letter: RootLetter,
    /// IATA-style site code embedded in the instance's CHAOS identity
    /// (lowercase, e.g. `"ccs"`, `"mar"`, `"bog"`).
    pub site: String,
    /// Site sequence number (distinguishes multiple servers at a site).
    pub unit: u8,
    /// Country hosting the instance.
    pub country: CountryCode,
    /// Instance coordinates.
    pub location: GeoPoint,
    /// First month in service.
    pub active_since: MonthStamp,
    /// Last month in service, inclusive (`None` = still active).
    pub active_until: Option<MonthStamp>,
    /// Whether the instance announces globally or is a *local node* only
    /// visible to the hosting country (the common +Raíces configuration).
    pub global: bool,
}

impl RootInstance {
    /// Whether the instance served queries during `month`.
    pub fn active_in(&self, month: MonthStamp) -> bool {
        month >= self.active_since && self.active_until.is_none_or(|u| month <= u)
    }

    /// Stable site identity string `letter/site/unit`, used as a unique
    /// replica key when counting (matches how the study counts "unique
    /// CHAOS TXT strings").
    pub fn identity(&self) -> String {
        format!("{}/{}/{}", self.letter, self.site, self.unit)
    }
}

/// The time-varying set of root instances worldwide.
#[derive(Debug, Clone, Default)]
pub struct RootDeployment {
    instances: Vec<RootInstance>,
}

impl RootDeployment {
    /// An empty deployment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an instance.
    pub fn add(&mut self, instance: RootInstance) {
        self.instances.push(instance);
    }

    /// All instances ever deployed.
    pub fn all(&self) -> &[RootInstance] {
        &self.instances
    }

    /// Instances of `letter` active in `month`.
    pub fn active(&self, letter: RootLetter, month: MonthStamp) -> Vec<&RootInstance> {
        self.instances
            .iter()
            .filter(|i| i.letter == letter && i.active_in(month))
            .collect()
    }

    /// All instances active in `month`, any letter.
    pub fn active_any(&self, month: MonthStamp) -> Vec<&RootInstance> {
        self.instances
            .iter()
            .filter(|i| i.active_in(month))
            .collect()
    }

    /// Instances active in `month` hosted by `country`.
    pub fn active_in_country(&self, month: MonthStamp, country: CountryCode) -> Vec<&RootInstance> {
        self.active_any(month)
            .into_iter()
            .filter(|i| i.country == country)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    fn m(y: i32, mo: u8) -> MonthStamp {
        MonthStamp::new(y, mo)
    }

    pub(crate) fn inst(
        letter: RootLetter,
        site: &str,
        cc: CountryCode,
        since: MonthStamp,
        until: Option<MonthStamp>,
    ) -> RootInstance {
        RootInstance {
            letter,
            site: site.into(),
            unit: 1,
            country: cc,
            location: GeoPoint::new(0.0, 0.0),
            active_since: since,
            active_until: until,
            global: false,
        }
    }

    #[test]
    fn letters_run_a_to_m() {
        let chars: String = RootLetter::ALL.iter().map(|l| l.as_char()).collect();
        assert_eq!(chars, "abcdefghijklm");
    }

    #[test]
    fn instance_identity_and_window() {
        let i = inst(
            RootLetter::L,
            "ccs",
            country::VE,
            m(2016, 1),
            Some(m(2019, 6)),
        );
        assert_eq!(i.identity(), "l/ccs/1");
        assert!(i.active_in(m(2016, 1)));
        assert!(i.active_in(m(2019, 6)));
        assert!(!i.active_in(m(2019, 7)));
    }

    #[test]
    fn deployment_queries() {
        let mut d = RootDeployment::new();
        d.add(inst(
            RootLetter::L,
            "ccs",
            country::VE,
            m(2016, 1),
            Some(m(2019, 6)),
        ));
        d.add(inst(
            RootLetter::F,
            "ccs",
            country::VE,
            m(2016, 1),
            Some(m(2018, 3)),
        ));
        d.add(inst(
            RootLetter::L,
            "mar",
            country::VE,
            m(2019, 8),
            Some(m(2021, 2)),
        ));
        d.add(inst(RootLetter::L, "bog", country::CO, m(2016, 1), None));

        assert_eq!(d.active(RootLetter::L, m(2016, 6)).len(), 2);
        assert_eq!(d.active_in_country(m(2016, 6), country::VE).len(), 2);
        // The paper's regression: by 2022 nothing remains in VE.
        assert_eq!(d.active_in_country(m(2022, 1), country::VE).len(), 0);
        assert_eq!(d.active_in_country(m(2022, 1), country::CO).len(), 1);
        assert_eq!(d.active_any(m(2020, 1)).len(), 2);
    }
}
