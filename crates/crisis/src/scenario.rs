//! Config-driven crisis scenarios.
//!
//! The generator historically hard-coded one storyline — Venezuela's
//! macro-economic collapse and its Internet consequences. A [`Scenario`]
//! factors the storyline into data: a TOML sidecar of *overlays* applied
//! on top of the historical record (GDP anchor overrides, blackout
//! schedules, cable failure dates, NDT traffic shifts, transit
//! withdrawals, IXP buildouts, probe migrations).
//!
//! **The byte-identity contract.** [`Scenario::venezuela`] is the
//! built-in default and carries exactly the values the generator used to
//! hard-code (today, the three documented 2019 blackout events — every
//! other overlay list empty, because the rest of the storyline *is* the
//! historical record). A world generated under the default scenario is
//! byte-identical to the pre-scenario generator: identical archives,
//! identical golden fixtures, identical manifest fingerprints. Only a
//! non-default scenario perturbs any output.
//!
//! Scenarios are identified by a fingerprint — the FNV-1a hash of the
//! canonical [`Scenario::to_toml`] serialisation — which the dump layer
//! folds into every NDT shard fingerprint (and writes as a
//! `world/scenario.toml` sidecar) *only* when the scenario is
//! non-default, so switching scenarios rewrites every shard while
//! default trees keep their historical bytes.

use crate::blackouts::Blackout;
use lacnet_types::json::Json;
use lacnet_types::{codec, toml, Asn, CountryCode, Date, MonthStamp};
use std::fmt;
use std::fmt::Write as _;

/// A scenario failed to load, parse or validate. Every variant is a
/// diagnosable condition — scenario files are hand-edited, so the error
/// names the key or value at fault rather than panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario file could not be read.
    Read {
        /// Path we tried to read.
        path: String,
        /// The I/O error text.
        detail: String,
    },
    /// The sidecar is not valid TOML (per the `lacnet_types::toml`
    /// subset).
    Toml(lacnet_types::Error),
    /// A table carries a key the schema does not define.
    UnknownKey {
        /// The offending key, qualified by its table.
        key: String,
    },
    /// A known key holds a value of the wrong shape or range.
    BadValue {
        /// The offending key, qualified by its table.
        key: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A name passed to [`Scenario::builtin`] is not a built-in.
    UnknownBuiltin {
        /// The requested name.
        name: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Read { path, detail } => {
                write!(f, "cannot read scenario file {path}: {detail}")
            }
            ScenarioError::Toml(e) => write!(f, "scenario sidecar is not valid TOML: {e}"),
            ScenarioError::UnknownKey { key } => {
                write!(f, "scenario sidecar has unknown key `{key}`")
            }
            ScenarioError::BadValue { key, detail } => {
                write!(f, "scenario key `{key}`: {detail}")
            }
            ScenarioError::UnknownBuiltin { name } => write!(
                f,
                "unknown scenario `{name}` (built-ins: {}; or pass a .toml path)",
                Scenario::builtin_names().join(", ")
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ScenarioError> for lacnet_types::Error {
    fn from(e: ScenarioError) -> Self {
        lacnet_types::Error::parse("valid scenario sidecar", &e.to_string())
    }
}

/// A submarine cable failing: the named system goes out of service on
/// `failure` day.
#[derive(Debug, Clone, PartialEq)]
pub struct CableFailure {
    /// System name, matching the cable table (e.g. `"ALBA-1"`).
    pub cable: String,
    /// First day out of service.
    pub failure: Date,
}

/// A month-windowed multiplier on one country's NDT test volume,
/// applied on top of the config's per-country scale.
#[derive(Debug, Clone, PartialEq)]
pub struct MlabAdjustment {
    /// Affected country.
    pub country: CountryCode,
    /// First month the factor applies.
    pub start: MonthStamp,
    /// Last month, inclusive (`None` = open-ended).
    pub end: Option<MonthStamp>,
    /// Volume multiplier inside the window.
    pub factor: f64,
}

/// A transit provider withdrawing from the focal incumbent: the
/// provider's historical interval is truncated to end in `end`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitWithdrawal {
    /// The withdrawing provider.
    pub provider: Asn,
    /// First month the provider is gone.
    pub end: MonthStamp,
}

/// A new IXP opening — a buildout-recovery overlay appended to the
/// PeeringDB ix table from its opening month.
#[derive(Debug, Clone, PartialEq)]
pub struct IxpBuildout {
    /// Host country.
    pub country: CountryCode,
    /// Exchange name.
    pub name: String,
    /// Host city.
    pub city: String,
    /// First month the exchange exists.
    pub open: MonthStamp,
    /// Eyeball user share the membership greedily covers, in `(0, 1]`.
    pub target_share: f64,
}

/// A displacement event: a fraction of one country's Atlas probes
/// re-homing to another country from a given day.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeMigration {
    /// Country losing probes.
    pub from: CountryCode,
    /// Country gaining them.
    pub to: CountryCode,
    /// First day the migration shows in reachability counts.
    pub start: Date,
    /// Fraction of the origin country's active probes that move, in
    /// `(0, 1]`.
    pub fraction: f64,
}

/// One crisis storyline, as data. See the module docs for the
/// byte-identity contract the default scenario honours.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short scenario name (used in routes and fingerprint displays).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Per-country GDP anchor overrides `(country, [(year, usd)])`,
    /// replacing the historical anchors before monthly resampling.
    pub gdp_anchors: Vec<(CountryCode, Vec<(i32, f64)>)>,
    /// Per-country scripted blackout schedules.
    pub blackouts: Vec<(CountryCode, Vec<Blackout>)>,
    /// Cable systems gaining failure dates.
    pub cable_failures: Vec<CableFailure>,
    /// Month-windowed NDT volume multipliers.
    pub mlab_adjustments: Vec<MlabAdjustment>,
    /// Transit providers leaving the focal incumbent early.
    pub transit_withdrawals: Vec<TransitWithdrawal>,
    /// New exchanges opening.
    pub ixp_buildouts: Vec<IxpBuildout>,
    /// Cross-border probe migrations.
    pub probe_migrations: Vec<ProbeMigration>,
}

/// The built-in scenario sidecars, embedded so every binary can run any
/// of them with no files on disk. The committed files under `scenarios/`
/// are the source of truth; `Scenario::venezuela()` is unit-tested equal
/// to its parsed file.
const BUILTINS: &[(&str, &str)] = &[
    (
        "venezuela",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/venezuela.toml"
        )),
    ),
    (
        "sudden-displacement",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/sudden-displacement.toml"
        )),
    ),
    (
        "cable-cut",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/cable-cut.toml"
        )),
    ),
    (
        "transit-withdrawal",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/transit-withdrawal.toml"
        )),
    ),
];

impl Scenario {
    /// The built-in default: the paper's Venezuela storyline. Carries
    /// exactly what the generator used to hard-code — the three 2019
    /// blackout events — and nothing else, so worlds generated under it
    /// are byte-identical to the pre-scenario generator.
    pub fn venezuela() -> Scenario {
        Scenario {
            name: "venezuela".into(),
            description: "The paper's storyline: Venezuela's decade-long crisis, \
                          with the three documented 2019 blackouts"
                .into(),
            gdp_anchors: Vec::new(),
            blackouts: vec![(
                lacnet_types::country::VE,
                crate::blackouts::ve_blackouts_2019(),
            )],
            cable_failures: Vec::new(),
            mlab_adjustments: Vec::new(),
            transit_withdrawals: Vec::new(),
            ixp_buildouts: Vec::new(),
            probe_migrations: Vec::new(),
        }
    }

    /// Whether this is the default (Venezuela) scenario — the gate on
    /// every byte-visible scenario artefact (sidecar files, fingerprint
    /// suffixes).
    pub fn is_default(&self) -> bool {
        *self == Scenario::venezuela()
    }

    /// Names of the built-in scenarios, in registry order.
    pub fn builtin_names() -> Vec<&'static str> {
        BUILTINS.iter().map(|&(name, _)| name).collect()
    }

    /// Load a built-in scenario by name.
    pub fn builtin(name: &str) -> Result<Scenario, ScenarioError> {
        let (_, text) = BUILTINS
            .iter()
            .find(|&&(n, _)| n == name)
            .ok_or_else(|| ScenarioError::UnknownBuiltin { name: name.into() })?;
        Scenario::parse(text)
    }

    /// Resolve a `--scenario` argument: a built-in name, or a path to a
    /// sidecar file.
    pub fn load(spec: &str) -> Result<Scenario, ScenarioError> {
        if BUILTINS.iter().any(|&(n, _)| n == spec) {
            return Scenario::builtin(spec);
        }
        let text = std::fs::read_to_string(spec).map_err(|e| {
            if spec.ends_with(".toml") || spec.contains('/') {
                ScenarioError::Read {
                    path: spec.into(),
                    detail: e.to_string(),
                }
            } else {
                ScenarioError::UnknownBuiltin { name: spec.into() }
            }
        })?;
        Scenario::parse(&text)
    }

    /// The scenario fingerprint: FNV-1a over the canonical serialisation.
    /// Two scenarios fingerprint equal iff they carry the same data.
    pub fn fingerprint(&self) -> u64 {
        codec::fnv1a64(self.to_toml().as_bytes())
    }

    /// Blackout schedule for `cc` (empty when the scenario scripts none).
    pub fn blackouts_for(&self, cc: CountryCode) -> &[Blackout] {
        self.blackouts
            .iter()
            .find(|(c, _)| *c == cc)
            .map(|(_, events)| events.as_slice())
            .unwrap_or(&[])
    }

    /// The NDT volume multiplier for `(cc, month)`: the product of every
    /// matching adjustment window (1.0 when none match — multiplying a
    /// scale by 1.0 is IEEE-exact, so untouched shards keep their bytes).
    pub fn mlab_factor(&self, cc: CountryCode, month: MonthStamp) -> f64 {
        let mut factor = 1.0;
        for adj in &self.mlab_adjustments {
            if adj.country == cc && adj.start <= month && adj.end.is_none_or(|e| month <= e) {
                factor *= adj.factor;
            }
        }
        factor
    }

    /// The month a scenario withdraws `provider` from the focal
    /// incumbent's transit menu, if it does.
    pub fn withdrawal_end(&self, provider: Asn) -> Option<MonthStamp> {
        self.transit_withdrawals
            .iter()
            .find(|w| w.provider == provider)
            .map(|w| w.end)
    }

    /// Parse a scenario sidecar. Typed errors, never panics: unknown
    /// keys, malformed values and bad ranges each name the key at fault.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(text).map_err(ScenarioError::Toml)?;
        let Json::Obj(pairs) = &doc else {
            unreachable!("toml::parse returns an object");
        };
        let mut scenario = Scenario {
            name: String::new(),
            description: String::new(),
            gdp_anchors: Vec::new(),
            blackouts: Vec::new(),
            cable_failures: Vec::new(),
            mlab_adjustments: Vec::new(),
            transit_withdrawals: Vec::new(),
            ixp_buildouts: Vec::new(),
            probe_migrations: Vec::new(),
        };
        for (key, value) in pairs {
            match key.as_str() {
                "name" => scenario.name = req_str(value, "name")?,
                "description" => scenario.description = req_str(value, "description")?,
                "gdp_anchors" => {
                    for entry in tables(value, "gdp_anchors")? {
                        check_keys(entry, "gdp_anchors", &["country", "anchors"])?;
                        let cc = country(entry, "gdp_anchors.country")?;
                        let anchors = entry
                            .get("anchors")
                            .and_then(Json::as_array)
                            .ok_or_else(|| bad("gdp_anchors.anchors", "expected [[year, usd]]"))?
                            .iter()
                            .map(|pair| {
                                let xs = pair.as_array().filter(|xs| xs.len() == 2).ok_or_else(
                                    || bad("gdp_anchors.anchors", "expected [year, usd] pairs"),
                                )?;
                                let year = xs[0].as_f64().ok_or_else(|| {
                                    bad("gdp_anchors.anchors", "year must be a number")
                                })?;
                                let usd = xs[1].as_f64().ok_or_else(|| {
                                    bad("gdp_anchors.anchors", "usd must be a number")
                                })?;
                                Ok((year as i32, usd))
                            })
                            .collect::<Result<Vec<_>, ScenarioError>>()?;
                        if anchors.len() < 2 {
                            return Err(bad("gdp_anchors.anchors", "need at least two anchors"));
                        }
                        scenario.gdp_anchors.push((cc, anchors));
                    }
                }
                "blackouts" => {
                    for entry in tables(value, "blackouts")? {
                        check_keys(entry, "blackouts", &["country", "events"])?;
                        let cc = country(entry, "blackouts.country")?;
                        let events = entry
                            .get("events")
                            .and_then(Json::as_array)
                            .ok_or_else(|| {
                                bad("blackouts.events", "expected [[start, end, depth]]")
                            })?
                            .iter()
                            .map(|event| {
                                let xs = event.as_array().filter(|xs| xs.len() == 3).ok_or_else(
                                    || bad("blackouts.events", "expected [start, end, depth]"),
                                )?;
                                let start = date(&xs[0], "blackouts.events start")?;
                                let end = date(&xs[1], "blackouts.events end")?;
                                let depth = xs[2].as_f64().ok_or_else(|| {
                                    bad("blackouts.events", "depth must be a number")
                                })?;
                                if !(0.0..=1.0).contains(&depth) {
                                    return Err(bad("blackouts.events", "depth must be in [0, 1]"));
                                }
                                if end < start {
                                    return Err(bad("blackouts.events", "end before start"));
                                }
                                Ok(Blackout { start, end, depth })
                            })
                            .collect::<Result<Vec<_>, ScenarioError>>()?;
                        scenario.blackouts.push((cc, events));
                    }
                }
                "cable_failures" => {
                    for entry in tables(value, "cable_failures")? {
                        check_keys(entry, "cable_failures", &["cable", "failure"])?;
                        scenario.cable_failures.push(CableFailure {
                            cable: req_str(
                                entry.get("cable").unwrap_or(&Json::Null),
                                "cable_failures.cable",
                            )?,
                            failure: date(
                                entry.get("failure").unwrap_or(&Json::Null),
                                "cable_failures.failure",
                            )?,
                        });
                    }
                }
                "mlab" => {
                    for entry in tables(value, "mlab")? {
                        check_keys(entry, "mlab", &["country", "start", "end", "factor"])?;
                        let factor = entry
                            .get("factor")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| bad("mlab.factor", "must be a number"))?;
                        if factor <= 0.0 || factor.is_nan() {
                            return Err(bad("mlab.factor", "must be positive"));
                        }
                        scenario.mlab_adjustments.push(MlabAdjustment {
                            country: country(entry, "mlab.country")?,
                            start: month(entry.get("start").unwrap_or(&Json::Null), "mlab.start")?,
                            end: match entry.get("end") {
                                None => None,
                                Some(v) => Some(month(v, "mlab.end")?),
                            },
                            factor,
                        });
                    }
                }
                "transit_withdrawals" => {
                    for entry in tables(value, "transit_withdrawals")? {
                        check_keys(entry, "transit_withdrawals", &["provider", "end"])?;
                        let provider = entry
                            .get("provider")
                            .and_then(Json::as_f64)
                            .filter(|&n| n >= 1.0 && n.fract() == 0.0)
                            .ok_or_else(|| {
                                bad("transit_withdrawals.provider", "must be an ASN number")
                            })?;
                        scenario.transit_withdrawals.push(TransitWithdrawal {
                            provider: Asn(provider as u32),
                            end: month(
                                entry.get("end").unwrap_or(&Json::Null),
                                "transit_withdrawals.end",
                            )?,
                        });
                    }
                }
                "ixp_buildouts" => {
                    for entry in tables(value, "ixp_buildouts")? {
                        check_keys(
                            entry,
                            "ixp_buildouts",
                            &["country", "name", "city", "open", "target_share"],
                        )?;
                        let target_share = entry
                            .get("target_share")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| bad("ixp_buildouts.target_share", "must be a number"))?;
                        if !(target_share > 0.0 && target_share <= 1.0) {
                            return Err(bad("ixp_buildouts.target_share", "must be in (0, 1]"));
                        }
                        scenario.ixp_buildouts.push(IxpBuildout {
                            country: country(entry, "ixp_buildouts.country")?,
                            name: req_str(
                                entry.get("name").unwrap_or(&Json::Null),
                                "ixp_buildouts.name",
                            )?,
                            city: req_str(
                                entry.get("city").unwrap_or(&Json::Null),
                                "ixp_buildouts.city",
                            )?,
                            open: month(
                                entry.get("open").unwrap_or(&Json::Null),
                                "ixp_buildouts.open",
                            )?,
                            target_share,
                        });
                    }
                }
                "probe_migrations" => {
                    for entry in tables(value, "probe_migrations")? {
                        check_keys(
                            entry,
                            "probe_migrations",
                            &["from", "to", "start", "fraction"],
                        )?;
                        let fraction = entry
                            .get("fraction")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| bad("probe_migrations.fraction", "must be a number"))?;
                        if !(fraction > 0.0 && fraction <= 1.0) {
                            return Err(bad("probe_migrations.fraction", "must be in (0, 1]"));
                        }
                        scenario.probe_migrations.push(ProbeMigration {
                            from: cc_value(
                                entry.get("from").unwrap_or(&Json::Null),
                                "probe_migrations.from",
                            )?,
                            to: cc_value(
                                entry.get("to").unwrap_or(&Json::Null),
                                "probe_migrations.to",
                            )?,
                            start: date(
                                entry.get("start").unwrap_or(&Json::Null),
                                "probe_migrations.start",
                            )?,
                            fraction,
                        });
                    }
                }
                other => {
                    return Err(ScenarioError::UnknownKey { key: other.into() });
                }
            }
        }
        if scenario.name.is_empty() {
            return Err(bad("name", "required and non-empty"));
        }
        Ok(scenario)
    }

    /// Canonical TOML serialisation: `parse(to_toml(s)) == s` exactly
    /// (floats use Rust's shortest-roundtrip formatting). This is the
    /// fingerprint input and what the dump layer writes as the archive
    /// sidecar.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# lacnet scenario sidecar");
        let _ = writeln!(out, "name = {}", toml::escape(&self.name));
        let _ = writeln!(out, "description = {}", toml::escape(&self.description));
        for (cc, anchors) in &self.gdp_anchors {
            let _ = writeln!(out, "\n[[gdp_anchors]]");
            let _ = writeln!(out, "country = \"{cc}\"");
            let pairs: Vec<String> = anchors
                .iter()
                .map(|(year, usd)| format!("[{year}, {usd}]"))
                .collect();
            let _ = writeln!(out, "anchors = [{}]", pairs.join(", "));
        }
        for (cc, events) in &self.blackouts {
            let _ = writeln!(out, "\n[[blackouts]]");
            let _ = writeln!(out, "country = \"{cc}\"");
            let items: Vec<String> = events
                .iter()
                .map(|b| format!("[\"{}\", \"{}\", {}]", b.start, b.end, b.depth))
                .collect();
            let _ = writeln!(out, "events = [{}]", items.join(", "));
        }
        for f in &self.cable_failures {
            let _ = writeln!(out, "\n[[cable_failures]]");
            let _ = writeln!(out, "cable = {}", toml::escape(&f.cable));
            let _ = writeln!(out, "failure = \"{}\"", f.failure);
        }
        for adj in &self.mlab_adjustments {
            let _ = writeln!(out, "\n[[mlab]]");
            let _ = writeln!(out, "country = \"{}\"", adj.country);
            let _ = writeln!(out, "start = \"{}\"", adj.start);
            if let Some(end) = adj.end {
                let _ = writeln!(out, "end = \"{end}\"");
            }
            let _ = writeln!(out, "factor = {}", adj.factor);
        }
        for w in &self.transit_withdrawals {
            let _ = writeln!(out, "\n[[transit_withdrawals]]");
            let _ = writeln!(out, "provider = {}", w.provider.0);
            let _ = writeln!(out, "end = \"{}\"", w.end);
        }
        for ixp in &self.ixp_buildouts {
            let _ = writeln!(out, "\n[[ixp_buildouts]]");
            let _ = writeln!(out, "country = \"{}\"", ixp.country);
            let _ = writeln!(out, "name = {}", toml::escape(&ixp.name));
            let _ = writeln!(out, "city = {}", toml::escape(&ixp.city));
            let _ = writeln!(out, "open = \"{}\"", ixp.open);
            let _ = writeln!(out, "target_share = {}", ixp.target_share);
        }
        for m in &self.probe_migrations {
            let _ = writeln!(out, "\n[[probe_migrations]]");
            let _ = writeln!(out, "from = \"{}\"", m.from);
            let _ = writeln!(out, "to = \"{}\"", m.to);
            let _ = writeln!(out, "start = \"{}\"", m.start);
            let _ = writeln!(out, "fraction = {}", m.fraction);
        }
        out
    }
}

fn bad(key: &str, detail: &str) -> ScenarioError {
    ScenarioError::BadValue {
        key: key.into(),
        detail: detail.into(),
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, ScenarioError> {
    v.as_str()
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .ok_or_else(|| bad(key, "must be a non-empty string"))
}

fn tables<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ScenarioError> {
    v.as_array()
        .ok_or_else(|| bad(key, "must be an array of tables ([[...]])"))
}

fn check_keys(entry: &Json, table: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    let Json::Obj(pairs) = entry else {
        return Err(bad(table, "each entry must be a table"));
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::UnknownKey {
                key: format!("{table}.{key}"),
            });
        }
    }
    Ok(())
}

fn cc_value(v: &Json, key: &str) -> Result<CountryCode, ScenarioError> {
    let cc = v
        .as_str()
        .ok_or_else(|| bad(key, "must be an ISO alpha-2 string"))
        .and_then(|s| CountryCode::new(s).map_err(|e| bad(key, &e.to_string())))?;
    if !lacnet_types::country::in_lacnic(cc) {
        return Err(bad(key, "must be a LACNIC-region country"));
    }
    Ok(cc)
}

fn country(entry: &Json, key: &str) -> Result<CountryCode, ScenarioError> {
    cc_value(entry.get("country").unwrap_or(&Json::Null), key)
}

fn date(v: &Json, key: &str) -> Result<Date, ScenarioError> {
    v.as_str()
        .ok_or_else(|| bad(key, "must be a YYYY-MM-DD string"))
        .and_then(|s| s.parse::<Date>().map_err(|e| bad(key, &e.to_string())))
}

fn month(v: &Json, key: &str) -> Result<MonthStamp, ScenarioError> {
    v.as_str()
        .ok_or_else(|| bad(key, "must be a YYYY-MM string"))
        .and_then(|s| {
            s.parse::<MonthStamp>()
                .map_err(|e| bad(key, &e.to_string()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;

    #[test]
    fn builtin_venezuela_equals_the_coded_default() {
        let parsed = Scenario::builtin("venezuela").unwrap();
        assert_eq!(parsed, Scenario::venezuela());
        assert!(parsed.is_default());
        assert_eq!(
            parsed.blackouts_for(country::VE),
            crate::blackouts::ve_blackouts_2019().as_slice()
        );
        assert!(parsed.blackouts_for(country::BR).is_empty());
    }

    #[test]
    fn every_builtin_parses_and_fingerprints_uniquely() {
        let mut fingerprints = std::collections::BTreeSet::new();
        for name in Scenario::builtin_names() {
            let s = Scenario::builtin(name).unwrap();
            assert_eq!(s.name, name, "sidecar name matches registry name");
            assert!(
                fingerprints.insert(s.fingerprint()),
                "{name} fingerprint collides"
            );
            assert_eq!(name == "venezuela", s.is_default(), "{name}");
        }
        assert_eq!(fingerprints.len(), 4);
    }

    #[test]
    fn canonical_serialisation_round_trips_exactly() {
        for name in Scenario::builtin_names() {
            let s = Scenario::builtin(name).unwrap();
            let back = Scenario::parse(&s.to_toml()).unwrap();
            assert_eq!(back, s, "{name} round-trip");
            assert_eq!(back.fingerprint(), s.fingerprint());
        }
    }

    #[test]
    fn load_resolves_builtins_paths_and_rejects_unknowns() {
        assert_eq!(
            Scenario::load("cable-cut").unwrap(),
            Scenario::builtin("cable-cut").unwrap()
        );
        let dir = std::env::temp_dir().join(format!("lacnet-scn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.toml");
        std::fs::write(&path, Scenario::venezuela().to_toml()).unwrap();
        let loaded = Scenario::load(path.to_str().unwrap()).unwrap();
        assert!(loaded.is_default());
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            Scenario::load("atlantis"),
            Err(ScenarioError::UnknownBuiltin { .. })
        ));
        assert!(matches!(
            Scenario::load("/no/such/dir/scn.toml"),
            Err(ScenarioError::Read { .. })
        ));
        assert!(matches!(
            Scenario::builtin("atlantis"),
            Err(ScenarioError::UnknownBuiltin { .. })
        ));
    }

    // One unit test per failure mode of the typed-error satellite.

    #[test]
    fn malformed_toml_is_a_toml_error() {
        assert!(matches!(
            Scenario::parse("name = \n"),
            Err(ScenarioError::Toml(_))
        ));
    }

    #[test]
    fn unknown_top_level_key_is_rejected() {
        assert!(matches!(
            Scenario::parse("name = \"x\"\nsurprise = 1\n"),
            Err(ScenarioError::UnknownKey { key }) if key == "surprise"
        ));
    }

    #[test]
    fn unknown_table_key_is_rejected_with_its_table() {
        let text = "name = \"x\"\n[[mlab]]\ncountry = \"VE\"\nstart = \"2019-01\"\nfactor = 1.5\nbogus = 1\n";
        assert!(matches!(
            Scenario::parse(text),
            Err(ScenarioError::UnknownKey { key }) if key == "mlab.bogus"
        ));
    }

    #[test]
    fn bad_values_name_the_key() {
        for (text, key) in [
            ("description = \"no name\"\n", "name"),
            ("name = \"x\"\n[[mlab]]\ncountry = \"XX\"\nstart = \"2019-01\"\nfactor = 2\n", "mlab.country"),
            ("name = \"x\"\n[[mlab]]\ncountry = \"VE\"\nstart = \"soon\"\nfactor = 2\n", "mlab.start"),
            ("name = \"x\"\n[[mlab]]\ncountry = \"VE\"\nstart = \"2019-01\"\nfactor = -2\n", "mlab.factor"),
            ("name = \"x\"\n[[blackouts]]\ncountry = \"VE\"\nevents = [[\"2019-03-07\", \"2019-03-14\", 1.5]]\n", "blackouts.events"),
            ("name = \"x\"\n[[blackouts]]\ncountry = \"VE\"\nevents = [[\"2019-03-14\", \"2019-03-07\", 0.5]]\n", "blackouts.events"),
            ("name = \"x\"\n[[cable_failures]]\ncable = \"ALBA-1\"\nfailure = \"2019-13-01\"\n", "cable_failures.failure"),
            ("name = \"x\"\n[[transit_withdrawals]]\nprovider = \"Telefonica\"\nend = \"2016-06\"\n", "transit_withdrawals.provider"),
            ("name = \"x\"\n[[ixp_buildouts]]\ncountry = \"VE\"\nname = \"IXP\"\ncity = \"Caracas\"\nopen = \"2021-06\"\ntarget_share = 2.0\n", "ixp_buildouts.target_share"),
            ("name = \"x\"\n[[probe_migrations]]\nfrom = \"VE\"\nto = \"CO\"\nstart = \"2019-01-15\"\nfraction = 0.0\n", "probe_migrations.fraction"),
            ("name = \"x\"\n[[gdp_anchors]]\ncountry = \"VE\"\nanchors = [[1980, 7800]]\n", "gdp_anchors.anchors"),
        ] {
            match Scenario::parse(text) {
                Err(ScenarioError::BadValue { key: k, .. }) => {
                    assert_eq!(k, key, "wrong key for {text:?}")
                }
                other => panic!("{text:?} should be BadValue({key}), got {other:?}"),
            }
        }
    }

    #[test]
    fn overlay_lookups_answer_the_generators() {
        let s = Scenario::builtin("cable-cut").unwrap();
        assert!(!s.cable_failures.is_empty());
        let t = Scenario::builtin("transit-withdrawal").unwrap();
        assert!(t.withdrawal_end(Asn(6762)).is_some());
        assert!(t.withdrawal_end(Asn(64512)).is_none());
        let d = Scenario::builtin("sudden-displacement").unwrap();
        assert!(!d.probe_migrations.is_empty());
        let ve = country::VE;
        let factor = d.mlab_factor(ve, MonthStamp::new(2019, 6));
        assert!(factor < 1.0, "displacement shrinks VE volume: {factor}");
        assert_eq!(d.mlab_factor(ve, MonthStamp::new(2010, 1)), 1.0);
        assert_eq!(
            Scenario::venezuela().mlab_factor(ve, MonthStamp::new(2019, 6)),
            1.0
        );
    }
}
