//! World-generation configuration and the study's observation windows.

use lacnet_types::{CountryCode, Error, MonthStamp, Result};

/// Configuration for one generated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Master seed; every dataset derives its own substream from it.
    pub seed: u64,
    /// First month of the macro-economy model (the paper's Fig. 1 starts
    /// in 1980).
    pub economy_start: MonthStamp,
    /// Last month generated everywhere (the paper's data ends early 2024).
    pub end: MonthStamp,
    /// Scale factor on crowdsourced test volumes: 1.0 approximates the
    /// paper's per-country monthly volumes divided by 1000 (the real
    /// archive is 447M rows; the default world generates ≈450k). Raise it
    /// for benchmark stress runs.
    pub mlab_volume_scale: f64,
    /// Optional per-country NDT volume boost `(country, factor)`, applied
    /// on top of [`mlab_volume_scale`] for that one country. This is the
    /// single-country knob the incremental-refresh machinery keys on: a
    /// re-dump after changing it regenerates only that country's shards.
    ///
    /// [`mlab_volume_scale`]: WorldConfig::mlab_volume_scale
    pub mlab_country_boost: Option<(CountryCode, f64)>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x0005_ECC0_2024,
            economy_start: MonthStamp::new(1980, 1),
            end: MonthStamp::new(2024, 2),
            mlab_volume_scale: 1.0,
            mlab_country_boost: None,
        }
    }
}

impl WorldConfig {
    /// A smaller, faster world for unit tests: same structure, lower
    /// M-Lab volume.
    pub fn test() -> Self {
        WorldConfig {
            mlab_volume_scale: 0.4,
            ..Default::default()
        }
    }

    /// The effective NDT volume scale for `cc`: the global
    /// [`mlab_volume_scale`] times the per-country boost when `cc` is the
    /// boosted country.
    ///
    /// [`mlab_volume_scale`]: WorldConfig::mlab_volume_scale
    pub fn mlab_scale_for(&self, cc: CountryCode) -> f64 {
        match self.mlab_country_boost {
            Some((boosted, factor)) if boosted == cc => self.mlab_volume_scale * factor,
            _ => self.mlab_volume_scale,
        }
    }

    /// Serialise as the archive's config sidecar (`world/config.tsv`):
    /// one `key<TAB>value` line per field. Floats use shortest-roundtrip
    /// formatting, so `parse(to_text(c)) == c` exactly — an archive
    /// records precisely the world that produced it. The optional
    /// `mlab_country_boost` line is written only when the knob is set.
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "# lacnet world config\nseed\t{}\neconomy_start\t{}\nend\t{}\nmlab_volume_scale\t{}\n",
            self.seed, self.economy_start, self.end, self.mlab_volume_scale,
        );
        if let Some((cc, factor)) = self.mlab_country_boost {
            text.push_str(&format!("mlab_country_boost\t{cc}:{factor}\n"));
        }
        text
    }

    /// Parse a config sidecar written by [`to_text`]. The four scalar
    /// keys are required (`mlab_country_boost` is optional); unknown keys
    /// are rejected so a stale sidecar cannot be silently misread.
    ///
    /// [`to_text`]: WorldConfig::to_text
    pub fn parse(text: &str) -> Result<Self> {
        let mut cfg = WorldConfig::default();
        let mut seen = [false; 4];
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| Error::parse("config line (key<TAB>value)", line))?;
            match key {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| Error::parse("config seed", value))?;
                    seen[0] = true;
                }
                "economy_start" => {
                    cfg.economy_start = value.parse()?;
                    seen[1] = true;
                }
                "end" => {
                    cfg.end = value.parse()?;
                    seen[2] = true;
                }
                "mlab_volume_scale" => {
                    cfg.mlab_volume_scale = value
                        .parse()
                        .map_err(|_| Error::parse("config mlab_volume_scale", value))?;
                    seen[3] = true;
                }
                "mlab_country_boost" => {
                    let (cc, factor) = value.split_once(':').ok_or_else(|| {
                        Error::parse("config mlab_country_boost (CC:factor)", value)
                    })?;
                    cfg.mlab_country_boost = Some((
                        CountryCode::new(cc)?,
                        factor
                            .parse()
                            .map_err(|_| Error::parse("config mlab_country_boost factor", value))?,
                    ));
                }
                other => return Err(Error::parse("known config key", other)),
            }
        }
        if seen != [true; 4] {
            return Err(Error::parse("complete config sidecar", text));
        }
        Ok(cfg)
    }
}

/// Observation windows of each dataset, as the paper states them.
pub mod windows {
    use lacnet_types::MonthStamp;

    /// CAIDA AS relationships: since January 1998 (§3.2).
    pub fn serial1_start() -> MonthStamp {
        MonthStamp::new(1998, 1)
    }

    /// Prefix-to-AS and delegation snapshots: since 2008 (§4).
    pub fn pfx2as_start() -> MonthStamp {
        MonthStamp::new(2008, 1)
    }

    /// PeeringDB schema v2: since April 2018 (§3.1).
    pub fn peeringdb_start() -> MonthStamp {
        MonthStamp::new(2018, 4)
    }

    /// RIPE Atlas CHAOS built-ins analysed since 2016 (§3.1).
    pub fn chaos_start() -> MonthStamp {
        MonthStamp::new(2016, 1)
    }

    /// GPDNS traceroute campaign: since March 2014 (§3.3).
    pub fn gpdns_start() -> MonthStamp {
        MonthStamp::new(2014, 3)
    }

    /// M-Lab NDT: since July 2007 (§3.3).
    pub fn mlab_start() -> MonthStamp {
        MonthStamp::new(2007, 7)
    }

    /// IPv6 adoption panel: 2018–2023 (Fig. 5).
    pub fn ipv6_start() -> MonthStamp {
        MonthStamp::new(2018, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_window() {
        let cfg = WorldConfig::default();
        assert!(cfg.economy_start < windows::serial1_start());
        assert!(windows::serial1_start() < windows::mlab_start());
        assert!(windows::mlab_start() < windows::pfx2as_start());
        assert!(windows::gpdns_start() < windows::chaos_start());
        assert!(cfg.mlab_volume_scale > 0.0);
    }

    #[test]
    fn test_config_is_smaller() {
        assert!(WorldConfig::test().mlab_volume_scale < WorldConfig::default().mlab_volume_scale);
    }

    #[test]
    fn sidecar_roundtrip_is_exact() {
        for cfg in [
            WorldConfig::default(),
            WorldConfig::test(),
            WorldConfig {
                seed: 42,
                economy_start: MonthStamp::new(1999, 11),
                end: MonthStamp::new(2020, 3),
                mlab_volume_scale: 0.123456789,
                mlab_country_boost: None,
            },
            WorldConfig {
                mlab_country_boost: Some((lacnet_types::country::VE, 1.75)),
                ..WorldConfig::test()
            },
        ] {
            assert_eq!(WorldConfig::parse(&cfg.to_text()).unwrap(), cfg);
        }
    }

    #[test]
    fn country_boost_scales_exactly_one_country() {
        use lacnet_types::country;
        let cfg = WorldConfig {
            mlab_volume_scale: 0.5,
            mlab_country_boost: Some((country::VE, 3.0)),
            ..WorldConfig::default()
        };
        assert_eq!(cfg.mlab_scale_for(country::VE), 1.5);
        assert_eq!(cfg.mlab_scale_for(country::BR), 0.5);
        assert_eq!(
            WorldConfig::default().mlab_scale_for(country::VE),
            WorldConfig::default().mlab_volume_scale
        );
        assert!(WorldConfig::parse("seed\t1\nmlab_country_boost\tVE\n").is_err());
    }

    #[test]
    fn sidecar_parse_rejects_bad_input() {
        assert!(WorldConfig::parse("").is_err(), "missing keys");
        assert!(WorldConfig::parse("seed\t1\n").is_err(), "incomplete");
        let full = WorldConfig::default().to_text();
        assert!(WorldConfig::parse(&format!("{full}bogus\t1\n")).is_err());
        assert!(WorldConfig::parse(&full.replace('\t', " ")).is_err());
    }
}
