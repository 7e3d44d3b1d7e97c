//! Hop-by-hop traceroute simulation and its archive format.
//!
//! The GPDNS campaign (MSM 1591146) is a *traceroute* measurement; the
//! study uses only the destination RTT, but the raw archive carries full
//! hop lists. This module produces those: a probe's path to an anycast
//! site expands into last-mile, per-AS transit, optional egress-gateway,
//! and destination hops, each with a plausible cumulative RTT. A
//! tab-separated archive format round-trips the records.

use crate::anycast::AnycastSite;
use crate::gpdns::LatencyModel;
use crate::probes::{Probe, ProbeId};
use lacnet_types::rng::Rng;
use lacnet_types::{Asn, Error, MonthStamp, Result};
use std::str::FromStr;

/// One traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Hop index, 1-based.
    pub hop: u8,
    /// AS owning the responding router, when known (`None` renders as
    /// `*`, a non-responding hop).
    pub asn: Option<Asn>,
    /// RTT to this hop, ms.
    pub rtt_ms: f64,
}

/// One traceroute result.
#[derive(Debug, Clone, PartialEq)]
pub struct Traceroute {
    /// Probe that ran the measurement.
    pub probe: ProbeId,
    /// Measurement month.
    pub month: MonthStamp,
    /// Destination label (site id for anycast targets).
    pub target: String,
    /// The hops, in order.
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub dst_reached: bool,
}

impl Traceroute {
    /// Serialise as archive text: a header line
    /// `probe<TAB>month<TAB>target<TAB>reached` followed by one
    /// `hop<TAB>asn|*<TAB>rtt` line per hop and a blank terminator.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{}\t{}\t{}\t{}\n",
            self.probe,
            self.month,
            self.target,
            if self.dst_reached {
                "reached"
            } else {
                "incomplete"
            }
        );
        for h in &self.hops {
            let asn = h
                .asn
                .map(|a| a.raw().to_string())
                .unwrap_or_else(|| "*".into());
            out.push_str(&format!("{}\t{}\t{:.2}\n", h.hop, asn, h.rtt_ms));
        }
        out.push('\n');
        out
    }
}

/// Parse one or more traceroutes from archive text.
pub fn parse_traceroutes(text: &str) -> Result<Vec<Traceroute>> {
    let mut out = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(header) = lines.next() {
        let header = header.trim();
        if header.is_empty() {
            continue;
        }
        let cols: Vec<&str> = header.split('\t').collect();
        if cols.len() != 4 {
            return Err(Error::parse("traceroute header (4 columns)", header));
        }
        let probe: ProbeId = cols[0]
            .parse()
            .map_err(|_| Error::parse("probe id", header))?;
        let month: MonthStamp = cols[1].parse()?;
        let target = cols[2].to_owned();
        let dst_reached = match cols[3] {
            "reached" => true,
            "incomplete" => false,
            other => return Err(Error::parse("reached|incomplete", other)),
        };
        let mut hops = Vec::new();
        for line in lines.by_ref() {
            let line = line.trim();
            if line.is_empty() {
                break;
            }
            let h: Hop = line.parse()?;
            hops.push(h);
        }
        out.push(Traceroute {
            probe,
            month,
            target,
            hops,
            dst_reached,
        });
    }
    Ok(out)
}

impl FromStr for Hop {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        let cols: Vec<&str> = s.split('\t').collect();
        if cols.len() != 3 {
            return Err(Error::parse("hop line (3 columns)", s));
        }
        let hop: u8 = cols[0].parse().map_err(|_| Error::parse("hop index", s))?;
        let asn = if cols[1] == "*" {
            None
        } else {
            Some(Asn(cols[1]
                .parse()
                .map_err(|_| Error::parse("hop asn", s))?))
        };
        let rtt_ms: f64 = cols[2].parse().map_err(|_| Error::parse("hop rtt", s))?;
        Ok(Hop { hop, asn, rtt_ms })
    }
}

/// Simulate one traceroute from `probe` to `site`, expanding the AS path
/// into hops. `as_path` runs probe-side first (the probe's own AS) and
/// ends with the AS that hosts the destination. Per-hop RTTs are
/// monotone non-decreasing up to jitter; a small loss probability leaves
/// non-responding (`*`) hops.
pub fn simulate(
    probe: &Probe,
    site: &AnycastSite,
    model: &LatencyModel,
    as_path: &[Asn],
    month: MonthStamp,
    rng: &mut Rng,
) -> Traceroute {
    let total = model.base_rtt_ms(probe, site)
        + model.congestion_median_ms * rng.log_normal(0.0, model.congestion_sigma);
    // Hop budget: the last mile plus 2 hops per transit AS.
    let n_as = as_path.len().max(1);
    let mut hops = Vec::new();
    let mut idx = 1u8;
    // Last-mile hop inside the probe's AS.
    hops.push(Hop {
        hop: idx,
        asn: as_path.first().copied(),
        rtt_ms: model.last_mile_ms * (0.4 + 0.4 * rng.f64()),
    });
    idx += 1;
    // Transit hops: split the remaining propagation budget across the
    // path, front-loaded toward the destination side when an egress
    // detour exists (the long haul is the first inter-AS link).
    let remaining = (total - hops[0].rtt_ms).max(0.5);
    let inter = n_as.max(2) - 1;
    for (k, asn) in as_path.iter().enumerate().skip(1) {
        let frac = (k as f64) / inter as f64;
        // Two router hops per AS: entry and exit.
        for sub in 0..2 {
            let progress =
                (frac - 0.5 / inter as f64 + sub as f64 * 0.25 / inter as f64).clamp(0.05, 1.0);
            let rtt = hops[0].rtt_ms + remaining * progress * (0.95 + 0.1 * rng.f64());
            let responds = rng.f64() > 0.06;
            hops.push(Hop {
                hop: idx,
                asn: responds.then_some(*asn),
                rtt_ms: rtt,
            });
            idx += 1;
        }
    }
    // Destination hop at the full RTT.
    let dst_reached = rng.f64() > 0.02;
    if dst_reached {
        hops.push(Hop {
            hop: idx,
            asn: as_path.last().copied(),
            rtt_ms: total,
        });
    }
    Traceroute {
        probe: probe.id,
        month,
        target: site.id.clone(),
        hops,
        dst_reached,
    }
}

/// Convenience AS path for a GPDNS-style destination: the probe's AS, a
/// transit AS per thousand km of path (capped), and Google's AS15169.
pub fn gpdns_path(probe: &Probe, site: &AnycastSite, transits: &[Asn]) -> Vec<Asn> {
    let km = site.path_km(probe);
    let n = ((km / 1500.0).ceil() as usize).clamp(1, transits.len().max(1));
    let mut path = vec![probe.asn];
    path.extend(transits.iter().take(n).copied());
    path.push(Asn(15169));
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::SiteScope;
    use lacnet_types::geo;
    use lacnet_types::{country, GeoPoint};

    /// The destination RTT, if reached.
    fn dst_rtt_ms(tr: &Traceroute) -> Option<f64> {
        if tr.dst_reached {
            tr.hops.last().map(|h| h.rtt_ms)
        } else {
            None
        }
    }

    fn probe() -> Probe {
        Probe {
            id: 7,
            country: country::VE,
            location: GeoPoint::new(10.48, -66.90),
            asn: Asn(8048),
            active_since: MonthStamp::new(2014, 1),
            active_until: None,
            egress: Some(geo::airport("mia").unwrap().location),
        }
    }

    fn site() -> AnycastSite {
        AnycastSite {
            id: "mia".into(),
            location: geo::airport("mia").unwrap().location,
            scope: SiteScope::Global,
        }
    }

    #[test]
    fn simulated_traceroute_shape() {
        let p = probe();
        let s = site();
        let model = LatencyModel::default();
        let path = gpdns_path(&p, &s, &[Asn(23520), Asn(6762)]);
        assert_eq!(path[0], Asn(8048));
        assert_eq!(*path.last().unwrap(), Asn(15169));
        let mut rng = Rng::seeded(5);
        let tr = simulate(&p, &s, &model, &path, MonthStamp::new(2020, 6), &mut rng);
        assert!(tr.hops.len() >= 3);
        assert_eq!(tr.hops[0].hop, 1);
        // Hop indices strictly increase.
        assert!(tr.hops.windows(2).all(|w| w[1].hop == w[0].hop + 1));
        if tr.dst_reached {
            let dst = dst_rtt_ms(&tr).unwrap();
            assert!(dst >= model.base_rtt_ms(&p, &s), "dst RTT under the floor");
            // RTTs never decrease by more than jitter.
            assert!(tr.hops.windows(2).all(|w| w[1].rtt_ms >= w[0].rtt_ms * 0.8));
        }
    }

    #[test]
    fn destination_rtt_matches_model_scale() {
        let p = probe();
        let s = site();
        let model = LatencyModel::default();
        let path = gpdns_path(&p, &s, &[Asn(23520)]);
        let mut rng = Rng::seeded(11);
        let mut min = f64::INFINITY;
        for _ in 0..50 {
            let tr = simulate(&p, &s, &model, &path, MonthStamp::new(2020, 6), &mut rng);
            if let Some(d) = dst_rtt_ms(&tr) {
                min = min.min(d);
            }
        }
        // Caracas→Miami via the model ≈ 34 ms floor.
        let base = model.base_rtt_ms(&p, &s);
        assert!((min - base).abs() < 3.0, "min {min} vs base {base}");
    }

    #[test]
    fn archive_roundtrip() {
        let p = probe();
        let s = site();
        let model = LatencyModel::default();
        let path = gpdns_path(&p, &s, &[Asn(23520), Asn(6762)]);
        let mut rng = Rng::seeded(3);
        let mut text = String::new();
        let mut originals = Vec::new();
        for _ in 0..5 {
            let tr = simulate(&p, &s, &model, &path, MonthStamp::new(2020, 6), &mut rng);
            text.push_str(&tr.to_text());
            originals.push(tr);
        }
        let parsed = parse_traceroutes(&text).expect("own output parses");
        assert_eq!(parsed.len(), originals.len());
        for (a, b) in parsed.iter().zip(&originals) {
            assert_eq!(a.probe, b.probe);
            assert_eq!(a.hops.len(), b.hops.len());
            assert_eq!(a.dst_reached, b.dst_reached);
            for (ha, hb) in a.hops.iter().zip(&b.hops) {
                assert_eq!(ha.asn, hb.asn);
                assert!((ha.rtt_ms - hb.rtt_ms).abs() < 0.01);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(
            parse_traceroutes("7\t2020-06\tmia\n").is_err(),
            "missing column"
        );
        assert!(parse_traceroutes("7\t2020-06\tmia\tmaybe\n").is_err());
        assert!(parse_traceroutes("7\t2020-06\tmia\treached\nbogus hop\n").is_err());
        assert!(parse_traceroutes("").unwrap().is_empty());
    }

    #[test]
    fn gpdns_path_scales_with_distance() {
        let p = probe();
        let near = AnycastSite {
            id: "bog".into(),
            location: geo::airport("bog").unwrap().location,
            scope: SiteScope::Global,
        };
        let transits = [Asn(23520), Asn(6762), Asn(3356), Asn(1299)];
        let far_path = gpdns_path(&p, &site(), &transits);
        let mut direct = p.clone();
        direct.egress = None;
        let near_path = gpdns_path(&direct, &near, &transits);
        assert!(far_path.len() >= near_path.len());
    }
}
