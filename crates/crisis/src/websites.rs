//! Top-site scrapes and third-party adoption (Fig. 19 / Appendix H).
//!
//! Fig. 19 covers nine countries. Per-country adoption probabilities are
//! set so both the *values* the paper quotes (Venezuela: DNS 0.29,
//! HTTPS 0.58, CA 0.22, CDN 0.37; regional means 0.32/0.60/0.26/0.46)
//! and the *bar orderings* of all four panels reproduce. Each country's
//! list mixes globally shared sites (which the unique-site filter must
//! drop) with domestic sites sampled from those probabilities.

use lacnet_types::rng::Rng;
use lacnet_types::CountryCode;
use lacnet_webmeas::scrape::{CountryTopSites, Provider, SiteObservation};

/// `(country, p_dns, p_https, p_ca, p_cdn)` — the marginal adoption
/// probabilities of a domestic site.
const ADOPTION: &[(&str, f64, f64, f64, f64)] = &[
    ("BO", 0.20, 0.45, 0.12, 0.25),
    ("VE", 0.29, 0.58, 0.22, 0.37),
    ("AR", 0.30, 0.50, 0.26, 0.50),
    ("PY", 0.31, 0.59, 0.24, 0.30),
    ("BR", 0.33, 0.72, 0.30, 0.55),
    ("CL", 0.36, 0.68, 0.28, 0.62),
    ("CO", 0.37, 0.55, 0.33, 0.40),
    ("MX", 0.38, 0.63, 0.35, 0.48),
    ("UY", 0.40, 0.65, 0.25, 0.45),
];

/// Sites shared by every country's top list (filtered out by the
/// unique-sites step, as in the paper's methodology).
const GLOBAL_SITES: &[&str] = &[
    "google.com",
    "youtube.com",
    "facebook.com",
    "whatsapp.com",
    "instagram.com",
    "wikipedia.org",
    "twitter.com",
    "netflix.com",
    "tiktok.com",
    "amazon.com",
    "live.com",
    "bing.com",
    "yahoo.com",
    "telegram.org",
    "linkedin.com",
];

/// Number of domestic (unique) sites per country list.
const DOMESTIC_SITES: usize = 700;

/// Generate the per-country top-site lists (shared + domestic).
pub fn build_top_sites(seed: u64) -> Vec<CountryTopSites> {
    let root = Rng::seeded(seed);
    ADOPTION
        .iter()
        .map(|&(cc, p_dns, p_https, p_ca, p_cdn)| {
            let code = CountryCode::of(cc);
            let mut rng = root.fork(&format!("websites/{cc}"));
            let mut sites = Vec::with_capacity(GLOBAL_SITES.len() + DOMESTIC_SITES);
            // Shared heads of every list: big third-party everything.
            for d in GLOBAL_SITES {
                sites.push(SiteObservation {
                    domain: (*d).to_owned(),
                    https: true,
                    dns_provider: Provider::third_party("SelfDNS-Global"),
                    ca: Provider::third_party("DigiCert"),
                    cdn: Some(Provider::third_party("Global CDN")),
                });
            }
            // Domestic tail: unique domains sampled from the country's
            // adoption profile.
            for i in 0..DOMESTIC_SITES {
                let https = rng.chance(p_https);
                // CA adoption is conditional on HTTPS so the *marginal*
                // matches p_ca.
                let ca3p = https && rng.chance(p_ca / p_https);
                sites.push(SiteObservation {
                    domain: format!("sitio-{}-{:03}.{}", cc.to_lowercase(), i, tld(cc)),
                    https,
                    dns_provider: if rng.chance(p_dns) {
                        Provider::third_party("Cloudflare DNS")
                    } else {
                        Provider::self_hosted()
                    },
                    ca: if ca3p {
                        Provider::third_party("Lets Encrypt")
                    } else {
                        Provider::self_hosted()
                    },
                    cdn: rng
                        .chance(p_cdn)
                        .then(|| Provider::third_party("Cloudflare")),
                });
            }
            CountryTopSites {
                country: code,
                sites,
            }
        })
        .collect()
}

fn tld(cc: &str) -> &'static str {
    match cc {
        "VE" => "com.ve",
        "AR" => "com.ar",
        "BR" => "com.br",
        "CL" => "cl",
        "CO" => "com.co",
        "MX" => "com.mx",
        "UY" => "com.uy",
        "PY" => "com.py",
        "BO" => "com.bo",
        _ => "lat",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacnet_types::country;
    use lacnet_webmeas::scrape::unique_sites;
    use lacnet_webmeas::thirdparty::{AdoptionReport, ServiceKind};

    fn report() -> AdoptionReport {
        let lists = build_top_sites(42);
        let unique = unique_sites(&lists);
        AdoptionReport::compute(&unique)
    }

    #[test]
    fn unique_filter_removes_global_heads() {
        let lists = build_top_sites(42);
        let unique = unique_sites(&lists);
        for list in &unique {
            assert_eq!(list.sites.len(), DOMESTIC_SITES, "{}", list.country);
            assert!(list
                .sites
                .iter()
                .all(|s| !GLOBAL_SITES.contains(&s.domain.as_str())));
        }
    }

    #[test]
    fn fig19_ve_values() {
        let r = report();
        let ve = |k| r.get(country::VE, k).unwrap();
        assert!(
            (ve(ServiceKind::Dns) - 0.29).abs() < 0.05,
            "DNS {}",
            ve(ServiceKind::Dns)
        );
        assert!(
            (ve(ServiceKind::Https) - 0.58).abs() < 0.05,
            "HTTPS {}",
            ve(ServiceKind::Https)
        );
        assert!(
            (ve(ServiceKind::Ca) - 0.22).abs() < 0.05,
            "CA {}",
            ve(ServiceKind::Ca)
        );
        assert!(
            (ve(ServiceKind::Cdn) - 0.37).abs() < 0.05,
            "CDN {}",
            ve(ServiceKind::Cdn)
        );
    }

    #[test]
    fn fig19_regional_means() {
        let r = report();
        let mean = |k| r.regional_mean(k).unwrap();
        assert!(
            (mean(ServiceKind::Dns) - 0.32).abs() < 0.04,
            "DNS {}",
            mean(ServiceKind::Dns)
        );
        assert!(
            (mean(ServiceKind::Https) - 0.60).abs() < 0.04,
            "HTTPS {}",
            mean(ServiceKind::Https)
        );
        assert!(
            (mean(ServiceKind::Ca) - 0.26).abs() < 0.04,
            "CA {}",
            mean(ServiceKind::Ca)
        );
        assert!(
            (mean(ServiceKind::Cdn) - 0.46).abs() < 0.06,
            "CDN {}",
            mean(ServiceKind::Cdn)
        );
    }

    #[test]
    fn fig19_venezuela_near_bottom_except_https() {
        let r = report();
        for kind in [ServiceKind::Dns, ServiceKind::Ca, ServiceKind::Cdn] {
            let ranking = r.ranking(kind);
            let pos = ranking
                .iter()
                .position(|&(cc, _)| cc == country::VE)
                .unwrap();
            // Sampling noise can swap adjacent bars (the VE–CO CDN gap
            // is 0.03); the claim is "near the bottom", not an exact slot.
            assert!(pos <= 3, "{kind:?}: VE at position {pos}");
            assert_eq!(
                ranking[0].0,
                CountryCode::of("BO"),
                "{kind:?}: Bolivia lowest"
            );
        }
        // HTTPS: VE sits mid-pack, slightly below the mean but above AR/CO.
        let https = r.ranking(ServiceKind::Https);
        let pos = https.iter().position(|&(cc, _)| cc == country::VE).unwrap();
        assert!((2..=5).contains(&pos), "HTTPS position {pos}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_top_sites(7);
        let b = build_top_sites(7);
        assert_eq!(a, b);
        let c = build_top_sites(8);
        assert_ne!(a, c);
    }
}
