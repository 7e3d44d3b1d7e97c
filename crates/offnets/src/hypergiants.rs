//! The hypergiant catalogue: certificate domains and home ASNs.

use lacnet_types::Asn;

/// A content hypergiant tracked by the off-net study.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypergiant {
    /// Canonical name as used in the figures.
    pub name: &'static str,
    /// Certificate name patterns: `*.suffix` matches any label under the
    /// suffix (and the bare suffix); anything else matches exactly.
    pub cert_patterns: &'static [&'static str],
    /// The hypergiant's own ASNs — certificates served from these do NOT
    /// indicate off-nets.
    pub own_asns: &'static [Asn],
}

impl Hypergiant {
    /// Whether a certificate name belongs to this hypergiant. ASCII
    /// case-insensitive; compares bytes in place, so the detection's
    /// inner loop allocates nothing.
    pub fn matches_name(&self, name: &str) -> bool {
        let name = name.as_bytes();
        self.cert_patterns
            .iter()
            .any(|pat| match pat.strip_prefix("*.") {
                Some(suffix) => {
                    let Some(cut) = name.len().checked_sub(suffix.len()) else {
                        return false;
                    };
                    let (head, tail) = name.split_at(cut);
                    tail.eq_ignore_ascii_case(suffix.as_bytes())
                        && (head.is_empty() || head.ends_with(b"."))
                }
                None => name.eq_ignore_ascii_case(pat.as_bytes()),
            })
    }

    /// Whether `asn` is one of the hypergiant's own networks.
    pub fn owns_asn(&self, asn: Asn) -> bool {
        self.own_asns.contains(&asn)
    }
}

/// The ten hypergiants of Fig. 7 and Appendix G, with the certificate
/// vocabularies the detection keys on.
pub const HYPERGIANTS: &[Hypergiant] = &[
    Hypergiant {
        name: "Google",
        cert_patterns: &[
            "*.google.com",
            "*.gstatic.com",
            "*.googlevideo.com",
            "*.ggpht.com",
        ],
        own_asns: &[Asn(15169), Asn(36040), Asn(43515)],
    },
    Hypergiant {
        name: "Akamai",
        cert_patterns: &[
            "*.akamai.net",
            "*.akamaiedge.net",
            "*.akamaihd.net",
            "*.akamaized.net",
        ],
        own_asns: &[Asn(20940), Asn(16625), Asn(32787)],
    },
    Hypergiant {
        name: "Facebook",
        cert_patterns: &[
            "*.facebook.com",
            "*.fbcdn.net",
            "*.instagram.com",
            "*.whatsapp.net",
        ],
        own_asns: &[Asn(32934), Asn(63293)],
    },
    Hypergiant {
        name: "Netflix",
        cert_patterns: &["*.nflxvideo.net", "*.netflix.com", "*.nflximg.net"],
        own_asns: &[Asn(2906), Asn(40027)],
    },
    Hypergiant {
        name: "Microsoft",
        cert_patterns: &["*.msedge.net", "*.azureedge.net", "*.microsoft.com"],
        own_asns: &[Asn(8075), Asn(8068)],
    },
    Hypergiant {
        name: "Limelight",
        cert_patterns: &["*.llnwd.net", "*.llnwi.net"],
        own_asns: &[Asn(22822)],
    },
    Hypergiant {
        name: "Cdnetworks",
        cert_patterns: &["*.cdngc.net", "*.gccdn.net"],
        own_asns: &[Asn(36408)],
    },
    Hypergiant {
        name: "Alibaba",
        cert_patterns: &["*.alicdn.com", "*.alikunlun.com"],
        own_asns: &[Asn(45102), Asn(24429)],
    },
    Hypergiant {
        name: "Amazon",
        cert_patterns: &["*.cloudfront.net", "*.amazonaws.com", "*.media-amazon.com"],
        own_asns: &[Asn(16509), Asn(14618)],
    },
    Hypergiant {
        name: "Cloudflare",
        cert_patterns: &["*.cloudflare.com", "*.cloudflaressl.com"],
        own_asns: &[Asn(13335)],
    },
];

/// Look up a hypergiant by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<&'static Hypergiant> {
    HYPERGIANTS
        .iter()
        .find(|h| h.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn catalogue_is_the_appendix_g_ten() {
        assert_eq!(HYPERGIANTS.len(), 10);
        for name in [
            "Google",
            "Akamai",
            "Facebook",
            "Netflix",
            "Microsoft",
            "Limelight",
            "Cdnetworks",
            "Alibaba",
            "Amazon",
            "Cloudflare",
        ] {
            assert!(by_name(name).is_some(), "{name} missing");
        }
        assert!(by_name("Yahoo").is_none());
    }

    #[test]
    fn wildcard_matching() {
        let google = by_name("google").unwrap();
        assert!(google.matches_name("cache.google.com"));
        assert!(google.matches_name("r3---sn-abc.googlevideo.com"));
        assert!(google.matches_name("google.com"), "bare suffix matches");
        assert!(
            google.matches_name("edge.GSTATIC.com"),
            "matching is case-insensitive"
        );
        assert!(!google.matches_name("notgoogle.com"));
        assert!(!google.matches_name("google.com.evil.example"));
        assert!(!google.matches_name("fbcdn.net"));
        assert!(google.matches_name("*.google.com"), "wildcard cert names");
        assert!(google.matches_name(".google.com"));
        assert!(!google.matches_name("google.com."), "trailing dot");
        assert!(!google.matches_name("éGOOGLE.com"), "no dot boundary");
        assert!(!google.matches_name(""));
    }

    #[test]
    fn catalogue_patterns_are_lowercase_ascii() {
        // `matches_name` folds the case of both sides; the reference below
        // folds only the name's. They agree only while every pattern is
        // lower-case ASCII (certificate names are punycode).
        for hg in HYPERGIANTS {
            for pat in hg.cert_patterns {
                assert!(
                    pat.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()),
                    "{pat}"
                );
            }
        }
    }

    /// The allocating matcher `matches_name` replaced: lower-case a copy
    /// of the name and test each suffix with a formatted `.suffix`.
    fn matches_name_reference(hg: &Hypergiant, name: &str) -> bool {
        let name = name.to_ascii_lowercase();
        hg.cert_patterns
            .iter()
            .any(|pat| match pat.strip_prefix("*.") {
                Some(suffix) => name == suffix || name.ends_with(&format!(".{suffix}")),
                None => name == *pat,
            })
    }

    /// Name fragments: every catalogue suffix plus near misses, wildcard
    /// and dot debris, and non-ASCII letters (`ſ` and the Kelvin sign
    /// fold to ASCII only under Unicode rules, never under ASCII ones).
    fn fragments() -> Vec<&'static str> {
        let mut v: Vec<&'static str> = vec![
            "",
            ".",
            "..",
            "*",
            "*.",
            "www",
            "cache",
            "not",
            "com",
            "net",
            "evil.example",
            "r3---sn-abc",
            "é",
            "ſ",
            "\u{212A}",
            "ß",
            "-",
        ];
        v.extend(
            HYPERGIANTS
                .iter()
                .flat_map(|h| h.cert_patterns.iter())
                .map(|p| p.trim_start_matches("*.")),
        );
        v
    }

    /// Join fragments (each optionally preceded by a dot) and flip the
    /// case of the characters `case_mask` selects.
    fn build_name(parts: &[(usize, bool)], case_mask: u64) -> String {
        let vocab = fragments();
        let mut name = String::new();
        for &(i, dot) in parts {
            if dot {
                name.push('.');
            }
            name.push_str(vocab[i % vocab.len()]);
        }
        name.chars()
            .enumerate()
            .map(|(i, c)| {
                if case_mask >> (i % 64) & 1 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn matches_name_equals_the_allocating_reference(
            parts in collection::vec((0usize..1024, any::<bool>()), 0..5),
            case_mask in any::<u64>(),
        ) {
            let name = build_name(&parts, case_mask);
            for hg in HYPERGIANTS {
                prop_assert_eq!(
                    hg.matches_name(&name),
                    matches_name_reference(hg, &name),
                    "{} on {:?}", hg.name, name
                );
            }
        }
    }

    #[test]
    fn own_asn_detection() {
        let netflix = by_name("netflix").unwrap();
        assert!(netflix.owns_asn(Asn(2906)));
        assert!(!netflix.owns_asn(Asn(8048)));
    }

    #[test]
    fn patterns_do_not_overlap_across_hypergiants() {
        // A name matching one hypergiant must not match another — the
        // detection would otherwise double-attribute replicas.
        let names = [
            "edge.google.com",
            "x.akamaihd.net",
            "s.fbcdn.net",
            "v.nflxvideo.net",
            "c.msedge.net",
            "l.llnwd.net",
            "g.cdngc.net",
            "a.alicdn.com",
            "d.cloudfront.net",
            "w.cloudflare.com",
        ];
        for name in names {
            let hits = HYPERGIANTS.iter().filter(|h| h.matches_name(name)).count();
            assert_eq!(hits, 1, "{name} matched {hits} hypergiants");
        }
    }
}
