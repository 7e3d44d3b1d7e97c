//! Page-resource inventories: the component level of the scrape.
//!
//! Kumar et al.'s method doesn't stop at the landing page — it identifies
//! "the serving infrastructure for each component" a site loads. This
//! module models that inventory: per-page resource lists with the domain
//! and provider classification of every script, style, image and font,
//! and the dependency metrics derived from them (third-party resource
//! share, distinct providers per page — the centralisation signals of
//! the original study).

use crate::scrape::Provider;
use lacnet_types::json::{FromJson, Json, Parser, ToJson};
use lacnet_types::{Error, Result};
use std::collections::BTreeSet;

/// What kind of object a resource is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// JavaScript.
    Script,
    /// Stylesheets.
    Style,
    /// Images.
    Image,
    /// Web fonts.
    Font,
    /// XHR/fetch endpoints.
    Api,
}

impl ResourceKind {
    /// All kinds.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::Script,
        ResourceKind::Style,
        ResourceKind::Image,
        ResourceKind::Font,
        ResourceKind::Api,
    ];

    /// The kind's canonical name, as serialised.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Script => "Script",
            ResourceKind::Style => "Style",
            ResourceKind::Image => "Image",
            ResourceKind::Font => "Font",
            ResourceKind::Api => "Api",
        }
    }
}

impl ToJson for ResourceKind {
    fn to_json_value(&self) -> Json {
        Json::Str(self.name().to_owned())
    }
}

impl FromJson for ResourceKind {
    fn read_json(p: &mut Parser<'_>) -> Result<Self> {
        let name = p
            .read_str()?
            .ok_or_else(|| Error::invalid("resource kind must be a string"))?;
        ResourceKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| Error::parse("resource kind", &name))
    }
}

lacnet_types::impl_json_struct!(Resource {
    domain,
    kind,
    provider
});
lacnet_types::impl_json_struct!(PageResources {
    page_domain,
    resources
});

/// One fetched component of a page.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// The domain the component was fetched from.
    pub domain: String,
    /// Component kind.
    pub kind: ResourceKind,
    /// The infrastructure serving it.
    pub provider: Provider,
}

/// The full component inventory of one page.
#[derive(Debug, Clone, PartialEq)]
pub struct PageResources {
    /// The page's registered domain.
    pub page_domain: String,
    /// Every component the page loads.
    pub resources: Vec<Resource>,
}

impl PageResources {
    /// A page with no components yet.
    pub fn new(page_domain: &str) -> Self {
        PageResources {
            page_domain: page_domain.into(),
            resources: Vec::new(),
        }
    }

    /// Components fetched from a different registered domain than the
    /// page's.
    pub fn cross_origin(&self) -> impl Iterator<Item = &Resource> {
        self.resources
            .iter()
            .filter(|r| r.domain != self.page_domain)
    }

    /// Fraction of components served by third-party infrastructure.
    /// `None` for empty inventories.
    pub fn third_party_share(&self) -> Option<f64> {
        if self.resources.is_empty() {
            return None;
        }
        let tp = self
            .resources
            .iter()
            .filter(|r| r.provider.third_party)
            .count();
        Some(tp as f64 / self.resources.len() as f64)
    }

    /// Distinct third-party providers the page depends on.
    pub fn provider_set(&self) -> BTreeSet<&str> {
        self.resources
            .iter()
            .filter(|r| r.provider.third_party)
            .map(|r| r.provider.name.as_str())
            .collect()
    }

    /// Whether losing `provider` would break any component of the page —
    /// the single-provider-dependency signal.
    pub fn depends_on(&self, provider: &str) -> bool {
        self.resources
            .iter()
            .any(|r| r.provider.third_party && r.provider.name == provider)
    }
}

/// Aggregate dependency metrics over many pages (one country's top list).
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyReport {
    /// Mean third-party component share across pages with components.
    pub mean_third_party_share: f64,
    /// Mean number of distinct third-party providers per page.
    pub mean_providers_per_page: f64,
    /// Fraction of pages depending on the single most-used provider.
    pub top_provider_reach: f64,
    /// The most-used provider's name, when any third-party exists.
    pub top_provider: Option<String>,
}

/// Compute the report. Returns `None` when no page has components.
pub fn dependency_report(pages: &[PageResources]) -> Option<DependencyReport> {
    let with: Vec<&PageResources> = pages.iter().filter(|p| !p.resources.is_empty()).collect();
    if with.is_empty() {
        return None;
    }
    let mean_share = with
        .iter()
        .filter_map(|p| p.third_party_share())
        .sum::<f64>()
        / with.len() as f64;
    let mean_providers = with
        .iter()
        .map(|p| p.provider_set().len() as f64)
        .sum::<f64>()
        / with.len() as f64;
    // The provider reaching the most pages.
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for p in &with {
        for name in p.provider_set() {
            *counts.entry(name).or_insert(0) += 1;
        }
    }
    let top = counts.into_iter().max_by_key(|&(_, n)| n);
    Some(DependencyReport {
        mean_third_party_share: mean_share,
        mean_providers_per_page: mean_providers,
        top_provider_reach: top
            .map(|(_, n)| n as f64 / with.len() as f64)
            .unwrap_or(0.0),
        top_provider: top.map(|(name, _)| name.to_owned()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(domain: &str, kind: ResourceKind, provider: Provider) -> Resource {
        Resource {
            domain: domain.into(),
            kind,
            provider,
        }
    }

    fn page() -> PageResources {
        PageResources {
            page_domain: "sitio.com.ve".into(),
            resources: vec![
                res("sitio.com.ve", ResourceKind::Image, Provider::self_hosted()),
                res(
                    "cdn.sitio.com.ve",
                    ResourceKind::Style,
                    Provider::self_hosted(),
                ),
                res(
                    "static.cloudflare.com",
                    ResourceKind::Script,
                    Provider::third_party("Cloudflare"),
                ),
                res(
                    "fonts.gstatic.com",
                    ResourceKind::Font,
                    Provider::third_party("Google Fonts"),
                ),
            ],
        }
    }

    #[test]
    fn per_page_metrics() {
        let p = page();
        assert_eq!(p.third_party_share(), Some(0.5));
        assert_eq!(p.cross_origin().count(), 3);
        assert_eq!(p.provider_set().len(), 2);
        assert!(p.depends_on("Cloudflare"));
        assert!(!p.depends_on("Fastly"));
        assert_eq!(PageResources::new("x.com").third_party_share(), None);
    }

    #[test]
    fn aggregate_report() {
        let mut p2 = PageResources::new("otro.com.ve");
        p2.resources.push(res(
            "static.cloudflare.com",
            ResourceKind::Script,
            Provider::third_party("Cloudflare"),
        ));
        let report = dependency_report(&[page(), p2, PageResources::new("vacio.com.ve")]).unwrap();
        assert!((report.mean_third_party_share - 0.75).abs() < 1e-9);
        assert!((report.mean_providers_per_page - 1.5).abs() < 1e-9);
        assert_eq!(report.top_provider.as_deref(), Some("Cloudflare"));
        assert!(
            (report.top_provider_reach - 1.0).abs() < 1e-9,
            "Cloudflare on both pages"
        );
        assert!(dependency_report(&[]).is_none());
        assert!(dependency_report(&[PageResources::new("a.b")]).is_none());
    }

    #[test]
    fn json_roundtrip() {
        let p = page();
        let json = lacnet_types::json::to_string(&p);
        assert!(json.contains("\"kind\":\"Script\""), "{json}");
        let back: PageResources = lacnet_types::json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert!(lacnet_types::json::from_str::<ResourceKind>("\"Video\"").is_err());
    }
}
