//! Fig. 7 — population coverage of Google/Akamai/Facebook/Netflix
//! off-nets, 2013–2021.

use crate::artifact::{Artifact, ExperimentResult, Figure, Finding, Line, Panel};
use crate::source::DataSource;
use lacnet_offnets::detect;
use lacnet_offnets::hypergiants::by_name;
use lacnet_types::country;

/// The figure's four providers.
pub const FIG7_PROVIDERS: [&str; 4] = ["Google", "Akamai", "Facebook", "Netflix"];

/// The figure's six countries.
fn fig7_countries() -> Vec<lacnet_types::CountryCode> {
    vec![
        country::AR,
        country::BR,
        country::CL,
        country::CO,
        country::MX,
        country::VE,
    ]
}

/// Run the experiment.
pub fn run(src: &DataSource) -> ExperimentResult {
    let mut panels = Vec::new();
    let mut findings = Vec::new();

    let countries = fig7_countries();
    for name in FIG7_PROVIDERS {
        let hg = by_name(name).expect("catalogued hypergiant");
        let table = detect::coverage_table(
            &src.cert_scans,
            hg,
            &countries,
            src.operators.populations(),
            src.operators.as2org(),
        );
        let lines = countries
            .iter()
            .zip(table)
            .map(|(cc, series)| Line::new(cc.as_str(), series))
            .collect();
        panels.push(Panel::new(name, lines));
    }

    // VE mean coverage per provider (§5.5's ranking metric).
    for (name, paper_mean, tol) in [
        ("Google", 56.88, 0.15),
        ("Akamai", 35.74, 0.15),
        ("Facebook", 28.33, 0.25),
        ("Netflix", 5.87, 0.4),
    ] {
        let measured = lacnet_crisis::cdn::ve_mean_coverage(&src.operators, &src.cert_scans, name);
        findings.push(Finding::numeric(
            format!("VE mean coverage, {name} (%)"),
            paper_mean,
            measured,
            tol,
        ));
    }
    // The dual trend: early providers in VE pre-crisis, late ones modest.
    let netflix = by_name("Netflix").unwrap();
    let google = by_name("Google").unwrap();
    let hosts_2014 = detect::detect_offnets(&src.cert_scans[1], google);
    let ve_google_2014 = detect::population_coverage(
        &hosts_2014,
        country::VE,
        src.operators.populations(),
        src.operators.as2org(),
    );
    let hosts_2016 = detect::detect_offnets(&src.cert_scans[3], netflix);
    let ve_netflix_2016 = detect::population_coverage(
        &hosts_2016,
        country::VE,
        src.operators.populations(),
        src.operators.as2org(),
    );
    findings.push(Finding::claim(
        "dual trend: Google established pre-crisis, Netflix delayed",
        "Google 2014 coverage high, Netflix 2016 ≈ 0",
        format!("Google 2014: {ve_google_2014:.1}%, Netflix 2016: {ve_netflix_2016:.1}%"),
        ve_google_2014 > 30.0 && ve_netflix_2016 < 1.0,
    ));

    ExperimentResult {
        id: "fig07".into(),
        title: "Hypergiant off-net population coverage".into(),
        artifacts: vec![Artifact::Figure(Figure {
            id: "fig07".into(),
            caption: "Share of each country's Internet population in networks hosting off-nets"
                .into(),
            panels,
        })],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Figure(fig) = &r.artifacts[0] else {
            panic!()
        };
        assert_eq!(fig.panels.len(), 4);
        assert_eq!(fig.panels[0].lines.len(), 6);
    }
}
