//! Fig. 14 (Appendix C) — per-prefix visibility of Telefónica de
//! Venezuela's announcements, 2016–2024.

use crate::artifact::{Artifact, ExperimentResult, Finding, Heatmap};
use crate::source::DataSource;
use lacnet_crisis::addressing;
use lacnet_types::{sweep, Asn, Ipv4Net, MonthStamp};
use std::collections::BTreeMap;

/// Run the experiment. Columns are quarterly to match the paper's
/// rendering; visibility is read from the monthly pfx2as snapshots.
pub fn run(src: &DataSource) -> ExperimentResult {
    let telefonica = Asn(6306);
    let start = MonthStamp::new(2016, 1);
    let end = src.config.end;
    let months: Vec<MonthStamp> = start
        .through(end)
        .filter(|m| matches!(m.month(), 3 | 6 | 9 | 12))
        .collect();

    // Union of all prefixes ever announced by Telefónica over the window:
    // read each column's snapshot across worker threads, then merge in
    // column order.
    let columns = sweep::months_sweep(&months, |m| src.pfx2as_at(m).prefixes_of(telefonica));
    let mut prefixes: BTreeMap<Ipv4Net, Vec<bool>> = BTreeMap::new();
    for (col, (_, announced)) in columns.into_iter().enumerate() {
        for p in announced {
            prefixes
                .entry(p)
                .or_insert_with(|| vec![false; months.len()])[col] = true;
        }
    }
    // Rows created late start with `false` columns, which is correct.
    let rows: Vec<Ipv4Net> = prefixes.keys().copied().collect();
    let cells: Vec<Vec<Option<f64>>> = prefixes
        .values()
        .map(|row| {
            row.iter()
                .map(|&b| if b { Some(1.0) } else { None })
                .collect()
        })
        .collect();

    let heat = Heatmap {
        id: "fig14".into(),
        caption: "Prefixes announced by Telefónica de Venezuela (AS6306), 2016–2024".into(),
        rows: rows.iter().map(|p| p.to_string()).collect(),
        cols: months.iter().map(|m| m.to_string()).collect(),
        cells,
    };

    // Findings: /17s disappear around June 2016 and the space returns in
    // 2023 as larger blocks.
    let col_of = |m: MonthStamp| months.iter().position(|&x| x == m);
    let visible_17s_at = |m: MonthStamp| -> usize {
        col_of(m)
            .map(|c| {
                prefixes
                    .iter()
                    .filter(|(p, row)| p.len() == 17 && row[c])
                    .count()
            })
            .unwrap_or(0)
    };
    let visible_aggregates_at = |m: MonthStamp| -> usize {
        col_of(m)
            .map(|c| {
                prefixes
                    .iter()
                    .filter(|(p, row)| p.len() < 17 && row[c])
                    .count()
            })
            .unwrap_or(0)
    };

    let pre = visible_17s_at(MonthStamp::new(2016, 3));
    let mid = visible_17s_at(MonthStamp::new(2019, 3));
    let post_aggr = visible_aggregates_at(
        end.plus(-(end.month() as i32 % 3))
            .max(MonthStamp::new(2023, 9)),
    );

    let findings = vec![
        Finding::claim(
            "several /17s vanish around June 2016",
            "fewer /17s visible after mid-2016",
            format!("{pre} /17s in 2016-03 → {mid} in 2019-03"),
            mid < pre && pre > 0,
        ),
        Finding::claim(
            "blocks reappear in June 2023 as larger aggregates",
            "aggregate (< /17) announcements in late 2023",
            format!("{post_aggr} aggregate prefixes visible"),
            post_aggr > 0,
        ),
        Finding::claim(
            "allocated space unchanged during the gap",
            "ledger shows no contraction",
            "ledger is append-only",
            {
                let l = &src.ledger;
                l.space_of_holder(telefonica, addressing::withdrawal_end().first_day())
                    >= l.space_of_holder(telefonica, addressing::withdrawal_start().first_day())
            },
        ),
    ];

    ExperimentResult {
        id: "fig14".into(),
        title: "Telefónica prefix visibility".into(),
        artifacts: vec![Artifact::Heatmap(heat)],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_reproduces() {
        let src = crate::experiments::testworld::source();
        let r = run(src);
        assert!(r.all_match(), "{:#?}", r.findings);
        let Artifact::Heatmap(h) = &r.artifacts[0] else {
            panic!()
        };
        assert!(h.rows.len() >= 15, "rows: {}", h.rows.len());
    }
}
