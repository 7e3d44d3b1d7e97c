//! `--compare PARENT CHANGE`: judge two sets of recorded runs by the
//! paired rule.
//!
//! Each file holds the JSON lines `--record` appends, one per run; run
//! `i` of the parent pairs with run `i` of the change, so alternate the
//! two commits while recording. For every workload and end-to-end
//! metric (with its direction and bound from `BENCHMARK.json`):
//!
//! * a **win** needs at least ten pairs, the change better in at least
//!   nine tenths of them (ties count for neither), and medians further
//!   apart than the parent's interquartile range — and no more failed
//!   operations in the change's runs than in the parent's; a gain that
//!   fails more is reported as a **regression** instead;
//! * otherwise, where either side's spread (IQR over median) exceeds
//!   the bound, the metric is **unresolved** — unless every change run
//!   beats every parent run, which is **not a regression** but no win;
//! * otherwise a change median worse by more than the bound is a
//!   **regression**, and anything else is **within bound**.

use crate::stats::{median, python_quartiles};
use lacnet_types::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Fewest pairs a verdict other than "too few pairs" needs.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Fewer than [`MIN_PAIRS`] pairs were recorded.
    TooFewPairs(usize),
    /// The change wins by the paired rule.
    Win,
    /// The change would win, but it failed more operations than the parent.
    MoreFailures,
    /// Spread too wide to call, yet every change run beats every parent run.
    BetterEveryRun,
    /// Spread wider than the bound: neither a win nor a regression can be told.
    Unresolved,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// No win, and no worse than the bound.
    WithinBound,
}

impl Verdict {
    fn label(self) -> String {
        match self {
            Verdict::TooFewPairs(n) => format!("too few pairs ({n} < {MIN_PAIRS})"),
            Verdict::Win => "win".into(),
            Verdict::MoreFailures => "REGRESSION (faster, but fails more operations)".into(),
            Verdict::BetterEveryRun => "better in every run (spread above bound)".into(),
            Verdict::Unresolved => "unresolved (spread above bound)".into(),
            Verdict::Regression => "REGRESSION".into(),
            Verdict::WithinBound => "within bound".into(),
        }
    }
}

fn spread(values: &[f64]) -> f64 {
    match (python_quartiles(values), median(values)) {
        (Some([q1, _, q3]), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => f64::INFINITY,
    }
}

/// Judge `change` against `parent`, pairing runs by position.
/// `more_failures` says the change's runs failed more operations than
/// the parent's, which turns a win into a regression.
pub fn verdict(parent: &[f64], change: &[f64], rule: &Rule, more_failures: bool) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::TooFewPairs(pairs);
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let better = |c: f64, p: f64| if rule.lower_is_better { c < p } else { c > p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let mp = median(parent).expect("pairs > 0");
    let mc = median(change).expect("pairs > 0");
    let [q1, _, q3] = python_quartiles(parent).expect("pairs > 1");
    if wins * 10 >= pairs * 9 && (mc - mp).abs() > q3 - q1 {
        return if more_failures {
            Verdict::MoreFailures
        } else {
            Verdict::Win
        };
    }
    if spread(parent).max(spread(change)) > rule.bound {
        let every = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if every {
            Verdict::BetterEveryRun
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if rule.lower_is_better {
        mc - mp
    } else {
        mp - mc
    } / mp.abs();
    if worse > rule.bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The end-to-end rules in the `BENCHMARK.json` at `path`.
pub fn load_rules(path: &Path) -> Result<Vec<Rule>, String> {
    parse_rules(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end rules in `BENCHMARK.json` text.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// One recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Failed operations; a run not marked correct counts at least one.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Recorded runs: per workload (in first-seen order), each run.
pub type Runs = Vec<(String, Vec<Run>)>;

/// Read the JSON lines `--record` wrote to `path`.
pub fn load_runs(path: &Path) -> Result<Runs, String> {
    parse_runs(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse JSON lines `--record` wrote.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs: Runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("line {}", n + 1);
        let json = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?
            .to_owned();
        let failed = json
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: no failed count", at()))? as u64;
        let correct = json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{}: no correct flag", at()))?;
        let metrics = match json.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            _ => return Err(format!("{}: no metrics object", at())),
        };
        let run = Run {
            failed: failed.max(u64::from(!correct)),
            metrics,
        };
        match runs.iter_mut().find(|(w, _)| *w == workload) {
            Some((_, list)) => list.push(run),
            None => runs.push((workload, vec![run])),
        }
    }
    Ok(runs)
}

fn describe(values: &[f64]) -> String {
    match (median(values), python_quartiles(values)) {
        (Some(m), Some([q1, _, q3])) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "-".into(),
    }
}

/// The comparison table for two record files.
pub fn report(rules: &[Rule], parent: &Runs, change: &Runs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<18} {:>28} {:>28} {:>5} {:>4}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pairs", "wins"
    );
    for (workload, parent_runs) in parent {
        let Some((_, change_runs)) = change.iter().find(|(w, _)| w == workload) else {
            let _ = writeln!(out, "{workload:<11} (no change runs)");
            continue;
        };
        let pairs = parent_runs.len().min(change_runs.len());
        let failed = |runs: &[Run]| runs[..pairs].iter().map(|r| r.failed).sum::<u64>();
        let (parent_failed, change_failed) = (failed(parent_runs), failed(change_runs));
        let _ = writeln!(
            out,
            "{workload:<11} failed operations over {pairs} pairs: parent {parent_failed}, change {change_failed}"
        );
        let mut verdicts = Vec::new();
        for rule in rules {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&rule.name).copied())
                    .collect()
            };
            let (p, c) = (values(parent_runs), values(change_runs));
            let pairs = p.len().min(c.len());
            let better = |c: f64, p: f64| if rule.lower_is_better { c < p } else { c > p };
            let wins = p.iter().zip(&c).filter(|(&p, &c)| better(c, p)).count();
            let v = verdict(&p, &c, rule, change_failed > parent_failed);
            verdicts.push(v);
            let _ = writeln!(
                out,
                "{workload:<11} {:<18} {:>28} {:>28} {pairs:>5} {wins:>4}  {}",
                rule.name,
                describe(&p),
                describe(&c),
                v.label()
            );
        }
        let count = |f: fn(&Verdict) -> bool| verdicts.iter().filter(|v| f(v)).count();
        let _ = writeln!(
            out,
            "{workload:<11} summary: {} win, {} regression, {} unresolved, {} not a regression, {} too few pairs\n",
            count(|v| matches!(v, Verdict::Win)),
            count(|v| matches!(v, Verdict::Regression | Verdict::MoreFailures)),
            count(|v| matches!(v, Verdict::Unresolved)),
            count(|v| matches!(v, Verdict::WithinBound | Verdict::BetterEveryRun)),
            count(|v| matches!(v, Verdict::TooFewPairs(_))),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            name: "latency_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn the_paired_rule() {
        let judge = |p: &[f64], c: &[f64]| verdict(p, c, &rule(0.1), false);
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(judge(&parent, &faster), Verdict::Win);
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(judge(&parent, &slower), Verdict::Regression);
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&parent, &same), Verdict::WithinBound);
        // Nine of ten pairs faster but by less than the parent's IQR: no win.
        let mut close = parent.clone();
        for v in close.iter_mut().take(9) {
            *v -= 0.5;
        }
        assert_eq!(judge(&parent, &close), Verdict::WithinBound);
        // A spread wider than the bound cannot be called either way.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * i as f64).collect();
        assert_eq!(judge(&noisy, &same), Verdict::Unresolved);
        // Every change run beats every parent run, yet the medians are
        // closer than the parent's IQR: not a regression, and no win.
        let below: Vec<f64> = (0..10).map(|i| 35.0 + i as f64).collect();
        assert_eq!(judge(&noisy, &below), Verdict::BetterEveryRun);
        assert_eq!(judge(&parent[..9], &faster[..9]), Verdict::TooFewPairs(9));
        // A gain that fails more operations is no win.
        assert_eq!(
            verdict(&parent, &faster, &rule(0.1), true),
            Verdict::MoreFailures
        );
    }

    /// `--record` lines for `workload`: one per value, `failed` each.
    fn records(workload: &str, values: &[f64], failed: u64) -> String {
        values
            .iter()
            .enumerate()
            .map(|(seed, v)| {
                format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{seed},\"correct\":{},\"attempted\":100,\
                     \"failed\":{failed},\"metrics\":{{\"latency_p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n",
                    failed == 0
                )
            })
            .collect()
    }

    #[test]
    fn the_summary_counts_failures_and_every_run_better_apart_from_wins() {
        let rules = [rule(0.1)];
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        let clean = parse_runs(&records("serve_hot", &parent, 0)).unwrap();
        let table = report(
            &rules,
            &clean,
            &parse_runs(&records("serve_hot", &faster, 0)).unwrap(),
        );
        assert!(table.contains("summary: 1 win, 0 regression"), "{table}");
        let failing = parse_runs(&records("serve_hot", &faster, 2)).unwrap();
        let table = report(&rules, &clean, &failing);
        assert!(table.contains("parent 0, change 20"), "{table}");
        assert!(table.contains("fails more operations"), "{table}");
        assert!(table.contains("summary: 0 win, 1 regression"), "{table}");
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * i as f64).collect();
        let below: Vec<f64> = (0..10).map(|i| 35.0 + i as f64).collect();
        let table = report(
            &rules,
            &parse_runs(&records("serve_hot", &noisy, 0)).unwrap(),
            &parse_runs(&records("serve_hot", &below, 0)).unwrap(),
        );
        assert!(table.contains("better in every run"), "{table}");
        assert!(
            table.contains("summary: 0 win, 0 regression, 0 unresolved, 1 not a regression"),
            "{table}"
        );
    }

    #[test]
    fn records_and_rules_parse() {
        let rules = parse_rules(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        assert_eq!(
            rules,
            vec![Rule {
                name: "setup_s".into(),
                lower_is_better: true,
                bound: 0.25
            }]
        );
        let runs = parse_runs(concat!(
            r#"{"workload":"serve_hot","seed":1,"correct":true,"failed":0,"metrics":{"setup_s":{"value":0.3,"unit":"s"}}}"#,
            "\n",
            r#"{"workload":"serve_hot","seed":2,"correct":false,"failed":0,"metrics":{"setup_s":{"value":0.4,"unit":"s"}}}"#,
        ))
        .unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1.len(), 2);
        assert_eq!(runs[0].1[1].metrics["setup_s"], 0.4);
        assert_eq!(runs[0].1[0].failed, 0);
        assert_eq!(runs[0].1[1].failed, 1, "an incorrect run counts a failure");
        assert!(parse_runs(r#"{"workload":"serve_hot","metrics":{}}"#).is_err());
        let table = report(&rules, &runs, &runs);
        assert!(table.contains("too few pairs (2 < 10)"), "{table}");
    }
}
