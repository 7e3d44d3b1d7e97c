//! `vzla-report --only` runs just the experiments it names: its stdout
//! is exactly those experiments' blocks of the full run followed by its
//! own summary line, and an unknown id is a usage error.

use std::process::{Command, Output};

fn vzla_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vzla-report"))
        .arg("--test-world")
        .args(args)
        .output()
        .expect("vzla-report runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("UTF-8 report")
}

/// A report's per-experiment blocks, each starting at its
/// `==== id — …` line; a blank line separates the last from the summary.
fn blocks(report: &str) -> Vec<&str> {
    let (body, _summary) = report.split_once("\n\n").expect("a summary line");
    // The blocks, the last one's newline included.
    let body = &report[..=body.len()];
    let mut starts: Vec<usize> = body.match_indices("\n==== ").map(|(i, _)| i + 1).collect();
    starts.insert(0, 0);
    starts.push(body.len());
    starts.windows(2).map(|w| &body[w[0]..w[1]]).collect()
}

#[test]
fn only_prints_the_full_runs_blocks_for_its_ids() {
    let full = vzla_report(&[]);
    assert!(full.status.success(), "the full test-world battery matches");
    let full = stdout(&full);
    let blocks = blocks(&full);
    assert_eq!(blocks.len(), 25);
    let picked: String = blocks
        .iter()
        .filter(|b| b.starts_with("==== fig01 — ") || b.starts_with("==== ext-blackouts — "))
        .copied()
        .collect();

    let only = vzla_report(&["--only", "fig01,ext-blackouts"]);
    assert!(only.status.success());
    assert_eq!(
        stdout(&only),
        format!("{picked}\n2 experiments matched (22 paper artifacts + extensions), 0 diverged.\n")
    );
}

#[test]
fn an_unknown_only_id_is_a_usage_error() {
    let out = vzla_report(&["--only", "fig01,fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "{stderr}");
}
