//! `lacnet-benchmark` — lacnet's end-to-end and per-layer benchmark.
//!
//! ```text
//! lacnet-benchmark [--workload reproduce|serve_cold|serve_hot|ndt_mix]
//!                  [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//!                  [--record FILE] [--test-world]
//! lacnet-benchmark --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Drives the release binaries built next to it (`lacnet-gen`,
//! `vzla-report`, `lacnet-serve --threads 2`) as child processes over an
//! archive generated from `--seed`, checks every output, and prints each
//! end-to-end metric with its unit and sample count. `--trace 1` instead
//! replays the workload in-process under spans and prints the per-layer
//! metrics. With no `--workload`, all four run in turn. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--record FILE` also appends the run to FILE as a JSON
//! line, and `--compare` judges two such files by the paired rule.
//! `--test-world` dumps the reduced test world, for the smoke test.

mod client;
mod compare;
mod mix;
mod procs;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use workloads::{Ctx, Outcome, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    record: Option<PathBuf>,
    test_world: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: lacnet-benchmark [--workload reproduce|serve_cold|serve_hot|ndt_mix] \
[--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--record FILE] [--test-world]\n       \
lacnet-benchmark --compare PARENT.jsonl CHANGE.jsonl";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        spans: None,
        record: None,
        test_world: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads =
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?
            }
            "--seconds" => {
                args.seconds = value("a duration")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--spans" => args.spans = Some(value("a file")?.into()),
            "--record" => args.record = Some(value("a file")?.into()),
            "--test-world" => args.test_world = true,
            "--compare" => {
                let parent = value("two files")?;
                let change = value("two files")?;
                args.compare = Some((parent.into(), change.into()));
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.spans.is_some() && args.workloads.len() > 1 {
        return Err("--spans names one file; pick one --workload".into());
    }
    Ok(Some(args))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn print_report(workload: Workload, seed: u64, outcome: &Outcome) {
    println!("== {} (seed {seed}) ==", workload.name());
    for m in &outcome.metrics {
        println!(
            "  {:<28} {:>14.4} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.detail
        );
    }
    let t = &outcome.tally;
    println!(
        "  {:<28} {:>14.4} {:<6} n={:<6} {} of {} operations failed",
        "fail_ratio",
        if t.attempted == 0 {
            0.0
        } else {
            t.failed as f64 / t.attempted as f64
        },
        "ratio",
        t.attempted,
        t.failed,
        t.attempted
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for problem in &t.problems {
        println!("  FAILED: {problem}");
    }
}

/// `{"name":{"value":…,"unit":"…"},…}` over `metrics`, keys prefixed.
fn metrics_json(out: &mut String, prefix: &str, outcome: &Outcome) {
    for m in &outcome.metrics {
        if !out.ends_with('{') {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => die(&format!("{e}\n{USAGE}")),
    };
    if let Some((parent, change)) = &args.compare {
        let table = compare::load_rules(std::path::Path::new("BENCHMARK.json"))
            .and_then(|rules| {
                Ok(compare::report(
                    &rules,
                    &compare::load_runs(parent)?,
                    &compare::load_runs(change)?,
                ))
            })
            .unwrap_or_else(|e| die(&e));
        print!("{table}");
        return;
    }
    let ctx = Ctx {
        bins: procs::Bins::locate().unwrap_or_else(|e| die(&e)),
        seed: args.seed,
        seconds: args.seconds,
        test_world: args.test_world,
    };
    let mut finished = Vec::new();
    for &workload in &args.workloads {
        eprintln!(
            "lacnet-benchmark: {} seed {} ({} s{})",
            workload.name(),
            args.seed,
            args.seconds,
            if args.trace { ", traced replay" } else { "" }
        );
        let outcome = if args.trace {
            let spans = args.spans.clone().unwrap_or_else(|| {
                ctx.bins
                    .work
                    .join(format!("spans-{}.jsonl", workload.name()))
            });
            replay::run(&ctx, workload, &spans)
        } else {
            workloads::run(&ctx, workload)
        }
        .unwrap_or_else(|e| die(&format!("{}: {e}", workload.name())));
        if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
            die(&format!("{}: {} is not a number", workload.name(), m.name));
        }
        print_report(workload, args.seed, &outcome);
        if let Some(path) = &args.record {
            let t = &outcome.tally;
            let mut line = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
                workload.name(),
                args.seed,
                args.trace,
                t.failed == 0,
                t.attempted,
                t.failed
            );
            metrics_json(&mut line, "", &outcome);
            line.push_str("}}\n");
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()))
                .unwrap_or_else(|e| die(&format!("--record {}: {e}", path.display())));
        }
        finished.push((workload, outcome));
    }
    let attempted: u64 = finished.iter().map(|(_, o)| o.tally.attempted).sum();
    let failed: u64 = finished.iter().map(|(_, o)| o.tally.failed).sum();
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0 && attempted > 0
    );
    let single = finished.len() == 1;
    for (workload, outcome) in &finished {
        let prefix = if single {
            String::new()
        } else {
            format!("{}/", workload.name())
        };
        metrics_json(&mut line, &prefix, outcome);
    }
    line.push_str("}}");
    println!("{line}");
}
