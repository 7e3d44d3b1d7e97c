//! Smoke test: every workload runs for about a second on the reduced
//! test world, fails nothing, and reports every metric `BENCHMARK.json`
//! names. A one-second run gives each ladder rung a fifth of a second.
//!
//! The benchmark drives the program's release binaries, which it finds
//! next to its own executable. `benchmark/` is a workspace of its own, so
//! point both builds at one target directory, from the repository root:
//!
//! ```text
//! cargo build --release --workspace --bins
//! CARGO_TARGET_DIR=target cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use lacnet_types::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_lacnet-benchmark"))
}

/// Fail with the build command when the program's binaries are missing.
fn require_program() {
    let dir = benchmark()
        .parent()
        .expect("exe has a directory")
        .to_path_buf();
    let release = if dir.ends_with("release") {
        " --release"
    } else {
        ""
    };
    for name in ["lacnet-gen", "vzla-report", "lacnet-serve"] {
        assert!(
            dir.join(name).is_file(),
            "{name} is missing from {}: from the repository root, build the program with \
             `cargo build{release} --workspace --bins` and run these tests with \
             `CARGO_TARGET_DIR=target cargo test{release} --manifest-path benchmark/Cargo.toml`",
            dir.display()
        );
    }
}

/// The metric names one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

/// Run the benchmark briefly and return its closing JSON line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(benchmark())
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--test-world", "--trace", trace])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let json = Json::parse(last).expect("the last line is JSON");
    assert_eq!(
        json.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        json.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{stdout}"
    );
    assert!(json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    json
}

fn metric_names(json: &Json) -> BTreeSet<String> {
    match json.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics must be an object, got {other:?}"),
    }
}

#[test]
fn every_workload_runs_clean_and_reports_every_end_to_end_metric() {
    require_program();
    let expected = declared("end_to_end");
    for workload in ["reproduce", "serve_cold", "serve_hot", "ndt_mix"] {
        let json = run(workload, "0");
        assert_eq!(metric_names(&json), expected, "{workload}");
    }
}

#[test]
fn the_traced_replay_reports_every_per_layer_metric() {
    require_program();
    let json = run("serve_hot", "1");
    assert_eq!(metric_names(&json), declared("per_layer"));
}
