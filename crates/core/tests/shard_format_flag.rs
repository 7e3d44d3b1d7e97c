//! `.ndtc` is the only NDT container format. `lacnet-gen --shard-format`
//! survives only with the value `columnar`; any other value is a usage
//! error that writes nothing, and `vzla-report` has no such flag at all.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn out_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lacnet-shard-flag-{label}-{}", std::process::id()))
}

#[test]
fn lacnet_gen_rejects_every_format_but_columnar() {
    let dir = out_dir("text");
    let out = run(
        env!("CARGO_BIN_EXE_lacnet-gen"),
        &[
            "--test-world",
            "--shard-format",
            "text",
            "--out",
            dir.to_str().expect("UTF-8 path"),
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("columnar is the only"), "{stderr}");
    assert!(!dir.exists(), "a rejected flag must write nothing");

    let missing = run(env!("CARGO_BIN_EXE_lacnet-gen"), &["--shard-format"]);
    assert_eq!(missing.status.code(), Some(2));
}

#[test]
fn lacnet_gen_still_accepts_columnar() {
    let dir = out_dir("columnar");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(
        env!("CARGO_BIN_EXE_lacnet-gen"),
        &[
            "--test-world",
            "--shard-format",
            "columnar",
            "--out",
            dir.to_str().expect("UTF-8 path"),
        ],
    );
    let written = dir.join("mlab/VE.ndtc").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(written);
}

#[test]
fn vzla_report_has_no_shard_format_flag() {
    let help = run(env!("CARGO_BIN_EXE_vzla-report"), &["--help"]);
    assert!(help.status.success());
    assert!(!String::from_utf8_lossy(&help.stdout).contains("--shard-format"));
    let out = run(
        env!("CARGO_BIN_EXE_vzla-report"),
        &["--shard-format", "columnar"],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument --shard-format"),
        "{stderr}"
    );
}
