//! `vzla-report` — reproduce every figure and table of the study, from a
//! generated world or from a dumped archive tree.
//!
//! ```text
//! vzla-report [--seed N] [--test-world] [--from-archive DIR]
//!             [--scenario NAME|FILE]
//!             [--matrix NAME|FILE,NAME|FILE,…]
//!             [--csv DIR] [--markdown FILE] [--only figNN[,figMM…]]
//! ```
//!
//! `--scenario` runs the battery on one non-default world; `--matrix`
//! generates one world per listed scenario on sweep workers and prints a
//! per-scenario summary table. The paper's match tolerances describe the
//! Venezuela storyline only, so divergence gates the exit status only
//! for the default scenario — counterfactual worlds are *expected* to
//! diverge from the paper's endpoints.

use lacnet_core::{experiments, registry, render, DataSource};
use lacnet_crisis::{Scenario, World, WorldConfig};
use lacnet_types::sweep;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = WorldConfig::default();
    let mut scenario = Scenario::venezuela();
    let mut matrix: Option<Vec<Scenario>> = None;
    let mut csv_dir: Option<String> = None;
    let mut markdown: Option<String> = None;
    let mut only: Option<Vec<String>> = None;
    let mut archive: Option<std::path::PathBuf> = None;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--test-world" => config = WorldConfig::test(),
            "--from-archive" => {
                i += 1;
                archive = Some(std::path::PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--from-archive needs a directory")),
                ));
            }
            "--scenario" => {
                i += 1;
                let spec = args
                    .get(i)
                    .unwrap_or_else(|| die("--scenario needs a built-in name or a .toml path"));
                scenario =
                    Scenario::load(spec).unwrap_or_else(|e| die(&format!("--scenario: {e}")));
            }
            "--matrix" => {
                i += 1;
                let list = args
                    .get(i)
                    .unwrap_or_else(|| die("--matrix needs a comma-separated scenario list"));
                matrix = Some(
                    list.split(',')
                        .map(|spec| {
                            Scenario::load(spec.trim())
                                .unwrap_or_else(|e| die(&format!("--matrix: {e}")))
                        })
                        .collect(),
                );
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                );
            }
            "--markdown" => {
                i += 1;
                markdown = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--markdown needs a file")),
                );
            }
            "--only" => {
                i += 1;
                only = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--only needs ids"))
                        .split(',')
                        .map(str::to_owned)
                        .collect(),
                );
            }
            "--help" | "-h" => {
                println!("usage: vzla-report [--seed N] [--test-world] [--from-archive DIR] [--scenario NAME|FILE] [--matrix LIST] [--csv DIR] [--markdown FILE] [--only figNN,...]");
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if archive.is_some() && (!scenario.is_default() || matrix.is_some()) {
        die("--scenario/--matrix apply to generated worlds; an archive carries its own world/scenario.toml sidecar");
    }
    // The `--only` endpoints in registry order, checked before any world
    // is built or loaded.
    let selected: Option<Vec<&registry::Endpoint>> = only.as_ref().map(|ids| {
        if let Some(id) = ids.iter().find(|id| registry::find(id).is_none()) {
            die(&format!("--only: unknown experiment id {id}"));
        }
        registry::ENDPOINTS
            .iter()
            .filter(|e| ids.iter().any(|id| id == e.id))
            .collect()
    });

    // Matrix mode: one world per scenario, generated and measured on
    // sweep workers, reported as a summary table. The exit status gates
    // only on the default scenario — the counterfactuals diverge from
    // the paper's endpoints by construction.
    if let Some(scenarios) = matrix {
        eprintln!(
            "scenario matrix: {} worlds (seed {:#x}) …",
            scenarios.len(),
            config.seed
        );
        let t0 = std::time::Instant::now();
        let rows = sweep::parallel_map_with(
            sweep::worker_count(scenarios.len()),
            &scenarios,
            |sc: &Scenario| {
                let source = DataSource::from(World::generate_with(config, sc.clone()));
                let mut results = experiments::all(&source);
                results.extend(lacnet_core::extensions::all(&source));
                let ok = results.iter().filter(|r| r.all_match()).count();
                (sc.name.clone(), sc.is_default(), ok, results.len() - ok)
            },
        );
        println!("scenario\tdefault\tmatched\tdiverged");
        for (name, is_default, ok, diverged) in &rows {
            println!("{name}\t{is_default}\t{ok}\t{diverged}");
        }
        eprintln!("matrix done in {:.1?}", t0.elapsed());
        if rows
            .iter()
            .any(|(_, is_default, _, d)| *is_default && *d > 0)
        {
            std::process::exit(1);
        }
        return;
    }

    // Either backend feeds the identical battery: the world held in
    // memory, or the same datasets parsed back from a `lacnet-gen` dump.
    let source = match &archive {
        Some(dir) => {
            eprintln!("loading archive from {} …", dir.display());
            let t0 = std::time::Instant::now();
            let src = DataSource::from_archive(dir)
                .unwrap_or_else(|e| die(&format!("archive load failed: {e}")));
            eprintln!(
                "archive parsed in {:.1?} (seed {:#x}, scenario {}); running experiments …",
                t0.elapsed(),
                src.config.seed,
                src.scenario.name,
            );
            src
        }
        None => {
            eprintln!(
                "generating world (seed {:#x}, scenario {}) …",
                config.seed, scenario.name
            );
            let t0 = std::time::Instant::now();
            let world = World::generate_with(config, scenario);
            eprintln!(
                "world ready in {:.1?}; prewarming pfx2as snapshots and CANTV cones …",
                t0.elapsed()
            );
            // Fig. 2, Fig. 14 and any dataset export all read the same
            // monthly tables, and Figs. 8/9 the same CANTV cones; deriving
            // both cache sets across worker threads up front means every
            // later sweep is a cache hit.
            let t1 = std::time::Instant::now();
            world.prewarm(lacnet_crisis::config::windows::pfx2as_start(), config.end);
            eprintln!(
                "{} tables + {} cones cached in {:.1?}; running experiments …",
                world.pfx2as_computations(),
                world.cone_computations(),
                t1.elapsed()
            );
            DataSource::from(world)
        }
    };

    let seed = source.config.seed;
    let default_scenario = source.scenario.is_default();
    // `--only` runs just its experiments — unless `--markdown` asks for
    // the whole battery's report, which needs every result.
    let results = match &selected {
        Some(endpoints) if markdown.is_none() => {
            sweep::parallel_map(endpoints, |e| (e.run)(&source))
        }
        _ => {
            let mut results = experiments::all(&source);
            results.extend(lacnet_core::extensions::all(&source));
            results
        }
    };
    let mut ok = 0usize;
    let mut diverged = 0usize;
    for result in &results {
        if let Some(filter) = &only {
            if !filter.iter().any(|f| f == &result.id) {
                continue;
            }
        }
        print!("{}", render::render_result(result));
        if result.all_match() {
            ok += 1;
        } else {
            diverged += 1;
        }
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            for artifact in &result.artifacts {
                let path = format!("{dir}/{}.csv", artifact.id());
                let mut f = std::fs::File::create(&path).expect("create csv");
                f.write_all(render::to_csv(artifact).as_bytes())
                    .expect("write csv");
            }
        }
    }
    if let Some(path) = &markdown {
        let md = lacnet_core::markdown::experiments_markdown(&results, seed);
        std::fs::write(path, md).expect("write markdown");
        eprintln!("wrote {path}");
    }
    println!("\n{ok} experiments matched (22 paper artifacts + extensions), {diverged} diverged.");
    if diverged > 0 && default_scenario {
        std::process::exit(1);
    }
    if diverged > 0 {
        eprintln!(
            "note: divergence under a non-default scenario is expected; exit status not gated"
        );
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
