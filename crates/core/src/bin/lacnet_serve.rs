//! `lacnet-serve` — the battery as a long-running HTTP query service.
//!
//! ```text
//! lacnet-serve --archive DIR [--port N] [--addr HOST] [--threads N]
//!              [--cache N] [--port-file PATH]
//! lacnet-serve --in-memory [--seed N] [...]
//! ```
//!
//! Holds a resident [`DataSource`] (an archive tree dumped by
//! `lacnet-gen`, or a freshly generated world with `--in-memory`) and
//! serves every figure, table and extension as JSON under the routes
//! listed at `/endpoints`. Append `?format=tsv` for the canonical TSV
//! render the golden suite byte-checks. `/healthz`, `/archive` and
//! `/metrics` cover liveness, archive identity and observability.
//! `--port 0` binds an ephemeral port; `--port-file` writes the bound
//! port for scripts (the CI serve job's handshake).

use lacnet_core::serve::{ServeOptions, Server};
use lacnet_core::DataSource;
use lacnet_crisis::{World, WorldConfig};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut archive: Option<std::path::PathBuf> = None;
    let mut in_memory = false;
    let mut config = WorldConfig::default();
    let mut addr = "127.0.0.1".to_owned();
    let mut port: u16 = 8348;
    let mut port_file: Option<String> = None;
    let mut options = ServeOptions::default();

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--archive" => {
                i += 1;
                archive = Some(std::path::PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--archive needs a directory")),
                ));
            }
            "--in-memory" => in_memory = true,
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--addr" => {
                i += 1;
                addr = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--addr needs a host"));
            }
            "--port" => {
                i += 1;
                port = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--port needs a number (0 = ephemeral)"));
            }
            "--port-file" => {
                i += 1;
                port_file = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--port-file needs a path")),
                );
            }
            "--threads" => {
                i += 1;
                options.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--threads needs a positive number"));
            }
            "--cache" => {
                i += 1;
                options.cache_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--cache needs a positive capacity"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: lacnet-serve --archive DIR | --in-memory [--seed N] \
                     [--addr HOST] [--port N] [--threads N] [--cache N] [--port-file PATH]"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    let source: Arc<DataSource> = match (&archive, in_memory) {
        (Some(_), true) => die("--archive and --in-memory are mutually exclusive"),
        (Some(dir), false) => {
            eprintln!("loading archive from {} …", dir.display());
            let t0 = std::time::Instant::now();
            let src = DataSource::from_archive(dir)
                .unwrap_or_else(|e| die(&format!("archive load failed: {e}")));
            eprintln!(
                "archive parsed in {:.1?} (seed {:#x})",
                t0.elapsed(),
                src.config.seed
            );
            Arc::new(src)
        }
        (None, true) => {
            eprintln!("generating world (seed {:#x}) …", config.seed);
            let t0 = std::time::Instant::now();
            let world = World::generate(config);
            eprintln!("world ready in {:.1?}", t0.elapsed());
            Arc::new(DataSource::from(world))
        }
        (None, false) => die("pass --archive DIR or --in-memory"),
    };

    let server = Server::bind(source, &format!("{addr}:{port}"), options)
        .unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    let bound = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("no local addr: {e}")));
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}\n", bound.port()))
            .unwrap_or_else(|e| die(&format!("cannot write port file {path}: {e}")));
    }
    eprintln!(
        "serving {} endpoints on http://{bound}/ ({} workers, cache {})",
        lacnet_core::registry::ENDPOINTS.len(),
        options.threads,
        options.cache_capacity
    );
    eprintln!(
        "NDT queries: {} and {}",
        lacnet_core::registry::NDT_MONTH_ROUTE,
        lacnet_core::registry::NDT_RANGE_ROUTE
    );
    if let Err(e) = server.run() {
        die(&format!("server failed: {e}"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
