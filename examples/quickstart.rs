//! Quickstart: generate a world and reproduce the paper's headline
//! artifacts.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use lacnet::core::{experiments, render, DataSource};
use lacnet::crisis::{World, WorldConfig};

fn main() {
    // A generated world stands in for the study's gated datasets: one
    // macro-economy drives every infrastructure signal, and each dataset
    // is emitted in its real format. Everything is deterministic in the
    // seed. The world moves into the source the experiments read.
    println!("generating the world (this builds ~26 years of monthly datasets)…");
    let src = DataSource::from(World::generate(WorldConfig::default()));

    // Reproduce three headline artifacts.
    let headline = [
        experiments::fig01_macro::run(&src),
        experiments::fig08_cantv_degree::run(&src),
        experiments::fig11_bandwidth::run(&src),
    ];
    for result in &headline {
        print!("{}", render::render_result(result));
    }

    let matched = headline.iter().filter(|r| r.all_match()).count();
    println!(
        "\n{matched}/{} headline experiments match the paper.",
        headline.len()
    );
    println!("Run the full battery with: cargo run -p lacnet-core --bin vzla-report --release");
}
