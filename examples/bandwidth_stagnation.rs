//! The Fig. 11 pipeline, piece by piece, on the archive's own path:
//! generate crowdsourced NDT rows, encode them as `.ndtc` blocks,
//! assemble the blocks into one container, scan it back block by block,
//! and reduce every block to month-country medians with the streaming P²
//! estimator — demonstrating that the analysis half only ever sees rows,
//! never the generator's targets.
//!
//! ```text
//! cargo run --example bandwidth_stagnation --release
//! ```

use lacnet::crisis::bandwidth;
use lacnet::crisis::operators::Operators;
use lacnet::mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet::mlab::{columnar, BlockRun, ColumnReader, ColumnSelection, DecodeScratch};
use lacnet::types::rng::Rng;
use lacnet::types::{country, MonthStamp};

fn main() {
    let ops = Operators::generate(42);
    let root = Rng::seeded(42);
    let countries = [country::VE, country::UY, country::BR, country::CL];

    // 1. Generate one July of tests per year per country, each encoded
    //    as its own run of `.ndtc` blocks, and assemble the runs into one
    //    container.
    let mut runs = Vec::new();
    for year in (2009..=2023).step_by(2) {
        for cc in countries {
            let mut rng = root.fork(&format!("demo/{cc}/{year}"));
            let tests =
                bandwidth::generate_month(&ops, cc, MonthStamp::new(year, 7), 2.0, &mut rng);
            runs.push(BlockRun::encode(&tests));
        }
    }
    let container = columnar::assemble(&runs);

    // 2. Scan the container block by block, feeding each borrowed block
    //    into the month-country aggregator.
    let reader = ColumnReader::open(&container).expect("assembled container opens");
    let selection = ColumnSelection::columns(MonthlyAggregator::REQUIRED_COLUMNS);
    let mut agg = MonthlyAggregator::new(Mode::Streaming);
    reader
        .scan_counted(&selection, &mut DecodeScratch::new(), |block| {
            agg.observe_block(block);
            Ok(())
        })
        .expect("assembled container scans");
    println!(
        "scanned {} NDT rows ({} bytes of .ndtc container, {} blocks)\n",
        reader.rows(),
        container.len(),
        reader.blocks().len()
    );

    // 3. Print the medians: Venezuela's stagnation against its peers.
    println!("median download speed (Mbps), July of each year:");
    print!("{:>6}", "year");
    for cc in countries {
        print!("{:>8}", cc.as_str());
    }
    println!();
    for year in (2009..=2023).step_by(2) {
        print!("{year:>6}");
        for cc in countries {
            let v = agg
                .median_series(cc)
                .get(MonthStamp::new(year, 7))
                .unwrap_or(f64::NAN);
            print!("{v:>8.2}");
        }
        println!();
    }

    let ve_2013 = agg
        .median_series(country::VE)
        .get(MonthStamp::new(2013, 7))
        .unwrap_or(0.0);
    let ve_2021 = agg
        .median_series(country::VE)
        .get(MonthStamp::new(2021, 7))
        .unwrap_or(0.0);
    let uy_2021 = agg
        .median_series(country::UY)
        .get(MonthStamp::new(2021, 7))
        .unwrap_or(0.0);
    println!(
        "\nVenezuela {ve_2013:.2} → {ve_2021:.2} Mbps over eight years, \
         while Uruguay reached {uy_2021:.2} — the Fig. 11 stagnation."
    );
}
