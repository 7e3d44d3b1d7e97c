//! Per-dataset parse cost of the text archive formats, and fig02's
//! reduction over a warm pfx2as cache.
//!
//! The inputs are the bench world's own datasets serialised the way the
//! dump writes them: 194 monthly pfx2as tables (2008-01 onwards), the
//! monthly PeeringDB snapshots, the per-country top-site lists and the
//! yearly off-net certificate scans. Before timing, each parse is asserted
//! to give back the value it was written from, so the numbers compare
//! correct parsers.

use criterion::{criterion_group, Criterion};
use lacnet_bench::{bench_source, bench_world};
use lacnet_bgp::PfxToAs;
use lacnet_core::experiments::fig02_address_space;
use lacnet_crisis::config::windows;
use lacnet_offnets::certs::CertScan;
use lacnet_peeringdb::Snapshot;
use lacnet_webmeas::CountryTopSites;
use std::hint::black_box;

fn bench_parse(c: &mut Criterion) {
    let world = bench_world();
    let tables: Vec<String> = windows::pfx2as_start()
        .through(world.config.end)
        .map(|m| world.pfx2as_at(m).to_text())
        .collect();
    assert_eq!(tables.len(), 194);
    for text in &tables {
        assert_eq!(&PfxToAs::parse(text).expect("table parses").to_text(), text);
    }
    let snapshots: Vec<String> = world.peeringdb.iter().map(|(_, s)| s.to_json()).collect();
    for ((_, snap), text) in world.peeringdb.iter().zip(&snapshots) {
        assert_eq!(&Snapshot::from_json(text).expect("snapshot parses"), snap);
    }
    let sites: Vec<String> = world.top_sites.iter().map(|l| l.to_json()).collect();
    for (list, text) in world.top_sites.iter().zip(&sites) {
        assert_eq!(
            &CountryTopSites::from_json(text).expect("list parses"),
            list
        );
    }
    let scans: Vec<String> = world.cert_scans.iter().map(|s| s.to_json()).collect();
    for (scan, text) in world.cert_scans.iter().zip(&scans) {
        assert_eq!(&CertScan::from_json(text).expect("scan parses"), scan);
    }

    let mut group = c.benchmark_group("parse");
    group.sample_size(20);
    group.bench_function("pfx2as", |b| {
        b.iter(|| {
            for text in &tables {
                black_box(PfxToAs::parse(black_box(text)).expect("table parses"));
            }
        })
    });
    group.bench_function("peeringdb", |b| {
        b.iter(|| {
            for text in &snapshots {
                black_box(Snapshot::from_json(black_box(text)).expect("snapshot parses"));
            }
        })
    });
    group.bench_function("topsites", |b| {
        b.iter(|| {
            for text in &sites {
                black_box(CountryTopSites::from_json(black_box(text)).expect("list parses"));
            }
        })
    });
    group.bench_function("offnets", |b| {
        b.iter(|| {
            for text in &scans {
                black_box(CertScan::from_json(black_box(text)).expect("scan parses"));
            }
        })
    });
    group.finish();
}

/// fig02 once every month's pfx2as table is cached: the per-table
/// address-space reduction alone.
fn bench_fig02_warm(c: &mut Criterion) {
    let src = bench_source();
    black_box(fig02_address_space::run(src));
    let mut group = c.benchmark_group("fig02");
    group.sample_size(20);
    group.bench_function("warm", |b| {
        b.iter(|| black_box(fig02_address_space::run(black_box(src))))
    });
    group.finish();
}

criterion_group!(
    name = parse;
    config = Criterion::default();
    targets = bench_parse, bench_fig02_warm
);

fn main() {
    parse();
    criterion::flush_json_report();
}
