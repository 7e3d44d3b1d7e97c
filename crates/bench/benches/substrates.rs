//! Micro-benchmarks of the hot substrate primitives: format parsing,
//! CHAOS decoding, route propagation, RTT sampling, and world generation
//! itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lacnet_atlas::chaos;
use lacnet_atlas::RootLetter;
use lacnet_bench::bench_world;
use lacnet_bgp::{serial1, AsGraph, PfxToAs};
use lacnet_crisis::{World, WorldConfig};
use lacnet_types::rng::Rng;
use lacnet_types::MonthStamp;
use std::hint::black_box;

fn bench_serial1_parse(c: &mut Criterion) {
    let world = bench_world();
    let graph = world
        .topology
        .get(MonthStamp::new(2020, 6))
        .expect("snapshot");
    let text = serial1::to_text(&graph.edges(), "bench");
    let mut group = c.benchmark_group("serial1");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse_monthly_snapshot", |b| {
        b.iter(|| black_box(serial1::parse(black_box(&text)).expect("parses")))
    });
    group.bench_function("graph_from_edges", |b| {
        let edges = serial1::parse(&text).expect("parses");
        b.iter(|| black_box(AsGraph::from_edges(black_box(edges.iter().copied()))))
    });
    group.finish();
}

fn bench_pfx2as_parse(c: &mut Criterion) {
    let world = bench_world();
    let table = world.pfx2as_at(MonthStamp::new(2023, 6));
    let text = table.to_text();
    let mut group = c.benchmark_group("pfx2as");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse_monthly_snapshot", |b| {
        b.iter(|| black_box(PfxToAs::parse(black_box(&text)).expect("parses")))
    });
    group.bench_function("build_trie", |b| b.iter(|| black_box(table.build_trie())));
    group.finish();
}

fn bench_chaos_decode(c: &mut Criterion) {
    let world = bench_world();
    let strings: Vec<(RootLetter, String)> = world
        .dns
        .roots
        .all()
        .iter()
        .map(|i| (i.letter, chaos::encode(i)))
        .collect();
    let mut group = c.benchmark_group("chaos");
    group.throughput(Throughput::Elements(strings.len() as u64));
    group.bench_function("decode_all_identities", |b| {
        b.iter(|| {
            for (letter, txt) in &strings {
                black_box(chaos::decode(*letter, txt).expect("decodes"));
            }
        })
    });
    group.finish();
}

fn bench_ndt_rows(c: &mut Criterion) {
    let world = bench_world();
    let mut rng = Rng::seeded(3).fork("bench");
    let tests = lacnet_crisis::bandwidth::generate_month(
        &world.operators,
        lacnet_types::country::BR,
        MonthStamp::new(2022, 6),
        5.0,
        &mut rng,
    );
    let mut group = c.benchmark_group("ndt");
    group.throughput(Throughput::Elements(tests.len() as u64));
    group.bench_function("aggregate_streaming", |b| {
        b.iter(|| {
            let mut agg = lacnet_mlab::aggregate::MonthlyAggregator::new(
                lacnet_mlab::aggregate::Mode::Streaming,
            );
            agg.observe_all(black_box(&tests));
            black_box(agg.group_count())
        })
    });
    group.finish();
}

fn bench_world_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("world");
    group.sample_size(10);
    group.bench_function("generate_default_scale_0_05", |b| {
        b.iter(|| {
            black_box(World::generate(WorldConfig {
                mlab_volume_scale: 0.05,
                ..WorldConfig::default()
            }))
        })
    });
    group.finish();
}

criterion_group!(
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = bench_serial1_parse, bench_pfx2as_parse, bench_chaos_decode,
        bench_ndt_rows, bench_world_generation
);
criterion_main!(substrates);
