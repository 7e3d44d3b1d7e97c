//! Serial-vs-parallel and cached-vs-uncached ablations for the sweep
//! engine, the pfx2as snapshot cache, the customer-cone cache and the
//! sharded NDT container encode.
//!
//! The serial and parallel sweeps are asserted byte-identical before any
//! timing starts, so the speedup numbers compare equal outputs.
//!
//! The sweep speedup scales with `std::thread::available_parallelism()`:
//! on a single-core host the engine deliberately falls back to the serial
//! path and the two sweep timings coincide. Run this bench on a
//! multi-core machine to see the ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use lacnet_bench::bench_world;
use lacnet_crisis::World;
use lacnet_types::{sweep, MonthStamp};
use std::hint::black_box;

/// A two-year window keeps one uncached serial sweep per sample
/// affordable while still giving the workers enough months to spread.
const SWEEP_START: MonthStamp = MonthStamp::new(2016, 1);
const SWEEP_END: MonthStamp = MonthStamp::new(2017, 12);

fn serial_tables(world: &World) -> Vec<(MonthStamp, String)> {
    SWEEP_START
        .through(SWEEP_END)
        .map(|m| (m, world.pfx2as_uncached(m).to_text()))
        .collect()
}

fn parallel_tables(world: &World) -> Vec<(MonthStamp, String)> {
    sweep::month_range(SWEEP_START, SWEEP_END, |m| {
        world.pfx2as_uncached(m).to_text()
    })
}

/// The fig02/fig14-style monthly pfx2as sweep, serial vs the sweep
/// engine, both on the uncached derivation path.
fn bench_sweep(c: &mut Criterion) {
    let world: &World = bench_world();
    assert_eq!(
        serial_tables(world),
        parallel_tables(world),
        "parallel sweep must be byte-identical to the serial reference"
    );
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("serial", |b| b.iter(|| black_box(serial_tables(world))));
    group.bench_function("parallel", |b| b.iter(|| black_box(parallel_tables(world))));
    group.finish();
}

/// One month's table: fresh derivation vs the snapshot cache (warmed by
/// the first call).
fn bench_cache(c: &mut Criterion) {
    let world: &World = bench_world();
    let m = MonthStamp::new(2023, 6);
    assert_eq!(
        world.pfx2as_at(m).to_text(),
        world.pfx2as_uncached(m).to_text()
    );
    let mut group = c.benchmark_group("pfx2as_cache");
    group.sample_size(20);
    group.bench_function("uncached", |b| {
        b.iter(|| black_box(world.pfx2as_uncached(m)))
    });
    group.bench_function("cached", |b| b.iter(|| black_box(world.pfx2as_at(m))));
    group.finish();
}

/// CANTV's cone-size series across the topology: the fresh per-month
/// graph walk vs the world's `ConeCache` (warmed by the first call).
fn bench_cone(c: &mut Criterion) {
    let world: &World = bench_world();
    let cantv = lacnet_types::Asn(8048);
    assert_eq!(
        world.cone_size_series(cantv),
        lacnet_bgp::analytics::cone_size_series(&world.topology, cantv),
        "cached cone series must equal the fresh analytics walk"
    );
    let mut group = c.benchmark_group("cone");
    group.sample_size(10);
    group.bench_function("uncached", |b| {
        b.iter(|| {
            black_box(lacnet_bgp::analytics::cone_size_series(
                &world.topology,
                cantv,
            ))
        })
    });
    group.bench_function("cached", |b| {
        b.iter(|| black_box(world.cone_size_series(cantv)))
    });
    group.finish();
}

/// The NDT containers of four countries (BR holds most rows): every
/// `(country, month)` encoded on one worker vs the default worker count
/// (byte-identical by contract).
fn bench_ndt_shard(c: &mut Criterion) {
    use lacnet_core::datasets::encode_ndt_containers;
    use lacnet_types::country;
    let world: &World = bench_world();
    let countries = [country::BR, country::VE, country::AR, country::CL];
    let workers = sweep::worker_count(usize::MAX);
    assert_eq!(
        encode_ndt_containers(world, &countries, workers),
        encode_ndt_containers(world, &countries, 1),
        "sharded container encode must be byte-identical to the one-worker walk"
    );
    let mut group = c.benchmark_group("ndt_shard");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| black_box(encode_ndt_containers(world, &countries, 1)))
    });
    group.bench_function("sharded", |b| {
        b.iter(|| black_box(encode_ndt_containers(world, &countries, workers)))
    });
    group.finish();
}

criterion_group!(
    name = parallel;
    config = Criterion::default();
    targets = bench_sweep, bench_cache, bench_cone, bench_ndt_shard
);
criterion_main!(parallel);
