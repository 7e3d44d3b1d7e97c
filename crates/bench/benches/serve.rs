//! Serving-path benchmarks: what one request costs against the resident
//! world, cold (full experiment compute) versus hot (LRU response-cache
//! hit), plus the cost of rendering the Prometheus exposition.
//!
//! The cold/hot ratio is the point of the response cache: a hit is pure
//! routing + map lookup + body clone, orders of magnitude under the
//! experiment compute it replaces.

use criterion::{criterion_group, criterion_main, Criterion};
use lacnet_bench::bench_source;
use lacnet_core::serve::{respond, ServerState};
use lacnet_types::http::Request;
use std::hint::black_box;
use std::sync::Arc;

fn state() -> ServerState {
    ServerState::new(Arc::clone(bench_source()), 128)
}

fn get(target: &str) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    Request {
        method: "GET".into(),
        path,
        query,
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// One endpoint served cold: routing plus the full experiment compute.
/// A fresh state per iteration keeps the cache from hiding the work.
fn bench_cold(c: &mut Criterion) {
    let request = get("/fig/01?format=tsv");
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let state = state();
            black_box(respond(&state, &request).status)
        })
    });
    group.finish();
}

/// The same endpoint served hot, from the response cache.
fn bench_hit(c: &mut Criterion) {
    let state = state();
    let request = get("/fig/01?format=tsv");
    assert_eq!(respond(&state, &request).status, 200); // warm the key
    let mut group = c.benchmark_group("serve");
    group.bench_function("hit", |b| {
        b.iter(|| black_box(respond(&state, &request).body.len()))
    });
    group.finish();
}

/// Rendering `/metrics` with a populated registry.
fn bench_metrics(c: &mut Criterion) {
    let state = state();
    for target in ["/fig/01", "/tab01", "/healthz"] {
        let request = get(target);
        for _ in 0..100 {
            respond(&state, &request);
        }
    }
    let mut group = c.benchmark_group("serve");
    group.bench_function("metrics_render", |b| {
        b.iter(|| black_box(state.metrics().render().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_cold, bench_hit, bench_metrics);
criterion_main!(benches);
