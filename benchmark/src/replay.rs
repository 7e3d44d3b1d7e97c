//! The traced run: the workload replayed in-process, with a span around
//! each call into a layer's public functions, yielding the per-layer
//! metrics.
//!
//! Every traced run replays the whole pipeline — the `vzla-report`
//! path (load, battery, text render), generation and dump, each
//! dataset's parser on the dumped files, NDT decode and aggregation, the
//! lazy BGP caches, each experiment alone, the JSON and TSV renders, and
//! the serve pipeline (parse, respond, write) over the request mixes —
//! so every per-layer metric is reported on every workload. The
//! request-driven layers (`lru`, `http`) follow the workload's own
//! request sequence. End-to-end runs never trace.

use crate::client::{drive_closed, drive_queue, REQUEST_TIMEOUT};
use crate::mix::{self, Expect, NdtSpace, Req};
use crate::procs::{dump_archive, run_report, tree_hash, Server, TempDir};
use crate::stats::{median, Summary};
use crate::trace::{layer_self_times, Span, Tracer};
use crate::workloads::{
    open_conns, Ctx, Metric, Outcome, Workload, CACHE_CAPACITY, STREAM_HOT, STREAM_NDT,
};
use lacnet_core::render::{canonical_tsv, render_result, result_json};
use lacnet_core::serve::{respond, ServerState};
use lacnet_core::{datasets, experiments, extensions, registry, ArchiveWorld, DataSource};
use lacnet_crisis::{config::windows, Scenario, World, WorldConfig};
use lacnet_mlab::aggregate::{Mode, MonthlyAggregator};
use lacnet_mlab::columnar::{self, ColumnSelection};
use lacnet_mlab::ShardFormat;
use lacnet_types::http::{read_request, Limits};
use lacnet_types::{sweep, CountryCode, MonthStamp};
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot-mix requests replayed on the warm state (enough for a p99).
const HOT_REPLAY: usize = 2000;
/// NDT-mix requests replayed (enough ranges among them for a p99).
const NDT_REPLAY: usize = 1400;
/// `/metrics` renders timed.
const METRICS_RENDERS: u64 = 200;
/// Longest over-the-wire hot loop the traced run measures.
const WIRE_SECONDS: f64 = 3.0;
/// `vzla-report` runs the tracing overhead is measured against.
const UNTRACED_RUNS: usize = 3;
/// The per-dataset parse spans, in `load_with` order.
const DATASETS: [&str; 9] = [
    "serial1",
    "peeringdb",
    "delegations",
    "cables",
    "offnets",
    "topsites",
    "reachability",
    "models",
    "ndt_index",
];

/// Collects per-layer metrics in report order.
#[derive(Default)]
struct Layers(Vec<Metric>);

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, detail: &str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            detail: detail.to_owned(),
        });
    }

    /// `{span}_s` from the first span named `span`.
    fn time(&mut self, tracer: &Tracer, span: &str) -> Result<Span, String> {
        let s = tracer
            .first(span)
            .ok_or_else(|| format!("no {span} span"))?;
        self.put(&format!("{span}_s"), s.secs(), "s", 1, span);
        Ok(s)
    }

    /// Mean of `values`, or 0 for none.
    fn mean(&mut self, name: &str, values: &[f64], unit: &'static str, detail: &str) {
        let mean = if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        self.put(name, mean, unit, values.len(), detail);
    }

    /// Median and p99 of `values_us` as `{prefix}p50_us`/`{prefix}p99_us`.
    fn p50_p99(&mut self, prefix: &str, values_us: &[f64], detail: &str) -> Result<f64, String> {
        let s = Summary::of(values_us).ok_or_else(|| format!("no {prefix} samples"))?;
        let mut sorted = values_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p99 = crate::stats::quantile(&sorted, 0.99);
        let beyond = crate::stats::beyond(s.n, 990);
        self.put(&format!("{prefix}p50_us"), s.median, "us", s.n, detail);
        self.put(
            &format!("{prefix}p99_us"),
            p99,
            "us",
            s.n,
            &format!("{detail}, {beyond} beyond"),
        );
        Ok(s.median)
    }
}

/// Parse each of `rels` with `parse` inside one span, counting files and
/// bytes read.
fn parse_files(
    tracer: &Tracer,
    root: &Path,
    span: &str,
    rels: &[&str],
    parse: impl Fn(&str) -> lacnet_types::Result<()>,
) -> Result<(), String> {
    tracer.span(span, |w| {
        let mut bytes = 0u64;
        for rel in rels {
            let text =
                fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
            bytes += text.len() as u64;
            parse(&text).map_err(|e| format!("parsing {rel}: {e}"))?;
        }
        w.count = Some(rels.len() as u64);
        w.bytes = Some(bytes);
        Ok(())
    })
}

/// What one replayed request sequence cost, layer by layer.
#[derive(Clone)]
struct Segment {
    parse_us: Vec<f64>,
    respond_us: Vec<f64>,
    write_us: Vec<f64>,
    write_bytes: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl Segment {
    fn merge(mut self, other: Segment) -> Segment {
        self.parse_us.extend(other.parse_us);
        self.respond_us.extend(other.respond_us);
        self.write_us.extend(other.write_us);
        self.write_bytes.extend(other.write_bytes);
        self.hits += other.hits;
        self.misses += other.misses;
        self
    }
}

/// Replay `plan` through the server's per-request pipeline in-process:
/// parse each request from the pipelined wire bytes, `respond`, and
/// write the response, one trace per request.
fn replay_requests(
    tracer: &Tracer,
    state: &ServerState,
    plan: &[Req],
    out: &mut Outcome,
) -> Segment {
    let wire: Vec<u8> = plan
        .iter()
        .flat_map(|r| format!("GET {} HTTP/1.1\r\nhost: lacnet\r\n\r\n", r.target).into_bytes())
        .collect();
    let mut cursor = Cursor::new(&wire[..]);
    let limits = Limits::default();
    let (hits0, misses0) = state.metrics().cache_totals();
    let first = tracer.finished();
    let mut buf = Vec::new();
    for req in plan {
        tracer.new_trace();
        tracer.span("serve.request", |_| {
            let parsed = tracer.span("http.parse", |_| read_request(&mut cursor, &limits));
            let Ok(request) = parsed else {
                out.tally
                    .record(false, || format!("{}: request did not parse", req.target));
                return;
            };
            let response = tracer.span("serve.respond", |_| respond(state, &request));
            buf.clear();
            let written = tracer.span("http.write", |w| {
                let r = response.write_to(&mut buf, false);
                w.bytes = Some(buf.len() as u64);
                r
            });
            out.tally.record(
                written.is_ok() && response.status == req.expect.status(),
                || format!("{}: in-process status {}", req.target, response.status),
            );
        });
    }
    let (hits1, misses1) = state.metrics().cache_totals();
    let spans = tracer.spans();
    let pick =
        |name: &str| -> Vec<&Span> { spans[first..].iter().filter(|s| s.name == name).collect() };
    let us = |v: Vec<&Span>| -> Vec<f64> { v.iter().map(|s| s.secs() * 1e6).collect() };
    Segment {
        parse_us: us(pick("http.parse")),
        respond_us: us(pick("serve.respond")),
        write_us: us(pick("http.write")),
        write_bytes: pick("http.write")
            .iter()
            .map(|s| s.bytes.unwrap_or(0) as f64)
            .collect(),
        hits: hits1 - hits0,
        misses: misses1 - misses0,
    }
}

/// `(cc, from, to)` of a well-formed range target.
fn range_of(target: &str) -> Option<(CountryCode, MonthStamp, MonthStamp)> {
    let (path, query) = target.strip_prefix("/ndt/")?.split_once('?')?;
    let mut from = None;
    let mut to = None;
    for pair in query.split('&') {
        match pair.split_once('=')? {
            ("from", v) => from = v.parse().ok(),
            ("to", v) => to = v.parse().ok(),
            _ => {}
        }
    }
    Some((CountryCode::new(path).ok()?, from?, to?))
}

/// Run the traced replay for `workload` and write its spans to `spans`.
pub fn run(ctx: &Ctx, workload: Workload, spans: &Path) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let archive = TempDir::new(&ctx.bins.work, "trace")?;
    dump_archive(&ctx.bins, archive.path(), ctx.seed, ctx.test_world)?;
    let root = archive.path();

    // The `vzla-report --from-archive` path.
    tracer.new_trace();
    let results = tracer.span("replay.reproduce", |_| -> Result<_, String> {
        let source = tracer
            .span("source.load", |_| DataSource::from_archive(root))
            .map_err(|e| format!("archive load: {e}"))?;
        let results = tracer.span("experiments.all", |w| {
            let mut r = experiments::all(&source);
            r.extend(extensions::all(&source));
            w.count = Some(r.len() as u64);
            r
        });
        tracer.span("render.text", |w| {
            let text: String = results.iter().map(render_result).collect();
            w.bytes = Some(text.len() as u64);
        });
        Ok(results)
    })?;
    let reproduce_trace = tracer.first("replay.reproduce").expect("span recorded");

    // Generation and dump, in-process, of the world lacnet-gen dumped.
    tracer.new_trace();
    let mut config = if ctx.test_world {
        WorldConfig::test()
    } else {
        WorldConfig::default()
    };
    config.seed = ctx.seed;
    let world = tracer.span("crisis.generate", |_| {
        World::generate_with(config, Scenario::venezuela())
    });
    let dump = TempDir::new(&ctx.bins.work, "trace-dump")?;
    let options = lacnet_core::DumpOptions {
        shard_format: ShardFormat::Columnar,
        ..Default::default()
    };
    let summary = tracer
        .span("datasets.dump", |w| {
            let s = datasets::dump_with(&world, dump.path(), options);
            if let Ok(s) = &s {
                w.count = Some(s.files.len() as u64);
                w.bytes = Some(s.bytes);
            }
            s
        })
        .map_err(|e| format!("in-process dump: {e}"))?;
    drop(world);
    let same = tree_hash(dump.path()).map_err(|e| e.to_string())?
        == tree_hash(root).map_err(|e| e.to_string())?;
    out.tally
        .record(same, || "in-process dump differs from lacnet-gen's".into());
    drop(dump);

    // Each dataset's parser over the dumped files, as `load_with` runs them.
    tracer.new_trace();
    let manifest =
        fs::read_to_string(root.join("MANIFEST.txt")).map_err(|e| format!("MANIFEST.txt: {e}"))?;
    let entries: Vec<&str> = manifest
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    let under = |prefix: &str| -> Vec<&str> {
        entries
            .iter()
            .copied()
            .filter(|e| e.starts_with(prefix))
            .collect()
    };
    parse_files(&tracer, root, "source.serial1", &under("serial1/"), |t| {
        black_box(lacnet_bgp::AsGraph::from_edges(lacnet_bgp::serial1::parse(
            t,
        )?));
        Ok(())
    })?;
    parse_files(
        &tracer,
        root,
        "source.peeringdb",
        &under("peeringdb/"),
        |t| {
            black_box(lacnet_peeringdb::Snapshot::from_json(t)?);
            Ok(())
        },
    )?;
    let delegations = under("delegations/");
    parse_files(
        &tracer,
        root,
        "source.delegations",
        &delegations[delegations.len().saturating_sub(1)..],
        |t| {
            let file = lacnet_registry::DelegationFile::parse(t)?;
            black_box(lacnet_registry::AllocationLedger::from_delegation_file(
                &file,
            )?);
            Ok(())
        },
    )?;
    parse_files(&tracer, root, "source.cables", &under("cables/"), |t| {
        black_box(lacnet_telegeo::CableMap::from_json(t)?);
        Ok(())
    })?;
    parse_files(&tracer, root, "source.offnets", &under("offnets/"), |t| {
        black_box(lacnet_offnets::CertScan::from_json(t)?);
        Ok(())
    })?;
    parse_files(&tracer, root, "source.topsites", &under("topsites/"), |t| {
        black_box(lacnet_webmeas::CountryTopSites::from_json(t)?);
        Ok(())
    })?;
    parse_files(
        &tracer,
        root,
        "source.reachability",
        &under("atlas/reachability-"),
        |t| {
            black_box(lacnet_atlas::ReachabilitySeries::parse_tsv(t)?);
            Ok(())
        },
    )?;
    let config = tracer.span("source.models", |w| -> Result<WorldConfig, String> {
        let text = fs::read_to_string(root.join("world/config.tsv"))
            .map_err(|e| format!("world/config.tsv: {e}"))?;
        let config = WorldConfig::parse(&text).map_err(|e| e.to_string())?;
        let scenario = match fs::read_to_string(root.join("world/scenario.toml")) {
            Ok(t) => Scenario::parse(&t).map_err(|e| e.to_string())?,
            Err(_) => Scenario::venezuela(),
        };
        black_box(lacnet_crisis::Economy::generate_with(
            config.economy_start,
            config.end,
            &scenario.gdp_anchors,
        ));
        black_box(lacnet_crisis::operators::Operators::generate(config.seed));
        black_box(lacnet_crisis::dns::build_dns_world(config.seed));
        w.count = Some(1);
        w.bytes = Some(text.len() as u64);
        Ok(config)
    })?;
    tracer.span("source.ndt_index", |w| {
        let index = datasets::read_shard_index(root);
        w.count = Some(1);
        w.bytes = fs::metadata(root.join(datasets::MLAB_INDEX))
            .ok()
            .map(|m| m.len());
        black_box(index);
    });
    let plan = lacnet_crisis::bandwidth::shard_plan(windows::mlab_start(), config.end);
    let selection = ColumnSelection::columns(registry::ndt_column_union());
    let batches = tracer.span("mlab.decode", |w| -> Result<Vec<_>, String> {
        let decoded = sweep::parallel_map_with(sweep::worker_count(plan.len()), &plan, |&shard| {
            let rel = datasets::mlab_shard_path_with(shard, ShardFormat::Columnar);
            let bytes = fs::read(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
            let batch =
                columnar::read_batch(&bytes, &selection).map_err(|e| format!("{rel}: {e}"))?;
            Ok::<_, String>((batch, bytes.len() as u64))
        });
        let decoded: Vec<_> = decoded.into_iter().collect::<Result<_, _>>()?;
        w.count = Some(decoded.len() as u64);
        w.bytes = Some(decoded.iter().map(|(_, n)| n).sum());
        Ok(decoded.into_iter().map(|(b, _)| b).collect())
    })?;
    tracer.span("mlab.aggregate", |w| {
        let mut agg = MonthlyAggregator::new(Mode::Streaming);
        let rows: usize = batches.iter().map(|b| agg.observe_columns(b)).sum();
        w.count = Some(rows as u64);
        black_box(agg);
    });
    drop(batches);

    // The lazy BGP caches, filled on a fresh source.
    tracer.new_trace();
    let fresh = ArchiveWorld::load(root).map_err(|e| format!("archive load: {e}"))?;
    let pfx_files = under("pfx2as/");
    let pfx_months: Vec<MonthStamp> = pfx_files
        .iter()
        .filter_map(|rel| {
            // `pfx2as/routeviews-rv2-YYYYMM01.pfx2as`
            let stamp = rel.rsplit('-').next()?.get(..6)?;
            MonthStamp::try_new(stamp[..4].parse().ok()?, stamp[4..].parse().ok()?).ok()
        })
        .collect();
    let pfx_bytes: u64 = pfx_files
        .iter()
        .filter_map(|rel| fs::metadata(root.join(rel)).ok())
        .map(|m| m.len())
        .sum();
    out.tally.record(pfx_months.len() == pfx_files.len(), || {
        "could not read every pfx2as dump month".into()
    });
    tracer.span("bgp.pfx2as_parse", |w| {
        for &m in &pfx_months {
            black_box(fresh.pfx2as_at(m));
        }
        w.count = Some(pfx_months.len() as u64);
        w.bytes = Some(pfx_bytes);
    });
    tracer.span("bgp.cone", |w| {
        let months: Vec<MonthStamp> = fresh.topology.iter().map(|(m, _)| m).collect();
        for &m in &months {
            black_box(fresh.customer_cone_at(m, lacnet_crisis::world::FOCAL_AS));
        }
        w.count = Some(months.len() as u64);
    });
    drop(fresh);

    // Each experiment alone, in registry order, on one fresh source.
    tracer.new_trace();
    let fresh = DataSource::from_archive(root).map_err(|e| format!("archive load: {e}"))?;
    let per_id: Vec<_> = registry::ENDPOINTS
        .iter()
        .map(|e| tracer.span(&format!("experiments.{}", e.id), |_| (e.run)(&fresh)))
        .collect();
    drop(fresh);
    let battery_tsv: BTreeMap<&str, String> = results
        .iter()
        .map(|r| (r.id.as_str(), canonical_tsv(r)))
        .collect();
    for r in &per_id {
        out.tally.record(
            battery_tsv.get(r.id.as_str()) == Some(&canonical_tsv(r)),
            || format!("{} alone differs from {} in the battery", r.id, r.id),
        );
    }

    // The JSON and TSV renders the server runs on a miss.
    tracer.new_trace();
    tracer.span("render.tsv", |w| {
        w.count = Some(per_id.len() as u64);
        w.bytes = Some(per_id.iter().map(|r| canonical_tsv(r).len() as u64).sum());
    });
    tracer.span("render.json", |w| {
        w.count = Some(per_id.len() as u64);
        w.bytes = Some(
            per_id
                .iter()
                .map(|r| result_json(r).to_text().len() as u64)
                .sum(),
        );
    });

    // The serve pipeline over the request mixes.
    let shared =
        Arc::new(DataSource::from_archive(root).map_err(|e| format!("archive load: {e}"))?);
    let keys = mix::battery();
    let hot = mix::hot_draws(&keys, ctx.seed, STREAM_HOT, HOT_REPLAY);
    let ndt = NdtSpace::from_archive(root)?.requests(ctx.seed, STREAM_NDT, NDT_REPLAY);
    let warm_state = ServerState::new(Arc::clone(&shared), CACHE_CAPACITY as usize);
    let cold = replay_requests(&tracer, &warm_state, &keys, &mut out);
    let hot_seg = replay_requests(&tracer, &warm_state, &hot, &mut out);
    tracer.new_trace();
    tracer.span("serve.metrics_render", |w| {
        for _ in 0..METRICS_RENDERS {
            black_box(warm_state.metrics().render());
        }
        w.count = Some(METRICS_RENDERS);
    });
    let ndt_state = ServerState::new(Arc::clone(&shared), CACHE_CAPACITY as usize);
    let ndt_seg = replay_requests(&tracer, &ndt_state, &ndt, &mut out);
    let (mut planned, mut pruned, mut blocks, mut bytes) = (vec![], vec![], vec![], vec![]);
    for (cc, from, to) in ndt
        .iter()
        .filter(|r| r.expect == Expect::Ok)
        .filter_map(|r| range_of(&r.target))
    {
        tracer.new_trace();
        let stats = tracer.span("ndt_range.query", |w| {
            let stats = shared.ndt_range_stats(cc, from, to);
            if let Ok(s) = &stats {
                w.count = Some(s.months.len() as u64);
                w.bytes = Some(s.read.bytes_decoded as u64);
            }
            stats
        });
        let stats = stats.map_err(|e| format!("ndt_range_stats: {e}"))?;
        planned.push((stats.months.len() + stats.shards_pruned) as f64);
        pruned.push(stats.shards_pruned as f64);
        blocks.push(stats.read.blocks_decoded as f64);
        bytes.push(stats.read.bytes_decoded as f64);
    }
    drop(shared);

    // Over the wire: the hot p50 the in-process respond time is part of.
    let server = Server::boot(&ctx.bins, root)?;
    let mut conns = open_conns(&server)?;
    let t0 = Instant::now();
    drive_queue(&mut conns, &keys, &[], t0, t0 + 6 * REQUEST_TIMEOUT);
    let wire = drive_closed(
        &mut conns,
        &keys,
        ctx.seed ^ STREAM_HOT,
        Instant::now() + Duration::from_secs_f64(ctx.seconds.min(WIRE_SECONDS)),
    );
    drop(conns);
    drop(server);
    let hot_p50_ms = median(
        &wire
            .iter()
            .filter(|s| s.reply.is_ok())
            .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
    .ok_or("no hot request completed over the wire")?;

    // The untraced runs the tracing overhead is measured against.
    let untraced: Vec<f64> = (0..UNTRACED_RUNS)
        .map(|_| run_report(&ctx.bins, root).map(|r| r.wall))
        .collect::<Result<_, _>>()?;
    let untraced_s = median(&untraced).expect("runs were made");

    // Per-layer metrics.
    layers.time(&tracer, "crisis.generate")?;
    layers.time(&tracer, "datasets.dump")?;
    layers.put(
        "datasets.bytes_written",
        summary.bytes as f64,
        "bytes",
        1,
        "bytes the dump wrote",
    );
    layers.put(
        "datasets.files_written",
        summary.files.len() as f64,
        "count",
        1,
        "files in the dumped tree",
    );
    layers.time(&tracer, "source.load")?;
    for ds in DATASETS {
        let detail = format!("source.{ds}");
        let span = layers.time(&tracer, &detail)?;
        layers.put(
            &format!("source.{ds}.files"),
            span.count.unwrap_or(0) as f64,
            "count",
            1,
            &detail,
        );
        layers.put(
            &format!("source.{ds}.bytes"),
            span.bytes.unwrap_or(0) as f64,
            "bytes",
            1,
            &detail,
        );
    }
    let decode = layers.time(&tracer, "mlab.decode")?;
    layers.put(
        "mlab.decode_bytes",
        decode.bytes.unwrap_or(0) as f64,
        "bytes",
        1,
        "shard bytes read_batch decoded",
    );
    layers.time(&tracer, "mlab.aggregate")?;
    layers.time(&tracer, "bgp.pfx2as_parse")?;
    layers.time(&tracer, "bgp.cone")?;
    for e in &registry::ENDPOINTS {
        layers.time(&tracer, &format!("experiments.{}", e.id))?;
    }
    layers.time(&tracer, "experiments.all")?;
    for kind in ["tsv", "json", "text"] {
        let name = format!("render.{kind}");
        let span = layers.time(&tracer, &name)?;
        layers.put(
            &format!("render.{kind}_bytes"),
            span.bytes.unwrap_or(0) as f64,
            "bytes",
            1,
            &name,
        );
    }

    let own = match workload {
        Workload::Reproduce | Workload::ServeCold => cold,
        Workload::ServeHot => cold.merge(hot_seg.clone()),
        Workload::NdtMix => ndt_seg.clone(),
    };
    let seen = own.hits + own.misses;
    layers.put(
        "lru.hit_ratio",
        if seen == 0 {
            0.0
        } else {
            own.hits as f64 / seen as f64
        },
        "ratio",
        seen as usize,
        "cache hits over lookups on the workload's requests",
    );
    layers.put("lru.misses", own.misses as f64, "count", seen as usize, "");
    layers.put(
        "lru.evictions",
        own.misses.saturating_sub(CACHE_CAPACITY) as f64,
        "count",
        seen as usize,
        "max(0, misses - capacity)",
    );
    layers.mean(
        "http.parse_us",
        &own.parse_us,
        "us",
        "read_request per request, pipelined",
    );
    layers.mean(
        "http.write_us",
        &own.write_us,
        "us",
        "Response::write_to into a Vec",
    );
    layers.mean(
        "http.bytes_per_resp",
        &own.write_bytes,
        "bytes",
        "bytes written per response",
    );
    let hit_p50 = layers.p50_p99(
        "serve.respond_hit_",
        &hot_seg.respond_us,
        "respond on a warm state over the hot mix",
    )?;
    layers.p50_p99(
        "serve.respond_ndt_",
        &ndt_seg.respond_us,
        "respond over the NDT mix",
    )?;
    let render_span = tracer
        .first("serve.metrics_render")
        .ok_or("no metrics render span")?;
    layers.put(
        "serve.metrics_render_us",
        render_span.secs() * 1e6 / METRICS_RENDERS as f64,
        "us",
        METRICS_RENDERS as usize,
        "mean /metrics exposition render",
    );
    layers.put(
        "serve.wire_wait_ms",
        hot_p50_ms - hit_p50 / 1e3,
        "ms",
        wire.len(),
        &format!("hot p50 over the wire ({hot_p50_ms:.4} ms) minus respond_hit p50"),
    );
    let range_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "ndt_range.query")
        .map(|s| s.secs() * 1e6)
        .collect();
    layers.p50_p99("ndt_range.", &range_us, "ArchiveWorld::ndt_range_stats")?;
    layers.mean("ndt_range.shards_planned", &planned, "count", "per query");
    layers.mean("ndt_range.shards_pruned", &pruned, "count", "per query");
    layers.mean("ndt_range.blocks_decoded", &blocks, "count", "per query");
    layers.mean("ndt_range.bytes_decoded", &bytes, "bytes", "per query");
    layers.put(
        "trace.overhead",
        reproduce_trace.secs() / untraced_s,
        "ratio",
        UNTRACED_RUNS,
        &format!(
            "traced reproduce replay {:.4} s over untraced vzla-report median {untraced_s:.4} s",
            reproduce_trace.secs()
        ),
    );

    // Where the time went.
    let all = tracer.spans();
    for (layer, secs) in layer_self_times(&all) {
        out.notes
            .push(format!("self time {layer:<12} {secs:>10.4} s"));
    }
    let replay: Vec<Span> = all
        .iter()
        .filter(|s| s.trace == reproduce_trace.trace)
        .cloned()
        .collect();
    let covered: f64 = layer_self_times(&replay)
        .iter()
        .filter(|(layer, _)| layer.as_str() != "replay")
        .map(|(_, s)| s)
        .sum();
    out.notes.push(format!(
        "reproduce replay: layer self times cover {:.1}% of its {:.4} s traced wall",
        100.0 * covered / reproduce_trace.secs(),
        reproduce_trace.secs()
    ));
    tracer
        .write_jsonl(spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        all.len(),
        spans.display()
    ));
    out.metrics = layers.0;
    Ok(out)
}
