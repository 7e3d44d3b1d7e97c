//! The four end-to-end workloads, run against the release binaries as
//! child processes with tracing off.
//!
//! Every workload reports the same five end-to-end metrics, each read
//! the way that workload's user meets it (see `benchmark/README.md`):
//! set-up time, median and tail latency of its unit of work, the rate
//! that work completes at, and the child's peak resident set. Outputs
//! are checked after the timed phase: every reply body against the
//! in-process `serve::respond` over the same archive, every report
//! against the in-process battery.

use crate::client::{drive_closed, drive_queue, Conn, Sample, REQUEST_TIMEOUT};
use crate::mix::{self, NdtSpace, Req};
use crate::procs::{dump_archive, run_report, tree_hash, Bins, Server, TempDir};
use crate::stats::Summary;
use lacnet_core::serve::{respond, ServerState};
use lacnet_core::{experiments, extensions, render, DataSource};
use lacnet_types::codec::fnv1a64;
use lacnet_types::http::Request;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections the load generator holds, and the server's worker count:
/// the load is sized to a two-core machine.
pub const CONNECTIONS: usize = 2;
/// `lacnet-serve`'s default response-cache capacity.
pub const CACHE_CAPACITY: u64 = 128;
/// Archive dumps per `reproduce` run; its `setup_s` is their median.
const DUMP_REPEATS: usize = 3;
/// Server boots per `serve_hot` and `ndt_mix` run; their `setup_s` is
/// the median. Boots are cheap, so more of them steady the median.
const BOOT_REPEATS: usize = 5;
/// Fewest timed repetitions of a batch workload, however short the run.
const MIN_REPEATS: usize = 2;
/// NDT base rate (requests per second) at which latency is reported.
pub const BASE_RATE: f64 = 40.0;
/// Ladder rates tried after the base rate, stopping at the first failure.
pub const LADDER: [f64; 5] = [80.0, 160.0, 320.0, 640.0, 1280.0];
/// Latency limit on a rung's tail percentile.
pub const LIMIT_MS: f64 = 100.0;
/// Untimed NDT requests sent before the base phase.
const NDT_WARMUP: usize = 20;
/// Seed streams, so each use of one seed draws independently.
pub const STREAM_NDT: u64 = 1;
const STREAM_NDT_WARMUP: u64 = 2;
pub const STREAM_HOT: u64 = 3;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dump an archive, then run the battery from it with `vzla-report`.
    Reproduce,
    /// Boot servers and fetch the 50 cold battery keys from each.
    ServeCold,
    /// Closed loop over the 50 warmed keys.
    ServeHot,
    /// Open-loop NDT month and range queries with a rate ladder.
    NdtMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Reproduce,
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::NdtMix,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
            Workload::NdtMix => "ndt_mix",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What every run is parameterised by.
pub struct Ctx {
    /// The program's binaries and the scratch directory.
    pub bins: Bins,
    /// The input seed: the world's seed and the request streams' seed.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Dump the reduced test world instead of the default world.
    pub test_world: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// What the value is, in this workload's terms.
    pub detail: String,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure reasons.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(why());
            }
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation counts.
    pub tally: Tally,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Further lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Run one workload end to end.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    match workload {
        Workload::Reproduce => reproduce(ctx),
        Workload::ServeCold => serve_cold(ctx),
        Workload::ServeHot => serve_hot(ctx),
        Workload::NdtMix => ndt_mix(ctx),
    }
}

/// The end-to-end metric names, in report order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_per_s",
    "peak_rss_mib",
];

/// Assemble the five end-to-end metrics.
fn end_to_end(
    setup_s: &[f64],
    setup_what: &str,
    latency_ms: &[f64],
    latency_what: &str,
    throughput: (f64, usize, String),
    rss_mib: &[f64],
) -> Result<Vec<Metric>, String> {
    let setup = Summary::of(setup_s).ok_or("no set-up was timed")?;
    let lat = Summary::of(latency_ms).ok_or("no operation completed")?;
    let rss = Summary::of(rss_mib).ok_or("peak RSS could not be read")?;
    Ok(vec![
        Metric {
            name: END_TO_END[0].into(),
            value: setup.median,
            unit: "s",
            samples: setup.n,
            detail: format!("{setup_what}, median"),
        },
        Metric {
            name: END_TO_END[1].into(),
            value: lat.median,
            unit: "ms",
            samples: lat.n,
            detail: format!(
                "{latency_what}, median (q1 {:.4}, q3 {:.4})",
                lat.q1, lat.q3
            ),
        },
        Metric {
            name: END_TO_END[2].into(),
            value: lat.tail.1,
            unit: "ms",
            samples: lat.n,
            detail: format!("{latency_what}, {}", lat.tail_label()),
        },
        Metric {
            name: END_TO_END[3].into(),
            value: throughput.0,
            unit: "1/s",
            samples: throughput.1,
            detail: throughput.2,
        },
        Metric {
            name: END_TO_END[4].into(),
            value: rss.median,
            unit: "MiB",
            samples: rss.n,
            detail: "child VmHWM, median".into(),
        },
    ])
}

/// A `GET` request for `target`, as the server's parser would build it.
pub fn request_for(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".into(),
        path: path.to_owned(),
        query: query.to_owned(),
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// The in-process reference: `serve::respond` on a `ServerState` over
/// the same archive, memoised per target.
pub struct Reference {
    state: ServerState,
    memo: BTreeMap<String, (u16, u64)>,
}

impl Reference {
    /// Load the archive at `root` in-process.
    pub fn load(root: &Path) -> Result<Reference, String> {
        let source = DataSource::from_archive(root).map_err(|e| format!("archive load: {e}"))?;
        Ok(Reference {
            state: ServerState::new(Arc::new(source), CACHE_CAPACITY as usize),
            memo: BTreeMap::new(),
        })
    }

    /// The status and body hash a correct server answers `target` with.
    pub fn expect(&mut self, target: &str) -> (u16, u64) {
        if let Some(&hit) = self.memo.get(target) {
            return hit;
        }
        let response = respond(&self.state, &request_for(target));
        let answer = (response.status, fnv1a64(&response.body));
        self.memo.insert(target.to_owned(), answer);
        answer
    }
}

/// Count each sample as one operation: failed on an I/O error, on a
/// status other than the request's expectation, or on a body that
/// differs from `reference`'s.
pub fn judge<'a>(
    tally: &mut Tally,
    plan: &[Req],
    samples: impl IntoIterator<Item = &'a Sample>,
    reference: &mut impl FnMut(&str) -> (u16, u64),
) {
    for sample in samples {
        let req = &plan[sample.index];
        match &sample.reply {
            Err(e) => tally.record(false, || format!("{}: {e}", req.target)),
            Ok(reply) if reply.status != req.expect.status() => tally.record(false, || {
                format!(
                    "{}: status {} (expected {})",
                    req.target,
                    reply.status,
                    req.expect.status()
                )
            }),
            Ok(reply) => {
                let ok = reference(&req.target) == (reply.status, reply.hash);
                tally.record(ok, || {
                    format!("{}: body differs from the in-process reply", req.target)
                })
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The load generator's [`CONNECTIONS`] connections to `server`.
pub fn open_conns(server: &Server) -> Result<Vec<Conn>, String> {
    (0..CONNECTIONS)
        .map(|_| Conn::open(server.addr).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Sum the response-cache counters from `/metrics`: `(hits, misses)`.
fn scrape_cache(conn: &mut Conn) -> Result<(u64, u64), String> {
    let (status, body) = conn
        .get_body("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let sum = |family: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    Ok((
        sum("lacnet_cache_hits_total{"),
        sum("lacnet_cache_misses_total{"),
    ))
}

fn cache_note(hits: u64, misses: u64) -> String {
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    format!(
        "lru: hit_ratio {ratio:.4}, misses {misses}, evictions {}",
        misses.saturating_sub(CACHE_CAPACITY)
    )
}

/// Dump the seed's archive as untimed input for the serve workloads.
fn input_archive(ctx: &Ctx, tag: &str) -> Result<TempDir, String> {
    let dir = TempDir::new(&ctx.bins.work, tag)?;
    dump_archive(&ctx.bins, dir.path(), ctx.seed, ctx.test_world)?;
    Ok(dir)
}

/// What `vzla-report --from-archive` must print for `root`: every
/// result's text render in battery order, then the match summary.
fn expected_report(root: &Path) -> Result<(String, usize, usize), String> {
    let source = DataSource::from_archive(root).map_err(|e| format!("archive load: {e}"))?;
    let mut results = experiments::all(&source);
    results.extend(extensions::all(&source));
    let text: String = results.iter().map(render::render_result).collect();
    let matched = results.iter().filter(|r| r.all_match()).count();
    Ok((text, matched, results.len() - matched))
}

/// `reproduce`: set-up is `lacnet-gen` dumping the archive (repeated,
/// each into a fresh directory); the timed part runs `vzla-report
/// --from-archive` back to back for the run's length.
fn reproduce(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut dumps = Vec::new();
    for _ in 0..DUMP_REPEATS {
        let dir = TempDir::new(&ctx.bins.work, "reproduce")?;
        setup.push(dump_archive(
            &ctx.bins,
            dir.path(),
            ctx.seed,
            ctx.test_world,
        )?);
        dumps.push(dir);
    }
    let hashes: Vec<u64> = dumps
        .iter()
        .map(|d| tree_hash(d.path()).map_err(|e| format!("hashing a dump: {e}")))
        .collect::<Result<_, _>>()?;
    for &h in &hashes {
        out.tally
            .record(h == hashes[0], || "two dumps of one seed differ".into());
    }
    let archive = dumps.swap_remove(0);
    drop(dumps);

    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut runs = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < ctx.seconds {
        let run = run_report(&ctx.bins, archive.path())?;
        walls.push(run.wall * 1e3);
        rss.extend(run.peak_rss_kib.map(|kib| kib as f64 / 1024.0));
        runs.push((run.status, run.stdout));
    }

    let (text, matched, diverged) = expected_report(archive.path())?;
    let trailer = format!("{matched} experiments matched");
    let divergence = format!(", {diverged} diverged.");
    for (status, stdout) in &runs {
        let printed = String::from_utf8_lossy(stdout);
        let ok = printed.starts_with(&text)
            && printed[text.len().min(printed.len())..].contains(&trailer)
            && printed.contains(&divergence)
            && status.success() == (diverged == 0);
        out.tally.record(ok, || {
            format!(
                "vzla-report output or exit status ({status}) differs from the in-process battery"
            )
        });
    }
    out.notes.push(format!(
        "battery: {matched} matched, {diverged} diverged (the seed's world against the paper)"
    ));
    out.metrics = end_to_end(
        &setup,
        "lacnet-gen dump wall",
        &walls,
        "vzla-report wall (reproduce_s)",
        (
            1e3 * walls.len() as f64 / walls.iter().sum::<f64>(),
            walls.len(),
            "battery runs per second of report wall time".into(),
        ),
        &rss,
    )?;
    Ok(out)
}

/// `serve_cold`: boot servers back to back for the run's length; each
/// fetches the 50 battery keys over two connections from a shared queue.
fn serve_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let archive = input_archive(ctx, "cold")?;
    let keys = mix::battery();
    let (mut setup, mut latency, mut battery_s, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut samples: Vec<Option<Sample>> = Vec::new();
    let mut cache = (0, 0);
    let start = Instant::now();
    while battery_s.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < ctx.seconds {
        let server = Server::boot(&ctx.bins, archive.path())?;
        setup.push(server.setup);
        let mut conns = open_conns(&server)?;
        let t0 = Instant::now();
        let boot = drive_queue(&mut conns, &keys, &[], t0, t0 + 6 * REQUEST_TIMEOUT);
        let done: Vec<&Sample> = boot.iter().flatten().collect();
        if let (Some(first), Some(last)) = (
            done.iter().map(|s| s.sent).min(),
            done.iter().map(|s| s.done).max(),
        ) {
            battery_s.push((last - first).as_secs_f64());
        }
        latency.extend(done.iter().map(|s| ms(s.done - s.sent)));
        cache = scrape_cache(&mut conns[0])?;
        rss.extend(server.peak_rss_mib());
        samples.extend(boot);
    }
    let abandoned = samples.iter().filter(|s| s.is_none()).count();
    for _ in 0..abandoned {
        out.tally.record(false, || "cold key never sent".into());
    }
    let mut reference = Reference::load(archive.path())?;
    judge(&mut out.tally, &keys, samples.iter().flatten(), &mut |t| {
        reference.expect(t)
    });
    let battery = Summary::of(&battery_s).ok_or("no cold battery completed")?;
    out.notes.push(format!(
        "cold_battery_s: median {:.4} s (q1 {:.4}, q3 {:.4}) over {} boots",
        battery.median, battery.q1, battery.q3, battery.n
    ));
    out.notes.push(cache_note(cache.0, cache.1));
    out.metrics = end_to_end(
        &setup,
        "spawn to first /healthz 200",
        &latency,
        "cold key latency, send to last byte",
        (
            keys.len() as f64 / battery.median,
            battery.n,
            "cold keys per second: 50 / cold_battery_s".into(),
        ),
        &rss,
    )?;
    Ok(out)
}

/// Boot [`BOOT_REPEATS`] servers one after another, timing each, and
/// keep the last.
fn boot_repeatedly(ctx: &Ctx, archive: &Path, setup: &mut Vec<f64>) -> Result<Server, String> {
    let mut server = Server::boot(&ctx.bins, archive)?;
    setup.push(server.setup);
    for _ in 1..BOOT_REPEATS {
        drop(server);
        server = Server::boot(&ctx.bins, archive)?;
        setup.push(server.setup);
    }
    Ok(server)
}

/// `serve_hot`: warm the 50 keys, then a closed loop over them on the
/// same two connections for the run's length.
fn serve_hot(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let archive = input_archive(ctx, "hot")?;
    let keys = mix::battery();
    let mut setup = Vec::new();
    let server = boot_repeatedly(ctx, archive.path(), &mut setup)?;
    let mut conns = open_conns(&server)?;
    let t0 = Instant::now();
    let warm = drive_queue(&mut conns, &keys, &[], t0, t0 + 6 * REQUEST_TIMEOUT);
    let start = Instant::now();
    let timed = drive_closed(
        &mut conns,
        &keys,
        ctx.seed ^ STREAM_HOT,
        start + Duration::from_secs_f64(ctx.seconds),
    );
    let end = timed.iter().map(|s| s.done).max().unwrap_or(start);
    let (hits, misses) = scrape_cache(&mut conns[0])?;
    let rss: Vec<f64> = server.peak_rss_mib().into_iter().collect();
    drop(conns);
    drop(server);

    let unsent = warm.iter().filter(|s| s.is_none()).count();
    for _ in 0..unsent {
        out.tally.record(false, || "warm-up key never sent".into());
    }
    let mut reference = Reference::load(archive.path())?;
    let mut check = |t: &str| reference.expect(t);
    judge(&mut out.tally, &keys, warm.iter().flatten(), &mut check);
    judge(&mut out.tally, &keys, &timed, &mut check);
    let latency: Vec<f64> = timed.iter().map(|s| ms(s.done - s.sent)).collect();
    out.notes.push(cache_note(hits, misses));
    out.metrics = end_to_end(
        &setup,
        "spawn to first /healthz 200",
        &latency,
        "hot request latency (hot_p50_ms / hot_p99_ms)",
        (
            timed.len() as f64 / (end - start).as_secs_f64().max(1e-9),
            timed.len(),
            "hot requests per second (hot_rps)".into(),
        ),
        &rss,
    )?;
    Ok(out)
}

/// One open-loop phase at a fixed rate.
#[derive(Debug)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The requests the phase planned.
    pub plan: Vec<Req>,
    /// Per planned request: the exchange, or `None` if abandoned.
    pub samples: Vec<Option<Sample>>,
    /// When the first request was due.
    pub start: Instant,
}

impl Phase {
    /// Latencies from the due time, in ms, of the completed exchanges.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .flatten()
            .map(|s| ms(s.since_due()))
            .collect()
    }

    /// Requests that were never sent.
    pub fn abandoned(&self) -> usize {
        self.samples.iter().filter(|s| s.is_none()).count()
    }

    /// Exchanges with an I/O error or an unexpected status.
    pub fn errors(&self) -> usize {
        self.samples
            .iter()
            .flatten()
            .filter(
                |s| !matches!(&s.reply, Ok(r) if r.status == self.plan[s.index].expect.status()),
            )
            .count()
    }

    /// The rung passes when every request was sent and answered as
    /// expected and the tail latency from the due time is within
    /// [`LIMIT_MS`].
    pub fn passed(&self) -> bool {
        self.abandoned() == 0
            && self.errors() == 0
            && Summary::of(&self.latencies_ms()).is_some_and(|s| s.tail.1 <= LIMIT_MS)
    }

    /// Completed exchanges per second, from the first due time to the
    /// last reply.
    pub fn achieved_rate(&self) -> f64 {
        let done: Vec<&Sample> = self.samples.iter().flatten().collect();
        let last = done.iter().map(|s| s.done).max().unwrap_or(self.start);
        done.len() as f64 / (last - self.start).as_secs_f64().max(1e-9)
    }
}

/// Send `plan` at `rate` per second, each request due `i / rate` after
/// the phase starts. Requests not sent by `give_up_after` past the
/// phase's last due time are abandoned.
pub fn open_loop(conns: &mut [Conn], plan: &[Req], rate: f64, give_up_after: Duration) -> Phase {
    let due: Vec<Duration> = (0..plan.len())
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = due.last().copied().unwrap_or_default();
    let samples = drive_queue(conns, plan, &due, start, start + last_due + give_up_after);
    Phase {
        rate,
        plan: plan.to_vec(),
        samples,
        start,
    }
}

/// Run `run` on each step in turn, stopping after the first rung that
/// does not pass.
pub fn climb<T: Copy, R>(
    steps: &[T],
    mut run: impl FnMut(T) -> R,
    passed: impl Fn(&R) -> bool,
) -> Vec<R> {
    let mut rungs = Vec::new();
    for &step in steps {
        let rung = run(step);
        let ok = passed(&rung);
        rungs.push(rung);
        if !ok {
            break;
        }
    }
    rungs
}

/// `ndt_mix`: open-loop NDT queries at the base rate for the run's
/// length, then ladder rungs of a fifth of that length each.
fn ndt_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let archive = input_archive(ctx, "ndt")?;
    let space = NdtSpace::from_archive(archive.path())?;
    let mut setup = Vec::new();
    let server = boot_repeatedly(ctx, archive.path(), &mut setup)?;
    let mut conns = open_conns(&server)?;

    let warm_plan = space.requests(ctx.seed, STREAM_NDT_WARMUP, NDT_WARMUP);
    let t0 = Instant::now();
    let warm = drive_queue(&mut conns, &warm_plan, &[], t0, t0 + 6 * REQUEST_TIMEOUT);

    let rung_seconds = ctx.seconds / LADDER.len() as f64;
    let base_n = ((BASE_RATE * ctx.seconds).round() as usize).max(1);
    let steps: Vec<(f64, usize)> = LADDER
        .iter()
        .map(|&rate| (rate, ((rate * rung_seconds).round() as usize).max(1)))
        .collect();
    let total = base_n + steps.iter().map(|&(_, n)| n).sum::<usize>();
    let plan = space.requests(ctx.seed, STREAM_NDT, total);

    let base = open_loop(&mut conns, &plan[..base_n], BASE_RATE, REQUEST_TIMEOUT);
    let mut offset = base_n;
    let rungs = if base.passed() {
        climb(
            &steps,
            |(rate, n)| {
                offset += n;
                open_loop(
                    &mut conns,
                    &plan[offset - n..offset],
                    rate,
                    Duration::from_secs_f64(LIMIT_MS / 1e3),
                )
            },
            Phase::passed,
        )
    } else {
        Vec::new()
    };
    let (hits, misses) = scrape_cache(&mut conns[0])?;
    let rss: Vec<f64> = server.peak_rss_mib().into_iter().collect();
    drop(conns);
    drop(server);

    let mut reference = Reference::load(archive.path())?;
    let mut check = |t: &str| reference.expect(t);
    let unsent = warm.iter().filter(|s| s.is_none()).count() + base.abandoned();
    for _ in 0..unsent {
        out.tally.record(false, || {
            "request never sent (base rate not sustained)".into()
        });
    }
    judge(
        &mut out.tally,
        &warm_plan,
        warm.iter().flatten(),
        &mut check,
    );
    for phase in std::iter::once(&base).chain(&rungs) {
        judge(
            &mut out.tally,
            &phase.plan,
            phase.samples.iter().flatten(),
            &mut check,
        );
    }

    let lateness: Vec<f64> = base
        .samples
        .iter()
        .flatten()
        .map(|s| ms(s.late()))
        .collect();
    if let Some(late) = Summary::of(&lateness) {
        out.notes.push(format!(
            "generator lateness at {BASE_RATE} req/s: median {:.4} ms, {} {:.4} ms",
            late.median,
            crate::stats::percentile_label(late.tail.0),
            late.tail.1
        ));
    }
    let mut best = base.passed().then_some(&base);
    for phase in &rungs {
        let lat = Summary::of(&phase.latencies_ms());
        out.notes.push(format!(
            "rung {:>6.0} req/s: {} sent, {} abandoned, {} errors, tail {} -> {}",
            phase.rate,
            phase.samples.iter().flatten().count(),
            phase.abandoned(),
            phase.errors(),
            lat.map_or("n/a".into(), |s| format!(
                "{:.4} ms {}",
                s.tail.1,
                s.tail_label()
            )),
            if phase.passed() { "pass" } else { "fail" },
        ));
        if phase.passed() {
            best = Some(phase);
        }
    }
    let max_rate = best.map_or(0.0, |p| p.rate);
    let rated = best.unwrap_or(&base);
    out.notes.push(format!(
        "ndt_max_rps: {max_rate} (highest rate with tail <= {LIMIT_MS} ms and no failures; 0 if the base rate fails)"
    ));
    out.notes.push(cache_note(hits, misses));
    out.metrics = end_to_end(
        &setup,
        "spawn to first /healthz 200",
        &base.latencies_ms(),
        &format!("NDT latency from due time at {BASE_RATE} req/s (ndt_p50_ms / ndt_p99_ms)"),
        (
            rated.achieved_rate(),
            rated.samples.iter().flatten().count(),
            format!(
                "completed rate of the highest passing rung ({} req/s offered)",
                rated.rate
            ),
        ),
        &rss,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Expect;
    use lacnet_types::http::{read_request, Limits, Response};
    use std::collections::BTreeSet;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A two-connection server on loopback that sleeps `delay` before
    /// each reply and answers 400 to targets in `bad`, 200 otherwise.
    fn fake_server(delay: Duration, bad: BTreeSet<String>, run: impl FnOnce(std::net::SocketAddr)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let bad = &bad;
            scope.spawn(move || {
                for _ in 0..CONNECTIONS {
                    let (stream, _) = listener.accept().unwrap();
                    scope.spawn(move || {
                        let mut writer = stream.try_clone().unwrap();
                        let mut reader = BufReader::new(stream);
                        while let Ok(req) = read_request(&mut reader, &Limits::default()) {
                            std::thread::sleep(delay);
                            let target = if req.query.is_empty() {
                                req.path.clone()
                            } else {
                                format!("{}?{}", req.path, req.query)
                            };
                            let status = if bad.contains(&target) { 400 } else { 200 };
                            let body = format!("{status} {target}");
                            if Response::new(status, "text/plain", body)
                                .write_to(&mut writer, false)
                                .is_err()
                            {
                                break;
                            }
                        }
                    });
                }
            });
            run(addr);
        });
    }

    fn conns(addr: std::net::SocketAddr) -> Vec<Conn> {
        (0..CONNECTIONS)
            .map(|_| Conn::open(addr).unwrap())
            .collect()
    }

    fn plain(n: usize) -> Vec<Req> {
        (0..n)
            .map(|i| Req {
                target: format!("/k/{i}"),
                expect: Expect::Ok,
            })
            .collect()
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_and_a_stall_fails_the_rung() {
        // Each reply takes 50 ms, so two connections carry 40 req/s;
        // offered 100 req/s, the backlog grows and so does latency.
        fake_server(Duration::from_millis(50), BTreeSet::new(), |addr| {
            let mut conns = conns(addr);
            let plan = plain(40);
            let phase = open_loop(&mut conns, &plan, 100.0, Duration::from_secs(5));
            assert_eq!(phase.abandoned(), 0);
            let lat = phase.latencies_ms();
            let quarter = lat.len() / 4;
            let early: f64 = lat[..quarter].iter().sum::<f64>() / quarter as f64;
            let late: f64 = lat[lat.len() - quarter..].iter().sum::<f64>() / quarter as f64;
            assert!(late > early + 100.0, "latency must grow: {early} -> {late}");
            // Every reply took ~50 ms to serve, yet latency from the due
            // time reaches hundreds: the queueing wait is counted.
            let service: Vec<f64> = phase
                .samples
                .iter()
                .flatten()
                .map(|s| ms(s.done - s.sent))
                .collect();
            assert!(service.iter().all(|&s| s < 200.0), "{service:?}");
            assert!(!phase.passed(), "a stalled server fails the rung");
        });
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let mut tried = Vec::new();
        let rungs = climb(
            &LADDER,
            |rate| {
                tried.push(rate);
                rate
            },
            |&rate| rate < 300.0,
        );
        assert_eq!(tried, vec![80.0, 160.0, 320.0]);
        assert_eq!(rungs, vec![80.0, 160.0, 320.0]);
        let all = climb(&LADDER, |rate| rate, |_| true);
        assert_eq!(all.len(), LADDER.len());
    }

    #[test]
    fn malformed_requests_expect_400_and_do_not_count_as_failures() {
        let months = lacnet_types::MonthStamp::new(2007, 7)
            .through(lacnet_types::MonthStamp::new(2024, 2))
            .collect();
        let space = NdtSpace::new(vec!["BR".into(), "VE".into()], months).unwrap();
        let plan = space.requests(9, STREAM_NDT, 200);
        let bad: BTreeSet<String> = plan
            .iter()
            .filter(|r| r.expect == Expect::BadRequest)
            .map(|r| r.target.clone())
            .collect();
        assert!(!bad.is_empty(), "the mix includes malformed requests");
        fake_server(Duration::ZERO, bad.clone(), |addr| {
            let mut conns = conns(addr);
            let phase = open_loop(&mut conns, &plan, 2000.0, Duration::from_secs(5));
            assert_eq!(phase.errors(), 0);
            let mut tally = Tally::default();
            judge(
                &mut tally,
                &plan,
                phase.samples.iter().flatten(),
                &mut |t: &str| {
                    let status = if bad.contains(t) { 400 } else { 200 };
                    (status, fnv1a64(format!("{status} {t}").as_bytes()))
                },
            );
            assert_eq!(tally.attempted, plan.len() as u64);
            assert_eq!(tally.failed, 0, "{:?}", tally.problems);
            // A 200 where a 400 is expected is a failure.
            let mut wrong = Tally::default();
            let flipped: Vec<Req> = plan
                .iter()
                .map(|r| Req {
                    target: r.target.clone(),
                    expect: Expect::Ok,
                })
                .collect();
            judge(
                &mut wrong,
                &flipped,
                phase.samples.iter().flatten(),
                &mut |_| (0, 0),
            );
            assert!(wrong.failed >= bad.len() as u64);
        });
    }
}
