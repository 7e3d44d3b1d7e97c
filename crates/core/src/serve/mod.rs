//! `lacnet-serve`: the battery as a long-running query service.
//!
//! A hand-rolled, zero-dependency HTTP/1.1 server — `std::net::TcpListener`
//! plus a fixed pool of scoped worker threads — holding a resident
//! [`DataSource`] and serving every figure series, table row and
//! extension output as a JSON (or canonical-TSV) endpoint. Routing goes
//! through [`crate::registry`], the same list `vzla-report` runs, so the
//! serving path and the batch path cannot drift; `tests/serve_http.rs`
//! proves their bytes identical against the golden fixtures.
//!
//! Responses flow through an [`LruCache`] keyed on
//! `(endpoint, query, archive fingerprint)` — the fingerprint is the
//! FNV-1a hash of `mlab/manifest.tsv`, so a re-dump invalidates every
//! cached body naturally. `/metrics` exposes per-endpoint request
//! counts, cache hit/miss counters and P²-estimated latency quantiles
//! in Prometheus text format.

pub mod metrics;

use crate::artifact::ExperimentResult;
use crate::render::{canonical_tsv, result_json};
use crate::source::DataSource;
use crate::{datasets, registry};
use lacnet_types::codec;
use lacnet_types::http::{self, Limits, Request, Response};
use lacnet_types::json::Json;
use lacnet_types::lru::LruCache;
use metrics::{Metrics, Outcome};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads handling connections.
    pub threads: usize,
    /// Response-cache capacity (bodies).
    pub cache_capacity: usize,
    /// Socket read timeout — the slow-loris guard; a stalled client is
    /// dropped, never waited on forever.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 4,
            cache_capacity: 128,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// One cached response body.
#[derive(Clone)]
struct CachedBody {
    status: u16,
    content_type: &'static str,
    bytes: Arc<[u8]>,
}

/// Everything the worker threads share: the resident data source, the
/// response cache, the metrics registry and the precomputed info bodies.
pub struct ServerState {
    source: Arc<DataSource>,
    fingerprint: String,
    cache: LruCache<(String, String, String), CachedBody>,
    metrics: Metrics,
    archive_body: String,
    endpoints_body: String,
    scenarios_body: String,
    /// Lazily generated sources backing `/scenario/{name}/…` routes for
    /// scenarios other than the resident one, keyed by scenario name —
    /// one slot per built-in, so none is ever evicted. Each entry carries
    /// its own fingerprint, so scenario-scoped responses occupy distinct
    /// LRU slots.
    scenario_sources: LruCache<String, (Arc<DataSource>, String)>,
    /// The latest experiment results, keyed by endpoint id and source
    /// fingerprint, which an endpoint's JSON and TSV renders share.
    results: LruCache<(&'static str, String), Arc<ExperimentResult>>,
}

/// How many experiment results a [`ServerState`] keeps for the other
/// render of their endpoint. That render is almost always requested
/// right beside the first, with at most a few other runs finishing in
/// between; a result evicted before it comes costs one more run.
const RESULT_SLOTS: usize = 4;

/// The archive fingerprint a source serves under: the FNV-1a hash of
/// `mlab/manifest.tsv` for archive backends (a re-dump rewrites the
/// manifest, so the fingerprint — and every cache key — changes; a
/// scenario switch rewrites every container fingerprint in it), the hash of
/// the generating config — folded with the scenario fingerprint for
/// non-default scenarios — for in-memory backends.
pub fn source_fingerprint(source: &DataSource) -> String {
    match source.root() {
        Some(root) => {
            let manifest = std::fs::read(root.join(datasets::MLAB_MANIFEST)).unwrap_or_default();
            format!("{:016x}", codec::fnv1a64(&manifest))
        }
        None => {
            let mut key = source.config.to_text();
            if !source.scenario.is_default() {
                key.push_str(&format!(
                    "scenario\t{:016x}\n",
                    source.scenario.fingerprint()
                ));
            }
            format!("{:016x}", codec::fnv1a64(key.as_bytes()))
        }
    }
}

impl ServerState {
    /// Build the shared state around a resident source.
    pub fn new(source: Arc<DataSource>, cache_capacity: usize) -> Self {
        let fingerprint = source_fingerprint(&source);
        let (backing, shards) = source.ndt_shards();
        let archive_body = Json::Obj(vec![
            ("backend".into(), Json::Str(source.backend().into())),
            (
                "seed".into(),
                Json::Str(format!("{:#x}", source.config.seed)),
            ),
            ("end".into(), Json::Str(source.config.end.to_string())),
            ("fingerprint".into(), Json::Str(fingerprint.clone())),
            (
                "endpoints".into(),
                Json::Num(registry::ENDPOINTS.len() as f64),
            ),
            ("ndt_shards".into(), Json::Num(shards as f64)),
            (
                "shard_formats".into(),
                Json::Obj(vec![(backing.into(), Json::Num(shards as f64))]),
            ),
            (
                "ndt_query".into(),
                Json::Str(registry::NDT_MONTH_ROUTE.into()),
            ),
            (
                "ndt_range".into(),
                Json::Str(registry::NDT_RANGE_ROUTE.into()),
            ),
        ])
        .to_text();
        let endpoints_body = Json::Arr(
            registry::ENDPOINTS
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("id".into(), Json::Str(e.id.into())),
                        ("path".into(), Json::Str(e.http_path())),
                        (
                            "kind".into(),
                            Json::Str(
                                match e.kind {
                                    registry::Kind::Paper => "paper",
                                    registry::Kind::Extension => "extension",
                                }
                                .into(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
        .to_text();
        let resident = source.scenario.name.clone();
        let mut scenario_rows: Vec<Json> = Vec::new();
        let mut listed_resident = false;
        for name in lacnet_crisis::Scenario::builtin_names() {
            let s = lacnet_crisis::Scenario::builtin(name).expect("builtin scenario parses");
            listed_resident |= s.name == resident;
            scenario_rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("description".into(), Json::Str(s.description.clone())),
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", s.fingerprint())),
                ),
                ("default".into(), Json::Bool(s.is_default())),
                ("resident".into(), Json::Bool(s.name == resident)),
            ]));
        }
        if !listed_resident {
            // The resident source runs a custom (file-loaded) scenario:
            // list it too, so the inventory always covers every routable
            // name.
            let s = &source.scenario;
            scenario_rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("description".into(), Json::Str(s.description.clone())),
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", s.fingerprint())),
                ),
                ("default".into(), Json::Bool(s.is_default())),
                ("resident".into(), Json::Bool(true)),
            ]));
        }
        let scenarios_body = Json::Arr(scenario_rows).to_text();
        ServerState {
            source,
            fingerprint,
            cache: LruCache::new(cache_capacity),
            metrics: Metrics::new(),
            archive_body,
            endpoints_body,
            scenarios_body,
            scenario_sources: LruCache::new(lacnet_crisis::Scenario::builtin_names().len()),
            results: LruCache::new(RESULT_SLOTS),
        }
    }

    /// `endpoint`'s result over `source`. A render that misses while the
    /// other render of the same endpoint runs waits for that run, and one
    /// that comes after it reuses the result, so the pair costs one run
    /// however the two requests interleave.
    fn result(
        &self,
        endpoint: &registry::Endpoint,
        fingerprint: &str,
        source: &DataSource,
    ) -> Arc<ExperimentResult> {
        let key = (endpoint.id, fingerprint.to_owned());
        let run = || Arc::new((endpoint.run)(source));
        self.results.get_or_compute(key, run).0
    }

    /// The fingerprint responses are currently keyed under.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The metrics registry (exposed for tests and benches).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resolve the source serving `/scenario/{name}/…`. The resident
    /// scenario answers from the resident source (sharing its cache
    /// slots — the bytes are the same); any other built-in scenario gets
    /// an in-memory world generated lazily at the resident configuration
    /// on first touch and kept for the server's lifetime. Generation is
    /// single-flight per name and runs outside any lock: two racing first
    /// requests for one scenario generate once, and a scenario being
    /// generated does not hold up requests for another. Unknown names
    /// resolve to `None` (a 404).
    fn resolve_scenario(&self, name: &str) -> Option<(Arc<DataSource>, String)> {
        if name == self.source.scenario.name {
            return Some((Arc::clone(&self.source), self.fingerprint.clone()));
        }
        let scenario = lacnet_crisis::Scenario::builtin(name).ok()?;
        let config = self.source.config;
        let (resolved, _) = self.scenario_sources.get_or_compute(name.to_owned(), || {
            let source = Arc::new(DataSource::from(lacnet_crisis::World::generate_with(
                config, scenario,
            )));
            let fingerprint = source_fingerprint(&source);
            (source, fingerprint)
        });
        Some(resolved)
    }
}

fn json_error(status: u16, message: &str) -> Response {
    let body = Json::Obj(vec![("error".into(), Json::Str(message.into()))]).to_text();
    Response::new(status, "application/json", body.into_bytes())
}

/// What a routing function hands back to [`respond`]: the response, the
/// metrics label it counts under, and its cache outcome.
type Routed = (Response, &'static str, Outcome);

/// A response that never touches the response cache.
fn uncached(response: Response, label: &'static str) -> Routed {
    (response, label, Outcome::Uncached)
}

/// Compute the response for one parsed request — the pure routing core,
/// shared by the socket workers, the unit tests and the benches. Every
/// request is recorded in the metrics exactly once, here.
///
/// A request whose computation panics answers an uncached JSON 500 and
/// counts under its registry endpoint (`unmatched` off the registry);
/// the caches it was filling roll back, and the worker keeps serving.
pub fn respond(state: &ServerState, request: &Request) -> Response {
    let t0 = Instant::now();
    let routed = panic::catch_unwind(AssertUnwindSafe(|| route(state, request)));
    let (response, label, outcome) = routed.unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("request handler panicked");
        let label = registry::find_by_path(&request.path).map_or("unmatched", |e| e.id);
        uncached(json_error(500, message), label)
    });
    state
        .metrics
        .record(label, outcome, t0.elapsed().as_secs_f64());
    response
}

/// Route one request to its handler.
fn route(state: &ServerState, request: &Request) -> Routed {
    if request.method != "GET" {
        return uncached(json_error(405, "only GET is supported"), "unmatched");
    }
    let info = |body: &String, label| {
        let response = Response::new(200, "application/json", body.clone().into_bytes());
        uncached(response, label)
    };
    match request.path.as_str() {
        "/healthz" => uncached(
            Response::new(200, "application/json", b"{\"status\":\"ok\"}".to_vec()),
            "healthz",
        ),
        "/metrics" => uncached(
            Response::new(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                state.metrics.render().into_bytes(),
            ),
            "metrics",
        ),
        "/archive" => info(&state.archive_body, "archive"),
        "/endpoints" => info(&state.endpoints_body, "endpoints"),
        "/scenarios" => info(&state.scenarios_body, "scenarios"),
        path => match path.strip_prefix("/scenario/") {
            Some(rest) => scenario_route(state, rest, &request.query),
            None => route_data(
                state,
                &state.source,
                &state.fingerprint,
                path,
                &request.query,
            ),
        },
    }
}

/// Serve `/scenario/{name}` (the scenario's description) and
/// `/scenario/{name}/…` (any data path, against the scenario's source).
fn scenario_route(state: &ServerState, rest: &str, query: &str) -> Routed {
    let (name, sub) = match rest.split_once('/') {
        Some((name, sub)) => (name, format!("/{sub}")),
        None => (rest, String::new()),
    };
    let Some((source, fingerprint)) = state.resolve_scenario(name) else {
        return uncached(
            json_error(404, "no such scenario; see /scenarios"),
            "unmatched",
        );
    };
    if !sub.is_empty() {
        return route_data(state, &source, &fingerprint, &sub, query);
    }
    let s = &source.scenario;
    let body = Json::Obj(vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("description".into(), Json::Str(s.description.clone())),
        ("fingerprint".into(), Json::Str(fingerprint)),
        ("default".into(), Json::Bool(s.is_default())),
        ("backend".into(), Json::Str(source.backend().into())),
    ])
    .to_text();
    uncached(
        Response::new(200, "application/json", body.into_bytes()),
        "scenarios",
    )
}

/// Route one data path (`/ndt/…` or a registry endpoint) against an
/// explicit source and cache-key fingerprint — the shared core of the
/// unscoped routes and the `/scenario/{name}/…` scoped ones. Scoped
/// requests pass their scenario source's own fingerprint, so their
/// responses occupy distinct LRU slots from the resident scenario's.
fn route_data(
    state: &ServerState,
    source: &DataSource,
    fingerprint: &str,
    path: &str,
    query: &str,
) -> Routed {
    if let Some(rest) = path.strip_prefix("/ndt/") {
        return ndt_query(state, source, fingerprint, rest, query);
    }
    let Some(endpoint) = registry::find_by_path(path) else {
        return uncached(
            json_error(404, "no such endpoint; see /endpoints"),
            "unmatched",
        );
    };
    // Normalize before anything touches the query: strict
    // percent-decoding (malformed escapes are a typed 400, not a silently
    // mangled value), duplicate keys resolved last-key-wins, keys sorted —
    // so every spelling of one query shares one cache slot.
    let Some(pairs) = http::normalize_query(query) else {
        return uncached(
            json_error(400, "malformed percent-escape in query"),
            endpoint.id,
        );
    };
    let format = pairs
        .iter()
        .find(|(k, _)| k == "format")
        .map(|(_, v)| v.as_str())
        .unwrap_or("json");
    let (content_type, tsv) = match format {
        "json" => ("application/json", false),
        "tsv" => ("text/tab-separated-values; charset=utf-8", true),
        _ => {
            return uncached(
                json_error(400, "format must be `json` or `tsv`"),
                endpoint.id,
            )
        }
    };
    let canonical: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let key = (
        endpoint.id.to_owned(),
        canonical.join("&"),
        fingerprint.to_owned(),
    );
    let (cached, hit) = state.cache.get_or_compute(key, || {
        let result = state.result(endpoint, fingerprint, source);
        let bytes = if tsv {
            canonical_tsv(&result).into_bytes()
        } else {
            result_json(&result).to_text().into_bytes()
        };
        CachedBody {
            status: 200,
            content_type,
            bytes: Arc::from(bytes),
        }
    });
    let outcome = if hit { Outcome::Hit } else { Outcome::Miss };
    (
        Response::shared(cached.status, cached.content_type, cached.bytes),
        endpoint.id,
        outcome,
    )
}

/// The `read` object every NDT response carries: how much of the
/// backing archive the query actually touched.
fn read_stats_json(read: &lacnet_mlab::ReadStats) -> Json {
    Json::Obj(vec![
        ("blocks_total".into(), Json::Num(read.blocks_total as f64)),
        (
            "blocks_decoded".into(),
            Json::Num(read.blocks_decoded as f64),
        ),
        ("bytes_decoded".into(), Json::Num(read.bytes_decoded as f64)),
        (
            "columns_decoded".into(),
            Json::Num(read.columns_decoded as f64),
        ),
    ])
}

/// Serve the `/ndt/` prefix. A path with a month segment —
/// `/ndt/{CC}/{YYYY-MM}` — is one `(country, month)` query routed
/// through [`DataSource::ndt_month_stats`]; on a columnar archive that
/// decodes only the month's blocks' download column, and the response
/// reports exactly how much was touched. A bare country —
/// `/ndt/{CC}?from=YYYY-MM&to=YYYY-MM` — is a range query through
/// [`DataSource::ndt_range_stats`]: the month plan comes from the
/// resident table and the window is read off the country's container in
/// one read. Both go through the cache single-flight. Results (including
/// 404s: absence is a property of the fingerprinted archive generation)
/// are cached under the normalized range, so every spelling of one
/// window shares one LRU slot; malformed or reversed or out-of-dataset
/// ranges are typed 400s that never occupy a computed slot; backend
/// errors are 500s that are never cached.
fn ndt_query(
    state: &ServerState,
    source: &DataSource,
    fingerprint: &str,
    rest: &str,
    query: &str,
) -> Routed {
    use lacnet_types::{CountryCode, MonthStamp};
    if !rest.contains('/') {
        return ndt_range_query(state, source, fingerprint, rest, query);
    }
    let parsed = rest.split_once('/').and_then(|(cc, month)| {
        Some((
            CountryCode::new(cc).ok()?,
            month.parse::<MonthStamp>().ok()?,
        ))
    });
    let Some((cc, month)) = parsed else {
        return uncached(
            json_error(400, "ndt query path must be /ndt/{CC}/{YYYY-MM}"),
            "ndt",
        );
    };
    let key = (
        "ndt".to_owned(),
        format!("{cc}/{month}"),
        fingerprint.to_owned(),
    );
    cached_ndt(state, "ndt", key, || {
        Ok(match source.ndt_month_stats(cc, month)? {
            None => json_error(404, "no NDT shard for that country and month"),
            Some(stats) => {
                let body = Json::Obj(vec![
                    ("country".into(), Json::Str(cc.to_string())),
                    ("month".into(), Json::Str(month.to_string())),
                    ("rows".into(), Json::Num(stats.rows as f64)),
                    (
                        "median_download_mbps".into(),
                        stats.median_download.map_or(Json::Null, Json::Num),
                    ),
                    ("format".into(), Json::Str(stats.format.into())),
                    ("read".into(), read_stats_json(&stats.read)),
                ])
                .to_text();
                Response::new(200, "application/json", body.into_bytes())
            }
        })
    })
}

/// Serve one `/ndt` query through the response cache, single-flight:
/// concurrent cold requests for one key run `answer` once and share its
/// bytes. A backend error is the uncacheable outcome — a 500 that no
/// later request is served from the cache.
fn cached_ndt(
    state: &ServerState,
    label: &'static str,
    key: (String, String, String),
    answer: impl FnOnce() -> lacnet_types::Result<Response>,
) -> Routed {
    let computed = state.cache.get_or_try_compute(key, || {
        answer().map(|response| CachedBody {
            status: response.status,
            content_type: response.content_type,
            bytes: response.body,
        })
    });
    match computed {
        Ok((cached, hit)) => (
            Response::shared(cached.status, cached.content_type, cached.bytes),
            label,
            if hit { Outcome::Hit } else { Outcome::Miss },
        ),
        Err(e) => uncached(json_error(500, &e.to_string()), label),
    }
}

/// Serve `/ndt/{CC}?from=YYYY-MM&to=YYYY-MM` — the range form of the
/// NDT query. Validation happens entirely before the cache: the query
/// string is strictly normalized (so `?to=…&from=…` and percent-escaped
/// spellings collapse to one canonical `{cc}/{from}/{to}` key), months
/// must parse, `from` must not exceed `to`, and the window must
/// intersect the dataset's NDT months. Only validated ranges can occupy
/// an LRU slot.
fn ndt_range_query(
    state: &ServerState,
    source: &DataSource,
    fingerprint: &str,
    rest: &str,
    query: &str,
) -> Routed {
    use lacnet_types::{CountryCode, MonthStamp};
    let reject = |message: &str| uncached(json_error(400, message), "ndt-range");
    let Ok(cc) = CountryCode::new(rest) else {
        return reject("ndt range path must be /ndt/{CC}?from=YYYY-MM&to=YYYY-MM");
    };
    let Some(pairs) = http::normalize_query(query) else {
        return reject("malformed percent-escape in query");
    };
    let month_param = |key: &str| -> Option<Result<MonthStamp, ()>> {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse::<MonthStamp>().map_err(|_| ()))
    };
    let (from, to) = match (month_param("from"), month_param("to")) {
        (Some(Ok(from)), Some(Ok(to))) => (from, to),
        (None, _) | (_, None) => {
            return reject("ndt range query needs both from=YYYY-MM and to=YYYY-MM")
        }
        _ => return reject("from/to must be YYYY-MM months"),
    };
    if from > to {
        return reject("ndt range: from month after to month");
    }
    let (first, last) = source.ndt_month_bounds();
    if to < first || from > last {
        return reject("ndt range lies outside the dataset months");
    }
    let key = (
        "ndt-range".to_owned(),
        format!("{cc}/{from}/{to}"),
        fingerprint.to_owned(),
    );
    cached_ndt(state, "ndt-range", key, || {
        let stats = source.ndt_range_stats(cc, from, to)?;
        if stats.months.is_empty() {
            return Ok(json_error(
                404,
                "no NDT shards for that country in that range",
            ));
        }
        let months = stats
            .months
            .iter()
            .map(|(month, m)| {
                Json::Obj(vec![
                    ("month".into(), Json::Str(month.to_string())),
                    ("rows".into(), Json::Num(m.rows as f64)),
                    (
                        "median_download_mbps".into(),
                        m.median_download.map_or(Json::Null, Json::Num),
                    ),
                    ("format".into(), Json::Str(m.format.into())),
                ])
            })
            .collect();
        let body = Json::Obj(vec![
            ("country".into(), Json::Str(cc.to_string())),
            ("from".into(), Json::Str(from.to_string())),
            ("to".into(), Json::Str(to.to_string())),
            (
                "months_queried".into(),
                Json::Num(stats.months_queried as f64),
            ),
            (
                "shards_pruned".into(),
                Json::Num(stats.shards_pruned as f64),
            ),
            ("rows".into(), Json::Num(stats.rows as f64)),
            (
                "mean_monthly_median_mbps".into(),
                stats.mean_monthly_median.map_or(Json::Null, Json::Num),
            ),
            ("months".into(), Json::Arr(months)),
            ("read".into(), read_stats_json(&stats.read)),
        ])
        .to_text();
        Ok(Response::new(200, "application/json", body.into_bytes()))
    })
}

/// Serve one accepted connection: keep-alive loop, pipelining via the
/// buffered reader, typed error responses, read timeout as the hang
/// guard.
fn handle_connection(
    state: &ServerState,
    stream: TcpStream,
    limits: &Limits,
    read_timeout: Duration,
) {
    // Nagle off: every response leaves in one write (`Response::write_to`),
    // so there is nothing to coalesce, and holding a response's last
    // segment until the client's delayed ACK costs ~40 ms per request.
    if stream.set_read_timeout(Some(read_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader, limits) {
            Ok(request) => {
                let close = request.wants_close();
                let response = respond(state, &request);
                if response.write_to(&mut writer, close).is_err() || close {
                    return;
                }
            }
            Err(error) => {
                if let Some(status) = error.status() {
                    let _ = json_error(status, &error.to_string()).write_to(&mut writer, true);
                }
                return;
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
}

/// Remote control for a running [`Server`] — cloneable across threads.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Ask the accept loop to stop; in-flight connections finish first.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A wake-up connection unblocks the blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) around a
    /// resident source. The server does not accept until [`Server::run`].
    pub fn bind(
        source: Arc<DataSource>,
        addr: &str,
        options: ServeOptions,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(ServerState::new(source, options.cache_capacity.max(1))),
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (fingerprint, metrics), for tests and tooling.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.listener.local_addr()?,
        })
    }

    /// Accept and serve until the handle asks for shutdown. Connections
    /// are fanned out to a fixed pool of scoped worker threads over an
    /// mpsc channel; every worker holds the shared state by reference.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            state,
            options,
            shutdown,
        } = self;
        let limits = Limits::default();
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..options.threads.max(1) {
                scope.spawn(|| loop {
                    // Hold the receiver lock only while dequeuing, so the
                    // pool drains connections concurrently.
                    let conn = rx.lock().expect("pool lock").recv();
                    match conn {
                        Ok(stream) => {
                            handle_connection(&state, stream, &limits, options.read_timeout)
                        }
                        Err(_) => break,
                    }
                });
            }
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
        });
        Ok(())
    }
}

/// Compile-time proof that the shared state crosses threads safely.
#[allow(dead_code)]
fn _assert_thread_safe() {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<ServerState>();
    assert_sync::<DataSource>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> &'static ServerState {
        use std::sync::OnceLock;
        static STATE: OnceLock<ServerState> = OnceLock::new();
        STATE.get_or_init(|| {
            ServerState::new(Arc::clone(crate::experiments::testworld::source()), 8)
        })
    }

    fn get(state: &ServerState, target: &str) -> Response {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), q.to_owned()),
            None => (target.to_owned(), String::new()),
        };
        respond(
            state,
            &Request {
                method: "GET".into(),
                path,
                query,
                http11: true,
                headers: Vec::new(),
                body: Vec::new(),
            },
        )
    }

    #[test]
    fn healthz_archive_endpoints_and_errors() {
        let state = test_state();
        assert_eq!(get(state, "/healthz").status, 200);
        let archive = get(state, "/archive");
        assert_eq!(archive.status, 200);
        let info = Json::parse(std::str::from_utf8(&archive.body).unwrap()).unwrap();
        assert_eq!(
            info.get("backend").and_then(|v| v.as_str()),
            Some("in-memory")
        );
        assert_eq!(
            info.get("fingerprint").and_then(|v| v.as_str()),
            Some(state.fingerprint())
        );
        let endpoints = get(state, "/endpoints");
        assert!(std::str::from_utf8(&endpoints.body)
            .unwrap()
            .contains("\"path\":\"/fig/11\""));
        assert_eq!(get(state, "/nope").status, 404);
        assert_eq!(get(state, "/fig/11?format=xml").status, 400);
        let post = respond(
            state,
            &Request {
                method: "POST".into(),
                path: "/healthz".into(),
                query: String::new(),
                http11: true,
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(post.status, 405);
    }

    #[test]
    fn data_endpoint_serves_both_formats_through_the_cache() {
        let state = test_state();
        let tsv = get(state, "/tab01?format=tsv");
        assert_eq!(tsv.status, 200);
        assert!(tsv.content_type.starts_with("text/tab-separated-values"));
        let again = get(state, "/tab01?format=tsv");
        assert_eq!(tsv.body, again.body, "cached body is byte-identical");
        assert!(
            Arc::ptr_eq(&tsv.body, &again.body),
            "a hit shares the cached body instead of copying it"
        );
        let json = get(state, "/tab01");
        assert!(json.content_type.starts_with("application/json"));
        let parsed = Json::parse(std::str::from_utf8(&json.body).unwrap()).unwrap();
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("tab01"));
        // The TSV body is exactly the canonical render of the result.
        let direct = canonical_tsv(&(registry::find("tab01").unwrap().run)(&state.source));
        assert_eq!(*tsv.body, *direct.as_bytes());
        // Metrics saw one miss and one hit for the TSV key.
        let text = state.metrics().render();
        assert!(text.contains("lacnet_cache_hits_total{endpoint=\"tab01\"} 1"));
    }

    /// A fresh (non-shared) state, so cache and metrics counters are
    /// exactly one test's traffic.
    fn fresh_state() -> ServerState {
        ServerState::new(Arc::clone(crate::experiments::testworld::source()), 8)
    }

    /// How many times [`slow_fig01`] has run.
    static SLOW_RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// fig01, slowed down so that a second render arrives mid-run.
    fn slow_fig01(src: &DataSource) -> ExperimentResult {
        SLOW_RUNS.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(200));
        crate::experiments::fig01_macro::run(src)
    }

    #[test]
    fn renders_of_one_endpoint_share_one_run_however_they_interleave() {
        let state = fresh_state();
        let endpoint = |id, run| registry::Endpoint {
            id,
            kind: registry::Kind::Paper,
            run,
            ndt_columns: lacnet_mlab::ColumnSet::NONE,
        };
        let slow = endpoint("fig01", slow_fig01);
        let result = || state.result(&slow, &state.fingerprint, &state.source);
        // A render that arrives mid-run waits for it.
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(result);
            while SLOW_RUNS.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let second = scope.spawn(result);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(SLOW_RUNS.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&first, &second));
        // One that arrives after the run reuses its result.
        assert!(Arc::ptr_eq(&result(), &first));
        assert_eq!(SLOW_RUNS.load(Ordering::SeqCst), 1);
        // Once newer results have filled every slot, a miss runs afresh.
        for other in registry::ENDPOINTS.iter().skip(1).take(RESULT_SLOTS) {
            let other = endpoint(other.id, crate::experiments::fig01_macro::run);
            state.result(&other, &state.fingerprint, &state.source);
        }
        assert_eq!(*result(), *first);
        assert_eq!(SLOW_RUNS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_scenario_being_generated_does_not_block_another() {
        let state = fresh_state();
        let (cut, _) = state.resolve_scenario("cable-cut").expect("built-in");
        std::thread::scope(|scope| {
            // A first request for another scenario generates its world...
            let generating = scope.spawn(|| {
                let resolved = state.resolve_scenario("sudden-displacement");
                (resolved, Instant::now())
            });
            std::thread::sleep(Duration::from_millis(20));
            // ...while a request for the generated one is answered at once.
            let (again, _) = state.resolve_scenario("cable-cut").expect("built-in");
            let answered = Instant::now();
            let (displaced, generated) = generating.join().unwrap();
            assert!(displaced.is_some());
            assert!(
                answered < generated,
                "resolving a generated scenario waited for another's generation"
            );
            assert!(Arc::ptr_eq(&again, &cut));
        });
    }

    #[test]
    fn query_normalization_makes_escape_spellings_share_a_cache_slot() {
        let state = fresh_state();
        // Three spellings of `format=tsv`: plain, hex-escaped, and a
        // duplicate key resolved last-wins. One compute, two hits.
        let plain = get(&state, "/fig/01?format=tsv");
        assert_eq!(plain.status, 200);
        let escaped = get(&state, "/fig/01?format=%74sv");
        let duplicated = get(&state, "/fig/01?format=json&format=tsv");
        assert!(escaped
            .content_type
            .starts_with("text/tab-separated-values"));
        assert_eq!(plain.body, escaped.body);
        assert_eq!(plain.body, duplicated.body);
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_misses_total{endpoint=\"fig01\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lacnet_cache_hits_total{endpoint=\"fig01\"} 2"),
            "{text}"
        );
        // A malformed escape is a typed 400, not a mangled cache key.
        let bad = get(&state, "/fig/01?format=%zzv");
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8_lossy(&bad.body).contains("percent-escape"));
    }

    #[test]
    fn ndt_query_routes_through_the_source_and_caches() {
        use lacnet_types::country;
        let state = fresh_state();
        let (month, median) = state
            .source
            .mlab
            .median_series(country::VE)
            .last()
            .expect("test world has VE data");
        let ok = get(&state, &format!("/ndt/VE/{month}"));
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8_lossy(&ok.body));
        let body = Json::parse(std::str::from_utf8(&ok.body).unwrap()).unwrap();
        assert_eq!(body.get("country").and_then(|v| v.as_str()), Some("VE"));
        assert_eq!(
            body.get("month").and_then(|v| v.as_str()),
            Some(month.to_string().as_str())
        );
        assert_eq!(
            body.get("format").and_then(|v| v.as_str()),
            Some("in-memory")
        );
        assert!(body.get("rows").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert_eq!(
            body.get("median_download_mbps").and_then(|v| v.as_f64()),
            Some(median)
        );
        // The repeat is a cache hit serving identical bytes.
        let again = get(&state, &format!("/ndt/VE/{month}"));
        assert_eq!(ok.body, again.body);
        assert!(
            Arc::ptr_eq(&ok.body, &again.body),
            "the miss and the hit share one body allocation"
        );
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_hits_total{endpoint=\"ndt\"} 1"),
            "{text}"
        );
        // Absent month → 404; malformed country or month → 400.
        assert_eq!(get(&state, "/ndt/VE/1805-12").status, 404);
        assert_eq!(get(&state, "/ndt/VEN/2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE/whenever").status, 400);
        assert_eq!(get(&state, "/ndt/VE").status, 400);
    }

    #[test]
    fn ndt_range_query_validates_normalizes_and_caches() {
        use lacnet_types::country;
        let state = fresh_state();
        let series: Vec<_> = state
            .source
            .mlab
            .median_series(country::VE)
            .iter()
            .collect();
        assert!(series.len() >= 4, "test world spans years");
        let (from, _) = series[series.len() - 4];
        let (to, _) = *series.last().unwrap();

        let ok = get(&state, &format!("/ndt/VE?from={from}&to={to}"));
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8_lossy(&ok.body));
        let body = Json::parse(std::str::from_utf8(&ok.body).unwrap()).unwrap();
        assert_eq!(body.get("country").and_then(|v| v.as_str()), Some("VE"));
        assert_eq!(
            body.get("from").and_then(|v| v.as_str()),
            Some(from.to_string().as_str())
        );
        assert_eq!(
            body.get("months_queried").and_then(|v| v.as_f64()),
            Some(4.0)
        );
        assert!(body.get("rows").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let months = match body.get("months") {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("months must be an array, got {other:?}"),
        };
        assert_eq!(months.len(), 4);
        // The range body agrees with the single-month endpoint per month.
        for m in &months {
            let month = m.get("month").and_then(|v| v.as_str()).unwrap().to_owned();
            let single = get(&state, &format!("/ndt/VE/{month}"));
            let single = Json::parse(std::str::from_utf8(&single.body).unwrap()).unwrap();
            assert_eq!(
                m.get("rows").and_then(|v| v.as_f64()),
                single.get("rows").and_then(|v| v.as_f64()),
                "{month}"
            );
            assert_eq!(
                m.get("median_download_mbps").and_then(|v| v.as_f64()),
                single.get("median_download_mbps").and_then(|v| v.as_f64()),
                "{month}"
            );
        }

        // Reordered and percent-escaped spellings of the same window are
        // cache hits serving identical bytes — one slot, not three.
        let reordered = get(&state, &format!("/ndt/VE?to={to}&from={from}"));
        assert_eq!(ok.body, reordered.body);
        let escaped = get(&state, &format!("/ndt/VE?from={from}&%74o={to}"));
        assert_eq!(ok.body, escaped.body);
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_misses_total{endpoint=\"ndt-range\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lacnet_cache_hits_total{endpoint=\"ndt-range\"} 2"),
            "{text}"
        );

        // Typed 400s: reversed, out-of-dataset, missing or malformed
        // months, malformed escapes, malformed country.
        assert_eq!(
            get(&state, &format!("/ndt/VE?from={to}&to={from}")).status,
            400
        );
        assert_eq!(get(&state, "/ndt/VE?from=1805-01&to=1806-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?from=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?to=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?from=whenever&to=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VE?from=%zz&to=2020-01").status, 400);
        assert_eq!(get(&state, "/ndt/VEN?from=2020-01&to=2020-02").status, 400);
        // None of the rejects computed or occupied a cache slot.
        let text = state.metrics().render();
        assert!(
            text.contains("lacnet_cache_misses_total{endpoint=\"ndt-range\"} 1"),
            "{text}"
        );
    }
}
