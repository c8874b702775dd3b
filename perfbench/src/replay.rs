//! The traced run: replays a workload's generated inputs in-process and
//! times the calls into each layer's public functions.
//!
//! The replay answers every request twice, on two states that have seen
//! the same request sequence:
//!
//! * through a one-shard [`Router`] — the same path `cdat serve` takes —
//!   whose lines must byte-equal what the binary sent (ignoring `id`);
//! * through the public layer functions one by one: the request parse,
//!   the routing hash, a one-thread [`Engine`] run on the same batch, and
//!   the body render. Its lines must byte-equal too.
//!
//! The engine's internals — backend choice, hashing, cache lookup, store
//! read and append, solve, witness translation — are not reachable from
//! outside one `Engine::run`. Each is therefore timed by calling its
//! public function on the same inputs just before the run, and recorded
//! as a *shadow* child span of the run: the run's self time is what is
//! left, reported as `engine.overhead_us`. `parse_request` is treated the
//! same way: `json::parse` and `cdat_format::parse` are re-called on the
//! same line and subtracted from it. `router.overhead_us` is
//! `Router::solve` minus the engine run, the routing hash and the render
//! on the same batch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdat::core::canonical::{canonicalize_cd, canonicalize_cdp, hash_cd, hash_cdp};
use cdat::core::{BasId, CdpAttackTree, StructuralHash};
use cdat::engine::{
    BatchRequest, CacheKey, CachedFront, DeltaRequest, Engine, FrontCache, FrontKind,
    PersistentFrontCache, Query, SolverBackend,
};
use cdat::format::json::{self, Value};
use cdat::server::protocol::{self, Request};
use cdat::server::{DeltaRouteRequest, RouteRequest, Router, RouterConfig};
use cdat::store::{Store, StoredFront};

use crate::client::{strip_batch, strip_id, Req};
use crate::workloads::Plan;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Start, relative to the replay's start.
    pub start: Duration,
    /// End, relative to the replay's start.
    pub end: Duration,
    /// Index of the span this one is a child of.
    pub parent: Option<usize>,
    /// Request id (the first request's, for batch-level spans).
    pub request: u64,
    /// A re-call on the same inputs outside the parent's interval,
    /// standing for work the parent does internally.
    pub shadow: bool,
}

impl Span {
    /// The span's duration.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans held in memory until the replay ends.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// A measured call not yet attached to its parent.
type Pending = (&'static str, Duration, Duration, u64);

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Times `f` and returns its result with the call's interval.
    fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Duration, Duration) {
        if !self.enabled {
            return (f(), Duration::ZERO, Duration::ZERO);
        }
        let start = self.origin.elapsed();
        let out = f();
        (out, start, self.origin.elapsed())
    }

    fn push(
        &mut self,
        name: &'static str,
        interval: (Duration, Duration),
        parent: Option<usize>,
        request: u64,
        shadow: bool,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, start: interval.0, end: interval.1, parent, request, shadow });
        Some(self.spans.len() - 1)
    }

    fn adopt(&mut self, parent: Option<usize>, pending: Vec<Pending>) {
        for (name, start, end, request) in pending {
            self.push(name, (start, end), parent, request, true);
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"shadow\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request,
                s.shadow
            )?;
        }
        out.flush()
    }
}

/// What the replay measured.
pub struct Replay {
    /// Every recorded span.
    pub recorder: Recorder,
    /// Response lines the replay produced (and checked).
    pub lines: u64,
    /// Bytes of those lines, newline included.
    pub bytes: u64,
    /// Lines that differ from the binary's.
    pub mismatched: u64,
    /// Backend choices of `SolverBackend::select`, by backend label.
    pub backends: BTreeMap<&'static str, u64>,
    /// Shadow cache lookups and how many hit.
    pub lookups: (u64, u64),
    /// Points of every front solved.
    pub solved_points: Vec<usize>,
    /// Patches answered by sweeps.
    pub variants: u64,
    /// Documents parsed from a suite.
    pub suite_docs: u64,
    /// Median `Store::open` time on the prepared store, when there is one.
    pub store_open: Option<Duration>,
    /// Wall time of the whole replay.
    pub wall: Duration,
}

fn family(kind: FrontKind) -> u8 {
    use cdat::pareto::wire::family;
    match kind {
        FrontKind::Deterministic => family::DETERMINISTIC,
        FrontKind::Probabilistic => family::PROBABILISTIC,
        FrontKind::MinTime => family::MIN_TIME,
        FrontKind::MaxProb => family::MAX_PROB,
    }
}

fn is_probabilistic(kind: FrontKind) -> bool {
    matches!(kind, FrontKind::Probabilistic | FrontKind::MaxProb)
}

fn route_hash(tree: &CdpAttackTree, kind: FrontKind) -> StructuralHash {
    if is_probabilistic(kind) {
        hash_cdp(tree)
    } else {
        hash_cd(tree.cd())
    }
}

fn canonicalize(tree: &CdpAttackTree, kind: FrontKind) -> cdat::core::canonical::Canonical {
    if is_probabilistic(kind) {
        canonicalize_cdp(tree)
    } else {
        canonicalize_cd(tree.cd())
    }
}

/// The replay's states: the router, the engine, and the shadow store.
struct State {
    router: Option<Router>,
    engine: Engine,
    store: Option<Store>,
}

fn copy_store(prepared: &Path, work: &Path, name: &str) -> io::Result<PathBuf> {
    let path = work.join(name);
    std::fs::copy(prepared, &path)?;
    Ok(path)
}

impl State {
    fn new(work: &Path, store: Option<&(PathBuf, usize)>, router: bool) -> io::Result<State> {
        Ok(match store {
            None => State {
                router: router.then(|| {
                    Router::new(RouterConfig { shards: 1, ..RouterConfig::default() })
                        .expect("memory-only routers open")
                }),
                engine: Engine::with_cache(1, FrontCache::new(1)),
                store: None,
            },
            Some((prepared, budget)) => {
                let router_store = copy_store(prepared, work, "replay-router.store")?;
                let engine_store = copy_store(prepared, work, "replay-engine.store")?;
                let shadow_store = copy_store(prepared, work, "replay-shadow.store")?;
                State {
                    router: Some(Router::new(RouterConfig {
                        shards: 1,
                        cache_budget: Some(*budget),
                        store: Some(router_store),
                        trace: None,
                    })?),
                    engine: Engine::with_persistent(
                        1,
                        PersistentFrontCache::open(
                            engine_store,
                            FrontCache::with_budget(1, *budget),
                        )?,
                    ),
                    store: Some(Store::open(shadow_store)?),
                }
            }
        })
    }
}

/// Shadow-times what one `Engine::run` does for `request` (whose routing
/// hash is `hash`), against the state before the run, into `pending`;
/// returns the cached entry when the lookup hits.
fn engine_shadows(
    rec: &Recorder,
    state: &mut State,
    out: &mut Replay,
    request: &BatchRequest,
    hash: StructuralHash,
    id: u64,
    pending: &mut Vec<Pending>,
) -> Option<Arc<CachedFront>> {
    let kind = request.query.kind();
    let (backend, s, e) = rec.time(|| SolverBackend::select(request.hint, kind, &request.tree));
    pending.push(("engine.select", s, e, id));
    let backend = backend.ok()?;
    *out.backends.entry(backend.label()).or_default() += 1;
    if request.witnesses {
        let (_, s, e) = rec.time(|| canonicalize(&request.tree, kind));
        pending.push(("canonical.canonicalize", s, e, id));
    }
    let key = CacheKey { hash, kind };
    let (found, s, e) = rec.time(|| state.engine.cache().get(&key));
    pending.push(("cache.lookup", s, e, id));
    out.lookups.0 += 1;
    if found.is_some() {
        out.lookups.1 += 1;
        return found;
    }
    if let Some(store) = state.store.as_mut() {
        let (stored, s, e) = rec.time(|| store.get(hash, family(kind)));
        pending.push(("store.get", s, e, id));
        if stored.is_some() {
            return None;
        }
    }
    let (front, s, e) = rec.time(|| backend.compute(kind, &request.tree));
    let name = match backend {
        SolverBackend::BottomUp => "bottomup.solve",
        SolverBackend::BddFused => "bdd.solve",
        // Fallback backends are counted (above) but not timed.
        _ => "",
    };
    if !name.is_empty() {
        pending.push((name, s, e, id));
    }
    let Ok(front) = front else { return None };
    out.solved_points.push(front.len());
    // A computed front is cached with witnesses in canonical positions.
    let (canonical, s, e) = rec.time(|| canonicalize(&request.tree, kind));
    pending.push(("canonical.canonicalize", s, e, id));
    let position = canonical.positions();
    let (stored, s, e) =
        rec.time(|| front.map_witnesses(position.len(), |b| BasId::new(position[b.index()])));
    pending.push(("engine.translate", s, e, id));
    if let Some(store) = state.store.as_mut() {
        let record = StoredFront { result: Ok(stored), compute_micros: 0 };
        let (_, s, e) = rec.time(|| store.append(hash, family(kind), &record));
        pending.push(("store.append", s, e, id));
    }
    None
}

/// Shadow-times the answer's witness translation from the cached entry;
/// the canonical order it maps through was timed by its own shadow.
fn translate_shadow(
    rec: &Recorder,
    request: &BatchRequest,
    entry: &CachedFront,
    id: u64,
    pending: &mut Vec<Pending>,
) {
    use std::hint::black_box;
    let Ok(front) = &entry.result else { return };
    let order =
        request.witnesses.then(|| canonicalize(&request.tree, request.query.kind()).bas_order);
    let (_, s, e) = rec.time(|| match (request.query, &order) {
        (Query::Cdpf | Query::Cedpf, Some(order)) => {
            black_box(front.map_witnesses(order.len(), |k| order[k.index()]));
        }
        (Query::Cdpf | Query::Cedpf, None) => {
            black_box(front.without_witnesses());
        }
        (Query::Dgc(budget) | Query::Edgc(budget), _) => {
            black_box(front.max_damage_within(budget));
        }
        (Query::Cgd(threshold) | Query::Cged(threshold), _) => {
            black_box(front.min_cost_achieving(threshold));
        }
        _ => {}
    });
    pending.push(("engine.translate", s, e, id));
}

fn body_of(line: &str) -> Option<String> {
    strip_id(line).map(|(_, _, body)| body)
}

/// Replays a serve plan.
fn replay_serve(
    rec: &mut Recorder,
    out: &mut Replay,
    work: &Path,
    warmup: &[Req],
    requests: &[(Req, Vec<String>)],
    window: usize,
    store: Option<&(PathBuf, usize)>,
) -> io::Result<()> {
    let mut state = State::new(work, store, true)?;
    // The warm-up rebuilds the server's cache state, untraced and
    // uncounted.
    let enabled = std::mem::replace(&mut rec.enabled, false);
    let mut scratch = empty_replay();
    for chunk in warmup.chunks(window) {
        let chunk: Vec<(Req, Vec<String>)> =
            chunk.iter().map(|r| (r.clone(), Vec::new())).collect();
        serve_batch(rec, &mut scratch, &mut state, &chunk, 0, false)?;
    }
    rec.enabled = enabled;
    let mut first = 1u64;
    for chunk in requests.chunks(window) {
        serve_batch(rec, out, &mut state, chunk, first, true)?;
        first += chunk.len() as u64;
    }
    Ok(())
}

/// Answers one batch of serve requests through the router and through the
/// layer functions, checking both against the binary's lines.
fn serve_batch(
    rec: &mut Recorder,
    out: &mut Replay,
    state: &mut State,
    chunk: &[(Req, Vec<String>)],
    first: u64,
    checking: bool,
) -> io::Result<()> {
    let mut solves: Vec<(u64, RouteRequest, BatchRequest, &[String])> = Vec::new();
    let mut deltas = Vec::new();
    for (k, (req, binary)) in chunk.iter().enumerate() {
        let id = first + k as u64;
        let line = req.line(id);
        let (parsed, s, e) = rec.time(|| protocol::parse_request(&line));
        let parse_span = rec.push("protocol.parse", (s, e), None, id, false);
        // Shadows of the two format parsers inside parse_request.
        let (value, s, e) = rec.time(|| json::parse(&line));
        let mut inner = vec![("format.json_parse", s, e, id)];
        if let Some(text) = value.as_ref().ok().and_then(|v| v.get("tree")).and_then(Value::as_str)
        {
            let (_, s, e) = rec.time(|| cdat::format::parse(text));
            inner.push(("format.tree_parse", s, e, id));
        }
        rec.adopt(parse_span, inner);
        let parsed = parsed
            .map_err(|(_, m)| io::Error::other(format!("replayed request failed to parse: {m}")))?;
        match parsed {
            Request::Solve(request) => {
                let (prefix, s, e) =
                    rec.time(|| protocol::response_prefix(&request.id, None, request.query));
                rec.push("protocol.render", (s, e), None, id, false);
                let tree = request.docs[0].tree.clone();
                let route = RouteRequest {
                    tree: tree.clone(),
                    query: request.query,
                    hint: request.hint,
                    witnesses: request.witnesses,
                    prefix,
                };
                let engine = BatchRequest::new(tree, request.query)
                    .with_hint(request.hint)
                    .with_witnesses(request.witnesses);
                solves.push((id, route, engine, binary.as_slice()));
            }
            Request::Delta(request) => deltas.push((id, request, binary.as_slice())),
            Request::Stats { .. } | Request::Metrics { .. } => {}
        }
    }
    let router = state.router.take().expect("serve replays route");

    if !solves.is_empty() {
        let routes: Vec<RouteRequest> = solves.iter().map(|s| s.1.clone()).collect();
        let (routed, s, e) = rec.time(|| router.solve(routes));
        let router_span = rec.push("router.solve", (s, e), None, first, false);

        let mut route_pending = Vec::new();
        let mut engine_pending = Vec::new();
        let mut requests = Vec::with_capacity(solves.len());
        let mut found = Vec::with_capacity(solves.len());
        for (id, _, request, _) in &solves {
            // The router hashes once and hands the hash to the shard engine.
            let (hash, s, e) = rec.time(|| route_hash(&request.tree, request.query.kind()));
            route_pending.push(("canonical.hash", s, e, *id));
            let request = request.clone().with_hash(hash);
            found.push(engine_shadows(rec, state, out, &request, hash, *id, &mut engine_pending));
            requests.push(request);
        }
        let (results, s, e) = rec.time(|| state.engine.run(&requests));
        for ((request, entry), (id, ..)) in requests.iter().zip(&found).zip(&solves) {
            let key =
                CacheKey { hash: request.hash.expect("hashed above"), kind: request.query.kind() };
            if let Some(entry) = entry.clone().or_else(|| state.engine.cache().peek(&key)) {
                translate_shadow(rec, request, &entry, *id, &mut engine_pending);
            }
        }
        let engine_span = rec.push("engine.run", (s, e), router_span, first, true);
        rec.adopt(engine_span, engine_pending);

        for (((id, route, _, binary), result), routed) in solves.iter().zip(&results).zip(&routed) {
            let (line, s, e) = rec.time(|| {
                format!("{}{}}}", route.prefix, protocol::body_fragment(&result.response))
            });
            route_pending.push(("protocol.render", s, e, *id));
            out.lines += 1;
            out.bytes += line.len() as u64 + 1;
            if checking {
                let want = binary.first().and_then(|l| body_of(l));
                if want.is_none() || body_of(&line) != want || body_of(routed) != want {
                    out.mismatched += 1;
                }
            }
        }
        rec.adopt(router_span, route_pending);
    }

    for (id, request, binary) in deltas {
        let kind = request.query.kind();
        let prefixes: Vec<String> = (0..request.patches.len())
            .map(|k| {
                protocol::delta_response_prefix(
                    &request.id,
                    request.sweep.then_some(k),
                    request.query,
                )
            })
            .collect();
        let route = DeltaRouteRequest {
            tree: request.tree.clone(),
            query: request.query,
            witnesses: request.witnesses,
            patches: request.patches.clone(),
            prefixes: prefixes.clone(),
        };
        let (routed, s, e) = rec.time(|| router.sweep(route));
        let router_span = rec.push("router.sweep", (s, e), None, id, false);
        let (hash, hs, he) = rec.time(|| route_hash(&request.tree, kind));
        let delta =
            DeltaRequest::sweep(request.tree.clone(), request.query, request.patches.clone())
                .with_witnesses(request.witnesses)
                .with_hash(hash);
        let (results, ds, de) = rec.time(|| state.engine.sweep(&delta));
        out.variants += results.len() as u64;
        let mut pending = vec![("canonical.hash", hs, he, id), ("delta.sweep", ds, de, id)];
        for (k, result) in results.iter().enumerate() {
            let (line, s, e) = rec
                .time(|| format!("{}{}}}", prefixes[k], protocol::body_fragment(&result.response)));
            pending.push(("protocol.render", s, e, id));
            out.lines += 1;
            out.bytes += line.len() as u64 + 1;
            if checking {
                let want = binary.get(k).and_then(|l| body_of(l));
                if want.is_none()
                    || body_of(&line) != want
                    || routed.get(k).and_then(|l| body_of(l)) != want
                {
                    out.mismatched += 1;
                }
            }
        }
        rec.adopt(router_span, pending);
    }
    state.router = Some(router);
    Ok(())
}

/// Replays a batch plan: the suite parse, then one engine run per
/// document, rendered the way `cdat batch` renders.
fn replay_batch(
    rec: &mut Recorder,
    out: &mut Replay,
    work: &Path,
    suite: &str,
    binary: &[String],
) -> io::Result<()> {
    let mut state = State::new(work, None, false)?;
    let (docs, s, e) = rec.time(|| cdat::format::parse_multi(suite));
    rec.push("format.suite_parse", (s, e), None, 0, false);
    let docs = docs.map_err(|e| io::Error::other(e.to_string()))?;
    out.suite_docs = docs.len() as u64;
    let queries = [Query::Cdpf, Query::Cedpf];
    for (d, doc) in docs.iter().enumerate() {
        let tree = Arc::new(doc.tree.clone());
        let id = (d * queries.len()) as u64;
        let mut pending = Vec::new();
        let mut requests = Vec::new();
        let mut found = Vec::new();
        for (q, &query) in queries.iter().enumerate() {
            let request = BatchRequest::new(tree.clone(), query);
            let kind = query.kind();
            let (hash, s, e) = rec.time(|| route_hash(&tree, kind));
            pending.push(("canonical.hash", s, e, id + q as u64));
            found.push(engine_shadows(
                rec,
                &mut state,
                out,
                &request,
                hash,
                id + q as u64,
                &mut pending,
            ));
            requests.push((request, hash));
        }
        let batch: Vec<BatchRequest> = requests.iter().map(|(r, _)| r.clone()).collect();
        let (results, es, ee) = rec.time(|| state.engine.run(&batch));
        for (q, ((request, hash), entry)) in requests.iter().zip(&found).enumerate() {
            let key = CacheKey { hash: *hash, kind: request.query.kind() };
            if let Some(entry) = entry.clone().or_else(|| state.engine.cache().peek(&key)) {
                translate_shadow(rec, request, &entry, id + q as u64, &mut pending);
            }
        }
        let engine_span = rec.push("engine.run", (es, ee), None, id, false);
        rec.adopt(engine_span, pending);
        for (q, result) in results.iter().enumerate() {
            let (line, s, e) = rec.time(|| {
                let mut line = format!("{{\"doc\":{d}");
                if let Some(name) = &doc.name {
                    line.push_str(&format!(",\"name\":\"{}\"", json::escape(name)));
                }
                line.push_str(&format!(",{}", protocol::query_fragment(queries[q])));
                line.push_str(if result.cache_hit {
                    ",\"cache\":\"hit\""
                } else {
                    ",\"cache\":\"miss\""
                });
                line.push_str(&protocol::body_fragment(&result.response));
                line.push('}');
                line
            });
            rec.push("protocol.render", (s, e), None, id + q as u64, false);
            out.lines += 1;
            out.bytes += line.len() as u64 + 1;
            let index = d * queries.len() + q;
            if binary.get(index) != Some(&line) || strip_batch(&line).is_none() {
                out.mismatched += 1;
            }
        }
    }
    Ok(())
}

fn empty_replay() -> Replay {
    Replay {
        recorder: Recorder::new(false),
        lines: 0,
        bytes: 0,
        mismatched: 0,
        backends: BTreeMap::new(),
        lookups: (0, 0),
        solved_points: Vec::new(),
        variants: 0,
        suite_docs: 0,
        store_open: None,
        wall: Duration::ZERO,
    }
}

/// Replays `plan` with spans recorded (`traced`) or not.
pub fn run(plan: &Plan, work: &Path, traced: bool) -> io::Result<Replay> {
    let mut rec = Recorder::new(traced);
    let mut out = empty_replay();
    let started = Instant::now();
    match plan {
        Plan::Serve { warmup, requests, window, store } => {
            if let Some((prepared, _)) = store {
                let mut opens = Vec::new();
                for _ in 0..5 {
                    let copy = copy_store(prepared, work, "replay-open.store")?;
                    let t = Instant::now();
                    let opened = Store::open(&copy)?;
                    opens.push(t.elapsed());
                    drop(opened);
                }
                opens.sort();
                out.store_open = Some(opens[opens.len() / 2]);
            }
            replay_serve(&mut rec, &mut out, work, warmup, requests, *window, store.as_ref())?;
        }
        Plan::Batch { suite, lines } => replay_batch(&mut rec, &mut out, work, suite, lines)?,
    }
    out.wall = started.elapsed();
    for name in
        ["replay-router.store", "replay-engine.store", "replay-shadow.store", "replay-open.store"]
    {
        let _ = std::fs::remove_file(work.join(name));
    }
    out.recorder = rec;
    Ok(out)
}
