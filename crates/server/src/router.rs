//! Shard-by-hash routing: every request lands on the worker shard that
//! owns its slice of the front cache.
//!
//! The canonical structural hash ([`cdat_core::canonical`]) is the cache
//! key *and* the partition key: a request routes to shard
//! `hash mod shards`, so structurally identical trees always meet the same
//! shard and its private cache. Each shard owns one single-threaded
//! [`Engine`] with its own (optionally budgeted) [`FrontCache`] — there is
//! no shared-cache lock at all; parallelism comes from running shards
//! concurrently, and scaling the shard count scales both compute and cache
//! capacity without adding contention. The one fan-out inside a shard is a
//! what-if sweep: its variants share the shard's read-only subtree memo,
//! so they run on up to `shards` scoped threads
//! ([`DeltaRequest::width`]) while batches stay single-threaded.
//!
//! With a [`store`](RouterConfig::store) configured, every shard opens its
//! *own* [`PersistentFrontCache`] handle on the same file. Appends go
//! through `O_APPEND` whole-record writes, so the handles never need a
//! shared lock either — the no-contention design survives the disk tier.

use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cdat_core::canonical::{hash_cd, hash_cdp};
use cdat_core::{CdpAttackTree, StructuralHash};
use cdat_engine::{
    BatchRequest, CacheStats, DeltaRequest, Engine, EngineMetrics, EngineSnapshot, FrontCache,
    FrontKind, PersistentFrontCache, Query, SolverHint, StoreMetrics, StoreSnapshot, TreePatch,
};
use cdat_obs::{Histogram, HistogramSnapshot, TraceWriter};

use crate::protocol::write_body;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Number of worker shards (clamped to ≥ 1, and halved under a small
    /// [`cache_budget`](Self::cache_budget) until every shard's budget
    /// slice holds at least [`FrontCache::MIN_SLICE`] points — a slice too
    /// small to hold a front would silently disable that shard's cache).
    pub shards: usize,
    /// Total cache budget in front points, split over the shards as evenly
    /// as possible ([`FrontCache::split_budget`]: the division remainder
    /// is spread one point at a time, so the per-shard slices sum to
    /// exactly the budget). `None` means unbounded.
    pub cache_budget: Option<usize>,
    /// Path of the persistent front store shared by all shards; `None`
    /// serves from memory only. Each shard opens its own handle on the
    /// file, so no lock is shared between shards.
    pub store: Option<PathBuf>,
    /// JSONL flight recorder every shard engine emits span events into
    /// (the writer appends whole lines, so shards share it without
    /// tearing); `None` disables tracing. Metrics, by contrast, are
    /// always on — they are atomic adds with no I/O.
    pub trace: Option<TraceWriter>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { shards: 4, cache_budget: None, store: None, trace: None }
    }
}

/// One shard's telemetry handles, created before the shard thread spawns
/// so `stats`/`metrics` snapshots read shared atomics instead of
/// messaging the shard.
#[derive(Debug)]
pub struct ShardTelemetry {
    /// The shard engine's cache-tier counters and latency histograms.
    pub engine: Arc<EngineMetrics>,
    /// Per-op end-to-end latency inside the shard (batch receipt to the
    /// op's reply send), in microseconds.
    pub e2e_us: Histogram,
    /// The shard's persistent-store I/O telemetry, when a store is
    /// configured.
    pub store: Option<Arc<StoreMetrics>>,
}

/// Micro-batching dispatcher telemetry, owned by the router so every
/// surface (`stats`, `metrics`) reads one place.
#[derive(Debug, Default)]
pub struct DispatchMetrics {
    /// Jobs per flushed micro-batch.
    pub batch_fill: Histogram,
    /// Time from a batch's first job to its scatter, in microseconds.
    pub dispatch_us: Histogram,
}

/// A point-in-time aggregate of every server telemetry surface; built by
/// [`Router::snapshot`] without any shard messaging.
#[derive(Debug)]
pub struct ServerSnapshot {
    /// Microseconds since the router spawned its shards.
    pub uptime_us: u64,
    /// Engine metrics merged across all shards.
    pub engine: EngineSnapshot,
    /// Per-op end-to-end shard latency, merged across shards.
    pub e2e: HistogramSnapshot,
    /// The same, per shard (shard order).
    pub per_shard_e2e: Vec<HistogramSnapshot>,
    /// Jobs per flushed micro-batch.
    pub batch_fill: HistogramSnapshot,
    /// Batch-accumulation latency in the dispatcher.
    pub dispatch: HistogramSnapshot,
    /// Store I/O merged across the shards' handles; `None` when serving
    /// memory-only.
    pub store: Option<StoreSnapshot>,
}

/// One routed solve job: the tree and query plus the pre-rendered response
/// line prefix the shard completes with the body fragment.
#[derive(Clone, Debug)]
pub struct RouteRequest {
    /// The parsed tree.
    pub tree: Arc<CdpAttackTree>,
    /// The query to answer.
    pub query: Query,
    /// The solver hint.
    pub hint: SolverHint,
    /// Whether the response should carry witness attacks (translated to
    /// this tree's BAS numbering).
    pub witnesses: bool,
    /// Everything of the response line before the body fragment, starting
    /// with `{` (e.g. `{"id":3,"query":"cdpf"`); the shard appends
    /// `,"front":...}` / `,"point":...}` / `,"error":...}`.
    pub prefix: String,
}

/// One routed what-if job: the base tree, the query, and the patches
/// whose variants to answer. The job routes to the shard owning the
/// *base* tree's cache slice — that shard's memo (built by the first
/// what-if on the base tree) answers every clean subtree — and streams one
/// reply per patch, in patch order, at consecutive sequence numbers.
#[derive(Clone, Debug)]
pub struct DeltaRouteRequest {
    /// The parsed base tree.
    pub tree: Arc<CdpAttackTree>,
    /// The query to answer on every patched variant.
    pub query: Query,
    /// Whether responses should carry witness attacks.
    pub witnesses: bool,
    /// The patches, resolved to base-tree ids.
    pub patches: Vec<TreePatch>,
    /// One response-line prefix per patch (same length as `patches`); the
    /// shard appends the body fragment exactly as for solves.
    pub prefixes: Vec<String>,
}

/// A completed response: the submission sequence number (for callers that
/// want to restore submission order) and the rendered line.
pub type Reply = (u64, String);

/// One job inside a shard batch: submission sequence, the request, its
/// reply channel, and the routing hash (reused as the cache key so the
/// tree is hashed exactly once per request).
type ShardJob = (u64, RouteRequest, Sender<Reply>, StructuralHash);

enum ShardMsg {
    Batch(Vec<ShardJob>),
    Delta(u64, DeltaRouteRequest, Sender<Reply>, StructuralHash),
    Stats(Sender<CacheStats>),
}

/// The shard pool. Dropping the router joins every shard thread (pending
/// batches are drained first).
#[derive(Debug)]
pub struct Router {
    txs: Vec<Sender<ShardMsg>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-shard cache budget slices; `None` means unbounded.
    budgets: Option<Vec<usize>>,
    /// Per-shard telemetry, created before the shard threads spawned.
    telemetry: Vec<Arc<ShardTelemetry>>,
    /// Dispatcher-side histograms (recorded by the serving loops).
    dispatch_metrics: Arc<DispatchMetrics>,
    /// Span recorder for the routing-side stages (the shard engines hold
    /// their own clones for the solve-side stages).
    trace: Option<TraceWriter>,
    started: Instant,
}

impl Router {
    /// Spawns the shard threads, each with a private handle on the
    /// persistent store when one is configured.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the store file (corrupt files
    /// recover to a cold store instead of failing).
    pub fn new(config: RouterConfig) -> io::Result<Self> {
        // Halve the shard count until every shard's budget slice is big
        // enough to actually hold fronts (the cache's own policy) —
        // otherwise a modest budget over many shards would cache nothing
        // at all.
        let shards = match config.cache_budget {
            Some(budget) => FrontCache::shards_for_budget(config.shards, budget),
            None => config.shards.max(1),
        };
        // Each shard's engine is single-threaded, so one internal cache
        // shard suffices; the budget splits with the remainder spread so
        // no point of it is lost to truncation.
        let slices = config.cache_budget.map(|budget| FrontCache::split_budget(budget, shards));
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut telemetry = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = channel::<ShardMsg>();
            let cache = match &slices {
                Some(slices) => FrontCache::with_budget(1, slices[index]),
                None => FrontCache::new(1),
            };
            // Each shard's engine is built here (not in the thread) so a
            // store that cannot be opened fails construction instead of
            // killing a shard silently.
            let mut engine = match &config.store {
                Some(path) => Engine::with_persistent(1, PersistentFrontCache::open(path, cache)?),
                None => Engine::with_cache(1, cache),
            };
            // Telemetry handles are grabbed before the engine moves into
            // the shard thread, so snapshots never message the shard.
            let metrics = Arc::new(EngineMetrics::new());
            engine = engine.with_metrics(metrics.clone());
            if let Some(trace) = &config.trace {
                engine = engine.with_trace(trace.clone());
            }
            let shard_telemetry = Arc::new(ShardTelemetry {
                engine: metrics,
                e2e_us: Histogram::new(),
                store: engine.store_metrics(),
            });
            telemetry.push(shard_telemetry.clone());
            let handle = std::thread::Builder::new()
                .name(format!("cdat-shard-{index}"))
                .spawn(move || shard_loop(rx, engine, shard_telemetry, shards))
                .expect("spawn shard thread");
            txs.push(tx);
            handles.push(handle);
        }
        Ok(Router {
            txs,
            handles,
            budgets: slices,
            telemetry,
            dispatch_metrics: Arc::new(DispatchMetrics::default()),
            trace: config.trace,
            started: Instant::now(),
        })
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// The total cache budget actually provisioned across the shards (the
    /// sum of the per-shard slices — equal to the configured budget, no
    /// point lost to division); `None` for unbounded caches.
    pub fn cache_budget(&self) -> Option<usize> {
        self.budgets.as_ref().map(|slices| slices.iter().sum())
    }

    /// The routing hash of a tree under a query: the same canonical hash
    /// that keys its cache entry.
    fn hash_for(tree: &CdpAttackTree, query: Query) -> StructuralHash {
        match query.kind() {
            FrontKind::Deterministic | FrontKind::MinTime => hash_cd(tree.cd()),
            FrontKind::Probabilistic | FrontKind::MaxProb => hash_cdp(tree),
        }
    }

    /// The routing hash of a request: the same canonical hash that keys
    /// its cache entry.
    fn route_hash(request: &RouteRequest) -> StructuralHash {
        Self::hash_for(&request.tree, request.query)
    }

    /// The shard a request routes to: its cache hash modulo the shard
    /// count, so structurally identical trees (under the same query kind)
    /// always meet the same shard's cache.
    pub fn shard_of(&self, request: &RouteRequest) -> usize {
        (Self::route_hash(request).0 % self.txs.len() as u128) as usize
    }

    /// Scatters one micro-batch to its shards. Each job's reply sender
    /// receives `(seq, line)` when its shard finishes; jobs of the same
    /// shard are answered in submission order, jobs of different shards in
    /// any order.
    pub fn dispatch(&self, batch: Vec<(u64, RouteRequest, Sender<Reply>)>) {
        let mut groups: Vec<Vec<ShardJob>> = (0..self.txs.len()).map(|_| Vec::new()).collect();
        for (seq, request, reply) in batch {
            // Hash once: the routing key doubles as the cache key inside
            // the shard's engine.
            let hash_started = Instant::now();
            let hash = Self::route_hash(&request);
            if let Some(trace) = &self.trace {
                trace.emit(
                    "canonicalize",
                    hash_started.elapsed(),
                    &[("kind", cdat_obs::TraceField::Str(request.query.kind().label()))],
                );
            }
            let shard = (hash.0 % self.txs.len() as u128) as usize;
            groups[shard].push((seq, request, reply, hash));
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                // A send only fails after the shard thread died, which only
                // happens on router teardown.
                let _ = self.txs[shard].send(ShardMsg::Batch(group));
            }
        }
    }

    /// Routes one what-if job to the shard owning its base tree's cache
    /// slice (the routing hash is the base hash, so the job meets the
    /// memo an earlier what-if on its base tree built, and a first what-if
    /// attaches its memo to the entry its base tree's solves cached). The
    /// reply sender receives one `(seq + k, line)` per patch `k`, in patch
    /// order.
    ///
    /// Deltas bypass the micro-batching dispatcher: a sweep is already a
    /// batch, and holding it for a window would only delay its first
    /// response line.
    ///
    /// # Panics
    ///
    /// Panics if `patches` and `prefixes` disagree in length.
    pub fn dispatch_delta(&self, seq: u64, request: DeltaRouteRequest, reply: Sender<Reply>) {
        assert_eq!(request.patches.len(), request.prefixes.len(), "one prefix per patch");
        let hash_started = Instant::now();
        let hash = Self::hash_for(&request.tree, request.query);
        if let Some(trace) = &self.trace {
            trace.emit(
                "canonicalize",
                hash_started.elapsed(),
                &[("kind", cdat_obs::TraceField::Str(request.query.kind().label()))],
            );
        }
        let shard = (hash.0 % self.txs.len() as u128) as usize;
        let _ = self.txs[shard].send(ShardMsg::Delta(seq, request, reply, hash));
    }

    /// Answers one what-if sweep synchronously, returning the rendered
    /// lines in patch order. Library entry point for benches, tests and
    /// the CLI; the serving loops stream instead.
    pub fn sweep(&self, request: DeltaRouteRequest) -> Vec<String> {
        let (tx, rx) = channel();
        let count = request.patches.len();
        self.dispatch_delta(0, request, tx);
        let mut lines: Vec<Reply> = rx.iter().collect();
        debug_assert_eq!(lines.len(), count);
        lines.sort_by_key(|(seq, _)| *seq);
        lines.into_iter().map(|(_, line)| line).collect()
    }

    /// Solves one batch synchronously: scatters, gathers, and returns the
    /// rendered lines in submission order. This is the library entry point
    /// used by benches and tests; the serving loops stream instead.
    pub fn solve(&self, requests: Vec<RouteRequest>) -> Vec<String> {
        let (tx, rx) = channel();
        let count = requests.len();
        self.dispatch(
            requests.into_iter().enumerate().map(|(i, r)| (i as u64, r, tx.clone())).collect(),
        );
        drop(tx);
        let mut lines: Vec<Reply> = rx.iter().collect();
        debug_assert_eq!(lines.len(), count);
        lines.sort_by_key(|(seq, _)| *seq);
        lines.into_iter().map(|(_, line)| line).collect()
    }

    /// Per-shard telemetry handles, in shard order.
    pub fn telemetry(&self) -> &[Arc<ShardTelemetry>] {
        &self.telemetry
    }

    /// The dispatcher-side histograms (the serving loops record into
    /// these; the router only holds them so `stats`/`metrics` rendering
    /// reads one place).
    pub fn dispatch_metrics(&self) -> &Arc<DispatchMetrics> {
        &self.dispatch_metrics
    }

    /// Aggregates every telemetry surface into one point-in-time
    /// [`ServerSnapshot`] — pure atomic reads, no shard messaging.
    pub fn snapshot(&self) -> ServerSnapshot {
        let mut engine = EngineSnapshot::new();
        let mut e2e = HistogramSnapshot::default();
        let mut per_shard_e2e = Vec::with_capacity(self.telemetry.len());
        let mut store: Option<StoreSnapshot> = None;
        for shard in &self.telemetry {
            engine.absorb(&shard.engine);
            let shard_e2e = shard.e2e_us.snapshot();
            e2e.merge(&shard_e2e);
            per_shard_e2e.push(shard_e2e);
            if let Some(metrics) = &shard.store {
                store.get_or_insert_with(StoreSnapshot::new).absorb(metrics);
            }
        }
        ServerSnapshot {
            uptime_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            engine,
            e2e,
            per_shard_e2e,
            batch_fill: self.dispatch_metrics.batch_fill.snapshot(),
            dispatch: self.dispatch_metrics.dispatch_us.snapshot(),
            store,
        }
    }

    /// Snapshots every shard's cache statistics, in shard order.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.txs
            .iter()
            .map(|shard| {
                let (tx, rx) = channel();
                let _ = shard.send(ShardMsg::Stats(tx));
                rx.recv().expect("shard answers stats while the router lives")
            })
            .collect()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.txs.clear(); // disconnect: shards drain pending batches and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One shard: a single-threaded engine over its private cache slice (and
/// its private store handle, when persistence is on). Only a sweep fans
/// out: its variants run on up to `sweep_width` threads (the router's
/// shard count), since one sweep's variants all share this shard's memo.
fn shard_loop(
    rx: Receiver<ShardMsg>,
    engine: Engine,
    telemetry: Arc<ShardTelemetry>,
    sweep_width: usize,
) {
    for message in rx {
        match message {
            ShardMsg::Batch(jobs) => {
                let batch_started = Instant::now();
                let requests: Vec<BatchRequest> = jobs
                    .iter()
                    .map(|(_, job, _, hash)| {
                        BatchRequest::new(job.tree.clone(), job.query)
                            .with_hint(job.hint)
                            .with_witnesses(job.witnesses)
                            .with_hash(*hash)
                    })
                    .collect();
                let results = engine.run(&requests);
                for ((seq, job, reply, _), result) in jobs.into_iter().zip(results) {
                    let mut line = job.prefix;
                    write_body(&mut line, &result.response);
                    line.push('}');
                    // The receiver may be gone (client hung up): drop the
                    // response, keep serving.
                    let _ = reply.send((seq, line));
                    // Per-op end-to-end latency inside the shard: batch
                    // receipt to this op's reply send.
                    telemetry.e2e_us.observe_since(batch_started);
                }
            }
            ShardMsg::Delta(seq, job, reply, hash) => {
                let started = Instant::now();
                let request = DeltaRequest::sweep(job.tree, job.query, job.patches)
                    .with_witnesses(job.witnesses)
                    .with_hash(hash)
                    .with_width(sweep_width);
                let results = engine.sweep(&request);
                for (k, (result, prefix)) in results.into_iter().zip(job.prefixes).enumerate() {
                    let mut line = prefix;
                    write_body(&mut line, &result.response);
                    line.push('}');
                    let _ = reply.send((seq + k as u64, line));
                    telemetry.e2e_us.observe_since(started);
                }
            }
            ShardMsg::Stats(tx) => {
                let _ = tx.send(engine.stats());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory-only router (opening no store file cannot fail).
    fn router(shards: usize, cache_budget: Option<usize>) -> Router {
        Router::new(RouterConfig { shards, cache_budget, ..RouterConfig::default() })
            .expect("memory-only router")
    }

    fn request(tree: Arc<CdpAttackTree>, query: Query, id: usize) -> RouteRequest {
        RouteRequest {
            tree,
            query,
            hint: SolverHint::Auto,
            witnesses: false,
            prefix: format!("{{\"id\":{id}"),
        }
    }

    fn random_trees(seed: u64, count: usize) -> Vec<Arc<CdpAttackTree>> {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let tree = cdat_gen::random_small(&mut rng, 7, true);
                Arc::new(cdat_gen::decorate_prob(tree, &mut rng))
            })
            .collect()
    }

    #[test]
    fn solve_returns_lines_in_submission_order() {
        let router = router(4, None);
        let tree = Arc::new(cdat_models::factory_cdp());
        let requests: Vec<RouteRequest> =
            (0..6).map(|i| request(tree.clone(), Query::Dgc(i as f64), i)).collect();
        let lines = router.solve(requests);
        assert_eq!(lines.len(), 6);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"id\":{i},")), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn responses_are_independent_of_the_shard_count() {
        let trees = random_trees(7001, 25);
        let build = || -> Vec<RouteRequest> {
            trees
                .iter()
                .enumerate()
                .flat_map(|(i, t)| {
                    [
                        request(t.clone(), Query::Cdpf, 2 * i),
                        request(t.clone(), Query::Cedpf, 2 * i + 1),
                    ]
                })
                .collect()
        };
        let reference = router(1, None).solve(build());
        for shards in [2, 3, 8] {
            let router = router(shards, None);
            assert_eq!(router.solve(build()), reference, "shards={shards}");
        }
    }

    #[test]
    fn identical_trees_share_one_shard_cache() {
        let router = router(4, None);
        let tree = Arc::new(cdat_models::factory_cdp());
        let requests: Vec<RouteRequest> =
            (0..10).map(|i| request(tree.clone(), Query::Cdpf, i)).collect();
        router.solve(requests);
        let stats = router.stats();
        let total_entries: usize = stats.iter().map(|s| s.entries).sum();
        assert_eq!(total_entries, 1, "one front cached across all shards");
        let total_misses: u64 = stats.iter().map(|s| s.misses).sum();
        assert_eq!(total_misses, 1, "one miss; the rest were same-shard hits");
    }

    #[test]
    fn budgeted_router_bounds_points_and_evicts() {
        let budget = 64;
        let router = router(4, Some(budget));
        for wave in 0..6u64 {
            let trees = random_trees(7100 + wave, 12);
            let requests: Vec<RouteRequest> =
                trees.iter().enumerate().map(|(i, t)| request(t.clone(), Query::Cdpf, i)).collect();
            router.solve(requests);
            let points: usize = router.stats().iter().map(|s| s.points).sum();
            assert!(points <= budget, "wave {wave}: {points} points exceed budget {budget}");
        }
        let evictions: u64 = router.stats().iter().map(|s| s.evictions).sum();
        assert!(evictions > 0, "72 distinct trees against 64 points must evict");
    }

    #[test]
    fn small_budgets_collapse_the_shard_count() {
        // 32 points over 16 shards would give 2-point slices that cache
        // nothing; the router must halve down to 4 shards (8-point
        // slices).
        let router = router(16, Some(32));
        assert_eq!(router.shards(), 4);
        let tree = Arc::new(cdat_models::factory_cdp());
        router.solve(vec![request(tree, Query::Cdpf, 0)]);
        let entries: usize = router.stats().iter().map(|s| s.entries).sum();
        assert_eq!(entries, 1, "the 4-point factory front must actually cache");
    }

    #[test]
    fn witnessed_requests_render_witness_arrays() {
        let router = router(2, None);
        let tree = Arc::new(cdat_models::factory_cdp());
        let mut witnessed = request(tree.clone(), Query::Cdpf, 0);
        witnessed.witnesses = true;
        let plain = request(tree, Query::Cdpf, 1);
        let lines = router.solve(vec![witnessed, plain]);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"front\":[[0,0],[1,200],[3,210],[5,310]],\
             \"witnesses\":[[],[0],[0,2],[1,2]]}"
        );
        assert_eq!(
            lines[1], "{\"id\":1,\"front\":[[0,0],[1,200],[3,210],[5,310]]}",
            "unwitnessed requests keep the pre-witness bytes"
        );
    }

    #[test]
    fn sweeps_stream_in_patch_order_with_scratch_solve_bytes() {
        use cdat_core::BasId;
        let router = router(4, None);
        let tree = Arc::new(cdat_models::factory_cdp());
        // A normal solve caches the bare front; the sweep builds the
        // owning shard's subtree memo and attaches it to that entry.
        router.solve(vec![request(tree.clone(), Query::Cdpf, 99)]);
        let patches: Vec<TreePatch> = (1..=5)
            .map(|i| TreePatch {
                costs: vec![(BasId::new(0), f64::from(i))],
                ..TreePatch::default()
            })
            .collect();
        let prefixes = (0..patches.len()).map(|k| format!("{{\"id\":7,\"variant\":{k}")).collect();
        let lines = router.sweep(DeltaRouteRequest {
            tree: tree.clone(),
            query: Query::Cdpf,
            witnesses: true,
            patches: patches.clone(),
            prefixes,
        });
        assert_eq!(lines.len(), 5);
        for (k, (line, patch)) in lines.iter().zip(&patches).enumerate() {
            assert!(line.starts_with(&format!("{{\"id\":7,\"variant\":{k},")), "{line}");
            // The body bytes must equal an independent scratch solve of
            // the patched tree.
            let variant = Arc::new(patch.apply(&tree).expect("attribute patch applies"));
            let mut scratch = request(variant, Query::Cdpf, 7);
            scratch.witnesses = true;
            let scratch_line = self::router(1, None).solve(vec![scratch]).pop().unwrap();
            let body = &line[line.find(",\"front\"").expect("front body")..];
            let scratch_body = &scratch_line[scratch_line.find(",\"front\"").expect("front")..];
            assert_eq!(body, scratch_body, "variant {k}");
        }
    }

    #[test]
    fn scalar_queries_serve_value_lines() {
        let router = router(2, None);
        let tree = Arc::new(cdat_models::factory_cdp());
        let mut witnessed = request(tree.clone(), Query::MaxProb, 2);
        witnessed.witnesses = true;
        let lines = router.solve(vec![
            request(tree.clone(), Query::MinTime, 0),
            request(tree.clone(), Query::MaxProb, 1),
            witnessed,
        ]);
        assert_eq!(lines[0], "{\"id\":0,\"value\":1}");
        // 0.4 · 0.9 in IEEE f64; the protocol prints the shortest exact
        // round-trip, so the bytes expose the representable value.
        assert_eq!(lines[1], "{\"id\":1,\"value\":0.36000000000000004}");
        assert_eq!(lines[2], "{\"id\":2,\"value\":0.36000000000000004,\"witness\":[1,2]}");
        // Scalar entries live in their own cache families: four entries,
        // none shared with a cost-damage front.
        router.solve(vec![request(tree, Query::Cdpf, 3)]);
        let entries: usize = router.stats().iter().map(|s| s.entries).sum();
        assert_eq!(entries, 3);
    }

    #[test]
    fn odd_budgets_are_fully_usable_across_shards() {
        // 67 points over 4 shards: floor division would silently cap the
        // router's caches at 64; the remainder-spreading split must
        // provision all 67 (the positive direction the points bound alone
        // cannot catch).
        let router = router(4, Some(67));
        assert_eq!(router.shards(), 4);
        assert_eq!(router.cache_budget(), Some(67), "no budget point may be lost to truncation");
        let trees = random_trees(7200, 40);
        let requests: Vec<RouteRequest> =
            trees.iter().enumerate().map(|(i, t)| request(t.clone(), Query::Cdpf, i)).collect();
        router.solve(requests);
        let points: usize = router.stats().iter().map(|s| s.points).sum();
        assert!(points <= 67, "{points} points exceed the 67-point budget");
        let unbounded = self::router(4, None);
        assert_eq!(unbounded.cache_budget(), None);
    }

    #[test]
    fn stats_answer_while_idle() {
        let router = Router::new(RouterConfig::default()).unwrap();
        let stats = router.stats();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| *s == CacheStats::default()));
    }

    #[test]
    fn shards_warm_restart_from_one_store_file() {
        let path = std::env::temp_dir()
            .join(format!("cdat-router-warm-restart-{}.cdatstore", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let trees = random_trees(7300, 12);
        let build = || -> Vec<RouteRequest> {
            trees.iter().enumerate().map(|(i, t)| request(t.clone(), Query::Cdpf, i)).collect()
        };
        let config =
            || RouterConfig { shards: 3, store: Some(path.clone()), ..RouterConfig::default() };

        let cold_router = Router::new(config()).unwrap();
        let cold = cold_router.solve(build());
        let cold_stats = cold_router.stats();
        assert_eq!(cold_stats.iter().map(|s| s.disk_hits).sum::<u64>(), 0, "cold run");
        assert!(cold_stats.iter().map(|s| s.disk_entries).sum::<usize>() > 0, "fronts persisted");
        drop(cold_router);

        // A fresh router on the same file: every shard re-opens its own
        // handle and answers from disk, byte-identically.
        let warm_router = Router::new(config()).unwrap();
        let warm = warm_router.solve(build());
        assert_eq!(warm, cold, "warm restart must reproduce the cold bytes");
        let warm_stats = warm_router.stats();
        assert!(warm_stats.iter().map(|s| s.disk_hits).sum::<u64>() > 0, "disk answered");
        assert_eq!(warm_stats.iter().map(|s| s.misses).sum::<u64>(), {
            // Disk answers count as memory misses, so the miss totals of
            // the two runs agree exactly.
            cold_stats.iter().map(|s| s.misses).sum::<u64>()
        });
        drop(warm_router);

        // Memory-only on the same requests: the disk tier never changes
        // the answer bytes.
        let storeless = router(3, None).solve(build());
        assert_eq!(storeless, cold);
        let _ = std::fs::remove_file(&path);
    }
}
