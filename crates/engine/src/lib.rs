//! Parallel batch solving with a memoizing front cache.
//!
//! The paper's experiments are suite-shaped — hundreds of random trees per
//! configuration, or many budget queries against one tree — but the
//! one-call solvers answer a single query on a single thread. This crate
//! amortizes suite workloads three ways:
//!
//! 1. **Deduplication.** Requests are keyed by the canonical structural
//!    hash of their tree ([`cdat_core::canonical`]); structurally identical
//!    trees (names and sibling order ignored) share one solve.
//! 2. **Memoization.** Every computed Pareto front lands in a sharded
//!    concurrent [`FrontCache`]; an [`Engine`] kept across batches answers
//!    repeated queries in O(1). All six paper queries are answered from
//!    two front families — CDPF/DgC/CgD from the deterministic front,
//!    CEDPF/EDgC/CgED from the cost–expected-damage front — and the scalar
//!    attribute-domain queries ([`Query::MinTime`], [`Query::MaxProb`])
//!    from their own one-entry-front families.
//! 3. **Parallelism.** The unique fronts of a batch fan out over N plain
//!    `std::thread` workers (no external dependencies).
//!
//! # Determinism
//!
//! [`Engine::run`] is deterministic in everything except wall-clock
//! timings: responses *and* per-request cache-hit flags are byte-for-byte
//! identical whatever the worker count. This holds because deduplication
//! happens *before* the fan-out — the first request (in batch order) of
//! each distinct front is the designated miss, every later one a hit — and
//! each unique front is computed exactly once by a deterministic solver.
//!
//! # Witnesses
//!
//! Responses carry `(cost, damage)` points by default, and full witness
//! attacks on request ([`BatchRequest::with_witnesses`]). Deduplication
//! identifies trees up to renaming and sibling reordering, under which
//! front *points* are invariant but BAS numberings are not — so the cache
//! stores each front's witnesses in **canonical BAS positions**
//! ([`cdat_core::canonical::Canonical`]) and [`Engine::run`] translates
//! them into the requesting tree's own numbering at answer time. Two
//! renamed/reordered copies of a tree thus share one cached front, yet
//! each receives witnesses valid for *its* BAS ids, exactly matching what
//! the one-call solvers ([`cdat_bottomup`], [`cdat_bdd::fuse`]) return on
//! that copy.
//!
//! Witnesses are stored **unconditionally** — cache entries are shared, so
//! a front computed for a points-only request must still be able to answer
//! a later witnessed one. Consequently a cached front point weighs two
//! points of a budgeted cache whether or not anyone has opted in yet (see
//! [`CachedFront::weight`]), and every miss pays one canonical traversal
//! to store the witnesses translatably. What the per-request opt-in
//! controls is the *response*: only witnessed requests pay the
//! per-requester canonical traversal (memoized per tree within a batch)
//! and the translation, and only their responses carry attacks.
//!
//! # Persistence
//!
//! The in-memory cache dies with the process; an engine built with
//! [`Engine::with_persistent`] adds a disk tier below it
//! ([`PersistentFrontCache`], over `cdat-store`'s append-only record log).
//! Memory misses read through to disk and promote what they find; newly
//! computed fronts are appended. Disk answers report `cache_hit == false`
//! — the same flag the cold run emitted when it computed them — so a
//! restarted process produces byte-identical batch output, with the disk
//! tier's work visible only in [`CacheStats::disk_hits`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cdat_engine::{BatchRequest, Engine, Query, Response};
//!
//! let tree = Arc::new(cdat_models::factory_cdp());
//! let requests: Vec<BatchRequest> = (0..4)
//!     .map(|b| BatchRequest::new(tree.clone(), Query::Dgc(b as f64)))
//!     .chain([BatchRequest::new(tree.clone(), Query::Cdpf)])
//!     .collect();
//!
//! let engine = Engine::new(2);
//! let results = engine.run(&requests);
//! // One front computed, five requests answered from it.
//! assert_eq!(engine.cache().stats().entries, 1);
//! assert_eq!(results.iter().filter(|r| r.cache_hit).count(), 4);
//! match &results[4].response {
//!     Response::Front(front) => {
//!         assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}")
//!     }
//!     other => panic!("expected a front, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cache;
mod delta;
mod metrics;
mod persist;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cdat_core::canonical::{canonicalize_cd, canonicalize_cdp, hash_cd, hash_cdp};
use cdat_core::{BasId, CdAttackTree, CdpAttackTree, StructuralHash};
use cdat_obs::{TraceField, TraceWriter};
use cdat_pareto::{FrontEntry, ParetoFront};

pub use backend::SolverBackend;
pub use cache::{CacheKey, CacheStats, CachedFront, FrontCache};
pub use cdat_core::TreePatch;
pub use cdat_store::StoreMetrics;
pub use delta::{
    DeltaRequest, DeltaResult, SubtreeMemo, DELTA_DAG_UNSUPPORTED, DELTA_SCALAR_UNSUPPORTED,
};
pub use metrics::{EngineMetrics, EngineSnapshot, FamilyCounters, FamilySnapshot, StoreSnapshot};
pub use persist::PersistentFrontCache;

/// The front families a query can need.
///
/// The two Pareto families come from the paper; the scalar families are
/// attribute domains over the same generic kernel
/// ([`cdat_pareto::AttributeDomain`]), each cached as a one-entry front.
/// Every family has its own cache keyspace in memory *and* its own wire
/// family code on disk ([`cdat_pareto::wire::family`]), so domains can
/// never alias each other's entries.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum FrontKind {
    /// Cost-damage front (CDPF); answers CDPF, DgC and CgD.
    Deterministic,
    /// Cost–expected-damage front (CEDPF); answers CEDPF, EDgC and CgED.
    Probabilistic,
    /// Min-time scalar optimum (min-plus over the cost attribute).
    MinTime,
    /// Max-probability scalar optimum (the likeliest single attack).
    MaxProb,
}

impl FrontKind {
    /// Every front family, in [`FrontKind::index`] order.
    pub const ALL: [FrontKind; 4] = [
        FrontKind::Deterministic,
        FrontKind::Probabilistic,
        FrontKind::MinTime,
        FrontKind::MaxProb,
    ];

    /// A stable dense index (0..4), used to key per-family metrics.
    pub fn index(self) -> usize {
        match self {
            FrontKind::Deterministic => 0,
            FrontKind::Probabilistic => 1,
            FrontKind::MinTime => 2,
            FrontKind::MaxProb => 3,
        }
    }

    /// The stable snake_case label used in metric names and trace spans.
    pub fn label(self) -> &'static str {
        match self {
            FrontKind::Deterministic => "deterministic",
            FrontKind::Probabilistic => "probabilistic",
            FrontKind::MinTime => "min_time",
            FrontKind::MaxProb => "max_prob",
        }
    }
}

/// One of the paper's six queries, or a scalar attribute-domain query,
/// against a cdp-AT.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Query {
    /// The full cost-damage Pareto front.
    Cdpf,
    /// Maximal damage within the cost budget.
    Dgc(f64),
    /// Minimal cost achieving the damage threshold.
    Cgd(f64),
    /// The full cost–expected-damage Pareto front (treelike only).
    Cedpf,
    /// Maximal expected damage within the cost budget (treelike only).
    Edgc(f64),
    /// Minimal cost achieving the expected-damage threshold (treelike only).
    Cged(f64),
    /// Minimal time-to-attack, reading each BAS's cost as its duration.
    MinTime,
    /// Maximal single-attack success probability.
    MaxProb,
}

impl Query {
    /// Which front family answers this query.
    pub fn kind(self) -> FrontKind {
        match self {
            Query::Cdpf | Query::Dgc(_) | Query::Cgd(_) => FrontKind::Deterministic,
            Query::Cedpf | Query::Edgc(_) | Query::Cged(_) => FrontKind::Probabilistic,
            Query::MinTime => FrontKind::MinTime,
            Query::MaxProb => FrontKind::MaxProb,
        }
    }
}

/// Which solver computes a front on a cache miss.
///
/// The hint never changes *what* is computed — all backends return the
/// same exact front, so hinted and unhinted requests share cache entries —
/// only *how*. Hints resolve to a [`SolverBackend`] through
/// [`SolverBackend::select`]; incompatible combinations (bottom-up on a
/// DAG-like tree, enumerative past its BAS cap) are rejected with a
/// [`Response::Error`] before the cache is consulted, so a bad hint can
/// never poison a shared entry.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum SolverHint {
    /// Dispatch on shape: treelike → bottom-up, DAG-like → the BDD-fused
    /// solver.
    #[default]
    Auto,
    /// Force the bottom-up solver (treelike trees only).
    BottomUp,
    /// Force the BDD-fused solver (any shape, any family).
    Bdd,
    /// Force the enumerative oracle (any shape, size-gated).
    Enumerative,
}

impl SolverHint {
    /// Parses the protocol spelling (`auto` / `bottomup` / `bdd` /
    /// `enumerative`). `bilp`, the name of the retired BILP backend, is an
    /// alias of `auto`: hints never change response bytes, so a client
    /// that sends it gets the bytes of an unhinted request.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "auto" | "bilp" => Ok(SolverHint::Auto),
            "bottomup" | "bottom-up" | "bu" => Ok(SolverHint::BottomUp),
            "bdd" => Ok(SolverHint::Bdd),
            "enumerative" | "enum" => Ok(SolverHint::Enumerative),
            other => Err(format!(
                "unknown solver {other:?} (expected auto, bottomup, bdd, enumerative or bilp)"
            )),
        }
    }
}

/// One solve request: a tree and a query against it.
///
/// Trees are shared via [`Arc`] so "many budgets against one tree" costs
/// one allocation, not one clone per budget.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// The decorated tree (probabilities default to 1 for deterministic
    /// workloads; see [`BatchRequest::deterministic`]).
    pub tree: Arc<CdpAttackTree>,
    /// The query to answer.
    pub query: Query,
    /// Which solver to use on a cache miss.
    pub hint: SolverHint,
    /// Whether responses should carry witness attacks (translated to this
    /// tree's BAS numbering); see the crate docs on witnesses.
    pub witnesses: bool,
    /// Precomputed canonical hash (see [`BatchRequest::with_hash`]);
    /// `None` means the engine computes it.
    pub hash: Option<StructuralHash>,
}

impl BatchRequest {
    /// Creates a request against a cdp-AT (automatic solver dispatch).
    pub fn new(tree: Arc<CdpAttackTree>, query: Query) -> Self {
        BatchRequest { tree, query, hint: SolverHint::Auto, witnesses: false, hash: None }
    }

    /// Creates a request against a cd-AT by attaching certain (probability
    /// 1) success to every BAS.
    ///
    /// # Panics
    ///
    /// Never in practice: probability 1 is always valid.
    pub fn deterministic(cd: CdAttackTree, query: Query) -> Self {
        let n = cd.tree().bas_count();
        let cdp = CdpAttackTree::from_parts(cd, vec![1.0; n]).expect("probability 1 is valid");
        Self::new(Arc::new(cdp), query)
    }

    /// Sets the solver hint.
    pub fn with_hint(mut self, hint: SolverHint) -> Self {
        self.hint = hint;
        self
    }

    /// Requests witness attacks in the response, expressed in this tree's
    /// own BAS numbering (cached fronts are translated; see the crate
    /// docs). Costs one canonical traversal per distinct tree object per
    /// batch, plus the per-response translation.
    pub fn with_witnesses(mut self, witnesses: bool) -> Self {
        self.witnesses = witnesses;
        self
    }

    /// Supplies the tree's canonical hash, sparing the engine the O(nodes)
    /// recomputation — used by routers that already hashed the tree to
    /// pick a shard.
    ///
    /// The hash **must** equal what the engine would compute itself —
    /// [`hash_cd`] of the tree for deterministic queries, [`hash_cdp`]
    /// for probabilistic ones. A wrong hash aliases unrelated cache
    /// entries and returns wrong fronts.
    pub fn with_hash(mut self, hash: StructuralHash) -> Self {
        self.hash = Some(hash);
        self
    }
}

/// The answer to one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A full Pareto front (for [`Query::Cdpf`] / [`Query::Cedpf`]).
    /// Entries carry witness attacks in the requesting tree's BAS
    /// numbering when the request asked for them
    /// ([`BatchRequest::with_witnesses`]), and bare points otherwise.
    Front(ParetoFront),
    /// A single optimum (for the four single-objective queries), with the
    /// same witness rule as [`Response::Front`]; `None` when no attack
    /// satisfies the constraint (negative budget, unattainable threshold).
    Entry(Option<FrontEntry>),
    /// A scalar attribute-domain optimum (for [`Query::MinTime`] /
    /// [`Query::MaxProb`]): the value lives in the entry's cost slot
    /// (damage is always 0), with the same witness rule as
    /// [`Response::Front`]. `None` when the tree has no successful attack.
    Value(Option<FrontEntry>),
    /// The query is not answerable on this tree (probabilistic queries on
    /// DAG-like trees).
    Error(String),
}

/// One request's result: the response plus cache and timing metadata.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The answer.
    pub response: Response,
    /// Whether the front answering this request was already computed — by
    /// an earlier batch, or by an earlier request of this batch.
    /// Deterministic: independent of the worker count.
    pub cache_hit: bool,
    /// Solver wall time attributed to this request: the front computation
    /// time for the designated miss, [`Duration::ZERO`] for cache hits.
    pub compute: Duration,
    /// The *original* solve cost of the answering front, whenever it was
    /// computed: equals `compute` on the designated miss, and on cache
    /// hits and disk answers reports the recorded compute time of the
    /// cached front instead of dropping it ([`Duration::ZERO`] only for
    /// hint errors). Surfaced as `compute_us` by `--timings`.
    pub solve_cost: Duration,
}

/// The engine's cache stack: memory-only, or memory over a disk store.
#[derive(Debug)]
enum Tier {
    /// In-memory cache only; dies with the process.
    Memory(FrontCache),
    /// Memory over a persistent disk store (see [`PersistentFrontCache`]).
    Persistent(PersistentFrontCache),
}

impl Tier {
    fn memory(&self) -> &FrontCache {
        match self {
            Tier::Memory(cache) => cache,
            Tier::Persistent(persistent) => persistent.memory(),
        }
    }

    /// Disk lookup after a memory miss; `None` for the memory-only tier.
    fn fetch_disk(&self, key: &CacheKey) -> Option<Arc<CachedFront>> {
        match self {
            Tier::Memory(_) => None,
            Tier::Persistent(persistent) => persistent.fetch_disk(key),
        }
    }

    fn persist(&self, key: &CacheKey, entry: &CachedFront) {
        if let Tier::Persistent(persistent) = self {
            persistent.persist(key, entry);
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            Tier::Memory(cache) => cache.stats(),
            Tier::Persistent(persistent) => persistent.stats(),
        }
    }
}

/// A fixed-size worker pool answering batches of requests through a shared
/// [`FrontCache`], optionally backed by a persistent disk store.
///
/// Cheap to construct; keep one alive across batches to reuse the cache.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    tier: Tier,
    metrics: Option<Arc<EngineMetrics>>,
    trace: Option<TraceWriter>,
}

impl Engine {
    /// Creates an engine with `workers` solver threads (clamped to ≥ 1) and
    /// a default-sharded cache.
    pub fn new(workers: usize) -> Self {
        Engine::with_cache(workers, FrontCache::default())
    }

    /// Creates an engine around an existing cache (e.g. to share one cache
    /// between engines of different widths).
    pub fn with_cache(workers: usize, cache: FrontCache) -> Self {
        Engine { workers: workers.max(1), tier: Tier::Memory(cache), metrics: None, trace: None }
    }

    /// Creates an engine whose cache reads through to — and persists newly
    /// computed fronts into — a disk store ([`PersistentFrontCache`]).
    ///
    /// Disk-answered requests report `cache_hit == false`, exactly like
    /// the cold run that originally computed them, so responses (and hit
    /// flags) stay byte-identical across a process restart; the disk
    /// tier's work is reported via [`CacheStats::disk_hits`] in
    /// [`Engine::stats`].
    pub fn with_persistent(workers: usize, cache: PersistentFrontCache) -> Self {
        Engine {
            workers: workers.max(1),
            tier: Tier::Persistent(cache),
            metrics: None,
            trace: None,
        }
    }

    /// Attaches shared telemetry ([`EngineMetrics`]): subsequent
    /// [`Engine::run`] calls record queue-wait/solve-time histograms and
    /// per-family cache-tier counters into it. Strictly out of band —
    /// responses and hit flags are byte-identical with or without it.
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a JSONL flight recorder: subsequent [`Engine::run`] calls
    /// emit one span event per request stage (`canonicalize`,
    /// `cache_lookup`, `solve`, `store_append`). Out of band like
    /// [`Engine::with_metrics`].
    pub fn with_trace(mut self, trace: TraceWriter) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached telemetry, if any.
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// The persistent tier's store I/O telemetry, if a store is attached.
    pub fn store_metrics(&self) -> Option<Arc<cdat_store::StoreMetrics>> {
        match &self.tier {
            Tier::Memory(_) => None,
            Tier::Persistent(persistent) => Some(persistent.store_metrics()),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's in-memory front cache.
    pub fn cache(&self) -> &FrontCache {
        self.tier.memory()
    }

    /// Cache counters across both tiers: the in-memory stats, plus
    /// [`CacheStats::disk_hits`] / [`CacheStats::disk_entries`] when a
    /// persistent store is attached (zero otherwise).
    pub fn stats(&self) -> CacheStats {
        self.tier.stats()
    }

    /// Answers a batch of requests, fanning uncached front computations
    /// across the worker pool.
    ///
    /// Responses and cache-hit flags are deterministic (see the crate
    /// docs); only [`BatchResult::compute`] varies between runs. Under a
    /// budgeted cache the *responses* stay deterministic, but hit flags of
    /// later batches may vary with eviction order.
    pub fn run(&self, requests: &[BatchRequest]) -> Vec<BatchResult> {
        let run_started = Instant::now();
        /// Where a request's front comes from.
        enum Source {
            /// The hint is incompatible with the tree or query.
            Invalid(String),
            /// Already cached before this batch (entry grabbed in phase 1,
            /// so a concurrent eviction cannot strand the request).
            Cached(Arc<CachedFront>),
            /// Read from the disk tier on a memory miss (promoted into
            /// memory; reported as a miss so a warm restart reproduces the
            /// cold run's bytes).
            Disk(Arc<CachedFront>),
            /// Computed by this batch's job `i` (the designated miss and
            /// its in-batch followers).
            Job(usize),
        }

        // Phase 1 — key every request and dedupe, in batch order. The
        // first request needing an uncached front becomes its designated
        // miss and contributes the job; everything later is a hit. Doing
        // this before the fan-out is what makes hit/miss flags independent
        // of the worker count.
        let mut sources = Vec::with_capacity(requests.len());
        let mut designated = vec![false; requests.len()];
        // Per request: its canonical BAS order, computed only when the
        // request wants witnesses (cached witnesses are stored in
        // canonical positions; this is the key that maps them back into
        // the requesting tree's own numbering). The canonical traversal is
        // memoized per (tree object, front kind): "many queries against
        // one tree" — the Arc-sharing pattern the engine is built for —
        // canonicalizes each tree once per run, not once per request.
        /// Phase-1 memo: per distinct (tree object, front kind), the
        /// canonical hash and the shared canonical BAS order.
        type CanonMemo = std::collections::HashMap<(*const CdpAttackTree, FrontKind), CanonEntry>;
        type CanonEntry = (StructuralHash, Arc<Vec<BasId>>);
        let mut translations: Vec<Option<Arc<Vec<BasId>>>> = Vec::with_capacity(requests.len());
        let mut canon_of_tree: CanonMemo = Default::default();
        let mut jobs: Vec<(CacheKey, &Arc<CdpAttackTree>, SolverBackend)> = Vec::new();
        let mut job_of_key: std::collections::HashMap<CacheKey, usize> = Default::default();
        // Disk answers already fetched this batch: later same-key requests
        // reuse the held Arc as hits (mirroring job followers), so their
        // flags cannot depend on whether the promoted entry survived
        // eviction until they came around.
        let mut disk_of_key: std::collections::HashMap<CacheKey, Arc<CachedFront>> =
            Default::default();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, request) in requests.iter().enumerate() {
            let kind = request.query.kind();
            // The single dispatch point: every valid request resolves to
            // the one backend that would compute its front on a miss,
            // before cache keying — so an invalid hint errors immediately
            // and can never poison a shared entry.
            let backend = match SolverBackend::select(request.hint, kind, &request.tree) {
                Ok(backend) => backend,
                Err(message) => {
                    if let Some(metrics) = &self.metrics {
                        metrics.invalid_hints.inc();
                    }
                    sources.push(Source::Invalid(message));
                    translations.push(None);
                    continue;
                }
            };
            if let Some(metrics) = &self.metrics {
                metrics.backend_requests[backend.index()].inc();
            }
            let canonical = request.witnesses.then(|| {
                canon_of_tree
                    .entry((Arc::as_ptr(&request.tree), kind))
                    .or_insert_with(|| {
                        let started = Instant::now();
                        let canonical = match kind {
                            FrontKind::Deterministic | FrontKind::MinTime => {
                                canonicalize_cd(request.tree.cd())
                            }
                            FrontKind::Probabilistic | FrontKind::MaxProb => {
                                canonicalize_cdp(&request.tree)
                            }
                        };
                        if let Some(trace) = &self.trace {
                            trace.emit(
                                "canonicalize",
                                started.elapsed(),
                                &[("kind", TraceField::Str(kind.label()))],
                            );
                        }
                        (canonical.hash, Arc::new(canonical.bas_order))
                    })
                    .clone()
            });
            let hash = request.hash.unwrap_or_else(|| match &canonical {
                Some((hash, _)) => *hash,
                None => {
                    let started = Instant::now();
                    let hash = match kind {
                        FrontKind::Deterministic | FrontKind::MinTime => hash_cd(request.tree.cd()),
                        FrontKind::Probabilistic | FrontKind::MaxProb => hash_cdp(&request.tree),
                    };
                    if let Some(trace) = &self.trace {
                        trace.emit(
                            "canonicalize",
                            started.elapsed(),
                            &[("kind", TraceField::Str(kind.label()))],
                        );
                    }
                    hash
                }
            });
            translations.push(canonical.map(|(_, order)| order));
            let key = CacheKey { hash, kind };
            let lookup_started = Instant::now();
            let tier_label;
            if let Some(entry) = self.tier.memory().touch(&key) {
                hits += 1;
                tier_label = "memory";
                sources.push(Source::Cached(entry));
            } else if let Some(&job) = job_of_key.get(&key) {
                hits += 1;
                tier_label = "batch";
                sources.push(Source::Job(job));
            } else if let Some(entry) = disk_of_key.get(&key) {
                hits += 1;
                tier_label = "batch";
                sources.push(Source::Cached(entry.clone()));
            } else if let Some(entry) = self.tier.fetch_disk(&key) {
                // A disk answer takes the slot the designated miss would
                // have: it counts as a memory miss and reports
                // `cache_hit == false`, so a warm restart emits exactly
                // the cold run's bytes. Later same-key requests hit the
                // promoted memory entry (or the Arc held above) like any
                // in-batch follower.
                misses += 1;
                designated[i] = true;
                tier_label = "disk";
                disk_of_key.insert(key, entry.clone());
                sources.push(Source::Disk(entry));
            } else {
                misses += 1;
                designated[i] = true;
                tier_label = "miss";
                job_of_key.insert(key, jobs.len());
                sources.push(Source::Job(jobs.len()));
                jobs.push((key, &request.tree, backend));
            }
            if let Some(metrics) = &self.metrics {
                let family = metrics.family(kind);
                family.requests.inc();
                match tier_label {
                    "memory" | "batch" => family.hits.inc(),
                    "disk" => family.disk_hits.inc(),
                    _ => family.misses.inc(),
                }
            }
            if let Some(trace) = &self.trace {
                trace.emit(
                    "cache_lookup",
                    lookup_started.elapsed(),
                    &[
                        ("kind", TraceField::Str(kind.label())),
                        ("tier", TraceField::Str(tier_label)),
                    ],
                );
            }
        }
        self.tier.memory().record(hits, misses);

        // Phase 2 — compute the unique fronts on the pool, each by exactly
        // one worker regardless of pool width. The computed entry is kept
        // in the job slot as well as inserted, so answering never depends
        // on the entry surviving cache eviction.
        let persistent = matches!(self.tier, Tier::Persistent(_));
        let computed = fan_out(self.workers, jobs.len(), |i| {
            let (key, tree, backend) = &jobs[i];
            if let Some(metrics) = &self.metrics {
                metrics.queue_wait_us.observe_since(run_started);
            }
            let start = Instant::now();
            // Phase 1 selected the backend, so no shape/size re-checks
            // happen here. Only the front is kept: a what-if builds the
            // tree's subtree memo later, on demand (`Engine::sweep`).
            let result =
                backend.compute(key.kind, tree).map(|f| canonical_witnesses(key.kind, tree, f));
            let compute = start.elapsed();
            if let Some(metrics) = &self.metrics {
                metrics.solve_us.observe_duration(compute);
            }
            if let Some(trace) = &self.trace {
                trace.emit("solve", compute, &[("kind", TraceField::Str(key.kind.label()))]);
            }
            let entry = CachedFront { result, compute, memo: None, backend: Some(*backend) };
            let entry = self.tier.memory().insert(*key, entry);
            // Jobs are deduplicated per key, so exactly one worker appends
            // each new front to the disk tier (which is itself
            // first-writer-wins against other processes).
            let persist_started = Instant::now();
            self.tier.persist(key, &entry);
            if persistent {
                if let Some(trace) = &self.trace {
                    trace.emit(
                        "store_append",
                        persist_started.elapsed(),
                        &[("kind", TraceField::Str(key.kind.label()))],
                    );
                }
            }
            entry
        });

        // Phase 3 — answer every request from its source, in batch order,
        // translating cached canonical witnesses into each requester's own
        // BAS numbering.
        requests
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(i, (request, source))| {
                // One queue-wait observation per counted request: jobs'
                // designated misses were observed at claim time in phase
                // 2, everything else (hits, disk answers) here.
                let is_disk = matches!(source, Source::Disk(_));
                let observe_wait = |served: Duration| {
                    if let Some(metrics) = &self.metrics {
                        if !designated[i] || is_disk {
                            metrics.queue_wait_us.observe_since(run_started);
                        }
                        metrics
                            .served_compute_us
                            .add(served.as_micros().min(u64::MAX as u128) as u64);
                    }
                };
                match source {
                    Source::Invalid(message) => BatchResult {
                        response: Response::Error(message),
                        cache_hit: false,
                        compute: Duration::ZERO,
                        solve_cost: Duration::ZERO,
                    },
                    Source::Cached(entry) => {
                        observe_wait(entry.compute);
                        BatchResult {
                            response: answer(
                                request.query,
                                &entry,
                                translations[i].as_ref().map(|order| order.as_slice()),
                            ),
                            cache_hit: true,
                            compute: Duration::ZERO,
                            solve_cost: entry.compute,
                        }
                    }
                    Source::Disk(entry) => {
                        observe_wait(entry.compute);
                        BatchResult {
                            response: answer(
                                request.query,
                                &entry,
                                translations[i].as_ref().map(|order| order.as_slice()),
                            ),
                            // A restart answering from disk mirrors the
                            // cold run that wrote the record: same flag,
                            // no solver time.
                            cache_hit: false,
                            compute: Duration::ZERO,
                            solve_cost: entry.compute,
                        }
                    }
                    Source::Job(job) => {
                        let entry = &computed[job];
                        observe_wait(entry.compute);
                        let compute = if designated[i] { entry.compute } else { Duration::ZERO };
                        BatchResult {
                            response: answer(
                                request.query,
                                entry,
                                translations[i].as_ref().map(|order| order.as_slice()),
                            ),
                            cache_hit: !designated[i],
                            compute,
                            solve_cost: entry.compute,
                        }
                    }
                }
            })
            .collect()
    }
}

/// Runs `job(i)` for every `i < count` on a scoped pool of up to `width`
/// threads and returns the results in index order. Workers claim indices
/// through a shared counter, so every job runs exactly once whatever the
/// width; a width of 1, or a single job, runs inline on the caller.
fn fan_out<R: Send + Sync>(width: usize, count: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slots: Vec<OnceLock<R>> = (0..count).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        // Relaxed suffices: the counter only hands out indices; results
        // are published through the slots and the scope's join.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let _ = slot.set(job(i));
    };
    let pool = width.min(count);
    if pool <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(worker);
            }
        });
    }
    slots.into_iter().map(|slot| slot.into_inner().expect("every job was claimed")).collect()
}

/// Re-expresses `front`'s witnesses (in `cdp`'s own numbering) in
/// **canonical BAS positions**: the cache answers renamed/reordered copies
/// of this tree whose BAS numbering the raw witnesses would not fit, so
/// witnesses are stored in the numbering every copy can translate from
/// (see [`cdat_core::canonical::Canonical`] and [`answer`]).
fn canonical_witnesses(kind: FrontKind, cdp: &CdpAttackTree, front: ParetoFront) -> ParetoFront {
    let canonical = match kind {
        FrontKind::Deterministic | FrontKind::MinTime => canonicalize_cd(cdp.cd()),
        FrontKind::Probabilistic | FrontKind::MaxProb => canonicalize_cdp(cdp),
    };
    let position = canonical.positions();
    front.map_witnesses(position.len(), |b| BasId::new(position[b.index()]))
}

/// Answers a query from its (cached) front. `translation`, present exactly
/// when the request asked for witnesses, is the requester's canonical BAS
/// order: stored witnesses live in canonical positions, and
/// `translation[k]` is the requester's BAS at canonical position `k`.
/// Without a translation, witnesses are stripped.
fn answer(query: Query, cached: &CachedFront, translation: Option<&[BasId]>) -> Response {
    let front = match &cached.result {
        Ok(front) => front,
        Err(message) => return Response::Error(message.clone()),
    };
    let translate = |e: &FrontEntry| FrontEntry {
        point: e.point,
        witness: translation.and_then(|order| {
            e.witness.as_ref().map(|w| {
                cdat_core::Attack::from_bas_ids(order.len(), w.iter().map(|k| order[k.index()]))
            })
        }),
    };
    match query {
        Query::Cdpf | Query::Cedpf => Response::Front(match translation {
            Some(order) => front.map_witnesses(order.len(), |k| order[k.index()]),
            None => front.without_witnesses(),
        }),
        Query::Dgc(budget) | Query::Edgc(budget) => {
            Response::Entry(front.max_damage_within(budget).map(translate))
        }
        Query::Cgd(threshold) | Query::Cged(threshold) => {
            Response::Entry(front.min_cost_achieving(threshold).map(translate))
        }
        // Scalar domains cache a one-entry front; the single entry (if any)
        // is the optimum, its value in the cost slot.
        Query::MinTime | Query::MaxProb => Response::Value(front.entries().first().map(translate)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factory() -> Arc<CdpAttackTree> {
        Arc::new(cdat_models::factory_cdp())
    }

    /// The data-server case study (DAG-like) with certain probabilities.
    fn dag_cdp() -> Arc<CdpAttackTree> {
        let cd = cdat_models::dataserver();
        let n = cd.tree().bas_count();
        Arc::new(CdpAttackTree::from_parts(cd, vec![1.0; n]).unwrap())
    }

    /// A DAG with [`cdat_enumerative::MAX_ENUM_BAS`] + 1 BASs, every one
    /// shared by both OR gates under the AND root: one past the
    /// enumerative cap, and trivial for the BDD-fused solver.
    fn oversized_dag() -> Arc<CdpAttackTree> {
        let mut b = cdat_core::AttackTreeBuilder::new();
        let n = cdat_enumerative::MAX_ENUM_BAS + 1;
        let names: Vec<String> = (0..n).map(|i| format!("b{i}")).collect();
        let bas: Vec<_> = names.iter().map(|name| b.bas(name)).collect();
        let g1 = b.or("g1", bas.clone());
        let g2 = b.or("g2", bas);
        let _r = b.and("r", [g1, g2]);
        let cd = CdAttackTree::builder(b.build().unwrap()).finish().unwrap();
        Arc::new(cd.with_probabilities().finish().unwrap())
    }

    #[test]
    fn all_six_queries_answer_on_the_factory() {
        let tree = factory();
        let requests: Vec<BatchRequest> = [
            Query::Cdpf,
            Query::Dgc(2.0),
            Query::Cgd(205.0),
            Query::Cedpf,
            Query::Edgc(2.0),
            Query::Cged(1.0),
        ]
        .into_iter()
        .map(|q| BatchRequest::new(tree.clone(), q))
        .collect();
        let engine = Engine::new(3);
        let results = engine.run(&requests);

        match &results[0].response {
            Response::Front(f) => {
                assert_eq!(f.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(results[1].response, Response::Entry(Some(FrontEntry::point(1.0, 200.0))));
        assert_eq!(results[2].response, Response::Entry(Some(FrontEntry::point(3.0, 210.0))));
        assert!(matches!(&results[3].response, Response::Front(_)));
        assert!(matches!(&results[4].response, Response::Entry(Some(_))));
        assert!(matches!(&results[5].response, Response::Entry(Some(_))));
        // Two fronts computed: one deterministic, one probabilistic.
        assert_eq!(engine.cache().stats().entries, 2);
    }

    #[test]
    fn hit_flags_are_deterministic_and_worker_independent() {
        let tree = factory();
        let requests: Vec<BatchRequest> =
            (0..8).map(|b| BatchRequest::new(tree.clone(), Query::Dgc(b as f64))).collect();
        let mut flag_runs = Vec::new();
        for workers in [1, 2, 8] {
            let engine = Engine::new(workers);
            let results = engine.run(&requests);
            flag_runs.push(results.iter().map(|r| r.cache_hit).collect::<Vec<_>>());
            // The first request is the designated miss, the rest hits.
            assert!(!results[0].cache_hit);
            assert!(results[1..].iter().all(|r| r.cache_hit));
        }
        assert!(flag_runs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn responses_are_identical_across_worker_counts() {
        let tree = factory();
        let dag = dag_cdp();
        let requests: Vec<BatchRequest> = vec![
            BatchRequest::new(tree.clone(), Query::Cdpf),
            BatchRequest::new(dag.clone(), Query::Cdpf),
            BatchRequest::new(tree.clone(), Query::Cedpf),
            BatchRequest::new(dag, Query::Cedpf),
            BatchRequest::new(tree, Query::Dgc(-1.0)),
        ];
        let reference = Engine::new(1).run(&requests);
        for workers in [2, 4, 8] {
            let results = Engine::new(workers).run(&requests);
            for (a, b) in reference.iter().zip(&results) {
                assert_eq!(a.response, b.response);
                assert_eq!(a.cache_hit, b.cache_hit);
            }
        }
    }

    #[test]
    fn dag_probabilistic_is_solved_exactly_by_the_fused_backend() {
        let dag = dag_cdp();
        let oracle = cdat_enumerative::cedpf_dag(&dag, false);
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(dag.clone(), Query::Cedpf),
            BatchRequest::new(dag, Query::Edgc(10.0)),
        ]);
        match &results[0].response {
            Response::Front(front) => assert_eq!(front.to_string(), oracle.to_string()),
            other => panic!("{other:?}"),
        }
        assert!(matches!(&results[1].response, Response::Entry(Some(_))));
        assert!(!results[0].cache_hit);
        assert!(results[1].cache_hit, "both queries share the one fused front");
    }

    #[test]
    fn negative_budget_and_unattainable_threshold_answer_none() {
        let engine = Engine::new(1);
        let results = engine.run(&[
            BatchRequest::new(factory(), Query::Dgc(-0.5)),
            BatchRequest::new(factory(), Query::Cgd(1e9)),
        ]);
        assert_eq!(results[0].response, Response::Entry(None));
        assert_eq!(results[1].response, Response::Entry(None));
    }

    #[test]
    fn cache_persists_across_batches() {
        let engine = Engine::new(2);
        let first = engine.run(&[BatchRequest::new(factory(), Query::Cdpf)]);
        assert!(!first[0].cache_hit);
        let stats = engine.cache().stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "cold request is a miss");
        let second = engine.run(&[BatchRequest::new(factory(), Query::Cdpf)]);
        assert!(second[0].cache_hit);
        assert_eq!(second[0].compute, Duration::ZERO);
        assert_eq!(first[0].response, second[0].response);
        let stats = engine.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "warm request is a hit");
    }

    #[test]
    fn structurally_identical_trees_dedupe() {
        // The same factory shape under fresh names still hits the cache.
        let renamed = {
            let mut b = cdat_core::AttackTreeBuilder::new();
            let ca = b.bas("alpha");
            let pb = b.bas("beta");
            let fd = b.bas("gamma");
            let dr = b.and("delta", [pb, fd]);
            let _ps = b.or("epsilon", [ca, dr]);
            let tree = b.build().unwrap();
            let cd = CdAttackTree::from_parts(
                tree,
                vec![1.0, 3.0, 2.0],
                vec![0.0, 0.0, 10.0, 100.0, 200.0],
            )
            .unwrap();
            Arc::new(CdpAttackTree::from_parts(cd, vec![0.2, 0.4, 0.9]).unwrap())
        };
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(factory(), Query::Cdpf),
            BatchRequest::new(renamed, Query::Cdpf),
        ]);
        assert!(!results[0].cache_hit);
        assert!(results[1].cache_hit, "renamed tree must dedupe");
        assert_eq!(results[0].response, results[1].response);
        assert_eq!(engine.cache().stats().entries, 1);
    }

    #[test]
    fn precomputed_hashes_share_entries_with_engine_computed_ones() {
        let tree = factory();
        let engine = Engine::new(1);
        let hash = cdat_core::canonical::hash_cd(tree.cd());
        let results = engine.run(&[
            BatchRequest::new(tree.clone(), Query::Cdpf).with_hash(hash),
            BatchRequest::new(tree, Query::Cdpf), // engine-computed key
        ]);
        assert!(!results[0].cache_hit);
        assert!(results[1].cache_hit, "router-supplied and engine-computed keys must agree");
        assert_eq!(results[0].response, results[1].response);
    }

    #[test]
    fn solver_hints_agree_and_share_cache_entries() {
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(factory(), Query::Cdpf).with_hint(SolverHint::Bdd),
            BatchRequest::new(factory(), Query::Cdpf).with_hint(SolverHint::BottomUp),
            BatchRequest::new(factory(), Query::Cdpf).with_hint(SolverHint::Enumerative),
            BatchRequest::new(factory(), Query::Cdpf),
        ]);
        assert!(!results[0].cache_hit, "the BDD-hinted request computes the front");
        for r in &results[1..] {
            assert!(r.cache_hit, "hinted and unhinted requests share the entry");
            assert_eq!(results[0].response, r.response);
        }
        assert!(matches!(&results[0].response, Response::Front(f)
            if f.to_string() == "{(0, 0), (1, 200), (3, 210), (5, 310)}"));
        assert_eq!(engine.cache().stats().entries, 1);
    }

    #[test]
    fn incompatible_hints_error_without_touching_the_cache() {
        let engine = Engine::new(1);
        let results = engine.run(&[
            BatchRequest::new(dag_cdp(), Query::Cdpf).with_hint(SolverHint::BottomUp),
            BatchRequest::new(oversized_dag(), Query::Cedpf).with_hint(SolverHint::Enumerative),
            // The same DAG with a valid hint still computes cleanly:
            BatchRequest::new(dag_cdp(), Query::Cdpf),
        ]);
        assert!(matches!(&results[0].response, Response::Error(m) if m.contains("treelike")));
        assert!(matches!(&results[1].response, Response::Error(m) if m.contains("at most")));
        assert!(!results[0].cache_hit && !results[1].cache_hit);
        assert!(
            matches!(&results[2].response, Response::Front(_)),
            "the invalid hint must not poison the entry: {:?}",
            results[2].response
        );
        let stats = engine.cache().stats();
        assert_eq!(stats.entries, 1, "only the valid request cached a front");
        assert_eq!((stats.hits, stats.misses), (0, 1), "invalid hints count neither way");
    }

    #[test]
    fn budgeted_engine_keeps_responses_correct_under_eviction() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(424);
        let suite: Vec<Arc<CdpAttackTree>> = (0..30)
            .map(|_| {
                let tree = cdat_gen::random_small(&mut rng, 7, true);
                Arc::new(cdat_gen::decorate_prob(tree, &mut rng))
            })
            .collect();
        let requests: Vec<BatchRequest> =
            suite.iter().map(|t| BatchRequest::new(t.clone(), Query::Cdpf)).collect();

        let reference = Engine::new(1).run(&requests);
        let tight = Engine::with_cache(4, FrontCache::with_budget(2, 8));
        // Run twice: the second pass exercises answering through evictions.
        for pass in 0..2 {
            let results = tight.run(&requests);
            for (i, (a, b)) in reference.iter().zip(&results).enumerate() {
                assert_eq!(a.response, b.response, "request {i}, pass {pass}");
            }
            let stats = tight.cache().stats();
            assert!(stats.points <= 8, "points {} over budget", stats.points);
        }
        assert!(tight.cache().stats().evictions > 0, "30 distinct fronts must evict at budget 8");
    }

    #[test]
    fn plain_solves_cache_bare_fronts_without_memos() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(77);
        let suite: Vec<Arc<CdpAttackTree>> = (0..12)
            .map(|_| {
                let tree = cdat_gen::random_small(&mut rng, 7, true);
                Arc::new(cdat_gen::decorate_prob(tree, &mut rng))
            })
            .collect();
        let requests: Vec<BatchRequest> = suite
            .iter()
            .flat_map(|t| [Query::Cdpf, Query::Cedpf].map(|q| BatchRequest::new(t.clone(), q)))
            .collect();
        let engine = Engine::new(2);
        engine.run(&requests);
        let mut keys = std::collections::HashSet::new();
        for tree in &suite {
            assert!(tree.tree().is_treelike());
            keys.insert(CacheKey { hash: hash_cd(tree.cd()), kind: FrontKind::Deterministic });
            keys.insert(CacheKey { hash: hash_cdp(tree), kind: FrontKind::Probabilistic });
        }
        let mut weights = 0;
        for key in &keys {
            let entry = engine.cache().peek(key).expect("every front is cached");
            assert_eq!(entry.backend, Some(SolverBackend::BottomUp));
            assert!(entry.memo.is_none(), "plain solves never attach a subtree memo");
            weights += entry.weight();
        }
        let stats = engine.stats();
        assert_eq!(stats.entries, keys.len());
        assert_eq!(stats.points, weights, "the budget is charged for bare fronts only");
    }

    /// The factory shape with permuted BAS numbering *and* fresh names:
    /// BAS ids are pb=0, fd=1, ca=2 (the factory's are ca=0, pb=1, fd=2).
    fn permuted_factory() -> Arc<CdpAttackTree> {
        let mut b = cdat_core::AttackTreeBuilder::new();
        let pb = b.bas("one");
        let fd = b.bas("two");
        let dr = b.and("three", [fd, pb]);
        let ca = b.bas("four");
        let _ps = b.or("five", [dr, ca]);
        let tree = b.build().unwrap();
        let cd = CdAttackTree::from_parts(
            tree,
            vec![3.0, 2.0, 1.0],                // costs of pb, fd, ca
            vec![0.0, 10.0, 100.0, 0.0, 200.0], // damages of pb, fd, dr, ca, ps
        )
        .unwrap();
        Arc::new(CdpAttackTree::from_parts(cd, vec![0.4, 0.9, 0.2]).unwrap())
    }

    /// Every witness must reproduce its entry's point on the given tree.
    fn assert_witnesses_valid(tree: &CdpAttackTree, front: &ParetoFront) {
        for e in front.entries() {
            let w = e.witness.as_ref().expect("witness requested");
            assert_eq!(w.universe(), tree.tree().bas_count());
            assert_eq!(tree.cd().cost_of(w), e.point.cost, "witness cost for {}", e.point);
            assert_eq!(tree.cd().damage_of(w), e.point.damage, "witness damage for {}", e.point);
        }
    }

    #[test]
    fn witnesses_translate_to_each_copys_numbering() {
        // The factory and a renamed, reordered, BAS-renumbered copy share
        // one cache entry, yet each gets witnesses valid for its own ids.
        let (original, copy) = (factory(), permuted_factory());
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(original.clone(), Query::Cdpf).with_witnesses(true),
            BatchRequest::new(copy.clone(), Query::Cdpf).with_witnesses(true),
            BatchRequest::new(copy.clone(), Query::Dgc(2.0)).with_witnesses(true),
        ]);
        assert!(!results[0].cache_hit);
        assert!(results[1].cache_hit, "the copy must dedupe onto the factory's entry");
        assert_eq!(engine.cache().stats().entries, 1);
        for (result, tree) in [(&results[0], &original), (&results[1], &copy)] {
            match &result.response {
                Response::Front(front) => {
                    assert_eq!(
                        front.to_string(),
                        "{(0, 0), (1, 200), (3, 210), (5, 310)}",
                        "points are shared"
                    );
                    assert_witnesses_valid(tree, front);
                }
                other => panic!("{other:?}"),
            }
        }
        // The (1, 200) optimum within budget 2 is the cyberattack alone —
        // BAS id 2 in the *copy's* numbering.
        match &results[2].response {
            Response::Entry(Some(e)) => {
                assert_eq!(e.point, cdat_pareto::CostDamage::new(1.0, 200.0));
                let w = e.witness.as_ref().expect("witness requested");
                assert_eq!(w.iter().collect::<Vec<_>>(), vec![BasId::new(2)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unwitnessed_responses_stay_point_only() {
        // A witnessed request warms the cache; an unwitnessed one on the
        // same entry must still answer bare points.
        let engine = Engine::new(1);
        let results = engine.run(&[
            BatchRequest::new(factory(), Query::Cdpf).with_witnesses(true),
            BatchRequest::new(factory(), Query::Cdpf),
            BatchRequest::new(factory(), Query::Dgc(2.0)),
        ]);
        match &results[1].response {
            Response::Front(front) => {
                assert!(front.entries().iter().all(|e| e.witness.is_none()));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(results[2].response, Response::Entry(Some(FrontEntry::point(1.0, 200.0))));
    }

    #[test]
    fn probabilistic_witnesses_translate_too() {
        let (original, copy) = (factory(), permuted_factory());
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(original.clone(), Query::Cedpf).with_witnesses(true),
            BatchRequest::new(copy.clone(), Query::Cedpf).with_witnesses(true),
        ]);
        assert!(results[1].cache_hit, "probabilistic entries dedupe as well");
        for (result, tree) in [(&results[0], &original), (&results[1], &copy)] {
            match &result.response {
                Response::Front(front) => {
                    assert!(!front.is_empty());
                    for e in front.entries() {
                        let w = e.witness.as_ref().expect("witness requested");
                        assert_eq!(tree.cd().cost_of(w), e.point.cost);
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_requests_build_from_cd() {
        let cd = cdat_models::factory();
        let r = BatchRequest::deterministic(cd, Query::Cdpf);
        let results = Engine::new(1).run(&[r]);
        assert!(matches!(&results[0].response, Response::Front(f)
            if f.to_string() == "{(0, 0), (1, 200), (3, 210), (5, 310)}"));
    }

    #[test]
    fn scalar_queries_answer_on_the_factory() {
        let tree = factory();
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(tree.clone(), Query::MinTime),
            BatchRequest::new(tree.clone(), Query::MaxProb),
            BatchRequest::new(tree, Query::MinTime), // warm repeat
        ]);
        match &results[0].response {
            Response::Value(Some(e)) => assert_eq!(e.point.cost, 1.0),
            other => panic!("{other:?}"),
        }
        match &results[1].response {
            Response::Value(Some(e)) => assert!((e.point.cost - 0.36).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert!(!results[0].cache_hit && !results[1].cache_hit);
        assert!(results[2].cache_hit, "scalar entries memoize like fronts");
        assert_eq!(results[0].response, results[2].response);
    }

    #[test]
    fn scalar_witnesses_translate_to_each_copys_numbering() {
        let (original, copy) = (factory(), permuted_factory());
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(original.clone(), Query::MaxProb).with_witnesses(true),
            BatchRequest::new(copy.clone(), Query::MaxProb).with_witnesses(true),
        ]);
        assert!(results[1].cache_hit, "the permuted copy must dedupe");
        for (result, tree) in [(&results[0], &original), (&results[1], &copy)] {
            match &result.response {
                Response::Value(Some(e)) => {
                    assert!((e.point.cost - 0.36).abs() < 1e-12);
                    let w = e.witness.as_ref().expect("witness requested");
                    // The witness reproduces the optimum on *this* copy.
                    let p: f64 = w.iter().map(|b| tree.prob(b)).product();
                    assert!((p - e.point.cost).abs() < 1e-12);
                    assert!(tree.tree().reaches_root(w));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn dag_scalar_queries_are_solved_fused_and_agree_with_the_oracle() {
        let dag = dag_cdp();
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(dag.clone(), Query::MinTime),
            BatchRequest::new(dag.clone(), Query::MaxProb),
        ]);
        let oracle = cdat_enumerative::min_time(dag.cd(), false);
        match &results[0].response {
            Response::Value(Some(e)) => {
                assert_eq!(e.point.cost, oracle.entries()[0].point.cost)
            }
            other => panic!("{other:?}"),
        }
        // All probabilities are 1, so the likeliest attack succeeds surely.
        match &results[1].response {
            Response::Value(Some(e)) => assert_eq!(e.point.cost, 1.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_enumerative_hints_error_cleanly_and_auto_still_solves() {
        // A DAG with MAX_ENUM_BAS + 1 shared BASs: an explicit enumerative
        // hint must produce a stable validation error instead of a
        // 2^31-attack enumeration, while auto (BDD-fused) solves it.
        let cdp = oversized_dag();
        let engine = Engine::new(1);
        let results = engine.run(&[
            BatchRequest::new(cdp.clone(), Query::MinTime).with_hint(SolverHint::Enumerative),
            BatchRequest::new(cdp.clone(), Query::MaxProb).with_hint(SolverHint::Enumerative),
            BatchRequest::new(cdp, Query::MinTime),
        ]);
        for r in &results[..2] {
            match &r.response {
                Response::Error(m) => assert!(m.contains("at most"), "{m}"),
                other => panic!("{other:?}"),
            }
        }
        // Every BAS is shared by both OR gates, so the cheapest attack is a
        // single zero-cost BAS reaching both conjuncts at once.
        assert_eq!(results[2].response, Response::Value(Some(FrontEntry::point(0.0, 0.0))));
        // Hint rejections happen before cache keying: only auto's entry.
        assert_eq!(engine.cache().stats().entries, 1);
    }

    #[test]
    fn scalar_hint_validation() {
        let engine = Engine::new(1);
        let results = engine.run(&[
            BatchRequest::new(factory(), Query::MinTime).with_hint(SolverHint::Enumerative),
            BatchRequest::new(dag_cdp(), Query::MaxProb).with_hint(SolverHint::BottomUp),
            BatchRequest::new(factory(), Query::MinTime).with_hint(SolverHint::BottomUp),
        ]);
        assert!(matches!(&results[0].response, Response::Value(Some(_))));
        assert!(matches!(&results[1].response, Response::Error(m) if m.contains("treelike")));
        assert_eq!(results[2].response, results[0].response);
    }

    #[test]
    fn domains_never_share_cache_entries() {
        // The same tree under all four families: four distinct entries,
        // no cross-domain hits even though MinTime shares the deterministic
        // canonical hash and MaxProb the probabilistic one.
        let tree = factory();
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(tree.clone(), Query::Cdpf),
            BatchRequest::new(tree.clone(), Query::MinTime),
            BatchRequest::new(tree.clone(), Query::Cedpf),
            BatchRequest::new(tree, Query::MaxProb),
        ]);
        assert!(results.iter().all(|r| !r.cache_hit), "no family may alias another");
        assert_eq!(engine.cache().stats().entries, 4);
        assert!(matches!(&results[0].response, Response::Front(_)));
        assert!(matches!(&results[1].response, Response::Value(Some(_))));
    }

    fn store_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicUsize;
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cdat-engine-{tag}-{}-{n}.cdatstore", std::process::id()))
    }

    fn persistent_engine(path: &std::path::Path, workers: usize) -> Engine {
        let cache = PersistentFrontCache::open(path, FrontCache::default()).unwrap();
        Engine::with_persistent(workers, cache)
    }

    #[test]
    fn warm_restart_reproduces_the_cold_run() {
        let path = store_path("restart");
        let requests = [
            BatchRequest::new(factory(), Query::Cdpf),
            BatchRequest::new(factory(), Query::Dgc(2.0)),
            BatchRequest::new(dag_cdp(), Query::Cedpf), // a cached error
        ];
        let storeless = Engine::new(2).run(&requests);
        let cold = persistent_engine(&path, 2).run(&requests);
        // A fresh engine on the same store answers everything from disk.
        let warm_engine = persistent_engine(&path, 2);
        let warm = warm_engine.run(&requests);
        for ((a, b), c) in storeless.iter().zip(&cold).zip(&warm) {
            assert_eq!(a.response, b.response);
            assert_eq!(a.response, c.response);
            assert_eq!(a.cache_hit, b.cache_hit, "store must not change hit flags");
            assert_eq!(a.cache_hit, c.cache_hit, "restart must not change hit flags");
        }
        let stats = warm_engine.stats();
        assert!(stats.disk_hits > 0, "warm restart must answer from disk: {stats:?}");
        assert_eq!(stats.disk_entries, 2, "one front and one error persisted");
        assert_eq!(stats.misses, 2, "disk answers still count as memory misses");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn witnesses_survive_the_store_and_still_translate() {
        let path = store_path("witness");
        let (original, copy) = (factory(), permuted_factory());
        // Cold: only the original touches the store.
        persistent_engine(&path, 1)
            .run(&[BatchRequest::new(original.clone(), Query::Cdpf).with_witnesses(true)]);
        // Warm restart: the permuted copy answers from disk, witnesses
        // translated into *its* numbering.
        let engine = persistent_engine(&path, 1);
        let results =
            engine.run(&[BatchRequest::new(copy.clone(), Query::Cdpf).with_witnesses(true)]);
        assert_eq!(engine.stats().disk_hits, 1);
        match &results[0].response {
            Response::Front(front) => {
                assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}");
                assert_witnesses_valid(&copy, front);
            }
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn evicted_entries_come_back_from_disk() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(77);
        let suite: Vec<Arc<CdpAttackTree>> = (0..20)
            .map(|_| {
                let tree = cdat_gen::random_small(&mut rng, 7, true);
                Arc::new(cdat_gen::decorate_prob(tree, &mut rng))
            })
            .collect();
        let requests: Vec<BatchRequest> =
            suite.iter().map(|t| BatchRequest::new(t.clone(), Query::Cdpf)).collect();
        let reference = Engine::new(1).run(&requests);

        let path = store_path("evict");
        // A memory budget far too small for 20 fronts, over a store.
        let tight = |workers| {
            let memory = FrontCache::with_budget(2, 8);
            Engine::with_persistent(workers, PersistentFrontCache::open(&path, memory).unwrap())
        };
        let cold = tight(4);
        for (a, b) in reference.iter().zip(&cold.run(&requests)) {
            assert_eq!(a.response, b.response);
        }
        assert!(cold.stats().evictions > 0, "the tight budget must evict");
        assert_eq!(cold.stats().disk_entries, 20, "evicted fronts remain on disk");

        // Second pass on the same engine: memory lost most fronts, disk
        // serves them back without recomputation.
        for (a, b) in reference.iter().zip(&cold.run(&requests)) {
            assert_eq!(a.response, b.response);
        }
        assert!(cold.stats().disk_hits > 0, "evictions re-fetch from disk");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scalar_families_persist_without_colliding() {
        // All four families of one tree share two canonical hashes
        // (MinTime with Deterministic, MaxProb with Probabilistic), so the
        // disk records are told apart by family byte alone.
        let path = store_path("families");
        let tree = factory();
        let requests = [
            BatchRequest::new(tree.clone(), Query::Cdpf),
            BatchRequest::new(tree.clone(), Query::MinTime),
            BatchRequest::new(tree.clone(), Query::Cedpf),
            BatchRequest::new(tree, Query::MaxProb),
        ];
        let cold = persistent_engine(&path, 2).run(&requests);
        let warm_engine = persistent_engine(&path, 2);
        let warm = warm_engine.run(&requests);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.response, b.response, "warm restart must reproduce each family");
        }
        assert!(matches!(&warm[1].response, Response::Value(Some(e)) if e.point.cost == 1.0));
        let stats = warm_engine.stats();
        assert_eq!(stats.disk_entries, 4, "one record per family");
        assert_eq!(stats.disk_hits, 4, "every family answers from its own disk record");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_counters_are_consistent_and_out_of_band() {
        let tree = factory();
        let requests: Vec<BatchRequest> = (0..6)
            .map(|b| BatchRequest::new(tree.clone(), Query::Dgc(b as f64)))
            .chain([
                BatchRequest::new(tree.clone(), Query::Cedpf),
                BatchRequest::new(tree.clone(), Query::MinTime),
                // An invalid hint: counted separately, outside `requests`.
                BatchRequest::new(dag_cdp(), Query::Cedpf).with_hint(SolverHint::BottomUp),
            ])
            .collect();

        let metrics = Arc::new(EngineMetrics::new());
        let observed = Engine::new(3).with_metrics(metrics.clone());
        let results = observed.run(&requests);
        let plain = Engine::new(3).run(&requests);
        for (a, b) in results.iter().zip(&plain) {
            assert_eq!(a.response, b.response, "metrics must not change responses");
            assert_eq!(a.cache_hit, b.cache_hit, "metrics must not change hit flags");
        }

        // Per-family and total consistency: hits + disk_hits + misses ==
        // requests (memory-only here, so disk_hits is 0 and the satellite
        // invariant hits + misses == requests holds literally).
        let mut requests_total = 0;
        for kind in FrontKind::ALL {
            let f = metrics.family(kind);
            assert_eq!(
                f.hits.get() + f.disk_hits.get() + f.misses.get(),
                f.requests.get(),
                "family {} counters disagree",
                kind.label()
            );
            assert_eq!(f.disk_hits.get(), 0);
            assert_eq!(f.hits.get() + f.misses.get(), f.requests.get());
            requests_total += f.requests.get();
        }
        assert_eq!(requests_total, 8, "8 valid requests");
        assert_eq!(metrics.invalid_hints.get(), 1);
        assert_eq!(metrics.family(FrontKind::Deterministic).requests.get(), 6);
        assert_eq!(metrics.family(FrontKind::Deterministic).misses.get(), 1);
        assert_eq!(metrics.family(FrontKind::Deterministic).hits.get(), 5);

        // Backend counters partition the counted requests: every valid
        // request was routed (all bottom-up here — the tree is treelike
        // and every hint was auto).
        let backends: u64 = metrics.backend_requests.iter().map(|c| c.get()).sum();
        assert_eq!(backends, requests_total);
        assert_eq!(metrics.backend_requests[SolverBackend::BottomUp.index()].get(), 8);

        // Histograms tie to the counters: one queue-wait observation per
        // counted request, one solve observation per counted miss, and
        // bucket counts sum to the observation count.
        let wait = metrics.queue_wait_us.snapshot();
        let solve = metrics.solve_us.snapshot();
        assert_eq!(wait.count, requests_total);
        assert_eq!(solve.count, 3, "three families solved once each");
        assert_eq!(wait.buckets.iter().sum::<u64>(), wait.count);
        assert_eq!(solve.buckets.iter().sum::<u64>(), solve.count);

        // The served compute total counts the original solve cost for
        // hits too, so it is at least the solver wall time itself.
        assert!(metrics.served_compute_us.get() >= solve.sum);

        // A second, all-hit batch: requests grow, misses do not, and every
        // answer still contributes its original solve cost.
        let before = metrics.served_compute_us.get();
        let rerun = observed.run(&requests[..6]);
        assert!(rerun.iter().all(|r| r.cache_hit));
        assert_eq!(metrics.family(FrontKind::Deterministic).requests.get(), 12);
        assert_eq!(metrics.family(FrontKind::Deterministic).misses.get(), 1);
        assert_eq!(metrics.solve_us.snapshot().count, 3);
        let solved = metrics.family(FrontKind::Deterministic);
        assert_eq!(solved.hits.get(), 11);
        if results[0].compute.as_micros() > 0 {
            assert!(metrics.served_compute_us.get() > before, "hits report original cost");
        }
        // Cache hits surface the original solve cost out of band.
        for r in &rerun {
            assert_eq!(r.compute, Duration::ZERO);
            assert_eq!(r.solve_cost, results[0].solve_cost);
        }
    }

    #[test]
    fn trace_spans_cover_every_stage_and_parse_line_by_line() {
        let path =
            std::env::temp_dir().join(format!("cdat-engine-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = std::env::temp_dir()
            .join(format!("cdat-engine-trace-{}.cdatstore", std::process::id()));
        let _ = std::fs::remove_file(&store);

        let trace = cdat_obs::TraceWriter::open(&path).expect("trace file opens");
        let cache = PersistentFrontCache::open(&store, FrontCache::new(4)).expect("store opens");
        let engine = Engine::with_persistent(4, cache).with_trace(trace.clone());
        let tree = factory();
        let requests: Vec<BatchRequest> = (0..4)
            .map(|b| BatchRequest::new(tree.clone(), Query::Dgc(b as f64)).with_witnesses(true))
            .collect();
        let traced = engine.run(&requests);
        let plain = Engine::new(4).run(&requests);
        for (a, b) in traced.iter().zip(&plain) {
            assert_eq!(a.response, b.response, "tracing must not change responses");
        }
        trace.flush();

        let text = std::fs::read_to_string(&path).expect("trace readable");
        let mut stages: std::collections::HashMap<String, usize> = Default::default();
        for line in text.lines() {
            // Whole JSON object per line, with the mandatory span fields.
            assert!(line.starts_with('{') && line.ends_with('}'), "torn line: {line}");
            let stage = line
                .split("\"stage\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_else(|| panic!("span without stage: {line}"));
            assert!(line.contains("\"ts_us\":") && line.contains("\"dur_us\":"), "{line}");
            *stages.entry(stage.to_owned()).or_default() += 1;
        }
        assert_eq!(stages.get("canonicalize"), Some(&1), "one memoized canonical traversal");
        assert_eq!(stages.get("cache_lookup"), Some(&4), "one lookup span per request");
        assert_eq!(stages.get("solve"), Some(&1), "one solve span for the deduped front");
        assert_eq!(stages.get("store_append"), Some(&1), "one append span for the new record");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&store);
    }
}
