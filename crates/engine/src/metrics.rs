//! Engine-level telemetry: per-family cache-tier counters plus queue-wait
//! and solve-time histograms, recorded strictly out of band.
//!
//! An [`EngineMetrics`] is attached with [`Engine::with_metrics`] and
//! shared via `Arc` — the server gives each shard engine its own instance
//! and aggregates snapshots at `stats`/`metrics` time, with no shard
//! messaging. Recording never changes what the engine computes or
//! returns: responses are byte-identical with and without metrics.
//!
//! Counter semantics (all per [`FrontKind`] family):
//!
//! * `requests` — every request that passed hint validation (invalid
//!   hints are counted in [`EngineMetrics::invalid_hints`] instead);
//! * `hits` — answered from the in-memory tier, including in-batch
//!   followers of a miss (the [`CacheStats::hits`] convention);
//! * `disk_hits` — answered by the persistent tier on a memory miss;
//! * `misses` — the designated misses that actually ran a solver.
//!
//! So `hits + disk_hits + misses == requests` holds exactly per family —
//! and with no store attached, `hits + misses == requests`. Two more
//! cross-checks tie the histograms to the counters: the queue-wait
//! histogram has one observation per counted request, and the solve-time
//! histogram one per counted miss.
//!
//! [`Engine::with_metrics`]: crate::Engine::with_metrics
//! [`CacheStats::hits`]: crate::CacheStats::hits

use cdat_obs::{histogram_samples, sample, type_line, Counter, Histogram, HistogramSnapshot};
use cdat_store::StoreMetrics;

use crate::{FrontKind, SolverBackend};

/// Cache-tier outcome counters for one [`FrontKind`] family.
#[derive(Debug, Default)]
pub struct FamilyCounters {
    /// Requests of this family past hint validation.
    pub requests: Counter,
    /// Answered from memory (or an in-batch predecessor).
    pub hits: Counter,
    /// Answered from the persistent tier.
    pub disk_hits: Counter,
    /// Designated misses (a solver ran).
    pub misses: Counter,
    /// What-if delta requests answered (one per patch of a sweep,
    /// including rejected patches). Counted separately from `requests`:
    /// the tier-counter partition `hits + disk_hits + misses == requests`
    /// ignores the delta path entirely.
    pub delta_requests: Counter,
    /// Subtree memos built: one per delta request that found no valid
    /// memo for its tree (the first what-if on a tree, or the first after
    /// the memo was evicted, shed or lost to a restart). Plain solves
    /// never build one.
    pub memo_builds: Counter,
    /// Clean subtree fronts reused from the memo across delta requests.
    pub subtree_hits: Counter,
    /// Nodes re-evaluated (patched nodes plus ancestors) across delta
    /// requests.
    pub dirty_nodes: Counter,
}

/// Shared, thread-safe engine telemetry (see the module docs for the
/// counter semantics and invariants).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Per-request wait from batch entry until the request's work (or
    /// answer) began, in microseconds. One observation per counted
    /// request.
    pub queue_wait_us: Histogram,
    /// Per-miss solver wall time in microseconds. One observation per
    /// counted miss.
    pub solve_us: Histogram,
    /// Requests rejected before cache keying because their solver hint is
    /// incompatible with the tree or query (not in `requests`).
    pub invalid_hints: Counter,
    /// Total *original* solve cost of every answer served, in
    /// microseconds: cache hits and disk answers contribute the answering
    /// front's recorded compute time, not zero — the cost a cacheless
    /// deployment would have paid.
    pub served_compute_us: Counter,
    /// Dirty-path length (nodes recomputed) of each delta request.
    /// Exactly one observation per counted delta request — rejected
    /// patches observe 0 — so `dirty_path_len.count` equals the summed
    /// per-family `delta_requests`.
    pub dirty_path_len: Histogram,
    /// Per-backend request counters, indexed by [`SolverBackend::index`]:
    /// each counted request increments the backend phase 1 selected for it
    /// ([`SolverBackend::select`]), hit or miss alike — so the backend
    /// counters partition `requests` exactly, like the tier counters do.
    pub backend_requests: [Counter; SolverBackend::ALL.len()],
    /// Per-family tier counters, indexed by [`FrontKind::index`].
    pub families: [FamilyCounters; 4],
}

impl EngineMetrics {
    /// A fresh all-zero instance.
    pub fn new() -> Self {
        EngineMetrics::default()
    }

    /// The counters for `kind`.
    pub fn family(&self, kind: FrontKind) -> &FamilyCounters {
        &self.families[kind.index()]
    }

    /// Total counted requests across families.
    pub fn requests(&self) -> u64 {
        self.families.iter().map(|f| f.requests.get()).sum()
    }
}

/// Point-in-time values of one [`FamilyCounters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FamilySnapshot {
    /// See [`FamilyCounters::requests`].
    pub requests: u64,
    /// See [`FamilyCounters::hits`].
    pub hits: u64,
    /// See [`FamilyCounters::disk_hits`].
    pub disk_hits: u64,
    /// See [`FamilyCounters::misses`].
    pub misses: u64,
    /// See [`FamilyCounters::delta_requests`].
    pub delta_requests: u64,
    /// See [`FamilyCounters::memo_builds`].
    pub memo_builds: u64,
    /// See [`FamilyCounters::subtree_hits`].
    pub subtree_hits: u64,
    /// See [`FamilyCounters::dirty_nodes`].
    pub dirty_nodes: u64,
}

/// A point-in-time aggregate of one or more [`EngineMetrics`] instances
/// (the server merges its shards' metrics through one of these; the CLI
/// absorbs its single engine's).
#[derive(Clone, Debug, Default)]
pub struct EngineSnapshot {
    /// Merged queue-wait histogram.
    pub queue_wait: HistogramSnapshot,
    /// Merged solve-time histogram.
    pub solve: HistogramSnapshot,
    /// Summed invalid-hint rejections.
    pub invalid_hints: u64,
    /// Summed original solve cost of every served answer, µs.
    pub served_compute_us: u64,
    /// Merged dirty-path-length histogram (one observation per delta
    /// request).
    pub dirty_path_len: HistogramSnapshot,
    /// Summed per-backend request counts, indexed by
    /// [`SolverBackend::index`].
    pub backends: [u64; SolverBackend::ALL.len()],
    /// Per-family counters, indexed by [`FrontKind::index`].
    pub families: [FamilySnapshot; 4],
}

impl EngineSnapshot {
    /// An all-zero aggregate (the identity for [`absorb`](Self::absorb)).
    pub fn new() -> Self {
        EngineSnapshot::default()
    }

    /// Folds `metrics`' current values into this aggregate.
    pub fn absorb(&mut self, metrics: &EngineMetrics) {
        self.queue_wait.merge(&metrics.queue_wait_us.snapshot());
        self.solve.merge(&metrics.solve_us.snapshot());
        self.invalid_hints += metrics.invalid_hints.get();
        self.served_compute_us += metrics.served_compute_us.get();
        self.dirty_path_len.merge(&metrics.dirty_path_len.snapshot());
        for (acc, counter) in self.backends.iter_mut().zip(&metrics.backend_requests) {
            *acc += counter.get();
        }
        for (acc, fam) in self.families.iter_mut().zip(&metrics.families) {
            acc.requests += fam.requests.get();
            acc.hits += fam.hits.get();
            acc.disk_hits += fam.disk_hits.get();
            acc.misses += fam.misses.get();
            acc.delta_requests += fam.delta_requests.get();
            acc.memo_builds += fam.memo_builds.get();
            acc.subtree_hits += fam.subtree_hits.get();
            acc.dirty_nodes += fam.dirty_nodes.get();
        }
    }

    /// Appends this aggregate as Prometheus text exposition samples. The
    /// metric names are shared by the CLI's `--metrics` dump and the
    /// server's `metrics` op (documented in `docs/ARCHITECTURE.md`).
    pub fn render_prometheus(&self, out: &mut String) {
        type_line(out, "cdat_requests_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(out, "cdat_requests_total", &[("family", kind.label())], fam.requests);
        }
        type_line(out, "cdat_cache_hits_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(
                out,
                "cdat_cache_hits_total",
                &[("family", kind.label()), ("tier", "memory")],
                fam.hits,
            );
            sample(
                out,
                "cdat_cache_hits_total",
                &[("family", kind.label()), ("tier", "disk")],
                fam.disk_hits,
            );
        }
        type_line(out, "cdat_cache_misses_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(out, "cdat_cache_misses_total", &[("family", kind.label())], fam.misses);
        }
        type_line(out, "cdat_delta_requests_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(
                out,
                "cdat_delta_requests_total",
                &[("family", kind.label())],
                fam.delta_requests,
            );
        }
        type_line(out, "cdat_memo_builds_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(out, "cdat_memo_builds_total", &[("family", kind.label())], fam.memo_builds);
        }
        type_line(out, "cdat_subtree_hits_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(out, "cdat_subtree_hits_total", &[("family", kind.label())], fam.subtree_hits);
        }
        type_line(out, "cdat_dirty_nodes_total", "counter");
        for kind in FrontKind::ALL {
            let fam = self.families[kind.index()];
            sample(out, "cdat_dirty_nodes_total", &[("family", kind.label())], fam.dirty_nodes);
        }
        type_line(out, "cdat_backend_requests_total", "counter");
        for backend in SolverBackend::ALL {
            sample(
                out,
                "cdat_backend_requests_total",
                &[("backend", backend.label())],
                self.backends[backend.index()],
            );
        }
        type_line(out, "cdat_invalid_hints_total", "counter");
        sample(out, "cdat_invalid_hints_total", &[], self.invalid_hints);
        type_line(out, "cdat_served_compute_us_total", "counter");
        sample(out, "cdat_served_compute_us_total", &[], self.served_compute_us);
        type_line(out, "cdat_queue_wait_us", "histogram");
        histogram_samples(out, "cdat_queue_wait_us", &[], &self.queue_wait);
        type_line(out, "cdat_solve_us", "histogram");
        histogram_samples(out, "cdat_solve_us", &[], &self.solve);
        type_line(out, "cdat_dirty_path_len", "histogram");
        histogram_samples(out, "cdat_dirty_path_len", &[], &self.dirty_path_len);
    }
}

/// A point-in-time aggregate of one or more [`StoreMetrics`] handles
/// (the server merges each shard's store handle into one of these).
#[derive(Clone, Debug, Default)]
pub struct StoreSnapshot {
    /// Merged whole-`open` latency.
    pub open: HistogramSnapshot,
    /// Merged open-time index-scan latency.
    pub scan: HistogramSnapshot,
    /// Merged record-read latency.
    pub read: HistogramSnapshot,
    /// Merged record-append latency.
    pub append: HistogramSnapshot,
    /// Summed bytes read.
    pub read_bytes: u64,
    /// Summed bytes appended.
    pub append_bytes: u64,
    /// Summed records indexed during open-time scans.
    pub scanned_records: u64,
}

impl StoreSnapshot {
    /// An all-zero aggregate.
    pub fn new() -> Self {
        StoreSnapshot::default()
    }

    /// Folds `metrics`' current values into this aggregate.
    pub fn absorb(&mut self, metrics: &StoreMetrics) {
        self.open.merge(&metrics.open_us.snapshot());
        self.scan.merge(&metrics.scan_us.snapshot());
        self.read.merge(&metrics.read_us.snapshot());
        self.append.merge(&metrics.append_us.snapshot());
        self.read_bytes += metrics.read_bytes.get();
        self.append_bytes += metrics.append_bytes.get();
        self.scanned_records += metrics.scanned_records.get();
    }

    /// Appends this aggregate as Prometheus text exposition samples.
    pub fn render_prometheus(&self, out: &mut String) {
        for (name, snap) in [
            ("cdat_store_open_us", &self.open),
            ("cdat_store_scan_us", &self.scan),
            ("cdat_store_read_us", &self.read),
            ("cdat_store_append_us", &self.append),
        ] {
            type_line(out, name, "histogram");
            histogram_samples(out, name, &[], snap);
        }
        type_line(out, "cdat_store_read_bytes_total", "counter");
        sample(out, "cdat_store_read_bytes_total", &[], self.read_bytes);
        type_line(out, "cdat_store_append_bytes_total", "counter");
        sample(out, "cdat_store_append_bytes_total", &[], self.append_bytes);
        type_line(out, "cdat_store_scanned_records_total", "counter");
        sample(out, "cdat_store_scanned_records_total", &[], self.scanned_records);
    }
}
