//! A long-running, micro-batching query server over the batch engine.
//!
//! The paper's cost-damage Pareto fronts are expensive to compute and
//! cheap to cache — exactly what a serving layer should amortize across
//! many clients. This crate puts one in front of
//! [`cdat_engine::Engine`]:
//!
//! * **Protocol** ([`protocol`]): newline-delimited JSON. Requests carry a
//!   tree (or a whole suite) inline as `cdat-format` text, one of the six
//!   paper queries or a scalar attribute-domain query (`min-time`,
//!   `max-prob`), an optional per-request solver hint, and a client `id`;
//!   responses stream back as JSON lines echoing the id, so clients
//!   pipeline freely. The normative wire-format specification, with
//!   replayable examples, lives in `docs/PROTOCOL.md` at the repository
//!   root.
//! * **Micro-batching** ([`ServeConfig`]): requests accumulate into
//!   batches flushed on a size ([`ServeConfig::batch_max`]) or time
//!   ([`ServeConfig::batch_window`]) threshold, so a burst of requests is
//!   deduplicated and solved together instead of one at a time.
//! * **Shard-by-hash routing** ([`Router`]): every request routes to the
//!   worker shard owning its slice of the front cache, chosen by the
//!   canonical structural hash — structurally identical trees always meet
//!   the same cache, and there is no shared-cache lock to contend on.
//! * **Bounded memory**: each shard's cache takes a slice of
//!   [`ServeConfig::cache_budget`] (front points) and evicts
//!   least-recently-used fronts to stay inside it, which is what makes
//!   *long-running* serving viable.
//! * **Warm restarts** ([`ServeConfig::store`]): with a persistent front
//!   store configured, every shard opens its own handle on the store file
//!   and reads through to it on a cache miss — a restarted server answers
//!   previously computed fronts from disk, byte-identically, without
//!   re-solving. Appends are `O_APPEND` whole records, so the handles
//!   share no lock.
//!
//! Transports: [`serve_stdio`] (requests on stdin, responses on stdout;
//! exits at EOF) and [`serve_tcp`] (any number of concurrent connections
//! multiplexed onto one shard pool). The `cdat serve` CLI subcommand wraps
//! both; `cdat query --connect` is a matching client.
//!
//! # Determinism
//!
//! Batching and sharding are performance dials, not semantic ones:
//! response lines are byte-identical to `cdat batch` on the same documents
//! (the rendering code is shared), whatever the shard count, batch window
//! or batch size. Timing-dependent fields (cache hit flags, durations)
//! are deliberately absent from solve responses; cache behaviour and
//! latency telemetry are observable out of band via the `stats` and
//! `metrics` ops (and the `--trace` JSONL flight recorder).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cdat_server::{Router, RouterConfig, RouteRequest};
//! use cdat_engine::{Query, SolverHint};
//!
//! let config = RouterConfig { shards: 2, cache_budget: Some(1000), ..RouterConfig::default() };
//! let router = Router::new(config).unwrap(); // only a store can fail to open
//! let tree = Arc::new(cdat_models::factory_cdp());
//! let requests: Vec<RouteRequest> = (0..3)
//!     .map(|i| RouteRequest {
//!         tree: tree.clone(),
//!         query: Query::Dgc(i as f64),
//!         hint: SolverHint::Auto,
//!         witnesses: false,
//!         prefix: format!("{{\"id\":{i}"),
//!     })
//!     .collect();
//! let lines = router.solve(requests);
//! assert_eq!(lines[1], "{\"id\":1,\"point\":[1,200]}");
//! // One front computed, three answers:
//! assert_eq!(router.stats().iter().map(|s| s.entries).sum::<usize>(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
mod router;
mod serve;

pub use router::{
    DeltaRouteRequest, DispatchMetrics, Reply, RouteRequest, Router, RouterConfig, ServerSnapshot,
    ShardTelemetry,
};
pub use serve::{serve_stdio, serve_tcp, ServeConfig, MAX_REQUEST_LINE};
