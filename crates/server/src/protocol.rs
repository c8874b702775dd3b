//! The newline-delimited JSON request/response protocol.
//!
//! # Requests
//!
//! One JSON object per line. A *solve* request carries a tree (or a whole
//! suite) inline as `cdat-format` text, plus one query:
//!
//! ```text
//! {"id":1,"tree":"or root damage=5\n  bas x cost=1\n","query":"dgc","arg":3}
//! {"id":"s1","suite":"--- a\nor g\n  bas x cost=1\n--- b\n...","query":"cdpf"}
//! {"id":2,"tree":"...","query":"cdpf","solver":"bdd"}
//! {"op":"stats","id":9}
//! {"op":"metrics","id":10}
//! ```
//!
//! * `id` — any JSON value, echoed in every response line for the request
//!   (defaults to `null`). Clients pipeline by id: responses may arrive in
//!   any order. Ids round-trip as parsed JSON values; numbers are IEEE
//!   f64, so integer ids above 2^53 lose precision — use *string* ids for
//!   opaque keys of that size.
//! * `tree` *or* `suite` — the document source. A suite fans out into one
//!   response line per document, each carrying `doc` (and `name` when the
//!   separator names the document).
//! * `query` — `cdpf` (default), `cedpf`, `dgc`, `cgd`, `edgc`, `cged`,
//!   `min-time` or `max-prob`; the four thresholded queries require a
//!   finite `arg`, the others reject one.
//! * `solver` — `auto` (default), `bottomup`, `bdd` or `enumerative`
//!   (`bilp`, the retired BILP backend, is an alias of `auto`); per-request
//!   solver choice, validated against the tree's shape and size by the
//!   engine (`SolverBackend::select`). Hints
//!   never change the answer — every backend returns the same exact front —
//!   so hinted and unhinted requests share cache entries.
//! * `witnesses` — `true` to include witness attacks in the response
//!   (default `false`): each front point (and each single optimum) then
//!   carries the BAS ids of an attack achieving it, numbered in the
//!   requesting document's own BAS order even when the answer comes from a
//!   cached front of a renamed/reordered copy.
//! * `{"op":"stats"}` — answers immediately (out of band, not batched)
//!   with the aggregate and per-shard cache statistics, server uptime,
//!   total served compute, latency histograms and per-family counters.
//! * `{"op":"metrics"}` — answers immediately with the same telemetry as
//!   Prometheus text exposition, JSON-escaped into a single `metrics`
//!   string field.
//! * `{"op":"whatif","tree":...,"patch":{...}}` — answers the query on
//!   the *patched* tree incrementally: only the dirty root paths are
//!   recomputed, every clean subtree front is reused from the memo the
//!   first what-if on the base tree built. Response bytes are identical to
//!   solving the patched tree from scratch.
//! * `{"op":"sweep","tree":...,"patches":[{...},...]}` — a what-if per
//!   patch, answered as one response line per patch **in patch order**,
//!   each carrying `"variant":k` (the patch's index). All patches share
//!   one subtree memo, so a long sweep pays the base solve once.
//!
//! A *patch* object maps edit classes to name-keyed edits against the
//! request's own tree:
//!
//! ```text
//! {"cost":{"bas-name":2},"prob":{"bas-name":0.5},"damage":{"node":100},
//!  "gate":{"node":"and"},"defend":["bas-name"]}
//! ```
//!
//! `cost`/`prob`/`defend` name BASs, `damage` any node, `gate` a gate
//! (with the new type `"and"` or `"or"`). The `whatif`/`sweep` ops take
//! the same `query`/`arg`/`witnesses` fields as solves but only the six
//! cost-damage queries (`min-time`/`max-prob` have no incremental path)
//! and only a single `tree` (no `suite`, no `solver`).
//!
//! # Responses
//!
//! One JSON object per line: the echoed `id` (plus `doc`/`name` for suite
//! documents), the query, and one of `front` (a point array, plus a
//! parallel `witnesses` array of BAS-id arrays when requested), `point` (a
//! single optimum or `null`, plus `witness` when requested), `value` (a
//! scalar optimum or `null`, plus `witness` when requested — `min-time` /
//! `max-prob`), or `error`.
//! Responses carry exactly the same front bytes as `cdat batch` on the
//! same document — the rendering code is shared — so serving output is
//! directly diffable against batch output, witnesses included.

use std::sync::Arc;

use cdat_core::{Attack, CdpAttackTree, NodeType, TreePatch};
use cdat_engine::{CacheStats, FrontKind, Query, Response, SolverHint};
use cdat_format::json::{self, Value};
use cdat_format::quote;
use cdat_obs::{histogram_samples, type_line, HistogramSnapshot};
use cdat_pareto::CostDamage;

use crate::router::ServerSnapshot;

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// A solve request: one query against one tree or a whole suite.
    Solve(SolveRequest),
    /// A `whatif`/`sweep` op: incremental solves of patched variants.
    Delta(DeltaSolveRequest),
    /// The `stats` control operation.
    Stats {
        /// The echoed request id.
        id: Value,
    },
    /// The `metrics` control operation (Prometheus text exposition).
    Metrics {
        /// The echoed request id.
        id: Value,
    },
}

/// A parsed `whatif` or `sweep` request: one base tree, one query, and
/// the patches whose variants to answer (exactly one for `whatif`).
#[derive(Debug)]
pub struct DeltaSolveRequest {
    /// The echoed request id.
    pub id: Value,
    /// The parsed base tree.
    pub tree: Arc<CdpAttackTree>,
    /// The query to answer on every patched variant.
    pub query: Query,
    /// Whether responses should carry witness attacks.
    pub witnesses: bool,
    /// The patches, already resolved to base-tree ids.
    pub patches: Vec<TreePatch>,
    /// Whether the op was `sweep` (responses then carry `variant`).
    pub sweep: bool,
}

/// A parsed solve request.
#[derive(Debug)]
pub struct SolveRequest {
    /// The echoed request id.
    pub id: Value,
    /// The parsed documents: one for `tree` requests, all suite documents
    /// for `suite` requests.
    pub docs: Vec<RequestDoc>,
    /// Whether the request was a suite (responses then carry `doc`/`name`).
    pub suite: bool,
    /// The query to run against every document.
    pub query: Query,
    /// The solver hint (`auto` unless the request says otherwise).
    pub hint: SolverHint,
    /// Whether responses should carry witness attacks.
    pub witnesses: bool,
}

/// One document of a solve request.
#[derive(Debug)]
pub struct RequestDoc {
    /// Position within the request's suite (0 for `tree` requests).
    pub doc: usize,
    /// The `--- name` of the document, if any.
    pub name: Option<String>,
    /// The parsed tree.
    pub tree: Arc<CdpAttackTree>,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns the id to echo (best effort: `null` when the line is not even
/// an object) and a message; the server answers with [`error_line`].
pub fn parse_request(line: &str) -> Result<Request, (Value, String)> {
    let value = json::parse(line).map_err(|e| (Value::Null, format!("bad JSON: {e}")))?;
    let Value::Obj(ref pairs) = value else {
        return Err((Value::Null, "request must be a JSON object".into()));
    };
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let fail = |message: String| (id.clone(), message);

    if let Some(op) = value.get("op") {
        return match op.as_str() {
            Some("stats") => Ok(Request::Stats { id }),
            Some("metrics") => Ok(Request::Metrics { id }),
            Some("whatif") => parse_delta(&value, pairs, id, false),
            Some("sweep") => parse_delta(&value, pairs, id, true),
            Some(other) => Err(fail(format!(
                "unknown op {} (expected \"stats\", \"metrics\", \"whatif\" or \"sweep\")",
                quote(other)
            ))),
            None => Err(fail("op must be a string".into())),
        };
    }

    for (key, _) in pairs {
        if !matches!(
            key.as_str(),
            "id" | "tree" | "suite" | "query" | "arg" | "solver" | "witnesses"
        ) {
            return Err(fail(format!("unknown request field {}", quote(key))));
        }
    }

    let query_name = match value.get("query") {
        None => "cdpf",
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err(fail("query must be a string".into())),
    };
    let arg = match value.get("arg") {
        None => None,
        Some(Value::Num(v)) => Some(*v),
        Some(_) => return Err(fail("arg must be a number".into())),
    };
    let query = parse_query(query_name, arg).map_err(&fail)?;

    let hint = match value.get("solver") {
        None => SolverHint::Auto,
        Some(Value::Str(s)) => SolverHint::parse(s).map_err(&fail)?,
        Some(_) => return Err(fail("solver must be a string".into())),
    };

    let witnesses = match value.get("witnesses") {
        None => false,
        Some(Value::Bool(w)) => *w,
        Some(_) => return Err(fail("witnesses must be a boolean".into())),
    };

    let (docs, suite) = match (value.get("tree"), value.get("suite")) {
        (Some(Value::Str(text)), None) => {
            let tree = cdat_format::parse(text).map_err(|e| fail(format!("tree: {e}")))?;
            (vec![RequestDoc { doc: 0, name: None, tree: Arc::new(tree) }], false)
        }
        (None, Some(Value::Str(text))) => {
            let documents =
                cdat_format::parse_multi(text).map_err(|e| fail(format!("suite: {e}")))?;
            let docs = documents
                .into_iter()
                .enumerate()
                .map(|(doc, d)| RequestDoc { doc, name: d.name, tree: Arc::new(d.tree) })
                .collect();
            (docs, true)
        }
        (Some(_), None) => return Err(fail("tree must be a string".into())),
        (None, Some(_)) => return Err(fail("suite must be a string".into())),
        (Some(_), Some(_)) => return Err(fail("give either tree or suite, not both".into())),
        (None, None) => return Err(fail("missing tree or suite".into())),
    };
    Ok(Request::Solve(SolveRequest { id, docs, suite, query, hint, witnesses }))
}

/// Parses the body of a `whatif`/`sweep` op (see the module docs for the
/// wire shape): the base tree, the shared query/witness fields, and one
/// patch (`whatif`) or a patch array (`sweep`), each resolved to base-tree
/// ids by node name.
fn parse_delta(
    value: &Value,
    pairs: &[(String, Value)],
    id: Value,
    sweep: bool,
) -> Result<Request, (Value, String)> {
    let fail = |message: String| (id.clone(), message);
    let patch_field = if sweep { "patches" } else { "patch" };
    for (key, _) in pairs {
        let known = matches!(key.as_str(), "op" | "id" | "tree" | "query" | "arg" | "witnesses")
            || key == patch_field;
        if !known {
            return Err(fail(format!("unknown request field {}", quote(key))));
        }
    }

    let query_name = match value.get("query") {
        None => "cdpf",
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err(fail("query must be a string".into())),
    };
    let arg = match value.get("arg") {
        None => None,
        Some(Value::Num(v)) => Some(*v),
        Some(_) => return Err(fail("arg must be a number".into())),
    };
    let query = parse_query(query_name, arg).map_err(&fail)?;

    let witnesses = match value.get("witnesses") {
        None => false,
        Some(Value::Bool(w)) => *w,
        Some(_) => return Err(fail("witnesses must be a boolean".into())),
    };

    let tree = match value.get("tree") {
        Some(Value::Str(text)) => {
            Arc::new(cdat_format::parse(text).map_err(|e| fail(format!("tree: {e}")))?)
        }
        Some(_) => return Err(fail("tree must be a string".into())),
        None => return Err(fail("missing tree".into())),
    };

    let patches = if sweep {
        match value.get("patches") {
            Some(Value::Arr(specs)) => {
                if specs.is_empty() {
                    return Err(fail("patches must not be empty".into()));
                }
                specs
                    .iter()
                    .map(|spec| parse_patch(spec, &tree))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(&fail)?
            }
            Some(_) => return Err(fail("patches must be an array of patch objects".into())),
            None => return Err(fail("missing patches".into())),
        }
    } else {
        match value.get("patch") {
            Some(spec) => vec![parse_patch(spec, &tree).map_err(&fail)?],
            None => return Err(fail("missing patch".into())),
        }
    };
    Ok(Request::Delta(DeltaSolveRequest { id, tree, query, witnesses, patches, sweep }))
}

/// Resolves one wire patch object against `tree` by node name (see the
/// module docs for the shape). Name resolution and shape errors are
/// reported here; *value* validation (finite costs, probabilities in
/// range, gates actually being gates) stays with [`TreePatch::validate`]
/// in the engine, so the CLI and the server reject identically.
pub fn parse_patch(spec: &Value, tree: &CdpAttackTree) -> Result<TreePatch, String> {
    let Value::Obj(pairs) = spec else {
        return Err("patch must be a JSON object".into());
    };
    let structure = tree.tree();
    let node = |name: &str| {
        structure.find(name).ok_or_else(|| format!("patch names unknown node {}", quote(name)))
    };
    let bas = |name: &str| {
        node(name).and_then(|v| {
            structure
                .bas_of_node(v)
                .ok_or_else(|| format!("{} is not a basic attack step", quote(name)))
        })
    };
    let mut patch = TreePatch::default();
    for (key, value) in pairs {
        match key.as_str() {
            "cost" | "prob" | "damage" => {
                let Value::Obj(edits) = value else {
                    return Err(format!("{key} must map names to numbers"));
                };
                for (name, new) in edits {
                    let Value::Num(new) = new else {
                        return Err(format!("{key} must map names to numbers"));
                    };
                    match key.as_str() {
                        "cost" => patch.costs.push((bas(name)?, *new)),
                        "prob" => patch.probs.push((bas(name)?, *new)),
                        _ => patch.damages.push((node(name)?, *new)),
                    }
                }
            }
            "gate" => {
                let Value::Obj(swaps) = value else {
                    return Err("gate must map gate names to \"and\" or \"or\"".into());
                };
                for (name, new) in swaps {
                    let new = match new.as_str() {
                        Some("and") => NodeType::And,
                        Some("or") => NodeType::Or,
                        _ => return Err("gate must map gate names to \"and\" or \"or\"".into()),
                    };
                    patch.gates.push((node(name)?, new));
                }
            }
            "defend" => {
                let Value::Arr(names) = value else {
                    return Err("defend must be an array of BAS names".into());
                };
                for name in names {
                    let Value::Str(name) = name else {
                        return Err("defend must be an array of BAS names".into());
                    };
                    patch.defends.push(bas(name)?);
                }
            }
            other => return Err(format!("unknown patch field {}", quote(other))),
        }
    }
    Ok(patch)
}

/// Parses a query name plus optional argument into an engine [`Query`].
///
/// # Errors
///
/// Unknown names, missing or non-finite arguments for the thresholded
/// queries, and stray arguments on the front queries.
pub fn parse_query(name: &str, arg: Option<f64>) -> Result<Query, String> {
    let need = |what: &str| {
        arg.ok_or_else(|| format!("query {name:?} needs a finite {what} arg")).and_then(|v| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("query {name:?} needs a finite {what} arg"))
            }
        })
    };
    match name {
        "cdpf" | "cedpf" | "min-time" | "max-prob" => {
            if arg.is_some() {
                return Err(format!("query {name:?} takes no arg"));
            }
            Ok(match name {
                "cdpf" => Query::Cdpf,
                "cedpf" => Query::Cedpf,
                "min-time" => Query::MinTime,
                _ => Query::MaxProb,
            })
        }
        "dgc" => Ok(Query::Dgc(need("budget")?)),
        "cgd" => Ok(Query::Cgd(need("threshold")?)),
        "edgc" => Ok(Query::Edgc(need("budget")?)),
        "cged" => Ok(Query::Cged(need("threshold")?)),
        other => Err(format!(
            "unknown query {} (expected cdpf, cedpf, dgc, cgd, edgc, cged, min-time or \
             max-prob)",
            quote(other)
        )),
    }
}

/// The protocol name and argument of a query, e.g. `("dgc", Some(10.0))`.
pub fn query_name(query: Query) -> (&'static str, Option<f64>) {
    match query {
        Query::Cdpf => ("cdpf", None),
        Query::Cedpf => ("cedpf", None),
        Query::Dgc(b) => ("dgc", Some(b)),
        Query::Cgd(t) => ("cgd", Some(t)),
        Query::Edgc(b) => ("edgc", Some(b)),
        Query::Cged(t) => ("cged", Some(t)),
        Query::MinTime => ("min-time", None),
        Query::MaxProb => ("max-prob", None),
    }
}

/// Renders the `"query":...[,"arg":...]` fragment (no leading comma).
pub fn query_fragment(query: Query) -> String {
    let (name, arg) = query_name(query);
    match arg {
        Some(arg) => format!("\"query\":\"{name}\",\"arg\":{}", json::num(arg)),
        None => format!("\"query\":\"{name}\""),
    }
}

/// Renders a response body fragment — `,"front":...`, `,"point":...` or
/// `,"error":...` — exactly as `cdat batch` prints it (shared bytes are
/// what makes serve output diffable against batch output). See
/// [`write_body`], which appends the same bytes to a line being built.
pub fn body_fragment(response: &Response) -> String {
    let mut s = String::new();
    write_body(&mut s, response);
    s
}

/// Appends the body fragment of `response` (see [`body_fragment`]) to
/// `s`, so a response line grows in one buffer from prefix to `}`.
///
/// When the response carries witnesses (the request opted in), fronts gain
/// a `witnesses` array parallel to `front` — one ascending BAS-id array
/// per point — and single optima gain a `witness` array. Responses without
/// witnesses render byte-identically to the pre-witness protocol.
pub fn write_body(s: &mut String, response: &Response) {
    let point = |s: &mut String, p: CostDamage| {
        s.push('[');
        json::push_num(s, p.cost);
        s.push(',');
        json::push_num(s, p.damage);
        s.push(']');
    };
    let witness = |s: &mut String, attack: &Attack| {
        s.push('[');
        for (i, b) in attack.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_uint(s, b.index() as u64);
        }
        s.push(']');
    };
    match response {
        Response::Front(front) => {
            s.push_str(",\"front\":[");
            for (i, p) in front.points().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                point(s, p);
            }
            s.push(']');
            if front.entries().iter().any(|e| e.witness.is_some()) {
                s.push_str(",\"witnesses\":[");
                for (i, e) in front.entries().iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    match &e.witness {
                        Some(w) => witness(s, w),
                        None => s.push_str("null"),
                    }
                }
                s.push(']');
            }
        }
        Response::Entry(Some(e)) => {
            s.push_str(",\"point\":");
            point(s, e.point);
            if let Some(w) = &e.witness {
                s.push_str(",\"witness\":");
                witness(s, w);
            }
        }
        Response::Entry(None) => s.push_str(",\"point\":null"),
        Response::Value(Some(e)) => {
            // Scalar optima store the value in the entry's cost slot.
            s.push_str(",\"value\":");
            json::push_num(s, e.point.cost);
            if let Some(w) = &e.witness {
                s.push_str(",\"witness\":");
                witness(s, w);
            }
        }
        Response::Value(None) => s.push_str(",\"value\":null"),
        Response::Error(message) => {
            s.push_str(",\"error\":\"");
            s.push_str(&json::escape(message));
            s.push('"');
        }
    }
}

/// Renders the opening of a response line, up to (and excluding) the body
/// fragment: `{"id":...[,"doc":N[,"name":"..."]],"query":...`.
pub fn response_prefix(id: &Value, doc: Option<(usize, Option<&str>)>, query: Query) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"id\":{id}");
    if let Some((doc, name)) = doc {
        let _ = write!(s, ",\"doc\":{doc}");
        if let Some(name) = name {
            let _ = write!(s, ",\"name\":\"{}\"", json::escape(name));
        }
    }
    let _ = write!(s, ",{}", query_fragment(query));
    s
}

/// Renders the opening of a `whatif`/`sweep` response line:
/// `{"id":...[,"variant":K],"query":...`. `variant` (the patch's index in
/// the request's `patches` array) appears for sweep responses only, so a
/// single `whatif` answer carries exactly the bytes a scratch solve of
/// the patched tree would.
pub fn delta_response_prefix(id: &Value, variant: Option<usize>, query: Query) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"id\":{id}");
    if let Some(variant) = variant {
        let _ = write!(s, ",\"variant\":{variant}");
    }
    let _ = write!(s, ",{}", query_fragment(query));
    s
}

/// Renders a complete error response line.
pub fn error_line(id: &Value, message: &str) -> String {
    format!("{{\"id\":{id},\"error\":\"{}\"}}", json::escape(message))
}

/// Renders one latency/size histogram as a JSON object: the observation
/// count, the sum, and the p50/p90/p99 quantiles (inclusive log2-bucket
/// upper bounds; see `cdat_obs`).
fn histogram_json(snap: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        snap.count,
        snap.sum,
        snap.p50(),
        snap.p90(),
        snap.p99()
    )
}

/// Renders a complete stats response line: the aggregate over all shards,
/// the server's latency histograms and per-family counters, plus the
/// per-shard cache breakdown.
///
/// Aggregation per field: `hits`, `misses`, `entries`, `points`,
/// `evictions` and `disk_hits` **sum** over the shards (disjoint caches);
/// `disk_entries` takes the **max** (every shard handle indexes the same
/// store file, so their counts overlap rather than add); histograms
/// **merge** (bucket-wise sums, so quantiles reflect all shards).
pub fn stats_line(id: &Value, shards: &[CacheStats], snapshot: &ServerSnapshot) -> String {
    use std::fmt::Write as _;
    let one = |s: &CacheStats| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{},\"points\":{},\"evictions\":{},\
             \"disk_hits\":{},\"disk_entries\":{}}}",
            s.hits, s.misses, s.entries, s.points, s.evictions, s.disk_hits, s.disk_entries
        )
    };
    let total = shards.iter().fold(CacheStats::default(), |mut acc, s| {
        acc.hits += s.hits;
        acc.misses += s.misses;
        acc.entries += s.entries;
        acc.points += s.points;
        acc.evictions += s.evictions;
        acc.disk_hits += s.disk_hits;
        // Every shard handle indexes the same store file, so the shard
        // counts overlap; the largest index is the closest aggregate.
        acc.disk_entries = acc.disk_entries.max(s.disk_entries);
        acc
    });
    // The aggregate object keeps the seven cache scalars first (clients
    // and the smoke suite match on that prefix), then the server-level
    // scalars.
    let mut aggregate = one(&total);
    aggregate.pop(); // reopen the object for the extra fields
    let _ = write!(
        aggregate,
        ",\"uptime_us\":{},\"compute_us\":{}}}",
        snapshot.uptime_us, snapshot.engine.served_compute_us
    );
    let mut line = format!("{{\"id\":{id},\"stats\":{aggregate}");
    let _ = write!(
        line,
        ",\"histograms\":{{\"queue_wait_us\":{},\"solve_us\":{},\"e2e_us\":{},\"batch_fill\":{},\
         \"dispatch_us\":{},\"dirty_path_len\":{}}}",
        histogram_json(&snapshot.engine.queue_wait),
        histogram_json(&snapshot.engine.solve),
        histogram_json(&snapshot.e2e),
        histogram_json(&snapshot.batch_fill),
        histogram_json(&snapshot.dispatch),
        histogram_json(&snapshot.engine.dirty_path_len),
    );
    line.push_str(",\"families\":{");
    for (i, kind) in FrontKind::ALL.into_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let fam = snapshot.engine.families[kind.index()];
        let _ = write!(
            line,
            "\"{}\":{{\"requests\":{},\"hits\":{},\"disk_hits\":{},\"misses\":{},\
             \"delta_requests\":{},\"memo_builds\":{},\"subtree_hits\":{},\"dirty_nodes\":{}}}",
            kind.label(),
            fam.requests,
            fam.hits,
            fam.disk_hits,
            fam.misses,
            fam.delta_requests,
            fam.memo_builds,
            fam.subtree_hits,
            fam.dirty_nodes
        );
    }
    line.push_str("},\"shards\":[");
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{}", one(s));
    }
    line.push_str("]}");
    line
}

/// Renders the server's telemetry as Prometheus text exposition (the
/// payload of the `metrics` op and of `cdat serve --metrics`). Uptime is
/// deliberately absent: the exposition is reproducible for a fresh,
/// unqueried server, which the docs-example replay relies on.
pub fn metrics_text(snapshot: &ServerSnapshot) -> String {
    let mut out = String::new();
    snapshot.engine.render_prometheus(&mut out);
    type_line(&mut out, "cdat_batch_fill", "histogram");
    histogram_samples(&mut out, "cdat_batch_fill", &[], &snapshot.batch_fill);
    type_line(&mut out, "cdat_dispatch_us", "histogram");
    histogram_samples(&mut out, "cdat_dispatch_us", &[], &snapshot.dispatch);
    type_line(&mut out, "cdat_shard_e2e_us", "histogram");
    for (shard, snap) in snapshot.per_shard_e2e.iter().enumerate() {
        let label = shard.to_string();
        histogram_samples(&mut out, "cdat_shard_e2e_us", &[("shard", &label)], snap);
    }
    if let Some(store) = &snapshot.store {
        store.render_prometheus(&mut out);
    }
    out
}

/// Renders a complete metrics response line: the Prometheus exposition
/// JSON-escaped into one string field.
pub fn metrics_line(id: &Value, router: &crate::router::Router) -> String {
    format!("{{\"id\":{id},\"metrics\":\"{}\"}}", json::escape(&metrics_text(&router.snapshot())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_tree_request() {
        let line = r#"{"id":7,"tree":"or root damage=5\n  bas x cost=1\n","query":"dgc","arg":3}"#;
        let Request::Solve(req) = parse_request(line).unwrap() else { panic!("not a solve") };
        assert_eq!(req.id, Value::Num(7.0));
        assert_eq!(req.docs.len(), 1);
        assert!(!req.suite);
        assert_eq!(req.query, Query::Dgc(3.0));
        assert_eq!(req.hint, SolverHint::Auto);
        assert_eq!(req.docs[0].tree.tree().bas_count(), 1);
    }

    #[test]
    fn parses_a_suite_request_with_solver_hint() {
        let line = concat!(
            r#"{"id":"s","suite":"--- a\nor g damage=1\n  bas x cost=2\n"#,
            r#"--- b\nor h damage=3\n  bas y cost=4\n","solver":"bdd"}"#
        );
        let Request::Solve(req) = parse_request(line).unwrap() else { panic!("not a solve") };
        assert!(req.suite);
        assert_eq!(req.query, Query::Cdpf, "query defaults to cdpf");
        assert_eq!(req.hint, SolverHint::Bdd);
        assert_eq!(req.docs.len(), 2);
        assert_eq!(req.docs[1].name.as_deref(), Some("b"));
        assert_eq!(req.docs[1].doc, 1);
    }

    #[test]
    fn parses_every_solver_hint_spelling() {
        for (spelling, hint) in [
            ("auto", SolverHint::Auto),
            ("bottomup", SolverHint::BottomUp),
            ("bottom-up", SolverHint::BottomUp),
            ("bu", SolverHint::BottomUp),
            ("bdd", SolverHint::Bdd),
            ("enumerative", SolverHint::Enumerative),
            ("enum", SolverHint::Enumerative),
            ("bilp", SolverHint::Auto),
        ] {
            let line = format!(r#"{{"id":1,"tree":"or a\n  bas x\n","solver":"{spelling}"}}"#);
            let Request::Solve(req) = parse_request(&line).unwrap() else { panic!("not a solve") };
            assert_eq!(req.hint, hint, "spelling {spelling:?}");
        }
    }

    #[test]
    fn parses_the_stats_op() {
        assert!(matches!(
            parse_request(r#"{"op":"stats","id":1}"#).unwrap(),
            Request::Stats { id: Value::Num(_) }
        ));
    }

    #[test]
    fn parses_the_metrics_op() {
        assert!(matches!(
            parse_request(r#"{"op":"metrics","id":1}"#).unwrap(),
            Request::Metrics { id: Value::Num(_) }
        ));
    }

    #[test]
    fn parses_whatif_and_sweep_ops_with_name_resolved_patches() {
        let tree = r#""tree":"or root damage=5\n  bas x cost=1\n  bas y cost=2\n""#;
        let line = format!(
            "{{\"op\":\"whatif\",\"id\":4,{tree},\"query\":\"dgc\",\"arg\":3,\
             \"patch\":{{\"cost\":{{\"x\":7}},\"damage\":{{\"root\":9}},\"defend\":[\"y\"]}}}}"
        );
        let Request::Delta(req) = parse_request(&line).unwrap() else { panic!("not a delta") };
        assert!(!req.sweep);
        assert_eq!(req.query, Query::Dgc(3.0));
        assert_eq!(req.patches.len(), 1);
        let patch = &req.patches[0];
        assert_eq!(patch.costs, vec![(cdat_core::BasId::new(0), 7.0)]);
        // The format numbers leaves before their gate: `root` is node 2.
        assert_eq!(patch.damages, vec![(cdat_core::NodeId::new(2), 9.0)]);
        assert_eq!(patch.defends, vec![cdat_core::BasId::new(1)]);

        let line = format!(
            "{{\"op\":\"sweep\",\"id\":5,{tree},\"witnesses\":true,\
             \"patches\":[{{\"cost\":{{\"x\":1}}}},{{\"gate\":{{\"root\":\"and\"}}}},{{}}]}}"
        );
        let Request::Delta(req) = parse_request(&line).unwrap() else { panic!("not a delta") };
        assert!(req.sweep && req.witnesses);
        assert_eq!(req.query, Query::Cdpf, "query defaults to cdpf");
        assert_eq!(req.patches.len(), 3);
        assert_eq!(req.patches[1].gates, vec![(cdat_core::NodeId::new(2), NodeType::And)]);
        assert!(req.patches[2].is_empty(), "an empty patch object is the unpatched base");
    }

    #[test]
    fn rejects_malformed_delta_requests() {
        let tree = r#""tree":"or root damage=5\n  bas x cost=1\n""#;
        for (line, needle) in [
            (format!("{{\"op\":\"whatif\",\"id\":3,{tree}}}"), "missing patch"),
            (format!("{{\"op\":\"sweep\",\"id\":3,{tree}}}"), "missing patches"),
            (format!("{{\"op\":\"sweep\",\"id\":3,{tree},\"patches\":[]}}"), "must not be empty"),
            (
                format!("{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":7}}"),
                "patch must be a JSON object",
            ),
            (
                format!("{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":{{\"frob\":1}}}}"),
                "unknown patch field",
            ),
            (
                format!("{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":{{\"cost\":{{\"z\":1}}}}}}"),
                "unknown node \"z\"",
            ),
            (
                format!(
                    "{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":{{\"cost\":{{\"root\":1}}}}}}"
                ),
                "not a basic attack step",
            ),
            (
                format!(
                    "{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":{{\"gate\":{{\"root\":\"x\"}}}}}}"
                ),
                "gate must map gate names",
            ),
            (
                format!("{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":{{}},\"solver\":\"bilp\"}}"),
                "unknown request field",
            ),
            (
                format!("{{\"op\":\"whatif\",\"id\":3,{tree},\"patch\":{{}},\"patches\":[]}}"),
                "unknown request field",
            ),
            ("{\"op\":\"whatif\",\"id\":3,\"patch\":{}}".to_string(), "missing tree"),
        ] {
            let (id, message) = parse_request(&line).unwrap_err();
            assert!(message.contains(needle), "{line}: {message}");
            assert_eq!(id, Value::Num(3.0), "{line}");
        }
    }

    #[test]
    fn delta_prefixes_render_variants_for_sweeps_only() {
        assert_eq!(
            delta_response_prefix(&Value::Num(4.0), None, Query::Cdpf),
            "{\"id\":4,\"query\":\"cdpf\""
        );
        assert_eq!(
            delta_response_prefix(&Value::Num(4.0), Some(17), Query::Dgc(3.0)),
            "{\"id\":4,\"variant\":17,\"query\":\"dgc\",\"arg\":3"
        );
    }

    #[test]
    fn rejects_malformed_requests_with_the_echoed_id() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":3}"#, "missing tree or suite"),
            (r#"{"id":3,"tree":"or a\n  bas x\n","suite":"x"}"#, "not both"),
            (r#"{"id":3,"tree":42}"#, "tree must be a string"),
            (r#"{"id":3,"tree":"zap\n"}"#, "tree: line 1"),
            (r#"{"id":3,"suite":"--- a\nzap\n"}"#, "suite: line 2"),
            (r#"{"id":3,"tree":"or a\n  bas x\n","query":"frob"}"#, "unknown query"),
            (r#"{"id":3,"tree":"or a\n  bas x\n","query":"dgc"}"#, "needs a finite budget"),
            (r#"{"id":3,"tree":"or a\n  bas x\n","query":"cdpf","arg":1}"#, "takes no arg"),
            (r#"{"id":3,"tree":"or a\n  bas x\n","solver":"magic"}"#, "unknown solver"),
            (r#"{"id":3,"tree":"or a\n  bas x\n","frob":1}"#, "unknown request field"),
            (r#"{"op":"frob"}"#, "unknown op"),
        ] {
            let (id, message) = parse_request(line).unwrap_err();
            assert!(message.contains(needle), "{line}: {message}");
            if line.contains("\"id\":3") {
                assert_eq!(id, Value::Num(3.0), "{line}");
            }
        }
    }

    #[test]
    fn fragments_render_like_the_batch_cli() {
        use cdat_pareto::{CostDamage, FrontEntry, ParetoFront};
        let front =
            ParetoFront::from_points([CostDamage::new(0.0, 0.0), CostDamage::new(1.0, 200.0)]);
        assert_eq!(body_fragment(&Response::Front(front)), ",\"front\":[[0,0],[1,200]]");
        assert_eq!(
            body_fragment(&Response::Entry(Some(FrontEntry::point(3.0, 210.5)))),
            ",\"point\":[3,210.5]"
        );
        assert_eq!(body_fragment(&Response::Entry(None)), ",\"point\":null");
        assert_eq!(
            body_fragment(&Response::Error("bad \"thing\"".into())),
            ",\"error\":\"bad \\\"thing\\\"\""
        );
        assert_eq!(query_fragment(Query::Dgc(10.0)), "\"query\":\"dgc\",\"arg\":10");
        assert_eq!(
            response_prefix(&Value::Num(4.0), Some((1, Some("t1"))), Query::Cdpf),
            "{\"id\":4,\"doc\":1,\"name\":\"t1\",\"query\":\"cdpf\""
        );
    }

    #[test]
    fn scalar_queries_parse_and_render() {
        use cdat_core::{Attack, BasId};
        use cdat_pareto::FrontEntry;
        assert_eq!(parse_query("min-time", None).unwrap(), Query::MinTime);
        assert_eq!(parse_query("max-prob", None).unwrap(), Query::MaxProb);
        assert!(parse_query("min-time", Some(3.0)).unwrap_err().contains("takes no arg"));
        assert_eq!(query_fragment(Query::MinTime), "\"query\":\"min-time\"");
        assert_eq!(query_fragment(Query::MaxProb), "\"query\":\"max-prob\"");
        assert_eq!(
            body_fragment(&Response::Value(Some(FrontEntry::point(0.36, 0.0)))),
            ",\"value\":0.36"
        );
        assert_eq!(body_fragment(&Response::Value(None)), ",\"value\":null");
        let e = FrontEntry::with_witness(1.0, 0.0, Attack::from_bas_ids(3, [BasId::new(0)]));
        assert_eq!(body_fragment(&Response::Value(Some(e))), ",\"value\":1,\"witness\":[0]");
    }

    #[test]
    fn witnessed_fragments_render_bas_id_arrays() {
        use cdat_core::{Attack, BasId};
        use cdat_pareto::{FrontEntry, ParetoFront};
        let b = |i: usize| BasId::new(i);
        let front = ParetoFront::from_entries([
            FrontEntry::with_witness(0.0, 0.0, Attack::empty(3)),
            FrontEntry::with_witness(1.0, 200.0, Attack::from_bas_ids(3, [b(0), b(2)])),
        ]);
        assert_eq!(
            body_fragment(&Response::Front(front)),
            ",\"front\":[[0,0],[1,200]],\"witnesses\":[[],[0,2]]"
        );
        let entry = FrontEntry::with_witness(3.0, 210.0, Attack::from_bas_ids(3, [b(1)]));
        assert_eq!(
            body_fragment(&Response::Entry(Some(entry))),
            ",\"point\":[3,210],\"witness\":[1]"
        );
    }

    #[test]
    fn body_bytes_are_pinned() {
        use cdat_core::{Attack, BasId};
        use cdat_pareto::{FrontEntry, ParetoFront};
        let attack = |ids: &[usize]| Attack::from_bas_ids(1001, ids.iter().map(|&i| BasId::new(i)));
        let front = ParetoFront::from_entries([
            FrontEntry::with_witness(0.0, 0.0, attack(&[])),
            FrontEntry::with_witness(0.1 + 0.2, 2.5, attack(&[9, 10])),
            FrontEntry::point(2.5, 1e16),
            FrontEntry::with_witness(1e16, 1e21, attack(&[99, 100, 1000])),
        ]);
        assert_eq!(
            body_fragment(&Response::Front(front)),
            ",\"front\":[[0,0],[0.30000000000000004,2.5],[2.5,10000000000000000],\
             [10000000000000000,1000000000000000000000]],\
             \"witnesses\":[[],[9,10],null,[99,100,1000]]"
        );
        let entry = FrontEntry::with_witness(1e21, 0.1 + 0.2, attack(&[1000]));
        assert_eq!(
            body_fragment(&Response::Entry(Some(entry.clone()))),
            ",\"point\":[1000000000000000000000,0.30000000000000004],\"witness\":[1000]"
        );
        assert_eq!(
            body_fragment(&Response::Value(Some(entry))),
            ",\"value\":1000000000000000000000,\"witness\":[1000]"
        );
    }

    #[test]
    fn witnesses_field_parses_and_validates() {
        let base = r#""tree":"or root damage=5\n  bas x cost=1\n""#;
        let on = format!("{{{base},\"witnesses\":true}}");
        let Request::Solve(req) = parse_request(&on).unwrap() else { panic!("not a solve") };
        assert!(req.witnesses);
        let off = format!("{{{base},\"witnesses\":false}}");
        let Request::Solve(req) = parse_request(&off).unwrap() else { panic!("not a solve") };
        assert!(!req.witnesses);
        let default = format!("{{{base}}}");
        let Request::Solve(req) = parse_request(&default).unwrap() else { panic!("not a solve") };
        assert!(!req.witnesses, "witnesses default off");
        let bad = format!("{{{base},\"witnesses\":1}}");
        let (_, message) = parse_request(&bad).unwrap_err();
        assert!(message.contains("witnesses must be a boolean"), "{message}");
    }

    /// A snapshot with recognizable values for the line-rendering tests.
    fn snapshot() -> ServerSnapshot {
        use cdat_engine::EngineSnapshot;
        let queue_wait = cdat_obs::Histogram::new();
        for v in 1..=100 {
            queue_wait.observe(v);
        }
        let mut engine = EngineSnapshot::new();
        engine.queue_wait = queue_wait.snapshot();
        engine.served_compute_us = 777;
        engine.families[FrontKind::Deterministic.index()].requests = 4;
        engine.families[FrontKind::Deterministic.index()].hits = 3;
        engine.families[FrontKind::Deterministic.index()].misses = 1;
        engine.families[FrontKind::Deterministic.index()].delta_requests = 6;
        engine.families[FrontKind::Deterministic.index()].memo_builds = 2;
        engine.families[FrontKind::Deterministic.index()].subtree_hits = 12;
        engine.families[FrontKind::Deterministic.index()].dirty_nodes = 9;
        let dirty = cdat_obs::Histogram::new();
        for len in [0, 1, 1, 2, 2, 3] {
            dirty.observe(len);
        }
        engine.dirty_path_len = dirty.snapshot();
        ServerSnapshot {
            uptime_us: 55,
            engine,
            e2e: HistogramSnapshot::default(),
            per_shard_e2e: vec![HistogramSnapshot::default(), HistogramSnapshot::default()],
            batch_fill: HistogramSnapshot::default(),
            dispatch: HistogramSnapshot::default(),
            store: None,
        }
    }

    #[test]
    fn stats_line_aggregates_shards() {
        let shards = [
            CacheStats {
                hits: 2,
                misses: 1,
                entries: 1,
                points: 4,
                evictions: 0,
                disk_hits: 1,
                disk_entries: 9,
            },
            CacheStats {
                hits: 1,
                misses: 3,
                entries: 2,
                points: 6,
                evictions: 5,
                disk_hits: 2,
                disk_entries: 7,
            },
        ];
        let line = stats_line(&Value::Null, &shards, &snapshot());
        assert!(line.starts_with("{\"id\":null,\"stats\":{\"hits\":3,\"misses\":4,"), "{line}");
        assert!(line.contains("\"evictions\":5,"), "{line}");
        // Disk hits sum; disk entries take the max — the handles index one
        // shared file, so their counts overlap rather than add.
        assert!(
            line.contains(
                "\"disk_hits\":3,\"disk_entries\":9,\"uptime_us\":55,\"compute_us\":777}"
            ),
            "{line}"
        );
        // The snapshot's queue-wait histogram (1..=100): count, sum and
        // the inclusive log2-bucket quantile bounds.
        assert!(
            line.contains(
                "\"histograms\":{\"queue_wait_us\":{\"count\":100,\"sum\":5050,\"p50\":63,\
                 \"p90\":127,\"p99\":127}"
            ),
            "{line}"
        );
        assert!(
            line.contains(
                "\"families\":{\"deterministic\":{\"requests\":4,\"hits\":3,\"disk_hits\":0,\
                 \"misses\":1,\"delta_requests\":6,\"memo_builds\":2,\"subtree_hits\":12,\
                 \"dirty_nodes\":9},\
                 \"probabilistic\":{\"requests\":0,"
            ),
            "{line}"
        );
        assert!(
            line.contains(",\"dirty_path_len\":{\"count\":6,\"sum\":9,"),
            "the delta histogram joins the histograms object: {line}"
        );
        assert!(line.contains("\"shards\":[{"), "{line}");
        assert!(line.contains("\"disk_hits\":1,\"disk_entries\":9}"), "{line}");
        assert!(cdat_format::json::parse(&line).is_ok(), "{line}");
    }

    #[test]
    fn metrics_text_is_prometheus_shaped_and_line_escapes_cleanly() {
        let text = metrics_text(&snapshot());
        assert!(text.contains("# TYPE cdat_requests_total counter"), "{text}");
        assert!(text.contains("cdat_requests_total{family=\"deterministic\"} 4"), "{text}");
        assert!(
            text.contains("cdat_cache_hits_total{family=\"deterministic\",tier=\"memory\"} 3"),
            "{text}"
        );
        assert!(text.contains("cdat_memo_builds_total{family=\"deterministic\"} 2"), "{text}");
        assert!(text.contains("cdat_queue_wait_us_count 100"), "{text}");
        assert!(text.contains("cdat_queue_wait_us_sum 5050"), "{text}");
        assert!(text.contains("cdat_shard_e2e_us_count{shard=\"1\"} 0"), "{text}");
        assert!(!text.contains("uptime"), "exposition must stay reproducible: {text}");
        // The JSON wrapper escapes the newlines into one parseable line.
        let line = format!("{{\"id\":7,\"metrics\":\"{}\"}}", cdat_format::json::escape(&text));
        assert!(!line.contains('\n'), "{line}");
        assert!(cdat_format::json::parse(&line).is_ok(), "{line}");
    }
}
