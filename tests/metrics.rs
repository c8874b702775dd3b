//! End-to-end tests of the observability surfaces: the `stats` and
//! `metrics` ops, counter/histogram consistency across a multi-shard
//! server, the JSONL trace recorder under concurrent shard writes, and
//! the out-of-band invariant (instrumentation never changes response
//! bytes).

use std::sync::mpsc::channel;
use std::sync::Arc;

use cdat::format::json;
use cdat::obs::TraceWriter;
use cdat::serve::{protocol, Reply, RouteRequest, Router, RouterConfig};
use cdat::solve::{Query, SolverHint};
use cdat::CdpAttackTree;

fn unique_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cdat-metrics-{tag}-{}-{n}", std::process::id()))
}

/// A batch of requests over `distinct` different trees, `copies` requests
/// each, so every shard sees hits and misses.
fn requests(distinct: usize, copies: usize) -> Vec<RouteRequest> {
    let trees: Vec<Arc<CdpAttackTree>> = (0..distinct)
        .map(|i| {
            let text = format!(
                "or root damage={}\n  bas a cost={}\n  bas b cost=2\n",
                100 + 10 * i,
                1 + i
            );
            Arc::new(cdat_format::parse(&text).expect("valid tree"))
        })
        .collect();
    let mut out = Vec::new();
    for copy in 0..copies {
        for (i, tree) in trees.iter().enumerate() {
            out.push(RouteRequest {
                tree: tree.clone(),
                query: Query::Cdpf,
                hint: SolverHint::Auto,
                witnesses: false,
                prefix: format!("{{\"id\":{}", copy * distinct + i),
            });
        }
    }
    out
}

#[test]
fn server_counters_and_histograms_are_consistent() {
    let router =
        Router::new(RouterConfig { shards: 3, ..RouterConfig::default() }).expect("memory router");
    let lines = router.solve(requests(8, 3));
    assert_eq!(lines.len(), 24);

    let snapshot = router.snapshot();
    let families = &snapshot.engine.families;
    let requests_total: u64 = families.iter().map(|f| f.requests).sum();
    let hits: u64 = families.iter().map(|f| f.hits).sum();
    let disk_hits: u64 = families.iter().map(|f| f.disk_hits).sum();
    let misses: u64 = families.iter().map(|f| f.misses).sum();
    assert_eq!(requests_total, 24);
    assert_eq!(hits + disk_hits + misses, requests_total, "tier outcomes partition requests");
    assert_eq!(disk_hits, 0, "memory-only server");
    assert_eq!(misses, 8, "one solve per distinct tree");

    // Histogram cross-checks: one queue-wait observation per request, one
    // solve observation per miss, one e2e observation per request; bucket
    // counts sum to the observation count.
    assert_eq!(snapshot.engine.queue_wait.count, requests_total);
    assert_eq!(snapshot.engine.solve.count, misses);
    assert_eq!(snapshot.e2e.count, requests_total);
    for (name, hist) in [
        ("queue_wait", &snapshot.engine.queue_wait),
        ("solve", &snapshot.engine.solve),
        ("e2e", &snapshot.e2e),
    ] {
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count, "{name} buckets sum to count");
    }

    // Per-shard e2e histograms merge associatively into the aggregate.
    let mut merged = cdat::obs::HistogramSnapshot::default();
    for shard in &snapshot.per_shard_e2e {
        merged.merge(shard);
    }
    assert_eq!(merged.count, snapshot.e2e.count);
    assert_eq!(merged.sum, snapshot.e2e.sum);
    assert_eq!(merged.buckets, snapshot.e2e.buckets);

    // compute_us aggregates the ORIGINAL solve cost of every answer, so
    // it is at least the solver time actually spent this run.
    assert!(snapshot.engine.served_compute_us >= snapshot.engine.solve.sum);

    // Both renderings parse / scrape cleanly.
    let stats = protocol::stats_line(&json::Value::Num(1.0), &router.stats(), &snapshot);
    assert!(json::parse(&stats).is_ok(), "{stats}");
    let text = protocol::metrics_text(&snapshot);
    assert!(text.contains("cdat_requests_total{family=\"deterministic\"} 24"), "{text}");
}

#[test]
fn delta_counters_stay_out_of_the_tier_partition_and_tie_to_their_histogram() {
    use cdat::serve::DeltaRouteRequest;
    use cdat::solve::TreePatch;
    use cdat::BasId;
    let router =
        Router::new(RouterConfig { shards: 3, ..RouterConfig::default() }).expect("memory router");
    // Normal solves first: they cache bare fronts, so each tree's first
    // sweep below builds that tree's subtree memo.
    router.solve(requests(8, 3));

    // One sweep per distinct tree: 5 valid patches plus one invalid
    // (rejected patches still count one delta request and one zero-length
    // dirty-path observation).
    let trees: Vec<Arc<CdpAttackTree>> = requests(8, 1).into_iter().map(|r| r.tree).collect();
    let mut patches: Vec<TreePatch> = (1..=5)
        .map(|i| TreePatch { costs: vec![(BasId::new(0), f64::from(i))], ..TreePatch::default() })
        .collect();
    patches.push(TreePatch { costs: vec![(BasId::new(0), -1.0)], ..TreePatch::default() });
    for tree in &trees {
        let lines = router.sweep(DeltaRouteRequest {
            tree: tree.clone(),
            query: Query::Cdpf,
            witnesses: false,
            patches: patches.clone(),
            prefixes: (0..patches.len()).map(|k| format!("{{\"id\":{k}")).collect(),
        });
        assert_eq!(lines.len(), patches.len());
        assert!(lines[5].contains("\"error\":"), "the invalid patch answers an error line");
    }

    let snapshot = router.snapshot();
    let families = &snapshot.engine.families;
    let delta_requests: u64 = families.iter().map(|f| f.delta_requests).sum();
    assert_eq!(delta_requests, (trees.len() * patches.len()) as u64);
    let memo_builds: u64 = families.iter().map(|f| f.memo_builds).sum();
    assert_eq!(memo_builds, trees.len() as u64, "one memo build per distinct tree swept");
    assert!(families.iter().map(|f| f.subtree_hits).sum::<u64>() > 0);
    assert!(families.iter().map(|f| f.dirty_nodes).sum::<u64>() > 0);

    // Exactly one dirty-path observation per delta request ties the
    // histogram to the counters.
    assert_eq!(snapshot.engine.dirty_path_len.count, delta_requests);
    assert_eq!(
        snapshot.engine.dirty_path_len.buckets.iter().sum::<u64>(),
        snapshot.engine.dirty_path_len.count
    );

    // Delta traffic never leaks into the solve-path invariants: the tier
    // counters still partition the 24 batch requests, and the solve/queue
    // histograms saw only those.
    let requests_total: u64 = families.iter().map(|f| f.requests).sum();
    let hits: u64 = families.iter().map(|f| f.hits).sum();
    let misses: u64 = families.iter().map(|f| f.misses).sum();
    assert_eq!(requests_total, 24);
    assert_eq!(hits + misses, requests_total);
    assert_eq!(snapshot.engine.queue_wait.count, requests_total);
    assert_eq!(snapshot.engine.solve.count, misses);

    // Both renderings carry the new counters and stay parseable.
    let stats = protocol::stats_line(&json::Value::Num(1.0), &router.stats(), &snapshot);
    assert!(json::parse(&stats).is_ok(), "{stats}");
    assert!(stats.contains("\"delta_requests\":"), "{stats}");
    assert!(stats.contains(&format!("\"memo_builds\":{memo_builds},")), "{stats}");
    assert!(stats.contains("\"dirty_path_len\":"), "{stats}");
    let text = protocol::metrics_text(&snapshot);
    assert!(
        text.contains(&format!(
            "cdat_delta_requests_total{{family=\"deterministic\"}} {delta_requests}"
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!("cdat_memo_builds_total{{family=\"deterministic\"}} {memo_builds}")),
        "{text}"
    );
    assert!(text.contains("cdat_dirty_path_len_count"), "{text}");
}

#[test]
fn backend_counters_partition_requests_across_a_server() {
    let router =
        Router::new(RouterConfig { shards: 2, ..RouterConfig::default() }).expect("memory router");
    let treelike: Vec<RouteRequest> = requests(4, 3);
    let dag: Arc<CdpAttackTree> = Arc::new(
        cdat_format::parse(
            "or root damage=9\n  and g1\n    bas x cost=1\n    bas y cost=2\n  and g2\n    ref x\n    bas z cost=3 damage=4\n",
        )
        .expect("valid DAG"),
    );
    let hinted = |tree: &Arc<CdpAttackTree>, hint, id: usize| RouteRequest {
        tree: tree.clone(),
        query: Query::Cdpf,
        hint,
        witnesses: false,
        prefix: format!("{{\"id\":{id}"),
    };
    // One BAS past the enumerative solver's cap.
    let wide_text: String = (0..=cdat::enumerative::MAX_ENUM_BAS)
        .map(|i| format!("  bas b{i} cost=1 damage=1\n"))
        .collect();
    let wide: Arc<CdpAttackTree> =
        Arc::new(cdat_format::parse(&format!("or wide\n{wide_text}")).expect("valid tree"));
    let mut batch = treelike;
    // Auto on a DAG routes to the fused solver; explicit hints force their
    // backend; bottom-up on a DAG and enumerative past its cap are the two
    // invalid combinations here.
    batch.push(hinted(&dag, SolverHint::Auto, 100));
    batch.push(hinted(&dag, SolverHint::Auto, 101));
    let bu_tree = batch[0].tree.clone();
    batch.push(hinted(&bu_tree, SolverHint::Bdd, 102));
    batch.push(hinted(&dag, SolverHint::Enumerative, 103));
    batch.push(hinted(&dag, SolverHint::Enumerative, 104));
    batch.push(hinted(&wide, SolverHint::Enumerative, 105));
    batch.push(hinted(&dag, SolverHint::BottomUp, 106));
    let expected = batch.len();
    let lines = router.solve(batch);
    assert_eq!(lines.len(), expected);
    let errors: Vec<&String> = lines.iter().filter(|l| l.contains("\"error\":")).collect();
    assert_eq!(errors.len(), 2, "only the two invalid hints error");
    let line = |id: usize| {
        let prefix = format!("{{\"id\":{id},");
        lines.iter().find(|l| l.starts_with(&prefix)).expect("one line per request")
    };
    let (wide_error, dag_error) = (line(105), line(106));
    assert!(
        wide_error.contains("the enumerative solver enumerates attacks and supports at most 30"),
        "{wide_error}"
    );
    assert!(
        dag_error.contains("the bottom-up solver requires a treelike tree; use solver auto or bdd"),
        "{dag_error}"
    );

    // Backend counters partition the counted requests exactly: the
    // rejected hints are counted in invalid_hints and nowhere else.
    let snapshot = router.snapshot();
    let families_total: u64 = snapshot.engine.families.iter().map(|f| f.requests).sum();
    let backends_total: u64 = snapshot.engine.backends.iter().sum();
    assert_eq!(families_total, (expected - 2) as u64);
    assert_eq!(backends_total, families_total, "backends partition counted requests");
    assert_eq!(snapshot.engine.invalid_hints, 2);
    // index order: bottomup, bdd, enumerative (SolverBackend::ALL).
    assert_eq!(snapshot.engine.backends, [12, 3, 2]);

    // The exposition carries one labeled sample per backend.
    let text = protocol::metrics_text(&snapshot);
    for (label, count) in [("bottomup", 12), ("bdd", 3), ("enumerative", 2)] {
        let sample = format!("cdat_backend_requests_total{{backend=\"{label}\"}} {count}");
        assert!(text.contains(&sample), "missing {sample} in:\n{text}");
    }
    assert_eq!(text.matches("cdat_backend_requests_total{").count(), 3, "{text}");
    assert!(text.contains("cdat_invalid_hints_total 2"), "{text}");

    // Backend transparency: the hinted fused request on the treelike tree
    // answered the same bytes as its auto-routed bottom-up twin.
    let body = |line: &str| line.split_once(',').expect("prefix,body").1.to_owned();
    let twin = lines.iter().find(|l| l.starts_with("{\"id\":0,")).expect("auto twin");
    let hinted_line = lines.iter().find(|l| l.starts_with("{\"id\":102,")).expect("hinted line");
    assert_eq!(body(twin), body(hinted_line), "hints never change response bytes");
}

#[test]
fn trace_jsonl_parses_strictly_under_concurrent_shard_writes() {
    let path = unique_path("trace");
    let trace = TraceWriter::open(&path).expect("open trace file");
    let plain =
        Router::new(RouterConfig { shards: 4, ..RouterConfig::default() }).expect("memory router");
    let traced = Router::new(RouterConfig {
        shards: 4,
        trace: Some(trace.clone()),
        ..RouterConfig::default()
    })
    .expect("memory router");

    // Dispatch asynchronously so all four shards run (and emit trace
    // lines) concurrently.
    let batch = requests(16, 4);
    let expected = batch.len();
    let (tx, rx) = channel::<Reply>();
    traced.dispatch(
        batch.iter().enumerate().map(|(i, r)| (i as u64, r.clone(), tx.clone())).collect(),
    );
    drop(tx);
    let mut traced_lines: Vec<Reply> = rx.iter().collect();
    assert_eq!(traced_lines.len(), expected);
    traced_lines.sort_by_key(|(seq, _)| *seq);
    trace.flush();

    // Out of band: the traced router answers byte-identically to a plain
    // one.
    let traced_lines: Vec<String> = traced_lines.into_iter().map(|(_, line)| line).collect();
    assert_eq!(traced_lines, plain.solve(batch));

    // Every line of the concurrently written trace is whole, strict JSON
    // with the span schema; every engine stage appears.
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let mut stages: Vec<String> = Vec::new();
    for line in text.lines() {
        let value = json::parse(line).unwrap_or_else(|e| panic!("torn trace line {line:?}: {e}"));
        for field in ["ts_us", "dur_us"] {
            assert!(
                matches!(value.get(field), Some(json::Value::Num(_))),
                "span missing {field}: {line}"
            );
        }
        let Some(json::Value::Str(stage)) = value.get("stage") else {
            panic!("span missing stage: {line}");
        };
        stages.push(stage.clone());
    }
    let count = |name: &str| stages.iter().filter(|s| s.as_str() == name).count();
    assert_eq!(count("canonicalize"), expected, "one routing-hash span per request");
    assert_eq!(count("cache_lookup"), expected, "one lookup span per request");
    assert_eq!(count("solve"), 16, "one solve span per distinct tree");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_metrics_flow_into_the_server_snapshot() {
    let path = unique_path("store");
    let config =
        || RouterConfig { shards: 2, store: Some(path.clone()), ..RouterConfig::default() };
    let cold = Router::new(config()).expect("open store");
    let cold_lines = cold.solve(requests(6, 1));
    let appended = cold.snapshot().store.expect("store snapshot").append.count;
    assert_eq!(appended, 6, "every computed front appends once");
    drop(cold);

    let warm = Router::new(config()).expect("reopen store");
    let warm_lines = warm.solve(requests(6, 1));
    assert_eq!(warm_lines, cold_lines, "warm restart answers byte-identically");
    let snapshot = warm.snapshot();
    let store = snapshot.store.expect("store snapshot");
    assert_eq!(store.read.count, 6, "every warm answer reads one record");
    assert!(store.read_bytes > 0);
    assert_eq!(store.scanned_records, 12, "both shard handles scan the 6 records at open");
    let disk_hits: u64 = snapshot.engine.families.iter().map(|f| f.disk_hits).sum();
    assert_eq!(disk_hits, 6);
    let _ = std::fs::remove_file(&path);
}
