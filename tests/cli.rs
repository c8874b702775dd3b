//! End-to-end tests of the `cdat` command-line binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cdat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdat")).args(args).output().expect("binary runs")
}

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cdat-cli-{tag}-{}-{n}.cdat", std::process::id()))
}

fn write_example() -> PathBuf {
    let out = cdat(&["example"]);
    assert!(out.status.success());
    let path = unique_path("example");
    std::fs::write(&path, out.stdout).expect("temp file writable");
    path
}

#[test]
fn example_document_flows_through_every_command() {
    let path = write_example();
    let path = path.to_str().expect("utf-8 temp path");

    let out = cdat(&["info", path]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("nodes:     5"));
    assert!(text.contains("treelike"));

    let out = cdat(&["cdpf", path]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success());
    assert!(text.contains("4 Pareto-optimal points"), "{text}");
    assert!(text.contains("310"));
    assert!(text.contains("place bomb, force door"));

    let out = cdat(&["cedpf", path]);
    assert!(out.status.success());

    let out = cdat(&["dgc", path, "2"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("damage 200"), "{text}");

    let out = cdat(&["cgd", path, "205"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cost 3"), "{text}");

    let out = cdat(&["minimal", path]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("2 minimal successful attacks"), "{text}");

    let out = cdat(&["rank", path, "2"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("defend cyberattack"), "{text}");

    let out = cdat(&["dot", path]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("digraph"), "{text}");

    let _ = std::fs::remove_file(path);
}

#[test]
fn helpful_errors_and_exit_codes() {
    // No arguments → usage on stderr-free help path.
    let out = cdat(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("usage"));

    // Unknown command.
    let path = write_example();
    let out = cdat(&["frobnicate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown command"));

    // Missing file.
    let out = cdat(&["cdpf", "/nonexistent/tree.cdat"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("cannot read"));

    // Parse error with a line number.
    let bad = unique_path("bad");
    std::fs::write(&bad, "or root\n  zap x\n").unwrap();
    let out = cdat(&["cdpf", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&path);

    // Missing numeric argument.
    let path = write_example();
    let out = cdat(&["dgc", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("missing budget"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dag_documents_dispatch_to_the_fused_backend() {
    // Render the data-server model to a file through the library, then
    // analyze it through the CLI.
    let text = cdat_format::write_cd(&cdat_models::dataserver());
    let path = unique_path("dag");
    std::fs::write(&path, text).unwrap();
    let path_str = path.to_str().unwrap();

    let out = cdat(&["info", path_str]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DAG-like"), "{text}");
    assert!(text.contains("BddFused"), "{text}");

    let out = cdat(&["cdpf", path_str]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("6 Pareto-optimal points"), "{text}");
    assert!(text.contains("82.8"), "{text}");

    // The probabilistic DAG query — open in the paper — now solves through
    // the fused backend (all probabilities default to 1, so the expected
    // damages equal the deterministic ones).
    let out = cdat(&["cedpf", path_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("6 Pareto-optimal points"), "{text}");
    assert!(text.contains("82.8"), "{text}");

    let _ = std::fs::remove_file(&path);
}

/// A negative budget must be a clean error, not a silent ranking against
/// damage 0.
#[test]
fn rank_rejects_negative_budgets() {
    let path = write_example();
    let out = cdat(&["rank", path.to_str().unwrap(), "-1"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("budget must be nonnegative"), "{err}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("undefended damage"), "no partial ranking output:\n{stdout}");
    let _ = std::fs::remove_file(&path);
}

/// Writes a generated multi-document suite (105 treelike trees) for the
/// batch tests.
fn write_generated_suite() -> PathBuf {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let suite = cdat_gen::generate_suite(cdat_gen::SuiteConfig {
        treelike: true,
        max_target: 35,
        per_target: 3,
        seed: 31,
    });
    let mut rng = StdRng::seed_from_u64(32);
    let decorated: Vec<(String, cdat::CdpAttackTree)> = suite
        .into_iter()
        .enumerate()
        .map(|(i, t)| (format!("t{i}"), cdat_gen::decorate_prob(t, &mut rng)))
        .collect();
    let text =
        cdat_format::write_multi(decorated.iter().map(|(name, tree)| (Some(name.as_str()), tree)));
    let path = unique_path("suite");
    std::fs::write(&path, text).expect("temp file writable");
    path
}

/// The acceptance criterion of the batch engine: over a ≥100-tree suite,
/// stdout is byte-identical whatever the worker count.
#[test]
fn batch_output_is_byte_identical_across_worker_counts() {
    let path = write_generated_suite();
    let path_str = path.to_str().unwrap();
    let run = |workers: &str| {
        let out = cdat(&["batch", path_str, "--workers", workers, "--cdpf", "--dgc", "10"]);
        assert!(out.status.success(), "workers={workers}");
        let summary = String::from_utf8(out.stderr).unwrap();
        assert!(summary.contains("210 requests over 105 documents"), "{summary}");
        out.stdout
    };
    let reference = run("1");
    assert_eq!(reference, run("2"), "2 workers must reproduce 1-worker bytes");
    assert_eq!(reference, run("8"), "8 workers must reproduce 1-worker bytes");

    let text = String::from_utf8(reference).unwrap();
    assert_eq!(text.lines().count(), 210, "one JSON line per (document × query)");
    assert!(text.lines().all(|l| l.starts_with("{\"doc\":") && l.ends_with('}')), "JSON lines");
    assert!(text.contains("\"name\":\"t0\""));
    assert!(text.contains("\"query\":\"dgc\",\"arg\":10"));
    let _ = std::fs::remove_file(&path);
}

/// Structurally duplicate documents are answered from the front cache.
#[test]
fn batch_deduplicates_identical_documents() {
    let doc = "or root damage=9\n  bas x cost=2\n  bas y cost=3 damage=1\n";
    let path = unique_path("dup");
    std::fs::write(&path, format!("--- a\n{doc}--- b\n{doc}")).unwrap();
    let out = cdat(&["batch", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"cache\":\"miss\""), "{text}");
    assert!(lines[1].contains("\"cache\":\"hit\""), "{text}");
    assert!(String::from_utf8(out.stderr).unwrap().contains("1 fronts computed"));
    let _ = std::fs::remove_file(&path);
}

/// `--witnesses` adds witness arrays in each document's own numbering —
/// including on a renamed, BAS-reordered duplicate answered from the
/// other document's cache entry.
#[test]
fn batch_witnesses_translate_across_deduplicated_documents() {
    // The same two-BAS tree twice, with the BAS declaration order (hence
    // BAS ids) swapped in document b.
    let doc_a = "or root damage=9\n  bas x cost=2\n  bas y cost=3 damage=1\n";
    let doc_b = "or top damage=9\n  bas u cost=3 damage=1\n  bas v cost=2\n";
    let path = unique_path("wit");
    std::fs::write(&path, format!("--- a\n{doc_a}--- b\n{doc_b}")).unwrap();
    let out = cdat(&["batch", path.to_str().unwrap(), "--witnesses"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    // Front {(0,0),(2,9),(3,10)}: witnesses ∅, {cost-2 BAS}, {cost-3 BAS}
    // ({both} is dominated). The cost-2 BAS is id 0 in document a but id 1
    // in document b — the translated witnesses must follow.
    assert!(lines[0].contains("\"cache\":\"miss\""), "{text}");
    assert!(
        lines[0].contains("\"front\":[[0,0],[2,9],[3,10]],\"witnesses\":[[],[0],[1]]"),
        "{text}"
    );
    assert!(lines[1].contains("\"cache\":\"hit\""), "{text}");
    assert!(
        lines[1].contains("\"front\":[[0,0],[2,9],[3,10]],\"witnesses\":[[],[1],[0]]"),
        "{text}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Batch flag validation and solver hints: DAG documents solve in-band
/// through the fused backend, and incompatible hints report per-request
/// errors while the batch keeps going.
#[test]
fn batch_flags_and_solver_hints() {
    let out = cdat(&["batch", "/nonexistent/suite.cdat"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("cannot read"));

    let path = write_generated_suite();
    let path_str = path.to_str().unwrap();
    let out = cdat(&["batch", path_str, "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown batch flag"));
    let out = cdat(&["batch", path_str, "--workers", "0"]);
    assert!(!out.status.success());
    let out = cdat(&["batch", path_str, "--dgc"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--dgc needs a budget"));
    let out = cdat(&["batch", path_str, "--solver", "frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown solver"));
    let _ = std::fs::remove_file(&path);

    // A DAG document solves under every query family (the probabilistic
    // family through the fused backend; the paper left it open).
    let dag = "or root\n  and g1\n    bas x cost=1\n    bas y cost=2\n  and g2\n    ref x\n    bas z cost=3\n";
    let path = unique_path("dagsuite");
    std::fs::write(&path, dag).unwrap();
    let out = cdat(&["batch", path.to_str().unwrap(), "--cedpf", "--cdpf"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"query\":\"cedpf\",\"cache\":\"miss\",\"front\":"), "{text}");
    assert!(text.contains("\"query\":\"cdpf\",\"cache\":\"miss\",\"front\":"), "{text}");

    // An explicit bottom-up hint on the same DAG errors in-band.
    let out = cdat(&["batch", path.to_str().unwrap(), "--cdpf", "--solver", "bottomup"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"error\":\"the bottom-up solver requires a treelike tree"), "{text}");

    // An explicit --solver bdd reproduces the auto-dispatched bytes.
    let auto = cdat(&["batch", path.to_str().unwrap(), "--cdpf"]);
    let bdd = cdat(&["batch", path.to_str().unwrap(), "--cdpf", "--solver", "bdd"]);
    assert!(bdd.status.success());
    assert_eq!(auto.stdout, bdd.stdout, "hints must not change what is computed");
    let _ = std::fs::remove_file(&path);
}

/// `--cache-stats` prints the cache counters (including the eviction
/// counter) to stderr, and a tight `--cache-budget` makes evictions
/// nonzero without changing a byte of stdout.
#[test]
fn batch_cache_stats_and_budget() {
    let path = write_generated_suite();
    let path_str = path.to_str().unwrap();

    let out = cdat(&["batch", path_str, "--cache-stats"]);
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    let stats = err.lines().find(|l| l.starts_with("cache-stats:")).expect("stats line");
    assert!(stats.contains("hits="), "{stats}");
    assert!(stats.contains("evictions=0"), "unbudgeted runs never evict: {stats}");
    let unbudgeted = out.stdout;

    let out = cdat(&["batch", path_str, "--cache-budget", "16", "--cache-stats"]);
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    let stats = err.lines().find(|l| l.starts_with("cache-stats:")).expect("stats line");
    let evictions: u64 = stats
        .split("evictions=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no eviction count in {stats}"));
    assert!(evictions > 0, "105 fronts against 16 points must evict: {stats}");
    let points: u64 = stats
        .split("points=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(points <= 16, "{stats}");
    assert_eq!(out.stdout, unbudgeted, "eviction must not change response bytes");
    let _ = std::fs::remove_file(&path);
}

/// Feeding the paper's running example through the full pipeline — `cdat
/// example` → text parse → solve → printed front — reproduces the Figure 3
/// front `{(0, 0), (1, 200), (3, 210), (5, 310)}` exactly.
#[test]
fn example_document_reproduces_the_figure_3_front() {
    // Library level: the exact front, in the paper's set notation.
    let out = cdat(&["example"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let cdp = cdat_format::parse(&text).expect("example document parses");
    let front = cdat::solve::cdpf(cdp.cd()).unwrap();
    assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}");

    // CLI level: the printed table shows the same four points, one per row.
    let path = write_example();
    let out = cdat(&["cdpf", path.to_str().unwrap()]);
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("4 Pareto-optimal points"), "{table}");
    for (cost, damage) in [("0", "0"), ("1", "200"), ("3", "210"), ("5", "310")] {
        let row = table.lines().find(|l| {
            let mut cols = l.split_whitespace();
            cols.next() == Some(cost) && cols.next() == Some(damage)
        });
        assert!(row.is_some(), "missing front point ({cost}, {damage}) in:\n{table}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Parses one `name=value` counter out of a `cache-stats:` stderr line.
fn stat_of(stderr: &[u8], name: &str) -> u64 {
    let err = String::from_utf8_lossy(stderr);
    let stats = err.lines().find(|l| l.starts_with("cache-stats:")).expect("stats line");
    stats
        .split(&format!("{name}="))
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {stats}"))
}

/// A second `cdat batch --store` run on the same store file answers from
/// disk (`disk_hits > 0`) with stdout byte-identical to the cold run and
/// to a storeless run — witnesses included, since they ride through the
/// store in canonical positions and translate on the way out.
#[test]
fn batch_store_warm_restart_is_byte_identical() {
    let suite = write_generated_suite();
    let store = unique_path("store");
    let suite_str = suite.to_str().unwrap();
    let store_str = store.to_str().unwrap();
    let flags = ["--workers", "2", "--witnesses", "--cache-stats"];

    let storeless = cdat(&[&["batch", suite_str], &flags[..]].concat());
    assert!(storeless.status.success());

    let cold = cdat(&[&["batch", suite_str, "--store", store_str], &flags[..]].concat());
    assert!(cold.status.success());
    assert_eq!(cold.stdout, storeless.stdout, "the store must not change a byte of stdout");
    assert_eq!(stat_of(&cold.stderr, "disk_hits"), 0, "a fresh store cannot answer");
    assert!(stat_of(&cold.stderr, "disk_entries") > 0, "computed fronts must persist");

    let warm = cdat(&[&["batch", suite_str, "--store", store_str], &flags[..]].concat());
    assert!(warm.status.success());
    assert_eq!(warm.stdout, cold.stdout, "warm restart must reproduce the cold bytes");
    assert!(stat_of(&warm.stderr, "disk_hits") > 0, "the second run must answer from disk");

    let _ = std::fs::remove_file(&suite);
    let _ = std::fs::remove_file(&store);
}

/// Every corruption shape — flipped byte, truncated tail, garbage file,
/// zero-length file — recovers to a cold-but-working cache: the run exits
/// zero and its stdout agrees byte-for-byte with a storeless run.
#[test]
fn batch_store_corruption_recovers_to_a_cold_cache() {
    let suite = write_generated_suite();
    let store = unique_path("store-corrupt");
    let suite_str = suite.to_str().unwrap();
    let store_str = store.to_str().unwrap();

    let storeless = cdat(&["batch", suite_str]);
    assert!(storeless.status.success());
    assert!(cdat(&["batch", suite_str, "--store", store_str]).status.success());

    let pristine = std::fs::read(&store).unwrap();
    assert!(pristine.len() > 64, "the store holds real records");
    let corruptions: [(&str, Vec<u8>); 4] = [
        ("flipped byte", {
            let mut bytes = pristine.clone();
            let middle = bytes.len() / 2;
            bytes[middle] ^= 0x40;
            bytes
        }),
        ("truncated tail", pristine[..pristine.len() - 7].to_vec()),
        ("garbage file", b"this is not a cdat store at all".to_vec()),
        ("zero-length file", Vec::new()),
    ];
    for (label, bytes) in corruptions {
        std::fs::write(&store, bytes).unwrap();
        let out = cdat(&["batch", suite_str, "--store", store_str]);
        assert!(out.status.success(), "{label}: batch must not fail");
        assert_eq!(out.stdout, storeless.stdout, "{label}: answers must match storeless run");
    }

    let _ = std::fs::remove_file(&suite);
    let _ = std::fs::remove_file(&store);
}

/// `cdat query --store` answers a suite locally through the store — no
/// server — and a repeat invocation (a fresh process, warm store) prints
/// the same bytes.
#[test]
fn query_local_store_mode_answers_without_a_server() {
    let suite = write_generated_suite();
    let store = unique_path("store-query");
    let suite_str = suite.to_str().unwrap();
    let store_str = store.to_str().unwrap();

    let args = ["query", "--store", store_str, suite_str, "--cdpf", "--dgc", "5"];
    let cold = cdat(&args);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let text = String::from_utf8(cold.stdout.clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 * 105, "two queries over the 105-document suite");
    assert!(
        lines[0].starts_with("{\"id\":0,\"doc\":0,\"name\":\"t0\",\"query\":\"cdpf\""),
        "{}",
        lines[0]
    );
    assert!(lines.iter().all(|l| l.ends_with('}')));

    let warm = cdat(&args);
    assert!(warm.status.success());
    assert_eq!(warm.stdout, cold.stdout, "a warm-store rerun prints the same bytes");

    // The flag pair is validated.
    let out = cdat(&["query", "--store", store_str, "--connect", "127.0.0.1:1", suite_str]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
    let out = cdat(&["query", suite_str]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect HOST:PORT or --store PATH"));

    let _ = std::fs::remove_file(&suite);
    let _ = std::fs::remove_file(&store);
}
