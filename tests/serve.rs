//! End-to-end tests of the serving subsystem: `cdat serve` (stdio and
//! TCP), the `cdat query` client, micro-batching determinism and the
//! cache budget.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use cdat::format::json;

fn cdat_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cdat"))
}

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cdat-serve-{tag}-{}-{n}.cdat", std::process::id()))
}

/// A mixed suite: 105 treelike cdp-ATs plus 5 DAG-like ones, so both
/// solver backends and the probabilistic-DAG error path are exercised.
fn mixed_suite() -> Vec<(String, cdat::CdpAttackTree)> {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(91);
    let mut docs: Vec<(String, cdat::CdpAttackTree)> = Vec::new();
    let trees = cdat_gen::generate_suite(cdat_gen::SuiteConfig {
        treelike: true,
        max_target: 35,
        per_target: 3,
        seed: 90,
    });
    for (i, tree) in trees.into_iter().enumerate() {
        docs.push((format!("t{i}"), cdat_gen::decorate_prob(tree, &mut rng)));
    }
    let dags = cdat_gen::generate_suite(cdat_gen::SuiteConfig {
        treelike: false,
        max_target: 12,
        per_target: 1,
        seed: 93,
    });
    for (i, tree) in dags.into_iter().take(5).enumerate() {
        docs.push((format!("d{i}"), cdat_gen::decorate_prob(tree, &mut rng)));
    }
    docs
}

fn write_suite(docs: &[(String, cdat::CdpAttackTree)]) -> PathBuf {
    let text = cdat_format::write_multi(docs.iter().map(|(n, t)| (Some(n.as_str()), t)));
    let path = unique_path("suite");
    std::fs::write(&path, text).expect("temp file writable");
    path
}

/// Spawns `cdat serve --stdio`, feeds it `input`, and returns all response
/// lines (completion order). Stdin is written from a thread so a filling
/// stdout pipe can never deadlock the test.
fn serve_stdio(args: &[&str], input: impl Into<Vec<u8>>) -> Vec<String> {
    let input = input.into();
    let mut child = cdat_bin()
        .arg("serve")
        .arg("--stdio")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
        // Dropping stdin sends EOF: the server flushes and exits.
    });
    let output = child.wait_with_output().expect("serve exits at EOF");
    feeder.join().unwrap();
    assert!(output.status.success(), "serve exited with {:?}", output.status);
    String::from_utf8(output.stdout).unwrap().lines().map(str::to_owned).collect()
}

/// Extracts the integer after `"<field>":` (requests in these tests use
/// numeric ids).
fn int_field(line: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = line.find(&needle).unwrap_or_else(|| panic!("no {field} in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {field} in {line}"))
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("binary runs")
}

/// The acceptance criterion: a 210-request mixed suite served through
/// `cdat serve` yields byte-identical response bodies to `cdat batch` on
/// the same suite, regardless of shard count and batch window.
#[test]
fn serve_matches_batch_bytes_across_shards_and_windows() {
    let docs = mixed_suite();
    let path = write_suite(&docs);
    let path_str = path.to_str().unwrap();

    // Reference: batch output, normalized by dropping the doc/name/cache
    // fields (serve responses carry the id instead).
    let out = run(cdat_bin().args(["batch", path_str, "--cdpf", "--cedpf"]));
    assert!(out.status.success());
    let reference: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let rest = &line[line.find("\"query\"").unwrap()..];
            let rest = rest.replacen("\"cache\":\"hit\",", "", 1);
            let rest = rest.replacen("\"cache\":\"miss\",", "", 1);
            format!("{{{rest}")
        })
        .collect();
    assert_eq!(reference.len(), 220, "110 documents x 2 queries");

    // The same 220 requests as individual tree requests, ids in batch
    // order (doc-major, then query).
    let mut input = String::new();
    for (doc, (_, tree)) in docs.iter().enumerate() {
        let text = json::escape(&cdat_format::write(tree));
        for (qi, query) in ["cdpf", "cedpf"].iter().enumerate() {
            input.push_str(&format!(
                "{{\"id\":{},\"tree\":\"{text}\",\"query\":\"{query}\"}}\n",
                2 * doc + qi
            ));
        }
    }

    for (shards, window_us) in [("1", "1000"), ("2", "0"), ("8", "3000")] {
        let mut lines = serve_stdio(
            &["--workers", shards, "--batch-window-us", window_us, "--batch-max", "32"],
            input.clone(),
        );
        assert_eq!(lines.len(), reference.len(), "workers={shards}");
        lines.sort_by_key(|line| int_field(line, "id"));
        for (i, (line, expect)) in lines.iter().zip(&reference).enumerate() {
            let body = &line[line.find("\"query\"").unwrap()..];
            let expect_body = &expect[expect.find("\"query\"").unwrap()..];
            assert_eq!(body, expect_body, "request {i}, workers={shards} window={window_us}us");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Witnessed serving matches witnessed batch byte-for-byte: `cdat batch
/// --witnesses` and serve requests with `"witnesses":true` carry identical
/// response bodies on a mixed suite (and the witness arrays actually
/// appear on every front).
#[test]
fn witnessed_serve_matches_witnessed_batch_bytes() {
    let docs = mixed_suite();
    let docs = &docs[..40];
    let path = write_suite(docs);
    let path_str = path.to_str().unwrap();

    let out = run(cdat_bin().args(["batch", path_str, "--cdpf", "--dgc", "6", "--witnesses"]));
    assert!(out.status.success());
    let reference: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let rest = &line[line.find("\"query\"").unwrap()..];
            let rest = rest.replacen("\"cache\":\"hit\",", "", 1);
            let rest = rest.replacen("\"cache\":\"miss\",", "", 1);
            format!("{{{rest}")
        })
        .collect();
    assert_eq!(reference.len(), 80, "40 documents x 2 queries");
    let witnessed = reference.iter().filter(|l| l.contains("\"witnesses\":[")).count();
    assert_eq!(witnessed, 40, "every front response must carry a witnesses array");

    let mut input = String::new();
    for (doc, (_, tree)) in docs.iter().enumerate() {
        let text = json::escape(&cdat_format::write(tree));
        input.push_str(&format!(
            "{{\"id\":{},\"tree\":\"{text}\",\"query\":\"cdpf\",\"witnesses\":true}}\n",
            2 * doc
        ));
        input.push_str(&format!(
            "{{\"id\":{},\"tree\":\"{text}\",\"query\":\"dgc\",\"arg\":6,\"witnesses\":true}}\n",
            2 * doc + 1
        ));
    }
    let mut lines =
        serve_stdio(&["--workers", "4", "--batch-window-us", "500", "--batch-max", "16"], input);
    assert_eq!(lines.len(), reference.len());
    lines.sort_by_key(|line| int_field(line, "id"));
    for (i, (line, expect)) in lines.iter().zip(&reference).enumerate() {
        let body = &line[line.find("\"query\"").unwrap()..];
        let expect_body = &expect[expect.find("\"query\"").unwrap()..];
        assert_eq!(body, expect_body, "request {i}: witnessed serve and batch bytes differ");
    }
    let _ = std::fs::remove_file(&path);
}

/// The cache budget holds while serving: after every wave of requests the
/// total cached points stay within `--cache-budget`, and a stream of
/// distinct trees forces evictions.
#[test]
fn serve_cache_budget_bounds_points_and_evicts() {
    use rand::prelude::*;
    use rand::rngs::StdRng;

    let budget = 64u64;
    let mut child = cdat_bin()
        .args(["serve", "--stdio", "--workers", "4", "--batch-window-us", "0"])
        .args(["--cache-budget", &budget.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut lines = stdout.lines();
    let mut next_line = || lines.next().expect("line available").expect("utf-8 line");

    let mut rng = StdRng::seed_from_u64(77);
    let mut evictions_seen = 0u64;
    for wave in 0..6 {
        // 12 distinct random trees per wave, answered before the next wave
        // is sent (so the stats snapshot below sees a quiet server).
        let mut input = String::new();
        for i in 0..12 {
            let tree = cdat_gen::random_small(&mut rng, 7, true);
            let cdp = cdat_gen::decorate_prob(tree, &mut rng);
            let text = json::escape(&cdat_format::write(&cdp));
            input.push_str(&format!("{{\"id\":{i},\"tree\":\"{text}\"}}\n"));
        }
        stdin.write_all(input.as_bytes()).unwrap();
        stdin.flush().unwrap();
        for _ in 0..12 {
            let line = next_line();
            assert!(line.contains("\"front\":"), "wave {wave}: {line}");
        }

        stdin.write_all(b"{\"op\":\"stats\",\"id\":99}\n").unwrap();
        stdin.flush().unwrap();
        let stats_line = next_line();
        let value = json::parse(&stats_line).expect("stats line is JSON");
        let stats = value.get("stats").expect("stats object");
        let points = stats.get("points").and_then(json::Value::as_f64).unwrap() as u64;
        evictions_seen = stats.get("evictions").and_then(json::Value::as_f64).unwrap() as u64;
        assert!(points <= budget, "wave {wave}: {points} points exceed budget {budget}");
    }
    assert!(evictions_seen > 0, "72 distinct trees against {budget} points must evict");

    drop(stdin);
    assert!(child.wait().expect("serve exits").success());
}

/// TCP serving: `cdat query --connect` against a live `cdat serve --addr`
/// reproduces `cdat batch` bytes on the same suite.
#[test]
fn tcp_serve_and_query_client_match_batch() {
    let docs = mixed_suite();
    let path = write_suite(&docs[..20]); // a lighter suite keeps this quick
    let path_str = path.to_str().unwrap();

    let mut child: Child = cdat_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--batch-window-us", "200"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let announce = stderr.lines().next().expect("announce line").expect("utf-8");
    let addr = announce.strip_prefix("cdat-serve: listening on ").expect("announce format");

    let out = run(cdat_bin().args([
        "query",
        "--connect",
        addr,
        path_str,
        "--cdpf",
        "--dgc",
        "4",
        "--witnesses",
    ]));
    let _ = child.kill();
    let _ = child.wait();
    assert!(out.status.success(), "query failed: {}", String::from_utf8_lossy(&out.stderr));
    let served = String::from_utf8(out.stdout).unwrap();
    let witnessed = served.lines().filter(|l| l.contains("\"witnesses\":[")).count();
    assert_eq!(witnessed, 20, "--witnesses must reach every front response");

    let batch = run(cdat_bin().args(["batch", path_str, "--cdpf", "--dgc", "4", "--witnesses"]));
    assert!(batch.status.success());
    let batch = String::from_utf8(batch.stdout).unwrap();

    // Same multiset of (doc, name, query, body): normalize both sides to
    // `doc...` (drop the id on served lines, the cache field on batch
    // lines) and compare as sorted sets.
    let mut served: Vec<String> = served
        .lines()
        .map(|l| l[l.find("\"doc\"").unwrap_or_else(|| panic!("no doc in {l}"))..].to_owned())
        .collect();
    let mut expected: Vec<String> = batch
        .lines()
        .map(|l| {
            let l = l.replacen("\"cache\":\"hit\",", "", 1);
            let l = l.replacen("\"cache\":\"miss\",", "", 1);
            l[l.find("\"doc\"").unwrap()..].to_owned()
        })
        .collect();
    served.sort();
    expected.sort();
    assert_eq!(served.len(), 40, "20 documents x 2 queries");
    assert_eq!(served, expected);
    let _ = std::fs::remove_file(&path);
}

/// Protocol-level odds and ends over stdio: solver hints, parse errors
/// with echoed ids, suite requests, and the stats op shape.
/// Hostile request text gets one bounded error line: a megabyte-long op
/// name, query name or tree-line keyword is quoted truncated (its first
/// characters, `...` and its byte length), never echoed whole.
#[test]
fn oversized_request_text_answers_one_short_error_line() {
    let big = "x".repeat(1 << 20);
    let input = format!(
        "{{\"id\":0,\"op\":\"{big}\"}}\n\
         {{\"id\":1,\"tree\":\"or g damage=7\\n  bas x cost=3\\n\",\"query\":\"{big}\"}}\n\
         {{\"id\":2,\"tree\":\"{big} g\\n\"}}\n"
    );
    let mut lines = serve_stdio(&["--workers", "2"], input);
    lines.sort_by_key(|line| int_field(line, "id"));
    assert_eq!(lines.len(), 3, "one answer per request");
    for (line, what) in lines.iter().zip(["unknown op", "unknown query", "found"]) {
        assert!(line.len() < 1024, "a {}-byte error line: {line:.200}", line.len());
        assert!(line.contains("\"error\":"), "{line}");
        assert!(line.contains(what), "{line}");
        assert!(line.contains("... (1048576 bytes)"), "{line}");
    }
}

/// Splits a session's answers into the `null`-id error lines and the
/// other lines sorted by id.
fn null_id_errors_and_answers(lines: Vec<String>) -> (Vec<String>, Vec<String>) {
    let (errors, mut answers): (Vec<String>, Vec<String>) =
        lines.into_iter().partition(|line| line.starts_with("{\"id\":null,\"error\":"));
    answers.sort_by_key(|line| int_field(line, "id"));
    (errors, answers)
}

/// A line that is not UTF-8 gets one error line; the lines after it are
/// still read and answered.
#[test]
fn a_non_utf8_line_answers_an_error_and_reading_goes_on() {
    let mut input = b"{\"id\":1,\"tree\":\"or g damage=7\\n  bas x cost=3\\n\"}\n".to_vec();
    input.extend_from_slice(b"{\"id\":2,\"tree\":\"or \xFF\"}\n");
    input.extend_from_slice(b"{\"id\":3,\"tree\":\"or g damage=7\\n  bas x cost=3\\n\"}\r\n");
    let (errors, answers) = null_id_errors_and_answers(serve_stdio(&[], input));
    assert_eq!(
        errors,
        ["{\"id\":null,\"error\":\"request line is not valid UTF-8 (invalid byte at 19)\"}"]
    );
    assert_eq!(
        answers,
        [
            "{\"id\":1,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}",
            "{\"id\":3,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}",
        ]
    );
}

/// A line over `MAX_REQUEST_LINE` bytes gets one short error line and is
/// skipped to its newline; the next line is read and answered.
#[test]
fn an_oversized_line_answers_one_short_error_and_reading_goes_on() {
    let good =
        |id: u32| format!("{{\"id\":{id},\"tree\":\"or g damage=7\\n  bas x cost=3\\n\"}}\n");
    let big = "x".repeat(17 << 20);
    let input = format!("{}{{\"id\":2,\"tree\":\"{big}\"}}\n{}", good(1), good(3));
    let (errors, answers) = null_id_errors_and_answers(serve_stdio(&[], input));
    assert_eq!(
        errors,
        [format!(
            "{{\"id\":null,\"error\":\"request line longer than {} bytes\"}}",
            cdat::server::MAX_REQUEST_LINE
        )]
    );
    assert!(errors[0].len() < 1024);
    assert_eq!(answers.len(), 2, "{answers:?}");
    assert_eq!(int_field(&answers[1], "id"), 3);
}

#[test]
fn stdio_protocol_handles_hints_errors_and_suites() {
    let input = concat!(
        // The retired BILP backend's name is an alias of auto.
        r#"{"id":0,"tree":"or g damage=7\n  bas x cost=3\n","solver":"bilp"}"#,
        "\n",
        r#"{"id":1,"tree":"or g damage=7\n  bas x cost=3\n"}"#,
        "\n",
        // Bottom-up on a DAG: a per-request error, served in-band.
        r#"{"id":2,"tree":"or r\n  and g1\n    bas x cost=1\n    bas y\n  and g2\n    ref x\n    bas z\n","solver":"bottomup"}"#,
        "\n",
        // A parse error inside a suite carries whole-file line numbers.
        r#"{"id":3,"suite":"--- ok\nor a damage=1\n  bas b cost=1\n--- broken\nzap\n"}"#,
        "\n",
        // A two-document suite fans out.
        r#"{"id":4,"suite":"--- p\nor g damage=1\n  bas x cost=2\n--- q\nor h damage=3\n  bas y cost=4\n"}"#,
        "\n",
    );
    let mut lines = serve_stdio(&["--workers", "2"], input.to_owned());
    lines.sort_by_key(|line| int_field(line, "id"));
    assert_eq!(lines.len(), 6);
    assert_eq!(lines[0], "{\"id\":0,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}");
    assert_eq!(lines[1], "{\"id\":1,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}");
    assert!(lines[2].contains("\"error\":\"the bottom-up solver requires"), "{}", lines[2]);
    assert!(lines[3].contains("\"error\":\"suite: line 5:"), "{}", lines[3]);
    assert_eq!(
        lines[4],
        "{\"id\":4,\"doc\":0,\"name\":\"p\",\"query\":\"cdpf\",\"front\":[[0,0],[2,1]]}"
    );
    assert_eq!(
        lines[5],
        "{\"id\":4,\"doc\":1,\"name\":\"q\",\"query\":\"cdpf\",\"front\":[[0,0],[4,3]]}"
    );

    // `bilp` names the retired BILP backend and is an alias of `auto`:
    // every query on either shape answers the bytes of the unhinted
    // request, witnesses included (the alias goes first on the treelike
    // tree, second on the DAG, so either may compute the shared entry).
    let treelike = r#""tree":"or g damage=7\n  and h damage=2\n    bas x cost=3 prob=0.5\n    bas y cost=1\n  bas z cost=2 damage=4 prob=0.25\n""#;
    let dag = r#""tree":"or r damage=5\n  and g1 damage=2\n    bas x cost=1 prob=0.5\n    bas y cost=2\n  and g2 damage=3\n    ref x\n    bas z cost=1 prob=0.8\n""#;
    let queries = [
        r#""query":"cdpf""#,
        r#""query":"cedpf""#,
        r#""query":"dgc","arg":3"#,
        r#""query":"cgd","arg":4"#,
        r#""query":"edgc","arg":3"#,
        r#""query":"cged","arg":1"#,
        r#""query":"min-time""#,
        r#""query":"max-prob""#,
    ];
    let mut input = String::new();
    let mut id = 0;
    for (tree, alias_first) in [(treelike, true), (dag, false)] {
        for query in queries {
            for alias in [alias_first, !alias_first] {
                let hint = if alias { r#","solver":"bilp""# } else { "" };
                input += &format!("{{\"id\":{id},{tree},{query},\"witnesses\":true{hint}}}\n");
                id += 1;
            }
        }
    }
    let mut lines = serve_stdio(&["--workers", "2"], input);
    lines.sort_by_key(|line| int_field(line, "id"));
    assert_eq!(lines.len(), 32);
    let body = |line: &str| line.split_once(',').expect("id, then the body").1.to_owned();
    for pair in lines.chunks(2) {
        assert!(!pair[0].contains("\"error\""), "{}", pair[0]);
        assert_eq!(body(&pair[0]), body(&pair[1]), "{pair:?}");
    }
}

/// Two sweeps in flight at once on a 2-shard router, whose shards each
/// fan their sweep out over two threads: each sweep's replies come back on
/// its own channel in patch order, at consecutive sequence numbers, with
/// exactly the lines a 1-shard router answers.
#[test]
fn concurrent_sweeps_on_two_shards_come_back_in_patch_order() {
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    use cdat::engine::{Query, SolverHint, TreePatch};
    use cdat::server::{DeltaRouteRequest, RouteRequest, Router, RouterConfig};
    use cdat::{BasId, NodeId};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    let two = Router::new(RouterConfig { shards: 2, ..RouterConfig::default() }).unwrap();
    let one = Router::new(RouterConfig { shards: 1, ..RouterConfig::default() }).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EE9);
    let shard_of = |tree: &Arc<cdat::CdpAttackTree>| {
        two.shard_of(&RouteRequest {
            tree: tree.clone(),
            query: Query::Cdpf,
            hint: SolverHint::Auto,
            witnesses: true,
            prefix: String::new(),
        })
    };
    // One base tree per shard, so both shards sweep at the same time.
    let mut bases: Vec<Arc<cdat::CdpAttackTree>> = Vec::new();
    while bases.len() < 2 {
        let tree = cdat_gen::random_dag(&mut rng, 40, 0.0);
        let tree = Arc::new(cdat_gen::decorate_prob(tree, &mut rng));
        if bases.iter().all(|b| shard_of(b) != shard_of(&tree)) {
            bases.push(tree);
        }
    }
    let sweeps: Vec<DeltaRouteRequest> = bases
        .iter()
        .enumerate()
        .map(|(id, base)| {
            let tree = base.tree();
            let patches: Vec<TreePatch> = (0..16)
                .map(|k| TreePatch {
                    costs: vec![(BasId::new(k % tree.bas_count()), f64::from(k as u32))],
                    damages: vec![(tree.root(), f64::from(k as u32 * 3))],
                    defends: vec![BasId::new((k * 7) % tree.bas_count())],
                    ..TreePatch::default()
                })
                .chain([TreePatch {
                    damages: vec![(NodeId::new(0), -1.0)],
                    ..TreePatch::default()
                }])
                .collect();
            DeltaRouteRequest {
                tree: base.clone(),
                query: Query::Cdpf,
                witnesses: true,
                prefixes: (0..patches.len())
                    .map(|k| format!("{{\"id\":{id},\"variant\":{k}"))
                    .collect(),
                patches,
            }
        })
        .collect();

    let receivers: Vec<_> = sweeps
        .iter()
        .map(|sweep| {
            let (tx, rx) = channel();
            two.dispatch_delta(100, sweep.clone(), tx);
            rx
        })
        .collect();
    for (sweep, rx) in sweeps.into_iter().zip(receivers) {
        let replies: Vec<(u64, String)> = rx.iter().collect();
        let seqs: Vec<u64> = replies.iter().map(|(seq, _)| *seq).collect();
        let want: Vec<u64> = (100..100 + sweep.patches.len() as u64).collect();
        assert_eq!(seqs, want, "replies arrive in patch order");
        let lines: Vec<String> = replies.into_iter().map(|(_, line)| line).collect();
        assert!(lines.last().unwrap().contains("\"error\""), "the bad patch answers in place");
        assert_eq!(lines, one.sweep(sweep), "2-shard lines equal 1-shard lines");
    }
}
