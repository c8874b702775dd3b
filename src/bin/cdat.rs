//! `cdat` — command-line cost-damage analysis of attack trees.
//!
//! ```text
//! cdat info    <tree.cdat>              shape, sizes, attribute summary
//! cdat cdpf    <tree.cdat>              cost-damage Pareto front (+witnesses)
//! cdat cedpf   <tree.cdat>              cost-expected-damage front (+witnesses)
//! cdat dgc     <tree.cdat> <budget>     max damage within a cost budget
//! cdat cgd     <tree.cdat> <threshold>  min cost reaching a damage threshold
//! cdat minimal <tree.cdat>              minimal successful attacks
//! cdat rank    <tree.cdat> <budget>     best single-BAS defenses
//! cdat dot     <tree.cdat>              Graphviz export (stdout)
//! cdat batch   <suite.cdat> [flags]     parallel batch solve (JSON lines)
//! cdat whatif  <tree.cdat> [edits]      incremental solve of a patched variant
//! cdat serve   [flags]                  long-running query server (stdio/TCP)
//! cdat query   --connect <addr> <suite> client for a running `cdat serve`
//! cdat gen     [flags]                  print a generated DAG-heavy suite
//! cdat example                          print a sample document
//! ```
//!
//! Documents use the `cdat-format` text format; see `cdat example`. `batch`
//! reads a multi-document suite (`---`-separated trees), fans the requested
//! queries over a worker pool with a memoizing front cache, and writes one
//! JSON object per request to stdout — byte-identical output whatever
//! `--workers` says (timings only appear under `--timings`). `--witnesses`
//! adds witness attacks as BAS-id arrays in each document's own numbering,
//! translated from the shared cache entry when documents deduplicate.
//! `serve` keeps the same engine warm behind a micro-batching,
//! shard-by-hash JSON-lines protocol (`cdat::serve`); its responses carry
//! the same bytes as `batch`, witnesses included. `whatif` solves one
//! patched variant of a tree through the incremental what-if engine (only
//! nodes on dirty root paths recompute; answers stay byte-identical to
//! scratch solves), and `query --sweep` streams a whole patch list the
//! same way — locally or against a running server.

use std::process::ExitCode;
use std::time::Duration;

use cdat::serve::{protocol, ServeConfig};
use cdat::{format::json, solve, CdpAttackTree, FrontEntry, ParetoFront};

const EXAMPLE: &str = r#"# cdat attack-tree document (the paper's running example).
# <kind> <name> [cost=..] [damage=..] [prob=..]; children indented below;
# `ref <name>` shares an already-declared node (DAG-like trees).
or "production shutdown" damage=200
  bas cyberattack cost=1 prob=0.2
  and "destroy robot" damage=100
    bas "place bomb" cost=3 prob=0.4
    bas "force door" cost=2 damage=10 prob=0.9
"#;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    if command == "help" || command == "--help" || command == "-h" {
        print!("{}", usage());
        return Ok(());
    }
    if command == "example" {
        print!("{EXAMPLE}");
        return Ok(());
    }
    if command == "gen" {
        return gen(&args[1..]);
    }
    if command == "batch" {
        return batch(&args[1..]);
    }
    if command == "whatif" {
        return whatif(&args[1..]);
    }
    if command == "serve" {
        return serve(&args[1..]);
    }
    if command == "query" {
        return query(&args[1..]);
    }
    let path = args.get(1).ok_or_else(|| format!("missing file argument\n{}", usage()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cdp = cdat_format::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let number = |i: usize, what: &str| -> Result<f64, String> {
        args.get(i)
            .ok_or_else(|| format!("missing {what} argument"))?
            .parse()
            .map_err(|_| format!("{what} must be a number"))
    };

    match command {
        "info" => info(&cdp),
        "cdpf" => print_front(&cdp, &solve::cdpf(cdp.cd()).map_err(|e| e.to_string())?),
        "cedpf" => print_front(&cdp, &solve::cedpf(&cdp).map_err(|e| e.to_string())?),
        "dgc" => {
            let budget = number(2, "budget")?;
            match solve::dgc(cdp.cd(), budget).map_err(|e| e.to_string())? {
                Some(e) => print_entry(&cdp, &e, "max damage"),
                None => println!("no attack fits the budget (budget is negative)"),
            }
        }
        "cgd" => {
            let threshold = number(2, "threshold")?;
            match solve::cgd(cdp.cd(), threshold).map_err(|e| e.to_string())? {
                Some(e) => print_entry(&cdp, &e, "min cost"),
                None => println!("unreachable: maximal damage is {}", cdp.cd().max_damage()),
            }
        }
        "minimal" => {
            let attacks = cdat_analysis::minimal_attacks(cdp.tree());
            println!("{} minimal successful attacks:", attacks.len());
            for a in attacks {
                println!(
                    "  cost {:>8}  {}",
                    cdp.cd().cost_of(&a),
                    attack_names(&cdp, &a).join(", ")
                );
            }
        }
        "rank" => {
            let budget = number(2, "budget")?;
            let undefended = solve::dgc(cdp.cd(), budget)
                .map_err(|e| e.to_string())?
                .map(|e| e.point.damage)
                .ok_or_else(|| format!("budget must be nonnegative, got {budget}"))?;
            println!("undefended damage within budget {budget}: {undefended}");
            println!("single-BAS defenses, best first:");
            for e in cdat_analysis::rank_single_defenses(cdp.cd(), budget) {
                println!(
                    "  defend {:<40} residual damage {:>8} (max {:>8})",
                    e.name, e.residual_damage, e.residual_max_damage
                );
            }
        }
        "dot" => print!("{}", cdat::core::to_dot_cdp(&cdp)),
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    }
    Ok(())
}

fn usage() -> String {
    let mut s = String::from("usage: cdat <command> <tree.cdat> [args]\n\ncommands:\n");
    for (cmd, help) in [
        ("info    <file>", "shape, sizes, attribute summary"),
        ("cdpf    <file>", "cost-damage Pareto front with witness attacks"),
        ("cedpf   <file>", "cost-expected-damage front with witness attacks"),
        ("dgc     <file> <budget>", "max damage within a cost budget"),
        ("cgd     <file> <threshold>", "min cost reaching a damage threshold"),
        ("minimal <file>", "minimal successful attacks"),
        ("rank    <file> <budget>", "rank single-BAS defenses by residual damage"),
        ("dot     <file>", "Graphviz export"),
        ("batch   <suite> [flags]", "parallel batch solve of a multi-tree suite"),
        ("whatif  <file> [edits] [query]", "incremental solve of a patched variant"),
        ("serve   [flags]", "long-running micro-batching query server"),
        ("query   --connect <addr> <suite> [flags]", "client for a running serve"),
        ("gen     [flags]", "print a generated DAG-heavy suite (deterministic)"),
        ("example", "print a sample document"),
    ] {
        s.push_str(&format!("  {cmd:<28} {help}\n"));
    }
    s.push_str(
        "\nbatch flags:\n  \
         --workers N        worker threads (default: available parallelism)\n  \
         --witnesses        include witness attacks (BAS-id arrays in each\n                     \
         document's own numbering, translated from the\n                     \
         shared cache entry when documents deduplicate)\n  \
         --timings          add per-request solver micros (this run) and\n                     \
         compute_us (the answering front's original solve\n                     \
         cost) to the JSON (nondeterministic)\n  \
         --cache-budget P   bound the front cache to P points (LRU eviction)\n  \
         --cache-stats      print cache counters (hits/misses/evictions,\n                     \
         disk_hits/disk_entries) to stderr\n  \
         --metrics          print Prometheus-style metrics (counters, latency\n                     \
         histograms) to stderr after the batch\n  \
         --trace PATH       append one JSONL span event per request stage\n                     \
         (parse, canonicalize, cache_lookup, solve,\n                     \
         store_append) to PATH\n  \
         --store PATH       persistent front store below the cache: misses read\n                     \
         through to PATH, computed fronts append to it, so a\n                     \
         second run on the same store starts warm\n  \
         --solver S         pin every request to one solver backend: auto\n                     \
         (default; treelike trees bottom-up, DAGs BDD-fused),\n                     \
         bottomup, bdd or enumerative (bilp is an alias of\n                     \
         auto) — incompatible hints answer as per-request\n                     \
         errors, and all backends return the same front\n                     \
         (hints share cache entries)\n  \
         --cdpf --cedpf --dgc B --cgd D --edgc B --cged D --min-time --max-prob\n                     \
         queries to run per document, repeatable (default: --cdpf)\n\
         \nwhatif edits (repeatable; the answer is byte-identical to solving the\n\
         patched tree from scratch, but only dirty root-path nodes recompute):\n  \
         --set cost:NAME=V  override a BAS cost (likewise prob:NAME=V for a BAS\n                     \
         probability, damage:NAME=V for any node's damage)\n  \
         --gate NAME=and|or swap a gate's type\n  \
         --defend NAME      remove a BAS (the defender disables it)\n  \
         plus at most one query flag (default: --cdpf) and --witnesses\n\
         \nserve flags:\n  \
         --stdio            serve stdin→stdout, exit at EOF (default)\n  \
         --addr HOST:PORT   serve TCP connections (port 0 picks one; the\n                     \
         chosen address is announced on stderr)\n  \
         --workers N        worker shards (default: available parallelism)\n  \
         --batch-max N      flush a micro-batch at N requests (default 64)\n  \
         --batch-window-us U  micro-batch accumulation window (default 1000)\n  \
         --cache-budget P   total front-cache budget in points, split over shards\n  \
         --trace PATH       append one JSONL span event per request stage to PATH\n  \
         --store PATH       persistent front store shared by the shards; a\n                     \
         restarted server on the same PATH starts warm\n\
         \nquery flags: --connect HOST:PORT plus the batch query flags,\n  \
         --solver, --witnesses and --metrics (scrapes the server's metrics op to\n  \
         stderr); sends the suite to a running `cdat serve` and prints\n  \
         responses in request order. With --store PATH instead of --connect,\n  \
         answers locally through the store (no server needed), printing the\n  \
         same response lines a server on that store would. With --sweep\n  \
         PATCHES.jsonl (one patch object per line, the sweep op's wire shape)\n  \
         the suite must hold one tree; every patch variant streams back as its\n  \
         own response line through the incremental what-if engine — over\n  \
         --connect, through --store, or memory-only when neither is given.\n\
         \ngen flags (same flags, same bytes — the suite is deterministic):\n  \
         --count N          documents in the suite (default 8)\n  \
         --bas N            BASs per tree (default 12)\n  \
         --sharing S        fraction of extra shared `ref` edges, in [0, 1]\n                     \
         (default 0.5; anything above 0 yields DAGs)\n  \
         --density D        fraction of nodes carrying damage, in [0, 1]\n                     \
         (default 1; sparse damage keeps 100+-BAS suites\n                     \
         inside the fused solver's diagram budget)\n  \
         --seed X           generator seed (default 7)\n",
    );
    s
}

/// Parses the query flags shared by `batch` and `query` (`--cdpf`,
/// `--dgc B`, ...); unrecognized flags are returned for the caller.
fn parse_query_flags(args: &[String]) -> Result<(Vec<solve::Query>, Vec<&String>), String> {
    let mut queries = Vec::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<f64, String> {
            let v: f64 = it
                .next()
                .ok_or_else(|| format!("{flag} needs a {what}"))?
                .parse()
                .map_err(|_| format!("{flag}: {what} must be a number"))?;
            // f64::parse accepts "inf"/"NaN", which would render as invalid
            // JSON; queries only make sense for finite values anyway.
            if !v.is_finite() {
                return Err(format!("{flag}: {what} must be finite"));
            }
            Ok(v)
        };
        match flag.as_str() {
            "--cdpf" => queries.push(solve::Query::Cdpf),
            "--cedpf" => queries.push(solve::Query::Cedpf),
            "--dgc" => queries.push(solve::Query::Dgc(value("budget")?)),
            "--cgd" => queries.push(solve::Query::Cgd(value("threshold")?)),
            "--edgc" => queries.push(solve::Query::Edgc(value("budget")?)),
            "--cged" => queries.push(solve::Query::Cged(value("threshold")?)),
            "--min-time" => queries.push(solve::Query::MinTime),
            "--max-prob" => queries.push(solve::Query::MaxProb),
            _ => rest.push(flag),
        }
    }
    Ok((queries, rest))
}

/// Parses the value of a `--flag N` pair out of the non-query flags.
fn take_value<'a>(rest: &mut Vec<&'a String>, flag: &str) -> Result<Option<&'a String>, String> {
    match rest.iter().position(|f| f.as_str() == flag) {
        None => Ok(None),
        Some(i) if i + 1 < rest.len() => {
            rest.remove(i);
            Ok(Some(rest.remove(i)))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

/// Parses a nonnegative integer flag value.
fn parse_count(flag: &str, text: &str) -> Result<usize, String> {
    text.parse().map_err(|_| format!("{flag}: expected a nonnegative integer, got {text:?}"))
}

/// `cdat gen [flags]`: print a deterministic DAG-heavy multi-document
/// suite on stdout — the generator behind the `dag_cdpf_*` bench
/// scenarios, exposed so scripts (the CI dag-smoke, ad-hoc load tests)
/// can materialize reproducible DAG workloads without checked-in
/// fixtures. Same flags, same bytes.
fn gen(args: &[String]) -> Result<(), String> {
    let mut rest: Vec<&String> = args.iter().collect();
    let fraction = |flag: &str, text: &str| -> Result<f64, String> {
        let v: f64 = text
            .parse()
            .map_err(|_| format!("{flag}: expected a number in [0, 1], got {text:?}"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{flag}: expected a number in [0, 1], got {text:?}"));
        }
        Ok(v)
    };
    let count = match take_value(&mut rest, "--count")? {
        Some(text) => parse_count("--count", text)?,
        None => 8,
    };
    let bas = match take_value(&mut rest, "--bas")? {
        Some(text) => parse_count("--bas", text)?,
        None => 12,
    };
    let sharing = match take_value(&mut rest, "--sharing")? {
        Some(text) => fraction("--sharing", text)?,
        None => 0.5,
    };
    let density = match take_value(&mut rest, "--density")? {
        Some(text) => fraction("--density", text)?,
        None => 1.0,
    };
    let seed = match take_value(&mut rest, "--seed")? {
        Some(text) => text
            .parse::<u64>()
            .map_err(|_| format!("--seed: expected a nonnegative integer, got {text:?}"))?,
        None => 7,
    };
    if let Some(flag) = rest.first() {
        return Err(format!("unknown gen flag {flag:?}\n{}", usage()));
    }
    if bas == 0 {
        return Err("--bas: count must be a positive integer".into());
    }
    let suite = cdat::gen::decorated_dag_suite(count, bas, sharing, density, seed);
    let names: Vec<String> = (0..suite.len()).map(|i| format!("dag{i}")).collect();
    print!(
        "{}",
        cdat_format::write_multi(
            suite.iter().enumerate().map(|(i, tree)| (Some(names[i].as_str()), tree))
        )
    );
    Ok(())
}

/// `cdat batch <suite> [flags]`: solve every (document × query) request on
/// a worker pool, one JSON object per line on stdout, summary on stderr.
fn batch(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| format!("missing suite file argument\n{}", usage()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parse_started = std::time::Instant::now();
    let documents = cdat_format::parse_multi(&text).map_err(|e| format!("{path}: {e}"))?;
    let parse_time = parse_started.elapsed();

    let (mut queries, mut rest) = parse_query_flags(&args[1..])?;
    let workers = match take_value(&mut rest, "--workers")? {
        Some(text) => {
            let n = parse_count("--workers", text)?;
            if n == 0 {
                return Err("--workers: count must be a positive integer".into());
            }
            n
        }
        None => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
    };
    let cache_budget = take_value(&mut rest, "--cache-budget")?
        .map(|text| parse_count("--cache-budget", text))
        .transpose()?;
    let store = take_value(&mut rest, "--store")?.cloned();
    let hint = match take_value(&mut rest, "--solver")? {
        Some(solver) => solve::SolverHint::parse(solver)?,
        None => solve::SolverHint::Auto,
    };
    let trace = open_trace(take_value(&mut rest, "--trace")?)?;
    let mut timings = false;
    let mut cache_stats = false;
    let mut witnesses = false;
    let mut metrics_dump = false;
    for flag in rest {
        match flag.as_str() {
            "--timings" => timings = true,
            "--cache-stats" => cache_stats = true,
            "--witnesses" => witnesses = true,
            "--metrics" => metrics_dump = true,
            other => return Err(format!("unknown batch flag {other:?}\n{}", usage())),
        }
    }
    if queries.is_empty() {
        queries.push(solve::Query::Cdpf);
    }

    let trees: Vec<std::sync::Arc<CdpAttackTree>> =
        documents.iter().map(|d| std::sync::Arc::new(d.tree.clone())).collect();
    let mut requests = Vec::with_capacity(documents.len() * queries.len());
    for tree in &trees {
        for &query in &queries {
            requests.push(
                solve::BatchRequest::new(tree.clone(), query)
                    .with_hint(hint)
                    .with_witnesses(witnesses),
            );
        }
    }

    let memory = match cache_budget {
        Some(budget) => solve::FrontCache::with_budget(16, budget),
        None => solve::FrontCache::new(16),
    };
    let mut engine = match &store {
        Some(path) => {
            let persistent = solve::PersistentFrontCache::open(path, memory)
                .map_err(|e| format!("cannot open store {path}: {e}"))?;
            solve::Engine::with_persistent(workers, persistent)
        }
        None => solve::Engine::with_cache(workers, memory),
    };
    engine = engine.with_metrics(std::sync::Arc::new(solve::EngineMetrics::new()));
    if let Some(trace) = &trace {
        trace.emit(
            "parse",
            parse_time,
            &[("docs", cdat::obs::TraceField::U64(documents.len() as u64))],
        );
        engine = engine.with_trace(trace.clone());
    }
    let start = std::time::Instant::now();
    let results = engine.run(&requests);
    let wall = start.elapsed();

    let mut out = String::new();
    for (i, result) in results.iter().enumerate() {
        let doc = i / queries.len();
        out.push_str(&render_result(
            doc,
            documents[doc].name.as_deref(),
            &requests[i],
            result,
            timings,
        ));
        out.push('\n');
    }
    print!("{out}");

    let stats = engine.stats();
    eprintln!(
        "batch: {} requests over {} documents, {} fronts computed, {} cache hits, {} workers, {:.3}s",
        results.len(),
        documents.len(),
        stats.entries,
        results.iter().filter(|r| r.cache_hit).count(),
        workers,
        wall.as_secs_f64()
    );
    if cache_stats {
        eprintln!(
            "cache-stats: hits={} misses={} entries={} points={} evictions={} disk_hits={} disk_entries={}",
            stats.hits,
            stats.misses,
            stats.entries,
            stats.points,
            stats.evictions,
            stats.disk_hits,
            stats.disk_entries
        );
    }
    if metrics_dump {
        eprint!("{}", engine_metrics_text(&engine));
    }
    Ok(())
}

/// `cdat whatif <file> [edits] [query]`: solve one patched variant of a
/// tree through the incremental what-if engine — only the nodes on dirty
/// root paths are recomputed; clean subtrees reuse memoized fronts. The
/// response line is byte-identical to solving the patched tree from
/// scratch; a recompute summary goes to stderr.
fn whatif(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| format!("missing file argument\n{}", usage()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cdp = std::sync::Arc::new(cdat_format::parse(&text).map_err(|e| format!("{path}: {e}"))?);

    let (mut queries, rest) = parse_query_flags(&args[1..])?;
    let mut costs: Vec<(String, json::Value)> = Vec::new();
    let mut probs: Vec<(String, json::Value)> = Vec::new();
    let mut damages: Vec<(String, json::Value)> = Vec::new();
    let mut gates: Vec<(String, json::Value)> = Vec::new();
    let mut defends: Vec<json::Value> = Vec::new();
    let mut witnesses = false;
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--set" => {
                let spec = it.next().ok_or("--set needs cost|prob|damage:NAME=VALUE")?;
                let (class, assign) = spec.split_once(':').ok_or_else(|| {
                    format!("--set {spec:?}: expected cost:NAME=VALUE, prob:NAME=VALUE or damage:NAME=VALUE")
                })?;
                let (name, value) = assign
                    .rsplit_once('=')
                    .ok_or_else(|| format!("--set {spec:?}: expected {class}:NAME=VALUE"))?;
                let value: f64 =
                    value.parse().map_err(|_| format!("--set {spec:?}: value must be a number"))?;
                let slot = match class {
                    "cost" => &mut costs,
                    "prob" => &mut probs,
                    "damage" => &mut damages,
                    other => {
                        return Err(format!(
                            "--set: unknown attribute class {other:?} (cost, prob or damage)"
                        ))
                    }
                };
                slot.push((name.to_owned(), json::Value::Num(value)));
            }
            "--gate" => {
                let spec = it.next().ok_or("--gate needs NAME=and|or")?;
                let (name, kind) = spec
                    .rsplit_once('=')
                    .ok_or_else(|| format!("--gate {spec:?}: expected NAME=and or NAME=or"))?;
                gates.push((name.to_owned(), json::Value::Str(kind.to_owned())));
            }
            "--defend" => {
                let name = it.next().ok_or("--defend needs a BAS name")?;
                defends.push(json::Value::Str(name.clone()));
            }
            "--witnesses" => witnesses = true,
            other => return Err(format!("unknown whatif flag {other:?}\n{}", usage())),
        }
    }

    // Assemble the edits as the wire-format patch object and parse it with
    // the server's own parser, so the CLI resolves names and rejects bad
    // patches with exactly the serving semantics.
    let mut fields: Vec<(String, json::Value)> = Vec::new();
    for (key, entries) in [("cost", costs), ("prob", probs), ("damage", damages), ("gate", gates)] {
        if !entries.is_empty() {
            fields.push((key.to_owned(), json::Value::Obj(entries)));
        }
    }
    if !defends.is_empty() {
        fields.push(("defend".to_owned(), json::Value::Arr(defends)));
    }
    if fields.is_empty() {
        return Err("whatif needs at least one edit (--set, --gate or --defend)".into());
    }
    let patch = protocol::parse_patch(&json::Value::Obj(fields), &cdp)?;

    if queries.len() > 1 {
        return Err("whatif takes at most one query flag".into());
    }
    let query = queries.pop().unwrap_or(solve::Query::Cdpf);
    let engine = solve::Engine::new(1);
    let request = solve::DeltaRequest::new(cdp, query, patch).with_witnesses(witnesses);
    let result = engine.whatif(&request);
    if let solve::Response::Error(message) = &result.response {
        return Err(message.clone());
    }
    println!(
        "{{{}{}}}",
        protocol::query_fragment(query),
        protocol::body_fragment(&result.response)
    );
    eprintln!(
        "whatif: {} dirty nodes recomputed, {} memoized subtree fronts reused",
        result.dirty_nodes, result.subtree_hits
    );
    Ok(())
}

/// Opens the `--trace PATH` JSONL flight recorder, when requested.
fn open_trace(path: Option<&String>) -> Result<Option<cdat::obs::TraceWriter>, String> {
    match path {
        Some(path) => cdat::obs::TraceWriter::open(std::path::Path::new(path))
            .map(Some)
            .map_err(|e| format!("cannot open trace file {path}: {e}")),
        None => Ok(None),
    }
}

/// Renders one engine's telemetry as Prometheus text — the same metric
/// names the server's `metrics` op exposes.
fn engine_metrics_text(engine: &solve::Engine) -> String {
    let mut out = String::new();
    if let Some(metrics) = engine.metrics() {
        let mut snap = solve::EngineSnapshot::new();
        snap.absorb(metrics);
        snap.render_prometheus(&mut out);
    }
    if let Some(store) = engine.store_metrics() {
        let mut snap = solve::StoreSnapshot::new();
        snap.absorb(&store);
        snap.render_prometheus(&mut out);
    }
    out
}

/// Renders one batch result as a single JSON object (no trailing newline).
/// The query and body fragments are shared with the serving protocol, so
/// batch and serve emit the same bytes for the same document.
fn render_result(
    doc: usize,
    name: Option<&str>,
    request: &solve::BatchRequest,
    result: &solve::BatchResult,
    timings: bool,
) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"doc\":{doc}");
    if let Some(name) = name {
        let _ = write!(s, ",\"name\":\"{}\"", json::escape(name));
    }
    let _ = write!(s, ",{}", protocol::query_fragment(request.query));
    let _ = write!(s, ",\"cache\":\"{}\"", if result.cache_hit { "hit" } else { "miss" });
    protocol::write_body(&mut s, &result.response);
    if timings {
        // `micros` is this run's solver time (zero on a cache hit);
        // `compute_us` is the answering front's original solve cost, so
        // hits report what the answer cost when it was first computed.
        let _ = write!(
            s,
            ",\"micros\":{},\"compute_us\":{}",
            result.compute.as_micros(),
            result.solve_cost.as_micros()
        );
    }
    s.push('}');
    s
}

/// `cdat serve [flags]`: run the long-running micro-batching query server
/// over stdio (default) or TCP.
fn serve(args: &[String]) -> Result<(), String> {
    let mut rest: Vec<&String> = args.iter().collect();
    let addr = take_value(&mut rest, "--addr")?.cloned();
    let shards = match take_value(&mut rest, "--workers")? {
        Some(text) => {
            let n = parse_count("--workers", text)?;
            if n == 0 {
                return Err("--workers: count must be a positive integer".into());
            }
            n
        }
        None => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
    };
    let mut config = ServeConfig { shards, ..Default::default() };
    if let Some(text) = take_value(&mut rest, "--batch-max")? {
        config.batch_max = parse_count("--batch-max", text)?.max(1);
    }
    if let Some(text) = take_value(&mut rest, "--batch-window-us")? {
        config.batch_window = Duration::from_micros(parse_count("--batch-window-us", text)? as u64);
    }
    if let Some(text) = take_value(&mut rest, "--cache-budget")? {
        config.cache_budget = Some(parse_count("--cache-budget", text)?);
    }
    if let Some(text) = take_value(&mut rest, "--store")? {
        config.store = Some(std::path::PathBuf::from(text));
    }
    config.trace = open_trace(take_value(&mut rest, "--trace")?)?;
    let mut stdio = addr.is_none();
    for flag in rest {
        match flag.as_str() {
            "--stdio" => stdio = true,
            other => return Err(format!("unknown serve flag {other:?}\n{}", usage())),
        }
    }
    if stdio && addr.is_some() {
        return Err("--stdio and --addr are mutually exclusive".into());
    }
    match addr {
        Some(addr) => cdat::serve::serve_tcp(&addr, &config)
            .map_err(|e| format!("cannot serve on {addr}: {e}")),
        None => cdat::serve::serve_stdio(&config).map_err(|e| format!("cannot serve: {e}")),
    }
}

/// `cdat query --connect <addr> <suite> [query flags]`: send the suite to
/// a running `cdat serve`, one request per query, and print the response
/// lines in request order (then by document). With `--store <path>`
/// instead of `--connect`, answers locally through a store-backed router —
/// the same code path a server on that store would use, so the lines are
/// byte-identical to the served ones.
fn query(args: &[String]) -> Result<(), String> {
    let (mut queries, mut rest) = parse_query_flags(args)?;
    let addr = take_value(&mut rest, "--connect")?.cloned();
    let store = take_value(&mut rest, "--store")?.cloned();
    let solver = take_value(&mut rest, "--solver")?.cloned();
    let sweep = match take_value(&mut rest, "--sweep")? {
        Some(patches_path) => {
            let patches_text = std::fs::read_to_string(patches_path)
                .map_err(|e| format!("cannot read {patches_path}: {e}"))?;
            let patches: Vec<String> = patches_text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned)
                .collect();
            if patches.is_empty() {
                return Err(format!("{patches_path}: no patches (one JSON object per line)"));
            }
            Some(patches)
        }
        None => None,
    };
    if sweep.is_some() && solver.is_some() {
        return Err("--solver does not apply to --sweep (delta requests reuse the base \
                    tree's solver choice)"
            .into());
    }
    let mut take_switch = |flag: &str| match rest.iter().position(|f| f.as_str() == flag) {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let witnesses = take_switch("--witnesses");
    let metrics_dump = take_switch("--metrics");
    let [path] = rest.as_slice() else {
        return Err(format!("query needs exactly one suite file argument\n{}", usage()));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if queries.is_empty() {
        queries.push(solve::Query::Cdpf);
    }
    let hint = match &solver {
        // Validate the spelling client-side for a friendly error.
        Some(solver) => solve::SolverHint::parse(solver)?,
        None => solve::SolverHint::Auto,
    };

    let mut lines = match (addr, store, &sweep) {
        (Some(_), Some(_), _) => {
            return Err("--connect and --store are mutually exclusive".into());
        }
        (None, None, None) => {
            return Err(format!("query needs --connect HOST:PORT or --store PATH\n{}", usage()));
        }
        (Some(addr), None, Some(patches)) => {
            query_sweep_remote(&addr, &text, &queries, witnesses, patches, metrics_dump)?
        }
        (Some(addr), None, None) => {
            query_remote(&addr, &text, &queries, solver.as_deref(), witnesses, metrics_dump)?
        }
        (None, store, Some(patches)) => query_sweep_local(
            path,
            store.as_deref(),
            &text,
            &queries,
            witnesses,
            patches,
            metrics_dump,
        )?,
        (None, Some(store), None) => {
            query_local(path, &store, &text, &queries, hint, witnesses, metrics_dump)?
        }
    };
    // Request order, then document order within a request (responses may
    // arrive interleaved across shards); sweep responses order by variant.
    // This client always sends numeric ids; anything unparseable sorts
    // last.
    let sort_key = |line: &str| {
        let value = json::parse(line).ok();
        let field = |name: &str| -> u64 {
            value
                .as_ref()
                .and_then(|v| v.get(name))
                .and_then(json::Value::as_f64)
                .map_or(u64::MAX, |v| v as u64)
        };
        (field("id"), field("doc"), field("variant"))
    };
    lines.sort_by_key(|line| sort_key(line));
    let mut out = String::new();
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

/// The remote client: sends one suite request per query to a running
/// `cdat serve` and collects the raw response lines.
fn query_remote(
    addr: &str,
    text: &str,
    queries: &[solve::Query],
    solver: Option<&str>,
    witnesses: bool,
    metrics_dump: bool,
) -> Result<Vec<String>, String> {
    let mut request_lines = String::new();
    for (i, &query) in queries.iter().enumerate() {
        use std::fmt::Write as _;
        let _ = write!(request_lines, "{{\"id\":{i},\"suite\":\"{}\"", json::escape(text));
        let _ = write!(request_lines, ",{}", protocol::query_fragment(query));
        if let Some(solver) = solver {
            let _ = write!(request_lines, ",\"solver\":\"{}\"", json::escape(solver));
        }
        if witnesses {
            request_lines.push_str(",\"witnesses\":true");
        }
        request_lines.push_str("}\n");
    }
    exchange(addr, request_lines, metrics_dump)
}

/// The remote sweep client: sends one `sweep` op per query (the whole
/// patch list inline) and collects the per-variant response lines.
fn query_sweep_remote(
    addr: &str,
    text: &str,
    queries: &[solve::Query],
    witnesses: bool,
    patches: &[String],
    metrics_dump: bool,
) -> Result<Vec<String>, String> {
    // Validate each patch line is well-formed JSON client-side for a
    // friendly error naming the line (the server only sees the batch).
    for (k, line) in patches.iter().enumerate() {
        json::parse(line).map_err(|e| format!("patch line {}: {e}", k + 1))?;
    }
    let mut request_lines = String::new();
    for (i, &query) in queries.iter().enumerate() {
        use std::fmt::Write as _;
        let _ = write!(
            request_lines,
            "{{\"op\":\"sweep\",\"id\":{i},\"tree\":\"{}\"",
            json::escape(text)
        );
        let _ = write!(request_lines, ",{}", protocol::query_fragment(query));
        if witnesses {
            request_lines.push_str(",\"witnesses\":true");
        }
        let _ = write!(request_lines, ",\"patches\":[{}]", patches.join(","));
        request_lines.push_str("}\n");
    }
    exchange(addr, request_lines, metrics_dump)
}

/// Sends pre-rendered request lines to a running `cdat serve`, half-closes,
/// and collects the response lines (extracting a `metrics` answer to
/// stderr when one was requested).
fn exchange(
    addr: &str,
    mut request_lines: String,
    metrics_dump: bool,
) -> Result<Vec<String>, String> {
    use std::io::{BufRead, BufReader, Write as _};

    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    if metrics_dump {
        // Asked last so the scrape reflects the answers above.
        request_lines.push_str("{\"op\":\"metrics\",\"id\":\"metrics\"}\n");
    }
    writer.write_all(request_lines.as_bytes()).map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    // Half-close: the server answers everything in flight, then closes.
    stream.shutdown(std::net::Shutdown::Write).map_err(|e| format!("shutdown: {e}"))?;

    let mut lines: Vec<String> = Vec::new();
    for line in BufReader::new(stream).lines() {
        lines.push(line.map_err(|e| format!("receive: {e}"))?);
    }
    if metrics_dump {
        // The metrics answer can land anywhere in the stream: pull it out
        // of the response lines and print the exposition on stderr.
        let payload = |line: &String| {
            json::parse(line).ok().and_then(|v| match v.get("metrics") {
                Some(json::Value::Str(text)) => Some(text.clone()),
                _ => None,
            })
        };
        if let Some(i) = lines.iter().position(|l| payload(l).is_some()) {
            let line = lines.remove(i);
            eprint!("{}", payload(&line).expect("matched above"));
        }
    }
    Ok(lines)
}

/// The local store mode: answers the suite through a store-backed router,
/// no server needed. Prefixes and bodies come from the same protocol
/// rendering a server uses, so the lines match served bytes exactly.
fn query_local(
    path: &str,
    store: &str,
    text: &str,
    queries: &[solve::Query],
    hint: solve::SolverHint,
    witnesses: bool,
    metrics_dump: bool,
) -> Result<Vec<String>, String> {
    use cdat::serve::{RouteRequest, Router, RouterConfig};

    let documents = cdat_format::parse_multi(text).map_err(|e| format!("{path}: {e}"))?;
    let trees: Vec<std::sync::Arc<CdpAttackTree>> =
        documents.iter().map(|d| std::sync::Arc::new(d.tree.clone())).collect();
    let config = RouterConfig {
        shards: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        store: Some(std::path::PathBuf::from(store)),
        ..RouterConfig::default()
    };
    let router = Router::new(config).map_err(|e| format!("cannot open store {store}: {e}"))?;
    let mut requests = Vec::with_capacity(documents.len() * queries.len());
    for (i, &query) in queries.iter().enumerate() {
        for (doc, d) in documents.iter().enumerate() {
            requests.push(RouteRequest {
                tree: trees[doc].clone(),
                query,
                hint,
                witnesses,
                prefix: protocol::response_prefix(
                    &json::Value::Num(i as f64),
                    Some((doc, d.name.as_deref())),
                    query,
                ),
            });
        }
    }
    let lines = router.solve(requests);
    if metrics_dump {
        eprint!("{}", protocol::metrics_text(&router.snapshot()));
    }
    Ok(lines)
}

/// The local sweep mode: answers the patch list through a local router
/// (store-backed when `--store` was given, memory-only otherwise), one
/// response line per variant — the same lines a server would stream for
/// the `sweep` op.
fn query_sweep_local(
    path: &str,
    store: Option<&str>,
    text: &str,
    queries: &[solve::Query],
    witnesses: bool,
    patches: &[String],
    metrics_dump: bool,
) -> Result<Vec<String>, String> {
    use cdat::serve::{DeltaRouteRequest, Router, RouterConfig};

    let documents = cdat_format::parse_multi(text).map_err(|e| format!("{path}: {e}"))?;
    let [document] = documents.as_slice() else {
        return Err(format!(
            "--sweep needs a single-tree file, {path} has {} documents",
            documents.len()
        ));
    };
    let tree = std::sync::Arc::new(document.tree.clone());
    let parsed: Vec<solve::TreePatch> = patches
        .iter()
        .enumerate()
        .map(|(k, line)| {
            json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|value| protocol::parse_patch(&value, &tree))
                .map_err(|e| format!("patch line {}: {e}", k + 1))
        })
        .collect::<Result<_, _>>()?;
    let config = RouterConfig {
        shards: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        store: store.map(std::path::PathBuf::from),
        ..RouterConfig::default()
    };
    let router = Router::new(config)
        .map_err(|e| format!("cannot open store {}: {e}", store.unwrap_or_default()))?;
    let mut lines = Vec::new();
    for (i, &query) in queries.iter().enumerate() {
        lines.extend(
            router.sweep(DeltaRouteRequest {
                tree: tree.clone(),
                query,
                witnesses,
                patches: parsed.clone(),
                prefixes: (0..parsed.len())
                    .map(|k| {
                        protocol::delta_response_prefix(&json::Value::Num(i as f64), Some(k), query)
                    })
                    .collect(),
            }),
        );
    }
    if metrics_dump {
        eprint!("{}", protocol::metrics_text(&router.snapshot()));
    }
    Ok(lines)
}

fn info(cdp: &CdpAttackTree) {
    let t = cdp.tree();
    println!("root:      {}", t.name(t.root()));
    println!("nodes:     {}", t.node_count());
    println!("BASs:      {}", t.bas_count());
    println!("shape:     {}", if t.is_treelike() { "treelike" } else { "DAG-like" });
    println!("max damage: {}", cdp.cd().max_damage());
    println!("total cost: {}", cdp.cd().total_cost());
    let probabilistic = cdp.probs().iter().any(|&p| p != 1.0);
    println!("probabilistic attributes: {}", if probabilistic { "yes" } else { "no" });
    println!("solver for CDPF: {:?}", solve::SolverBackend::for_shape(t));
}

fn attack_names(cdp: &CdpAttackTree, attack: &cdat::Attack) -> Vec<String> {
    attack.iter().map(|b| cdp.tree().name(cdp.tree().node_of_bas(b)).to_owned()).collect()
}

fn print_front(cdp: &CdpAttackTree, front: &ParetoFront) {
    println!("{} Pareto-optimal points:", front.len());
    println!("{:>10} {:>12} {:>4}  attack", "cost", "damage", "top");
    for e in front.entries() {
        match &e.witness {
            Some(w) => println!(
                "{:>10} {:>12} {:>4}  {}",
                e.point.cost,
                trim(e.point.damage),
                if cdp.tree().reaches_root(w) { "y" } else { "n" },
                attack_names(cdp, w).join(", ")
            ),
            None => println!("{:>10} {:>12}    ?", e.point.cost, trim(e.point.damage)),
        }
    }
}

fn print_entry(cdp: &CdpAttackTree, e: &FrontEntry, label: &str) {
    println!("{label}: cost {} damage {}", e.point.cost, trim(e.point.damage));
    if let Some(w) = &e.witness {
        println!("attack: {}", attack_names(cdp, w).join(", "));
        println!("reaches top: {}", if cdp.tree().reaches_root(w) { "yes" } else { "no" });
    }
}

fn trim(v: f64) -> String {
    let s = format!("{v:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_owned()
}
