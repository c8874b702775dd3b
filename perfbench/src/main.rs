//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against the release `cdat` binary built next to
//! this executable, prints the run context, the workload record and (with
//! `--trace 1`) the per-layer table, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Exits
//! non-zero, without that line, when the run cannot be made.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use cdat_perfbench::client::sibling_cdat;
use cdat_perfbench::replay::{self, Replay, Span};
use cdat_perfbench::stats::{beyond, median, percentile, quartiles};
use cdat_perfbench::workloads::{self, Ctx, Outcome, Round, Size};

const WORKLOADS: [&str; 4] = ["serve_warm", "batch_cold", "serve_store", "serve_interactive"];

/// Layers in report order: the first name part of every span maps to one.
const LAYERS: [&str; 10] = [
    "format",
    "protocol",
    "router",
    "canonical",
    "cache",
    "engine",
    "bottomup",
    "bdd",
    "delta",
    "store",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut work = PathBuf::from(".bench_work");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: expected an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds: expected a number")?
            }
            "--trace" => trace = value()? == "1",
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, work })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> io::Result<()> {
    let cdat = sibling_cdat()?;
    let work = args.work.join(&args.workload);
    std::fs::create_dir_all(&work)?;
    let ctx = Ctx {
        cdat: &cdat,
        work: &work,
        seed: args.seed,
        seconds: args.seconds,
        size: Size::FULL,
        trace: args.trace,
    };
    let outcome = run_workload(&args.workload, &ctx)?;
    print_context(args, &outcome);

    let e2e = end_to_end(&outcome);
    let mut correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let plan = outcome.plan.as_ref().expect("traced runs keep a replay plan");
        // Untraced, traced, untraced: the overhead is taken against the
        // faster untraced replay, so first-run effects do not hide in it.
        let first = replay::run(plan, &work, false)?;
        let traced = replay::run(plan, &work, true)?;
        let second = replay::run(plan, &work, false)?;
        let untraced = if first.wall <= second.wall { first } else { second };
        traced.recorder.write(&args.work.join(format!("{}-spans.jsonl", args.workload)))?;
        if traced.mismatched > 0 || untraced.mismatched > 0 || traced.lines == 0 {
            println!("CHECK FAILED: {} replayed lines differ from the binary's", traced.mismatched);
            correct = false;
        }
        per_layer(&outcome, &e2e, &traced, &untraced)
    } else {
        e2e.iter().map(|(n, v, u)| (n.to_string(), *v, *u)).collect()
    };
    let _ = std::fs::remove_dir_all(&work);

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", number(*value))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.measured.attempted,
        outcome.measured.failed,
        body.join(",")
    );
    Ok(())
}

fn run_workload(name: &str, ctx: &Ctx) -> io::Result<Outcome> {
    match name {
        "serve_warm" => workloads::serve_warm(ctx),
        "batch_cold" => workloads::batch_cold(ctx),
        "serve_store" => workloads::serve_store(ctx),
        "serve_interactive" => workloads::serve_interactive(ctx),
        _ => unreachable!("workload names are validated"),
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_context(args: &Args, outcome: &Outcome) {
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(0);
    println!(
        "== {} (seed {}, {} s measured{})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    println!("git sha:                {}", git_sha());
    println!("available_parallelism:  {cores}");
    println!("rustc:                  {}", rustc_version());
    println!("client:                 1 process, 2 threads (writer + reader), 1 stdio pipe");
    let window = if args.workload == "batch_cold" {
        format!("whole suite ({} requests per cdat batch run)", outcome.window)
    } else {
        format!("{} request(s) in flight, closed loop", outcome.window)
    };
    println!("in-flight window:       {window}");
    for (key, value) in &outcome.record {
        println!("{:<26}{value}", format!("{key}:"));
    }
    let m = &outcome.measured;
    println!("{:<26}{}", "bytes out:", m.bytes_out);
    println!(
        "{:<26}{:.6}",
        "failed_ratio:",
        if m.attempted > 0 { m.failed as f64 / m.attempted as f64 } else { 0.0 }
    );
    println!(
        "{:<26}{} samples, {} beyond p99, {} rounds",
        "latency samples:",
        m.latencies_ms.len(),
        beyond(&m.latencies_ms, 99.0),
        m.rounds.len()
    );
}

fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let m = &outcome.measured;
    // Each figure is taken per round (latency per block of rounds), then
    // the median over the calm rounds.
    let calm = workloads::calm(&m.rounds);
    let per_round = |f: &dyn Fn(&Round) -> f64| calm.iter().map(|r| f(r)).collect::<Vec<_>>();
    let throughput = per_round(&|r| r.lines as f64 / r.wall.as_secs_f64().max(1e-9));
    let cpu = per_round(&|r| r.cpu.as_secs_f64() * 1e6 / r.lines.max(1) as f64);
    // CPU readings have clock-tick resolution, so the reported CPU is
    // pooled over the calm rounds rather than a median of rounds.
    let cpu_pooled = calm.iter().map(|r| r.cpu.as_secs_f64()).sum::<f64>() * 1e6
        / calm.iter().map(|r| r.lines).sum::<u64>().max(1) as f64;
    let rss: Vec<f64> = m.peak_rss.iter().map(|b| b / 1e6).collect();
    let samples: [(&'static str, Vec<f64>, Option<f64>, &'static str); 6] = [
        ("throughput_rps", throughput, None, "1/s"),
        ("latency_p50_ms", block_percentiles(&calm, 50.0), None, "ms"),
        ("latency_p99_ms", block_percentiles(&calm, 99.0), None, "ms"),
        ("cpu_us_per_resp", cpu, Some(cpu_pooled), "us"),
        ("peak_rss_mb", rss, None, "MB"),
        ("setup_s", m.setup_s.clone(), None, "s"),
    ];
    println!(
        "{} of {} rounds calm (hypervisor steal at most the median round's)",
        calm.len(),
        m.rounds.len()
    );
    samples
        .into_iter()
        .map(|(name, values, value, unit)| {
            let value = value.unwrap_or_else(|| median(&values).unwrap_or(0.0));
            let spread = match quartiles(&values) {
                Some([q1, _, q3]) => {
                    format!("quartiles {q1:.4} .. {q3:.4} over {} samples", values.len())
                }
                None => format!("{} sample(s)", values.len()),
            };
            println!("{name:<26}{value:.4} {unit}   ({spread})");
            (name, value, unit)
        })
        .collect()
}

/// Latency samples per block for percentiles to rest on: consecutive
/// rounds are merged until a block holds this many, so p99 has at least
/// ten samples beyond it in every block.
const BLOCK_SAMPLES: usize = 1000;

/// The `p`-th latency percentile of every block of consecutive rounds.
fn block_percentiles(rounds: &[&Round], p: f64) -> Vec<f64> {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for round in rounds {
        let last = blocks.last_mut().expect("one block at least");
        if last.len() >= BLOCK_SAMPLES {
            blocks.push(round.latencies_ms.clone());
        } else {
            last.extend_from_slice(&round.latencies_ms);
        }
    }
    // A short tail block joins its predecessor.
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < BLOCK_SAMPLES) {
        let tail = blocks.pop().expect("checked above");
        blocks.last_mut().expect("checked above").extend(tail);
    }
    blocks.iter().filter_map(|b| percentile(b, p)).collect()
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur().as_secs_f64() * 1e6).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur().as_secs_f64() * 1e6;
        }
    }
    own
}

struct Calls {
    count: u64,
    total_us: f64,
}

fn calls(spans: &[Span], name: &str) -> Calls {
    let picked: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    Calls {
        count: picked.len() as u64,
        total_us: picked.iter().map(|s| s.dur().as_secs_f64() * 1e6).sum(),
    }
}

fn mean(c: &Calls) -> f64 {
    if c.count > 0 {
        c.total_us / c.count as f64
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(
    outcome: &Outcome,
    e2e: &[(&'static str, f64, &'static str)],
    traced: &Replay,
    untraced: &Replay,
) -> Vec<(String, f64, &'static str)> {
    let spans = traced.recorder.spans();
    let own = self_times(spans);
    let responses = traced.lines.max(1) as f64;
    let cpu_per_resp =
        e2e.iter().find(|(n, ..)| *n == "cpu_us_per_resp").map_or(0.0, |(_, v, _)| *v);

    // Per-layer self time, from the span tree.
    let mut layer_self: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&own) {
        let layer = s.name.split('.').next().unwrap_or("");
        let entry = layer_self.entry(layer).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    let mut attributed = 0.0;
    println!("\nper-layer self time ({} replayed responses; shares of cpu_us_per_resp {cpu_per_resp:.1} us):", traced.lines);
    println!("  {:<10} {:>12} {:>8} {:>10}", "layer", "us/resp", "share", "spans");
    for layer in LAYERS {
        let (total, count) = layer_self.get(layer).copied().unwrap_or_default();
        let per = total / responses;
        attributed += per;
        println!(
            "  {layer:<10} {per:>12.2} {:>7.1}% {count:>10}",
            100.0 * ratio(per, cpu_per_resp)
        );
    }
    let unattributed = cpu_per_resp - attributed;
    println!(
        "  {:<10} {unattributed:>12.2} {:>7.1}%",
        "unattrib.",
        100.0 * ratio(unattributed, cpu_per_resp)
    );
    let overhead = (traced.wall.as_secs_f64() - untraced.wall.as_secs_f64()) * 1e6 / responses;
    println!("  tracing overhead: {overhead:.2} us per response (traced minus untraced replay)");
    println!(
        "  replayed lines byte-equal to the binary's: {}/{}",
        traced.lines - traced.mismatched,
        traced.lines
    );

    let self_of = |name: &str| -> f64 {
        spans.iter().zip(&own).filter(|(s, _)| s.name == name).map(|(_, o)| *o).sum::<f64>()
    };
    let c = &outcome.counters;
    let sessions = outcome.measured.processes.max(1) as f64;
    let requests_in_engine = spans.iter().filter(|s| s.name == "engine.select").count() as f64;
    let render = calls(spans, "protocol.render");
    let router_self = self_of("router.solve") + self_of("router.sweep");
    let router_requests = spans
        .iter()
        .filter(|s| {
            s.parent.is_some_and(|p| spans[p].name.starts_with("router."))
                && s.name == "protocol.render"
        })
        .count() as f64;
    let points: Vec<f64> = traced.solved_points.iter().map(|&p| p as f64).collect();
    let m = &outcome.measured;
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("protocol.parse_us".into(), mean(&calls(spans, "protocol.parse")), "us"),
        ("format.tree_parse_us".into(), mean(&calls(spans, "format.tree_parse")), "us"),
        ("format.json_parse_us".into(), mean(&calls(spans, "format.json_parse")), "us"),
        (
            "format.suite_parse_us".into(),
            ratio(calls(spans, "format.suite_parse").total_us, traced.suite_docs as f64),
            "us",
        ),
        ("canonical.hash_us".into(), mean(&calls(spans, "canonical.hash")), "us"),
        ("canonical.canonicalize_us".into(), mean(&calls(spans, "canonical.canonicalize")), "us"),
        ("cache.lookup_us".into(), mean(&calls(spans, "cache.lookup")), "us"),
        (
            "cache.hit_ratio".into(),
            ratio(traced.lookups.1 as f64, traced.lookups.0 as f64),
            "ratio",
        ),
        ("engine.translate_us".into(), mean(&calls(spans, "engine.translate")), "us"),
        ("engine.overhead_us".into(), ratio(self_of("engine.run"), requests_in_engine), "us"),
        ("bottomup.solve_us".into(), mean(&calls(spans, "bottomup.solve")), "us"),
        ("bdd.solve_us".into(), mean(&calls(spans, "bdd.solve")), "us"),
        ("front.points".into(), median(&points).unwrap_or(0.0), "points"),
    ];
    for backend in ["bottomup", "bdd", "enumerative", "bilp"] {
        let count = traced.backends.get(backend).copied().unwrap_or(0);
        out.push((format!("engine.backend_requests.{backend}"), count as f64, "count"));
    }
    out.extend([
        ("protocol.render_us".into(), ratio(render.total_us, responses), "us"),
        ("protocol.bytes_out".into(), ratio(traced.bytes as f64, responses), "bytes"),
        ("router.overhead_us".into(), ratio(router_self, router_requests), "us"),
        ("serve.batch_fill_mean".into(), ratio(c.batch_fill.0, c.batch_fill.1), "jobs"),
        ("serve.dispatch_wait_us_mean".into(), ratio(c.dispatch_us.0, c.dispatch_us.1), "us"),
        ("engine.queue_wait_us_mean".into(), ratio(c.queue_wait_us.0, c.queue_wait_us.1), "us"),
        (
            "delta.sweep_us_per_variant".into(),
            ratio(calls(spans, "delta.sweep").total_us, traced.variants as f64),
            "us",
        ),
        ("delta.dirty_nodes".into(), ratio(c.dirty_nodes, c.delta_requests), "nodes"),
        ("delta.subtree_hits".into(), ratio(c.subtree_hits, c.delta_requests), "count"),
        ("store.open_us".into(), traced.store_open.map_or(0.0, |d| d.as_secs_f64() * 1e6), "us"),
        ("store.get_us".into(), mean(&calls(spans, "store.get")), "us"),
        ("store.append_us".into(), mean(&calls(spans, "store.append")), "us"),
        ("store.disk_hits".into(), c.disk_hits / sessions, "count"),
        ("cache.evictions".into(), c.evictions / sessions, "count"),
        ("unattributed_us".into(), unattributed, "us"),
        ("trace.overhead_us".into(), overhead, "us"),
        ("failed_ratio".into(), ratio(m.failed as f64, m.attempted as f64), "ratio"),
    ]);
    out
}
