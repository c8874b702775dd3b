//! The four end-to-end workloads. Each spawns the release `cdat` binary,
//! drives it from this one client process, checks every answer, and
//! returns what it measured plus the inputs the traced replay repeats.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use cdat::format::json::Value;

use crate::check;
use crate::client::{self, strip_batch, Phase, Req, Session};
use crate::inputs::{self, STORE_COMBOS, WARM_COMBOS};
use crate::procfs;

/// Workload sizes. [`Size::FULL`] is what the benchmark runs;
/// [`Size::TINY`] keeps the benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// serve_warm: distinct trees in the warmed pool.
    pub warm_pool: usize,
    /// serve_warm: BASs per tree.
    pub warm_bas: usize,
    /// serve_warm: requests generated before the first round (later
    /// rounds get half again what the previous round used).
    pub warm_first_round: usize,
    /// batch_cold: documents in the suite.
    pub cold_docs: usize,
    /// batch_cold: BASs per treelike tree.
    pub cold_bas: usize,
    /// batch_cold: BASs per DAG.
    pub cold_dag_bas: usize,
    /// batch_cold: one document in this many is a DAG.
    pub cold_dag_every: usize,
    /// batch_cold: documents re-run under a pinned solver.
    pub cold_sample: usize,
    /// serve_store: distinct trees in the working set.
    pub store_docs: usize,
    /// serve_store: BASs per tree.
    pub store_bas: usize,
    /// serve_interactive: base trees per session.
    pub inter_bases: usize,
    /// serve_interactive: BASs per base tree.
    pub inter_bas: usize,
    /// serve_interactive: patches per sweep.
    pub inter_variants: usize,
    /// serve_interactive: what-if requests per base tree.
    pub inter_whatifs: usize,
    /// Start-ups timed for `setup_s`, beyond those the workload makes.
    pub setup_reps: usize,
    /// Measured requests the traced replay repeats.
    pub replay_requests: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        warm_pool: 48,
        warm_bas: 24,
        warm_first_round: 4000,
        cold_docs: 400,
        cold_bas: 40,
        cold_dag_bas: 12,
        cold_dag_every: 20,
        cold_sample: 8,
        store_docs: 600,
        store_bas: 40,
        inter_bases: 24,
        inter_bas: 60,
        inter_variants: 48,
        inter_whatifs: 8,
        setup_reps: 21,
        replay_requests: 3000,
    };

    /// Sizes for the benchmark's own tests.
    pub const TINY: Size = Size {
        warm_pool: 4,
        warm_bas: 8,
        warm_first_round: 100,
        cold_docs: 12,
        cold_bas: 10,
        cold_dag_bas: 8,
        cold_dag_every: 4,
        cold_sample: 6,
        store_docs: 12,
        store_bas: 10,
        inter_bases: 2,
        inter_bas: 12,
        inter_variants: 5,
        inter_whatifs: 2,
        setup_reps: 2,
        replay_requests: 40,
    };
}

/// Everything a workload run needs.
pub struct Ctx<'a> {
    /// The release `cdat` binary.
    pub cdat: &'a Path,
    /// A scratch directory for generated files.
    pub work: &'a Path,
    /// The workload seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: f64,
    /// Workload sizes.
    pub size: Size,
    /// Whether the traced replay follows (the run then keeps the lines
    /// the replay compares against).
    pub trace: bool,
}

/// One measured round: a time slice of a session, a whole session, or
/// one `cdat batch` process. Every end-to-end figure is computed per
/// round; the report takes the median over the run's calm rounds (see
/// [`calm`]).
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time from the round's first request to its last line.
    pub wall: Duration,
    /// Response lines read.
    pub lines: u64,
    /// CPU time the `cdat` process spent in the round.
    pub cpu: Duration,
    /// Per-request latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Clock ticks stolen from the machine's CPUs by the hypervisor
    /// during the round.
    pub steal: u64,
}

/// End-to-end measurements of a run: per round, plus totals.
#[derive(Debug, Default)]
pub struct Measured {
    /// The measured rounds.
    pub rounds: Vec<Round>,
    /// Measured wall time.
    pub wall: Duration,
    /// Response lines read.
    pub lines: u64,
    /// Per-request latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Peak RSS of each `cdat` process, in bytes.
    pub peak_rss: Vec<f64>,
    /// `cdat` processes (sessions or batch runs) measured.
    pub processes: usize,
    /// Spawn-to-ready times, in seconds.
    pub setup_s: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests answered with an in-band error, or never answered.
    pub failed: u64,
    /// Request bytes written.
    pub bytes_in: u64,
    /// Response bytes read.
    pub bytes_out: u64,
}

/// The rounds least disturbed by the hypervisor: those whose stolen
/// ticks per second are at most the median round's. On a shared virtual
/// machine the host takes CPU from the guest in stretches of seconds;
/// wall-clock figures of a round it hit describe the host, not `cdat`.
pub fn calm(rounds: &[Round]) -> Vec<&Round> {
    let rate = |r: &Round| r.steal as f64 / r.wall.as_secs_f64().max(1e-9);
    let mut rates: Vec<f64> = rounds.iter().map(rate).collect();
    rates.sort_by(f64::total_cmp);
    let Some(&cut) = rates.get(rates.len().saturating_sub(1) / 2) else { return Vec::new() };
    rounds.iter().filter(|r| rate(r) <= cut).collect()
}

impl Measured {
    fn round(&mut self, round: Round) {
        self.wall += round.wall;
        self.lines += round.lines;
        self.latencies_ms.extend_from_slice(&round.latencies_ms);
        self.rounds.push(round);
    }

    fn absorb(&mut self, phase: &Phase, cpu: Duration, steal: u64) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.bytes_in += phase.bytes_in;
        self.bytes_out += phase.bytes_out;
        self.round(Round {
            wall: phase.wall,
            lines: phase.lines,
            cpu,
            latencies_ms: phase.latencies_ms.clone(),
            steal,
        });
    }

    fn process(&mut self, peak_rss: u64) {
        self.peak_rss.push(peak_rss as f64);
        self.processes += 1;
    }
}

/// Counters from the `stats` op, summed over front families; a
/// difference of two readings covers the phase between them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Plain solve requests.
    pub requests: f64,
    /// Memory-cache hits.
    pub hits: f64,
    /// Disk-store hits.
    pub disk_hits: f64,
    /// Misses (solved).
    pub misses: f64,
    /// Cache evictions.
    pub evictions: f64,
    /// What-if variants answered.
    pub delta_requests: f64,
    /// Clean subtree fronts reused by what-if variants.
    pub subtree_hits: f64,
    /// Nodes recomputed by what-if variants.
    pub dirty_nodes: f64,
    /// Sum and count of jobs per flushed micro-batch.
    pub batch_fill: (f64, f64),
    /// Sum and count of batch accumulation times, in microseconds.
    pub dispatch_us: (f64, f64),
    /// Sum and count of engine queue waits, in microseconds.
    pub queue_wait_us: (f64, f64),
}

impl Counters {
    /// Reads a `stats` answer.
    pub fn read(stats: &Value) -> Counters {
        let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
        let mut c = Counters::default();
        if let Some(Value::Obj(families)) = stats.get("families") {
            for (_, f) in families {
                c.requests += num(f.get("requests"));
                c.hits += num(f.get("hits"));
                c.disk_hits += num(f.get("disk_hits"));
                c.misses += num(f.get("misses"));
                c.delta_requests += num(f.get("delta_requests"));
                c.subtree_hits += num(f.get("subtree_hits"));
                c.dirty_nodes += num(f.get("dirty_nodes"));
            }
        }
        c.evictions = num(stats.get("stats").and_then(|s| s.get("evictions")));
        let hist = |name: &str| {
            let h = stats.get("histograms").and_then(|h| h.get(name));
            (num(h.and_then(|h| h.get("sum"))), num(h.and_then(|h| h.get("count"))))
        };
        c.batch_fill = hist("batch_fill");
        c.dispatch_us = hist("dispatch_us");
        c.queue_wait_us = hist("queue_wait_us");
        c
    }

    /// `self` plus the counts `after` gained over `before`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        let d = |a: f64, b: f64| a - b;
        self.requests += d(after.requests, before.requests);
        self.hits += d(after.hits, before.hits);
        self.disk_hits += d(after.disk_hits, before.disk_hits);
        self.misses += d(after.misses, before.misses);
        self.evictions += d(after.evictions, before.evictions);
        self.delta_requests += d(after.delta_requests, before.delta_requests);
        self.subtree_hits += d(after.subtree_hits, before.subtree_hits);
        self.dirty_nodes += d(after.dirty_nodes, before.dirty_nodes);
        let pair = |acc: &mut (f64, f64), a: (f64, f64), b: (f64, f64)| {
            acc.0 += a.0 - b.0;
            acc.1 += a.1 - b.1;
        };
        pair(&mut self.batch_fill, after.batch_fill, before.batch_fill);
        pair(&mut self.dispatch_us, after.dispatch_us, before.dispatch_us);
        pair(&mut self.queue_wait_us, after.queue_wait_us, before.queue_wait_us);
    }
}

/// Inputs and the binary's answers for the traced replay.
pub enum Plan {
    /// A serve session: warm-up requests (replayed untraced), then the
    /// measured requests with the response lines the binary sent for each.
    Serve {
        /// Requests replayed untraced to rebuild the server's state.
        warmup: Vec<Req>,
        /// Measured requests and the binary's lines, in request order.
        requests: Vec<(Req, Vec<String>)>,
        /// Requests in flight in the end-to-end run (the replay's batch size).
        window: usize,
        /// The prepared store file and the cache budget, for serve_store.
        store: Option<(PathBuf, usize)>,
    },
    /// A `cdat batch` run: the suite text, its query flags and the lines
    /// the binary printed.
    Batch {
        /// The suite text.
        suite: String,
        /// The binary's output lines.
        lines: Vec<String>,
    },
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end measurements.
    pub measured: Measured,
    /// Output-check failures; any makes the run incorrect.
    pub problems: Vec<String>,
    /// The workload record: requests, bytes, sharing and shape figures.
    pub record: Vec<(&'static str, String)>,
    /// Server counters over the measured phases (serve workloads).
    pub counters: Counters,
    /// Requests in flight.
    pub window: usize,
    /// The traced replay's inputs, when tracing.
    pub plan: Option<Plan>,
}

fn serve_args(extra: &[String]) -> Vec<String> {
    let mut args = vec!["--workers".to_owned(), "2".to_owned()];
    args.extend_from_slice(extra);
    args
}

/// Groups kept lines per request, for the replay.
fn kept_requests(reqs: &[Req], phase: &Phase, keep: usize) -> Vec<(Req, Vec<String>)> {
    let n = keep.min(phase.attempted as usize).min(reqs.len());
    let mut out: Vec<(Req, Vec<String>)> =
        reqs[..n].iter().map(|r| (r.clone(), Vec::new())).collect();
    for (index, line) in &phase.kept {
        if let Some(slot) = out.get_mut(*index) {
            slot.1.push(line.clone());
        }
    }
    for (_, lines) in &mut out {
        lines.sort_by_key(|l| client::strip_id(l).map(|(_, v, _)| v));
    }
    out
}

fn share(part: f64, whole: f64) -> String {
    if whole > 0.0 {
        format!("{:.4}", part / whole)
    } else {
        "n/a".to_owned()
    }
}

/// Repeated-bytes share: requests whose document was already sent.
fn repeat_share(docs: &[u32]) -> f64 {
    let mut seen: HashSet<u32> = HashSet::new();
    let repeats = docs.iter().filter(|d| !seen.insert(**d)).count();
    repeats as f64 / docs.len().max(1) as f64
}

/// Checks filled slots against their `cdat batch` references — all of
/// them, or an evenly spaced `limit` of them — and returns how many were
/// checked and how many differ. `item` gives a slot's document and combo.
fn check_slots(
    ctx: &Ctx,
    slots: &[u64],
    limit: usize,
    item: impl Fn(usize) -> (String, inputs::Combo),
    history: &[&str],
) -> io::Result<(usize, usize)> {
    let used: Vec<usize> = (0..slots.len()).filter(|&s| slots[s] != 0).collect();
    let step = used.len().div_ceil(limit.max(1)).max(1);
    let picked: Vec<usize> = used.into_iter().step_by(step).collect();
    let items: Vec<(String, inputs::Combo)> = picked.iter().map(|&s| item(s)).collect();
    let borrowed: Vec<(&str, inputs::Combo)> =
        items.iter().map(|(d, c)| (d.as_str(), *c)).collect();
    let refs = check::references(ctx.cdat, ctx.work, &borrowed, &[], history)?;
    let pairs: Vec<(usize, u64)> = picked.into_iter().zip(refs).collect();
    Ok((pairs.len(), check::compare(slots, &pairs)))
}

/// Answers of serve_warm re-checked against `cdat batch` per run; every
/// other answer is checked against the first answer to the same
/// (document, query).
const WARM_CHECKED: usize = 6000;

/// Length of one serve_warm round.
const WARM_ROUND: f64 = 0.25;

/// `serve_warm`: every measured request is a cache hit.
pub fn serve_warm(ctx: &Ctx) -> io::Result<Outcome> {
    let size = ctx.size;
    let mut stream = inputs::WarmStream::new(ctx.seed, size.warm_pool, size.warm_bas);
    let args = serve_args(&[]);
    let mut measured = Measured::default();
    for _ in 0..size.setup_reps {
        let (session, setup) = Session::start(ctx.cdat, &args)?;
        measured.setup_s.push(setup.as_secs_f64());
        session.close()?;
    }

    let window = 32;
    let keep = if ctx.trace { size.replay_requests } else { 0 };
    let warmup = stream.warmup();
    let mut slots = vec![0u64; stream.docs() * WARM_COMBOS.len()];
    let (mut session, setup) = Session::start(ctx.cdat, &args)?;
    measured.setup_s.push(setup.as_secs_f64());
    let warm = session.run(&warmup, &mut slots, window, None, 0)?;
    let before = Counters::read(&session.stats()?);
    // The measured time is cut into rounds. Before each (untimed) the
    // stream is topped up to half again what the last round used, so the
    // list runs out only if the server suddenly speeds up.
    let rounds = ((ctx.seconds / WARM_ROUND).round() as usize).max(1);
    let round_time = secs(ctx.seconds / rounds as f64);
    let mut pending: Vec<inputs::WarmReq> = Vec::new();
    let mut need = size.warm_first_round;
    let (mut wraps, mut mismatched, mut repeats) = (0u64, 0u64, 0usize);
    let mut used_docs: HashSet<u32> = (0..size.warm_pool as u32).collect();
    let mut kept = Vec::new();
    for round in 0..rounds {
        if pending.len() < need {
            let more = stream.next(need - pending.len());
            pending.extend(more);
        }
        slots.resize(stream.docs() * WARM_COMBOS.len(), 0);
        let reqs: Vec<Req> = pending.iter().map(|w| w.req.clone()).collect();
        let steal = procfs::steal_ticks()?;
        let cpu = session.cpu()?;
        let phase = session.run(
            &reqs,
            &mut slots,
            window,
            Some(round_time),
            if round == 0 { keep } else { 0 },
        )?;
        let cpu = session.cpu()? - cpu;
        measured.absorb(&phase, cpu, procfs::steal_ticks()? - steal);
        mismatched += phase.mismatched;
        if round == 0 {
            kept = kept_requests(&reqs, &phase, keep);
        }
        let used = phase.attempted as usize;
        wraps += phase.wraps;
        for w in pending.drain(..used.min(reqs.len())) {
            repeats += usize::from(w.repeat);
            used_docs.insert(w.doc);
        }
        // Requests past the end of the list repeated earlier ones.
        repeats += used.saturating_sub(reqs.len());
        need = need.max(used + used / 2);
    }
    let after = Counters::read(&session.stats()?);
    measured.process(session.peak_rss()?);
    session.close()?;
    let mut counters = Counters::default();
    counters.add_delta(&before, &after);

    let mut problems = Vec::new();
    if warm.failed > 0 {
        problems.push(format!("{} warm-up requests failed", warm.failed));
    }
    if mismatched + warm.mismatched > 0 {
        problems.push(format!(
            "{} lines differ from an earlier answer to the same request",
            mismatched + warm.mismatched
        ));
    }
    // Slots of documents whose text was not kept are checked only against
    // earlier answers to the same request (above).
    for (slot, digest) in slots.iter_mut().enumerate() {
        if !stream.kept.contains_key(&((slot / WARM_COMBOS.len()) as u32)) {
            *digest = 0;
        }
    }
    let (checked, wrong) = check_slots(
        ctx,
        &slots,
        WARM_CHECKED,
        |s| {
            (
                inputs::field_text(&stream.kept[&((s / WARM_COMBOS.len()) as u32)]),
                WARM_COMBOS[s % WARM_COMBOS.len()],
            )
        },
        // The warm-up solved every pool tree before any copy arrived.
        &stream.pool.iter().map(String::as_str).collect::<Vec<_>>(),
    )?;
    if wrong > 0 {
        problems.push(format!("{wrong} of {checked} serve bodies differ from cdat batch"));
    }

    let pools: HashSet<u32> = used_docs.iter().map(|&d| stream.pool_of[d as usize]).collect();
    let record = vec![
        ("requests sent", measured.attempted.to_string()),
        ("bytes in", measured.bytes_in.to_string()),
        ("distinct documents", used_docs.len().to_string()),
        ("distinct canonical trees", pools.len().to_string()),
        ("exact-repeat share", share(repeats as f64, measured.attempted as f64)),
        ("cache-hit share", share(counters.hits, counters.requests)),
        ("treelike/DAG", format!("{}/0", pools.len())),
        ("request-list restarts", wraps.to_string()),
        ("checked against batch", format!("{checked} distinct answers")),
    ];
    let plan = ctx.trace.then_some(Plan::Serve { warmup, requests: kept, window, store: None });
    Ok(Outcome { measured, problems, record, counters, window, plan })
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// `batch_cold`: `cdat batch --cdpf --cedpf` over all-distinct trees,
/// repeated in fresh processes until the measured time is used.
pub fn batch_cold(ctx: &Ctx) -> io::Result<Outcome> {
    let size = ctx.size;
    let docs = inputs::cold(
        ctx.seed,
        size.cold_docs,
        size.cold_bas,
        size.cold_dag_bas,
        size.cold_dag_every,
    );
    let suite_text = inputs::suite(docs.iter().map(String::as_str));
    let suite = ctx.work.join("suite.txt");
    std::fs::write(&suite, &suite_text)?;
    // Set-up is the same command on a one-document suite; the document is
    // a 4-BAS tree, so its solve does not hide the start-up cost.
    let one = ctx.work.join("one.txt");
    std::fs::write(&one, inputs::suite([inputs::cold(ctx.seed, 1, 4, 4, 2)[0].as_str()]))?;
    let args: Vec<String> =
        ["--cdpf", "--cedpf", "--workers", "2"].iter().map(|s| s.to_string()).collect();

    let mut measured = Measured::default();
    let expected = docs.len() * 2;
    let mut first: Option<Vec<String>> = None;
    let mut problems = Vec::new();
    let mut hits = 0usize;
    loop {
        // Start-up samples are spread over the run, one per round, so a
        // slow stretch of the host cannot hold all of them.
        measured.setup_s.push(client::batch(ctx.cdat, &one, &args)?.wall.as_secs_f64());
        let steal = procfs::steal_ticks()?;
        let run = client::batch(ctx.cdat, &suite, &args)?;
        measured.round(Round {
            wall: run.wall,
            lines: run.lines.len() as u64,
            cpu: run.exit.cpu,
            latencies_ms: run.line_ms.clone(),
            steal: procfs::steal_ticks()? - steal,
        });
        measured.process(run.exit.peak_rss);
        measured.attempted += expected as u64;
        let errors = run.lines.iter().filter(|l| l.contains(",\"error\":\"")).count();
        measured.failed += (errors + expected.saturating_sub(run.lines.len())) as u64;
        measured.bytes_in += suite_text.len() as u64;
        measured.bytes_out += run.lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        hits += run.lines.iter().filter(|l| l.contains(",\"cache\":\"hit\"")).count();
        match &first {
            None => first = Some(run.lines),
            Some(lines) if *lines != run.lines => {
                problems.push("two runs of the same suite printed different output".to_owned());
            }
            Some(_) => {}
        }
        if measured.wall.as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    while measured.setup_s.len() < size.setup_reps {
        measured.setup_s.push(client::batch(ctx.cdat, &one, &args)?.wall.as_secs_f64());
    }
    let lines = first.expect("at least one run");

    // Backend transparency: a sample re-run with another exact backend
    // pinned — enumeration for the DAGs (all within its 30-BAS cap), BDD
    // for treelike cdpf. Treelike cedpf has no second backend at this size
    // (the fused solver's diagram budget overflows on dense damage), so it
    // is re-run under an explicit bottomup hint.
    let trees: Vec<_> =
        docs.iter().map(|d| cdat::format::parse(d).expect("generated documents parse")).collect();
    let step = (docs.len() / size.cold_sample.max(1)).max(1);
    let sample: Vec<usize> =
        (0..docs.len()).filter(|&i| i % step == 0 || !trees[i].tree().is_treelike()).collect();
    let pins = [
        (true, 0, "bdd"),
        (true, 1, "bottomup"),
        (false, 0, "enumerative"),
        (false, 1, "enumerative"),
    ];
    for (treelike, q, solver) in pins {
        let picked: Vec<usize> =
            sample.iter().copied().filter(|&i| trees[i].tree().is_treelike() == treelike).collect();
        let combo = [WARM_COMBOS[0], WARM_COMBOS[2]][q];
        let items: Vec<(&str, inputs::Combo)> =
            picked.iter().map(|&i| (docs[i].as_str(), combo)).collect();
        let refs = check::references(ctx.cdat, ctx.work, &items, &["--solver", solver], &[])?;
        for (&i, want) in picked.iter().zip(refs) {
            let got = lines.get(2 * i + q).and_then(|l| strip_batch(l)).map(|b| client::digest(&b));
            if got != Some(want) {
                problems.push(format!("document {i} differs from its --solver {solver} answer"));
            }
        }
    }

    let hashes: HashSet<_> = trees.iter().map(cdat::core::canonical::hash_cdp).collect();
    let dags = trees.iter().filter(|t| !t.tree().is_treelike()).count();
    let record = vec![
        ("requests sent", measured.attempted.to_string()),
        ("bytes in", measured.bytes_in.to_string()),
        ("distinct canonical trees", hashes.len().to_string()),
        (
            "exact-repeat share",
            "0.0000 (each run is a fresh process over distinct trees)".to_owned(),
        ),
        ("cache-hit share", share(hits as f64, measured.lines as f64)),
        ("treelike/DAG", format!("{}/{}", trees.len() - dags, dags)),
        ("batch runs", measured.processes.to_string()),
        ("backend-transparency sample", sample.len().to_string()),
    ];
    let plan = ctx.trace.then_some(Plan::Batch { suite: suite_text, lines });
    Ok(Outcome {
        measured,
        problems,
        record,
        counters: Counters::default(),
        window: expected,
        plan,
    })
}

/// The cache's `points` after solving `suite` unbudgeted, read from
/// `cdat batch --cache-stats`.
fn working_set_points(cdat: &Path, suite: &Path) -> io::Result<usize> {
    let out = Command::new(cdat)
        .arg("batch")
        .arg(suite)
        .args(["--cdpf", "--cache-stats", "--workers", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr
        .split_whitespace()
        .find_map(|w| w.strip_prefix("points="))
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| io::Error::other("cdat batch --cache-stats printed no points"))
}

/// `serve_store`: a restarted server over a half-written store, with a
/// cache budget a quarter of the working set.
pub fn serve_store(ctx: &Ctx) -> io::Result<Outcome> {
    let size = ctx.size;
    let input = inputs::stored(ctx.seed, size.store_docs, size.store_bas);
    let ws = ctx.work.join("working-set.txt");
    std::fs::write(&ws, inputs::suite(input.docs.iter().map(String::as_str)))?;
    let pre = ctx.work.join("prewritten.txt");
    std::fs::write(&pre, inputs::suite(input.prewritten.iter().map(|&i| input.docs[i].as_str())))?;
    let prepared = ctx.work.join("prepared.store");
    let _ = std::fs::remove_file(&prepared);
    let store_flag = |p: &Path| vec!["--store".to_owned(), p.display().to_string()];
    let mut args: Vec<String> =
        ["--cdpf", "--workers", "2"].iter().map(|s| s.to_string()).collect();
    args.extend(store_flag(&prepared));
    client::batch(ctx.cdat, &pre, &args)?;
    let budget = (working_set_points(ctx.cdat, &ws)? / 4).max(1);

    let live = ctx.work.join("live.store");
    let mut serve = store_flag(&live);
    serve.extend(["--cache-budget".to_owned(), budget.to_string()]);
    let serve = serve_args(&serve);
    let window = 32;
    let keep = if ctx.trace { usize::MAX } else { 0 };
    let mut measured = Measured::default();
    let mut counters = Counters::default();
    let mut slots = vec![0u64; input.docs.len() * STORE_COMBOS.len()];
    let mut mismatched = 0;
    let mut plan = None;
    loop {
        std::fs::copy(&prepared, &live)?;
        let (mut session, setup) = Session::start(ctx.cdat, &serve)?;
        measured.setup_s.push(setup.as_secs_f64());
        let before = Counters::read(&session.stats()?);
        let steal = procfs::steal_ticks()?;
        let cpu = session.cpu()?;
        let phase = session.run(
            &input.list,
            &mut slots,
            window,
            None,
            if plan.is_none() { keep } else { 0 },
        )?;
        let cpu = session.cpu()? - cpu;
        let after = Counters::read(&session.stats()?);
        let steal = procfs::steal_ticks()? - steal;
        measured.process(session.peak_rss()?);
        session.close()?;
        measured.absorb(&phase, cpu, steal);
        counters.add_delta(&before, &after);
        mismatched += phase.mismatched;
        if ctx.trace && plan.is_none() {
            plan = Some(Plan::Serve {
                warmup: Vec::new(),
                requests: kept_requests(&input.list, &phase, keep),
                window,
                store: Some((prepared.clone(), budget)),
            });
        }
        if measured.wall.as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    while measured.setup_s.len() < size.setup_reps {
        std::fs::copy(&prepared, &live)?;
        let (session, setup) = Session::start(ctx.cdat, &serve)?;
        measured.setup_s.push(setup.as_secs_f64());
        session.close()?;
    }
    let _ = std::fs::remove_file(&live);

    let mut problems = Vec::new();
    if mismatched > 0 {
        problems
            .push(format!("{mismatched} lines differ from an earlier answer to the same request"));
    }
    let (_, wrong) = check_slots(
        ctx,
        &slots,
        usize::MAX,
        |s| (input.docs[s / STORE_COMBOS.len()].clone(), STORE_COMBOS[s % STORE_COMBOS.len()]),
        &[],
    )?;
    if wrong > 0 {
        problems.push(format!("{wrong} serve bodies differ from cdat batch"));
    }
    let hashes: HashSet<_> = input
        .docs
        .iter()
        .map(|d| {
            cdat::core::canonical::hash_cd(
                cdat::format::parse(d).expect("generated documents parse").cd(),
            )
        })
        .collect();
    let sessions = measured.processes;
    let record = vec![
        ("requests sent", measured.attempted.to_string()),
        ("bytes in", measured.bytes_in.to_string()),
        ("distinct canonical trees", hashes.len().to_string()),
        ("exact-repeat share", format!("{:.4} within a session", repeat_share(&input.list_docs))),
        ("cache-hit share", share(counters.hits, counters.requests)),
        ("disk-hit share", share(counters.disk_hits, counters.requests)),
        ("treelike/DAG", format!("{}/0", input.docs.len())),
        ("sessions", sessions.to_string()),
        ("prewritten documents", input.prewritten.len().to_string()),
        ("cache budget (points)", budget.to_string()),
    ];
    Ok(Outcome { measured, problems, record, counters, window, plan })
}

/// `serve_interactive`: one analyst, one request in flight — a solve, a
/// sweep and a few what-ifs per base tree — in fresh sessions until the
/// measured time is used.
pub fn serve_interactive(ctx: &Ctx) -> io::Result<Outcome> {
    let size = ctx.size;
    let input = inputs::interactive(
        ctx.seed,
        size.inter_bases,
        size.inter_bas,
        size.inter_variants,
        size.inter_whatifs,
    );
    let items: Vec<(&str, inputs::Combo)> =
        input.refs.iter().map(|(d, c)| (d.as_str(), *c)).collect();
    let references = check::references(ctx.cdat, ctx.work, &items, &[], &[])?;

    let args = serve_args(&[]);
    let window = 1;
    let keep = if ctx.trace { usize::MAX } else { 0 };
    let mut measured = Measured::default();
    let mut counters = Counters::default();
    let mut problems = Vec::new();
    let mut plan = None;
    loop {
        let mut slots = vec![0u64; references.len()];
        let (mut session, setup) = Session::start(ctx.cdat, &args)?;
        measured.setup_s.push(setup.as_secs_f64());
        let before = Counters::read(&session.stats()?);
        let steal = procfs::steal_ticks()?;
        let cpu = session.cpu()?;
        let phase = session.run(
            &input.list,
            &mut slots,
            window,
            None,
            if plan.is_none() { keep } else { 0 },
        )?;
        let cpu = session.cpu()? - cpu;
        let after = Counters::read(&session.stats()?);
        let steal = procfs::steal_ticks()? - steal;
        measured.process(session.peak_rss()?);
        session.close()?;
        measured.absorb(&phase, cpu, steal);
        counters.add_delta(&before, &after);
        let wrong = slots.iter().zip(&references).filter(|(got, want)| got != want).count();
        if wrong + phase.mismatched as usize > 0 && problems.is_empty() {
            problems.push(format!("{wrong} sweep/what-if/solve lines differ from cdat batch on the materialized variant"));
        }
        if ctx.trace && plan.is_none() {
            plan = Some(Plan::Serve {
                warmup: Vec::new(),
                requests: kept_requests(&input.list, &phase, keep),
                window,
                store: None,
            });
        }
        if measured.wall.as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    while measured.setup_s.len() < size.setup_reps {
        let (session, setup) = Session::start(ctx.cdat, &args)?;
        measured.setup_s.push(setup.as_secs_f64());
        session.close()?;
    }
    let sessions = measured.processes;
    let record = vec![
        ("requests sent", measured.attempted.to_string()),
        ("bytes in", measured.bytes_in.to_string()),
        (
            "distinct canonical trees",
            format!(
                "{} bases, {} materialized variants",
                input.bases.len(),
                references.len() - input.bases.len()
            ),
        ),
        (
            "exact-repeat share",
            "0.0000 within a session (each session is a fresh server)".to_owned(),
        ),
        ("cache-hit share", share(counters.hits, counters.requests)),
        ("treelike/DAG", format!("{}/0", input.bases.len())),
        ("sessions", sessions.to_string()),
        ("what-if variants", counters.delta_requests.to_string()),
    ];
    Ok(Outcome { measured, problems, record, counters, window, plan })
}
