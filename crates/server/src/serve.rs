//! The long-running serving loops: micro-batching dispatcher, stdio
//! transport, TCP transport.
//!
//! Requests flow `reader → dispatcher → shard → writer`:
//!
//! * a **reader** parses one JSON request per line and submits one job per
//!   (document × request) to the dispatcher; parse errors and `stats` ops
//!   are answered immediately, bypassing the batch path;
//! * the **dispatcher** accumulates jobs into micro-batches — a batch is
//!   flushed when it reaches [`ServeConfig::batch_max`] jobs or when
//!   [`ServeConfig::batch_window`] has elapsed since its first job — and
//!   scatters every flush across the shards by structural hash;
//! * each **shard** answers its slice through its private engine and cache
//!   (see [`Router`](crate::Router));
//! * a per-connection **writer** streams response lines back as they
//!   complete, in completion order — clients correlate by `id`.
//!
//! Batching is a latency/throughput dial, not a semantic one: responses
//! are byte-identical whatever the batch window, batch size or shard
//! count, because every solver is deterministic and cache entries are
//! keyed canonically.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdat_format::json::Value;
use cdat_obs::{TraceField, TraceWriter};

use crate::protocol::{
    delta_response_prefix, error_line, metrics_line, parse_request, response_prefix, stats_line,
    Request,
};
use crate::router::{DeltaRouteRequest, Reply, RouteRequest, Router, RouterConfig};

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of worker shards.
    pub shards: usize,
    /// Flush a micro-batch at this many jobs even if the window is open.
    pub batch_max: usize,
    /// How long the dispatcher waits after a batch's first job for more
    /// jobs to share the flush. Zero flushes greedily (whatever is already
    /// queued goes out together).
    pub batch_window: Duration,
    /// Total front-cache budget in points, split over the shards; `None`
    /// means unbounded.
    pub cache_budget: Option<usize>,
    /// Path of a persistent front store below the shard caches; `None`
    /// serves from memory only. A server restarted on the same path starts
    /// warm: fronts computed by the previous run answer from disk.
    pub store: Option<PathBuf>,
    /// JSONL flight recorder for span events (request parsing here, the
    /// engine stages inside the shards); `None` disables tracing. Purely
    /// out of band: response bytes are identical either way.
    pub trace: Option<TraceWriter>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            batch_max: 64,
            batch_window: Duration::from_micros(1000),
            cache_budget: None,
            store: None,
            trace: None,
        }
    }
}

impl ServeConfig {
    fn router_config(&self) -> RouterConfig {
        RouterConfig {
            shards: self.shards,
            cache_budget: self.cache_budget,
            store: self.store.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// One job on its way to the dispatcher.
type Job = (u64, RouteRequest, Sender<Reply>);

/// The micro-batching loop: accumulate until `batch_max` jobs or
/// `batch_window` past the batch's first job, then scatter to the shards.
/// Returns (flushing the final partial batch) when every submitter is
/// gone.
fn dispatch_loop(router: Arc<Router>, rx: Receiver<Job>, batch_max: usize, window: Duration) {
    // Batch-fill and accumulation-latency histograms, observed at every
    // flush (out of band: they never change what is dispatched).
    let flush = |batch: Vec<Job>, accumulating_since: Instant| {
        let metrics = router.dispatch_metrics();
        metrics.batch_fill.observe(batch.len() as u64);
        metrics.dispatch_us.observe_since(accumulating_since);
        router.dispatch(batch);
    };
    loop {
        // Block for the first job of the next batch.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let accumulating_since = Instant::now();
        let mut batch = vec![first];
        let deadline = accumulating_since + window;
        while batch.len() < batch_max {
            let now = Instant::now();
            if now >= deadline {
                // Window closed: take whatever is already queued, no more
                // waiting.
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            } else {
                match rx.recv_timeout(deadline - now) {
                    Ok(job) => batch.push(job),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        flush(batch, accumulating_since);
                        return;
                    }
                }
            }
        }
        flush(batch, accumulating_since);
    }
}

/// The longest request line the server reads, in bytes, not counting its
/// `\n`. A longer line is answered with one short error line and skipped
/// up to its newline without being buffered.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// One line of input, as [`next_line`] reads it.
enum Line<'a> {
    /// A request line, without its line ending.
    Request(&'a str),
    /// A line answered with this error instead of being parsed.
    Bad(String),
    /// End of input, or a read error: the session is over.
    End,
}

/// Reads the next line into `buf` and strips its `\n` and a `\r` before
/// it, as [`BufRead::lines`] does. A line longer than [`MAX_REQUEST_LINE`]
/// is consumed to its newline but not kept, and a line that is not UTF-8
/// is reported, not returned: neither ends the session.
fn next_line<'a, R: BufRead>(reader: &mut R, buf: &'a mut Vec<u8>) -> Line<'a> {
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    match reader.by_ref().take(limit).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return Line::End,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE {
        if skip_line(reader).is_err() {
            return Line::End;
        }
        return Line::Bad(format!("request line longer than {MAX_REQUEST_LINE} bytes"));
    }
    match std::str::from_utf8(buf) {
        Ok(line) => Line::Request(line),
        Err(e) => Line::Bad(format!(
            "request line is not valid UTF-8 (invalid byte at {})",
            e.valid_up_to()
        )),
    }
}

/// Consumes input up to and including the next `\n` (or to the end),
/// without keeping it.
fn skip_line<R: BufRead>(reader: &mut R) -> std::io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(at) => {
                reader.consume(at + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                reader.consume(len);
            }
        }
    }
}

/// Reads requests line by line, answering control and error lines
/// immediately and submitting solve jobs to the dispatcher. Every line
/// gets an answer: an oversized or non-UTF-8 line gets an error line with
/// a `null` id, and reading goes on.
///
/// `seq` numbers this reader's jobs (ordering within `Router::solve`-style
/// gathers; streamed writers ignore it).
fn read_loop<R: BufRead>(
    mut reader: R,
    router: &Router,
    batcher: &Sender<Job>,
    reply: &Sender<Reply>,
    seq: &mut u64,
    trace: Option<&TraceWriter>,
) {
    let mut buf = Vec::new();
    loop {
        let mut next_seq = || {
            *seq += 1;
            *seq
        };
        let line = match next_line(&mut reader, &mut buf) {
            Line::Request(line) => line,
            Line::Bad(message) => {
                let _ = reply.send((next_seq(), error_line(&Value::Null, &message)));
                continue;
            }
            Line::End => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let parse_started = Instant::now();
        let parsed = parse_request(line);
        if let Some(trace) = trace {
            trace.emit(
                "parse",
                parse_started.elapsed(),
                &[("ok", TraceField::Bool(parsed.is_ok()))],
            );
        }
        match parsed {
            Err((id, message)) => {
                let _ = reply.send((next_seq(), error_line(&id, &message)));
            }
            Ok(Request::Stats { id }) => {
                // Answered out of band: stats never wait for a batch
                // window (and never skew one).
                let _ =
                    reply.send((next_seq(), stats_line(&id, &router.stats(), &router.snapshot())));
            }
            Ok(Request::Metrics { id }) => {
                let _ = reply.send((next_seq(), metrics_line(&id, router)));
            }
            Ok(Request::Delta(request)) => {
                // Whatif/sweep jobs skip the micro-batcher (a sweep is
                // already a batch) and go straight to the shard owning the
                // base tree; replies stream back one line per patch, in
                // patch order.
                let first = next_seq();
                for _ in 1..request.patches.len() {
                    next_seq();
                }
                let prefixes = (0..request.patches.len())
                    .map(|k| {
                        delta_response_prefix(
                            &request.id,
                            request.sweep.then_some(k),
                            request.query,
                        )
                    })
                    .collect();
                let job = DeltaRouteRequest {
                    tree: request.tree,
                    query: request.query,
                    witnesses: request.witnesses,
                    patches: request.patches,
                    prefixes,
                };
                router.dispatch_delta(first, job, reply.clone());
            }
            Ok(Request::Solve(request)) => {
                for doc in &request.docs {
                    let suite_info = request.suite.then_some((doc.doc, doc.name.as_deref()));
                    let job = RouteRequest {
                        tree: doc.tree.clone(),
                        query: request.query,
                        hint: request.hint,
                        witnesses: request.witnesses,
                        prefix: response_prefix(&request.id, suite_info, request.query),
                    };
                    if batcher.send((next_seq(), job, reply.clone())).is_err() {
                        return; // server shutting down
                    }
                }
            }
        }
    }
}

/// Writes response lines as they complete, flushing per line so pipelining
/// clients see answers promptly. Returns when every reply sender is gone.
fn write_loop<W: Write>(mut sink: W, rx: Receiver<Reply>) {
    for (_, line) in rx {
        if writeln!(sink, "{line}").and_then(|()| sink.flush()).is_err() {
            // Client hung up. Dropping the receiver is enough: sends are
            // non-blocking and the shards ignore failed sends.
            return;
        }
    }
}

/// Serves requests from stdin to stdout until EOF; response lines stream
/// in completion order. Every pending request is answered before this
/// returns.
///
/// # Errors
///
/// Only opening the configured persistent store can fail; a memory-only
/// configuration never errors.
pub fn serve_stdio(config: &ServeConfig) -> std::io::Result<()> {
    let router = Arc::new(Router::new(config.router_config())?);
    let (reply_tx, reply_rx) = channel::<Reply>();
    let (batch_tx, batch_rx) = channel::<Job>();

    let dispatcher = {
        let router = router.clone();
        let (batch_max, window) = (config.batch_max.max(1), config.batch_window);
        std::thread::spawn(move || dispatch_loop(router, batch_rx, batch_max, window))
    };
    let writer = std::thread::spawn(move || write_loop(std::io::stdout().lock(), reply_rx));

    let stdin = std::io::stdin();
    let mut seq = 0;
    read_loop(stdin.lock(), &router, &batch_tx, &reply_tx, &mut seq, config.trace.as_ref());

    // Shutdown cascade: no more jobs → dispatcher flushes and exits → the
    // router joins its shards (draining pending batches) → the last reply
    // sender disappears → the writer drains and exits.
    drop(batch_tx);
    let _ = dispatcher.join();
    drop(router);
    drop(reply_tx);
    let _ = writer.join();
    Ok(())
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), announces
/// `cdat-serve: listening on <addr>` on stderr, and serves connections
/// forever; every connection multiplexes onto the shared dispatcher and
/// shard pool.
///
/// # Errors
///
/// Only binding and opening the configured persistent store can fail;
/// per-connection I/O errors just end that connection.
pub fn serve_tcp(addr: &str, config: &ServeConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("cdat-serve: listening on {}", listener.local_addr()?);
    let router = Arc::new(Router::new(config.router_config())?);
    let (batch_tx, batch_rx) = channel::<Job>();
    {
        let router = router.clone();
        let (batch_max, window) = (config.batch_max.max(1), config.batch_window);
        std::thread::spawn(move || dispatch_loop(router, batch_rx, batch_max, window));
    }

    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let Ok(write_half) = stream.try_clone() else { continue };
        let (reply_tx, reply_rx) = channel::<Reply>();
        std::thread::spawn(move || write_loop(write_half, reply_rx));
        let router = router.clone();
        let batch_tx = batch_tx.clone();
        let trace = config.trace.clone();
        std::thread::spawn(move || {
            let mut seq = 0;
            read_loop(
                BufReader::new(stream),
                &router,
                &batch_tx,
                &reply_tx,
                &mut seq,
                trace.as_ref(),
            );
            // Dropping reply_tx lets the connection's writer exit once the
            // in-flight jobs (which hold clones) are answered.
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `read_loop` + dispatcher + shards end to end over in-memory
    /// pipes, returning all response lines (completion order).
    fn serve_text(input: &str, config: &ServeConfig) -> Vec<String> {
        let router = Arc::new(Router::new(config.router_config()).expect("open router"));
        let (reply_tx, reply_rx) = channel::<Reply>();
        let (batch_tx, batch_rx) = channel::<Job>();
        let dispatcher = {
            let router = router.clone();
            let (batch_max, window) = (config.batch_max.max(1), config.batch_window);
            std::thread::spawn(move || dispatch_loop(router, batch_rx, batch_max, window))
        };
        let mut seq = 0;
        read_loop(input.as_bytes(), &router, &batch_tx, &reply_tx, &mut seq, config.trace.as_ref());
        drop(batch_tx);
        dispatcher.join().unwrap();
        drop(router);
        drop(reply_tx);
        reply_rx.iter().map(|(_, line)| line).collect()
    }

    fn sorted_by_id(mut lines: Vec<String>) -> Vec<String> {
        lines.sort();
        lines
    }

    #[test]
    fn answers_tree_requests_and_errors_in_one_session() {
        let input = concat!(
            r#"{"id":0,"tree":"or root damage=200\n  bas ca cost=1\n","query":"cdpf"}"#,
            "\n",
            "this is not json\n",
            "\n",
            r#"{"id":2,"tree":"or root damage=200\n  bas ca cost=1\n","query":"dgc","arg":5}"#,
            "\n",
            r#"{"op":"stats","id":3}"#,
            "\n",
        );
        let lines = serve_text(input, &ServeConfig::default());
        assert_eq!(lines.len(), 4);
        let sorted = sorted_by_id(lines);
        assert_eq!(sorted[0], "{\"id\":0,\"query\":\"cdpf\",\"front\":[[0,0],[1,200]]}");
        assert!(sorted[1].starts_with("{\"id\":2,\"query\":\"dgc\",\"arg\":5,\"point\":"));
        assert!(sorted[2].starts_with("{\"id\":3,\"stats\":"), "{}", sorted[2]);
        assert!(sorted[3].starts_with("{\"id\":null,\"error\":\"bad JSON"), "{}", sorted[3]);
    }

    #[test]
    fn suite_requests_fan_out_one_line_per_document() {
        let input = concat!(
            r#"{"id":"s","suite":"--- a\nor g damage=1\n  bas x cost=2\n"#,
            r#"--- b\nor h damage=3\n  bas y cost=4\n"}"#,
            "\n",
        );
        let lines = sorted_by_id(serve_text(input, &ServeConfig::default()));
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":\"s\",\"doc\":0,\"name\":\"a\",\"query\":\"cdpf\",\"front\":[[0,0],[2,1]]}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":\"s\",\"doc\":1,\"name\":\"b\",\"query\":\"cdpf\",\"front\":[[0,0],[4,3]]}"
        );
    }

    #[test]
    fn responses_are_identical_across_batch_windows_and_shard_counts() {
        // 24 requests over 8 distinct trees; every (window, batch_max,
        // shards) combination must produce the same response set.
        use std::fmt::Write as _;
        let mut input = String::new();
        for i in 0..24 {
            let (cost, damage) = (1 + i % 8, 10 * (1 + i % 8));
            let _ = writeln!(
                input,
                "{{\"id\":{i},\"tree\":\"or root damage={damage}\\n  bas x cost={cost}\\n  bas y cost=2\\n\",\"query\":\"cdpf\"}}",
            );
        }
        let reference = sorted_by_id(serve_text(
            &input,
            &ServeConfig {
                shards: 1,
                batch_max: 1,
                batch_window: Duration::ZERO,
                ..Default::default()
            },
        ));
        assert_eq!(reference.len(), 24);
        for (shards, batch_max, window_us) in [(1, 64, 0), (2, 4, 500), (4, 64, 2000), (8, 7, 100)]
        {
            let config = ServeConfig {
                shards,
                batch_max,
                batch_window: Duration::from_micros(window_us),
                ..Default::default()
            };
            let lines = sorted_by_id(serve_text(&input, &config));
            assert_eq!(lines, reference, "shards={shards} max={batch_max} window={window_us}us");
        }
    }

    #[test]
    fn witnesses_flow_through_the_protocol() {
        let input = concat!(
            r#"{"id":0,"tree":"or root damage=200\n  bas ca cost=1\n  bas cb cost=2\n","witnesses":true}"#,
            "\n",
            r#"{"id":1,"tree":"or root damage=200\n  bas ca cost=1\n  bas cb cost=2\n"}"#,
            "\n",
            r#"{"id":2,"tree":"or root damage=200\n  bas ca cost=1\n  bas cb cost=2\n","query":"dgc","arg":5,"witnesses":true}"#,
            "\n",
        );
        let lines = sorted_by_id(serve_text(input, &ServeConfig::default()));
        assert_eq!(
            lines[0],
            "{\"id\":0,\"query\":\"cdpf\",\"front\":[[0,0],[1,200]],\"witnesses\":[[],[0]]}"
        );
        assert_eq!(
            lines[1], "{\"id\":1,\"query\":\"cdpf\",\"front\":[[0,0],[1,200]]}",
            "unwitnessed responses keep the pre-witness bytes even on a shared entry"
        );
        assert_eq!(
            lines[2],
            "{\"id\":2,\"query\":\"dgc\",\"arg\":5,\"point\":[1,200],\"witness\":[0]}"
        );
    }

    #[test]
    fn whatif_and_sweep_ops_serve_patched_variants() {
        let tree = r#""tree":"or root damage=200\n  bas ca cost=1\n  bas cb cost=3\n""#;
        let input = format!(
            concat!(
                "{{\"id\":0,{tree},\"query\":\"cdpf\"}}\n",
                "{{\"op\":\"whatif\",\"id\":1,{tree},\"patch\":{{\"cost\":{{\"ca\":2}}}}}}\n",
                "{{\"op\":\"sweep\",\"id\":2,{tree},\"witnesses\":true,\"patches\":",
                "[{{\"cost\":{{\"ca\":5}}}},{{\"defend\":[\"ca\"]}},",
                "{{\"gate\":{{\"root\":\"and\"}}}}]}}\n",
                "{{\"op\":\"whatif\",\"id\":3,{tree},\"query\":\"min-time\",\"patch\":{{}}}}\n",
            ),
            tree = tree
        );
        let lines = sorted_by_id(serve_text(&input, &ServeConfig::default()));
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "{\"id\":0,\"query\":\"cdpf\",\"front\":[[0,0],[1,200]]}");
        // The whatif answer carries exactly the bytes a scratch solve of
        // the patched tree would (no variant field).
        assert_eq!(lines[1], "{\"id\":1,\"query\":\"cdpf\",\"front\":[[0,0],[2,200]]}");
        assert_eq!(
            lines[2],
            "{\"id\":2,\"variant\":0,\"query\":\"cdpf\",\"front\":[[0,0],[3,200]],\
             \"witnesses\":[[],[1]]}",
            "raising ca to 5 makes cb the cheapest attack"
        );
        assert_eq!(
            lines[3],
            "{\"id\":2,\"variant\":1,\"query\":\"cdpf\",\"front\":[[0,0],[3,200]],\
             \"witnesses\":[[],[1]]}",
            "defending ca leaves cb as the cheapest attack"
        );
        assert_eq!(
            lines[4],
            "{\"id\":2,\"variant\":2,\"query\":\"cdpf\",\"front\":[[0,0],[4,200]],\
             \"witnesses\":[[],[0,1]]}",
            "the or→and swap needs both BASs"
        );
        assert!(
            lines[5].starts_with("{\"id\":3,\"query\":\"min-time\",\"error\":"),
            "scalar families have no incremental path: {}",
            lines[5]
        );
    }

    #[test]
    fn serving_restarts_warm_from_a_store() {
        use std::fmt::Write as _;
        let path = std::env::temp_dir()
            .join(format!("cdat-serve-warm-restart-{}.cdatstore", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut input = String::new();
        for i in 0..9 {
            let (cost, damage) = (1 + i % 3, 7 * (1 + i % 3));
            let _ = writeln!(
                input,
                "{{\"id\":{i},\"tree\":\"or root damage={damage}\\n  bas x cost={cost}\\n\",\"query\":\"cdpf\"}}",
            );
        }
        let config = ServeConfig { store: Some(path.clone()), ..Default::default() };
        let cold = sorted_by_id(serve_text(&input, &config));
        // A second server process on the same store file answers from disk
        // with the same bytes; so does a storeless server.
        let warm = sorted_by_id(serve_text(&input, &config));
        assert_eq!(warm, cold);
        let storeless = sorted_by_id(serve_text(&input, &ServeConfig::default()));
        assert_eq!(storeless, cold);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn solver_hints_flow_through_the_protocol() {
        let treelike = r#"{"id":1,"tree":"or g damage=7\n  bas x cost=3\n","solver":"bilp"}"#;
        let dag = concat!(
            r#"{"id":2,"tree":"or r\n  and g1\n    bas x cost=1\n    bas y\n  and g2\n"#,
            r#"    ref x\n    bas z\n","solver":"bottomup"}"#
        );
        let lines =
            sorted_by_id(serve_text(&format!("{treelike}\n{dag}\n"), &ServeConfig::default()));
        assert_eq!(lines[0], "{\"id\":1,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}");
        assert!(lines[1].contains("\"error\":\"the bottom-up solver requires"), "{}", lines[1]);
    }
}
