//! The one client process: spawns the release `cdat` binary and drives it
//! over a stdio pipe.
//!
//! A serve session uses two threads — the calling thread writes requests,
//! a scoped reader thread reads responses — and one connection. The loop
//! is closed: at most `window` requests are in flight, and a request is
//! written only after an earlier one has been answered in full.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::procfs;

/// One request of a serve workload. Its wire line is
/// `{"id":N,` + `head` + `tail` + `\n`, so requests sharing a document
/// share its (escaped) text instead of copying it.
#[derive(Clone, Debug)]
pub struct Req {
    /// The request fields up to the document, e.g. `"tree":"..."`.
    pub head: Arc<str>,
    /// The remaining fields and the closing brace, e.g. `,"query":"cdpf"}`.
    pub tail: Arc<str>,
    /// Response lines the request is answered with (one per sweep patch).
    pub lines: u32,
    /// Reference slot of the first response line; line `k` of a sweep
    /// checks against slot `check + k`.
    pub check: u32,
}

impl Req {
    /// The wire line for request id `id`, without the newline.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}{}", self.head, self.tail)
    }
}

/// A response line reduced to what the batch contract compares: the `id`
/// and `variant` fields removed, plus the variant index.
pub fn strip_id(line: &str) -> Option<(u64, usize, String)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find([',', '}'])?;
    let id: u64 = rest[..end].parse().ok()?;
    let mut rest = &rest[end..];
    let mut variant = 0;
    if let Some(after) = rest.strip_prefix(",\"variant\":") {
        let end = after.find([',', '}'])?;
        variant = after[..end].parse().ok()?;
        rest = &after[end..];
    }
    let body = match rest.strip_prefix(',') {
        Some(fields) => format!("{{{fields}"),
        None => format!("{{{rest}"),
    };
    Some((id, variant, body))
}

/// A `cdat batch` output line reduced the same way: `doc`, `name` and
/// `cache` removed.
pub fn strip_batch(line: &str) -> Option<String> {
    let rest = line.strip_prefix("{\"doc\":")?;
    let mut rest = &rest[rest.find(',')?..];
    if let Some(after) = rest.strip_prefix(",\"name\":\"") {
        // Names are plain identifiers in every generated suite.
        rest = &after[after.find('"')? + 1..];
    }
    let fields = rest.strip_prefix(',')?;
    let (query, after) = match fields.find(",\"cache\":\"") {
        Some(at) => (&fields[..at], &fields[at + ",\"cache\":\"".len()..]),
        None => return Some(format!("{{{fields}")),
    };
    let after = &after[after.find('"')? + 1..];
    Some(format!("{{{query}{after}"))
}

/// A fixed-key 64-bit digest of a stripped body (never 0, which marks an
/// empty reference slot).
pub fn digest(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(body.as_bytes());
    h.finish() | 1
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time from the first request written to the last line read.
    pub wall: Duration,
    /// Per-request latency in milliseconds, write to last response line.
    pub latencies_ms: Vec<f64>,
    /// Requests written.
    pub attempted: u64,
    /// Requests answered with an in-band error on any of their lines.
    pub failed: u64,
    /// Response lines read.
    pub lines: u64,
    /// Lines whose body disagreed with an earlier line of the same slot.
    pub mismatched: u64,
    /// Request bytes written.
    pub bytes_in: u64,
    /// Response bytes read.
    pub bytes_out: u64,
    /// Times the request list was exhausted and restarted.
    pub wraps: u64,
    /// Full response lines of the first `keep` requests, by request index
    /// and line order (for the replay's byte-equality check).
    pub kept: Vec<(usize, String)>,
}

/// A running `cdat serve --stdio` process. Dropping a session that was
/// not closed kills the server and waits for it.
pub struct Session {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
    reaped: bool,
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Session {
    /// Spawns `cdat serve --stdio` with `args` and waits for its first
    /// `stats` answer; returns the session and the spawn-to-ready time.
    pub fn start(cdat: &Path, args: &[String]) -> io::Result<(Session, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(cdat)
            .arg("serve")
            .arg("--stdio")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = Some(BufWriter::new(child.stdin.take().expect("stdin is piped")));
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut session = Session { child, stdin, stdout, next_id: 1, reaped: false };
        session.stats()?;
        Ok((session, started.elapsed()))
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `{"op":"stats"}` while nothing else is in flight and returns
    /// the parsed answer.
    pub fn stats(&mut self) -> io::Result<cdat::format::json::Value> {
        let id = self.next_id;
        self.next_id += 1;
        let stdin = self.stdin.as_mut().expect("stdin is open until close");
        writeln!(stdin, "{{\"op\":\"stats\",\"id\":{id}}}")?;
        stdin.flush()?;
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server closed stdout before answering stats"));
        }
        cdat::format::json::parse(line.trim_end()).map_err(io::Error::other)
    }

    /// Writes `reqs` in order with at most `window` in flight; with a
    /// `deadline`, keeps writing (restarting the list when exhausted)
    /// until the deadline passes, otherwise writes the list once. Returns
    /// after every written request is answered.
    ///
    /// `slots` holds one body digest per reference slot: the first line
    /// for a slot fills it, later lines must match it.
    pub fn run(
        &mut self,
        reqs: &[Req],
        slots: &mut [u64],
        window: usize,
        deadline: Option<Duration>,
        keep: usize,
    ) -> io::Result<Phase> {
        assert!(!reqs.is_empty() && window >= 1);
        // id → (request index, write time, lines still expected, failed)
        type Pending = HashMap<u64, (usize, Instant, u32, bool)>;
        let pending: Mutex<Pending> = Mutex::new(HashMap::new());
        // Total lines the phase must read; u64::MAX until the writer stops.
        let expected = AtomicU64::new(u64::MAX);
        let (tokens, released) = sync_channel::<()>(window);
        // Ids travel as JSON numbers (doubles): the sentinel must be exact.
        let sentinel = (1u64 << 53) - 1;
        let first_id = self.next_id;
        let started = Instant::now();
        let stdout = &mut self.stdout;
        let stdin = self.stdin.as_mut().expect("stdin is open until close");

        let (writer, reader) = std::thread::scope(|scope| {
            let (pending, expected) = (&pending, &expected);
            let reader = scope.spawn(move || -> io::Result<Phase> {
                let mut phase = Phase::default();
                let mut line = String::new();
                let mut last = started;
                loop {
                    let total = expected.load(Ordering::SeqCst);
                    if phase.lines >= total {
                        break;
                    }
                    line.clear();
                    if stdout.read_line(&mut line)? == 0 {
                        return Err(io::Error::other("server closed stdout mid-phase"));
                    }
                    let text = line.trim_end_matches('\n');
                    let Some((id, variant, body)) = strip_id(text) else {
                        return Err(io::Error::other(format!("unparseable response {text:?}")));
                    };
                    if id == sentinel {
                        // The writer stored `expected` before the sentinel.
                        continue;
                    }
                    let now = Instant::now();
                    last = now;
                    phase.lines += 1;
                    phase.bytes_out += line.len() as u64;
                    let mut map = pending.lock().expect("pending map poisoned");
                    let entry = map
                        .get_mut(&id)
                        .ok_or_else(|| io::Error::other(format!("response for unknown id {id}")))?;
                    let req = &reqs[entry.0];
                    let slot = req.check as usize + variant;
                    let d = digest(&body);
                    match slots.get_mut(slot) {
                        Some(s) if *s == 0 => *s = d,
                        Some(s) if *s != d => phase.mismatched += 1,
                        Some(_) => {}
                        None => return Err(io::Error::other("variant beyond its request")),
                    }
                    if body.contains(",\"error\":\"") {
                        entry.3 = true;
                    }
                    let index = (id - first_id) as usize;
                    if index < keep {
                        phase.kept.push((index, text.to_owned()));
                    }
                    entry.2 -= 1;
                    if entry.2 == 0 {
                        let (_, sent, _, failed) = map.remove(&id).expect("entry present");
                        drop(map);
                        phase.latencies_ms.push((now - sent).as_secs_f64() * 1e3);
                        phase.failed += u64::from(failed);
                        released.recv().map_err(|_| io::Error::other("writer vanished"))?;
                    }
                }
                phase.wall = last - started;
                Ok(phase)
            });

            let writer = (|| -> io::Result<(u64, u64, u64, u64)> {
                let (mut sent, mut lines, mut bytes, mut wraps) = (0u64, 0u64, 0u64, 0u64);
                let mut i = 0usize;
                let mut buf = String::new();
                loop {
                    if i == reqs.len() {
                        if deadline.is_none() {
                            break;
                        }
                        i = 0;
                        wraps += 1;
                    }
                    if deadline.is_some_and(|d| started.elapsed() >= d) {
                        break;
                    }
                    tokens.send(()).map_err(|_| io::Error::other("reader vanished"))?;
                    let id = first_id + sent;
                    let req = &reqs[i];
                    buf.clear();
                    use std::fmt::Write as _;
                    let _ = writeln!(buf, "{{\"id\":{id},{}{}", req.head, req.tail);
                    pending
                        .lock()
                        .expect("pending map poisoned")
                        .insert(id, (i, Instant::now(), req.lines, false));
                    stdin.write_all(buf.as_bytes())?;
                    stdin.flush()?;
                    bytes += buf.len() as u64;
                    lines += u64::from(req.lines);
                    sent += 1;
                    i += 1;
                }
                expected.store(lines, Ordering::SeqCst);
                // The sentinel answer wakes a reader that is already
                // waiting with every line in hand.
                writeln!(stdin, "{{\"op\":\"stats\",\"id\":{sentinel}}}")?;
                stdin.flush()?;
                Ok((sent, lines, bytes, wraps))
            })();
            if writer.is_err() {
                // Unblock the reader: no further lines will be expected.
                expected.store(0, Ordering::SeqCst);
            }
            (writer, reader.join().expect("reader thread panicked"))
        });
        let (sent, _, bytes_in, wraps) = writer?;
        let mut phase = reader?;
        self.next_id = first_id + sent;
        // The sentinel's own answer may still be unread when the last
        // solve line arrived after it; drain it so the pipe stays in step.
        phase.attempted = sent;
        phase.bytes_in = bytes_in;
        phase.wraps = wraps;
        phase.kept.sort_by_key(|(index, _)| *index);
        self.sync()?;
        Ok(phase)
    }

    /// Reads up to and including the sentinel answer if it has not been
    /// read yet, by sending a marker stats op and reading until its answer.
    fn sync(&mut self) -> io::Result<()> {
        let marker = self.next_id;
        self.next_id += 1;
        let stdin = self.stdin.as_mut().expect("stdin is open until close");
        writeln!(stdin, "{{\"op\":\"stats\",\"id\":{marker}}}")?;
        stdin.flush()?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("server closed stdout"));
            }
            if line.starts_with(&format!("{{\"id\":{marker},")) {
                return Ok(());
            }
        }
    }

    /// CPU time the server has used so far.
    pub fn cpu(&self) -> io::Result<Duration> {
        procfs::cpu_time(self.pid())
    }

    /// The server's peak resident set size so far, in bytes.
    pub fn peak_rss(&self) -> io::Result<u64> {
        procfs::peak_rss(self.pid())
    }

    /// Closes stdin and waits for the server to drain and exit.
    pub fn close(mut self) -> io::Result<procfs::Exit> {
        drop(self.stdin.take());
        let mut rest = Vec::new();
        self.stdout.read_to_end(&mut rest)?;
        let exit = procfs::reap(&mut self.child)?;
        self.reaped = true;
        if !exit.success {
            return Err(io::Error::other("cdat serve exited with an error"));
        }
        Ok(exit)
    }
}

/// One finished `cdat batch` process.
#[derive(Debug)]
pub struct BatchRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn to each output line being read, in milliseconds.
    pub line_ms: Vec<f64>,
    /// The output lines.
    pub lines: Vec<String>,
    /// CPU time and peak RSS of the process.
    pub exit: procfs::Exit,
}

/// Runs `cdat batch <suite> <args>` to completion.
pub fn batch(cdat: &Path, suite: &Path, args: &[String]) -> io::Result<BatchRun> {
    let started = Instant::now();
    let mut child = Command::new(cdat)
        .arg("batch")
        .arg(suite)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut lines = Vec::new();
    let mut line_ms = Vec::new();
    let mut line = String::new();
    let read = loop {
        match stdout.read_line(&mut line) {
            Ok(0) => break Ok(()),
            Ok(_) => {
                line_ms.push(started.elapsed().as_secs_f64() * 1e3);
                lines.push(line.trim_end_matches('\n').to_owned());
                line.clear();
            }
            Err(e) => break Err(e),
        }
    };
    if let Err(e) = read {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let exit = procfs::reap(&mut child)?;
    let wall = started.elapsed();
    if !exit.success {
        return Err(io::Error::other(format!("cdat batch {} {args:?} failed", suite.display())));
    }
    Ok(BatchRun { wall, line_ms, lines, exit })
}

/// The `cdat` binary next to this benchmark's own executable (both are
/// built into the same target directory).
pub fn sibling_cdat() -> io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let path = me.with_file_name("cdat");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!("no cdat binary at {}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_and_batch_lines_reduce_to_the_same_body() {
        let serve = r#"{"id":17,"query":"dgc","arg":3,"point":[1,12]}"#;
        let batch = r#"{"doc":1,"name":"t1","query":"dgc","arg":3,"cache":"miss","point":[1,12]}"#;
        let (id, variant, body) = strip_id(serve).unwrap();
        assert_eq!((id, variant), (17, 0));
        assert_eq!(Some(body), strip_batch(batch));
        let sweep = r#"{"id":25,"variant":2,"query":"dgc","arg":3,"point":[2,10]}"#;
        assert_eq!(
            strip_id(sweep).unwrap(),
            (25, 2, r#"{"query":"dgc","arg":3,"point":[2,10]}"#.to_owned())
        );
        assert_eq!(
            strip_batch(r#"{"doc":0,"query":"cdpf","cache":"hit","front":[]}"#).unwrap(),
            r#"{"query":"cdpf","front":[]}"#
        );
    }

    #[test]
    fn request_lines_splice_the_id() {
        let req = Req {
            head: "\"tree\":\"x\"".into(),
            tail: ",\"query\":\"cdpf\"}".into(),
            lines: 1,
            check: 0,
        };
        assert_eq!(req.line(4), r#"{"id":4,"tree":"x","query":"cdpf"}"#);
    }
}
