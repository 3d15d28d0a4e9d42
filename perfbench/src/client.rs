//! The server process under test and the client side of the line
//! protocol: one client process, at most [`CONNECTIONS`] connections.
//!
//! [`CONNECTIONS`]: crate::workload::CONNECTIONS

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde_json::JsonValue;

use crate::check;
use crate::workload::{self, JobKind, Stream, CACHED_WINDOW};

/// How long any single read may block before the job counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a shut-down server may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// A `saseval-server serve` child process on an ephemeral port.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The server's process id, for `/proc` readings.
    pub pid: u32,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits for its `listening` line, which it
    /// prints once its demonstrator prefixes are prewarmed.
    pub fn spawn(bin: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("saseval-server listening on ")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected server banner {line:?}")))?;
        Ok(server)
    }

    /// Asks the server to stop over `conn`, then waits for it to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> io::Result<()> {
        conn.send(b"{\"control\":\"shutdown\"}\n")?;
        let frame = conn.read_frame()?;
        if frame.event != "shutting-down" {
            return Err(io::Error::other(format!("unexpected shutdown reply {:?}", frame.event)));
        }
        // Drain the banner pipe so the server's final line never meets a
        // closed stdout.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + EXIT_GRACE;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not exit after shutdown"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One received frame. Done frames keep their payload bytes verbatim.
#[derive(Debug, Clone)]
pub struct Frame {
    /// `accepted`, `progress`, `done`, `error`, `stats`, `pong`, …
    pub event: String,
    /// The request id, when the frame has one.
    pub id: String,
    /// A done frame's cache disposition (`miss`, `memory`, `disk`).
    pub cache: String,
    /// A fresh done frame's `stats.elapsed_seconds`.
    pub service_s: Option<f64>,
    /// An error frame's message.
    pub message: String,
    /// Every other top-level field (the counters of a stats frame).
    pub fields: JsonValue,
    /// A done frame's raw payload bytes.
    pub payload: Vec<u8>,
}

const PAYLOAD_KEY: &[u8] = b",\"payload\":";

/// Splits a frame line into its small JSON head and, for done frames,
/// the verbatim payload bytes between `,"payload":` and the closing
/// `}`.
pub fn parse_frame(line: &[u8]) -> io::Result<Frame> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let (head, payload) = match line.windows(PAYLOAD_KEY.len()).position(|w| w == PAYLOAD_KEY) {
        Some(at) => {
            let body = &line[at + PAYLOAD_KEY.len()..];
            let payload = body
                .strip_suffix(b"}")
                .ok_or_else(|| io::Error::other("done frame does not end in `}`"))?;
            let mut head = line[..at].to_vec();
            head.push(b'}');
            (head, payload.to_vec())
        }
        None => (line.to_vec(), Vec::new()),
    };
    let text = std::str::from_utf8(&head).map_err(io::Error::other)?;
    let value: JsonValue = serde_json::from_str(text).map_err(io::Error::other)?;
    let field = |name: &str| match &value {
        JsonValue::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    };
    let string = |name: &str| match field(name) {
        Some(JsonValue::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let service_s = match field("stats") {
        Some(JsonValue::Map(stats)) => {
            stats.iter().find(|(k, _)| k == "elapsed_seconds").and_then(|(_, v)| match v {
                JsonValue::F64(x) => Some(*x),
                JsonValue::U64(x) => Some(*x as f64),
                _ => None,
            })
        }
        _ => None,
    };
    Ok(Frame {
        event: string("event"),
        id: string("id"),
        cache: string("cache"),
        message: string("message"),
        service_s,
        payload,
        fields: value,
    })
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a bounded read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 20, writer.try_clone()?);
        Ok(Conn { reader, writer, line: Vec::with_capacity(1 << 20) })
    }

    /// Writes `bytes` in full.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads and parses the next frame.
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_frame(&self.line)
    }

    /// Sends a ping and waits for the pong.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(b"{\"control\":\"ping\"}\n")?;
        let frame = self.read_frame()?;
        if frame.event == "pong" {
            Ok(())
        } else {
            Err(io::Error::other(format!("unexpected ping reply {:?}", frame.event)))
        }
    }

    /// The server's live counters.
    pub fn stats(&mut self) -> io::Result<Counters> {
        self.send(b"{\"control\":\"stats\"}\n")?;
        let frame = self.read_frame()?;
        if frame.event != "stats" {
            return Err(io::Error::other(format!("unexpected stats reply {:?}", frame.event)));
        }
        let JsonValue::Map(entries) = frame.fields else {
            return Err(io::Error::other("stats frame is not an object"));
        };
        Ok(Counters(
            entries
                .into_iter()
                .filter_map(|(k, v)| match v {
                    JsonValue::U64(n) => Some((k, n)),
                    _ => None,
                })
                .collect(),
        ))
    }

    /// Reads frames until `id`'s done frame. An error frame or a lost
    /// connection is an `Err`.
    pub fn await_done(&mut self, id: &str) -> io::Result<Frame> {
        loop {
            let frame = self.read_frame()?;
            match frame.event.as_str() {
                "accepted" | "progress" if frame.id == id => {}
                "done" if frame.id == id => return Ok(frame),
                "error" => return Err(io::Error::other(format!("error frame: {}", frame.message))),
                other => {
                    return Err(io::Error::other(format!(
                        "unexpected {other:?} frame for {:?} while awaiting {id:?}",
                        frame.id
                    )))
                }
            }
        }
    }

    /// Submits `spec` under `id` and waits for its done frame.
    pub fn submit(&mut self, id: &str, spec: &str) -> io::Result<Frame> {
        self.send(request_line(id, spec).as_bytes())?;
        self.await_done(id)
    }
}

/// A job request line.
pub fn request_line(id: &str, spec: &str) -> String {
    format!("{{\"id\":\"{id}\",\"job\":{spec}}}\n")
}

/// A stats frame's counters.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub HashMap<String, u64>);

impl Counters {
    /// `name`'s increase from `before` to `self`.
    pub fn delta(&self, before: &Counters, name: &str) -> u64 {
        let now = self.0.get(name).copied().unwrap_or(0);
        now.saturating_sub(before.0.get(name).copied().unwrap_or(0))
    }
}

/// One completed request of the timed phase.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the request line was written.
    pub submitted: Instant,
    /// When its done frame had been read in full.
    pub done: Instant,
    /// The done frame's own service time, for fresh executions.
    pub service_s: Option<f64>,
}

impl Record {
    /// Submit → done, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.submitted).as_secs_f64() * 1e3
    }
}

/// What one connection's load loop saw.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Requests written.
    pub attempted: u64,
    /// Completed requests.
    pub records: Vec<Record>,
    /// Requests that ended in an error frame, a lost connection or a
    /// failed output check, with a reason each.
    pub failures: Vec<String>,
    /// The last few fresh jobs served, for the byte-for-byte
    /// recomputation and the traced replay after the phase.
    pub kept: VecDeque<Served>,
}

/// A fresh job as the server answered it.
#[derive(Debug, Clone)]
pub struct Served {
    /// The job.
    pub job: workload::Job,
    /// Its payload bytes, verbatim from the done frame.
    pub payload: Vec<u8>,
    /// The done frame's `stats.elapsed_seconds`.
    pub service_s: f64,
}

/// Closed loop of fresh jobs: submit the next job of the timed stream,
/// wait for its done frame, check it, repeat until `deadline`. The last
/// `keep` jobs served are kept.
pub fn closed_loop(
    conn: &mut Conn,
    kind: JobKind,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    keep: usize,
) -> ConnResult {
    let mut result = ConnResult::default();
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let job = workload::job(kind, seed, Stream::Timed, index);
        let id = format!("t{index}");
        result.attempted += 1;
        let submitted = Instant::now();
        let frame = match conn.submit(&id, &job.spec) {
            Ok(frame) => frame,
            Err(e) => {
                result.failures.push(format!("{id}: {e}"));
                if e.kind() != io::ErrorKind::Other {
                    break; // the connection itself is gone
                }
                continue;
            }
        };
        let done = Instant::now();
        if frame.cache != "miss" {
            result.failures.push(format!("{id}: fresh job answered from cache {:?}", frame.cache));
            continue;
        }
        if let Err(e) = check::shape(kind, &frame.payload) {
            result.failures.push(format!("{id}: {e}"));
            continue;
        }
        let Some(service_s) = frame.service_s else {
            result.failures.push(format!("{id}: fresh done frame without stats"));
            continue;
        };
        result.records.push(Record { submitted, done, service_s: Some(service_s) });
        if result.kept.len() == keep {
            result.kept.pop_front();
        }
        if keep > 0 {
            result.kept.push_back(Served { job, payload: frame.payload, service_s });
        }
    }
    result
}

/// Submits every job of `jobs` pipelined on one connection (ids `w{i}`
/// by position in `jobs`) and collects the fresh answers, checked
/// against `kind`, in `jobs` order.
pub fn submit_fresh(
    conn: &mut Conn,
    kind: JobKind,
    jobs: &[workload::Job],
) -> io::Result<Vec<Served>> {
    let mut batch = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        batch.extend_from_slice(request_line(&format!("w{i}"), &job.spec).as_bytes());
    }
    conn.send(&batch)?;
    let mut served: Vec<Option<Served>> = vec![None; jobs.len()];
    let mut remaining = jobs.len();
    while remaining > 0 {
        let frame = conn.read_frame()?;
        match frame.event.as_str() {
            "accepted" | "progress" => continue,
            "done" => {}
            "error" => return Err(io::Error::other(format!("error frame: {}", frame.message))),
            other => return Err(io::Error::other(format!("unexpected {other:?} frame"))),
        }
        let index: usize = frame
            .id
            .strip_prefix('w')
            .and_then(|i| i.parse().ok())
            .filter(|&i| i < jobs.len())
            .ok_or_else(|| io::Error::other(format!("done frame for unknown id {:?}", frame.id)))?;
        if frame.cache != "miss" {
            return Err(io::Error::other(format!("fresh job answered from {:?}", frame.cache)));
        }
        check::shape(kind, &frame.payload).map_err(io::Error::other)?;
        let service_s =
            frame.service_s.ok_or_else(|| io::Error::other("fresh done frame without stats"))?;
        if served[index]
            .replace(Served { job: jobs[index].clone(), payload: frame.payload, service_s })
            .is_none()
        {
            remaining -= 1;
        }
    }
    Ok(served.into_iter().map(|s| s.expect("every job answered")).collect())
}

/// Exact repeats over every connection from one thread: each
/// connection keeps [`CACHED_WINDOW`] requests in flight, each
/// repeating the working-set entry the workload seed picks, until
/// `deadline`; then drains. One thread with non-blocking sockets keeps
/// the client to one core next to the server's event loop, so the two
/// never queue for a core behind a third busy thread.
pub fn repeats(
    conns: &mut [Conn],
    seed: u64,
    deadline: Instant,
    working_set: &[Served],
) -> ConnResult {
    struct Lane {
        inflight: VecDeque<(u64, usize, Instant)>,
        out: Vec<u8>,
        sent: usize,
        buf: Vec<u8>,
        start: usize,
    }
    let mut result = ConnResult::default();
    let mut next = 0u64;
    let mut issue = |lane: &mut Lane, result: &mut ConnResult| {
        let entry = workload::pick(seed, next);
        lane.out.extend_from_slice(
            request_line(&format!("r{next}"), &working_set[entry].job.spec).as_bytes(),
        );
        lane.inflight.push_back((next, entry, Instant::now()));
        next += 1;
        result.attempted += 1;
    };
    let mut lanes: Vec<Lane> = Vec::with_capacity(conns.len());
    for conn in conns.iter_mut() {
        // Nothing is pending between phases, but take whatever the
        // buffered reader holds so no byte is lost.
        let pending = conn.reader.buffer().to_vec();
        conn.reader.consume(pending.len());
        let mut lane =
            Lane { inflight: VecDeque::new(), out: Vec::new(), sent: 0, buf: pending, start: 0 };
        for _ in 0..CACHED_WINDOW {
            issue(&mut lane, &mut result);
        }
        lanes.push(lane);
        if let Err(e) = conn.writer.set_nonblocking(true) {
            result.failures.push(format!("repeats: {e}"));
            return result;
        }
    }
    let mut scratch = vec![0u8; 64 * 1024];
    let mut last_progress = Instant::now();
    'run: while lanes.iter().any(|lane| !lane.inflight.is_empty()) {
        let mut progress = false;
        for (conn, lane) in conns.iter_mut().zip(&mut lanes) {
            while lane.sent < lane.out.len() {
                match conn.writer.write(&lane.out[lane.sent..]) {
                    Ok(n) => {
                        lane.sent += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        result.failures.push(format!("repeats write: {e}"));
                        break 'run;
                    }
                }
            }
            if lane.sent == lane.out.len() {
                lane.out.clear();
                lane.sent = 0;
            }
            match conn.reader.get_mut().read(&mut scratch) {
                Ok(0) => {
                    result.failures.push("repeats: server closed the connection".to_owned());
                    break 'run;
                }
                Ok(n) => {
                    lane.buf.extend_from_slice(&scratch[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    result.failures.push(format!("repeats read: {e}"));
                    break 'run;
                }
            }
            while let Some(pos) = lane.buf[lane.start..].iter().position(|&b| b == b'\n') {
                let end = lane.start + pos + 1;
                let frame = parse_frame(&lane.buf[lane.start..end]);
                lane.start = end;
                let frame = match frame {
                    Ok(frame) if frame.event == "accepted" => continue,
                    Ok(frame) => frame,
                    Err(e) => {
                        result.failures.push(format!("repeats: {e}"));
                        break 'run;
                    }
                };
                let Some((index, entry, submitted)) = lane.inflight.pop_front() else {
                    result.failures.push(format!("unexpected {:?} frame", frame.event));
                    break 'run;
                };
                let id = format!("r{index}");
                let done = Instant::now();
                if frame.event != "done" || frame.id != id {
                    result.failures.push(format!("{id}: got {:?} for {:?}", frame.event, frame.id));
                    break 'run;
                } else if frame.cache != "memory" {
                    result.failures.push(format!("{id}: repeat answered from {:?}", frame.cache));
                } else if frame.payload != working_set[entry].payload {
                    result.failures.push(format!("{id}: repeat differs from the prefill response"));
                } else {
                    result.records.push(Record { submitted, done, service_s: None });
                }
                if done < deadline {
                    issue(lane, &mut result);
                }
            }
            if lane.start > 0 && lane.start * 2 >= lane.buf.len() {
                lane.buf.drain(..lane.start);
                lane.start = 0;
            }
        }
        if progress {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > READ_TIMEOUT {
            result.failures.push("repeats: no progress within the read timeout".to_owned());
            break;
        } else {
            std::thread::yield_now();
        }
    }
    for conn in conns.iter_mut() {
        if let Err(e) = conn.writer.set_nonblocking(false) {
            result.failures.push(format!("repeats: {e}"));
        }
    }
    result
}
