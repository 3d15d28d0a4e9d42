//! The campaign server: a std-only TCP line protocol over the warm
//! worker pool and result cache, plus a minimal blocking [`Client`].
//!
//! One JSON value per `\n`-terminated line, both directions. Requests:
//!
//! ```text
//! {"id":"j1","job":{"Fuzz":{"scenario":{"Keyless":{}},"iterations":256,"seed":7}}}
//! {"control":"ping"} | {"control":"stats"} | {"control":"shutdown"}
//! {"control":"cancel","id":"j1"}
//! ```
//!
//! Responses to a job request, in order:
//!
//! ```text
//! {"id":"j1","event":"accepted","key":"<16-hex>"}
//! {"id":"j1","event":"progress","metric":"fuzz.shard.inputs_per_sec","value":12345.6}   (0+ times)
//! {"id":"j1","event":"done","key":"<16-hex>","cache":"miss","stats":{...},"payload":{...}}
//! ```
//!
//! `cache` is `"miss"` (freshly computed — then `stats` reports elapsed
//! time and throughput), `"memory"` or `"disk"`. The `payload` bytes of
//! a cached response are byte-identical to the fresh run's — the cache
//! key covers the canonicalized spec, seed and code-version fingerprint
//! (see [`crate::job`]), so a hit can never be stale.
//!
//! **Pipelining.** Connections are multiplexed by a single event-loop
//! thread (the private `mux` module): a client may write any number of
//! requests
//! before reading responses. Requests answered from the cache reply in
//! submission order; fresh jobs complete in whatever order the pool
//! finishes them — the `id` field is the correlation key, and
//! [`Client::submit_many`] reassembles responses by id. Identical
//! concurrent submissions are *coalesced*: the job executes once and
//! every waiter receives the same done-frame bytes (same `cache` field,
//! same stats, same payload — only the `id` differs).
//!
//! **Cancellation.** `{"control":"cancel","id":...}` detaches the
//! calling connection's waiter from its in-flight job and answers with
//! a terminal `{"id":...,"event":"cancelled"}` frame. The last waiter
//! to detach cancels the execution itself (checked by the worker at
//! dequeue time and again before the cache insert, so a cancelled job
//! skips the cache best-effort: a cancel racing the insert can still
//! cache the deterministic payload); other waiters keep the job alive
//! and still receive their result. Cancelling an unknown or already
//! completed id is an `error` frame.
//!
//! Malformed lines get `{"event":"error","message":...}` (plus `"id"`
//! when one could be parsed) and the connection stays usable.
//!
//! **Shutdown.** The clean path is in-band: `{"control":"shutdown"}`
//! (or [`Server::shutdown`] from the embedding process) stops accepting
//! new connections, lets in-flight jobs finish, flushes every response
//! and joins the workers. The workspace forbids `unsafe`, so no signal
//! handler can be installed: SIGTERM/ctrl-c terminate the process
//! directly, which is safe by construction — cache writes are
//! temp-file-plus-rename, so an interrupted server leaves no torn
//! state behind.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use saseval_obs::Obs;
use serde_json::JsonValue;

use crate::cache::ResultCache;
use crate::mux::{Metrics, Mux};
use crate::protocol::{map_field, str_field};
use crate::worker::{SnapshotStore, WorkerPool};

/// Server configuration. `Default` binds an ephemeral localhost port
/// with two workers, a 128-entry memory tier, no disk tier and
/// prewarmed demonstrator scenarios.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads (at least one; clamped to the host's
    /// `available_parallelism`).
    pub workers: usize,
    /// Memory-tier capacity in entries.
    pub mem_capacity: usize,
    /// On-disk cache directory; `None` disables the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Byte cap on the disk tier's payload bytes; entries are evicted
    /// oldest-first past it. `None` leaves the tier unbounded.
    pub cache_cap_bytes: Option<u64>,
    /// Whether to freeze the two default demonstrator prefixes at
    /// startup so the first job on either is already warm.
    pub prewarm: bool,
    /// Observability handle the server's `server.*` metrics are also
    /// emitted to (`server.jobs`, `server.coalesced`, `server.executed`,
    /// `server.cancelled`, `server.memo_hits`,
    /// `server.backpressure_stalls`, gauge `server.inflight`). The
    /// in-band `stats` frame reads the same counters regardless.
    pub obs: Obs,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            mem_capacity: 128,
            cache_dir: None,
            cache_cap_bytes: None,
            prewarm: true,
            obs: Obs::noop(),
        }
    }
}

/// A running campaign server. Stop it with [`Server::shutdown`] (or an
/// in-band `{"control":"shutdown"}` line) followed by [`Server::join`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    mux: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, prewarms, spawns the worker pool and starts the event
    /// loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(
            ResultCache::new(config.mem_capacity, config.cache_dir)
                .with_disk_cap(config.cache_cap_bytes),
        );
        let snapshots = Arc::new(SnapshotStore::new());
        if config.prewarm {
            snapshots.prewarm_defaults();
        }
        let (job_tx, job_rx) = mpsc::channel();
        let pool = WorkerPool::spawn(config.workers, job_rx, &cache, &snapshots);
        let (pool_tx, pool_rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Metrics::new(config.obs);
        let mux = Mux::new(
            listener,
            cache,
            snapshots,
            metrics,
            shutdown.clone(),
            job_tx,
            pool_tx,
            pool_rx,
        );
        let handle = std::thread::spawn(move || mux.run(pool));
        Ok(Server { addr, shutdown, mux: Some(handle) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: the event loop stops accepting, drains
    /// in-flight jobs and responses, then joins the worker pool. The
    /// loop notices the flag within one readiness-wheel sleep (≤ 1 ms).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the event loop (and through it the worker pool) to
    /// finish. Call [`Server::shutdown`] first.
    pub fn join(mut self) {
        if let Some(handle) = self.mux.take() {
            let _ = handle.join();
        }
    }
}

/// One write per frame (line + newline in a single buffer): split
/// writes interact with Nagle + delayed ACK on loopback and cost tens
/// of milliseconds per frame, swamping a cache hit.
fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    let mut buffer = Vec::with_capacity(line.len() + 1);
    buffer.extend_from_slice(line.as_bytes());
    buffer.push(b'\n');
    stream.write_all(&buffer)?;
    stream.flush()
}

/// Outcome of one [`Client::submit`] round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's 16-hex cache key, as reported by the server.
    pub key: String,
    /// Which tier answered: `"miss"`, `"memory"` or `"disk"`.
    pub cache: String,
    /// The payload, re-serialized from the done frame (deterministic,
    /// so byte-comparable across responses).
    pub payload_json: String,
    /// Progress samples received, in order.
    pub progress: Vec<(String, f64)>,
}

/// A minimal blocking client for the line protocol, used by the CLI,
/// the smoke gate and the end-to-end tests.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one raw protocol line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Reads the next frame; `None` on a cleanly closed connection.
    ///
    /// # Errors
    ///
    /// Propagates read failures and unparseable frames.
    pub fn read_frame(&mut self) -> io::Result<Option<JsonValue>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        serde_json::from_str(&line)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Submits the job (given as its wire JSON) under `id` and reads
    /// frames until the matching `done`, collecting progress samples.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an `error` frame, or a connection
    /// closed before `done`.
    pub fn submit(&mut self, id: &str, job_json: &str) -> io::Result<JobOutcome> {
        let outcomes = self.submit_many(&[(id, job_json)])?;
        Ok(outcomes.into_iter().next().expect("one job in, one outcome out"))
    }

    /// Submits every `(id, job_json)` pair *pipelined* — all request
    /// lines go out in one write before any response is read — and
    /// reassembles the responses by id. Outcomes come back in
    /// submission order regardless of completion order.
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids, transport errors, an `error` frame, or a
    /// connection closed before every `done` arrived.
    pub fn submit_many(&mut self, jobs: &[(&str, &str)]) -> io::Result<Vec<JobOutcome>> {
        let mut by_id: HashMap<&str, usize> = HashMap::with_capacity(jobs.len());
        let mut batch = Vec::new();
        for (index, &(id, job_json)) in jobs.iter().enumerate() {
            if by_id.insert(id, index).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate job id {id:?} in pipeline"),
                ));
            }
            let id_literal = serde_json::to_string(id)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            batch.extend_from_slice(
                format!("{{\"id\":{id_literal},\"job\":{job_json}}}\n").as_bytes(),
            );
        }
        self.writer.write_all(&batch)?;
        self.writer.flush()?;

        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut progress: Vec<Vec<(String, f64)>> = vec![Vec::new(); jobs.len()];
        let mut remaining = jobs.len();
        while remaining > 0 {
            let Some(value) = self.read_frame()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before done",
                ));
            };
            let index = str_field(&value, "id").and_then(|id| by_id.get(id).copied());
            match str_field(&value, "event") {
                Some("accepted") => {}
                Some("progress") => {
                    let Some(index) = index else { continue };
                    let metric = str_field(&value, "metric").unwrap_or("").to_owned();
                    let sample = match map_field(&value, "value") {
                        Some(JsonValue::F64(v)) => *v,
                        Some(JsonValue::U64(v)) => *v as f64,
                        Some(JsonValue::I64(v)) => *v as f64,
                        _ => 0.0,
                    };
                    progress[index].push((metric, sample));
                }
                Some("done") => {
                    let Some(index) = index else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "done frame for an unknown id",
                        ));
                    };
                    let key = str_field(&value, "key").unwrap_or("").to_owned();
                    let cache = str_field(&value, "cache").unwrap_or("").to_owned();
                    let payload = map_field(&value, "payload").ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "done frame without payload")
                    })?;
                    let payload_json = serde_json::to_string(payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    if outcomes[index]
                        .replace(JobOutcome {
                            key,
                            cache,
                            payload_json,
                            progress: std::mem::take(&mut progress[index]),
                        })
                        .is_none()
                    {
                        remaining -= 1;
                    }
                }
                Some("error") => {
                    let message = str_field(&value, "message").unwrap_or("unknown error");
                    return Err(io::Error::other(message.to_owned()));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame event {other:?}"),
                    ));
                }
            }
        }
        Ok(outcomes.into_iter().map(|o| o.expect("all outcomes filled")).collect())
    }

    /// Sends `{"control":"cancel","id":...}`. The caller reads the
    /// resulting `cancelled` (or `error`) frame itself — it may
    /// interleave with progress frames of other in-flight jobs.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn cancel(&mut self, id: &str) -> io::Result<()> {
        let id_literal = serde_json::to_string(id)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.send_line(&format!("{{\"control\":\"cancel\",\"id\":{id_literal}}}"))
    }

    /// Requests the live `stats` frame (job, coalescing, cancellation
    /// and cache counters).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response frame.
    pub fn stats(&mut self) -> io::Result<JsonValue> {
        self.send_line("{\"control\":\"stats\"}")?;
        match self.read_frame()? {
            Some(value) if str_field(&value, "event") == Some("stats") => Ok(value),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected stats response: {other:?}"),
            )),
        }
    }

    /// Sends `{"control":"shutdown"}` and waits for the acknowledgment.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn request_shutdown(&mut self) -> io::Result<()> {
        self.send_line("{\"control\":\"shutdown\"}")?;
        match self.read_frame()? {
            Some(value) if str_field(&value, "event") == Some("shutting-down") => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected shutdown response: {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job() -> &'static str {
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":300,"attack_at_ms":100}},"iterations":24,"seed":21}}"#
    }

    fn start_test_server() -> Server {
        // Prewarm off: tests exercise the lazy prefix path and stay fast.
        Server::start(ServerConfig { prewarm: false, ..Default::default() }).expect("bind")
    }

    #[test]
    fn fresh_then_memory_hit_with_identical_payload() {
        let server = start_test_server();
        let mut client = Client::connect(&server.addr()).unwrap();
        let first = client.submit("a", tiny_job()).unwrap();
        assert_eq!(first.cache, "miss");
        let second = client.submit("b", tiny_job()).unwrap();
        assert_eq!(second.cache, "memory");
        assert_eq!(first.payload_json, second.payload_json, "cached payload is byte-identical");
        assert_eq!(first.key, second.key);
        server.shutdown();
        server.join();
    }

    #[test]
    fn ping_stats_and_errors_keep_the_connection_usable() {
        let server = start_test_server();
        let mut client = Client::connect(&server.addr()).unwrap();
        client.send_line("{\"control\":\"ping\"}").unwrap();
        let pong = client.read_frame().unwrap().unwrap();
        assert_eq!(str_field(&pong, "event"), Some("pong"));

        client.send_line("this is not json").unwrap();
        let error = client.read_frame().unwrap().unwrap();
        assert_eq!(str_field(&error, "event"), Some("error"));

        client.send_line("{\"id\":\"x\",\"job\":{\"Fuzz\":{}}}").unwrap();
        let invalid = client.read_frame().unwrap().unwrap();
        assert_eq!(str_field(&invalid, "event"), Some("error"));

        let stats = client.stats().unwrap();
        assert!(map_field(&stats, "cache_misses").is_some());
        assert!(map_field(&stats, "coalesced").is_some());
        assert!(map_field(&stats, "executed").is_some());

        server.shutdown();
        server.join();
    }

    #[test]
    fn oversized_shard_counts_get_an_error_frame_and_the_connection_survives() {
        let server = start_test_server();
        let mut client = Client::connect(&server.addr()).unwrap();
        for (id, job) in [
            (
                "f",
                r#"{"Fuzz":{"scenario":{"Keyless":{}},"iterations":8,"seed":1,"shards":1000000000}}"#,
            ),
            ("s", r#"{"Scenario":{"budget":4,"seed":1,"shards":1025}}"#),
        ] {
            client.send_line(&format!(r#"{{"id":"{id}","job":{job}}}"#)).unwrap();
            let error = client.read_frame().unwrap().unwrap();
            assert_eq!(str_field(&error, "event"), Some("error"));
            assert_eq!(str_field(&error, "id"), Some(id));
            let message = str_field(&error, "message").unwrap_or_default();
            assert!(message.starts_with("invalid job request: shards"), "{message}");
        }
        let outcome = client.submit("ok", tiny_job()).unwrap();
        assert_eq!(outcome.cache, "miss");
        server.shutdown();
        server.join();
    }

    #[test]
    fn lint_job_cache_hits_on_resubmission() {
        let server = start_test_server();
        let mut client = Client::connect(&server.addr()).unwrap();
        let job = r#"{"Lint":{"catalog":"UseCase2"}}"#;
        let first = client.submit("l1", job).unwrap();
        assert_eq!(first.cache, "miss");
        let second = client.submit("l2", job).unwrap();
        assert_eq!(second.cache, "memory");
        assert_eq!(first.payload_json, second.payload_json, "cached lint result is identical");
        server.shutdown();
        server.join();
    }

    #[test]
    fn in_band_shutdown_acknowledges_and_stops_the_server() {
        let server = start_test_server();
        let addr = server.addr();
        let mut client = Client::connect(&addr).unwrap();
        client.request_shutdown().unwrap();
        server.join();
        // The event loop is gone: a fresh connection cannot complete a
        // job round trip (connect may still succeed in the OS backlog,
        // but no frame ever comes back).
        if let Ok(mut late) = Client::connect(&addr) {
            assert!(late.submit("late", tiny_job()).is_err());
        }
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let server = start_test_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.submit(&format!("c{i}"), tiny_job()).unwrap()
                })
            })
            .collect();
        let outcomes: Vec<JobOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for outcome in &outcomes {
            assert_eq!(outcome.payload_json, outcomes[0].payload_json);
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn pipelined_requests_answer_in_submission_order_when_cached() {
        let server = start_test_server();
        let mut warm = Client::connect(&server.addr()).unwrap();
        warm.submit("warm", tiny_job()).unwrap();

        let mut client = Client::connect(&server.addr()).unwrap();
        let jobs: Vec<(String, &str)> = (0..8).map(|i| (format!("p{i}"), tiny_job())).collect();
        let pairs: Vec<(&str, &str)> = jobs.iter().map(|(id, job)| (id.as_str(), *job)).collect();
        let outcomes = client.submit_many(&pairs).unwrap();
        assert_eq!(outcomes.len(), 8);
        for outcome in &outcomes {
            assert_eq!(outcome.cache, "memory");
            assert_eq!(outcome.payload_json, outcomes[0].payload_json);
        }
        server.shutdown();
        server.join();
    }
}
