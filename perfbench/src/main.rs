//! Benchmark of the `saseval-server` campaign server, measured from
//! outside: one client process drives a real server process over at
//! most two connections.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server-bin PATH --span-dir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs a
//! shorter untimed server phase followed by the traced in-process
//! replay and prints the per-layer metrics. The last stdout line is one
//! JSON object `{"correct","attempted","failed","metrics"}`. The line
//! before it records the host: `available_parallelism`, load averages
//! and CPU steal ticks at the start and end of the run. See
//! `perfbench/README.md` for the workloads and the metric map.

mod check;
mod client;
mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use client::{Conn, ConnResult, Counters, Record, Served, ServerProc};
use host::HostNoise;
use layers::{Replay, Replayed, LEDGER_TOLERANCE};
use workload::{Stream, Workload, CONNECTIONS, WORKING_SET};

/// Server start-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fresh jobs each connection keeps for the traced replay.
const TRACE_KEEP: [(Workload, usize); 3] =
    [(Workload::FuzzFresh, 8), (Workload::FindingsHeavy, 8), (Workload::CampaignFresh, 3)];

/// Cached requests replayed through the request path on
/// `cached-repeat`.
const TRACE_HITS: u64 = 4096;

/// Fresh jobs each connection keeps for recomputation after a timed run.
const RECOMPUTE_PER_CONN: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    span_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut span_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => trace = value()? == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--span-dir" => span_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        span_dir: span_dir.ok_or("--span-dir is required")?,
    })
}

/// A started server, its connections and what its warm-up served.
struct Session {
    server: ServerProc,
    conns: Vec<Conn>,
    setup_s: f64,
    /// The warm-up jobs, or `cached-repeat`'s working set.
    warm: Vec<Served>,
}

impl Session {
    /// Spawn → ping answered after prewarm → warm-up. The warm-up is
    /// one fresh job per connection, or for `cached-repeat` the
    /// pipelined prefill of the working set.
    fn start(args: &Args) -> Result<Session, String> {
        let started = Instant::now();
        let server = ServerProc::spawn(&args.server_bin).map_err(|e| format!("server: {e}"))?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(server.addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        conns[0].ping().map_err(|e| format!("ping: {e}"))?;
        let kind = args.workload.kind();
        let (stream, count) = match args.workload {
            Workload::CachedRepeat => (Stream::WorkingSet, WORKING_SET),
            _ => (Stream::WarmUp, CONNECTIONS),
        };
        let jobs = workload::jobs(kind, args.seed, stream, count);
        // Connection c takes jobs c, c + CONNECTIONS, …
        let shares: Vec<Vec<workload::Job>> = (0..CONNECTIONS)
            .map(|c| jobs.iter().skip(c).step_by(CONNECTIONS).cloned().collect())
            .collect();
        let answers: Vec<std::io::Result<Vec<Served>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&shares)
                .map(|(conn, share)| scope.spawn(move || client::submit_fresh(conn, kind, share)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("warm-up threads do not panic")).collect()
        });
        let mut warm: Vec<Option<Served>> = vec![None; count];
        for (c, answer) in answers.into_iter().enumerate() {
            let served = answer.map_err(|e| format!("warm-up: {e}"))?;
            for (k, s) in served.into_iter().enumerate() {
                warm[c + k * CONNECTIONS] = Some(s);
            }
        }
        let warm = warm.into_iter().map(|s| s.expect("every warm-up job answered")).collect();
        Ok(Session { server, conns, setup_s: started.elapsed().as_secs_f64(), warm })
    }

    fn stop(self) -> Result<(), String> {
        let Session { server, mut conns, .. } = self;
        server.shutdown(&mut conns[0]).map_err(|e| format!("shutdown: {e}"))
    }
}

/// What the timed phase measured.
struct Phase {
    attempted: u64,
    records: Vec<Record>,
    failures: Vec<String>,
    kept: Vec<Served>,
    /// Length of the measured window, from its start to the moment CPU
    /// time and memory were read.
    seconds: f64,
    ended: Instant,
    cpu_s: f64,
    rss_mb: f64,
    before: Counters,
    after: Counters,
}

impl Phase {
    /// Requests completed by the deadline: the ones the timings use.
    fn timed(&self) -> Vec<&Record> {
        self.records.iter().filter(|r| r.done <= self.ended).collect()
    }

    fn failed(&self) -> u64 {
        self.attempted - self.records.len() as u64
    }
}

fn run_phase(
    session: &mut Session,
    args: &Args,
    seconds: f64,
    keep: usize,
) -> Result<Phase, String> {
    let pid = session.server.pid;
    let before = session.conns[0].stats().map_err(|e| format!("stats: {e}"))?;
    let cpu0 = host::cpu_seconds(pid).ok_or("cannot read server CPU time")?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let next = AtomicU64::new(0);
    let mut ended = deadline;
    let (conns, warm) = (&mut session.conns, &session.warm);
    let (results, cpu1, rss_mb): (Vec<ConnResult>, Option<f64>, Option<f64>) =
        std::thread::scope(|scope| {
            let next = &next;
            let handles: Vec<_> = match args.workload {
                Workload::CachedRepeat => {
                    vec![scope.spawn(move || client::repeats(conns, args.seed, deadline, warm))]
                }
                w => conns
                    .iter_mut()
                    .map(|conn| {
                        scope.spawn(move || {
                            client::closed_loop(conn, w.kind(), args.seed, next, deadline, keep)
                        })
                    })
                    .collect(),
            };
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            let cpu1 = host::cpu_seconds(pid);
            let rss = host::peak_rss_mb(pid);
            ended = Instant::now();
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("load threads do not panic"))
                .collect();
            (results, cpu1, rss)
        });
    let after = session.conns[0].stats().map_err(|e| format!("stats: {e}"))?;
    let mut phase = Phase {
        attempted: 0,
        records: Vec::new(),
        failures: Vec::new(),
        kept: Vec::new(),
        seconds: ended.duration_since(t0).as_secs_f64(),
        ended,
        cpu_s: cpu1.ok_or("cannot read server CPU time")? - cpu0,
        rss_mb: rss_mb.ok_or("cannot read server VmHWM")?,
        before,
        after,
    };
    for r in results {
        phase.attempted += r.attempted;
        phase.records.extend(r.records);
        phase.failures.extend(r.failures);
        phase.kept.extend(r.kept);
    }
    phase.failures.extend(workload_claims(args.workload, &phase));
    Ok(phase)
}

/// Checks from the stats-frame deltas that the phase was the workload
/// it claims: every fresh job executed once, with no cache hit and no
/// coalescing; every repeat a memory hit with nothing executed.
fn workload_claims(workload: Workload, phase: &Phase) -> Vec<String> {
    let d = |name: &str| phase.after.delta(&phase.before, name);
    let jobs = phase.attempted;
    let mut wrong = Vec::new();
    let mut expect = |name: &str, want: u64| {
        if d(name) != want {
            wrong.push(format!("stats: {name} rose by {} in the phase, expected {want}", d(name)));
        }
    };
    expect("jobs", jobs);
    expect("coalesced", 0);
    expect("cache_disk_hits", 0);
    match workload {
        Workload::CachedRepeat => {
            expect("executed", 0);
            expect("cache_memory_hits", jobs);
        }
        _ => {
            expect("executed", jobs);
            expect("cache_memory_hits", 0);
        }
    }
    wrong
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    samples: usize,
}

/// The end-to-end run: several set-ups, one timed phase, then checks.
fn run_timed(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut failures = Vec::new();
    let mut first_warm: Option<Vec<Vec<u8>>> = None;
    let mut session = loop {
        let session = Session::start(args)?;
        setups.push(session.setup_s);
        // Warm-up answers of identical jobs on fresh servers must match.
        let warm: Vec<Vec<u8>> = session.warm.iter().map(|s| s.payload.clone()).collect();
        match &first_warm {
            Some(first) if *first != warm => {
                failures.push("warm-up payloads differ between server starts".to_owned());
            }
            Some(_) => {}
            None => first_warm = Some(warm),
        }
        if setups.len() == SETUPS {
            break session;
        }
        session.stop()?;
    };
    let phase = run_phase(&mut session, args, args.seconds, RECOMPUTE_PER_CONN)?;
    failures.extend(phase.failures.iter().cloned());
    // Sampled jobs that fail a check after the phase count as failed.
    let mut sample_failures = Vec::new();

    // Cached ≡ fresh over the wire: resubmitting a served job (or a
    // working-set entry) must return the same bytes from the cache.
    let sample: Vec<Served> = match args.workload {
        Workload::CachedRepeat => session.warm.iter().take(2).cloned().collect(),
        _ => phase.kept.clone(),
    };
    for (i, served) in sample.iter().enumerate() {
        match session.conns[0].submit(&format!("k{i}"), &served.job.spec) {
            Ok(frame) if frame.cache == "memory" && frame.payload == served.payload => {}
            Ok(frame) => sample_failures.push(format!(
                "resubmitted seed {} came back from {:?} with {} identical bytes",
                served.job.seed,
                frame.cache,
                if frame.payload == served.payload { "" } else { "non-" }
            )),
            Err(e) => sample_failures.push(format!("resubmission: {e}")),
        }
    }
    session.stop()?;
    // Fresh ≡ recomputed: the worker's own run_job, in-process; and the
    // full typed parse the request path leaves to this sample.
    for served in &sample {
        let kind = args.workload.kind();
        if let Err(e) = check::payload(kind, &served.payload)
            .and_then(|()| check::recompute(&served.job, &served.payload))
        {
            sample_failures.push(e);
        }
    }

    let timed = phase.timed();
    if timed.is_empty() {
        return Err(format!("no request completed in the timed phase: {:?}", phase.failures));
    }
    eprintln!("per-second completions: {:?}", per_second(&timed, phase.ended, phase.seconds));
    let mut latencies: Vec<f64> = timed.iter().map(|r| r.latency_ms()).collect();
    latencies.sort_by(f64::total_cmp);
    let jobs = timed.len() as f64;
    let failed = (phase.failed() + sample_failures.len() as u64).min(phase.attempted);
    failures.extend(sample_failures);
    let attempted = phase.attempted;
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", stats::median(&setups), "s"),
            metric("jobs_per_s", jobs / phase.seconds, "1/s"),
            metric("latency_p50_ms", stats::percentile(&latencies, 50.0), "ms"),
            metric("latency_p90_ms", stats::percentile(&latencies, 90.0), "ms"),
            metric("server_cpu_ms_per_job", phase.cpu_s * 1e3 / jobs, "ms"),
            metric("server_peak_rss_mb", phase.rss_mb, "MB"),
            metric("ok_ratio", (attempted - failed) as f64 / attempted as f64, "ratio"),
        ],
        samples: latencies.len(),
        failures,
    })
}

/// The per-layer run: one set-up, a server phase of half the run's
/// seconds for the service and overhead figures, then the traced
/// in-process replay of jobs the server served.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let keep = TRACE_KEEP.iter().find(|(w, _)| *w == args.workload).map_or(0, |&(_, k)| k);
    let mut session = Session::start(args)?;
    let phase = run_phase(&mut session, args, (args.seconds / 2.0).max(1.0), keep)?;
    let warm = session.warm.clone();
    session.stop()?;
    let mut failures = phase.failures.clone();

    // Server-side figures from the untraced phase.
    let d = |name: &str| phase.after.delta(&phase.before, name) as f64;
    let attempted = phase.attempted.max(1) as f64;
    let timed = phase.timed();
    if timed.is_empty() {
        return Err(format!("no request completed in the server phase: {:?}", phase.failures));
    }
    let ledger_served: Vec<Served> = match args.workload {
        Workload::CachedRepeat => warm,
        _ => phase.kept.clone(),
    };
    if ledger_served.is_empty() {
        return Err("the server phase served no fresh job to replay".to_owned());
    }
    let services_ms: Vec<f64> = ledger_served.iter().map(|s| s.service_s * 1e3).collect();
    let service_ms = stats::median(&services_ms);
    let overheads: Vec<f64> =
        timed.iter().map(|r| r.latency_ms() - r.service_s.unwrap_or(0.0) * 1e3).collect();

    // The traced replay, on as many threads as the server has workers.
    let replay = Replay::new();
    replay.warm_up(&ledger_served[0].job);
    let probe_job = workload::job(args.workload.probe_kind(), args.seed, Stream::Probe, 0);
    replay.warm_up(&probe_job);
    let ledger_jobs: Vec<u32> = (0..ledger_served.len() as u32).collect();
    let probe_no = ledger_served.len() as u32;
    let replayed: Vec<Replayed> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let (replay, ledger_served, probe_job) = (&replay, &ledger_served, &probe_job);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (no, served) in
                        ledger_served.iter().enumerate().skip(t).step_by(CONNECTIONS)
                    {
                        out.push(replay.fresh(no as u32, &served.job, &served.payload));
                    }
                    if t == 0 {
                        out.push(replay.probe(probe_no, probe_job));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay threads do not panic")).collect()
    });
    // Cache hits start once every working-set entry is in the replay's
    // cache.
    if args.workload == Workload::CachedRepeat {
        std::thread::scope(|scope| {
            for t in 0..CONNECTIONS {
                let (replay, ledger_served) = (&replay, &ledger_served);
                scope.spawn(move || {
                    for i in (t as u64..TRACE_HITS).step_by(CONNECTIONS) {
                        let entry = &ledger_served[workload::pick(args.seed, i)];
                        replay.cached(probe_no + 1 + i as u32, &entry.job, &entry.payload);
                    }
                });
            }
        });
    }
    failures.extend(replay.mismatches.lock().expect("no mismatch holder panics").drain(..));
    let spans = replay.tracer.spans();
    write_spans(args, &spans);
    let figures = layers::figures(&spans, &replayed, &ledger_jobs);

    // The ledger: the server's service time for each replayed job
    // against the traced replay's Σ self times for the same job.
    let mut unattributed = Vec::new();
    let mut overhead = Vec::new();
    for r in replayed.iter().filter(|r| r.job_no < probe_no) {
        let traced = figures.traced_service_ms[&r.job_no];
        unattributed.push(services_ms[r.job_no as usize] - traced);
        overhead.push(traced / (r.untraced_s * 1e3) - 1.0);
    }
    let unattributed_ms = stats::median(&unattributed);
    let ratio = unattributed_ms / service_ms;
    let total: f64 = figures.ledger_ms.iter().map(|(_, ms)| ms).sum();
    eprintln!(
        "ledger over {} {} jobs (mean self time per job):",
        ledger_jobs.len(),
        args.workload.name()
    );
    for (name, ms) in &figures.ledger_ms {
        eprintln!("  {name:<18} {ms:>10.3} ms  {:>5.1}%", 100.0 * ms / total);
    }
    eprintln!(
        "  Σ self {total:.3} ms; server service median {service_ms:.3} ms; unattributed median \
         {unattributed_ms:.3} ms = {:.1}% ({} the ±{:.0}% tolerance)",
        100.0 * ratio,
        if ratio.abs() <= LEDGER_TOLERANCE { "within" } else { "OUTSIDE" },
        100.0 * LEDGER_TOLERANCE
    );

    let mut metrics: Vec<Metric> =
        figures.values.iter().map(|&(name, unit, value)| metric(name, value, unit)).collect();
    metrics.extend([
        metric(
            "cache.hit_ratio",
            (d("cache_memory_hits") + d("cache_disk_hits")) / attempted,
            "ratio",
        ),
        metric("server.executed_per_job", d("executed") / attempted, "ratio"),
        metric(
            "server.backpressure_stalls_per_job",
            d("backpressure_stalls") / attempted,
            "count/job",
        ),
        metric("worker.service_ms", service_ms, "ms"),
        metric("worker.overhead_ms", stats::median(&overheads), "ms"),
        metric("trace.overhead_ratio", stats::median(&overhead), "ratio"),
        metric("trace.unattributed_ms", unattributed_ms, "ms"),
        metric("trace.unattributed_ratio", ratio, "ratio"),
    ]);
    Ok(Outcome {
        attempted: phase.attempted,
        failed: phase.failed(),
        failures,
        metrics,
        samples: timed.len(),
    })
}

/// Completions in each whole second of the window.
fn per_second(timed: &[&Record], ended: Instant, seconds: f64) -> Vec<usize> {
    let start = ended - Duration::from_secs_f64(seconds);
    let mut counts = vec![0; seconds.ceil() as usize];
    let last = counts.len() - 1;
    for r in timed {
        let at = r.done.saturating_duration_since(start).as_secs_f64() as usize;
        counts[at.min(last)] += 1;
    }
    counts
}

/// Writes the replay's spans as JSON lines under the span directory.
fn write_spans(args: &Args, spans: &[trace::SpanRec]) {
    let path = args.span_dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
    let written = fs::create_dir_all(&args.span_dir).and_then(|()| {
        let mut out = BufWriter::new(fs::File::create(&path)?);
        trace::write_spans(&mut out, spans)?;
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = HostNoise::read();
    let outcome = if args.trace { run_traced(&args) } else { run_timed(&args) };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let end = HostNoise::read();
    for failure in outcome.failures.iter().take(20) {
        eprintln!("check failed: {failure}");
    }
    let p90_supported = stats::supports(90.0, outcome.samples);
    if !p90_supported && !args.trace {
        eprintln!(
            "note: {} samples leave fewer than {} beyond p90",
            outcome.samples,
            stats::MIN_BEYOND
        );
    }
    println!(
        "host {{\"workload\":{},\"seed\":{},\"trace\":{},\"available_parallelism\":{},\
         \"loadavg_start\":{},\"loadavg_end\":{},\"steal_ticks_start\":{},\"steal_ticks_end\":{},\
         \"latency_samples\":{},\"p90_supported\":{},\"failed_ratio\":{}}}",
        json_string(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        host::available_parallelism(),
        json_string(&start.loadavg),
        json_string(&end.loadavg),
        start.steal_ticks,
        end.steal_ticks,
        outcome.samples,
        p90_supported,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    let correct = outcome.failures.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
