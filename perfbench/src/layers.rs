//! The traced in-process replay behind the per-layer metrics.
//!
//! Jobs the server served are replayed through the same public
//! functions its worker calls, with a span around each call:
//!
//! ```text
//! job
//!   job.parse          serde_json::from_str::<JobSpec>
//!   job.key            JobSpec::cache_key
//!   cache.get          ResultCache::get
//!   worker.service     what the done frame's stats.elapsed_seconds covers
//!     fuzz.engine      Fuzzer::run_parallel_targets
//!       sim.respond    the SimOracle's respond_batch, per batch
//!     campaign.job     run_campaign_batched_with_obs
//!     payload.serialize JobPayload::to_bytes
//!   cache.insert       ResultCache::insert
//!   protocol.frame     done_head + FramedPayload::tail
//! ```
//!
//! The self times under `worker.service` partition its duration, so
//! they add back up to the service time by construction; the ledger
//! check is that this in-process service time agrees with the one the
//! server reported for the same job. Outside the ledger, each fuzz
//! job's inputs are replayed one at a time through `WorldSnapshot::fork`,
//! inject + `step` and classification, and each campaign case through
//! `executor::execute`, to compare the batched paths with serial ones.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use attack_engine::campaign::{run_campaign_batched_with_obs, CampaignReport};
use saseval_fuzz::fuzzer::{FuzzTarget, Fuzzer, TargetResponse};
use saseval_fuzz::model::keyless_command_model;
use saseval_fuzz::{SimOracle, FUZZ_SENDER};
use saseval_obs::Obs;
use saseval_server::protocol::done_head;
use saseval_server::worker::run_job;
use saseval_server::{FreshStats, JobPayload, JobSpec, ResultCache, ScenarioSpec, SnapshotStore};
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_tara::AttackPath;
use vehicle_sim::keyless::KeylessWorld;
use vehicle_sim::WorldSnapshot;

use crate::trace::{ledger, self_times, SpanRec, Tracer};
use crate::workload::Job;

/// Largest share of the server's service time that the traced replay
/// may fail to account for before the ledger is reported as off. The
/// replay runs without the server's event loop, which takes a share of
/// the two cores from the workers: up to ~20% of a campaign job's
/// service time, whose every case sends a progress frame.
pub const LEDGER_TOLERANCE: f64 = 0.25;

/// Inputs and responses that passed through a [`TimingTarget`].
#[derive(Debug, Default)]
struct RespondLog {
    inputs: Vec<Vec<u8>>,
    responses: Vec<TargetResponse>,
}

/// The `SimOracle` handed to the fuzzer, with a `sim.respond` span
/// around every dispatch.
struct TimingTarget {
    inner: SimOracle,
    tracer: Arc<Tracer>,
    parent: u32,
    job: u32,
    log: Arc<Mutex<RespondLog>>,
}

impl TimingTarget {
    fn record(&self, inputs: &[Vec<u8>], responses: &[TargetResponse]) {
        let mut log = self.log.lock().expect("no log holder panics");
        log.inputs.extend(inputs.iter().cloned());
        log.responses.extend_from_slice(responses);
    }
}

impl FuzzTarget for TimingTarget {
    fn respond(&mut self, input: &[u8]) -> TargetResponse {
        let span = self.tracer.open("sim.respond", self.parent, self.job);
        let response = self.inner.respond(input);
        self.tracer.close(span);
        self.record(&[input.to_vec()], &[response]);
        response
    }

    fn respond_batch(&mut self, inputs: &[Vec<u8>], out: &mut Vec<TargetResponse>) {
        let span = self.tracer.open("sim.respond", self.parent, self.job);
        self.inner.respond_batch(inputs, out);
        self.tracer.close(span);
        self.record(inputs, out);
    }
}

/// The attack path a keyless fuzz job's sessions cycle through — the
/// same built-in tree the worker builds.
fn keyless_paths() -> Vec<AttackPath> {
    AttackTree::new("Open the vehicle", TreeNode::leaf_on("send forged open command", "BLE_PHONE"))
        .and_then(|tree| tree.paths())
        .expect("the built-in keyless tree has paths")
}

/// Serial timings of one job's inputs through the sim layer.
#[derive(Debug, Default, Clone)]
struct SerialSim {
    inputs: u64,
    fork_ns: u64,
    step_ns: u64,
    classify_ns: u64,
    steps: u64,
    crashes: u64,
    respond_ns: u64,
}

/// What one replayed job measured.
#[derive(Debug, Default, Clone)]
pub struct Replayed {
    /// Job number in the span records.
    pub job_no: u32,
    /// Untraced `run_job` + `to_bytes` time, in seconds.
    pub untraced_s: f64,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    sim: Option<SerialSim>,
    cases: Option<(usize, f64)>,
}

/// Shared state of one replay.
pub struct Replay {
    /// Spans of every replayed job.
    pub tracer: Arc<Tracer>,
    cache: ResultCache,
    snapshots: SnapshotStore,
    prefixes: Mutex<HashMap<u64, WorldSnapshot<KeylessWorld>>>,
    /// Mismatches between the replay and what was served.
    pub mismatches: Mutex<Vec<String>>,
}

impl Default for Replay {
    fn default() -> Self {
        Self::new()
    }
}

impl Replay {
    /// A replay with a fresh cache and a prewarmed snapshot store, as a
    /// newly started server has.
    pub fn new() -> Replay {
        let snapshots = SnapshotStore::new();
        snapshots.prewarm_defaults();
        Replay {
            tracer: Tracer::new(),
            cache: ResultCache::new(128, None),
            snapshots,
            prefixes: Mutex::new(HashMap::new()),
            mismatches: Mutex::new(Vec::new()),
        }
    }

    fn mismatch(&self, message: String) {
        self.mismatches.lock().expect("no mismatch holder panics").push(message);
    }

    /// Builds the warm prefixes `job` forks from, as the server's
    /// warm-up job did, so no replayed job pays for them.
    pub fn warm_up(&self, job: &Job) {
        if let JobSpec::Fuzz(fuzz) = job.parsed().normalized() {
            self.snapshots.oracle(fuzz.scenario);
            self.prefix(fuzz.scenario);
        }
    }

    fn prefix(&self, scenario: ScenarioSpec) -> WorldSnapshot<KeylessWorld> {
        let key = scenario.prefix_key();
        let mut prefixes = self.prefixes.lock().expect("no prefix holder panics");
        prefixes
            .entry(key)
            .or_insert_with(|| {
                let config = scenario.keyless_config().expect("benchmark fuzz jobs are keyless");
                KeylessWorld::warm_snapshot(config, scenario.attack_at())
            })
            .clone()
    }

    /// Replays fresh job `job` (served as `served`): untraced, traced,
    /// then serially. Alternating which of the first two runs first
    /// keeps cache warmth from biasing the overhead ratio.
    pub fn fresh(&self, job_no: u32, job: &Job, served: &[u8]) -> Replayed {
        let spec = job.parsed();
        let obs = Obs::memory().0;
        let untraced = || {
            let started = Instant::now();
            let bytes = run_job(spec, &self.snapshots, &obs).to_bytes();
            (started.elapsed().as_secs_f64(), bytes)
        };
        let (untraced_s, plain, traced, log) = if job_no.is_multiple_of(2) {
            let (s, plain) = untraced();
            let (traced, log) = self.traced(job_no, &job.spec);
            (s, plain, traced, log)
        } else {
            let (traced, log) = self.traced(job_no, &job.spec);
            let (s, plain) = untraced();
            (s, plain, traced, log)
        };
        if plain != served || traced != served {
            self.mismatch(format!("replay of seed {} differs from the served payload", job.seed));
        }
        let mut out =
            Replayed { job_no, untraced_s, payload_bytes: served.len(), ..Default::default() };
        match (spec.normalized(), log) {
            (JobSpec::Fuzz(fuzz), Some(log)) => {
                out.sim = Some(self.serial_sim(fuzz.scenario, &log));
            }
            (JobSpec::Campaign(_), _) => out.cases = Some(self.serial_cases(job, served)),
            _ => unreachable!("benchmark jobs are fuzz or campaign jobs"),
        }
        out
    }

    /// Replays `job`, which the server never ran, against its own
    /// untraced result: the probe of the job kind the workload lacks.
    pub fn probe(&self, job_no: u32, job: &Job) -> Replayed {
        let expected = run_job(job.parsed(), &self.snapshots, &Obs::noop()).to_bytes();
        self.fresh(job_no, job, &expected)
    }

    /// One traced pass of the worker's request path; returns the
    /// payload bytes and, for fuzz jobs, what passed through the oracle.
    fn traced(&self, job_no: u32, text: &str) -> (Vec<u8>, Option<RespondLog>) {
        let tracer = &self.tracer;
        let root = tracer.open("job", 0, job_no);
        let spec: JobSpec = tracer.time("job.parse", root.id, job_no, || {
            serde_json::from_str(text).expect("generated job specs parse")
        });
        let key = tracer.time("job.key", root.id, job_no, || spec.cache_key());
        if tracer.time("cache.get", root.id, job_no, || self.cache.get(key)).is_some() {
            self.mismatch(format!("fresh job {job_no} hit the replay cache"));
        }
        let service = tracer.open("worker.service", root.id, job_no);
        let started = Instant::now();
        let obs = Obs::memory().0;
        let mut respond_log = None;
        let payload = match spec.normalized() {
            JobSpec::Fuzz(job) => {
                let oracle = self.snapshots.oracle(job.scenario);
                let fuzzer = Fuzzer::new(keyless_command_model(), job.seed)
                    .with_batch_size(job.batch)
                    .with_obs(obs);
                let paths = keyless_paths();
                let log = Arc::new(Mutex::new(RespondLog::default()));
                let engine = tracer.open("fuzz.engine", service.id, job_no);
                let report =
                    fuzzer.run_parallel_targets(&paths, job.iterations, job.shards, |_| {
                        TimingTarget {
                            inner: oracle.clone(),
                            tracer: Arc::clone(tracer),
                            parent: engine.id,
                            job: job_no,
                            log: Arc::clone(&log),
                        }
                    });
                tracer.close(engine);
                respond_log = Some(std::mem::take(&mut *log.lock().expect("no log holder panics")));
                JobPayload::Fuzz(report)
            }
            JobSpec::Campaign(job) => {
                let mut cases = job.suite.cases();
                if job.seed != 0 {
                    for case in &mut cases {
                        case.seed = job.seed;
                    }
                }
                let report = tracer.time("campaign.job", service.id, job_no, || {
                    run_campaign_batched_with_obs(&cases, &obs)
                });
                JobPayload::Campaign(report)
            }
            _ => unreachable!("benchmark jobs are fuzz or campaign jobs"),
        };
        let bytes = tracer.time("payload.serialize", service.id, job_no, || payload.to_bytes());
        let elapsed_seconds = started.elapsed().as_secs_f64();
        tracer.close(service);
        let framed =
            tracer.time("cache.insert", root.id, job_no, || self.cache.insert(key, &bytes));
        tracer.time("protocol.frame", root.id, job_no, || {
            let stats = FreshStats { elapsed_seconds, inputs_per_sec: None, cases: None };
            let mut line = done_head("t", key, "miss", Some(&stats));
            line.extend_from_slice(framed.tail());
            black_box(line);
        });
        tracer.close(root);
        (bytes, respond_log)
    }

    /// A cached request's path: parse, key, memory hit, frame. The
    /// server memoizes parse and key per unique spec text, so on
    /// `cached-repeat` those two run once per working-set entry; they
    /// are timed here as the path a cache hit would take without the
    /// memo.
    pub fn cached(&self, request_no: u32, job: &Job, served: &[u8]) {
        let tracer = &self.tracer;
        let root = tracer.open("request", 0, request_no);
        let spec: JobSpec = tracer.time("job.parse", root.id, request_no, || {
            serde_json::from_str(&job.spec).expect("generated job specs parse")
        });
        let key = tracer.time("job.key", root.id, request_no, || spec.cache_key());
        let hit = tracer.time("cache.get", root.id, request_no, || self.cache.get(key));
        match hit {
            Some((framed, _)) => {
                if framed.payload() != served {
                    self.mismatch(format!("cached replay of seed {} differs", job.seed));
                }
                tracer.time("protocol.frame", root.id, request_no, || {
                    let mut line = done_head("r", key, "memory", None);
                    line.extend_from_slice(framed.tail());
                    black_box(line);
                });
            }
            None => self.mismatch(format!("working-set seed {} missed the replay cache", job.seed)),
        }
        tracer.close(root);
    }

    fn serial_sim(&self, scenario: ScenarioSpec, log: &RespondLog) -> SerialSim {
        let prefix = self.prefix(scenario);
        let mut sim = SerialSim::default();
        for (input, &batched) in log.inputs.iter().zip(&log.responses) {
            let t0 = Instant::now();
            let mut world = prefix.fork();
            let t1 = Instant::now();
            world.send_ble(FUZZ_SENDER, input.clone());
            while world.step(&mut ()) {
                sim.steps += 1;
            }
            let t2 = Instant::now();
            let rejected = world.security_log().events().iter().any(|e| e.sender == FUZZ_SENDER);
            let response = if world.into_outcome().any_violation() {
                TargetResponse::Crash
            } else if rejected {
                TargetResponse::Rejected
            } else {
                TargetResponse::Accepted
            };
            let t3 = Instant::now();
            sim.fork_ns += (t1 - t0).as_nanos() as u64;
            sim.step_ns += (t2 - t1).as_nanos() as u64;
            sim.classify_ns += (t3 - t2).as_nanos() as u64;
            sim.inputs += 1;
            sim.crashes += u64::from(response == TargetResponse::Crash);
            if response != batched {
                self.mismatch(format!(
                    "serial replay classified an input {response:?}, batched {batched:?}"
                ));
            }
        }
        sim
    }

    /// Runs each case of the campaign on its own through
    /// `executor::execute`; returns (cases, total seconds).
    fn serial_cases(&self, job: &Job, served: &[u8]) -> (usize, f64) {
        let JobSpec::Campaign(campaign) = job.parsed() else { unreachable!("campaign job") };
        let mut cases = campaign.suite.cases();
        for case in &mut cases {
            case.seed = campaign.seed;
        }
        let started = Instant::now();
        let serial: Vec<_> = cases.iter().map(attack_engine::execute).collect();
        let seconds = started.elapsed().as_secs_f64();
        if JobPayload::Campaign(CampaignReport { results: serial }).to_bytes() != served {
            self.mismatch(format!(
                "serial cases of seed {} differ from the batched campaign",
                job.seed
            ));
        }
        (cases.len(), seconds)
    }
}

/// Per-layer figures computed from one replay.
#[derive(Debug, Default, Clone)]
pub struct LayerFigures {
    /// (metric name, unit, value), in the units `BENCHMARK.json` states.
    pub values: Vec<(&'static str, &'static str, f64)>,
    /// Per-job traced service time (Σ self times under
    /// `worker.service`), in ms, by job number.
    pub traced_service_ms: HashMap<u32, f64>,
    /// Mean self time per ledger job, by layer, in ms.
    pub ledger_ms: Vec<(&'static str, f64)>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Reduces spans and serial timings to per-layer figures.
///
/// `ledger_jobs` are the workload's own fresh jobs; `replayed` also
/// holds the probe of the other job kind, which only feeds the layers
/// the workload's own jobs never reach.
pub fn figures(spans: &[SpanRec], replayed: &[Replayed], ledger_jobs: &[u32]) -> LayerFigures {
    let selfs = self_times(spans);
    let by_job_layer = ledger(spans, "worker.service");
    let in_ledger = |job: u32| ledger_jobs.contains(&job);
    let mut out = LayerFigures::default();

    // The ledger: mean self time of each layer under worker.service.
    let mut layer_totals: HashMap<&'static str, u64> = HashMap::new();
    for (&job, layers) in &by_job_layer {
        if !in_ledger(job) {
            continue;
        }
        out.traced_service_ms.insert(job, ms(layers.values().sum()));
        for (&name, &ns) in layers {
            *layer_totals.entry(name).or_default() += ns;
        }
    }
    let jobs = ledger_jobs.len().max(1) as f64;
    let mut ledger_ms: Vec<(&'static str, f64)> =
        layer_totals.into_iter().map(|(name, ns)| (name, ms(ns) / jobs)).collect();
    ledger_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.ledger_ms = ledger_ms;

    // Mean self time of a span name per span, over the given jobs.
    let per_span = |name: &str, jobs: &dyn Fn(u32) -> bool| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name && jobs(s.job)).map(|s| ms(selfs[&s.id])).collect()
    };
    let ledger_filter = |job: u32| in_ledger(job);

    let fuzz: Vec<&Replayed> = replayed.iter().filter(|r| r.sim.is_some()).collect();
    let campaign: Vec<&Replayed> = replayed.iter().filter(|r| r.cases.is_some()).collect();

    let mut sim = SerialSim::default();
    let mut engine_self = Vec::new();
    for r in &fuzz {
        let s = r.sim.as_ref().expect("fuzz replays carry serial timings");
        sim.inputs += s.inputs;
        sim.fork_ns += s.fork_ns;
        sim.step_ns += s.step_ns;
        sim.classify_ns += s.classify_ns;
        sim.steps += s.steps;
        sim.crashes += s.crashes;
        let job = r.job_no;
        sim.respond_ns += spans
            .iter()
            .filter(|s| s.name == "sim.respond" && s.job == job)
            .map(SpanRec::duration)
            .sum::<u64>();
        engine_self.extend(per_span("fuzz.engine", &|j| j == job));
    }
    let per_input_us = |ns: u64| ns as f64 / 1e3 / sim.inputs.max(1) as f64;
    let serial_us = per_input_us(sim.fork_ns + sim.step_ns + sim.classify_ns);
    let respond_us = per_input_us(sim.respond_ns);
    out.values.extend([
        ("sim.fork_us", "us", per_input_us(sim.fork_ns)),
        ("sim.step_us", "us", per_input_us(sim.step_ns)),
        ("sim.classify_us", "us", per_input_us(sim.classify_ns)),
        ("sim.steps_per_input", "count", sim.steps as f64 / sim.inputs.max(1) as f64),
        ("fuzz.respond_us", "us", respond_us),
        ("fuzz.engine_self_ms", "ms", mean_or_zero(&engine_self)),
        ("fuzz.crash_ratio", "ratio", sim.crashes as f64 / sim.inputs.max(1) as f64),
        (
            "sim.batch_vs_serial",
            "ratio",
            if serial_us > 0.0 { respond_us / serial_us } else { 0.0 },
        ),
    ]);

    let mut case_s = 0.0;
    let mut cases = 0usize;
    let mut job_ms = Vec::new();
    for r in &campaign {
        let (n, seconds) = r.cases.expect("campaign replays carry case timings");
        cases += n;
        case_s += seconds;
        let job = r.job_no;
        job_ms.extend(
            spans
                .iter()
                .filter(|s| s.name == "campaign.job" && s.job == job)
                .map(|s| ms(s.duration())),
        );
    }
    let case_ms = if cases > 0 { case_s * 1e3 / cases as f64 } else { 0.0 };
    let campaign_job_ms = mean_or_zero(&job_ms);
    let cases_per_job = cases as f64 / campaign.len().max(1) as f64;
    out.values.extend([
        ("campaign.case_ms", "ms", case_ms),
        ("campaign.job_ms", "ms", campaign_job_ms),
        (
            "campaign.batch_vs_serial",
            "ratio",
            if case_ms > 0.0 { campaign_job_ms / (case_ms * cases_per_job) } else { 0.0 },
        ),
    ]);

    let payload_kb: Vec<f64> = replayed
        .iter()
        .filter(|r| in_ledger(r.job_no))
        .map(|r| r.payload_bytes as f64 / 1e3)
        .collect();
    out.values.extend([
        (
            "payload.serialize_ms",
            "ms",
            mean_or_zero(&per_span("payload.serialize", &ledger_filter)),
        ),
        ("payload.kb", "kB", mean_or_zero(&payload_kb)),
        ("cache.insert_us", "us", mean_or_zero(&per_span("cache.insert", &ledger_filter)) * 1e3),
        ("worker.self_ms", "ms", mean_or_zero(&per_span("worker.service", &ledger_filter))),
    ]);

    // The request path: on cached-repeat the cached requests (the only
    // `request` roots), otherwise the ledger jobs.
    let has_requests = spans.iter().any(|s| s.name == "request");
    let roots: HashSet<u32> = spans
        .iter()
        .filter(|s| {
            if has_requests {
                s.name == "request"
            } else {
                s.name == "job" && in_ledger(s.job)
            }
        })
        .map(|s| s.id)
        .collect();
    let request_spans = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && roots.contains(&s.parent))
            .map(|s| ms(selfs[&s.id]) * 1e3)
            .collect()
    };
    out.values.extend([
        ("job.parse_us", "us", mean_or_zero(&request_spans("job.parse"))),
        ("job.key_us", "us", mean_or_zero(&request_spans("job.key"))),
        ("cache.get_us", "us", mean_or_zero(&request_spans("cache.get"))),
        ("protocol.frame_us", "us", mean_or_zero(&request_spans("protocol.frame"))),
    ]);
    out
}
