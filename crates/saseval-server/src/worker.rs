//! The warm worker pool: resident world snapshots, deterministic job
//! execution and progress forwarding.
//!
//! Workers reuse the fuzzing stack's two core optimizations end-to-end:
//! [`Fuzzer::run_parallel_targets`]'s deterministic shard merge drives
//! every fuzz job, and each job's oracle forks from a
//! [`WorldSnapshot`] warm prefix held resident in the shared
//! [`SnapshotStore`] — so a job on a known scenario never pays world
//! construction, only the forks. Campaign jobs run their cases one by
//! one through the attack engine's serial campaign runner.
//!
//! [`run_job`] is a pure function of the (normalized) spec: same spec,
//! same code version → byte-identical [`JobPayload`]. That purity is
//! what makes the result cache sound, and is pinned by the
//! cached-equals-fresh proptest.
//!
//! The pool talks to the event loop through one shared [`PoolEvent`]
//! channel. Every event is tagged with the job's cache key and the
//! single-flight *epoch* ([`crate::flight::InflightTable`]) so a
//! completion from a cancelled instance can never be mistaken for the
//! result of a newer resubmission of the same key. Cancellation is
//! cooperative via [`CancelToken`]: checked at dequeue time (a job
//! cancelled while queued never executes) and again before the cache
//! insert, so a job whose waiters all detached mid-run skips the cache
//! best-effort. A cancel landing in the narrow window between that
//! final check and the insert can still populate the cache; this is
//! harmless because payloads are deterministic — the cached bytes are
//! exactly what a fresh execution would produce.
//!
//! A job that panics is caught at the worker ([`PoolEvent::Failed`]):
//! the worker keeps draining the queue, nothing is cached, and the
//! event loop answers every waiter with an `error` frame and removes
//! the flight entry, so a later identical submission runs afresh.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attack_engine::campaign::{run_campaign, run_campaign_parallel};
use saseval_fuzz::fuzzer::Fuzzer;
use saseval_fuzz::model::{keyless_command_model, v2x_warning_model};
use saseval_fuzz::sim_target::SimOracle;
use saseval_obs::{FieldValue, MemoryRecorder, Obs, Recorder, TeeRecorder};
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_tara::AttackPath;
use serde::Serialize;
use vehicle_sim::construction::ConstructionWorld;
use vehicle_sim::keyless::KeylessWorld;
use vehicle_sim::WorldSnapshot;

use saseval_lint::graph::campaign_verdicts;
use saseval_lint::{run_lint, LintConfig, LintContext, TraceGraph, TraceInputs};
use saseval_threat::builtin::automotive_library;

use crate::cache::{CacheTier, FramedPayload, ResultCache};
use crate::flight::CancelToken;
use crate::job::{
    CampaignJob, FuzzJob, JobPayload, JobSpec, LintJob, LintOutcome, ScenarioJob, ScenarioSpec,
};

/// A warm world prefix resident in the [`SnapshotStore`].
#[derive(Debug, Clone)]
enum ResidentPrefix {
    Keyless(WorldSnapshot<KeylessWorld>),
    Construction(WorldSnapshot<ConstructionWorld>),
}

/// Shared store of warm world prefixes, keyed by
/// [`ScenarioSpec::prefix_key`]. Snapshots are `Arc`-frozen, so handing
/// one to a job is a pointer clone; only the first job on a new
/// scenario pays the prefix simulation.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    prefixes: Mutex<HashMap<u64, ResidentPrefix>>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident prefixes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no prefix is resident yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, ResidentPrefix>> {
        match self.prefixes.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Simulates and freezes the warm prefixes of the two default
    /// demonstrator scenarios, so the very first job on either is
    /// already warm.
    pub fn prewarm_defaults(&self) {
        self.oracle(ScenarioSpec::Keyless(Default::default()));
        self.oracle(ScenarioSpec::Construction(Default::default()));
    }

    /// A fuzz oracle for `scenario`, forked from the resident warm
    /// prefix — simulating and freezing it first if this is the first
    /// job on the scenario.
    pub fn oracle(&self, scenario: ScenarioSpec) -> SimOracle {
        let key = scenario.prefix_key();
        if let Some(resident) = self.lock().get(&key) {
            return oracle_from(resident.clone());
        }
        // Build outside the lock: prefix simulation can take a while and
        // other scenarios' jobs shouldn't stall behind it. A racing
        // duplicate build is deterministic, so last-write-wins is fine.
        let resident = match scenario.normalized() {
            ScenarioSpec::Keyless(_) => {
                let config = scenario.keyless_config().expect("keyless scenario");
                ResidentPrefix::Keyless(KeylessWorld::warm_snapshot(config, scenario.attack_at()))
            }
            ScenarioSpec::Construction(_) => {
                let config = scenario.construction_config().expect("construction scenario");
                ResidentPrefix::Construction(ConstructionWorld::warm_snapshot(
                    config,
                    scenario.attack_at(),
                ))
            }
        };
        let oracle = oracle_from(resident.clone());
        self.lock().insert(key, resident);
        oracle
    }
}

fn oracle_from(resident: ResidentPrefix) -> SimOracle {
    match resident {
        ResidentPrefix::Keyless(snapshot) => SimOracle::keyless_from(snapshot),
        ResidentPrefix::Construction(snapshot) => SimOracle::construction_from(snapshot),
    }
}

/// The fixed attack paths a fuzz job's sessions cycle through — one
/// built-in single-leaf tree per demonstrator, matching the interfaces
/// the TARA names for each use case.
fn attack_paths(scenario: ScenarioSpec) -> Vec<AttackPath> {
    let tree = match scenario {
        ScenarioSpec::Keyless(_) => AttackTree::new(
            "Open the vehicle",
            TreeNode::leaf_on("send forged open command", "BLE_PHONE"),
        ),
        ScenarioSpec::Construction(_) => {
            AttackTree::new("Disrupt warnings", TreeNode::leaf_on("spoof signage", "OBU_RSU"))
        }
    };
    tree.expect("built-in trees are well-formed").paths().expect("built-in trees have paths")
}

fn run_fuzz_job(job: FuzzJob, snapshots: &SnapshotStore, obs: &Obs) -> JobPayload {
    let oracle = snapshots.oracle(job.scenario);
    let paths = attack_paths(job.scenario);
    let model = match job.scenario {
        ScenarioSpec::Keyless(_) => keyless_command_model(),
        ScenarioSpec::Construction(_) => v2x_warning_model(),
    };
    let fuzzer = Fuzzer::new(model, job.seed).with_obs(obs.clone());
    let report =
        fuzzer.run_parallel_targets(&paths, job.iterations, job.shards, |_| oracle.clone());
    JobPayload::Fuzz(report)
}

fn run_campaign_job(job: CampaignJob, obs: &Obs) -> JobPayload {
    let mut cases = job.suite.cases();
    if job.seed != 0 {
        for case in &mut cases {
            case.seed = job.seed;
        }
    }
    JobPayload::Campaign(run_campaign_parallel(&cases, 1, obs))
}

fn run_lint_job(job: LintJob, obs: &Obs) -> JobPayload {
    let library = automotive_library();
    let catalog = job.catalog.catalog();
    // A suite, when given, is executed first so the trace-graph rules
    // see real verdicts; its results are mapped into catalog-local
    // attack IDs exactly as the lint CLI does.
    let trace = job.suite.map(|suite| {
        let results = run_campaign(&suite.cases()).results;
        TraceInputs {
            verdicts: campaign_verdicts(&results, job.catalog.tag()),
            evidence: Vec::new(),
        }
    });
    let mut ctx = LintContext::for_catalog(&library, &catalog);
    if let Some(trace) = &trace {
        ctx = ctx.with_trace(trace);
    }
    let report = run_lint(&ctx, &LintConfig::new(), obs);
    JobPayload::Lint(LintOutcome {
        fingerprint: format!("{:016x}", TraceGraph::build(&ctx).fingerprint()),
        errors: report.errors(),
        warnings: report.warnings(),
        diagnostics: report.diagnostics,
    })
}

/// Executes `spec` to its deterministic payload. Fuzz jobs fork from
/// the store's resident warm prefix; campaign jobs run their cases one
/// by one on the job's worker thread; lint jobs run the trace-graph
/// static analysis. Metrics land on `obs`.
pub fn run_job(spec: JobSpec, snapshots: &SnapshotStore, obs: &Obs) -> JobPayload {
    #[cfg(test)]
    fault::trip(spec);
    match spec.normalized() {
        JobSpec::Fuzz(job) => run_fuzz_job(job, snapshots, obs),
        JobSpec::Campaign(job) => run_campaign_job(job, obs),
        JobSpec::Lint(job) => run_lint_job(job, obs),
        JobSpec::Scenario(job) => run_scenario_job(job, obs),
    }
}

/// Runs a coverage-guided scenario search. The search manages its own
/// per-spec world prefixes (every evaluated spec compiles to a distinct
/// config, so the shared [`SnapshotStore`] of fuzz jobs does not apply)
/// and inherits the job's observability sink for progress frames.
fn run_scenario_job(job: ScenarioJob, obs: &Obs) -> JobPayload {
    let search = saseval_fuzz::scenario::ScenarioSearch::new(job.space, job.seed)
        .with_eval_iterations(job.eval_iterations)
        .with_obs(obs.clone());
    JobPayload::Scenario(search.run_parallel(job.budget, job.shards))
}

/// Execution statistics of a freshly computed job, summarized from the
/// job's [`MemoryRecorder`] snapshot. Cache hits have none — timings
/// vary run to run, so they are deliberately *not* part of the cached
/// payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FreshStats {
    /// Wall-clock job duration in seconds.
    pub elapsed_seconds: f64,
    /// Average executed inputs per second, for fuzz jobs.
    pub inputs_per_sec: Option<f64>,
    /// `campaign.cases` counter, for campaign jobs.
    pub cases: Option<u64>,
}

/// A progress signal, completion or abort, sent from a worker to the
/// event loop over the shared pool channel. Every event carries the
/// job's cache key and single-flight epoch; the event loop routes it to
/// the in-flight entry's waiters and discards events whose epoch is
/// stale (a cancelled instance racing a resubmission).
#[derive(Debug)]
pub enum PoolEvent {
    /// A live metric sample (throughput gauge or case verdict).
    Progress {
        /// Cache key of the job the sample belongs to.
        key: u64,
        /// Single-flight epoch of the job instance.
        epoch: u64,
        /// Metric name.
        metric: String,
        /// Sampled value.
        value: f64,
    },
    /// The job finished; `tier` is `None` for a fresh computation,
    /// `Some` when the dequeue-time cache recheck answered it.
    Done {
        /// Cache key of the completed job.
        key: u64,
        /// Single-flight epoch of the job instance.
        epoch: u64,
        /// The pre-framed done-frame tail, shared with the cache entry.
        frame: FramedPayload,
        /// Cache tier that answered, if any.
        tier: Option<CacheTier>,
        /// Execution statistics, for fresh computations only.
        stats: Option<FreshStats>,
    },
    /// The job instance was cancelled: either while queued (never
    /// executed) or mid-run with every waiter detached (result
    /// discarded, cache untouched).
    Aborted {
        /// Cache key of the aborted job.
        key: u64,
        /// Single-flight epoch of the aborted instance.
        epoch: u64,
    },
    /// The job panicked. The worker caught the panic and lives on; the
    /// cache is untouched, and every waiter gets an `error` frame.
    Failed {
        /// Cache key of the failed job.
        key: u64,
        /// Single-flight epoch of the failed instance.
        epoch: u64,
        /// The panic message.
        message: String,
    },
}

/// Forwards selected live metrics from a running job to the event loop
/// as [`PoolEvent::Progress`] messages: throughput gauges
/// (`fuzz.inputs_per_sec`, `fuzz.shard.inputs_per_sec`), rate-limited
/// to one sample per 25 ms, and per-case campaign verdicts (counted,
/// unthrottled — suites are small). Dropped receivers are ignored: a
/// disconnected client must not fail its job.
struct ProgressForwarder {
    key: u64,
    epoch: u64,
    events: Sender<PoolEvent>,
    last_gauge: Mutex<Option<Instant>>,
}

const GAUGE_INTERVAL: Duration = Duration::from_millis(25);

impl ProgressForwarder {
    fn send(&self, metric: &str, value: f64) {
        let _ = self.events.send(PoolEvent::Progress {
            key: self.key,
            epoch: self.epoch,
            metric: metric.to_owned(),
            value,
        });
    }
}

impl Recorder for ProgressForwarder {
    fn gauge(&self, name: &'static str, value: f64) {
        if !name.ends_with("inputs_per_sec") {
            return;
        }
        let mut last = match self.last_gauge.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let now = Instant::now();
        if last.is_some_and(|t| now.duration_since(t) < GAUGE_INTERVAL) {
            return;
        }
        *last = Some(now);
        drop(last);
        self.send(name, value);
    }

    fn event(&self, name: &'static str, _fields: &[(&'static str, FieldValue)]) {
        if name == "case.verdict" {
            self.send(name, 1.0);
        }
    }
}

/// One job queued for the pool, with the shared channel its events go
/// back on.
#[derive(Debug)]
pub struct QueuedJob {
    /// The job to run.
    pub spec: JobSpec,
    /// Its cache key (computed by the enqueuer, reused for the insert).
    pub key: u64,
    /// Single-flight epoch tagging this instance's events.
    pub epoch: u64,
    /// Cooperative cancellation flag, shared with the event loop.
    pub token: CancelToken,
    /// Where progress and completion are delivered.
    pub events: Sender<PoolEvent>,
}

/// A fixed pool of warm worker threads draining a shared job queue.
///
/// Dropping the pool is a drain-and-join: the queue sender closes, each
/// worker finishes its in-flight job and exits.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns worker threads sharing `queue`, `cache` and `snapshots`.
    /// The requested count is clamped to `available_parallelism` (and
    /// to at least one): extra workers on an oversubscribed host only
    /// add context-switch overhead, and job *results* never depend on
    /// the worker count — only on the specs.
    pub fn spawn(
        workers: usize,
        queue: Receiver<QueuedJob>,
        cache: &Arc<ResultCache>,
        snapshots: &Arc<SnapshotStore>,
    ) -> Self {
        let workers = workers.clamp(1, saseval_types::shard::available_threads());
        let queue = Arc::new(Mutex::new(queue));
        let handles = (0..workers)
            .map(|_| {
                let queue = queue.clone();
                let cache = cache.clone();
                let snapshots = snapshots.clone();
                std::thread::spawn(move || worker_loop(&queue, &cache, &snapshots))
            })
            .collect();
        WorkerPool { handles }
    }

    /// Joins every worker. Call after dropping all queue senders.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &Mutex<Receiver<QueuedJob>>, cache: &ResultCache, snapshots: &SnapshotStore) {
    loop {
        let job = {
            let receiver = match queue.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            match receiver.recv() {
                Ok(job) => job,
                Err(_) => return, // all senders gone: shutdown
            }
        };
        // A job cancelled while it sat in the queue is never executed.
        if job.token.is_cancelled() {
            let _ = job.events.send(PoolEvent::Aborted { key: job.key, epoch: job.epoch });
            continue;
        }
        // Recheck the cache at dequeue time: a concurrent identical job
        // may have landed while this one sat in the queue.
        if let Some((frame, tier)) = cache.get(job.key) {
            let _ = job.events.send(PoolEvent::Done {
                key: job.key,
                epoch: job.epoch,
                frame,
                tier: Some(tier),
                stats: None,
            });
            continue;
        }
        // Tee the job's metrics: the memory recorder feeds the done
        // frame's stats summary, the forwarder streams live progress.
        let forwarder = Arc::new(ProgressForwarder {
            key: job.key,
            epoch: job.epoch,
            events: job.events.clone(),
            last_gauge: Mutex::new(None),
        });
        let memory = Arc::new(MemoryRecorder::default());
        let obs = Obs::recording(Arc::new(TeeRecorder::new(vec![memory.clone(), forwarder])));
        let started = Instant::now();
        // A panic must not take the worker down with it: its waiters,
        // and every later identical submission coalescing onto its
        // flight entry, would never hear back.
        let run = || run_job(job.spec, snapshots, &obs).to_bytes();
        let payload = match panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(payload) => payload,
            Err(panic) => {
                let message = panic_message(panic.as_ref());
                let _ =
                    job.events.send(PoolEvent::Failed { key: job.key, epoch: job.epoch, message });
                continue;
            }
        };
        let elapsed_seconds = started.elapsed().as_secs_f64();
        // Every waiter detached mid-run: discard the result without
        // touching the cache. Best-effort — a cancel landing between
        // this check and the insert still caches the (deterministic,
        // so harmless) payload; see the module docs.
        if job.token.is_cancelled() {
            let _ = job.events.send(PoolEvent::Aborted { key: job.key, epoch: job.epoch });
            continue;
        }
        let frame = cache.insert(job.key, &payload);
        let snapshot = memory.snapshot();
        let inputs_per_sec = snapshot
            .counter("fuzz.inputs")
            .filter(|_| elapsed_seconds > 0.0)
            .map(|inputs| inputs as f64 / elapsed_seconds);
        let stats = FreshStats {
            elapsed_seconds,
            inputs_per_sec,
            cases: snapshot.counter("campaign.cases"),
        };
        let _ = job.events.send(PoolEvent::Done {
            key: job.key,
            epoch: job.epoch,
            frame,
            tier: None,
            stats: Some(stats),
        });
    }
}

fn panic_message(panic: &(dyn Any + Send)) -> String {
    match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(message), _) => (*message).to_owned(),
        (None, Some(message)) => message.clone(),
        (None, None) => "job panicked".to_owned(),
    }
}

/// Fault injection for the server's tests: the next fuzz job with the
/// armed seed panics, once. It holds until [`fault::release`] so that
/// other submissions can coalesce onto it first.
#[cfg(test)]
pub(crate) mod fault {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    use crate::job::JobSpec;

    static ARMED_SEED: AtomicU64 = AtomicU64::new(0);
    static RELEASED: AtomicBool = AtomicBool::new(false);

    /// Arms a one-shot panic for the next fuzz job seeded `seed` (non-zero).
    pub(crate) fn arm(seed: u64) {
        RELEASED.store(false, Ordering::SeqCst);
        ARMED_SEED.store(seed, Ordering::SeqCst);
    }

    /// Lets the held job panic.
    pub(crate) fn release() {
        RELEASED.store(true, Ordering::SeqCst);
    }

    pub(super) fn trip(spec: JobSpec) {
        let JobSpec::Fuzz(job) = spec else { return };
        if job.seed == 0
            || ARMED_SEED.compare_exchange(job.seed, 0, Ordering::SeqCst, Ordering::SeqCst).is_err()
        {
            return;
        }
        while !RELEASED.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("injected worker fault");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ControlsPreset, KeylessScenario, SuiteName};
    use std::sync::mpsc;

    fn small_fuzz_spec() -> JobSpec {
        JobSpec::Fuzz(FuzzJob {
            scenario: ScenarioSpec::Keyless(KeylessScenario {
                controls: ControlsPreset::None,
                horizon_ms: 300,
                attack_at_ms: 100,
            }),
            iterations: 24,
            seed: 21,
            shards: 2,
            batch: 8,
        })
    }

    #[test]
    fn run_job_is_deterministic_and_batch_neutral() {
        let snapshots = SnapshotStore::new();
        let first = run_job(small_fuzz_spec(), &snapshots, &Obs::noop()).to_bytes();
        let second = run_job(small_fuzz_spec(), &snapshots, &Obs::noop()).to_bytes();
        assert_eq!(first, second);
        // The ignored `batch` wire field must not change the payload.
        let JobSpec::Fuzz(mut job) = small_fuzz_spec() else { unreachable!() };
        job.batch = 1;
        let serial = run_job(JobSpec::Fuzz(job), &snapshots, &Obs::noop()).to_bytes();
        assert_eq!(first, serial);
    }

    #[test]
    fn fuzz_jobs_reuse_the_resident_prefix() {
        let snapshots = SnapshotStore::new();
        run_job(small_fuzz_spec(), &snapshots, &Obs::noop());
        assert_eq!(snapshots.len(), 1);
        // Same scenario, different fuzz parameters: no new prefix.
        let JobSpec::Fuzz(mut job) = small_fuzz_spec() else { unreachable!() };
        job.seed = 99;
        run_job(JobSpec::Fuzz(job), &snapshots, &Obs::noop());
        assert_eq!(snapshots.len(), 1);
    }

    #[test]
    fn campaign_job_runs_suite_with_seed_override() {
        let spec = JobSpec::Campaign(CampaignJob { suite: SuiteName::Jamming, seed: 5 });
        let payload = run_job(spec, &SnapshotStore::new(), &Obs::noop());
        let JobPayload::Campaign(ref report) = payload else { panic!("campaign payload") };
        assert_eq!(report.total(), SuiteName::Jamming.cases().len());
        let again = run_job(spec, &SnapshotStore::new(), &Obs::noop());
        assert_eq!(payload.to_bytes(), again.to_bytes());
    }

    #[test]
    fn lint_job_is_deterministic_and_error_free_on_builtins() {
        use crate::job::{CatalogName, LintJob};
        let spec = JobSpec::Lint(LintJob {
            catalog: CatalogName::UseCase2,
            suite: Some(SuiteName::Ad08),
            artifacts: 0,
        });
        let snapshots = SnapshotStore::new();
        let payload = run_job(spec, &snapshots, &Obs::noop());
        let JobPayload::Lint(ref outcome) = payload else { panic!("lint payload") };
        assert_eq!(outcome.errors, 0, "built-in catalogs analyze clean: {:?}", outcome.diagnostics);
        assert_eq!(outcome.fingerprint.len(), 16);
        let again = run_job(spec, &snapshots, &Obs::noop());
        assert_eq!(payload.to_bytes(), again.to_bytes());
    }

    fn queue_job(
        job_tx: &mpsc::Sender<QueuedJob>,
        spec: JobSpec,
        epoch: u64,
        token: CancelToken,
    ) -> mpsc::Receiver<PoolEvent> {
        let (tx, rx) = mpsc::channel();
        let key = spec.cache_key();
        job_tx.send(QueuedJob { spec, key, epoch, token, events: tx }).unwrap();
        rx
    }

    fn wait_done(rx: &mpsc::Receiver<PoolEvent>) -> (FramedPayload, Option<CacheTier>, bool) {
        loop {
            match rx.recv().unwrap() {
                PoolEvent::Progress { .. } => continue,
                PoolEvent::Done { frame, tier, stats, .. } => {
                    return (frame, tier, stats.is_some())
                }
                PoolEvent::Aborted { .. } => panic!("job was not cancelled"),
                PoolEvent::Failed { message, .. } => panic!("job failed: {message}"),
            }
        }
    }

    #[test]
    fn pool_computes_then_serves_from_cache() {
        let cache = Arc::new(ResultCache::new(8, None));
        let snapshots = Arc::new(SnapshotStore::new());
        let (job_tx, job_rx) = mpsc::channel();
        let pool = WorkerPool::spawn(2, job_rx, &cache, &snapshots);

        let rx = queue_job(&job_tx, small_fuzz_spec(), 0, CancelToken::new());
        let (fresh, tier, has_stats) = wait_done(&rx);
        assert_eq!(tier, None, "first run computes");
        assert!(has_stats);

        // Identical job again: answered by the dequeue-time recheck,
        // sharing the cached allocation.
        let rx = queue_job(&job_tx, small_fuzz_spec(), 1, CancelToken::new());
        let (cached, tier, has_stats) = wait_done(&rx);
        assert_eq!(tier, Some(CacheTier::Memory));
        assert!(!has_stats, "cache hits carry no stats");
        assert_eq!(cached, fresh, "cached bytes are identical");
        assert!(Arc::ptr_eq(
            &cached.share(),
            &cache.get(small_fuzz_spec().cache_key()).unwrap().0.share()
        ));
        drop(job_tx);
        pool.join();
    }

    #[test]
    fn cancelled_queued_jobs_abort_without_touching_the_cache() {
        let cache = Arc::new(ResultCache::new(8, None));
        let snapshots = Arc::new(SnapshotStore::new());
        let (job_tx, job_rx) = mpsc::channel();
        // No workers yet: cancel strictly before dequeue.
        let token = CancelToken::new();
        let rx = queue_job(&job_tx, small_fuzz_spec(), 3, token.clone());
        token.cancel();
        let pool = WorkerPool::spawn(1, job_rx, &cache, &snapshots);
        match rx.recv().unwrap() {
            PoolEvent::Aborted { epoch, .. } => assert_eq!(epoch, 3),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(cache.get(small_fuzz_spec().cache_key()).is_none(), "cache stays empty");
        drop(job_tx);
        pool.join();
    }
}
