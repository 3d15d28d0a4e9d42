//! The four workloads and the deterministic job lists they submit.
//!
//! Every workload is a stream of one job kind on one scenario. Only the
//! job seed varies, and it is derived from the workload seed, so a run's
//! medians and tails stay inside one cluster of job cost. A median taken
//! over a mix of 1 ms and 500 ms jobs falls between the two clusters and
//! moves with the mix, not with the code.

use saseval_server::{JobSpec, SuiteName};

/// Fuzz inputs per job on the fresh fuzz workloads (≈ 85 ms of
/// `run_job` on one core).
pub const FUZZ_INPUTS: usize = 8192;

/// Fuzz inputs per job in `cached-repeat`'s working set. The payload of
/// a hardened keyless job is ~117 B at any input count, so a smaller job
/// only shortens the prefill.
pub const CACHED_INPUTS: usize = 1024;

/// Distinct entries in `cached-repeat`'s working set: half the server's
/// 128-entry memory tier, so every repeat is a memory hit.
pub const WORKING_SET: usize = 64;

/// Requests each `cached-repeat` connection keeps in flight. Deeper
/// pipelines made the server batch reads unevenly: over 15 s runs,
/// windows of 2, 4 and 8 moved throughput by 21%, 26% and 15% between
/// runs of the same code, a window of 1 by 4%.
pub const CACHED_WINDOW: usize = 1;

/// Client connections: one per core of the reference host, never more
/// than `available_parallelism`.
pub const CONNECTIONS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct-seed fuzz jobs on the hardened default keyless scenario.
    FuzzFresh,
    /// The same stream on the unhardened scenario: every job finds
    /// crashes and returns a ~540 KB payload.
    FindingsHeavy,
    /// Distinct-seed campaigns of the `Full` suite.
    CampaignFresh,
    /// Exact repeats of a prefilled working set.
    CachedRepeat,
}

/// Independent seed streams of one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// One warm-up job per connection.
    WarmUp = 1,
    /// The timed phase's fresh jobs.
    Timed = 2,
    /// `cached-repeat`'s working set.
    WorkingSet = 3,
    /// `cached-repeat`'s choice of which entry each request repeats.
    Picks = 4,
    /// The per-layer probe of the job kind the workload does not run.
    Probe = 5,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FuzzFresh,
        Workload::FindingsHeavy,
        Workload::CampaignFresh,
        Workload::CachedRepeat,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FuzzFresh => "fuzz-fresh",
            Workload::FindingsHeavy => "findings-heavy",
            Workload::CampaignFresh => "campaign-fresh",
            Workload::CachedRepeat => "cached-repeat",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The kind of job the workload's timed phase submits fresh.
    pub fn kind(self) -> JobKind {
        match self {
            Workload::FuzzFresh => JobKind::Fuzz { controls: Controls::All, inputs: FUZZ_INPUTS },
            Workload::FindingsHeavy => {
                JobKind::Fuzz { controls: Controls::None, inputs: FUZZ_INPUTS }
            }
            Workload::CampaignFresh => JobKind::Campaign,
            Workload::CachedRepeat => {
                JobKind::Fuzz { controls: Controls::All, inputs: CACHED_INPUTS }
            }
        }
    }

    /// The job kind the traced run probes so that every layer is
    /// measured in every workload's trace: a campaign for the fuzz
    /// workloads, a fuzz job for `campaign-fresh`.
    pub fn probe_kind(self) -> JobKind {
        match self.kind() {
            JobKind::Fuzz { .. } => JobKind::Campaign,
            JobKind::Campaign => JobKind::Fuzz { controls: Controls::All, inputs: FUZZ_INPUTS },
        }
    }
}

/// Security controls deployed in a fuzz job's keyless world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Controls {
    /// The server's prewarmed default: every control of Table VII.
    All,
    /// The paper's unhardened baseline.
    None,
}

/// The job kind a stream submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A keyless fuzz job of `inputs` inputs.
    Fuzz {
        /// Deployed controls.
        controls: Controls,
        /// Inputs per job.
        inputs: usize,
    },
    /// A campaign of the `Full` suite.
    Campaign,
}

impl JobKind {
    /// The job's wire JSON for `seed`.
    pub fn spec_json(self, seed: u64) -> String {
        match self {
            JobKind::Fuzz { controls: Controls::All, inputs } => format!(
                r#"{{"Fuzz":{{"scenario":{{"Keyless":{{}}}},"iterations":{inputs},"seed":{seed}}}}}"#
            ),
            JobKind::Fuzz { controls: Controls::None, inputs } => format!(
                r#"{{"Fuzz":{{"scenario":{{"Keyless":{{"controls":"None"}}}},"iterations":{inputs},"seed":{seed}}}}}"#
            ),
            JobKind::Campaign => format!(r#"{{"Campaign":{{"suite":"Full","seed":{seed}}}}}"#),
        }
    }

    /// Work units per job: fuzz inputs, or campaign cases.
    pub fn units(self) -> usize {
        match self {
            JobKind::Fuzz { inputs, .. } => inputs,
            JobKind::Campaign => SuiteName::Full.cases().len(),
        }
    }
}

/// One job of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The job's seed.
    pub seed: u64,
    /// Its wire JSON.
    pub spec: String,
}

impl Job {
    /// The job's typed spec.
    pub fn parsed(&self) -> JobSpec {
        serde_json::from_str(&self.spec).expect("generated job specs parse")
    }
}

/// SplitMix64 finalizer: a bijection on `u64` with full avalanche.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th value of `stream` under `workload_seed`.
pub fn draw(workload_seed: u64, stream: Stream, index: u64) -> u64 {
    mix(mix(workload_seed ^ ((stream as u64) << 56)).wrapping_add(index))
}

/// The seed of job `index` of `stream`: 48 bits (exact in any JSON
/// reader) and never 0, which a campaign reads as "keep the built-in
/// seeds".
pub fn job_seed(workload_seed: u64, stream: Stream, index: u64) -> u64 {
    (draw(workload_seed, stream, index) >> 16).max(1)
}

/// Job `index` of `stream` for `kind`.
pub fn job(kind: JobKind, workload_seed: u64, stream: Stream, index: u64) -> Job {
    let seed = job_seed(workload_seed, stream, index);
    Job { seed, spec: kind.spec_json(seed) }
}

/// The first `count` jobs of `stream`.
pub fn jobs(kind: JobKind, workload_seed: u64, stream: Stream, count: usize) -> Vec<Job> {
    (0..count as u64).map(|i| job(kind, workload_seed, stream, i)).collect()
}

/// Which working-set entry `cached-repeat`'s request `index` repeats.
pub fn pick(workload_seed: u64, index: u64) -> usize {
    (draw(workload_seed, Stream::Picks, index) % WORKING_SET as u64) as usize
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn keys(jobs: &[Job]) -> Vec<u64> {
        jobs.iter().map(|job| job.parsed().cache_key()).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_job_list() {
        for workload in Workload::ALL {
            for stream in [Stream::WarmUp, Stream::Timed, Stream::WorkingSet] {
                let first = jobs(workload.kind(), 42, stream, 64);
                assert_eq!(first, jobs(workload.kind(), 42, stream, 64));
            }
            let picks: Vec<usize> = (0..256).map(|i| pick(42, i)).collect();
            assert_eq!(picks, (0..256).map(|i| pick(42, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_seeds_give_disjoint_cache_keys() {
        for workload in Workload::ALL {
            for (a, b) in [(1, 2), (0, 1), (7, 7 ^ (1 << 56))] {
                let mut ka = keys(&jobs(workload.kind(), a, Stream::Timed, 512));
                ka.extend(keys(&jobs(workload.kind(), a, Stream::WarmUp, 8)));
                let kb: HashSet<u64> = keys(&jobs(workload.kind(), b, Stream::Timed, 512))
                    .into_iter()
                    .chain(keys(&jobs(workload.kind(), b, Stream::WarmUp, 8)))
                    .collect();
                assert!(ka.iter().all(|k| !kb.contains(k)), "{} seeds {a}/{b}", workload.name());
            }
        }
    }

    #[test]
    fn no_two_jobs_of_one_fresh_run_share_a_key() {
        for workload in Workload::ALL {
            // Warm-up, timed and working-set jobs of one seed, well past
            // the job count of the longest run.
            let mut all = jobs(workload.kind(), 9, Stream::WarmUp, CONNECTIONS);
            all.extend(jobs(workload.kind(), 9, Stream::Timed, 4096));
            all.extend(jobs(workload.kind(), 9, Stream::WorkingSet, WORKING_SET));
            let distinct: HashSet<u64> = keys(&all).into_iter().collect();
            assert_eq!(distinct.len(), all.len(), "{}", workload.name());
        }
    }

    #[test]
    fn specs_parse_as_the_intended_kind() {
        let JobSpec::Fuzz(fuzz) = job(Workload::FindingsHeavy.kind(), 3, Stream::Timed, 0).parsed()
        else {
            panic!("fuzz spec");
        };
        assert_eq!(fuzz.iterations, FUZZ_INPUTS);
        let JobSpec::Campaign(campaign) =
            job(Workload::CampaignFresh.kind(), 3, Stream::Timed, 0).parsed()
        else {
            panic!("campaign spec");
        };
        assert_eq!(campaign.suite, SuiteName::Full);
        assert_ne!(campaign.seed, 0);
        assert!((0..1000).all(|i| pick(5, i) < WORKING_SET));
    }
}
