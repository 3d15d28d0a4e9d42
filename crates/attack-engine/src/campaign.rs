//! Campaign runner: executes suites of test cases and aggregates results.

use saseval_obs::Obs;
use saseval_types::shard;
use serde::{Deserialize, Serialize};

use crate::executor::{execute_with_obs, ExecutionResult, TestCase};

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Per-case results, in case order.
    pub results: Vec<ExecutionResult>,
}

impl CampaignReport {
    /// Number of executed cases.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Number of cases where the attack succeeded (a safety impact
    /// materialized).
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.attack_succeeded).count()
    }

    /// Number of cases with detection evidence.
    pub fn detections(&self) -> usize {
        self.results.iter().filter(|r| r.detected).count()
    }

    /// Attack success rate over the campaign (0.0–1.0); 0.0 for an empty
    /// campaign.
    pub fn success_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.successes() as f64 / self.results.len() as f64
    }

    /// Results for one attack description.
    pub fn for_attack<'a>(
        &'a self,
        attack_id: &'a str,
    ) -> impl Iterator<Item = &'a ExecutionResult> {
        self.results.iter().filter(move |r| r.attack_id == attack_id)
    }
}

/// Runs all cases serially, preserving order: [`run_campaign_parallel`]
/// on one thread, which runs the cases inline, without metrics.
pub fn run_campaign(cases: &[TestCase]) -> CampaignReport {
    run_campaign_parallel(cases, 1, &Obs::noop())
}

/// [`run_campaign_parallel`] through the lockstep batch executor
/// ([`crate::executor::execute_batch_with_obs`]): same report, same
/// `campaign.*` verdict totals, but same-world cases step together so the
/// dispatch loop is amortized — the variant a long-running campaign
/// service schedules.
pub fn run_campaign_batched_with_obs(cases: &[TestCase], obs: &Obs) -> CampaignReport {
    let span = obs.span("campaign.run_seconds");
    let results = crate::executor::execute_batch_with_obs(cases, obs);
    record_campaign_totals(&results, obs);
    span.finish();
    CampaignReport { results }
}

fn record_campaign_totals(results: &[ExecutionResult], obs: &Obs) {
    obs.counter("campaign.cases", results.len() as u64);
    obs.counter("campaign.succeeded", results.iter().filter(|r| r.attack_succeeded).count() as u64);
    obs.counter("campaign.detected", results.iter().filter(|r| r.detected).count() as u64);
}

/// Runs all cases on at most `threads` threads through
/// [`shard::map_ordered`], preserving case order; cases are independent
/// (worlds are self-contained), so the report is the same for every
/// thread count. The run is timed under the `campaign.run_seconds` span;
/// each case emits its `case.*` metrics and one `campaign.completed`
/// count, and the `campaign.*` verdict totals follow the join.
pub fn run_campaign_parallel(cases: &[TestCase], threads: usize, obs: &Obs) -> CampaignReport {
    let span = obs.span("campaign.run_seconds");
    let results = shard::map_ordered(cases.iter().collect(), threads, |case| {
        let result = execute_with_obs(case, obs);
        obs.counter("campaign.completed", 1);
        result
    });
    record_campaign_totals(&results, obs);
    span.finish();
    CampaignReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AttackKind;
    use vehicle_sim::config::ControlSelection;

    fn small_suite() -> Vec<TestCase> {
        vec![
            TestCase {
                attack_id: "AD20".into(),
                label: "undefended".into(),
                kind: AttackKind::V2xFlood { per_tick: 40 },
                controls: ControlSelection::none(),
                seed: 1,
            },
            TestCase {
                attack_id: "AD20".into(),
                label: "defended".into(),
                kind: AttackKind::V2xFlood { per_tick: 40 },
                controls: ControlSelection::all(),
                seed: 1,
            },
            TestCase {
                attack_id: "AD06".into(),
                label: "jam".into(),
                kind: AttackKind::V2xJam,
                controls: ControlSelection::all(),
                seed: 1,
            },
        ]
    }

    #[test]
    fn serial_campaign_aggregates() {
        let report = run_campaign(&small_suite());
        assert_eq!(report.total(), 3);
        assert_eq!(report.successes(), 2, "undefended flood + jam succeed");
        assert!(report.success_rate() > 0.6 && report.success_rate() < 0.7);
        assert_eq!(report.for_attack("AD20").count(), 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let suite = small_suite();
        let serial = run_campaign(&suite);
        let parallel = run_campaign_parallel(&suite, 4, &Obs::noop());
        assert_eq!(serial.total(), parallel.total());
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(s.attack_id, p.attack_id);
            assert_eq!(s.attack_succeeded, p.attack_succeeded);
            assert_eq!(s.detected, p.detected);
            assert_eq!(s.violated_goals, p.violated_goals);
        }
    }

    #[test]
    fn campaign_metrics_recorded() {
        let (obs, recorder) = Obs::memory();
        let report = run_campaign_parallel(&small_suite(), 1, &obs);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("campaign.cases"), Some(3));
        assert_eq!(snapshot.counter("campaign.succeeded"), Some(report.successes() as u64));
        assert_eq!(snapshot.counter("campaign.detected"), Some(report.detections() as u64));
        assert_eq!(snapshot.histogram("campaign.run_seconds").map(|h| h.count), Some(1));
        for phase in ["case.precondition_seconds", "case.inject_seconds", "case.evaluate_seconds"] {
            assert_eq!(snapshot.histogram(phase).map(|h| h.count), Some(3), "{phase}");
        }
        assert_eq!(snapshot.events.iter().filter(|e| e.name == "case.verdict").count(), 3);
        // The worlds' own instrumentation flows through the same handle.
        assert!(snapshot.counter("world.construction.ticks").unwrap_or(0) > 0);
    }

    #[test]
    fn parallel_campaign_metrics_track_progress() {
        let (obs, recorder) = Obs::memory();
        let report = run_campaign_parallel(&small_suite(), 2, &obs);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("campaign.completed"), Some(report.total() as u64));
        assert_eq!(snapshot.counter("campaign.cases"), Some(report.total() as u64));
        assert_eq!(snapshot.events.iter().filter(|e| e.name == "case.verdict").count(), 3);
    }

    #[test]
    fn empty_campaign() {
        let report = run_campaign(&[]);
        assert_eq!(report.total(), 0);
        assert_eq!(report.success_rate(), 0.0);
    }
}
