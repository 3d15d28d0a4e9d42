//! Static analysis for SaSeVAL artifacts.
//!
//! The SaSeVAL method (DSN 2021) hangs its completeness argument on a
//! chain of cross-referenced artifacts: HARA safety goals, threat-library
//! scenarios, attack descriptions and DSL documents. Each link is easy to
//! break silently — a renamed goal, a retired threat, a justification
//! that outlived its purpose. This crate verifies the whole chain
//! statically, before any simulation runs.
//!
//! # Architecture
//!
//! * [`diagnostics`] — the reusable core: [`Diagnostic`] (stable code,
//!   severity, message, locus, notes, suggested fix) and the
//!   [`Level`] (`allow`/`warn`/`deny`) configuration model.
//! * [`mod@registry`] — the [`Rule`] trait and the registry of built-in
//!   rules with stable `SASE…` codes.
//! * [`rules`] — the rules themselves: artifact cross-reference and
//!   completeness checks (`SASE001`–`SASE009`), DSL semantic checks
//!   (`SASE010`–`SASE015`), whole-campaign trace-graph checks
//!   (`SASE016`–`SASE024`) and scenario-file checks over declared
//!   search spaces and their concrete scenarios (`SASE025`–`SASE029`).
//! * [`graph`] — the typed, content-addressed trace graph the graph
//!   rules and the assurance-case renderer analyze.
//! * [`assurance`] — the GSN-style assurance case and traceability
//!   matrix derived from an analyzed graph (deterministic JSON + HTML).
//! * [`baseline`] — suppression files recording known findings so the
//!   deny gate only fails on *new* diagnostics.
//! * [`render`] — text and SARIF-shaped JSON output.
//!
//! # Example
//!
//! ```
//! use saseval_core::catalog::use_case_1;
//! use saseval_lint::{run_lint, LintConfig, LintContext};
//! use saseval_obs::Obs;
//! use saseval_threat::builtin::automotive_library;
//!
//! let library = automotive_library();
//! let catalog = use_case_1();
//! let ctx = LintContext::for_catalog(&library, &catalog);
//! let report = run_lint(&ctx, &LintConfig::new(), &Obs::noop());
//! assert!(!report.has_errors(), "built-in catalog must lint clean");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assurance;
pub mod baseline;
pub mod config;
pub mod context;
pub mod diagnostics;
pub mod graph;
pub mod registry;
pub mod render;
pub mod rules;

pub use assurance::AssuranceCase;
pub use baseline::Baseline;
pub use config::LintConfig;
pub use context::{LintContext, ScenarioDocument, SourceDocument};
pub use diagnostics::{Diagnostic, Level, Locus, Related, Severity};
pub use graph::{EvidenceRecord, TraceGraph, TraceInputs, VerdictRecord};
pub use registry::{registry, Rule};
pub use render::{render_json, render_text};

use saseval_obs::{FieldValue, Obs};
use saseval_types::shard;

/// The outcome of a lint run: all findings, sorted deterministically by
/// (code, locus, message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// The findings, in sorted order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Whether the run produced any errors (nonzero exit in the CLI).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// The findings carrying `code`.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }
}

/// Runs every registered rule at its effective level over `ctx`.
///
/// Rules configured `allow` are skipped entirely; findings from `warn`
/// rules carry [`Severity::Warning`], from `deny` rules
/// [`Severity::Error`]. Per-rule timings and finding counts are emitted
/// through `obs` (`lint.rule` events, `lint.findings` counter,
/// `lint.run_seconds` span).
pub fn run_lint(ctx: &LintContext<'_>, config: &LintConfig, obs: &Obs) -> LintReport {
    run_lint_with_jobs(ctx, config, obs, 1)
}

/// [`run_lint`] with rule-level parallelism: rules run on up to `jobs`
/// threads through [`shard::map_ordered`]. Rules are independent by
/// contract and their findings come back in registry order before the
/// global deterministic sort, so the report is byte-identical to the
/// single-threaded run for any `jobs` value.
pub fn run_lint_with_jobs(
    ctx: &LintContext<'_>,
    config: &LintConfig,
    obs: &Obs,
    jobs: usize,
) -> LintReport {
    let run_span = obs.span("lint.run_seconds");
    // Jobs are rule indices, not rules: `Box<dyn Rule>` is not `Send`,
    // so `check_rule` looks its (stateless) rule up in a fresh registry.
    let outcomes = shard::map_ordered((0..registry().len()).collect(), jobs, |index| {
        check_rule(ctx, config, index)
    });

    let mut diagnostics = Vec::new();
    for (rule, outcome) in registry().iter().zip(outcomes) {
        let Some((found, seconds)) = outcome else {
            continue; // allowed: the rule did not run
        };
        obs.event(
            "lint.rule",
            &[
                ("code", FieldValue::Str(rule.code().to_owned())),
                ("findings", FieldValue::U64(found.len() as u64)),
                ("seconds", FieldValue::F64(seconds)),
            ],
        );
        diagnostics.extend(found);
    }
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    obs.counter("lint.findings", diagnostics.len() as u64);
    run_span.finish();
    LintReport { diagnostics }
}

/// Runs the rule at `index` at its effective level: `None` when the rule
/// is `allow`ed, otherwise its severity-assigned findings and wall-clock
/// seconds.
fn check_rule(
    ctx: &LintContext<'_>,
    config: &LintConfig,
    index: usize,
) -> Option<(Vec<Diagnostic>, f64)> {
    let rule = &registry()[index];
    let level = config.level_for(rule.code(), rule.default_level());
    let severity = level.severity()?;
    let start = std::time::Instant::now();
    let mut found = Vec::new();
    rule.check(ctx, &mut found);
    let seconds = start.elapsed().as_secs_f64();
    for diag in &mut found {
        diag.severity = severity;
    }
    Some((found, seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saseval_core::catalog::{use_case_1, use_case_2};
    use saseval_threat::builtin::automotive_library;

    #[test]
    fn builtin_catalogs_lint_clean() {
        let library = automotive_library();
        for catalog in [use_case_1(), use_case_2()] {
            let ctx = LintContext::for_catalog(&library, &catalog);
            let report = run_lint(&ctx, &LintConfig::new(), &Obs::noop());
            assert!(report.diagnostics.is_empty(), "{}: {:?}", catalog.name, report.diagnostics);
        }
    }

    #[test]
    fn allow_suppresses_and_deny_escalates() {
        let library = automotive_library();
        let mut catalog = use_case_1();
        // Break one goal reference so SASE001 has something to report.
        let broken = saseval_core::AttackDescription::builder("AD99", "broken ref")
            .safety_goal("SG99")
            .threat_scenario("TS-2.1.4")
            .threat_type(saseval_types::ThreatType::DenialOfService)
            .attack_type(saseval_types::AttackType::Jamming)
            .precondition("p")
            .attack_success("s")
            .attack_fails("f")
            .build()
            .unwrap();
        catalog.attacks.push(broken);
        let ctx = LintContext::for_catalog(&library, &catalog);

        let report = run_lint(&ctx, &LintConfig::new(), &Obs::noop());
        assert_eq!(report.with_code("SASE001").count(), 1);
        assert!(report.has_errors());

        let report = run_lint(&ctx, &LintConfig::new().allow("SASE001"), &Obs::noop());
        assert_eq!(report.with_code("SASE001").count(), 0);

        let report = run_lint(&ctx, &LintConfig::new().warn("SASE001"), &Obs::noop());
        assert_eq!(report.with_code("SASE001").next().unwrap().severity, Severity::Warning);
        assert!(!report.has_errors());
    }

    #[test]
    fn obs_records_rule_events_and_finding_counter() {
        let library = automotive_library();
        let catalog = use_case_1();
        let ctx = LintContext::for_catalog(&library, &catalog);
        let (obs, recorder) = Obs::memory();
        run_lint(&ctx, &LintConfig::new(), &obs);
        let snapshot = recorder.snapshot();
        let rule_events = snapshot.events.iter().filter(|e| e.name == "lint.rule").count();
        assert_eq!(rule_events, registry().len(), "one lint.rule event per rule");
        assert!(snapshot.counters.iter().any(|c| c.name == "lint.findings"));
    }
}
