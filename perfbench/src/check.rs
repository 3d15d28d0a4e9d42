//! Output checks: what a served payload must be for the run to count.

use saseval_obs::Obs;
use saseval_server::worker::run_job;
use saseval_server::{JobPayload, SnapshotStore};

use crate::workload::{Controls, Job, JobKind};

/// A fresh payload must parse as the kind's `JobPayload` variant with
/// the requested input count or suite size. Unhardened fuzz jobs must
/// find crashes, or `findings-heavy` is not the workload it claims.
pub fn payload(kind: JobKind, bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let parsed: JobPayload =
        serde_json::from_str(text).map_err(|e| format!("payload does not parse: {e}"))?;
    match (kind, parsed) {
        (JobKind::Fuzz { controls, inputs }, JobPayload::Fuzz(report)) => {
            if report.iterations != inputs {
                return Err(format!("fuzz payload ran {} of {inputs} inputs", report.iterations));
            }
            let crashed = !report.crashes.is_empty();
            if crashed != (controls == Controls::None) {
                return Err(format!(
                    "fuzz payload with {:?} controls found crashes: {crashed}",
                    controls
                ));
            }
            Ok(())
        }
        (JobKind::Campaign, JobPayload::Campaign(report)) => {
            if report.total() != kind.units() {
                return Err(format!(
                    "campaign payload has {} of {} cases",
                    report.total(),
                    kind.units()
                ));
            }
            Ok(())
        }
        (_, other) => Err(format!("payload is the wrong variant: {}", variant(&other))),
    }
}

fn variant(payload: &JobPayload) -> &'static str {
    match payload {
        JobPayload::Fuzz(_) => "Fuzz",
        JobPayload::Campaign(_) => "Campaign",
        JobPayload::Lint(_) => "Lint",
        JobPayload::Scenario(_) => "Scenario",
    }
}

/// A cheap check of a payload's canonical bytes, run on every fresh
/// payload inside the timed window: the variant, the requested input
/// count or case count, and whether crashes were found. Payloads are
/// deterministic compact JSON in declaration order, so these fields sit
/// at fixed places. The full typed parse of [`payload`] costs ~25 ms
/// on a 540 KB payload, which on the request path would stall the
/// closed loop; it runs on a sample after the window instead.
pub fn shape(kind: JobKind, bytes: &[u8]) -> Result<(), String> {
    fn count(haystack: &[u8], needle: &[u8]) -> usize {
        haystack.windows(needle.len()).filter(|w| *w == needle).count()
    }
    fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }
    // Both variants close two objects: `{"Kind":{…}}`.
    if !bytes.ends_with(b"}}") {
        return Err("payload is not a complete JSON object".to_owned());
    }
    match kind {
        JobKind::Fuzz { controls, inputs } => {
            let head = format!(r#"{{"Fuzz":{{"iterations":{inputs},"accepted":"#);
            if !bytes.starts_with(head.as_bytes()) {
                return Err(format!("payload does not start with {head}"));
            }
            let at = find(bytes, br#""crashes":["#).ok_or("fuzz payload has no crashes field")?;
            let crashed = bytes.get(at + 11) == Some(&b'{');
            if crashed != (controls == Controls::None) {
                return Err(format!(
                    "fuzz payload with {controls:?} controls found crashes: {crashed}"
                ));
            }
            Ok(())
        }
        JobKind::Campaign => {
            if !bytes.starts_with(br#"{"Campaign":{"results":[{"#) {
                return Err("payload is not a campaign report".to_owned());
            }
            let cases = count(bytes, br#"{"attack_id":"#);
            if cases != kind.units() {
                return Err(format!("campaign payload has {cases} of {} cases", kind.units()));
            }
            Ok(())
        }
    }
}

/// Recomputes `job` in-process with the worker's own `run_job` and
/// compares the payload byte for byte with what the server served.
pub fn recompute(job: &Job, served: &[u8]) -> Result<(), String> {
    let fresh = run_job(job.parsed(), &SnapshotStore::new(), &Obs::noop()).to_bytes();
    if fresh == served {
        Ok(())
    } else {
        Err(format!("served payload of seed {} differs from run_job's", job.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{job, Stream};

    #[test]
    fn payload_checks_accept_real_payloads_and_reject_mismatches() {
        let kind = JobKind::Fuzz { controls: Controls::All, inputs: 64 };
        let small = job(kind, 1, Stream::Timed, 0);
        let bytes = run_job(small.parsed(), &SnapshotStore::new(), &Obs::noop()).to_bytes();
        assert_eq!(payload(kind, &bytes), Ok(()));
        assert_eq!(shape(kind, &bytes), Ok(()));
        assert!(shape(JobKind::Fuzz { controls: Controls::All, inputs: 65 }, &bytes).is_err());
        assert!(shape(JobKind::Fuzz { controls: Controls::None, inputs: 64 }, &bytes).is_err());
        assert!(shape(JobKind::Campaign, &bytes).is_err());
        assert!(shape(kind, &bytes[..bytes.len() - 1]).is_err());
        assert_eq!(recompute(&small, &bytes), Ok(()));
        assert!(payload(JobKind::Fuzz { controls: Controls::All, inputs: 65 }, &bytes).is_err());
        assert!(payload(JobKind::Fuzz { controls: Controls::None, inputs: 64 }, &bytes).is_err());
        assert!(payload(JobKind::Campaign, &bytes).is_err());
        assert!(payload(kind, b"{\"Fuzz\":").is_err());
        let mut tampered = bytes;
        tampered.push(b' ');
        assert!(recompute(&small, &tampered).is_err());
    }

    #[test]
    fn shape_checks_agree_with_full_parses_on_every_kind() {
        for kind in [JobKind::Fuzz { controls: Controls::None, inputs: 96 }, JobKind::Campaign] {
            let j = job(kind, 2, Stream::Timed, 0);
            let bytes = run_job(j.parsed(), &SnapshotStore::new(), &Obs::noop()).to_bytes();
            assert_eq!(payload(kind, &bytes), Ok(()));
            assert_eq!(shape(kind, &bytes), Ok(()));
        }
    }
}
