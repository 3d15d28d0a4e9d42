//! End-to-end execution of the paper's attack descriptions against the
//! simulated SUTs — the shape claims of Tables VI/VII and the §IV prose.

use saseval::engine::builtin::{
    ablation_grid, ad08_cases, ad20_cases, can_flood_cases, full_campaign, jamming_cases,
    replay_cases,
};
use saseval::engine::campaign::{run_campaign, run_campaign_parallel};
use saseval::engine::executor::WorldOutcome;
use saseval::obs::Obs;
use saseval::types::Ftti;

#[test]
fn ad20_table_vi_shape() {
    // "Attack Success: Shutdown of service" without the control;
    // "Attack Fails: Security control identifies unwanted sender" with it.
    let report = run_campaign(&ad20_cases());
    let undefended = &report.results[0];
    assert!(undefended.attack_succeeded);
    let WorldOutcome::Construction(o) = &undefended.outcome else { panic!("wrong world") };
    assert!(o.service_shutdown);
    assert!(o.sg01_violated, "safety impact: no control hand-over");

    let defended = &report.results[1];
    assert!(!defended.attack_succeeded);
    assert!(defended.detected, "unwanted sender identified");
    let WorldOutcome::Construction(o) = &defended.outcome else { panic!("wrong world") };
    assert!(!o.service_shutdown);
    assert!(!o.any_violation(), "{o:?}");
    assert!(o.isolated_senders.iter().any(|s| s == "attacker"));
}

#[test]
fn ad08_table_vii_shape() {
    // "Attack Success: Open the vehicle" / "Attack Fails: Opening is
    // rejected", for both guessing variants of the impl comments.
    let report = run_campaign(&ad08_cases());
    assert!(!report.results[0].attack_succeeded, "random IDs rejected");
    assert!(!report.results[1].attack_succeeded, "incrementing IDs rejected");
    assert!(report.results[2].attack_succeeded, "no allow-list: vehicle opens");
    let WorldOutcome::Keyless(o) = &report.results[2].outcome else { panic!("wrong world") };
    assert!(o.lock_open);
}

#[test]
fn replay_beats_encryption_alone() {
    // §IV-B: "attacks that may occur despite having a valid end-to-end
    // encryption … replay attacks" — defeated by timestamps /
    // challenge-response, not by authentication.
    let report = run_campaign(&replay_cases());
    let by_label =
        |label: &str| report.results.iter().find(|r| r.label == label).unwrap().attack_succeeded;
    assert!(!by_label("opening replay, full controls"));
    assert!(by_label("opening replay, authentication only"));
    assert!(!by_label("warning replay, full controls"));
    assert!(by_label("warning replay, no freshness"));
}

#[test]
fn can_flood_availability_shape() {
    // §IV-B: flooding the CAN bus via forwarded Bluetooth requests
    // reduces availability of the opening function (SG03).
    let report = run_campaign(&can_flood_cases());
    let undefended = &report.results[0];
    assert!(undefended.attack_succeeded);
    let WorldOutcome::Keyless(o) = &undefended.outcome else { panic!("wrong world") };
    assert!(o.sg03_violated);
    assert!(o.open_latency.is_none() || o.open_latency.unwrap() > Ftti::from_secs(5));

    let defended = &report.results[1];
    assert!(!defended.attack_succeeded);
    let WorldOutcome::Keyless(o) = &defended.outcome else { panic!("wrong world") };
    let latency = o.open_latency.expect("open served");
    assert!(latency <= Ftti::from_secs(5), "latency {latency}");
}

#[test]
fn jamming_is_a_residual_risk() {
    // Physical-layer jamming defeats every message-level control — the
    // class of attacks "not covered by classical security controls"
    // (§IV-A discussion).
    let report = run_campaign(&jamming_cases());
    for result in &report.results {
        assert!(result.attack_succeeded, "{} should succeed", result.label);
    }
}

#[test]
fn ablation_controls_monotone() {
    // Per attack, moving from no controls to the full stack never turns a
    // defeated attack back into a successful one.
    let report = run_campaign(&ablation_grid());
    let order = ["none", "auth-only", "auth+freshness+replay", "full"];
    for attack in ["AD20", "UC1-AD10", "UC1-AD17", "UC2-AD01", "UC2-AD14"] {
        let successes: Vec<bool> = order
            .iter()
            .map(|label| {
                report
                    .for_attack(attack)
                    .find(|r| r.label == *label)
                    .unwrap_or_else(|| panic!("{attack}/{label}"))
                    .attack_succeeded
            })
            .collect();
        // Once an attack is stopped it stays stopped as controls grow.
        let mut stopped = false;
        for (i, success) in successes.iter().enumerate() {
            if stopped {
                assert!(!success, "{attack}: succeeded again at {}", order[i]);
            }
            if !success {
                stopped = true;
            }
        }
        assert!(successes[0], "{attack} succeeds undefended");
        assert!(!successes[3], "{attack} defeated by the full stack");
    }
}

#[test]
fn campaign_parallel_equals_serial() {
    let cases = full_campaign();
    let serial = run_campaign(&cases);
    let parallel = run_campaign_parallel(&cases, 8, &Obs::noop());
    assert_eq!(serial.total(), parallel.total());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.attack_id, p.attack_id);
        assert_eq!(s.label, p.label);
        assert_eq!(s.attack_succeeded, p.attack_succeeded);
        assert_eq!(s.detected, p.detected);
        assert_eq!(s.violated_goals, p.violated_goals);
    }
}

#[test]
fn campaign_results_serialize() {
    // The repro binaries persist campaign reports as JSON.
    let report = run_campaign(&ad20_cases());
    let json = serde_json::to_string(&report.results).expect("serialize");
    assert!(json.contains("AD20"));
    assert!(json.contains("attack_succeeded"));
}
