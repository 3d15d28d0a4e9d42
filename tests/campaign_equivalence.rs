//! Property: the parallel campaign runner is observationally equivalent
//! to the serial one — same verdicts in the same order — for arbitrary
//! suites and any worker count; and a scenario-compiled demonstrator
//! world is observationally equivalent to the hand-built one under an
//! identical fuzzing campaign.

use proptest::prelude::*;

use saseval::engine::attacks::KeyGuessStrategy;
use saseval::engine::campaign::{run_campaign, run_campaign_parallel};
use saseval::engine::executor::{AttackKind, TestCase};
use saseval::fuzz::fuzzer::Fuzzer;
use saseval::fuzz::model::{keyless_command_model, v2x_warning_model};
use saseval::fuzz::scenario::ScenarioSpec;
use saseval::fuzz::SimOracle;
use saseval::obs::Obs;
use saseval::sim::config::ControlSelection;
use saseval::sim::construction::ConstructionConfig;
use saseval::sim::keyless::KeylessConfig;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::tara::AttackPath;

fn attack_kind() -> impl Strategy<Value = AttackKind> {
    prop_oneof![
        Just(AttackKind::V2xJam),
        (10u8..120).prop_map(|limit| AttackKind::V2xFakeLimit { limit }),
        Just(AttackKind::BleSpoofClose),
        Just(AttackKind::CanStubInject),
        (1u32..50)
            .prop_map(|budget| AttackKind::KeySpoof { strategy: KeyGuessStrategy::Random, budget }),
    ]
}

fn controls() -> impl Strategy<Value = ControlSelection> {
    prop_oneof![Just(ControlSelection::all()), Just(ControlSelection::none())]
}

fn test_case() -> impl Strategy<Value = TestCase> {
    (attack_kind(), controls(), 0u64..1_000).prop_map(|(kind, controls, seed)| TestCase {
        attack_id: "PROP".to_owned(),
        label: "prop".to_owned(),
        kind,
        controls,
        seed,
    })
}

fn leaf_paths(goal: &str, step: &str, interface: &str) -> Vec<AttackPath> {
    AttackTree::new(goal, TreeNode::leaf_on(step, interface)).expect("tree").paths().expect("paths")
}

/// Both paper demonstrators, compiled from their [`ScenarioSpec`]s,
/// behave exactly like the hand-built worlds: the same seeded fuzzing
/// campaign over each pair produces equal reports — counts, coverage
/// and the full crash list — i.e. the worlds are trace-equivalent.
#[test]
fn scenario_compiled_demonstrators_equal_hand_built_worlds() {
    const ITERATIONS: usize = 200;
    const SEED: u64 = 17;

    // Use case 2: keyless entry.
    let spec = ScenarioSpec::keyless_demonstrator();
    let paths = leaf_paths("Open the vehicle", "send forged open command", "BLE_PHONE");
    let mut compiled =
        SimOracle::keyless(spec.keyless_config().expect("compiles"), spec.attack_at());
    let mut hand_built = SimOracle::keyless(
        KeylessConfig { horizon: spec.horizon(), ..KeylessConfig::default() },
        spec.attack_at(),
    );
    let from_spec =
        Fuzzer::new(keyless_command_model(), SEED).run_target(&paths, ITERATIONS, &mut compiled);
    let from_world =
        Fuzzer::new(keyless_command_model(), SEED).run_target(&paths, ITERATIONS, &mut hand_built);
    assert_eq!(from_spec, from_world, "keyless demonstrator worlds are trace-equivalent");

    // Use case 1: construction warnings.
    let spec = ScenarioSpec::construction_demonstrator();
    let paths = leaf_paths("Disrupt warnings", "spoof signage", "OBU_RSU");
    let mut compiled =
        SimOracle::construction(spec.construction_config().expect("compiles"), spec.attack_at());
    let mut hand_built = SimOracle::construction(
        ConstructionConfig { horizon: spec.horizon(), ..ConstructionConfig::default() },
        spec.attack_at(),
    );
    let from_spec =
        Fuzzer::new(v2x_warning_model(), SEED).run_target(&paths, ITERATIONS, &mut compiled);
    let from_world =
        Fuzzer::new(v2x_warning_model(), SEED).run_target(&paths, ITERATIONS, &mut hand_built);
    assert_eq!(from_spec, from_world, "construction demonstrator worlds are trace-equivalent");
}

proptest! {
    // Each case executes two whole campaigns; keep the sample count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_campaign_equals_serial(
        suite in prop::collection::vec(test_case(), 1..4),
        threads in 1usize..=8,
    ) {
        let serial = run_campaign(&suite);
        let parallel = run_campaign_parallel(&suite, threads, &Obs::noop());
        prop_assert_eq!(serial.total(), parallel.total());
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            prop_assert_eq!(&s.attack_id, &p.attack_id);
            prop_assert_eq!(s.attack_succeeded, p.attack_succeeded);
            prop_assert_eq!(s.detected, p.detected);
            prop_assert_eq!(&s.violated_goals, &p.violated_goals);
        }
    }
}
