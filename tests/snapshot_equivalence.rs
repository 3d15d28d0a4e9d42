//! Snapshot-equivalence properties of the copy-on-write world forks
//! (the determinism contract behind warm-prefix fuzzing):
//!
//! 1. forking a world at time `T` and stepping the fork to the end is
//!    bit-identical — trace and outcome — to one uninterrupted
//!    from-scratch run of the same configuration;
//! 2. forks are independent: events injected into the parent after the
//!    fork never leak into the fork (and vice versa);
//! 3. the frozen snapshot itself never advances;
//! 4. fuzzing through the simulation oracle is reproducible across
//!    shards, and one shard reproduces the serial report.

use proptest::prelude::*;

use saseval::fuzz::fuzzer::Fuzzer;
use saseval::fuzz::model::keyless_command_model;
use saseval::fuzz::sim_target::SimOracle;
use saseval::sim::construction::{ConstructionConfig, ConstructionWorld};
use saseval::sim::keyless::{KeylessConfig, KeylessWorld};
use saseval::sim::ControlSelection;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::tara::AttackPath;
use saseval::types::{Ftti, SimTime};

fn paths() -> Vec<AttackPath> {
    AttackTree::new(
        "open the vehicle",
        TreeNode::or(
            "ways",
            vec![
                TreeNode::leaf_on("replay recorded command", "BLE_PHONE"),
                TreeNode::leaf_on("forge command", "ECU_GW"),
            ],
        ),
    )
    .expect("tree")
    .paths()
    .expect("paths")
}

fn controls_for(selector: u8) -> ControlSelection {
    match selector % 3 {
        0 => ControlSelection::all(),
        1 => ControlSelection::none(),
        _ => ControlSelection { challenge_response: false, ..ControlSelection::all() },
    }
}

fn keyless_config(seed: u64, controls: u8, horizon_ms: u64) -> KeylessConfig {
    KeylessConfig {
        seed,
        controls: controls_for(controls),
        horizon: Ftti::from_millis(horizon_ms),
        ..Default::default()
    }
}

/// Builds the keyless world with its owner schedule — both runs of a
/// comparison must start from byte-identical worlds.
fn scheduled_keyless(config: &KeylessConfig, open_ms: u64, close_ms: u64) -> KeylessWorld {
    let mut world = KeylessWorld::new(config.clone());
    world.schedule_owner_open(SimTime::from_millis(open_ms));
    world.schedule_owner_close(SimTime::from_millis(close_ms));
    world
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

proptest! {
    // Every case steps several worlds to their horizon; keep samples low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Keyless: fork at `T`, step to the end — trace and outcome match a
    /// from-scratch run exactly, owner script (EventQueue) included, and
    /// neither the parent stepping on nor a sibling fork disturbs it.
    #[test]
    fn keyless_fork_matches_from_scratch_run(
        seed in any::<u64>(),
        controls in 0u8..3,
        fork_ms in 0u64..1_500,
        open_ms in 0u64..2_000,
        close_ms in 0u64..2_000,
    ) {
        let config = keyless_config(seed, controls, 2_000);

        let mut reference = scheduled_keyless(&config, open_ms, close_ms);
        while reference.step(&mut ()) {}
        let reference_trace = reference.trace().clone();
        let reference_outcome = json(&reference.into_outcome());

        let mut parent = scheduled_keyless(&config, open_ms, close_ms);
        parent.run_until(SimTime::from_millis(fork_ms), &mut ());
        let snapshot = parent.snapshot();
        let frozen_now = snapshot.get().now();

        let mut fork = snapshot.fork();
        // Divergence injected into the parent AFTER the fork must not
        // leak into the fork (deep Clone of the owner-script EventQueue).
        parent.schedule_owner_open(SimTime::from_millis(fork_ms + 10));
        while parent.step(&mut ()) {}
        while fork.step(&mut ()) {}

        prop_assert_eq!(fork.trace(), &reference_trace);
        prop_assert_eq!(json(&fork.into_outcome()), reference_outcome.as_str());

        // The frozen prefix never advanced, and a second fork replays
        // identically to the first.
        prop_assert_eq!(snapshot.get().now(), frozen_now);
        let mut sibling = snapshot.fork();
        while sibling.step(&mut ()) {}
        prop_assert_eq!(sibling.trace(), &reference_trace);
        prop_assert_eq!(json(&sibling.into_outcome()), reference_outcome);
    }

    /// Construction: fork at `T`, step to the end — trace, outcome and
    /// final kinematic state match a from-scratch run exactly (lossy V2X
    /// channel RNG included).
    #[test]
    fn construction_fork_matches_from_scratch_run(
        seed in any::<u64>(),
        controls in 0u8..3,
        speed in 20.0f64..35.0,
        fork_ms in 0u64..2_000,
    ) {
        let config = ConstructionConfig {
            seed,
            controls: controls_for(controls),
            initial_speed_mps: speed,
            horizon: Ftti::from_secs(3),
            ..Default::default()
        };

        let mut reference = ConstructionWorld::new(config.clone());
        while reference.step(&mut ()) {}
        let reference_trace = reference.trace().clone();
        let reference_position = reference.vehicle().position_m();
        let reference_outcome = json(&reference.into_outcome());

        let mut parent = ConstructionWorld::new(config);
        parent.run_until(SimTime::from_millis(fork_ms), &mut ());
        let mut fork = parent.snapshot().fork();
        while fork.step(&mut ()) {}

        prop_assert_eq!(fork.trace(), &reference_trace);
        prop_assert_eq!(fork.vehicle().position_m().to_bits(), reference_position.to_bits());
        prop_assert_eq!(json(&fork.into_outcome()), reference_outcome);
    }

    /// Fuzzing through the simulation oracle: a one-shard parallel run
    /// reproduces the serial report.
    #[test]
    fn sim_oracle_fuzzing_one_shard_matches_serial(
        seed in any::<u64>(),
        attack_ms in 0u64..200,
    ) {
        let config = KeylessConfig {
            horizon: Ftti::from_millis(300),
            controls: ControlSelection::none(),
            ..Default::default()
        };
        let oracle = SimOracle::keyless(config, SimTime::from_millis(attack_ms));
        let attack_paths = paths();

        let serial = Fuzzer::new(keyless_command_model(), seed)
            .run_target(&attack_paths, 30, &mut oracle.clone());
        let sharded = Fuzzer::new(keyless_command_model(), seed)
            .run_parallel_targets(&attack_paths, 30, 1, |_| oracle.clone());
        prop_assert_eq!(&serial, &sharded);
    }
}

/// Sharded parallel runs through the simulation oracle stay
/// deterministic for a fixed shard count.
#[test]
fn sharded_sim_oracle_fuzzing_is_deterministic() {
    let config = KeylessConfig {
        horizon: Ftti::from_millis(300),
        controls: ControlSelection::none(),
        ..Default::default()
    };
    let oracle = SimOracle::keyless(config, SimTime::from_millis(50));
    let attack_paths = paths();
    for shards in [2usize, 3] {
        let run = || {
            Fuzzer::new(keyless_command_model(), 17).run_parallel_targets(
                &attack_paths,
                48,
                shards,
                |_| oracle.clone(),
            )
        };
        assert_eq!(run(), run(), "{shards} shards reproducible");
    }
}
