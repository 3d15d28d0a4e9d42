//! Idle-tick elision in the keyless world is invisible (DESIGN.md §9).
//!
//! Under a passive attacker `KeylessWorld::run_until` jumps over ticks
//! at which nothing is due. These properties run every world twice from
//! byte-identical starting states: once through the eliding
//! `run_until(_, &mut ())`, once tick by tick through `step` under
//! [`Stepwise`], a no-op hook that is *not* passive and so can never
//! elide. Both sides must agree on virtual time, the tick count, the
//! functional trace, the security log, the BLE link statistics, the
//! metrics the world emits and the serialized outcome — at the warm
//! prefix boundary and at the horizon.

use proptest::prelude::*;

use saseval::net::ble::BleConfig;
use saseval::net::can::CanBusConfig;
use saseval::obs::{MemoryRecorder, Obs};
use saseval::sim::keyless::{
    Command, KeylessConfig, KeylessWorld, CMD_CLOSE, CMD_OPEN, CMD_SERVICE, OWNER_PHONE,
};
use saseval::sim::{AttackerHook, ControlSelection};
use saseval::types::{Ftti, SimTime};

/// A do-nothing attacker that keeps the default `is_passive() == false`:
/// the world steps it at every tick, so it is the tick-by-tick reference.
struct Stepwise;

impl AttackerHook<KeylessWorld> for Stepwise {
    fn on_tick(&mut self, _world: &mut KeylessWorld, _now: SimTime) {}
}

fn step_until(world: &mut KeylessWorld, until: SimTime) {
    while world.now() < until && world.step(&mut Stepwise) {}
}

/// Something done to both worlds between runs.
#[derive(Debug, Clone)]
enum Injection {
    /// Raw bytes on the radio from a hostile sender (the fuzz path).
    Raw(Vec<u8>),
    /// A fully credentialed owner command (admitted, reaches the CAN bus).
    Owner(u8),
    /// `n` forwarded service requests (diagnostic CAN traffic).
    Service(u8),
    /// A body-control frame from an exposed CAN stub.
    Stub(u8),
    /// Jams the radio for this many milliseconds.
    Jam(u64),
}

impl Injection {
    fn apply(&self, world: &mut KeylessWorld) {
        match self {
            Injection::Raw(bytes) => world.send_ble("FUZZ", bytes.clone()),
            Injection::Owner(cmd) => {
                let command = world.owner_command(*cmd);
                world.send_ble(OWNER_PHONE, command.encode());
            }
            Injection::Service(count) => {
                let service = Command { cmd: CMD_SERVICE, key_id: 0, ts: 0, response: 0, tag: 0 };
                for _ in 0..*count {
                    world.send_ble("FUZZ", service.encode());
                }
            }
            Injection::Stub(cmd) => {
                world.inject_can_from_stub(*cmd);
            }
            Injection::Jam(ms) => {
                let until = world.now() + Ftti::from_millis(*ms);
                world.link_mut().jam(until);
            }
        }
    }
}

fn injection() -> impl Strategy<Value = Injection> {
    let cmd = prop_oneof![Just(CMD_OPEN), Just(CMD_CLOSE), Just(CMD_SERVICE), any::<u8>()];
    prop_oneof![
        (cmd, prop::collection::vec(any::<u8>(), 0..=33), any::<bool>()).prop_map(
            |(cmd, mut bytes, full_length)| {
                if full_length {
                    bytes.resize(33, 0);
                }
                if let Some(first) = bytes.first_mut() {
                    *first = cmd;
                }
                Injection::Raw(bytes)
            }
        ),
        prop_oneof![Just(CMD_OPEN), Just(CMD_CLOSE)].prop_map(Injection::Owner),
        (1u8..=40).prop_map(Injection::Service),
        prop_oneof![Just(CMD_OPEN), Just(CMD_CLOSE)].prop_map(Injection::Stub),
        (1u64..=300).prop_map(Injection::Jam),
    ]
}

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    controls: u8,
    tick_us: u64,
    horizon_ms: u64,
    /// Eighths of the horizon; 8 puts the prefix boundary exactly at the
    /// horizon, 9 and 10 past it.
    attack_at_eighths: u64,
    latency_us: u64,
    loss: f64,
    supervision_ms: u64,
    slow_can: bool,
    /// Owner actions: (time in ms, open?).
    script: Vec<(u64, bool)>,
    before: Vec<Injection>,
    after: Vec<Injection>,
}

impl Case {
    fn config(&self) -> KeylessConfig {
        let controls = match self.controls % 4 {
            0 => ControlSelection::all(),
            1 => ControlSelection::none(),
            2 => ControlSelection::auth_only(),
            _ => ControlSelection { challenge_response: false, ..ControlSelection::all() },
        };
        KeylessConfig {
            seed: self.seed,
            controls,
            tick: Ftti::from_micros(self.tick_us),
            horizon: Ftti::from_millis(self.horizon_ms),
            ble: BleConfig {
                latency_us: self.latency_us,
                loss_prob: self.loss,
                supervision_timeout: Ftti::from_millis(self.supervision_ms),
            },
            // 10 kbit/s keeps a single frame on the wire for several
            // ticks, so the bus stays busy across tick boundaries.
            can: CanBusConfig {
                bitrate_bps: if self.slow_can { 10_000 } else { 125_000 },
                tx_queue_depth: 64,
            },
            ..Default::default()
        }
    }

    fn attack_at(&self) -> SimTime {
        SimTime::from_micros(self.horizon_ms * 1_000 * self.attack_at_eighths / 8)
    }

    fn world(&self) -> (KeylessWorld, std::sync::Arc<MemoryRecorder>) {
        let (obs, recorder) = Obs::memory();
        let mut world = KeylessWorld::new(self.config()).with_obs(obs);
        for &(at_ms, open) in &self.script {
            if open {
                world.schedule_owner_open(SimTime::from_millis(at_ms));
            } else {
                world.schedule_owner_close(SimTime::from_millis(at_ms));
            }
        }
        (world, recorder)
    }
}

fn case() -> impl Strategy<Value = Case> {
    (
        (any::<u64>(), any::<u8>()),
        prop_oneof![Just(10_000u64), Just(1_000), Just(7_300), 500u64..=50_000],
        (0u64..=6_000, 0u64..=10),
        (
            prop_oneof![Just(5_000u64), 0u64..=40_000],
            prop_oneof![Just(0.0), Just(0.005), 0.0..0.5],
            prop_oneof![Just(2_000u64), 0u64..=2_500],
            any::<bool>(),
        ),
        prop::collection::vec((0u64..=6_500, any::<bool>()), 0..=6),
        prop::collection::vec(injection(), 0..=3),
        prop::collection::vec(injection(), 0..=4),
    )
        .prop_map(
            |(
                (seed, controls),
                tick_us,
                (horizon_ms, attack_at_eighths),
                (latency_us, loss, supervision_ms, slow_can),
                script,
                before,
                after,
            )| Case {
                seed,
                controls,
                tick_us,
                horizon_ms,
                attack_at_eighths,
                latency_us,
                loss,
                supervision_ms,
                slow_can,
                script,
                before,
                after,
            },
        )
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// Everything observable about a running world.
fn observe(world: &mut KeylessWorld) -> (SimTime, u64, String, String, String, bool) {
    let stats = json(&world.link_mut().stats());
    (
        world.now(),
        world.ticks(),
        json(world.trace().events()),
        json(world.security_log().events()),
        stats,
        world.lock_open(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Elided `run_until` ≡ a tick-by-tick `step` loop, at the warm
    /// prefix boundary and at the horizon, with inputs injected before
    /// the prefix and after it.
    #[test]
    fn elided_run_until_matches_tick_by_tick_stepping(case in case()) {
        let (mut elided, elided_metrics) = case.world();
        let (mut stepped, stepped_metrics) = case.world();
        for injection in &case.before {
            injection.apply(&mut elided);
            injection.apply(&mut stepped);
        }

        let attack_at = case.attack_at();
        elided.run_until(attack_at, &mut ());
        step_until(&mut stepped, attack_at);
        prop_assert_eq!(observe(&mut elided), observe(&mut stepped));

        for injection in &case.after {
            injection.apply(&mut elided);
            injection.apply(&mut stepped);
        }
        let horizon = SimTime::ZERO + elided.config().horizon;
        elided.run_until(horizon, &mut ());
        step_until(&mut stepped, horizon);
        prop_assert_eq!(observe(&mut elided), observe(&mut stepped));
        prop_assert!(elided.is_done());

        let ticks = elided.ticks();
        prop_assert_eq!(json(&elided.into_outcome()), json(&stepped.into_outcome()));
        let (elided_metrics, stepped_metrics) =
            (elided_metrics.snapshot(), stepped_metrics.snapshot());
        prop_assert_eq!(elided_metrics.counter("world.keyless.ticks"), Some(ticks));
        prop_assert_eq!(json(&elided_metrics.counters), json(&stepped_metrics.counters));
        prop_assert_eq!(json(&elided_metrics.events), json(&stepped_metrics.events));
    }

    /// `run` under the no-attack baseline ≡ `run` under the non-passive
    /// no-op hook.
    #[test]
    fn elided_run_matches_tick_by_tick_run(case in case()) {
        let (elided, elided_metrics) = case.world();
        let (stepped, stepped_metrics) = case.world();
        prop_assert_eq!(json(&elided.run(&mut ())), json(&stepped.run(&mut Stepwise)));
        prop_assert_eq!(
            json(&elided_metrics.snapshot().counters),
            json(&stepped_metrics.snapshot().counters)
        );
    }
}
