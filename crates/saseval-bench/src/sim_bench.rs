//! Warm-prefix simulation throughput backing EXPERIMENTS.md's
//! "Warm-prefix fuzzing throughput" table: how fast the simulation
//! oracle answers fuzz inputs when every input replays the world from
//! `t = 0`, versus forking from a copy-on-write snapshot taken at the
//! attack-activation time.
//!
//! Both strategies answer every input identically (asserted here),
//! so the comparison isolates the cost of re-simulating the shared
//! prefix — the work [`WorldSnapshot`](vehicle_sim::WorldSnapshot)
//! amortizes across inputs. Replay runs the prefix through
//! [`KeylessWorld::run_until`], which skips idle ticks, so an
//! attacker-free prefix costs replay almost nothing. The measured prefix
//! is therefore *busy*: the owner's phone sends a close request every
//! [`OWNER_PERIOD_MS`], and each one crosses the radio, the gateway's
//! control stack and the CAN bus. The idle prefix is measured alongside
//! as an informational ratio.

use std::time::Instant;

use saseval_fuzz::fuzzer::{FuzzTarget, TargetResponse};
use saseval_fuzz::sim_target::{SimOracle, FUZZ_SENDER};
use saseval_types::{Ftti, SimTime};
use serde::{Deserialize, Serialize};
use vehicle_sim::keyless::{KeylessConfig, KeylessWorld};
use vehicle_sim::ControlSelection;

/// Period of the owner's close requests in the busy prefix. The vehicle
/// stays closed, so no safety goal trips and inputs classify on their
/// own merits.
pub const OWNER_PERIOD_MS: u64 = 500;

/// One measured execution strategy on one prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimThroughputRow {
    /// Prefix kind: `busy` (owner close requests) or `idle`.
    pub prefix: String,
    /// Strategy name: `replay-from-zero` or `fork-from-snapshot`.
    pub strategy: String,
    /// Inputs executed.
    pub inputs: usize,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// Throughput in inputs per second.
    pub inputs_per_sec: f64,
}

/// The warm-prefix comparison document (embedded into `BENCH_fuzz.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimThroughputExport {
    /// Length of the prefix every input shares.
    pub warm_prefix_ms: u64,
    /// Simulated time between attack activation and the horizon.
    pub tail_ms: u64,
    /// Period of the busy prefix's owner close requests.
    pub owner_period_ms: u64,
    /// The measured rows: both strategies on the busy prefix, then both
    /// on the idle one.
    pub rows: Vec<SimThroughputRow>,
    /// Throughput of `fork-from-snapshot` over `replay-from-zero` on the
    /// busy prefix — the work a snapshot saves.
    pub fork_speedup: f64,
    /// The same ratio on the attacker-free idle prefix. Informational
    /// and unbounded: replay skips the idle ticks, so the two strategies
    /// differ by little more than one world construction.
    pub idle_fork_speedup: f64,
}

impl SimThroughputExport {
    /// The row for `strategy` on `prefix`; panics if the export doesn't
    /// contain it.
    pub fn row(&self, prefix: &str, strategy: &str) -> &SimThroughputRow {
        self.rows
            .iter()
            .find(|r| r.prefix == prefix && r.strategy == strategy)
            .expect("strategy row")
    }
}

fn bench_config(warm_prefix_ms: u64, tail_ms: u64) -> KeylessConfig {
    KeylessConfig {
        controls: ControlSelection::all(),
        horizon: Ftti::from_millis(warm_prefix_ms + tail_ms),
        ..Default::default()
    }
}

/// A fresh world with the prefix's owner script scheduled: close
/// requests every [`OWNER_PERIOD_MS`] before `warm_prefix_ms` when
/// `busy`, nothing otherwise.
fn prefix_world(config: &KeylessConfig, warm_prefix_ms: u64, busy: bool) -> KeylessWorld {
    let mut world = KeylessWorld::new(config.clone());
    if busy {
        for at_ms in (0..warm_prefix_ms).step_by(OWNER_PERIOD_MS as usize) {
            world.schedule_owner_close(SimTime::from_millis(at_ms));
        }
    }
    world
}

/// Deterministic input mix: valid-length frames, short garbage and empty
/// payloads, cycled — representative of what the mutator feeds the
/// oracle without dragging the fuzzer's own cost into the measurement.
fn bench_inputs(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| match i % 3 {
            0 => vec![i as u8; 33],
            1 => vec![i as u8, (i / 7) as u8, 3],
            _ => Vec::new(),
        })
        .collect()
}

fn timed_row(prefix: &str, strategy: &str, inputs: usize, run: impl FnOnce()) -> SimThroughputRow {
    let start = Instant::now();
    run();
    let seconds = start.elapsed().as_secs_f64();
    SimThroughputRow {
        prefix: prefix.to_owned(),
        strategy: strategy.to_owned(),
        inputs,
        seconds,
        inputs_per_sec: if seconds > 0.0 { inputs as f64 / seconds } else { f64::INFINITY },
    }
}

/// Times both strategies over one prefix kind and returns the replay
/// row, the fork row and the fork speedup. Panics if the strategies
/// ever classify an input differently — the speedup must never come
/// from skipped work.
fn measure_prefix(
    config: &KeylessConfig,
    warm_prefix_ms: u64,
    inputs: &[Vec<u8>],
    busy: bool,
) -> (SimThroughputRow, SimThroughputRow, f64) {
    let prefix = if busy { "busy" } else { "idle" };
    let attack_at = SimTime::from_millis(warm_prefix_ms);
    let horizon = SimTime::ZERO + config.horizon;
    let mut warm = prefix_world(config, warm_prefix_ms, busy);
    warm.run_until(attack_at, &mut ());
    let mut oracle = SimOracle::keyless_from(warm.snapshot());

    // Replay-from-zero: every input pays for the whole prefix again.
    let mut replayed = Vec::with_capacity(inputs.len());
    let replay = timed_row(prefix, "replay-from-zero", inputs.len(), || {
        for input in inputs {
            let mut world = prefix_world(config, warm_prefix_ms, busy);
            world.run_until(attack_at, &mut ());
            world.send_ble(FUZZ_SENDER, input.clone());
            world.run_until(horizon, &mut ());
            let rejected = world.security_log().events().iter().any(|e| e.sender == FUZZ_SENDER);
            replayed.push(if world.into_outcome().any_violation() {
                TargetResponse::Crash
            } else if rejected {
                TargetResponse::Rejected
            } else {
                TargetResponse::Accepted
            });
        }
    });

    // Fork-from-snapshot: the prefix is simulated once, above.
    let mut forked = Vec::with_capacity(inputs.len());
    let fork = timed_row(prefix, "fork-from-snapshot", inputs.len(), || {
        for input in inputs {
            forked.push(oracle.respond(input));
        }
    });

    assert_eq!(replayed, forked, "fork-from-snapshot diverged from replay-from-zero ({prefix})");
    let speedup = fork.inputs_per_sec / replay.inputs_per_sec;
    (replay, fork, speedup)
}

/// Measures both strategies on the keyless oracle over a busy and an
/// idle prefix of `warm_prefix_ms` virtual milliseconds, a fuzzed tail
/// of `tail_ms`, and `count` inputs per strategy and prefix.
pub fn measure_sim_strategies(
    warm_prefix_ms: u64,
    tail_ms: u64,
    count: usize,
) -> SimThroughputExport {
    let config = bench_config(warm_prefix_ms, tail_ms);
    let inputs = bench_inputs(count);
    let (busy_replay, busy_fork, fork_speedup) =
        measure_prefix(&config, warm_prefix_ms, &inputs, true);
    let (idle_replay, idle_fork, idle_fork_speedup) =
        measure_prefix(&config, warm_prefix_ms, &inputs, false);
    SimThroughputExport {
        warm_prefix_ms,
        tail_ms,
        owner_period_ms: OWNER_PERIOD_MS,
        rows: vec![busy_replay, busy_fork, idle_replay, idle_fork],
        fork_speedup,
        idle_fork_speedup,
    }
}

/// The configuration exported to `BENCH_fuzz.json` and EXPERIMENTS.md: a
/// 20 s warm prefix and a 500 ms fuzzed tail.
pub fn warm_prefix_comparison(count: usize) -> SimThroughputExport {
    measure_sim_strategies(20_000, 500, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_from_snapshot_is_at_least_3x_faster_than_replay() {
        // 20 s of busy prefix (40 owner close requests, each crossing
        // the radio, the control stack and the CAN bus) vs a 200 ms
        // tail: replay pays for that traffic on every input, the fork
        // pays one deep clone. 2 048 inputs keep the timed sections in
        // the milliseconds.
        let export = measure_sim_strategies(20_000, 200, 2_048);
        assert!(
            export.fork_speedup >= 3.0,
            "fork-from-snapshot only {:.2}x faster than replay-from-zero: {:?}",
            export.fork_speedup,
            export.rows
        );
        assert_eq!(export.rows.len(), 4);
        assert_eq!(export.row("busy", "replay-from-zero").inputs, 2_048);
        // The idle-prefix ratio is informational: replay skips its idle
        // ticks, so no bound applies.
        assert!(export.idle_fork_speedup > 0.0);
    }

    #[test]
    fn export_serializes_with_speedups() {
        let export = measure_sim_strategies(1_000, 200, 6);
        assert!(export.fork_speedup > 0.0);
        let json = serde_json::to_string(&export).expect("serializable");
        assert!(json.contains("fork_speedup"));
        assert!(json.contains("idle_fork_speedup"));
        assert!(json.contains("replay-from-zero"));
    }
}
