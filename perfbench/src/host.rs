//! Readings from `/proc`: the server's CPU time and memory high-water
//! mark, and the host-noise markers printed next to every result.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture the benchmark runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed so far by process `pid`,
/// including its exited threads.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, 12 and
    // 13 after the pid and the name.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The resident-set high-water mark (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Host-noise markers: the load averages and the CPU steal ticks.
#[derive(Debug, Clone, Default)]
pub struct HostNoise {
    /// `/proc/loadavg`'s 1, 5 and 15 minute averages.
    pub loadavg: String,
    /// Aggregate steal ticks from `/proc/stat`'s `cpu` line.
    pub steal_ticks: u64,
}

impl HostNoise {
    /// Reads the current markers (empty/zero where `/proc` lacks them).
    pub fn read() -> HostNoise {
        let loadavg = fs::read_to_string("/proc/loadavg")
            .map(|text| text.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_default();
        let steal_ticks = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| {
                let cpu = text.lines().find(|line| line.starts_with("cpu "))?;
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        HostNoise { loadavg, steal_ticks }
    }
}

/// The host's `available_parallelism` (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_sane() {
        let pid = std::process::id();
        let busy: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(busy > 0);
        assert!(cpu_seconds(pid).is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.1));
        let noise = HostNoise::read();
        assert_eq!(noise.loadavg.split(' ').count(), 3);
    }
}
