//! The one deterministic shard engine behind every parallel run (fuzzer,
//! scenario search, campaign runner, linter). It owns the partition
//! ([`range`]), the per-shard seeds ([`seed`]) and the capped,
//! order-preserving execution ([`map_ordered`]); each engine keeps only
//! its own canonical merge. Partition and seeds key off the *requested*
//! shard count and outputs come back in job order, so neither the thread
//! cap nor scheduling can change a result.

use std::ops::Range;
use std::sync::Mutex;

/// Contiguous item range of shard `shard` out of `shards` over `total`
/// items: `div_ceil` chunks, so trailing shards may be empty.
pub fn range(total: usize, shards: usize, shard: usize) -> Range<usize> {
    let chunk = total.div_ceil(shards.max(1));
    let start = shard.saturating_mul(chunk).min(total);
    start..start.saturating_add(chunk).min(total)
}

/// The shard whose [`range`] contains item `index` of `total`.
pub fn owner(total: usize, shards: usize, index: usize) -> usize {
    index / total.div_ceil(shards.max(1)).max(1)
}

/// Shard `shard`'s RNG seed: `base` plus `shard` strides of 2^64 / φ
/// (the splitmix64 increment). Shard 0 keeps `base`, so a one-shard run
/// replays the serial stream.
pub fn seed(base: u64, shard: usize) -> u64 {
    base.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The host's hardware thread count (at least 1): the thread cap for
/// shards, since more busy threads than cores is pure overhead.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every job on at most `min(jobs.len(), max_threads)`
/// scoped threads, each claiming the next unstarted job, and returns the
/// outputs in job order. With one thread the jobs run inline, without a
/// spawn. A panicking job panics the caller with its own payload.
pub fn map_ordered<J, O, F>(jobs: Vec<J>, max_threads: usize, f: F) -> Vec<O>
where
    J: Send,
    O: Send,
    F: Fn(J) -> O + Sync,
{
    let threads = jobs.len().min(max_threads.max(1));
    if threads <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    // Held only while claiming, never while a job runs, so a panicking
    // job cannot poison it.
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let claim = || queue.lock().expect("the job queue lock is never poisoned").next();
    let mut done: Vec<(usize, O)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(claim).map(|(i, job)| (i, f(job))).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, output)| output).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_and_owner_are_pinned_and_partition_every_item() {
        let ranges: Vec<_> = (0..3).map(|shard| range(10, 3, shard)).collect();
        assert_eq!(ranges, [0..4, 4..8, 8..10]);
        assert_eq!((range(96, 4, 3), range(5, 16, 5), range(7, 0, 0)), (72..96, 5..5, 0..7));
        for (total, shards) in [(0usize, 3usize), (5, 16), (3_000, 7)] {
            let owners: Vec<_> = (0..shards)
                .flat_map(|shard| range(total, shards, shard).map(move |_| shard))
                .collect();
            let expected: Vec<_> = (0..total).map(|i| owner(total, shards, i)).collect();
            assert_eq!(owners, expected, "{total} items over {shards} shards");
        }
    }

    #[test]
    fn seed_is_pinned_and_shard_zero_keeps_the_base() {
        assert_eq!(seed(42, 0), 42);
        assert_eq!(seed(0, 1), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(seed(1, 2), 0x3C6E_F372_FE94_F82B);
        assert_eq!(seed(u64::MAX, 1), 0x9E37_79B9_7F4A_7C14);
    }

    #[test]
    fn outputs_stay_in_job_order_for_every_cap() {
        let jobs = 11usize;
        for cap in [1, 2, 3, jobs + 5] {
            // Early jobs run longest, so they tend to finish last.
            let out = map_ordered((0..jobs).collect(), cap, |job| {
                std::thread::sleep(std::time::Duration::from_micros(50 * (jobs - job) as u64));
                job * 10
            });
            assert_eq!(out, (0..jobs).map(|job| job * 10).collect::<Vec<_>>(), "cap {cap}");
        }
        let none: Vec<usize> = map_ordered(Vec::<usize>::new(), 4, |job| job);
        assert!(none.is_empty());
    }

    #[test]
    fn peak_concurrency_never_exceeds_the_cap_and_one_thread_runs_inline() {
        let caller = std::thread::current().id();
        for cap in [1usize, 2, 3] {
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let on_caller = map_ordered((0..24).collect(), cap, |_: usize| {
                peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::yield_now();
                running.fetch_sub(1, Ordering::SeqCst);
                std::thread::current().id() == caller
            });
            assert!(peak.load(Ordering::SeqCst) <= cap, "cap {cap}");
            assert_eq!(on_caller.iter().all(|&inline| inline), cap == 1, "cap {cap}");
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_panics_the_caller() {
        map_ordered((0..8).collect(), 3, |job: usize| {
            assert!(job != 5, "job {job} failed");
            job
        });
    }
}
