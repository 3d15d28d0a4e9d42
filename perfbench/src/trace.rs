//! In-memory spans around the calls the benchmark makes into each
//! layer, and the self-time arithmetic of the per-layer ledger.
//!
//! A span records its name, start, end, parent and job. Spans are kept
//! in memory while the traced replay runs and written out as JSON lines
//! when it ends. A span's *self time* is its duration minus the part of
//! its interval that its children cover; children may nest, overlap (a
//! sharded fuzz job responds on several threads) or spill past their
//! parent, and each instant of the parent is counted at most once.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique within one tracer; never 0.
    pub id: u32,
    /// The enclosing span, 0 for a root.
    pub parent: u32,
    /// The job (or request) the span belongs to.
    pub job: u32,
    /// The layer's name, e.g. `job.parse`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl SpanRec {
    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started but not yet finished.
#[derive(Debug)]
pub struct OpenSpan {
    /// The id children use as their parent.
    pub id: u32,
    parent: u32,
    job: u32,
    name: &'static str,
    start: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts span `name` under `parent` (0 for a root).
    pub fn open(&self, name: &'static str, parent: u32, job: u32) -> OpenSpan {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OpenSpan { id, parent, job, name, start: self.now() }
    }

    /// Finishes `span` and keeps its record.
    pub fn close(&self, span: OpenSpan) {
        let end = self.now();
        self.push(SpanRec {
            id: span.id,
            parent: span.parent,
            job: span.job,
            name: span.name,
            start: span.start,
            end,
        });
    }

    /// Runs `f` inside span `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: u32, job: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent, job);
        let value = f();
        self.close(span);
        value
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("no span holder panics").push(rec);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Writes `spans` as JSON lines.
pub fn write_spans(out: &mut impl Write, spans: &[SpanRec]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"job":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.job, s.name, s.start, s.end
        )?;
    }
    Ok(())
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
pub fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(end);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let cover =
                children.get_mut(&s.id).map_or(0, |intervals| covered(s.start, s.end, intervals));
            (s.id, s.duration() - cover)
        })
        .collect()
}

/// Per-job totals of self time by layer name, over the spans whose
/// ancestry reaches a span named `root` (the root included).
pub fn ledger(spans: &[SpanRec], root: &str) -> HashMap<u32, HashMap<&'static str, u64>> {
    fn under_root<'a>(by_id: &HashMap<u32, &'a SpanRec>, mut s: &'a SpanRec, root: &str) -> bool {
        loop {
            if s.name == root {
                return true;
            }
            match by_id.get(&s.parent) {
                Some(parent) => s = parent,
                None => return false,
            }
        }
    }
    let by_id: HashMap<u32, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let selfs = self_times(spans);
    let mut out: HashMap<u32, HashMap<&'static str, u64>> = HashMap::new();
    for s in spans.iter().filter(|s| under_root(&by_id, s, root)) {
        *out.entry(s.job).or_default().entry(s.name).or_default() += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec { id, parent, job: 1, name, start, end }
    }

    /// root [0,100)
    ///   a [10,30)      overlaps b
    ///   b [20,50)
    ///   c [60,70)
    ///     d [62,65)
    ///   e [90,120)     spills past the root's end
    fn tree() -> Vec<SpanRec> {
        vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),
            span(4, 1, "c", 60, 70),
            span(5, 4, "d", 62, 65),
            span(6, 1, "e", 90, 120),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let selfs = self_times(&tree());
        // Children cover [10,50) ∪ [60,70) ∪ [90,100) = 40 + 10 + 10.
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 7);
        assert_eq!(selfs[&5], 3);
        assert_eq!(selfs[&6], 30);
    }

    #[test]
    fn self_times_of_a_nested_tree_add_up_to_the_root() {
        // Without overlap or spill, self times partition the root.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 5, 40),
            span(3, 2, "b", 10, 20),
            span(4, 2, "b", 25, 35),
            span(5, 1, "c", 50, 95),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.values().sum::<u64>(), 100);
        let ledger = ledger(&spans, "root");
        let job = &ledger[&1];
        assert_eq!(job["b"], 20);
        assert_eq!(job["a"], 15);
        assert_eq!(job.values().sum::<u64>(), 100);
    }

    #[test]
    fn ledger_keeps_only_spans_under_the_root() {
        let mut spans = tree();
        spans.push(span(7, 0, "outside", 200, 260));
        let ledger = ledger(&spans, "c");
        assert_eq!(ledger[&1].len(), 2);
        assert_eq!(ledger[&1]["c"], 7);
        assert_eq!(ledger[&1]["d"], 3);
    }

    #[test]
    fn covered_handles_disjoint_nested_and_clipped_intervals() {
        assert_eq!(covered(0, 10, &mut []), 0);
        assert_eq!(covered(0, 10, &mut [(2, 4), (6, 8)]), 4);
        assert_eq!(covered(0, 10, &mut [(1, 9), (2, 3), (4, 5)]), 8);
        assert_eq!(covered(5, 10, &mut [(0, 7), (9, 20)]), 3);
    }

    #[test]
    fn tracer_records_spans_across_threads() {
        let tracer = Tracer::new();
        let root = tracer.open("root", 0, 3);
        let root_id = root.id;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tracer = &tracer;
                scope.spawn(move || tracer.time("child", root_id, 3, || {}));
            }
        });
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().filter(|s| s.name == "child").all(|s| s.parent == root_id));
        let mut out = Vec::new();
        write_spans(&mut out, &spans).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
