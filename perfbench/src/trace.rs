//! In-memory spans for the traced mode.
//!
//! A span is recorded by the benchmark around each call it makes into a
//! layer: name, start, end, the span that caused it, the request it
//! serves and the thread it ran on. Spans stay in memory until the run
//! ends, then go out as JSONL. Counts are recorded at the same
//! boundaries, so ratios are taken where the work happens. A layer's self time is its spans'
//! durations minus the part of each interval its child spans cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub request: Option<u64>,
    pub thread: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<HashMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(HashMap::new()),
        }
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counters
            .lock()
            .expect("a counter writer panicked")
            .entry(name)
            .or_default() += v;
    }

    /// The counter `name` (0 if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("a counter writer panicked")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let thread = THREAD.with(|t| *t);
        let span = Span {
            id,
            parent,
            name,
            start,
            end,
            request,
            thread,
        };
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Self time in seconds per span name, over the spans under any of
/// `roots` (the roots themselves included).
pub fn self_times(spans: &[Span], roots: &[u64]) -> HashMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let inside = descendants(spans, roots);
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans.iter().filter(|s| inside.contains_key(&s.id)) {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_len(c, s.start, s.end));
        *out.entry(s.name).or_default() += (s.end - s.start - covered) as f64 * 1e-9;
    }
    out
}

/// The spans under `roots` (roots included), by id.
pub fn descendants<'a>(spans: &'a [Span], roots: &[u64]) -> HashMap<u64, &'a Span> {
    let mut inside: HashMap<u64, &Span> = HashMap::new();
    // Spans are start-ordered and a child starts no earlier than its
    // parent, so one pass sees every parent before its children.
    for s in spans {
        if roots.contains(&s.id) || s.parent.is_some_and(|p| inside.contains_key(&p)) {
            inside.insert(s.id, s);
        }
    }
    inside
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{},\"thread\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.start,
            s.end,
            opt(s.request),
            s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            request: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "job", 10, 60),
            span(3, Some(1), "job", 40, 90),
            span(4, Some(2), "loop", 20, 30),
        ];
        let t = self_times(&spans, &[1]);
        assert!((t["pass"] - 20e-9).abs() < 1e-15, "100 - union(10..90)");
        assert!((t["job"] - 90e-9).abs() < 1e-15, "(50 - 10) + 50");
        assert!((t["loop"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn self_times_only_count_spans_under_the_roots() {
        let spans = vec![span(1, None, "a", 0, 10), span(2, None, "b", 20, 30)];
        let t = self_times(&spans, &[2]);
        assert!(!t.contains_key("a"));
        assert!((t["b"] - 10e-9).abs() < 1e-15);
    }
}
