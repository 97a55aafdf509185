//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, an optional tag (the statement kind, say), its
//! start and end, and the span that caused it. Spans stay in memory while
//! the workload runs and are written out once at the end. A span's *self
//! time* is its duration minus the part of its interval that its child
//! spans cover (the union of the children, so overlapping children are
//! not subtracted twice).

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a recorded span (its index in the tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    tag: &'static str,
    parent: Option<SpanId>,
    start: Instant,
    end: Instant,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are written relative to now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        spans.push(Span {
            name,
            tag,
            parent,
            start,
            end,
        });
        SpanId(spans.len() - 1)
    }

    /// Times `f` as a span; `f` receives the span's id so it can record
    /// children under it. The span is recorded when `f` returns.
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        // Reserve the id first so children can name their parent.
        let id = self.record(name, tag, parent, Instant::now(), Instant::now());
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        spans[id.0].start = start;
        spans[id.0].end = end;
        out
    }

    /// Self time of every span with this name (and tag, when given), in
    /// recording order.
    pub fn self_times(&self, name: &str, tag: Option<&str>) -> Vec<Duration> {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(SpanId(p)) = s.parent {
                children[p].push(i);
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|(i, s)| {
                let intervals: Vec<(Instant, Instant)> = children[i]
                    .iter()
                    .map(|&c| (spans[c].start, spans[c].end))
                    .collect();
                self_time((s.start, s.end), &intervals)
            })
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .len()
    }

    /// Writes every span as one JSON line: name, tag, id, parent, and
    /// start/end in microseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.tag,
                micros(s.start.saturating_duration_since(self.epoch)),
                micros(s.end.saturating_duration_since(self.epoch)),
            )?;
        }
        out.flush()
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `span`'s duration minus the union of `children` clipped to it.
pub fn self_time(span: (Instant, Instant), children: &[(Instant, Instant)]) -> Duration {
    let (start, end) = span;
    let mut clipped: Vec<(Instant, Instant)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut covered = Duration::ZERO;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_duration_since(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let b = Instant::now();
        // Parent 0..100; children 10..30 and 20..50 overlap (cover 10..50),
        // 90..120 sticks out past the parent (covers 90..100).
        let children = [
            (at(b, 10), at(b, 30)),
            (at(b, 20), at(b, 50)),
            (at(b, 90), at(b, 120)),
        ];
        assert_eq!(
            self_time((at(b, 0), at(b, 100)), &children),
            Duration::from_millis(50)
        );
        assert_eq!(
            self_time((at(b, 0), at(b, 100)), &[]),
            Duration::from_millis(100)
        );
        // A child outside the parent covers nothing.
        assert_eq!(
            self_time((at(b, 0), at(b, 10)), &[(at(b, 20), at(b, 30))]),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn tracer_self_times_follow_parent_links() {
        let t = Tracer::new();
        let b = Instant::now();
        let parent = t.record("query", "point", None, at(b, 0), at(b, 40));
        t.record("parse", "point", Some(parent), at(b, 0), at(b, 10));
        t.record("execute", "point", Some(parent), at(b, 10), at(b, 35));
        let other = t.record("query", "exact", None, at(b, 50), at(b, 60));
        t.record("parse", "exact", Some(other), at(b, 50), at(b, 52));
        assert_eq!(
            t.self_times("query", Some("point")),
            vec![Duration::from_millis(5)]
        );
        assert_eq!(
            t.self_times("query", Some("exact")),
            vec![Duration::from_millis(8)]
        );
        assert_eq!(
            t.self_times("parse", None),
            vec![Duration::from_millis(10), Duration::from_millis(2)]
        );
    }

    #[test]
    fn span_closure_nests_children() {
        let t = Tracer::new();
        t.span("outer", "", None, |id| {
            t.span("inner", "", id, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let outer = t.self_times("outer", None)[0];
        let inner = t.self_times("inner", None)[0];
        assert!(inner >= Duration::from_millis(20));
        assert!(
            outer < Duration::from_millis(20),
            "outer self time {outer:?}"
        );
        assert_eq!(t.len(), 2);
    }
}
