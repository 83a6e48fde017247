//! In-memory spans around the calls into each layer.
//!
//! This benchmark may not instrument the program, so the traced run is
//! a staged replay on the benchmark's own thread: every public call
//! into a layer is wrapped in a [`Tracer::span`], spans nest by call
//! structure, and a layer's *self time* is its span minus the part its
//! child spans cover. Spans stay in memory and are written once, at
//! exit, as Chrome `trace_event` JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.kernel`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// What the span worked for: a beam/second, a cell, or a round.
    /// Spans of one request share it.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of whichever span is
    /// open on this tracer.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct
    /// children's, in milliseconds, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            by_name.entry(span.name).or_default().push(ns as f64 / 1e6);
        }
        by_name
    }

    /// Self times of the spans called `name`, milliseconds.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.self_ms_by_name().remove(name).unwrap_or_default()
    }

    /// Share of the time inside spans called `root` that their direct
    /// children cover: how much of a staged request the trace explains.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for span in &self.spans {
            if span.name == root {
                total += span.duration_ns();
            } else if span.parent.is_some_and(|p| self.spans[p].name == root) {
                covered += span.duration_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The spans as Chrome `trace_event` JSON: one complete (`"X"`)
    /// event each, microsecond timestamps, parent and request in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.request,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        };
        Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("chunk", 0, 10_000_000, None),
                span("feeder.push", 0, 2_000_000, Some(0)),
                span("core.kernel", 2_000_000, 9_000_000, Some(0)),
                span("core.inner", 3_000_000, 4_000_000, Some(2)),
                span("chunk", 10_000_000, 20_000_000, None),
                span("core.kernel", 10_000_000, 20_000_000, Some(4)),
            ],
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let t = fixture();
        assert_eq!(t.self_ms("chunk"), vec![1.0, 0.0]);
        assert_eq!(t.self_ms("feeder.push"), vec![2.0]);
        // The grandchild is subtracted from the kernel, not the chunk.
        assert_eq!(t.self_ms("core.kernel"), vec![6.0, 10.0]);
        assert_eq!(t.self_ms("core.inner"), vec![1.0]);
        assert!(t.self_ms("absent").is_empty());
        let total: f64 = t.self_ms_by_name().values().flatten().sum();
        assert_eq!(total, 20.0, "self times partition the root spans");
    }

    #[test]
    fn coverage_counts_direct_children_of_the_root() {
        let t = fixture();
        assert_eq!(t.coverage("chunk"), 19.0 / 20.0);
        assert_eq!(t.coverage("absent"), 0.0);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let mut t = Tracer::new();
        let answer = t.span("outer", 1, |t| {
            t.span("inner", 1, |_| ());
            t.span("inner", 1, |_| 42)
        });
        assert_eq!(answer, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let json = fixture().chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"core.kernel\",\"cat\":\"core\""));
        assert!(json.contains("\"ts\":2000.000,\"dur\":7000.000"));
        assert!(json.contains("\"parent\":-1"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
