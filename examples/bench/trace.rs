//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is one call: its name, start and end, the span that made it, and
//! the op it belongs to. Spans live in a vector sized before the traced
//! phase and are written out as Chrome trace-event JSON when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its id for [`end`](Self::end) and as a parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Add a closed span whose times were measured elsewhere, on this
    /// tracer's clock.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
    }

    /// Duration of a closed span, in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span, the summed durations of its direct children.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut out = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            out[p] += s.dur_ns();
        }
    }
    out
}

/// Per span name: (calls, total ns, self ns). A span's self time is its
/// duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_ns(spans)) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(*kids);
    }
    out
}

/// Spans whose direct children add up to more than the span itself. Nested
/// begin/end calls cannot produce one; a non-empty result means the trace
/// is broken.
pub fn overfull(spans: &[Span]) -> Vec<usize> {
    let kids = child_ns(spans);
    (0..spans.len())
        .filter(|&i| kids[i] > spans[i].dur_ns())
        .collect()
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span, times
/// in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] -> a [10,40], b [50,90] -> c [60,70]; a second op
        // [200,260] -> a [210,230].
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
            span("op", 200, 260, None),
            span("a", 210, 230, Some(4)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (2, 160, (100 - 30 - 40) + (60 - 20)));
        assert_eq!(t["a"], (2, 50, 50));
        assert_eq!(t["b"], (1, 40, 30));
        assert_eq!(t["c"], (1, 10, 10));
        assert!(overfull(&spans).is_empty());
        // Self times partition the roots' total time.
        let self_sum: u64 = t.values().map(|v| v.2).sum();
        assert_eq!(self_sum, 100 + 60);
    }

    #[test]
    fn children_longer_than_parent_are_flagged() {
        let spans = [
            span("op", 0, 10, None),
            span("a", 0, 8, Some(0)),
            span("b", 8, 12, Some(0)),
        ];
        assert_eq!(overfull(&spans), vec![0]);
        assert_eq!(self_times(&spans)["op"].2, 0, "self time saturates at 0");
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut tr = Tracer::with_capacity(4);
        let op = tr.begin("op", None, 7);
        let k = tr.begin("kid", Some(op), 7);
        tr.end(k);
        tr.end(op);
        assert!(tr.spans()[op].dur_ns() >= tr.spans()[k].dur_ns());
        assert!(overfull(tr.spans()).is_empty());
        let json = chrome_json(tr.spans());
        assert!(json.contains("\"name\":\"kid\",\"ph\":\"X\""));
        assert!(json.contains("\"op\":7,\"parent\":0"));
    }
}
