//! Spans recorded from the benchmark's own files, around its calls into
//! each layer. Spans stay in memory and are written out once, at exit.
//!
//! In-program spans are a later change (ROADMAP item 2), so a child here
//! is not timed inside its parent's call: the same operation is replayed
//! against the inner layer alone, and the child span carries the op
//! identifier that ties it to its parent.

use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Name of the span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Identifier shared by every span of one operation.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as span `name` of operation `op` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations of every span called `name`, in nanoseconds, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        d
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span, in span order: its duration minus the
/// durations of its children (spans of the same operation that name it
/// as parent), never below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<(u32, &str), u64> = HashMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        *children.entry((s.op, s.parent)).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&(s.op, s.name)).copied().unwrap_or(0);
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, op: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_op_only() {
        let spans = vec![
            span("e2e.rtt", "", 0, 0, 100),
            span("vdbms.collection", "e2e.rtt", 0, 200, 260),
            span("index.search", "vdbms.collection", 0, 300, 340),
            span("server.req_encode", "e2e.rtt", 0, 400, 405),
            // Another operation: must not be charged to op 0.
            span("e2e.rtt", "", 1, 500, 580),
            span("vdbms.collection", "e2e.rtt", 1, 600, 650),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 60 - 5, "root minus its two children");
        assert_eq!(st[1], 60 - 40, "collection minus the index replay");
        assert_eq!(st[2], 40, "a leaf keeps its whole duration");
        assert_eq!(st[3], 5);
        assert_eq!(st[4], 80 - 50);
        assert_eq!(st[5], 50);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let spans = vec![span("a", "", 0, 0, 10), span("b", "a", 0, 20, 50)];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn tracer_records_name_parent_op_and_ordered_times() {
        let mut t = Tracer::new();
        let v = t.span("x", "", 3, || 41 + 1);
        assert_eq!(v, 42);
        let s = &t.spans[0];
        assert_eq!((s.name, s.parent, s.op), ("x", "", 3));
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(t.durations("x").len(), 1);
        assert!(t.durations("y").is_empty());
    }
}
