//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! span (name, op, parent, start, end, allocations). Spans stay in memory
//! and are written out once, when the run ends. A layer's *self* time is
//! its span's duration minus the durations of its direct children; since
//! every span here is opened on one thread, children never overlap.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span that covers one whole operation.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation index within the run; all spans of one op share it.
    pub op: u32,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            // Reserved up front so span bookkeeping rarely allocates inside
            // a measured span.
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(16),
            op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as operation `op`, inside the root [`OP`] span; returns the
    /// result and the op's duration in milliseconds.
    pub fn op<T>(&mut self, op: u32, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.op = op;
        let idx = self.spans.len();
        let out = self.span(OP, f);
        (out, self.spans[idx].dur_ns() as f64 / 1e6)
    }

    /// Run `f` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(idx);
        let a0 = alloc::count();
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let a1 = alloc::count();
        self.stack.pop();
        let s = &mut self.spans[idx];
        s.start_ns = start;
        s.end_ns = end;
        s.allocs = a1 - a0;
        out
    }
}

/// Per-span self time and self allocations (own minus direct children).
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut costs: Vec<(u64, u64)> = spans.iter().map(|s| (s.dur_ns(), s.allocs)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            costs[p].0 = costs[p].0.saturating_sub(s.dur_ns());
            costs[p].1 = costs[p].1.saturating_sub(s.allocs);
        }
    }
    costs
}

/// Self time, self allocations and span count, summed per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    pub self_ns: u64,
    pub self_allocs: u64,
    pub spans: u64,
}

pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerCost> {
    let mut out: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
    for (s, (ns, allocs)) in spans.iter().zip(self_costs(spans)) {
        let c = out.entry(s.name).or_default();
        c.self_ns += ns;
        c.self_allocs += allocs;
        c.spans += 1;
    }
    out
}

/// Check the recorded tree: every child lies inside its parent's interval
/// and belongs to the same op, and the children's durations (hence their
/// self times) sum to no more than the parent's duration.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .filter(|_| p < i)
            .ok_or_else(|| format!("span {i} `{}` has an invalid parent {p}", s.name))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op != parent.op {
            return Err(format!(
                "span {i} `{}` is not inside its parent `{}`",
                s.name, parent.name
            ));
        }
        child_ns[p] += s.dur_ns();
    }
    for (i, s) in spans.iter().enumerate() {
        if child_ns[i] > s.dur_ns() {
            return Err(format!(
                "children of span {i} `{}` take {} ns, more than its {} ns",
                s.name,
                child_ns[i],
                s.dur_ns()
            ));
        }
    }
    Ok(())
}

/// Render spans as JSON lines (one span per line), at most `limit` spans.
pub fn to_jsonl(spans: &[Span], limit: usize) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns, s.allocs
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        t.op(0, |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        check_nesting(&t.spans).unwrap();
        let costs = self_costs(&t.spans);
        let (op, a, b) = (&t.spans[0], &t.spans[1], &t.spans[2]);
        assert_eq!(costs[1].0, a.dur_ns() - b.dur_ns());
        assert_eq!(costs[0].0, op.dur_ns() - a.dur_ns());
        assert!(costs[2].0 >= 2_000_000);
    }
}
