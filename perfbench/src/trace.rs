//! In-memory spans around the benchmark's calls into each `deepdb` layer.
//!
//! A span records a name, start and end (ns since the run's origin), the
//! span that encloses it and the benchmark operation it belongs to. Spans
//! stay in memory while the run measures and are written out when it ends.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer for another thread, on the same clock and setting.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin, self.enabled)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span; it is a child of the innermost span still open.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one CSV line: `name,start_ns,end_ns,parent,op`.
    pub fn write_csv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "name,start_ns,end_ns,parent,op")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        Ok(())
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// A layer's self time: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += total;
        e.self_ns += total.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "batch",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "insert",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "read",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                op: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["batch"].self_ns, 30);
        assert_eq!(t["batch"].total_ns, 100);
        assert_eq!(t["insert"].self_ns, 30);
        assert_eq!(t["read"].calls, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        t.span("x", 0, || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_across_absorb() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        a.span("solo", 0, || ());
        let mut b = Tracer::new(origin, true);
        let outer = b.enter("outer", 1);
        b.span("inner", 1, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
