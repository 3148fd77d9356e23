//! In-memory span recorder for the traced pass.
//!
//! Each span has an id, the id of the span that caused it, a group id
//! shared by every span of one trial or one request, a layer name, and
//! start/end times. Spans stay in memory and are written out as JSON
//! lines when the benchmark ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The causing span's id, or 0 for a root.
    pub parent: u64,
    /// Shared by all spans of one trial or one request.
    pub group: u64,
    /// Layer-qualified name, e.g. `graph.build`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, reserved before the span's children are recorded.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Store a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("tracer lock").push(span);
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent its own children.
    pub fn span<R>(
        &self,
        parent: u64,
        group: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.new_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Everything recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("tracer lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Write the traced pass's spans under `.bench_out/traces/`.
pub fn write_trace(args: &crate::Args, tracer: &Tracer) -> Result<(), String> {
    let path = args
        .root
        .join(".bench_out")
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Total and self nanoseconds per span name. Self time is a span's
/// duration minus the union of its children's intervals (clipped to the
/// span), so self times of a tree sum to its root's duration.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += total;
        entry.1 += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "trial", 0, 100),
            span(2, 1, "build", 10, 30),
            span(3, 1, "run", 25, 80), // overlaps build by 5
            span(4, 3, "activate", 40, 50),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["trial"], (100, 100 - 70));
        assert_eq!(t["build"], (20, 20));
        assert_eq!(t["run"], (55, 45));
        assert_eq!(t["activate"], (10, 10));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, 0, "a", 10, 20), span(2, 1, "b", 0, 15)];
        assert_eq!(layer_times(&spans)["a"], (10, 5));
    }

    #[test]
    fn nested_spans_get_ids_and_parents() {
        let tracer = Tracer::new();
        tracer.span(0, 7, "outer", |outer| {
            tracer.span(outer, 7, "inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(outer.group, 7);
    }
}
