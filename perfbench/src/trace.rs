//! Harness-side spans around each call into a library layer.
//!
//! Spans are kept in memory while the workload runs and written once at
//! exit as Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`). A layer's *self time* is its span minus the part of
//! that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root (one per request).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (ids only need to be unique, so `Relaxed`).
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records `[start, end]` under `parent` with a fresh id and returns it.
    pub fn record(
        &self,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.new_id();
        self.record_with_id(id, parent, name, request, start, end);
        id
    }

    /// Records a span whose id was reserved with [`Tracer::new_id`] (so
    /// children can name it before it ends).
    pub fn record_with_id(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the store")
            .push(Span {
                id,
                parent,
                name,
                request,
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span recorder panicked while holding the store")
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Writes the spans as Chrome trace-event JSON: one complete (`"X"`) event
/// per span, on a lane per request so nested calls stack.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}{sep}",
            s.name,
            1 + s.request % 32,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "root" } else { "child" },
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Overlapping children cover [10, 40) once, not twice.
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // A disjoint child.
            span(4, 1, 60, 70),
            // A child running past its parent counts only inside it.
            span(5, 1, 95, 120),
            // A grandchild is charged to its own parent, not the root.
            span(6, 4, 62, 64),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 10 - 5, 20, 20, 8, 25, 2]
        );
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 55);
        assert_eq!(by_name["child"], 20 + 20 + 8 + 25 + 2);
    }

    #[test]
    fn a_leaf_keeps_its_whole_duration_and_a_covered_root_none() {
        let spans = [span(1, 0, 5, 50), span(2, 1, 0, 60)];
        assert_eq!(self_times(&spans), vec![0, 60]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let t = Tracer::new(false, t0);
        t.record(0, "x", 1, t0, Instant::now());
        assert!(t.into_spans().is_empty());
        let t = Tracer::new(true, t0);
        let root = t.new_id();
        let child = t.record(root, "c", 7, t0, Instant::now());
        t.record_with_id(root, 0, "r", 7, t0, Instant::now());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[1].request, 7);
    }
}
