//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self-time arithmetic behind the layer table.
//!
//! A span has a layer, a name, a start, an end, the span that caused it
//! (its parent) and a group id shared by every span of one experiment, job
//! or request. A span's *self time* is its duration minus the part of its
//! interval that its children cover. Children may overlap when they run on
//! parallel workers, so the covered part is the union of their intervals,
//! not the sum of their durations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Spans`] log.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<SpanId>,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span log. Spans are kept in memory and written out once,
/// when the run ends.
pub struct Spans {
    origin: Instant,
    log: Mutex<Vec<Span>>,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the log's origin to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over a known interval.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            layer,
            name,
            group,
            parent,
            thread: thread_index(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        let mut log = self
            .log
            .lock()
            .expect("span log poisoned by a panicking recorder");
        log.push(span);
        log.len() - 1
    }

    /// Opens a span now; close it with [`Spans::close`]. Children opened in
    /// between can name it as their parent.
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = Instant::now();
        self.record(layer, name, group, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&self, id: SpanId) {
        let end = self.offset_ns(Instant::now());
        let mut log = self
            .log
            .lock()
            .expect("span log poisoned by a panicking recorder");
        log[id].end_ns = end;
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(layer, name, group, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.log
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .clone()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, group and parent in its args.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"group\":{},\"parent\":{parent}}}}}",
                s.name,
                s.layer,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.group,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(union_ns(c)))
        .collect()
}

/// One row of the layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    pub layer: String,
    pub self_ns: u64,
    pub spans: usize,
}

/// The layer table of a traced run that took `wall_ns`: self time per
/// layer, an `unattributed` row (wall time outside every top-level span),
/// and the parallel overlap (self time that ran concurrently on workers),
/// so that `sum(rows) + unattributed - overlap == wall`.
pub struct LayerTable {
    pub rows: Vec<LayerRow>,
    pub wall_ns: u64,
    pub unattributed_ns: u64,
    pub overlap_ns: u64,
}

pub fn layer_table(spans: &[Span], wall_ns: u64) -> LayerTable {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        let e = by_layer.entry(s.layer).or_default();
        e.0 += t;
        e.1 += 1;
    }
    let top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let covered = union_ns(top);
    let unattributed_ns = wall_ns.saturating_sub(covered);
    let attributed: u64 = selfs.iter().sum();
    LayerTable {
        rows: by_layer
            .into_iter()
            .map(|(layer, (self_ns, spans))| LayerRow {
                layer: layer.to_string(),
                self_ns,
                spans,
            })
            .collect(),
        wall_ns,
        unattributed_ns,
        overlap_ns: (attributed + unattributed_ns).saturating_sub(wall_ns),
    }
}

impl LayerTable {
    /// Moves an estimate of `ns` out of layer `from` into its own row `to*`
    /// (the star marks time estimated from sampled timing, not a span), for
    /// work that runs inside another layer's spans.
    pub fn split_estimate(&mut self, from: &str, to: &str, ns: u64) {
        if let Some(row) = self.rows.iter_mut().find(|r| r.layer == from) {
            let moved = ns.min(row.self_ns);
            row.self_ns -= moved;
            self.rows.push(LayerRow {
                layer: format!("{to}*"),
                self_ns: moved,
                spans: 0,
            });
        }
    }

    /// Self time of `layer` in nanoseconds (0 when it recorded no span).
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0, |r| r.self_ns)
    }

    /// The table as printable lines, shares relative to wall time.
    pub fn lines(&self) -> Vec<String> {
        let wall = self.wall_ns.max(1) as f64;
        let mut out = vec![format!(
            "{:<14} {:>12} {:>8} {:>7}",
            "layer", "self_ms", "share", "spans"
        )];
        for r in &self.rows {
            out.push(format!(
                "{:<14} {:>12.3} {:>7.2}% {:>7}",
                r.layer,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / wall,
                r.spans
            ));
        }
        out.push(format!(
            "{:<14} {:>12.3} {:>7.2}%",
            "unattributed",
            self.unattributed_ns as f64 / 1e6,
            100.0 * self.unattributed_ns as f64 / wall
        ));
        out.push(format!(
            "{:<14} {:>12.3} {:>7.2}%   (self time that ran concurrently on workers)",
            "-overlap",
            self.overlap_ns as f64 / 1e6,
            100.0 * self.overlap_ns as f64 / wall
        ));
        out.push(format!(
            "{:<14} {:>12.3} {:>7.2}%",
            "wall",
            wall / 1e6,
            100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            layer,
            name: layer,
            group: 0,
            parent,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // sos [0,100) > smtsim [10,60) > workloads [20,30)
        let spans = vec![
            span("sos", None, 0, 100),
            span("smtsim", Some(0), 10, 60),
            span("workloads", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        let mut table = layer_table(&spans, 120);
        assert_eq!(table.self_ns("sos"), 50);
        assert_eq!(table.unattributed_ns, 20);
        assert_eq!(table.overlap_ns, 0);
        let rows: u64 = table.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(rows + table.unattributed_ns, table.wall_ns);
        // Moving a sampled estimate keeps the rows summing to the whole.
        table.split_estimate("smtsim", "generation", 15);
        assert_eq!(table.self_ns("smtsim"), 25);
        assert_eq!(table.self_ns("generation*"), 15);
        let rows: u64 = table.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(rows + table.unattributed_ns, table.wall_ns);
    }

    #[test]
    fn overlapping_children_from_parallel_workers_count_once() {
        // A phase [0,100) fans out to two workers whose candidates overlap:
        // [10,70) and [40,90). The phase's self time is 100 - |[10,90)|.
        let spans = vec![
            span("par", None, 0, 100),
            span("sample", Some(0), 10, 70),
            span("sample", Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 50]);
        let table = layer_table(&spans, 100);
        assert_eq!(table.self_ns("sample"), 110);
        // 30 ns of candidate time ran concurrently with other candidate time.
        assert_eq!(table.overlap_ns, 30);
        let rows: u64 = table.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(
            rows + table.unattributed_ns - table.overlap_ns,
            table.wall_ns
        );
    }

    #[test]
    fn children_outside_their_parent_are_clipped() {
        let spans = vec![span("a", None, 10, 20), span("b", Some(0), 0, 15)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(vec![(0, 10), (10, 20), (5, 8), (30, 31)]), 21);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn recorder_links_parents_and_writes_a_chrome_trace() {
        let spans = Spans::new();
        let outer = spans.open("sos", "experiment", 7, None);
        let inner = spans.time("smtsim", "slice", 7, Some(outer), |id| id);
        spans.close(outer);
        let log = spans.snapshot();
        assert_eq!(log[inner].parent, Some(outer));
        assert!(log[outer].end_ns >= log[inner].end_ns);
        let trace = spans.chrome_trace();
        assert!(trace.contains("\"group\":7"));
        assert!(trace.contains("\"parent\":0"));
    }
}
