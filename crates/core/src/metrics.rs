//! Metrics: the crate's one home for counters, gauges, and histograms.
//!
//! Metrics are cheap to write from a hot scheduler loop and cheap to *read
//! while the process serves*:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomics, handed out as
//!   [`std::sync::Arc`] handles so hot paths never touch a map or a lock;
//! * [`Histogram`] — a log2-bucket distribution, the storage unit of
//!   [`WindowedHistogram`], which slices it into rotating time windows on
//!   the simulated-cycle clock, with bounded raw samples per window for
//!   **exact** p50/p95/p99/p999 (via [`crate::report::percentile`]) and a
//!   deterministic cross-worker [`WindowedHistogram::merge`];
//! * [`SloTracker`] — a good/total objective (e.g. "99% of responses under
//!   50M cycles") with attainment and error-budget burn rate;
//! * [`MetricsHub`] — the named registry tying those together, snapshotted
//!   as a versioned serde document ([`MetricsSnapshot`]) and rendered as
//!   Prometheus-style text exposition
//!   ([`MetricsSnapshot::prometheus_text`]).
//!
//! The `sos-serve` daemon owns a hub, attaches [`EngineMetrics`] to its
//! [`crate::online::OnlineEngine`], and answers the `metrics` protocol verb
//! from [`MetricsHub::snapshot`]; `sos-top` renders the same snapshot as a
//! live terminal dashboard. A [`crate::telemetry::Recorder`] writes its
//! metrics into a hub too, so a traced run exports the same document. An
//! engine without attached metrics pays nothing (one `Option` check), so
//! batch reproductions are byte-identical.

use crate::report::percentile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the [`MetricsSnapshot`] schema carried by the `metrics`
/// protocol verb; bump on incompatible change so pollers can detect a
/// mismatch instead of misreading fields.
pub const METRICS_VERSION: u32 = 1;

/// Raw samples retained per histogram window for exact quantiles. Past the
/// cap a window keeps counting in its log2 buckets but stops retaining
/// samples, and the quantile summary degrades to the bucket approximation
/// (flagged via [`HistogramSnapshot::exact`]).
pub const WINDOW_SAMPLE_CAP: usize = 8_192;

// ---------------------------------------------------------------------------
// Atomic scalar metrics
// ---------------------------------------------------------------------------

/// A monotonic counter: one relaxed atomic, safe to share across threads.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge: an `f64` stored as atomic bits.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at 0.0.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Log2 histograms
// ---------------------------------------------------------------------------

/// A histogram over `u64` values with logarithmic (power-of-two) buckets.
///
/// Bucket `0` counts zeros; bucket `i > 0` counts values `v` with
/// `2^(i-1) <= v < 2^i`. 65 buckets cover the full `u64` range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see type docs for bucket boundaries).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; 65],
        }
    }
}

impl Histogram {
    /// Bucket index for `value`.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the lower bound of the bucket
    /// containing the `q`-th ordered value.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_lower_bound(i);
            }
        }
        Self::bucket_lower_bound(64)
    }

    /// The p50/p95/p99 summary of the recorded distribution, from
    /// [`approx_quantile`](Self::approx_quantile) (so each value is the
    /// lower bound of its log2 bucket — a floor, not an interpolation).
    /// All fields are `NaN` when the histogram is empty, matching
    /// [`crate::report::percentiles`] on empty input.
    pub fn percentile_summary(&self) -> crate::report::Percentiles {
        if self.count == 0 {
            return crate::report::Percentiles {
                p50: f64::NAN,
                p95: f64::NAN,
                p99: f64::NAN,
            };
        }
        crate::report::Percentiles {
            p50: self.approx_quantile(0.50) as f64,
            p95: self.approx_quantile(0.95) as f64,
            p99: self.approx_quantile(0.99) as f64,
        }
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// Windowed histograms
// ---------------------------------------------------------------------------

/// The p50/p95/p99/p999 summary of a distribution. All fields are `NaN`
/// when the distribution is empty (serialized as JSON `null`, matching
/// [`crate::report::Percentiles`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Quantiles {
    /// The all-`NaN` summary of an empty distribution.
    pub fn empty() -> Self {
        Quantiles {
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
            p999: f64::NAN,
        }
    }

    /// Exact nearest-rank quantiles of `values` via
    /// [`crate::report::percentile`].
    pub fn exact(values: &[f64]) -> Self {
        Quantiles {
            p50: percentile(values, 50.0),
            p95: percentile(values, 95.0),
            p99: percentile(values, 99.0),
            p999: percentile(values, 99.9),
        }
    }
}

/// One rotation window of a [`WindowedHistogram`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Window {
    /// Window index on the cycle clock: `now / window_cycles`.
    index: u64,
    /// Log2-bucket counts for the window.
    hist: Histogram,
    /// Raw samples, capped at [`WINDOW_SAMPLE_CAP`].
    samples: Vec<u64>,
}

impl Window {
    fn new(index: u64) -> Self {
        Window {
            index,
            hist: Histogram::default(),
            samples: Vec::new(),
        }
    }

    fn record(&mut self, value: u64) {
        self.hist.record(value);
        if self.samples.len() < WINDOW_SAMPLE_CAP {
            self.samples.push(value);
        }
    }
}

/// A log2-bucket [`Histogram`] sliced into rotating time windows.
///
/// Values are recorded with an explicit clock (simulated cycles); the
/// histogram keeps the most recent `max_windows` windows of `window_cycles`
/// each, so reads see a sliding view of roughly
/// `window_cycles × max_windows` cycles. Each window also retains up to
/// [`WINDOW_SAMPLE_CAP`] raw samples, making the quantile summary *exact*
/// (nearest-rank over the retained span) until a window overflows its cap.
///
/// Merging is deterministic: windows align by index and samples concatenate
/// in `self`-then-`other` order, so merging per-worker shards in a fixed
/// order always produces the same result (see the `par` merge test).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowedHistogram {
    /// Cycles per window.
    window_cycles: u64,
    /// Windows retained (older windows are evicted).
    max_windows: usize,
    /// Live windows, oldest first.
    windows: Vec<Window>,
    /// Values recorded over the histogram's lifetime (across evictions).
    total_count: u64,
    /// Sum of values recorded over the histogram's lifetime.
    total_sum: u64,
}

impl WindowedHistogram {
    /// A histogram rotating every `window_cycles` cycles, keeping
    /// `max_windows` windows.
    ///
    /// # Panics
    /// Panics if `window_cycles == 0` or `max_windows == 0`.
    pub fn new(window_cycles: u64, max_windows: usize) -> Self {
        assert!(
            window_cycles > 0 && max_windows > 0,
            "windowed histogram needs a positive window size and count"
        );
        WindowedHistogram {
            window_cycles,
            max_windows,
            windows: Vec::new(),
            total_count: 0,
            total_sum: 0,
        }
    }

    /// Cycles per window.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Records `value` at clock `now`, rotating windows as needed.
    pub fn record(&mut self, now: u64, value: u64) {
        let index = now / self.window_cycles;
        match self.windows.last_mut() {
            Some(last) if last.index >= index => {
                // Same window (or a late sample after rotation: book it into
                // the current window rather than resurrecting an old one).
                self.windows.last_mut().expect("nonempty").record(value);
            }
            _ => {
                self.windows.push(Window::new(index));
                if self.windows.len() > self.max_windows {
                    let excess = self.windows.len() - self.max_windows;
                    self.windows.drain(..excess);
                }
                self.windows.last_mut().expect("just pushed").record(value);
            }
        }
        self.total_count += 1;
        self.total_sum = self.total_sum.saturating_add(value);
    }

    /// Drops windows that ended more than `max_windows` windows before
    /// `now`, so an idle histogram ages out instead of pinning stale data.
    pub fn expire(&mut self, now: u64) {
        let current = now / self.window_cycles;
        let horizon = current.saturating_sub(self.max_windows as u64);
        self.windows.retain(|w| w.index >= horizon);
    }

    /// Values recorded in the live windows.
    pub fn count(&self) -> u64 {
        self.windows.iter().map(|w| w.hist.count).sum()
    }

    /// Values recorded over the histogram's lifetime (across evictions).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Live windows currently retained.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The live windows merged into one [`Histogram`].
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::default();
        for w in &self.windows {
            out.merge(&w.hist);
        }
        out
    }

    /// Whether every live window still retains all of its raw samples (if
    /// so, [`WindowedHistogram::quantiles`] is exact).
    pub fn is_exact(&self) -> bool {
        self.windows
            .iter()
            .all(|w| w.samples.len() as u64 == w.hist.count)
    }

    /// Quantile summary over the live windows: exact nearest-rank over the
    /// retained raw samples while [`is_exact`](Self::is_exact), otherwise
    /// the log2-bucket lower-bound approximation.
    pub fn quantiles(&self) -> Quantiles {
        if self.count() == 0 {
            return Quantiles::empty();
        }
        if self.is_exact() {
            let samples: Vec<f64> = self
                .windows
                .iter()
                .flat_map(|w| w.samples.iter().map(|&v| v as f64))
                .collect();
            Quantiles::exact(&samples)
        } else {
            let merged = self.merged();
            Quantiles {
                p50: merged.approx_quantile(0.50) as f64,
                p95: merged.approx_quantile(0.95) as f64,
                p99: merged.approx_quantile(0.99) as f64,
                p999: merged.approx_quantile(0.999) as f64,
            }
        }
    }

    /// Merges another histogram's windows into this one, aligning by window
    /// index. Both sides must share the same `window_cycles`; the result
    /// keeps at most `max_windows` of the newest windows. Deterministic:
    /// same inputs in the same order, same output.
    ///
    /// # Panics
    /// Panics if the window sizes differ (merging mismatched clocks would
    /// silently misalign every bucket).
    pub fn merge(&mut self, other: &WindowedHistogram) {
        assert_eq!(
            self.window_cycles, other.window_cycles,
            "cannot merge histograms with different window sizes"
        );
        for ow in &other.windows {
            match self.windows.iter_mut().find(|w| w.index == ow.index) {
                Some(w) => {
                    w.hist.merge(&ow.hist);
                    for &s in &ow.samples {
                        if w.samples.len() < WINDOW_SAMPLE_CAP {
                            w.samples.push(s);
                        }
                    }
                }
                None => self.windows.push(ow.clone()),
            }
        }
        self.windows.sort_by_key(|w| w.index);
        if self.windows.len() > self.max_windows {
            let excess = self.windows.len() - self.max_windows;
            self.windows.drain(..excess);
        }
        self.total_count += other.total_count;
        self.total_sum = self.total_sum.saturating_add(other.total_sum);
    }
}

// ---------------------------------------------------------------------------
// SLO tracking
// ---------------------------------------------------------------------------

/// Tracks one latency-style service-level objective: "`objective` of
/// observations at or under `target`".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloTracker {
    /// Threshold an observation must not exceed to count as good.
    pub target: u64,
    /// Required good fraction in `(0, 1)`, e.g. `0.99`.
    pub objective: f64,
    /// Observations at or under the target.
    pub good: u64,
    /// All observations.
    pub total: u64,
}

impl SloTracker {
    /// A fresh tracker for "`objective` of observations ≤ `target`".
    pub fn new(target: u64, objective: f64) -> Self {
        SloTracker {
            target,
            objective: objective.clamp(0.0, 1.0),
            good: 0,
            total: 0,
        }
    }

    /// Books one observation.
    pub fn observe(&mut self, value: u64) {
        self.total += 1;
        if value <= self.target {
            self.good += 1;
        }
    }

    /// Good fraction so far (1.0 before any observation: no violations).
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.good as f64 / self.total as f64
        }
    }

    /// Error-budget burn rate: observed bad fraction over allowed bad
    /// fraction. 1.0 means burning the budget exactly as fast as the
    /// objective allows; above 1.0 the SLO will be missed if the rate holds.
    pub fn burn_rate(&self) -> f64 {
        let allowed = 1.0 - self.objective;
        if allowed <= 0.0 {
            // A 100% objective has no budget: any miss is infinite burn.
            if self.total > self.good {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (1.0 - self.attainment()) / allowed
        }
    }

    /// Whether the objective is currently met.
    pub fn met(&self) -> bool {
        self.attainment() >= self.objective
    }

    /// The serializable status row for a snapshot.
    pub fn status(&self) -> SloStatus {
        SloStatus {
            target: self.target,
            objective: self.objective,
            good: self.good,
            total: self.total,
            attainment: self.attainment(),
            burn_rate: self.burn_rate(),
            met: self.met(),
        }
    }
}

/// One SLO row in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloStatus {
    /// Threshold an observation must not exceed to count as good.
    pub target: u64,
    /// Required good fraction.
    pub objective: f64,
    /// Good observations.
    pub good: u64,
    /// All observations.
    pub total: u64,
    /// Good fraction so far.
    pub attainment: f64,
    /// Error-budget burn rate (see [`SloTracker::burn_rate`]).
    pub burn_rate: f64,
    /// Whether the objective is currently met.
    pub met: bool,
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// The named registry of live metrics a service exposes.
///
/// Counters and gauges are handed out as `Arc` handles — callers look a name
/// up once and then write through a single relaxed atomic, so the per-write
/// cost is independent of the registry size and involves no lock. Windowed
/// histograms and SLO trackers sit behind one mutex each; they are written
/// from the (single) scheduler thread and read by snapshotters.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, WindowedHistogram>>,
    slos: Mutex<BTreeMap<String, SloTracker>>,
    /// Second names for existing series: alias → target.
    aliases: Mutex<BTreeMap<String, String>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        // Like the telemetry recorder: a poisoned lock must not take the
        // service down; the maps stay structurally valid.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::lock(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created at 0.0 on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::lock(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers (or re-shapes) the windowed histogram named `name`.
    pub fn register_histogram(&self, name: &str, window_cycles: u64, max_windows: usize) {
        Self::lock(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| WindowedHistogram::new(window_cycles, max_windows));
    }

    /// Records `value` at clock `now` into histogram `name`. The histogram
    /// must have been registered (recording into an unknown name is a no-op
    /// rather than a panic — metrics must never take the service down).
    pub fn record(&self, name: &str, now: u64, value: u64) {
        if let Some(h) = Self::lock(&self.histograms).get_mut(name) {
            h.record(now, value);
        }
    }

    /// Records `value` into histogram `name`, creating it on first use as a
    /// whole-run distribution: one window that never rotates.
    pub fn record_run(&self, name: &str, now: u64, value: u64) {
        let mut histograms = Self::lock(&self.histograms);
        match histograms.get_mut(name) {
            Some(h) => h.record(now, value),
            None => {
                let mut h = WindowedHistogram::new(u64::MAX, 1);
                h.record(now, value);
                histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Exports the counter, gauge, or histogram `target` under `name` as
    /// well, in every snapshot. Both names read the one series, so nothing
    /// is counted twice; an alias whose target does not exist is skipped.
    pub fn alias(&self, name: &str, target: &str) {
        Self::lock(&self.aliases).insert(name.to_string(), target.to_string());
    }

    /// Registers an SLO: `objective` of observations ≤ `target`.
    pub fn register_slo(&self, name: &str, target: u64, objective: f64) {
        Self::lock(&self.slos)
            .entry(name.to_string())
            .or_insert_with(|| SloTracker::new(target, objective));
    }

    /// Books one observation against SLO `name` (no-op when unregistered).
    pub fn observe_slo(&self, name: &str, value: u64) {
        if let Some(s) = Self::lock(&self.slos).get_mut(name) {
            s.observe(value);
        }
    }

    /// Runs `f` over the windowed histogram named `name`, if registered
    /// (used by readers that need more than the snapshot, e.g. the `stats`
    /// verb's bucket-approximate percentiles).
    pub fn with_histogram<R>(
        &self,
        name: &str,
        f: impl FnOnce(&WindowedHistogram) -> R,
    ) -> Option<R> {
        Self::lock(&self.histograms).get(name).map(f)
    }

    /// Snapshots every metric at clock `now` as a versioned document.
    pub fn snapshot(&self, now: u64) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = Self::lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut gauges: BTreeMap<String, f64> = Self::lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = Self::lock(&self.histograms)
            .iter()
            .map(|(k, h)| {
                let merged = h.merged();
                let buckets = merged
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| BucketCount {
                        lo: Histogram::bucket_lower_bound(i),
                        count: c,
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: merged.count,
                        sum: merged.sum,
                        mean: merged.mean(),
                        total_count: h.total_count(),
                        quantiles: h.quantiles(),
                        exact: h.is_exact(),
                        windows: h.window_count() as u64,
                        window_cycles: h.window_cycles(),
                        buckets,
                    },
                )
            })
            .collect();
        for (name, target) in Self::lock(&self.aliases).iter() {
            if let Some(&v) = counters.get(target) {
                counters.insert(name.clone(), v);
            } else if let Some(&v) = gauges.get(target) {
                gauges.insert(name.clone(), v);
            } else if let Some(h) = histograms.get(target).cloned() {
                histograms.insert(name.clone(), h);
            }
        }
        let slos = Self::lock(&self.slos)
            .iter()
            .map(|(k, s)| (k.clone(), s.status()))
            .collect();
        MetricsSnapshot {
            version: METRICS_VERSION,
            now_cycles: now,
            counters,
            gauges,
            histograms,
            slos,
        }
    }
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Values in the live windows.
    pub count: u64,
    /// Sum of values in the live windows.
    pub sum: u64,
    /// Mean of values in the live windows.
    pub mean: f64,
    /// Values recorded over the histogram's lifetime (across window
    /// evictions).
    pub total_count: u64,
    /// Quantile summary (exact while `exact` is true).
    pub quantiles: Quantiles,
    /// Whether `quantiles` is exact nearest-rank (every live window still
    /// retains all raw samples) or the log2-bucket approximation.
    pub exact: bool,
    /// Live windows merged into this snapshot.
    pub windows: u64,
    /// Cycles per window.
    pub window_cycles: u64,
    /// Non-empty log2 buckets, by inclusive lower bound.
    pub buckets: Vec<BucketCount>,
}

/// One non-empty log2 bucket: inclusive lower bound and count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Values in the bucket.
    pub count: u64,
}

/// A versioned point-in-time view of every metric in a [`MetricsHub`],
/// carried by the `metrics` protocol verb and rendered by `sos-top`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema version ([`METRICS_VERSION`]).
    pub version: u32,
    /// Simulated clock at snapshot time.
    pub now_cycles: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// SLO statuses by name.
    pub slos: BTreeMap<String, SloStatus>,
}

/// Sanitizes a metric name into a Prometheus-legal series name:
/// `serve.request_us.submit` → `sos_serve_request_us_submit`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("sos_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as Prometheus text exposition (format 0.0.4):
    /// counters and gauges as single series, histograms as cumulative
    /// `_bucket{le=…}` series with `_sum`/`_count`, SLOs as
    /// `_slo_attainment` / `_slo_burn_rate` / `_slo_met` gauges.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", fmt_f64(*v)));
        }
        for (name, h) in &self.histograms {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                // The log2 bucket [lo, 2·lo) is reported at its exclusive
                // upper bound, the Prometheus `le` convention.
                let le = if b.lo == 0 { 1 } else { b.lo.saturating_mul(2) };
                out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", h.sum, h.count));
        }
        for (name, s) in &self.slos {
            let p = prometheus_name(name);
            out.push_str(&format!(
                "# TYPE {p}_slo_attainment gauge\n{p}_slo_attainment {}\n",
                fmt_f64(s.attainment)
            ));
            out.push_str(&format!(
                "# TYPE {p}_slo_burn_rate gauge\n{p}_slo_burn_rate {}\n",
                fmt_f64(s.burn_rate)
            ));
            out.push_str(&format!(
                "# TYPE {p}_slo_met gauge\n{p}_slo_met {}\n",
                if s.met { 1 } else { 0 }
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Engine instrumentation handles
// ---------------------------------------------------------------------------

/// The [`crate::online::OnlineEngine`] instrumentation bundle: counter and
/// gauge handles resolved once at attach time, so the per-timeslice cost is
/// a handful of relaxed atomic writes (and exactly zero when no metrics are
/// attached).
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// Jobs submitted (`engine.arrivals`).
    pub arrivals: Arc<Counter>,
    /// Jobs completed (`engine.departures`).
    pub departures: Arc<Counter>,
    /// Timeslices simulated (`engine.timeslices`).
    pub timeslices: Arc<Counter>,
    /// Timeslices spent in the SOS sample phase (`engine.sampling_slices`).
    pub sampling_slices: Arc<Counter>,
    /// Timeslices spent in the symbios phase (`engine.symbios_slices`).
    pub symbios_slices: Arc<Counter>,
    /// Timeslices spent rotating in arrival order (`engine.rotate_slices`).
    pub rotate_slices: Arc<Counter>,
    /// Predictor decisions made at sample-phase ends
    /// (`engine.predictor_picks`).
    pub predictor_picks: Arc<Counter>,
    /// Predictor decisions that repeated the previous pick
    /// (`engine.repeat_picks`).
    pub repeat_picks: Arc<Counter>,
    /// Sample phases entered (`engine.resamples`).
    pub resamples: Arc<Counter>,
    /// Symbiosis-interval doublings after a repeated prediction
    /// (`engine.backoffs`).
    pub backoffs: Arc<Counter>,
    /// Timeslices synthesized by fast-sim extrapolation instead of detailed
    /// execution (`engine.extrapolated_slices`); 0 with fast-sim off.
    pub extrapolated_slices: Arc<Counter>,
    /// Fast-sim phase locks — detail → extrapolation transitions
    /// (`engine.fastsim_phase_locks`).
    pub fastsim_phase_locks: Arc<Counter>,
    /// Fast-sim drift fallbacks — extrapolation → detail transitions
    /// (`engine.fastsim_fallbacks`).
    pub fastsim_fallbacks: Arc<Counter>,
    /// Fast-sim moderate-drift resyncs — reference window re-centred
    /// without unlocking the phase (`engine.fastsim_resyncs`).
    pub fastsim_resyncs: Arc<Counter>,
    /// Jobs currently in the system (`engine.queue_depth`).
    pub queue_depth: Arc<Gauge>,
    /// Jobs coscheduled on the machine in the latest timeslice
    /// (`engine.running`).
    pub running: Arc<Gauge>,
}

impl EngineMetrics {
    /// The names traced runs have always exported for engine series, with
    /// the series (after the prefix) each one reads: see
    /// [`Self::alias_trace_names`].
    pub const TRACE_NAMES: [(&'static str, &'static str); 9] = [
        ("opensys.arrivals", "arrivals"),
        ("opensys.departures", "departures"),
        ("opensys.resamples", "resamples"),
        ("opensys.backoffs", "backoffs"),
        ("opensys.jobs_in_system", "queue_depth"),
        ("fastsim.phase_locks", "fastsim_phase_locks"),
        ("fastsim.fallbacks", "fastsim_fallbacks"),
        ("fastsim.resyncs", "fastsim_resyncs"),
        ("fastsim.extrapolated_slices", "extrapolated_slices"),
    ];

    /// Exports the series registered under `prefix` by their
    /// [`Self::TRACE_NAMES`] as well ([`MetricsHub::alias`]).
    pub fn alias_trace_names(hub: &MetricsHub, prefix: &str) {
        for (name, series) in Self::TRACE_NAMES {
            hub.alias(name, &format!("{prefix}.{series}"));
        }
    }

    /// Registers the engine series in `hub` and resolves the handles.
    pub fn register(hub: &MetricsHub) -> Self {
        Self::register_prefixed(hub, "engine")
    }

    /// Registers the engine series under an arbitrary prefix (e.g.
    /// `cluster.shard0`), so every shard of a cluster exports its own
    /// `<prefix>.timeslices`, `<prefix>.queue_depth`, … family.
    pub fn register_prefixed(hub: &MetricsHub, prefix: &str) -> Self {
        EngineMetrics {
            arrivals: hub.counter(&format!("{prefix}.arrivals")),
            departures: hub.counter(&format!("{prefix}.departures")),
            timeslices: hub.counter(&format!("{prefix}.timeslices")),
            sampling_slices: hub.counter(&format!("{prefix}.sampling_slices")),
            symbios_slices: hub.counter(&format!("{prefix}.symbios_slices")),
            rotate_slices: hub.counter(&format!("{prefix}.rotate_slices")),
            predictor_picks: hub.counter(&format!("{prefix}.predictor_picks")),
            repeat_picks: hub.counter(&format!("{prefix}.repeat_picks")),
            resamples: hub.counter(&format!("{prefix}.resamples")),
            backoffs: hub.counter(&format!("{prefix}.backoffs")),
            extrapolated_slices: hub.counter(&format!("{prefix}.extrapolated_slices")),
            fastsim_phase_locks: hub.counter(&format!("{prefix}.fastsim_phase_locks")),
            fastsim_fallbacks: hub.counter(&format!("{prefix}.fastsim_fallbacks")),
            fastsim_resyncs: hub.counter(&format!("{prefix}.fastsim_resyncs")),
            queue_depth: hub.gauge(&format!("{prefix}.queue_depth")),
            running: hub.gauge(&format!("{prefix}.running")),
        }
    }
}

/// The [`crate::learn`] instrumentation bundle: the `learn.*` family
/// (regressor training/prediction counters, error EWMA, bandit regret, and
/// one pull counter per arm), prefixable per shard like [`EngineMetrics`].
#[derive(Clone, Debug)]
pub struct LearnMetrics {
    /// Regressor training observations folded in (`learn.train_updates`).
    pub train_updates: Arc<Counter>,
    /// Predictions served by the learned model or the bandit
    /// (`learn.predictions`).
    pub predictions: Arc<Counter>,
    /// EWMA of the prequential absolute prediction error
    /// (`learn.pred_err_ewma`).
    pub pred_err_ewma: Arc<Gauge>,
    /// Cumulative bandit regret (`learn.bandit_regret`).
    pub bandit_regret: Arc<Gauge>,
    /// Bandit pulls booked (`learn.bandit_pulls`).
    pub bandit_pulls: Arc<Counter>,
    /// Per-arm pull counters in [`crate::learn::arms`] order
    /// (`learn.arm.<name>.pulls`, lowercase arm names).
    pub arm_pulls: Vec<Arc<Counter>>,
}

impl LearnMetrics {
    /// Registers the `learn.*` series in `hub` and resolves the handles.
    pub fn register(hub: &MetricsHub) -> Self {
        Self::register_prefixed(hub, "learn")
    }

    /// Registers the learn series under an arbitrary prefix (e.g.
    /// `cluster.shard0.learn`).
    pub fn register_prefixed(hub: &MetricsHub, prefix: &str) -> Self {
        LearnMetrics {
            train_updates: hub.counter(&format!("{prefix}.train_updates")),
            predictions: hub.counter(&format!("{prefix}.predictions")),
            pred_err_ewma: hub.gauge(&format!("{prefix}.pred_err_ewma")),
            bandit_regret: hub.gauge(&format!("{prefix}.bandit_regret")),
            bandit_pulls: hub.counter(&format!("{prefix}.bandit_pulls")),
            arm_pulls: crate::learn::arms()
                .iter()
                .map(|p| {
                    hub.counter(&format!(
                        "{prefix}.arm.{}.pulls",
                        p.name().to_ascii_lowercase()
                    ))
                })
                .collect(),
        }
    }

    /// Syncs the absolute-valued series from a learner summary (counters are
    /// set-by-delta internally, so syncing is idempotent per summary).
    pub fn sync(&self, summary: &crate::learn::LearnSummary) {
        set_counter_to(&self.train_updates, summary.train_updates);
        set_counter_to(&self.predictions, summary.predictions);
        set_counter_to(&self.bandit_pulls, summary.bandit_pulls);
        self.pred_err_ewma.set(summary.err_ewma);
        self.bandit_regret.set(summary.bandit_regret);
        for (handle, (_, pulls, _)) in self.arm_pulls.iter().zip(&summary.arms) {
            set_counter_to(handle, *pulls);
        }
    }
}

/// Raises a monotonic counter to an absolute target value (no-op when the
/// counter is already at or past it), letting summary-driven exporters reuse
/// counter semantics.
fn set_counter_to(counter: &Counter, target: u64) {
    let cur = counter.get();
    if target > cur {
        counter.add(target - cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::parallel_map_with_workers;
    use crate::report::percentiles;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4..8
        assert_eq!(h.buckets[4], 1); // 8..16
        assert_eq!(h.buckets[11], 1); // 1024..2048
        assert_eq!(h.count, 8);
        assert_eq!(Histogram::bucket_lower_bound(11), 1024);
        assert!(h.approx_quantile(0.0) <= h.approx_quantile(1.0));
    }

    #[test]
    fn histogram_percentile_summary() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket lower bound 64
        }
        h.record(1 << 20);
        let p = h.percentile_summary();
        assert_eq!(p.p50, 64.0);
        assert_eq!(p.p95, 64.0);
        // The single outlier is the 100th value: p99 still lands in the
        // dense bucket, and the summary is monotone.
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
        let empty = Histogram::default().percentile_summary();
        assert!(empty.p50.is_nan() && empty.p95.is_nan() && empty.p99.is_nan());
    }

    #[test]
    fn histogram_merge_adds_observations() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(100);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 111);
    }

    #[test]
    fn run_histograms_keep_every_value() {
        let hub = MetricsHub::new();
        hub.record_run("h", 0, 5);
        hub.record_run("h", u64::MAX - 1, 9);
        let h = &hub.snapshot(0).histograms["h"];
        assert_eq!((h.count, h.total_count, h.sum, h.windows), (2, 2, 14, 1));
    }

    #[test]
    fn aliases_export_one_series_under_two_names() {
        let hub = MetricsHub::new();
        let em = EngineMetrics::register(&hub);
        EngineMetrics::alias_trace_names(&hub, "engine");
        hub.alias("missing.alias", "no.such.series");
        em.resamples.add(3);
        em.queue_depth.set(2.0);
        let snap = hub.snapshot(0);
        assert_eq!(snap.counters["opensys.resamples"], 3);
        assert_eq!(snap.counters["engine.resamples"], 3);
        assert_eq!(snap.gauges["opensys.jobs_in_system"], 2.0);
        for (name, _) in EngineMetrics::TRACE_NAMES {
            assert!(
                snap.counters.contains_key(name) || snap.gauges.contains_key(name),
                "{name} not exported"
            );
        }
        assert!(!snap.counters.contains_key("missing.alias"));
    }

    #[test]
    fn learn_metrics_sync_from_summary() {
        let hub = MetricsHub::new();
        let m = LearnMetrics::register(&hub);
        assert_eq!(m.arm_pulls.len(), crate::learn::NUM_ARMS);
        let mut summary = crate::learn::LearnSummary {
            train_updates: 10,
            predictions: 4,
            err_ewma: 0.25,
            bandit_pulls: 3,
            bandit_regret: 0.5,
            contexts: 2,
            arms: crate::learn::arms()
                .iter()
                .map(|p| (p.name().to_string(), 1, 0.9))
                .collect(),
        };
        m.sync(&summary);
        assert_eq!(hub.counter("learn.train_updates").get(), 10);
        assert_eq!(hub.counter("learn.arm.score.pulls").get(), 1);
        assert_eq!(hub.gauge("learn.pred_err_ewma").get(), 0.25);
        // Idempotent per summary; monotonic under growth.
        m.sync(&summary);
        assert_eq!(hub.counter("learn.train_updates").get(), 10);
        summary.train_updates = 12;
        m.sync(&summary);
        assert_eq!(hub.counter("learn.train_updates").get(), 12);
    }

    #[test]
    fn counter_and_gauge_are_atomic_handles() {
        let hub = MetricsHub::new();
        let c = hub.counter("x");
        let c2 = hub.counter("x");
        c.inc();
        c2.add(4);
        assert_eq!(hub.counter("x").get(), 5);
        let g = hub.gauge("y");
        g.set(2.5);
        assert_eq!(hub.gauge("y").get(), 2.5);
    }

    #[test]
    fn window_rotation_evicts_old_windows() {
        let mut h = WindowedHistogram::new(1_000, 3);
        h.record(0, 10); // window 0
        h.record(1_500, 20); // window 1
        h.record(2_100, 300); // window 2
        assert_eq!(h.window_count(), 3);
        assert_eq!(h.count(), 3);
        h.record(3_999, 40); // window 3 evicts window 0
        assert_eq!(h.window_count(), 3);
        assert_eq!(h.count(), 3, "value 10 aged out of the live view");
        assert_eq!(h.total_count(), 4, "lifetime count keeps evicted values");
        // The merged view no longer contains 10's bucket.
        let merged = h.merged();
        assert_eq!(merged.buckets[Histogram::bucket_index(10)], 0);
        assert_eq!(merged.buckets[Histogram::bucket_index(20)], 1);
    }

    #[test]
    fn expire_ages_out_idle_windows() {
        let mut h = WindowedHistogram::new(1_000, 2);
        h.record(0, 5);
        h.expire(10_000);
        assert_eq!(h.window_count(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.total_count(), 1);
        let q = h.quantiles();
        assert!(q.p50.is_nan() && q.p95.is_nan() && q.p99.is_nan() && q.p999.is_nan());
    }

    #[test]
    fn late_samples_book_into_the_current_window() {
        let mut h = WindowedHistogram::new(1_000, 4);
        h.record(5_000, 1);
        h.record(100, 2); // clock went backwards: current window absorbs it
        assert_eq!(h.window_count(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn quantiles_agree_with_report_percentiles_exactly() {
        // The satellite check: identical samples through the windowed
        // histogram and through report::percentiles give identical answers.
        let values: Vec<u64> = (1..=1_000).map(|i| i * 7).collect();
        let mut h = WindowedHistogram::new(1 << 40, 4); // one big window
        for &v in &values {
            h.record(0, v);
        }
        assert!(h.is_exact());
        let q = h.quantiles();
        let f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let p = percentiles(&f);
        assert_eq!(q.p50, p.p50);
        assert_eq!(q.p95, p.p95);
        assert_eq!(q.p99, p.p99);
        assert_eq!(q.p999, percentile(&f, 99.9));
    }

    #[test]
    fn quantiles_degrade_to_buckets_past_the_sample_cap() {
        let mut h = WindowedHistogram::new(1 << 40, 1);
        for i in 0..(WINDOW_SAMPLE_CAP as u64 + 10) {
            h.record(0, 100 + i % 3);
        }
        assert!(!h.is_exact());
        let q = h.quantiles();
        // Bucket lower bound of 100..103 is 64.
        assert_eq!(q.p50, 64.0);
    }

    #[test]
    fn merge_is_deterministic_across_par_workers() {
        // Shard a sample stream across workers, each building its own
        // histogram; merging shards in input order must equal the serial
        // histogram byte for byte, at any worker count.
        let samples: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * 37, (i * 13) % 997)).collect();
        let mut serial = WindowedHistogram::new(10_000, 1_000);
        for &(t, v) in &samples {
            serial.record(t, v);
        }
        let shards: Vec<Vec<(u64, u64)>> = samples.chunks(1_250).map(|c| c.to_vec()).collect();
        for workers in [1, 4] {
            let built = parallel_map_with_workers(shards.clone(), workers, |chunk| {
                let mut h = WindowedHistogram::new(10_000, 1_000);
                for (t, v) in chunk {
                    h.record(t, v);
                }
                h
            });
            let mut merged = WindowedHistogram::new(10_000, 1_000);
            for shard in &built {
                merged.merge(shard);
            }
            assert_eq!(merged, serial, "merge diverged at {workers} workers");
            assert_eq!(merged.quantiles(), serial.quantiles());
        }
    }

    #[test]
    #[should_panic(expected = "different window sizes")]
    fn merge_rejects_mismatched_window_sizes() {
        let mut a = WindowedHistogram::new(1_000, 2);
        let b = WindowedHistogram::new(2_000, 2);
        a.merge(&b);
    }

    #[test]
    fn slo_attainment_and_burn_rate() {
        let mut s = SloTracker::new(100, 0.9);
        assert_eq!(s.attainment(), 1.0);
        assert!(s.met());
        assert_eq!(s.burn_rate(), 0.0);
        for v in [10, 50, 100, 101, 500, 20, 30, 40, 60, 70] {
            s.observe(v);
        }
        // 8 of 10 good → attainment 0.8, budget 0.1, burn 2.0.
        assert_eq!(s.good, 8);
        assert!((s.attainment() - 0.8).abs() < 1e-12);
        assert!((s.burn_rate() - 2.0).abs() < 1e-12);
        assert!(!s.met());
        let status = s.status();
        assert_eq!(status.total, 10);
        assert!(!status.met);
    }

    #[test]
    fn slo_with_total_objective_has_infinite_burn_on_any_miss() {
        let mut s = SloTracker::new(10, 1.0);
        s.observe(5);
        assert_eq!(s.burn_rate(), 0.0);
        s.observe(11);
        assert!(s.burn_rate().is_infinite());
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let hub = MetricsHub::new();
        hub.counter("serve.requests.submit").add(7);
        hub.gauge("engine.queue_depth").set(3.0);
        hub.register_histogram("serve.response_cycles", 1_000, 4);
        hub.record("serve.response_cycles", 100, 2_048);
        hub.record("serve.response_cycles", 200, 4_096);
        hub.register_slo("serve.response_cycles", 3_000, 0.99);
        hub.observe_slo("serve.response_cycles", 2_048);
        hub.observe_slo("serve.response_cycles", 4_096);
        let snap = hub.snapshot(250);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.version, METRICS_VERSION);
        assert_eq!(back.counters["serve.requests.submit"], 7);
        assert_eq!(back.gauges["engine.queue_depth"], 3.0);
        let h = &back.histograms["serve.response_cycles"];
        assert_eq!(h.count, 2);
        assert!(h.exact);
        let slo = &back.slos["serve.response_cycles"];
        assert_eq!(slo.good, 1);
        assert_eq!(slo.total, 2);
        assert!((slo.attainment - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prometheus_exposition_has_expected_series() {
        let hub = MetricsHub::new();
        hub.counter("serve.requests.submit").add(3);
        hub.gauge("engine.queue_depth").set(2.0);
        hub.register_histogram("serve.response_cycles", 1_000, 4);
        hub.record("serve.response_cycles", 0, 3); // bucket [2,4) → le=4
        hub.record("serve.response_cycles", 0, 100); // bucket [64,128) → le=128
        hub.register_slo("serve.response_cycles", 50, 0.99);
        hub.observe_slo("serve.response_cycles", 3);
        let text = hub.snapshot(0).prometheus_text();

        assert!(text.contains("# TYPE sos_serve_requests_submit counter"));
        assert!(text.contains("sos_serve_requests_submit 3"));
        assert!(text.contains("sos_engine_queue_depth 2"));
        assert!(text.contains("# TYPE sos_serve_response_cycles histogram"));
        assert!(text.contains("sos_serve_response_cycles_bucket{le=\"4\"} 1"));
        // Buckets are cumulative.
        assert!(text.contains("sos_serve_response_cycles_bucket{le=\"128\"} 2"));
        assert!(text.contains("sos_serve_response_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sos_serve_response_cycles_sum 103"));
        assert!(text.contains("sos_serve_response_cycles_count 2"));
        assert!(text.contains("sos_serve_response_cycles_slo_attainment 1"));
        assert!(text.contains("sos_serve_response_cycles_slo_met 1"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(!series.is_empty(), "bad exposition line {line:?}");
            assert!(
                value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
                "bad exposition value in {line:?}"
            );
        }
    }

    #[test]
    fn engine_metrics_registers_named_series() {
        let hub = MetricsHub::new();
        let em = EngineMetrics::register(&hub);
        em.timeslices.add(5);
        em.queue_depth.set(2.0);
        let snap = hub.snapshot(0);
        assert_eq!(snap.counters["engine.timeslices"], 5);
        assert_eq!(snap.gauges["engine.queue_depth"], 2.0);
        assert!(snap.counters.contains_key("engine.predictor_picks"));
    }
}
