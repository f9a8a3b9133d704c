//! Tracing: an event stream on the simulated-cycle clock, and its export.
//!
//! A [`Recorder`] is an explicit handle that a run or an engine owns; there
//! is no process-wide recorder. It holds
//!
//! * **events** — a time-stamped [`Event`] stream of spans
//!   (`SpanStart`/`SpanEnd`), instants, and counter samples, exportable as
//!   JSONL or as Chrome `trace_event` JSON loadable in Perfetto
//!   (<https://ui.perfetto.dev>);
//! * **the simulated-cycle clock** that stamps those events;
//! * **a [`MetricsHub`]** ([`Recorder::hub`]) — counters, gauges, and
//!   histograms live there, so a traced run and a live daemon export one
//!   metrics document ([`crate::metrics::MetricsSnapshot`]).
//!
//! Code that emits events takes the handle explicitly: a
//! [`TelemetryObserver`] (an [`smtsim::Observer`] bridge) holds an
//! `Arc<Recorder>` and advances its clock as timeslices retire;
//! [`crate::runner::Runner::attach_telemetry`] and
//! [`crate::online::OnlineEngine::attach_recorder`] install one, and
//! [`crate::sos::SosScheduler::evaluate_experiment_traced`] traces the SOS
//! phases. Untraced code holds no recorder and pays nothing. For export,
//! cycles are converted to microseconds at [`TRACE_CLOCK_MHZ`].
//!
//! ## Usage
//!
//! ```
//! use sos_core::telemetry::{Attr, Recorder};
//!
//! let recorder = Recorder::new();
//! {
//!     let _span = recorder.span("scheduler", "demo.phase", vec![]);
//!     recorder.counter_add("demo.widgets", 3);
//!     recorder.instant("scheduler", "demo.tick", vec![Attr::num("n", 1.0)]);
//! }
//! let snapshot = recorder.drain();
//! assert_eq!(snapshot.events.len(), 3); // span start + instant + span end
//! assert_eq!(snapshot.metrics.counters["demo.widgets"], 3);
//! assert!(snapshot.chrome_trace_json().contains("traceEvents"));
//! ```

use crate::metrics::{MetricsHub, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use smtsim::counters::Resource;
use smtsim::observe::{Observer, StageOccupancy};
use smtsim::TimesliceStats;
use std::sync::{Arc, Mutex};

/// Simulated clock rate assumed when converting cycles to trace time:
/// 500 MHz (a late-90s Alpha 21264), i.e. 500 cycles per microsecond.
pub const TRACE_CLOCK_MHZ: u64 = 500;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What kind of moment an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventPhase {
    /// A span (nested duration) opens.
    SpanStart,
    /// The most recent open span with the same track and name closes.
    SpanEnd,
    /// A point event.
    Instant,
    /// A sampled numeric series (rendered as a counter track in Perfetto).
    Counter,
}

/// One structured attribute on an [`Event`]: a key with a numeric and/or
/// text value. (A struct of two `Option`s rather than an enum keeps the
/// type friendly to minimal serde derives and to JSONL readers.)
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Attr {
    /// Attribute name.
    pub key: String,
    /// Numeric value, if any.
    pub num: Option<f64>,
    /// Text value, if any.
    pub text: Option<String>,
}

impl Attr {
    /// A numeric attribute.
    pub fn num(key: impl Into<String>, value: f64) -> Attr {
        Attr {
            key: key.into(),
            num: Some(value),
            text: None,
        }
    }

    /// A text attribute.
    pub fn text(key: impl Into<String>, value: impl Into<String>) -> Attr {
        Attr {
            key: key.into(),
            num: None,
            text: Some(value.into()),
        }
    }
}

/// One telemetry event on a recorder's simulated-cycle timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Global simulated-cycle timestamp.
    pub ts_cycles: u64,
    /// Span/instant/counter discriminator.
    pub phase: EventPhase,
    /// Logical track (rendered as a Perfetto thread): `"smtsim"`,
    /// `"scheduler"`, `"opensys"`, ...
    pub track: String,
    /// Low-cardinality event name, e.g. `"sos.sample_phase"`.
    pub name: String,
    /// Structured details.
    pub attrs: Vec<Attr>,
}

/// Serializes events as JSONL (one JSON object per line).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("event serializes"));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

struct RecorderInner {
    events: Vec<Event>,
    clock_cycles: u64,
}

/// A trace handle: an event buffer, a simulated-cycle clock, and the
/// [`MetricsHub`] its metrics go to. Share it as an `Arc<Recorder>`; every
/// method takes `&self`.
pub struct Recorder {
    hub: Arc<MetricsHub>,
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// A recorder with an empty buffer, the clock at 0, and a fresh hub.
    pub fn new() -> Self {
        Recorder::with_hub(Arc::new(MetricsHub::new()))
    }

    /// A recorder whose metrics go to `hub` (e.g. a daemon's live hub).
    pub fn with_hub(hub: Arc<MetricsHub>) -> Self {
        Recorder {
            hub,
            inner: Mutex::new(RecorderInner {
                events: Vec::new(),
                clock_cycles: 0,
            }),
        }
    }

    /// The hub this recorder's metrics go to.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        // Telemetry must keep working even if a panicking thread poisoned
        // the lock; the data is append-mostly and stays structurally valid.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current simulated-cycle clock.
    pub fn clock(&self) -> u64 {
        self.lock().clock_cycles
    }

    /// Sets the clock (used by code that tracks global simulated time).
    pub fn set_clock(&self, cycles: u64) {
        self.lock().clock_cycles = cycles;
    }

    /// Advances the clock by `cycles`.
    pub fn advance_clock(&self, cycles: u64) {
        self.lock().clock_cycles += cycles;
    }

    fn push(&self, ts: Option<u64>, phase: EventPhase, track: &str, name: &str, attrs: Vec<Attr>) {
        let mut inner = self.lock();
        let ts_cycles = ts.unwrap_or(inner.clock_cycles);
        inner.events.push(Event {
            ts_cycles,
            phase,
            track: track.to_string(),
            name: name.to_string(),
            attrs,
        });
    }

    /// Emits a [`EventPhase::SpanStart`] at the current clock (see
    /// [`Recorder::span`] for the RAII form).
    pub fn span_start(&self, track: &str, name: &str, attrs: Vec<Attr>) {
        self.push(None, EventPhase::SpanStart, track, name, attrs);
    }

    /// Emits a [`EventPhase::SpanEnd`] at the current clock.
    pub fn span_end(&self, track: &str, name: &str) {
        self.push(None, EventPhase::SpanEnd, track, name, Vec::new());
    }

    /// Emits an [`EventPhase::Instant`] at the current clock.
    pub fn instant(&self, track: &str, name: &str, attrs: Vec<Attr>) {
        self.push(None, EventPhase::Instant, track, name, attrs);
    }

    /// Emits an [`EventPhase::Counter`] sample at an explicit timestamp
    /// (e.g. occupancy sampled mid-timeslice, before the clock advances).
    pub fn counter_sample_at(&self, ts_cycles: u64, track: &str, name: &str, attrs: Vec<Attr>) {
        self.push(Some(ts_cycles), EventPhase::Counter, track, name, attrs);
    }

    /// Opens a span, closed when the returned guard drops, so spans close
    /// on every exit path.
    ///
    /// Track and name are `'static` by design — span names should be
    /// low-cardinality; put per-instance details in `attrs`.
    pub fn span(&self, track: &'static str, name: &'static str, attrs: Vec<Attr>) -> SpanGuard<'_> {
        self.span_start(track, name, attrs);
        SpanGuard {
            recorder: self,
            track,
            name,
        }
    }

    /// Adds to counter `name` in the hub.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.hub.counter(name).add(delta);
    }

    /// Sets gauge `name` in the hub.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.hub.gauge(name).set(value);
    }

    /// Records `value` at the current clock into the whole-run histogram
    /// `name` in the hub ([`MetricsHub::record_run`]).
    pub fn histogram_record(&self, name: &str, value: u64) {
        self.hub.record_run(name, self.clock(), value);
    }

    /// Takes the buffered events, with a snapshot of the hub at the current
    /// clock. The hub keeps its values; a second drain has no events.
    pub fn drain(&self) -> Snapshot {
        let (events, now) = {
            let mut inner = self.lock();
            (std::mem::take(&mut inner.events), inner.clock_cycles)
        };
        Snapshot {
            events,
            metrics: self.hub.snapshot(now),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// An open span on a [`Recorder`]: emits `SpanEnd` when dropped.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    track: &'static str,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.span_end(self.track, self.name);
    }
}

// ---------------------------------------------------------------------------
// Snapshot and export
// ---------------------------------------------------------------------------

/// Everything drained from a recorder: the event stream and a snapshot of
/// its metrics hub.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Buffered events in emission order.
    pub events: Vec<Event>,
    /// The hub's metrics document.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// The event stream as Chrome `trace_event` JSON (object format), with
    /// cycles converted to microseconds at [`TRACE_CLOCK_MHZ`]. Loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        serde_json::to_string_pretty(&chrome_trace_value(&self.events)).expect("trace serializes")
    }
}

fn attr_to_json(attr: &Attr) -> (String, serde::Value) {
    let value = match (&attr.num, &attr.text) {
        (Some(n), _) => serde_json::to_value(n).expect("f64 serializes"),
        (None, Some(t)) => serde::Value::String(t.clone()),
        (None, None) => serde::Value::Null,
    };
    (attr.key.clone(), value)
}

/// Builds the Chrome `trace_event` JSON value for an event stream.
///
/// Layout: one process (`pid` 1), one Perfetto thread per distinct event
/// track (named via `thread_name` metadata events), `ph` values `B`/`E`
/// for spans, `i` for instants, and `C` for counter samples.
pub fn chrome_trace_value(events: &[Event]) -> serde::Value {
    let mut tracks: Vec<&str> = Vec::new();
    for e in events {
        if !tracks.iter().any(|t| *t == e.track) {
            tracks.push(&e.track);
        }
    }
    let tid_of =
        |track: &str| -> u64 { tracks.iter().position(|t| *t == track).unwrap_or(0) as u64 + 1 };

    let mut trace_events: Vec<serde::Value> = Vec::new();
    // Thread-name metadata first, one per track.
    for track in &tracks {
        trace_events.push(serde::Value::Object(vec![
            ("name".into(), serde::Value::String("thread_name".into())),
            ("ph".into(), serde::Value::String("M".into())),
            ("pid".into(), serde_json::to_value(&1u64).unwrap()),
            ("tid".into(), serde_json::to_value(&tid_of(track)).unwrap()),
            (
                "args".into(),
                serde::Value::Object(vec![(
                    "name".into(),
                    serde::Value::String((*track).to_string()),
                )]),
            ),
        ]));
    }

    for e in events {
        let ts_us = e.ts_cycles as f64 / TRACE_CLOCK_MHZ as f64;
        let ph = match e.phase {
            EventPhase::SpanStart => "B",
            EventPhase::SpanEnd => "E",
            EventPhase::Instant => "i",
            EventPhase::Counter => "C",
        };
        let mut obj: Vec<(String, serde::Value)> = vec![
            ("name".into(), serde::Value::String(e.name.clone())),
            ("cat".into(), serde::Value::String(e.track.clone())),
            ("ph".into(), serde::Value::String(ph.into())),
            ("ts".into(), serde_json::to_value(&ts_us).unwrap()),
            ("pid".into(), serde_json::to_value(&1u64).unwrap()),
            (
                "tid".into(),
                serde_json::to_value(&tid_of(&e.track)).unwrap(),
            ),
        ];
        if e.phase == EventPhase::Instant {
            // Thread-scoped instant.
            obj.push(("s".into(), serde::Value::String("t".into())));
        }
        if !e.attrs.is_empty() {
            obj.push((
                "args".into(),
                serde::Value::Object(e.attrs.iter().map(attr_to_json).collect()),
            ));
        }
        trace_events.push(serde::Value::Object(obj));
    }

    serde::Value::Object(vec![
        ("traceEvents".into(), serde::Value::Array(trace_events)),
        ("displayTimeUnit".into(), serde::Value::String("ms".into())),
        (
            "otherData".into(),
            serde::Value::Object(vec![(
                "clockMHz".into(),
                serde_json::to_value(&TRACE_CLOCK_MHZ).unwrap(),
            )]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// The smtsim bridge observer
// ---------------------------------------------------------------------------

/// Bridges [`smtsim::Observer`] pipeline probes into a [`Recorder`]:
///
/// * timeslices become `smtsim.timeslice` spans and advance the recorder's
///   clock;
/// * per-cycle conflict events are aggregated locally (no lock in the cycle
///   loop) and flushed as `smtsim.conflict_cycles.<resource>` counters at
///   the timeslice boundary;
/// * sampled [`StageOccupancy`] snapshots become `C` (counter-track) events
///   with the pipeline-structure occupancies.
pub struct TelemetryObserver {
    recorder: Arc<Recorder>,
    /// Recorder clock at the current timeslice's cycle 0.
    base_cycle: u64,
    /// Conflict cycles this timeslice, indexed like [`Resource::ALL`].
    conflict_cycles: [u64; 7],
}

impl TelemetryObserver {
    /// A bridge observer recording into `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> Self {
        TelemetryObserver {
            recorder,
            base_cycle: 0,
            conflict_cycles: [0; 7],
        }
    }
}

impl Observer for TelemetryObserver {
    fn timeslice_start(&mut self, threads: usize, cycles: u64) {
        self.base_cycle = self.recorder.clock();
        self.conflict_cycles = [0; 7];
        self.recorder.span_start(
            "smtsim",
            "smtsim.timeslice",
            vec![
                Attr::num("threads", threads as f64),
                Attr::num("cycles", cycles as f64),
            ],
        );
    }

    fn conflict_cycle(&mut self, _cycle: u64, resource: Resource) {
        let idx = Resource::ALL
            .iter()
            .position(|&r| r == resource)
            .expect("resource in ALL");
        self.conflict_cycles[idx] += 1;
    }

    fn stage_occupancy(&mut self, occ: &StageOccupancy) {
        self.recorder.counter_sample_at(
            self.base_cycle + occ.cycle,
            "smtsim",
            "smtsim.occupancy",
            vec![
                Attr::num("decode", occ.decode as f64),
                Attr::num("int_queue", occ.int_queue as f64),
                Attr::num("fp_queue", occ.fp_queue as f64),
                Attr::num("int_regs", occ.int_regs_in_use as f64),
                Attr::num("fp_regs", occ.fp_regs_in_use as f64),
                Attr::num("inflight", occ.inflight as f64),
            ],
        );
    }

    fn timeslice_end(&mut self, stats: &TimesliceStats) {
        let r = &self.recorder;
        r.advance_clock(stats.cycles);
        r.counter_add("smtsim.cycles", stats.cycles);
        r.counter_add("smtsim.timeslices", 1);
        let committed = stats.total_committed();
        r.counter_add("smtsim.committed", committed);
        r.histogram_record("smtsim.timeslice_committed", committed);
        for (i, &res) in Resource::ALL.iter().enumerate() {
            if self.conflict_cycles[i] > 0 {
                r.counter_add(
                    &format!("smtsim.conflict_cycles.{res}"),
                    self.conflict_cycles[i],
                );
            }
        }
        r.span_end("smtsim", "smtsim.timeslice");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_recorder_is_empty() {
        let r = Recorder::new();
        let snap = r.drain();
        assert!(snap.events.is_empty());
        assert!(snap.metrics.counters.is_empty());
        assert!(snap.metrics.gauges.is_empty());
        assert!(snap.metrics.histograms.is_empty());
        assert_eq!(r.clock(), 0);
    }

    #[test]
    fn recorder_buffers_events_and_metrics() {
        let r = Recorder::new();
        r.advance_clock(50);
        r.span_start("track", "phase", vec![Attr::text("k", "v")]);
        r.advance_clock(25);
        r.instant("track", "tick", vec![Attr::num("n", 2.0)]);
        r.span_end("track", "phase");
        r.counter_add("jobs", 2);
        r.counter_add("jobs", 3);
        r.gauge_set("load", 0.75);
        r.histogram_record("lat", 100);
        r.histogram_record("lat", 3_000);

        let snap = r.drain();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].ts_cycles, 50);
        assert_eq!(snap.events[1].ts_cycles, 75);
        assert_eq!(snap.events[0].phase, EventPhase::SpanStart);
        assert_eq!(snap.events[2].phase, EventPhase::SpanEnd);

        let m = &snap.metrics;
        assert_eq!(m.counters.len() + m.gauges.len() + m.histograms.len(), 3);
        assert_eq!(m.counters["jobs"], 5);
        assert_eq!(m.gauges["load"], 0.75);
        let h = &m.histograms["lat"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 3_100);
        assert_eq!(m.now_cycles, 75);

        // Drained: a second drain has no events.
        assert!(r.drain().events.is_empty());
    }

    #[test]
    fn recorder_metrics_share_the_given_hub() {
        let hub = Arc::new(MetricsHub::new());
        let r = Recorder::with_hub(Arc::clone(&hub));
        r.counter_add("smtsim.cycles", 7);
        assert_eq!(hub.counter("smtsim.cycles").get(), 7);
        assert!(Arc::ptr_eq(r.hub(), &hub));
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let r = Recorder::new();
        {
            let _g = r.span("scheduler", "outer", vec![]);
            r.instant("scheduler", "mid", vec![]);
        }
        let snap = r.drain();
        let phases: Vec<EventPhase> = snap.events.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![
                EventPhase::SpanStart,
                EventPhase::Instant,
                EventPhase::SpanEnd
            ]
        );
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let events = vec![
            Event {
                ts_cycles: 1_000,
                phase: EventPhase::SpanStart,
                track: "scheduler".into(),
                name: "phase".into(),
                attrs: vec![Attr::text("spec", "Jsb(6,3,3)")],
            },
            Event {
                ts_cycles: 1_500,
                phase: EventPhase::Counter,
                track: "smtsim".into(),
                name: "occupancy".into(),
                attrs: vec![Attr::num("int_queue", 12.0)],
            },
            Event {
                ts_cycles: 2_000,
                phase: EventPhase::SpanEnd,
                track: "scheduler".into(),
                name: "phase".into(),
                attrs: vec![],
            },
        ];
        let value = chrome_trace_value(&events);
        let top = value.as_object().unwrap();
        let trace_events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .unwrap()
            .1
            .as_array()
            .unwrap();
        // 2 thread_name metadata + 3 events.
        assert_eq!(trace_events.len(), 5);
        let get = |v: &serde::Value, k: &str| v.get(k).cloned().unwrap();
        // Metadata first.
        assert_eq!(get(&trace_events[0], "ph").as_str(), Some("M"));
        // Span start: ph B, ts in µs at 500 cycles/µs.
        let b = &trace_events[2];
        assert_eq!(get(b, "ph").as_str(), Some("B"));
        assert_eq!(get(b, "ts").as_f64(), Some(2.0));
        // Tracks map to distinct tids.
        assert_ne!(
            get(&trace_events[2], "tid").as_u64(),
            get(&trace_events[3], "tid").as_u64()
        );
    }

    #[test]
    fn jsonl_round_trips_events_and_metrics() {
        let e = Event {
            ts_cycles: 42,
            phase: EventPhase::Instant,
            track: "opensys".into(),
            name: "arrival".into(),
            attrs: vec![Attr::num("job", 3.0), Attr::text("bench", "gcc")],
        };
        let line = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, e);

        let r = Recorder::new();
        r.histogram_record("lat", 77);
        let metrics = r.drain().metrics;
        let line = serde_json::to_string(&metrics).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn telemetry_observer_bridges_pipeline_events() {
        use smtsim::{MachineConfig, Processor};

        struct Alu {
            pc: u64,
        }
        impl smtsim::trace::InstructionSource for Alu {
            fn next_instr(&mut self) -> smtsim::Fetch {
                self.pc += 4;
                smtsim::Fetch::Instr(smtsim::Instr::int_alu(self.pc, 0))
            }
            fn id(&self) -> smtsim::StreamId {
                smtsim::StreamId(0)
            }
        }

        let recorder = Arc::new(Recorder::new());
        let mut p = Processor::new(MachineConfig::alpha21264_like(2));
        p.set_observer(Box::new(TelemetryObserver::new(Arc::clone(&recorder))));
        p.set_occupancy_interval(500);
        let mut job = Alu { pc: 0 };
        let _ = p.run_timeslice(&mut [&mut job], 2_000);
        let _ = p.run_timeslice(&mut [&mut job], 2_000);
        let snap = recorder.drain();

        assert_eq!(recorder.clock() % 4_000, 0);
        let starts = snap
            .events
            .iter()
            .filter(|e| e.name == "smtsim.timeslice" && e.phase == EventPhase::SpanStart)
            .count();
        assert_eq!(starts, 2);
        // Second timeslice's span starts at the advanced clock.
        let start_ts: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.name == "smtsim.timeslice" && e.phase == EventPhase::SpanStart)
            .map(|e| e.ts_cycles)
            .collect();
        assert_eq!(start_ts, vec![0, 2_000]);
        // Occupancy counter samples: 4 per slice (cycles 0, 500, 1000, 1500).
        let occ = snap
            .events
            .iter()
            .filter(|e| e.name == "smtsim.occupancy")
            .count();
        assert_eq!(occ, 8);
        assert_eq!(snap.metrics.counters["smtsim.cycles"], 4_000);
    }
}
