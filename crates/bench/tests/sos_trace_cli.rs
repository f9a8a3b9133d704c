//! End-to-end test for the `sos-trace` binary: run a small experiment and
//! validate that the metrics document parses as a `MetricsSnapshot`, the
//! events JSONL parses line by line, and the Chrome trace is structurally
//! Perfetto-loadable (object format, `traceEvents` array, known `ph` codes,
//! balanced B/E spans).

use sos_core::metrics::MetricsSnapshot;
use sos_core::telemetry::Event;
use std::process::Command;

#[test]
fn sos_trace_produces_valid_jsonl_and_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("sos-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.json");
    let events_path = dir.join("events.jsonl");

    // Aggressively scaled down: the test binary is a debug build, so keep
    // the simulated-cycle budget tiny. The telemetry structure under test is
    // identical at any scale.
    let output = Command::new(env!("CARGO_BIN_EXE_sos-trace"))
        .arg("--scale")
        .arg("100000")
        .arg("--calibration")
        .arg("4000")
        .arg("--trace")
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .arg("--events")
        .arg(&events_path)
        .arg("Jsb(6,3,3)")
        .output()
        .expect("sos-trace runs");
    assert!(
        output.status.success(),
        "sos-trace failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Jsb(6,3,3)"), "{stdout}");

    // Metrics: one MetricsSnapshot document, the `metrics` verb's shape.
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics file");
    let metrics: MetricsSnapshot =
        serde_json::from_str(metrics_text.trim_end()).expect("metrics document parses");
    assert!(!metrics.counters.is_empty());
    assert!(metrics.counters.contains_key("smtsim.cycles"));
    assert!(metrics.counters.contains_key("sos.experiments"));

    // Events: every line is a self-contained Event object.
    let events_text = std::fs::read_to_string(&events_path).expect("events file");
    let mut events = 0usize;
    for line in events_text.lines() {
        let _e: Event = serde_json::from_str(line).expect("event line parses");
        events += 1;
    }
    assert!(events > 0);

    // Chrome trace: object format with a traceEvents array whose entries all
    // carry a known phase code, and whose B/E events balance.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace file");
    let trace: serde::Value = serde_json::from_str(&trace_text).expect("trace parses");
    let top = trace.as_object().expect("trace is an object");
    assert!(top.iter().any(|(k, _)| k == "traceEvents"));
    let trace_events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents is an array");
    assert!(!trace_events.is_empty());
    let (mut begins, mut ends) = (0u64, 0u64);
    for entry in trace_events {
        let ph = entry
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("entry has ph");
        assert!(
            matches!(ph, "B" | "E" | "i" | "C" | "M"),
            "unknown phase {ph}"
        );
        assert!(entry.get("pid").is_some());
        assert!(entry.get("tid").is_some());
        if ph != "M" {
            assert!(entry.get("ts").and_then(|v| v.as_f64()).is_some());
        }
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            _ => {}
        }
    }
    assert!(begins > 0);
    assert_eq!(begins, ends, "unbalanced spans in Chrome trace");

    std::fs::remove_dir_all(&dir).ok();
}
