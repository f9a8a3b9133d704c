//! `sos-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed-paper|cluster-fast|serve-paced \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload generates its inputs from
//! the seed, measures for about `--seconds`, checks its outputs and prints
//! every metric by name with its unit, then one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, holding the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. The traced run additionally prints a layer table and writes
//! its spans to `perfbench/out/`.
//!
//! Every layer is measured from outside: the benchmark times its own calls
//! into each crate's public functions and reads counters the crates already
//! expose.

mod closed;
mod cluster;
mod host;
mod jobs;
mod layers;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: what a user of each workload sees. Every workload
/// reports all of them. Throughput counts completed experiments
/// (`closed-paper`) or jobs (`cluster-fast`, `serve-paced`); the latency
/// tail is of the call a client waits on: one `evaluate_experiment`, one
/// cluster round (`ClusterEngine::step`), or one submit-then-read exchange
/// timed from when the submit was due. The median latency of the same call
/// is `latency_p50_ms` among the per-layer metrics: on `cluster-fast` a
/// round's host time runs evenly from near zero (every slice extrapolated)
/// to a fully detailed round, so its median moves with which rounds happen
/// to extrapolate, and over ten seeds it spread by 0.17 to 0.32 of its
/// median, too close to any bound to gate on.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, plus each workload's own named end-to-end figures.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("latency_p50_ms", "ms"),
    ("experiments_per_min", "1/min"),
    ("sos_gain_pct", "%"),
    ("jobs_per_s", "1/s"),
    ("aggregate_ws", "ratio"),
    ("response_p50_kcycles", "kcycles"),
    ("response_tail_kcycles", "kcycles"),
    ("submit_p50_ms", "ms"),
    ("submit_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("smtsim.detailed_cycles", "cycles"),
    ("smtsim.ns_per_cycle", "ns"),
    ("smtsim.ipc", "instr/cycle"),
    ("smtsim.dl1_miss_pct", "%"),
    ("smtsim.l2_miss_pct", "%"),
    ("smtsim.conflict_pct", "%"),
    ("workloads.instrs", "count"),
    ("workloads.ns_per_instr", "ns"),
    ("fastsim.detailed_slices", "count"),
    ("fastsim.extrapolated_slices", "count"),
    ("fastsim.extrapolated_share", "ratio"),
    ("fastsim.fallbacks", "count"),
    ("fastsim.resyncs", "count"),
    ("cluster.detailed_cycles", "cycles"),
    ("cluster.extrapolated_cycles", "cycles"),
    ("cluster.idle_cycles", "cycles"),
    ("sos.calibrate_s", "s"),
    ("sos.sample_s", "s"),
    ("sos.predict_us", "us"),
    ("sos.symbios_s", "s"),
    ("sos.candidates", "count"),
    ("par.busy_share", "ratio"),
    ("par.straggler_ratio", "ratio"),
    ("online.timeslices", "count"),
    ("online.sampling_slices", "count"),
    ("online.resamples", "count"),
    ("cluster.rounds", "count"),
    ("cluster.round_ms_p50", "ms"),
    ("cluster.round_ms_tail", "ms"),
    ("cluster.dispatch_us", "us"),
    ("cluster.idle_shard_share", "ratio"),
    ("cluster.migrations", "count"),
    ("serve.handle_us.submit", "us"),
    ("serve.handle_us.read", "us"),
    ("serve.outside_handler_ms", "ms"),
    ("serve.lateness_ms", "ms"),
    ("serve.backpressure", "count"),
    ("serve.snapshot_write_us", "us"),
    ("metrics.exposition_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: [&str; 3] = ["closed-paper", "cluster-fast", "serve-paced"];

/// Parsed command line.
pub struct Args {
    /// When `main` began: the process start, as near as the process can
    /// tell.
    pub started: std::time::Instant,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The repository root (the working directory).
    pub root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let started = std::time::Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if !root.join("crates").is_dir() {
        return Err("run from the repository root (no crates/ here)".into());
    }
    Ok(Args {
        started,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        root,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// Digest of the simulated results: equal across runs of one commit
    /// and seed, and across speed-only changes.
    pub digest: host::Fnv,
    pub values: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
    pub table: Option<spans::LayerTable>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The `k`-th seed derived from the run seed (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sets `latency_p50_ms` and `latency_tail_ms` from the latencies of the
/// workload's blocking call (`what`), given as consecutive parts of the
/// run. The p50 is the median of all samples. The tail is the median
/// across parts of each part's own tail, so a slow stretch of host time
/// sets at most the tails of the parts it falls in; a part's tail falls
/// back to its maximum when it has ten or fewer samples.
pub fn set_latency(out: &mut Outcome, what: &str, parts: &[Vec<f64>]) {
    let all: Vec<f64> = parts.concat();
    let tails: Vec<f64> = parts
        .iter()
        .map(|p| stats::tail(p).map_or_else(|| p.iter().copied().fold(0.0, f64::max), |t| t.value))
        .collect();
    out.set("latency_p50_ms", stats::median(&all));
    out.set("latency_tail_ms", stats::median(&tails));
    for (i, p) in parts.iter().enumerate() {
        let label = if parts.len() == 1 {
            format!("latency ({what})")
        } else {
            format!("latency ({what}), part {} of {}", i + 1, parts.len())
        };
        out.lines.push(stats::describe(&label, "ms", p));
    }
}

/// Ends a traced run: keeps the layer table, sets the unattributed share
/// and the span count, and writes the spans as a Chrome trace under
/// `perfbench/out/`.
pub fn finish_trace(
    args: &Args,
    spans: &spans::Spans,
    table: spans::LayerTable,
    out: &mut Outcome,
) {
    out.set(
        "trace.unattributed_share",
        table.unattributed_ns as f64 / table.wall_ns.max(1) as f64,
    );
    out.table = Some(table);
    out.set("trace.spans", spans.snapshot().len() as f64);
    let dir = args.root.join("perfbench").join("out");
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.chrome_trace()));
    match written {
        Ok(()) => out
            .lines
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .lines
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sos-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# sos-perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "closed-paper" => closed::run(&args, &mut out),
        "cluster-fast" => cluster::run(&args, &mut out),
        "serve-paced" => serve::run(&args, &mut out),
        _ => unreachable!("workload validated in parse_args"),
    }
    println!("{}", host::Fingerprint::collect(&args.root).line());
    for line in &out.lines {
        println!("{line}");
    }
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "PASS" } else { "FAIL" });
    }
    println!(
        "operations: attempted {} failed {}",
        out.attempted, out.failed
    );
    println!("digest of simulated results: {:016x}", out.digest.finish());
    for (set, names) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (name, unit) in names {
            if let Some(v) = out.values.get(name) {
                println!("{set} {name} = {v:.6} {unit}");
            }
        }
    }
    if let Some(table) = &out.table {
        println!("layer table (self time per layer; traced run):");
        for line in table.lines() {
            println!("  {line}");
        }
        if let Some(pct) = out.values.get("trace.overhead_pct") {
            println!(
                "  tracing overhead: {pct:+.2}% (traced against untraced time of the same work)"
            );
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(&out, names));
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde_json::JsonValue = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("setup_s", 0.25);
        let line = result_json(&out, &END_TO_END);
        let v: serde_json::JsonValue = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn tail_is_the_median_across_parts() {
        // Three parts of 20 samples; the last ran on a slow host.
        let part = |scale: f64| -> Vec<f64> { (1..=20).map(|i| scale * f64::from(i)).collect() };
        let mut out = Outcome::default();
        set_latency(&mut out, "call", &[part(1.0), part(1.1), part(5.0)]);
        // Tails (10th largest of each part) 10, 11, 50; the pooled tail
        // (50th of 60) would be 35.
        assert!((out.values["latency_tail_ms"] - 11.0).abs() < 1e-9);
        // The p50 is the median of all 60 samples (30th and 31st smallest
        // are both 15).
        assert_eq!(out.values["latency_p50_ms"], 15.0);
        // A part with ten or fewer samples falls back to its maximum.
        let mut out = Outcome::default();
        set_latency(&mut out, "call", &[vec![3.0, 9.0, 6.0]]);
        assert_eq!(out.values["latency_tail_ms"], 9.0);
        assert_eq!(out.values["latency_p50_ms"], 6.0);
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(1, 0), sub_seed(1, 0));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
