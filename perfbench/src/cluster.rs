//! `cluster-fast`: a seeded arrival trace over every job kind, a quarter of
//! the jobs phased, replayed through a 2-shard [`ClusterEngine`] with
//! symbiosis dispatch and stealing, the SOS policy, and phase-aware fast
//! simulation on. The benchmark drives the engine with its own
//! `submit`/`step`/`jump_to` loop, following `run_cluster_on_trace`, and
//! times each call.
//!
//! Each pass replays the same trace on a fresh engine; every pass must
//! complete every job and produce a byte-identical `ClusterReport`.

use crate::spans::{self, Spans};
use crate::{jobs, stats, sub_seed, Args, Outcome};
use smtsim::FastSimPolicy;
use sos_core::cluster::{ClusterConfig, ClusterEngine, ClusterReport, DispatchPolicy};
use sos_core::metrics::MetricsHub;
use sos_core::online::{OnlineConfig, SchedulerKind};
use sos_core::opensys::{calibrate_benchmarks, JobArrival};
use sos_core::PredictorKind;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::spec::Benchmark;

pub const SHARDS: usize = 2;
pub const SMT: usize = 4;
pub const TIMESLICE: u64 = 5_000;
/// Jobs in the trace.
pub const JOBS: usize = 144;
/// Job solo lengths, in cycles: uniform on this range. A skewed length
/// distribution would let a few long jobs, running alone at the end of
/// the trace, decide how much of a pass fast simulation extrapolates.
pub const JOB_CYCLES: (f64, f64) = (600_000.0, 1_800_000.0);
/// Mean gap between arrivals, in cycles.
pub const MEAN_GAP_CYCLES: f64 = 400_000.0;
pub const PHASED_SHARE: f64 = 0.25;
/// Solo-IPC calibration window per job kind, in cycles.
pub const CALIBRATION_CYCLES: u64 = 60_000;
/// Seed of the solo-IPC calibration: a property of the machine, not of
/// the trace, so it is the same for every run seed.
pub const CALIBRATION_SEED: u64 = 0x5E54E;
/// Least consecutive step rounds per latency window. The tail is taken per
/// window and the median across windows is reported, so a few seconds of
/// slow host time set at most one window's tail; a window of 250 rounds
/// puts the tail at p96.
pub const WINDOW_ROUNDS: usize = 250;
/// Repetitions of the set-up whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

fn config(seed: u64) -> ClusterConfig {
    let shard = OnlineConfig {
        smt: SMT,
        timeslice: TIMESLICE,
        sample_schedules: 6,
        predictor: PredictorKind::Ipc,
        drift_threshold: Some(0.35),
        base_interval: 500_000,
        seed,
        fastsim: Some(FastSimPolicy::default()),
        learn: None,
    };
    let mut cfg = ClusterConfig::new(SHARDS, DispatchPolicy::Symbiosis, SchedulerKind::Sos, shard);
    cfg.slices_per_round = 8;
    cfg.rebalance_every = 8;
    cfg.steal_threshold = 4;
    cfg
}

/// A fresh engine reporting into a fresh metrics hub.
fn engine(cfg: &ClusterConfig, solo: &HashMap<Benchmark, f64>) -> (ClusterEngine, Arc<MetricsHub>) {
    let hub = Arc::new(MetricsHub::new());
    let mut e = ClusterEngine::with_metrics(cfg, Some(&hub));
    e.set_solo_ipc(solo.clone());
    (e, hub)
}

/// What one replay of the trace measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    completed: usize,
    /// Host time from each job's submit call to the end of the step that
    /// reported it departed, in ms.
    job_ms: Vec<f64>,
    round_ms: Vec<f64>,
    submit_us: Vec<f64>,
    shard_rounds: u64,
    idle_shard_rounds: u64,
    report: Option<ClusterReport>,
    counters: HashMap<String, u64>,
}

impl Pass {
    /// The pass's `ClusterReport` as JSON; it holds no wall-clock field, so
    /// replays of one trace must agree byte for byte.
    fn report_json(&self) -> Option<String> {
        self.report
            .as_ref()
            .map(|r| serde_json::to_string(r).expect("reports serialize"))
    }
}

/// Replays `trace` on `engine`: submit the arrivals that are due, step
/// while any job is live, jump across idle gaps, until every job departed.
fn replay(
    mut engine: ClusterEngine,
    hub: &MetricsHub,
    trace: &[JobArrival],
    spans: Option<&Spans>,
) -> Pass {
    let index: HashMap<u64, usize> = trace
        .iter()
        .enumerate()
        .map(|(i, j)| (j.arrival, i))
        .collect();
    let mut submitted_at = vec![None; trace.len()];
    let mut p = Pass::default();
    let mut next = 0;
    let mut round = 0u64;
    let started = Instant::now();
    while next < trace.len() || engine.live_count() > 0 {
        while next < trace.len() && trace[next].arrival <= engine.now() {
            let t = Instant::now();
            engine.submit(trace[next].clone());
            let end = Instant::now();
            if let Some(s) = spans {
                s.record("cluster.dispatch", "submit", next as u64, None, t, end);
            }
            p.submit_us.push(end.duration_since(t).as_secs_f64() * 1e6);
            submitted_at[next] = Some(t);
            next += 1;
        }
        if engine.live_count() == 0 {
            if next < trace.len() {
                let t = Instant::now();
                engine.jump_to(trace[next].arrival);
                if let Some(s) = spans {
                    s.record("cluster.jump", "jump_to", round, None, t, Instant::now());
                }
            }
            continue;
        }
        let t = Instant::now();
        let departed = engine.step();
        let end = Instant::now();
        if let Some(s) = spans {
            s.record("cluster.round", "step", round, None, t, end);
        }
        round += 1;
        p.round_ms.push(end.duration_since(t).as_secs_f64() * 1e3);
        let depths = engine.shard_depths();
        p.shard_rounds += depths.len() as u64;
        p.idle_shard_rounds += depths.iter().filter(|&&d| d == 0).count() as u64;
        for rec in departed {
            p.completed += 1;
            if let Some(at) = index
                .get(&rec.arrival.arrival)
                .and_then(|&i| submitted_at[i])
            {
                p.job_ms.push(end.duration_since(at).as_secs_f64() * 1e3);
            }
        }
    }
    p.wall_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = engine.report();
    if let Some(s) = spans {
        s.record("cluster.report", "report", round, None, t, Instant::now());
    }
    p.counters = hub
        .snapshot(report.now_cycles)
        .counters
        .into_iter()
        .collect();
    p.report = Some(report);
    p
}

/// Each pass's step-round latencies cut into consecutive windows of
/// [`WINDOW_ROUNDS`] to just under twice that (a shorter pass is one
/// window), so every round falls in exactly one window.
fn windows(passes: &[Pass]) -> Vec<Vec<f64>> {
    passes
        .iter()
        .flat_map(|p| {
            let n = p.round_ms.len();
            let k = (n / WINDOW_ROUNDS).max(1);
            (0..k).map(move |j| p.round_ms[j * n / k..(j + 1) * n / k].to_vec())
        })
        .collect()
}

/// Sum of a per-shard engine counter (`cluster.shard<i>.<name>`).
fn shard_total(counters: &HashMap<String, u64>, name: &str) -> u64 {
    (0..SHARDS)
        .map(|s| {
            counters
                .get(&format!("cluster.shard{s}.{name}"))
                .copied()
                .unwrap_or(0)
        })
        .sum()
}

pub fn run(args: &Args, out: &mut Outcome) {
    sos_core::cache::disable();
    let cfg = config(sub_seed(args.seed, 0));
    // Set-up: calibrate solo IPC and build the engine, repeated.
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t = Instant::now();
        let solo = calibrate_benchmarks(SMT, CALIBRATION_CYCLES, CALIBRATION_SEED);
        let e = engine(&cfg, &solo);
        setup.push(t.elapsed().as_secs_f64());
        ready = Some((solo, e));
    }
    let (solo, first_engine) = ready.expect("set-up ran");
    out.set("setup_s", stats::median(&setup));
    let trace = jobs::arrivals(
        jobs::uniform_quantiles(JOBS, JOB_CYCLES.0, JOB_CYCLES.1),
        MEAN_GAP_CYCLES,
        PHASED_SHARE,
        sub_seed(args.seed, 1),
        &solo,
    );
    out.lines.push(format!(
        "trace: {JOBS} jobs, {}..{} solo cycles, mean gap {MEAN_GAP_CYCLES} cycles, {:.0}% phased; {SHARDS} shards x SMT {SMT}, timeslice {TIMESLICE}, symbiosis dispatch, SOS, fastsim on",
        JOB_CYCLES.0,
        JOB_CYCLES.1,
        PHASED_SHARE * 100.0
    ));

    // Timed passes until the run's seconds are up.
    let mut passes: Vec<Pass> = Vec::new();
    let mut pending = Some(first_engine);
    let mut spent = 0.0;
    while passes.is_empty() || spent < args.seconds {
        let (e, hub) = pending.take().unwrap_or_else(|| engine(&cfg, &solo));
        let p = replay(e, &hub, &trace, None);
        spent += p.wall_s;
        passes.push(p);
    }
    let first = &passes[0];
    let report = first.report.as_ref().expect("replay reports");
    let json = first.report_json().expect("replay reports");
    out.digest.write(json.as_bytes());
    let identical = passes
        .iter()
        .all(|p| p.report_json().as_ref() == Some(&json));
    for p in &passes {
        out.attempted += trace.len() as u64;
        out.failed += (trace.len() - p.completed.min(trace.len())) as u64;
    }
    out.check(
        "every submitted job completes",
        passes.iter().all(|p| p.completed == trace.len()) && report.completed == trace.len() as u64,
    );
    out.check(
        format!(
            "ClusterReport byte-identical across {} pass(es)",
            passes.len()
        ),
        identical,
    );
    out.check(
        "evaluation cache served no hits",
        sos_core::cache::stats().hits == 0,
    );

    let completed: usize = passes.iter().map(|p| p.completed).sum();
    out.set("throughput_per_s", completed as f64 / spent);
    out.set("jobs_per_s", completed as f64 / spent);
    let rounds: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.round_ms.iter().copied())
        .collect();
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_ms.iter().copied())
        .collect();
    crate::set_latency(out, "ClusterEngine::step", &windows(&passes));
    out.lines.push(stats::describe(
        "job host turnaround (submit to departure)",
        "ms",
        &job_ms,
    ));
    out.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
    );
    let pass_s: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    out.lines.push(format!(
        "passes: {} over {spent:.2} s ({} s each)",
        passes.len(),
        pass_s.join(", ")
    ));

    // Simulated results (exact): weighted speedup and response times.
    let responses: Vec<f64> = report
        .per_shard
        .iter()
        .flat_map(|s| s.records.iter())
        .map(|r| r.response() as f64 / 1e3)
        .collect();
    out.set("aggregate_ws", report.aggregate_ws);
    out.set("response_p50_kcycles", stats::median(&responses));
    out.set(
        "response_tail_kcycles",
        stats::tail(&responses).map_or(0.0, |t| t.value),
    );
    out.lines
        .push(stats::describe("job response", "kcycles", &responses));

    // Cycle split, each on its own: never summed into "simulated work".
    let busy: u64 = report.per_shard.iter().map(|s| s.timeslices).sum();
    let extrapolated: u64 = report.per_shard.iter().map(|s| s.extrapolated_slices).sum();
    let idle: u64 = report
        .per_shard
        .iter()
        .map(|s| s.now_cycles.saturating_sub(s.timeslices * TIMESLICE))
        .sum();
    let detailed_cycles = (busy - extrapolated) * TIMESLICE;
    out.set("cluster.detailed_cycles", detailed_cycles as f64);
    out.set(
        "cluster.extrapolated_cycles",
        (extrapolated * TIMESLICE) as f64,
    );
    out.set("cluster.idle_cycles", idle as f64);
    out.set("smtsim.detailed_cycles", detailed_cycles as f64);
    out.lines.push(format!(
        "cycles: detailed {} extrapolated {} idle-skipped {} (makespan {} per shard)",
        detailed_cycles,
        extrapolated * TIMESLICE,
        idle,
        report.now_cycles
    ));
    out.set("fastsim.detailed_slices", (busy - extrapolated) as f64);
    out.set("fastsim.extrapolated_slices", extrapolated as f64);
    out.set(
        "fastsim.extrapolated_share",
        extrapolated as f64 / busy.max(1) as f64,
    );
    out.set(
        "fastsim.fallbacks",
        shard_total(&first.counters, "fastsim_fallbacks") as f64,
    );
    out.set(
        "fastsim.resyncs",
        shard_total(&first.counters, "fastsim_resyncs") as f64,
    );
    out.set(
        "online.timeslices",
        shard_total(&first.counters, "timeslices") as f64,
    );
    out.set(
        "online.sampling_slices",
        shard_total(&first.counters, "sampling_slices") as f64,
    );
    out.set(
        "online.resamples",
        shard_total(&first.counters, "resamples") as f64,
    );

    let submits: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.submit_us.iter().copied())
        .collect();
    out.set("cluster.rounds", first.round_ms.len() as f64);
    out.set("cluster.round_ms_p50", stats::median(&rounds));
    out.set(
        "cluster.round_ms_tail",
        stats::tail(&rounds).map_or(0.0, |t| t.value),
    );
    out.set("cluster.dispatch_us", stats::mean(&submits));
    out.set(
        "cluster.idle_shard_share",
        first.idle_shard_rounds as f64 / first.shard_rounds.max(1) as f64,
    );
    out.set("cluster.migrations", report.migrations as f64);

    if args.trace {
        let spans = Spans::new();
        let (e, hub) = engine(&cfg, &solo);
        let t = Instant::now();
        let traced = replay(e, &hub, &trace, Some(&spans));
        let wall_ns = t.elapsed().as_nanos() as u64;
        out.check(
            "traced pass reproduces the ClusterReport",
            traced.report_json() == Some(json),
        );
        let untraced: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        out.set(
            "trace.overhead_pct",
            100.0 * (traced.wall_s / stats::median(&untraced) - 1.0),
        );
        let table = spans::layer_table(&spans.snapshot(), wall_ns);
        crate::finish_trace(args, &spans, table, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_every_round_of_each_pass() {
        let pass = |n: usize| Pass {
            round_ms: (0..n).map(|i| i as f64).collect(),
            ..Pass::default()
        };
        let w = windows(&[pass(2 * WINDOW_ROUNDS + 7), pass(WINDOW_ROUNDS / 2)]);
        let sizes: Vec<usize> = w.iter().map(Vec::len).collect();
        assert_eq!(
            sizes,
            [WINDOW_ROUNDS + 3, WINDOW_ROUNDS + 4, WINDOW_ROUNDS / 2]
        );
        assert_eq!(w[1][0], (WINDOW_ROUNDS + 3) as f64);
        assert_eq!(w[2][0], 0.0);
    }
}
