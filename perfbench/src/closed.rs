//! `closed-paper`: the paper's evaluation protocol,
//! [`SosScheduler::evaluate_experiment`], in full detail with the
//! evaluation cache off, over Table 3's single-threaded `Jsb(6,3,3)` and
//! the tight-barrier parallel `Jpb(10,2,2)`, at the configuration the
//! figure and table harnesses use (`SosConfig::default()`: 1/1000 of the
//! paper's cycle counts, 60 000 calibration cycles).
//!
//! The run evaluates pairs (one `Jsb(6,3,3)`, one `Jpb(10,2,2)`) under
//! seeds derived from the run seed, whole pairs only, so every run weighs
//! the two experiments equally, until the run's seconds are up. Once the
//! list of pairs is used up it starts over; every repeat must reproduce
//! the first report exactly.

use crate::layers::{self, SimCounters};
use crate::spans::{self, Spans};
use crate::stats;
use crate::{sub_seed, Args, Outcome};
use sos_core::cache::SymbiosEval;
use sos_core::runner::RotationStats;
use sos_core::sos::ExperimentReport;
use sos_core::{par, ExperimentSpec, PredictorKind, ScheduleSample, SosConfig, SosScheduler};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The experiments of one pair, in paper notation.
pub const SPECS: [&str; 2] = ["Jsb(6,3,3)", "Jpb(10,2,2)"];
/// Derived seeds, one pair each, before the list starts over.
pub const SUB_SEEDS: u64 = 8;

/// The pairs: both experiments under each derived seed, interleaved.
pub fn inputs(seed: u64) -> Vec<(ExperimentSpec, SosConfig)> {
    let mut out = Vec::new();
    for k in 0..SUB_SEEDS {
        for label in SPECS {
            let spec: ExperimentSpec = label.parse().expect("SPECS are valid paper labels");
            let cfg = SosConfig {
                seed: sub_seed(seed, k),
                ..SosConfig::default()
            };
            out.push((spec, cfg));
        }
    }
    out
}

/// Set-up of a `closed-paper` process before its first timed operation:
/// turn the evaluation cache off and build the inputs.
pub fn prepare(seed: u64) -> Vec<(ExperimentSpec, SosConfig)> {
    sos_core::cache::disable();
    inputs(seed)
}

/// Output checks on one report; returns the first problem found.
fn check_report(r: &ExperimentReport) -> Result<(), String> {
    let n = r.candidates.len();
    if n == 0 {
        return Err("no candidates".into());
    }
    if r.samples.len() != n || r.symbios_ws.len() != n || r.sample_ws.len() != n {
        return Err("per-candidate vectors disagree in length".into());
    }
    if let Some(ws) = r
        .symbios_ws
        .iter()
        .chain(&r.sample_ws)
        .find(|w| !(w.is_finite() && **w > 0.0))
    {
        return Err(format!("non-finite or non-positive WS {ws}"));
    }
    if r.solo.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
        return Err("non-finite solo IPC".into());
    }
    for p in PredictorKind::ALL {
        match r.picks.iter().find(|(q, _)| *q == p) {
            Some((_, i)) if *i < n => {}
            Some((_, i)) => return Err(format!("{} picked candidate {i} of {n}", p.name())),
            None => return Err(format!("{} made no pick", p.name())),
        }
    }
    Ok(())
}

/// `(WS of the Score pick - average WS) / average WS`, in percent.
fn sos_gain_pct(r: &ExperimentReport) -> f64 {
    let avg = r.average_ws();
    100.0 * (r.ws_with(PredictorKind::Score) - avg) / avg
}

fn evaluate(spec: &ExperimentSpec, cfg: &SosConfig) -> Result<ExperimentReport, String> {
    let report = catch_unwind(AssertUnwindSafe(|| {
        SosScheduler::evaluate_experiment(spec, cfg)
    }))
    .map_err(|_| "evaluate_experiment panicked".to_string())?;
    check_report(&report)?;
    Ok(report)
}

fn report_json(r: &ExperimentReport) -> String {
    serde_json::to_string(r).expect("reports serialize")
}

pub fn run(args: &Args, out: &mut Outcome) {
    // Set-up: from the start of `main` to the first timed operation, taken
    // once and cold, as a process start pays it. Repeated within one
    // process, the warm set-up takes about 2 or 3.4 microseconds depending
    // on the process, too bimodal for a bound to hold.
    let experiments = prepare(args.seed);
    out.set("setup_s", args.started.elapsed().as_secs_f64());
    let default = SosConfig::default();
    out.lines.push(format!(
        "pairs: {} under {} derived seeds at 1/{} scale, calibration {} cycles, {} workers; whole pairs only",
        SPECS.join(" + "),
        SUB_SEEDS,
        default.cycle_scale,
        default.calibration_cycles,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));

    // Timed: whole pairs until time is up, starting over when the list
    // runs out.
    let mut first: Vec<Option<String>> = vec![None; experiments.len()];
    let mut gains = Vec::new();
    let mut durations_ms = Vec::new();
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut elapsed = 0.0;
    let mut next = 0;
    while elapsed < args.seconds || next % SPECS.len() != 0 {
        let i = next % experiments.len();
        next += 1;
        let (spec, cfg) = &experiments[i];
        let t = Instant::now();
        let result = evaluate(spec, cfg);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        durations_ms.push(ms);
        out.lines.push(format!(
            "evaluated {spec} seed {:#018x} in {ms:.1} ms",
            cfg.seed
        ));
        out.attempted += 1;
        match result {
            Err(e) => {
                out.failed += 1;
                problems.push(format!("{spec} seed {:#x}: {e}", cfg.seed));
            }
            Ok(report) => {
                let json = report_json(&report);
                match &first[i] {
                    None => {
                        out.digest.write(json.as_bytes());
                        gains.push(sos_gain_pct(&report));
                        first[i] = Some(json);
                    }
                    Some(j) if *j == json => {}
                    Some(_) => {
                        out.failed += 1;
                        problems.push(format!("{spec} seed {:#x}: repeat differs", cfg.seed));
                    }
                }
            }
        }
        elapsed = started.elapsed().as_secs_f64();
    }
    let cache = sos_core::cache::stats();
    out.check("evaluation cache served no hits", cache.hits == 0);
    out.check("every WS finite and every pick valid", problems.is_empty());
    for p in problems.iter().take(5) {
        out.lines.push(format!("problem: {p}"));
    }
    let done = out.attempted as f64;
    out.set("throughput_per_s", done / elapsed);
    out.set("experiments_per_min", 60.0 * done / elapsed);
    // One part per pair: the tail is the median over pairs of the slower
    // experiment of each pair.
    let pairs: Vec<Vec<f64>> = durations_ms
        .chunks(SPECS.len())
        .map(<[f64]>::to_vec)
        .collect();
    crate::set_latency(out, "evaluate_experiment", &pairs);
    out.set("sos_gain_pct", stats::mean(&gains));
    out.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
    );

    if args.trace {
        let pair = SPECS.len();
        traced(
            args,
            &experiments[..pair],
            &first[..pair],
            &durations_ms[..pair],
            out,
        );
    }
}

/// The stage-by-stage traced run over the first pair: reproduces
/// `evaluate_experiment` from its public stages, checks the report byte
/// for byte against the timed run, and replays each first candidate's
/// symbios phase through the bare pipeline to split `smtsim` from
/// `workloads`.
fn traced(
    args: &Args,
    experiments: &[(ExperimentSpec, SosConfig)],
    untraced: &[Option<String>],
    durations_ms: &[f64],
    out: &mut Outcome,
) {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let spans = Spans::new();
    let clock_ns = layers::clock_overhead_ns();
    let mut sim = SimCounters::default();
    let mut stream = layers::StreamTiming::default();
    let mut replay_ns = 0u64;
    let mut identical = true;
    let mut replay_matches = true;
    let mut traced_ms = Vec::new();
    let mut candidates = 0;
    let started = Instant::now();
    for (i, (spec, cfg)) in experiments.iter().enumerate() {
        let group = i as u64;
        let t = Instant::now();
        let (report, first_symbios) = staged(spec, cfg, workers, &spans, group);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        identical &= untraced[i].as_deref() == Some(report_json(&report).as_str());
        candidates += report.candidates.len();

        // Replay the first candidate's symbios phase on bare streams.
        let schedule = SosScheduler::candidates(spec, cfg)
            .into_iter()
            .next()
            .expect("every experiment has a candidate");
        let rotation_cycles =
            schedule.slices_per_rotation() as u64 * spec.timeslice(cfg.cycle_scale);
        let rotations = (spec.symbios_cycles(cfg.cycle_scale) / rotation_cycles).max(1) as usize;
        let top = spans.open("bench", "replay", group, None);
        let (warmup, recorded, timing) = layers::replay(spec, cfg, &schedule, rotations);
        for s in warmup.iter().chain(&recorded) {
            spans.record("smtsim", "run_timeslice", group, Some(top), s.start, s.end);
            replay_ns += s.end.duration_since(s.start).as_nanos() as u64;
        }
        spans.close(top);
        for s in &recorded {
            sim.add(&s.stats);
        }
        let cycles: u64 = recorded.iter().map(|s| s.stats.cycles).sum();
        replay_matches &= cycles == first_symbios.cycles
            && layers::committed_per_thread(&recorded, report.solo.len())
                == first_symbios.committed;
        stream.calls += timing.calls;
        stream.sampled += timing.sampled;
        stream.sampled_ns += timing.sampled_ns;
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    out.check(
        "stage-by-stage reports match evaluate_experiment byte for byte",
        identical,
    );
    out.check(
        "bare-pipeline replay reproduces the symbios phase",
        replay_matches,
    );

    // Stream generation runs inside run_timeslice: move its sampled
    // estimate from the smtsim row to its own row.
    let gen_ns = stream.total_ns(clock_ns);
    let log = spans.snapshot();
    let mut table = spans::layer_table(&log, wall_ns);
    table.split_estimate("smtsim", "workloads", gen_ns as u64);
    let gen_share = gen_ns / replay_ns.max(1) as f64;
    let stage_ns = table.self_ns("sos") as f64;
    out.lines.push(format!(
        "replay: {:.1} ms in run_timeslice, {:.1}% of it stream generation (workloads*, sampled 1 call in {})",
        replay_ns as f64 / 1e6,
        100.0 * gen_share,
        layers::SAMPLE_EVERY
    ));
    out.lines.push(format!(
        "sos stage time split by the replay's share (estimate): smtsim ~{:.0} ms, workloads ~{:.0} ms",
        stage_ns * (1.0 - gen_share) / 1e6,
        stage_ns * gen_share / 1e6
    ));
    crate::finish_trace(args, &spans, table, out);

    // Per-experiment means of each stage.
    let n = experiments.len() as f64;
    let per_experiment_ns = |layer: &str, name: &str| -> f64 {
        log.iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / n
    };
    out.set(
        "sos.calibrate_s",
        per_experiment_ns("sos", "calibrate") / 1e9,
    );
    out.set(
        "sos.sample_s",
        per_experiment_ns("par", "sample_phase") / 1e9,
    );
    out.set("sos.predict_us", per_experiment_ns("sos", "predict") / 1e3);
    out.set(
        "sos.symbios_s",
        per_experiment_ns("par", "symbios_phase") / 1e9,
    );
    out.set("sos.candidates", candidates as f64 / n);

    // par: busy share and straggler ratio of each fan-out phase.
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let mut stragglers = Vec::new();
    for (pi, phase) in log.iter().enumerate() {
        if phase.layer != "par" {
            continue;
        }
        let stages: Vec<f64> = log
            .iter()
            .filter(|s| s.parent == Some(pi))
            .map(|s| s.duration_ns() as f64)
            .collect();
        busy += stages.iter().sum::<f64>();
        capacity += (workers.min(stages.len().max(1))) as f64 * phase.duration_ns() as f64;
        let med = stats::median(&stages);
        if med > 0.0 {
            stragglers.push(stages.iter().copied().fold(0.0, f64::max) / med);
        }
    }
    out.set(
        "par.busy_share",
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );
    out.set("par.straggler_ratio", stats::mean(&stragglers));

    out.set("smtsim.detailed_cycles", sim.cycles as f64);
    out.set(
        "smtsim.ns_per_cycle",
        (replay_ns as f64 - gen_ns).max(0.0) / sim.cycles.max(1) as f64,
    );
    out.set("smtsim.ipc", sim.ipc());
    out.set("smtsim.dl1_miss_pct", sim.dl1_miss_pct());
    out.set("smtsim.l2_miss_pct", sim.l2_miss_pct());
    out.set("smtsim.conflict_pct", sim.conflict_pct());
    out.set("workloads.instrs", stream.calls as f64);
    out.set("workloads.ns_per_instr", stream.ns_per_call(clock_ns));

    // Tracing overhead: traced against untraced time of the same pair.
    let overhead = stats::median(&traced_ms) / stats::median(durations_ms) - 1.0;
    out.set("trace.overhead_pct", 100.0 * overhead);
}

/// `evaluate_experiment`, issued stage by stage with a span around each
/// call: `calibrate`, `candidates`, `sample_candidate` for each candidate,
/// `PredictorKind::choose`, `symbios_candidate` for each candidate. Returns
/// the report and the first candidate's symbios totals.
fn staged(
    spec: &ExperimentSpec,
    cfg: &SosConfig,
    workers: usize,
    spans: &Spans,
    group: u64,
) -> (ExperimentReport, SymbiosEval) {
    let top = spans.open("sos", "experiment", group, None);
    let solo = spans.time("sos", "calibrate", group, Some(top), |_| {
        SosScheduler::calibrate(spec, cfg)
    });
    let candidates = spans.time("sos", "candidates", group, Some(top), |_| {
        SosScheduler::candidates(spec, cfg)
    });
    let rotations = spans.time("par", "sample_phase", group, Some(top), |phase| {
        par::parallel_map_with_workers(candidates.clone(), workers, |s| {
            spans.time("sos", "sample_candidate", group, Some(phase), |_| {
                SosScheduler::sample_candidate(spec, cfg, &s)
            })
        })
    });
    let threads = solo.len();
    let mut samples = Vec::with_capacity(candidates.len());
    let mut sample_ws = Vec::with_capacity(candidates.len());
    for (schedule, rots) in candidates.iter().zip(&rotations) {
        samples.push(ScheduleSample::from_rotations(schedule, rots));
        let cycles: u64 = rots.iter().map(RotationStats::cycles).sum();
        let mut committed = vec![0u64; threads];
        for rot in rots {
            for (t, c) in rot.committed_per_thread(threads).iter().enumerate() {
                committed[t] += c;
            }
        }
        sample_ws.push(sos_core::ws::weighted_speedup(&committed, cycles, &solo));
    }
    let picks: Vec<(PredictorKind, usize)> = spans.time("sos", "predict", group, Some(top), |_| {
        PredictorKind::ALL
            .iter()
            .map(|&p| (p, p.choose(&samples)))
            .collect()
    });
    let symbios_cycles = spec.symbios_cycles(cfg.cycle_scale);
    let evals = spans.time("par", "symbios_phase", group, Some(top), |phase| {
        par::parallel_map_with_workers(candidates.clone(), workers, |s| {
            spans.time("sos", "symbios_candidate", group, Some(phase), |_| {
                SosScheduler::symbios_candidate(spec, cfg, &s, symbios_cycles)
            })
        })
    });
    let symbios_ws = evals
        .iter()
        .map(|ev| sos_core::ws::weighted_speedup(&ev.committed, ev.cycles, &solo))
        .collect();
    spans.close(top);
    let report = ExperimentReport {
        spec: *spec,
        candidates: candidates.iter().map(|s| s.paper_notation()).collect(),
        samples,
        symbios_ws,
        picks,
        sample_ws,
        solo: solo.as_slice().to_vec(),
    };
    let first = evals
        .into_iter()
        .next()
        .expect("every experiment has a candidate");
    (report, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = inputs(5);
        let b = inputs(5);
        let c = inputs(6);
        assert_eq!(a.len(), 2 * SUB_SEEDS as usize);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 == y.1));
        assert!(a.iter().zip(&c).any(|(x, y)| x.1.seed != y.1.seed));
    }

    #[test]
    fn staged_run_reproduces_evaluate_experiment() {
        let spec: ExperimentSpec = "Jsb(4,2,2)".parse().expect("label");
        let cfg = SosConfig {
            cycle_scale: 200_000,
            calibration_cycles: 2_000,
            sample_schedules: 3,
            rotations_per_sample: 1,
            seed: 11,
            ..SosConfig::default()
        };
        let expected = report_json(&SosScheduler::evaluate_experiment(&spec, &cfg));
        let spans = Spans::new();
        let (report, _) = staged(&spec, &cfg, 2, &spans, 0);
        assert_eq!(report_json(&report), expected);
        let log = spans.snapshot();
        let names: Vec<&str> = log.iter().map(|s| s.name).collect();
        assert_eq!(
            names[..4],
            ["experiment", "calibrate", "candidates", "sample_phase"]
        );
        assert!(names.contains(&"symbios_candidate"));
    }
}
