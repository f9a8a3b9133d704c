//! Splitting the detailed pipeline (`smtsim`) from stream generation
//! (`workloads`) from outside both: the benchmark replays a schedule's
//! tuples straight through [`Processor::run_timeslice`] on streams built by
//! [`JobSpec::build`], each wrapped in a [`TimedSource`] that times a sample
//! of its `next_instr` calls.

use smtsim::trace::{Fetch, InstructionSource, StreamId};
use smtsim::{ConflictCounters, MachineConfig, Processor, TimesliceStats};
use sos_core::{ExperimentSpec, Schedule, SosConfig};
use std::time::Instant;

/// One `next_instr` call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// An instruction stream that counts its calls and times every
/// [`SAMPLE_EVERY`]-th one.
pub struct TimedSource {
    inner: Box<dyn InstructionSource + Send>,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl TimedSource {
    pub fn new(inner: Box<dyn InstructionSource + Send>) -> Self {
        TimedSource {
            inner,
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
        }
    }
}

impl InstructionSource for TimedSource {
    fn next_instr(&mut self) -> Fetch {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_instr();
        }
        let t = Instant::now();
        let f = self.inner.next_instr();
        self.sampled_ns += t.elapsed().as_nanos() as u64;
        self.sampled += 1;
        f
    }

    fn id(&self) -> StreamId {
        self.inner.id()
    }

    fn skip_instructions(&mut self, n: u64) {
        self.inner.skip_instructions(n)
    }
}

/// What the stream wrappers measured, summed over streams.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamTiming {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: u64,
}

impl StreamTiming {
    /// Estimated nanoseconds per call, net of the cost of reading the clock
    /// (`clock_ns` per timed call).
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 - clock_ns).max(0.0)
    }

    /// Estimated total time spent generating instructions.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.ns_per_call(clock_ns) * self.calls as f64
    }
}

/// Cost of one timed empty interval (two clock reads), in nanoseconds.
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t).elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// The streams of an experiment's job pool, built exactly as
/// `sos_core::JobPool::from_specs` builds them (thread `i` tagged
/// `StreamId(i)`, per-job seeds derived from the experiment seed), each
/// wrapped in a [`TimedSource`].
pub fn timed_pool(spec: &ExperimentSpec, seed: u64) -> Vec<TimedSource> {
    let mut streams = Vec::new();
    for (j, job) in spec.jobmix().iter().enumerate() {
        let base = StreamId(streams.len() as u64);
        let job_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((j as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
        streams.extend(job.build(base, job_seed).into_iter().map(TimedSource::new));
    }
    streams
}

/// One replayed slice: its counters and the host time `run_timeslice` took.
pub struct ReplayedSlice {
    pub stats: TimesliceStats,
    pub start: Instant,
    pub end: Instant,
}

/// Replays `schedule` the way `SosScheduler::symbios_candidate` runs it
/// (fresh processor, one warm-up rotation, then `rotations` rotations),
/// timing every `run_timeslice` call. Returns the warm-up slices, the
/// recorded slices and the stream timing over the whole replay.
pub fn replay(
    spec: &ExperimentSpec,
    cfg: &SosConfig,
    schedule: &Schedule,
    rotations: usize,
) -> (Vec<ReplayedSlice>, Vec<ReplayedSlice>, StreamTiming) {
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(spec.smt));
    let mut streams = timed_pool(spec, cfg.seed);
    let timeslice = spec.timeslice(cfg.cycle_scale);
    let tuples = schedule.tuples();
    let mut run_rotations = |n: usize| {
        let mut out = Vec::new();
        for _ in 0..n {
            for tuple in &tuples {
                let threads = tuple.threads();
                let mut picked: Vec<(usize, &mut dyn InstructionSource)> = streams
                    .iter_mut()
                    .enumerate()
                    .filter(|(i, _)| threads.contains(i))
                    .map(|(i, s)| (i, s as &mut dyn InstructionSource))
                    .collect();
                picked.sort_by_key(|(i, _)| threads.iter().position(|t| t == i));
                let mut refs: Vec<&mut dyn InstructionSource> =
                    picked.into_iter().map(|(_, s)| s).collect();
                let start = Instant::now();
                let stats = cpu.run_timeslice(&mut refs, timeslice);
                out.push(ReplayedSlice {
                    stats,
                    start,
                    end: Instant::now(),
                });
            }
        }
        out
    };
    let warmup = run_rotations(1);
    let recorded = run_rotations(rotations);
    let timing = streams
        .iter()
        .fold(StreamTiming::default(), |acc, s| StreamTiming {
            calls: acc.calls + s.calls,
            sampled: acc.sampled + s.sampled,
            sampled_ns: acc.sampled_ns + s.sampled_ns,
        });
    (warmup, recorded, timing)
}

/// Committed instructions per pool thread over `slices`, as the symbios
/// phase totals them.
pub fn committed_per_thread(slices: &[ReplayedSlice], threads: usize) -> Vec<u64> {
    let mut committed = vec![0u64; threads];
    for s in slices {
        for t in &s.stats.threads {
            committed[t.stream.0 as usize] += t.committed;
        }
    }
    committed
}

/// Simulated counters over a set of slices.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCounters {
    pub cycles: u64,
    pub committed: u64,
    pub dl1_refs: u64,
    pub dl1_misses: u64,
    pub l2_refs: u64,
    pub l2_misses: u64,
    pub conflicts: ConflictCounters,
}

impl SimCounters {
    pub fn add(&mut self, s: &TimesliceStats) {
        self.cycles += s.cycles;
        self.committed += s.total_committed();
        self.dl1_refs += s.cache.dl1_refs;
        self.dl1_misses += s.cache.dl1_misses;
        self.l2_refs += s.cache.l2_refs;
        self.l2_misses += s.cache.l2_misses;
        self.conflicts.merge(&s.conflicts);
    }

    pub fn ipc(&self) -> f64 {
        ratio(self.committed, self.cycles)
    }

    pub fn dl1_miss_pct(&self) -> f64 {
        100.0 * ratio(self.dl1_misses, self.dl1_refs)
    }

    pub fn l2_miss_pct(&self) -> f64 {
        100.0 * ratio(self.l2_misses, self.l2_refs)
    }

    pub fn conflict_pct(&self) -> f64 {
        self.conflicts.all_conflicts_pct(self.cycles)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_streams_emit_what_the_pool_would() {
        let spec: ExperimentSpec = "Jpb(10,2,2)".parse().expect("label");
        let mut timed = timed_pool(&spec, 9);
        let mut plain = sos_core::JobPool::from_specs(&spec.jobmix(), 9);
        assert_eq!(timed.len(), plain.len());
        for (i, stream) in timed.iter_mut().enumerate() {
            let mut p = plain.select_dyn(&[i]);
            for _ in 0..500 {
                assert_eq!(stream.next_instr(), p[0].next_instr());
            }
        }
        for s in &timed {
            assert_eq!(s.calls, 500);
            assert_eq!(s.sampled, 500 / SAMPLE_EVERY);
        }
    }
}
