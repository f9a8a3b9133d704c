//! Measures the cost of the observability probe path on the simulator's
//! cycle loop, in two configurations:
//!
//! * `no_observer` — the baseline: probes are skipped behind one
//!   predicted branch per cycle;
//! * `nop_observer` — a [`NopObserver`] registered, so every probe call is
//!   made and discarded.
//!
//! The point of the exercise: with no observer registered, instrumented
//! smtsim must run within ~2% of its pre-instrumentation speed. The bench
//! prints the relative overhead of each configuration; set
//! `OBSERVER_OVERHEAD_ASSERT=1` to fail the run when `no_observer` vs
//! `nop_observer` differ by more than 2% (kept opt-in: wall-clock
//! comparisons on loaded CI hosts are noisy).

use criterion::{criterion_group, criterion_main, Criterion};
use smtsim::trace::InstructionSource;
use smtsim::{MachineConfig, NopObserver, Processor, StreamId};
use workloads::spec::Benchmark;

const CYCLES: u64 = 20_000;
const THREADS: usize = 2;

fn streams() -> Vec<Box<dyn InstructionSource>> {
    let benches = [Benchmark::Fp, Benchmark::Gcc];
    (0..THREADS)
        .map(|i| {
            benches[i % benches.len()].stream(StreamId(i as u64), i as u64)
                as Box<dyn InstructionSource>
        })
        .collect()
}

fn run_slice(cpu: &mut Processor, streams: &mut [Box<dyn InstructionSource>]) {
    let mut refs: Vec<&mut dyn InstructionSource> = streams
        .iter_mut()
        .map(|s| &mut **s as &mut dyn InstructionSource)
        .collect();
    cpu.run_timeslice(&mut refs, CYCLES);
}

fn observer_overhead(c: &mut Criterion) {
    let mut baseline_ns = 0.0;
    c.bench_function("observer_overhead/no_observer", |b| {
        let mut cpu = Processor::new(MachineConfig::alpha21264_like(THREADS));
        let mut streams = streams();
        b.iter(|| run_slice(&mut cpu, &mut streams));
        baseline_ns = b.mean_ns();
    });

    let mut nop_ns = 0.0;
    c.bench_function("observer_overhead/nop_observer", |b| {
        let mut cpu = Processor::new(MachineConfig::alpha21264_like(THREADS));
        cpu.set_observer(Box::new(NopObserver));
        let mut streams = streams();
        b.iter(|| run_slice(&mut cpu, &mut streams));
        nop_ns = b.mean_ns();
    });

    let pct = |ns: f64| 100.0 * (ns / baseline_ns - 1.0);
    println!("observer overhead vs no_observer: nop {:+.2}%", pct(nop_ns));
    if std::env::var_os("OBSERVER_OVERHEAD_ASSERT").is_some() {
        assert!(
            pct(nop_ns) <= 2.0,
            "nop observer overhead {:+.2}% exceeds 2%",
            pct(nop_ns)
        );
    }
}

criterion_group!(benches, observer_overhead);
criterion_main!(benches);
