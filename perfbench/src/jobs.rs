//! Seeded job streams for the open-system workloads.
//!
//! Random job lengths and gaps make the total offered work of a short
//! trace swing with the seed (exponential lengths vary a 60-job trace's
//! total by ~13% from seed to seed), which would show up as run-to-run
//! spread in host time. The generator therefore stratifies: job lengths
//! and gaps are the `n` midpoint quantiles of their distributions, and
//! kinds cycle through every job kind, all in an order the seed shuffles;
//! an exact share of the jobs is phased. Every seed offers the same total
//! work in a different order and pairing.

use sos_core::opensys::{JobArrival, JOB_KINDS};
use std::collections::HashMap;
use workloads::spec::Benchmark;

/// SplitMix64: a tiny seeded generator for shuffles.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `n` midpoint quantiles of an exponential distribution with `mean`.
pub fn exponential_quantiles(n: usize, mean: f64) -> Vec<f64> {
    (0..n)
        .map(|i| -mean * (1.0 - (i as f64 + 0.5) / n as f64).ln())
        .collect()
}

/// One job as the workloads submit it: kind, length in solo cycles, and
/// whether it is phased.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub benchmark: Benchmark,
    pub cycles: u64,
    pub phased: bool,
}

/// The `n` midpoint quantiles of a uniform distribution on `[lo, hi]`.
pub fn uniform_quantiles(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / n as f64)
        .collect()
}

/// One job per entry of `lengths` (solo cycles), over every job kind, with
/// `phased_share` of them phased, shuffled by `seed`.
pub fn jobs(mut lengths: Vec<f64>, phased_share: f64, seed: u64) -> Vec<Job> {
    let n = lengths.len();
    let mut rng = SplitMix::new(seed);
    let mut kinds: Vec<Benchmark> = (0..n).map(|i| JOB_KINDS[i % JOB_KINDS.len()]).collect();
    rng.shuffle(&mut kinds);
    rng.shuffle(&mut lengths);
    let phased_count = (n as f64 * phased_share).round() as usize;
    let mut phased: Vec<bool> = (0..n).map(|i| i < phased_count).collect();
    rng.shuffle(&mut phased);
    kinds
        .into_iter()
        .zip(lengths)
        .zip(phased)
        .map(|((benchmark, len), phased)| Job {
            benchmark,
            cycles: (len.round() as u64).max(1_000),
            phased,
        })
        .collect()
}

/// An arrival trace: the jobs of [`jobs`] with shuffled exponential-quantile
/// gaps of mean `mean_gap` cycles, lengths converted to instructions at each
/// kind's solo IPC (as `ArrivalTrace::generate` does).
pub fn arrivals(
    lengths: Vec<f64>,
    mean_gap: f64,
    phased_share: f64,
    seed: u64,
    solo_ipc: &HashMap<Benchmark, f64>,
) -> Vec<JobArrival> {
    let mut gaps = exponential_quantiles(lengths.len(), mean_gap);
    SplitMix::new(seed ^ 0x6a09_e667_f3bc_c908).shuffle(&mut gaps);
    let mut t = 0u64;
    jobs(lengths, phased_share, seed)
        .into_iter()
        .zip(gaps)
        .map(|(job, gap)| {
            t += (gap.round() as u64).max(1);
            let ipc = solo_ipc.get(&job.benchmark).copied().unwrap_or(1.0);
            JobArrival {
                arrival: t,
                benchmark: job.benchmark,
                instructions: ((job.cycles as f64 * ipc) as u64).max(1_000),
                phased: job.phased,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_offers_the_same_work() {
        let a = jobs(exponential_quantiles(60, 300_000.0), 0.25, 1);
        let b = jobs(exponential_quantiles(60, 300_000.0), 0.25, 2);
        assert_ne!(a, b);
        let total = |js: &[Job]| js.iter().map(|j| j.cycles).sum::<u64>();
        assert_eq!(total(&a), total(&b));
        assert_eq!(a.iter().filter(|j| j.phased).count(), 15);
        for kind in JOB_KINDS {
            assert_eq!(a.iter().filter(|j| j.benchmark == kind).count(), 5);
        }
        assert_eq!(a, jobs(exponential_quantiles(60, 300_000.0), 0.25, 1));
    }

    #[test]
    fn quantiles_have_the_requested_mean() {
        let q = exponential_quantiles(1000, 50.0);
        let mean = q.iter().sum::<f64>() / 1000.0;
        assert!((mean - 50.0).abs() < 1.0, "mean {mean}");
        let u = uniform_quantiles(4, 0.0, 8.0);
        assert_eq!(u, vec![1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let t = arrivals(
            uniform_quantiles(40, 5e5, 1.5e6),
            2e5,
            0.25,
            3,
            &HashMap::new(),
        );
        assert!(t.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert_eq!(t.len(), 40);
    }
}
