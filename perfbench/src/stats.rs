//! Order statistics for timing samples.
//!
//! A timing is reported as a median plus a *tail*: the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it. For `n`
//! samples that is the `(n - 10)`-th smallest value, at percentile
//! `100 · (n - 10) / n`, so the tail rises with the sample count instead of
//! being a fixed p99 that a small sample cannot support.

/// Samples that must lie beyond the tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: its value, the percentile it sits at, and the
/// sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub count: usize,
}

/// The tail of `samples`, or `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist (no value then has ten samples beyond it).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based rank of the tail value
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        count: n,
    })
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A median and tail summary of one timing series, for printing.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    match tail(samples) {
        Some(t) => format!(
            "{name}: p50 {:.4} {unit}, tail p{:.1} {:.4} {unit} (n={})",
            median(samples),
            t.percentile,
            t.value,
            t.count
        ),
        None => format!(
            "{name}: p50 {:.4} {unit}, no tail (n={} < {})",
            median(samples),
            samples.len(),
            TAIL_BEYOND + 1
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.count, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // Shuffled 1..=200: the tail is the 190th smallest, p95.
        let samples: Vec<f64> = (0..200).map(|i| ((i * 77) % 200 + 1) as f64).collect();
        let t = tail(&samples).expect("tail");
        assert_eq!(t.value, 190.0);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        assert_eq!(
            samples.iter().filter(|&&x| x > t.value).count(),
            TAIL_BEYOND
        );
        // A thousand samples support p99.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&big).expect("tail");
        assert!((t.percentile - 99.0).abs() < 1e-12);
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
