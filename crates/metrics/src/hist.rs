//! Latency sample pools and distribution summaries.
//!
//! Packet latencies are appended with their delivery timestamp so figures can
//! show both the distribution (Fig 6, Fig 13a: quartiles, p95, p99) and the
//! evolution along simulated time (Fig 7).

use crate::summary::quantile_sorted;
use dfsim_des::Time;

/// A pool of `(timestamp, value)` samples, e.g. packet latencies keyed by
/// delivery time.
#[derive(Debug, Clone, Default)]
pub struct SamplePool {
    samples: Vec<(Time, u64)>,
}

/// Distribution summary in the shape the paper's box plots report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Sample count.
    pub n: usize,
    /// Mean value.
    pub mean: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl SamplePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample observed at `t`.
    #[inline]
    pub fn record(&mut self, t: Time, value: u64) {
        self.samples.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw samples (timestamp, value).
    pub fn samples(&self) -> &[(Time, u64)] {
        &self.samples
    }

    /// Move every sample of `other` onto the end of this pool, leaving
    /// `other` empty (merging per-partition pools without keeping a copy;
    /// all summaries sort before aggregating, so concatenation order is
    /// immaterial to the reported numbers).
    pub fn append(&mut self, other: &mut SamplePool) {
        self.samples.append(&mut other.samples);
    }

    /// Distribution summary over all samples.
    pub fn summarize(&self) -> LatencySummary {
        self.summarize_window(0, Time::MAX)
    }

    /// Distribution summary restricted to samples with `from ≤ t < to`.
    pub fn summarize_window(&self, from: Time, to: Time) -> LatencySummary {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v as f64)
            .collect();
        summarize_values(vals)
    }

    /// Time-bucketed means (for latency-vs-time plots like Fig 7): returns
    /// `(bin_start, mean)` for every non-empty bin of width `bin`.
    pub fn binned_mean(&self, bin: Time) -> Vec<(Time, f64)> {
        assert!(bin > 0);
        let mut acc: std::collections::BTreeMap<Time, (u64, u64)> = Default::default();
        for &(t, v) in &self.samples {
            let e = acc.entry(t / bin * bin).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        acc.into_iter().map(|(t, (sum, n))| (t, sum as f64 / n as f64)).collect()
    }
}

/// Distribution summary over the concatenation of several borrowed sample
/// slices, in slice order — the zero-copy equivalent of pushing every slice
/// into one fresh [`SamplePool`] and summarizing it. The values are collected
/// in the same order a concatenated pool would hold them and the mean sums
/// the sorted values, so the result is bit-identical to the copying form.
pub fn summarize_slices(parts: &[&[(Time, u64)]]) -> LatencySummary {
    let vals: Vec<f64> = parts.iter().flat_map(|s| s.iter()).map(|&(_, v)| v as f64).collect();
    summarize_values(vals)
}

/// Shared summary kernel: sort, take quantiles, mean over the sorted order.
fn summarize_values(mut vals: Vec<f64>) -> LatencySummary {
    if vals.is_empty() {
        return LatencySummary::default();
    }
    vals.sort_by(f64::total_cmp);
    let n = vals.len();
    LatencySummary {
        n,
        mean: vals.iter().sum::<f64>() / n as f64,
        q1: quantile_sorted(&vals, 0.25),
        median: quantile_sorted(&vals, 0.50),
        q3: quantile_sorted(&vals, 0.75),
        p95: quantile_sorted(&vals, 0.95),
        p99: quantile_sorted(&vals, 0.99),
        max: vals[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_ramp() {
        let mut p = SamplePool::new();
        for v in 1..=100u64 {
            p.record(v, v);
        }
        let s = p.summarize();
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!((s.p95 - 95.05).abs() < 0.2);
        assert!((s.p99 - 99.01).abs() < 0.2);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn window_filters_by_timestamp() {
        let mut p = SamplePool::new();
        p.record(10, 1);
        p.record(20, 100);
        p.record(30, 1000);
        let s = p.summarize_window(15, 25);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 100.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let p = SamplePool::new();
        assert_eq!(p.summarize(), LatencySummary::default());
    }

    #[test]
    fn summarize_slices_matches_concatenated_pool_bitwise() {
        let mut a = SamplePool::new();
        let mut b = SamplePool::new();
        for v in [7u64, 3, 900, 41, 12] {
            a.record(v, v * 13 + 1);
        }
        for v in [5u64, 88, 2] {
            b.record(v, v * 7 + 3);
        }
        let mut concat = SamplePool::new();
        concat.append(&mut a.clone());
        concat.append(&mut b.clone());
        let want = concat.summarize();
        let got = summarize_slices(&[a.samples(), b.samples()]);
        for (x, y) in [
            (want.mean, got.mean),
            (want.q1, got.q1),
            (want.median, got.median),
            (want.q3, got.q3),
            (want.p95, got.p95),
            (want.p99, got.p99),
            (want.max, got.max),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(want.n, got.n);
    }

    #[test]
    fn binned_mean_buckets() {
        let mut p = SamplePool::new();
        p.record(0, 10);
        p.record(5, 20);
        p.record(10, 30);
        let bins = p.binned_mean(10);
        assert_eq!(bins, vec![(0, 15.0), (10, 30.0)]);
    }
}
