//! Binned time series for throughput-along-time figures (Figs 5, 9, 13b).

use dfsim_des::{Time, MILLISECOND};

/// Accumulates a quantity (bytes) into fixed-width time bins.
#[derive(Debug, Clone)]
pub struct BinSeries {
    width: Time,
    bins: Vec<u64>,
    total: u64,
}

impl BinSeries {
    /// New series with bins of `width` picoseconds.
    pub fn new(width: Time) -> Self {
        assert!(width > 0, "bin width must be positive");
        Self { width, bins: Vec::new(), total: 0 }
    }

    /// Bin width.
    pub fn width(&self) -> Time {
        self.width
    }

    /// Add `amount` at time `t`.
    #[inline]
    pub fn add(&mut self, t: Time, amount: u64) {
        let idx = (t / self.width) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += amount;
        self.total += amount;
    }

    /// Total accumulated amount.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-bin totals.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Number of bins (highest touched bin + 1).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The series as `(bin start ms, GB per ms)` points — the unit of the
    /// paper's throughput plots.
    pub fn as_gb_per_ms(&self) -> Vec<(f64, f64)> {
        let width_ms = self.width as f64 / MILLISECOND as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * width_ms, b as f64 / 1e9 / width_ms))
            .collect()
    }

    /// Mean rate in GB/ms over `[0, horizon)`; measures average throughput.
    pub fn mean_gb_per_ms(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.total as f64 / 1e9 / (horizon as f64 / MILLISECOND as f64)
    }

    /// Peak single-bin rate in GB/ms.
    pub fn peak_gb_per_ms(&self) -> f64 {
        let width_ms = self.width as f64 / MILLISECOND as f64;
        self.bins.iter().copied().max().unwrap_or(0) as f64 / 1e9 / width_ms
    }

    /// Total amount recorded in bins overlapping `[from, to)`, pro-rating
    /// the boundary bins by their covered fraction. This is the windowed
    /// read used to attribute traffic to a co-residency interval of two
    /// jobs in a churn scenario.
    pub fn total_between(&self, from: Time, to: Time) -> f64 {
        if to <= from || self.bins.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        let first = (from / self.width) as usize;
        let last = ((to - 1) / self.width) as usize;
        if first >= self.bins.len() {
            return 0.0;
        }
        for idx in first..=last.min(self.bins.len() - 1) {
            let bin_start = idx as Time * self.width;
            let bin_end = bin_start + self.width;
            let covered = to.min(bin_end).saturating_sub(from.max(bin_start));
            sum += self.bins[idx] as f64 * (covered as f64 / self.width as f64);
        }
        sum
    }

    /// Mean rate over the window `[from, to)` in GB/ms (0 for an empty
    /// window).
    pub fn rate_between_gb_per_ms(&self, from: Time, to: Time) -> f64 {
        if to <= from {
            return 0.0;
        }
        let ms = (to - from) as f64 / MILLISECOND as f64;
        self.total_between(from, to) / 1e9 / ms
    }

    /// Elementwise sum of two series (must share the bin width).
    pub fn merge(&mut self, other: &BinSeries) {
        assert_eq!(self.width, other.width, "bin width mismatch");
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_by_index() {
        let mut s = BinSeries::new(100);
        s.add(0, 1);
        s.add(99, 2);
        s.add(100, 4);
        s.add(250, 8);
        assert_eq!(s.bins(), &[3, 4, 8]);
        assert_eq!(s.total(), 15);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn gb_per_ms_conversion() {
        // 1 GB in a 1 ms bin = 1 GB/ms.
        let mut s = BinSeries::new(MILLISECOND);
        s.add(0, 1_000_000_000);
        let pts = s.as_gb_per_ms();
        assert_eq!(pts.len(), 1);
        assert!((pts[0].1 - 1.0).abs() < 1e-12);
        assert!((s.peak_gb_per_ms() - 1.0).abs() < 1e-12);
        assert!((s.mean_gb_per_ms(2 * MILLISECOND) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = BinSeries::new(10);
        a.add(0, 1);
        let mut b = BinSeries::new(10);
        b.add(25, 3);
        a.merge(&b);
        assert_eq!(a.bins(), &[1, 0, 3]);
        assert_eq!(a.total(), 4);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatched_widths() {
        let mut a = BinSeries::new(10);
        let b = BinSeries::new(20);
        a.merge(&b);
    }

    #[test]
    fn total_between_prorates_boundary_bins() {
        let mut s = BinSeries::new(100);
        s.add(0, 100); // bin 0
        s.add(150, 200); // bin 1
        s.add(250, 400); // bin 2
                         // Whole range.
        assert!((s.total_between(0, 300) - 700.0).abs() < 1e-9);
        // Half of bin 0 only.
        assert!((s.total_between(0, 50) - 50.0).abs() < 1e-9);
        // Half of bin 0 + all of bin 1 + half of bin 2.
        assert!((s.total_between(50, 250) - (50.0 + 200.0 + 200.0)).abs() < 1e-9);
        // Window beyond the data.
        assert!((s.total_between(300, 1_000)).abs() < 1e-9);
        // Empty/inverted windows.
        assert_eq!(s.total_between(10, 10), 0.0);
        assert_eq!(s.total_between(20, 10), 0.0);
    }

    #[test]
    fn total_between_on_empty_series_is_zero() {
        let s = BinSeries::new(100);
        assert_eq!(s.total_between(0, 50), 0.0);
        assert_eq!(s.rate_between_gb_per_ms(0, 50), 0.0);
    }

    #[test]
    fn rate_between_is_windowed_mean() {
        // 2 GB in the first ms, nothing afterwards.
        let mut s = BinSeries::new(MILLISECOND);
        s.add(0, 2_000_000_000);
        assert!((s.rate_between_gb_per_ms(0, MILLISECOND) - 2.0).abs() < 1e-12);
        assert!((s.rate_between_gb_per_ms(0, 2 * MILLISECOND) - 1.0).abs() < 1e-12);
        assert_eq!(s.rate_between_gb_per_ms(5, 5), 0.0);
    }
}
