//! Scalar summary statistics used throughout the report tables.

/// Mean / standard deviation / extrema of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stats {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
}

impl Stats {
    /// Compute from a slice of samples.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Self { n, mean, std: var.sqrt(), min, max }
    }

    /// Coefficient of variation in percent (`std/mean·100`), the paper's
    /// "communication time variation" measure; 0 when the mean is 0.
    pub fn variation_pct(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean * 100.0
        }
    }
}

/// Linear-interpolated quantile of a **sorted** slice (`q ∈ [0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant() {
        let s = Stats::of(&[5.0; 10]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.variation_pct(), 0.0);
    }

    #[test]
    fn stats_of_known_set() {
        let s = Stats::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.variation_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn stats_of_empty() {
        let s = Stats::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 2.5);
        assert!((quantile_sorted(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile_sorted(&xs, -1.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 2.0), 2.0);
    }
}
