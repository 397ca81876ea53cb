//! Order statistics of a handful of samples.

use crate::json::Json;

/// Median, extremes and quartiles of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary { median, min, max, q1, q3, n: v.len() })
    }

    /// Interquartile range as a share of the median: the run-to-run spread
    /// `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str, values: &[f64]) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
            ("values", Json::nums(values.iter().copied())),
        ])
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// A value for a table cell: whole numbers whole, four significant places
/// otherwise.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 1e5 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Quartiles of a sorted, non-empty sample by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the acceptance driver computes its spreads with. A single sample is
/// its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 16.0, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
        assert_eq!(Summary::of(&[5.0]).unwrap().spread(), 0.0);
    }
}
