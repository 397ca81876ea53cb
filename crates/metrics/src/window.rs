//! Time windows (spans) for co-residency attribution.
//!
//! Under churn, two jobs interfere only while both occupy nodes — their
//! *co-residency interval*. A [`Span`] is a half-open `[start, end)` window
//! of simulated time; [`Span::overlap`] intersects two of them, and a
//! windowed read of a [`crate::BinSeries`]
//! ([`crate::BinSeries::total_between`]) attributes traffic to the overlap.
//! The `churn` bench binary combines both to build its interference matrix.

use dfsim_des::Time;

/// A half-open interval `[start, end)` of simulated time, picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Inclusive start.
    pub start: Time,
    /// Exclusive end.
    pub end: Time,
}

impl Span {
    /// Build a span; `end < start` is clamped to empty.
    pub fn new(start: Time, end: Time) -> Self {
        Self { start, end: end.max(start) }
    }

    /// Span length in picoseconds.
    #[inline]
    pub fn duration(&self) -> Time {
        self.end - self.start
    }

    /// Whether the span covers no time.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether `t` falls inside the span.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// Intersection with another span, if non-empty.
    pub fn overlap(&self, other: &Span) -> Option<Span> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Span { start, end })
    }

    /// Overlap duration with another span (0 when disjoint).
    #[inline]
    pub fn overlap_duration(&self, other: &Span) -> Time {
        self.overlap(other).map_or(0, |s| s.duration())
    }

    /// Fraction of *this* span covered by the overlap with `other`
    /// (0 for an empty span).
    pub fn overlap_fraction(&self, other: &Span) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.overlap_duration(other) as f64 / self.duration() as f64
    }
}

/// Total co-residency between one span and a set of spans (e.g. one job
/// against every other job of a given workload kind). The spans in `others`
/// may overlap each other; overlapping time is counted once per span — the
/// interference-matrix weighting wants exposure, not a partition.
pub fn co_residency(span: &Span, others: &[Span]) -> Time {
    others.iter().map(|o| span.overlap_duration(o)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_basics() {
        let a = Span::new(10, 20);
        let b = Span::new(15, 30);
        assert_eq!(a.overlap(&b), Some(Span::new(15, 20)));
        assert_eq!(a.overlap_duration(&b), 5);
        assert_eq!(b.overlap_duration(&a), 5);
        assert!((a.overlap_fraction(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_and_touching_spans_do_not_overlap() {
        let a = Span::new(0, 10);
        assert_eq!(a.overlap(&Span::new(10, 20)), None);
        assert_eq!(a.overlap(&Span::new(50, 60)), None);
        assert_eq!(a.overlap_duration(&Span::new(10, 20)), 0);
    }

    #[test]
    fn empty_spans_are_harmless() {
        let e = Span::new(5, 5);
        assert!(e.is_empty());
        assert_eq!(e.duration(), 0);
        assert_eq!(e.overlap(&Span::new(0, 10)), None);
        assert_eq!(e.overlap_fraction(&Span::new(0, 10)), 0.0);
        // Inverted input clamps to empty.
        assert!(Span::new(9, 3).is_empty());
    }

    #[test]
    fn contains_is_half_open() {
        let s = Span::new(2, 4);
        assert!(s.contains(2));
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn co_residency_sums_overlaps() {
        let job = Span::new(0, 100);
        let others = [Span::new(10, 30), Span::new(90, 200), Span::new(300, 400)];
        assert_eq!(co_residency(&job, &others), 20 + 10);
    }
}
