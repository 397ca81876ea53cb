//! Job-arrival specifications and synthetic arrival generators.
//!
//! A churn scenario is a timed stream of job arrivals. This module provides
//! the two ways of producing one:
//!
//! * **explicit lists** parsed from a compact text form
//!   (`"UR:36@0.5ms,LU:16@1ms"` — see [`parse_arrival_list`]), used by the
//!   spec's `workload scenario …` form,
//! * **synthetic generators** drawing Poisson-process arrivals from the
//!   deterministic [`SimRng`] ([`poisson_arrivals`]), used by the `churn`
//!   sweep — same seed, same arrival stream, on every backend and machine.

use dfsim_des::{SimRng, Time, MILLISECOND};

use crate::spec::AppKind;

/// One job arrival: which workload, how many ranks, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalSpec {
    /// The workload.
    pub kind: AppKind,
    /// Ranks / nodes requested.
    pub size: u32,
    /// Arrival time, picoseconds.
    pub at: Time,
}

// The duration grammar (`0.5ms`, `20us`, bare milliseconds) lives in the
// DES time base now — experiment-spec files use it too — and is re-exported
// here where it historically lived.
pub use dfsim_des::time::parse_duration;

/// Parse one arrival `APP:SIZE@TIME` (e.g. `UR:36@0.5ms`).
pub fn parse_arrival(s: &str) -> Result<ArrivalSpec, String> {
    let s = s.trim();
    let (head, time) =
        s.split_once('@').ok_or_else(|| format!("arrival '{s}' must look like APP:SIZE@TIME"))?;
    let (app, size) = head
        .split_once(':')
        .ok_or_else(|| format!("arrival '{s}' must look like APP:SIZE@TIME"))?;
    let kind = AppKind::from_name(app.trim()).ok_or_else(|| {
        let names: Vec<&str> = AppKind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown app '{}' (valid: {})", app.trim(), names.join(", "))
    })?;
    let size: u32 = size
        .trim()
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("invalid job size '{}' in '{s}'", size.trim()))?;
    Ok(ArrivalSpec { kind, size, at: parse_duration(time)? })
}

/// Parse a comma-separated arrival list, e.g. `"UR:36@0,LU:16@0.5ms"`.
/// Arrivals are returned sorted by time (stable: ties keep list order).
pub fn parse_arrival_list(s: &str) -> Result<Vec<ArrivalSpec>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        if part.trim().is_empty() {
            continue;
        }
        out.push(parse_arrival(part)?);
    }
    if out.is_empty() {
        return Err("empty arrival list".into());
    }
    out.sort_by_key(|a| a.at);
    Ok(out)
}

/// Generate `count` Poisson-process arrivals at `rate_per_ms` jobs per
/// simulated millisecond, cycling workload kinds and sizes chosen by the
/// deterministic RNG stream derived from `seed`.
///
/// Inter-arrival gaps are exponential via inverse-CDF on the uniform stream,
/// so the sequence depends only on `(seed, rate, kinds, sizes)` — never on
/// queue backend or host.
pub fn poisson_arrivals(
    seed: u64,
    rate_per_ms: f64,
    count: u32,
    kinds: &[AppKind],
    sizes: &[u32],
) -> Vec<ArrivalSpec> {
    assert!(rate_per_ms > 0.0, "arrival rate must be positive");
    assert!(!kinds.is_empty() && !sizes.is_empty(), "need at least one kind and size");
    let mut rng = SimRng::new(seed).derive("arrivals");
    let mut t: f64 = 0.0; // picoseconds
    let mean_gap = MILLISECOND as f64 / rate_per_ms;
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        // Exponential gap; 1 − u ∈ (0, 1] keeps ln() finite.
        let u = rng.unit();
        t += -((1.0 - u).ln()) * mean_gap;
        let kind = kinds[(i as usize) % kinds.len()];
        let size = sizes[rng.index(sizes.len())];
        out.push(ArrivalSpec { kind, size, at: t.round() as Time });
    }
    out
}

#[cfg(test)]
mod tests {
    use dfsim_des::{MICROSECOND, NANOSECOND, SECOND};

    use super::*;

    #[test]
    fn durations_parse_with_units() {
        assert_eq!(parse_duration("5ns").unwrap(), 5 * NANOSECOND);
        assert_eq!(parse_duration("2us").unwrap(), 2 * MICROSECOND);
        assert_eq!(parse_duration("0.5ms").unwrap(), MILLISECOND / 2);
        assert_eq!(parse_duration("1s").unwrap(), SECOND);
        assert_eq!(parse_duration("250ps").unwrap(), 250);
        // Bare numbers are milliseconds.
        assert_eq!(parse_duration("2").unwrap(), 2 * MILLISECOND);
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("-1ms").is_err());
    }

    #[test]
    fn arrival_specs_parse() {
        let a = parse_arrival("UR:36@0.5ms").unwrap();
        assert_eq!(a, ArrivalSpec { kind: AppKind::UR, size: 36, at: MILLISECOND / 2 });
        let list = parse_arrival_list("LU:16@1ms, UR:36@0.5ms,").unwrap();
        assert_eq!(list.len(), 2);
        // Sorted by arrival time.
        assert_eq!(list[0].kind, AppKind::UR);
        assert_eq!(list[1].kind, AppKind::LU);
    }

    #[test]
    fn arrival_errors_name_the_valid_apps() {
        let err = parse_arrival("NOPE:4@1ms").unwrap_err();
        assert!(err.contains("unknown app"), "{err}");
        assert!(err.contains("FFT3D") && err.contains("LULESH"), "{err}");
        assert!(parse_arrival("UR:0@1ms").is_err());
        assert!(parse_arrival("UR@1ms").is_err());
        assert!(parse_arrival_list("").is_err());
    }

    #[test]
    fn poisson_is_deterministic_and_ordered() {
        let kinds = [AppKind::UR, AppKind::LU];
        let a = poisson_arrivals(7, 10.0, 50, &kinds, &[8, 16]);
        let b = poisson_arrivals(7, 10.0, 50, &kinds, &[8, 16]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "non-monotone arrivals");
        assert!(a.iter().all(|x| x.size == 8 || x.size == 16));
        // Kinds cycle deterministically.
        assert_eq!(a[0].kind, AppKind::UR);
        assert_eq!(a[1].kind, AppKind::LU);
        // Different seeds give different streams.
        let c = poisson_arrivals(8, 10.0, 50, &kinds, &[8, 16]);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let a = poisson_arrivals(3, 2.0, 400, &[AppKind::UR], &[4]);
        let span_ms = a.last().unwrap().at as f64 / MILLISECOND as f64;
        let rate = 400.0 / span_ms;
        assert!((rate - 2.0).abs() < 0.5, "empirical rate {rate}");
    }
}
