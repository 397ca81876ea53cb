//! The benchmark's metric names: one table for the children that print them,
//! for `compare`, and for `BENCHMARK.json` (a test pins the file to it).

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// `compare` calls it a regression (0 for ungated per-layer metrics).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// How long one run's timed regions last, seconds (`run_seconds` of
/// BENCHMARK.json): a workload repeats its timed region until this much has
/// been measured, so every simulate workload is timed at least twice.
pub const RUN_SECONDS: u64 = 10;

/// What a sweep of many cells pays per cell, all host time.
///
/// The bounds are three times the widest run-to-run spread (interquartile
/// range over median, ten seeds back to back) a workload showed on the
/// 2-CPU host the baseline was taken on: 7.6% for the host-time metrics (on
/// `fig8_qadp_p2`; 2-5% on the others) and 4.5% for memory. That host also
/// drifts by 15-20% over a quarter of an hour, which no run length removes;
/// a narrower bound would call the drift a regression.
pub const END_TO_END: [Metric; 5] = [
    // The timed region: the workload's `Simulation::run` call(s), world
    // assembly and report build included.
    gated("wall_s", "s", Better::Lower, 0.25),
    // Sum of `report.events` over the region's reports / wall_s.
    gated("events_per_s", "events/s", Better::Higher, 0.25),
    // User + system CPU over the region: what one cell per core pays, and
    // the only number that shows barrier spinning at P=2.
    gated("cpu_s", "s", Better::Lower, 0.25),
    // VmHWM at exit of a fresh process.
    gated("peak_rss_mb", "MB", Better::Lower, 0.15),
    // Spec generation, parse, from_spec, prepare (and the cache fill).
    // Microseconds on most workloads, hence no narrower than the widest.
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// `setup_s` may also worsen by this much absolutely before `compare` calls
/// it a regression: a tenth of a 0.3 ms set-up is below what a host resolves.
pub const SETUP_FLOOR_S: f64 = 0.05;

use Better::{Higher, Lower};

/// One number per layer boundary, from the traced run and the probes.
pub const PER_LAYER: [Metric; 46] = [
    layer("des.pop.self_s", "s", Lower),
    layer("des.pop.ns_per_call", "ns", Lower),
    layer("des.pop.calls", "count", Lower),
    layer("des.push.self_s", "s", Lower),
    layer("des.push.ns_per_call", "ns", Lower),
    layer("des.push.calls", "count", Lower),
    layer("network.handle.self_s", "s", Lower),
    layer("network.handle.ns_per_call", "ns", Lower),
    layer("network.handle.calls", "count", Lower),
    layer("mpi.on_net_effect.self_s", "s", Lower),
    layer("mpi.on_net_effect.ns_per_call", "ns", Lower),
    layer("mpi.on_net_effect.calls", "count", Lower),
    layer("mpi.handle.self_s", "s", Lower),
    layer("mpi.handle.ns_per_call", "ns", Lower),
    layer("mpi.handle.calls", "count", Lower),
    layer("core.assemble", "s", Lower),
    layer("world.loop_s", "s", Lower),
    layer("span_coverage", "ratio", Higher),
    layer("trace_overhead", "ratio", Lower),
    layer("allocs_per_kevent", "count", Lower),
    layer("alloc_bytes_per_kevent", "B", Lower),
    layer("des.hold.heap", "ns/op", Lower),
    layer("des.hold.calendar_auto", "ns/op", Lower),
    layer("network.fanin.min", "events/s", Higher),
    layer("network.fanin.ugalg", "events/s", Higher),
    layer("network.fanin.par", "events/s", Higher),
    layer("network.fanin.qadp", "events/s", Higher),
    layer("mpi.match", "ns/op", Lower),
    layer("mpi.expand", "ns/op", Lower),
    layer("topology.build", "ns/op", Lower),
    layer("topology.min_next_port", "ns/op", Lower),
    layer("apps.build", "ms", Lower),
    layer("core.spec.parse_emit", "us/op", Lower),
    layer("metrics.recorder.nosink", "ns/hook", Lower),
    layer("metrics.recorder.tracewriter", "ns/hook", Lower),
    layer("metrics.trace.encode", "ns/event", Lower),
    layer("metrics.trace.read", "ns/event", Lower),
    layer("core.trace.replay", "ns/event", Lower),
    layer("core.cache.encode", "ms", Lower),
    layer("core.cache.decode", "ms", Lower),
    layer("core.cache.key", "us/op", Lower),
    layer("core.cache.lookup", "ms", Lower),
    layer("core.cache.entry_bytes", "B", Lower),
    layer("des.comm.exchange", "us/round", Lower),
    layer("core.run.wall_s", "s", Lower),
    layer("core.run.events", "count", Lower),
];

/// The `metrics` object of a result line: every metric of `table`, by name,
/// or an error naming the first one `values` lacks.
pub fn metrics_json(table: &[Metric], values: &[(impl AsRef<str>, f64)]) -> Result<Json, String> {
    let mut pairs = Vec::with_capacity(table.len());
    for m in table {
        let value = values
            .iter()
            .find(|(n, _)| n.as_ref() == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
        pairs.push((m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))])));
    }
    Ok(Json::obj(pairs))
}

/// BENCHMARK.json, generated: the file at the repository root must equal
/// this (`describe` prints it, a test compares).
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    let describe = |m: &Metric, gated: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if gated {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(|m| describe(m, true)).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(|m| describe(m, false)).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            names.push(m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            Json::parse(&on_disk).unwrap() == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `dfsim-benchmark describe`"
        );
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_hole() {
        let err = metrics_json(&END_TO_END, &[("wall_s", 1.0)]).unwrap_err();
        assert!(err.contains("events_per_s"), "{err}");
        assert!(metrics_json(&END_TO_END[..1], &[("wall_s", f64::NAN)]).is_err());
    }
}
