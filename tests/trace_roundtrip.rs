//! The streaming-trace losslessness contract: a run traced with
//! `trace = <path>` writes a `dfsim-trace v1` file from which
//! [`replay_trace`] rebuilds the run's *exact* [`RunReport`] — every field,
//! including engine counters and wall time (both carried by the META frame)
//! — without re-simulating anything. Pinned here on both queue backends, at
//! 1, 2, 4 and 9 partitions, for static (pairwise) and churn (Poisson) runs;
//! plus the named-error surface for damaged files.

use std::path::PathBuf;

use dragonfly_interference::metrics::TraceError;
use dragonfly_interference::prelude::*;

fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dfsim_pr7_trace_{tag}.trace"))
}

fn tiny_spec(queue: QueueBackend, threads: usize, tag: &str) -> ExperimentSpec {
    ExperimentSpec {
        params: DragonflyParams::tiny_72(),
        routings: vec![RoutingAlgo::QAdaptive],
        scale: 2_048.0,
        seed: 7,
        queue,
        threads,
        trace: Some(trace_path(tag)),
        ..Default::default()
    }
}

/// `Debug` is a lossless view of every report field (`f64` prints its
/// shortest round-trip form), so string equality is value equality.
fn canonical(report: &RunReport) -> String {
    format!("{report:#?}")
}

/// Partition counts: one, two, uneven ownership (tiny_72's 9 groups as
/// 3+2+2+2) and one shard per group, so keyed events from many shards go
/// through the splice.
const THREADS: [usize; 4] = [1, 2, 4, 9];

fn backends() -> [QueueBackend; 2] {
    [QueueBackend::BinaryHeap, QueueBackend::calendar_auto()]
}

fn assert_replay_rebuilds(spec: ExperimentSpec, what: &str) {
    let path = spec.trace.clone().expect("spec under test carries a trace path");
    let report =
        Simulation::from_spec(spec).expect("valid spec").run().expect("run succeeds").report;
    assert!(report.completed, "{what}: traced run incomplete: {}", report.stop_reason);
    let replayed = replay_trace(&path).unwrap_or_else(|e| panic!("{what}: replay failed: {e}"));
    assert_eq!(
        canonical(&report),
        canonical(&replayed),
        "{what}: replayed report diverged from the live run"
    );
    let (contents, meta) = summarize_trace(&path).expect("summary scans a complete file");
    assert!(contents.events > 0, "{what}: trace recorded no events");
    assert_eq!(
        contents.counts.iter().sum::<u64>(),
        contents.events,
        "{what}: per-kind counts disagree with the event total"
    );
    assert_eq!(meta.events, report.events, "{what}: META event count diverged");
    let _ = std::fs::remove_file(&path);
}

/// Static pairwise interference: both backends, every partition count in
/// [`THREADS`] (per-shard temporaries spliced at assembly).
#[test]
fn static_runs_replay_bit_identically() {
    for queue in backends() {
        for threads in THREADS {
            let tag = format!("static_{queue}_{threads}");
            let spec = tiny_spec(queue, threads, &tag)
                .with_workload(Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
            assert_replay_rebuilds(spec, &tag);
        }
    }
}

/// Churn: timed Poisson arrivals with admission and reclamation. Job-level
/// reports ride in the META frame, so waits/starts/slowdowns must survive
/// the round trip too.
#[test]
fn churn_runs_replay_bit_identically() {
    for queue in backends() {
        for threads in THREADS {
            let tag = format!("churn_{queue}_{threads}");
            let mut spec = tiny_spec(queue, threads, &tag);
            spec.workload = Workload::Poisson;
            spec.rates = vec![500.0];
            spec.jobs = 4;
            spec.apps = vec![AppKind::UR, AppKind::CosmoFlow];
            spec.sizes = vec![18, 36];
            assert_replay_rebuilds(spec, &tag);
        }
    }
}

/// A truncated file (torn write, dead process) is a named `Truncated`
/// error, never a partial silent replay.
#[test]
fn truncated_trace_is_a_named_error() {
    let tag = "truncated";
    let spec = tiny_spec(QueueBackend::BinaryHeap, 1, tag)
        .with_workload(Workload::pairwise(AppKind::UR, None));
    let path = spec.trace.clone().unwrap();
    Simulation::from_spec(spec).expect("valid spec").run().expect("run succeeds");
    let bytes = std::fs::read(&path).expect("trace written");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("rewrite truncated");
    match replay_trace(&path) {
        Err(TraceError::Truncated { .. }) => {}
        other => panic!("expected TraceError::Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A file from some other format (or a future trace version) is a named
/// `Version` error carrying what was actually found.
#[test]
fn foreign_header_is_a_named_version_error() {
    let path = trace_path("foreign");
    std::fs::write(&path, b"dfsim-trace v9\nxxxx").expect("write foreign file");
    match replay_trace(&path) {
        Err(TraceError::Version { .. }) => {}
        other => panic!("expected TraceError::Version, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// An unreadable path surfaces as a named `Io` error that includes the
/// path, matching the CLI's exit-code-2 contract for bad inputs.
#[test]
fn missing_trace_file_is_a_named_io_error() {
    let path = trace_path("missing_never_written");
    let _ = std::fs::remove_file(&path);
    match replay_trace(&path) {
        Err(TraceError::Io { .. }) => {}
        other => panic!("expected TraceError::Io, got {other:?}"),
    }
}
