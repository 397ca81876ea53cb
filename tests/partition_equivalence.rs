//! The partitioned engine's correctness contract: sharding the dragonfly by
//! group across worker threads is a pure performance knob. For any partition
//! count — 1, 2, 4, or one shard per group — and on either queue backend,
//! a run's report must be *bit-identical* to the one-partition run's:
//! same stop reason, same event count, same per-app comm/exec/latency
//! figures, same network aggregates, same learned Q-tables (pinned here
//! through the warm-start round trip). The only intentionally
//! thread-dependent fields are `RunReport::engine` (the merged engine
//! counters describe per-shard queues, not one global queue) and `wall_s`.

use std::path::PathBuf;

use dragonfly_interference::prelude::*;

/// tiny_72 has 9 groups, so 9 is the "one shard per group" extreme; 4
/// exercises uneven group ownership (9 = 3+2+2+2).
const PARTITIONS: [usize; 3] = [2, 4, 9];

/// A horizon halfway through the tiny pairwise run (8 of ~16 µs).
const HORIZON_PS: u64 = 8_000_000;

fn tiny_spec(queue: QueueBackend, routing: RoutingAlgo) -> ExperimentSpec {
    ExperimentSpec {
        params: DragonflyParams::tiny_72(),
        routings: vec![routing],
        scale: 2_048.0,
        seed: 7,
        queue,
        ..Default::default()
    }
}

/// The report with the intentionally thread-dependent fields blanked,
/// rendered via `Debug` (a lossless view of every remaining field: `Debug`
/// for `f64` prints the shortest round-trip form, so string equality is
/// value equality).
fn canonical(report: &RunReport) -> String {
    let mut r = report.clone();
    r.wall_s = 0.0;
    r.engine = EngineReport::default();
    format!("{r:#?}")
}

fn run_at(spec: &ExperimentSpec, threads: usize) -> RunReport {
    let mut spec = spec.clone();
    spec.threads = threads;
    Simulation::from_spec(spec).expect("valid spec").run().expect("run succeeds").report
}

fn assert_all_partition_counts_match(spec: &ExperimentSpec, what: &str) {
    let baseline = run_at(spec, 1);
    assert!(baseline.completed, "{what}: baseline incomplete: {}", baseline.stop_reason);
    assert_partition_counts_match(spec, what, &baseline);
}

/// Every partition count reproduces the one-partition `baseline`, whether
/// or not it completed.
fn assert_partition_counts_match(spec: &ExperimentSpec, what: &str, baseline: &RunReport) {
    let want = canonical(baseline);
    for parts in PARTITIONS {
        let got = canonical(&run_at(spec, parts));
        assert_eq!(
            want, got,
            "{what} ({}, {:?}): report diverged at {parts} partitions",
            spec.queue, spec.routings[0],
        );
    }
}

fn backends() -> [QueueBackend; 2] {
    [QueueBackend::BinaryHeap, QueueBackend::calendar_auto()]
}

/// The fig-8 regime: pairwise interference, both halves active, under the
/// adaptive routing that stresses cross-group (boundary) traffic most.
#[test]
fn pairwise_reports_identical_at_any_partition_count() {
    for queue in backends() {
        for routing in [RoutingAlgo::UgalG, RoutingAlgo::QAdaptive] {
            let spec = tiny_spec(queue, routing)
                .with_workload(Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
            assert_all_partition_counts_match(&spec, "pairwise fig8");
        }
    }
}

/// The event cap stops a run at the first window barrier at or past
/// `max_events` — at every partition count, one included.
#[test]
fn capped_reports_identical_at_any_partition_count() {
    for queue in backends() {
        let mut spec = tiny_spec(queue, RoutingAlgo::QAdaptive)
            .with_workload(Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
        spec.max_events = 5_000;
        let baseline = run_at(&spec, 1);
        assert_eq!(baseline.stop_reason, "EventCap");
        assert!(baseline.events >= 5_000, "stopped short of the cap: {}", baseline.events);
        assert_partition_counts_match(&spec, "capped pairwise", &baseline);
    }
}

/// A run cut off by the simulated-time horizon stops at the first event
/// past it, with that event counted, at every partition count.
#[test]
fn horizon_reports_identical_at_any_partition_count() {
    for queue in backends() {
        let mut spec = tiny_spec(queue, RoutingAlgo::UgalG)
            .with_workload(Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
        spec.horizon = Some(HORIZON_PS);
        let baseline = run_at(&spec, 1);
        assert_eq!(baseline.stop_reason, "Horizon");
        assert_partition_counts_match(&spec, "horizon pairwise", &baseline);
    }
}

/// Churn: timed arrivals, FCFS admission, node reclamation. Scheduling
/// decisions replicate deterministically on every shard, so job-level
/// reports (waits, starts, slowdowns) must also be bit-identical.
#[test]
fn churn_reports_identical_at_any_partition_count() {
    for queue in backends() {
        let mut spec = tiny_spec(queue, RoutingAlgo::QAdaptive);
        spec.workload = Workload::Poisson;
        spec.rates = vec![500.0];
        spec.jobs = 4;
        spec.apps = vec![AppKind::UR, AppKind::CosmoFlow];
        spec.sizes = vec![18, 36];
        assert_all_partition_counts_match(&spec, "poisson churn");
    }
}

/// Run the scenario `cell` under PAR on both backends: every job completes,
/// the last one (a one-rank UR job, whose empty program finishes as it
/// starts) finishes at its admission time, and every partition count
/// reproduces the one-partition report.
fn assert_admission_cell_completes_everywhere(cell: &str) {
    let arrivals = dragonfly_interference::apps::parse_arrival_list(cell).expect("valid cell");
    for queue in backends() {
        let spec =
            tiny_spec(queue, RoutingAlgo::Par).with_workload(Workload::Scenario(arrivals.clone()));
        let baseline = run_at(&spec, 1);
        assert!(baseline.completed, "{cell}: stopped {}", baseline.stop_reason);
        assert_eq!(baseline.jobs.len(), arrivals.len(), "{cell}");
        assert!(baseline.jobs.iter().all(|j| j.completed), "{cell}: a job never finished");
        let last = baseline.jobs.last().expect("non-empty cell");
        assert_eq!(last.finish_ms, last.start_ms, "{cell}: the one-rank job finishes at admission");
        assert_partition_counts_match(&spec, cell, &baseline);
    }
}

/// A job that finishes as it is admitted is accounted at its admission
/// time at every partition count: mid-run, and as the run's last job.
#[test]
fn admission_time_finishes_identical_at_any_partition_count() {
    assert_admission_cell_completes_everywhere("UR:36@0,UR:1@5us");
    assert_admission_cell_completes_everywhere("UR:2@0,UR:1@1ms");
}

/// A job queued behind two that both finish in the final window is
/// admitted at that window's barrier instead of the run stopping drained.
#[test]
fn final_window_reclaim_admits_the_queued_job_at_any_partition_count() {
    assert_admission_cell_completes_everywhere("UR:36@0,UR:36@0,UR:1@0");
}

/// Warm start: train once single-threaded, then evaluate the snapshot at
/// every partition count. Pins both the Q-table *load* path (every shard
/// seeds its groups' routers from the snapshot) and the learned-table
/// *capture* path (training at 2, 4 and 9 partitions writes the same
/// snapshot the single-threaded trainer does).
#[test]
fn warm_start_reports_identical_at_any_partition_count() {
    let dir = std::env::temp_dir();
    let train_path = |tag: &str| -> PathBuf { dir.join(format!("dfsim_pr6_warm_{tag}.qtable")) };

    // Train (single-threaded reference snapshot).
    let mut train = tiny_spec(QueueBackend::BinaryHeap, RoutingAlgo::QAdaptive)
        .with_workload(Workload::pairwise(AppKind::Halo3D, Some(AppKind::UR)));
    train.qtable_save = Some(train_path("t1"));
    let r1 = run_at(&train, 1);
    assert!(r1.completed, "training run incomplete: {}", r1.stop_reason);

    // Training partitioned must learn the exact same tables.
    let b1 = std::fs::read(train_path("t1")).expect("t1 snapshot written");
    for parts in PARTITIONS {
        let tag = format!("t{parts}");
        train.qtable_save = Some(train_path(&tag));
        run_at(&train, parts);
        let bp = std::fs::read(train_path(&tag)).expect("partitioned snapshot written");
        assert_eq!(b1, bp, "training at {parts} partitions wrote a different Q-table snapshot");
        let _ = std::fs::remove_file(train_path(&tag));
    }

    // Evaluate warm on a shifted seed at every partition count.
    for queue in backends() {
        let mut eval = tiny_spec(queue, RoutingAlgo::QAdaptive)
            .with_workload(Workload::pairwise(AppKind::Halo3D, Some(AppKind::UR)));
        eval.seed = 8;
        eval.qtable_load = Some(train_path("t1"));
        assert_all_partition_counts_match(&eval, "warm-start eval");
    }
    let _ = std::fs::remove_file(train_path("t1"));
}

/// `threads` beyond the group count is a configuration error surfaced by
/// spec validation (the CLI maps it to exit code 2), not a silent clamp.
#[test]
fn partitions_beyond_group_count_are_rejected_by_name() {
    let mut spec = tiny_spec(QueueBackend::BinaryHeap, RoutingAlgo::UgalG)
        .with_workload(Workload::pairwise(AppKind::FFT3D, None));
    spec.threads = 10;
    let err = Simulation::from_spec(spec).unwrap().prepare().map(|_| ()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("threads (10) exceed the 9 dragonfly groups"), "unexpected error: {msg}");
}
