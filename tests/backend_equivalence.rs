//! The event-queue ablation's correctness contract: every backend — binary
//! heap, fixed calendar, *and* the self-tuning calendar whose geometry
//! rebuilds mid-run — realizes the same deterministic `(time, seq)` total
//! order, so a run's report must be *identical* across all of them. The
//! backend (and its tuning) is a pure performance knob. The only
//! intentionally backend-dependent field is `RunReport::engine`, which
//! describes the engine itself and is excluded here.

use dragonfly_interference::prelude::*;

fn jobs() -> Vec<JobSpec> {
    vec![JobSpec::sized(AppKind::CosmoFlow, 36), JobSpec::sized(AppKind::UR, 36)]
}

/// The tiny pairwise experiment as a spec (`SimConfig::test_tiny`'s values).
fn tiny_spec(routing: RoutingAlgo, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        workload: Workload::jobs(jobs()),
        params: DragonflyParams::tiny_72(),
        routings: vec![routing],
        scale: 2_048.0,
        seed,
        ..Default::default()
    }
}

fn run_spec(spec: ExperimentSpec) -> RunReport {
    Simulation::from_spec(spec).unwrap().run().unwrap().report
}

fn run_with(backend: QueueBackend, routing: RoutingAlgo, seed: u64) -> RunReport {
    run_spec(ExperimentSpec { queue: backend, ..tiny_spec(routing, seed) })
}

fn assert_equivalent(heap: &RunReport, cal: &RunReport) {
    assert!(heap.completed, "heap run incomplete: {}", heap.stop_reason);
    assert!(cal.completed, "calendar run incomplete: {}", cal.stop_reason);
    assert_eq!(heap.sim_ms, cal.sim_ms, "simulated end time diverged");
    assert_eq!(heap.events, cal.events, "event count diverged");
    assert_eq!(heap.apps.len(), cal.apps.len());
    for (h, c) in heap.apps.iter().zip(&cal.apps) {
        assert_eq!(h.name, c.name);
        assert_eq!(h.comm_ms.mean, c.comm_ms.mean, "{}: comm time diverged", h.name);
        assert_eq!(h.comm_ms.std, c.comm_ms.std, "{}: comm spread diverged", h.name);
        assert_eq!(h.exec_ms, c.exec_ms, "{}: exec time diverged", h.name);
        assert_eq!(h.peak_ingress_bytes, c.peak_ingress_bytes, "{}: ingress diverged", h.name);
        assert_eq!(h.mean_hops, c.mean_hops, "{}: hop count diverged", h.name);
        assert_eq!(h.latency_us.p99, c.latency_us.p99, "{}: latency diverged", h.name);
    }
    assert_eq!(
        heap.network.total_delivered_gb, cal.network.total_delivered_gb,
        "delivered bytes diverged"
    );
    assert_eq!(
        heap.network.system_latency_us.mean, cal.network.system_latency_us.mean,
        "system latency diverged"
    );
}

/// The paper's tiny pairwise experiment produces bit-identical reports on
/// every backend and tuning (only the backend label/engine block differ).
#[test]
fn pairwise_tiny72_reports_identical_across_backends() {
    let heap = run_with(QueueBackend::BinaryHeap, RoutingAlgo::UgalG, 7);
    assert_eq!(heap.queue, "heap");
    assert_eq!(heap.engine.backend, "heap");
    for backend in [
        QueueBackend::calendar_auto(),
        QueueBackend::Calendar(CalendarTuning::FIXED_NETWORK),
        // Partial tunings: each knob pinned alone.
        QueueBackend::Calendar(CalendarTuning { width: Some(40_960), buckets: None }),
        QueueBackend::Calendar(CalendarTuning { width: None, buckets: Some(512) }),
    ] {
        let cal = run_with(backend, RoutingAlgo::UgalG, 7);
        assert_eq!(cal.queue, "calendar");
        assert_eq!(cal.engine.backend, backend.describe());
        assert_equivalent(&heap, &cal);
    }
}

/// Equivalence is routing- and seed-independent (adaptive and RL routing
/// consult congestion state whose evolution depends on event order, so any
/// ordering divergence would surface here) — including under the
/// auto-tuned calendar, whose bucket array rebuilds mid-run.
#[test]
fn equivalence_holds_across_routings_and_seeds() {
    for (routing, seed) in
        [(RoutingAlgo::Minimal, 1), (RoutingAlgo::Par, 11), (RoutingAlgo::QAdaptive, 23)]
    {
        let heap = run_with(QueueBackend::BinaryHeap, routing, seed);
        for backend in
            [QueueBackend::calendar_auto(), QueueBackend::Calendar(CalendarTuning::FIXED_NETWORK)]
        {
            let cal = run_with(backend, routing, seed);
            assert_equivalent(&heap, &cal);
        }
    }
}

/// The engine block reports real work: identical event traffic across
/// backends, a plausible peak, and (auto calendar only) live self-tuning.
#[test]
fn engine_stats_are_populated_and_consistent() {
    let heap = run_with(QueueBackend::BinaryHeap, RoutingAlgo::UgalG, 7);
    let auto = run_with(QueueBackend::calendar_auto(), RoutingAlgo::UgalG, 7);
    assert_eq!(
        heap.engine.events_scheduled, auto.engine.events_scheduled,
        "scheduled-event traffic must be backend-invariant"
    );
    assert_eq!(
        heap.engine.peak_pending, auto.engine.peak_pending,
        "peak pending is a property of the workload, not the backend"
    );
    assert!(heap.engine.peak_pending > 0);
    assert!(heap.engine.events_scheduled >= heap.events);
    assert_eq!(heap.engine.final_buckets, 0, "heap reports no calendar geometry");
    assert!(auto.engine.final_buckets > 0);
    assert!(auto.engine.final_width_ps > 0);
    assert!(auto.engine.resizes > 0, "the auto tuner should have resized at least once");
    let line = auto.engine_summary();
    assert!(line.contains("calendar:auto") && line.contains("resizes"), "{line}");
}

/// Launching through `ExperimentSpec` → `Simulation::run()` produces the
/// bit-identical report the engine-level `run(&SimConfig, ..)` produces, on
/// every backend and tuning — the session API is a front-end over the same
/// engine, not a reimplementation.
#[test]
fn spec_sessions_match_engine_runs_on_every_backend() {
    for backend in QueueBackend::ALL {
        let cfg = SimConfig::test_tiny(RoutingAlgo::UgalG).with_queue(backend);
        let old = run(&cfg, &jobs());
        let new = run_with(backend, RoutingAlgo::UgalG, 7);
        assert_eq!(new.events, old.events, "{backend}: event count diverged");
        assert_equivalent(&old, &new);
    }
}

/// Warm-started Q-adaptive runs (Q-tables loaded from a snapshot instead
/// of the static estimates) realize the identical deterministic event
/// order on every backend too: a run that loads its own just-saved
/// snapshot is bit-identical across heap and calendar.
#[test]
fn warm_started_runs_identical_across_backends() {
    let snap = std::env::temp_dir().join(format!("dfsim_beq_warm_{}.snap", std::process::id()));
    // Train and save.
    let trained = run_spec(ExperimentSpec {
        qtable_save: Some(snap.clone()),
        ..tiny_spec(RoutingAlgo::QAdaptive, 23)
    });
    assert!(trained.completed);

    let warm_with = |backend: QueueBackend| {
        run_spec(ExperimentSpec {
            qtable_load: Some(snap.clone()),
            queue: backend,
            ..tiny_spec(RoutingAlgo::QAdaptive, 29)
        })
    };
    let heap = warm_with(QueueBackend::BinaryHeap);
    for backend in
        [QueueBackend::calendar_auto(), QueueBackend::Calendar(CalendarTuning::FIXED_NETWORK)]
    {
        let cal = warm_with(backend);
        assert_equivalent(&heap, &cal);
        // The learning telemetry is part of the deterministic report.
        let (h, c) = (heap.learning.as_ref().unwrap(), cal.learning.as_ref().unwrap());
        assert_eq!(h.init, "warm");
        assert_eq!(h.updates, c.updates, "learning updates diverged");
        assert_eq!(h.series, c.series, "learning series diverged");
    }
    let _ = std::fs::remove_file(&snap);
}

/// The spec path (what the fig/table binaries use) threads the backend
/// through `sim()` identically.
#[test]
fn spec_threads_backend_through_sim() {
    for backend in QueueBackend::ALL {
        let spec = ExperimentSpec {
            scale: 4_096.0,
            params: DragonflyParams::tiny_72(),
            queue: backend,
            ..Default::default()
        };
        assert_eq!(spec.sim().queue, backend);
        let workload = Workload::pairwise(AppKind::LU, Some(AppKind::UR));
        let report = Simulation::run_one(&spec, workload).unwrap().report;
        assert!(report.completed, "{backend}: {}", report.stop_reason);
        assert_eq!(report.queue, backend.label());
    }
}
