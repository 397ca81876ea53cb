//! End-to-end integration tests spanning every crate: full simulations on
//! the 72-node test Dragonfly (and a few on the paper system) exercising
//! apps → MPI → network → metrics → report.

use dragonfly_interference::prelude::*;

fn tiny_cfg(routing: RoutingAlgo) -> SimConfig {
    SimConfig::test_tiny(routing)
}

#[test]
fn every_app_completes_standalone_under_every_routing() {
    for routing in [
        RoutingAlgo::Minimal,
        RoutingAlgo::UgalG,
        RoutingAlgo::UgalN,
        RoutingAlgo::Par,
        RoutingAlgo::QAdaptive,
    ] {
        let cfg = tiny_cfg(routing);
        for kind in AppKind::ALL {
            let size = kind.preferred_size(36);
            let report = run(&cfg, &[JobSpec::sized(kind, size)]);
            assert!(report.completed, "{kind} under {routing}: {}", report.stop_reason);
            let a = &report.apps[0];
            assert!(a.exec_ms > 0.0, "{kind}: zero exec time");
            assert!(a.total_msg_mb > 0.0, "{kind}: no traffic");
            assert!((a.delivery_ratio - 1.0).abs() < 1e-9, "{kind} under {routing}: lost packets");
            assert_eq!(a.comm_ms.n as u32, size, "{kind}: missing rank records");
        }
    }
}

#[test]
fn interference_slows_the_target() {
    // FFT3D (latency-sensitive) + Halo3D (the bully): comm time must grow.
    // Scale 128 keeps enough traffic on the 72-node system for visible
    // contention (~1.19x measured; the full-system shape tests live in
    // tests/paper_shape.rs).
    let mut cfg = tiny_cfg(RoutingAlgo::UgalG);
    cfg.scale = 128.0;
    let alone = run(&cfg, &[JobSpec::sized(AppKind::FFT3D, 36)]);
    let pair =
        run(&cfg, &[JobSpec::sized(AppKind::FFT3D, 36), JobSpec::sized(AppKind::Halo3D, 36)]);
    assert!(alone.completed && pair.completed);
    let a = alone.apps[0].comm_ms.mean;
    let b = pair.apps[0].comm_ms.mean;
    assert!(b > a * 1.02, "expected visible interference: alone {a:.5} ms vs co-run {b:.5} ms");
}

#[test]
fn determinism_across_identical_runs() {
    let cfg = tiny_cfg(RoutingAlgo::QAdaptive);
    let jobs = [JobSpec::sized(AppKind::FFT3D, 36), JobSpec::sized(AppKind::UR, 36)];
    let a = run(&cfg, &jobs);
    let b = run(&cfg, &jobs);
    assert_eq!(a.events, b.events);
    assert_eq!(a.sim_ms, b.sim_ms);
    for (x, y) in a.apps.iter().zip(b.apps.iter()) {
        assert_eq!(x.comm_ms.mean, y.comm_ms.mean);
        assert_eq!(x.total_msg_mb, y.total_msg_mb);
        assert_eq!(x.latency_us.p99, y.latency_us.p99);
    }
}

#[test]
fn different_seeds_change_placement_and_results() {
    let mut cfg = tiny_cfg(RoutingAlgo::UgalN);
    let jobs = [JobSpec::sized(AppKind::LU, 36)];
    let a = run(&cfg, &jobs);
    cfg.seed = 1234;
    let b = run(&cfg, &jobs);
    // Identical would be astronomically unlikely with different placement.
    assert_ne!(a.events, b.events);
}

#[test]
fn byte_conservation_across_the_stack() {
    // Everything the apps inject is delivered; recorder totals agree.
    let cfg = tiny_cfg(RoutingAlgo::Par);
    let report = run(&cfg, &[JobSpec::sized(AppKind::Halo3D, 36), JobSpec::sized(AppKind::DL, 36)]);
    assert!(report.completed);
    for a in &report.apps {
        assert!((a.delivery_ratio - 1.0).abs() < 1e-9, "{}: loss", a.name);
    }
    assert!(report.network.total_delivered_gb > 0.0);
}

#[test]
fn paper_system_smoke_runs_quickly_at_high_scale() {
    // One real 1,056-node run (aggressively scaled) to cover paper-size
    // structures in CI.
    let cfg = SimConfig { scale: 4_096.0, ..SimConfig::with_routing(RoutingAlgo::QAdaptive) };
    let report =
        run(&cfg, &[JobSpec::sized(AppKind::FFT3D, 528), JobSpec::sized(AppKind::UR, 528)]);
    assert!(report.completed, "{}", report.stop_reason);
    assert_eq!(report.apps.len(), 2);
    assert!(report.network.system_latency_us.n > 0);
}

#[test]
fn report_fields_are_consistent() {
    let cfg = tiny_cfg(RoutingAlgo::UgalG);
    let report = run(&cfg, &[JobSpec::sized(AppKind::LQCD, 36)]);
    let a = &report.apps[0];
    // Injection rate = volume / exec time (within rounding).
    let expect = a.total_msg_mb / 1000.0 / (a.exec_ms / 1000.0);
    assert!(
        (a.inj_rate_gbs - expect).abs() / expect < 1e-6,
        "rate {} vs derived {expect}",
        a.inj_rate_gbs
    );
    // Latency quantiles are ordered.
    let l = &a.latency_us;
    assert!(l.q1 <= l.median && l.median <= l.q3 && l.q3 <= l.p95 && l.p95 <= l.p99);
    // Comm time can't exceed exec time.
    assert!(a.comm_ms.mean <= a.exec_ms);
}

#[test]
fn minimal_routing_stays_within_three_hops() {
    let cfg = tiny_cfg(RoutingAlgo::Minimal);
    let report = run(&cfg, &[JobSpec::sized(AppKind::UR, 36)]);
    let a = &report.apps[0];
    assert!(a.mean_hops > 0.0, "hops must be recorded");
    assert!(a.mean_hops <= 3.0, "MIN exceeded the Dragonfly diameter: {}", a.mean_hops);
    assert_eq!(a.detour_frac, 0.0);
    // Adaptive routing may exceed it (Valiant paths).
    let cfg = tiny_cfg(RoutingAlgo::UgalN);
    let ugal = run(&cfg, &[JobSpec::sized(AppKind::UR, 36)]);
    assert!(ugal.apps[0].mean_hops >= a.mean_hops * 0.9);
}

#[test]
fn mixed_workload_preset_completes_on_tiny_system() {
    for routing in [RoutingAlgo::Par, RoutingAlgo::QAdaptive] {
        let spec = ExperimentSpec {
            routings: vec![routing],
            scale: 4_096.0,
            seed: 5,
            placement: Placement::Random,
            params: DragonflyParams::tiny_72(),
            ..Default::default()
        };
        // Table II scales itself down to the 72-node system.
        let report = Simulation::run_one(&spec, Workload::Mixed).unwrap().report;
        assert!(report.completed, "{routing}: {}", report.stop_reason);
        assert_eq!(report.apps.len(), 6);
    }
}

#[test]
fn contiguous_placement_reduces_interference() {
    // The §I claim behind the placement alternative: isolating jobs into
    // groups suppresses interference even under adaptive routing.
    let base = ExperimentSpec {
        workload: Workload::pairwise(AppKind::CosmoFlow, Some(AppKind::Halo3D)),
        routings: vec![RoutingAlgo::UgalG],
        scale: 2_048.0,
        seed: 3,
        placement: Placement::Random,
        params: DragonflyParams::tiny_72(),
        ..Default::default()
    };
    let run = |spec| Simulation::from_spec(spec).unwrap().run().unwrap().report;
    let random = run(base.clone());
    let contiguous = run(ExperimentSpec { placement: Placement::Contiguous, ..base });
    assert!(random.completed && contiguous.completed);
    let r = random.apps[0].comm_ms.mean;
    let c = contiguous.apps[0].comm_ms.mean;
    assert!(c < r, "contiguous ({c:.5} ms) should isolate better than random ({r:.5} ms)");
}
