//! Golden regression pins: the `table2` and `fig8` summary statistics at a
//! fixed seed, on **both** queue backends, at test scale. Future hot-path
//! work (queue tuning, router fast paths, placement changes) must not
//! silently drift these numbers — an intentional behaviour change must
//! update the goldens in the same PR and say why.
//!
//! The pinned campaigns mirror the paper harness shrunk onto the 72-node
//! test system:
//! * **table2**: the §VI mixed workload, scaled onto the 72 nodes,
//! * **fig8**: the LQCD + Stencil5D pairwise interference run.
//!
//! Integer statistics (event counts, peak-ingress bytes) are pinned
//! exactly; floating-point ones to a relative 1e-9 (they are
//! IEEE-deterministic on a given code path, the slack only guards against
//! non-associative refactors of summary arithmetic).
//!
//! Regenerate after an intentional change with
//! `cargo test --release --test golden_regression -- --ignored --nocapture`.

use dragonfly_interference::prelude::*;

fn study(backend: QueueBackend) -> ExperimentSpec {
    ExperimentSpec {
        routings: vec![RoutingAlgo::UgalG],
        scale: 4_096.0,
        seed: 42,
        params: DragonflyParams::tiny_72(),
        queue: backend,
        ..Default::default()
    }
}

fn mixed(spec: &ExperimentSpec) -> RunReport {
    Simulation::run_one(spec, Workload::Mixed).unwrap().report
}

fn pairwise(target: AppKind, background: Option<AppKind>, spec: &ExperimentSpec) -> RunReport {
    Simulation::run_one(spec, Workload::pairwise(target, background)).unwrap().report
}

fn assert_close(actual: f64, golden: f64, what: &str) {
    let tol = golden.abs() * 1e-9 + 1e-12;
    assert!(
        (actual - golden).abs() <= tol,
        "{what} drifted: actual {actual:.12}, golden {golden:.12}"
    );
}

// Golden values generated by `generate_goldens` below (scale 4096, seed 42,
// UGALg, tiny_72).
const TABLE2_EVENTS: u64 = 8_974;
const TABLE2_SIM_MS: f64 = 0.008691132;
/// `(name, exec_ms, comm_ms.mean, peak_ingress_bytes)` in job order.
const TABLE2_APPS: [(&str, f64, f64, u64); 6] = [
    ("FFT3D", 0.007593544, 0.0048771338, 84),
    ("CosmoFlow", 0.008691132, 0.005507893333333, 576),
    ("LU", 0.0055285, 0.0018873726, 404),
    ("UR", 0.008270008, 0.006277605, 684),
    ("LQCD", 0.004553378, 0.001363843529412, 736),
    ("Stencil5D", 0.003374074, 0.000846023529412, 1_434),
];

const FIG8_EVENTS: u64 = 9_846;
const FIG8_SIM_MS: f64 = 0.004655778;
const FIG8_LQCD_COMM_MS: f64 = 0.001630626666667;
const FIG8_STENCIL5D_COMM_MS: f64 = 0.000944004444444;
const FIG8_LQCD_ALONE_COMM_MS: f64 = 0.001656906666667;

#[test]
fn table2_mixed_summary_is_pinned_on_both_backends() {
    for backend in QueueBackend::ALL {
        let cfg = study(backend);
        let r = mixed(&cfg);
        assert!(r.completed, "{backend}: {}", r.stop_reason);
        assert_eq!(r.events, TABLE2_EVENTS, "{backend}: event count drifted");
        assert_close(r.sim_ms, TABLE2_SIM_MS, "table2 sim_ms");
        assert_eq!(r.apps.len(), TABLE2_APPS.len());
        for (a, &(name, exec, comm, peak)) in r.apps.iter().zip(&TABLE2_APPS) {
            assert_eq!(a.name, name);
            assert_close(a.exec_ms, exec, &format!("{backend}/{name} exec_ms"));
            assert_close(a.comm_ms.mean, comm, &format!("{backend}/{name} comm mean"));
            assert_eq!(a.peak_ingress_bytes, peak, "{backend}/{name}: peak ingress drifted");
        }
    }
}

#[test]
fn fig8_pairwise_summary_is_pinned_on_both_backends() {
    for backend in QueueBackend::ALL {
        let cfg = study(backend);
        let r = pairwise(AppKind::LQCD, Some(AppKind::Stencil5D), &cfg);
        assert!(r.completed, "{backend}: {}", r.stop_reason);
        assert_eq!(r.events, FIG8_EVENTS, "{backend}: event count drifted");
        assert_close(r.sim_ms, FIG8_SIM_MS, "fig8 sim_ms");
        assert_close(r.apps[0].comm_ms.mean, FIG8_LQCD_COMM_MS, "fig8 LQCD comm");
        assert_close(r.apps[1].comm_ms.mean, FIG8_STENCIL5D_COMM_MS, "fig8 Stencil5D comm");
    }
}

/// The standalone baseline of the fig8 pair is pinned too, so the derived
/// interference delta (interfered / alone) cannot drift from either side.
#[test]
fn fig8_standalone_baseline_is_pinned() {
    let cfg = study(QueueBackend::BinaryHeap);
    let alone = pairwise(AppKind::LQCD, None, &cfg);
    assert!(alone.completed);
    assert_close(alone.apps[0].comm_ms.mean, FIG8_LQCD_ALONE_COMM_MS, "fig8 LQCD alone comm");
}

/// The checked-in golden spec file reproduces the fig8 pinned report
/// bit-identically through `Simulation::from_spec` — a spec built in code
/// and the same spec parsed from a file give the same report, and the spec
/// format cannot drift from the goldens.
#[test]
fn golden_spec_file_reproduces_fig8_through_the_session_api() {
    let text = std::fs::read_to_string("tests/specs/fig8_tiny.spec").expect("golden spec");
    let spec = ExperimentSpec::parse(&text).expect("golden spec parses");
    let handle = Simulation::from_spec(spec).unwrap().run().unwrap();
    let r = &handle.report;
    assert!(r.completed, "{}", r.stop_reason);
    assert_eq!(r.events, FIG8_EVENTS, "spec-launched fig8: event count drifted");
    assert_close(r.sim_ms, FIG8_SIM_MS, "spec-launched fig8 sim_ms");
    assert_close(r.apps[0].comm_ms.mean, FIG8_LQCD_COMM_MS, "spec-launched fig8 LQCD comm");
    assert_close(
        r.apps[1].comm_ms.mean,
        FIG8_STENCIL5D_COMM_MS,
        "spec-launched fig8 Stencil5D comm",
    );

    // Bit-identical to the in-code spec, field for field — not merely
    // within the golden tolerance.
    let old = pairwise(AppKind::LQCD, Some(AppKind::Stencil5D), &study(QueueBackend::BinaryHeap));
    assert_eq!(r.events, old.events);
    assert_eq!(r.sim_ms, old.sim_ms);
    assert_eq!(r.apps.len(), old.apps.len());
    for (n, o) in r.apps.iter().zip(&old.apps) {
        assert_eq!(n.name, o.name);
        assert_eq!(n.comm_ms.mean, o.comm_ms.mean, "{}", n.name);
        assert_eq!(n.comm_ms.std, o.comm_ms.std, "{}", n.name);
        assert_eq!(n.exec_ms, o.exec_ms, "{}", n.name);
        assert_eq!(n.peak_ingress_bytes, o.peak_ingress_bytes, "{}", n.name);
        assert_eq!(n.latency_us.p99, o.latency_us.p99, "{}", n.name);
    }
    assert_eq!(r.network.total_delivered_gb, old.network.total_delivered_gb);
    assert_eq!(r.network.system_latency_us.mean, old.network.system_latency_us.mean);
}

/// Regenerate the goldens:
/// `cargo test --release --test golden_regression -- --ignored --nocapture`
#[test]
#[ignore]
fn generate_goldens() {
    let cfg = study(QueueBackend::BinaryHeap);
    let t2 = mixed(&cfg);
    println!("T2 events={} sim_ms={:.12}", t2.events, t2.sim_ms);
    for a in &t2.apps {
        println!(
            "T2 app {} exec_ms={:.12} comm_mean={:.12} peak={}",
            a.name, a.exec_ms, a.comm_ms.mean, a.peak_ingress_bytes
        );
    }
    let f8 = pairwise(AppKind::LQCD, Some(AppKind::Stencil5D), &cfg);
    println!("F8 events={} sim_ms={:.12}", f8.events, f8.sim_ms);
    for a in &f8.apps {
        println!("F8 app {} exec_ms={:.12} comm_mean={:.12}", a.name, a.exec_ms, a.comm_ms.mean);
    }
    let alone = pairwise(AppKind::LQCD, None, &cfg);
    println!("F8 LQCD alone comm_mean={:.12}", alone.apps[0].comm_ms.mean);
}
