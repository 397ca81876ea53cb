//! Shape tests: the paper's qualitative findings must hold end-to-end.
//! These are the reproduction's acceptance tests. They run on a 342-node
//! Dragonfly (19 groups × 6 routers × 3 nodes — the balanced h=3 system)
//! at scale 1/64, which keeps per-link contention representative of the
//! full 1,056-node study while staying CI-sized; the full-size numbers are
//! produced by `dfsim sweep NAME` (`fig4`…`fig13`, `table1`, `table2`).

use dragonfly_interference::prelude::*;

/// Shared campaign spec.
fn study(routing: RoutingAlgo) -> ExperimentSpec {
    ExperimentSpec {
        routings: vec![routing],
        scale: 64.0,
        seed: 42,
        placement: Placement::Random,
        params: DragonflyParams::balanced(3),
        ..Default::default()
    }
}

fn pairwise(target: AppKind, background: Option<AppKind>, spec: &ExperimentSpec) -> RunReport {
    Simulation::run_one(spec, Workload::pairwise(target, background)).unwrap().report
}

fn standalone(target: AppKind, spec: &ExperimentSpec) -> RunReport {
    Simulation::run_one(spec, Workload::standalone(target)).unwrap().report
}

#[test]
fn high_injection_background_interferes_more_than_low() {
    // Paper §V-A: UR barely touches FFT3D; Halo3D delays it substantially.
    let cfg = study(RoutingAlgo::UgalG);
    let alone = pairwise(AppKind::FFT3D, None, &cfg);
    let with_ur = pairwise(AppKind::FFT3D, Some(AppKind::UR), &cfg);
    let with_halo = pairwise(AppKind::FFT3D, Some(AppKind::Halo3D), &cfg);
    let base = alone.apps[0].comm_ms.mean;
    let ur = with_ur.apps[0].comm_ms.mean / base;
    let halo = with_halo.apps[0].comm_ms.mean / base;
    assert!(halo > ur, "Halo3D (x{halo:.3}) must interfere more than UR (x{ur:.3})");
    assert!(halo > 1.05, "Halo3D should visibly slow FFT3D, got x{halo:.3}");
}

#[test]
fn large_peak_ingress_targets_resist_interference() {
    // Paper §V-C: Stencil5D (largest peak ingress) is barely affected by
    // LQCD, while LQCD suffers from Stencil5D.
    let cfg = study(RoutingAlgo::Par);
    let lqcd_alone = pairwise(AppKind::LQCD, None, &cfg);
    let st_alone = pairwise(AppKind::Stencil5D, None, &cfg);
    let both = pairwise(AppKind::LQCD, Some(AppKind::Stencil5D), &cfg);
    let lqcd_delta = both.apps[0].comm_ms.mean / lqcd_alone.apps[0].comm_ms.mean;
    let st_delta = both.apps[1].comm_ms.mean / st_alone.apps[0].comm_ms.mean;
    assert!(
        lqcd_delta > st_delta,
        "LQCD (x{lqcd_delta:.3}) should suffer more than Stencil5D (x{st_delta:.3})"
    );
}

#[test]
fn qadaptive_beats_adaptive_under_interference() {
    // Paper headline: Q-adaptive reduces interfered communication time vs
    // PAR (up to 42.63% in the paper).
    let par = pairwise(AppKind::FFT3D, Some(AppKind::Halo3D), &study(RoutingAlgo::Par));
    let qa = pairwise(AppKind::FFT3D, Some(AppKind::Halo3D), &study(RoutingAlgo::QAdaptive));
    let p = par.apps[0].comm_ms.mean;
    let q = qa.apps[0].comm_ms.mean;
    assert!(q < p, "Q-adaptive ({q:.4} ms) must beat PAR ({p:.4} ms) for interfered FFT3D");
}

#[test]
fn qadaptive_beats_adaptive_standalone_average() {
    // Paper §V intro: standalone, Q-adaptive achieves equal or better
    // performance (LU/LQCD/Stencil5D/LULESH average 23.46% under PAR).
    let mut par_total = 0.0;
    let mut qa_total = 0.0;
    for kind in [AppKind::LU, AppKind::LQCD, AppKind::Stencil5D] {
        par_total += standalone(kind, &study(RoutingAlgo::Par)).apps[0].comm_ms.mean;
        qa_total += standalone(kind, &study(RoutingAlgo::QAdaptive)).apps[0].comm_ms.mean;
    }
    assert!(
        qa_total < par_total,
        "Q-adaptive standalone total {qa_total:.4} ms should beat PAR {par_total:.4} ms"
    );
}

#[test]
fn computation_masks_interference_for_cosmoflow() {
    // Paper §V-D: CosmoFlow's long compute hides most of Halo3D's
    // interference — its execution-time delta stays below FFT3D's.
    let cfg = study(RoutingAlgo::Par);
    let cosmo_alone = pairwise(AppKind::CosmoFlow, None, &cfg);
    let cosmo_pair = pairwise(AppKind::CosmoFlow, Some(AppKind::Halo3D), &cfg);
    let fft_alone = pairwise(AppKind::FFT3D, None, &cfg);
    let fft_pair = pairwise(AppKind::FFT3D, Some(AppKind::Halo3D), &cfg);
    let cosmo_exec_delta = cosmo_pair.apps[0].exec_ms / cosmo_alone.apps[0].exec_ms;
    let fft_exec_delta = fft_pair.apps[0].exec_ms / fft_alone.apps[0].exec_ms;
    assert!(
        cosmo_exec_delta < fft_exec_delta,
        "CosmoFlow exec delta x{cosmo_exec_delta:.3} should stay below FFT3D's x{fft_exec_delta:.3}"
    );
}

#[test]
fn adaptive_routing_sprays_while_min_does_not() {
    // Paper §VI-B: adaptive routing non-minimally forwards a large share
    // of packets under load; MIN by definition never does.
    let cfg = study(RoutingAlgo::UgalG);
    let loaded = pairwise(AppKind::UR, Some(AppKind::Halo3D), &cfg);
    assert!(
        loaded.apps[0].detour_frac > 0.10,
        "UGALg should detour a visible share under load, got {:.3}",
        loaded.apps[0].detour_frac
    );
    let min_cfg = study(RoutingAlgo::Minimal);
    let min_run = pairwise(AppKind::UR, Some(AppKind::Halo3D), &min_cfg);
    assert_eq!(min_run.apps[0].detour_frac, 0.0);
}

#[test]
fn qadaptive_wastes_less_global_bandwidth() {
    // Paper §VI-B: unnecessary non-minimal forwarding "consumes more
    // network resources to deliver the same amount of traffic". Both runs
    // deliver identical payloads, so a lower mean global congestion index
    // means less wasted global bandwidth.
    let par = pairwise(AppKind::FFT3D, Some(AppKind::Halo3D), &study(RoutingAlgo::Par));
    let qa = pairwise(AppKind::FFT3D, Some(AppKind::Halo3D), &study(RoutingAlgo::QAdaptive));
    assert!(
        qa.network.mean_global_congestion < par.network.mean_global_congestion,
        "Q-adp mean global congestion {:.4} should undercut PAR's {:.4}",
        qa.network.mean_global_congestion,
        par.network.mean_global_congestion
    );
}
