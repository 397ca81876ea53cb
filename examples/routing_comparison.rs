//! Compare all five routing algorithms (the paper's four plus the MIN
//! baseline) on one workload, standalone — the sanity check behind Fig 4's
//! blue bars.
//!
//! ```sh
//! cargo run --release --example routing_comparison -- Halo3D
//! ```

use dragonfly_interference::prelude::*;

fn main() {
    let app = std::env::args().nth(1).and_then(|s| AppKind::from_name(&s)).unwrap_or(AppKind::LU);
    let spec = ExperimentSpec { scale: 128.0, ..Default::default() }
        .resolve(&[])
        .unwrap_or_else(|e| die(&e));
    println!("{app} standalone on 528 nodes @ scale 1/{}", spec.scale);

    let mut t = TextTable::new(vec![
        "Routing",
        "comm (ms)",
        "±std",
        "exec (ms)",
        "detour %",
        "mean lat us",
        "p99 lat us",
    ]);
    for routing in [
        RoutingAlgo::Minimal,
        RoutingAlgo::UgalG,
        RoutingAlgo::UgalN,
        RoutingAlgo::Par,
        RoutingAlgo::QAdaptive,
    ] {
        let r = Simulation::run_one(&spec.cell(routing), Workload::standalone(app))
            .unwrap_or_else(|e| die(&e))
            .report;
        let a = &r.apps[0];
        t.row(vec![
            routing.label().to_string(),
            format!("{:.4}", a.comm_ms.mean),
            format!("{:.4}", a.comm_ms.std),
            format!("{:.4}", a.exec_ms),
            format!("{:.1}", a.detour_frac * 100.0),
            format!("{:.2}", a.latency_us.mean),
            format!("{:.2}", a.latency_us.p99),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(paper §V: standalone, Q-adaptive matches or beats adaptive routing — on\n\
         average 23.46% less communication time than PAR for LU/LQCD/Stencil5D/LULESH)"
    );
}
