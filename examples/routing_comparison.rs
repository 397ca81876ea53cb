//! Compare all five routing algorithms (the paper's four plus the MIN
//! baseline) on one workload, standalone by default — the sanity check
//! behind Fig 4's blue bars. Each row reports the workload's first app.
//!
//! ```sh
//! cargo run --release --example routing_comparison -- --workload "standalone Halo3D"
//! cargo run --release --example routing_comparison -- --workload "standalone Halo3D" --scale 512
//! ```
//!
//! Every argument is a spec flag (any `--NAME VALUE`). The defaults are
//! `--workload "standalone LU"`, `--routing MIN,UGALg,UGALn,PAR,Q-adp` (one
//! row each) and `--scale 128`.

use dragonfly_interference::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = ExperimentSpec {
        workload: Workload::standalone(AppKind::LU),
        routings: RoutingAlgo::ALL.to_vec(),
        scale: 128.0,
        ..Default::default()
    }
    .resolve(&args)
    .unwrap_or_else(|e| die(&e));
    println!(
        "{} on the {}-node system @ scale 1/{}",
        spec.workload.describe(),
        spec.params.num_nodes(),
        spec.scale
    );

    let mut t = TextTable::new(vec![
        "Routing",
        "comm (ms)",
        "±std",
        "exec (ms)",
        "detour %",
        "mean lat us",
        "p99 lat us",
    ]);
    for &routing in &spec.routings {
        let r = Simulation::run_one(&spec.cell(routing), spec.workload.clone())
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
