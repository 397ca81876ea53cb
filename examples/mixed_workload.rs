//! The Table II mixed workload (paper §VI): six applications with distinct
//! communication patterns co-running on all 1,056 nodes.
//!
//! ```sh
//! cargo run --release --example mixed_workload            # Q-adaptive
//! cargo run --release --example mixed_workload -- PAR
//! ```

use dragonfly_interference::prelude::*;

fn main() {
    let routing = std::env::args()
        .nth(1)
        .map(|s| lookup::<RoutingAlgo>(&s).unwrap_or_else(|e| die(&e)))
        .unwrap_or(RoutingAlgo::QAdaptive);
    let spec = ExperimentSpec { scale: 128.0, ..Default::default() }
        .resolve(&[])
        .unwrap_or_else(|e| die(&e));

    println!("mixed workload (Table II) under {routing} @ scale 1/{}", spec.scale);
    let report = Simulation::run_one(&spec.cell(routing), Workload::Mixed)
        .unwrap_or_else(|e| die(&e))
        .report;

    let mut t = TextTable::new(vec![
        "App",
        "ranks",
        "comm (ms)",
        "±std",
        "exec (ms)",
        "inj GB/s",
        "detour %",
    ]);
    for a in &report.apps {
        t.row(vec![
            a.name.clone(),
            a.size.to_string(),
            format!("{:.4}", a.comm_ms.mean),
            format!("{:.4}", a.comm_ms.std),
            format!("{:.4}", a.exec_ms),
            format!("{:.1}", a.inj_rate_gbs),
            format!("{:.1}", a.detour_frac * 100.0),
        ]);
    }
    println!("{}", t.render());
    let n = &report.network;
    println!(
        "network: mean aggregate throughput {:.3} GB/ms; system latency mean {:.2} us, \
         p99 {:.2} us;",
        n.mean_system_throughput, n.system_latency_us.mean, n.system_latency_us.p99
    );
    println!(
        "         avg local stall/group {:.4} ms, avg global stall/link {:.5} ms, \
         congestion-index std {:.4}",
        n.avg_local_stall_ms, n.avg_global_stall_ms, n.std_global_congestion
    );
    println!(
        "completed: {} ({} events, {:.1}s wall)",
        report.completed, report.events, report.wall_s
    );
}
