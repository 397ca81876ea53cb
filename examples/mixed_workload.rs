//! The Table II mixed workload (paper §VI): six applications with distinct
//! communication patterns co-running on all 1,056 nodes.
//!
//! ```sh
//! cargo run --release --example mixed_workload            # Q-adaptive
//! cargo run --release --example mixed_workload -- --routing PAR
//! cargo run --release --example mixed_workload -- --routing PAR,Q-adp --scale 256
//! ```
//!
//! Every argument is a spec flag (any `--NAME VALUE`). The defaults are
//! `--workload mixed`, `--routing Q-adp` (one table per routing given) and
//! `--scale 128`.

use dragonfly_interference::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = ExperimentSpec {
        workload: Workload::Mixed,
        routings: vec![RoutingAlgo::QAdaptive],
        scale: 128.0,
        ..Default::default()
    }
    .resolve(&args)
    .unwrap_or_else(|e| die(&e));
    for &routing in &spec.routings {
        report(&spec, routing);
    }
}

/// Run the spec's workload under `routing` and print its per-app table and
/// network summary.
fn report(spec: &ExperimentSpec, routing: RoutingAlgo) {
    println!("{} under {routing} @ scale 1/{}", spec.workload.describe(), spec.scale);
    let report = Simulation::run_one(&spec.cell(routing), spec.workload.clone())
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
