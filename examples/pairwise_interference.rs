//! Pairwise interference study (paper §V): pick a target and a background
//! app from the command line, run standalone + co-running under every
//! routing algorithm, and print the Fig-4-style comparison.
//!
//! ```sh
//! cargo run --release --example pairwise_interference -- LQCD Stencil5D
//! SCALE=128 cargo run --release --example pairwise_interference -- FFT3D DL
//! ```

use dragonfly_interference::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let target = args.get(1).and_then(|s| AppKind::from_name(s)).unwrap_or(AppKind::FFT3D);
    let background = args.get(2).and_then(|s| AppKind::from_name(s)).unwrap_or(AppKind::Halo3D);
    let spec = ExperimentSpec { scale: 128.0, ..Default::default() }
        .resolve(&[])
        .unwrap_or_else(|e| die(&e));
    let run = |routing, background| {
        let workload = Workload::pairwise(target, background);
        Simulation::run_one(&spec.cell(routing), workload).unwrap_or_else(|e| die(&e)).report
    };

    println!("pairwise {target} + {background} @ scale 1/{}", spec.scale);
    let mut table = TextTable::new(vec![
        "Routing",
        "alone (ms)",
        "interfered (ms)",
        "slowdown",
        "variation %",
        "p99 latency us",
    ]);
    for routing in RoutingAlgo::PAPER_SET {
        let alone = run(routing, None);
        let both = run(routing, Some(background));
        let a = &alone.apps[0];
        let b = &both.apps[0];
        table.row(vec![
            routing.label().to_string(),
            format!("{:.4}", a.comm_ms.mean),
            format!("{:.4}", b.comm_ms.mean),
            format!("{:.2}x", b.comm_ms.mean / a.comm_ms.mean),
            format!("{:.1}", b.comm_ms.variation_pct()),
            format!("{:.2}", b.latency_us.p99),
        ]);
    }
    println!("{}", table.render());
    println!(
        "reading guide (paper §V): high-injection-rate backgrounds (Halo3D, DL) hurt;\n\
         large-peak-ingress targets (LQCD, Stencil5D) resist; Q-adp rows should show\n\
         the smallest interfered times and variation."
    );
}
