//! Pairwise interference study (paper §V): pick a target and a background
//! app from the command line, run standalone + co-running under each
//! routing algorithm, and print the Fig-4-style comparison.
//!
//! ```sh
//! cargo run --release --example pairwise_interference -- --workload "pairwise LQCD Stencil5D"
//! cargo run --release --example pairwise_interference -- --workload "pairwise FFT3D DL" \
//!     --scale 256
//! ```
//!
//! Every argument is a spec flag (any `--NAME VALUE`). The defaults are
//! `--workload "pairwise FFT3D Halo3D"`, `--routing UGALg,UGALn,PAR,Q-adp`
//! (one row each) and `--scale 128`.

use dragonfly_interference::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = ExperimentSpec {
        workload: Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)),
        routings: RoutingAlgo::PAPER_SET.to_vec(),
        scale: 128.0,
        ..Default::default()
    }
    .resolve(&args)
    .unwrap_or_else(|e| die(&e));
    let Workload::Pairwise { target, background: Some(background) } = spec.workload else {
        die("pairwise_interference needs --workload \"pairwise TARGET BACKGROUND\"")
    };
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
    for &routing in &spec.routings {
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
