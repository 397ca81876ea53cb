//! Quickstart: simulate one application on the paper's 1,056-node
//! Dragonfly, then co-run it with an aggressive background and compare a
//! baseline routing with a second one.
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --scale 4096 --seed 7
//! cargo run --release --example quickstart -- --workload "pairwise LQCD DL" --routing UGALg,Q-adp
//! ```
//!
//! Every argument is a spec flag (any `--NAME VALUE`), resolved through the
//! experiment-spec layering, so an invalid value is a hard error, never a
//! silent default. The defaults are `--workload "pairwise FFT3D Halo3D"`,
//! `--routing PAR,Q-adp` (the baseline, then the routing compared with it)
//! and `--scale 256` for a fast demo.

use dragonfly_interference::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = ExperimentSpec {
        workload: Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)),
        routings: vec![RoutingAlgo::Par, RoutingAlgo::QAdaptive],
        scale: 256.0,
        ..Default::default()
    }
    .resolve(&args)
    .unwrap_or_else(|e| die(&e));
    let Workload::Pairwise { target, background: Some(bg) } = spec.workload else {
        die("quickstart needs a background: --workload \"pairwise TARGET BACKGROUND\"")
    };
    let [base, other] = spec.routings[..] else {
        die("quickstart compares two routings: --routing BASELINE,OTHER")
    };
    let run = |routing, workload| {
        Simulation::run_one(&spec.cell(routing), workload).unwrap_or_else(|e| die(&e)).report
    };
    let alone = Workload::standalone(target);
    let interfered = Workload::pairwise(target, Some(bg));

    let p = spec.params;
    println!(
        "Dragonfly {} nodes ({} groups x {} routers x {} nodes), scale 1/{}",
        p.num_nodes(),
        p.groups,
        p.routers_per_group,
        p.nodes_per_router,
        spec.scale
    );
    println!();

    // 1. The target alone on half the system.
    let solo = run(base, alone.clone());
    let t_solo = &solo.apps[0];
    println!(
        "{:<16} : comm {:>7.3} ms (±{:.3}), exec {:>7.3} ms, {} packets in {:.1}s wall",
        format!("{target} alone"),
        t_solo.comm_ms.mean,
        t_solo.comm_ms.std,
        t_solo.exec_ms,
        t_solo.latency_us.n,
        solo.wall_s,
    );

    // 2. The target with its background.
    let pair = run(base, interfered.clone());
    let t = &pair.apps[0];
    println!(
        "{:<16} : comm {:>7.3} ms (±{:.3}), exec {:>7.3} ms",
        format!("{target} + {bg}"),
        t.comm_ms.mean,
        t.comm_ms.std,
        t.exec_ms
    );
    let slowdown = t.comm_ms.mean / t_solo.comm_ms.mean;
    println!("                   interference slowdown: {slowdown:.2}x ({base} routing)");
    println!();

    // 3. The same pair under the other routing.
    let solo_o = run(other, alone);
    let pair_o = run(other, interfered);
    let t_o = &pair_o.apps[0];
    println!(
        "{:<16} : comm {:>7.3} ms (±{:.3})",
        format!("{other} alone"),
        solo_o.apps[0].comm_ms.mean,
        solo_o.apps[0].comm_ms.std
    );
    println!(
        "{:<16} : comm {:>7.3} ms (±{:.3})",
        format!("{other} + bg"),
        t_o.comm_ms.mean,
        t_o.comm_ms.std
    );
    let saving = 100.0 * (1.0 - t_o.comm_ms.mean / t.comm_ms.mean);
    println!("                   {other} saves {saving:.1}% of {target}'s communication time");
    println!();
    println!(
        "(paper, FFT3D + Halo3D: Halo3D delays FFT3D 2.7x under adaptive routing;\n\
         Q-adaptive cuts the interfered communication time by up to 42.63% — §V-A)"
    );
}
