//! Quickstart: simulate one application on the paper's 1,056-node
//! Dragonfly, then co-run it with an aggressive background and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Environment knobs: `SCALE` (workload scale divisor, default 256 for a
//! fast demo), `SEED` — resolved through the experiment-spec layering, so
//! an invalid value is a hard error, never a silent default.

use dragonfly_interference::prelude::*;

fn main() {
    let spec = ExperimentSpec { scale: 256.0, ..Default::default() }
        .resolve(&[])
        .unwrap_or_else(|e| die(&e));
    let run = |routing, workload| {
        Simulation::run_one(&spec.cell(routing), workload).unwrap_or_else(|e| die(&e)).report
    };
    let alone = Workload::standalone(AppKind::FFT3D);
    let interfered = Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D));

    println!("Dragonfly 1,056 nodes (33 groups x 8 routers x 4 nodes), scale 1/{}", spec.scale);
    println!();

    // 1. FFT3D alone on half the system.
    let solo = run(RoutingAlgo::Par, alone.clone());
    let fft_solo = &solo.apps[0];
    println!(
        "FFT3D alone      : comm {:>7.3} ms (±{:.3}), exec {:>7.3} ms, {} packets in {:.1}s wall",
        fft_solo.comm_ms.mean,
        fft_solo.comm_ms.std,
        fft_solo.exec_ms,
        fft_solo.latency_us.n,
        solo.wall_s,
    );

    // 2. FFT3D with Halo3D (the paper's most aggressive background).
    let pair = run(RoutingAlgo::Par, interfered.clone());
    let fft = &pair.apps[0];
    println!(
        "FFT3D + Halo3D   : comm {:>7.3} ms (±{:.3}), exec {:>7.3} ms",
        fft.comm_ms.mean, fft.comm_ms.std, fft.exec_ms
    );
    let slowdown = fft.comm_ms.mean / fft_solo.comm_ms.mean;
    println!("                   interference slowdown: {slowdown:.2}x (PAR routing)");
    println!();

    // 3. The same pair under Q-adaptive routing.
    let solo_q = run(RoutingAlgo::QAdaptive, alone);
    let pair_q = run(RoutingAlgo::QAdaptive, interfered);
    let fft_q = &pair_q.apps[0];
    println!(
        "Q-adaptive alone : comm {:>7.3} ms (±{:.3})",
        solo_q.apps[0].comm_ms.mean, solo_q.apps[0].comm_ms.std
    );
    println!("Q-adaptive + bg  : comm {:>7.3} ms (±{:.3})", fft_q.comm_ms.mean, fft_q.comm_ms.std);
    let saving = 100.0 * (1.0 - fft_q.comm_ms.mean / fft.comm_ms.mean);
    println!("                   Q-adaptive saves {saving:.1}% of FFT3D's communication time");
    println!();
    println!(
        "(paper: Halo3D delays FFT3D 2.7x under adaptive routing; Q-adaptive cuts the\n\
         interfered communication time by up to 42.63% — §V-A)"
    );
}
