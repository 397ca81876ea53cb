//! End-to-end simulation throughput: a small UR workload on the 72-node
//! test Dragonfly under every routing algorithm. This is the number that
//! bounds the full study's wall time (events per second of the whole
//! stack: apps → MPI → network → metrics).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dfsim_apps::AppKind;
use dfsim_core::runner::JobSpec;
use dfsim_core::{ExperimentSpec, Simulation, Workload};
use dfsim_network::RoutingAlgo;
use dfsim_topology::DragonflyParams;

fn run_once(algo: RoutingAlgo) -> u64 {
    let spec = ExperimentSpec {
        workload: Workload::jobs(vec![
            JobSpec::sized(AppKind::UR, 36),
            JobSpec::sized(AppKind::Halo3D, 36),
        ]),
        params: DragonflyParams::tiny_72(),
        routings: vec![algo],
        scale: 2_048.0,
        seed: 7,
        ..Default::default()
    };
    let report = Simulation::from_spec(spec).unwrap().run().unwrap().report;
    assert!(report.completed);
    report.events
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_tiny72");
    group.sample_size(10);
    for algo in RoutingAlgo::PAPER_SET {
        group.bench_with_input(BenchmarkId::new("ur_halo3d", algo.label()), &algo, |b, &algo| {
            b.iter(|| black_box(run_once(algo)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
