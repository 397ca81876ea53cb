//! Event-queue ablation: radix heap vs self-tuning calendar queue
//! (DESIGN.md §7).
//!
//! Three tiers, increasingly close to production:
//!
//! * **hold** — the classic pop-one/push-one steady-state model with the
//!   network's event mix (short-horizon pushes plus ~2% far-horizon
//!   compute wake-ups),
//! * **world** — a full tiny-Dragonfly pairwise run with the world loop
//!   monomorphized over each backend (spec key `queue`),
//! * **churn** — a Poisson job-arrival scenario (`workload poisson`):
//!   ns-scale traffic plus ms-scale arrivals in one pending set.
//!
//! `DFSIM_BENCH_SMOKE=1` shrinks every tier to a few-second CI smoke run
//! (the CI workflow uses it to catch queue regressions early).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dfsim_apps::AppKind;
use dfsim_core::runner::JobSpec;
use dfsim_core::{ExperimentSpec, Simulation, Workload};
use dfsim_des::calendar::CalendarQueue;
use dfsim_des::queue::{EventQueue, PendingEvents, QueueBackend};
use dfsim_des::SimRng;
use dfsim_topology::DragonflyParams;

/// The UR + Halo3D pairwise run on the 72-node test system.
fn tiny_pairwise() -> ExperimentSpec {
    ExperimentSpec {
        workload: Workload::jobs(vec![
            JobSpec::sized(AppKind::UR, 36),
            JobSpec::sized(AppKind::Halo3D, 36),
        ]),
        params: DragonflyParams::tiny_72(),
        scale: 2_048.0,
        seed: 7,
        ..Default::default()
    }
}

/// Run `spec` to completion and return its event count.
fn events_of(spec: ExperimentSpec) -> u64 {
    let report = Simulation::from_spec(spec).unwrap().run().unwrap().report;
    assert!(report.completed);
    report.events
}

fn smoke() -> bool {
    // lint: allow(no-ambient-env) — CI harness knob selecting smoke iteration
    // counts; it configures the bench runner itself, never an experiment, so
    // it has no spec-resolution path to ride.
    std::env::var("DFSIM_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

fn churn<Q: PendingEvents<u64>>(q: &mut Q, n: u64, rng: &mut SimRng) -> u64 {
    let mut now = 0u64;
    let mut acc = 0u64;
    // Prime with some pending events.
    for i in 0..256 {
        q.push(i * 977, i);
    }
    for i in 0..n {
        // Hold-model: pop one, push one (steady-state simulation shape).
        if let Some((t, e)) = q.pop() {
            now = t;
            acc = acc.wrapping_add(e);
        }
        let horizon = if rng.chance(0.02) { 5_000_000 } else { 40_000 };
        q.push(now + 1 + rng.below(horizon), i);
    }
    acc
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    if smoke() {
        group.sample_size(3);
    }
    let sizes: &[u64] = if smoke() { &[2_000] } else { &[10_000, 100_000] };
    for &n in sizes {
        group.bench_with_input(BenchmarkId::new("heap", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut rng = SimRng::new(1);
                black_box(churn(&mut q, n, &mut rng))
            })
        });
        group.bench_with_input(BenchmarkId::new("calendar_auto", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = CalendarQueue::auto();
                let mut rng = SimRng::new(1);
                black_box(churn(&mut q, n, &mut rng))
            })
        });
    }
    group.finish();
}

/// The same ablation through the real hot path: a full tiny-Dragonfly
/// pairwise run with the world loop monomorphized over each backend
/// (spec key `queue`), exactly what the fig/table binaries execute.
fn bench_world_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_world");
    group.sample_size(if smoke() { 2 } else { 10 });
    for backend in QueueBackend::ALL {
        group.bench_with_input(
            BenchmarkId::new("ur_halo3d_tiny72", backend),
            &backend,
            |b, &backend| {
                b.iter(|| {
                    black_box(events_of(ExperimentSpec { queue: backend, ..tiny_pairwise() }))
                })
            },
        );
    }
    group.finish();
}

/// The churn-scenario-driven mix: Poisson arrivals over four workload kinds
/// through the scenario driver — ms-scale job events co-pending with ns-scale
/// packet traffic, the widest time-scale spread the simulator produces.
fn bench_churn_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_churn");
    group.sample_size(if smoke() { 2 } else { 10 });
    let jobs = if smoke() { 4 } else { 10 };
    for backend in QueueBackend::ALL {
        group.bench_with_input(
            BenchmarkId::new("poisson_tiny72", backend),
            &backend,
            |b, &backend| {
                b.iter(|| {
                    black_box(events_of(ExperimentSpec {
                        workload: Workload::Poisson,
                        rates: vec![500.0],
                        jobs,
                        apps: vec![AppKind::UR, AppKind::CosmoFlow, AppKind::LU, AppKind::FFT3D],
                        sizes: vec![18, 36],
                        queue: backend,
                        ..tiny_pairwise()
                    }))
                })
            },
        );
    }
    group.finish();
}

/// The partitioned parallel engine over the same pairwise world loop:
/// group-sharded tiny-72 (9 groups) at 1, 2, 4, and 8 partitions.
/// `threads=1` runs one shard on the calling thread, the same loop as
/// `event_queue_world/ur_halo3d_tiny72/heap`; higher counts measure
/// lockstep-window scaling (reports stay bit-identical, so this is a pure
/// speed knob).
fn bench_partitioned_world(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioned_world");
    group.sample_size(if smoke() { 2 } else { 10 });
    for parts in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("ur_halo3d_tiny72", parts), &parts, |b, &parts| {
            b.iter(|| black_box(events_of(ExperimentSpec { threads: parts, ..tiny_pairwise() })))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_queues,
    bench_world_loop,
    bench_churn_scenario,
    bench_partitioned_world
);
criterion_main!(benches);
