//! Build–run–report: execute a job mix and produce a [`RunReport`].

// Hot path: a panic here is an outage. Rewrite it onto the error enum,
// or waive it with the invariant that rules it out.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dfsim_apps::AppKind;
use dfsim_des::{EngineStats, Time, MICROSECOND, MILLISECOND};
use dfsim_metrics::{AppId, Recorder, Stats};
use dfsim_topology::{LinkKind, Port, RouterId, Topology};

use crate::config::SimConfig;
use crate::placement::Placement;
use crate::report::{AppReport, EngineReport, JobReport, LearningReport, NetworkReport, RunReport};
use crate::world::StopReason;

/// One job of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The workload.
    pub kind: AppKind,
    /// Ranks.
    pub size: u32,
    /// Idle placeholder: reserves the partition's nodes without running
    /// anything (used to keep later jobs' node slices independent of an
    /// earlier job's exact size, e.g. LULESH's 512 of 528).
    pub idle: bool,
}

impl JobSpec {
    /// Job of an explicit size.
    pub fn sized(kind: AppKind, size: u32) -> Self {
        Self { kind, size, idle: false }
    }

    /// An idle partition of `size` nodes.
    pub fn idle(size: u32) -> Self {
        Self { kind: AppKind::UR, size, idle: true }
    }
}

/// Run `jobs` under an engine-level [`SimConfig`] with the paper's random
/// placement, from cold Q-tables — the one entry below
/// [`crate::simulation::Simulation`], for the engine's own tests.
pub fn run(cfg: &SimConfig, jobs: &[JobSpec]) -> RunReport {
    crate::partition::exec_static(cfg, jobs, Placement::Random, None).0
}

/// Assemble the [`RunReport`] of a finished run from its merged shard
/// outcomes. `starts[i]` is job `i`'s admission time (0 for
/// static runs), subtracted so `exec_ms` is service time, not absolute
/// finish time; `finished[i]` is app `i`'s completion time if it completed;
/// `events` is the canonical processed-event count; `job_reports` carries
/// the per-job churn outcomes (none for pinned jobs, so empty for static
/// runs).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per merged shard outcome; the callers hold them as separate values"
)]
pub(crate) fn build_report(
    cfg: &SimConfig,
    jobs: &[&JobSpec],
    topo: &Topology,
    rec: &Recorder,
    finished: &[Option<Time>],
    stats: EngineStats,
    events: u64,
    stop: StopReason,
    end_time: Time,
    wall_s: f64,
    starts: &[Time],
    job_reports: Vec<JobReport>,
) -> RunReport {
    debug_assert_eq!(jobs.len(), starts.len());
    debug_assert_eq!(jobs.len(), finished.len());
    let apps = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let id = AppId(i as u16);
            let record = rec.app(id);
            let exec = finished[i].unwrap_or(end_time).saturating_sub(starts[i]);
            let comm: Vec<f64> = record
                .map(|r| {
                    r.rank_comm.iter().map(|&(_, c, _)| c as f64 / MILLISECOND as f64).collect()
                })
                .unwrap_or_default();
            let (total_bytes, peak, latency, throughput, latency_series, ratio, detour) = record
                .map(|r| {
                    let lat = r.latencies.summarize();
                    let lat_us = dfsim_metrics::LatencySummary {
                        n: lat.n,
                        mean: lat.mean / MICROSECOND as f64,
                        q1: lat.q1 / MICROSECOND as f64,
                        median: lat.median / MICROSECOND as f64,
                        q3: lat.q3 / MICROSECOND as f64,
                        p95: lat.p95 / MICROSECOND as f64,
                        p99: lat.p99 / MICROSECOND as f64,
                        max: lat.max / MICROSECOND as f64,
                    };
                    let series = r
                        .latencies
                        .binned_mean(rec.config().bin_width)
                        .into_iter()
                        .map(|(t, v)| (t as f64 / MILLISECOND as f64, v / MICROSECOND as f64))
                        .collect();
                    let ratio = if r.packets_injected == 0 {
                        1.0
                    } else {
                        r.packets_delivered as f64 / r.packets_injected as f64
                    };
                    let detour = if r.packets_delivered == 0 {
                        0.0
                    } else {
                        r.packets_detoured as f64 / r.packets_delivered as f64
                    };
                    (
                        r.injected.total(),
                        r.max_ingress_burst,
                        lat_us,
                        r.delivered.as_gb_per_ms(),
                        series,
                        ratio,
                        detour,
                    )
                })
                .unwrap_or_else(|| (0, 0, Default::default(), vec![], vec![], 1.0, 0.0));
            let exec_s = exec as f64 / 1e12;
            AppReport {
                name: job.kind.name().to_string(),
                app: i as u16,
                size: job.size,
                comm_ms: Stats::of(&comm),
                exec_ms: exec as f64 / MILLISECOND as f64,
                total_msg_mb: total_bytes as f64 / 1e6,
                inj_rate_gbs: if exec_s > 0.0 { total_bytes as f64 / 1e9 / exec_s } else { 0.0 },
                peak_ingress_bytes: peak,
                latency_us: latency,
                throughput,
                latency_series,
                delivery_ratio: ratio,
                detour_frac: detour,
                mean_hops: record
                    .map(|r| {
                        if r.packets_delivered == 0 {
                            0.0
                        } else {
                            r.hops_total as f64 / r.packets_delivered as f64
                        }
                    })
                    .unwrap_or(0.0),
            }
        })
        .collect();

    let network = network_report(topo, rec, end_time, cfg);

    let learning = (!rec.learning().is_empty()).then(|| {
        let trace = rec.learning();
        LearningReport {
            init: cfg.routing.qtable_init.label().to_string(),
            updates: trace.updates(),
            mean_abs_dq1_ns: trace.mean_abs() / 1e3,
            series: trace
                .series()
                .into_iter()
                .map(|(t, m)| (t as f64 / MILLISECOND as f64, m / 1e3))
                .collect(),
        }
    });

    let engine = EngineReport {
        backend: cfg.queue.describe(),
        events_scheduled: stats.events_scheduled,
        peak_pending: stats.peak_pending as u64,
        resizes: stats.resizes,
        bucket_scans: stats.bucket_scans,
        sparse_jumps: stats.sparse_jumps,
        final_buckets: stats.buckets as u64,
        final_width_ps: stats.width_ps,
        events_per_sec: if wall_s > 0.0 { stats.events_processed as f64 / wall_s } else { 0.0 },
    };

    RunReport {
        routing: cfg.routing.algo.label().to_string(),
        queue: cfg.queue.label().to_string(),
        seed: cfg.seed,
        scale: cfg.scale,
        completed: stop == StopReason::AllFinished,
        stop_reason: format!("{stop:?}"),
        sim_ms: end_time as f64 / MILLISECOND as f64,
        events,
        wall_s,
        apps,
        jobs: job_reports,
        network,
        engine,
        learning,
    }
}

fn network_report(
    topo: &Topology,
    rec: &Recorder,
    end_time: Time,
    cfg: &SimConfig,
) -> NetworkReport {
    let g = topo.num_groups() as usize;
    let mut local_stall = vec![0.0f64; g];
    let mut global_stall = vec![vec![0.0f64; g]; g];
    for (router, port, kind, stats) in rec.ports().iter() {
        let ms = stats.stall_ps as f64 / MILLISECOND as f64;
        match kind {
            LinkKind::Local => {
                local_stall[topo.group_of_router(RouterId(router)).idx()] += ms;
            }
            LinkKind::Global => {
                if let Some(dst) = topo.global_port_target(RouterId(router), Port(port)) {
                    let src = topo.group_of_router(RouterId(router)).idx();
                    global_stall[src][dst.idx()] += ms;
                }
            }
            LinkKind::Terminal => {}
        }
    }
    let avg_local = if g > 0 { local_stall.iter().sum::<f64>() / g as f64 } else { 0.0 };
    let used_globals = (g * (g - 1)).max(1) as f64;
    let avg_global = global_stall.iter().flatten().sum::<f64>() / used_globals;

    // A zero-length run has no meaningful link capacity to normalize by:
    // report zeroed congestion/throughput instead of computing indices
    // against a degenerate 1 ps capacity.
    let (congestion, mean_cong, std_cong, mean_tput) = if end_time == 0 {
        (vec![vec![0.0; g]; g], 0.0, 0.0, 0.0)
    } else {
        (
            rec.congestion().index_matrix(end_time, cfg.timing.bandwidth_gbps),
            rec.congestion().mean_global_index(end_time, cfg.timing.bandwidth_gbps),
            rec.congestion().std_global_index(end_time, cfg.timing.bandwidth_gbps),
            rec.system_delivered().mean_gb_per_ms(end_time),
        )
    };
    let lat = rec.system_latency();
    let system_latency_us = dfsim_metrics::LatencySummary {
        n: lat.n,
        mean: lat.mean / MICROSECOND as f64,
        q1: lat.q1 / MICROSECOND as f64,
        median: lat.median / MICROSECOND as f64,
        q3: lat.q3 / MICROSECOND as f64,
        p95: lat.p95 / MICROSECOND as f64,
        p99: lat.p99 / MICROSECOND as f64,
        max: lat.max / MICROSECOND as f64,
    };
    let sys = rec.system_delivered();
    NetworkReport {
        local_stall_ms: local_stall,
        global_stall_ms: global_stall,
        avg_local_stall_ms: avg_local,
        avg_global_stall_ms: avg_global,
        congestion,
        mean_global_congestion: mean_cong,
        std_global_congestion: std_cong,
        mean_system_throughput: mean_tput,
        system_throughput: sys.as_gb_per_ms(),
        total_delivered_gb: sys.total() as f64 / 1e9,
        system_latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_network::RoutingAlgo;

    #[test]
    fn tiny_standalone_run_completes() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::UgalG);
        let report = run(&cfg, &[JobSpec::sized(AppKind::UR, 36)]);
        assert!(report.completed, "stop: {}", report.stop_reason);
        assert_eq!(report.apps.len(), 1);
        let app = &report.apps[0];
        assert_eq!(app.name, "UR");
        assert!(app.exec_ms > 0.0);
        assert!(app.total_msg_mb > 0.0);
        assert!((app.delivery_ratio - 1.0).abs() < 1e-9);
        assert!(app.comm_ms.n == 36);
    }

    #[test]
    fn pairwise_tiny_run_reports_both_apps() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::QAdaptive);
        let report =
            run(&cfg, &[JobSpec::sized(AppKind::CosmoFlow, 36), JobSpec::sized(AppKind::UR, 36)]);
        assert!(report.completed, "stop: {}", report.stop_reason);
        assert_eq!(report.apps.len(), 2);
        assert!(report.network.total_delivered_gb > 0.0);
        assert!(report.network.system_latency_us.n > 0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::Par);
        let a = run(&cfg, &[JobSpec::sized(AppKind::LU, 36)]);
        let b = run(&cfg, &[JobSpec::sized(AppKind::LU, 36)]);
        assert_eq!(a.sim_ms, b.sim_ms);
        assert_eq!(a.events, b.events);
        assert_eq!(a.apps[0].comm_ms.mean, b.apps[0].comm_ms.mean);
        assert_eq!(a.apps[0].peak_ingress_bytes, b.apps[0].peak_ingress_bytes);
    }

    #[test]
    fn empty_run_reports_zeroed_congestion() {
        // end_time == 0: no simulated time elapsed, so there is no link
        // capacity to normalize congestion by — everything reports 0
        // instead of indices computed against a degenerate 1 ps capacity.
        let cfg = SimConfig::test_tiny(RoutingAlgo::UgalG);
        let report = run(&cfg, &[]);
        assert_eq!(report.sim_ms, 0.0);
        assert_eq!(report.network.mean_global_congestion, 0.0);
        assert_eq!(report.network.std_global_congestion, 0.0);
        assert_eq!(report.network.mean_system_throughput, 0.0);
        assert!(report.network.congestion.iter().flatten().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_world_finishes_instantly() {
        let report = run(&SimConfig::test_tiny(RoutingAlgo::Par), &[]);
        assert_eq!(report.stop_reason, "AllFinished");
        assert!(report.completed);
        assert_eq!((report.sim_ms, report.events), (0.0, 0));
    }

    #[test]
    fn simple_exchange_runs_to_completion() {
        // Two UR ranks: each iteration is one message each way.
        let report =
            run(&SimConfig::test_tiny(RoutingAlgo::Par), &[JobSpec::sized(AppKind::UR, 2)]);
        assert_eq!(report.stop_reason, "AllFinished");
        assert!(report.sim_ms > 0.0);
        assert!(report.network.total_delivered_gb > 0.0);
    }

    #[test]
    fn horizon_stops_runaway_workloads() {
        let mut cfg = SimConfig::test_tiny(RoutingAlgo::Par);
        cfg.horizon = Some(500_000); // 0.5 µs: the exchange is still in flight
        let report = run(&cfg, &[JobSpec::sized(AppKind::UR, 2)]);
        assert_eq!(report.stop_reason, "Horizon");
        assert!(!report.completed);
        // The stop time is the first event past the horizon.
        assert!(report.sim_ms > 500_000.0 / MILLISECOND as f64, "{}", report.sim_ms);
    }

    #[test]
    fn event_cap_guards_against_runaway() {
        let mut cfg = SimConfig::test_tiny(RoutingAlgo::Par);
        let jobs = [JobSpec::sized(AppKind::UR, 36)];
        let full = run(&cfg, &jobs);
        cfg.max_events = 100;
        let capped = run(&cfg, &jobs);
        assert_eq!(capped.stop_reason, "EventCap");
        assert!(!capped.completed);
        // Checked at window barriers: at least the cap, far short of the run.
        assert!((100..full.events).contains(&capped.events), "{}", capped.events);
    }

    #[test]
    fn horizon_marks_run_incomplete() {
        let mut cfg = SimConfig::test_tiny(RoutingAlgo::UgalN);
        cfg.horizon = Some(1_000); // 1 ns: nothing finishes
        let report = run(&cfg, &[JobSpec::sized(AppKind::Halo3D, 36)]);
        assert!(!report.completed);
        assert_eq!(report.stop_reason, "Horizon");
    }
}
