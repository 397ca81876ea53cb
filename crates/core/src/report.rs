//! Run reports: the data products the paper's tables and figures are built
//! from, and the one binary form of the [`JobReport`] list that result-cache
//! entries and trace META blobs share.

// The job-report decoder reads cache entries and trace files: a corrupt
// blob must surface as a named error, never as a panic or a wrapped value.
#![deny(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use dfsim_des::wire::{
    len_u32, put_f64, put_opt_f64, put_str, put_u32, put_u8, WireError, WireReader,
};
use dfsim_metrics::{LatencySummary, Stats};

/// Per-application results of one run.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// App name (paper spelling).
    pub name: String,
    /// App index within the run.
    pub app: u16,
    /// Ranks.
    pub size: u32,
    /// Communication time over ranks, milliseconds (Fig 4/8/10 bars ±
    /// std).
    pub comm_ms: Stats,
    /// Application completion time, ms (Table I "Execution time").
    pub exec_ms: f64,
    /// Total message volume injected, MB (Table I "Total Msg").
    pub total_msg_mb: f64,
    /// Message injection rate, GB/s (Table I).
    pub inj_rate_gbs: f64,
    /// Peak ingress volume observed, bytes (Table I).
    pub peak_ingress_bytes: u64,
    /// Packet-latency distribution, µs (Figs 6, 7).
    pub latency_us: LatencySummary,
    /// Delivered-throughput series `(ms, GB/ms)` (Figs 5, 9).
    pub throughput: Vec<(f64, f64)>,
    /// Mean packet latency per time bin `(ms, µs)` (Fig 7).
    pub latency_series: Vec<(f64, f64)>,
    /// Fraction of packets delivered vs injected (1.0 when complete).
    pub delivery_ratio: f64,
    /// Fraction of delivered packets that travelled a non-minimal path.
    pub detour_frac: f64,
    /// Mean router-to-router hops per delivered packet (≤3 under MIN).
    pub mean_hops: f64,
}

/// Network-level results of one run.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Sum of local-link stall time per group, ms (Fig 11 circles).
    pub local_stall_ms: Vec<f64>,
    /// Global-link stall time per directed group pair, ms (Fig 11 edges).
    pub global_stall_ms: Vec<Vec<f64>>,
    /// Mean local-link stall over groups, ms (paper §VI-B compares 31.42 vs
    /// 59.15 ms).
    pub avg_local_stall_ms: f64,
    /// Mean global-link stall over used links, ms (0.52 vs 1.33 ms).
    pub avg_global_stall_ms: f64,
    /// Congestion-index matrix (Fig 12): diagonal = local links.
    pub congestion: Vec<Vec<f64>>,
    /// Mean off-diagonal congestion index.
    pub mean_global_congestion: f64,
    /// Std of off-diagonal congestion indices (hot-spot measure).
    pub std_global_congestion: f64,
    /// System-wide packet latency, µs (Fig 13a).
    pub system_latency_us: LatencySummary,
    /// Aggregate delivered throughput `(ms, GB/ms)` (Fig 13b).
    pub system_throughput: Vec<(f64, f64)>,
    /// Mean aggregate throughput over the run, GB/ms.
    pub mean_system_throughput: f64,
    /// Total bytes delivered, GB.
    pub total_delivered_gb: f64,
}

/// Event-engine statistics of one run: how hard the pending-event set
/// worked. Unlike every other report field this is **not**
/// backend-invariant — it describes the engine itself (the
/// `backend_equivalence` suite deliberately excludes it).
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Full backend form (`heap`, `calendar:auto`,
    /// `calendar:width=..,buckets=..`).
    pub backend: String,
    /// Events pushed over the run (pops are [`RunReport::events`]).
    pub events_scheduled: u64,
    /// Largest pending-event-set size observed.
    pub peak_pending: u64,
    /// Calendar bucket-array rebuilds (0 on the heap / fixed tuning).
    pub resizes: u64,
    /// Empty calendar days skipped while hunting the next event.
    pub bucket_scans: u64,
    /// Full-year misses escaping via the sparse jump.
    pub sparse_jumps: u64,
    /// Final calendar bucket count (0 on the heap).
    pub final_buckets: u64,
    /// Final calendar bucket width, ps (0 on the heap).
    pub final_width_ps: u64,
    /// Host-side event throughput: events processed / wall seconds.
    pub events_per_sec: f64,
}

impl EngineReport {
    /// One-line human rendering (the `--engine-stats` block of the CLI and
    /// the fig/table/churn binaries).
    pub fn render(&self, events_processed: u64) -> String {
        let mut s = format!(
            "engine {}: {} events processed ({} scheduled), {:.2} M events/s wall, peak pending {}",
            self.backend,
            events_processed,
            self.events_scheduled,
            self.events_per_sec / 1e6,
            self.peak_pending,
        );
        if self.backend != "heap" {
            s.push_str(&format!(
                ", {} resizes, {} bucket scans, {} sparse jumps, final {} buckets x {} ps",
                self.resizes,
                self.bucket_scans,
                self.sparse_jumps,
                self.final_buckets,
                self.final_width_ps,
            ));
        }
        s
    }
}

/// Q-adaptive convergence telemetry of one run: per-window mean `|ΔQ1|`
/// over all level-1 Q-table updates. Present only on Q-adaptive runs.
/// Large early values mean the tables are still learning the traffic; a
/// warm-started run should begin near its steady-state floor.
#[derive(Debug, Clone)]
pub struct LearningReport {
    /// Q-table initialization (`cold` or `warm`).
    pub init: String,
    /// Total level-1 updates over the run.
    pub updates: u64,
    /// Mean `|ΔQ1|` over the whole run, nanoseconds.
    pub mean_abs_dq1_ns: f64,
    /// Per-window series `(window start ms, mean |ΔQ1| ns)`; empty windows
    /// are skipped.
    pub series: Vec<(f64, f64)>,
}

impl LearningReport {
    /// Mean of the per-window means over the first `k` populated windows —
    /// the early-convergence number the `transfer` bin compares between
    /// warm and cold starts (0 when there are no windows).
    pub fn early_mean_ns(&self, k: usize) -> f64 {
        let take = self.series.iter().take(k.max(1));
        let (sum, n) = take.fold((0.0, 0usize), |(s, n), &(_, m)| (s + m, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Same over the last `k` populated windows (the steady-state floor).
    pub fn late_mean_ns(&self, k: usize) -> f64 {
        let skip = self.series.len().saturating_sub(k.max(1));
        let (sum, n) =
            self.series.iter().skip(skip).fold((0.0, 0usize), |(s, n), &(_, m)| (s + m, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Per-job scheduling outcome of a scenario (churn) run. Jobs pinned to
/// their nodes before the run never queue and have none, so a static run
/// (all of whose jobs are pinned at t = 0) leaves the list empty; its
/// per-app data lives in [`AppReport`].
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job index (arrival order).
    pub job: u32,
    /// Workload name.
    pub name: String,
    /// Ranks / nodes requested.
    pub size: u32,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Admission (start) time, ms; `None` if the job never started.
    pub start_ms: Option<f64>,
    /// Completion time, ms; `None` if the job never finished.
    pub finish_ms: Option<f64>,
    /// Queue wait: start − arrival (up to the run's end for jobs that never
    /// started), ms.
    pub wait_ms: f64,
    /// Service time: finish − start, ms (0 if never started).
    pub run_ms: f64,
    /// Response time: finish − arrival, ms.
    pub response_ms: f64,
    /// Slowdown: response / service (1.0 for a job admitted instantly);
    /// `None` for jobs that never completed — averaging a placeholder 1.0
    /// into interference statistics would bias them towards "no
    /// interference".
    pub slowdown: Option<f64>,
    /// Whether every rank of the job finished.
    pub completed: bool,
}

/// Append `jobs` in their binary form: a `u32` count, then each job's
/// fields in declaration order (`f64`s as raw bits, options as a presence
/// byte and the value). Result-cache entries and trace META blobs both
/// embed exactly these bytes.
pub(crate) fn put_job_reports(b: &mut Vec<u8>, jobs: &[JobReport]) {
    put_u32(b, len_u32(jobs.len(), "the job-report count"));
    for j in jobs {
        put_u32(b, j.job);
        put_str(b, &j.name);
        put_u32(b, j.size);
        put_f64(b, j.arrival_ms);
        put_opt_f64(b, j.start_ms);
        put_opt_f64(b, j.finish_ms);
        put_f64(b, j.wait_ms);
        put_f64(b, j.run_ms);
        put_f64(b, j.response_ms);
        put_opt_f64(b, j.slowdown);
        put_u8(b, u8::from(j.completed));
    }
}

/// Decode a list written by [`put_job_reports`].
pub(crate) fn get_job_reports(c: &mut WireReader<'_>) -> Result<Vec<JobReport>, WireError> {
    c.list("the job-report count", |c| {
        Ok(JobReport {
            job: c.u32("job.job")?,
            name: c.str("job.name")?,
            size: c.u32("job.size")?,
            arrival_ms: c.f64("job.arrival_ms")?,
            start_ms: c.opt_f64("job.start_ms")?,
            finish_ms: c.opt_f64("job.finish_ms")?,
            wait_ms: c.f64("job.wait_ms")?,
            run_ms: c.f64("job.run_ms")?,
            response_ms: c.f64("job.response_ms")?,
            slowdown: c.opt_f64("job.slowdown")?,
            completed: c.u8("job.completed")? != 0,
        })
    })
}

/// The full result of one simulation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Routing algorithm label.
    pub routing: String,
    /// Event-queue backend label (`heap`/`calendar`); every other field is
    /// invariant under this choice.
    pub queue: String,
    /// Root seed.
    pub seed: u64,
    /// Scale divisor.
    pub scale: f64,
    /// Whether every rank finished (false: horizon/event-cap hit).
    pub completed: bool,
    /// Why the run stopped (display form of [`crate::world::StopReason`]).
    pub stop_reason: String,
    /// Final simulated time, ms.
    pub sim_ms: f64,
    /// Events processed.
    pub events: u64,
    /// Host wall-clock seconds spent simulating.
    pub wall_s: f64,
    /// Per-app results (job order).
    pub apps: Vec<AppReport>,
    /// Per-job scheduling outcomes (scenario runs only; empty for static
    /// runs).
    pub jobs: Vec<JobReport>,
    /// Network-level results.
    pub network: NetworkReport,
    /// Event-engine statistics (backend-dependent by design).
    pub engine: EngineReport,
    /// Q-adaptive convergence telemetry (`None` for other routings).
    pub learning: Option<LearningReport>,
}

impl RunReport {
    /// The report of the app named `name`, if present.
    pub fn app(&self, name: &str) -> Option<&AppReport> {
        self.apps.iter().find(|a| a.name == name)
    }

    /// The `--engine-stats` block: engine statistics in one line.
    pub fn engine_summary(&self) -> String {
        self.engine.render(self.events)
    }

    /// Jobs that ran to completion (scenario runs).
    pub fn completed_jobs(&self) -> impl Iterator<Item = &JobReport> {
        self.jobs.iter().filter(|j| j.completed)
    }

    /// Mean wait time over completed jobs, ms (NaN if none completed).
    pub fn mean_wait_ms(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u32);
        for j in self.completed_jobs() {
            sum += j.wait_ms;
            n += 1;
        }
        sum / n as f64
    }

    /// Mean slowdown over completed jobs (NaN if none completed);
    /// incomplete jobs carry no slowdown and are excluded.
    pub fn mean_slowdown(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u32);
        for s in self.jobs.iter().filter_map(|j| j.slowdown) {
            sum += s;
            n += 1;
        }
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_app(name: &str) -> AppReport {
        AppReport {
            name: name.into(),
            app: 0,
            size: 4,
            comm_ms: Stats::default(),
            exec_ms: 1.0,
            total_msg_mb: 2.0,
            inj_rate_gbs: 3.0,
            peak_ingress_bytes: 4,
            latency_us: LatencySummary::default(),
            throughput: vec![],
            latency_series: vec![],
            delivery_ratio: 1.0,
            detour_frac: 0.0,
            mean_hops: 0.0,
        }
    }

    #[test]
    fn lookup_by_name() {
        let r = RunReport {
            routing: "PAR".into(),
            queue: "heap".into(),
            seed: 0,
            scale: 1.0,
            completed: true,
            stop_reason: "AllFinished".into(),
            sim_ms: 1.0,
            events: 10,
            wall_s: 0.1,
            apps: vec![dummy_app("FFT3D"), dummy_app("Halo3D")],
            jobs: vec![],
            network: NetworkReport {
                local_stall_ms: vec![],
                global_stall_ms: vec![],
                avg_local_stall_ms: 0.0,
                avg_global_stall_ms: 0.0,
                congestion: vec![],
                mean_global_congestion: 0.0,
                std_global_congestion: 0.0,
                system_latency_us: LatencySummary::default(),
                system_throughput: vec![],
                mean_system_throughput: 0.0,
                total_delivered_gb: 0.0,
            },
            engine: EngineReport::default(),
            learning: None,
        };
        assert!(r.app("FFT3D").is_some());
        assert!(r.app("LU").is_none());
    }

    #[test]
    fn learning_window_means() {
        let l = LearningReport {
            init: "cold".into(),
            updates: 6,
            mean_abs_dq1_ns: 3.0,
            series: vec![(0.0, 8.0), (0.1, 4.0), (0.2, 2.0), (0.3, 1.0)],
        };
        assert!((l.early_mean_ns(2) - 6.0).abs() < 1e-12);
        assert!((l.late_mean_ns(2) - 1.5).abs() < 1e-12);
        // k larger than the series: everything, once.
        assert!((l.early_mean_ns(10) - 3.75).abs() < 1e-12);
        let empty = LearningReport {
            init: "warm".into(),
            updates: 0,
            mean_abs_dq1_ns: 0.0,
            series: vec![],
        };
        assert_eq!(empty.early_mean_ns(3), 0.0);
        assert_eq!(empty.late_mean_ns(3), 0.0);
    }

    #[test]
    fn engine_render_hides_calendar_fields_on_heap() {
        let heap =
            EngineReport { backend: "heap".into(), events_per_sec: 2e6, ..Default::default() };
        let s = heap.render(100);
        assert!(s.contains("heap") && !s.contains("resizes"), "{s}");
        let cal = EngineReport {
            backend: "calendar:auto".into(),
            resizes: 4,
            final_buckets: 128,
            ..Default::default()
        };
        let s = cal.render(100);
        assert!(s.contains("4 resizes") && s.contains("128 buckets"), "{s}");
    }
}
