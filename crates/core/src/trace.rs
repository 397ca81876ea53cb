//! Run-level trace support: the META blob and lossless replay.
//!
//! The metrics crate owns the `dfsim-trace v1` frame format and the event
//! encoding ([`dfsim_metrics::trace`]); this module owns what the *runner*
//! knows and the events alone cannot carry — the report-relevant slice of
//! the [`SimConfig`], the job list, per-app finish times, engine statistics
//! and the stop condition. It is written into the trace's META frame, so a
//! trace file is self-contained: [`replay_trace`] rebuilds the exact
//! [`RunReport`] of the originating run from the file alone, bit for bit.
//!
//! The blob is a little-endian binary layout with its own leading version
//! word (`f64`s as raw bits so report values survive exactly), written and
//! decoded with [`dfsim_des::wire`], the one codec — checked reads whose
//! failures surface as named [`TraceError`]s.

// Codec over external input: a short or corrupt file must surface as a
// named error, never as a panic or a silently wrapped value.
#![deny(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::integer_division
)]
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

use std::path::Path;
use std::sync::Arc;

use dfsim_apps::AppKind;
use dfsim_des::wire::{
    len_u32, put_f64, put_opt_u64, put_str, put_u32, put_u64, put_u8, WireError, WireReader,
};
use dfsim_des::{EngineStats, QueueBackend, Time};
use dfsim_metrics::trace::{
    get_machine, put_machine, read_meta, read_trace, TraceContents, TraceError,
};
use dfsim_metrics::{Recorder, RecorderConfig};
use dfsim_network::{QTableInit, RoutingAlgo, RoutingConfig};
use dfsim_topology::Topology;

use crate::config::SimConfig;
use crate::report::{get_job_reports, put_job_reports, JobReport, RunReport};
use crate::runner::{build_report, JobSpec};
use crate::world::StopReason;

/// Version word leading the META payload.
const META_VERSION: u32 = 1;

/// Everything the META frame carries: the run context a replay needs
/// beyond the event stream itself.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// Report-relevant reconstruction of the originating config (topology
    /// parameters, timing, routing/queue labels, seed, scale, recorder
    /// granularity; engine-only knobs like horizons keep their defaults).
    pub cfg: SimConfig,
    /// The non-idle jobs of the run, in app order.
    pub jobs: Vec<JobSpec>,
    /// Per-job admission times, ps.
    pub starts: Vec<Time>,
    /// Per-app completion times, ps.
    pub finished: Vec<Option<Time>>,
    /// Event-engine statistics of the original run.
    pub stats: EngineStats,
    /// Canonical processed-event count.
    pub events: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Final simulated time, ps.
    pub end_time: Time,
    /// Host wall-clock seconds of the original run.
    pub wall_s: f64,
    /// Per-job churn outcomes (none for pinned jobs, so empty for static
    /// runs).
    pub job_reports: Vec<JobReport>,
}

// ---- encoding --------------------------------------------------------------

/// Encode the META payload for a finished run (the runner's half of
/// [`replay_trace`]'s losslessness contract).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per META field group, mirroring `build_report`"
)]
pub(crate) fn encode_meta(
    cfg: &SimConfig,
    jobs: &[&JobSpec],
    finished: &[Option<Time>],
    stats: EngineStats,
    events: u64,
    stop: StopReason,
    end_time: Time,
    wall_s: f64,
    starts: &[Time],
    job_reports: &[JobReport],
) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    put_u32(&mut b, META_VERSION);
    put_machine(&mut b, &cfg.params, &cfg.timing);
    // Routing / queue / run identity.
    put_str(&mut b, cfg.routing.algo.label());
    put_str(&mut b, cfg.routing.qtable_init.label());
    put_str(&mut b, &cfg.queue.describe());
    put_u64(&mut b, cfg.seed);
    put_f64(&mut b, cfg.scale);
    // Recorder granularity.
    put_u64(&mut b, cfg.recorder.bin_width);
    put_u8(&mut b, u8::from(cfg.recorder.record_latencies));
    put_u8(&mut b, u8::from(cfg.recorder.record_ports));
    // Jobs + per-app outcomes.
    put_u32(&mut b, len_u32(jobs.len(), "the job count"));
    for j in jobs {
        put_str(&mut b, j.kind.name());
        put_u32(&mut b, j.size);
    }
    for &s in starts {
        put_u64(&mut b, s);
    }
    for &f in finished {
        put_opt_u64(&mut b, f);
    }
    // Engine + stop condition.
    put_u64(&mut b, stats.events_processed);
    put_u64(&mut b, stats.events_scheduled);
    put_u64(&mut b, stats.pending as u64);
    put_u64(&mut b, stats.peak_pending as u64);
    put_u64(&mut b, stats.resizes);
    put_u64(&mut b, stats.bucket_scans);
    put_u64(&mut b, stats.sparse_jumps);
    put_u64(&mut b, stats.buckets as u64);
    put_u64(&mut b, stats.width_ps);
    put_u64(&mut b, events);
    put_u8(
        &mut b,
        match stop {
            StopReason::AllFinished => 0,
            StopReason::Horizon => 1,
            StopReason::EventCap => 2,
            StopReason::Drained => 3,
        },
    );
    put_u64(&mut b, end_time);
    put_f64(&mut b, wall_s);
    // Churn job outcomes.
    put_job_reports(&mut b, job_reports);
    b
}

// ---- decoding --------------------------------------------------------------

/// Decode a META payload, as the runner writes it into a trace's META
/// frame at the end of a traced run.
pub fn decode_meta(blob: &[u8]) -> Result<TraceMeta, TraceError> {
    let mut c = WireReader::new(blob);
    let ver = c.u32("the meta version")?;
    if ver != META_VERSION {
        return Err(c
            .bad(format!("unsupported trace meta version {ver} (expected {META_VERSION})"))
            .into());
    }
    let (params, timing) = get_machine(&mut c)?;
    let routing_label = c.str("the routing label")?;
    let algo = *RoutingAlgo::ALL
        .iter()
        .find(|r| r.label() == routing_label)
        .ok_or_else(|| c.bad(format!("unknown routing label '{routing_label}'")))?;
    let mut routing = RoutingConfig::new(algo);
    let init_label = c.str("the qtable-init label")?;
    routing.qtable_init = match init_label.as_str() {
        "cold" => QTableInit::Cold,
        "warm" => QTableInit::Warm,
        other => return Err(c.bad(format!("unknown qtable-init label '{other}'")).into()),
    };
    let queue_s = c.str("the queue backend")?;
    let queue: QueueBackend =
        queue_s.parse().map_err(|e| c.bad(format!("bad queue backend '{queue_s}': {e}")))?;
    let seed = c.u64("the seed")?;
    let scale = c.f64("the scale")?;
    let recorder = RecorderConfig {
        bin_width: c.u64("recorder.bin_width")?,
        record_latencies: c.u8("recorder.record_latencies")? != 0,
        record_ports: c.u8("recorder.record_ports")? != 0,
    };
    let jobs = c.list("the job count", |c| {
        let name = c.str("a job kind")?;
        let kind = *AppKind::ALL
            .iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| c.bad(format!("unknown workload '{name}'")))?;
        Ok::<_, WireError>(JobSpec::sized(kind, c.u32("a job size")?))
    })?;
    let njobs = jobs.len();
    let starts = (0..njobs).map(|_| c.u64("a start time")).collect::<Result<Vec<_>, _>>()?;
    let finished = (0..njobs).map(|_| c.opt_u64("a finish time")).collect::<Result<Vec<_>, _>>()?;
    let stats = EngineStats {
        events_processed: c.u64("stats.events_processed")?,
        events_scheduled: c.u64("stats.events_scheduled")?,
        pending: c.count64("stats.pending")?,
        peak_pending: c.count64("stats.peak_pending")?,
        resizes: c.u64("stats.resizes")?,
        bucket_scans: c.u64("stats.bucket_scans")?,
        sparse_jumps: c.u64("stats.sparse_jumps")?,
        buckets: c.count64("stats.buckets")?,
        width_ps: c.u64("stats.width_ps")?,
    };
    let events = c.u64("the event count")?;
    let stop = match c.u8("the stop reason")? {
        0 => StopReason::AllFinished,
        1 => StopReason::Horizon,
        2 => StopReason::EventCap,
        3 => StopReason::Drained,
        v => return Err(c.bad(format!("unknown stop reason {v}")).into()),
    };
    let end_time = c.u64("the end time")?;
    let wall_s = c.f64("the wall time")?;
    let job_reports = get_job_reports(&mut c)?;
    let cfg =
        SimConfig { params, timing, routing, recorder, scale, seed, queue, ..Default::default() };
    Ok(TraceMeta {
        cfg,
        jobs,
        starts,
        finished,
        stats,
        events,
        stop,
        end_time,
        wall_s,
        job_reports,
    })
}

// ---- replay ----------------------------------------------------------------

/// Read a `dfsim-trace v1` file and return its META context (skipping the
/// event payloads) together with nothing decoded — the cheap half of
/// [`summarize_trace`] and the bootstrap of [`replay_trace`].
pub fn read_trace_meta(path: &Path) -> Result<TraceMeta, TraceError> {
    let contents = read_meta(path)?;
    decode_trace_meta(path, &contents)
}

fn decode_trace_meta(path: &Path, contents: &TraceContents) -> Result<TraceMeta, TraceError> {
    let blob = contents.meta.as_deref().ok_or_else(|| TraceError::Malformed {
        offset: 0,
        msg: format!("{} carries no META frame (written without run context?)", path.display()),
    })?;
    decode_meta(blob)
}

/// Scan totals plus the decoded META context of a trace file — the
/// `dfsim trace` summary view. Decodes every event (for the per-kind
/// counts) but replays nothing.
pub fn summarize_trace(path: &Path) -> Result<(TraceContents, TraceMeta), TraceError> {
    let contents = read_trace(path, |_| {})?;
    let meta = decode_trace_meta(path, &contents)?;
    Ok((contents, meta))
}

/// Rebuild the originating run's [`RunReport`] from a trace file alone:
/// stream every event through a fresh [`Recorder`] and assemble the report
/// from the recorder plus the META context. The result is bit-identical to
/// the report of the traced run (the trace round-trip suite pins this).
pub fn replay_trace(path: &Path) -> Result<RunReport, TraceError> {
    let meta = read_trace_meta(path)?;
    let topo = Arc::new(Topology::new(meta.cfg.params).map_err(|e| TraceError::Malformed {
        offset: 0,
        msg: format!("meta topology parameters are invalid: {e}"),
    })?);
    let mut rec = Recorder::new(&topo, meta.cfg.recorder);
    read_trace(path, |ev| rec.replay_event(ev))?;
    let jobs: Vec<&JobSpec> = meta.jobs.iter().collect();
    Ok(build_report(
        &meta.cfg,
        &jobs,
        &topo,
        &rec,
        &meta.finished,
        meta.stats,
        meta.events,
        meta.stop,
        meta.end_time,
        meta.wall_s,
        &meta.starts,
        meta.job_reports,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips_through_the_codec() {
        let mut cfg = SimConfig::test_tiny(RoutingAlgo::QAdaptive);
        cfg.routing.qtable_init = QTableInit::Warm;
        let jobs = [JobSpec::sized(AppKind::FFT3D, 36), JobSpec::sized(AppKind::UR, 36)];
        let job_refs: Vec<&JobSpec> = jobs.iter().collect();
        let stats = EngineStats {
            events_processed: 100,
            events_scheduled: 120,
            pending: 3,
            peak_pending: 17,
            ..Default::default()
        };
        let reports = vec![JobReport {
            job: 0,
            name: "FFT3D".into(),
            size: 36,
            arrival_ms: 0.25,
            start_ms: Some(0.5),
            finish_ms: None,
            wait_ms: 0.25,
            run_ms: 0.0,
            response_ms: 1.5,
            slowdown: None,
            completed: false,
        }];
        let blob = encode_meta(
            &cfg,
            &job_refs,
            &[Some(7_000), None],
            stats,
            100,
            StopReason::Horizon,
            9_000,
            1.25,
            &[0, 100],
            &reports,
        );
        let m = decode_meta(&blob).unwrap();
        assert_eq!(m.cfg.params, cfg.params);
        assert_eq!(m.cfg.timing, cfg.timing);
        assert_eq!(m.cfg.routing.algo, RoutingAlgo::QAdaptive);
        assert_eq!(m.cfg.routing.qtable_init.label(), "warm");
        assert_eq!(m.cfg.queue, cfg.queue);
        assert_eq!(m.cfg.seed, cfg.seed);
        assert_eq!(m.cfg.scale.to_bits(), cfg.scale.to_bits());
        assert_eq!(m.jobs, jobs);
        assert_eq!(m.starts, [0, 100]);
        assert_eq!(m.finished, [Some(7_000), None]);
        assert_eq!(m.stats, stats);
        assert_eq!(m.stop, StopReason::Horizon);
        assert_eq!(m.end_time, 9_000);
        assert_eq!(m.wall_s.to_bits(), 1.25f64.to_bits());
        assert_eq!(m.job_reports.len(), 1);
        assert_eq!(m.job_reports[0].slowdown, None);
        assert_eq!(m.job_reports[0].start_ms, Some(0.5));
    }

    #[test]
    fn truncated_meta_is_a_named_error() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::UgalG);
        let blob = encode_meta(
            &cfg,
            &[],
            &[],
            EngineStats::default(),
            0,
            StopReason::AllFinished,
            0,
            0.0,
            &[],
            &[],
        );
        let e = decode_meta(&blob[..blob.len() - 3]).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
        let mut bad = blob.clone();
        bad[0] = 99; // version word
        let e = decode_meta(&bad).unwrap_err();
        assert!(e.to_string().contains("meta version"), "{e}");
    }

    /// A META frame claiming `u32::MAX` jobs is a named error at the first
    /// missing job, not an allocation of ~2^32 job specs.
    #[test]
    fn meta_claiming_u32_max_jobs_is_a_named_error() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::UgalG);
        let blob = encode_meta(
            &cfg,
            &[],
            &[],
            EngineStats::default(),
            0,
            StopReason::AllFinished,
            0,
            0.0,
            &[],
            &[],
        );
        // With no jobs, the job count is followed only by the fixed tail:
        // 9 engine words, the event count, the stop byte, the end time, the
        // wall time and the (empty) job-report count.
        let at = blob.len() - (9 * 8 + 8 + 1 + 8 + 8 + 4) - 4;
        let mut bad = blob[..at].to_vec();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_meta(&bad).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { what: "a job kind", .. }), "{e}");
    }
}
