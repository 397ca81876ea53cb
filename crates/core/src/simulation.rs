//! The simulation session API: run an [`ExperimentSpec`] end to end.
//!
//! One object owns the whole lifecycle — the only way to configure and
//! start a run:
//!
//! ```no_run
//! use dfsim_core::spec::{ExperimentSpec, Workload};
//! use dfsim_core::simulation::Simulation;
//! use dfsim_apps::AppKind;
//!
//! let spec = ExperimentSpec::default()
//!     .with_workload(Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
//! let mut sim = Simulation::from_spec(spec).unwrap();
//! sim.prepare().unwrap(); // optional: materialize + validate eagerly
//! let handle = sim.run().unwrap();
//! println!("comm {:.3} ms", handle.report.apps[0].comm_ms.mean);
//! ```
//!
//! * [`Simulation::from_spec`] validates the spec (exactly one routing —
//!   sweep binaries iterate [`ExperimentSpec::cell`]).
//! * [`Simulation::prepare`] materializes the workload (job lists, churn
//!   scenarios), checks the output paths' writability and reads the
//!   `qtable_load` snapshot file — once per session: the same bytes are
//!   hashed into the session's cache key and decoded, fingerprint-verified
//!   and handed to every shard. Misconfiguration fails *before* the run.
//! * [`Simulation::run`] executes on the configured queue backend (or
//!   serves a cache hit), writes `qtable_save` once, and returns a
//!   [`RunHandle`] — the report plus the learned Q-table snapshot.
//!
//! The session is the only code that touches Q-table files; the engine
//! below it takes and returns snapshots in memory.

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

use dfsim_network::QTableSnapshot;

use crate::cache::{key_of, CacheKey, ResultCache};
use crate::config::SimConfig;
use crate::experiments::mixed_jobs;
use crate::partition::{exec_scenario, exec_static};
use crate::report::{EngineReport, LearningReport, RunReport};
use crate::runner::JobSpec;
use crate::scenario::Scenario;
use crate::spec::{ExperimentSpec, SpecError, Workload};

/// The outcome of one [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct RunHandle {
    /// The full run report (apps, jobs, network, engine, learning).
    pub report: RunReport,
    /// The learned per-router Q-tables after the run (Q-adaptive runs
    /// only; already written to disk when the spec sets `qtable_save`).
    pub qtable_snapshot: Option<QTableSnapshot>,
    /// Provenance: `true` when the report was served from the result
    /// cache instead of a live simulation. The report's `wall_s` (and the
    /// engine's `events_per_sec`) then describe the *original* run's
    /// simulation cost, not this retrieval — presentation layers label it
    /// accordingly.
    pub cached: bool,
}

impl RunHandle {
    /// The event-engine block of the report.
    pub fn engine_stats(&self) -> &EngineReport {
        &self.report.engine
    }

    /// The Q-learning convergence block (Q-adaptive runs only).
    pub fn learning(&self) -> Option<&LearningReport> {
        self.report.learning.as_ref()
    }
}

/// The materialized work of a prepared session.
#[derive(Debug, Clone)]
enum PreparedWork {
    /// Static jobs, all starting at t = 0.
    Static(Vec<JobSpec>),
    /// A churn scenario admitted by the spec's scheduler policy.
    Churn(Scenario),
}

/// A validated, materialized session ready to run.
#[derive(Debug, Clone)]
struct Prepared {
    cfg: SimConfig,
    work: PreparedWork,
    /// The verified warm-start tables, decoded from the session's one read
    /// of the `qtable_load` file.
    warm: Option<QTableSnapshot>,
    /// The session's result-cache key (cache enabled only), over the same
    /// snapshot bytes `warm` was decoded from.
    key: Option<CacheKey>,
}

/// A simulation session: spec in, [`RunHandle`] out.
#[derive(Debug, Clone)]
pub struct Simulation {
    spec: ExperimentSpec,
    prepared: Option<Prepared>,
}

impl Simulation {
    /// Start a session from a spec. Fails with a named error when the spec
    /// is invalid or names more than one routing (sweeps specialize with
    /// [`ExperimentSpec::cell`] and run one session per cell).
    pub fn from_spec(spec: ExperimentSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        if spec.routings.len() != 1 {
            return Err(SpecError::Invalid {
                msg: format!(
                    "a simulation session runs exactly one routing; the spec names {} ({}) — \
                     sweep binaries iterate the set with ExperimentSpec::cell",
                    spec.routings.len(),
                    spec.routings.iter().map(|r| r.label()).collect::<Vec<_>>().join(",")
                ),
            });
        }
        Ok(Self { spec, prepared: None })
    }

    /// The session's spec.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Materialize and validate everything the run needs: the concrete job
    /// list or churn scenario, the simulation config, the output paths'
    /// writability (a post-run write error would discard the whole run),
    /// and the `qtable_load` snapshot — read once here, fingerprint-checked
    /// (a stale snapshot fails *here*, not mid-run) and kept with the cache
    /// key of the bytes read, so a later change to the file cannot reach
    /// this session. Idempotent; [`Self::run`] calls it implicitly.
    pub fn prepare(&mut self) -> Result<(), SpecError> {
        prepared(&self.spec, &mut self.prepared).map(|_| ())
    }

    /// Execute the session and return the [`RunHandle`]. Deterministic:
    /// running the same session (or a clone) again reproduces the report
    /// bit for bit — which is exactly what lets the result cache serve a
    /// prior run's report when the spec's `cache` knob is enabled. Cache
    /// failures of any kind degrade to a live run; a run that would write
    /// a trace file always runs live (the trace is an output a cached
    /// report cannot reproduce), though its result is still stored. Either
    /// way the learned tables go to `qtable_save` once, and a failed write
    /// is the named "cannot write qtable_save" error.
    pub fn run(&mut self) -> Result<RunHandle, SpecError> {
        let spec = &self.spec;
        let prepared = prepared(spec, &mut self.prepared)?;
        let cache = ResultCache::open(&spec.cache).unwrap_or_else(|e| {
            eprintln!("warning: result cache unavailable ({e}); running uncached");
            None
        });
        let cache = cache.zip(prepared.key);
        if let Some((cache, key)) = cache.as_ref().filter(|_| spec.trace.is_none()) {
            // A hit must still honor `qtable_save` — from the embedded
            // snapshot. An entry without one (from a run that predates the
            // knob) falls through to a live run rather than skipping the
            // requested output.
            if let Some(hit) =
                cache.lookup(key).filter(|hit| spec.qtable_save.is_none() || hit.snapshot.is_some())
            {
                let handle =
                    RunHandle { report: hit.report, qtable_snapshot: hit.snapshot, cached: true };
                return save_tables(spec, handle);
            }
        }
        let handle = prepared.execute(spec);
        if let Some((cache, key)) = &cache {
            cache.store_lenient(key, &handle.report, handle.qtable_snapshot.as_ref());
        }
        save_tables(spec, handle)
    }

    /// One-shot convenience: run `workload` under `spec` (the spec's own
    /// workload field is replaced). The sweep binaries' inner loop.
    pub fn run_one(spec: &ExperimentSpec, workload: Workload) -> Result<RunHandle, SpecError> {
        Simulation::from_spec(spec.clone().with_workload(workload))?.run()
    }
}

/// The session's prepared state in `slot`, built from `spec` on first use.
fn prepared<'a>(
    spec: &ExperimentSpec,
    slot: &'a mut Option<Prepared>,
) -> Result<&'a Prepared, SpecError> {
    let prepared = match slot.take() {
        Some(p) => p,
        None => Prepared::new(spec)?,
    };
    Ok(slot.insert(prepared))
}

impl Prepared {
    /// See [`Simulation::prepare`].
    fn new(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let invalid = |msg: String| SpecError::Invalid { msg };
        let cfg = spec.sim();
        cfg.validate().map_err(invalid)?;
        let num_nodes = spec.params.num_nodes();
        let work = match &spec.workload {
            Workload::Standalone(app) => PreparedWork::Static(pairwise_jobs(spec, *app, None)),
            Workload::Pairwise { target, background } => {
                PreparedWork::Static(pairwise_jobs(spec, *target, *background))
            }
            // Table II fills exactly the paper's 1,056 nodes; on any other
            // machine (tiny test systems, --smoke) it is scaled to fit.
            Workload::Mixed => PreparedWork::Static(mixed_jobs(num_nodes)),
            Workload::Jobs(jobs) => PreparedWork::Static(jobs.clone()),
            Workload::Scenario(arrivals) => PreparedWork::Churn(Scenario::from_specs(arrivals)),
            Workload::Poisson => {
                let sizes = if spec.sizes.is_empty() {
                    // Derived default: quarter-machine jobs, so a few
                    // co-residents fill the system and admission queues.
                    vec![(num_nodes / 4).max(2)]
                } else {
                    spec.sizes.clone()
                };
                PreparedWork::Churn(Scenario::poisson(
                    spec.seed,
                    spec.rates[0],
                    spec.jobs,
                    &spec.apps,
                    &sizes,
                ))
            }
        };
        match &work {
            PreparedWork::Static(jobs) => {
                for (i, job) in jobs.iter().enumerate().filter(|(_, j)| !j.idle) {
                    job.kind.check_size(job.size).map_err(|e| invalid(format!("job {i}: {e}")))?;
                }
                let total: u64 = jobs.iter().map(|j| j.size as u64).sum();
                if total > num_nodes as u64 {
                    return Err(invalid(format!(
                        "the workload needs {total} nodes, the system has {num_nodes}"
                    )));
                }
            }
            PreparedWork::Churn(scenario) => {
                scenario.validate(num_nodes).map_err(invalid)?;
            }
        }
        let load = match &spec.qtable_load {
            Some(path) => Some(std::fs::read(path).map_err(|e| {
                invalid(format!("cannot read qtable_load {}: {e}", path.display()))
            })?),
            None => None,
        };
        let warm = match &load {
            Some(bytes) => {
                let snap =
                    QTableSnapshot::from_file_bytes(bytes).map_err(|e| invalid(e.to_string()))?;
                snap.verify(&spec.params, &spec.timing, spec.qa_alpha)
                    .map_err(|e| invalid(e.to_string()))?;
                Some(snap)
            }
            None => None,
        };
        // An unwritable output path fails here, before any simulation time
        // is spent.
        for (key, path) in [("qtable_save", &spec.qtable_save), ("trace", &spec.trace)] {
            if let Some(path) = path {
                if let Err(e) = std::fs::OpenOptions::new().append(true).create(true).open(path) {
                    return Err(invalid(format!("cannot write {key} {}: {e}", path.display())));
                }
            }
        }
        let key = spec.cache.enabled().then(|| key_of(spec, load.as_deref()));
        Ok(Self { cfg, work, warm, key })
    }

    /// Live execution, no cache interaction.
    fn execute(&self, spec: &ExperimentSpec) -> RunHandle {
        let warm = self.warm.as_ref();
        let (report, qtable_snapshot) = match &self.work {
            PreparedWork::Static(jobs) => exec_static(&self.cfg, jobs, spec.placement, warm),
            PreparedWork::Churn(scenario) => {
                exec_scenario(&self.cfg, scenario, spec.sched, spec.placement, warm)
            }
        };
        RunHandle { report, qtable_snapshot, cached: false }
    }
}

/// Write `handle`'s learned tables to the spec's `qtable_save` path, if it
/// names one (only Q-adaptive runs, which always carry tables, may).
fn save_tables(spec: &ExperimentSpec, handle: RunHandle) -> Result<RunHandle, SpecError> {
    if let (Some(path), Some(snap)) = (&spec.qtable_save, &handle.qtable_snapshot) {
        std::fs::write(path, snap.to_file_bytes()).map_err(|e| SpecError::Invalid {
            msg: format!("cannot write qtable_save {}: {e}", path.display()),
        })?;
    }
    Ok(handle)
}

/// The pairwise job construction (paper §V): target on its half-system
/// partition, idle padding up to the half boundary so the background's
/// node slice is independent of the target's exact size, then the
/// background on the other half.
fn pairwise_jobs(
    spec: &ExperimentSpec,
    target: dfsim_apps::AppKind,
    background: Option<dfsim_apps::AppKind>,
) -> Vec<JobSpec> {
    let half = spec.params.num_nodes() / 2;
    let tsize = target.preferred_size(half);
    let mut jobs = vec![JobSpec::sized(target, tsize)];
    if tsize < half {
        jobs.push(JobSpec::idle(half - tsize));
    }
    if let Some(bg) = background {
        jobs.push(JobSpec::sized(bg, bg.preferred_size(half)));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use dfsim_apps::AppKind;
    use dfsim_network::RoutingAlgo;
    use dfsim_topology::DragonflyParams;

    use super::*;

    fn tiny_spec(routing: RoutingAlgo) -> ExperimentSpec {
        ExperimentSpec {
            params: DragonflyParams::tiny_72(),
            routings: vec![routing],
            scale: 2_048.0,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn session_runs_a_static_workload() {
        let spec = tiny_spec(RoutingAlgo::UgalG)
            .with_workload(Workload::jobs(vec![JobSpec::sized(AppKind::UR, 36)]));
        let mut sim = Simulation::from_spec(spec).unwrap();
        sim.prepare().unwrap();
        let handle = sim.run().unwrap();
        assert!(handle.report.completed, "{}", handle.report.stop_reason);
        assert_eq!(handle.report.apps.len(), 1);
        assert!(handle.qtable_snapshot.is_none(), "UGALg runs carry no Q-tables");
        assert!(handle.learning().is_none());
        assert_eq!(handle.engine_stats().backend, "heap");
    }

    #[test]
    fn pairwise_on_tiny_system_completes_under_all_routings() {
        for routing in RoutingAlgo::PAPER_SET {
            let spec = ExperimentSpec { scale: 4_096.0, seed: 11, ..tiny_spec(routing) };
            let workload = Workload::pairwise(AppKind::CosmoFlow, Some(AppKind::UR));
            let report = Simulation::run_one(&spec, workload).unwrap().report;
            assert!(report.completed, "{routing}: {}", report.stop_reason);
            assert_eq!(report.apps.len(), 2);
            assert_eq!(report.apps[0].name, "CosmoFlow");
        }
    }

    #[test]
    fn standalone_and_pairwise_share_target_mapping() {
        // Indirect check: identical seeds give identical standalone target
        // behaviour whether or not the background slot exists; the direct
        // mapping check lives in placement::tests.
        let spec = tiny_spec(RoutingAlgo::UgalG);
        let solo1 = Simulation::run_one(&spec, Workload::standalone(AppKind::LU)).unwrap().report;
        let solo2 = Simulation::run_one(&spec, Workload::pairwise(AppKind::LU, None)).unwrap();
        assert_eq!(solo1.apps[0].comm_ms.mean, solo2.report.apps[0].comm_ms.mean);
    }

    #[test]
    fn session_runs_a_churn_workload_and_qadp_yields_a_snapshot() {
        let mut spec = tiny_spec(RoutingAlgo::QAdaptive);
        spec.workload = Workload::Poisson;
        spec.rates = vec![500.0];
        spec.jobs = 4;
        spec.apps = vec![AppKind::UR, AppKind::CosmoFlow];
        spec.sizes = vec![18, 36];
        let handle = Simulation::from_spec(spec).unwrap().run().unwrap();
        assert!(handle.report.completed, "{}", handle.report.stop_reason);
        assert_eq!(handle.report.jobs.len(), 4);
        assert!(handle.qtable_snapshot.is_some(), "Q-adaptive runs capture their tables");
        assert!(handle.learning().is_some());
    }

    #[test]
    fn mixed_workload_scales_to_the_machine() {
        // Table II names 1,056 nodes; on the 72-node test system (or under
        // --smoke) the jobs scale proportionally instead of failing.
        let spec = tiny_spec(RoutingAlgo::UgalG).with_workload(Workload::Mixed);
        let handle = Simulation::from_spec(spec).unwrap().run().unwrap();
        assert!(handle.report.completed, "{}", handle.report.stop_reason);
        assert_eq!(handle.report.apps.len(), 6);
        let total: u32 = handle.report.apps.iter().map(|a| a.size).sum();
        assert_eq!(total, 72, "scaled mix must fill the machine exactly");
    }

    #[test]
    fn multi_routing_specs_are_rejected_with_a_named_error() {
        let mut spec = tiny_spec(RoutingAlgo::UgalG);
        spec.routings = vec![RoutingAlgo::UgalG, RoutingAlgo::Par];
        let err = Simulation::from_spec(spec).unwrap_err().to_string();
        assert!(err.contains("exactly one routing"), "{err}");
    }

    #[test]
    fn oversized_static_workloads_fail_in_prepare() {
        let spec = tiny_spec(RoutingAlgo::UgalG)
            .with_workload(Workload::jobs(vec![JobSpec::sized(AppKind::UR, 100)]));
        let mut sim = Simulation::from_spec(spec).unwrap();
        let err = sim.prepare().unwrap_err().to_string();
        assert!(err.contains("100 nodes"), "{err}");
        assert!(err.contains("72"), "{err}");
    }

    /// A LULESH size that is not a perfect cube is a named error in
    /// `prepare`, for static job lists and scenarios alike, not a panic
    /// inside the run.
    #[test]
    fn non_cube_lulesh_sizes_fail_in_prepare() {
        let arrivals = dfsim_apps::parse_arrival_list("UR:4@0,LULESH:5@1us").unwrap();
        for workload in [
            Workload::jobs(vec![
                JobSpec::sized(AppKind::UR, 4),
                JobSpec::sized(AppKind::LULESH, 5),
            ]),
            Workload::Scenario(arrivals),
        ] {
            let spec = tiny_spec(RoutingAlgo::UgalG).with_workload(workload);
            let err = Simulation::from_spec(spec).unwrap().prepare().unwrap_err().to_string();
            assert!(err.contains("job 1: LULESH needs a perfect process cube, got 5"), "{err}");
        }
    }

    #[test]
    fn missing_qtable_snapshots_fail_in_prepare() {
        let mut spec = tiny_spec(RoutingAlgo::QAdaptive);
        spec.qtable_load = Some("/nonexistent/q.snap".into());
        let mut sim = Simulation::from_spec(spec).unwrap();
        assert!(sim.prepare().is_err());
    }
}
