//! Experiment harness of the Dragonfly workload-interference study.
//!
//! This crate glues the substrates together — topology, flit-timed network,
//! MPI layer, workloads, instrumentation — into runnable experiments:
//!
//! * [`config`] — simulation configuration (topology, timing, routing,
//!   scale, seeds, horizons),
//! * [`placement`] — job-to-node placement (random, as the paper uses, plus
//!   contiguous for the placement ablation),
//! * [`world`] — the state of one simulation shard: network, MPI engine,
//!   recorder and the one deterministic event queue that feeds them,
//! * [`partition`] — the only world loop: lockstep lookahead windows over
//!   group shards, one shard when `threads <= 1`, static and churn runs
//!   alike,
//! * [`runner`] — job specs and report assembly: [`runner::run`] executes
//!   a job mix and produces a [`report::RunReport`],
//! * [`scenario`] — dynamic churn: timed job arrivals, FCFS/backfill
//!   admission and node reclamation,
//! * [`experiments`] — the paper's tables: the Table II mixed workload
//!   (§VI) and the Fig 4 target/background sets (§V),
//! * [`spec`] — the declarative [`spec::ExperimentSpec`]: one serializable
//!   description of an experiment, one text format, one `defaults < file <
//!   env < CLI` resolver, one label registry,
//! * [`simulation`] — the session API and the only way to start a run:
//!   [`simulation::Simulation`] runs a spec (`from_spec → prepare → run →
//!   RunHandle`),
//! * [`cache`] — the content-addressed result cache: reports keyed by a
//!   stable hash of the canonical spec emit, replayed bit-identically on
//!   repeat runs,
//! * [`sweep`] — deterministic parallel execution of independent runs on
//!   scoped worker threads,
//! * [`report`] / [`tables`] — run reports and text/CSV table rendering,
//! * [`trace`] — the run-level half of the `dfsim-trace v1` streaming
//!   layer: the META context blob and [`trace::replay_trace`], which
//!   rebuilds a run's exact report from its trace file.
//!
//! ```no_run
//! use dfsim_core::{ExperimentSpec, Simulation, Workload};
//! use dfsim_apps::AppKind;
//! use dfsim_network::RoutingAlgo;
//!
//! let spec = ExperimentSpec { routings: vec![RoutingAlgo::QAdaptive], ..Default::default() };
//! let workload = Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D));
//! let report = Simulation::run_one(&spec, workload).unwrap().report;
//! println!("FFT3D comm time: {:.3} ms", report.apps[0].comm_ms.mean);
//! ```

#![warn(missing_docs)]
// Library code: stdout belongs to the report/CSV emitters, so that
// `--csv > file` stays clean; diagnostics go to stderr.
#![deny(clippy::print_stdout)]

pub mod cache;
pub mod config;
pub mod experiments;
pub mod partition;
pub mod placement;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod simulation;
pub mod spec;
pub mod sweep;
pub mod tables;
pub mod trace;
pub mod world;

pub use cache::{cache_key, CacheError, CacheKey, CacheMode, ResultCache};
pub use config::SimConfig;
pub use report::{AppReport, EngineReport, JobReport, LearningReport, NetworkReport, RunReport};
pub use runner::{run, JobSpec};
pub use scenario::{Scenario, SchedPolicy};
pub use simulation::{RunHandle, Simulation};
pub use spec::{ExperimentSpec, SpecError, Workload};
pub use trace::{replay_trace, summarize_trace, TraceMeta};
pub use world::{World, WorldEvent, WorldQueue};
