//! # dragonfly-interference
//!
//! A from-scratch Rust reproduction of *"Study of Workload Interference
//! with Intelligent Routing on Dragonfly"* (Kang, Wang, Lan — SC 2022):
//! a flit-timed discrete-event simulator of a 1,056-node Dragonfly with
//! adaptive (UGALg/UGALn/PAR) and reinforcement-learning (Q-adaptive)
//! routing, a simulated MPI layer, the paper's nine workloads, and the
//! complete interference-analysis harness regenerating every table and
//! figure of the paper's evaluation.
//!
//! The facade re-exports each subsystem crate:
//!
//! * [`des`] — discrete-event kernel (time, event queues, RNG),
//! * [`topology`] — the Dragonfly structure,
//! * [`metrics`] — the instrumentation "IO module",
//! * [`network`] — routers, VCs, credit flow control, routing algorithms,
//! * [`mpi`] — rank programs, matching, collectives, rendezvous,
//! * [`apps`] — UR, LU, FFT3D, Halo3D, LQCD, Stencil5D, CosmoFlow, DL,
//!   LULESH,
//! * [`core`] — the experiment spec, the simulation session, placement,
//!   the world loop.
//!
//! Quick start (see `examples/quickstart.rs`):
//!
//! ```no_run
//! use dragonfly_interference::prelude::*;
//!
//! let spec = ExperimentSpec { routings: vec![RoutingAlgo::QAdaptive], ..Default::default() };
//! let workload = Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D));
//! let report = Simulation::run_one(&spec, workload).unwrap().report;
//! println!(
//!     "FFT3D comm time under Halo3D interference: {:.3} ms (±{:.3})",
//!     report.apps[0].comm_ms.mean,
//!     report.apps[0].comm_ms.std
//! );
//! ```

// Library code: stdout belongs to the report/CSV emitters, so that
// `--csv > file` stays clean; diagnostics go to stderr.
#![deny(clippy::print_stdout)]

pub use dfsim_apps as apps;
pub use dfsim_core as core;
pub use dfsim_des as des;
pub use dfsim_metrics as metrics;
pub use dfsim_mpi as mpi;
pub use dfsim_network as network;
pub use dfsim_topology as topology;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dfsim_apps::{AppInstance, AppKind, ArrivalSpec};
    pub use dfsim_core::placement::Placement;
    pub use dfsim_core::runner::{run, JobSpec};
    pub use dfsim_core::scenario::{Scenario, SchedPolicy};
    pub use dfsim_core::spec::{die, lookup, lookup_list, Registered};
    pub use dfsim_core::tables::TextTable;
    pub use dfsim_core::{
        cache_key, replay_trace, summarize_trace, AppReport, CacheError, CacheKey, CacheMode,
        EngineReport, ExperimentSpec, JobReport, LearningReport, NetworkReport, ResultCache,
        RunHandle, RunReport, SimConfig, Simulation, SpecError, TraceMeta, Workload,
    };
    pub use dfsim_des::{
        CalendarTuning, EngineStats, QueueBackend, QueueKind, SimRng, Time, MICROSECOND,
        MILLISECOND, NANOSECOND,
    };
    pub use dfsim_metrics::{
        AppId, EventSink, LatencySummary, Recorder, RecorderConfig, Stats, TraceError, TraceEvent,
        TraceWriter, EVENT_KIND_NAMES,
    };
    pub use dfsim_network::{
        NetworkSim, QTableInit, QTableSnapshot, QaParams, RoutingAlgo, RoutingConfig, SnapshotError,
    };
    pub use dfsim_topology::{DragonflyParams, LinkTiming, NodeId, Topology};
}
