//! Instrumentation layer — the paper's "IO module" (§III).
//!
//! The paper enhances SST with an IO module that records any performance
//! counter at any frequency: per-packet detail (source, destination, send and
//! receive times, forwarding path), per-application link usage, and
//! application-level timestamps. This crate is that module for our simulator:
//!
//! * [`recorder::Recorder`] — the single sink every component reports into,
//! * [`series`] — binned time series (throughput along simulated time,
//!   Figs 5/9/13b),
//! * [`hist`] — latency sample pools with quantiles (Figs 6/7/13a),
//! * [`stall`] — per-port stall/busy/traffic accounting (Fig 11),
//! * [`congestion`] — the group-pair congestion-index matrix (Fig 12),
//! * [`summary`] — mean/std/min/max helpers used by every table,
//! * [`window`] — time spans and overlap math for attributing interference
//!   to co-residency intervals under churn,
//! * [`sink`] / [`trace`] — the streaming event bus: subscribers observing
//!   every recorder hook live, and the `dfsim-trace v1` binary file format
//!   that persists the stream with bounded memory and replays it losslessly.
//!
//! Recording is allocation-light: counters are dense vectors indexed by
//! (router, port) or by time bin, and latency samples append to per-app
//! vectors. Everything is plain data so reports can be serialized.

#![warn(missing_docs)]
// Library code: stdout belongs to the report/CSV emitters, so that
// `--csv > file` stays clean; diagnostics go to stderr.
#![deny(clippy::print_stdout)]
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

pub mod congestion;
pub mod hist;
pub mod learning;
pub mod recorder;
pub mod series;
pub mod sink;
pub mod stall;
pub mod summary;
pub mod trace;
pub mod window;

pub use congestion::CongestionMatrix;
pub use hist::{summarize_slices, LatencySummary, SamplePool};
pub use learning::LearningTrace;
pub use recorder::{AppId, KeyedEntry, KeyedKind, Recorder, RecorderConfig};
pub use series::BinSeries;
pub use sink::{EventSink, TraceEvent, VecSink};
pub use stall::PortStats;
pub use summary::Stats;
pub use trace::{
    read_meta, read_trace, TraceContents, TraceError, TraceWriter, EVENT_KIND_NAMES, TRACE_HEADER,
};
pub use window::{co_residency, Span};
