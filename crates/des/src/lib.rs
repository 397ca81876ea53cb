//! Discrete-event simulation kernel for the Dragonfly interference study.
//!
//! This crate is the substitute for the SST simulation core used by the paper
//! (see `DESIGN.md` §5). It provides:
//!
//! * a picosecond time base exact for all the paper's link constants
//!   ([`time`]),
//! * two interchangeable pending-event sets — a monotone radix heap and a
//!   calendar queue — behind the [`queue::PendingEvents`] trait ([`queue`],
//!   [`calendar`]),
//! * a tiny scheduler abstraction so sub-models (network, MPI) can schedule
//!   their own event types while a single world queue drives the simulation
//!   ([`sched`]),
//! * deterministic, splittable random-number utilities so every simulation is
//!   reproducible from one seed ([`rng`]),
//! * job-lifecycle event kinds (spawn/teardown) for dynamic churn scenarios
//!   ([`job`]),
//! * a partition communicator for the conservatively synchronized parallel
//!   engine, with an in-process thread implementation ([`comm`]),
//! * the one binary codec — little-endian `put_*` writers and a checked
//!   reader whose every failure is a named [`WireError`] — behind barrier
//!   frames, trace files, result-cache entries and Q-table files ([`wire`]).
//!
//! Event semantics are exactly deterministic in both execution modes: the
//! sequential engine orders by `(time, seq)`, and the partitioned engine
//! renumbers provisional sequence numbers at every conservative window
//! barrier so its reports are bit-identical to the sequential ones.

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

pub mod calendar;
pub mod comm;
pub mod job;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod time;
pub mod wire;

// The reference queue lives with the integration tests, which name this
// crate by its external name; the unit tests share the one copy.
#[cfg(test)]
extern crate self as dfsim_des;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use calendar::CalendarQueue;
pub use comm::{local_mesh, LocalThreadCommunicator, SimCommunicator};
pub use job::{JobEvent, JobId};
pub use queue::{
    CalendarTuning, EngineStats, EventQueue, PendingEvents, QueueBackend, QueueKind, SimQueue,
};
pub use rng::SimRng;
pub use sched::Scheduler;
pub use time::{
    parse_duration, Time, GIGABIT_PER_SEC, MICROSECOND, MILLISECOND, NANOSECOND, PICOSECOND, SECOND,
};
pub use wire::{WireError, WireReader, WireWriter};
