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
//!   engine, with an in-process thread implementation ([`comm`]).
//!
//! Event semantics are exactly deterministic in both execution modes: the
//! sequential engine orders by `(time, seq)`, and the partitioned engine
//! renumbers provisional sequence numbers at every conservative window
//! barrier so its reports are bit-identical to the sequential ones.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod comm;
pub mod job;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod time;

// The reference queue lives with the integration tests, which name this
// crate by its external name; the unit tests share the one copy.
#[cfg(test)]
extern crate self as dfsim_des;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use calendar::CalendarQueue;
pub use comm::{local_mesh, LocalThreadCommunicator, SimCommunicator, WireReader, WireWriter};
pub use job::{JobEvent, JobId};
pub use queue::{
    CalendarTuning, EngineStats, EventQueue, PendingEvents, QueueBackend, QueueKind, SimQueue,
};
pub use rng::SimRng;
pub use sched::Scheduler;
pub use time::{
    parse_duration, Time, GIGABIT_PER_SEC, MICROSECOND, MILLISECOND, NANOSECOND, PICOSECOND, SECOND,
};
