//! Simulated MPI layer — the SST/Firefly substitute (paper §III).
//!
//! Each application rank runs a *program* (a [`op::RankProgram`]) that emits
//! MPI operations: computation intervals, point-to-point sends/receives
//! (blocking and non-blocking) and the collectives the paper's workloads
//! use. The layer implements:
//!
//! * tag/source matching with posted-receive and unexpected-message queues
//!   ([`matching`]),
//! * the eager protocol for small messages and RTS/CTS rendezvous for large
//!   ones ([`sim`]),
//! * SST's collective algorithms ([`collectives`]): Alltoall as a multi-round
//!   ring exchange, Allreduce/Reduce/Bcast/Barrier as binary-tree
//!   aggregation + distribution — the algorithms paper §IV names when
//!   deriving each workload's peak ingress volume,
//! * per-rank communication-time accounting: the time a rank spends blocked
//!   inside MPI calls, which is exactly the paper's "communication time"
//!   (Figs 4, 8, 10),
//! * peak-ingress-volume measurement: the largest burst of message bytes a
//!   rank posts without blocking (Table I).

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

pub mod collectives;
pub mod matching;
pub mod op;
pub mod rank;
pub mod sim;

pub use op::{CommId, MpiOp, RankProgram, Tag};
pub use sim::{MpiEvent, MpiSim, WorldSched};
