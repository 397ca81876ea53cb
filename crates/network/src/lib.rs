//! Flit-timed Dragonfly network simulation (the SST/Merlin substitute).
//!
//! The model (paper §III): input-queued routers with virtual channels,
//! credit-based flow control (30-packet buffers per port VC), 128 B flits in
//! 512 B packets on 200 Gb/s links, 30 ns local / 300 ns global propagation.
//! Packets are the event unit; all serialization times are flit-derived, so
//! latency and throughput match a flit-level simulation at the granularity
//! the paper reports (see `DESIGN.md` §5 for the fidelity argument).
//!
//! * [`packet`] — packets, messages, routing state carried per packet,
//! * [`events`] — the network event enum and the effects surfaced to the
//!   MPI layer (message injected / delivered),
//! * [`router`] — per-router buffers, credits, arbitration and waiting lists,
//! * [`nic`] — per-node injection queues and packetization,
//! * [`routing`] — MIN, UGALg, UGALn, PAR and Q-adaptive decision logic,
//! * [`qtable`] — the two-level Q-table of Q-adaptive routing,
//! * [`snapshot`] — Q-table lifecycle: fingerprinted snapshots and
//!   warm-start initialization,
//! * [`sim`] — [`sim::NetworkSim`], the event handler gluing it together.
//!
//! Deadlock freedom: a packet's VC index equals the number of router-to-
//! router channels it has traversed, which increases strictly along any
//! path; the channel-dependency graph is therefore acyclic. The longest
//! legal path is a PAR revision after the packet already moved towards the
//! minimal gateway (l, l→via-gateway, g, l, l, g, l = 7 hops), hence
//! [`NUM_VCS`] = 7 — matching the literature's observation that PAR needs
//! one more VC than UGAL.

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

pub mod events;
pub mod nic;
pub mod packet;
pub mod partition;
pub mod qtable;
pub mod router;
pub mod routing;
pub mod sim;
pub mod snapshot;

pub use events::{NetEffect, NetEvent};
pub use packet::{MessageId, Packet, RouteState};
pub use partition::{MsgExport, PartitionMap, QUndoEntry};
pub use qtable::QTable;
pub use routing::{QaParams, RoutingAlgo, RoutingConfig};
pub use sim::NetworkSim;
pub use snapshot::{QTableInit, QTableSnapshot, SnapshotError};

/// Virtual channels per port: covers the longest legal path (7 hops — a
/// PAR in-group revision followed by a router-level Valiant detour).
pub const NUM_VCS: u8 = 7;
