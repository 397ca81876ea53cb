//! Dragonfly topology model (the Merlin-topology substitute, paper §II-A/§III).
//!
//! The paper studies a 1,056-node Dragonfly: 33 groups × 8 routers × 4 nodes,
//! fully connected intra-group (7 local ports per router) and inter-group
//! (32 global links per group — exactly one global link between every pair of
//! groups; 4 global ports per router). This crate models arbitrary
//! `(g, a, p, h)` Dragonflies with that fully-connected structure:
//!
//! * [`params::DragonflyParams`] — the four structural parameters plus link
//!   bandwidth/latency constants,
//! * [`ids`] — strongly typed node/router/group/port identifiers,
//! * [`topo::Topology`] — port maps, link endpoints and the global-link
//!   arrangement,
//! * [`paths`] — minimal and non-minimal (Valiant) path enumeration used by
//!   the routing algorithms and by the property tests.

#![warn(missing_docs)]
// Library code: stdout belongs to the report/CSV emitters, so that
// `--csv > file` stays clean; diagnostics go to stderr.
#![deny(clippy::print_stdout)]

pub mod ids;
pub mod params;
pub mod paths;
pub mod topo;

pub use ids::{GroupId, LinkKind, NodeId, Port, RouterId};
pub use params::{DragonflyParams, LinkTiming, TopologyError};
pub use paths::{Hop, PathPlan};
pub use topo::{Endpoint, Topology};
