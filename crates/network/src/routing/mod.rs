//! Routing algorithms: MIN, UGALg, UGALn, PAR and Q-adaptive (paper §II-B).
//!
//! All algorithms share one entry point, [`decide`], called once per router
//! visit when a packet first reaches the head of its input VC (the decision
//! is cached across blocked retries). The algorithms differ in *where* the
//! minimal/non-minimal choice is made and on *what information*:
//!
//! | Algorithm  | Decision point(s)                  | Information      |
//! |------------|------------------------------------|------------------|
//! | MIN        | none (always minimal)              | —                |
//! | UGALg      | source router, once                | local queues     |
//! | UGALn      | source router, once                | local queues     |
//! | PAR        | source router + source-group revisions | local queues |
//! | Q-adaptive | every source-group router          | learned Q-table  |

pub mod par;
pub mod qadaptive;
pub mod ugal;

use dfsim_des::Time;
use dfsim_topology::paths::{PathPlan, RouteProgress};
use dfsim_topology::{LinkTiming, Port, Topology};

use crate::packet::{Packet, RouteState};
use crate::router::Router;
use crate::snapshot::QTableInit;

/// Which routing algorithm a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingAlgo {
    /// Always-minimal baseline (not in the paper's comparison, kept as an
    /// ablation: §II-B explains why it loses on Dragonfly).
    Minimal,
    /// UGAL with group-level Valiant detours.
    UgalG,
    /// UGAL with router-level (node) Valiant detours.
    UgalN,
    /// Progressive Adaptive Routing: minimal first, revisable within the
    /// source group.
    Par,
    /// Q-adaptive reinforcement-learning routing.
    QAdaptive,
}

impl RoutingAlgo {
    /// Every selectable algorithm (the paper set plus the MIN baseline) —
    /// the canonical registry order used by CLI/spec lookups everywhere.
    pub const ALL: [RoutingAlgo; 5] = [
        RoutingAlgo::Minimal,
        RoutingAlgo::UgalG,
        RoutingAlgo::UgalN,
        RoutingAlgo::Par,
        RoutingAlgo::QAdaptive,
    ];

    /// The four algorithms the paper evaluates (Figs 4, 10, 13a).
    pub const PAPER_SET: [RoutingAlgo; 4] =
        [RoutingAlgo::UgalG, RoutingAlgo::UgalN, RoutingAlgo::Par, RoutingAlgo::QAdaptive];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingAlgo::Minimal => "MIN",
            RoutingAlgo::UgalG => "UGALg",
            RoutingAlgo::UgalN => "UGALn",
            RoutingAlgo::Par => "PAR",
            RoutingAlgo::QAdaptive => "Q-adp",
        }
    }
}

impl std::fmt::Display for RoutingAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Q-adaptive hyperparameters ("same hyperparameters as in \[14\]" — the
/// reproduced text does not list the values, so they are configurable with
/// defaults chosen to converge within a fraction of one run; `DESIGN.md` §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QaParams {
    /// EWMA learning rate.
    pub alpha: f64,
    /// ε-greedy exploration probability.
    pub epsilon: f64,
}

impl Default for QaParams {
    fn default() -> Self {
        Self { alpha: 0.2, epsilon: 0.005 }
    }
}

/// Full routing configuration.
///
/// Not `Copy`: [`QTableInit::Load`] carries the snapshot path, so configs
/// clone explicitly wherever they fan out across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingConfig {
    /// The algorithm.
    pub algo: RoutingAlgo,
    /// UGAL bias towards the minimal path, in packets (paper: 0).
    pub ugal_bias: i64,
    /// Non-minimal candidate paths sampled per UGAL decision (paper: 2).
    pub nonmin_samples: usize,
    /// Q-adaptive hyperparameters.
    pub qa: QaParams,
    /// How Q-adaptive Q-tables start: cold (static topology estimates, the
    /// paper's setting) or warm-started from a fingerprint-checked snapshot.
    /// Ignored by every other algorithm (validated upstream in
    /// `dfsim-core`'s `SimConfig::validate`).
    pub qtable_init: QTableInit,
}

impl RoutingConfig {
    /// Config for an algorithm with the paper's defaults (cold start).
    pub fn new(algo: RoutingAlgo) -> Self {
        Self {
            algo,
            ugal_bias: 0,
            nonmin_samples: 2,
            qa: QaParams::default(),
            qtable_init: QTableInit::Cold,
        }
    }
}

impl Default for RoutingConfig {
    fn default() -> Self {
        Self::new(RoutingAlgo::UgalG)
    }
}

/// Decide the output port for `pkt` at `router`, updating the packet's
/// routing state. Called once per router visit (the result is cached in
/// `pkt.cached_port` by the caller).
pub fn decide(
    router: &mut Router,
    topo: &Topology,
    timing: &LinkTiming,
    cfg: &RoutingConfig,
    now: Time,
    pkt: &mut Packet,
) -> Port {
    let dst_router = topo.router_of_node(pkt.dst);
    if dst_router == router.id {
        return topo.terminal_port(pkt.dst);
    }
    loop {
        match pkt.state {
            RouteState::Fresh => {
                pkt.state = initial_state(router, topo, timing, cfg, now, pkt);
            }
            RouteState::QDeciding { local_hops } => {
                return qadaptive::step(router, topo, timing, cfg, now, pkt, local_hops);
            }
            RouteState::Planned { mut progress, revisable } => {
                let src_group = topo.group_of_node(pkt.src);
                let here = topo.group_of_router(router.id);
                let mut revisable = revisable && here == src_group;
                if revisable && cfg.algo == RoutingAlgo::Par && progress.plan == PathPlan::Minimal {
                    if let Some(plan) = par::revise(router, topo, timing, cfg, now, pkt) {
                        progress = RouteProgress::new(plan);
                        revisable = false;
                    }
                }
                let port = progress.next_port(topo, router.id, pkt.dst);
                pkt.state = RouteState::Planned { progress, revisable };
                return port;
            }
        }
    }
}

/// The state a fresh packet adopts at its source router.
fn initial_state(
    router: &mut Router,
    topo: &Topology,
    timing: &LinkTiming,
    cfg: &RoutingConfig,
    now: Time,
    pkt: &Packet,
) -> RouteState {
    let same_group = topo.group_of_node(pkt.src) == topo.group_of_node(pkt.dst);
    match cfg.algo {
        RoutingAlgo::Minimal => RouteState::Planned {
            progress: RouteProgress::new(PathPlan::Minimal),
            revisable: false,
        },
        RoutingAlgo::UgalG | RoutingAlgo::UgalN => {
            let node_valiant = cfg.algo == RoutingAlgo::UgalN;
            let plan = ugal::choose_plan(router, topo, timing, cfg, now, pkt, node_valiant);
            RouteState::Planned { progress: RouteProgress::new(plan), revisable: false }
        }
        RoutingAlgo::Par => {
            // PAR starts with the same source decision as UGALn and may
            // revise a minimal choice at downstream source-group routers.
            let plan = ugal::choose_plan(router, topo, timing, cfg, now, pkt, true);
            let revisable = plan == PathPlan::Minimal;
            RouteState::Planned { progress: RouteProgress::new(plan), revisable }
        }
        RoutingAlgo::QAdaptive => {
            if same_group {
                RouteState::Planned {
                    progress: RouteProgress::new(PathPlan::Minimal),
                    revisable: false,
                }
            } else {
                RouteState::QDeciding { local_hops: 0 }
            }
        }
    }
}
