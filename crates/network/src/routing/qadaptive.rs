//! Q-adaptive routing decisions (Kang et al., HPDC'21 \[14\]; paper §II-B).
//!
//! While the packet is still inside its *source group*, every router it
//! visits scores all legal output ports as
//!
//! ```text
//! score(p) = queue_delay(p) + Q1[dst_group][p]
//! ```
//!
//! — the current local queueing delay plus the learned estimate of the
//! remaining delivery time — and forwards through the arg-min (ε-greedy).
//! Choosing a global port commits the packet: directly to the destination
//! group (minimal) or into an intermediate group (one Valiant detour, after
//! which routing is minimal). Choosing a local port keeps the decision open
//! at the next router, bounded to two local hops so path length stays within
//! the VC budget. Once outside the source group the committed plan is a pure
//! function of the topology.

use dfsim_des::Time;
use dfsim_topology::paths::{PathPlan, RouteProgress};
use dfsim_topology::{LinkKind, LinkTiming, NodeId, Port, Topology};

use crate::packet::{Packet, RouteState};
use crate::router::{PortPeer, Router};
use crate::routing::RoutingConfig;

/// Maximum intra-source-group local hops before the packet must commit to a
/// global port. One wander hop reaches every router of the source group —
/// and with it every possible intermediate group — while keeping local-link
/// churn low (the HPDC'21 design also makes at most one in-group move
/// before committing).
pub const MAX_LOCAL_WANDER: u8 = 1;

/// What committing to a candidate port means for the packet state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// Global port straight to the destination group.
    Minimal,
    /// Global port into an intermediate group (Valiant detour).
    Via(dfsim_topology::GroupId),
    /// Local port: keep deciding at the next router.
    Wander,
    /// The minimal local port towards the gateway, chosen at the wander
    /// limit: commits the rest of the path to the minimal plan.
    MinPlan,
}

/// One Q-adaptive decision step at a source-group router.
pub fn step(
    router: &mut Router,
    topo: &Topology,
    timing: &LinkTiming,
    cfg: &RoutingConfig,
    now: Time,
    pkt: &mut Packet,
    local_hops: u8,
) -> Port {
    let dst_group = topo.group_of_node(pkt.dst);
    debug_assert_ne!(topo.group_of_router(router.id), dst_group, "QDeciding outside source");

    // One pass for the first minimum-score candidate and the candidate
    // count; only the ε branch walks the candidates a second time.
    let mut count = 0;
    let mut best: Option<(Port, Commit, f64)> = None;
    for cand in candidates(router, topo, timing, now, pkt.dst, local_hops) {
        count += 1;
        if best.is_none_or(|b| cand.2 < b.2) {
            best = Some(cand);
        }
    }
    let Some(best) = best else {
        // Degenerate topology (no usable global port): fall back to the
        // minimal plan from here.
        let mut progress = RouteProgress::new(PathPlan::Minimal);
        let port = progress.next_port(topo, router.id, pkt.dst);
        pkt.state = RouteState::Planned { progress, revisable: false };
        return port;
    };

    // ε-greedy selection.
    let (port, commit, _) = if router.rng.chance(cfg.qa.epsilon) {
        let k = router.rng.index(count);
        // The router is unchanged since the first pass, so this walk
        // yields the same `count` candidates and `nth(k)` is always one.
        candidates(router, topo, timing, now, pkt.dst, local_hops).nth(k).unwrap_or(best)
    } else {
        best
    };

    pkt.state = match commit {
        Commit::Minimal | Commit::MinPlan => RouteState::Planned {
            progress: RouteProgress::new(PathPlan::Minimal),
            revisable: false,
        },
        Commit::Via(g) => RouteState::Planned {
            progress: RouteProgress::new(PathPlan::NonMinimalGroup { via: g }),
            revisable: false,
        },
        Commit::Wander => RouteState::QDeciding { local_hops: local_hops + 1 },
    };
    port
}

/// The legal candidates of one decision at `router` towards `dst`, in port
/// order: `(port, commit action, score)`. The minimal next port is
/// *always* a candidate — at the wander limit a minimal local port commits
/// the whole remaining path, so the limit never forces an unwanted detour.
fn candidates<'a>(
    router: &'a Router,
    topo: &'a Topology,
    timing: &LinkTiming,
    now: Time,
    dst: NodeId,
    local_hops: u8,
) -> impl Iterator<Item = (Port, Commit, f64)> + 'a {
    let dst_group = topo.group_of_node(dst);
    let p_min = topo.min_next_port(router.id, dst);
    let pser = timing.packet_serialize();
    let buffer_packets = timing.buffer_packets;
    #[expect(
        clippy::expect_used,
        reason = "`NetworkSim::shard` installs a Q-table on every router when the algo is Q-adaptive, and this path is only reached under that algo"
    )]
    let qtable = router.qtable.as_ref().expect("Q-adaptive router has a Q-table");
    (0..router.radix() as u8).filter_map(move |p| {
        let port = Port(p);
        let PortPeer::Router(..) = router.peer(port) else {
            return None;
        };
        let commit = match topo.port_kind(port) {
            LinkKind::Global => {
                let target = topo.global_port_target(router.id, port)?;
                if target == dst_group {
                    Commit::Minimal
                } else {
                    Commit::Via(target)
                }
            }
            LinkKind::Local => {
                if local_hops < MAX_LOCAL_WANDER {
                    Commit::Wander
                } else if port == p_min {
                    Commit::MinPlan
                } else {
                    return None;
                }
            }
            LinkKind::Terminal => return None,
        };
        let q = qtable.q1(dst_group, port);
        if !q.is_finite() {
            return None;
        }
        let queue_delay =
            router.congestion_packets(port, now, buffer_packets, pser) as f64 * pser as f64;
        Some((port, commit, queue_delay + q))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MessageId;
    use crate::qtable::QTable;
    use dfsim_des::SimRng;
    use dfsim_metrics::AppId;
    use dfsim_topology::{DragonflyParams, GroupId, NodeId, RouterId};

    fn setup(router: u32) -> (Topology, Router, RoutingConfig, LinkTiming) {
        let topo = Topology::new(DragonflyParams::paper_1056()).unwrap();
        let timing = LinkTiming::default();
        let qt = QTable::new(&topo, RouterId(router), &timing, 0.1);
        let mut cfg = RoutingConfig::new(crate::routing::RoutingAlgo::QAdaptive);
        cfg.qa.epsilon = 0.0; // deterministic tests
        let r = Router::new(&topo, RouterId(router), 6, 30, Some(qt), SimRng::new(11));
        (topo, r, cfg, timing)
    }

    fn pkt(dst: u32) -> Packet {
        Packet {
            id: 0,
            msg: MessageId(0),
            app: AppId(0),
            src: NodeId(0),
            dst: NodeId(dst),
            bytes: 512,
            injected_at: 0,
            arrived_at_hop: 0,
            hops: 0,
            state: RouteState::QDeciding { local_hops: 0 },
            cached_port: None,
        }
    }

    #[test]
    fn cold_table_quiet_network_picks_minimal_route() {
        // Router 0 has a direct global link to group 1 (port 11): with static
        // estimates and no queueing that is the best-scoring candidate for a
        // group-1 destination.
        let (topo, mut r, cfg, timing) = setup(0);
        let dst = topo.nodes_of_router(RouterId(8)).next().unwrap(); // group 1
        let mut p = pkt(dst.0);
        let port = step(&mut r, &topo, &timing, &cfg, 0, &mut p, 0);
        assert_eq!(topo.global_port_target(RouterId(0), port), Some(GroupId(1)));
        assert!(matches!(
            p.state,
            RouteState::Planned { progress, .. } if progress.plan == PathPlan::Minimal
        ));
    }

    #[test]
    fn congested_direct_port_diverts() {
        let (topo, mut r, cfg, timing) = setup(0);
        // Destination in group 1, reached via port 11.
        let dst = topo.nodes_of_router(RouterId(8)).next().unwrap();
        // Saturate the direct port's downstream credits so its queue delay
        // dominates any detour estimate.
        for vc in 0..6u8 {
            for _ in 0..30 {
                r.take_credit(Port(11), vc);
            }
        }
        let mut p = pkt(dst.0);
        let port = step(&mut r, &topo, &timing, &cfg, 0, &mut p, 0);
        assert_ne!(port, Port(11), "should not choose the saturated direct port");
    }

    #[test]
    fn local_wander_exhausted_forces_commitment() {
        let (topo, mut r, cfg, timing) = setup(0);
        let dst = 1000; // group 31
        let mut p = pkt(dst);
        let port = step(&mut r, &topo, &timing, &cfg, 0, &mut p, MAX_LOCAL_WANDER);
        // At the limit the packet must commit a plan: either a global port
        // or the minimal local port towards the gateway.
        assert!(matches!(p.state, RouteState::Planned { .. }));
        if topo.port_kind(port) == LinkKind::Local {
            assert_eq!(port, topo.min_next_port(RouterId(0), NodeId(dst)));
        }
    }

    #[test]
    fn learned_congestion_redirects_traffic() {
        let (topo, mut r, cfg, timing) = setup(0);
        let dst = topo.nodes_of_router(RouterId(8)).next().unwrap();
        // Poison the learned estimate of the direct port (as if feedback
        // reported huge delays) — traffic should avoid it even though the
        // local queue is empty.
        r.qtable.as_mut().unwrap().update1(GroupId(1), Port(11), 1_000_000_000_000);
        let mut p = pkt(dst.0);
        let port = step(&mut r, &topo, &timing, &cfg, 0, &mut p, 0);
        assert_ne!(port, Port(11));
    }

    #[test]
    fn wander_increments_local_hops() {
        let (topo, mut r, cfg, timing) = setup(0);
        let dst = topo.nodes_of_router(RouterId(8)).next().unwrap();
        // Make every global port look terrible so a local port wins.
        let qt = r.qtable.as_mut().unwrap();
        for g in 1..33u32 {
            for port in 11..15u8 {
                qt.update1(GroupId(g), Port(port), 1_000_000_000_000);
            }
        }
        let mut p = pkt(dst.0);
        let port = step(&mut r, &topo, &timing, &cfg, 0, &mut p, 0);
        assert_eq!(topo.port_kind(port), LinkKind::Local);
        assert_eq!(p.state, RouteState::QDeciding { local_hops: 1 });
    }
}
