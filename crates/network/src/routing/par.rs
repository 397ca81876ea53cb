//! PAR: Progressive Adaptive Routing (Jiang et al. \[6\]; paper §II-B).
//!
//! PAR behaves like UGALn at the source router but keeps the minimal
//! decision *revisable*: every router the packet visits inside its source
//! group re-runs the min/non-min comparison with its own (fresher, closer to
//! the congestion) queue state, and may divert the packet onto a Valiant
//! path. Once the packet leaves the source group — or has been diverted —
//! the decision is final.

use dfsim_des::Time;
use dfsim_topology::paths::PathPlan;
use dfsim_topology::{LinkTiming, Topology};

use crate::packet::Packet;
use crate::router::Router;
use crate::routing::{ugal, RoutingConfig};

/// Re-evaluate a minimal plan at a source-group router. Returns the new
/// non-minimal plan if this router's queues say the minimal exit is
/// congested, `None` to keep going minimally.
pub fn revise(
    router: &mut Router,
    topo: &Topology,
    timing: &LinkTiming,
    cfg: &RoutingConfig,
    now: Time,
    pkt: &Packet,
) -> Option<PathPlan> {
    let src_group = topo.group_of_router(router.id);
    let dst_group = topo.group_of_node(pkt.dst);
    if src_group == dst_group || topo.num_groups() < 3 {
        return None;
    }
    let pser = timing.packet_serialize();
    let p_min = topo.min_next_port(router.id, pkt.dst);
    let q_min = router.congestion_packets(p_min, now, timing.buffer_packets, pser);
    let (q_non, via) = ugal::sample_detour(router, topo, timing, cfg, now, src_group, dst_group)?;
    if (q_min as i64) <= 2 * q_non as i64 + cfg.ugal_bias {
        return None;
    }
    // PAR diverts like UGALn: via a random router of the chosen group.
    let a = topo.params().routers_per_group;
    let via_router = topo.router_in_group(via, router.rng.below(a as u64) as u32);
    Some(PathPlan::NonMinimalRouter { via: via_router })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageId, RouteState};
    use dfsim_des::SimRng;
    use dfsim_metrics::AppId;
    use dfsim_topology::{DragonflyParams, NodeId, RouterId};

    fn setup() -> (Topology, Router, RoutingConfig, LinkTiming) {
        let topo = Topology::new(DragonflyParams::paper_1056()).unwrap();
        let router = Router::new(&topo, RouterId(1), 6, 30, None, SimRng::new(3));
        (topo, router, RoutingConfig::default(), LinkTiming::default())
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
            hops: 1,
            state: RouteState::Fresh,
            cached_port: None,
        }
    }

    #[test]
    fn quiet_router_does_not_revise() {
        let (topo, mut r, cfg, timing) = setup();
        assert_eq!(revise(&mut r, &topo, &timing, &cfg, 0, &pkt(1000)), None);
    }

    #[test]
    fn congested_exit_revises_to_router_valiant() {
        let (topo, mut r, cfg, timing) = setup();
        let p = pkt(1000);
        let p_min = topo.min_next_port(r.id, p.dst);
        for vc in 0..6u8 {
            for _ in 0..30 {
                r.take_credit(p_min, vc);
            }
        }
        match revise(&mut r, &topo, &timing, &cfg, 0, &p) {
            Some(PathPlan::NonMinimalRouter { .. }) => {}
            other => panic!("expected revision, got {other:?}"),
        }
    }

    #[test]
    fn same_group_destination_never_revises() {
        let (topo, mut r, cfg, timing) = setup();
        assert_eq!(revise(&mut r, &topo, &timing, &cfg, 0, &pkt(20)), None);
    }
}
