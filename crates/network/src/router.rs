//! Per-router state: input VC buffers, downstream credits, link occupancy
//! and the waiting lists that implement round-robin arbitration.
//!
//! The router is input-queued: each input `(port, vc)` holds a FIFO of
//! packets. Only the head packet of a FIFO can be serviced; when it cannot
//! depart (no downstream credit, or the output link is still serializing a
//! previous packet) the input registers on exactly one waiting list of the
//! contended resource and the head-of-line blocking interval is accounted as
//! *stall time* (Fig 11's metric).

use std::collections::VecDeque;

use dfsim_des::{SimRng, Time};
use dfsim_topology::{Endpoint, NodeId, Port, RouterId, Topology};

use crate::packet::Packet;
use crate::qtable::QTable;

/// One input virtual channel.
#[derive(Debug, Default)]
pub struct InputVc {
    /// Buffered packets (head = next to service).
    pub queue: VecDeque<Packet>,
    /// When the current head became blocked, if it is.
    pub blocked_since: Option<Time>,
}

/// What sits at the far end of a port (precomputed from the topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPeer {
    /// Another router's input `(router, port)`.
    Router(RouterId, Port),
    /// A compute node (terminal port).
    Node(NodeId),
    /// Nothing (unused global port on under-subscribed systems).
    Unconnected,
}

/// Mutable per-router simulation state.
#[derive(Debug)]
pub struct Router {
    /// This router's id.
    pub id: RouterId,
    radix: usize,
    nvcs: usize,
    /// Input buffers, `[port * nvcs + vc]`.
    pub inputs: Vec<InputVc>,
    /// Credits towards the downstream input buffer, `[port * nvcs + vc]`.
    /// Only meaningful for router-to-router ports.
    credits: Vec<u32>,
    /// Per-port peer map.
    peers: Vec<PortPeer>,
    /// Output link busy horizon per port.
    busy_until: Vec<Time>,
    /// Inputs whose head waits for this output link, per port.
    waiting_link: Vec<VecDeque<(Port, u8)>>,
    /// Inputs whose head waits for a credit of `(port, vc)`.
    waiting_credit: Vec<VecDeque<(Port, u8)>>,
    /// Q-adaptive state (present only under Q-adaptive routing).
    pub qtable: Option<QTable>,
    /// Per-router RNG (UGAL candidate sampling, ε-exploration).
    pub rng: SimRng,
}

impl Router {
    /// Build router state from the topology.
    pub fn new(
        topo: &Topology,
        id: RouterId,
        nvcs: u8,
        buffer_packets: u32,
        qtable: Option<QTable>,
        rng: SimRng,
    ) -> Self {
        let radix = topo.radix() as usize;
        let nvcs = nvcs as usize;
        let peers: Vec<PortPeer> = (0..radix as u8)
            .map(|p| match topo.endpoint(id, Port(p)) {
                Some(Endpoint::Router { router, port }) => PortPeer::Router(router, port),
                Some(Endpoint::Node(n)) => PortPeer::Node(n),
                None => PortPeer::Unconnected,
            })
            .collect();
        let credits = peers
            .iter()
            .flat_map(|peer| {
                let c = match peer {
                    PortPeer::Router(..) => buffer_packets,
                    _ => 0,
                };
                std::iter::repeat_n(c, nvcs)
            })
            .collect();
        Self {
            id,
            radix,
            nvcs,
            inputs: (0..radix * nvcs).map(|_| InputVc::default()).collect(),
            credits,
            peers,
            busy_until: vec![0; radix],
            waiting_link: (0..radix).map(|_| VecDeque::new()).collect(),
            waiting_credit: (0..radix * nvcs).map(|_| VecDeque::new()).collect(),
            qtable,
            rng,
        }
    }

    #[inline]
    fn pv(&self, port: Port, vc: u8) -> usize {
        port.idx() * self.nvcs + vc as usize
    }

    /// Input buffer of `(port, vc)`.
    #[inline]
    pub fn input(&mut self, port: Port, vc: u8) -> &mut InputVc {
        let i = self.pv(port, vc);
        &mut self.inputs[i]
    }

    /// Peer of a port.
    #[inline]
    pub fn peer(&self, port: Port) -> PortPeer {
        self.peers[port.idx()]
    }

    /// Whether the port faces a compute node.
    #[inline]
    pub fn is_terminal(&self, port: Port) -> bool {
        matches!(self.peers[port.idx()], PortPeer::Node(_))
    }

    /// Remaining credits for `(port, vc)`.
    #[inline]
    pub fn credits(&self, port: Port, vc: u8) -> u32 {
        self.credits[self.pv(port, vc)]
    }

    /// Consume one credit.
    #[inline]
    pub fn take_credit(&mut self, port: Port, vc: u8) {
        let i = self.pv(port, vc);
        debug_assert!(self.credits[i] > 0, "credit underflow on {port}/vc{vc}");
        self.credits[i] -= 1;
    }

    /// Return one credit.
    #[inline]
    pub fn return_credit(&mut self, port: Port, vc: u8, cap: u32) {
        let i = self.pv(port, vc);
        self.credits[i] += 1;
        debug_assert!(self.credits[i] <= cap, "credit overflow on {port}/vc{vc}");
    }

    /// Output-link busy horizon.
    #[inline]
    pub fn busy_until(&self, port: Port) -> Time {
        self.busy_until[port.idx()]
    }

    /// Occupy the output link until `until`.
    #[inline]
    pub fn set_busy(&mut self, port: Port, until: Time) {
        self.busy_until[port.idx()] = until;
    }

    /// Register an input whose head waits for the output link of `port`.
    #[inline]
    pub fn wait_for_link(&mut self, out: Port, input: (Port, u8)) {
        self.waiting_link[out.idx()].push_back(input);
    }

    /// Register an input whose head waits for a credit of `(port, vc)`.
    #[inline]
    pub fn wait_for_credit(&mut self, out: Port, vc: u8, input: (Port, u8)) {
        let i = self.pv(out, vc);
        self.waiting_credit[i].push_back(input);
    }

    /// Pop the next input waiting for `out`'s link.
    #[inline]
    pub fn pop_link_waiter(&mut self, out: Port) -> Option<(Port, u8)> {
        self.waiting_link[out.idx()].pop_front()
    }

    /// Pop the next input waiting for a credit of `(out, vc)`.
    #[inline]
    pub fn pop_credit_waiter(&mut self, out: Port, vc: u8) -> Option<(Port, u8)> {
        let i = self.pv(out, vc);
        self.waiting_credit[i].pop_front()
    }

    /// Congestion estimate of an output port in *packets*: downstream buffer
    /// occupancy (consumed credits across VCs) plus the residual link busy
    /// time, normalized by one packet serialization. This is the queue-
    /// occupancy signal adaptive routing compares (paper §II-B).
    pub fn congestion_packets(
        &self,
        port: Port,
        now: Time,
        buffer_packets: u32,
        packet_ser: Time,
    ) -> u64 {
        let mut used: u64 = 0;
        if let PortPeer::Router(..) = self.peers[port.idx()] {
            for vc in 0..self.nvcs {
                used += (buffer_packets - self.credits[port.idx() * self.nvcs + vc]) as u64;
            }
        }
        let residual = self.busy_until[port.idx()].saturating_sub(now);
        used + residual.div_ceil(packet_ser.max(1))
    }

    /// Number of ports.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// VCs per port.
    pub fn nvcs(&self) -> usize {
        self.nvcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_topology::DragonflyParams;

    fn mk() -> (Topology, Router) {
        let topo = Topology::new(DragonflyParams::tiny_72()).unwrap();
        let r = Router::new(&topo, RouterId(0), 6, 30, None, SimRng::new(1));
        (topo, r)
    }

    #[test]
    fn peers_match_topology() {
        let (topo, r) = mk();
        assert!(matches!(r.peer(Port(0)), PortPeer::Node(n) if n == NodeId(0)));
        assert!(r.is_terminal(Port(0)));
        // First local port (p=2 for tiny): faces router 1.
        match r.peer(Port(2)) {
            PortPeer::Router(peer, back) => {
                assert_eq!(peer, RouterId(1));
                assert_eq!(topo.local_port(RouterId(1), RouterId(0)), Some(back));
            }
            other => panic!("expected router peer, got {other:?}"),
        }
    }

    #[test]
    fn credits_track_take_and_return() {
        let (_, mut r) = mk();
        let p = Port(2);
        assert_eq!(r.credits(p, 0), 30);
        r.take_credit(p, 0);
        assert_eq!(r.credits(p, 0), 29);
        r.return_credit(p, 0, 30);
        assert_eq!(r.credits(p, 0), 30);
        // Terminal ports carry no credits.
        assert_eq!(r.credits(Port(0), 0), 0);
    }

    #[test]
    fn congestion_counts_consumed_credits_and_busy_residue() {
        let (_, mut r) = mk();
        let p = Port(2);
        assert_eq!(r.congestion_packets(p, 0, 30, 20_480), 0);
        r.take_credit(p, 0);
        r.take_credit(p, 1);
        assert_eq!(r.congestion_packets(p, 0, 30, 20_480), 2);
        r.set_busy(p, 40_960);
        assert_eq!(r.congestion_packets(p, 0, 30, 20_480), 4);
        assert_eq!(r.congestion_packets(p, 40_000, 30, 20_480), 3);
    }

    #[test]
    fn waiting_lists_are_fifo() {
        let (_, mut r) = mk();
        r.wait_for_link(Port(2), (Port(0), 0));
        r.wait_for_link(Port(2), (Port(1), 0));
        assert_eq!(r.pop_link_waiter(Port(2)), Some((Port(0), 0)));
        assert_eq!(r.pop_link_waiter(Port(2)), Some((Port(1), 0)));
        assert_eq!(r.pop_link_waiter(Port(2)), None);

        r.wait_for_credit(Port(3), 2, (Port(0), 1));
        assert_eq!(r.pop_credit_waiter(Port(3), 2), Some((Port(0), 1)));
        assert_eq!(r.pop_credit_waiter(Port(3), 2), None);
    }
}
