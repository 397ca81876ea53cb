//! The two-level Q-table of Q-adaptive routing (paper §II-B, Fig 2; Kang et
//! al., HPDC'21 \[14\]).
//!
//! Each router keeps estimated *delivery times*:
//!
//! * **Level 1** — `q1[dst_group][output port]`: estimated remaining time to
//!   deliver a packet addressed to `dst_group` if it leaves through that
//!   port. This is the inter-group table routers use for min/non-min
//!   decisions.
//! * **Level 2** — `q2[dst_local_router][output port]`: the intra-group
//!   table used once a packet is inside its destination group. With one
//!   local link per router pair this level has no routing choice left, but
//!   it still learns accurate per-hop delivery estimates, which sharpens the
//!   feedback values propagated to level 1.
//!
//! Tables start from *static topology-derived estimates* (pure hop latency,
//! zero queueing — i.e. no traffic knowledge), matching the paper's setup
//! where Q-adaptive "starts an application under the same condition as
//! adaptive routing without any pre-trained information" and training time
//! is charged to the measured communication time. Updates are exponentially
//! weighted: `q ← (1−α)·q + α·sample`.

use dfsim_des::Time;
use dfsim_topology::{Endpoint, GroupId, LinkKind, Port, RouterId, Topology};

use dfsim_topology::LinkTiming;

/// Per-router two-level Q-table.
#[derive(Debug, Clone)]
pub struct QTable {
    radix: usize,
    groups: usize,
    /// Level 1: `[group * radix + port]`, estimated delivery ps. `INFINITY`
    /// marks illegal ports (terminals, disconnected globals).
    q1: Vec<f64>,
    /// Level 2: `[local_router_idx * radix + port]`.
    q2: Vec<f64>,
    /// Learning rate.
    alpha: f64,
}

impl QTable {
    /// Build the table for `router`, initialized with static estimates.
    pub fn new(topo: &Topology, router: RouterId, timing: &LinkTiming, alpha: f64) -> Self {
        let radix = topo.radix() as usize;
        let groups = topo.num_groups() as usize;
        let a = topo.params().routers_per_group as usize;
        let mut q1 = vec![f64::INFINITY; groups * radix];
        let mut q2 = vec![f64::INFINITY; a * radix];

        let ser = timing.packet_serialize() as f64;
        let local = ser + timing.local_latency_ps as f64;
        let global = ser + timing.global_latency_ps as f64;
        let term = ser + timing.terminal_latency_ps as f64;
        let my_group = topo.group_of_router(router);

        for p in 0..radix as u8 {
            let port = Port(p);
            let Some(Endpoint::Router { router: next, .. }) = topo.endpoint(router, port) else {
                continue; // terminal or disconnected: stays INFINITY
            };
            let hop_cost = match topo.port_kind(port) {
                LinkKind::Local => local,
                LinkKind::Global => global,
                #[expect(
                    clippy::unreachable,
                    reason = "the `let else` above already skipped every port whose endpoint is not a router, and terminal ports never lead to routers"
                )]
                LinkKind::Terminal => unreachable!("router endpoint on terminal port"),
            };
            let next_group = topo.group_of_router(next);
            for g in 0..groups as u32 {
                let dst_group = GroupId(g);
                // Remaining minimal cost from `next` to somewhere in dst_group
                // plus the final terminal leg (average case: one local hop
                // inside the destination group).
                let remaining = if next_group == dst_group {
                    local + term
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "a canonical dragonfly is all-to-all at the group level: every distinct group pair has exactly one gateway (pinned by the topology suite)"
                    )]
                    let (gw, _) = topo
                        .gateway(next_group, dst_group)
                        .expect("distinct groups have a gateway");
                    let to_gw = if gw == next { 0.0 } else { local };
                    to_gw + global + local + term
                };
                q1[g as usize * radix + p as usize] = hop_cost + remaining;
            }
            // Level 2: same-group targets, local ports only.
            if next_group == my_group {
                for l in 0..a {
                    let target = topo.router_in_group(my_group, l as u32);
                    let rem = if next == target { term } else { local + term };
                    q2[l * radix + p as usize] = hop_cost + rem;
                }
            }
        }
        Self { radix, groups, q1, q2, alpha }
    }

    /// Level-1 value: estimated delivery time to `dst_group` via `port`.
    #[inline]
    pub fn q1(&self, dst_group: GroupId, port: Port) -> f64 {
        self.q1[dst_group.idx() * self.radix + port.idx()]
    }

    /// Level-2 value: estimated delivery time to the same-group router with
    /// local index `dst_local` via `port`.
    #[inline]
    pub fn q2(&self, dst_local: u32, port: Port) -> f64 {
        self.q2[dst_local as usize * self.radix + port.idx()]
    }

    /// EWMA update of the level-1 entry.
    #[inline]
    pub fn update1(&mut self, dst_group: GroupId, port: Port, sample: Time) {
        let q = &mut self.q1[dst_group.idx() * self.radix + port.idx()];
        if q.is_finite() {
            *q = (1.0 - self.alpha) * *q + self.alpha * sample as f64;
        } else {
            *q = sample as f64;
        }
    }

    /// EWMA update of the level-2 entry.
    #[inline]
    pub fn update2(&mut self, dst_local: u32, port: Port, sample: Time) {
        let q = &mut self.q2[dst_local as usize * self.radix + port.idx()];
        if q.is_finite() {
            *q = (1.0 - self.alpha) * *q + self.alpha * sample as f64;
        } else {
            *q = sample as f64;
        }
    }

    /// Minimum level-1 value over all legal ports — the router's own
    /// remaining-delivery estimate for `dst_group`, fed back to neighbours.
    pub fn best1(&self, dst_group: GroupId) -> f64 {
        let base = dst_group.idx() * self.radix;
        self.q1[base..base + self.radix].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Minimum level-2 value over all ports for a same-group destination.
    pub fn best2(&self, dst_local: u32) -> f64 {
        let base = dst_local as usize * self.radix;
        self.q2[base..base + self.radix].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Number of groups covered.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The learning rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Rebuild a table from raw level-1/level-2 value arrays (snapshot
    /// warm-start). Lengths must match the `[groups * radix]` /
    /// `[a * radix]` layouts the snapshot recorded.
    pub(crate) fn from_raw(
        radix: usize,
        groups: usize,
        q1: Vec<f64>,
        q2: Vec<f64>,
        alpha: f64,
    ) -> Self {
        debug_assert_eq!(q1.len(), groups * radix, "q1 layout mismatch");
        debug_assert!(q2.len().is_multiple_of(radix.max(1)), "q2 layout mismatch");
        Self { radix, groups, q1, q2, alpha }
    }

    /// Raw level-1 values, `[dst_group * radix + port]` (snapshot capture).
    pub(crate) fn q1_raw(&self) -> &[f64] {
        &self.q1
    }

    /// Overwrite one level-1 cell (partitioned-run rollback of updates that
    /// landed after the logical end of the run).
    pub(crate) fn set1_raw(&mut self, dst_group: GroupId, port: Port, v: f64) {
        self.q1[dst_group.idx() * self.radix + port.idx()] = v;
    }

    /// Overwrite one level-2 cell (partitioned-run rollback).
    pub(crate) fn set2_raw(&mut self, dst_local: u32, port: Port, v: f64) {
        self.q2[dst_local as usize * self.radix + port.idx()] = v;
    }

    /// Raw level-2 values, `[local_router * radix + port]` (snapshot capture).
    pub(crate) fn q2_raw(&self) -> &[f64] {
        &self.q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_topology::DragonflyParams;

    fn setup() -> (Topology, QTable) {
        let topo = Topology::new(DragonflyParams::paper_1056()).unwrap();
        let t = QTable::new(&topo, RouterId(0), &LinkTiming::default(), 0.1);
        (topo, t)
    }

    #[test]
    fn init_prefers_direct_global_port() {
        let (topo, t) = setup();
        // Router 0's global ports (11..15) reach groups 1..=4 directly.
        let direct = topo.global_port_target(RouterId(0), Port(11)).unwrap();
        let q_direct = t.q1(direct, Port(11));
        // Any local port adds at least one hop for that group.
        for p in 4..11u8 {
            assert!(
                t.q1(direct, Port(p)) > q_direct,
                "local port {p} should be slower than direct global"
            );
        }
        // Terminal ports are illegal.
        assert!(t.q1(direct, Port(0)).is_infinite());
    }

    #[test]
    fn init_estimates_are_positive_and_finite_for_router_ports() {
        let (_, t) = setup();
        for g in 0..33u32 {
            if g == 0 {
                continue; // own group handled by level 2
            }
            for p in 4..15u8 {
                let v = t.q1(GroupId(g), Port(p));
                assert!(v.is_finite() && v > 0.0, "q1[{g}][{p}] = {v}");
            }
        }
    }

    #[test]
    fn update_moves_towards_sample() {
        let (_, mut t) = setup();
        let g = GroupId(5);
        let p = Port(12);
        let before = t.q1(g, p);
        let sample = (before * 3.0) as Time;
        t.update1(g, p, sample);
        let after = t.q1(g, p);
        assert!(after > before && after < sample as f64);
        // EWMA with alpha = 0.1.
        assert!((after - (0.9 * before + 0.1 * sample as f64)).abs() < 1e-6);
    }

    #[test]
    fn best1_is_min_over_ports() {
        let (_, mut t) = setup();
        let g = GroupId(7);
        let best_before = t.best1(g);
        // Repeated near-zero samples converge the entry below the old best.
        for _ in 0..200 {
            t.update1(g, Port(13), 1);
        }
        assert!(t.best1(g) < best_before);
    }

    #[test]
    fn level2_local_ports_finite_globals_infinite() {
        let (topo, t) = setup();
        // Level 2 towards local router 3: local port finite, global infinite.
        let lp = topo.local_port(RouterId(0), RouterId(3)).unwrap();
        assert!(t.q2(3, lp).is_finite());
        assert!(t.q2(3, Port(11)).is_infinite());
        assert!(t.best2(3).is_finite());
    }
}
