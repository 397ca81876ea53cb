//! Group-sharded partitioning support: the group→partition map, foreign
//! message-id tagging, and the compact wire codecs for events that cross a
//! partition boundary.
//!
//! The partitioned engine shards the dragonfly **by group**: partition `p`
//! of `P` owns the contiguous group range whose elements satisfy
//! `g * P / G == p`. Only three event kinds can cross a partition boundary —
//! [`NetEvent::PacketArrive`], [`NetEvent::Credit`] and
//! [`NetEvent::QFeedback`] — because they are the only events scheduled onto
//! a *peer* router, and inter-group traffic rides global links whose
//! propagation delay (`LinkTiming::global_latency_ps`) is the conservative
//! lookahead. Everything else (NIC pumps, node credits, deliveries, message
//! completions, MPI compute) is scheduled onto components of the same group
//! and therefore stays shard-local.
//!
//! Message ids are slab indices local to the allocating shard. When a packet
//! is exported, its message id is tagged with [`FOREIGN_BIT`] and the origin
//! shard so that the receiving shard resolves it against its imported-message
//! table instead of its own slab; a tagged id travelling back into its origin
//! shard (e.g. a Valiant detour) is untagged on import.

use dfsim_des::{Time, WireReader, WireWriter};
use dfsim_topology::paths::{PathPlan, RouteProgress};
use dfsim_topology::{GroupId, NodeId, Port, RouterId};

use crate::events::NetEvent;
use crate::packet::{MessageId, Packet, RouteState};

/// High bit marking a message id as foreign (owned by another partition).
pub const FOREIGN_BIT: u64 = 1 << 63;
/// Shift of the origin-partition field inside a tagged message id.
pub const ORIGIN_SHIFT: u32 = 48;
/// Mask of the slab-index field inside a tagged message id.
pub const IDX_MASK: u64 = (1 << ORIGIN_SHIFT) - 1;

/// Tag `idx` as owned by partition `origin`.
#[inline]
pub fn tag_msg(origin: usize, idx: u64) -> u64 {
    debug_assert_eq!(idx & !IDX_MASK, 0, "message slab index overflows tag space");
    FOREIGN_BIT | ((origin as u64) << ORIGIN_SHIFT) | idx
}

/// Whether a raw message id carries a foreign tag.
#[inline]
pub fn is_tagged(raw: u64) -> bool {
    raw & FOREIGN_BIT != 0
}

/// Origin partition of a tagged message id.
#[inline]
pub fn origin_of(tagged: u64) -> usize {
    debug_assert!(is_tagged(tagged));
    ((tagged & !FOREIGN_BIT) >> ORIGIN_SHIFT) as usize
}

/// Static group→partition assignment for one run.
///
/// Holds only scalar topology parameters so it can be shared (`Arc`) across
/// worker threads without referencing the full [`crate::sim::NetworkSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    parts: usize,
    groups: u32,
    routers_per_group: u32,
    nodes_per_router: u32,
}

impl PartitionMap {
    /// Build the map for `parts` partitions over a dragonfly with `groups`
    /// groups of `routers_per_group` routers of `nodes_per_router` nodes.
    ///
    /// `parts` must be in `1..=groups`: a partition with no groups would
    /// idle-spin the barrier protocol for nothing.
    pub fn new(groups: u32, routers_per_group: u32, nodes_per_router: u32, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one partition");
        assert!(parts as u32 <= groups, "{parts} partitions exceed the {groups} dragonfly groups");
        Self { parts, groups, routers_per_group, nodes_per_router }
    }

    /// Number of partitions.
    #[inline]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Partition owning group `g` (balanced contiguous ranges).
    #[inline]
    pub fn part_of_group(&self, g: GroupId) -> usize {
        debug_assert!(g.0 < self.groups);
        (g.0 as u64 * self.parts as u64 / self.groups as u64) as usize
    }

    /// Partition owning router `r`.
    #[inline]
    pub fn part_of_router(&self, r: RouterId) -> usize {
        self.part_of_group(GroupId(r.0 / self.routers_per_group))
    }

    /// Partition owning node `n`.
    #[inline]
    pub fn part_of_node(&self, n: NodeId) -> usize {
        self.part_of_router(RouterId(n.0 / self.nodes_per_router))
    }

    /// Partition that must execute `ev`, or `None` for event kinds that are
    /// only ever scheduled by their own executor (always local).
    #[inline]
    pub fn owner_of(&self, ev: &NetEvent) -> Option<usize> {
        match ev {
            NetEvent::NicPump { node }
            | NetEvent::NodeCredit { node }
            | NetEvent::DeliverPacket { node, .. } => Some(self.part_of_node(*node)),
            NetEvent::PacketArrive { router, .. }
            | NetEvent::OutputFree { router, .. }
            | NetEvent::Credit { router, .. }
            | NetEvent::QFeedback { router, .. } => Some(self.part_of_router(*router)),
            NetEvent::LocalDeliver { .. } | NetEvent::SendDone { .. } => None,
        }
    }

    /// Groups owned by partition `p`.
    pub fn groups_of(&self, p: usize) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.groups).map(GroupId).filter(move |g| self.part_of_group(*g) == p)
    }

    /// Routers owned by partition `p`.
    pub fn routers_of(&self, p: usize) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.groups * self.routers_per_group)
            .map(RouterId)
            .filter(move |r| self.part_of_router(*r) == p)
    }
}

/// One journaled Q-table update: the pre-update cell value tagged with the
/// `(time, seq)` key of the event that caused it. The partitioned driver
/// rolls back entries whose key lies past the logical end of the run so
/// warm-start snapshots stay bit-identical to the sequential engine.
#[derive(Debug, Clone, Copy)]
pub struct QUndoEntry {
    /// Time of the dispatching event.
    pub time: Time,
    /// Sequence number of the dispatching event (provisional during a
    /// window; the driver renumbers it at the barrier).
    pub seq: u64,
    /// Router whose table was updated.
    pub router: RouterId,
    /// `true` for a level-2 (intra-group) cell, `false` for level 1.
    pub level2: bool,
    /// Level-1: destination group index. Level-2: destination local index.
    pub index: u32,
    /// Output port of the updated cell.
    pub port: Port,
    /// Cell value before the update.
    pub old: f64,
}

/// A message whose packets will cross a partition boundary: the destination
/// shard must pre-register the expected packet count before any of them can
/// be delivered there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgExport {
    /// The tagged message id under which the destination shard tracks it.
    pub msg: u64,
    /// Total packets of the message.
    pub expected: u32,
    /// Destination node (identifies the owning shard).
    pub dst: NodeId,
}

// ---------------------------------------------------------------------------
// Wire codecs. Fixed-width little-endian; internal same-build protocol, so
// panicking on a malformed frame is the correct failure mode.
// ---------------------------------------------------------------------------

const STATE_FRESH: u8 = 0;
const STATE_PLANNED: u8 = 1;
const STATE_QDECIDING: u8 = 2;

const PLAN_MINIMAL: u8 = 0;
const PLAN_VIA_GROUP: u8 = 1;
const PLAN_VIA_ROUTER: u8 = 2;

const NO_CACHED_PORT: u8 = u8::MAX;

const EV_PACKET_ARRIVE: u8 = 0;
const EV_CREDIT: u8 = 1;
const EV_QFEEDBACK: u8 = 2;

/// Encode one packet.
pub fn encode_packet(w: &mut WireWriter, p: &Packet) {
    w.u64(p.id);
    w.u64(p.msg.0);
    w.u16(p.app.0);
    w.u32(p.src.0);
    w.u32(p.dst.0);
    w.u32(p.bytes);
    w.u64(p.injected_at);
    w.u64(p.arrived_at_hop);
    w.u8(p.hops);
    match p.state {
        RouteState::Fresh => w.u8(STATE_FRESH),
        RouteState::Planned { progress, revisable } => {
            w.u8(STATE_PLANNED);
            match progress.plan {
                PathPlan::Minimal => w.u8(PLAN_MINIMAL),
                PathPlan::NonMinimalGroup { via } => {
                    w.u8(PLAN_VIA_GROUP);
                    w.u32(via.0);
                }
                PathPlan::NonMinimalRouter { via } => {
                    w.u8(PLAN_VIA_ROUTER);
                    w.u32(via.0);
                }
            }
            w.u8(progress.via_done as u8);
            w.u8(revisable as u8);
        }
        RouteState::QDeciding { local_hops } => {
            w.u8(STATE_QDECIDING);
            w.u8(local_hops);
        }
    }
    w.u8(p.cached_port.map_or(NO_CACHED_PORT, |q| q.0));
}

/// Decode one packet.
pub fn decode_packet(r: &mut WireReader<'_>) -> Packet {
    let id = r.u64();
    let msg = MessageId(r.u64());
    let app = dfsim_metrics::AppId(r.u16());
    let src = NodeId(r.u32());
    let dst = NodeId(r.u32());
    let bytes = r.u32();
    let injected_at = r.u64();
    let arrived_at_hop = r.u64();
    let hops = r.u8();
    let state = match r.u8() {
        STATE_FRESH => RouteState::Fresh,
        STATE_PLANNED => {
            let plan = match r.u8() {
                PLAN_MINIMAL => PathPlan::Minimal,
                PLAN_VIA_GROUP => PathPlan::NonMinimalGroup { via: GroupId(r.u32()) },
                PLAN_VIA_ROUTER => PathPlan::NonMinimalRouter { via: RouterId(r.u32()) },
                #[expect(
                    clippy::panic,
                    reason = "boundary frames travel the trusted intra-run wire between sibling partitions; a bad tag is a protocol bug, not external input, and must stop the run"
                )]
                t => panic!("corrupt boundary frame: plan tag {t}"),
            };
            let via_done = r.u8() != 0;
            let revisable = r.u8() != 0;
            RouteState::Planned { progress: RouteProgress { plan, via_done }, revisable }
        }
        STATE_QDECIDING => RouteState::QDeciding { local_hops: r.u8() },
        #[expect(
            clippy::panic,
            reason = "same trusted intra-run wire as above: a bad route-state tag means an encode/decode skew bug, which must stop the run"
        )]
        t => panic!("corrupt boundary frame: route-state tag {t}"),
    };
    let cached_port = match r.u8() {
        NO_CACHED_PORT => None,
        q => Some(Port(q)),
    };
    Packet { id, msg, app, src, dst, bytes, injected_at, arrived_at_hop, hops, state, cached_port }
}

/// Encode one boundary event with its timestamp and a caller-chosen 64-bit
/// key slot (the partitioned driver stores the origin push-log index there
/// and resolves it to the final sequence number at the barrier).
///
/// Panics on event kinds that never cross a partition boundary.
pub fn encode_event(w: &mut WireWriter, time: Time, key: u64, ev: &NetEvent) {
    w.u64(time);
    w.u64(key);
    match ev {
        NetEvent::PacketArrive { router, port, vc, packet } => {
            w.u8(EV_PACKET_ARRIVE);
            w.u32(router.0);
            w.u8(port.0);
            w.u8(*vc);
            encode_packet(w, packet);
        }
        NetEvent::Credit { router, port, vc } => {
            w.u8(EV_CREDIT);
            w.u32(router.0);
            w.u8(port.0);
            w.u8(*vc);
        }
        NetEvent::QFeedback { router, port, dst_group, dst_local, sample } => {
            w.u8(EV_QFEEDBACK);
            w.u32(router.0);
            w.u8(port.0);
            w.u32(dst_group.0);
            w.u32(*dst_local);
            w.u64(*sample);
        }
        #[expect(
            clippy::panic,
            reason = "the group-sharded partitioner only exports the event kinds encoded above (pinned by the partition-equivalence suite); anything else is a partitioning bug"
        )]
        other => panic!("event kind never crosses partitions: {other:?}"),
    }
}

/// Decode one boundary event; returns `(time, key, event)`.
pub fn decode_event(r: &mut WireReader<'_>) -> (Time, u64, NetEvent) {
    let time = r.u64();
    let key = r.u64();
    let ev = match r.u8() {
        EV_PACKET_ARRIVE => {
            let router = RouterId(r.u32());
            let port = Port(r.u8());
            let vc = r.u8();
            let packet = decode_packet(r);
            NetEvent::PacketArrive { router, port, vc, packet }
        }
        EV_CREDIT => NetEvent::Credit { router: RouterId(r.u32()), port: Port(r.u8()), vc: r.u8() },
        EV_QFEEDBACK => NetEvent::QFeedback {
            router: RouterId(r.u32()),
            port: Port(r.u8()),
            dst_group: GroupId(r.u32()),
            dst_local: r.u32(),
            sample: r.u64(),
        },
        #[expect(
            clippy::panic,
            reason = "trusted intra-run wire protocol; a bad event tag is a protocol bug that must stop the run rather than corrupt the replay"
        )]
        t => panic!("corrupt boundary frame: event tag {t}"),
    };
    (time, key, ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_metrics::AppId;

    fn sample_packet(state: RouteState, cached: Option<Port>) -> Packet {
        Packet {
            id: 901,
            msg: MessageId(tag_msg(3, 17)),
            app: AppId(2),
            src: NodeId(5),
            dst: NodeId(61),
            bytes: 512,
            injected_at: 1_234_567,
            arrived_at_hop: 2_000_001,
            hops: 3,
            state,
            cached_port: cached,
        }
    }

    #[test]
    fn balanced_contiguous_group_assignment() {
        // tiny_72: 9 groups over 2 partitions → 5 + 4 split, contiguous.
        let m = PartitionMap::new(9, 4, 2, 2);
        let owners: Vec<usize> = (0..9).map(|g| m.part_of_group(GroupId(g))).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(m.groups_of(0).count(), 5);
        assert_eq!(m.groups_of(1).count(), 4);
        // Router/node owners agree with their group's owner.
        assert_eq!(m.part_of_router(RouterId(19)), 0); // group 4
        assert_eq!(m.part_of_router(RouterId(20)), 1); // group 5
        assert_eq!(m.part_of_node(NodeId(39)), 0); // router 19
        assert_eq!(m.part_of_node(NodeId(40)), 1); // router 20
    }

    #[test]
    fn every_group_assignment_is_monotone_and_covers_all_parts() {
        for parts in 1..=9 {
            let m = PartitionMap::new(9, 4, 2, parts);
            let owners: Vec<usize> = (0..9).map(|g| m.part_of_group(GroupId(g))).collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
            assert_eq!(owners[8] + 1, parts, "last group must land in the last partition");
            for p in 0..parts {
                assert!(owners.contains(&p), "partition {p} owns no group: {owners:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn more_partitions_than_groups_is_rejected() {
        PartitionMap::new(9, 4, 2, 10);
    }

    #[test]
    fn owner_routes_by_component_kind() {
        let m = PartitionMap::new(9, 4, 2, 3);
        let pk = sample_packet(RouteState::Fresh, None);
        assert_eq!(m.owner_of(&NetEvent::NicPump { node: NodeId(0) }), Some(0));
        assert_eq!(
            m.owner_of(&NetEvent::PacketArrive {
                router: RouterId(35),
                port: Port(1),
                vc: 0,
                packet: pk,
            }),
            Some(2)
        );
        assert_eq!(
            m.owner_of(&NetEvent::Credit { router: RouterId(12), port: Port(0), vc: 1 }),
            Some(1)
        );
        assert_eq!(m.owner_of(&NetEvent::LocalDeliver { msg: MessageId(0) }), None);
        assert_eq!(m.owner_of(&NetEvent::SendDone { msg: MessageId(0) }), None);
    }

    #[test]
    fn message_tagging_round_trips() {
        let t = tag_msg(5, 123);
        assert!(is_tagged(t));
        assert_eq!(origin_of(t), 5);
        assert_eq!(t & IDX_MASK, 123);
        assert!(!is_tagged(123));
    }

    #[test]
    fn packet_codec_round_trips_every_route_state() {
        let states = [
            RouteState::Fresh,
            RouteState::Planned {
                progress: RouteProgress { plan: PathPlan::Minimal, via_done: false },
                revisable: true,
            },
            RouteState::Planned {
                progress: RouteProgress {
                    plan: PathPlan::NonMinimalGroup { via: GroupId(7) },
                    via_done: true,
                },
                revisable: false,
            },
            RouteState::Planned {
                progress: RouteProgress {
                    plan: PathPlan::NonMinimalRouter { via: RouterId(31) },
                    via_done: false,
                },
                revisable: false,
            },
            RouteState::QDeciding { local_hops: 2 },
        ];
        for (i, state) in states.into_iter().enumerate() {
            let cached = if i % 2 == 0 { None } else { Some(Port(i as u8)) };
            let p = sample_packet(state, cached);
            let mut w = WireWriter::new();
            encode_packet(&mut w, &p);
            let frame = w.into_frame();
            let mut r = WireReader::new(&frame);
            let q = decode_packet(&mut r);
            assert!(r.is_empty());
            assert_eq!(q.id, p.id);
            assert_eq!(q.msg, p.msg);
            assert_eq!(q.app, p.app);
            assert_eq!(q.src, p.src);
            assert_eq!(q.dst, p.dst);
            assert_eq!(q.bytes, p.bytes);
            assert_eq!(q.injected_at, p.injected_at);
            assert_eq!(q.arrived_at_hop, p.arrived_at_hop);
            assert_eq!(q.hops, p.hops);
            assert_eq!(q.state, p.state);
            assert_eq!(q.cached_port, p.cached_port);
        }
    }

    #[test]
    fn boundary_event_codec_round_trips_all_three_kinds() {
        let events = [
            NetEvent::PacketArrive {
                router: RouterId(20),
                port: Port(3),
                vc: 2,
                packet: sample_packet(RouteState::QDeciding { local_hops: 1 }, Some(Port(6))),
            },
            NetEvent::Credit { router: RouterId(1), port: Port(7), vc: 6 },
            NetEvent::QFeedback {
                router: RouterId(8),
                port: Port(5),
                dst_group: GroupId(4),
                dst_local: 3,
                sample: 987_654_321,
            },
        ];
        let mut w = WireWriter::new();
        for (i, ev) in events.iter().enumerate() {
            encode_event(&mut w, 1_000 + i as Time, 42 + i as u64, ev);
        }
        let frame = w.into_frame();
        let mut r = WireReader::new(&frame);
        for (i, ev) in events.iter().enumerate() {
            let (t, key, got) = decode_event(&mut r);
            assert_eq!(t, 1_000 + i as Time);
            assert_eq!(key, 42 + i as u64);
            match (&got, ev) {
                (
                    NetEvent::PacketArrive { router: ra, port: pa, vc: va, packet: ka },
                    NetEvent::PacketArrive { router: rb, port: pb, vc: vb, packet: kb },
                ) => {
                    assert_eq!((ra, pa, va), (rb, pb, vb));
                    assert_eq!(ka.id, kb.id);
                    assert_eq!(ka.state, kb.state);
                }
                (
                    NetEvent::Credit { router: ra, port: pa, vc: va },
                    NetEvent::Credit { router: rb, port: pb, vc: vb },
                ) => assert_eq!((ra, pa, va), (rb, pb, vb)),
                (
                    NetEvent::QFeedback {
                        router: ra,
                        port: pa,
                        dst_group: ga,
                        dst_local: la,
                        sample: sa,
                    },
                    NetEvent::QFeedback {
                        router: rb,
                        port: pb,
                        dst_group: gb,
                        dst_local: lb,
                        sample: sb,
                    },
                ) => assert_eq!((ra, pa, ga, la, sa), (rb, pb, gb, lb, sb)),
                _ => panic!("event kind changed in round trip"),
            }
        }
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "never crosses")]
    fn encoding_a_local_only_event_panics() {
        let mut w = WireWriter::new();
        encode_event(&mut w, 0, 0, &NetEvent::SendDone { msg: MessageId(0) });
    }
}
