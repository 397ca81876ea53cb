//! [`NetworkSim`]: the event-driven network model.
//!
//! The world loop (in `dfsim-core`) pops events and calls [`NetworkSim::handle`];
//! the network schedules its own follow-up events through the [`Scheduler`]
//! and surfaces transport-level effects (message injected / delivered) that
//! the MPI layer consumes. See the crate docs for the router model.

use std::collections::BTreeMap;
use std::sync::Arc;

use dfsim_des::{Scheduler, Time};
use dfsim_metrics::{AppId, Recorder};
use dfsim_topology::{GroupId, LinkKind, LinkTiming, NodeId, Port, RouterId, Topology};

use crate::events::{NetEffect, NetEvent};
use crate::nic::Nic;
use crate::packet::{MessageId, Packet, PacketSizes, RouteState};
use crate::partition::{self, MsgExport, PartitionMap, QUndoEntry};
use crate::qtable::QTable;
use crate::router::{PortPeer, Router};
use crate::routing::{self, RoutingAlgo, RoutingConfig};
use crate::snapshot::{QTableInit, QTableSnapshot};
use crate::NUM_VCS;

/// Minimum payload of a pure-control packet (rendezvous RTS/CTS, zero-byte
/// sends): half a flit of header.
pub const CONTROL_BYTES: u32 = 64;

/// Result of trying to service the head of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    Forwarded,
    Blocked,
    Empty,
}

/// Per-message delivery bookkeeping. Slots live in a slab indexed by
/// [`MessageId`]; completed messages are released back to a free list (see
/// [`NetworkSim::release_message`]) so long churn runs recycle ids instead
/// of growing the arrays without bound.
#[derive(Debug, Clone, Copy)]
struct MsgInfo {
    expected: u32,
    received: u32,
    /// Slab liveness guard (debug assertions against use-after-release).
    live: bool,
}

/// Which shard of which partition map this network is, and the bookkeeping
/// of messages that cross its boundary. A one-partition map (every
/// [`NetworkSim::new`] network) owns every node, so nothing is ever
/// exported, imported or released through it.
#[derive(Debug)]
struct PartState {
    map: Arc<PartitionMap>,
    me: usize,
    /// Delivery bookkeeping for messages owned by other shards, keyed by
    /// their tagged id. Lookup-only (never iterated), so the hash map cannot
    /// introduce nondeterminism.
    imported: BTreeMap<u64, MsgInfo>,
    /// Messages created this window whose packets will cross a boundary;
    /// drained by the driver at the next barrier and registered on the
    /// destination shard.
    pending_exports: Vec<MsgExport>,
    /// Tagged ids fully delivered (and released) here this window; drained
    /// by the driver and routed back to the origin shard so it can free its
    /// slab slot.
    pending_releases: Vec<u64>,
}

/// The network simulation state: every router, every NIC, in-flight
/// accounting and the routing configuration.
#[derive(Debug)]
pub struct NetworkSim {
    topo: Arc<Topology>,
    timing: LinkTiming,
    cfg: RoutingConfig,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    /// Message slab (index = `MessageId`).
    msgs: Vec<MsgInfo>,
    /// Released slab slots awaiting reuse (LIFO, deterministic).
    free_msgs: Vec<u64>,
    next_packet_id: u64,
    in_flight: u64,
    flit_time: Time,
    /// This shard's place in the partition map.
    part: PartState,
    /// Undo journal for Q-table updates, tagged with the key of the event
    /// being dispatched: `Some` exactly when the map has more than one
    /// partition under Q-adaptive routing, so updates that land after the
    /// logical end of a run can be rolled back, keeping warm-start
    /// snapshots bit-identical to one partition's. The driver clears it at
    /// every barrier the run continues past, so it holds the current
    /// window's updates only.
    q_undo: Option<Vec<QUndoEntry>>,
    /// `(time, seq)` key of the event currently being dispatched (only
    /// maintained when `q_undo` is on).
    event_key: (Time, u64),
}

impl NetworkSim {
    /// Build the whole network for `topo` under a routing configuration,
    /// cold: one partition, and under Q-adaptive routing the static
    /// topology estimates. `rng` derives all per-router randomness. The
    /// topology is shared by reference counting — runners keep their own
    /// handle for reporting without deep-cloning the structure per run.
    pub fn new(
        topo: Arc<Topology>,
        timing: LinkTiming,
        cfg: RoutingConfig,
        rng: &dfsim_des::SimRng,
    ) -> Self {
        let p = topo.params();
        let map = PartitionMap::new(p.groups, p.routers_per_group, p.nodes_per_router, 1);
        Self::shard(topo, timing, cfg, rng, Arc::new(map), 0, None)
    }

    /// Build shard `me` of `map`: every router and NIC (the shard executes
    /// only the events of its own groups), with messages to other shards'
    /// nodes exported at barriers (see [`NetworkSim::take_msg_exports`]).
    /// The Q-undo journal is on exactly when `map` has more than one
    /// partition under Q-adaptive routing.
    ///
    /// Under Q-adaptive routing, `warm` replaces the static estimates with
    /// its tables. The caller has already checked it with
    /// [`QTableSnapshot::verify`] against `topo`, `timing` and `cfg.qa.alpha`,
    /// and `cfg.qtable_init` labels it ([`crate::QTableInit::Warm`] exactly
    /// when `warm` is given).
    pub fn shard(
        topo: Arc<Topology>,
        timing: LinkTiming,
        cfg: RoutingConfig,
        rng: &dfsim_des::SimRng,
        map: Arc<PartitionMap>,
        me: usize,
        warm: Option<&QTableSnapshot>,
    ) -> Self {
        assert!(me < map.parts(), "shard index out of range");
        debug_assert_eq!(
            warm.is_some(),
            cfg.qtable_init == QTableInit::Warm,
            "the warm-start label disagrees with the snapshot handed in"
        );
        debug_assert!(
            warm.is_none_or(|s| s.verify(topo.params(), &timing, cfg.qa.alpha).is_ok()),
            "unverified warm-start snapshot"
        );
        let qadaptive = cfg.algo == RoutingAlgo::QAdaptive;
        let routers = (0..topo.num_routers())
            .map(|r| {
                let id = RouterId(r);
                let qtable = qadaptive.then(|| match warm {
                    Some(snap) => snap.table_for(r as usize),
                    None => QTable::new(&topo, id, &timing, cfg.qa.alpha),
                });
                Router::new(
                    &topo,
                    id,
                    NUM_VCS,
                    timing.buffer_packets,
                    qtable,
                    rng.derive_idx("router", r as u64),
                )
            })
            .collect();
        let nics =
            (0..topo.num_nodes()).map(|n| Nic::new(NodeId(n), timing.buffer_packets)).collect();
        let flit_time = timing.serialize(timing.flit_bytes);
        let q_undo = (qadaptive && map.parts() > 1).then(Vec::new);
        Self {
            topo,
            timing,
            cfg,
            routers,
            nics,
            msgs: Vec::new(),
            free_msgs: Vec::new(),
            next_packet_id: 0,
            in_flight: 0,
            flit_time,
            part: PartState {
                map,
                me,
                imported: BTreeMap::new(),
                pending_exports: Vec::new(),
                pending_releases: Vec::new(),
            },
            q_undo,
            event_key: (0, 0),
        }
    }

    // ---- partitioning ------------------------------------------------------

    /// The partition map this network is a shard of.
    pub fn partition_map(&self) -> &Arc<PartitionMap> {
        &self.part.map
    }

    /// This network's shard index in [`NetworkSim::partition_map`].
    pub fn shard_index(&self) -> usize {
        self.part.me
    }

    /// The link timing the network runs on.
    pub fn timing(&self) -> &LinkTiming {
        &self.timing
    }

    /// Drain the export records of messages created since the last barrier
    /// whose packets will cross into another shard. The driver forwards each
    /// record (plus the matching MPI metadata) to the destination shard.
    pub fn take_msg_exports(&mut self) -> Vec<MsgExport> {
        std::mem::take(&mut self.part.pending_exports)
    }

    /// Drain the tagged ids of foreign messages fully delivered and released
    /// here since the last barrier. The driver routes each id back to its
    /// origin shard, which frees the slab slot via
    /// [`NetworkSim::release_exported_slot`].
    pub fn take_msg_releases(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.part.pending_releases)
    }

    /// Register a foreign message (owned by another shard) so its packets
    /// can be delivered here. Driven by the barrier exchange of
    /// [`MsgExport`] records.
    pub fn import_message(&mut self, tagged: u64, expected: u32) {
        let ps = &mut self.part;
        debug_assert!(partition::is_tagged(tagged), "importing an untagged message id");
        debug_assert_ne!(partition::origin_of(tagged), ps.me, "importing an owned message");
        let prev = ps.imported.insert(tagged, MsgInfo { expected, received: 0, live: true });
        debug_assert!(prev.is_none(), "duplicate message import");
    }

    /// Free the slab slot of a message this shard created whose packets were
    /// all delivered on a foreign shard (release notice from the barrier
    /// exchange).
    pub fn release_exported_slot(&mut self, tagged: u64) {
        debug_assert!(partition::is_tagged(tagged));
        debug_assert_eq!(
            self.part.me,
            partition::origin_of(tagged),
            "release notice routed to the wrong shard"
        );
        let idx = (tagged & partition::IDX_MASK) as usize;
        let info = &mut self.msgs[idx];
        debug_assert!(info.live, "double release of exported message {idx}");
        info.received = info.expected; // delivered remotely
        info.live = false;
        self.free_msgs.push(idx as u64);
    }

    /// Barrier hook: a buffered `PacketArrive` is leaving this shard. Drops
    /// it from the in-flight count and tags its message id with this shard.
    /// An untagged id is only meaningful in the slab of the shard that
    /// created the message, and a packet carrying one here necessarily
    /// belongs to this shard's slab — so *every* untagged departure gets
    /// tagged, including a packet detouring out towards an owned
    /// destination (it is untagged again on the way home, and intermediate
    /// shards never dereference it).
    pub fn on_packet_exported(&mut self, packet: &mut Packet) {
        debug_assert!(self.in_flight > 0, "exporting with nothing in flight");
        self.in_flight -= 1;
        if !partition::is_tagged(packet.msg.0) {
            packet.msg = MessageId(partition::tag_msg(self.part.me, packet.msg.0));
        }
    }

    /// Barrier hook: a boundary `PacketArrive` is entering this shard. Adds
    /// it to the in-flight count and untags the message id if this shard is
    /// the origin (a detoured packet coming home).
    pub fn on_packet_imported(&mut self, packet: &mut Packet) {
        self.in_flight += 1;
        if partition::is_tagged(packet.msg.0) && partition::origin_of(packet.msg.0) == self.part.me
        {
            packet.msg = MessageId(packet.msg.0 & partition::IDX_MASK);
        }
    }

    /// Copy the Q-tables of `routers` from another shard's network (report
    /// assembly: the snapshot is captured from one network holding every
    /// shard's learned tables).
    pub fn adopt_qtables_from(
        &mut self,
        other: &NetworkSim,
        routers: impl IntoIterator<Item = RouterId>,
    ) {
        for r in routers {
            self.routers[r.idx()].qtable = other.routers[r.idx()].qtable.clone();
        }
    }

    /// Mutable access to the undo journal, `None` unless on (see
    /// [`NetworkSim::shard`]). Each Q-table update is logged with the key
    /// set by [`NetworkSim::set_event_key`] and its pre-update value. The
    /// partitioned driver renumbers the entries' provisional keys at each
    /// barrier, then clears the journal (keeping its allocation) if the run
    /// continues, so only the final window's updates reach
    /// [`NetworkSim::q_undo_revert_after`].
    pub fn q_undo_entries_mut(&mut self) -> Option<&mut Vec<QUndoEntry>> {
        self.q_undo.as_mut()
    }

    /// Key of the event about to be dispatched (orders Q-undo entries).
    pub fn set_event_key(&mut self, time: Time, seq: u64) {
        self.event_key = (time, seq);
    }

    /// Roll back every journaled Q-table update with key strictly greater
    /// than `(time, seq)`, in reverse order. Used at the end of a
    /// partitioned run: shards pop to the window boundary, which may lie
    /// past the logical end of the run (the last rank-finish event), and
    /// only Q-table state is mutated by those extra dispatches. Returns the
    /// number of updates undone.
    pub fn q_undo_revert_after(&mut self, time: Time, seq: u64) -> usize {
        let entries = self.q_undo.take().unwrap_or_default();
        let mut undone = 0;
        for e in entries.iter().rev() {
            if (e.time, e.seq) > (time, seq) {
                undone += 1;
                #[expect(
                    clippy::expect_used,
                    reason = "undo entries are only recorded by Q-table updates, so the router they name necessarily carries a table"
                )]
                let qt = self.routers[e.router.idx()]
                    .qtable
                    .as_mut()
                    .expect("undo entry for a router without a Q-table");
                if e.level2 {
                    qt.set2_raw(e.index, e.port, e.old);
                } else {
                    qt.set1_raw(GroupId(e.index), e.port, e.old);
                }
            }
        }
        self.q_undo = Some(entries);
        undone
    }

    /// The topology this network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing configuration.
    pub fn routing(&self) -> &RoutingConfig {
        &self.cfg
    }

    /// Packets currently inside the network.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Whether all NIC send queues are drained and no packet is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.nics.iter().all(Nic::is_idle)
    }

    /// Read access to a router (tests, Q-table inspection).
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.idx()]
    }

    /// Snapshot every router's Q-table with this network's fingerprint
    /// (topology parameters, link timing, α). `None` unless the run uses
    /// Q-adaptive routing — only then do routers carry tables.
    pub fn qtable_snapshot(&self) -> Option<QTableSnapshot> {
        let tables: Option<Vec<&QTable>> = self.routers.iter().map(|r| r.qtable.as_ref()).collect();
        Some(QTableSnapshot::from_tables(
            *self.topo.params(),
            self.timing,
            self.cfg.qa.alpha,
            &tables?,
        ))
    }

    /// Release a fully delivered message's slab slot for reuse. The MPI
    /// layer calls this after consuming the `MessageDelivered` effect — the
    /// last reference to the id — so churn runs recycle message slots
    /// instead of growing the slab (and the MPI metadata table) forever.
    /// Callers that never release (network-only tests) just keep the old
    /// append-only behaviour.
    pub fn release_message(&mut self, msg: MessageId) {
        if partition::is_tagged(msg.0) {
            // Foreign message delivered here: drop the imported entry and
            // queue a release notice for the origin shard's slab.
            let ps = &mut self.part;
            #[expect(
                clippy::expect_used,
                reason = "the barrier imports every foreign message before any of its packets can arrive, so a release always finds its imported entry"
            )]
            let info = ps.imported.remove(&msg.0).expect("releasing an unknown imported message");
            debug_assert!(info.live, "double release of imported {msg}");
            debug_assert_eq!(info.received, info.expected, "releasing an undelivered {msg}");
            ps.pending_releases.push(msg.0);
            return;
        }
        let info = &mut self.msgs[msg.idx()];
        debug_assert!(info.live, "double release of {msg}");
        debug_assert_eq!(info.received, info.expected, "releasing an undelivered {msg}");
        info.live = false;
        self.free_msgs.push(msg.0);
    }

    /// Message slots currently allocated (live messages; slab occupancy).
    pub fn live_messages(&self) -> usize {
        self.msgs.len() - self.free_msgs.len()
    }

    /// Flit-rounded serialization time of a payload.
    #[inline]
    fn serialize_packet(&self, bytes: u32) -> Time {
        let flits = bytes.div_ceil(self.timing.flit_bytes).max(1) as u64;
        flits * self.flit_time
    }

    #[inline]
    fn prop_of(&self, kind: LinkKind) -> Time {
        match kind {
            LinkKind::Terminal => self.timing.terminal_latency_ps,
            LinkKind::Local => self.timing.local_latency_ps,
            LinkKind::Global => self.timing.global_latency_ps,
        }
    }

    // ---- transport API -----------------------------------------------------

    /// Enqueue a message for transmission; returns its id. The message is
    /// packetized and injected by the source NIC under credit back-pressure.
    /// Self-addressed messages (src == dst) bypass the network with a
    /// memory-copy latency.
    pub fn send_message(
        &mut self,
        sched: &mut impl Scheduler<NetEvent>,
        rec: &mut Recorder,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        app: AppId,
    ) -> MessageId {
        let expected = PacketSizes::count(bytes, self.timing.packet_bytes);
        let info = MsgInfo { expected, received: 0, live: true };
        let msg = match self.free_msgs.pop() {
            Some(i) => {
                debug_assert!(!self.msgs[i as usize].live, "free list holds a live slot");
                self.msgs[i as usize] = info;
                MessageId(i)
            }
            None => {
                self.msgs.push(info);
                MessageId(self.msgs.len() as u64 - 1)
            }
        };
        if src == dst {
            // Loop-back: model a memcpy at link bandwidth plus base latency.
            let copy = self.timing.serialize(bytes.min(u32::MAX as u64) as u32)
                + self.timing.terminal_latency_ps;
            sched.after(copy, NetEvent::LocalDeliver { msg });
            return msg;
        }
        let ps = &mut self.part;
        if ps.map.part_of_node(dst) != ps.me {
            // Packets of this message will cross a boundary: record the
            // export so the destination shard can pre-register delivery
            // bookkeeping at the next barrier (always before the first
            // packet can arrive there, thanks to the lookahead window).
            ps.pending_exports.push(MsgExport {
                msg: partition::tag_msg(ps.me, msg.0),
                expected,
                dst,
            });
        }
        self.nics[src.idx()].enqueue(msg, dst, app, bytes);
        self.pump(src, sched, rec);
        msg
    }

    /// NIC injection loop: carve packets off the head message while credits
    /// and the uplink allow.
    fn pump(&mut self, node: NodeId, sched: &mut impl Scheduler<NetEvent>, rec: &mut Recorder) {
        let router = self.topo.router_of_node(node);
        let tport = self.topo.terminal_port(node);
        let packet_bytes = self.timing.packet_bytes;
        let term_prop = self.timing.terminal_latency_ps;
        loop {
            let now = sched.now();
            let nic = &mut self.nics[node.idx()];
            if nic.sendq.is_empty() || nic.credits == 0 {
                return; // NodeCredit or a new message will pump again
            }
            if nic.busy_until > now {
                if !nic.pump_pending {
                    nic.pump_pending = true;
                    let at = nic.busy_until;
                    sched.at(at, NetEvent::NicPump { node });
                }
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "the `return` above already handled the empty-queue case, so the queue is non-empty here"
            )]
            let (meta, bytes, msg_done) =
                nic.next_packet(packet_bytes, CONTROL_BYTES).expect("queue checked non-empty");
            let flits = bytes.div_ceil(self.timing.flit_bytes).max(1) as u64;
            let ser = flits * self.flit_time;
            nic.credits -= 1;
            nic.busy_until = now + ser;

            let id = self.next_packet_id;
            self.next_packet_id += 1;
            self.in_flight += 1;
            rec.packet_injected(meta.app, now, bytes);
            let packet = Packet {
                id,
                msg: meta.msg,
                app: meta.app,
                src: node,
                dst: meta.dst,
                bytes,
                injected_at: now,
                arrived_at_hop: now,
                hops: 0,
                state: RouteState::Fresh,
                cached_port: None,
            };
            sched.at(
                now + ser + term_prop,
                NetEvent::PacketArrive { router, port: tport, vc: 0, packet },
            );
            if msg_done {
                let msg = meta.msg;
                sched.at(now + ser, NetEvent::SendDone { msg });
            }
        }
    }

    // ---- event handling ----------------------------------------------------

    /// Process one network event. Follow-up events go to `sched`; transport
    /// effects for the MPI layer are appended to `effects`.
    pub fn handle(
        &mut self,
        ev: NetEvent,
        sched: &mut impl Scheduler<NetEvent>,
        rec: &mut Recorder,
        effects: &mut Vec<NetEffect>,
    ) {
        match ev {
            NetEvent::NicPump { node } => {
                self.nics[node.idx()].pump_pending = false;
                self.pump(node, sched, rec);
            }
            NetEvent::PacketArrive { router, port, vc, mut packet } => {
                let now = sched.now();
                if self.cfg.algo == RoutingAlgo::QAdaptive {
                    self.send_q_feedback(router, port, &packet, now, sched);
                }
                packet.arrived_at_hop = now;
                packet.cached_port = None;
                let cap = self.timing.buffer_packets as usize;
                let input = self.routers[router.idx()].input(port, vc);
                input.queue.push_back(packet);
                debug_assert!(
                    input.queue.len() <= cap,
                    "input buffer overflow at {router}/{port}/vc{vc}"
                );
                if input.queue.len() == 1 {
                    self.try_service(router, port, vc, sched, rec);
                }
            }
            NetEvent::OutputFree { router, port } => {
                let now = sched.now();
                loop {
                    if self.routers[router.idx()].busy_until(port) > now {
                        break; // someone re-occupied the link
                    }
                    let Some((ip, ivc)) = self.routers[router.idx()].pop_link_waiter(port) else {
                        break;
                    };
                    self.try_service(router, ip, ivc, sched, rec);
                }
            }
            NetEvent::Credit { router, port, vc } => {
                self.routers[router.idx()].return_credit(port, vc, self.timing.buffer_packets);
                loop {
                    if self.routers[router.idx()].credits(port, vc) == 0 {
                        break;
                    }
                    let Some((ip, ivc)) = self.routers[router.idx()].pop_credit_waiter(port, vc)
                    else {
                        break;
                    };
                    self.try_service(router, ip, ivc, sched, rec);
                }
            }
            NetEvent::NodeCredit { node } => {
                self.nics[node.idx()].credits += 1;
                self.pump(node, sched, rec);
            }
            NetEvent::DeliverPacket { node, packet } => {
                debug_assert_eq!(node, packet.dst);
                let now = sched.now();
                rec.packet_delivered_full(
                    packet.app,
                    packet.injected_at,
                    now,
                    packet.bytes,
                    packet.took_detour(),
                    packet.hops,
                );
                self.in_flight -= 1;
                #[expect(
                    clippy::expect_used,
                    reason = "the barrier imports every foreign message before its packets can be delivered here"
                )]
                let info: &mut MsgInfo = if partition::is_tagged(packet.msg.0) {
                    self.part
                        .imported
                        .get_mut(&packet.msg.0)
                        .expect("delivery of an undeclared foreign message")
                } else {
                    &mut self.msgs[packet.msg.idx()]
                };
                debug_assert!(info.live, "delivery into a released message slot");
                info.received += 1;
                debug_assert!(info.received <= info.expected, "over-delivery of {}", packet.msg);
                if info.received == info.expected {
                    effects.push(NetEffect::MessageDelivered { msg: packet.msg, at: now });
                }
            }
            NetEvent::LocalDeliver { msg } => {
                let now = sched.now();
                let info = &mut self.msgs[msg.idx()];
                debug_assert!(info.live, "local delivery into a released message slot");
                info.received = info.expected;
                effects.push(NetEffect::MessageInjected { msg, at: now });
                effects.push(NetEffect::MessageDelivered { msg, at: now });
            }
            NetEvent::SendDone { msg } => {
                effects.push(NetEffect::MessageInjected { msg, at: sched.now() });
            }
            NetEvent::QFeedback { router, port, dst_group, dst_local, sample } => {
                let my_group = self.topo.group_of_router(router);
                let key = self.event_key;
                if let Some(qt) = self.routers[router.idx()].qtable.as_mut() {
                    if my_group == dst_group {
                        if let Some(log) = self.q_undo.as_mut() {
                            log.push(QUndoEntry {
                                time: key.0,
                                seq: key.1,
                                router,
                                level2: true,
                                index: dst_local,
                                port,
                                old: qt.q2(dst_local, port),
                            });
                        }
                        qt.update2(dst_local, port, sample);
                    } else {
                        let before = qt.q1(dst_group, port);
                        if let Some(log) = self.q_undo.as_mut() {
                            log.push(QUndoEntry {
                                time: key.0,
                                seq: key.1,
                                router,
                                level2: false,
                                index: dst_group.0,
                                port,
                                old: before,
                            });
                        }
                        qt.update1(dst_group, port, sample);
                        if before.is_finite() {
                            // Convergence telemetry: per-window mean |ΔQ1|
                            // (feedback only arrives over real links, so
                            // `before` is finite in practice).
                            let after = qt.q1(dst_group, port);
                            rec.q1_updated(sched.now(), (after - before).abs());
                        }
                    }
                }
            }
        }
    }

    /// On arrival at a router, send the Q-adaptive feedback signal back to
    /// the upstream router: observed transit time plus this router's own
    /// remaining-delivery estimate (paper Fig 2, steps 1 & 4).
    fn send_q_feedback(
        &mut self,
        router: RouterId,
        in_port: Port,
        packet: &Packet,
        now: Time,
        sched: &mut impl Scheduler<NetEvent>,
    ) {
        let PortPeer::Router(up_router, up_port) = self.routers[router.idx()].peer(in_port) else {
            return; // came from a NIC: no upstream Q-table
        };
        let transit = now.saturating_sub(packet.arrived_at_hop);
        let remaining = self.estimate_remaining(router, packet);
        let dst_router = self.topo.router_of_node(packet.dst);
        let dst_group = self.topo.group_of_router(dst_router);
        let dst_local = self.topo.local_index(dst_router);
        let prop = self.prop_of(self.topo.port_kind(in_port));
        sched.at(
            now + prop,
            NetEvent::QFeedback {
                router: up_router,
                port: up_port,
                dst_group,
                dst_local,
                sample: transit + remaining,
            },
        );
    }

    /// This router's best estimate of the remaining delivery time for a
    /// packet (the value fed back to the upstream neighbour).
    fn estimate_remaining(&self, router: RouterId, packet: &Packet) -> Time {
        let dst_router = self.topo.router_of_node(packet.dst);
        let term = self.serialize_packet(packet.bytes) + self.timing.terminal_latency_ps;
        if dst_router == router {
            return term;
        }
        #[expect(
            clippy::expect_used,
            reason = "this estimator is only called under Q-adaptive routing, and `NetworkSim::shard` installs a Q-table on every router for that algo"
        )]
        let qt =
            self.routers[router.idx()].qtable.as_ref().expect("Q-adaptive routers carry Q-tables");
        let dst_group = self.topo.group_of_router(dst_router);
        let est = if self.topo.group_of_router(router) == dst_group {
            qt.best2(self.topo.local_index(dst_router))
        } else {
            qt.best1(dst_group)
        };
        if est.is_finite() {
            est as Time
        } else {
            // Degenerate fallback: static 3-hop estimate.
            3 * (self.timing.packet_serialize() + self.timing.global_latency_ps) + term
        }
    }

    /// Try to forward head packets of input `(port, vc)` until the head
    /// blocks or the buffer drains.
    fn try_service(
        &mut self,
        router: RouterId,
        in_port: Port,
        in_vc: u8,
        sched: &mut impl Scheduler<NetEvent>,
        rec: &mut Recorder,
    ) {
        while self.try_service_once(router, in_port, in_vc, sched, rec) == Service::Forwarded {}
    }

    fn try_service_once(
        &mut self,
        router: RouterId,
        in_port: Port,
        in_vc: u8,
        sched: &mut impl Scheduler<NetEvent>,
        rec: &mut Recorder,
    ) -> Service {
        let now = sched.now();
        let r_idx = router.idx();

        // Copy the head packet out (it is `Copy`), decide, write back or pop.
        let Some(&head) = self.routers[r_idx].input(in_port, in_vc).queue.front() else {
            return Service::Empty;
        };
        let mut pkt = head;
        let out = match pkt.cached_port {
            Some(p) => p,
            None => {
                let p = routing::decide(
                    &mut self.routers[r_idx],
                    &self.topo,
                    &self.timing,
                    &self.cfg,
                    now,
                    &mut pkt,
                );
                pkt.cached_port = Some(p);
                p
            }
        };

        let terminal_out = self.routers[r_idx].is_terminal(out);
        let ovc = pkt.hops;
        debug_assert!(
            terminal_out || (ovc as usize) < self.routers[r_idx].nvcs(),
            "VC budget exceeded: {} hops at {router} for {} -> {}",
            pkt.hops,
            pkt.src,
            pkt.dst
        );

        // Resource checks: credit first, then link.
        if !terminal_out && self.routers[r_idx].credits(out, ovc) == 0 {
            let input = self.routers[r_idx].input(in_port, in_vc);
            #[expect(
                clippy::expect_used,
                reason = "`pkt` was popped from this very queue a few lines up without an intervening push/pop, so the head slot still exists to write back into"
            )]
            let head = input.queue.front_mut().expect("head exists");
            *head = pkt;
            input.blocked_since.get_or_insert(now);
            self.routers[r_idx].wait_for_credit(out, ovc, (in_port, in_vc));
            return Service::Blocked;
        }
        if self.routers[r_idx].busy_until(out) > now {
            let input = self.routers[r_idx].input(in_port, in_vc);
            #[expect(
                clippy::expect_used,
                reason = "same write-back as the credit-blocked branch: the head was peeked from this queue with nothing popped since"
            )]
            let head = input.queue.front_mut().expect("head exists");
            *head = pkt;
            input.blocked_since.get_or_insert(now);
            self.routers[r_idx].wait_for_link(out, (in_port, in_vc));
            return Service::Blocked;
        }

        // Forward.
        let ser = self.serialize_packet(pkt.bytes);
        {
            let input = self.routers[r_idx].input(in_port, in_vc);
            input.queue.pop_front();
            if let Some(since) = input.blocked_since.take() {
                rec.port_stalled(router, out, now - since);
            }
        }
        rec.packet_forwarded(router, out, ser, pkt.bytes);
        self.routers[r_idx].set_busy(out, now + ser);
        sched.at(now + ser, NetEvent::OutputFree { router, port: out });

        // Return the freed input-buffer slot upstream.
        match self.routers[r_idx].peer(in_port) {
            PortPeer::Router(ur, uport) => {
                let prop = self.prop_of(self.topo.port_kind(in_port));
                sched.at(now + prop, NetEvent::Credit { router: ur, port: uport, vc: in_vc });
            }
            PortPeer::Node(n) => {
                sched.at(now + self.timing.terminal_latency_ps, NetEvent::NodeCredit { node: n });
            }
            #[expect(
                clippy::unreachable,
                reason = "a packet sitting in this input queue proves the upstream peer exists; unconnected ports never enqueue"
            )]
            PortPeer::Unconnected => unreachable!("packet entered via unconnected port"),
        }

        if terminal_out {
            #[expect(
                clippy::unreachable,
                reason = "`terminal_out` was computed from the topology's port kind, and terminal ports wire to nodes by construction"
            )]
            let PortPeer::Node(n) = self.routers[r_idx].peer(out) else {
                unreachable!("terminal port faces a node");
            };
            pkt.cached_port = None;
            sched.at(
                now + ser + self.timing.terminal_latency_ps,
                NetEvent::DeliverPacket { node: n, packet: pkt },
            );
        } else {
            self.routers[r_idx].take_credit(out, ovc);
            #[expect(
                clippy::unreachable,
                reason = "routing only emits connected ports, and every non-terminal connected port wires to a router by construction"
            )]
            let PortPeer::Router(nr, nport) = self.routers[r_idx].peer(out) else {
                unreachable!("non-terminal output faces a router");
            };
            pkt.hops += 1;
            pkt.cached_port = None;
            let prop = self.prop_of(self.topo.port_kind(out));
            sched.at(
                now + ser + prop,
                NetEvent::PacketArrive { router: nr, port: nport, vc: ovc, packet: pkt },
            );
        }
        Service::Forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_des::queue::PendingEvents;
    use dfsim_des::sched::QueueScheduler;
    use dfsim_des::{EventQueue, SimRng};
    use dfsim_metrics::RecorderConfig;
    use dfsim_topology::DragonflyParams;

    struct Harness {
        net: NetworkSim,
        queue: EventQueue<NetEvent>,
        rec: Recorder,
        effects: Vec<NetEffect>,
    }

    impl Harness {
        fn new(algo: RoutingAlgo) -> Self {
            let topo = Arc::new(Topology::new(DragonflyParams::tiny_72()).unwrap());
            let rec = Recorder::new(&topo, RecorderConfig::default());
            let net = NetworkSim::new(
                topo,
                LinkTiming::default(),
                RoutingConfig::new(algo),
                &SimRng::new(42),
            );
            Self { net, queue: EventQueue::new(), rec, effects: Vec::new() }
        }

        fn send(&mut self, src: u32, dst: u32, bytes: u64) -> MessageId {
            let mut sched = QueueScheduler::new(&mut self.queue);
            self.net.send_message(
                &mut sched,
                &mut self.rec,
                NodeId(src),
                NodeId(dst),
                bytes,
                AppId(0),
            )
        }

        /// Run to completion; returns final time.
        fn run(&mut self) -> Time {
            let mut last = 0;
            let mut steps = 0u64;
            while let Some((t, ev)) = self.queue.pop() {
                last = t;
                let mut sched = QueueScheduler::new(&mut self.queue);
                self.net.handle(ev, &mut sched, &mut self.rec, &mut self.effects);
                steps += 1;
                assert!(steps < 10_000_000, "runaway simulation");
            }
            last
        }

        fn delivered(&self, msg: MessageId) -> Option<Time> {
            self.effects.iter().find_map(|e| match e {
                NetEffect::MessageDelivered { msg: m, at } if *m == msg => Some(*at),
                _ => None,
            })
        }
    }

    #[test]
    fn single_packet_crosses_groups_minimally() {
        let mut h = Harness::new(RoutingAlgo::Minimal);
        let msg = h.send(0, 70, 512); // group 0 → group 8
        h.run();
        let at = h.delivered(msg).expect("message must arrive");
        // Lower bound: 1 packet ser (20.48ns) per hop × ≥3 hops + 1 global
        // prop (300ns) + locals. Just sanity-check the order of magnitude.
        assert!(at > 300_000, "arrived implausibly fast: {at}");
        assert!(at < 10_000_000, "arrived implausibly slow: {at}");
        assert!(h.net.is_idle());
        assert!(h.rec.conservation_ok());
        let app = h.rec.app(AppId(0)).unwrap();
        assert_eq!(app.packets_injected, 1);
        assert_eq!(app.packets_delivered, 1);
    }

    #[test]
    fn all_algorithms_deliver_everything() {
        for algo in [
            RoutingAlgo::Minimal,
            RoutingAlgo::UgalG,
            RoutingAlgo::UgalN,
            RoutingAlgo::Par,
            RoutingAlgo::QAdaptive,
        ] {
            let mut h = Harness::new(algo);
            let mut msgs = Vec::new();
            // Every 7th node pair, multi-packet messages.
            for i in 0..24u32 {
                let src = (i * 3) % 72;
                let dst = (i * 7 + 13) % 72;
                if src != dst {
                    msgs.push(h.send(src, dst, 2048));
                }
            }
            h.run();
            for m in &msgs {
                assert!(h.delivered(*m).is_some(), "{algo}: {m} lost");
            }
            assert!(h.net.is_idle(), "{algo}: network not drained");
            let app = h.rec.app(AppId(0)).unwrap();
            assert_eq!(app.packets_injected, app.packets_delivered, "{algo}");
        }
    }

    #[test]
    fn messages_split_into_packets_and_reassemble() {
        let mut h = Harness::new(RoutingAlgo::Minimal);
        let msg = h.send(0, 40, 5 * 512 + 100); // 6 packets
        h.run();
        assert!(h.delivered(msg).is_some());
        let app = h.rec.app(AppId(0)).unwrap();
        assert_eq!(app.packets_injected, 6);
        assert_eq!(app.delivered.total(), 5 * 512 + 100);
    }

    #[test]
    fn self_send_loops_back_without_network() {
        let mut h = Harness::new(RoutingAlgo::UgalG);
        let msg = h.send(5, 5, 4096);
        h.run();
        assert!(h.delivered(msg).is_some());
        assert_eq!(h.net.in_flight(), 0);
        // No packets ever touched the wire (the app slot may not even exist).
        assert!(h.rec.app(AppId(0)).is_none_or(|a| a.packets_injected == 0));
    }

    #[test]
    fn injection_is_credit_backpressured() {
        // A message far larger than one buffer: must still deliver fully,
        // demonstrating credits + pump cycling.
        let mut h = Harness::new(RoutingAlgo::Minimal);
        let bytes = 100 * 512; // 100 packets ≫ 30-credit buffer
        let msg = h.send(0, 71, bytes as u64);
        h.run();
        assert!(h.delivered(msg).is_some());
        let app = h.rec.app(AppId(0)).unwrap();
        assert_eq!(app.packets_injected, 100);
        assert_eq!(app.packets_delivered, 100);
        assert_eq!(app.delivered.total(), bytes as u64);
    }

    #[test]
    fn contention_on_one_destination_serializes_and_stalls() {
        let mut h = Harness::new(RoutingAlgo::Minimal);
        // Many senders to one node: ejection link is the bottleneck.
        for src in 1..20u32 {
            h.send(src, 0, 4 * 512);
        }
        h.run();
        assert!(h.net.is_idle());
        let app = h.rec.app(AppId(0)).unwrap();
        assert_eq!(app.packets_delivered, 19 * 4);
        // The hot ejection port must have accumulated stall time.
        let total_stall: u64 = h.rec.ports().iter().map(|(_, _, _, s)| s.stall_ps).sum();
        assert!(total_stall > 0, "expected head-of-line blocking under fan-in");
    }

    #[test]
    fn qadaptive_learns_from_feedback() {
        let mut h = Harness::new(RoutingAlgo::QAdaptive);
        // Cross-group traffic so level-1 tables get updates.
        for i in 0..30u32 {
            h.send(i % 8, 64 + (i % 8), 2048); // group 0 → group 8
        }
        h.run();
        assert!(h.net.is_idle());
        // The source routers' Q-tables should have moved off the static
        // estimates for group 8.
        let topo = h.net.topology();
        let fresh = QTable::new(topo, RouterId(0), &LinkTiming::default(), 0.1);
        let learned = h.net.router(RouterId(0)).qtable.as_ref().unwrap();
        let g8 = dfsim_topology::GroupId(8);
        let mut moved = false;
        for p in 2..topo.radix() {
            let port = Port(p);
            if (learned.q1(g8, port) - fresh.q1(g8, port)).abs() > 1.0 {
                moved = true;
            }
        }
        assert!(moved, "Q-table never updated");
    }

    #[test]
    fn message_slab_recycles_released_slots() {
        let mut h = Harness::new(RoutingAlgo::Minimal);
        let m1 = h.send(0, 40, 512);
        let m2 = h.send(3, 50, 512);
        h.run();
        assert!(h.delivered(m1).is_some() && h.delivered(m2).is_some());
        assert_eq!(h.net.live_messages(), 2);
        h.net.release_message(m1);
        assert_eq!(h.net.live_messages(), 1);
        let m3 = h.send(5, 60, 512);
        assert_eq!(m3, m1, "released slot must be recycled");
        h.run();
        assert!(h.delivered(m3).is_some());
        h.net.release_message(m2);
        h.net.release_message(m3);
        assert_eq!(h.net.live_messages(), 0);
    }

    #[test]
    fn zero_byte_message_still_delivers() {
        let mut h = Harness::new(RoutingAlgo::UgalN);
        let msg = h.send(0, 30, 0);
        h.run();
        assert!(h.delivered(msg).is_some());
        let app = h.rec.app(AppId(0)).unwrap();
        assert_eq!(app.packets_injected, 1);
    }

    #[test]
    fn effects_report_injection_before_delivery() {
        let mut h = Harness::new(RoutingAlgo::Minimal);
        let msg = h.send(0, 70, 3 * 512);
        h.run();
        let inj = h
            .effects
            .iter()
            .find_map(|e| match e {
                NetEffect::MessageInjected { msg: m, at } if *m == msg => Some(*at),
                _ => None,
            })
            .expect("injection effect");
        let del = h.delivered(msg).unwrap();
        assert!(inj < del, "local completion must precede remote delivery");
    }
}
