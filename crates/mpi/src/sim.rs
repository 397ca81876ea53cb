//! [`MpiSim`]: the MPI execution engine.
//!
//! The engine advances each rank's program until it blocks (compute, a
//! blocking call, or `WaitAll`), issues transport messages through the
//! network, and reacts to network effects (message injected / delivered) by
//! completing requests and waking ranks. Large sends use RTS/CTS
//! rendezvous; small ones go eagerly (threshold configurable, SST-style).

use std::collections::BTreeMap;

use dfsim_des::wire::{put_u16, put_u32, put_u64, put_u8, WireError, WireReader};
use dfsim_des::{Scheduler, Time};
use dfsim_metrics::{AppId, Recorder};
use dfsim_network::{partition, MessageId, NetEffect, NetEvent, NetworkSim};
use dfsim_topology::NodeId;

use crate::collectives::{expand, Collective};
use crate::matching::{PostedRecv, Unexpected, UnexpectedKind};
use crate::op::{MpiOp, RankProgram, Tag};
use crate::rank::{Block, MicroOp, RankState};

/// Events owned by the MPI layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiEvent {
    /// A rank's compute interval ended.
    ComputeDone {
        /// Application.
        app: AppId,
        /// World rank within the application.
        rank: u32,
    },
}

/// The world scheduler contract: whoever drives the MPI layer must be able
/// to schedule both MPI and network events (the core crate's world scheduler
/// lifts both into its world event enum).
pub trait WorldSched: Scheduler<MpiEvent> + Scheduler<NetEvent> {}
impl<T: Scheduler<MpiEvent> + Scheduler<NetEvent>> WorldSched for T {}

#[inline]
fn now<S: WorldSched>(s: &S) -> Time {
    Scheduler::<MpiEvent>::now(s)
}

/// MPI-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Messages up to this size are sent eagerly; larger ones use RTS/CTS
    /// rendezvous.
    pub eager_threshold: u64,
}

impl Default for MpiConfig {
    fn default() -> Self {
        Self { eager_threshold: 16 * 1024 }
    }
}

/// Transport-message bookkeeping: what an in-flight network message means.
#[derive(Debug, Clone, Copy)]
enum MsgMeta {
    /// Eagerly sent payload.
    EagerData { app: AppId, src_rank: u32, dst_rank: u32, tag: Tag, send_req: u32 },
    /// Rendezvous request-to-send (control).
    Rts { app: AppId, src_rank: u32, dst_rank: u32, tag: Tag, bytes: u64, send_req: u32 },
    /// Rendezvous clear-to-send (control), returning to the sender.
    Cts { app: AppId, sender_rank: u32, send_req: u32, recv_rank: u32, recv_req: u32, bytes: u64 },
    /// Rendezvous payload.
    RdvData { app: AppId, src_rank: u32, dst_rank: u32, recv_req: u32, send_req: u32 },
}

/// One application: its placement, communicators and rank states.
struct AppState {
    nodes: Vec<NodeId>,
    comms: Vec<Vec<u32>>,
    ranks: Vec<RankState>,
    unfinished: usize,
    finished_at: Option<Time>,
}

/// The MPI simulation (all co-running applications).
pub struct MpiSim {
    cfg: MpiConfig,
    apps: Vec<Option<AppState>>,
    meta: Vec<Option<MsgMeta>>,
    /// Metadata of messages owned by other shards (partitioned runs), keyed
    /// by tagged message id. Lookup-only — never iterated, so the hash map
    /// cannot introduce nondeterminism.
    foreign_meta: BTreeMap<u64, MsgMeta>,
    /// Apps whose last rank finished since the last [`MpiSim::drain_finished`]
    /// call (the churn loop reclaims their nodes).
    newly_finished: Vec<AppId>,
}

impl Default for MpiSim {
    fn default() -> Self {
        Self::new(MpiConfig::default())
    }
}

impl MpiSim {
    /// Build an empty engine.
    pub fn new(cfg: MpiConfig) -> Self {
        Self {
            cfg,
            apps: Vec::new(),
            meta: Vec::new(),
            foreign_meta: BTreeMap::new(),
            newly_finished: Vec::new(),
        }
    }

    /// Register an application: `nodes[r]` is the node of world rank `r`,
    /// `programs[r]` its behaviour, `extra_comms` any sub-communicators
    /// (communicator 0 — the world — is added automatically).
    pub fn add_app(
        &mut self,
        app: AppId,
        nodes: Vec<NodeId>,
        programs: Vec<Box<dyn RankProgram>>,
        extra_comms: Vec<Vec<u32>>,
    ) {
        assert_eq!(nodes.len(), programs.len(), "one program per rank");
        assert!(!nodes.is_empty(), "empty application");
        let mut comms = Vec::with_capacity(1 + extra_comms.len());
        comms.push((0..nodes.len() as u32).collect());
        comms.extend(extra_comms);
        let num_comms = comms.len();
        let n = nodes.len();
        let ranks: Vec<RankState> =
            programs.into_iter().map(|p| RankState::new(p, num_comms)).collect();
        let idx = app.idx();
        while self.apps.len() <= idx {
            self.apps.push(None);
        }
        self.apps[idx] = Some(AppState { nodes, comms, ranks, unfinished: n, finished_at: None });
    }

    /// Start every registered rank (call once at t = 0).
    pub fn start<S: WorldSched>(
        &mut self,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        for a in 0..self.apps.len() {
            if self.apps[a].is_some() {
                self.start_app(AppId(a as u16), sched, net, rec);
            }
        }
    }

    /// Start one registered application's ranks at the current simulation
    /// time (mid-run spawn for churn scenarios; equivalent to [`MpiSim::start`]
    /// for apps registered before t = 0).
    pub fn start_app<S: WorldSched>(
        &mut self,
        app: AppId,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "AppIds are minted by `register` and never removed; a missing slot means the caller forged an id, which must stop the run"
        )]
        let n = self.apps[app.idx()].as_ref().expect("unknown app").ranks.len();
        for r in 0..n as u32 {
            self.advance(app, r, sched, net, rec);
        }
    }

    /// Start a single rank of a registered application at the current
    /// simulation time. The partitioned engine starts only the ranks placed
    /// on nodes this shard owns — while iterating all ranks in the same
    /// global order as [`MpiSim::start_app`], so sequence-number accounting
    /// stays aligned across shards.
    pub fn start_rank<S: WorldSched>(
        &mut self,
        app: AppId,
        rank: u32,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        self.advance(app, rank, sched, net, rec);
    }

    // ---- partitioning ------------------------------------------------------

    /// Serialize the metadata of a message that is being exported to another
    /// shard (compact frame payload for the barrier exchange). The local
    /// entry is kept: the origin shard still consumes the `MessageInjected`
    /// effect when the send completes locally.
    pub fn export_meta(&self, msg: MessageId) -> Vec<u8> {
        #[expect(
            clippy::expect_used,
            reason = "every message the boundary exports was locally injected with metadata recorded in the same call; absence is a protocol bug, not an input condition"
        )]
        let meta = self
            .meta
            .get(msg.idx())
            .copied()
            .flatten()
            .expect("exporting a message without metadata");
        let mut w = Vec::new();
        match meta {
            MsgMeta::EagerData { app, src_rank, dst_rank, tag, send_req } => {
                put_u8(&mut w, 0);
                put_u16(&mut w, app.0);
                put_u32(&mut w, src_rank);
                put_u32(&mut w, dst_rank);
                put_u64(&mut w, tag);
                put_u32(&mut w, send_req);
            }
            MsgMeta::Rts { app, src_rank, dst_rank, tag, bytes, send_req } => {
                put_u8(&mut w, 1);
                put_u16(&mut w, app.0);
                put_u32(&mut w, src_rank);
                put_u32(&mut w, dst_rank);
                put_u64(&mut w, tag);
                put_u64(&mut w, bytes);
                put_u32(&mut w, send_req);
            }
            MsgMeta::Cts { app, sender_rank, send_req, recv_rank, recv_req, bytes } => {
                put_u8(&mut w, 2);
                put_u16(&mut w, app.0);
                put_u32(&mut w, sender_rank);
                put_u32(&mut w, send_req);
                put_u32(&mut w, recv_rank);
                put_u32(&mut w, recv_req);
                put_u64(&mut w, bytes);
            }
            MsgMeta::RdvData { app, src_rank, dst_rank, recv_req, send_req } => {
                put_u8(&mut w, 3);
                put_u16(&mut w, app.0);
                put_u32(&mut w, src_rank);
                put_u32(&mut w, dst_rank);
                put_u32(&mut w, recv_req);
                put_u32(&mut w, send_req);
            }
        }
        w
    }

    /// Register the metadata of a foreign message under its tagged id (the
    /// receiving side of [`MpiSim::export_meta`]). Bytes that are not
    /// exactly one metadata record are a named [`WireError`].
    pub fn import_meta(&mut self, tagged: u64, bytes: &[u8]) -> Result<(), WireError> {
        debug_assert!(partition::is_tagged(tagged));
        let mut r = WireReader::new(bytes);
        let meta = match r.u8("meta.kind")? {
            0 => MsgMeta::EagerData {
                app: AppId(r.u16("meta.app")?),
                src_rank: r.u32("meta.src_rank")?,
                dst_rank: r.u32("meta.dst_rank")?,
                tag: r.u64("meta.tag")?,
                send_req: r.u32("meta.send_req")?,
            },
            1 => MsgMeta::Rts {
                app: AppId(r.u16("meta.app")?),
                src_rank: r.u32("meta.src_rank")?,
                dst_rank: r.u32("meta.dst_rank")?,
                tag: r.u64("meta.tag")?,
                bytes: r.u64("meta.bytes")?,
                send_req: r.u32("meta.send_req")?,
            },
            2 => MsgMeta::Cts {
                app: AppId(r.u16("meta.app")?),
                sender_rank: r.u32("meta.sender_rank")?,
                send_req: r.u32("meta.send_req")?,
                recv_rank: r.u32("meta.recv_rank")?,
                recv_req: r.u32("meta.recv_req")?,
                bytes: r.u64("meta.bytes")?,
            },
            3 => MsgMeta::RdvData {
                app: AppId(r.u16("meta.app")?),
                src_rank: r.u32("meta.src_rank")?,
                dst_rank: r.u32("meta.dst_rank")?,
                recv_req: r.u32("meta.recv_req")?,
                send_req: r.u32("meta.send_req")?,
            },
            t => return Err(r.bad(format!("unknown meta tag {t}"))),
        };
        if !r.is_empty() {
            return Err(r.bad(format!("{} trailing bytes in a meta frame", r.remaining())));
        }
        let prev = self.foreign_meta.insert(tagged, meta);
        debug_assert!(prev.is_none(), "duplicate meta import");
        Ok(())
    }

    /// Process a release notice for a message this shard created whose
    /// packets were all delivered on a foreign shard: drop the metadata and
    /// free the network slab slot so the id can be recycled.
    pub fn release_exported(&mut self, tagged: u64, net: &mut NetworkSim) {
        let idx = (tagged & partition::IDX_MASK) as usize;
        let prev = self.meta.get_mut(idx).and_then(Option::take);
        debug_assert!(prev.is_some(), "release notice for a message without metadata");
        net.release_exported_slot(tagged);
    }

    /// Move the apps whose last rank finished since the previous call into
    /// `out` (appending). The churn loop polls this after every event; the
    /// vector is almost always empty, so the call is branch-cheap.
    pub fn drain_finished(&mut self, out: &mut Vec<AppId>) {
        if !self.newly_finished.is_empty() {
            out.append(&mut self.newly_finished);
        }
    }

    /// Whether every rank of every application has finished.
    pub fn all_finished(&self) -> bool {
        self.apps.iter().flatten().all(|a| a.unfinished == 0)
    }

    /// When an application's last rank finished.
    pub fn app_finished_at(&self, app: AppId) -> Option<Time> {
        self.apps.get(app.idx())?.as_ref()?.finished_at
    }

    /// Per-rank communication times of an app (world-rank order).
    pub fn comm_times(&self, app: AppId) -> Vec<Time> {
        self.apps[app.idx()]
            .as_ref()
            .map(|a| a.ranks.iter().map(|r| r.comm_time).collect())
            .unwrap_or_default()
    }

    /// Handle an MPI event.
    pub fn handle<S: WorldSched>(
        &mut self,
        ev: MpiEvent,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        match ev {
            MpiEvent::ComputeDone { app, rank } => {
                let state = self.rank_mut(app, rank);
                debug_assert_eq!(state.blocked, Some(Block::Compute));
                state.blocked = None; // compute is not communication time
                self.advance(app, rank, sched, net, rec);
            }
        }
    }

    /// Consume a network effect (message injected / delivered).
    pub fn on_net_effect<S: WorldSched>(
        &mut self,
        eff: NetEffect,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        match eff {
            NetEffect::MessageInjected { msg, .. } => self.on_injected(msg, sched, net, rec),
            NetEffect::MessageDelivered { msg, .. } => self.on_delivered(msg, sched, net, rec),
        }
    }

    // ---- internals ---------------------------------------------------------

    fn app_mut(&mut self, app: AppId) -> &mut AppState {
        #[expect(
            clippy::expect_used,
            reason = "AppIds are minted by `register` and never removed; a missing slot means the caller forged an id, which must stop the run"
        )]
        self.apps[app.idx()].as_mut().expect("unknown app")
    }

    fn rank_mut(&mut self, app: AppId, rank: u32) -> &mut RankState {
        &mut self.app_mut(app).ranks[rank as usize]
    }

    fn set_meta(&mut self, msg: MessageId, meta: MsgMeta) {
        let i = msg.idx();
        while self.meta.len() <= i {
            self.meta.push(None);
        }
        self.meta[i] = Some(meta);
    }

    /// Run one rank until it blocks or finishes.
    fn advance<S: WorldSched>(
        &mut self,
        app: AppId,
        rank: u32,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        loop {
            let t = now(sched);
            let state = self.rank_mut(app, rank);
            if state.blocked.is_some() || state.is_finished() {
                return;
            }
            let Some(op) = state.stack.pop() else {
                // Stack empty: pull the next program op (or finalize).
                match state.program.next_op() {
                    Some(op) => {
                        self.push_program_op(app, rank, op);
                        continue;
                    }
                    None => {
                        let state = self.rank_mut(app, rank);
                        state.finishing = true;
                        if state.reqs.outstanding() > 0 {
                            state.blocked = Some(Block::AllReqs);
                            state.blocked_since = t;
                            self.flush_burst(app, rank, rec);
                            return;
                        }
                        self.finish_rank(app, rank, t, rec);
                        return;
                    }
                }
            };
            match op {
                MicroOp::Compute(d) => {
                    self.flush_burst(app, rank, rec);
                    let state = self.rank_mut(app, rank);
                    state.blocked = Some(Block::Compute);
                    Scheduler::<MpiEvent>::at(sched, t + d, MpiEvent::ComputeDone { app, rank });
                    return;
                }
                MicroOp::Isend { dst, bytes, tag } => {
                    self.do_send(app, rank, dst, bytes, tag, sched, net, rec);
                }
                MicroOp::Send { dst, bytes, tag } => {
                    let req = self.do_send(app, rank, dst, bytes, tag, sched, net, rec);
                    let state = self.rank_mut(app, rank);
                    if !state.reqs.is_complete(req) {
                        state.blocked = Some(Block::Req(req));
                        state.blocked_since = t;
                        self.flush_burst(app, rank, rec);
                        return;
                    }
                }
                MicroOp::Irecv { src, tag } => {
                    self.do_recv(app, rank, src, tag, sched, net, rec);
                }
                MicroOp::Recv { src, tag } => {
                    let req = self.do_recv(app, rank, src, tag, sched, net, rec);
                    let state = self.rank_mut(app, rank);
                    if !state.reqs.is_complete(req) {
                        state.blocked = Some(Block::Req(req));
                        state.blocked_since = t;
                        self.flush_burst(app, rank, rec);
                        return;
                    }
                }
                MicroOp::WaitAll => {
                    let state = self.rank_mut(app, rank);
                    if state.reqs.outstanding() > 0 {
                        state.blocked = Some(Block::AllReqs);
                        state.blocked_since = t;
                        self.flush_burst(app, rank, rec);
                        return;
                    }
                }
            }
        }
    }

    /// Translate a program-level op onto the rank's micro-op stack.
    fn push_program_op(&mut self, app: AppId, rank: u32, op: MpiOp) {
        if let Some((comm, coll)) = Collective::from_op(&op) {
            // Split-borrow the app so the member list stays a borrow (no
            // per-collective clone of the communicator) while the rank
            // state is mutated.
            let AppState { comms, ranks, .. } = self.app_mut(app);
            #[expect(
                clippy::panic,
                reason = "communicator ids are produced by `comm_create` on this same app and never deleted; an out-of-range id is a workload-generator bug worth a loud stop"
            )]
            let members = comms
                .get(comm.0 as usize)
                .unwrap_or_else(|| panic!("unknown communicator {comm:?}"));
            let Some(me) = members.iter().position(|&m| m == rank) else {
                return; // not a member: collective is a no-op for this rank
            };
            let state = &mut ranks[rank as usize];
            let seq = state.coll_seq[comm.0 as usize];
            state.coll_seq[comm.0 as usize] += 1;
            let ops = expand(coll, comm, members, me as u32, seq);
            state.stack.extend(ops.into_iter().rev());
            return;
        }
        let micro = match op {
            MpiOp::Compute(d) => MicroOp::Compute(d),
            MpiOp::Send { dst, bytes, tag } => MicroOp::Send { dst, bytes, tag },
            MpiOp::Isend { dst, bytes, tag } => MicroOp::Isend { dst, bytes, tag },
            MpiOp::Recv { src, tag } => MicroOp::Recv { src, tag },
            MpiOp::Irecv { src, tag } => MicroOp::Irecv { src, tag },
            MpiOp::WaitAll => MicroOp::WaitAll,
            #[expect(
                clippy::unreachable,
                reason = "the `is_collective` branch above returned early for every collective op, so only point-to-point ops reach this match"
            )]
            _ => unreachable!("collectives handled above"),
        };
        self.rank_mut(app, rank).stack.push(micro);
    }

    /// Issue a send request and hand the message (or its RTS) to the
    /// network. Returns the request id.
    #[expect(
        clippy::too_many_arguments,
        reason = "the event-handler context (sched, net, rec) rides along with the four message fields"
    )]
    fn do_send<S: WorldSched>(
        &mut self,
        app: AppId,
        rank: u32,
        dst: u32,
        bytes: u64,
        tag: Tag,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) -> u32 {
        let a = self.app_mut(app);
        let src_node = a.nodes[rank as usize];
        let dst_node = a.nodes[dst as usize];
        let state = &mut a.ranks[rank as usize];
        let req = state.reqs.issue();
        state.burst += bytes;
        if bytes <= self.cfg.eager_threshold {
            let msg = net.send_message(sched, rec, src_node, dst_node, bytes, app);
            self.set_meta(
                msg,
                MsgMeta::EagerData { app, src_rank: rank, dst_rank: dst, tag, send_req: req },
            );
        } else {
            let msg = net.send_message(sched, rec, src_node, dst_node, 0, app);
            self.set_meta(
                msg,
                MsgMeta::Rts { app, src_rank: rank, dst_rank: dst, tag, bytes, send_req: req },
            );
        }
        req
    }

    /// Post a receive; may complete immediately against an unexpected eager
    /// message, or trigger the CTS of a queued RTS.
    #[expect(
        clippy::too_many_arguments,
        reason = "the event-handler context (sched, net, rec) rides along with the receive's match fields"
    )]
    fn do_recv<S: WorldSched>(
        &mut self,
        app: AppId,
        rank: u32,
        src: Option<u32>,
        tag: Tag,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) -> u32 {
        let state = self.rank_mut(app, rank);
        let req = state.reqs.issue();
        match state.match_q.post(PostedRecv { src, tag, req }) {
            None => {}
            Some(Unexpected { kind: UnexpectedKind::Eager, .. }) => {
                // Data already buffered locally: complete at once.
                state.reqs.complete(req);
            }
            Some(Unexpected {
                src: rts_src,
                kind: UnexpectedKind::Rts { sender_node, send_req, bytes },
                ..
            }) => {
                state.reqs.mark_matched(req);
                self.send_cts(
                    app,
                    rts_src,
                    sender_node,
                    send_req,
                    rank,
                    req,
                    bytes,
                    sched,
                    net,
                    rec,
                );
            }
        }
        req
    }

    /// Send the rendezvous clear-to-send back to the data's sender.
    #[expect(
        clippy::too_many_arguments,
        reason = "a CTS names both ends of the rendezvous plus the event-handler context (sched, net, rec)"
    )]
    fn send_cts<S: WorldSched>(
        &mut self,
        app: AppId,
        sender_rank: u32,
        sender_node: NodeId,
        send_req: u32,
        recv_rank: u32,
        recv_req: u32,
        bytes: u64,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        let my_node = self.app_mut(app).nodes[recv_rank as usize];
        let msg = net.send_message(sched, rec, my_node, sender_node, 0, app);
        self.set_meta(msg, MsgMeta::Cts { app, sender_rank, send_req, recv_rank, recv_req, bytes });
    }

    /// Record the rank's accumulated ingress burst (peak-ingress metric).
    fn flush_burst(&mut self, app: AppId, rank: u32, rec: &mut Recorder) {
        let state = self.rank_mut(app, rank);
        let burst = std::mem::take(&mut state.burst);
        if burst > 0 {
            rec.ingress_burst(app, burst);
        }
    }

    /// Complete a request and wake its rank if the block condition cleared.
    fn complete_req<S: WorldSched>(
        &mut self,
        app: AppId,
        rank: u32,
        req: u32,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        let t = now(sched);
        let state = self.rank_mut(app, rank);
        if !state.reqs.complete(req) {
            return;
        }
        let wake = match state.blocked {
            Some(Block::Req(r)) => r == req,
            Some(Block::AllReqs) => state.reqs.outstanding() == 0,
            _ => false,
        };
        if !wake {
            return;
        }
        state.comm_time += t - state.blocked_since;
        state.blocked = None;
        if state.finishing && state.stack.is_empty() && state.reqs.outstanding() == 0 {
            self.finish_rank(app, rank, t, rec);
            return;
        }
        self.advance(app, rank, sched, net, rec);
    }

    fn finish_rank(&mut self, app: AppId, rank: u32, t: Time, rec: &mut Recorder) {
        let a = self.app_mut(app);
        let state = &mut a.ranks[rank as usize];
        debug_assert!(state.finished_at.is_none());
        state.finished_at = Some(t);
        rec.rank_finished(app, rank, state.comm_time, t);
        a.unfinished -= 1;
        if a.unfinished == 0 {
            a.finished_at = Some(t);
            self.newly_finished.push(app);
        }
    }

    fn on_injected<S: WorldSched>(
        &mut self,
        msg: MessageId,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        let Some(meta) = self.meta.get(msg.idx()).copied().flatten() else {
            return;
        };
        match meta {
            MsgMeta::EagerData { app, src_rank, send_req, .. }
            | MsgMeta::RdvData { app, src_rank, send_req, .. } => {
                // Local completion: the sender's buffer is reusable.
                self.complete_req(app, src_rank, send_req, sched, net, rec);
            }
            MsgMeta::Rts { .. } | MsgMeta::Cts { .. } => {}
        }
    }

    fn on_delivered<S: WorldSched>(
        &mut self,
        msg: MessageId,
        sched: &mut S,
        net: &mut NetworkSim,
        rec: &mut Recorder,
    ) {
        // The Delivered effect is a message's last act. Take the metadata
        // first, then recycle the network slab slot, so any follow-up send
        // below (CTS, rendezvous payload) may reuse the id without clashing
        // with the entry being processed. Foreign messages (tagged ids,
        // partitioned runs) resolve against the imported-meta table; the
        // release routes a notice back to the origin shard.
        let meta = if partition::is_tagged(msg.0) {
            self.foreign_meta.remove(&msg.0)
        } else {
            self.meta.get_mut(msg.idx()).and_then(Option::take)
        };
        net.release_message(msg);
        let Some(meta) = meta else {
            return;
        };
        match meta {
            MsgMeta::EagerData { app, src_rank, dst_rank, tag, .. } => {
                let state = self.rank_mut(app, dst_rank);
                if let Some(recv) = state.match_q.arrive(Unexpected {
                    src: src_rank,
                    tag,
                    kind: UnexpectedKind::Eager,
                }) {
                    self.complete_req(app, dst_rank, recv.req, sched, net, rec);
                }
            }
            MsgMeta::Rts { app, src_rank, dst_rank, tag, bytes, send_req } => {
                let sender_node = self.app_mut(app).nodes[src_rank as usize];
                let state = self.rank_mut(app, dst_rank);
                if let Some(recv) = state.match_q.arrive(Unexpected {
                    src: src_rank,
                    tag,
                    kind: UnexpectedKind::Rts { sender_node, send_req, bytes },
                }) {
                    state.reqs.mark_matched(recv.req);
                    self.send_cts(
                        app,
                        src_rank,
                        sender_node,
                        send_req,
                        dst_rank,
                        recv.req,
                        bytes,
                        sched,
                        net,
                        rec,
                    );
                }
            }
            MsgMeta::Cts { app, sender_rank, send_req, recv_rank, recv_req, bytes } => {
                // The receiver is ready: ship the payload.
                let a = self.app_mut(app);
                let src_node = a.nodes[sender_rank as usize];
                let dst_node = a.nodes[recv_rank as usize];
                let data = net.send_message(sched, rec, src_node, dst_node, bytes, app);
                self.set_meta(
                    data,
                    MsgMeta::RdvData {
                        app,
                        src_rank: sender_rank,
                        dst_rank: recv_rank,
                        recv_req,
                        send_req,
                    },
                );
            }
            MsgMeta::RdvData { app, dst_rank, recv_req, .. } => {
                self.complete_req(app, dst_rank, recv_req, sched, net, rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_des::queue::PendingEvents;
    use dfsim_des::{EventQueue, SimRng};
    use dfsim_metrics::RecorderConfig;
    use dfsim_network::{RoutingAlgo, RoutingConfig};
    use dfsim_topology::{DragonflyParams, LinkTiming, Topology};

    /// World event + scheduler for driving MPI + network together in tests
    /// (mirrors what dfsim-core does).
    #[derive(Debug)]
    enum WE {
        Net(NetEvent),
        Mpi(MpiEvent),
    }

    struct WS<'a> {
        q: &'a mut EventQueue<WE>,
    }
    impl Scheduler<NetEvent> for WS<'_> {
        fn now(&self) -> Time {
            self.q.now()
        }
        fn at(&mut self, t: Time, e: NetEvent) {
            self.q.push(t, WE::Net(e));
        }
    }
    impl Scheduler<MpiEvent> for WS<'_> {
        fn now(&self) -> Time {
            self.q.now()
        }
        fn at(&mut self, t: Time, e: MpiEvent) {
            self.q.push(t, WE::Mpi(e));
        }
    }

    struct World {
        mpi: MpiSim,
        net: NetworkSim,
        rec: Recorder,
        q: EventQueue<WE>,
    }

    impl World {
        fn new() -> Self {
            let topo = std::sync::Arc::new(Topology::new(DragonflyParams::tiny_72()).unwrap());
            let rec = Recorder::new(&topo, RecorderConfig::default());
            let net = NetworkSim::new(
                topo,
                LinkTiming::default(),
                RoutingConfig::new(RoutingAlgo::UgalG),
                &SimRng::new(5),
            );
            Self { mpi: MpiSim::default(), net, rec, q: EventQueue::new() }
        }

        fn run(&mut self) -> Time {
            {
                let mut s = WS { q: &mut self.q };
                self.mpi.start(&mut s, &mut self.net, &mut self.rec);
            }
            let mut effects = Vec::new();
            let mut steps = 0u64;
            while let Some((t, ev)) = self.q.pop() {
                let mut s = WS { q: &mut self.q };
                match ev {
                    WE::Net(e) => {
                        self.net.handle(e, &mut s, &mut self.rec, &mut effects);
                        for eff in effects.drain(..) {
                            let mut s = WS { q: &mut self.q };
                            self.mpi.on_net_effect(eff, &mut s, &mut self.net, &mut self.rec);
                        }
                    }
                    WE::Mpi(e) => self.mpi.handle(e, &mut s, &mut self.net, &mut self.rec),
                }
                steps += 1;
                assert!(steps < 50_000_000, "runaway");
                if steps.is_multiple_of(1024) && self.mpi.all_finished() {
                    break;
                }
                let _ = t;
            }
            // Drain any remaining events (e.g. credits) so time settles.
            self.q.now()
        }
    }

    fn prog(ops: Vec<MpiOp>) -> Box<dyn RankProgram> {
        Box::new(ops.into_iter())
    }

    #[test]
    fn ping_pong_completes_with_comm_time() {
        let mut w = World::new();
        // Rank 0 on node 0, rank 1 on node 40 (different group).
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(40)],
            vec![
                prog(vec![
                    MpiOp::Send { dst: 1, bytes: 4096, tag: 1 },
                    MpiOp::Recv { src: Some(1), tag: 2 },
                ]),
                prog(vec![
                    MpiOp::Recv { src: Some(0), tag: 1 },
                    MpiOp::Send { dst: 0, bytes: 4096, tag: 2 },
                ]),
            ],
            vec![],
        );
        w.run();
        assert!(w.mpi.all_finished());
        let t = w.mpi.app_finished_at(AppId(0)).unwrap();
        assert!(t > 0);
        let comm = w.mpi.comm_times(AppId(0));
        assert!(comm[0] > 0, "rank 0 must have blocked on recv");
        assert!(comm[1] > 0, "rank 1 must have blocked on recv");
    }

    #[test]
    fn rendezvous_path_for_large_messages() {
        let mut w = World::new();
        let big = 1 << 20; // 1 MiB ≫ eager threshold
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(71)],
            vec![
                prog(vec![MpiOp::Send { dst: 1, bytes: big, tag: 9 }]),
                prog(vec![MpiOp::Recv { src: Some(0), tag: 9 }]),
            ],
            vec![],
        );
        w.run();
        assert!(w.mpi.all_finished());
        // Wire bytes = RTS (64) + CTS (64) + payload.
        let app = w.rec.app(AppId(0)).unwrap();
        assert_eq!(app.delivered.total(), 64 + 64 + big);
    }

    #[test]
    fn unexpected_messages_buffer_until_recv_posted() {
        let mut w = World::new();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(30)],
            vec![
                prog(vec![MpiOp::Send { dst: 1, bytes: 512, tag: 5 }]),
                prog(vec![
                    // Receiver computes first: the eager payload arrives
                    // unexpected, then matches instantly.
                    MpiOp::Compute(5_000_000), // 5 µs
                    MpiOp::Recv { src: Some(0), tag: 5 },
                ]),
            ],
            vec![],
        );
        w.run();
        assert!(w.mpi.all_finished());
        let comm = w.mpi.comm_times(AppId(0));
        // The receive matched a buffered message: near-zero block time.
        assert!(comm[1] < 1_000_000, "recv should complete instantly, took {}", comm[1]);
    }

    #[test]
    fn alltoall_over_subcommunicator() {
        let mut w = World::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| NodeId(i * 10)).collect();
        let programs = (0..6)
            .map(|_| prog(vec![MpiOp::AllToAll { comm: crate::op::CommId(1), bytes: 2048 }]))
            .collect();
        // Sub-communicator: ranks {0, 2, 4}.
        w.mpi.add_app(AppId(0), nodes, programs, vec![vec![0, 2, 4]]);
        w.run();
        assert!(w.mpi.all_finished());
        // 3 members × 2 peers × 2048 B.
        let app = w.rec.app(AppId(0)).unwrap();
        assert_eq!(app.delivered.total(), 3 * 2 * 2048);
    }

    #[test]
    fn allreduce_world_synchronizes_all_ranks() {
        let mut w = World::new();
        let n = 9u32;
        let nodes: Vec<NodeId> = (0..n).map(|i| NodeId(i * 7)).collect();
        let programs = (0..n)
            .map(|_| {
                prog(vec![
                    MpiOp::AllReduce { comm: crate::op::CommId(0), bytes: 8192 },
                    MpiOp::Compute(1_000),
                    MpiOp::AllReduce { comm: crate::op::CommId(0), bytes: 8192 },
                ])
            })
            .collect();
        w.mpi.add_app(AppId(0), nodes, programs, vec![]);
        w.run();
        assert!(w.mpi.all_finished());
        // Tree edges: n−1 = 8, up + down, twice: 4 × 8 messages of 8 KiB.
        let app = w.rec.app(AppId(0)).unwrap();
        assert_eq!(app.delivered.total(), 4 * 8 * 8192);
    }

    #[test]
    fn barrier_finishes_and_moves_only_control_bytes() {
        let mut w = World::new();
        let nodes: Vec<NodeId> = (0..5).map(|i| NodeId(i + 1)).collect();
        let programs =
            (0..5).map(|_| prog(vec![MpiOp::Barrier { comm: crate::op::CommId(0) }])).collect();
        w.mpi.add_app(AppId(0), nodes, programs, vec![]);
        w.run();
        assert!(w.mpi.all_finished());
        let app = w.rec.app(AppId(0)).unwrap();
        // 4 edges × 2 phases × 64 B control packets.
        assert_eq!(app.delivered.total(), 8 * 64);
    }

    #[test]
    fn two_apps_are_isolated() {
        let mut w = World::new();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(20)],
            vec![
                prog(vec![MpiOp::Send { dst: 1, bytes: 1024, tag: 1 }]),
                prog(vec![MpiOp::Recv { src: Some(0), tag: 1 }]),
            ],
            vec![],
        );
        w.mpi.add_app(
            AppId(1),
            vec![NodeId(1), NodeId(21)],
            vec![
                prog(vec![MpiOp::Send { dst: 1, bytes: 2048, tag: 1 }]),
                prog(vec![MpiOp::Recv { src: Some(0), tag: 1 }]),
            ],
            vec![],
        );
        w.run();
        assert!(w.mpi.all_finished());
        assert_eq!(w.rec.app(AppId(0)).unwrap().delivered.total(), 1024);
        assert_eq!(w.rec.app(AppId(1)).unwrap().delivered.total(), 2048);
    }

    #[test]
    fn wildcard_recv_accepts_any_source() {
        let mut w = World::new();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(10), NodeId(50)],
            vec![
                prog(vec![
                    MpiOp::Irecv { src: None, tag: 3 },
                    MpiOp::Irecv { src: None, tag: 3 },
                    MpiOp::WaitAll,
                ]),
                prog(vec![MpiOp::Send { dst: 0, bytes: 256, tag: 3 }]),
                prog(vec![MpiOp::Send { dst: 0, bytes: 256, tag: 3 }]),
            ],
            vec![],
        );
        w.run();
        assert!(w.mpi.all_finished());
    }

    #[test]
    fn ingress_bursts_record_peak_volume() {
        let mut w = World::new();
        // Rank 0 posts 4 sends back-to-back before waiting: burst = 4 × 1 KiB.
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(30)],
            vec![
                prog(vec![
                    MpiOp::Isend { dst: 1, bytes: 1024, tag: 1 },
                    MpiOp::Isend { dst: 1, bytes: 1024, tag: 2 },
                    MpiOp::Isend { dst: 1, bytes: 1024, tag: 3 },
                    MpiOp::Isend { dst: 1, bytes: 1024, tag: 4 },
                    MpiOp::WaitAll,
                ]),
                prog(vec![
                    MpiOp::Irecv { src: Some(0), tag: 1 },
                    MpiOp::Irecv { src: Some(0), tag: 2 },
                    MpiOp::Irecv { src: Some(0), tag: 3 },
                    MpiOp::Irecv { src: Some(0), tag: 4 },
                    MpiOp::WaitAll,
                ]),
            ],
            vec![],
        );
        w.run();
        assert_eq!(w.rec.app(AppId(0)).unwrap().max_ingress_burst, 4096);
    }

    #[test]
    fn self_send_through_loopback() {
        let mut w = World::new();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(3)],
            vec![prog(vec![
                MpiOp::Isend { dst: 0, bytes: 512, tag: 1 },
                MpiOp::Recv { src: Some(0), tag: 1 },
                MpiOp::WaitAll,
            ])],
            vec![],
        );
        w.run();
        assert!(w.mpi.all_finished());
    }

    /// One metadata record of every kind, with fields drawn from `x`.
    fn sample_metas(x: u64) -> [MsgMeta; 4] {
        let (app, r) = (AppId(x as u16), x as u32);
        [
            MsgMeta::EagerData { app, src_rank: r, dst_rank: r ^ 1, tag: x, send_req: 3 },
            MsgMeta::Rts { app, src_rank: r, dst_rank: 2, tag: x, bytes: x << 3, send_req: 4 },
            MsgMeta::Cts { app, sender_rank: r, send_req: 5, recv_rank: 6, recv_req: 7, bytes: x },
            MsgMeta::RdvData { app, src_rank: r, dst_rank: 8, recv_req: 9, send_req: 10 },
        ]
    }

    /// The wire form of `meta`, as `export_meta` writes it.
    fn encoded(meta: MsgMeta) -> Vec<u8> {
        let mut sim = MpiSim::default();
        sim.set_meta(MessageId(0), meta);
        sim.export_meta(MessageId(0))
    }

    /// Import `bytes` as the metadata of a foreign message on a fresh engine.
    fn import(bytes: &[u8]) -> Result<(), WireError> {
        MpiSim::default().import_meta(partition::tag_msg(1, 0), bytes)
    }

    #[test]
    fn bad_meta_tag_is_a_named_error() {
        let mut b = encoded(sample_metas(1)[0]);
        assert!(import(&b).is_ok());
        b[0] = 9;
        match import(&b) {
            Err(WireError::Malformed { msg, .. }) => assert!(msg.contains("meta tag 9"), "{msg}"),
            other => panic!("expected a malformed meta tag, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes import as metadata or fail as a named error,
        /// never a panic.
        #[test]
        fn import_meta_of_arbitrary_bytes_is_ok_or_named(
            bytes in proptest::prop::collection::vec(0u8..=255, 0..48),
        ) {
            let _ = import(&bytes);
        }

        /// Every proper prefix of a valid record is `Truncated`, and a byte
        /// past its end is a named error too.
        #[test]
        fn every_truncation_of_a_meta_record_is_named(x in 0u64..1_000_000) {
            for meta in sample_metas(x) {
                let mut full = encoded(meta);
                for cut in 0..full.len() {
                    let r = import(&full[..cut]);
                    proptest::prop_assert!(
                        matches!(r, Err(WireError::Truncated { .. })),
                        "cut {cut}: {r:?}"
                    );
                }
                proptest::prop_assert!(import(&full).is_ok());
                full.push(0);
                proptest::prop_assert!(matches!(import(&full), Err(WireError::Malformed { .. })));
            }
        }
    }
}
