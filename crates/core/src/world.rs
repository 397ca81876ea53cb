//! The world: network, MPI and metrics state plus the one event queue that
//! feeds them — the state of one shard of the window loop in
//! [`crate::partition`], which runs every simulation (one shard when
//! `threads <= 1`).
//!
//! The queue backend is a type parameter (defaulting to the radix heap),
//! selected at runtime from [`crate::config::SimConfig::queue`] — the
//! event-queue ablation runs the real hot path, not a synthetic harness.
//! Both backends realize the identical deterministic `(time, seq)` total
//! order, so a run's report is invariant under the backend choice (the
//! `backend_equivalence` integration test pins this).
//!
//! On a multi-partition run the queue also carries the canonical-key state
//! (`PartKeys`): window pushes are logged for the barrier merge and
//! boundary pushes diverted to per-peer buffers; cut pushes get final
//! admission-slot keys. On one partition it is `None` and every push is a
//! plain auto-sequenced push.
//!
//! The network arrives whole: [`dfsim_network::NetworkSim::shard`] gives it
//! the partition map, its shard index and the run's verified warm-start
//! snapshot at construction, so one partition is the one-partition map, not
//! a network set up differently afterwards.

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

use std::sync::Arc;

use dfsim_des::queue::{PendingEvents, SimQueue};
use dfsim_des::{EventQueue, JobEvent, QueueBackend, Scheduler, Time};
use dfsim_metrics::{AppId, Recorder};
use dfsim_mpi::{MpiEvent, MpiSim};
use dfsim_network::{NetEffect, NetEvent, NetworkSim, PartitionMap};

use crate::partition::{Dispatch, LogEntry, SEG_SHIFT, SLOT_SHIFT};

/// The union of all event types in a simulation.
#[derive(Debug)]
pub enum WorldEvent {
    /// A network event.
    Net(NetEvent),
    /// An MPI event.
    Mpi(MpiEvent),
    /// Never scheduled; `benchmark/benches/spans.rs` matches on it until
    /// ROADMAP item 5.
    Job(JobEvent),
}

/// The default (radix-heap) world queue backend.
pub type DefaultBackend = EventQueue<WorldEvent>;

/// A window push bound for another shard: held back until the barrier, then
/// shipped with its push-log index so the receiver can key it with the
/// merged rank.
#[derive(Debug)]
pub(crate) struct BoundaryPush {
    pub(crate) j: u32,
    pub(crate) time: Time,
    pub(crate) ev: NetEvent,
}

/// The canonical-key state of one shard of a multi-partition run.
#[derive(Debug)]
pub(crate) struct PartKeys {
    map: Arc<PartitionMap>,
    me: usize,
    lookahead: Time,
    cut: bool,
    pub(crate) seg: u64,
    slot: u64,
    slot_idx: u64,
    pub(crate) cur_dispatch: Dispatch,
    pub(crate) log: Vec<LogEntry>,
    pub(crate) boundary: Vec<Vec<BoundaryPush>>,
}

impl PartKeys {
    /// Keys of shard `me` of `map`; the run starts in the init cut
    /// (segment 0).
    fn new(map: Arc<PartitionMap>, me: usize, lookahead: Time) -> Self {
        let parts = map.parts();
        Self {
            map,
            me,
            lookahead,
            cut: true,
            seg: 0,
            slot: 0,
            slot_idx: 0,
            cur_dispatch: Dispatch::True { t: 0, seq: 0 },
            log: Vec::new(),
            boundary: (0..parts).map(|_| Vec::new()).collect(),
        }
    }

    /// Log a window push at `time`, returning its push-log index.
    fn log_push(&mut self, time: Time) -> u32 {
        let j = self.log.len() as u32;
        self.log.push(LogEntry { time, dispatch: self.cur_dispatch });
        j
    }

    /// Key a shard-local push: a final admission-slot key in cut phase, a
    /// provisional push-log key in window phase.
    fn push_local<Q: PendingEvents<WorldEvent>>(&mut self, q: &mut Q, time: Time, ev: WorldEvent) {
        if self.cut {
            debug_assert!(self.slot_idx < 1 << SLOT_SHIFT, "cut slot overflow");
            let seq = (self.seg << SEG_SHIFT) | (self.slot << SLOT_SHIFT) | self.slot_idx;
            self.slot_idx += 1;
            q.push_seq(time, seq, ev);
        } else {
            let j = self.log_push(time);
            q.push_seq(time, (self.seg << SEG_SHIFT) | j as u64, ev);
        }
    }

    /// A network push: held for its owner's shard when another shard owns
    /// it, keyed locally otherwise.
    fn push_net<Q: PendingEvents<WorldEvent>>(&mut self, q: &mut Q, time: Time, ev: NetEvent) {
        match self.map.owner_of(&ev) {
            Some(p) if p != self.me => {
                debug_assert!(!self.cut, "cut-phase pushes must be shard-local");
                debug_assert!(
                    time >= q.now().saturating_add(self.lookahead),
                    "boundary event under the conservative lookahead"
                );
                let j = self.log_push(time);
                self.boundary[p].push(BoundaryPush { j, time, ev });
            }
            _ => self.push_local(q, time, WorldEvent::Net(ev)),
        }
    }
}

/// The world queue: lifts network and MPI events into [`WorldEvent`] and
/// satisfies both scheduler contracts at once (what [`dfsim_mpi::WorldSched`]
/// requires), over any [`PendingEvents`] backend.
#[derive(Debug)]
pub struct WorldQueue<Q = DefaultBackend> {
    pub(crate) q: Q,
    /// Canonical-key state (`None` on a single-partition run).
    pub(crate) part: Option<PartKeys>,
}

impl<Q: PendingEvents<WorldEvent>> WorldQueue<Q> {
    /// Pop the earliest event. No product caller; `benchmark/benches/spans.rs`
    /// drives its own loop with it until ROADMAP item 5.
    pub fn pop(&mut self) -> Option<(Time, WorldEvent)> {
        self.q.pop()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.q.now()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// Enter the next window segment.
    pub(crate) fn begin_window(&mut self) {
        if let Some(k) = &mut self.part {
            k.seg += 1;
            debug_assert!(k.seg < 1 << (64 - SEG_SHIFT), "segment counter overflow");
            debug_assert!(k.log.is_empty(), "push log not drained at the barrier");
            k.cut = false;
        }
    }

    /// Enter the next cut segment (barrier-time admissions).
    pub(crate) fn begin_cut(&mut self) {
        if let Some(k) = &mut self.part {
            k.seg += 1;
            k.cut = true;
            k.slot = 0;
            k.slot_idx = 0;
        }
    }

    /// Advance to the next admission slot — called once per *global* rank
    /// start in the canonical order, on every shard, so slot numbers agree
    /// across shards without communication.
    pub(crate) fn next_slot(&mut self) {
        if let Some(k) = &mut self.part {
            debug_assert!(k.cut, "admission slots only exist in cut phase");
            k.slot += 1;
            k.slot_idx = 0;
        }
    }

    /// The canonical key stamped on recorder entries produced by the
    /// current admission slot (a rank finishing synchronously at start).
    fn cut_key(&self) -> Option<(Time, u64)> {
        self.part.as_ref().map(|k| (self.q.now(), (k.seg << SEG_SHIFT) | (k.slot << SLOT_SHIFT)))
    }
}

impl<Q: PendingEvents<WorldEvent>> Scheduler<NetEvent> for WorldQueue<Q> {
    fn now(&self) -> Time {
        self.q.now()
    }
    fn at(&mut self, time: Time, event: NetEvent) {
        match &mut self.part {
            None => self.q.push(time, WorldEvent::Net(event)),
            Some(k) => k.push_net(&mut self.q, time, event),
        }
    }
}

impl<Q: PendingEvents<WorldEvent>> Scheduler<MpiEvent> for WorldQueue<Q> {
    fn now(&self) -> Time {
        self.q.now()
    }
    fn at(&mut self, time: Time, event: MpiEvent) {
        match &mut self.part {
            None => self.q.push(time, WorldEvent::Mpi(event)),
            // MPI events live on the rank's own node: always shard-local.
            Some(k) => k.push_local(&mut self.q, time, WorldEvent::Mpi(event)),
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every application rank finished.
    AllFinished,
    /// The simulated-time horizon was exceeded.
    Horizon,
    /// The event cap was reached (runaway guard), checked at window
    /// barriers.
    EventCap,
    /// The queue drained without completion (a stuck workload — indicates
    /// a matching bug in an app program).
    Drained,
}

/// The state of one simulation shard, generic over the event-queue backend.
pub struct World<Q = DefaultBackend> {
    /// The network model.
    pub net: NetworkSim,
    /// The MPI engine.
    pub mpi: MpiSim,
    /// The metrics sink.
    pub rec: Recorder,
    /// The event queue.
    pub queue: WorldQueue<Q>,
    /// Scratch buffer for network effects.
    effects: Vec<NetEffect>,
}

impl<Q: SimQueue<WorldEvent>> World<Q> {
    /// Assemble a world on `backend`'s tuning (kind must match `Q`); a shard
    /// of a multi-partition network gets its canonical-key state here.
    pub fn with_backend(
        net: NetworkSim,
        mpi: MpiSim,
        rec: Recorder,
        backend: QueueBackend,
    ) -> Self {
        let map = net.partition_map();
        let part = (map.parts() > 1).then(|| {
            PartKeys::new(Arc::clone(map), net.shard_index(), net.timing().global_latency_ps)
        });
        let queue = WorldQueue { q: Q::for_backend(backend), part };
        Self { net, mpi, rec, queue, effects: Vec::new() }
    }
}

impl<Q: PendingEvents<WorldEvent>> World<Q> {
    /// Start `rank` of a registered `app` in the current admission slot.
    pub(crate) fn start_rank(&mut self, app: AppId, rank: u32) {
        if let Some((t, seq)) = self.queue.cut_key() {
            self.rec.set_key(t, seq);
        }
        self.mpi.start_rank(app, rank, &mut self.queue, &mut self.net, &mut self.rec);
    }

    /// Dispatch one popped event into the sub-models, including the ordered
    /// network-effect drain that the backend-equivalence guarantee rides on.
    #[inline]
    pub(crate) fn dispatch(&mut self, ev: WorldEvent) {
        let Self { net, mpi, rec, queue, effects } = self;
        match ev {
            WorldEvent::Net(e) => {
                net.handle(e, queue, rec, effects);
                if !effects.is_empty() {
                    for eff in effects.drain(..) {
                        mpi.on_net_effect(eff, queue, net, rec);
                    }
                }
            }
            WorldEvent::Mpi(e) => mpi.handle(e, queue, net, rec),
            // Nothing can push one: the queue only schedules network and
            // MPI events.
            WorldEvent::Job(_) => {}
        }
    }
}
