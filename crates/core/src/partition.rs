//! The simulation loop: group-sharded dragonfly with conservative lookahead
//! windows, on one shard or many.
//!
//! The dragonfly is sharded **by group** across worker threads
//! ([`dfsim_network::PartitionMap`]). Each shard owns the routers, NICs and
//! application ranks of its groups and drives its own pending-event set
//! (any [`SimQueue`] backend); the only traffic between shards is boundary
//! events crossing a **global** link, which carry at least
//! `LinkTiming::global_latency_ps` of delay. That minimum is the
//! conservative lookahead `L`: in lockstep windows `[S, S+L)` every shard
//! can safely process all of its local events, because anything a peer
//! schedules into its territory during the window lands at or beyond the
//! window end. Boundary events, MPI message metadata and completion notices
//! are exchanged through a [`SimCommunicator`] at every window barrier.
//!
//! # Determinism
//!
//! Reports must be **bit-identical** at every partition count, 1 included
//! (the `partition_equivalence` suite pins this). Three mechanisms make that
//! hold:
//!
//! * **Canonical sequence keys.** Every event gets a `(time, seq)` key with
//!   `seq = segment << 40 | value`; segments alternate window/cut phases
//!   globally, so keys are totally ordered across phases. Window pushes get
//!   a provisional per-shard key and are renumbered at the barrier by a
//!   P-way merge of the per-shard push logs into the *global push order*
//!   ([`merge_ranks`]); cut pushes (job admissions at barriers) are keyed
//!   by their deterministic admission slot directly. The resulting key
//!   order is isomorphic to a single shard's push order, and since no
//!   report field contains a raw key, order-isomorphism is enough for
//!   bit-identical output.
//! * **Keyed metric journal, folded at every barrier.** The only
//!   order-sensitive metrics (the Q-learning trace's float accumulation and
//!   `rank_comm` push order) are journaled with the key of the producing
//!   event ([`Recorder::drain_keyed`]). At every barrier each peer ships its
//!   window's entries to shard 0, which renumbers their keys, merges them
//!   with its own in global key order and folds them into its recorder
//!   ([`Recorder::replay_keyed`]). No shard keeps an entry past the barrier
//!   of its window, so the journal's memory is one window, not the run.
//!   Everything else merges commutatively at assembly.
//! * **Canonical stop keys.** "All ranks finished" is detected at barriers
//!   from exchanged completion notices; the stop time is the **maximum
//!   finish key** `K`, pops after `K` in the final window are subtracted
//!   from the event count, their keyed entries are dropped from shard 0's
//!   final fold, and their Q-table updates are rolled back
//!   ([`NetworkSim::q_undo_revert_after`]),
//!   so the final state equals a single shard's, which stops *at* `K`. The
//!   Q-undo journal holds the current window only: every barrier the run
//!   continues past clears it. That is enough because the stop is decided
//!   at the first barrier that sees every rank finished, which closes the
//!   window containing `K`; every update of an earlier window carries a key
//!   before that window's start, hence before `K`, and is never undone.
//!
//! Two stop conditions are intentionally **barrier-granular** at every
//! partition count including 1, as cross-count bit-identity requires: the
//! event cap is checked at barriers, and churn node reclaim/admission after
//! a job completion happens at the next barrier (arrival-driven admissions
//! stay time-exact because windows are cut at arrival times).
//!
//! This is the only world loop, and every run is a scenario: a static run's
//! jobs arrive at t = 0 pinned to the nodes [`place`] chose, a churn run's
//! at their arrival times. It runs at `max(threads, 1)` partitions. A
//! single shard skips the exchange, the push logs and the keyed journal
//! (its recorder aggregates directly), and sees completions the moment
//! they happen, including those of ranks that finish as they are admitted.
//!
//! Each shard builds its network whole with [`NetworkSim::shard`]: the
//! map, its index and the session's verified warm-start snapshot, one
//! in-memory copy shared by every shard (this module never opens a Q-table
//! file). The network turns its Q-undo journal on exactly when the map has
//! more than one partition under Q-adaptive routing.

#![expect(
    clippy::disallowed_types,
    reason = "run-cost accounting: `wall_s` times the run on the host clock; it never feeds simulation state"
)]
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

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dfsim_des::queue::SimQueue;
use dfsim_des::{
    local_mesh, CalendarQueue, EventQueue, JobId, LocalThreadCommunicator, QueueKind,
    SimCommunicator, SimRng, Time, WireReader, WireWriter,
};
use dfsim_metrics::{
    read_trace, AppId, EventSink, KeyedEntry, KeyedKind, Recorder, TraceEvent, TraceWriter,
};
use dfsim_mpi::sim::MpiConfig;
use dfsim_mpi::MpiSim;
use dfsim_network::partition::{decode_event, encode_event, origin_of, IDX_MASK};
use dfsim_network::{MessageId, MsgExport, NetEvent, NetworkSim, PartitionMap, QTableSnapshot};
use dfsim_topology::{NodeId, Topology};

use crate::config::SimConfig;
use crate::placement::{place, Placement};
use crate::report::{JobReport, RunReport};
use crate::runner::{build_report, JobSpec};
use crate::scenario::{Arrival, JobTable, Scenario, SchedPolicy};
use crate::world::{PartKeys, StopReason, World, WorldEvent};

/// Bits of a sequence key below the segment field.
pub(crate) const SEG_SHIFT: u32 = 40;
/// Mask of the per-segment value field.
pub(crate) const VAL_MASK: u64 = (1 << SEG_SHIFT) - 1;
/// Cut keys subdivide the value field into admission slot and push index.
pub(crate) const SLOT_SHIFT: u32 = 20;

/// Per-shard temporary trace path of a multi-partition run: the final path
/// plus a `.part<p>` suffix. Shard 0 also streams the folded keyed events
/// into `.part<P>`, one past the last shard. The temporaries are spliced
/// into the final file in suffix order (and deleted) at assembly.
fn shard_trace_path(path: &Path, p: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".part{p}"));
    PathBuf::from(os)
}

/// Create a shard's trace stream at `path`.
#[expect(
    clippy::panic,
    reason = "shard workers have no error channel back to the driver; failing to open a trace file must abort the run loudly rather than silently drop the trace"
)]
fn create_trace(path: &Path) -> TraceWriter {
    TraceWriter::create(path).unwrap_or_else(|e| panic!("{e}"))
}

/// Encode one window's keyed entries for shard 0's fold, with their
/// provisional keys. A Q1 update's timestamp is its event's time, so it
/// travels as `(time, seq, delta)`; a rank finish as `(time, seq, app, rank,
/// comm, exec)`.
fn put_keyed(w: &mut WireWriter, entries: &[KeyedEntry]) {
    w.u32(entries.len() as u32);
    for e in entries {
        w.u64(e.time);
        w.u64(e.seq);
        match e.kind {
            KeyedKind::Q1Update { t, delta_ps } => {
                debug_assert_eq!(t, e.time, "a Q1 update is stamped with its event's time");
                w.u8(0);
                w.f64(delta_ps);
            }
            KeyedKind::RankFinished { app, rank, comm, exec } => {
                w.u8(1);
                w.u16(app.0);
                w.u32(rank);
                w.u64(comm);
                w.u64(exec);
            }
        }
    }
}

/// Decode a [`put_keyed`] section onto `out`.
fn get_keyed(r: &mut WireReader, out: &mut Vec<KeyedEntry>) {
    let n = r.u32() as usize;
    out.reserve(n);
    for _ in 0..n {
        let (time, seq) = (r.u64(), r.u64());
        let kind = match r.u8() {
            0 => KeyedKind::Q1Update { t: time, delta_ps: r.f64() },
            _ => KeyedKind::RankFinished {
                app: AppId(r.u16()),
                rank: r.u32(),
                comm: r.u64(),
                exec: r.u64(),
            },
        };
        out.push(KeyedEntry { time, seq, kind });
    }
}

/// The trace event a keyed entry stands for.
fn keyed_trace_event(kind: &KeyedKind) -> TraceEvent {
    match *kind {
        KeyedKind::Q1Update { t, delta_ps } => TraceEvent::Q1Updated { t, delta_ps },
        KeyedKind::RankFinished { app, rank, comm, exec } => {
            TraceEvent::RankFinished { app, rank, comm, exec }
        }
    }
}

/// How a just-popped event is identified when its pushes are logged: by its
/// final key (pushed in an earlier segment) or by its own position in the
/// current window's push log (provisional key, not yet ranked).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dispatch {
    /// Final `(time, seq)` key.
    True {
        /// Event time.
        t: Time,
        /// Final sequence key.
        seq: u64,
    },
    /// Index into the current window's push log of this shard.
    Local {
        /// Push-log index of the event's own push.
        j: u32,
    },
}

/// One entry of a window push log: the scheduled time of the pushed event
/// and the identity of the event whose dispatch pushed it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogEntry {
    /// Scheduled time of the pushed event.
    pub(crate) time: Time,
    /// The dispatching event.
    pub(crate) dispatch: Dispatch,
}

/// Rank every shard's window push log in the global push order a single
/// shard would have realized: a P-way merge picking, at each step, the
/// unranked head whose *dispatching event* has the smallest `(time, seq)`
/// key.
///
/// Each per-shard log is sorted by dispatch key (events are popped in key
/// order; same-dispatch pushes are consecutive), and dispatch keys are
/// globally unique (each event is popped on exactly one shard), so strict
/// `<` selection is total. A [`Dispatch::Local`] head references an earlier
/// entry of the *same* log, which the merge has necessarily already ranked.
/// Returns `ranks[p][j]`, strictly increasing in `j` for each `p` — a
/// monotone renumbering of each shard's provisional keys.
pub(crate) fn merge_ranks(logs: &[Vec<LogEntry>], wseg: u64) -> Vec<Vec<u64>> {
    let mut ranks: Vec<Vec<u64>> = logs.iter().map(|l| vec![0u64; l.len()]).collect();
    let mut heads = vec![0usize; logs.len()];
    let total: usize = logs.iter().map(Vec::len).sum();
    for counter in 0..total as u64 {
        let mut best: Option<((Time, u64), usize)> = None;
        for (p, log) in logs.iter().enumerate() {
            let j = heads[p];
            if j >= log.len() {
                continue;
            }
            let key = match log[j].dispatch {
                Dispatch::True { t, seq } => (t, seq),
                Dispatch::Local { j: jj } => {
                    debug_assert!((jj as usize) < j, "local dispatch must be already ranked");
                    (logs[p][jj as usize].time, (wseg << SEG_SHIFT) | ranks[p][jj as usize])
                }
            };
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, p));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the outer loop runs exactly sum(lens) times, so at least one un-exhausted head remains on every iteration"
        )]
        let p = best.expect("merge ran out of heads").1;
        ranks[p][heads[p]] = counter;
        heads[p] += 1;
    }
    ranks
}

/// Rewrite a provisional window key (`segment == wseg`) to its merged rank;
/// keys from other segments are already final.
#[inline]
fn xlate(key: u64, wseg: u64, ranks_p: &[u64]) -> u64 {
    if key >> SEG_SHIFT == wseg {
        (wseg << SEG_SHIFT) | ranks_p[(key & VAL_MASK) as usize]
    } else {
        key
    }
}

/// Per-shard work: a scenario's timed arrivals, admitted under `sched`
/// whenever nodes free up. Every shard replays the identical admission
/// decisions (the table and policy are deterministic in replicated inputs),
/// so the job → node mapping needs no communication.
struct ShardWork {
    table: JobTable,
    sched: SchedPolicy,
    arrive: Vec<Time>,
    next_arrival: usize,
    to_reclaim: Vec<JobId>,
}

impl ShardWork {
    fn new(
        topo: &Topology,
        scenario: &Scenario,
        sched: SchedPolicy,
        placement: Placement,
        seed: u64,
    ) -> Self {
        Self {
            table: JobTable::new(topo, scenario, placement, seed),
            sched,
            arrive: scenario.arrivals.iter().map(|a| a.at).collect(),
            next_arrival: 0,
            to_reclaim: Vec::new(),
        }
    }

    fn next_arrival_time(&self) -> Time {
        self.arrive.get(self.next_arrival).copied().unwrap_or(Time::MAX)
    }

    /// Enqueue every arrival at or before `t`. Returns whether any arrived.
    fn take_arrivals(&mut self, t: Time) -> bool {
        let mut any = false;
        while self.next_arrival < self.arrive.len() && self.arrive[self.next_arrival] <= t {
            self.table.enqueue(JobId(self.next_arrival as u32));
            self.next_arrival += 1;
            any = true;
        }
        any
    }
}

/// Everything a finished shard hands back to the assembly step.
struct ShardOutcome {
    stop: StopReason,
    end: Time,
    pops: u64,
    post_k: u64,
    /// Q-table updates rolled back because they came after the stop key.
    q_undone: usize,
    /// Keyed entries dropped from the final fold because they came after
    /// the stop key (shard 0 only).
    keyed_dropped: usize,
    stats: dfsim_des::EngineStats,
    net: NetworkSim,
    rec: Recorder,
    /// Shard 0's stream of folded keyed events (multi-partition tracing).
    keyed_trace: Option<TraceWriter>,
    finished: Vec<Option<Time>>,
    starts: Vec<Time>,
    job_reports: Vec<JobReport>,
}

/// One partition worker: owns the world of its groups (network state, its
/// ranks' MPI state, a recorder and the keyed queue); drives the lockstep
/// window loop.
struct Shard<'a, Q> {
    cfg: &'a SimConfig,
    map: Arc<PartitionMap>,
    me: usize,
    parts: usize,
    comm: LocalThreadCommunicator,
    lookahead: Time,
    world: World<Q>,
    work: ShardWork,
    /// Unfinished ranks per app, from exchanged completion notices
    /// (multi-partition only).
    remaining: Vec<u32>,
    /// Maximum finish key seen (the canonical stop key `K`).
    k: (Time, u64),
    /// Keyed entries the final fold dropped as past `K` (shard 0 only).
    keyed_dropped: usize,
    /// Shard 0's stream of folded keyed events (multi-partition tracing).
    keyed_trace: Option<TraceWriter>,
    /// Keys popped in the current window (translated at its barrier).
    wpop_keys: Vec<(Time, u64)>,
    /// Start of the current window (at the stop: of the final one).
    win_start: Time,
    win_pops: u64,
    win_last_pop: Time,
    total_pops: u64,
    global_last_pop: Time,
    fin_scratch: Vec<AppId>,
}

impl<'a, Q: SimQueue<WorldEvent>> Shard<'a, Q> {
    /// Build shard `me` of `map`; `warm` is the run's verified warm-start
    /// snapshot, shared by every shard.
    fn new(
        cfg: &'a SimConfig,
        topo: &Arc<Topology>,
        map: Arc<PartitionMap>,
        me: usize,
        comm: LocalThreadCommunicator,
        work: ShardWork,
        warm: Option<&QTableSnapshot>,
    ) -> Self {
        let parts = map.parts();
        let rng = SimRng::new(cfg.seed);
        let mut rec = Recorder::new(topo, cfg.recorder);
        let net = NetworkSim::shard(
            Arc::clone(topo),
            cfg.timing,
            cfg.routing,
            &rng,
            Arc::clone(&map),
            me,
            warm,
        );
        if parts > 1 {
            rec.enable_keyed_capture();
        }
        let mut keyed_trace = None;
        if let Some(path) = &cfg.trace {
            // A lone shard streams straight into the final file; with peers
            // each shard writes a temporary spliced together at assembly.
            // Keyed capture keeps the order-sensitive events (Q1 trace,
            // rank completions) out of the per-shard streams — shard 0
            // writes them, in canonical order, as it folds them.
            let p = if parts > 1 { shard_trace_path(path, me) } else { path.clone() };
            rec.set_sink(Box::new(create_trace(&p)));
            if parts > 1 && me == 0 {
                keyed_trace = Some(create_trace(&shard_trace_path(path, parts)));
            }
        }
        let napps = work.arrive.len();
        let lookahead = cfg.timing.global_latency_ps;
        let mpi = MpiSim::new(MpiConfig { eager_threshold: cfg.eager_threshold });
        let mut world = World::with_backend(net, mpi, rec, cfg.queue);
        if parts > 1 {
            world.queue.part = Some(PartKeys::new(Arc::clone(&map), me, lookahead));
        }
        Self {
            cfg,
            map,
            me,
            parts,
            comm,
            lookahead,
            world,
            work,
            remaining: vec![0; napps],
            k: (0, 0),
            keyed_dropped: 0,
            keyed_trace,
            wpop_keys: Vec::new(),
            win_start: 0,
            win_pops: 0,
            win_last_pop: 0,
            total_pops: 0,
            global_last_pop: 0,
            fin_scratch: Vec::new(),
        }
    }

    fn total_done(&self) -> bool {
        self.work.table.all_done()
    }

    /// The next global activity after the barrier at `b`, given the
    /// earliest pending event anywhere: that event or the next arrival,
    /// whichever comes first. With neither, a waiting job may still fit
    /// into the nodes of jobs that finished this window; the cut at `b`
    /// reclaims them, so that cut is the next activity (if within the
    /// horizon `h`).
    fn next_activity(&self, peek: Time, b: Time, h: Time) -> Time {
        let gn = peek.min(self.work.next_arrival_time());
        let reclaim_admits =
            !self.work.to_reclaim.is_empty() && !self.work.table.waiting_is_empty();
        if gn == Time::MAX && reclaim_admits && b <= h {
            b
        } else {
            gn
        }
    }

    /// One admission pass at time `now` (every shard runs the identical
    /// pass; each starts only the ranks whose node it owns, but advances
    /// the admission-slot counter for all of them so cut keys agree).
    /// On one partition, apps whose ranks finish as they start are
    /// accounted at `now`. Returns whether anything was admitted.
    fn admit(&mut self, now: Time) -> bool {
        let picked: Vec<(JobId, Vec<NodeId>, JobSpec)> = {
            let ShardWork { table, sched, .. } = &mut self.work;
            if table.waiting_is_empty() {
                return false;
            }
            let waiting = table.waiting_view();
            let picks = sched.select(&waiting, table.free_count());
            if picks.is_empty() {
                return false;
            }
            debug_assert!(
                picks.windows(2).all(|w| w[0] < w[1]),
                "picks must be strictly increasing"
            );
            debug_assert!(
                picks.iter().map(|&i| waiting[i].size).sum::<u32>() <= table.free_count(),
                "scheduler over-admitted"
            );
            picks
                .iter()
                .map(|&i| {
                    let job = waiting[i].job;
                    let nodes = table.admit(job, now);
                    (job, nodes, table.spec(job).clone())
                })
                .collect()
        };
        for (job, nodes, spec) in picked {
            self.spawn(AppId(job.0 as u16), &spec, nodes);
        }
        if self.parts == 1 {
            self.take_local_finishes(now);
        }
        true
    }

    /// Register `app` running `spec` on `nodes` and start the ranks this
    /// shard owns, advancing the admission slot for every rank so cut keys
    /// agree across shards.
    fn spawn(&mut self, app: AppId, spec: &JobSpec, nodes: Vec<NodeId>) {
        let seed = self.cfg.seed ^ (u64::from(app.0) << 32);
        let inst = spec.kind.build(spec.size, self.cfg.scale, seed);
        self.remaining[app.0 as usize] = nodes.len() as u32;
        self.world.mpi.add_app(app, nodes.clone(), inst.programs, inst.comms);
        for (r, node) in nodes.iter().enumerate() {
            self.world.queue.next_slot();
            if self.map.part_of_node(*node) == self.me {
                self.world.start_rank(app, r as u32);
            }
        }
    }

    /// Cut at `b` (the initial one at t = 0, then one per barrier): reclaim
    /// nodes of jobs that completed, take arrivals at or before `b`, and run
    /// an admission pass if anything changed. Returns whether any rank
    /// started.
    fn cut(&mut self, b: Time) -> bool {
        let ShardWork { table, to_reclaim, .. } = &mut self.work;
        let changed = !to_reclaim.is_empty();
        for job in to_reclaim.drain(..) {
            table.reclaim(job);
        }
        let arrived = self.work.take_arrivals(b);
        if changed || arrived {
            self.admit(b)
        } else {
            false
        }
    }

    /// Single partition: the shard runs every rank, so completions are
    /// visible the moment they happen. Account the apps finished since the
    /// last call at `now`; returns whether any did.
    fn take_local_finishes(&mut self, now: Time) -> bool {
        self.world.mpi.drain_finished(&mut self.fin_scratch);
        if self.fin_scratch.is_empty() {
            return false;
        }
        for app in self.fin_scratch.drain(..) {
            let job = JobId(u32::from(app.0));
            self.work.table.mark_finished(job, now);
            self.work.to_reclaim.push(job);
        }
        true
    }

    /// Pop and dispatch every local event strictly before `e` (and within
    /// the horizon). Returns an early stop (single partition only: the
    /// exact event at which the last app finished).
    fn run_window(&mut self, e: Time) -> Option<(StopReason, Time)> {
        let h = self.cfg.horizon.unwrap_or(Time::MAX);
        self.win_pops = 0;
        self.wpop_keys.clear();
        while let Some(pt) = self.world.queue.q.peek_time() {
            if pt >= e || pt > h {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "`peek_time` just returned `Some` and this thread is the queue's only mutator, so the head cannot disappear between peek and pop"
            )]
            let (t, key, ev) = self.world.queue.q.pop_keyed().expect("peeked event vanished");
            self.win_pops += 1;
            self.win_last_pop = t;
            if let Some(keys) = &mut self.world.queue.part {
                self.wpop_keys.push((t, key));
                keys.cur_dispatch = if key >> SEG_SHIFT == keys.seg {
                    Dispatch::Local { j: (key & VAL_MASK) as u32 }
                } else {
                    Dispatch::True { t, seq: key }
                };
                self.world.net.set_event_key(t, key);
                self.world.rec.set_key(t, key);
            } else {
                self.global_last_pop = t;
            }
            self.world.dispatch(ev);
            if self.parts == 1 && self.take_local_finishes(t) && self.total_done() {
                return Some((StopReason::AllFinished, t));
            }
        }
        None
    }

    /// The window barrier at time `b`: exchange push logs, boundary events,
    /// message metadata and completion notices, and ship keyed metrics to
    /// shard 0; merge the logs into global ranks; renumber everything
    /// provisional; import peer traffic; process completions; decide whether
    /// (and why) to stop; and, on shard 0, fold the window's keyed metrics.
    /// `Ok` carries the global next-event time.
    fn barrier(&mut self, b: Time) -> Result<Time, (StopReason, Time)> {
        let h = self.cfg.horizon.unwrap_or(Time::MAX);
        let Some(keys) = self.world.queue.part.as_mut() else {
            // Single partition: nothing to exchange.
            let q = &self.world.queue.q;
            let gn = self.next_activity(q.peek_time().unwrap_or(Time::MAX), b, h);
            if gn == Time::MAX {
                return Err((StopReason::Drained, self.global_last_pop));
            }
            if q.events_processed() >= self.cfg.max_events {
                return Err((StopReason::EventCap, b));
            }
            if gn > h {
                return Err((StopReason::Horizon, gn));
            }
            return Ok(gn);
        };

        let wseg = keys.seg;
        // -- Local summaries (before anything is drained): the shard's next
        // event time must include boundary events not yet exported.
        let exports = self.world.net.take_msg_exports();
        let releases = self.world.net.take_msg_releases();
        let my_keyed = self.world.rec.drain_keyed();
        let mut peek = self.world.queue.q.peek_time().unwrap_or(Time::MAX);
        for buf in &keys.boundary {
            for e in buf {
                peek = peek.min(e.time);
            }
        }

        // -- Broadcast section, identical bytes to every peer.
        let log = std::mem::take(&mut keys.log);
        let mut bw = WireWriter::new();
        bw.u64(self.win_pops);
        bw.u64(self.win_last_pop);
        bw.u64(peek);
        bw.u32(log.len() as u32);
        for e in &log {
            bw.u64(e.time);
            match e.dispatch {
                Dispatch::True { t, seq } => {
                    bw.u8(0);
                    bw.u64(t);
                    bw.u64(seq);
                }
                Dispatch::Local { j } => {
                    bw.u8(1);
                    bw.u32(j);
                }
            }
        }
        let my_fins: Vec<(u16, Time, u64)> = my_keyed
            .iter()
            .filter_map(|e| match e.kind {
                KeyedKind::RankFinished { app, .. } => Some((app.0, e.time, e.seq)),
                _ => None,
            })
            .collect();
        bw.u32(my_fins.len() as u32);
        for &(app, t, s) in &my_fins {
            bw.u16(app);
            bw.u64(t);
            bw.u64(s);
        }
        let bcast = bw.into_frame();

        // -- Per-peer frames: broadcast section + boundary events + message
        // exports + release notices routed to their shards.
        let mut ex_by: Vec<Vec<&MsgExport>> = (0..self.parts).map(|_| Vec::new()).collect();
        for e in &exports {
            ex_by[self.map.part_of_node(e.dst)].push(e);
        }
        let mut rel_by: Vec<Vec<u64>> = (0..self.parts).map(|_| Vec::new()).collect();
        for &t in &releases {
            rel_by[origin_of(t)].push(t);
        }
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(self.parts);
        for p in 0..self.parts {
            let mut w = WireWriter::new();
            w.bytes(&bcast);
            w.u32(keys.boundary[p].len() as u32);
            for bp in &mut keys.boundary[p] {
                if let NetEvent::PacketArrive { packet, .. } = &mut bp.ev {
                    self.world.net.on_packet_exported(packet);
                }
                encode_event(&mut w, bp.time, bp.j as u64, &bp.ev);
            }
            w.u32(ex_by[p].len() as u32);
            for e in &ex_by[p] {
                w.u64(e.msg);
                w.u32(e.expected);
                let meta = self.world.mpi.export_meta(MessageId(e.msg & IDX_MASK));
                w.u32(meta.len() as u32);
                w.bytes(&meta);
            }
            w.u32(rel_by[p].len() as u32);
            for &r in &rel_by[p] {
                w.u64(r);
            }
            if p == 0 && self.me != 0 {
                put_keyed(&mut w, &my_keyed);
            }
            frames.push(w.into_frame());
        }
        // Keep the drained per-peer buffers for the next window.
        for buf in &mut keys.boundary {
            buf.clear();
        }

        let got = self.comm.exchange(frames);

        // -- Decode: broadcast sections from everyone, directed payloads
        // from peers (applied after the merge resolves their keys).
        let mut logs: Vec<Vec<LogEntry>> = Vec::with_capacity(self.parts);
        let mut peer_pops = vec![0u64; self.parts];
        let mut peer_last = vec![0u64; self.parts];
        let mut peer_peek = vec![Time::MAX; self.parts];
        let mut peer_fins: Vec<Vec<(u16, Time, u64)>> = Vec::with_capacity(self.parts);
        let mut in_events: Vec<(usize, Time, u32, NetEvent)> = Vec::new();
        let mut in_msgs: Vec<(u64, u32, Vec<u8>)> = Vec::new();
        let mut in_rels: Vec<u64> = Vec::new();
        let mut in_keyed: Vec<Vec<KeyedEntry>> = (0..self.parts).map(|_| Vec::new()).collect();
        for (p, frame) in got.iter().enumerate() {
            let mut r = WireReader::new(frame);
            peer_pops[p] = r.u64();
            peer_last[p] = r.u64();
            peer_peek[p] = r.u64();
            let n = r.u32() as usize;
            let mut lg = Vec::with_capacity(n);
            for _ in 0..n {
                let time = r.u64();
                let dispatch = match r.u8() {
                    0 => Dispatch::True { t: r.u64(), seq: r.u64() },
                    _ => Dispatch::Local { j: r.u32() },
                };
                lg.push(LogEntry { time, dispatch });
            }
            logs.push(lg);
            let nf = r.u32() as usize;
            let mut fins = Vec::with_capacity(nf);
            for _ in 0..nf {
                fins.push((r.u16(), r.u64(), r.u64()));
            }
            peer_fins.push(fins);
            if p == self.me {
                continue; // own directed payload is empty by construction
            }
            let ne = r.u32() as usize;
            for _ in 0..ne {
                let (t, j, ev) = decode_event(&mut r);
                in_events.push((p, t, j as u32, ev));
            }
            let nm = r.u32() as usize;
            for _ in 0..nm {
                let msg = r.u64();
                let expected = r.u32();
                let len = r.u32() as usize;
                in_msgs.push((msg, expected, r.bytes(len).to_vec()));
            }
            let nr = r.u32() as usize;
            for _ in 0..nr {
                in_rels.push(r.u64());
            }
            if self.me == 0 {
                get_keyed(&mut r, &mut in_keyed[p]);
            }
        }

        // -- Merge push logs into the global push order; renumber every
        // provisional key in this shard.
        let ranks = merge_ranks(&logs, wseg);
        let rme = &ranks[self.me];
        self.world.queue.q.for_each_pending_mut(&mut |_, seq| {
            if *seq >> SEG_SHIFT == wseg {
                *seq = (wseg << SEG_SHIFT) | rme[(*seq & VAL_MASK) as usize];
            }
        });
        for k in &mut self.wpop_keys {
            k.1 = xlate(k.1, wseg, rme);
        }
        if let Some(entries) = self.world.net.q_undo_entries_mut() {
            for e in entries.iter_mut() {
                e.seq = xlate(e.seq, wseg, rme);
            }
        }
        // Shard 0 gathers the window's keyed entries of every shard, keys
        // final, for the fold after the stop decision.
        let mut keyed = Vec::new();
        if self.me == 0 {
            in_keyed[0] = my_keyed;
            for (p, entries) in in_keyed.iter_mut().enumerate() {
                for e in entries.iter_mut() {
                    e.seq = xlate(e.seq, wseg, &ranks[p]);
                }
                keyed.append(entries);
            }
        }

        // -- Import peer traffic. Message metadata first (deliveries later
        // in the run look it up), then events, then release notices.
        let w = &mut self.world;
        for (msg, expected, meta) in in_msgs {
            w.net.import_message(msg, expected);
            w.mpi.import_meta(msg, &meta);
        }
        for (p, t, j, mut ev) in in_events {
            debug_assert!(t >= b, "boundary event before the barrier");
            if let NetEvent::PacketArrive { packet, .. } = &mut ev {
                w.net.on_packet_imported(packet);
            }
            w.queue.q.push_seq(t, (wseg << SEG_SHIFT) | ranks[p][j as usize], WorldEvent::Net(ev));
        }
        for r in in_rels {
            w.mpi.release_exported(r, &mut w.net);
        }

        // -- Completions, in global key order (replicated on every shard).
        let mut fins: Vec<(Time, u64, u16)> = Vec::new();
        for (p, pf) in peer_fins.iter().enumerate() {
            for &(app, t, s) in pf {
                fins.push((t, xlate(s, wseg, &ranks[p]), app));
            }
        }
        fins.sort_unstable();
        for &(t, s, app) in &fins {
            let i = app as usize;
            debug_assert!(self.remaining[i] > 0, "finish notice for a finished app");
            self.remaining[i] -= 1;
            self.k = self.k.max((t, s));
            if self.remaining[i] == 0 {
                let job = JobId(u32::from(app));
                self.work.table.mark_finished(job, t);
                self.work.to_reclaim.push(job);
            }
        }

        // -- Global counters and the stop decision (identical on every
        // shard: all inputs are replicated).
        let mut wpops = 0u64;
        for p in 0..self.parts {
            wpops += peer_pops[p];
            if peer_pops[p] > 0 {
                self.global_last_pop = self.global_last_pop.max(peer_last[p]);
            }
        }
        self.total_pops += wpops;
        let verdict = self.verdict(b, h, peer_peek.iter().copied().min().unwrap_or(Time::MAX));
        if self.me == 0 {
            self.fold_keyed(keyed, matches!(verdict, Err((StopReason::AllFinished, _))));
        }
        if verdict.is_ok() {
            // The run goes on, so no update of this window can be rolled back.
            if let Some(entries) = self.world.net.q_undo_entries_mut() {
                entries.clear();
            }
        }
        verdict
    }

    /// The stop decision of a multi-partition barrier at `b`, given the
    /// earliest pending event anywhere (identical on every shard: all
    /// inputs are replicated). `Ok` carries the global next-activity time.
    fn verdict(&self, b: Time, h: Time, peek: Time) -> Result<Time, (StopReason, Time)> {
        if self.total_done() {
            return Err((StopReason::AllFinished, self.k.0));
        }
        let gn = self.next_activity(peek, b, h);
        if gn == Time::MAX {
            return Err((StopReason::Drained, self.global_last_pop));
        }
        if self.total_pops >= self.cfg.max_events {
            return Err((StopReason::EventCap, b));
        }
        if gn > h {
            return Err((StopReason::Horizon, gn));
        }
        Ok(gn)
    }

    /// Shard 0: fold one window's keyed entries of every shard (keys final)
    /// into the recorder, and into the keyed trace stream, in global key
    /// order. Keys are unique across shards and each shard's entries are in
    /// key order, so a stable sort is a merge that keeps one event's entries
    /// in emission order. When the run stops with every rank finished, the
    /// entries past `K` are dropped first, as an engine that stopped at `K`
    /// never made them; earlier windows hold none.
    fn fold_keyed(&mut self, mut keyed: Vec<KeyedEntry>, all_finished: bool) {
        keyed.sort_by_key(|e| (e.time, e.seq));
        if all_finished {
            let k = self.k;
            let kept = keyed.partition_point(|e| (e.time, e.seq) <= k);
            self.keyed_dropped = keyed.len() - kept;
            keyed.truncate(kept);
        }
        if let Some(w) = &mut self.keyed_trace {
            for e in &keyed {
                w.record(&keyed_trace_event(&e.kind));
            }
        }
        self.world.rec.replay_keyed(keyed);
    }

    /// Run the shard to its stop and hand back the outcome.
    fn run(mut self) -> ShardOutcome {
        let (stop, end) = self.drive();
        self.finish(stop, end)
    }

    /// The lockstep window loop: returns why and when the run stopped.
    fn drive(&mut self) -> (StopReason, Time) {
        self.drive_observed(|_, _| {})
    }

    /// [`Shard::drive`], showing the shard to `at_barrier` at the end of
    /// every window, just before its barrier at the given time.
    fn drive_observed(&mut self, mut at_barrier: impl FnMut(&Self, Time)) -> (StopReason, Time) {
        debug_assert!(self.lookahead > 0, "`SimConfig::validate` requires a positive lookahead");
        // The initial cut (segment 0).
        let mut started = self.cut(0);
        let mut b: Time = 0;
        // Before anything starts, the only future activity is the first
        // arrival — replicated knowledge, no exchange needed.
        let q = &self.world.queue.q;
        let mut gn: Time = q.peek_time().unwrap_or(Time::MAX).min(self.work.next_arrival_time());
        loop {
            // Outside a window only a cut can finish the run: no jobs at
            // all, or (on one partition) a last job whose ranks finish as
            // they start.
            if self.total_done() {
                return (StopReason::AllFinished, b);
            }
            // Window start: if the last cut started ranks, their events can
            // land anywhere at or after the cut time, so the window must
            // open at the cut; otherwise jump to the global next event.
            let s = if started { b } else { gn };
            debug_assert!(s >= b && s != Time::MAX, "stop conditions handle these");
            if s > b {
                self.world.queue.q.advance_clock(s);
                // An arrival exactly at the jump target is processed here,
                // at its exact time (still in the previous cut segment; the
                // window about to open covers whatever it admits).
                if self.work.take_arrivals(s) && self.admit(s) && self.total_done() {
                    return (StopReason::AllFinished, s);
                }
            }
            let e = s.saturating_add(self.lookahead).min(self.work.next_arrival_time());
            self.world.queue.begin_window();
            self.win_start = s;
            if let Some(stop) = self.run_window(e) {
                return stop;
            }
            b = e;
            at_barrier(self, b);
            gn = match self.barrier(b) {
                Ok(g) => g,
                Err(stop) => return stop,
            };
            self.world.queue.q.advance_clock(b);
            self.world.queue.begin_cut();
            started = self.cut(b);
        }
    }

    fn finish(mut self, stop: StopReason, end: Time) -> ShardOutcome {
        let mut post_k = 0u64;
        let mut q_undone = 0;
        if self.parts > 1 && stop == StopReason::AllFinished {
            // The final window may overrun the stop key: subtract those
            // pops from the event count and roll their Q-updates back, so
            // the result matches an engine that stopped exactly at K.
            post_k = self.wpop_keys.iter().filter(|&&key| key > self.k).count() as u64;
            debug_assert!(
                self.world
                    .net
                    .q_undo_entries_mut()
                    .is_none_or(|entries| entries.iter().all(|e| e.time >= self.win_start)),
                "the Q-undo journal outlived its window"
            );
            q_undone = self.world.net.q_undo_revert_after(self.k.0, self.k.1);
        }
        let table = &self.work.table;
        let (finished, starts) = (table.finish_times(), table.start_times(end));
        let job_reports = table.job_reports(end);
        ShardOutcome {
            stop,
            end,
            pops: self.world.queue.events_processed(),
            post_k,
            q_undone,
            keyed_dropped: self.keyed_dropped,
            stats: self.world.queue.q.stats(),
            net: self.world.net,
            rec: self.world.rec,
            keyed_trace: self.keyed_trace,
            finished,
            starts,
            job_reports,
        }
    }
}

/// Combine shard outcomes into the final report: absorb the peers'
/// recorders into shard 0's (which already folded every keyed entry), adopt
/// each shard's learned Q-tables, sum engine counters, and derive the
/// canonical event count.
fn assemble(
    cfg: &SimConfig,
    specs: &[&JobSpec],
    topo: &Topology,
    map: &PartitionMap,
    mut outcomes: Vec<ShardOutcome>,
    wall_s: f64,
) -> (RunReport, Option<QTableSnapshot>) {
    let parts = outcomes.len();
    let mut base = outcomes.remove(0);
    let (stop, end) = (base.stop, base.end);
    let mut pops = base.pops;
    let mut post_k = base.post_k;
    let mut q_undone = base.q_undone;
    let keyed_dropped = base.keyed_dropped;
    let mut stats = base.stats;
    if parts > 1 {
        for (i, mut o) in outcomes.into_iter().enumerate() {
            let p = i + 1;
            debug_assert!(o.stop == stop && o.end == end, "shards disagree on the stop");
            pops += o.pops;
            post_k += o.post_k;
            q_undone += o.q_undone;
            stats.events_scheduled += o.stats.events_scheduled;
            stats.pending += o.stats.pending;
            stats.peak_pending += o.stats.peak_pending;
            stats.resizes += o.stats.resizes;
            stats.bucket_scans += o.stats.bucket_scans;
            stats.sparse_jumps += o.stats.sparse_jumps;
            base.net.adopt_qtables_from(&o.net, map.routers_of(p));
            if let Some(sink) = o.rec.take_sink() {
                #[expect(
                    clippy::panic,
                    reason = "end-of-run trace I/O has no Result plumbing through the parallel driver; a failed write must stop the run rather than report success with a corrupt trace"
                )]
                sink.finish(None)
                    .unwrap_or_else(|e| panic!("shard trace finalization failed: {e}"));
            }
            base.rec.absorb(o.rec);
        }
    }
    // Every rolled-back update and every dropped keyed entry was made by an
    // event popped after K.
    debug_assert!(q_undone == 0 || post_k > 0, "Q-table updates undone without a pop after K");
    debug_assert!(keyed_dropped == 0 || post_k > 0, "keyed entries dropped without a pop after K");
    let mut events = pops - post_k;
    if stop == StopReason::Horizon {
        // The report counts the first event past the horizon as processed;
        // windows never pop it, so add it here.
        events += 1;
    }
    stats.events_processed = events;
    if let Some(sink) = base.rec.take_sink() {
        #[expect(
            clippy::expect_used,
            reason = "the sink this branch just took was installed from `cfg.trace` at setup, so the path is necessarily present here"
        )]
        let path = cfg.trace.as_ref().expect("a sink exists only when tracing is on");
        let meta = crate::trace::encode_meta(
            cfg,
            specs,
            &base.finished,
            stats,
            events,
            stop,
            end,
            wall_s,
            &base.starts,
            &base.job_reports,
        );
        if parts == 1 {
            #[expect(
                clippy::panic,
                reason = "end-of-run trace I/O: no Result path through the driver, and silently dropping the trace would misreport a successful run"
            )]
            sink.finish(Some(&meta)).unwrap_or_else(|e| panic!("trace finalization failed: {e}"));
        } else {
            // base's sinks are shard 0's temporaries: its segment and its
            // stream of canonically-ordered keyed events. Finish them, then
            // splice every shard segment (deterministic shard order) and the
            // keyed events, last, into the final file. Only the keyed events
            // are order-sensitive on replay; everything else aggregates
            // commutatively, so shard concatenation is as good as the live
            // interleaving.
            let keyed = base.keyed_trace.take().map(|w| Box::new(w) as Box<dyn EventSink>);
            for sink in std::iter::once(sink).chain(keyed) {
                #[expect(
                    clippy::panic,
                    reason = "end-of-run trace splicing: I/O failures here have no Result path through the driver and must stop the run loudly"
                )]
                sink.finish(None)
                    .unwrap_or_else(|e| panic!("shard trace finalization failed: {e}"));
            }
            #[expect(
                clippy::panic,
                reason = "same end-of-run splice: a final trace file that cannot be created must stop the run loudly"
            )]
            let mut w = TraceWriter::create(path).unwrap_or_else(|e| panic!("{e}"));
            for p in 0..=parts {
                let tmp = shard_trace_path(path, p);
                #[expect(
                    clippy::panic,
                    reason = "a shard temporary that fails to re-read means the final trace would be incomplete; stopping loudly beats shipping a silently truncated file"
                )]
                read_trace(&tmp, |ev| w.record(ev))
                    .unwrap_or_else(|e| panic!("splicing shard trace failed: {e}"));
                let _ = std::fs::remove_file(&tmp);
            }
            #[expect(
                clippy::panic,
                reason = "final trace flush: a failed write must stop the run rather than report success over a corrupt trace"
            )]
            w.finish(Some(&meta)).unwrap_or_else(|e| panic!("trace finalization failed: {e}"));
        }
    }
    let snapshot = base.net.qtable_snapshot();
    let report = build_report(
        cfg,
        specs,
        topo,
        &base.rec,
        &base.finished,
        stats,
        events,
        stop,
        end,
        wall_s,
        &base.starts,
        std::mem::take(&mut base.job_reports),
    );
    (report, snapshot)
}

fn partition_map(cfg: &SimConfig, parts: usize) -> Arc<PartitionMap> {
    Arc::new(PartitionMap::new(
        cfg.params.groups,
        cfg.params.routers_per_group,
        cfg.params.nodes_per_router,
        parts,
    ))
}

/// Run one shard per partition of `map` — inline on the calling thread when
/// there is one, on scoped threads otherwise — and collect the outcomes in
/// shard order. `work` builds each shard's work from replicated inputs;
/// every shard starts from the same `warm` tables.
fn run_shards<Q: SimQueue<WorldEvent>>(
    cfg: &SimConfig,
    topo: &Arc<Topology>,
    map: &Arc<PartitionMap>,
    work: impl Fn() -> ShardWork + Sync,
    warm: Option<&QTableSnapshot>,
) -> Vec<ShardOutcome> {
    let shard =
        |(p, comm)| Shard::<Q>::new(cfg, topo, Arc::clone(map), p, comm, work(), warm).run();
    let comms = local_mesh(map.parts()).into_iter().enumerate();
    if map.parts() == 1 {
        return comms.map(shard).collect();
    }
    std::thread::scope(|sc| {
        let handles: Vec<_> = comms.map(|pc| sc.spawn(|| shard(pc))).collect();
        // Re-raise a worker panic on the calling thread with its own payload:
        // swallowing it would return a partial report as if the run succeeded.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Run `scenario` under `sched` and `placement` at `max(threads, 1)`
/// partitions on the configured queue backend and assemble the report;
/// `wall_s` covers shard assembly and the window loop.
fn execute(
    cfg: &SimConfig,
    topo: &Arc<Topology>,
    scenario: &Scenario,
    sched: SchedPolicy,
    placement: Placement,
    warm: Option<&QTableSnapshot>,
) -> (RunReport, Option<QTableSnapshot>) {
    let specs: Vec<&JobSpec> = scenario.arrivals.iter().map(|a| &a.spec).collect();
    // Every shard replays the same table and admission decisions from the
    // same replicated inputs.
    let work = || ShardWork::new(topo, scenario, sched, placement, cfg.seed);
    let map = partition_map(cfg, cfg.threads.max(1));
    let wall = Instant::now();
    let outcomes = match cfg.queue.kind() {
        QueueKind::Heap => run_shards::<EventQueue<WorldEvent>>(cfg, topo, &map, work, warm),
        QueueKind::Calendar => run_shards::<CalendarQueue<WorldEvent>>(cfg, topo, &map, work, warm),
    };
    let wall_s = wall.elapsed().as_secs_f64();
    assemble(cfg, &specs, topo, &map, outcomes, wall_s)
}

/// Validate `cfg` at a run entry point and build its topology.
fn validated_topology(cfg: &SimConfig) -> Arc<Topology> {
    #[expect(
        clippy::expect_used,
        reason = "run entry point, before any simulation work: an invalid config is a caller programming error surfaced at the API boundary (`Simulation::prepare` names it first)"
    )]
    cfg.validate().expect("invalid simulation config");
    #[expect(
        clippy::expect_used,
        reason = "`cfg.validate()` on the line above already vetted the dragonfly params, so topology construction cannot fail here"
    )]
    Arc::new(Topology::new(cfg.params).expect("validated params"))
}

/// A static run as a scenario: every non-idle job of `jobs` arrives at
/// t = 0, pinned to the nodes `placement` gives it. Jobs are placed in
/// order on the shuffled node list, so a given `(seed, job-size prefix)`
/// keeps earlier jobs' mappings stable when later jobs are added or removed
/// (the paper's standalone-vs-interfered methodology); idle jobs reserve
/// their nodes and run nothing.
fn static_scenario(topo: &Topology, jobs: &[JobSpec], placement: Placement, seed: u64) -> Scenario {
    let sizes: Vec<u32> = jobs.iter().map(|j| j.size).collect();
    let arrivals = jobs
        .iter()
        .zip(place(topo, placement, &sizes, seed))
        .filter(|(job, _)| !job.idle)
        .map(|(job, nodes)| Arrival { spec: job.clone(), at: 0, nodes: Some(nodes) })
        .collect();
    Scenario { arrivals }
}

/// The static-run entry: run `jobs` under `cfg`, every job starting at
/// t = 0 on nodes placed by `placement` ([`static_scenario`]), from the
/// verified `warm` tables if given, and return the report plus the learned
/// Q-table snapshot (Q-adaptive runs only).
pub(crate) fn exec_static(
    cfg: &SimConfig,
    jobs: &[JobSpec],
    placement: Placement,
    warm: Option<&QTableSnapshot>,
) -> (RunReport, Option<QTableSnapshot>) {
    let topo = validated_topology(cfg);
    let scenario = static_scenario(&topo, jobs, placement, cfg.seed);
    execute(cfg, &topo, &scenario, SchedPolicy::Fcfs, placement, warm)
}

/// The churn entry — the canonical scenario loop: jobs spawn at their
/// arrival times (queueing under `sched` when the machine is full), run on
/// partitions placed by `placement`, and release their nodes on completion.
/// Reports are bit-identical across queue backends *and* partition counts.
pub(crate) fn exec_scenario(
    cfg: &SimConfig,
    scenario: &Scenario,
    sched: SchedPolicy,
    placement: Placement,
    warm: Option<&QTableSnapshot>,
) -> (RunReport, Option<QTableSnapshot>) {
    let topo = validated_topology(cfg);
    #[expect(
        clippy::expect_used,
        reason = "run entry point: a scenario with an idle, oversized or wrongly sized job is a caller programming error surfaced before any simulation work starts (`Simulation::prepare` names it first)"
    )]
    scenario.validate(topo.num_nodes()).expect("invalid scenario");
    execute(cfg, &topo, scenario, sched, placement, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_apps::AppKind;
    use dfsim_des::queue::PendingEvents;
    use dfsim_mpi::MpiOp;
    use dfsim_network::RoutingAlgo;
    use proptest::prelude::*;

    /// A tiny Q-adaptive cell whose two-partition final window overruns the
    /// stop key `K` and makes Q-table updates past it, so the rollback at
    /// `Shard::finish` has work to do: DL ends on an allreduce, whose last
    /// hops' Q-feedback lands after the final delivery (seed found by a
    /// search; pinned).
    fn overrun_cell() -> (SimConfig, Vec<JobSpec>) {
        let mut cfg = SimConfig::test_tiny(RoutingAlgo::QAdaptive);
        cfg.seed = 3;
        let jobs = vec![JobSpec::sized(AppKind::DL, 36), JobSpec::sized(AppKind::Halo3D, 36)];
        (cfg, jobs)
    }

    /// The shards' work for `jobs` under `cfg`, placed as `exec_static` does.
    fn static_work(
        cfg: &SimConfig,
        topo: &Arc<Topology>,
        jobs: &[JobSpec],
    ) -> impl Fn() -> ShardWork {
        let scenario = static_scenario(topo, jobs, Placement::Random, cfg.seed);
        let (topo, seed) = (Arc::clone(topo), cfg.seed);
        move || ShardWork::new(&topo, &scenario, SchedPolicy::Fcfs, Placement::Random, seed)
    }

    /// What a run of [`run_static`] hands back.
    struct StaticRun {
        /// Q-table updates the shards rolled back.
        undone: usize,
        /// Keyed entries dropped from the final fold.
        dropped: usize,
        report: RunReport,
        snapshot: QTableSnapshot,
    }

    /// Run `jobs` at `parts` partitions and assemble the report.
    fn run_static(cfg: &SimConfig, jobs: &[JobSpec], parts: usize) -> StaticRun {
        let topo = validated_topology(cfg);
        let map = partition_map(cfg, parts);
        let work = static_work(cfg, &topo, jobs);
        let outcomes = run_shards::<EventQueue<WorldEvent>>(cfg, &topo, &map, work, None);
        assert!(outcomes.iter().all(|o| o.stop == StopReason::AllFinished));
        let undone = outcomes.iter().map(|o| o.q_undone).sum();
        let dropped = outcomes.iter().map(|o| o.keyed_dropped).sum();
        let specs: Vec<&JobSpec> = jobs.iter().collect();
        let (report, snapshot) = assemble(cfg, &specs, &topo, &map, outcomes, 0.0);
        StaticRun { undone, dropped, report, snapshot: snapshot.unwrap() }
    }

    /// Drive the two shards of a two-partition run of `jobs` on scoped
    /// threads, handing each to `body`; returns what `body` returns, in
    /// shard order.
    fn on_two_shards<R: Send>(
        cfg: &SimConfig,
        jobs: &[JobSpec],
        body: impl Fn(Shard<'_, EventQueue<WorldEvent>>) -> R + Sync,
    ) -> Vec<R> {
        let topo = validated_topology(cfg);
        let map = partition_map(cfg, 2);
        let work = static_work(cfg, &topo, jobs);
        std::thread::scope(|sc| {
            let handles: Vec<_> = local_mesh(2)
                .into_iter()
                .enumerate()
                .map(|(p, comm)| {
                    let (topo, map, work, body) = (&topo, &map, &work, &body);
                    sc.spawn(move || {
                        body(Shard::new(cfg, topo, Arc::clone(map), p, comm, work(), None))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// The rollback is load-bearing: on this cell the two-partition final
    /// window makes Q-table updates after `K`, and only undoing them gives
    /// the one-partition run's learned tables.
    #[test]
    fn rollback_past_stop_key_restores_one_partition_qtables() {
        let (cfg, jobs) = overrun_cell();
        let p1 = run_static(&cfg, &jobs, 1);
        assert_eq!(p1.undone, 0, "one partition stops exactly at K");
        let p2 = run_static(&cfg, &jobs, 2);
        assert!(p2.undone > 0, "the pinned cell no longer overruns K with Q-table updates");
        let bits = |s: &QTableSnapshot| {
            let mut b = Vec::new();
            s.encode(&mut b);
            b
        };
        assert!(
            bits(&p2.snapshot) == bits(&p1.snapshot),
            "two-partition Q-tables differ from one partition's"
        );
    }

    /// The past-`K` filter is load-bearing: on this cell shard 0's final
    /// fold drops keyed entries made after `K`, and the reports at every
    /// partition count, learning trace included, equal one partition's.
    #[test]
    fn keyed_entries_past_stop_key_are_dropped() {
        let canonical = |r: &RunReport| {
            let mut r = r.clone();
            r.engine = crate::report::EngineReport::default();
            format!("{r:#?}")
        };
        let (cfg, jobs) = overrun_cell();
        let p1 = run_static(&cfg, &jobs, 1);
        assert_eq!(p1.dropped, 0, "one partition stops exactly at K");
        assert!(p1.report.learning.is_some(), "the pinned cell records no learning trace");
        let want = canonical(&p1.report);
        for parts in [2, 4, 9] {
            let run = run_static(&cfg, &jobs, parts);
            if parts == 2 {
                assert!(run.dropped > 0, "the pinned cell no longer makes keyed entries past K");
            }
            assert!(canonical(&run.report) == want, "report diverged at {parts} partitions");
        }
    }

    /// The keyed journal holds one window, not the run: as each window of a
    /// two-partition Q-adaptive run ends, every keyed entry a shard holds
    /// was made in that window (or the cut that opened it), and the final
    /// barrier leaves none behind.
    #[test]
    fn keyed_entries_never_outlive_their_window() {
        let (cfg, jobs) = overrun_cell();
        let most_held = on_two_shards(&cfg, &jobs, |mut shard| {
            let (mut prev, mut most) = (0, 0);
            let stop = shard.drive_observed(|s, b| {
                let held = s.world.rec.keyed_pending();
                assert!(
                    held.iter().all(|e| prev <= e.time && e.time < b),
                    "a keyed entry outlived the window [{prev}, {b})"
                );
                most = most.max(held.len());
                prev = b;
            });
            assert_eq!(stop.0, StopReason::AllFinished);
            assert!(shard.world.rec.keyed_pending().is_empty(), "keyed entries past the run");
            most
        });
        assert!(most_held.iter().all(|&n| n > 0), "a shard made no keyed entries");
    }

    /// The Q-undo journal holds one window, not the run: when a
    /// two-partition Q-adaptive run stops, every entry left in it was made
    /// in the final window.
    #[test]
    fn q_undo_journal_holds_only_the_final_window() {
        let (cfg, jobs) = overrun_cell();
        let journals: Vec<(Time, Vec<Time>)> = on_two_shards(&cfg, &jobs, |mut shard| {
            assert_eq!(shard.drive().0, StopReason::AllFinished);
            let entries = shard.world.net.q_undo_entries_mut().unwrap();
            (shard.win_start, entries.iter().map(|e| e.time).collect())
        });
        let start = journals[0].0;
        assert!(start > 0, "the run ended in its first window");
        assert!(journals.iter().all(|j| j.0 == start), "shards disagree on the final window");
        assert!(journals.iter().any(|j| !j.1.is_empty()), "the final window made no Q-updates");
        for (_, times) in &journals {
            assert!(times.iter().all(|&t| t >= start), "journal entry before the final window");
        }
    }

    /// A receive nobody matches leaves its app unfinished once the queue
    /// runs dry: the run stops as drained, at the last event it popped.
    #[test]
    fn stuck_matching_reports_drained() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::Par);
        let topo = validated_topology(&cfg);
        let comm = local_mesh(1).pop().unwrap();
        // One job, pinned to the two nodes the stuck programs run on and
        // admitted by hand, so the initial cut has nothing left to admit.
        let nodes = vec![NodeId(0), NodeId(9)];
        let job = JobSpec::sized(AppKind::UR, 2);
        let scenario =
            Scenario { arrivals: vec![Arrival { spec: job, at: 0, nodes: Some(nodes.clone()) }] };
        let mut work = ShardWork::new(&topo, &scenario, SchedPolicy::Fcfs, Placement::Random, 0);
        assert!(work.take_arrivals(0));
        work.table.admit(JobId(0), 0);
        let mut shard = Shard::<EventQueue<WorldEvent>>::new(
            &cfg,
            &topo,
            partition_map(&cfg, 1),
            0,
            comm,
            work,
            None,
        );
        shard.world.mpi.add_app(
            AppId(0),
            nodes,
            vec![
                Box::new(vec![MpiOp::Compute(1_000_000)].into_iter()), // 1 µs
                Box::new(vec![MpiOp::Recv { src: Some(0), tag: 1 }].into_iter()),
            ],
            vec![],
        );
        for rank in 0..2 {
            shard.world.start_rank(AppId(0), rank);
        }
        let out = shard.run();
        assert_eq!((out.stop, out.end), (StopReason::Drained, 1_000_000));
        assert_eq!(out.pops, 1, "only rank 0's compute completion fires");
        assert_eq!(out.finished, vec![None]);
    }

    #[test]
    fn merge_ranks_orders_true_keys_across_shards() {
        // Shard 0 pushes at dispatch keys (10, 1) then (30, 2); shard 1 at
        // (20, 7). Global rank order must interleave: 0, 2, 1.
        let logs = vec![
            vec![
                LogEntry { time: 100, dispatch: Dispatch::True { t: 10, seq: 1 } },
                LogEntry { time: 50, dispatch: Dispatch::True { t: 30, seq: 2 } },
            ],
            vec![LogEntry { time: 70, dispatch: Dispatch::True { t: 20, seq: 7 } }],
        ];
        let ranks = merge_ranks(&logs, 5);
        assert_eq!(ranks[0], vec![0, 2]);
        assert_eq!(ranks[1], vec![1]);
    }

    #[test]
    fn merge_ranks_resolves_local_dispatches_through_assigned_ranks() {
        let wseg = 3u64;
        // Shard 0: entry 0 pushed (by an old event at (5, 9)) an event at
        // t=40; entry 1 is a push by *that* event (Local{0}), so its
        // dispatch key is (40, (wseg<<40)|rank(entry 0)).
        // Shard 1: one push by an old event at (39, 2) — between them.
        let logs = vec![
            vec![
                LogEntry { time: 40, dispatch: Dispatch::True { t: 5, seq: 9 } },
                LogEntry { time: 90, dispatch: Dispatch::Local { j: 0 } },
            ],
            vec![LogEntry { time: 60, dispatch: Dispatch::True { t: 39, seq: 2 } }],
        ];
        let ranks = merge_ranks(&logs, wseg);
        // Dispatch keys: shard0[0] = (5,9); shard1[0] = (39,2);
        // shard0[1] = (40, (3<<40)|0) — last.
        assert_eq!(ranks[0], vec![0, 2]);
        assert_eq!(ranks[1], vec![1]);
    }

    /// The heart of the determinism argument, property-tested: a windowed
    /// multi-shard run — provisional keys, per-window barrier merges,
    /// renumbering, boundary hand-off — pops abstract events in exactly the
    /// order of a single heap driven by the global push sequence.
    ///
    /// The abstract workload is a deterministic event cascade: event `id`
    /// at time `t` on shard `s` spawns children from a hash of `id`, with
    /// local children at any future time and cross-shard children delayed
    /// by at least the lookahead — the same contract the dragonfly's
    /// boundary traffic obeys.
    fn hash(x: u64) -> u64 {
        // splitmix64: deterministic and well-mixed, no external deps.
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[derive(Clone, Copy, Debug)]
    struct AbsEvent {
        id: u64,
        shard: usize,
    }

    /// Deterministic children of an event: `(delay, dest shard, child id)`.
    /// `burstiness` skews delays toward the window edge; `min_latencies`
    /// gives each shard pair its own boundary latency floor (≥ lookahead).
    fn children(
        ev: AbsEvent,
        t: Time,
        parts: usize,
        lookahead: Time,
        burstiness: u64,
        depth_left: u32,
    ) -> Vec<(Time, usize, u64)> {
        if depth_left == 0 {
            return Vec::new();
        }
        let h = hash(ev.id);
        let n = (h % 3) as usize; // 0..=2 children
        (0..n)
            .map(|c| {
                let hc = hash(ev.id ^ (c as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d));
                let dest = (hc % parts as u64) as usize;
                let base = 1 + (hc >> 8) % (lookahead * 2 + burstiness);
                let delay = if dest == ev.shard {
                    base // local children: any future time
                } else {
                    lookahead + base // boundary: at least the lookahead
                };
                (t + delay, dest, hc)
            })
            .collect()
    }

    /// Oracle: one heap over all shards, auto-sequenced in push order —
    /// a single shard's total order.
    fn oracle_pop_order(
        seeds: &[AbsEvent],
        parts: usize,
        lookahead: Time,
        burstiness: u64,
        depth: u32,
    ) -> Vec<u64> {
        let mut q: EventQueue<(AbsEvent, u32)> = EventQueue::new();
        for (i, &e) in seeds.iter().enumerate() {
            q.push(i as Time, (e, depth));
        }
        let mut order = Vec::new();
        while let Some((t, (ev, d))) = q.pop() {
            order.push(ev.id);
            for (ct, dest, cid) in children(ev, t, parts, lookahead, burstiness, d) {
                q.push(ct, (AbsEvent { id: cid, shard: dest }, d - 1));
            }
        }
        order
    }

    /// Partitioned run: one queue per shard with provisional window keys,
    /// lockstep windows of length `lookahead`, and a merge-and-renumber
    /// barrier after each — the exact protocol `Shard::run` uses, minus the
    /// network/MPI payload.
    fn partitioned_pop_order(
        seeds: &[AbsEvent],
        parts: usize,
        lookahead: Time,
        burstiness: u64,
        depth: u32,
    ) -> Vec<u64> {
        let mut qs: Vec<EventQueue<(AbsEvent, u32)>> =
            (0..parts).map(|_| EventQueue::new()).collect();
        // Init cut (segment 0): seed events get final slot keys, every
        // shard numbering all slots identically.
        for (i, &e) in seeds.iter().enumerate() {
            qs[e.shard].push_seq(i as Time, (i as u64) << SLOT_SHIFT, (e, depth));
        }
        let mut seg = 0u64;
        let mut pops: Vec<(Time, u64, u64)> = Vec::new(); // (time, final key, id)
        let mut s: Time = 0;
        loop {
            // Global next event (what the barrier's peek exchange yields).
            let gn = qs.iter().filter_map(|q| q.peek_time()).min();
            let Some(gn) = gn else { break };
            s = s.max(gn);
            let e = s + lookahead;
            seg += 1; // window segment
            let wseg = seg;
            let mut logs: Vec<Vec<LogEntry>> = vec![Vec::new(); parts];
            // (source shard, time, log index, event, remaining depth)
            type BoundaryChild = (usize, Time, u32, AbsEvent, u32);
            let mut boundary: Vec<Vec<BoundaryChild>> = vec![Vec::new(); parts];
            let mut wpops: Vec<(usize, Time, u64, u64)> = Vec::new();
            for p in 0..parts {
                while qs[p].peek_time().is_some_and(|t| t < e) {
                    let (t, key, (ev, d)) = qs[p].pop_keyed().unwrap();
                    wpops.push((p, t, key, ev.id));
                    let dispatch = if key >> SEG_SHIFT == wseg {
                        Dispatch::Local { j: (key & VAL_MASK) as u32 }
                    } else {
                        Dispatch::True { t, seq: key }
                    };
                    for (ct, dest, cid) in children(ev, t, parts, lookahead, burstiness, d) {
                        let j = logs[p].len() as u32;
                        logs[p].push(LogEntry { time: ct, dispatch });
                        let child = AbsEvent { id: cid, shard: dest };
                        if dest == p {
                            qs[p].push_seq(ct, (wseg << SEG_SHIFT) | j as u64, (child, d - 1));
                        } else {
                            assert!(ct >= t + lookahead, "boundary child under lookahead");
                            boundary[dest].push((p, ct, j, child, d - 1));
                        }
                    }
                }
            }
            // Barrier: merge, renumber pending, import boundary children.
            let ranks = merge_ranks(&logs, wseg);
            for (p, q) in qs.iter_mut().enumerate() {
                let rp = &ranks[p];
                q.for_each_pending_mut(&mut |_, seq| {
                    if *seq >> SEG_SHIFT == wseg {
                        *seq = (wseg << SEG_SHIFT) | rp[(*seq & VAL_MASK) as usize];
                    }
                });
            }
            for (dest, imports) in boundary.into_iter().enumerate() {
                for (p, ct, j, child, d) in imports {
                    qs[dest].push_seq(ct, (wseg << SEG_SHIFT) | ranks[p][j as usize], (child, d));
                }
            }
            for (p, t, key, id) in wpops {
                pops.push((t, xlate(key, wseg, &ranks[p]), id));
            }
            s = e;
            seg += 1; // cut segment (idle here: no admissions in the model)
        }
        pops.sort_unstable();
        pops.into_iter().map(|(_, _, id)| id).collect()
    }

    proptest! {
        /// Windowed cross-partition exchange preserves the global
        /// `(time, seq)` pop order of the single-heap oracle across
        /// uniform, bursty and adversarial (boundary-heavy, minimum-delay)
        /// latency mixes and partition counts.
        #[test]
        fn windowed_exchange_matches_heap_oracle(
            seed in 0u64..1_000_000,
            parts in 1usize..5,
            n_seeds in 1usize..7,
            lookahead in prop_oneof![Just(1u64), Just(3u64), Just(50u64)],
            burstiness in prop_oneof![Just(0u64), Just(2u64), Just(400u64)],
        ) {
            let seeds: Vec<AbsEvent> = (0..n_seeds)
                .map(|i| AbsEvent {
                    id: hash(seed ^ (i as u64) << 32),
                    shard: (hash(seed ^ (i as u64)) % parts as u64) as usize,
                })
                .collect();
            let depth = 7;
            let want = oracle_pop_order(&seeds, parts, lookahead, burstiness, depth);
            let got = partitioned_pop_order(&seeds, parts, lookahead, burstiness, depth);
            prop_assert_eq!(got, want);
        }
    }
}
