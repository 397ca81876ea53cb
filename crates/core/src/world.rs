//! The world event loop: one deterministic queue driving network and MPI.
//!
//! The queue backend is a type parameter (defaulting to the radix heap),
//! selected at runtime from [`crate::config::SimConfig::queue`] by
//! [`crate::runner::run`] — the event-queue ablation runs the real
//! hot path, not a synthetic harness. Both backends realize the identical
//! deterministic `(time, seq)` total order, so a run's report is invariant
//! under the backend choice (the `backend_equivalence` integration test
//! pins this).

use dfsim_des::queue::{PendingEvents, SimQueue};
use dfsim_des::{EngineStats, EventQueue, JobEvent, QueueBackend, Scheduler, Time};
use dfsim_metrics::Recorder;
use dfsim_mpi::{MpiEvent, MpiSim};
use dfsim_network::{NetEffect, NetEvent, NetworkSim};

/// The union of all event types in a simulation.
#[derive(Debug)]
pub enum WorldEvent {
    /// A network event.
    Net(NetEvent),
    /// An MPI event.
    Mpi(MpiEvent),
    /// A job-lifecycle event (only scheduled by scenario runs; see
    /// [`crate::scenario`]).
    Job(JobEvent),
}

/// The default (radix-heap) world queue backend.
pub type DefaultBackend = EventQueue<WorldEvent>;

/// The world queue: lifts network and MPI events into [`WorldEvent`] and
/// satisfies both scheduler contracts at once (what [`dfsim_mpi::WorldSched`]
/// requires), over any [`PendingEvents`] backend.
#[derive(Debug)]
pub struct WorldQueue<Q = DefaultBackend> {
    inner: Q,
}

impl<Q: SimQueue<WorldEvent>> WorldQueue<Q> {
    /// Empty queue with the backend's simulation-tuned defaults.
    pub fn new() -> Self {
        Self { inner: Q::for_simulation() }
    }

    /// Empty queue under `backend`'s tuning (the backend's kind must match
    /// `Q`; the runner dispatches on [`QueueBackend::kind`] first).
    pub fn for_backend(backend: QueueBackend) -> Self {
        Self { inner: Q::for_backend(backend) }
    }
}

impl<Q: SimQueue<WorldEvent>> Default for WorldQueue<Q> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Q: PendingEvents<WorldEvent>> WorldQueue<Q> {
    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, WorldEvent)> {
        self.inner.pop()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.inner.now()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    /// Engine statistics of the underlying pending-event set.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<Q: PendingEvents<WorldEvent>> Scheduler<NetEvent> for WorldQueue<Q> {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn at(&mut self, time: Time, event: NetEvent) {
        self.inner.push(time, WorldEvent::Net(event));
    }
}

impl<Q: PendingEvents<WorldEvent>> Scheduler<MpiEvent> for WorldQueue<Q> {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn at(&mut self, time: Time, event: MpiEvent) {
        self.inner.push(time, WorldEvent::Mpi(event));
    }
}

impl<Q: PendingEvents<WorldEvent>> Scheduler<JobEvent> for WorldQueue<Q> {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn at(&mut self, time: Time, event: JobEvent) {
        self.inner.push(time, WorldEvent::Job(event));
    }
}

/// Dispatch one popped event into the sub-models. Network and MPI events
/// are consumed (including the ordered network-effect drain); job events
/// are returned to the caller, since only the scenario loop knows how to
/// handle them. Shared by [`World::run`] and the scenario loop so the
/// dispatch semantics — in particular the effect-drain ordering that the
/// backend-equivalence guarantee rides on — can never diverge between the
/// two.
#[inline]
pub(crate) fn dispatch_core<S: Scheduler<NetEvent> + Scheduler<MpiEvent>>(
    net: &mut NetworkSim,
    mpi: &mut MpiSim,
    rec: &mut Recorder,
    queue: &mut S,
    effects: &mut Vec<NetEffect>,
    ev: WorldEvent,
) -> Option<JobEvent> {
    match ev {
        WorldEvent::Net(e) => {
            net.handle(e, queue, rec, effects);
            if !effects.is_empty() {
                for eff in effects.drain(..) {
                    mpi.on_net_effect(eff, queue, net, rec);
                }
            }
            None
        }
        WorldEvent::Mpi(e) => {
            mpi.handle(e, queue, net, rec);
            None
        }
        WorldEvent::Job(e) => Some(e),
    }
}

/// Why a world run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every application rank finished.
    AllFinished,
    /// The simulated-time horizon was exceeded.
    Horizon,
    /// The event cap was exceeded (runaway guard).
    EventCap,
    /// The queue drained without completion (a stuck workload — indicates
    /// a matching bug in an app program).
    Drained,
}

/// A fully assembled simulation, generic over the event-queue backend.
pub struct World<Q = DefaultBackend> {
    /// The network model.
    pub net: NetworkSim,
    /// The MPI engine.
    pub mpi: MpiSim,
    /// The metrics sink.
    pub rec: Recorder,
    /// The event queue.
    pub queue: WorldQueue<Q>,
    /// Scratch buffer for network effects (shared with the scenario loop).
    pub(crate) effects: Vec<NetEffect>,
}

impl<Q: SimQueue<WorldEvent>> World<Q> {
    /// Assemble a world on this backend with its default tuning.
    pub fn new(net: NetworkSim, mpi: MpiSim, rec: Recorder) -> Self {
        Self { net, mpi, rec, queue: WorldQueue::new(), effects: Vec::new() }
    }

    /// Assemble a world on `backend`'s tuning (kind must match `Q`).
    pub fn with_backend(
        net: NetworkSim,
        mpi: MpiSim,
        rec: Recorder,
        backend: QueueBackend,
    ) -> Self {
        Self { net, mpi, rec, queue: WorldQueue::for_backend(backend), effects: Vec::new() }
    }
}

impl<Q: PendingEvents<WorldEvent>> World<Q> {
    /// Start all ranks and run until completion, horizon or event cap.
    /// Returns the stop reason and the final simulated time.
    pub fn run(&mut self, horizon: Option<Time>, max_events: u64) -> (StopReason, Time) {
        let Self { net, mpi, rec, queue, effects } = self;
        mpi.start(queue, net, rec);
        if mpi.all_finished() {
            return (StopReason::AllFinished, queue.now());
        }
        let mut processed: u64 = 0;
        while let Some((t, ev)) = queue.pop() {
            if let Some(h) = horizon {
                if t > h {
                    return (StopReason::Horizon, t);
                }
            }
            if let Some(e) = dispatch_core(net, mpi, rec, queue, effects, ev) {
                debug_assert!(false, "job event {e:?} in a static run; use a scenario workload");
                let _ = e;
            }
            processed += 1;
            if processed >= max_events {
                return (StopReason::EventCap, queue.now());
            }
            if mpi.all_finished() {
                return (StopReason::AllFinished, queue.now());
            }
        }
        if mpi.all_finished() {
            (StopReason::AllFinished, queue.now())
        } else {
            (StopReason::Drained, queue.now())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_des::SimRng;
    use dfsim_metrics::{AppId, RecorderConfig};
    use dfsim_mpi::MpiOp;
    use dfsim_network::{RoutingAlgo, RoutingConfig};
    use dfsim_topology::{DragonflyParams, LinkTiming, NodeId, Topology};

    fn mk_world() -> World {
        let topo = std::sync::Arc::new(Topology::new(DragonflyParams::tiny_72()).unwrap());
        let rec = Recorder::new(&topo, RecorderConfig::default());
        let net = NetworkSim::new(
            topo,
            LinkTiming::default(),
            RoutingConfig::new(RoutingAlgo::Par),
            &SimRng::new(1),
        );
        World::new(net, MpiSim::default(), rec)
    }

    #[test]
    fn empty_world_finishes_instantly() {
        let mut w = mk_world();
        let (reason, t) = w.run(None, 1_000);
        assert_eq!(reason, StopReason::AllFinished);
        assert_eq!(t, 0);
    }

    #[test]
    fn simple_exchange_runs_to_completion() {
        let mut w = mk_world();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(50)],
            vec![
                Box::new(vec![MpiOp::Send { dst: 1, bytes: 2048, tag: 0 }].into_iter()),
                Box::new(vec![MpiOp::Recv { src: Some(0), tag: 0 }].into_iter()),
            ],
            vec![],
        );
        let (reason, t) = w.run(None, 10_000_000);
        assert_eq!(reason, StopReason::AllFinished);
        assert!(t > 0);
    }

    #[test]
    fn horizon_stops_runaway_workloads() {
        let mut w = mk_world();
        // Receiver waits for a message nobody sends.
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(9)],
            vec![
                Box::new(vec![MpiOp::Compute(1_000_000_000)].into_iter()), // 1 ms
                Box::new(vec![MpiOp::Recv { src: Some(0), tag: 99 }].into_iter()),
            ],
            vec![],
        );
        let (reason, _) = w.run(Some(500_000), 10_000_000);
        // The compute event fires beyond the 0.5 µs horizon.
        assert_eq!(reason, StopReason::Horizon);
    }

    #[test]
    fn stuck_matching_reports_drained() {
        let mut w = mk_world();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0)],
            vec![Box::new(vec![MpiOp::Recv { src: Some(0), tag: 1 }].into_iter())],
            vec![],
        );
        let (reason, _) = w.run(None, 10_000_000);
        assert_eq!(reason, StopReason::Drained);
    }

    #[test]
    fn event_cap_guards_against_runaway() {
        let mut w = mk_world();
        w.mpi.add_app(
            AppId(0),
            vec![NodeId(0), NodeId(40)],
            vec![
                Box::new(
                    (0..10_000)
                        .map(|i| MpiOp::Send { dst: 1, bytes: 4096, tag: i })
                        .collect::<Vec<_>>()
                        .into_iter(),
                ),
                Box::new(
                    (0..10_000)
                        .map(|i| MpiOp::Recv { src: Some(0), tag: i })
                        .collect::<Vec<_>>()
                        .into_iter(),
                ),
            ],
            vec![],
        );
        let (reason, _) = w.run(None, 100);
        assert_eq!(reason, StopReason::EventCap);
    }
}
