//! World-loop spans: where the time of one run goes, layer by layer, measured
//! from outside.
//!
//! The benchmark assembles the world itself from the crates' public pieces
//! and drives its own copy of `World::run`'s loop over `World`'s public
//! `net`/`mpi`/`rec`/`queue`, reading the clock at each call into a layer.
//! The run must process exactly as many events as the product's own run of
//! the same spec, or the caller rejects the trace.
//!
//! Three things are not separable from outside and stay inside their parent
//! span: the Recorder hooks `NetworkSim::handle` calls, the `send_message`
//! injections `MpiSim::handle`/`on_net_effect` make, and anything on the
//! private `Shard` driver (churn and P>=2 runs get no split at all).

use std::sync::Arc;
use std::time::Instant;

use dfsim_core::runner::JobSpec;
use dfsim_core::world::{DefaultBackend, WorldQueue};
use dfsim_core::{ExperimentSpec, Workload, World, WorldEvent};
use dfsim_des::{Scheduler, SimRng, Time};
use dfsim_metrics::{AppId, Recorder, TraceWriter};
use dfsim_mpi::sim::MpiConfig;
use dfsim_mpi::{MpiEvent, MpiSim};
use dfsim_network::{NetEvent, NetworkSim};
use dfsim_topology::Topology;

use crate::json::Json;

/// Simulated-time slices a span's self time is binned into.
pub const SLICES: usize = 100;
/// log2 duration buckets: bucket `i` holds calls of `[2^i, 2^(i+1))` ns.
const HIST_BUCKETS: usize = 40;

/// The loop's spans, in reporting order.
pub const LOOP_SPANS: [&str; 5] =
    ["des.pop", "des.push", "network.handle", "mpi.on_net_effect", "mpi.handle"];

/// One span name's aggregate. Per-call records would be 10^8 entries on a
/// paper-scale run; only top-level spans are kept individually.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_ns: u64,
    /// Time covered by child spans (here: `des.push` inside a handler).
    pub child_ns: u64,
    hist: [u64; HIST_BUCKETS],
    /// Self time per simulated-time slice.
    slices: [u64; SLICES],
}

impl Default for SpanAgg {
    fn default() -> Self {
        Self { calls: 0, total_ns: 0, child_ns: 0, hist: [0; HIST_BUCKETS], slices: [0; SLICES] }
    }
}

impl SpanAgg {
    #[inline]
    fn add(&mut self, dur_ns: u64, child_ns: u64, slice: usize) {
        self.calls += 1;
        self.total_ns += dur_ns;
        self.child_ns += child_ns;
        self.hist[(dur_ns.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)] += 1;
        self.slices[slice] += dur_ns.saturating_sub(child_ns);
    }

    /// Self time: the span's duration minus what its child spans cover.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    pub fn ns_per_call(&self) -> f64 {
        self.self_ns() as f64 / self.calls.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let last = self.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let nums = |xs: &[u64]| Json::nums(xs.iter().map(|&x| x as f64));
        Json::obj([
            ("calls", Json::Num(self.calls as f64)),
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("self_ns", Json::Num(self.self_ns() as f64)),
            ("log2_ns_hist", nums(&self.hist[..last])),
            ("self_ns_by_sim_slice", nums(&self.slices)),
        ])
    }
}

/// A top-level span, kept individually.
#[derive(Debug, Clone)]
pub struct TopSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The outcome of one traced run.
#[derive(Debug)]
pub struct Traced {
    /// Aggregates, indexed like [`LOOP_SPANS`].
    pub spans: [SpanAgg; 5],
    /// Assembly steps, `mpi.start` and `world.loop`, in time order.
    pub top: Vec<TopSpan>,
    pub events: u64,
    pub finished: bool,
    /// Allocation calls and bytes requested over `mpi.start` + `world.loop`
    /// (the spans themselves allocate nothing).
    pub allocs: (u64, u64),
}

impl Traced {
    pub fn top_ns(&self, name: &str) -> u64 {
        self.top.iter().filter(|t| t.name == name).map(|t| t.dur_ns).sum()
    }

    /// `core.assemble`: every top-level span before the first event.
    pub fn assemble_ns(&self) -> u64 {
        self.top
            .iter()
            .filter(|t| !matches!(t.name, "mpi.start" | "world.loop"))
            .map(|t| t.dur_ns)
            .sum()
    }

    /// `mpi.start` + `world.loop`: the region the product's own
    /// `report.wall_s` times.
    pub fn run_ns(&self) -> u64 {
        self.top_ns("mpi.start") + self.top_ns("world.loop")
    }

    /// Share of [`Self::run_ns`] the spans' self times account for. The
    /// remainder is `mpi.start`'s own rank stepping, which has no span of
    /// its own inside the loop set.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.spans.iter().map(SpanAgg::self_ns).sum();
        covered as f64 / self.run_ns().max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "spans",
                Json::obj(LOOP_SPANS.iter().zip(&self.spans).map(|(n, s)| (*n, s.to_json()))),
            ),
            (
                "top_level",
                Json::Arr(
                    self.top
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("name", Json::str(t.name)),
                                ("start_ns", Json::Num(t.start_ns as f64)),
                                ("dur_ns", Json::Num(t.dur_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

struct Clock(Instant);

impl Clock {
    #[inline]
    fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The scheduler handed to the handlers: forwards to the world queue and
/// times every `Scheduler::at` as a `des.push` span, a child of whichever
/// handler span is open.
struct TimedSched<'a> {
    queue: &'a mut WorldQueue<DefaultBackend>,
    clock: &'a Clock,
    push: SpanAgg,
    /// Push time since the open handler span began.
    child_ns: u64,
    slice: usize,
}

impl TimedSched<'_> {
    #[inline]
    fn timed_push(&mut self, push: impl FnOnce(&mut WorldQueue<DefaultBackend>)) {
        let t0 = self.clock.ns();
        push(self.queue);
        let dur = self.clock.ns() - t0;
        self.push.add(dur, 0, self.slice);
        self.child_ns += dur;
    }
}

impl Scheduler<NetEvent> for TimedSched<'_> {
    #[inline]
    fn now(&self) -> Time {
        self.queue.now()
    }
    #[inline]
    fn at(&mut self, time: Time, event: NetEvent) {
        self.timed_push(|q| q.at(time, event));
    }
}

impl Scheduler<MpiEvent> for TimedSched<'_> {
    #[inline]
    fn now(&self) -> Time {
        self.queue.now()
    }
    #[inline]
    fn at(&mut self, time: Time, event: MpiEvent) {
        self.timed_push(|q| q.at(time, event));
    }
}

/// The static job list of a span cell (the benchmark's span cells are
/// pairwise or explicit-jobs workloads; `Simulation::prepare` materializes
/// them privately, so the pairwise rule is restated here and checked by the
/// caller's event-count comparison).
fn jobs_of(spec: &ExperimentSpec) -> Result<Vec<JobSpec>, String> {
    match &spec.workload {
        Workload::Jobs(jobs) => Ok(jobs.clone()),
        Workload::Pairwise { target, background } => {
            let half = spec.params.num_nodes() / 2;
            let tsize = target.preferred_size(half);
            let mut jobs = vec![JobSpec::sized(*target, tsize)];
            if tsize < half {
                jobs.push(JobSpec::idle(half - tsize));
            }
            if let Some(bg) = background {
                jobs.push(JobSpec::sized(*bg, bg.preferred_size(half)));
            }
            Ok(jobs)
        }
        other => Err(format!("no world-loop spans for workload '{}'", other.describe())),
    }
}

/// Assemble the world of `spec` and run it to completion under spans.
/// `end_time` (the simulated end of the product's own run) scales the
/// simulated-time slices. A `spec.trace` path attaches a `TraceWriter` sink,
/// as the product does (without the META frame, whose encoder is private).
pub fn run_traced(spec: &ExperimentSpec, end_time: Time) -> Result<Traced, String> {
    let clock = Clock(Instant::now());
    let mut top: Vec<TopSpan> = Vec::new();
    let mut step = |name: &'static str, start_ns: u64| {
        top.push(TopSpan { name, start_ns, dur_ns: clock.ns() - start_ns });
    };

    let cfg = spec.sim();
    cfg.validate()?;
    let jobs = jobs_of(spec)?;

    let t = clock.ns();
    let topo = Arc::new(Topology::new(cfg.params).map_err(|e| e.to_string())?);
    step("topology.new", t);

    let t = clock.ns();
    let sizes: Vec<u32> = jobs.iter().map(|j| j.size).collect();
    let partitions = dfsim_core::placement::place(&topo, spec.placement, &sizes, cfg.seed);
    step("core.place", t);

    let t = clock.ns();
    let mut rec = Recorder::new(&topo, cfg.recorder);
    if let Some(path) = &cfg.trace {
        rec.set_sink(Box::new(TraceWriter::create(path).map_err(|e| e.to_string())?));
    }
    step("metrics.recorder.new", t);

    let t = clock.ns();
    let net =
        NetworkSim::new(Arc::clone(&topo), cfg.timing, cfg.routing.clone(), &SimRng::new(cfg.seed));
    step("network.new", t);

    let mut mpi = MpiSim::new(MpiConfig { eager_threshold: cfg.eager_threshold });
    let mut apps = 0u64;
    for (job, nodes) in jobs.iter().zip(partitions) {
        if job.idle {
            continue;
        }
        let t = clock.ns();
        let inst = job.kind.build(job.size, cfg.scale, cfg.seed ^ (apps << 32));
        step("apps.build", t);
        let t = clock.ns();
        mpi.add_app(AppId(apps as u16), nodes, inst.programs, inst.comms);
        step("mpi.add_app", t);
        apps += 1;
    }

    let t = clock.ns();
    let mut world = World::<DefaultBackend>::with_backend(net, mpi, rec, cfg.queue);
    step("core.world.new", t);

    let World { net, mpi, rec, queue, .. } = &mut world;
    let mut sched =
        TimedSched { queue, clock: &clock, push: SpanAgg::default(), child_ns: 0, slice: 0 };
    let [mut pop, mut handle, mut on_effect, mut mpi_handle] = [(); 4].map(|()| SpanAgg::default());
    let mut effects = Vec::new();
    let slice_of =
        |t: Time| ((t.saturating_mul(SLICES as u64) / end_time.max(1)) as usize).min(SLICES - 1);

    let allocs = crate::alloc::start();
    let t = clock.ns();
    mpi.start(&mut sched, net, rec);
    step("mpi.start", t);

    // The loop of `World::run`, with a clock read between the layers. The
    // stop checks ride in the following `des.pop` span, so the spans tile
    // the loop without gaps.
    let loop_start = clock.ns();
    let mut finished = mpi.all_finished();
    let mut processed = 0u64;
    let mut t0 = loop_start;
    while !finished {
        let popped = sched.queue.pop();
        let t1 = clock.ns();
        let Some((time, ev)) = popped else { break };
        if cfg.horizon.is_some_and(|h| time > h) {
            break;
        }
        let slice = slice_of(time);
        sched.slice = slice;
        pop.add(t1 - t0, 0, slice);
        sched.child_ns = 0;
        t0 = match ev {
            WorldEvent::Net(e) => {
                net.handle(e, &mut sched, rec, &mut effects);
                let mut t2 = clock.ns();
                handle.add(t2 - t1, sched.child_ns, slice);
                for eff in effects.drain(..) {
                    sched.child_ns = 0;
                    mpi.on_net_effect(eff, &mut sched, net, rec);
                    let t3 = clock.ns();
                    on_effect.add(t3 - t2, sched.child_ns, slice);
                    t2 = t3;
                }
                t2
            }
            WorldEvent::Mpi(e) => {
                mpi.handle(e, &mut sched, net, rec);
                let t2 = clock.ns();
                mpi_handle.add(t2 - t1, sched.child_ns, slice);
                t2
            }
            WorldEvent::Job(e) => {
                allocs.stop();
                return Err(format!("job event {e:?} in a static run"));
            }
        };
        processed += 1;
        if processed >= cfg.max_events {
            break;
        }
        finished = mpi.all_finished();
    }
    let loop_end = clock.ns();
    let allocs = allocs.stop();
    let push = sched.push;
    top.push(TopSpan { name: "world.loop", start_ns: loop_start, dur_ns: loop_end - loop_start });

    let events = world.queue.events_processed();
    if let Some(sink) = world.rec.take_sink() {
        sink.finish(None).map_err(|e| format!("trace sink: {e}"))?;
    }
    Ok(Traced { spans: [pop, push, handle, on_effect, mpi_handle], top, events, finished, allocs })
}
