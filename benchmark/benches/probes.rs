//! Single-layer probes: each drives one crate's public API on a seeded input
//! and reports one number. They say which layer moved when an end-to-end
//! metric does; none of them is gated.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dfsim_apps::AppKind;
use dfsim_core::cache::{decode_report, encode_report};
use dfsim_core::{
    cache_key, replay_trace, CacheMode, ExperimentSpec, ResultCache, RunHandle, RunReport,
};
use dfsim_des::queue::PendingEvents;
use dfsim_des::sched::QueueScheduler;
use dfsim_des::{
    local_mesh, CalendarQueue, EventQueue, SimCommunicator, SimRng, WireReader, WireWriter,
};
use dfsim_metrics::trace::{encode_event, read_trace};
use dfsim_metrics::{AppId, Recorder, RecorderConfig, TraceEvent, TraceWriter};
use dfsim_mpi::collectives::{expand, Collective};
use dfsim_mpi::matching::{MatchQueues, PostedRecv, Unexpected, UnexpectedKind};
use dfsim_mpi::CommId;
use dfsim_network::partition::{decode_event, encode_event as encode_net_event};
use dfsim_network::{NetEvent, NetworkSim, RoutingAlgo, RoutingConfig};
use dfsim_topology::{DragonflyParams, GroupId, LinkTiming, NodeId, Port, RouterId, Topology};

use crate::stats::median;
use crate::workloads::{self, System};

/// Problem sizes: paper-scale by default, a few milliseconds each under
/// `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    params: DragonflyParams,
    system: &'static System,
    /// Job size of the MPI and app probes (the paper's half-system job).
    ranks: u32,
    hold_pending: u64,
    hold_ops: u64,
    fanin_messages: u32,
    ops: u64,
    exchange_rounds: u32,
    repeats: usize,
}

pub const FULL: Sizes = Sizes {
    params: DragonflyParams::paper_1056(),
    system: &workloads::PAPER,
    ranks: 528,
    hold_pending: 100_000,
    hold_ops: 1_000_000,
    fanin_messages: 4_096,
    ops: 1_000_000,
    exchange_rounds: 2_000,
    repeats: 5,
};

pub const SMOKE: Sizes = Sizes {
    params: DragonflyParams::tiny_72(),
    system: &workloads::TINY,
    ranks: 36,
    hold_pending: 2_000,
    hold_ops: 20_000,
    fanin_messages: 128,
    ops: 20_000,
    exchange_rounds: 50,
    repeats: 1,
};

/// Nanoseconds per operation of `f`, which performs `ops` operations.
fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Median wall milliseconds of `repeats` calls of `f`.
fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `des.hold.*`: the hold model (pop one, push one) over a standing
/// population, with the network's increment mix — short link delays plus 2%
/// far-horizon compute wake-ups, the pattern that defeats a mistuned
/// calendar.
fn hold<Q: PendingEvents<u64>>(mut q: Q, s: &Sizes, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed).derive("hold");
    let increment = |rng: &mut SimRng| {
        let horizon = if rng.chance(0.02) { 5_000_000 } else { 40_000 };
        1 + rng.below(horizon)
    };
    for i in 0..s.hold_pending {
        let dt = increment(&mut rng);
        q.push(dt, i);
    }
    ns_per_op(s.hold_ops, || {
        let mut acc = 0u64;
        for i in 0..s.hold_ops {
            if let Some((now, e)) = q.pop() {
                acc = acc.wrapping_add(e);
                q.push(now + increment(&mut rng), i);
            }
        }
        black_box(acc);
    })
}

/// `network.fanin.*`: a fan-in burst into one node through `send_message`
/// and `handle`, events per second of the network layer alone.
fn fanin(algo: RoutingAlgo, s: &Sizes, seed: u64) -> Result<f64, String> {
    let topo = Arc::new(Topology::new(s.params).map_err(|e| e.to_string())?);
    let mut rec =
        Recorder::new(&topo, RecorderConfig { record_latencies: false, ..Default::default() });
    let rng = SimRng::new(seed);
    let mut net =
        NetworkSim::new(Arc::clone(&topo), LinkTiming::default(), RoutingConfig::new(algo), &rng);
    let mut queue = EventQueue::new();
    let mut effects = Vec::new();
    let n = topo.num_nodes();
    let mut pick = rng.derive("fanin");
    let t = Instant::now();
    for _ in 0..s.fanin_messages {
        let src = NodeId(1 + pick.below(n as u64 - 1) as u32);
        let mut sched = QueueScheduler::new(&mut queue);
        net.send_message(&mut sched, &mut rec, src, NodeId(0), 2048, AppId(0));
    }
    let mut events = 0u64;
    while let Some((_, ev)) = queue.pop() {
        let mut sched = QueueScheduler::new(&mut queue);
        net.handle(ev, &mut sched, &mut rec, &mut effects);
        effects.clear();
        events += 1;
    }
    Ok(events as f64 / t.elapsed().as_secs_f64())
}

/// `mpi.match`: `MatchQueues::arrive`/`post` with 32 envelopes outstanding;
/// even keys arrive before their receive is posted, odd keys after.
fn mpi_match(s: &Sizes, seed: u64) -> f64 {
    const WINDOW: usize = 32;
    let mut rng = SimRng::new(seed).derive("match");
    let keys: Vec<(u32, u64)> =
        (0..s.ops / 2).map(|_| (rng.below(s.ranks as u64) as u32, rng.below(64))).collect();
    let envelope = |&(src, tag): &(u32, u64)| Unexpected { src, tag, kind: UnexpectedKind::Eager };
    let receive = |i: usize, &(src, tag): &(u32, u64)| PostedRecv {
        src: (!i.is_multiple_of(8)).then_some(src), // one wildcard receive in eight
        tag,
        req: i as u32,
    };
    let mut q = MatchQueues::new();
    ns_per_op(keys.len() as u64 * 2, || {
        for i in 0..keys.len() + WINDOW {
            if let Some(k) = keys.get(i) {
                if i % 2 == 0 {
                    black_box(q.arrive(envelope(k)));
                } else {
                    black_box(q.post(receive(i, k)));
                }
            }
            if let Some(j) = i.checked_sub(WINDOW) {
                if j % 2 == 0 {
                    black_box(q.post(receive(j, &keys[j])));
                } else {
                    black_box(q.arrive(envelope(&keys[j])));
                }
            }
        }
    })
}

/// `mpi.expand`: `collectives::expand` of the four collective shapes for
/// every rank of a half-system communicator.
fn mpi_expand(s: &Sizes) -> f64 {
    let members: Vec<u32> = (0..s.ranks).collect();
    let shapes = [
        Collective::AllReduce { bytes: 1 << 20 },
        Collective::AllToAll { bytes: 4096 },
        Collective::Bcast { root: 0, bytes: 1 << 16 },
        Collective::Barrier,
    ];
    let calls = shapes.len() as u64 * s.ranks as u64;
    ns_per_op(calls, || {
        for (seq, coll) in shapes.iter().enumerate() {
            for me in 0..s.ranks {
                black_box(expand(*coll, CommId(0), &members, me, seq as u32));
            }
        }
    })
}

/// A seeded stream of Recorder hooks in the mix a fig8 Q-adaptive trace
/// holds: 38% forwarded, 24% Q1 updates, 22% stalls, 8% injected, 8%
/// delivered.
fn hook_stream(s: &Sizes, topo: &Topology, seed: u64) -> Vec<TraceEvent> {
    let mut rng = SimRng::new(seed).derive("hooks");
    let (routers, radix) = (topo.num_routers() as u64, topo.radix() as u64);
    (0..s.ops)
        .map(|i| {
            let t = i * 27_000;
            let router = RouterId(rng.below(routers) as u32);
            let port = Port(rng.below(radix) as u8);
            let app = AppId(rng.below(2) as u16);
            match rng.below(100) {
                0..=37 => TraceEvent::Forwarded { router, port, busy: 20_480, bytes: 512 },
                38..=61 => TraceEvent::Q1Updated { t, delta_ps: rng.unit() * 1e5 },
                62..=83 => TraceEvent::Stalled { router, port, dur: 1 + rng.below(100_000) },
                84..=91 => TraceEvent::Injected { app, t, bytes: 512 },
                _ => TraceEvent::Delivered {
                    app,
                    inject: t.saturating_sub(3_000_000),
                    deliver: t,
                    bytes: 512,
                    detoured: rng.chance(0.3),
                    hops: Some(rng.below(6) as u8),
                },
            }
        })
        .collect()
}

/// `metrics.recorder.*`: the stream through the Recorder's own hooks, with
/// whatever sink `rec` carries.
fn recorder_hooks(rec: &mut Recorder, stream: &[TraceEvent]) -> f64 {
    ns_per_op(stream.len() as u64, || {
        for ev in stream {
            match *ev {
                TraceEvent::Forwarded { router, port, busy, bytes } => {
                    rec.packet_forwarded(router, port, busy, bytes)
                }
                TraceEvent::Q1Updated { t, delta_ps } => rec.q1_updated(t, delta_ps),
                TraceEvent::Stalled { router, port, dur } => rec.port_stalled(router, port, dur),
                TraceEvent::Injected { app, t, bytes } => rec.packet_injected(app, t, bytes),
                TraceEvent::Delivered { app, inject, deliver, bytes, detoured, hops } => rec
                    .packet_delivered_full(
                        app,
                        inject,
                        deliver,
                        bytes,
                        detoured,
                        hops.unwrap_or(0),
                    ),
                TraceEvent::IngressBurst { app, bytes } => rec.ingress_burst(app, bytes),
                TraceEvent::RankFinished { app, rank, comm, exec } => {
                    rec.rank_finished(app, rank, comm, exec)
                }
            }
        }
    })
}

/// `des.comm.exchange`: two threads exchanging frames of 32 boundary events
/// through `local_mesh(2)`, encode and decode included, microseconds per
/// round on rank 0.
fn comm_exchange(s: &Sizes, seed: u64) -> Result<f64, String> {
    const EVENTS_PER_FRAME: u64 = 32;
    let rounds = s.exchange_rounds;
    let work = move |mut comm: dfsim_des::LocalThreadCommunicator| {
        let mut rng = SimRng::new(seed).derive_idx("exchange", comm.rank() as u64);
        let peer = 1 - comm.rank();
        let t = Instant::now();
        let mut decoded = 0u64;
        for round in 0..rounds as u64 {
            let mut w = WireWriter::new();
            for k in 0..EVENTS_PER_FRAME {
                let router = RouterId(rng.below(264) as u32);
                let port = Port(rng.below(15) as u8);
                let ev = if k % 2 == 0 {
                    NetEvent::Credit { router, port, vc: (k % 3) as u8 }
                } else {
                    NetEvent::QFeedback {
                        router,
                        port,
                        dst_group: GroupId(rng.below(33) as u32),
                        dst_local: rng.below(8) as u32,
                        sample: rng.below(1_000_000),
                    }
                };
                encode_net_event(&mut w, round * 1_000 + k, k, &ev);
            }
            let mut frames = vec![Vec::new(), Vec::new()];
            frames[peer] = w.into_frame();
            let received = comm.exchange(frames);
            let mut r = WireReader::new(&received[peer]);
            while !r.is_empty() {
                black_box(decode_event(&mut r));
                decoded += 1;
            }
        }
        (t.elapsed().as_secs_f64() * 1e6 / rounds.max(1) as f64, decoded)
    };
    let mut mesh = local_mesh(2).into_iter();
    let (c0, c1) = (mesh.next().ok_or("mesh of 2")?, mesh.next().ok_or("mesh of 2")?);
    let (r0, r1) = std::thread::scope(|scope| {
        let peer = scope.spawn(move || work(c1));
        let r0 = work(c0);
        (r0, peer.join())
    });
    let r1 = r1.map_err(|_| "exchange peer thread panicked".to_string())?;
    let want = rounds as u64 * EVENTS_PER_FRAME;
    if r0.1 != want || r1.1 != want {
        return Err(format!("exchange decoded {} and {} events, expected {want}", r0.1, r1.1));
    }
    Ok(r0.0)
}

/// A short product-traced run (`Simulation::run` with `trace` set), for the
/// probes that need a trace file with its META frame.
fn traced_run(s: &Sizes, seed: u64, path: &Path) -> Result<RunReport, String> {
    let w = workloads::find("fig8_qadp").ok_or("fig8_qadp is a workload")?;
    // 1/16 of the workload's size: the probes report per-event costs.
    let text =
        workloads::span_cell_text(&w, s.system, seed) + &format!("trace {}\n", path.display());
    let mut spec = ExperimentSpec::parse(&text).map_err(|e| e.to_string())?;
    spec.scale *= 16.0;
    Ok(crate::one::simulate(spec)?.report)
}

/// `core.cache.*`: the report codec alone, then what a hit pays end to end —
/// key hashing and `lookup` of a stored entry, Q-table snapshot included
/// (stored as text, which is most of a Q-adaptive entry's bytes and of its
/// lookup time).
fn cache_probes(
    s: &Sizes,
    spec: &ExperimentSpec,
    run: &RunHandle,
    tmp: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let mut blob = Vec::new();
    out.push((
        "core.cache.encode",
        median_ms(s.repeats, || blob = encode_report(black_box(&run.report))),
    ));
    let mut failed = false;
    out.push((
        "core.cache.decode",
        median_ms(s.repeats, || match decode_report(black_box(&blob)) {
            Ok(r) => {
                black_box(r.events);
            }
            Err(_) => failed = true,
        }),
    ));
    if failed {
        return Err("decode_report rejected encode_report's own output".to_string());
    }

    let key_ops = s.ops / 500;
    let key = cache_key(spec).map_err(|e| e.to_string())?;
    out.push((
        "core.cache.key",
        ns_per_op(key_ops, || {
            for _ in 0..key_ops {
                black_box(cache_key(black_box(spec)).is_ok());
            }
        }) / 1e3,
    ));
    let cache = ResultCache::open(&CacheMode::Dir(tmp.join("probe-cache")))
        .map_err(|e| e.to_string())?
        .ok_or("a directory cache mode opens a cache")?;
    cache.store(&key, &run.report, run.qtable_snapshot.as_ref()).map_err(|e| e.to_string())?;
    out.push((
        "core.cache.lookup",
        median_ms(s.repeats, || failed |= black_box(cache.lookup(&key)).is_none()),
    ));
    if failed {
        return Err("the cache missed the entry it just stored".to_string());
    }
    let entry = cache.entry_path(&key);
    let bytes = std::fs::metadata(&entry).map_err(|e| format!("{}: {e}", entry.display()))?.len();
    out.push(("core.cache.entry_bytes", bytes as f64));
    Ok(())
}

/// Every probe, as `(metric name, value)`. `spec` and `run` are the span
/// cell and the product's run of it (the cache probes work on them); `tmp`
/// holds the files.
pub fn run_all(
    s: &Sizes,
    seed: u64,
    spec: &ExperimentSpec,
    run: &RunHandle,
    tmp: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    out.push(("des.hold.heap", hold(EventQueue::new(), s, seed)));
    out.push(("des.hold.calendar_auto", hold(CalendarQueue::auto(), s, seed)));

    for (name, algo) in [
        ("network.fanin.min", RoutingAlgo::Minimal),
        ("network.fanin.ugalg", RoutingAlgo::UgalG),
        ("network.fanin.par", RoutingAlgo::Par),
        ("network.fanin.qadp", RoutingAlgo::QAdaptive),
    ] {
        out.push((name, fanin(algo, s, seed)?));
    }

    out.push(("mpi.match", mpi_match(s, seed)));
    out.push(("mpi.expand", mpi_expand(s)));

    let topo = Arc::new(Topology::new(s.params).map_err(|e| e.to_string())?);
    out.push((
        "topology.build",
        ns_per_op(s.ops, || {
            for _ in 0..s.ops {
                black_box(Topology::new(black_box(s.params)).is_ok());
            }
        }),
    ));
    let mut rng = SimRng::new(seed).derive("lookup");
    let (routers, nodes) = (topo.num_routers() as u64, topo.num_nodes() as u64);
    out.push((
        "topology.min_next_port",
        ns_per_op(s.ops, || {
            for _ in 0..s.ops {
                let here = RouterId(rng.below(routers) as u32);
                black_box(topo.min_next_port(here, NodeId(rng.below(nodes) as u32)));
            }
        }),
    ));
    out.push((
        "apps.build",
        median_ms(s.repeats, || {
            black_box(AppKind::LQCD.build(s.ranks, 64.0, seed).programs.len());
        }),
    ));
    let spec_text = ExperimentSpec::default().emit();
    let parse_emit_ops = s.ops / 500;
    let mut parse_failed = false;
    let parse_emit_ns = ns_per_op(parse_emit_ops, || {
        for _ in 0..parse_emit_ops {
            match ExperimentSpec::parse(black_box(&spec_text)) {
                Ok(spec) => {
                    black_box(spec.emit());
                }
                Err(_) => parse_failed = true,
            }
        }
    });
    if parse_failed {
        return Err("the default spec's own emit does not parse".to_string());
    }
    out.push(("core.spec.parse_emit", parse_emit_ns / 1e3));

    let stream = hook_stream(s, &topo, seed);
    let mut rec = Recorder::new(&topo, RecorderConfig::default());
    out.push(("metrics.recorder.nosink", recorder_hooks(&mut rec, &stream)));
    let hooks_file = tmp.join("hooks.trace");
    let mut rec = Recorder::new(&topo, RecorderConfig::default());
    rec.set_sink(Box::new(TraceWriter::create(&hooks_file).map_err(|e| e.to_string())?));
    out.push(("metrics.recorder.tracewriter", recorder_hooks(&mut rec, &stream)));
    if let Some(sink) = rec.take_sink() {
        sink.finish(None).map_err(|e| format!("{}: {e}", hooks_file.display()))?;
    }

    let mut buf = Vec::with_capacity(1 << 16);
    out.push((
        "metrics.trace.encode",
        ns_per_op(stream.len() as u64, || {
            for ev in &stream {
                if buf.len() >= 1 << 16 {
                    black_box(&buf);
                    buf.clear();
                }
                encode_event(&mut buf, ev);
            }
        }),
    ));
    let t = Instant::now();
    let contents = read_trace(&hooks_file, |ev| {
        black_box(ev);
    })
    .map_err(|e| e.to_string())?;
    out.push(("metrics.trace.read", t.elapsed().as_nanos() as f64 / contents.events.max(1) as f64));

    let run_file = tmp.join("probe.trace");
    let traced = traced_run(s, seed, &run_file)?;
    let metric_events = read_trace(&run_file, |_| {}).map_err(|e| e.to_string())?.events;
    let t = Instant::now();
    let replayed = replay_trace(&run_file).map_err(|e| e.to_string())?;
    out.push(("core.trace.replay", t.elapsed().as_nanos() as f64 / metric_events.max(1) as f64));
    if replayed.events != traced.events || replayed.sim_ms != traced.sim_ms {
        return Err("replay_trace did not reproduce the traced probe run".to_string());
    }

    cache_probes(s, spec, run, tmp, &mut out)?;

    out.push(("des.comm.exchange", comm_exchange(s, seed)?));
    Ok(out)
}
