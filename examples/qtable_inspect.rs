//! Peek inside Q-adaptive's learning — now on top of the snapshot API:
//! run traffic through the network directly (no MPI layer), snapshot every
//! router's two-level Q-table, round-trip it through a file, and dump one
//! router's level-1 values before and after training, showing how
//! congestion reshapes the learned delivery-time estimates (paper Fig 2).
//!
//! ```sh
//! cargo run --release --example qtable_inspect
//! ```

use dragonfly_interference::des::queue::PendingEvents;
use dragonfly_interference::des::sched::QueueScheduler;
use dragonfly_interference::des::EventQueue;
use dragonfly_interference::network::{NetEvent, PartitionMap, QTable, QTableInit};
use dragonfly_interference::prelude::*;
use dragonfly_interference::topology::{GroupId, Port, RouterId};

fn main() {
    let topo = std::sync::Arc::new(Topology::new(DragonflyParams::paper_1056()).unwrap());
    let timing = LinkTiming::default();
    let cfg = RoutingConfig::new(RoutingAlgo::QAdaptive);
    let alpha = cfg.qa.alpha;
    let rng = SimRng::new(7);
    let mut rec = Recorder::new(&topo, RecorderConfig::default());
    let mut net = NetworkSim::new(std::sync::Arc::clone(&topo), timing, cfg, &rng);
    let mut queue: EventQueue<NetEvent> = EventQueue::new();

    let fresh = QTable::new(&topo, RouterId(0), &timing, alpha);

    // Hammer the direct G0→G1 link with traffic from group 0's nodes to
    // group 1's nodes, plus background from group 2.
    let mut traffic_rng = SimRng::new(99);
    let mut effects = Vec::new();
    for _round in 0..400u32 {
        for src in 0..32u32 {
            let dst = 32 + traffic_rng.index(32) as u32; // group 1 nodes
            let mut sched = QueueScheduler::new(&mut queue);
            net.send_message(&mut sched, &mut rec, NodeId(src), NodeId(dst), 4096, AppId(0));
        }
        // Drain a slice of events between bursts.
        for _ in 0..4_000 {
            let Some((_, ev)) = queue.pop() else { break };
            let mut sched = QueueScheduler::new(&mut queue);
            net.handle(ev, &mut sched, &mut rec, &mut effects);
            effects.clear();
        }
    }
    while let Some((_, ev)) = queue.pop() {
        let mut sched = QueueScheduler::new(&mut queue);
        net.handle(ev, &mut sched, &mut rec, &mut effects);
        effects.clear();
    }

    // Snapshot the learned tables and round-trip them through a file —
    // exactly what `--qtable_save` / `--qtable_load` do.
    let snap = net.qtable_snapshot().expect("Q-adaptive routers carry Q-tables");
    let path = std::env::temp_dir().join(format!("qtable_inspect_{}.snap", std::process::id()));
    snap.save(&path).expect("snapshot write");
    let loaded = QTableSnapshot::load(&path).expect("snapshot read");
    loaded
        .verify(topo.params(), &timing, alpha)
        .expect("fingerprint of a just-saved snapshot must match");
    assert_eq!(snap, loaded, "save -> load must be lossless");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "snapshot: {} routers, alpha {}, {:.1} MB at {} (round-trip verified)\n",
        loaded.num_routers(),
        loaded.alpha(),
        bytes as f64 / 1e6,
        path.display()
    );
    let _ = std::fs::remove_file(&path);

    // The learned values now come out of the *snapshot*: a network
    // warm-started from it, built the way `--qtable_load` builds one.
    let warm_cfg = RoutingConfig { qtable_init: QTableInit::Warm, ..cfg };
    let p = topo.params();
    let map = PartitionMap::new(p.groups, p.routers_per_group, p.nodes_per_router, 1);
    let warm = NetworkSim::shard(
        std::sync::Arc::clone(&topo),
        timing,
        warm_cfg,
        &rng,
        std::sync::Arc::new(map),
        0,
        Some(&loaded),
    );
    let learned = warm.router(RouterId(0)).qtable.as_ref().expect("a warm Q-adaptive router");
    println!("router r0 (group 0), destination group G1 — Q-values per port (ns):");
    println!("{:<8} {:>6} {:>12} {:>12} {:>9}", "port", "kind", "initial", "learned", "delta%");
    for p in 4..topo.radix() {
        let port = Port(p);
        let kind = topo.port_kind(port);
        let q0 = fresh.q1(GroupId(1), port) / 1000.0;
        let q1 = learned.q1(GroupId(1), port) / 1000.0;
        println!(
            "{:<8} {:>6} {:>12.1} {:>12.1} {:>8.1}%",
            format!("{port}"),
            format!("{kind}"),
            q0,
            q1,
            100.0 * (q1 / q0 - 1.0),
        );
    }
    println!();
    println!(
        "the direct global port's learned estimate should have inflated (it carried\n\
         all the load), while detour ports stay near their static estimates —\n\
         exactly the signal Q-adaptive routes by. A warm-started run begins from\n\
         these values instead of the 'initial' column."
    );
    let delivered = rec.app(AppId(0)).map(|a| a.packets_delivered).unwrap_or(0);
    let learn = rec.learning();
    println!(
        "({delivered} packets delivered; {} Q1 updates, mean |dQ1| {:.2} ns)",
        learn.updates(),
        learn.mean_abs() / 1e3
    );
}
