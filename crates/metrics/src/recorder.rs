//! The [`Recorder`]: the single sink every simulation component reports into.
//!
//! The network simulation reports packet injections/deliveries, per-port
//! stalls and forwards; the MPI layer reports per-rank communication time and
//! ingress bursts. The experiment harness then reads the aggregates to build
//! the paper's tables and figures. All recording paths are branch-light and
//! allocation-free after warm-up, so instrumentation does not distort the
//! simulation hot loop.

use std::sync::Arc;

use dfsim_des::{Time, MILLISECOND};
use dfsim_topology::{LinkKind, Port, RouterId, Topology};

use crate::congestion::CongestionMatrix;
use crate::hist::SamplePool;
use crate::learning::LearningTrace;
use crate::series::BinSeries;
use crate::sink::{EventSink, TraceEvent};
use crate::stall::PortTable;

/// Identifies one application (job) within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u16);

impl AppId {
    /// Raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Recorder configuration: what to collect and at which granularity —
/// the "flexibly configured IO module" of paper §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Time-series bin width (default 0.1 ms, matching the paper's plots).
    pub bin_width: Time,
    /// Record every packet latency sample (needed by Figs 6, 7, 13a).
    pub record_latencies: bool,
    /// Record per-port stall/forward counters (needed by Figs 11, 12).
    pub record_ports: bool,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self { bin_width: MILLISECOND / 10, record_latencies: true, record_ports: true }
    }
}

/// Per-application aggregates.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// Bytes handed to NICs over time.
    pub injected: BinSeries,
    /// Bytes delivered to destination nodes over time.
    pub delivered: BinSeries,
    /// Packet latency samples `(deliver time, latency ps)`.
    pub latencies: SamplePool,
    /// Packets injected.
    pub packets_injected: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Delivered packets that took a non-minimal (Valiant) path.
    pub packets_detoured: u64,
    /// Histogram of router-to-router hops per delivered packet (index =
    /// hop count, saturating at the last bucket).
    pub hops_histogram: [u64; 9],
    /// Sum of hops over delivered packets (for the mean).
    pub hops_total: u64,
    /// Largest single ingress burst a rank posted (peak ingress volume), B.
    pub max_ingress_burst: u64,
    /// Per-rank `(rank, comm time ps, exec time ps)` records.
    pub rank_comm: Vec<(u32, Time, Time)>,
}

impl AppRecord {
    fn new(bin_width: Time) -> Self {
        Self {
            injected: BinSeries::new(bin_width),
            delivered: BinSeries::new(bin_width),
            latencies: SamplePool::new(),
            packets_injected: 0,
            packets_delivered: 0,
            packets_detoured: 0,
            hops_histogram: [0; 9],
            hops_total: 0,
            max_ingress_burst: 0,
            rank_comm: Vec::new(),
        }
    }
}

/// One order-sensitive metric event captured under keyed capture (see
/// [`Recorder::enable_keyed_capture`]). `(time, seq)` is the key of the
/// simulation event that produced it; a partitioned run merges the journals
/// of all partitions, sorts by key, and replays them into one recorder so
/// the order-sensitive aggregates match a single-threaded run bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedEntry {
    /// Event time of the producing simulation event.
    pub time: Time,
    /// Queue sequence number of the producing simulation event.
    pub seq: u64,
    /// What was recorded.
    pub kind: KeyedKind,
}

/// Payload of a [`KeyedEntry`].
#[derive(Debug, Clone, PartialEq)]
pub enum KeyedKind {
    /// A [`Recorder::q1_updated`] call (floating-point bin sums depend on
    /// accumulation order).
    Q1Update {
        /// Update timestamp.
        t: Time,
        /// `|ΔQ1|` magnitude, ps.
        delta_ps: f64,
    },
    /// A [`Recorder::rank_finished`] call (`rank_comm` keeps push order).
    RankFinished {
        /// Application.
        app: AppId,
        /// Rank within the application.
        rank: u32,
        /// Communication time, ps.
        comm: Time,
        /// Execution time, ps.
        exec: Time,
    },
}

/// The metrics sink (see module docs).
#[derive(Debug)]
pub struct Recorder {
    cfg: RecorderConfig,
    topo: Arc<Topology>,
    apps: Vec<AppRecord>,
    ports: PortTable,
    congestion: CongestionMatrix,
    learning: LearningTrace,
    /// When `Some`, order-sensitive hooks divert into this journal instead
    /// of updating `learning`/`rank_comm` directly.
    keyed: Option<Vec<KeyedEntry>>,
    /// Key of the simulation event currently being processed.
    key: (Time, u64),
    /// Optional streaming subscriber; every hook forwards its event here
    /// after updating the aggregates. `None` (the default) costs one
    /// discriminant test per hook.
    sink: Option<Box<dyn EventSink>>,
}

impl Recorder {
    /// Build a recorder for a topology. The topology is shared by
    /// reference counting with the network and the runner — no per-run
    /// deep copy of the wiring tables.
    pub fn new(topo: &Arc<Topology>, cfg: RecorderConfig) -> Self {
        let radix = topo.radix() as usize;
        let routers = topo.num_routers() as usize;
        let kinds = {
            let t = Arc::clone(topo);
            move |p: u8| t.port_kind(Port(p))
        };
        Self {
            cfg,
            topo: Arc::clone(topo),
            apps: Vec::new(),
            ports: PortTable::new(routers, radix, kinds),
            congestion: CongestionMatrix::new(
                topo.num_groups() as usize,
                topo.params().routers_per_group as u64,
            ),
            learning: LearningTrace::new(cfg.bin_width),
            keyed: None,
            key: (0, 0),
            sink: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    // ---- streaming sink ---------------------------------------------------

    /// Attach a streaming subscriber. Every subsequent hook call forwards
    /// its [`TraceEvent`] to the sink after updating the in-memory
    /// aggregates. Replaces any previously attached sink.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Detach and return the sink so the caller can
    /// [`EventSink::finish`] it (flush + close).
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(s) = &mut self.sink {
            s.event(&ev);
        }
    }

    /// Apply one previously-recorded [`TraceEvent`] through the normal
    /// recording paths — the replay half of the trace losslessness
    /// contract: feeding a fresh recorder the exact event stream a run
    /// produced rebuilds the aggregate state that run ended with.
    pub fn replay_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Injected { app, t, bytes } => self.packet_injected(app, t, bytes),
            TraceEvent::Delivered { app, inject, deliver, bytes, detoured, hops } => {
                self.deliver(app, inject, deliver, bytes, detoured, hops)
            }
            TraceEvent::Forwarded { router, port, busy, bytes } => {
                self.packet_forwarded(router, port, busy, bytes)
            }
            TraceEvent::Stalled { router, port, dur } => self.port_stalled(router, port, dur),
            TraceEvent::Q1Updated { t, delta_ps } => self.q1_updated(t, delta_ps),
            TraceEvent::IngressBurst { app, bytes } => self.ingress_burst(app, bytes),
            TraceEvent::RankFinished { app, rank, comm, exec } => {
                self.rank_finished(app, rank, comm, exec)
            }
        }
    }

    // ---- partitioned-run support ------------------------------------------

    /// Divert order-sensitive hooks ([`Recorder::q1_updated`],
    /// [`Recorder::rank_finished`]) into a keyed journal instead of the
    /// live aggregates. Partition workers enable this so the driver can
    /// merge all journals in global `(time, seq)` order and replay them
    /// through [`Recorder::replay_keyed`] deterministically.
    pub fn enable_keyed_capture(&mut self) {
        self.keyed = Some(Vec::new());
    }

    /// Set the `(time, seq)` key stamped on subsequent keyed entries — the
    /// key of the simulation event about to be processed.
    #[inline]
    pub fn set_key(&mut self, time: Time, seq: u64) {
        self.key = (time, seq);
    }

    /// Take the journal accumulated since the last drain (empty when keyed
    /// capture was never enabled). Capture stays enabled.
    pub fn drain_keyed(&mut self) -> Vec<KeyedEntry> {
        self.keyed.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Stop diverting into the keyed journal, discarding anything not yet
    /// drained. The partition driver calls this on the recorder it elected
    /// as the merge base before replaying the combined journals into it.
    pub fn disable_keyed_capture(&mut self) {
        self.keyed = None;
    }

    /// Apply journal entries through the normal recording paths. Callers
    /// pass the merged journals of all partitions, sorted by `(time, seq)`,
    /// into a recorder *without* keyed capture enabled.
    pub fn replay_keyed(&mut self, entries: impl IntoIterator<Item = KeyedEntry>) {
        debug_assert!(self.keyed.is_none(), "replaying into a capturing recorder loops");
        for e in entries {
            match e.kind {
                KeyedKind::Q1Update { t, delta_ps } => self.learning.record(t, delta_ps),
                KeyedKind::RankFinished { app, rank, comm, exec } => {
                    self.app_mut(app).rank_comm.push((rank, comm, exec));
                }
            }
        }
    }

    /// Fold another partition's recorder into this one. Merges everything
    /// whose aggregation is order-insensitive (counters, binned series,
    /// sample pools, port/congestion tables); the order-sensitive state
    /// (`learning`, `rank_comm`) must arrive via [`Recorder::replay_keyed`],
    /// so `other` is expected to have captured it into its journal.
    pub fn absorb(&mut self, other: Recorder) {
        debug_assert!(
            other.learning.is_empty(),
            "absorbing a recorder with live learning state; enable keyed capture on workers"
        );
        for (idx, a) in other.apps.into_iter().enumerate() {
            let dst = self.app_mut(AppId(idx as u16));
            dst.injected.merge(&a.injected);
            dst.delivered.merge(&a.delivered);
            dst.latencies.extend_from(&a.latencies);
            dst.packets_injected += a.packets_injected;
            dst.packets_delivered += a.packets_delivered;
            dst.packets_detoured += a.packets_detoured;
            for (h, o) in dst.hops_histogram.iter_mut().zip(a.hops_histogram.iter()) {
                *h += *o;
            }
            dst.hops_total += a.hops_total;
            dst.max_ingress_burst = dst.max_ingress_burst.max(a.max_ingress_burst);
            dst.rank_comm.extend(a.rank_comm);
        }
        self.ports.merge(&other.ports);
        self.congestion.merge(&other.congestion);
    }

    #[inline]
    fn app_mut(&mut self, app: AppId) -> &mut AppRecord {
        let idx = app.idx();
        while self.apps.len() <= idx {
            self.apps.push(AppRecord::new(self.cfg.bin_width));
        }
        &mut self.apps[idx]
    }

    // ---- network-side hooks ----------------------------------------------

    /// A packet of `bytes` entered the network at `t`.
    #[inline]
    pub fn packet_injected(&mut self, app: AppId, t: Time, bytes: u32) {
        let a = self.app_mut(app);
        a.injected.add(t, bytes as u64);
        a.packets_injected += 1;
        self.emit(TraceEvent::Injected { app, t, bytes });
    }

    /// A packet injected at `inject` was delivered at `deliver`. Callers of
    /// this convenience wrapper know nothing about the forwarding path, so
    /// the delivery stays out of the hop statistics (`hops_histogram`,
    /// `hops_total`, and thus `mean_hops`) rather than polluting bucket 0.
    #[inline]
    pub fn packet_delivered(&mut self, app: AppId, inject: Time, deliver: Time, bytes: u32) {
        self.deliver(app, inject, deliver, bytes, false, None)
    }

    /// [`Recorder::packet_delivered`] with the non-minimal-path flag. Like
    /// the 2-arg wrapper, carries no hop count and skips hop accounting.
    #[inline]
    pub fn packet_delivered_routed(
        &mut self,
        app: AppId,
        inject: Time,
        deliver: Time,
        bytes: u32,
        detoured: bool,
    ) {
        self.deliver(app, inject, deliver, bytes, detoured, None)
    }

    /// Full delivery record: detour flag plus hop count (the per-packet
    /// "forwarding path" detail of the paper's IO module, aggregated). An
    /// explicit `hops` of 0 is a real observation (node talking to itself
    /// through one router) and is counted.
    #[inline]
    pub fn packet_delivered_full(
        &mut self,
        app: AppId,
        inject: Time,
        deliver: Time,
        bytes: u32,
        detoured: bool,
        hops: u8,
    ) {
        self.deliver(app, inject, deliver, bytes, detoured, Some(hops))
    }

    #[inline]
    fn deliver(
        &mut self,
        app: AppId,
        inject: Time,
        deliver: Time,
        bytes: u32,
        detoured: bool,
        hops: Option<u8>,
    ) {
        let record_lat = self.cfg.record_latencies;
        let a = self.app_mut(app);
        a.delivered.add(deliver, bytes as u64);
        a.packets_delivered += 1;
        if detoured {
            a.packets_detoured += 1;
        }
        if let Some(h) = hops {
            let bucket = (h as usize).min(a.hops_histogram.len() - 1);
            a.hops_histogram[bucket] += 1;
            a.hops_total += h as u64;
        }
        if record_lat {
            a.latencies.record(deliver, deliver.saturating_sub(inject));
        }
        self.emit(TraceEvent::Delivered { app, inject, deliver, bytes, detoured, hops });
    }

    /// A level-1 Q-table entry moved by `|delta_ps|` at time `t` (Q-adaptive
    /// convergence telemetry; see [`LearningTrace`]).
    #[inline]
    pub fn q1_updated(&mut self, t: Time, delta_ps: f64) {
        if let Some(j) = &mut self.keyed {
            // Under keyed capture the update reaches the trace through the
            // journal (in canonical `(time, seq)` order) at merge time, not
            // through this partition's sink.
            let (time, seq) = self.key;
            j.push(KeyedEntry { time, seq, kind: KeyedKind::Q1Update { t, delta_ps } });
        } else {
            self.learning.record(t, delta_ps);
            self.emit(TraceEvent::Q1Updated { t, delta_ps });
        }
    }

    /// A packet at `(router, port)` was head-of-line blocked for `dur` ps.
    #[inline]
    pub fn port_stalled(&mut self, router: RouterId, port: Port, dur: Time) {
        if self.cfg.record_ports {
            self.ports.add_stall(router.0, port.0, dur);
            self.emit(TraceEvent::Stalled { router, port, dur });
        }
    }

    /// A packet of `bytes` was forwarded out of `(router, port)`, occupying
    /// the link for `busy` ps.
    #[inline]
    pub fn packet_forwarded(&mut self, router: RouterId, port: Port, busy: Time, bytes: u32) {
        if !self.cfg.record_ports {
            return;
        }
        self.ports.add_forward(router.0, port.0, busy, bytes as u64);
        match self.topo.port_kind(port) {
            LinkKind::Local => {
                let g = self.topo.group_of_router(router);
                self.congestion.add_local(g.idx(), bytes as u64);
            }
            LinkKind::Global => {
                if let Some(dst) = self.topo.global_port_target(router, port) {
                    let src = self.topo.group_of_router(router);
                    self.congestion.add_global(src.idx(), dst.idx(), bytes as u64);
                }
            }
            LinkKind::Terminal => {}
        }
        self.emit(TraceEvent::Forwarded { router, port, busy, bytes });
    }

    // ---- MPI-side hooks ----------------------------------------------------

    /// A rank posted `bytes` of consecutive messages in one burst; tracks the
    /// application's peak ingress volume (paper §IV).
    #[inline]
    pub fn ingress_burst(&mut self, app: AppId, bytes: u64) {
        let a = self.app_mut(app);
        if bytes > a.max_ingress_burst {
            a.max_ingress_burst = bytes;
        }
        self.emit(TraceEvent::IngressBurst { app, bytes });
    }

    /// Final per-rank communication/execution times.
    pub fn rank_finished(&mut self, app: AppId, rank: u32, comm: Time, exec: Time) {
        if let Some(j) = &mut self.keyed {
            // As with q1_updated, keyed entries reach the trace via the
            // merged journal so the file keeps canonical order.
            let (time, seq) = self.key;
            j.push(KeyedEntry {
                time,
                seq,
                kind: KeyedKind::RankFinished { app, rank, comm, exec },
            });
        } else {
            self.app_mut(app).rank_comm.push((rank, comm, exec));
            self.emit(TraceEvent::RankFinished { app, rank, comm, exec });
        }
    }

    // ---- read side ---------------------------------------------------------

    /// Per-app aggregates (index = app id); apps never touched are absent.
    pub fn apps(&self) -> &[AppRecord] {
        &self.apps
    }

    /// Aggregates for one app, if it recorded anything.
    pub fn app(&self, app: AppId) -> Option<&AppRecord> {
        self.apps.get(app.idx())
    }

    /// The per-port counter table.
    pub fn ports(&self) -> &PortTable {
        &self.ports
    }

    /// The congestion byte matrix.
    pub fn congestion(&self) -> &CongestionMatrix {
        &self.congestion
    }

    /// The Q-adaptive convergence trace (empty unless the run used
    /// Q-adaptive routing).
    pub fn learning(&self) -> &LearningTrace {
        &self.learning
    }

    /// System-wide delivered-bytes series (sum over apps).
    pub fn system_delivered(&self) -> BinSeries {
        let mut out = BinSeries::new(self.cfg.bin_width);
        for a in &self.apps {
            out.merge(&a.delivered);
        }
        out
    }

    /// System-wide latency summary (all apps pooled). Summarizes over the
    /// per-app sample slices in place — no per-call copy of every sample —
    /// and reports bit-identically to the pooled form.
    pub fn system_latency(&self) -> crate::hist::LatencySummary {
        let parts: Vec<&[(Time, u64)]> = self.apps.iter().map(|a| a.latencies.samples()).collect();
        crate::hist::summarize_slices(&parts)
    }

    /// Sanity invariant: packets delivered never exceed packets injected.
    pub fn conservation_ok(&self) -> bool {
        self.apps.iter().all(|a| a.packets_delivered <= a.packets_injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_topology::DragonflyParams;

    fn rec() -> Recorder {
        let topo = Arc::new(Topology::new(DragonflyParams::tiny_72()).unwrap());
        Recorder::new(&topo, RecorderConfig::default())
    }

    #[test]
    fn packet_lifecycle_updates_app_counters() {
        let mut r = rec();
        let app = AppId(0);
        r.packet_injected(app, 1_000, 512);
        r.packet_delivered(app, 1_000, 5_000, 512);
        let a = r.app(app).unwrap();
        assert_eq!(a.packets_injected, 1);
        assert_eq!(a.packets_delivered, 1);
        assert_eq!(a.injected.total(), 512);
        assert_eq!(a.delivered.total(), 512);
        assert_eq!(a.latencies.samples(), &[(5_000, 4_000)]);
        assert!(r.conservation_ok());
    }

    #[test]
    fn latency_recording_can_be_disabled() {
        let topo = Arc::new(Topology::new(DragonflyParams::tiny_72()).unwrap());
        let mut r =
            Recorder::new(&topo, RecorderConfig { record_latencies: false, ..Default::default() });
        r.packet_delivered(AppId(0), 0, 10, 512);
        assert!(r.app(AppId(0)).unwrap().latencies.is_empty());
    }

    #[test]
    fn forwards_feed_congestion_matrix() {
        let topo = Arc::new(Topology::new(DragonflyParams::tiny_72()).unwrap());
        let mut r = Recorder::new(&topo, RecorderConfig::default());
        // Router 0, group 0. Port 2 is the first local port (p=2);
        // global ports start at 2 + 3 = 5.
        r.packet_forwarded(RouterId(0), Port(2), 20_480, 512);
        let gw = topo.gateway(dfsim_topology::GroupId(0), dfsim_topology::GroupId(1)).unwrap();
        r.packet_forwarded(gw.0, gw.1, 20_480, 512);
        assert_eq!(r.congestion().local(0), 512);
        assert_eq!(r.congestion().global(0, 1), 512);
        assert_eq!(r.ports().total_bytes(LinkKind::Local), 512);
        assert_eq!(r.ports().total_bytes(LinkKind::Global), 512);
    }

    #[test]
    fn ingress_burst_keeps_max() {
        let mut r = rec();
        r.ingress_burst(AppId(1), 100);
        r.ingress_burst(AppId(1), 50);
        r.ingress_burst(AppId(1), 300);
        assert_eq!(r.app(AppId(1)).unwrap().max_ingress_burst, 300);
        // App 0 slot exists (dense vec) but recorded nothing.
        assert_eq!(r.app(AppId(0)).unwrap().max_ingress_burst, 0);
    }

    #[test]
    fn system_series_sums_apps() {
        let mut r = rec();
        r.packet_delivered(AppId(0), 0, 10, 100);
        r.packet_delivered(AppId(1), 0, 10, 200);
        assert_eq!(r.system_delivered().total(), 300);
        assert_eq!(r.system_latency().n, 2);
    }

    #[test]
    fn hop_histogram_accumulates() {
        let mut r = rec();
        r.packet_delivered_full(AppId(0), 0, 10, 512, false, 3);
        r.packet_delivered_full(AppId(0), 0, 20, 512, true, 6);
        r.packet_delivered_full(AppId(0), 0, 30, 512, false, 200); // saturates
        let a = r.app(AppId(0)).unwrap();
        assert_eq!(a.hops_histogram[3], 1);
        assert_eq!(a.hops_histogram[6], 1);
        assert_eq!(a.hops_histogram[8], 1);
        assert_eq!(a.hops_total, 3 + 6 + 200);
        assert_eq!(a.packets_detoured, 1);
    }

    #[test]
    fn hopless_wrappers_stay_out_of_hop_statistics() {
        // The convenience wrappers carry no path information; they must not
        // funnel phantom hops=0 entries into the histogram and skew mean_hops.
        let mut r = rec();
        r.packet_delivered(AppId(0), 0, 10, 512);
        r.packet_delivered_routed(AppId(0), 0, 20, 512, true);
        let a = r.app(AppId(0)).unwrap();
        assert_eq!(a.packets_delivered, 2);
        assert_eq!(a.packets_detoured, 1);
        assert_eq!(a.hops_histogram, [0; 9], "hop-less delivery polluted the histogram");
        assert_eq!(a.hops_total, 0);
        // An explicit hops=0 is a real observation and is counted.
        r.packet_delivered_full(AppId(0), 0, 30, 512, false, 0);
        assert_eq!(r.app(AppId(0)).unwrap().hops_histogram[0], 1);
    }

    #[test]
    fn sink_observes_every_hook() {
        use crate::sink::VecSink;
        let sink = VecSink::new();
        let mut r = rec();
        r.set_sink(Box::new(sink.clone()));
        r.packet_injected(AppId(0), 1_000, 512);
        r.packet_delivered_full(AppId(0), 1_000, 5_000, 512, true, 4);
        r.packet_delivered(AppId(1), 2_000, 3_000, 256);
        r.port_stalled(RouterId(1), Port(2), 40);
        r.packet_forwarded(RouterId(0), Port(2), 20_480, 512);
        r.q1_updated(4_000, 2.5);
        r.ingress_burst(AppId(1), 4_096);
        r.rank_finished(AppId(0), 2, 10, 20);
        let evs = sink.events();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs[0], TraceEvent::Injected { app: AppId(0), t: 1_000, bytes: 512 });
        assert_eq!(
            evs[1],
            TraceEvent::Delivered {
                app: AppId(0),
                inject: 1_000,
                deliver: 5_000,
                bytes: 512,
                detoured: true,
                hops: Some(4),
            }
        );
        assert_eq!(
            evs[2],
            TraceEvent::Delivered {
                app: AppId(1),
                inject: 2_000,
                deliver: 3_000,
                bytes: 256,
                detoured: false,
                hops: None,
            }
        );
        assert!(matches!(evs[5], TraceEvent::Q1Updated { t: 4_000, .. }));
        assert!(matches!(evs[7], TraceEvent::RankFinished { app: AppId(0), rank: 2, .. }));
    }

    #[test]
    fn keyed_hooks_do_not_reach_the_sink() {
        use crate::sink::VecSink;
        let sink = VecSink::new();
        let mut r = rec();
        r.enable_keyed_capture();
        r.set_sink(Box::new(sink.clone()));
        r.set_key(100, 7);
        r.q1_updated(100, 5.0);
        r.rank_finished(AppId(0), 2, 50, 150);
        assert!(sink.events().is_empty(), "keyed entries must reach the trace via the journal");
        assert_eq!(r.drain_keyed().len(), 2);
    }

    #[test]
    fn replaying_the_event_stream_rebuilds_recorder_state() {
        use crate::sink::VecSink;
        let sink = VecSink::new();
        let mut r = rec();
        r.set_sink(Box::new(sink.clone()));
        r.packet_injected(AppId(0), 1_000, 512);
        r.packet_delivered_full(AppId(0), 1_000, 5_000, 512, true, 4);
        r.packet_delivered(AppId(1), 2_000, 3_000, 256);
        r.packet_forwarded(RouterId(0), Port(2), 20_480, 512);
        r.port_stalled(RouterId(1), Port(2), 40);
        r.q1_updated(4_000, 2.5);
        r.ingress_burst(AppId(1), 4_096);
        r.rank_finished(AppId(0), 2, 10, 20);

        let mut fresh = rec();
        for ev in sink.events() {
            fresh.replay_event(&ev);
        }
        let (a0, f0) = (r.app(AppId(0)).unwrap(), fresh.app(AppId(0)).unwrap());
        assert_eq!(a0.packets_injected, f0.packets_injected);
        assert_eq!(a0.packets_delivered, f0.packets_delivered);
        assert_eq!(a0.hops_histogram, f0.hops_histogram);
        assert_eq!(a0.latencies.samples(), f0.latencies.samples());
        assert_eq!(a0.rank_comm, f0.rank_comm);
        let (a1, f1) = (r.app(AppId(1)).unwrap(), fresh.app(AppId(1)).unwrap());
        assert_eq!(a1.max_ingress_burst, f1.max_ingress_burst);
        assert_eq!(a1.hops_total, f1.hops_total);
        assert_eq!(r.learning().updates(), fresh.learning().updates());
        assert_eq!(r.ports().get(1, 2).stall_ps, fresh.ports().get(1, 2).stall_ps);
        assert_eq!(r.congestion().local(0), fresh.congestion().local(0));
    }

    #[test]
    fn rank_comm_records() {
        let mut r = rec();
        r.rank_finished(AppId(0), 3, 1_000, 2_000);
        assert_eq!(r.app(AppId(0)).unwrap().rank_comm, vec![(3, 1_000, 2_000)]);
    }

    #[test]
    fn keyed_capture_diverts_and_replay_restores() {
        let mut worker = rec();
        worker.enable_keyed_capture();
        worker.set_key(100, 7);
        worker.q1_updated(100, 5.0);
        worker.set_key(200, 9);
        worker.rank_finished(AppId(0), 2, 50, 150);
        // Nothing landed in the live aggregates.
        assert!(worker.learning().is_empty());
        assert!(worker.apps().first().is_none_or(|a| a.rank_comm.is_empty()));

        let journal = worker.drain_keyed();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal[0].seq, 7);
        assert!(worker.drain_keyed().is_empty(), "drain leaves the journal empty");

        let mut master = rec();
        master.replay_keyed(journal);
        assert_eq!(master.learning().updates(), 1);
        assert_eq!(master.app(AppId(0)).unwrap().rank_comm, vec![(2, 50, 150)]);
    }

    #[test]
    fn absorb_merges_order_insensitive_state() {
        let mut a = rec();
        a.packet_injected(AppId(0), 0, 512);
        a.packet_delivered_full(AppId(0), 0, 10, 512, false, 3);
        a.ingress_burst(AppId(0), 100);
        a.port_stalled(RouterId(1), Port(2), 40);

        let mut b = rec();
        b.packet_injected(AppId(0), 0, 512);
        b.packet_delivered_full(AppId(0), 0, 20, 512, true, 5);
        b.packet_injected(AppId(1), 0, 256);
        b.ingress_burst(AppId(0), 300);
        b.port_stalled(RouterId(1), Port(2), 2);
        b.packet_forwarded(RouterId(0), Port(2), 20_480, 512);

        a.absorb(b);
        let app0 = a.app(AppId(0)).unwrap();
        assert_eq!(app0.packets_injected, 2);
        assert_eq!(app0.packets_delivered, 2);
        assert_eq!(app0.packets_detoured, 1);
        assert_eq!(app0.hops_histogram[3], 1);
        assert_eq!(app0.hops_histogram[5], 1);
        assert_eq!(app0.hops_total, 8);
        assert_eq!(app0.max_ingress_burst, 300);
        assert_eq!(app0.latencies.len(), 2);
        assert_eq!(a.app(AppId(1)).unwrap().packets_injected, 1);
        assert_eq!(a.ports().get(1, 2).stall_ps, 42);
        assert_eq!(a.congestion().local(0), 512);
        assert!(a.conservation_ok());
    }
}
