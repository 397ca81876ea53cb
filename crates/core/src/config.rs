//! Simulation configuration.

use std::path::PathBuf;

use dfsim_des::{QueueBackend, Time};
use dfsim_metrics::RecorderConfig;
use dfsim_network::{QTableInit, RoutingAlgo, RoutingConfig};
use dfsim_topology::{DragonflyParams, LinkTiming};

/// Everything needed to instantiate one simulation.
///
/// Holds no Q-table file paths: the session
/// ([`crate::simulation::Simulation`]) reads a warm-start snapshot before
/// the run and writes the learned tables after it; the config only labels
/// the start (`routing.qtable_init`). Not `Copy`, since the trace path is
/// a `PathBuf`; sweep code clones per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Structural topology parameters (default: the paper's 1,056-node
    /// system).
    pub params: DragonflyParams,
    /// Link timing (default: paper §III constants).
    pub timing: LinkTiming,
    /// Routing algorithm + knobs.
    pub routing: RoutingConfig,
    /// Metrics granularity.
    pub recorder: RecorderConfig,
    /// Workload scale divisor (`DESIGN.md` §5): 1 = paper scale.
    pub scale: f64,
    /// Root seed: placement, per-router RNG and app randomness derive from
    /// it, so a config is fully reproducible.
    pub seed: u64,
    /// Eager→rendezvous threshold of the MPI layer, bytes.
    pub eager_threshold: u64,
    /// Optional wall on simulated time; exceeding it marks the run
    /// incomplete instead of hanging.
    pub horizon: Option<Time>,
    /// Hard cap on processed events (runaway guard): the run stops at the
    /// first window barrier at or past it, at every thread count.
    pub max_events: u64,
    /// Pending-event-set implementation driving the world loop, including
    /// calendar tuning (`heap`, `calendar:auto`,
    /// `calendar:width=..,buckets=..`). Every backend and tuning produces
    /// identical reports for a given config; the knob exists for the
    /// event-queue performance ablation.
    pub queue: QueueBackend,
    /// Stream every metric event to a `dfsim-trace v1` file at this path as
    /// the run executes (bounded memory; replayable into the exact same
    /// report). `None` (the default) keeps tracing entirely off the hot
    /// path.
    pub trace: Option<PathBuf>,
    /// Worker threads of the window loop: the dragonfly is sharded by group
    /// across this many partitions, exchanging boundary traffic in
    /// conservative lookahead windows. `0` or `1` runs one shard on the
    /// calling thread; any value produces bit-identical reports
    /// (the partition-equivalence suite pins this). Must not exceed the
    /// group count.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            params: DragonflyParams::paper_1056(),
            timing: LinkTiming::default(),
            routing: RoutingConfig::new(RoutingAlgo::UgalG),
            recorder: RecorderConfig::default(),
            scale: 64.0,
            seed: 42,
            eager_threshold: 16 * 1024,
            horizon: None,
            max_events: 2_000_000_000,
            queue: QueueBackend::default(),
            trace: None,
            threads: 0,
        }
    }
}

impl SimConfig {
    /// This config, switched onto another queue backend.
    pub fn with_queue(self, queue: QueueBackend) -> Self {
        Self { queue, ..self }
    }

    /// Config with a given routing algorithm, everything else default.
    pub fn with_routing(algo: RoutingAlgo) -> Self {
        Self { routing: RoutingConfig::new(algo), ..Default::default() }
    }

    /// A small test configuration: 72-node Dragonfly, aggressive scaling.
    pub fn test_tiny(algo: RoutingAlgo) -> Self {
        Self {
            params: DragonflyParams::tiny_72(),
            routing: RoutingConfig::new(algo),
            scale: 2_048.0,
            seed: 7,
            ..Default::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate().map_err(|e| e.to_string())?;
        if self.scale < 1.0 {
            return Err(format!("scale must be ≥ 1, got {}", self.scale));
        }
        if !self.timing.packet_bytes.is_multiple_of(self.timing.flit_bytes) {
            return Err("packet size must be a multiple of the flit size".into());
        }
        if self.max_events == 0 {
            return Err("max_events must be positive".into());
        }
        if self.timing.global_latency_ps == 0 {
            // The inter-group latency is the window loop's lookahead.
            return Err("timing global_latency_ps must be positive".into());
        }
        if self.threads > self.params.groups as usize {
            return Err(format!(
                "threads ({}) exceed the {} dragonfly groups: each partition owns at \
                 least one whole group, so at most {} worker threads apply here",
                self.threads, self.params.groups, self.params.groups
            ));
        }
        // Never silently ignore a warm start: only Q-adaptive routers carry
        // Q-tables to load.
        if self.routing.algo != RoutingAlgo::QAdaptive
            && self.routing.qtable_init != QTableInit::Cold
        {
            return Err(format!(
                "Q-table warm-start (--qtable_load) requires Q-adaptive routing, got {}",
                self.routing.algo
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_paper_system() {
        let c = SimConfig::default();
        c.validate().unwrap();
        assert_eq!(c.params.num_nodes(), 1056);
        assert_eq!(c.timing.bandwidth_gbps, 200);
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let c = SimConfig { scale: 0.5, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_packet_flit_ratio_is_rejected() {
        let mut c = SimConfig::default();
        c.timing.packet_bytes = 500;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_global_latency_is_rejected() {
        // It is the window width: zero-width windows would never advance.
        let mut c = SimConfig::default();
        c.timing.global_latency_ps = 0;
        let e = c.validate().unwrap_err();
        assert!(e.contains("global_latency_ps"), "{e}");
    }

    #[test]
    fn tiny_config_validates() {
        SimConfig::test_tiny(RoutingAlgo::Par).validate().unwrap();
    }

    #[test]
    fn qtable_lifecycle_knobs_require_qadaptive() {
        let mut c = SimConfig::default(); // UGALg
        c.routing.qtable_init = QTableInit::Warm;
        let e = c.validate().unwrap_err();
        assert!(e.contains("Q-adaptive"), "{e}");

        let mut c = SimConfig::with_routing(RoutingAlgo::QAdaptive);
        c.routing.qtable_init = QTableInit::Warm;
        c.validate().unwrap();
    }
}
