//! Dynamic (churn) scenarios: timed job arrivals, FCFS/backfill admission,
//! and the job table the run loop admits them through.
//!
//! The paper studies interference between *statically co-placed* pairs —
//! every job starts at t = 0 and the machine never changes. A production
//! system has **churn**: jobs arrive, queue while the machine is full, run,
//! and depart, so the set of co-resident (and therefore interfering)
//! workloads changes over time. This module adds that layer without
//! touching the deterministic core:
//!
//! * a [`Scenario`] is a timed stream of job arrivals (explicit lists,
//!   parsed specs, or Poisson-process synthesis from the seeded RNG),
//! * a [`SchedPolicy`] decides which queued jobs to admit whenever nodes
//!   free up (first-come-first-served, optionally with backfill),
//! * a [`JobTable`] owns the job → partition mapping: it places admitted
//!   jobs onto the free-node pool with the existing [`Placement`] policies
//!   and reclaims nodes at teardown,
//! * a `workload scenario`/`workload poisson` spec run through
//!   [`crate::simulation::Simulation`] drives everything through the
//!   partitioned engine's canonical window loop ([`crate::partition`]) at
//!   `threads` partitions (1 when unset): arrivals cut windows at
//!   their exact times, completions reclaim nodes at window barriers, and
//!   every partition replays the identical admission decisions — so both
//!   queue backends *and* every partition count realize the same canonical
//!   event order and scenario reports are bit-identical across all of them.
//!
//! A static run is the special case of t = 0 arrivals pinned to the nodes
//! [`crate::placement::place`] chose; pinned jobs never queue and get no
//! per-job report.
//!
//! Per-job wait, service and slowdown land in
//! [`crate::report::RunReport::jobs`]; `dfsim sweep churn` combines them
//! with the windowed metrics ([`dfsim_metrics::Span`]) into an
//! interference matrix under churn.

use dfsim_apps::arrivals::ArrivalSpec;
use dfsim_apps::AppKind;
use dfsim_des::{JobId, SimRng, Time, MILLISECOND};
use dfsim_topology::{NodeId, Topology};

use crate::placement::Placement;
use crate::report::JobReport;
use crate::runner::JobSpec;

/// One timed job arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// The job (idle placeholders are not allowed in scenarios).
    pub spec: JobSpec,
    /// Arrival time, picoseconds.
    pub at: Time,
    /// The nodes a static run placed the job on (rank order); `None`
    /// leaves placement to the job table at admission.
    pub(crate) nodes: Option<Vec<NodeId>>,
}

/// A timed stream of job arrivals (sorted by arrival time).
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Arrivals in time order.
    pub arrivals: Vec<Arrival>,
}

impl Scenario {
    /// Build from arrivals (sorted by time; ties keep input order).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.at);
        Self { arrivals }
    }

    /// Build from parsed/generated [`ArrivalSpec`]s.
    pub fn from_specs(specs: &[ArrivalSpec]) -> Self {
        Self::new(
            specs
                .iter()
                .map(|s| Arrival { spec: JobSpec::sized(s.kind, s.size), at: s.at, nodes: None })
                .collect(),
        )
    }

    /// Parse the compact text form, e.g. `"UR:36@0,LU:16@0.5ms"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(Self::from_specs(&dfsim_apps::arrivals::parse_arrival_list(s)?))
    }

    /// Poisson-process arrivals at `rate_per_ms` jobs per simulated
    /// millisecond from the deterministic RNG stream of `seed`, cycling
    /// `kinds` and drawing sizes from `sizes`.
    pub fn poisson(
        seed: u64,
        rate_per_ms: f64,
        count: u32,
        kinds: &[AppKind],
        sizes: &[u32],
    ) -> Self {
        Self::from_specs(&dfsim_apps::arrivals::poisson_arrivals(
            seed,
            rate_per_ms,
            count,
            kinds,
            sizes,
        ))
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the scenario has no jobs.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Check the scenario can run on a machine of `num_nodes` nodes.
    pub fn validate(&self, num_nodes: u32) -> Result<(), String> {
        if self.arrivals.len() > u16::MAX as usize {
            return Err(format!("too many jobs ({} > {})", self.arrivals.len(), u16::MAX));
        }
        for (i, a) in self.arrivals.iter().enumerate() {
            if a.spec.idle {
                return Err(format!("job {i}: idle placeholders are not allowed in scenarios"));
            }
            a.spec.kind.check_size(a.spec.size).map_err(|e| format!("job {i}: {e}"))?;
            if a.spec.size > num_nodes {
                return Err(format!(
                    "job {i} ({}) needs {} nodes, system has {num_nodes}",
                    a.spec.kind, a.spec.size
                ));
            }
        }
        Ok(())
    }
}

/// A queued job as seen by [`SchedPolicy::select`].
#[derive(Debug, Clone, Copy)]
pub struct QueuedJob {
    /// The job.
    pub job: JobId,
    /// Nodes requested.
    pub size: u32,
}

/// Named admission policies (CLI/env selectable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict first-come-first-served.
    #[default]
    Fcfs,
    /// FCFS with backfill.
    Backfill,
}

impl SchedPolicy {
    /// Every selectable policy.
    pub const ALL: [SchedPolicy; 2] = [SchedPolicy::Fcfs, SchedPolicy::Backfill];

    /// Short stable name.
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::Backfill => "backfill",
        }
    }

    /// Choose which waiting jobs to admit now, whenever the machine's
    /// free-node count changes (an arrival or a teardown).
    ///
    /// `waiting` is the queue in arrival order and `free` the free-node
    /// count; the result is *strictly increasing* indices into `waiting`
    /// whose sizes sum to at most `free`, admitted in that order at the
    /// current simulation time. Strict FCFS blocks behind the queue head:
    /// jobs are admitted in arrival order until the first one that does not
    /// fit. With backfill, later jobs that fit into the remaining free nodes
    /// may jump the blocked head (EASY-style backfill without reservations
    /// — fine for a simulator where jobs have no user-supplied runtime
    /// estimates). Deterministic: admission decisions feed the event order
    /// that the backend-equivalence guarantee relies on.
    pub fn select(&self, waiting: &[QueuedJob], free: u32) -> Vec<usize> {
        let mut picks = Vec::new();
        let mut free = free;
        for (i, j) in waiting.iter().enumerate() {
            if j.size <= free {
                picks.push(i);
                free -= j.size;
            } else if *self == SchedPolicy::Fcfs {
                break;
            }
        }
        picks
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Lifecycle state of one scenario job.
#[derive(Debug, Clone)]
struct JobEntry {
    spec: JobSpec,
    arrival: Time,
    start: Option<Time>,
    finish: Option<Time>,
    nodes: Vec<NodeId>,
    /// Placed before the run (static runs): admitted onto `nodes` as given.
    pinned: bool,
}

/// The owned job → partition mapping of a scenario run: tracks each job's
/// lifecycle, the waiting queue, and the free-node pool that admitted jobs
/// draw from and finished jobs return to.
#[derive(Debug)]
pub struct JobTable {
    entries: Vec<JobEntry>,
    /// Waiting queue, arrival order.
    waiting: Vec<JobId>,
    /// Free nodes, kept sorted ascending so placement is deterministic.
    free: Vec<NodeId>,
    policy: Placement,
    seed: u64,
    done: usize,
}

impl JobTable {
    /// Build for a scenario on `topo` with all nodes free.
    pub fn new(topo: &Topology, scenario: &Scenario, policy: Placement, seed: u64) -> Self {
        Self {
            entries: scenario
                .arrivals
                .iter()
                .map(|a| JobEntry {
                    spec: a.spec.clone(),
                    arrival: a.at,
                    start: None,
                    finish: None,
                    nodes: a.nodes.clone().unwrap_or_default(),
                    pinned: a.nodes.is_some(),
                })
                .collect(),
            waiting: Vec::new(),
            free: (0..topo.num_nodes()).map(NodeId).collect(),
            policy,
            seed,
            done: 0,
        }
    }

    /// Free nodes available right now.
    pub fn free_count(&self) -> u32 {
        self.free.len() as u32
    }

    /// Jobs currently waiting, in arrival order.
    pub fn waiting_view(&self) -> Vec<QueuedJob> {
        self.waiting
            .iter()
            .map(|&j| QueuedJob { job: j, size: self.entries[j.idx()].spec.size })
            .collect()
    }

    /// Whether the waiting queue is empty.
    pub fn waiting_is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Whether every job has finished.
    pub fn all_done(&self) -> bool {
        self.done == self.entries.len()
    }

    /// The job's spec.
    pub fn spec(&self, job: JobId) -> &JobSpec {
        &self.entries[job.idx()].spec
    }

    /// The nodes a running (or finished) job occupies, rank order.
    pub fn nodes(&self, job: JobId) -> &[NodeId] {
        &self.entries[job.idx()].nodes
    }

    /// A job arrived: push it onto the waiting queue.
    pub(crate) fn enqueue(&mut self, job: JobId) {
        debug_assert!(self.entries[job.idx()].start.is_none());
        self.waiting.push(job);
    }

    /// Admit a waiting job at time `now`: remove it from the queue, carve
    /// its partition out of the free pool (a pinned job's own nodes, else
    /// under the placement policy), and return the node list (rank order).
    pub(crate) fn admit(&mut self, job: JobId, now: Time) -> Vec<NodeId> {
        let pos = self.waiting.iter().position(|&j| j == job).expect("job not waiting");
        self.waiting.remove(pos);
        let e = &self.entries[job.idx()];
        let size = e.spec.size as usize;
        assert!(size <= self.free.len(), "scheduler over-admitted: {size} > {}", self.free.len());
        let nodes: Vec<NodeId> = match self.policy {
            _ if e.pinned => {
                let mut taken = e.nodes.clone();
                taken.sort_unstable();
                let free_before = self.free.len();
                self.free.retain(|n| taken.binary_search(n).is_err());
                debug_assert_eq!(free_before - self.free.len(), size, "pinned nodes not all free");
                e.nodes.clone()
            }
            Placement::Random => {
                // One independent stream per job id, so the mapping depends
                // only on (seed, job, free pool) — not on admission history.
                let mut rng = SimRng::new(self.seed).derive_idx("scenario-place", job.0 as u64);
                let mut sel = rng.choose_distinct(self.free.len(), size);
                sel.sort_unstable();
                let nodes = sel.iter().map(|&i| self.free[i]).collect();
                for &i in sel.iter().rev() {
                    self.free.remove(i);
                }
                nodes
            }
            Placement::Contiguous => self.carve_contiguous(size),
        };
        let e = &mut self.entries[job.idx()];
        e.start = Some(now);
        e.nodes = nodes.clone();
        nodes
    }

    /// Carve `size` nodes for a contiguous placement out of the (sorted)
    /// free list. Teardowns fragment the pool, so "first `size` entries"
    /// is *not* contiguous in general; instead:
    ///
    /// 1. **First fit**: take the first (lowest-id) run of consecutive node
    ///    ids of length ≥ `size`, using its first `size` ids.
    /// 2. **Fallback** when no run is long enough (documented, deterministic):
    ///    fill from the *smallest* fragments first (ties: lower start id),
    ///    preserving the largest runs for later jobs; the final selection is
    ///    returned in ascending id order.
    fn carve_contiguous(&mut self, size: usize) -> Vec<NodeId> {
        debug_assert!(self.free.windows(2).all(|w| w[0].0 < w[1].0), "free list unsorted");
        // Maximal runs of consecutive ids as (start index, length).
        let mut frags: Vec<(usize, usize)> = Vec::new();
        for (i, n) in self.free.iter().enumerate() {
            match frags.last_mut() {
                Some((s, len)) if self.free[*s].0 + *len as u32 == n.0 => *len += 1,
                _ => frags.push((i, 1)),
            }
        }
        let sel: Vec<usize> = if let Some(&(s, _)) = frags.iter().find(|&&(_, l)| l >= size) {
            (s..s + size).collect()
        } else {
            let mut order = frags;
            order.sort_by_key(|&(s, l)| (l, s));
            let mut sel: Vec<usize> = Vec::with_capacity(size);
            for (s, l) in order {
                let need = size - sel.len();
                sel.extend(s..s + l.min(need));
                if sel.len() == size {
                    break;
                }
            }
            sel.sort_unstable();
            sel
        };
        let nodes: Vec<NodeId> = sel.iter().map(|&i| self.free[i]).collect();
        for &i in sel.iter().rev() {
            self.free.remove(i);
        }
        nodes
    }

    /// A job's last rank finished.
    pub(crate) fn mark_finished(&mut self, job: JobId, t: Time) {
        let e = &mut self.entries[job.idx()];
        debug_assert!(e.start.is_some() && e.finish.is_none());
        e.finish = Some(t);
        self.done += 1;
    }

    /// Return a finished job's nodes to the free pool.
    pub(crate) fn reclaim(&mut self, job: JobId) {
        let e = &mut self.entries[job.idx()];
        debug_assert!(e.finish.is_some(), "reclaiming an unfinished job");
        self.free.extend(e.nodes.iter().copied());
        self.free.sort_unstable_by_key(|n| n.0);
    }

    /// Admission start times per job (`end` for jobs that never started) —
    /// what the report builder subtracts to get per-job execution time.
    pub fn start_times(&self, end: Time) -> Vec<Time> {
        self.entries.iter().map(|e| e.start.unwrap_or(end)).collect()
    }

    /// Completion times per job (`None` for jobs that never finished).
    pub fn finish_times(&self) -> Vec<Option<Time>> {
        self.entries.iter().map(|e| e.finish).collect()
    }

    /// Per-job scheduling outcomes for the report. Pinned jobs never
    /// queued, so they have none; the others keep their scenario index.
    pub fn job_reports(&self, end: Time) -> Vec<JobReport> {
        let ms = |t: Time| t as f64 / MILLISECOND as f64;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.pinned)
            .map(|(i, e)| {
                let wait = e.start.unwrap_or(end).saturating_sub(e.arrival);
                let run = match (e.start, e.finish) {
                    (Some(s), Some(f)) => f - s,
                    _ => 0,
                };
                let response = e.finish.map_or(0, |f| f - e.arrival);
                JobReport {
                    job: i as u32,
                    name: e.spec.kind.name().to_string(),
                    size: e.spec.size,
                    arrival_ms: ms(e.arrival),
                    start_ms: e.start.map(ms),
                    finish_ms: e.finish.map(ms),
                    wait_ms: ms(wait),
                    run_ms: ms(run),
                    response_ms: ms(response),
                    slowdown: (run > 0).then(|| response as f64 / run as f64),
                    completed: e.finish.is_some(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::report::RunReport;
    use dfsim_network::RoutingAlgo;

    /// The churn engine at one partition, below the session API.
    fn run_churn(
        cfg: &SimConfig,
        scenario: &Scenario,
        sched: SchedPolicy,
        placement: Placement,
    ) -> RunReport {
        crate::partition::exec_scenario(cfg, scenario, sched, placement, None).0
    }

    fn queued(sizes: &[u32]) -> Vec<QueuedJob> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| QueuedJob { job: JobId(i as u32), size })
            .collect()
    }

    #[test]
    fn fcfs_blocks_behind_queue_head() {
        let s = SchedPolicy::Fcfs;
        // Head needs 10, only 8 free: nothing may start.
        assert!(s.select(&queued(&[10, 4, 2]), 8).is_empty());
        // Head fits, second blocks, third never considered.
        assert_eq!(s.select(&queued(&[6, 10, 2]), 8), vec![0]);
    }

    #[test]
    fn backfill_jumps_a_blocked_head() {
        let s = SchedPolicy::Backfill;
        assert_eq!(s.select(&queued(&[10, 4, 2]), 8), vec![1, 2]);
        // Backfill still respects remaining capacity.
        assert_eq!(s.select(&queued(&[10, 7, 2]), 8), vec![1]);
    }

    #[test]
    fn sched_policy_round_trips() {
        for p in SchedPolicy::ALL {
            assert_eq!(crate::spec::lookup::<SchedPolicy>(p.label()).unwrap(), p);
        }
        assert!(crate::spec::lookup::<SchedPolicy>("mystery").is_err());
    }

    #[test]
    fn scenario_parse_and_validate() {
        let s = Scenario::parse("UR:36@0,LU:16@0.5ms").unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.validate(72).is_ok());
        assert!(s.validate(20).is_err(), "36 > 20 nodes must be rejected");
        let idle = Scenario::new(vec![Arrival { spec: JobSpec::idle(4), at: 0, nodes: None }]);
        assert!(idle.validate(72).is_err());
    }

    #[test]
    fn job_table_places_and_reclaims() {
        let topo = Topology::new(dfsim_topology::DragonflyParams::tiny_72()).unwrap();
        let scenario = Scenario::parse("UR:30@0,LU:30@0,FFT3D:30@0").unwrap();
        let mut t = JobTable::new(&topo, &scenario, Placement::Random, 9);
        assert_eq!(t.free_count(), 72);
        t.enqueue(JobId(0));
        t.enqueue(JobId(1));
        let a = t.admit(JobId(0), 100);
        let b = t.admit(JobId(1), 100);
        assert_eq!(a.len(), 30);
        assert_eq!(t.free_count(), 12);
        // Partitions are disjoint.
        let mut all: Vec<u32> = a.iter().chain(b.iter()).map(|n| n.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 60);
        // Third job cannot fit until a reclaim.
        t.enqueue(JobId(2));
        assert!(SchedPolicy::Fcfs.select(&t.waiting_view(), t.free_count()).is_empty());
        t.mark_finished(JobId(0), 500);
        t.reclaim(JobId(0));
        assert_eq!(t.free_count(), 42);
        let c = t.admit(JobId(2), 600);
        assert_eq!(c.len(), 30);
        assert!(!t.all_done());
    }

    /// A pinned job is admitted onto exactly its own nodes, which leave the
    /// free pool; an unpinned job admitted after it draws only from the
    /// rest. Only the unpinned job is reported, under its scenario index.
    #[test]
    fn pinned_admission_takes_exactly_its_nodes() {
        let topo = Topology::new(dfsim_topology::DragonflyParams::tiny_72()).unwrap();
        let pinned: Vec<NodeId> = [70, 3, 41, 12].map(NodeId).to_vec();
        let scenario = Scenario::new(vec![
            Arrival { spec: JobSpec::sized(AppKind::UR, 4), at: 0, nodes: Some(pinned.clone()) },
            Arrival { spec: JobSpec::sized(AppKind::LU, 60), at: 0, nodes: None },
        ]);
        let mut t = JobTable::new(&topo, &scenario, Placement::Random, 9);
        t.enqueue(JobId(0));
        t.enqueue(JobId(1));
        assert_eq!(t.admit(JobId(0), 0), pinned, "pinned nodes, in rank order");
        assert_eq!(t.free_count(), 68);
        let rest = t.admit(JobId(1), 0);
        assert_eq!(rest.len(), 60);
        assert!(rest.iter().all(|n| !pinned.contains(n)), "drew a pinned node");
        assert_eq!(t.free_count(), 8);
        let reports = t.job_reports(0);
        assert_eq!(reports.len(), 1, "the pinned job never queued");
        assert_eq!((reports[0].job, reports[0].name.as_str()), (1, "LU"));
    }

    #[test]
    fn tiny_churn_scenario_completes_with_job_metrics() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::UgalG);
        // Arrivals 10 ns apart: the first two fill all 72 nodes, so LU must
        // queue until one of them finishes.
        let scenario = Scenario::parse("UR:36@0,CosmoFlow:36@10ns,LU:36@20ns").unwrap();
        let report = run_churn(&cfg, &scenario, SchedPolicy::Fcfs, Placement::Random);
        assert!(report.completed, "stop: {}", report.stop_reason);
        assert_eq!(report.jobs.len(), 3);
        for j in &report.jobs {
            assert!(j.completed, "{} never finished", j.name);
            assert!(j.run_ms > 0.0);
            let s = j.slowdown.expect("completed jobs carry a slowdown");
            assert!(s >= 1.0 - 1e-12, "{}: slowdown {s}", j.name);
        }
        // 36+36+36 = 108 > 72 nodes: the third job must have queued.
        let lu = report.jobs.iter().find(|j| j.name == "LU").unwrap();
        assert!(lu.wait_ms > 0.0, "LU should have waited for free nodes");
        assert!(lu.slowdown.unwrap() > 1.0);
        // Every app produced traffic and a per-rank comm record.
        for a in &report.apps {
            assert!(a.total_msg_mb > 0.0, "{} moved no bytes", a.name);
            assert_eq!(a.comm_ms.n, 36);
        }
    }

    #[test]
    fn churn_determinism_same_seed_same_report() {
        let cfg = SimConfig::test_tiny(RoutingAlgo::Par);
        let scenario = Scenario::poisson(11, 50.0, 6, &[AppKind::UR, AppKind::LU], &[18, 36]);
        let a = run_churn(&cfg, &scenario, SchedPolicy::Backfill, Placement::Random);
        let b = run_churn(&cfg, &scenario, SchedPolicy::Backfill, Placement::Random);
        assert_eq!(a.sim_ms, b.sim_ms);
        assert_eq!(a.events, b.events);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.wait_ms, y.wait_ms);
            assert_eq!(x.slowdown, y.slowdown);
        }
    }

    #[test]
    fn horizon_leaves_unfinished_jobs_marked() {
        let mut cfg = SimConfig::test_tiny(RoutingAlgo::UgalN);
        cfg.horizon = Some(1_000); // 1 ns: nothing can finish
        let scenario = Scenario::parse("UR:36@0").unwrap();
        let report = run_churn(&cfg, &scenario, SchedPolicy::Fcfs, Placement::Random);
        assert!(!report.completed);
        assert_eq!(report.jobs.len(), 1);
        assert!(!report.jobs[0].completed);
        assert!(report.jobs[0].finish_ms.is_none());
        assert!(
            report.jobs[0].slowdown.is_none(),
            "incomplete jobs must not report a placeholder slowdown"
        );
        assert!(report.mean_slowdown().is_nan(), "no completed job, no mean");
    }

    /// Regression: under a reclaim-fragmented free pool, `Contiguous`
    /// placement used to take the first N ids regardless of holes. It must
    /// carve an actual run of consecutive ids when one exists.
    #[test]
    fn contiguous_admission_carves_a_real_run_despite_fragmentation() {
        let topo = Topology::new(dfsim_topology::DragonflyParams::tiny_72()).unwrap();
        let scenario = Scenario::parse("UR:4@0,UR:60@0,UR:8@0,UR:12@0").unwrap();
        let mut t = JobTable::new(&topo, &scenario, Placement::Contiguous, 3);
        // Spawn/teardown pattern that holes the pool: job 0 takes 0..4,
        // job 1 takes 4..64, then job 0 finishes — free = [0..4, 64..72].
        t.enqueue(JobId(0));
        t.enqueue(JobId(1));
        assert_eq!(t.admit(JobId(0), 10), (0..4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(t.admit(JobId(1), 10), (4..64).map(NodeId).collect::<Vec<_>>());
        t.mark_finished(JobId(0), 20);
        t.reclaim(JobId(0));
        // An 8-node job must land on the 64..72 run, not on first-N-by-id
        // (which would straddle the 4..64 hole).
        t.enqueue(JobId(2));
        let nodes = t.admit(JobId(2), 30);
        assert_eq!(nodes, (64..72).map(NodeId).collect::<Vec<_>>());
        assert_eq!(t.free_count(), 4);
        assert_eq!(t.nodes(JobId(2)), (64..72).map(NodeId).collect::<Vec<_>>());
    }

    /// When no run is long enough, the documented fallback fills from the
    /// smallest fragments first (preserving large runs), ascending ids.
    #[test]
    fn contiguous_admission_falls_back_smallest_fragment_first() {
        let topo = Topology::new(dfsim_topology::DragonflyParams::tiny_72()).unwrap();
        let scenario = Scenario::parse("UR:2@0,UR:3@0,UR:62@0,UR:6@0").unwrap();
        let mut t = JobTable::new(&topo, &scenario, Placement::Contiguous, 3);
        for j in 0..3 {
            t.enqueue(JobId(j));
        }
        assert_eq!(t.admit(JobId(0), 1), (0..2).map(NodeId).collect::<Vec<_>>());
        assert_eq!(t.admit(JobId(1), 1), (2..5).map(NodeId).collect::<Vec<_>>());
        assert_eq!(t.admit(JobId(2), 1), (5..67).map(NodeId).collect::<Vec<_>>());
        // Free the 2-run and the 3-run: free = [0..2, 2..5 merged → 0..5, 67..72].
        for j in [0, 1] {
            t.mark_finished(JobId(j), 2);
            t.reclaim(JobId(j));
        }
        // A 6-node job fits no single run (5 and 5): smallest-fragment-first
        // takes all of 0..5 (start 0 breaks the length tie with 67..72),
        // then one node of the next-smallest fragment.
        t.enqueue(JobId(3));
        let nodes = t.admit(JobId(3), 3);
        let expect: Vec<NodeId> = (0..5).chain(67..68).map(NodeId).collect();
        assert_eq!(nodes, expect);
        assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0), "ascending id order");
    }
}
