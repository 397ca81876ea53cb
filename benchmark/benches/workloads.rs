//! The benchmark's workloads, and the `dfsim-spec v1` text each one is.
//!
//! A workload is a (cell, mode) pair. The cell is what is simulated; the mode
//! is how the product is asked to run it (plain, two partitions, tracing on,
//! or served from the result cache). The program under test receives only
//! the generated spec text.

use std::path::Path;

use dfsim_des::{SimRng, MILLISECOND};

/// What is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// Paper Fig. 8: LQCD against Stencil5D, under the named routing.
    Fig8(&'static str),
    /// Job churn: seeded Poisson arrivals of a fixed job mix, backfill
    /// admission, UGALg.
    Churn,
    /// The Table II six-app mix under Q-adaptive routing.
    Mixed,
}

/// How the product runs the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    /// `threads 2`: the partitioned engine on both host CPUs.
    Threads2,
    /// `trace FILE`: product tracing on.
    Traced,
    /// `cache DIR`: set-up fills the cache, the timed region is all hits.
    CacheHit,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set: which layers it loads and which it
    /// bypasses.
    pub why: &'static str,
    pub cell: Cell,
    pub mode: Mode,
}

/// Consecutive cache hits in one timed region of `fig8_cache_hit`: one hit
/// is ~0.2 s, too short to time against host jitter.
pub const HITS_PER_REGION: usize = 20;

/// The six gated workloads, in the order every round runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fig8_qadp",
        why: "the paper's headline cell: Q-adaptive decision, Q-feedback and the learning trace \
              do most of the work, on the World::run engine",
        cell: Cell::Fig8("Q-adp"),
        mode: Mode::Plain,
    },
    Workload {
        name: "fig8_par",
        why: "same traffic under PAR: no Q-table, per-hop adaptive candidates, so a Q-adaptive \
              gain that costs the adaptive baseline shows here",
        cell: Cell::Fig8("PAR"),
        mode: Mode::Plain,
    },
    Workload {
        name: "churn_ugalg",
        why: "job churn under cheap routing: event queue, MPI matching/collectives, job spawn and \
              teardown and the Shard driver at P=1 dominate; network routing does little",
        cell: Cell::Churn,
        mode: Mode::Plain,
    },
    Workload {
        name: "fig8_qadp_p2",
        why: "fig8_qadp on two partitions: the only workload where window exchange, push-log \
              merge, barrier wait and des::comm do work",
        cell: Cell::Fig8("Q-adp"),
        mode: Mode::Threads2,
    },
    Workload {
        name: "fig8_qadp_traced",
        why: "fig8_qadp with product tracing on: metrics sinks, TraceWriter frame encode and \
              file I/O; the tracing-on cost",
        cell: Cell::Fig8("Q-adp"),
        mode: Mode::Traced,
    },
    Workload {
        name: "fig8_cache_hit",
        why: "20 result-cache hits on fig8_qadp: cache lookup and report decode do all the \
              work and the simulator none; bypasses every engine optimisation",
        cell: Cell::Fig8("Q-adp"),
        mode: Mode::CacheHit,
    },
];

/// Ungated companions `trace` runs once for `core.partition.mixed_p2_over_p1`
/// (±12% run to run at the seed commit: too noisy to gate, too important to
/// lose).
pub const MIXED_PAIR: [Workload; 2] = [
    Workload {
        name: "mixed_qadp",
        why: "Table II mix, Q-adaptive, single-threaded: base of mixed_p2_over_p1",
        cell: Cell::Mixed,
        mode: Mode::Plain,
    },
    Workload {
        name: "mixed_qadp_p2",
        why: "Table II mix, Q-adaptive, two partitions: barrier-heavy counterpart",
        cell: Cell::Mixed,
        mode: Mode::Threads2,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().chain(&MIXED_PAIR).find(|w| w.name == name).copied()
}

/// The simulated machine and the sizes that depend on it.
#[derive(Debug, Clone, Copy)]
pub struct System {
    topology: &'static str,
    scale: &'static str,
    /// Jobs of the churn cell, their arrival rate per simulated ms, and the
    /// two job sizes they alternate between.
    churn_jobs: usize,
    churn_rate_per_ms: f64,
    churn_sizes: [u32; 2],
    /// The static stand-in for the churn cell (see [`span_cell_text`]).
    churn_standin: &'static str,
}

/// The paper's 1,056-node system. `scale 64` is part of each workload's
/// identity: the event counts are.
pub const PAPER: System = System {
    topology: "groups=33 routers_per_group=8 nodes_per_router=4 globals_per_router=4",
    scale: "64",
    churn_jobs: 12,
    churn_rate_per_ms: 2.0,
    churn_sizes: [264, 528],
    churn_standin: "UR:264,CosmoFlow:264,LQCD:264,FFT3D:264",
};

/// The 72-node test system of the repo's own suites, for `--smoke`.
pub const TINY: System = System {
    topology: "groups=9 routers_per_group=4 nodes_per_router=2 globals_per_router=2",
    scale: "2048",
    churn_jobs: 4,
    churn_rate_per_ms: 500.0,
    churn_sizes: [18, 36],
    churn_standin: "UR:18,CosmoFlow:18,LQCD:18,FFT3D:18",
};

const CHURN_APPS: [&str; 4] = ["UR", "CosmoFlow", "LQCD", "FFT3D"];

/// The churn cell's arrival list. The seed draws the Poisson gaps (and, in
/// the spec, placement and traffic); the job mix is fixed — apps cycle, each
/// app gets both sizes — so every seed simulates the same amount of work and
/// the host-time metrics compare across seeds. (`workload poisson` draws the
/// sizes from the seed too: its event count moves by a third between seeds.)
fn churn_arrivals(system: &System, seed: u64) -> String {
    let mut rng = SimRng::new(seed).derive("benchmark-arrivals");
    let mean_gap_ps = MILLISECOND as f64 / system.churn_rate_per_ms;
    let mut at = 0.0;
    let arrivals: Vec<String> = (0..system.churn_jobs)
        .map(|i| {
            at += -(1.0 - rng.unit()).ln() * mean_gap_ps;
            let size = system.churn_sizes[(i / CHURN_APPS.len() + i) % 2];
            format!("{}:{size}@{}ps", CHURN_APPS[i % CHURN_APPS.len()], at.round() as u64)
        })
        .collect();
    arrivals.join(",")
}

fn header(system: &System, seed: u64) -> String {
    format!(
        "dfsim-spec v1\ntopology {}\nscale {}\nqueue heap\nseed {seed}\n",
        system.topology, system.scale
    )
}

/// The lines that say what is simulated. `static_stand_in` swaps the churn
/// scenario for its static stand-in (see [`span_cell_text`]).
fn cell_text(cell: Cell, system: &System, seed: u64, static_stand_in: bool) -> String {
    match cell {
        Cell::Fig8(routing) => format!("workload pairwise LQCD Stencil5D\nrouting {routing}\n"),
        Cell::Churn if static_stand_in => {
            format!("workload jobs {}\nrouting UGALg\n", system.churn_standin)
        }
        Cell::Churn => format!(
            "workload scenario {}\nsched backfill\nrouting UGALg\n",
            churn_arrivals(system, seed)
        ),
        Cell::Mixed => "workload mixed\nrouting Q-adp\n".to_string(),
    }
}

/// The workload's spec text. A function of (workload, system, seed) and the
/// directory its output files go to: the same arguments give the same bytes.
pub fn spec_text(w: &Workload, system: &System, seed: u64, tmp: &Path) -> String {
    let mut text = header(system, seed) + &cell_text(w.cell, system, seed, false);
    match w.mode {
        Mode::Plain => {}
        Mode::Threads2 => text += "threads 2\n",
        Mode::Traced => text += &format!("trace {}\n", tmp.join("run.trace").display()),
        Mode::CacheHit => text += &format!("cache {}\n", tmp.join("cache").display()),
    }
    text
}

/// The cell the world-loop spans of `w` are measured on: a static P=1 cell
/// the benchmark can assemble and drive itself from public pieces.
///
/// For the fig8 workloads that is their own cell. `churn_ugalg` (and
/// `fig8_qadp_p2`) run on the private `Shard` driver, which cannot be driven
/// from outside: the partitioned workload falls back to the same cell at
/// P=1, and the churn workload to a stand-in — its four apps at its routing,
/// all started at t = 0 on the `World` engine.
pub fn span_cell_text(w: &Workload, system: &System, seed: u64) -> String {
    header(system, seed) + &cell_text(w.cell, system, seed, true)
}

/// Whether [`span_cell_text`] is the workload's own cell on its own engine.
pub fn spans_are_own_cell(w: &Workload) -> bool {
    matches!(w.cell, Cell::Fig8(_)) && w.mode != Mode::Threads2
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_core::{CacheMode, ExperimentSpec, Simulation};

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS.iter().chain(&MIXED_PAIR) {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let mut names: Vec<_> = WORKLOADS.iter().chain(&MIXED_PAIR).map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len() + MIXED_PAIR.len());
        assert!(find("nope").is_none());
    }

    #[test]
    fn spec_text_is_byte_stable() {
        let tmp = Path::new("/t");
        let w = find("fig8_qadp_traced").unwrap();
        assert_eq!(
            spec_text(&w, &PAPER, 42, tmp),
            "dfsim-spec v1\n\
             topology groups=33 routers_per_group=8 nodes_per_router=4 globals_per_router=4\n\
             scale 64\nqueue heap\nseed 42\n\
             workload pairwise LQCD Stencil5D\nrouting Q-adp\ntrace /t/run.trace\n"
        );
        let w = find("churn_ugalg").unwrap();
        assert_eq!(spec_text(&w, &PAPER, 7, tmp), spec_text(&w, &PAPER, 7, tmp));
        assert_ne!(spec_text(&w, &PAPER, 7, tmp), spec_text(&w, &PAPER, 8, tmp));
    }

    #[test]
    fn the_churn_job_mix_does_not_depend_on_the_seed() {
        let jobs = |seed| -> Vec<(String, u64)> {
            churn_arrivals(&PAPER, seed)
                .split(',')
                .map(|a| {
                    let (job, at) = a.split_once('@').unwrap();
                    (job.to_string(), at.trim_end_matches("ps").parse().unwrap())
                })
                .collect()
        };
        let (a, b) = (jobs(42), jobs(7));
        assert_eq!(a.len(), 12);
        assert!(a.windows(2).all(|w| w[0].1 < w[1].1), "arrivals are in time order");
        let mix = |js: &[(String, u64)]| js.iter().map(|j| j.0.clone()).collect::<Vec<_>>();
        assert_eq!(mix(&a), mix(&b), "same jobs in the same order");
        assert_ne!(a, b, "at other times");
        for app in CHURN_APPS {
            for size in PAPER.churn_sizes {
                assert!(mix(&a).contains(&format!("{app}:{size}")), "{app}:{size}");
            }
        }
    }

    #[test]
    fn every_spec_parses_and_prepares_on_both_systems() {
        let tmp = std::env::temp_dir();
        for system in [&PAPER, &TINY] {
            for w in WORKLOADS.iter().chain(&MIXED_PAIR) {
                for text in [spec_text(w, system, 42, &tmp), span_cell_text(w, system, 42)] {
                    let spec = ExperimentSpec::parse(&text)
                        .unwrap_or_else(|e| panic!("{}: {e}\n{text}", w.name));
                    assert_eq!(spec.seed, 42);
                    // `prepare` would create the trace file; the modes are
                    // checked on the parsed spec instead.
                    let mut plain = spec.clone();
                    plain.trace = None;
                    plain.cache = CacheMode::Off;
                    Simulation::from_spec(plain)
                        .and_then(|mut s| s.prepare())
                        .unwrap_or_else(|e| panic!("{}: {e}\n{text}", w.name));
                    if text.contains("threads 2") {
                        assert_eq!(spec.threads, 2);
                    }
                    assert_eq!(spec.trace.is_some(), text.contains("\ntrace "));
                    assert_eq!(spec.cache.enabled(), text.contains("\ncache "));
                }
            }
        }
    }
}
