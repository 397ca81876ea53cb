//! **Transfer** — Q-table transfer-learning bench: train Q-adaptive on one
//! workload mix, snapshot the learned tables, and evaluate *warm-started*
//! vs *cold-started* Q-adaptive on other workloads (with a UGALg reference
//! row per workload).
//!
//! Cold-start is the paper's condition: every run re-learns the traffic
//! from static topology estimates and the training transient is charged to
//! the measured communication time. Warm-start loads a fingerprint-checked
//! snapshot instead, so the run begins near steady state — visible in the
//! early windows of the latency series and in the `learning` block (mean
//! `|ΔQ1|` per window).
//!
//! The regime matters: on an *uncongested* network the static estimates
//! are already correct and there is nothing to transfer. Every cell
//! therefore runs a **pair of half-machine jobs under contiguous
//! placement**, concentrating neighbour traffic onto specific group pairs
//! whose single global links saturate — the setting where the learned
//! congestion map is valuable run-over-run.
//!
//! ```sh
//! cargo run --release -p dfsim-bench --bin transfer
//! TRAIN=Halo3D APPS=Stencil5D,LQCD cargo run --release -p dfsim-bench --bin transfer
//! cargo run --release -p dfsim-bench --bin transfer -- --smoke   # CI smoke
//! ```
//!
//! All knobs resolve through `ExperimentSpec::resolve`: `SCALE`, `SEED`,
//! `QUEUE`, `THREADS` (shared with `dfsim sweep`), plus `TRAIN` (training
//! workload, default Halo3D), `APPS` (evaluation workloads) and `SNAPSHOT`
//! (keep the trained snapshot at this path instead of a deleted temp file).
//! The generic `--qtable` knobs are rejected: this binary owns its own
//! Q-table lifecycle. The snapshot is an ordinary `--qtable save=` file
//! (`dfsim-qtable v2`: a header line, then the binary section a result-cache
//! entry embeds). `--smoke` checks that it loads, verifies and re-saves
//! byte-identically before comparing warm against cold start.

use std::path::Path;

use dfsim_apps::AppKind;
use dfsim_core::placement::Placement;
use dfsim_core::spec::die;
use dfsim_core::sweep::parallel_map;
use dfsim_core::tables::{f, TextTable};
use dfsim_core::{ExperimentSpec, JobSpec, LearningReport, RunReport, Simulation, Workload};
use dfsim_des::{QueueBackend, MICROSECOND};
use dfsim_network::{QTableSnapshot, RoutingAlgo};
use dfsim_topology::DragonflyParams;

/// Windows of the learning/latency series that count as "early".
const EARLY_WINDOWS: usize = 5;

/// Mean of the first `k` values of a latency series, µs (0 when empty).
fn early_latency_us(series: &[(f64, f64)], k: usize) -> f64 {
    let vals: Vec<f64> = series.iter().take(k).map(|&(_, v)| v).collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// One evaluation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Init {
    Ugal,
    Cold,
    Warm,
}

impl Init {
    fn label(self) -> &'static str {
        match self {
            Init::Ugal => "UGALg",
            Init::Cold => "Q-adp cold",
            Init::Warm => "Q-adp warm",
        }
    }
}

/// The per-cell spec: fine (1 µs) recorder windows resolve the sub-0.1 ms
/// scaled runs that the default 0.1 ms bins would collapse into a single
/// window; contiguous placement concentrates the pair's traffic (module
/// docs).
fn cell_spec(base: &ExperimentSpec, init: Init, seed: u64, snap: &Path) -> ExperimentSpec {
    let mut spec = base.clone();
    spec.seed = seed;
    // `threads` sizes the eval cell pool here; cells run single-partition.
    spec.threads = 0;
    spec.bin_width = MICROSECOND;
    spec.placement = Placement::Contiguous;
    spec.qtable_load = None;
    spec.qtable_save = None;
    spec.routings = vec![match init {
        Init::Ugal => RoutingAlgo::UgalG,
        Init::Cold | Init::Warm => RoutingAlgo::QAdaptive,
    }];
    if init == Init::Warm {
        spec.qtable_load = Some(snap.to_path_buf());
    }
    spec
}

/// A pair of half-machine jobs of `kind` under the cell spec (see the
/// module docs for why this is the transfer-relevant regime).
fn run_pair(kind: AppKind, spec: &ExperimentSpec) -> RunReport {
    let half = spec.params.num_nodes() / 2;
    let size = kind.preferred_size(half);
    let jobs = vec![JobSpec::sized(kind, size), JobSpec::sized(kind, size)];
    Simulation::run_one(spec, Workload::jobs(jobs)).unwrap_or_else(|e| die(&e)).report
}

fn train(base: &ExperimentSpec, kind: AppKind, seed: u64, snap: &Path) -> RunReport {
    let mut spec = cell_spec(base, Init::Cold, seed, snap);
    spec.qtable_save = Some(snap.to_path_buf());
    run_pair(kind, &spec)
}

fn learning_cols(l: Option<&LearningReport>) -> [String; 3] {
    match l {
        Some(l) => [
            f(l.early_mean_ns(EARLY_WINDOWS), 2),
            f(l.late_mean_ns(EARLY_WINDOWS), 2),
            l.updates.to_string(),
        ],
        None => ["-".into(), "-".into(), "-".into()],
    }
}

fn smoke() -> ! {
    let snap =
        std::env::temp_dir().join(format!("dfsim_transfer_smoke_{}.qtable", std::process::id()));
    let base = ExperimentSpec {
        params: DragonflyParams::tiny_72(),
        routings: vec![RoutingAlgo::QAdaptive],
        scale: 128.0,
        seed: 7,
        ..Default::default()
    };
    let kind = AppKind::Halo3D;

    // Train on seed 7, snapshot, and round-trip the file.
    let trained = train(&base, kind, 7, &snap);
    if !trained.completed {
        die("transfer smoke FAILED: training run incomplete");
    }
    let fail = |e: &dyn std::fmt::Display| -> ! { die(format!("transfer smoke FAILED: {e}")) };
    let loaded = QTableSnapshot::load(&snap).unwrap_or_else(|e| fail(&e));
    loaded.verify(&base.params, &base.timing, base.qa_alpha).unwrap_or_else(|e| fail(&e));
    let resaved = snap.with_extension("resaved");
    loaded.save(&resaved).unwrap_or_else(|e| fail(&e));
    let read = |p: &Path| std::fs::read(p).unwrap_or_else(|e| fail(&e));
    let identical = read(&snap) == read(&resaved);
    let _ = std::fs::remove_file(&resaved);
    if !identical {
        die("transfer smoke FAILED: save -> load -> save is not byte-identical");
    }

    // Evaluate with a different seed so the warm run is not a literal
    // replay of its own training traffic (contiguous placement keeps the
    // hot group pairs identical, which is exactly the transfer premise).
    let cold = run_pair(kind, &cell_spec(&base, Init::Cold, 8, &snap));
    let warm_spec = cell_spec(&base, Init::Warm, 8, &snap);
    let warm_heap = run_pair(kind, &warm_spec);
    let mut warm_cal_spec = warm_spec.clone();
    warm_cal_spec.queue = QueueBackend::calendar_auto();
    let warm_cal = run_pair(kind, &warm_cal_spec);
    let _ = std::fs::remove_file(&snap);
    if !(cold.completed && warm_heap.completed && warm_cal.completed) {
        die("transfer smoke FAILED: an evaluation run did not complete");
    }
    // Warm-started runs must be bit-identical across queue backends.
    let h = &warm_heap.apps[0];
    let c = &warm_cal.apps[0];
    if warm_heap.events != warm_cal.events
        || warm_heap.sim_ms != warm_cal.sim_ms
        || h.comm_ms.mean != c.comm_ms.mean
        || h.exec_ms != c.exec_ms
        || h.latency_us.p99 != c.latency_us.p99
        || warm_heap.network.avg_local_stall_ms != warm_cal.network.avg_local_stall_ms
    {
        die("transfer smoke FAILED: warm-started backends diverged");
    }
    let (Some(lc), Some(lw)) = (&cold.learning, &warm_heap.learning) else {
        die("transfer smoke FAILED: Q-adaptive runs must carry a learning block");
    };
    let early_lat = |r: &RunReport| early_latency_us(&r.apps[0].latency_series, EARLY_WINDOWS);
    let (lat_cold, lat_warm) = (early_lat(&cold), early_lat(&warm_heap));
    println!(
        "transfer smoke: trained Halo3D pair ({} Q1 updates) | early latency cold {:.3} us vs \
         warm {:.3} us | stall cold {:.4} vs warm {:.4} ms/group | early |dQ1| cold {:.2} vs \
         warm {:.2} ns | warm bit-identical on heap/calendar ({} events)",
        trained.learning.as_ref().map_or(0, |l| l.updates),
        lat_cold,
        lat_warm,
        cold.network.avg_local_stall_ms,
        warm_heap.network.avg_local_stall_ms,
        lc.early_mean_ns(EARLY_WINDOWS),
        lw.early_mean_ns(EARLY_WINDOWS),
        warm_heap.events,
    );
    // The acceptance signal: warm-started routing avoids the cold run's
    // training transient — lower early-window latency and less head-of-line
    // blocking overall (the runs are deterministic, so these are stable).
    if lat_warm >= lat_cold {
        die("transfer smoke FAILED: warm start should reach steady-state latency earlier \
             (early-window latency not reduced)");
    }
    if warm_heap.network.avg_local_stall_ms >= cold.network.avg_local_stall_ms {
        die("transfer smoke FAILED: warm start should reduce head-of-line blocking");
    }
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    }
    // Default scale 1/128: heavy enough that the contiguous pairs
    // congest their group-pair links and the cold-start transient is real.
    let mut defaults = ExperimentSpec { scale: 128.0, ..Default::default() };
    defaults.routings = vec![RoutingAlgo::QAdaptive];
    defaults.apps = vec![AppKind::Halo3D, AppKind::Stencil5D, AppKind::LQCD];
    let base =
        defaults.resolve_env(&["TRAIN", "APPS", "SNAPSHOT"], &args).unwrap_or_else(|e| die(&e));
    if base.qtable_load.is_some() || base.qtable_save.is_some() {
        die("transfer owns its Q-table lifecycle (--qtable is not accepted); pick the training \
             workload with TRAIN/--train and keep the snapshot with SNAPSHOT/--snapshot");
    }
    let train_kind = base.train;
    let evals = base.apps.clone();
    let (snap, keep) = match &base.snapshot {
        Some(p) => (p.clone(), true),
        None => (
            std::env::temp_dir().join(format!("dfsim_transfer_{}.qtable", std::process::id())),
            false,
        ),
    };

    eprintln!(
        "# transfer @ scale 1/{}, seed {}: train Q-adp on a contiguous {} pair, evaluate {} \
         workload pairs x (UGALg, Q-adp cold, Q-adp warm)",
        base.scale,
        base.seed,
        train_kind.name(),
        evals.len(),
    );
    let trained = train(&base, train_kind, base.seed, &snap);
    eprintln!(
        "# trained: {} ({}), {} Q1 updates, snapshot at {}",
        train_kind.name(),
        if trained.completed { "completed" } else { &trained.stop_reason },
        trained.learning.as_ref().map_or(0, |l| l.updates),
        snap.display(),
    );

    // Evaluation uses a shifted seed: warm-starting must help on *new*
    // traffic (different app randomness), not replay training.
    let eval_seed = base.seed + 1;
    let mut cells: Vec<(AppKind, Init)> = Vec::new();
    for &kind in &evals {
        for init in [Init::Ugal, Init::Cold, Init::Warm] {
            cells.push((kind, init));
        }
    }
    let results = parallel_map(cells, base.threads, |(kind, init)| {
        let r = run_pair(kind, &cell_spec(&base, init, eval_seed, &snap));
        (kind, init, r)
    });

    let mut t = TextTable::new(vec![
        "Workload",
        "Init",
        "comm (ms)",
        "exec (ms)",
        "early lat (us)",
        "stall (ms/grp)",
        "early |dQ1| (ns)",
        "late |dQ1| (ns)",
        "Q1 updates",
        "ok",
    ]);
    for (kind, init, r) in &results {
        let a = &r.apps[0];
        let [early_dq, late_dq, updates] = learning_cols(r.learning.as_ref());
        t.row(vec![
            kind.name().to_string(),
            init.label().to_string(),
            f(a.comm_ms.mean, 4),
            f(a.exec_ms, 4),
            f(early_latency_us(&a.latency_series, EARLY_WINDOWS), 3),
            f(r.network.avg_local_stall_ms, 4),
            early_dq,
            late_dq,
            updates,
            if r.completed { "y".into() } else { r.stop_reason.clone() },
        ]);
    }
    if args.iter().any(|a| a == "--csv") {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
        println!(
            "(warm rows load the {} snapshot; early = first {EARLY_WINDOWS} populated 1 µs \
             windows; a warm start should cut early latency/stall towards the steady-state \
             floor)",
            train_kind.name(),
        );
    }
    if !keep {
        let _ = std::fs::remove_file(&snap);
    }
    dfsim_bench::print_cache_summary(&base);
}
