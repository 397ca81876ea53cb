//! The paper's evaluation as one table of sweeps, and the one driver that
//! runs them: `dfsim sweep NAME [spec options] [--csv] [--engine-stats]`.
//!
//! Each `Figure` keeps only what is unique to it: its default scale, a
//! pinned routing set, the extended env vars it listens to, the cells it
//! runs and how it renders their reports. [`sweep`] does everything else,
//! once: resolve the spec (`figure defaults < --spec FILE < environment <
//! command line`, exit 2 on any invalid input), guard the Q-table knobs,
//! run every cell in one parallel pool (each into its own trace file under
//! `--trace`), then print the figure, the `--engine-stats` block and the
//! result-cache summary. Provenance goes to stderr, so `--csv > out.csv`
//! stays clean.

#![warn(missing_docs)]
#![expect(
    clippy::print_stdout,
    reason = "the designated report/CSV emitter: the sweep tables printed here are the product"
)]

use std::path::{Path, PathBuf};

use dfsim_apps::AppKind;
use dfsim_core::experiments::{mixed_jobs, FIG4_BACKGROUNDS, FIG4_TARGETS};
use dfsim_core::placement::Placement;
use dfsim_core::scenario::Scenario;
use dfsim_core::spec::die;
use dfsim_core::sweep::parallel_map;
use dfsim_core::tables::{f, human_bytes, TextTable};
use dfsim_core::{ExperimentSpec, RunReport, Simulation, Workload};
use dfsim_des::time::{as_millis, from_millis};
use dfsim_metrics::Span;
use dfsim_network::RoutingAlgo;

/// One simulation of a sweep.
struct Cell {
    /// Unique within the sweep: the `--engine-stats` row name and the
    /// trace-file infix, so it never contains a path separator.
    label: String,
    /// The spec of this one run ([`ExperimentSpec::cell`] plus the cell's
    /// own knobs).
    spec: ExperimentSpec,
    /// What it runs.
    workload: Workload,
}

/// Every cell of a sweep with its report, in cell order.
type Runs = [(Cell, RunReport)];

/// One sweep: a paper figure or table, an ablation, or a probe.
struct Figure {
    /// The `dfsim sweep` name.
    name: &'static str,
    /// What it shows: its line in the `dfsim sweep` listing (the paper's
    /// claims are comments on the entry).
    doc: &'static str,
    /// Default scale divisor.
    scale: f64,
    /// The routing set the figure is defined on, forced over any override;
    /// `None` sweeps the resolved set (default: the paper's four).
    pinned: Option<&'static [RoutingAlgo]>,
    /// The [`dfsim_core::spec::EXTENDED_ENV`] names it listens to.
    env: &'static [&'static str],
    /// Further defaults, layered under the spec file, env and flags.
    defaults: fn(&mut ExperimentSpec),
    /// The cells to run under the resolved spec.
    cells: fn(&ExperimentSpec) -> Vec<Cell>,
    /// Print the figure (CSV tables when the flag is set).
    render: fn(&ExperimentSpec, &Runs, bool),
}

const PAR_QADP: &[RoutingAlgo] = &[RoutingAlgo::Par, RoutingAlgo::QAdaptive];

const FIGURES: &[Figure] = &[
    // Six targets co-run with seven backgrounds: 168 cells at the full
    // sweep. Paper §V: Halo3D and DL interfere most, UR and LU least; LQCD
    // and Stencil5D targets are near-immune; Q-adp has the smallest
    // interfered comm times and spread.
    Figure {
        name: "fig4",
        doc: "Pairwise interference: comm time per target x background x routing",
        scale: 128.0,
        pinned: None,
        env: &["TARGETS"],
        defaults: |s| s.targets = FIG4_TARGETS.to_vec(),
        cells: fig4_cells,
        render: fig4_render,
    },
    // Paper: Q-adp lifts FFT3D's interfered average throughput 2.58x over
    // PAR.
    Figure {
        name: "fig5",
        doc: "FFT3D + Halo3D throughput along simulated time, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: |s| pair_cells(s, AppKind::FFT3D, AppKind::Halo3D),
        render: fig5_render,
    },
    // Paper: interfered PAR p95/p99 are 1.59x/2.01x Q-adp's; Q-adp's tail
    // control is what saves FFT3D's comm time.
    Figure {
        name: "fig6",
        doc: "FFT3D packet-latency distribution, alone vs under Halo3D, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: fig6_cells,
        render: fig6_render,
    },
    // Paper §V-C, the peak-ingress effect: Stencil5D delays LQCD's packets
    // under PAR (mean +57.3%, p99 +80.4%).
    Figure {
        name: "fig7",
        doc: "LQCD + Stencil5D packet latency along simulated time, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: |s| pair_cells(s, AppKind::LQCD, AppKind::Stencil5D),
        render: fig7_render,
    },
    // Paper: Stencil5D (largest peak ingress) is barely affected (<3%);
    // LQCD suffers ~49% under PAR but only ~9% under Q-adp.
    Figure {
        name: "fig8",
        doc: "LQCD + Stencil5D comm time, alone vs co-run, per routing",
        scale: 64.0,
        pinned: None,
        env: &[],
        defaults: |_| {},
        cells: |s| pair_cells(s, AppKind::LQCD, AppKind::Stencil5D),
        render: fig8_render,
    },
    // Paper §V-D, computation masking: Halo3D costs CosmoFlow ~21.9% comm
    // time under PAR, 4.9% under Q-adp.
    Figure {
        name: "fig9",
        doc: "CosmoFlow + Halo3D throughput along simulated time, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: |s| pair_cells(s, AppKind::CosmoFlow, AppKind::Halo3D),
        render: fig9_render,
    },
    // Paper: Stencil5D <2% delay; LQCD ~17.9% under adaptive, 6.5% under
    // Q-adp; the other apps ~96% more comm time under adaptive, Q-adp
    // cutting that by ~49%.
    Figure {
        name: "fig10",
        doc: "Mixed workload: each Table II app's comm time alone vs in the mix",
        scale: 64.0,
        pinned: None,
        env: &[],
        defaults: |_| {},
        cells: fig10_cells,
        render: fig10_render,
    },
    // Per-group local-link stall and Group 0's global-link stalls. Paper:
    // average in-group stall 59.15 ms (PAR) vs 31.42 ms (Q-adp); global
    // 1.33 vs 0.52 ms.
    Figure {
        name: "fig11",
        doc: "Network stall time under the mixed workload, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: mixed_cells,
        render: fig11_render,
    },
    // Entry (i, j) is global link Gi->Gj's mean throughput / capacity; the
    // diagonal averages group-local links. Paper §VI-B: PAR shows hot spots
    // (a higher std).
    Figure {
        name: "fig12",
        doc: "Congestion-index heat map under the mixed workload, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: mixed_cells,
        render: fig12_render,
    },
    // Paper: Q-adp mean 3.87 us / p99 15.13 us, >63% below PAR's; aggregate
    // throughput 1.27 GB/ms vs PAR's 0.94 (+35%).
    Figure {
        name: "fig13",
        doc: "System-wide latency distribution and throughput along time, mixed workload",
        scale: 64.0,
        pinned: None,
        env: &[],
        defaults: |_| {},
        cells: mixed_cells,
        render: fig13_render,
    },
    // Each app standalone on its half-system partition under the first
    // routing, the paper's values scaled alongside.
    Figure {
        name: "table1",
        doc: "Application characterization vs the paper's Table I",
        scale: 64.0,
        pinned: None,
        env: &[],
        defaults: |_| {},
        cells: standalone_cells,
        render: table1_render,
    },
    // Table II's sizes scaled to the machine (Table II itself on the paper
    // system), each job alone at its size under the first routing.
    Figure {
        name: "table2",
        doc: "Mixed-workload job sizes and each job's standalone characteristics",
        scale: 64.0,
        pinned: None,
        env: &[],
        defaults: |_| {},
        cells: table2_cells,
        render: table2_render,
    },
    // Per cell, JOBS Poisson arrivals run to completion under the admission
    // policy. Matrix cell (target, other) is the overlap-weighted mean
    // slowdown of completed target jobs while a job of kind other was
    // co-resident: the paper's "who hurts whom?" under dynamic arrivals.
    Figure {
        name: "churn",
        doc: "Job-churn interference: Poisson arrivals x routing x placement",
        scale: 256.0,
        pinned: None,
        env: &["RATES", "JOBS", "APPS", "SIZES"],
        defaults: churn_defaults,
        cells: churn_cells,
        render: churn_render,
    },
    // Contiguous placement isolates the jobs under either routing, at the
    // cost of fragmentation (paper §I); under random placement only Q-adp
    // keeps the slowdown low.
    Figure {
        name: "placement_ablation",
        doc: "Random vs contiguous placement of FFT3D + Halo3D, PAR vs Q-adp",
        scale: 64.0,
        pinned: Some(PAR_QADP),
        env: &[],
        defaults: |_| {},
        cells: placement_cells,
        render: placement_render,
    },
    // The paper runs zero bias (§III); positive bias suppresses Valiant
    // detours, negative bias sprays more traffic non-minimally.
    Figure {
        name: "ugal_bias",
        doc: "UGAL minimal-path bias sweep on FFT3D + Halo3D",
        scale: 64.0,
        pinned: Some(&[RoutingAlgo::UgalG]),
        env: &[],
        defaults: |_| {},
        cells: ugal_bias_cells,
        render: ugal_bias_render,
    },
    // The paper reuses its reference's hyperparameters; this documents our
    // defaults (alpha 0.2, epsilon 0.005) and their sensitivity.
    Figure {
        name: "qa_hparams",
        doc: "Q-adaptive learning rate / exploration sweep on FFT3D + Halo3D",
        scale: 64.0,
        pinned: Some(&[RoutingAlgo::QAdaptive]),
        env: &[],
        defaults: |_| {},
        cells: qa_hparams_cells,
        render: qa_hparams_render,
    },
    // Injection rate, peak ingress and latency percentiles at the current
    // scale under the first routing; `wall s` is host time.
    Figure {
        name: "probe",
        doc: "Calibration probe: every app standalone vs Table I",
        scale: 64.0,
        pinned: None,
        env: &[],
        defaults: |_| {},
        cells: standalone_cells,
        render: probe_render,
    },
    // Detour fractions and stall totals; TARGET/BG pick the pair.
    Figure {
        name: "probe_pair",
        doc: "Calibration probe: one pair (default FFT3D + Halo3D) under every routing",
        scale: 64.0,
        pinned: None,
        env: &["TARGET", "BG"],
        defaults: |s| {
            s.workload = Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D));
            s.routings = RoutingAlgo::ALL.to_vec();
        },
        cells: probe_pair_cells,
        render: probe_pair_render,
    },
];

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// `dfsim sweep NAME [spec options] [--csv] [--engine-stats]`: run the named
/// figure's sweep and print it. A missing or unknown name exits 2 with the
/// list of valid names.
pub fn sweep(args: &[String]) {
    let Some(name) = args.first() else {
        let list: Vec<String> =
            FIGURES.iter().map(|fig| format!("  {:<20}{}", fig.name, fig.doc)).collect();
        die(format!(
            "usage: dfsim sweep NAME [spec options] [--csv] [--engine-stats]\n{}",
            list.join("\n")
        ))
    };
    let Some(fig) = FIGURES.iter().find(|fig| fig.name == name) else {
        let names: Vec<&str> = FIGURES.iter().map(|fig| fig.name).collect();
        die(format!("unknown sweep '{name}' (valid: {})", names.join(", ")))
    };
    let args = &args[1..];
    let mut spec = defaults(fig).resolve_env(fig.env, args).unwrap_or_else(|e| die(&e));
    if let Some(pinned) = fig.pinned {
        spec.routings = pinned.to_vec();
    }
    sweep_qtable_guard(&spec);
    let cells = (fig.cells)(&spec);
    let routings: Vec<&str> = spec
        .routings
        .iter()
        .filter(|&&r| cells.iter().any(|c| c.spec.routing() == r))
        .map(|r| r.label())
        .collect();
    eprintln!(
        "# {} @ scale 1/{}, seed {}, {} cells ({})",
        fig.name,
        spec.scale,
        spec.seed,
        cells.len(),
        routings.join(", ")
    );
    let trace = spec.trace.as_deref();
    let runs = parallel_map(cells, spec.threads, |mut cell| {
        cell.spec.trace = trace.map(|base| cell_trace_path(base, &cell.label));
        let run = Simulation::run_one(&cell.spec, cell.workload.clone());
        (cell, run.unwrap_or_else(|e| die(&e)).report)
    });
    (fig.render)(&spec, &runs, args.iter().any(|a| a == "--csv"));
    if args.iter().any(|a| a == "--engine-stats") {
        println!("\n== engine stats ==");
        for (cell, r) in &runs {
            println!("{}: {}", cell.label, r.engine_summary());
        }
    }
    if let Some(base) = trace {
        eprintln!(
            "# {} trace files written beside {} (replay with: dfsim trace FILE --replay)",
            runs.len(),
            base.display()
        );
    }
    print_cache_summary(&spec);
}

/// A figure's spec before the file/env/CLI layers.
fn defaults(fig: &Figure) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        scale: fig.scale,
        routings: fig.pinned.unwrap_or(&RoutingAlgo::PAPER_SET).to_vec(),
        ..Default::default()
    };
    (fig.defaults)(&mut spec);
    spec
}

/// Guard the Q-table lifecycle knobs of a sweep's resolved spec:
///
/// * `qtable_save` is rejected: a sweep runs many cells in parallel and
///   they would race on the file. Snapshots are written by the single-run
///   front-ends (`dfsim --qtable save=` or the `transfer` bin), which the
///   error points at.
/// * `qtable_load` on a routing set without Q-adp would be a silent no-op
///   (only Q-adaptive cells carry Q-tables — [`ExperimentSpec::cell`]
///   strips the knobs from the others), so it exits with a message instead.
fn sweep_qtable_guard(spec: &ExperimentSpec) {
    if spec.qtable_save.is_some() {
        die("--qtable save= is not supported by sweeps (parallel cells would race on the file); \
             write snapshots with 'dfsim --qtable save=PATH' or the transfer bin");
    }
    if spec.qtable_load.is_some() && !spec.routings.contains(&RoutingAlgo::QAdaptive) {
        die("--qtable load= would have no effect: the routing set contains no Q-adp (set \
             ROUTING=Q-adp or include Q-adp)");
    }
}

/// The trace path of one sweep cell: the sweep's base path with the cell
/// label as an infix before the extension, so `out.trace` under label
/// `r20_UGALg_random` becomes `out.r20_UGALg_random.trace` and parallel
/// cells never race on one file.
fn cell_trace_path(base: &Path, label: &str) -> PathBuf {
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{label}.{ext}")),
        None => base.with_extension(label),
    }
}

/// Print the result-cache session summary to stderr (hits / misses /
/// stores across all cells) when the resolved spec enables the cache. One
/// line, stderr — it is provenance, not data, so `--csv` pipelines stay
/// clean.
pub fn print_cache_summary(spec: &ExperimentSpec) {
    if !spec.cache.enabled() {
        return;
    }
    let s = dfsim_core::cache::session_stats();
    eprintln!(
        "result cache: {} hits, {} misses ({} stored) [{}]",
        s.hits,
        s.misses,
        s.stores,
        spec.cache.describe()
    );
}

// ---------------------------------------------------------------------------
// Shared cell sets and presentation
// ---------------------------------------------------------------------------

fn cell(spec: &ExperimentSpec, routing: RoutingAlgo, label: String, workload: Workload) -> Cell {
    Cell { label, spec: spec.cell(routing), workload }
}

/// A table whose header is `columns`, comma-separated (as its CSV prints it).
fn table(columns: &str) -> TextTable {
    TextTable::new(columns.split(',').collect())
}

/// Print a table as CSV or aligned text.
fn show(t: &TextTable, csv: bool) {
    if csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}

/// Per routing, the pairwise triple: `target` alone, `bg` alone (each in
/// the target slot), then `target` co-run with `bg`.
fn pair_cells(spec: &ExperimentSpec, target: AppKind, bg: AppKind) -> Vec<Cell> {
    let (t, b) = (target.name(), bg.name());
    let mut cells = Vec::new();
    for &r in &spec.routings {
        let l = r.label();
        cells.push(cell(spec, r, format!("{l}_{t}_alone"), Workload::pairwise(target, None)));
        cells.push(cell(spec, r, format!("{l}_{b}_alone"), Workload::pairwise(bg, None)));
        cells.push(cell(spec, r, format!("{l}_{t}+{b}"), Workload::pairwise(target, Some(bg))));
    }
    cells
}

/// One routing's reports of [`pair_cells`].
struct Triple<'a> {
    routing: RoutingAlgo,
    target: &'a RunReport,
    bg: &'a RunReport,
    both: &'a RunReport,
}

fn triples(runs: &Runs) -> Vec<Triple<'_>> {
    runs.chunks_exact(3)
        .map(|c| Triple {
            routing: c[0].0.spec.routing(),
            target: &c[0].1,
            bg: &c[1].1,
            both: &c[2].1,
        })
        .collect()
}

/// A time-series table: `t (ms)` from the series' own bin timestamps, then
/// one column per series with `digits` decimals (0 where a series has no
/// such bin).
fn series_table(names: &[String], series: &[&[(f64, f64)]], digits: usize) -> TextTable {
    let mut header = vec!["t (ms)".to_string()];
    header.extend(names.iter().cloned());
    let mut t = TextTable::new(header);
    let bins = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..bins {
        let ts = series.iter().find_map(|s| s.get(i)).map_or(0.0, |&(t, _)| t);
        let mut row = vec![f(ts, 2)];
        row.extend(series.iter().map(|s| f(s.get(i).map_or(0.0, |&(_, v)| v), digits)));
        t.row(row);
    }
    t
}

/// The series tables' bin caption, from the `bin_width` key.
fn per_bin(spec: &ExperimentSpec) -> String {
    format!("per {} ms bin", as_millis(spec.bin_width))
}

/// Fig 5/9's per-routing table: both apps' throughput, alone and co-run.
fn throughput_table(tr: &Triple, t: AppKind, b: AppKind, csv: bool) {
    println!("== {} ==", tr.routing.label());
    let names: Vec<String> = ["alone", "interfered"]
        .into_iter()
        .flat_map(|tag| [t, b].map(|app| format!("{}_{tag}", app.name())))
        .collect();
    let apps = [&tr.target.apps[0], &tr.bg.apps[0], &tr.both.apps[0], &tr.both.apps[1]];
    show(&series_table(&names, &apps.map(|a| &a.throughput[..]), 3), csv);
}

/// Every app standalone under the spec's first routing.
fn standalone_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let r = spec.routing();
    AppKind::ALL.iter().map(|&k| cell(spec, r, k.name().into(), Workload::standalone(k))).collect()
}

/// The mixed workload under every routing.
fn mixed_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    spec.routings
        .iter()
        .map(|&r| cell(spec, r, format!("{}_mixed", r.label()), Workload::Mixed))
        .collect()
}

/// Each Table II job alone at its size in `workload mixed` on this machine.
fn alone_cells(spec: &ExperimentSpec, r: RoutingAlgo, prefix: &str) -> Vec<Cell> {
    mixed_jobs(spec.params.num_nodes())
        .into_iter()
        .map(|j| cell(spec, r, format!("{prefix}{}", j.kind.name()), Workload::jobs(vec![j])))
        .collect()
}

// ---------------------------------------------------------------------------
// Pairwise figures (paper §V)
// ---------------------------------------------------------------------------

fn fig4_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &target in &spec.targets {
        for bg in FIG4_BACKGROUNDS {
            for &r in &spec.routings {
                let label =
                    format!("{}_{}+{}", r.label(), target.name(), bg.map_or("none", |b| b.name()));
                cells.push(cell(spec, r, label, Workload::pairwise(target, bg)));
            }
        }
    }
    cells
}

fn fig4_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table("Target,Background,Routing,Comm (ms),Std (ms),vs none,ok");
    let nr = spec.routings.len();
    for (target, runs) in spec.targets.iter().zip(runs.chunks(FIG4_BACKGROUNDS.len() * nr)) {
        for (k, (cell, r)) in runs.iter().enumerate() {
            // The first `nr` cells of a target are its standalone baselines.
            let baseline = runs[k % nr].1.apps[0].comm_ms.mean;
            let a = &r.apps[0];
            t.row(vec![
                target.name(),
                FIG4_BACKGROUNDS[k / nr].map_or("None", |b| b.name()),
                cell.spec.routing().label(),
                &f(a.comm_ms.mean, 4),
                &f(a.comm_ms.std, 4),
                &f(a.comm_ms.mean / baseline, 2),
                if r.completed { "y" } else { "INCOMPLETE" },
            ]);
        }
    }
    show(&t, csv);
    if !csv {
        println!(
            "Shape checks (paper §V): Halo3D and DL backgrounds should show the largest\n\
             'vs none' factors; UR and LU near 1.0; LQCD/Stencil5D targets near-immune;\n\
             Q-adp should have the smallest interfered comm times and std."
        );
    }
}

fn mean_tp(r: &RunReport, app: usize) -> f64 {
    let a = &r.apps[app];
    if a.exec_ms > 0.0 {
        a.total_msg_mb / 1000.0 / a.exec_ms
    } else {
        0.0
    }
}

fn fig5_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let triples = triples(runs);
    for tr in &triples {
        throughput_table(tr, AppKind::FFT3D, AppKind::Halo3D, csv);
        println!(
            "{}: FFT3D mean throughput alone {:.3} GB/ms, interfered {:.3} GB/ms; \
             Halo3D alone {:.3}, interfered {:.3}",
            tr.routing.label(),
            mean_tp(tr.target, 0),
            mean_tp(tr.both, 0),
            mean_tp(tr.bg, 0),
            mean_tp(tr.both, 1),
        );
        println!();
    }
    println!(
        "Q-adaptive / PAR interfered FFT3D throughput: {:.2}x (paper: 2.58x)",
        mean_tp(triples[1].both, 0) / mean_tp(triples[0].both, 0)
    );
}

fn fig6_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (tag, bg) in [("alone", None), ("interfered", Some(AppKind::Halo3D))] {
        for &r in &spec.routings {
            let w = Workload::pairwise(AppKind::FFT3D, bg);
            cells.push(cell(spec, r, format!("{}_{tag}", r.label()), w));
        }
    }
    cells
}

fn fig6_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table("Case,n,mean us,Q1 us,median us,Q3 us,p95 us,p99 us,max us");
    for (cell, r) in runs {
        let l = &r.apps[0].latency_us;
        t.row(vec![
            cell.label.clone(),
            l.n.to_string(),
            f(l.mean, 2),
            f(l.q1, 2),
            f(l.median, 2),
            f(l.q3, 2),
            f(l.p95, 2),
            f(l.p99, 2),
            f(l.max, 2),
        ]);
    }
    show(&t, csv);
    // Cells 2 and 3 are PAR and Q-adp interfered (the pinned order).
    let (par, qa) = (&runs[2].1.apps[0].latency_us, &runs[3].1.apps[0].latency_us);
    println!(
        "interfered tails: PAR p95/p99 = {:.2}/{:.2} us, Q-adp = {:.2}/{:.2} us \
         (ratios {:.2}x / {:.2}x; paper: 1.59x / 2.01x)",
        par.p95,
        par.p99,
        qa.p95,
        qa.p99,
        par.p95 / qa.p95,
        par.p99 / qa.p99,
    );
}

fn fig7_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let triples = triples(runs);
    for (i, app) in ["LQCD", "Stencil5D"].into_iter().enumerate() {
        println!("== {app}: mean packet latency (us) {} ==", per_bin(spec));
        let mut names: Vec<String> =
            triples.iter().map(|tr| format!("{}_alone", tr.routing.label())).collect();
        names.extend(triples.iter().map(|tr| format!("{}_interfered", tr.routing.label())));
        let mut series: Vec<&[(f64, f64)]> = triples
            .iter()
            .map(|tr| &(if i == 0 { tr.target } else { tr.bg }).apps[0].latency_series[..])
            .collect();
        series.extend(triples.iter().map(|tr| &tr.both.apps[i].latency_series[..]));
        show(&series_table(&names, &series, 2), csv);
    }
    // Paper-quoted summary: LQCD mean / p99 latency, alone vs interfered
    // under PAR.
    let (a, b) = (&triples[0].target.apps[0].latency_us, &triples[0].both.apps[0].latency_us);
    println!(
        "PAR LQCD latency: alone mean/p99 = {:.2}/{:.2} us, interfered = {:.2}/{:.2} us \
         (+{:.1}% / +{:.1}%; paper: +57.3% / +80.4%)",
        a.mean,
        a.p99,
        b.mean,
        b.p99,
        100.0 * (b.mean / a.mean - 1.0),
        100.0 * (b.p99 / a.p99 - 1.0),
    );
}

fn fig8_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let triples = triples(runs);
    let mut t = table("App,Routing,None (ms),Interfered (ms),delta %");
    for tr in &triples {
        for (name, alone, i) in [("LQCD", tr.target, 0), ("Stencil5D", tr.bg, 1)] {
            let a = alone.apps[0].comm_ms.mean;
            let b = tr.both.apps[i].comm_ms.mean;
            t.row(vec![name, tr.routing.label(), &f(a, 4), &f(b, 4), &f(100.0 * (b / a - 1.0), 1)]);
        }
    }
    show(&t, csv);
    let delta =
        |tr: &Triple| 100.0 * (tr.both.apps[0].comm_ms.mean / tr.target.apps[0].comm_ms.mean - 1.0);
    let of = |routing| triples.iter().find(|tr| tr.routing == routing);
    if let (Some(par), Some(qa)) = (of(RoutingAlgo::Par), of(RoutingAlgo::QAdaptive)) {
        println!(
            "LQCD interfered delta: PAR +{:.1}% (paper +49.1%), Q-adp +{:.1}% (paper +9.3%)",
            delta(par),
            delta(qa),
        );
    }
}

fn fig9_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    for tr in &triples(runs) {
        throughput_table(tr, AppKind::CosmoFlow, AppKind::Halo3D, csv);
        let (alone, both) = (tr.target.apps[0].comm_ms.mean, tr.both.apps[0].comm_ms.mean);
        println!(
            "{}: CosmoFlow comm time alone {alone:.4} ms, interfered {both:.4} ms (+{:.1}%)\n",
            tr.routing.label(),
            100.0 * (both / alone - 1.0)
        );
    }
    println!(
        "(paper: Halo3D costs CosmoFlow ~21.9% comm time under PAR but only 4.9% under\n\
         Q-adaptive; the interference is largely hidden by computation — §V-D)"
    );
}

// ---------------------------------------------------------------------------
// Mixed-workload figures and tables (paper §VI)
// ---------------------------------------------------------------------------

/// Per routing: each Table II job alone, then the mix.
fn fig10_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &r in &spec.routings {
        cells.extend(alone_cells(spec, r, &format!("{}_alone_", r.label())));
        cells.push(cell(spec, r, format!("{}_mixed", r.label()), Workload::Mixed));
    }
    cells
}

fn fig10_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let jobs = mixed_jobs(spec.params.num_nodes());
    // One chunk per routing: the alone runs, then the mix.
    let per_routing: Vec<&Runs> = runs.chunks(jobs.len() + 1).collect();
    let mut t = table("App,Routing,None (ms),Interfered (ms),delta %,std none,std mix");
    for chunk in &per_routing {
        let mix = &chunk[jobs.len()].1;
        for (i, j) in jobs.iter().enumerate() {
            let (a, b) = (&chunk[i].1.apps[0].comm_ms, &mix.apps[i].comm_ms);
            t.row(vec![
                j.kind.name(),
                chunk[0].0.spec.routing().label(),
                &f(a.mean, 4),
                &f(b.mean, 4),
                &f(100.0 * (b.mean / a.mean - 1.0), 1),
                &f(a.std, 4),
                &f(b.std, 4),
            ]);
        }
    }
    show(&t, csv);
    if csv {
        return;
    }
    // Paper's summary statistics: mean interference over the five
    // non-Stencil5D apps, adaptive vs Q-adaptive.
    let mean_delta = |routing: RoutingAlgo| -> Option<f64> {
        let chunk = per_routing.iter().find(|c| c[0].0.spec.routing() == routing)?;
        let mix = &chunk[jobs.len()].1;
        let deltas: Vec<f64> = (0..jobs.len())
            .filter(|&i| jobs[i].kind != AppKind::Stencil5D)
            .map(|i| mix.apps[i].comm_ms.mean / chunk[i].1.apps[0].comm_ms.mean - 1.0)
            .collect();
        Some(100.0 * deltas.iter().sum::<f64>() / deltas.len() as f64)
    };
    let adaptive: Vec<f64> = [RoutingAlgo::UgalG, RoutingAlgo::UgalN, RoutingAlgo::Par]
        .into_iter()
        .filter_map(mean_delta)
        .collect();
    if !adaptive.is_empty() {
        println!(
            "mean interference (non-Stencil5D apps): adaptive {:.1}% (paper ~96%), Q-adp {:.1}%",
            adaptive.iter().sum::<f64>() / adaptive.len() as f64,
            mean_delta(RoutingAlgo::QAdaptive).unwrap_or(f64::NAN),
        );
    }
}

fn fig11_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let (par, qa) = (&runs[0].1.network, &runs[1].1.network);
    // Per-group local stall (circle sizes).
    let mut t = table("Group,PAR local stall (ms),Q-adp local stall (ms)");
    for g in 0..par.local_stall_ms.len() {
        t.row(vec![format!("G{g}"), f(par.local_stall_ms[g], 4), f(qa.local_stall_ms[g], 4)]);
    }
    show(&t, csv);
    // Group 0's global links (edge darkness).
    let mut t = table("Link,PAR stall (ms),Q-adp stall (ms)");
    for dst in 1..par.global_stall_ms.len() {
        t.row(vec![
            format!("G0-G{dst}"),
            f(par.global_stall_ms[0][dst], 5),
            f(qa.global_stall_ms[0][dst], 5),
        ]);
    }
    show(&t, csv);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average local stall per group: PAR {:.4} ms vs Q-adp {:.4} ms (paper: 59.15 vs 31.42)",
        mean(&par.local_stall_ms),
        mean(&qa.local_stall_ms),
    );
    println!(
        "average global-link stall: PAR {:.5} ms vs Q-adp {:.5} ms (paper: 1.33 vs 0.52)",
        par.avg_global_stall_ms, qa.avg_global_stall_ms,
    );
    // Hot-spot check: the paper points at hot groups under PAR.
    let hottest = |v: &[f64]| {
        v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or((0, 0.0), |(i, s)| (i, *s))
    };
    let (pg, ps) = hottest(&par.local_stall_ms);
    let (qg, qs) = hottest(&qa.local_stall_ms);
    println!("hottest group: PAR G{pg} ({ps:.4} ms) vs Q-adp G{qg} ({qs:.4} ms)");
}

fn fig12_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    for (cell, r) in runs {
        let name = cell.spec.routing().label();
        let m = &r.network.congestion;
        println!("== {name} congestion index ==");
        if csv {
            for row in m {
                let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
                println!("{}", cells.join(","));
            }
        } else {
            // Compact shaded text rendering: one character per cell.
            let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
            let max = m.iter().flatten().copied().fold(0.0f64, f64::max).max(1e-12);
            for row in m {
                let line: String = row
                    .iter()
                    .map(|&v| {
                        let idx = ((v / max) * (shades.len() - 1) as f64).round() as usize;
                        shades[idx.min(shades.len() - 1)]
                    })
                    .collect();
                println!("|{line}|");
            }
            println!("(scale: ' '=0 .. '@'={max:.4})");
        }
        println!(
            "{name}: mean global index {:.4}, std {:.4} (imbalance); diagonal mean {:.4}",
            r.network.mean_global_congestion,
            r.network.std_global_congestion,
            m.iter().enumerate().map(|(i, row)| row[i]).sum::<f64>() / m.len() as f64,
        );
        println!();
    }
    let (par, qa) = (&runs[0].1.network, &runs[1].1.network);
    println!(
        "shape check (paper §VI-B): PAR should show higher std (hot spots) than Q-adp: \
         {:.4} vs {:.4} -> {}",
        par.std_global_congestion,
        qa.std_global_congestion,
        if par.std_global_congestion > qa.std_global_congestion { "OK" } else { "MISMATCH" }
    );
}

fn fig13_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    // (a) system-wide latency distribution.
    let mut t = table("Routing,mean us,median us,p95 us,p99 us,max us,packets");
    for (cell, r) in runs {
        let l = &r.network.system_latency_us;
        t.row(vec![
            cell.spec.routing().label().to_string(),
            f(l.mean, 2),
            f(l.median, 2),
            f(l.p95, 2),
            f(l.p99, 2),
            f(l.max, 2),
            l.n.to_string(),
        ]);
    }
    show(&t, csv);
    // (b) aggregate throughput series, PAR vs Q-adaptive.
    let of = |routing| runs.iter().find(|(c, _)| c.spec.routing() == routing).map(|(_, r)| r);
    let (Some(par), Some(qa)) = (of(RoutingAlgo::Par), of(RoutingAlgo::QAdaptive)) else {
        return;
    };
    let (par, qa) = (&par.network, &qa.network);
    println!("== aggregate throughput (GB/ms {}) ==", per_bin(spec));
    let names = ["PAR".to_string(), "Q-adp".to_string()];
    show(&series_table(&names, &[&par.system_throughput, &qa.system_throughput], 3), csv);
    println!(
        "mean aggregate throughput: PAR {:.3} GB/ms, Q-adp {:.3} GB/ms ({:+.1}%; paper +35.1%)",
        par.mean_system_throughput,
        qa.mean_system_throughput,
        100.0 * (qa.mean_system_throughput / par.mean_system_throughput - 1.0),
    );
    println!(
        "p99 latency: PAR {:.2} us vs Q-adp {:.2} us ({:.1}% smaller; paper >63%)",
        par.system_latency_us.p99,
        qa.system_latency_us.p99,
        100.0 * (1.0 - qa.system_latency_us.p99 / par.system_latency_us.p99),
    );
}

fn table1_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table(
        "Pattern,App,Total Msg (MB),paper/scale,Exec time (ms),paper/scale,Inj. Rate (GB/s),paper,\
         Peak Ingress,paper (unscaled)",
    );
    for (kind, (_, r)) in AppKind::ALL.iter().zip(runs) {
        let a = &r.apps[0];
        let paper = kind.paper_row();
        t.row(vec![
            paper.pattern.to_string(),
            kind.name().to_string(),
            f(a.total_msg_mb, 2),
            f(paper.total_msg_mb / spec.scale, 2),
            f(a.exec_ms, 4),
            f(paper.exec_ms / spec.scale, 4),
            f(a.inj_rate_gbs, 2),
            f(paper.inj_rate_gbs, 2),
            human_bytes(a.peak_ingress_bytes),
            paper.peak_ingress.to_string(),
        ]);
    }
    show(&t, csv);
    if !csv {
        println!(
            "Shape checks: injection-rate ordering should match the paper's \
             (Halo3D highest, CosmoFlow lowest);\npeak-ingress ordering within \
             the stencil family should be Halo3D < LQCD < Stencil5D."
        );
    }
}

fn table2_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    alone_cells(spec, spec.routing(), "")
}

fn table2_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table("Application,Job size,Exec ms (alone),Inj GB/s (alone),Peak ingress");
    for (_, r) in runs {
        let a = &r.apps[0];
        t.row(vec![
            a.name.clone(),
            a.size.to_string(),
            f(a.exec_ms, 4),
            f(a.inj_rate_gbs, 2),
            human_bytes(a.peak_ingress_bytes),
        ]);
    }
    show(&t, csv);
    if !csv {
        let total: u32 = runs.iter().map(|(_, r)| r.apps[0].size).sum();
        println!(
            "Total nodes: {total} of {} (paper Table II: 1,056 of 1,056, scaled to the machine).",
            spec.params.num_nodes()
        );
    }
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

/// Default rates chosen so inter-arrival gaps are comparable to the scaled
/// job durations (~0.03–0.2 ms at 1/256): the low rate drains, the high one
/// queues.
fn churn_defaults(s: &mut ExperimentSpec) {
    s.workload = Workload::Poisson;
    s.rates = vec![20.0, 60.0];
    s.jobs = 12;
    s.apps = vec![AppKind::UR, AppKind::CosmoFlow, AppKind::LQCD, AppKind::FFT3D];
}

fn churn_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let mut spec = spec.clone();
    let nodes = spec.params.num_nodes();
    if spec.sizes.is_empty() {
        // Quarter- and half-machine jobs: a couple of co-residents fill the
        // system, so admission actually queues at the high rate.
        spec.sizes = vec![nodes / 4, nodes / 2];
    }
    // Every cell draws from the same kind/size pools, so one representative
    // scenario validates them all before the sweep starts (a clean message
    // instead of a mid-sweep error on e.g. SIZES larger than the machine).
    let probe = Scenario::poisson(spec.seed, spec.rates[0], spec.jobs, &spec.apps, &spec.sizes);
    if let Err(e) = probe.validate(nodes) {
        die(&e);
    }
    let mut cells = Vec::new();
    for &rate in &spec.rates {
        for &r in &spec.routings {
            for placement in [Placement::Random, Placement::Contiguous] {
                let mut c = spec.cell(r);
                c.rates = vec![rate];
                c.placement = placement;
                let label = format!("r{rate}_{}_{}", r.label(), placement.label());
                cells.push(Cell { label, spec: c, workload: Workload::Poisson });
            }
        }
    }
    cells
}

fn churn_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t =
        table("Rate (jobs/ms),Routing,Placement,Done,Mean wait (ms),Mean slowdown,Sim (ms),ok");
    for (cell, r) in runs {
        t.row(vec![
            f(cell.spec.rates[0], 2),
            cell.spec.routing().label().to_string(),
            format!("{:?}", cell.spec.placement),
            format!("{}/{}", r.completed_jobs().count(), r.jobs.len()),
            f(r.mean_wait_ms(), 4),
            f(r.mean_slowdown(), 3),
            f(r.sim_ms, 4),
            if r.completed { "y".into() } else { r.stop_reason.clone() },
        ]);
    }
    show(&t, csv);
    // Per-routing interference matrix under churn (aggregated over rates
    // and placements): rows = target kind, cols = co-resident kind.
    let kinds = &spec.apps;
    for &routing in &spec.routings {
        let of_routing: Vec<&RunReport> =
            runs.iter().filter(|(c, _)| c.spec.routing() == routing).map(|(_, r)| r).collect();
        let mut header = vec!["Target \\ Co-res".to_string()];
        header.extend(kinds.iter().map(|k| k.name().to_string()));
        let mut mt = TextTable::new(header);
        for (kind, row) in kinds.iter().zip(interference_matrix(&of_routing, kinds)) {
            let mut cells = vec![kind.name().to_string()];
            cells.extend(row.iter().map(|c| c.map_or("-".to_string(), |v| f(v, 3))));
            mt.row(cells);
        }
        if !csv {
            println!("\nInterference under churn — {routing} (overlap-weighted slowdown):");
        }
        show(&mt, csv);
    }
}

/// `[start, finish)` of a started and finished job.
fn job_span(start_ms: Option<f64>, finish_ms: Option<f64>) -> Option<Span> {
    Some(Span::new(from_millis(start_ms?), from_millis(finish_ms?)))
}

/// Overlap-weighted mean slowdown of completed `row` jobs while co-resident
/// with `col` jobs, over all runs. `None` when the pair never co-resided.
fn interference_matrix(reports: &[&RunReport], kinds: &[AppKind]) -> Vec<Vec<Option<f64>>> {
    let k = kinds.len();
    let idx = |name: &str| kinds.iter().position(|a| a.name() == name);
    let mut acc = vec![vec![0.0f64; k]; k];
    let mut weight = vec![vec![0.0f64; k]; k];
    for r in reports {
        let spans: Vec<Option<Span>> =
            r.jobs.iter().map(|j| job_span(j.start_ms, j.finish_ms)).collect();
        for (i, ji) in r.jobs.iter().enumerate() {
            // Incomplete jobs carry no slowdown (`None`) and are skipped
            // instead of biasing the matrix with a placeholder 1.0.
            let (Some(row), Some(si), Some(slowdown)) = (idx(&ji.name), spans[i], ji.slowdown)
            else {
                continue;
            };
            for (j2, jj) in r.jobs.iter().enumerate() {
                if i == j2 {
                    continue;
                }
                let (Some(col), Some(sj)) = (idx(&jj.name), spans[j2]) else { continue };
                let o = si.overlap_duration(&sj) as f64;
                if o > 0.0 {
                    acc[row][col] += slowdown * o;
                    weight[row][col] += o;
                }
            }
        }
    }
    (0..k)
        .map(|r| (0..k).map(|c| (weight[r][c] > 0.0).then(|| acc[r][c] / weight[r][c])).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations and probes
// ---------------------------------------------------------------------------

/// Per routing and placement: FFT3D alone, then under Halo3D.
fn placement_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &r in &spec.routings {
        for placement in [Placement::Random, Placement::Contiguous] {
            for (tag, bg) in [("alone", None), ("FFT3D+Halo3D", Some(AppKind::Halo3D))] {
                let mut c = cell(
                    spec,
                    r,
                    format!("{}_{}_{tag}", r.label(), placement.label()),
                    Workload::pairwise(AppKind::FFT3D, bg),
                );
                c.spec.placement = placement;
                cells.push(c);
            }
        }
    }
    cells
}

fn placement_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table("Routing,Placement,FFT3D alone (ms),FFT3D interfered (ms),slowdown");
    for pair in runs.chunks_exact(2) {
        let ((cell, alone), (_, both)) = (&pair[0], &pair[1]);
        let (a, b) = (alone.apps[0].comm_ms.mean, both.apps[0].comm_ms.mean);
        t.row(vec![
            cell.spec.routing().label().to_string(),
            format!("{:?}", cell.spec.placement),
            f(a, 4),
            f(b, 4),
            f(b / a, 2),
        ]);
    }
    show(&t, csv);
    if !csv {
        println!(
            "expectation: contiguous placement suppresses interference for both routings\n\
             (jobs own their groups), at the cost of the fragmentation issues §I describes;\n\
             under random placement only Q-adaptive keeps the slowdown low."
        );
    }
}

fn ugal_bias_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    [-4, 0, 4, 16, 64]
        .into_iter()
        .map(|bias| {
            let w = Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D));
            let mut c = cell(spec, RoutingAlgo::UgalG, format!("bias{bias}"), w);
            c.spec.ugal_bias = bias;
            c
        })
        .collect()
}

fn ugal_bias_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table("bias (pkts),FFT3D comm (ms),FFT3D detour %,Halo3D detour %,sys p99 us");
    for (cell, r) in runs {
        t.row(vec![
            cell.spec.ugal_bias.to_string(),
            f(r.apps[0].comm_ms.mean, 4),
            f(r.apps[0].detour_frac * 100.0, 1),
            f(r.apps[1].detour_frac * 100.0, 1),
            f(r.network.system_latency_us.p99, 2),
        ]);
    }
    show(&t, csv);
}

fn qa_hparams_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let alphas = [0.05, 0.1, 0.2, 0.4].map(|alpha| (alpha, 0.005));
    let epsilons = [0.0, 0.02, 0.1].map(|epsilon| (0.2, epsilon));
    alphas
        .into_iter()
        .chain(epsilons)
        .map(|(alpha, epsilon)| {
            let w = Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D));
            let mut c = cell(spec, RoutingAlgo::QAdaptive, format!("a{alpha}_e{epsilon}"), w);
            c.spec.qa_alpha = alpha;
            c.spec.qa_epsilon = epsilon;
            c
        })
        .collect()
}

fn qa_hparams_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table("alpha,epsilon,FFT3D comm (ms),FFT3D detour %,sys p99 us");
    for (cell, r) in runs {
        t.row(vec![
            f(cell.spec.qa_alpha, 2),
            f(cell.spec.qa_epsilon, 3),
            f(r.apps[0].comm_ms.mean, 4),
            f(r.apps[0].detour_frac * 100.0, 1),
            f(r.network.system_latency_us.p99, 2),
        ]);
    }
    show(&t, csv);
}

fn probe_render(spec: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table(
        "App,exec ms,paper ms/scale,inj GB/s,paper GB/s,peak ingress,paper peak/scale,comm ms,\
         lat p50 us,lat p99 us,events,wall s",
    );
    for (kind, (_, r)) in AppKind::ALL.iter().zip(runs) {
        let a = &r.apps[0];
        let paper = kind.paper_row();
        // Expected scaled-down peak: the byte divisor differs per app, so
        // print the raw paper value for orientation only.
        t.row(vec![
            kind.name().to_string(),
            f(a.exec_ms, 4),
            f(paper.exec_ms / spec.scale, 4),
            f(a.inj_rate_gbs, 1),
            f(paper.inj_rate_gbs, 1),
            human_bytes(a.peak_ingress_bytes),
            paper.peak_ingress.to_string(),
            f(a.comm_ms.mean, 4),
            f(a.latency_us.median, 2),
            f(a.latency_us.p99, 2),
            r.events.to_string(),
            f(r.wall_s, 1),
        ]);
    }
    show(&t, csv);
}

/// Per routing: the target alone, then with the background.
fn probe_pair_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let Workload::Pairwise { target, background } = spec.workload else {
        die("probe_pair needs a pairwise workload (TARGET/BG or workload pairwise)")
    };
    let mut cells = Vec::new();
    for &r in &spec.routings {
        let solo = Workload::pairwise(target, None);
        cells.push(cell(spec, r, format!("{}_solo", r.label()), solo));
        let pair = Workload::pairwise(target, background);
        cells.push(cell(spec, r, format!("{}_pair", r.label()), pair));
    }
    cells
}

fn probe_pair_render(_: &ExperimentSpec, runs: &Runs, csv: bool) {
    let mut t = table(
        "Routing,solo comm,pair comm,slowdown,tgt detour%,bg detour%,tgt p99 us,local stall ms,\
         global stall ms,cong std",
    );
    for pair in runs.chunks_exact(2) {
        let ((cell, solo), (_, pair)) = (&pair[0], &pair[1]);
        let tgt = &pair.apps[0];
        let bg_detour =
            pair.apps.iter().find(|a| a.app != 0).map_or(0.0, |a| a.detour_frac * 100.0);
        t.row(vec![
            cell.spec.routing().label().to_string(),
            f(solo.apps[0].comm_ms.mean, 4),
            f(tgt.comm_ms.mean, 4),
            f(tgt.comm_ms.mean / solo.apps[0].comm_ms.mean, 2),
            f(tgt.detour_frac * 100.0, 1),
            f(bg_detour, 1),
            f(tgt.latency_us.p99, 2),
            f(pair.network.avg_local_stall_ms, 3),
            f(pair.network.avg_global_stall_ms, 4),
            f(pair.network.std_global_congestion, 4),
        ]);
    }
    show(&t, csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_defaults_carry_the_paper_routing_set() {
        let fig8 = FIGURES.iter().find(|f| f.name == "fig8").unwrap();
        let spec = defaults(fig8);
        assert_eq!(spec.scale, 64.0);
        assert_eq!(spec.routings, RoutingAlgo::PAPER_SET.to_vec());
        spec.validate().unwrap();
        for fig in FIGURES {
            defaults(fig).validate().unwrap_or_else(|e| panic!("{}: {e}", fig.name));
        }
    }
}
