//! `dfsim` — command-line driver for the Dragonfly interference simulator.
//!
//! ```text
//! dfsim run [--spec FILE] [options]      # run whatever the spec describes
//! dfsim sweep <NAME> [options]          # a paper figure/table sweep (bare: list names)
//! dfsim emit [--spec FILE] [options]    # print the resolved spec (canonical form)
//! dfsim apps                            # list workloads with Table I data
//! dfsim topo [options]                  # print topology facts
//! dfsim trace FILE [--replay]           # inspect a trace; --replay rebuilds the report
//! dfsim cache <stats|ls|gc> [--max-age SECONDS] [--max-bytes BYTES] [--cache DIR]
//!
//! `NAME` is one of the paper's figures and tables (`fig4`…`fig13`,
//! `table1`, `table2`), `churn`, an ablation or a probe; a sweep runs its
//! cells in parallel (`--threads` sizes the pool) and writes one trace file
//! per cell under `--trace`. `cache gc` always removes entries of older
//! cache format versions; `--max-age` / `--max-bytes` evict beyond that.
//!
//! Every subcommand resolves its configuration through the one experiment
//! layering: built-in defaults < `--spec FILE` < command line. Every spec
//! key `NAME` (see `dfsim emit`) is the flag `--NAME VALUE`, parsed exactly
//! like the file line `NAME VALUE`; the environment is never read. Invalid
//! values are hard errors (exit 2) naming the offending input.
//!
//! options (the spec layer; a few of the keys):
//!   --spec <FILE>                           (layer a spec file under the flags)
//!   --workload <TEXT>                       (standalone APP | pairwise TARGET BG|none |
//!                                            mixed | jobs LIST | scenario ARRIVALS |
//!                                            poisson; default mixed)
//!   --routing <MIN|UGALg|UGALn|PAR|Q-adp>   (default UGALg)
//!   --scale <f64>  --seed <u64>             (default 64, 42)
//!   --topology "groups=g routers_per_group=a nodes_per_router=p globals_per_router=h"
//!                                           (fields given replace the defaults')
//!   --placement <random|contiguous>
//!   --queue <heap|calendar[:auto|:width=PS,buckets=N]>
//!   --qtable_save <PATH> --qtable_load <PATH>
//!                                           (require --routing Q-adp; a load
//!                                            is rejected on fingerprint mismatch)
//!   --trace <PATH>                          (stream every metric event to a
//!                                            dfsim-trace v1 file; replayable)
//!   --horizon <DURATION>                    (e.g. 5ms: wall on simulated time)
//!   --max_events <N>                        (event cap, checked at window barriers)
//!   --sched <fcfs|backfill>                 (scenario admission; default fcfs)
//!   --rates <jobs/ms> --jobs <N>            (poisson generator; default 1, 8)
//!   --apps <LIST> --sizes <LIST>            (poisson kinds/sizes cycles)
//!   --cache <on|off|DIR>                    (content-addressed result cache;
//!                                            on = .dfsim-cache/ in the working
//!                                            directory)
//!   --threads <N>                           (partitions of a run, pool of a sweep)
//!   --smoke                                 (CI: shrink to the 72-node system)
//! presentation options (not part of the spec):
//!   --engine-stats                          (print the event-engine block)
//!   --csv                                   (machine-readable output)
//! ```
//!
//! `ARRIVALS` is a comma-separated list `APP:SIZE@TIME` (e.g.
//! `UR:36@0,LU:16@0.5ms`); `poisson` synthesizes arrivals from the seed.

use dragonfly_interference::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: dfsim <run | sweep NAME | emit | apps | topo | trace FILE [--replay] | cache \
         stats|ls|gc> [--spec FILE] [--NAME VALUE for any spec key, e.g. --workload \"pairwise \
         FFT3D Halo3D\" --routing R --scale S --seed N --topology \"groups=g ...\" --placement \
         random|contiguous --queue heap|calendar[:width=PS,buckets=N] --trace PATH --horizon D \
         --sched fcfs|backfill --rates R --jobs N --apps LIST --sizes LIST --cache on|off|DIR \
         --threads N --qtable_save PATH --qtable_load PATH] [--max-age S --max-bytes B] [--smoke] \
         [--engine-stats] [--csv]"
    );
    std::process::exit(2)
}

/// Resolve the effective spec for this invocation: `defaults < --spec FILE
/// < CLI`, exiting 2 with the named error on any invalid input.
fn resolve(defaults: ExperimentSpec, args: &[String]) -> ExperimentSpec {
    defaults.resolve(args).unwrap_or_else(|e| die(&e))
}

/// Presentation flags live outside the spec: they describe output, not the
/// experiment.
struct Presentation {
    csv: bool,
    engine_stats: bool,
}

impl Presentation {
    fn from_args(args: &[String]) -> Self {
        Self {
            csv: args.iter().any(|a| a == "--csv"),
            engine_stats: args.iter().any(|a| a == "--engine-stats"),
        }
    }
}

/// Run the resolved spec through a simulation session and print the report.
fn run_and_print(spec: ExperimentSpec, show: &Presentation) {
    let mut sim = Simulation::from_spec(spec).unwrap_or_else(|e| die(&e));
    sim.prepare().unwrap_or_else(|e| die(&e));
    let handle = sim.run().unwrap_or_else(|e| die(&e));
    if sim.spec().cache.enabled() {
        // Provenance goes to stderr so `--csv > file` pipelines stay
        // byte-identical between a live run and a cache hit.
        if handle.cached {
            eprintln!("result cache: hit [{}]", sim.spec().cache.describe());
        } else {
            eprintln!("result cache: miss (stored) [{}]", sim.spec().cache.describe());
        }
    }
    print_report_provenance(&handle.report, show, handle.cached);
    print_jobs(&handle.report, show.csv);
    if !show.csv {
        if let Some(path) = &sim.spec().qtable_save {
            println!("Q-table snapshot written to {}", path.display());
        }
        if let Some(path) = &sim.spec().trace {
            println!("trace written to {}", path.display());
        }
    }
}

/// Print a report — the live one of a run, or one rebuilt from a trace by
/// `dfsim trace FILE --replay` (bit-identical to the live one, which is why
/// this function cannot tell the difference).
fn print_report(report: &RunReport, show: &Presentation) {
    print_report_provenance(report, show, false)
}

/// [`print_report`] with cache provenance: when `cached`, the wall-clock
/// column is labelled as the *original* run's simulation cost — the cache
/// retrieval itself took milliseconds, and relabelling `wall` would
/// destroy the bit-identity between a live report and its replay.
fn print_report_provenance(report: &RunReport, show: &Presentation, cached: bool) {
    let mut t = TextTable::new(vec![
        "App",
        "ranks",
        "comm (ms)",
        "±std",
        "exec (ms)",
        "inj GB/s",
        "detour %",
        "mean hops",
        "lat p50 us",
        "lat p99 us",
    ]);
    for a in &report.apps {
        t.row(vec![
            a.name.clone(),
            a.size.to_string(),
            format!("{:.4}", a.comm_ms.mean),
            format!("{:.4}", a.comm_ms.std),
            format!("{:.4}", a.exec_ms),
            format!("{:.1}", a.inj_rate_gbs),
            format!("{:.1}", a.detour_frac * 100.0),
            format!("{:.2}", a.mean_hops),
            format!("{:.2}", a.latency_us.median),
            format!("{:.2}", a.latency_us.p99),
        ]);
    }
    if show.csv {
        print!("{}", t.to_csv());
        if show.engine_stats {
            println!("{}", report.engine_summary());
        }
        return;
    }
    println!("{}", t.render());
    let n = &report.network;
    println!(
        "routing {} | sim {:.4} ms | {} events | wall {:.1}s{} | {}",
        report.routing,
        report.sim_ms,
        report.events,
        report.wall_s,
        if cached { " (original run; served from cache)" } else { "" },
        if report.completed { "completed" } else { &report.stop_reason }
    );
    println!(
        "network: agg throughput {:.3} GB/ms | sys p99 {:.2} us | local stall {:.4} ms/group | \
         cong std {:.4}",
        n.mean_system_throughput,
        n.system_latency_us.p99,
        n.avg_local_stall_ms,
        n.std_global_congestion
    );
    if let Some(l) = report.learning.as_ref() {
        println!(
            "learning ({}): {} Q1 updates | mean |dQ1| {:.2} ns | early {:.2} -> late {:.2} \
             ns/window",
            l.init,
            l.updates,
            l.mean_abs_dq1_ns,
            l.early_mean_ns(5),
            l.late_mean_ns(5)
        );
    }
    if show.engine_stats {
        println!("{}", report.engine_summary());
    }
}

/// `dfsim trace FILE`: summarize the frame/event structure and the run
/// context carried in the META frame; `--replay` instead rebuilds the run's
/// exact report from the event stream and prints it like `dfsim run` would.
fn trace_cmd(path: &std::path::Path, args: &[String]) {
    let show = Presentation::from_args(args);
    if args.iter().any(|a| a == "--replay") {
        let report = replay_trace(path).unwrap_or_else(|e| die(&e));
        print_report(&report, &show);
        print_jobs(&report, show.csv);
        return;
    }
    let (contents, meta) = summarize_trace(path).unwrap_or_else(|e| die(&e));
    let mut t = TextTable::new(vec!["Event kind", "count"]);
    for (name, count) in EVENT_KIND_NAMES.iter().zip(contents.counts.iter()) {
        t.row(vec![name.to_string(), count.to_string()]);
    }
    if show.csv {
        print!("{}", t.to_csv());
        return;
    }
    println!("{} (dfsim-trace v1): {} metric events", path.display(), contents.events);
    println!("{}", t.render());
    let jobs: Vec<String> =
        meta.jobs.iter().map(|j| format!("{}:{}", j.kind.name(), j.size)).collect();
    println!(
        "run: routing {} | queue {} | seed {} | scale {} | jobs {}",
        meta.cfg.routing.algo.label(),
        meta.cfg.queue,
        meta.cfg.seed,
        meta.cfg.scale,
        jobs.join(","),
    );
    println!(
        "stopped: {:?} at {:.4} ms | {} engine events | wall {:.1}s",
        meta.stop,
        meta.end_time as f64 / MILLISECOND as f64,
        meta.events,
        meta.wall_s,
    );
    println!("replay with: dfsim trace {} --replay", path.display());
}

fn print_jobs(report: &RunReport, csv: bool) {
    if report.jobs.is_empty() {
        return;
    }
    let mut t = TextTable::new(vec![
        "Job",
        "App",
        "nodes",
        "arrive ms",
        "start ms",
        "finish ms",
        "wait ms",
        "slowdown",
        "ok",
    ]);
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"));
    for j in &report.jobs {
        t.row(vec![
            j.job.to_string(),
            j.name.clone(),
            j.size.to_string(),
            format!("{:.4}", j.arrival_ms),
            opt(j.start_ms),
            opt(j.finish_ms),
            format!("{:.4}", j.wait_ms),
            j.slowdown.map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
            if j.completed { "y".to_string() } else { "n".to_string() },
        ]);
    }
    if csv {
        print!("{}", t.to_csv());
        return;
    }
    println!("{}", t.render());
    println!(
        "jobs: {}/{} completed | mean wait {:.4} ms | mean slowdown {:.3}",
        report.completed_jobs().count(),
        report.jobs.len(),
        report.mean_wait_ms(),
        report.mean_slowdown()
    );
}

/// `dfsim cache <stats|ls|gc>`: inspect or prune the content-addressed
/// result store. The directory comes from `--cache DIR` when given, else
/// `.dfsim-cache/` in the working directory, as `cache on` resolves it.
fn cache_cmd(action: &str, args: &[String]) {
    let mut mode = CacheMode::On;
    let mut max_age_s: Option<u64> = None;
    let mut max_bytes: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let flag_val = |what: &str, v: Option<&String>| -> String {
            // A following flag is not a value (as in `ExperimentSpec::resolve`).
            v.filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| die(format!("{what} needs a value")))
        };
        match args[i].as_str() {
            "--cache" => {
                let v = flag_val("--cache", args.get(i + 1));
                mode = CacheMode::parse(&v).unwrap_or_else(|e| die(format!("--cache: {e}")));
                i += 1;
            }
            "--max-age" => {
                let v = flag_val("--max-age", args.get(i + 1));
                max_age_s = Some(
                    v.parse().unwrap_or_else(|_| die(format!("--max-age: bad seconds {v:?}"))),
                );
                i += 1;
            }
            "--max-bytes" => {
                let v = flag_val("--max-bytes", args.get(i + 1));
                max_bytes = Some(
                    v.parse().unwrap_or_else(|_| die(format!("--max-bytes: bad bytes {v:?}"))),
                );
                i += 1;
            }
            other => die(format!("dfsim cache: unknown argument {other:?}")),
        }
        i += 1;
    }
    let cache = match ResultCache::open(&mode) {
        Ok(Some(c)) => c,
        Ok(None) => die("dfsim cache: the cache is off (pass --cache DIR or --cache on)"),
        Err(e) => die(&e),
    };
    match action {
        "stats" => {
            let s = cache.stats().unwrap_or_else(|e| die(&e));
            println!("{}: {} entries, {} bytes", cache.dir().display(), s.entries, s.bytes);
        }
        "ls" => {
            let entries = cache.entries().unwrap_or_else(|e| die(&e));
            let mut t = TextTable::new(vec!["Key", "bytes", "age (s)", "run"]);
            for e in &entries {
                t.row(vec![
                    e.key.clone(),
                    e.bytes.to_string(),
                    e.age_s.to_string(),
                    e.describe.clone(),
                ]);
            }
            println!("{}", t.render());
            println!("{} entries in {}", entries.len(), cache.dir().display());
        }
        "gc" => {
            let out = cache.gc(max_age_s, max_bytes).unwrap_or_else(|e| die(&e));
            println!(
                "{}: removed {} entries ({} bytes), kept {} ({} bytes)",
                cache.dir().display(),
                out.removed,
                out.freed_bytes,
                out.kept,
                out.kept_bytes
            );
        }
        other => die(format!("dfsim cache: unknown action {other:?} (stats|ls|gc)")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "apps" => {
            let mut t = TextTable::new(vec![
                "App",
                "Pattern",
                "Total Msg (MB)",
                "Exec (ms)",
                "Inj rate (GB/s)",
                "Peak ingress",
            ]);
            for k in AppKind::ALL {
                let p = k.paper_row();
                t.row(vec![
                    k.name().to_string(),
                    p.pattern.to_string(),
                    format!("{:.2}", p.total_msg_mb),
                    format!("{:.2}", p.exec_ms),
                    format!("{:.2}", p.inj_rate_gbs),
                    p.peak_ingress.to_string(),
                ]);
            }
            println!("{}", t.render());
            println!("(paper-scale Table I characteristics on 528 nodes)");
        }
        "topo" => {
            let spec = resolve(ExperimentSpec::default(), &args[1..]);
            let p = spec.params;
            let topo = Topology::new(p).expect("validated");
            println!(
                "Dragonfly g={} a={} p={} h={}: {} nodes, {} routers, radix {}",
                p.groups,
                p.routers_per_group,
                p.nodes_per_router,
                p.globals_per_router,
                topo.num_nodes(),
                topo.num_routers(),
                topo.radix(),
            );
            println!(
                "links: {} global (1 per group pair), {} local per group, diameter 3 router hops",
                p.groups * (p.groups - 1) / 2,
                p.routers_per_group * (p.routers_per_group - 1) / 2,
            );
        }
        "run" => {
            let show = Presentation::from_args(&args[1..]);
            run_and_print(resolve(ExperimentSpec::default(), &args[1..]), &show);
        }
        "emit" => {
            // Round-trippable canonical form of the resolved spec — pipe
            // into a file to freeze the current knobs as a spec file.
            let spec = resolve(ExperimentSpec::default(), &args[1..]);
            print!("{}", spec.emit());
        }
        "trace" => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            trace_cmd(std::path::Path::new(path), &args[2..]);
        }
        "cache" => {
            let action = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            cache_cmd(action, &args[2..]);
        }
        "sweep" => dfsim_bench::sweep(&args[1..]),
        _ => usage(),
    }
}
