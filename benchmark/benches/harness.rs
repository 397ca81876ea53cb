//! `run` and `trace`: the closed loop over the workloads.
//!
//! One run at a time: the parent re-executes itself as a fresh child per run
//! (so `peak_rss_mb` is that run's peak and nothing carries over), and
//! interleaves the workloads round-robin, so host drift lands on all of them
//! equally. Every number is reported as median, min, max and n.

use std::process::{Command, Stdio};

use dfsim_core::tables::TextTable;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{fmt_value, Summary};
use crate::workloads::{
    spans_are_own_cell, Cell, Mode, Workload, HITS_PER_REGION, MIXED_PAIR, WORKLOADS,
};

pub const SCHEMA: &str = "dfsim-benchmark/1";

/// What `run` and `trace` were asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<String>,
}

/// What one child printed: its detail line and its result line.
struct Child {
    detail: Json,
    result: Json,
}

impl Child {
    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    /// Why the child's own checks failed.
    fn notes(&self) -> String {
        self.detail.get("notes").map(Json::compact).unwrap_or_default()
    }
}

/// Re-execute this binary for one run. `Err` is a failed run: the child
/// exited non-zero or printed no result.
fn child(w: &Workload, plan: &Plan, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if plan.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or_else(|| format!("{}: child printed nothing", w.name))?;
    let detail = lines.next().ok_or_else(|| format!("{}: child printed no detail line", w.name))?;
    Ok(Child { detail: Json::parse(detail)?, result: Json::parse(result)? })
}

fn host_json() -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([("cpus", Json::Num(cpus as f64))])
}

/// One workload's runs, aggregated.
struct Rows {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// `(events, sim_digest)` of every successful run.
    identities: Vec<(u64, String)>,
    /// Samples per end-to-end metric, indexed like [`END_TO_END`].
    samples: Vec<Vec<f64>>,
}

impl Rows {
    fn median(&self, name: &str) -> Option<f64> {
        let i = END_TO_END.iter().position(|m| m.name == name)?;
        Summary::of(&self.samples[i]).map(|s| s.median)
    }

    /// The workload's one `(events, sim_digest)`, if every run agreed.
    fn identity(&self) -> Option<&(u64, String)> {
        let first = self.identities.first()?;
        self.identities.iter().all(|i| i == first).then_some(first)
    }
}

fn write_out(plan: &Plan, doc: &Json) -> Result<(), String> {
    if let Some(path) = &plan.out {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `run`: `rounds` interleaved rounds of every workload. Returns whether
/// every run succeeded and every identity check held.
pub fn run(plan: &Plan) -> Result<bool, String> {
    let mut rows: Vec<Rows> = WORKLOADS
        .iter()
        .map(|w| Rows {
            workload: *w,
            attempted: 0,
            failed: 0,
            identities: Vec::new(),
            samples: vec![Vec::new(); END_TO_END.len()],
        })
        .collect();
    for round in 0..plan.rounds {
        for row in &mut rows {
            eprintln!("round {}/{}: {}", round + 1, plan.rounds, row.workload.name);
            row.attempted += 1;
            match child(&row.workload, plan, false) {
                Ok(c) if c.correct() => {
                    for (m, samples) in END_TO_END.iter().zip(&mut row.samples) {
                        samples.push(c.metric(m.name).ok_or_else(|| {
                            format!("{}: result lacks {}", row.workload.name, m.name)
                        })?);
                    }
                    let events = c.detail.get("events").and_then(Json::as_u64).unwrap_or(0);
                    let digest = c.detail.get("sim_digest").and_then(Json::as_str).unwrap_or("");
                    row.identities.push((events, digest.to_string()));
                }
                Ok(c) => {
                    row.failed += 1;
                    eprintln!("  FAILED: {}", c.notes());
                }
                Err(e) => {
                    row.failed += 1;
                    eprintln!("  FAILED: {e}");
                }
            }
        }
    }

    let mut ok = true;
    println!(
        "dfsim-benchmark run: seed {}, {} rounds, {} s per run",
        plan.seed, plan.rounds, plan.seconds
    );
    let mut table = TextTable::new(vec!["workload", "metric", "median", "min", "max", "n", "unit"]);
    let mut identities = Vec::new();
    for row in &rows {
        for (m, samples) in END_TO_END.iter().zip(&row.samples) {
            if let Some(s) = Summary::of(samples) {
                table.row(vec![
                    row.workload.name.to_string(),
                    m.name.to_string(),
                    fmt_value(s.median),
                    fmt_value(s.min),
                    fmt_value(s.max),
                    s.n.to_string(),
                    m.unit.to_string(),
                ]);
            }
        }
        let identity = match row.identity() {
            Some((events, digest)) => format!("events {events}  sim_digest {digest}"),
            None => {
                ok = false;
                "events/sim_digest DIFFER between rounds".to_string()
            }
        };
        identities.push(format!(
            "{:<18} failed_runs {}/{}  {identity}",
            row.workload.name, row.failed, row.attempted
        ));
        ok &= row.failed == 0;
    }
    print!("{}", table.render());
    println!("{}", identities.join("\n"));

    // The repo's bit-identity contract across partition count, tracing and
    // the cache: these four are one simulated cell. (Events are per timed
    // region, so the cache workload's count is a multiple.)
    let group: Vec<&Rows> = rows
        .iter()
        .filter(|r| r.workload.cell == Cell::Fig8("Q-adp") && r.identity().is_some())
        .collect();
    let group_identical = group.len() == 4
        && group.iter().all(|r| r.identity().map(|i| &i.1) == group[0].identity().map(|i| &i.1));
    println!(
        "identity group ({}): sim_digest {}",
        group.iter().map(|r| r.workload.name).collect::<Vec<_>>().join(", "),
        if group_identical { "identical" } else { "DIFFERS" }
    );
    ok &= group_identical;

    let wall = |name: &str| rows.iter().find(|r| r.workload.name == name)?.median("wall_s");
    let over = |a: Option<f64>, b: Option<f64>| Some(a? / b?);
    let one_hit = wall("fig8_cache_hit").map(|region| region / HITS_PER_REGION as f64);
    let derived = [
        (
            "p2_speedup",
            "fig8_qadp.wall_s / fig8_qadp_p2.wall_s",
            over(wall("fig8_qadp"), wall("fig8_qadp_p2")),
        ),
        (
            "trace_on_cost",
            "fig8_qadp_traced.wall_s / fig8_qadp.wall_s",
            over(wall("fig8_qadp_traced"), wall("fig8_qadp")),
        ),
        (
            "cache_hit_speedup",
            "fig8_qadp.wall_s / (fig8_cache_hit.wall_s / 20 hits)",
            over(wall("fig8_qadp"), one_hit),
        ),
    ];
    for (name, base, value) in &derived {
        if let Some(v) = value {
            println!("{name:<18} {v:.4}  = {base}");
        }
    }

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("kind", Json::str("run")),
        ("seed", Json::Num(plan.seed as f64)),
        ("rounds", Json::Num(plan.rounds as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("smoke", Json::Bool(plan.smoke)),
        ("host", host_json()),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        let (events, digest) = row.identity().cloned().unwrap_or_default();
                        Json::obj([
                            ("name", Json::str(row.workload.name)),
                            ("attempted", Json::Num(row.attempted as f64)),
                            ("failed", Json::Num(row.failed as f64)),
                            ("events", Json::Num(events as f64)),
                            ("sim_digest", Json::str(digest)),
                            (
                                "metrics",
                                Json::obj(END_TO_END.iter().zip(&row.samples).filter_map(
                                    |(m, v)| Some((m.name, Summary::of(v)?.to_json(m.unit, v))),
                                )),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("identity_group_identical", Json::Bool(group_identical)),
        (
            "derived",
            Json::obj(derived.iter().filter_map(|(name, base, v)| {
                Some((*name, Json::obj([("value", Json::Num((*v)?)), ("base", Json::str(*base))])))
            })),
        ),
    ]);
    write_out(plan, &doc)?;
    Ok(ok)
}

/// `trace`: one traced run per workload for the per-layer numbers, plus the
/// ungated mixed-workload pair. Returns whether every traced run was
/// accepted.
pub fn trace(plan: &Plan) -> Result<bool, String> {
    let mut ok = true;
    let mut columns: Vec<(Workload, Child)> = Vec::new();
    for w in &WORKLOADS {
        eprintln!("trace: {}", w.name);
        match child(w, plan, true) {
            Ok(c) => {
                if !c.correct() {
                    ok = false;
                    eprintln!("  REJECTED: {}", c.notes());
                }
                columns.push((*w, c));
            }
            Err(e) => {
                ok = false;
                eprintln!("  FAILED: {e}");
            }
        }
    }

    println!("dfsim-benchmark trace: seed {}", plan.seed);
    let mut headers = vec!["per-layer metric", "unit"];
    headers.extend(columns.iter().map(|(w, _)| w.name));
    let mut table = TextTable::new(headers);
    for m in &PER_LAYER {
        let mut cells = vec![m.name.to_string(), m.unit.to_string()];
        cells.extend(columns.iter().map(|(_, c)| c.metric(m.name).map_or("-".into(), fmt_value)));
        table.row(cells);
    }
    print!("{}", table.render());
    for (w, _) in columns.iter().filter(|(w, _)| !spans_are_own_cell(w)) {
        println!(
            "note: {} runs on the private Shard driver and gets no world-loop split from \
             outside; its span rows are from {}",
            w.name,
            if w.mode == Mode::Threads2 {
                "the same cell at P=1"
            } else {
                "a static stand-in (its four apps, its routing, all started at t = 0)"
            }
        );
    }

    // Two threads against one on the barrier-heavy mixed workload, wall over
    // wall: a ratio above 1 means the partitioned engine is slower.
    let mut mixed = Vec::new();
    for w in &MIXED_PAIR {
        eprintln!("trace: {}", w.name);
        match child(w, &Plan { seconds: 0.0, ..plan.clone() }, false) {
            Ok(c) if c.correct() => mixed.push(c.metric("wall_s")),
            Ok(_) | Err(_) => {
                ok = false;
                eprintln!("  FAILED: {}", w.name);
            }
        }
    }
    let mixed_ratio = match mixed[..] {
        [Some(p1), Some(p2)] => Some(p2 / p1),
        _ => None,
    };
    if let Some(r) = mixed_ratio {
        println!(
            "core.partition.mixed_p2_over_p1  {r:.4}  = mixed_qadp_p2.wall_s / mixed_qadp.wall_s"
        );
    }

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("kind", Json::str("trace")),
        ("seed", Json::Num(plan.seed as f64)),
        ("smoke", Json::Bool(plan.smoke)),
        ("host", host_json()),
        (
            "workloads",
            Json::Arr(
                columns
                    .iter()
                    .map(|(w, c)| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("result", c.result.clone()),
                            ("detail", c.detail.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("core.partition.mixed_p2_over_p1", mixed_ratio.map_or(Json::Null, Json::Num)),
    ]);
    write_out(plan, &doc)?;
    Ok(ok)
}
