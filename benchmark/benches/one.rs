//! One run of one workload in this process: what the acceptance driver
//! invokes as `--workload W --seed N --seconds S --trace 0|1`, and what
//! `run` and `trace` re-execute themselves as, one fresh process per run.
//!
//! The program under test sees only the generated spec text, through
//! `ExperimentSpec::parse` → `Simulation::from_spec` → `prepare` → `run` —
//! the path `dfsim run --spec` takes.

use std::path::Path;
use std::time::Instant;

use dfsim_core::cache::encode_report;
use dfsim_core::{replay_trace, EngineReport, ExperimentSpec, RunHandle, RunReport, Simulation};
use dfsim_des::MILLISECOND;

use crate::host::{cpu_seconds, peak_rss_mb, TempDir};
use crate::json::Json;
use crate::metrics::{metrics_json, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{run_traced, LOOP_SPANS};
use crate::stats::median;
use crate::workloads::{
    span_cell_text, spans_are_own_cell, spec_text, Mode, System, Workload, HITS_PER_REGION, PAPER,
    TINY,
};

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct OneRun {
    pub workload: Workload,
    pub seed: u64,
    /// Measure until this many seconds of timed regions have accumulated.
    pub seconds: f64,
    pub trace: bool,
    /// The 72-node test system and millisecond probes.
    pub smoke: bool,
}

/// Set-ups per run whose median is `setup_s`. A cache-filling set-up takes
/// seconds and is steady as a single sample; the others take microseconds,
/// and the first few dozen of a fresh process run on cold caches.
const CHEAP_SETUPS: usize = 400;

/// FNV-1a over the cache codec's bytes of the report, with the two fields
/// that are host- or engine-dependent by design blanked — the normalisation
/// `tests/partition_equivalence.rs` uses. Equal digests mean equal simulated
/// statistics, bit for bit.
pub fn sim_digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.wall_s = 0.0;
    r.engine = EngineReport::default();
    encode_report(&r)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Counts every report the run checks against the ones that fail a check.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// The one digest every report of this run must have.
    digest: Option<u64>,
    notes: Vec<String>,
}

impl Checks {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// A report must be complete and carry the run's one digest.
    fn report(&mut self, what: &str, report: &RunReport) {
        self.attempted += 1;
        if !report.completed {
            return self.fail(format!("{what}: not completed ({})", report.stop_reason));
        }
        let digest = sim_digest(report);
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => {
                self.fail(format!("{what}: sim_digest {digest:016x} differs from {first:016x}"))
            }
            Some(_) => {}
        }
    }

    /// [`Self::report`], and the run must have been simulated or served from
    /// the cache as the workload says.
    fn handle(&mut self, what: &str, handle: &RunHandle, want_cached: bool) {
        if handle.cached == want_cached {
            self.report(what, &handle.report);
        } else {
            self.attempted += 1;
            self.fail(format!("{what}: served from cache = {}", handle.cached));
        }
    }
}

impl Checks {
    fn notes(&self) -> Json {
        Json::Arr(self.notes.iter().map(Json::str).collect())
    }

    /// The result line: the checks' tally and the run's metrics.
    fn result(&self, metrics: Json) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }
}

fn parse(text: &str) -> Result<ExperimentSpec, String> {
    ExperimentSpec::parse(text).map_err(|e| format!("{e}\n{text}"))
}

/// The product's own run of a spec, start to finish.
pub fn simulate(spec: ExperimentSpec) -> Result<RunHandle, String> {
    Simulation::from_spec(spec).and_then(|mut sim| sim.run()).map_err(|e| e.to_string())
}

/// Everything before the first timed `run` call.
fn set_up(
    w: &Workload,
    system: &System,
    seed: u64,
    tmp: &Path,
    checks: &mut Checks,
) -> Result<Simulation, String> {
    let text = spec_text(w, system, seed, tmp);
    let mut sim = Simulation::from_spec(parse(&text)?).map_err(|e| e.to_string())?;
    sim.prepare().map_err(|e| e.to_string())?;
    if w.mode == Mode::CacheHit {
        // A fresh cache, so this run simulates and stores its report.
        let _ = std::fs::remove_dir_all(tmp.join("cache"));
        let cold = sim.run().map_err(|e| e.to_string())?;
        checks.handle("cache fill", &cold, false);
    }
    Ok(sim)
}

/// The end-to-end run: set-up, timed regions until `seconds` are measured,
/// output checks. Returns the detail line and the result line.
fn measure(run: &OneRun, system: &System, tmp: &Path) -> Result<(Json, Json), String> {
    let w = &run.workload;
    let mut checks = Checks::default();

    let setups = if w.mode == Mode::CacheHit { 1 } else { CHEAP_SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut sim = None;
    for _ in 0..setups {
        let t = Instant::now();
        sim = Some(set_up(w, system, run.seed, tmp, &mut checks)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut sim = sim.ok_or("no set-up ran")?;

    let calls = if w.mode == Mode::CacheHit { HITS_PER_REGION } else { 1 };
    let (mut wall_s, mut cpu_s, mut events_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut region_events = None;
    let mut measured = 0.0;
    while wall_s.is_empty() || measured < run.seconds {
        let cpu0 = cpu_seconds()?;
        let t = Instant::now();
        let mut handles = Vec::with_capacity(calls);
        for _ in 0..calls {
            handles.push(sim.run().map_err(|e| e.to_string())?);
        }
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds()? - cpu0;

        let what = format!("region {}", wall_s.len());
        for h in &handles {
            checks.handle(&what, h, w.mode == Mode::CacheHit);
        }
        let events: u64 = handles.iter().map(|h| h.report.events).sum();
        if *region_events.get_or_insert(events) != events {
            checks.fail(format!("{what}: {events} events, earlier regions had {region_events:?}"));
        }
        wall_s.push(wall);
        cpu_s.push(cpu);
        events_per_s.push(events as f64 / wall);
        measured += wall;
    }

    // Identity across engines and replay paths, outside every timed region.
    match w.mode {
        Mode::Threads2 => {
            let single = simulate(parse(&span_cell_text(w, system, run.seed))?)?;
            checks.report("single-threaded reference", &single.report);
        }
        Mode::Traced => match replay_trace(&tmp.join("run.trace")) {
            Ok(replayed) => checks.report("replay_trace", &replayed),
            Err(e) => {
                checks.attempted += 1;
                checks.fail(format!("replay_trace: {e}"));
            }
        },
        Mode::Plain | Mode::CacheHit => {}
    }

    let values = [
        ("wall_s", median(&wall_s)),
        ("events_per_s", median(&events_per_s)),
        ("cpu_s", median(&cpu_s)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("setup_s", median(&setup_s)),
    ];
    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(run.seed as f64)),
        ("smoke", Json::Bool(run.smoke)),
        ("events", Json::Num(region_events.unwrap_or(0) as f64)),
        ("sim_digest", Json::str(format!("{:016x}", checks.digest.unwrap_or(0)))),
        ("regions", Json::Num(wall_s.len() as f64)),
        ("wall_s_by_region", Json::nums(wall_s)),
        ("setups", Json::Num(setups as f64)),
        ("notes", checks.notes()),
    ]);
    Ok((detail, checks.result(metrics_json(&END_TO_END, &values)?)))
}

/// What one clock read costs here. Every span holds about one read (half of
/// the read that opens it, half of the one that closes it), which matters
/// for spans as short as `des.push`.
fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(t.elapsed());
    }
    t.elapsed().as_nanos() as f64 / READS as f64
}

/// The traced run: the product's own run of the workload's span cell, the
/// benchmark's span-instrumented run of the same cell, and the probes.
fn trace(run: &OneRun, system: &System, tmp: &Path) -> Result<(Json, Json), String> {
    let w = &run.workload;
    let mut checks = Checks::default();
    let mut text = span_cell_text(w, system, run.seed);
    if w.mode == Mode::Traced {
        text += &format!("trace {}\n", tmp.join("run.trace").display());
    }
    let spec = parse(&text)?;

    let product = simulate(spec.clone())?;
    let untraced = &product.report;
    checks.report("product run of the span cell", untraced);
    let end_time = (untraced.sim_ms * MILLISECOND as f64) as u64;

    let traced = run_traced(&spec, end_time)?;
    let (allocs, alloc_bytes) = traced.allocs;
    checks.attempted += 1;
    if !traced.finished || traced.events != untraced.events {
        checks.fail(format!(
            "traced loop rejected: finished = {}, {} events, the product's run had {}",
            traced.finished, traced.events, untraced.events
        ));
    }

    let mut values: Vec<(String, f64)> = Vec::with_capacity(PER_LAYER.len());
    for (name, span) in LOOP_SPANS.iter().zip(&traced.spans) {
        values.push((format!("{name}.self_s"), span.self_ns() as f64 / 1e9));
        values.push((format!("{name}.ns_per_call"), span.ns_per_call()));
        values.push((format!("{name}.calls"), span.calls as f64));
    }
    let kevents = traced.events.max(1) as f64 / 1e3;
    let named = |(name, value): (&str, f64)| (name.to_string(), value);
    values.extend(
        [
            ("core.assemble", traced.assemble_ns() as f64 / 1e9),
            ("world.loop_s", traced.top_ns("world.loop") as f64 / 1e9),
            ("span_coverage", traced.coverage()),
            ("trace_overhead", traced.run_ns() as f64 / 1e9 / untraced.wall_s),
            ("allocs_per_kevent", allocs as f64 / kevents),
            ("alloc_bytes_per_kevent", alloc_bytes as f64 / kevents),
            ("core.run.wall_s", untraced.wall_s),
            ("core.run.events", untraced.events as f64),
        ]
        .map(named),
    );
    let sizes = if run.smoke { &probes::SMOKE } else { &probes::FULL };
    values.extend(probes::run_all(sizes, run.seed, &spec, &product, tmp)?.into_iter().map(named));

    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(run.seed as f64)),
        ("smoke", Json::Bool(run.smoke)),
        ("span_cell", Json::str(text)),
        ("span_cell_is_own", Json::Bool(spans_are_own_cell(w))),
        ("clock_read_ns", Json::Num(clock_read_ns())),
        ("trace", traced.to_json()),
        ("notes", checks.notes()),
    ]);
    Ok((detail, checks.result(metrics_json(&PER_LAYER, &values)?)))
}

/// Run once; returns `(detail line, result line)`. The scratch directory is
/// removed before returning, whatever happened.
pub fn run(run: &OneRun) -> Result<(Json, Json), String> {
    let tmp = TempDir::create()?;
    let system = if run.smoke { &TINY } else { &PAPER };
    if run.trace {
        trace(run, system, tmp.path())
    } else {
        measure(run, system, tmp.path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{MIXED_PAIR, WORKLOADS};

    /// Every workload, untraced and traced, on the 72-node test system: each
    /// passes its own output checks and prints every metric of its table
    /// (`metrics_json` refuses a table with a hole).
    #[test]
    fn every_workload_measures_and_traces_on_the_test_system() {
        for (workload, traces) in WORKLOADS
            .iter()
            .map(|w| (*w, &[false, true][..]))
            .chain(MIXED_PAIR.iter().map(|w| (*w, &[false][..])))
        {
            for &trace in traces {
                let one = OneRun { workload, seed: 7, seconds: 0.0, trace, smoke: true };
                let (detail, result) =
                    run(&one).unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                assert_eq!(
                    result.get("correct").and_then(Json::as_bool),
                    Some(true),
                    "{} trace={trace}: {}",
                    workload.name,
                    detail.compact()
                );
                assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
                assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
                let table: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
                for m in table {
                    let v = result.get("metrics").and_then(|ms| ms.get(m.name)).unwrap();
                    assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
                    assert!(v.get("value").and_then(Json::as_f64).unwrap().is_finite());
                }
            }
        }
    }

    #[test]
    fn the_digest_ignores_host_time_and_engine_counters_only() {
        let w = crate::workloads::find("fig8_par").unwrap();
        let text = span_cell_text(&w, &TINY, 3);
        let run = |text: &str| simulate(parse(text).unwrap()).unwrap().report;
        let base = run(&text);
        let mut touched = base.clone();
        touched.wall_s += 1.0;
        touched.engine.events_scheduled += 1;
        assert_eq!(sim_digest(&base), sim_digest(&touched));
        assert_eq!(sim_digest(&base), sim_digest(&run(&text)), "a rerun repeats exactly");
        assert_ne!(sim_digest(&base), sim_digest(&run(&text.replace("seed 3", "seed 4"))));
    }
}
