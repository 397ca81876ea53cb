//! Declarative experiment specification: one serializable description of
//! everything an experiment needs, one resolver for every knob source.
//!
//! Historically each front-end re-wired the same configuration soup — env
//! vars (`SCALE`/`SEED`/`QUEUE`/`ROUTING`/…) with silent fallbacks,
//! per-binary flag parsing, and free functions taking different config
//! structs. This module replaces all of that with:
//!
//! * [`ExperimentSpec`] — a complete, declarative description of an
//!   experiment: workload, topology, timing, routing (and its
//!   hyperparameters), scale/seed, placement, scheduler, event-queue
//!   backend, Q-table lifecycle, recorder granularity, horizons, sweep
//!   sets. Everything `SimConfig`/`Scenario` express is representable.
//! * a **line-oriented text format** ([`ExperimentSpec::parse`] /
//!   [`ExperimentSpec::emit`]) in the same vendored-serde-free philosophy
//!   as `dfsim_network::snapshot`: versioned header, `key value` lines,
//!   `#` comments. `emit` is canonical — emitting a parsed spec and
//!   re-parsing yields the identical value, and canonical files round-trip
//!   byte-identically.
//! * **named errors** ([`SpecError`]): every malformed line, unknown key,
//!   bad env var or flag is reported with its location and the valid
//!   forms — never silently defaulted.
//! * **one layering rule** ([`ExperimentSpec::resolve`]): `defaults <
//!   spec file < environment < command line`, implemented once and used by
//!   `dfsim` and every reproduction binary. A key's text is parsed in one
//!   place, the file layer's `apply_key`: an env var whose lower-case name
//!   is a spec key and a value flag whose name minus `--` is one go
//!   through it too, re-wrapped as [`SpecError::Env`] / [`SpecError::Flag`].
//! * a label-based **registry** ([`Registered`], [`lookup`],
//!   [`lookup_list`]) for routings, workloads, placements and schedulers,
//!   collapsing the per-binary `parse_*` copies into one case-insensitive
//!   lookup whose errors list the valid names.
//!
//! The session API that runs a spec lives in [`crate::simulation`].

use std::path::PathBuf;

use dfsim_apps::arrivals::{parse_arrival_list, ArrivalSpec};
use dfsim_apps::AppKind;
use dfsim_des::{parse_duration, QueueBackend, Time, MILLISECOND};
use dfsim_metrics::RecorderConfig;
use dfsim_network::{QTableInit, QaParams, RoutingAlgo, RoutingConfig};
use dfsim_topology::{DragonflyParams, LinkTiming};

use crate::cache::CacheMode;
use crate::config::SimConfig;
use crate::placement::Placement;
use crate::runner::JobSpec;
use crate::scenario::SchedPolicy;

/// Magic first line of every spec file (bump when the format changes; old
/// files are then rejected with [`SpecError::Version`]).
pub const SPEC_HEADER: &str = "dfsim-spec v1";

/// Environment variables every front-end consults (the historical shared
/// knobs of the fig binaries): invalid values are hard errors naming the
/// variable.
pub const CORE_ENV: [&str; 8] =
    ["SCALE", "SEED", "QUEUE", "ROUTING", "PLACEMENT", "SCHED", "THREADS", "CACHE"];

/// Workload/sweep environment variables a front-end must opt into via
/// [`ExperimentSpec::resolve_env`]. Their names are generic (`TARGET` and
/// `JOBS` are common shell/CI variables), so only the binaries that
/// document them listen — exactly as before the spec unification.
pub const EXTENDED_ENV: [&str; 9] =
    ["TARGETS", "TARGET", "BG", "RATES", "JOBS", "APPS", "SIZES", "TRAIN", "SNAPSHOT"];

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A configuration value selectable by a short stable name.
///
/// One implementation per selectable dimension (routing algorithm,
/// workload kind, placement policy, admission policy); [`lookup`] and
/// [`lookup_list`] are the single parse path for all of them — every CLI
/// flag, env var and spec key goes through the same case-insensitive
/// search and produces the same "valid names" error.
pub trait Registered: Copy + 'static {
    /// What the registry holds ("routing", "app", …) — used in errors.
    const KIND: &'static str;
    /// Every selectable value, in canonical order.
    const ALL: &'static [Self];
    /// The canonical label.
    fn label(&self) -> &'static str;
    /// Accepted alternative spellings (compared case-insensitively).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }
}

impl Registered for RoutingAlgo {
    const KIND: &'static str = "routing";
    const ALL: &'static [Self] = &RoutingAlgo::ALL;
    fn label(&self) -> &'static str {
        RoutingAlgo::label(self)
    }
}

impl Registered for AppKind {
    const KIND: &'static str = "app";
    const ALL: &'static [Self] = &AppKind::ALL;
    fn label(&self) -> &'static str {
        self.name()
    }
}

impl Registered for Placement {
    const KIND: &'static str = "placement";
    const ALL: &'static [Self] = &Placement::ALL;
    fn label(&self) -> &'static str {
        Placement::label(self)
    }
}

impl Registered for SchedPolicy {
    const KIND: &'static str = "scheduler";
    const ALL: &'static [Self] = &SchedPolicy::ALL;
    fn label(&self) -> &'static str {
        SchedPolicy::label(self)
    }
    fn aliases(&self) -> &'static [&'static str] {
        match self {
            SchedPolicy::Fcfs => &[],
            SchedPolicy::Backfill => &["fcfs+backfill", "easy"],
        }
    }
}

/// The registry's valid-name listing for `T` (canonical labels, in order).
pub fn registry_labels<T: Registered>() -> String {
    T::ALL.iter().map(|v| v.label()).collect::<Vec<_>>().join(", ")
}

/// Look `name` up in `T`'s registry (case-insensitive, aliases included).
/// The error names the registry and lists every valid label.
pub fn lookup<T: Registered>(name: &str) -> Result<T, String> {
    let name = name.trim();
    T::ALL
        .iter()
        .find(|v| {
            v.label().eq_ignore_ascii_case(name)
                || v.aliases().iter().any(|a| a.eq_ignore_ascii_case(name))
        })
        .copied()
        .ok_or_else(|| format!("unknown {} '{name}' (valid: {})", T::KIND, registry_labels::<T>()))
}

/// Parse a comma-separated list of registry names. An effectively empty
/// list is an error — a misconfigured list must not silently become a
/// no-op.
pub fn lookup_list<T: Registered>(s: &str) -> Result<Vec<T>, String> {
    let items: Vec<T> =
        s.split(',').filter(|p| !p.trim().is_empty()).map(lookup).collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(format!("empty {} list", T::KIND));
    }
    Ok(items)
}

/// Exit with a usage error: the uniform CLI failure mode of every binary —
/// one line on stderr, exit code 2, never a panic with a backtrace.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a spec could not be parsed, resolved or validated. Every variant
/// names its source (file line, env var, flag) so the one-line CLI error
/// points straight at the offending input.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Reading the spec file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error rendering.
        msg: String,
    },
    /// The file's first significant line is not the expected header.
    Version {
        /// What was found instead of [`SPEC_HEADER`].
        found: String,
    },
    /// A line is structurally broken (no key, missing header, …).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A line names a key the format does not define.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// The same key appears twice in one file.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
    /// A known key carries an unparsable value.
    Value {
        /// 1-based line number.
        line: usize,
        /// The key.
        key: String,
        /// Why the value was rejected (includes the valid forms).
        msg: String,
    },
    /// An environment variable carries an unparsable value. Invalid values
    /// are hard errors — `SCALE=6O` must never silently run at the default
    /// scale.
    Env {
        /// The variable name.
        var: String,
        /// The value found.
        value: String,
        /// Why it was rejected.
        msg: String,
    },
    /// A command-line flag is malformed or missing its value.
    Flag {
        /// The flag.
        flag: String,
        /// Why it was rejected.
        msg: String,
    },
    /// A command-line flag the resolver does not define.
    UnknownFlag {
        /// The flag.
        flag: String,
    },
    /// The resolved spec is semantically invalid.
    Invalid {
        /// What constraint was violated.
        msg: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Io { path, msg } => write!(f, "spec {}: {msg}", path.display()),
            SpecError::Version { found } => {
                write!(f, "not a dfsim spec: expected '{SPEC_HEADER}', found '{found}'")
            }
            SpecError::Malformed { line, msg } => write!(f, "spec line {line}: {msg}"),
            SpecError::UnknownKey { line, key } => {
                write!(f, "spec line {line}: unknown key '{key}'")
            }
            SpecError::DuplicateKey { line, key } => {
                write!(f, "spec line {line}: duplicate key '{key}'")
            }
            SpecError::Value { line, key, msg } => write!(f, "spec line {line} ({key}): {msg}"),
            SpecError::Env { var, value, msg } => {
                write!(f, "invalid {var}='{value}': {msg}")
            }
            SpecError::Flag { flag, msg } => write!(f, "{flag}: {msg}"),
            SpecError::UnknownFlag { flag } => write!(f, "unknown option '{flag}'"),
            SpecError::Invalid { msg } => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// What a [`crate::simulation::Simulation`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// One app standalone on its half-system partition (paper §V blue
    /// bars): `workload standalone FFT3D`.
    Standalone(AppKind),
    /// The pairwise-interference setting (paper §V): target on one half,
    /// optional background on the other, identical target mapping either
    /// way: `workload pairwise FFT3D Halo3D` / `workload pairwise FFT3D
    /// none`.
    Pairwise {
        /// The measured application.
        target: AppKind,
        /// The interfering application (`None` = standalone slot kept).
        background: Option<AppKind>,
    },
    /// The Table II six-app mixed workload (paper §VI): `workload mixed`.
    Mixed,
    /// An explicit static job list, all starting at t = 0: `workload jobs
    /// FFT3D:140,idle:16,UR:36` (`idle:N` reserves nodes without running
    /// anything).
    Jobs(Vec<JobSpec>),
    /// A churn scenario of timed arrivals: `workload scenario
    /// UR:36@0ps,LU:16@0.5ms`.
    Scenario(Vec<ArrivalSpec>),
    /// A synthesized Poisson churn scenario drawn from the spec's `rates`
    /// (first entry), `jobs`, `apps` and `sizes` fields: `workload
    /// poisson`.
    Poisson,
}

impl Workload {
    /// Standalone shorthand.
    pub fn standalone(app: AppKind) -> Self {
        Workload::Standalone(app)
    }

    /// Pairwise shorthand.
    pub fn pairwise(target: AppKind, background: Option<AppKind>) -> Self {
        Workload::Pairwise { target, background }
    }

    /// Explicit-jobs shorthand.
    pub fn jobs(jobs: Vec<JobSpec>) -> Self {
        Workload::Jobs(jobs)
    }

    /// Canonical spec-file rendering (the `workload` line's value).
    pub fn describe(&self) -> String {
        match self {
            Workload::Standalone(k) => format!("standalone {}", k.name()),
            Workload::Pairwise { target, background } => format!(
                "pairwise {} {}",
                target.name(),
                background.map(|b| b.name()).unwrap_or("none")
            ),
            Workload::Mixed => "mixed".to_string(),
            Workload::Jobs(jobs) => {
                let list: Vec<String> = jobs
                    .iter()
                    .map(|j| {
                        if j.idle {
                            format!("idle:{}", j.size)
                        } else {
                            format!("{}:{}", j.kind.name(), j.size)
                        }
                    })
                    .collect();
                format!("jobs {}", list.join(","))
            }
            Workload::Scenario(arrivals) => {
                let list: Vec<String> = arrivals
                    .iter()
                    .map(|a| format!("{}:{}@{}ps", a.kind.name(), a.size, a.at))
                    .collect();
                format!("scenario {}", list.join(","))
            }
            Workload::Poisson => "poisson".to_string(),
        }
    }

    /// Parse the `workload` line's value (inverse of [`Self::describe`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (form, tail) = s.split_once(char::is_whitespace).unwrap_or((s, ""));
        let tail = tail.trim();
        let bare = |w: Workload| {
            if tail.is_empty() {
                Ok(w)
            } else {
                Err(format!("workload '{form}' takes no arguments, got '{tail}'"))
            }
        };
        match form.to_ascii_lowercase().as_str() {
            "standalone" => Ok(Workload::Standalone(lookup(tail)?)),
            "pairwise" => {
                let (target, bg) = tail
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| "pairwise needs 'TARGET BACKGROUND|none'".to_string())?;
                let background =
                    if bg.trim().eq_ignore_ascii_case("none") { None } else { Some(lookup(bg)?) };
                Ok(Workload::Pairwise { target: lookup(target)?, background })
            }
            "mixed" => bare(Workload::Mixed),
            "jobs" => Ok(Workload::Jobs(parse_job_list(tail)?)),
            "scenario" => {
                let arrivals = parse_arrival_list(tail)?;
                if arrivals.is_empty() {
                    return Err("empty scenario arrival list".to_string());
                }
                Ok(Workload::Scenario(arrivals))
            }
            "poisson" => bare(Workload::Poisson),
            other => Err(format!(
                "unknown workload '{other}' (valid: standalone APP, pairwise TARGET BG|none, \
                 mixed, jobs LIST, scenario ARRIVALS, poisson)"
            )),
        }
    }
}

/// Parse a static job list: comma-separated `APP:SIZE` / `idle:SIZE`.
fn parse_job_list(s: &str) -> Result<Vec<JobSpec>, String> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.trim().is_empty()) {
        let p = part.trim();
        let (name, size) = p
            .split_once(':')
            .ok_or_else(|| format!("job '{p}' must look like APP:SIZE or idle:SIZE"))?;
        let size: u32 = size
            .trim()
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("invalid job size '{}' in '{p}'", size.trim()))?;
        if name.trim().eq_ignore_ascii_case("idle") {
            out.push(JobSpec::idle(size));
        } else {
            out.push(JobSpec::sized(lookup(name)?, size));
        }
    }
    if out.is_empty() {
        return Err("empty job list".to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// A complete declarative experiment description.
///
/// Field defaults match `SimConfig::default()` exactly: a spec that sets
/// nothing projects ([`ExperimentSpec::sim`]) onto the default engine
/// config.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// What to run.
    pub workload: Workload,
    /// Structural topology parameters.
    pub params: DragonflyParams,
    /// Link timing.
    pub timing: LinkTiming,
    /// The routing set under study (sweep binaries iterate it; a
    /// [`crate::simulation::Simulation`] requires exactly one entry).
    pub routings: Vec<RoutingAlgo>,
    /// UGAL minimal-path bias, packets.
    pub ugal_bias: i64,
    /// Non-minimal candidates sampled per UGAL decision.
    pub nonmin_samples: usize,
    /// Q-adaptive learning rate α.
    pub qa_alpha: f64,
    /// Q-adaptive exploration ε.
    pub qa_epsilon: f64,
    /// Warm-start Q-tables from this snapshot (Q-adaptive only).
    pub qtable_load: Option<PathBuf>,
    /// Save learned Q-tables here after the run (Q-adaptive only).
    pub qtable_save: Option<PathBuf>,
    /// Workload scale divisor (1 = paper scale).
    pub scale: f64,
    /// Root seed.
    pub seed: u64,
    /// Placement policy.
    pub placement: Placement,
    /// Event-queue backend (report-invariant performance knob).
    pub queue: QueueBackend,
    /// Admission policy for churn scenarios.
    pub sched: SchedPolicy,
    /// MPI eager→rendezvous threshold, bytes.
    pub eager_threshold: u64,
    /// Optional wall on simulated time.
    pub horizon: Option<Time>,
    /// Hard cap on processed events (runaway guard): the run stops at the
    /// first window barrier at or past it, at every thread count.
    pub max_events: u64,
    /// Metrics time-series bin width, picoseconds.
    pub bin_width: Time,
    /// Record per-packet latencies.
    pub record_latencies: bool,
    /// Record per-port stall counters.
    pub record_ports: bool,
    /// Poisson arrival rates, jobs per simulated ms (sweeps iterate;
    /// single runs use the first entry).
    pub rates: Vec<f64>,
    /// Poisson job count per scenario.
    pub jobs: u32,
    /// App cycle of synthesized scenarios / evaluation sets of sweep
    /// binaries.
    pub apps: Vec<AppKind>,
    /// Job-size cycle of synthesized scenarios (empty = derived from the
    /// topology: a quarter of the machine).
    pub sizes: Vec<u32>,
    /// Target restriction of target×background sweeps (empty = the
    /// binary's full default set).
    pub targets: Vec<AppKind>,
    /// Training workload of the transfer bench.
    pub train: AppKind,
    /// Keep the transfer bench's trained snapshot at this path.
    pub snapshot: Option<PathBuf>,
    /// Stream every metric event of the run to a `dfsim-trace v1` file at
    /// this path (replayable into the identical report; see
    /// [`crate::trace`]).
    pub trace: Option<PathBuf>,
    /// Content-addressed result cache (`off`, `on`, or a directory; see
    /// [`crate::cache`]). Off by default; not part of the cache key
    /// itself.
    pub cache: CacheMode,
    /// Worker threads. Sweep binaries use this for the cell pool (0 = all
    /// cores); single-run front-ends (`dfsim run` and friends) use it as
    /// the partition count of the parallel engine (0/1 = single-threaded).
    pub threads: usize,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        Self {
            workload: Workload::Mixed,
            params: DragonflyParams::paper_1056(),
            timing: LinkTiming::default(),
            routings: vec![RoutingAlgo::UgalG],
            ugal_bias: 0,
            nonmin_samples: 2,
            qa_alpha: QaParams::default().alpha,
            qa_epsilon: QaParams::default().epsilon,
            qtable_load: None,
            qtable_save: None,
            scale: 64.0,
            seed: 42,
            placement: Placement::Random,
            queue: QueueBackend::default(),
            sched: SchedPolicy::default(),
            eager_threshold: 16 * 1024,
            horizon: None,
            max_events: 2_000_000_000,
            bin_width: MILLISECOND / 10,
            record_latencies: true,
            record_ports: true,
            rates: vec![1.0],
            jobs: 8,
            apps: vec![AppKind::UR, AppKind::CosmoFlow, AppKind::LU],
            sizes: Vec::new(),
            targets: Vec::new(),
            train: AppKind::Halo3D,
            snapshot: None,
            trace: None,
            cache: CacheMode::Off,
            threads: 0,
        }
    }
}

/// Every key of the spec format, in canonical emission order.
///
/// Adding a key here requires classifying it in
/// [`crate::cache`]'s `KEY_CLASSIFICATION` (key-relevant or
/// normalized-out) — `dfsim-lint`'s cache-key-coverage rule and the
/// cache's own tests fail until both lists agree, so a new
/// behaviour-changing key can never cause a stale cache hit by omission.
pub const SPEC_KEYS: [&str; 31] = [
    "workload",
    "topology",
    "timing",
    "routing",
    "ugal_bias",
    "nonmin_samples",
    "qa_alpha",
    "qa_epsilon",
    "qtable_load",
    "qtable_save",
    "scale",
    "seed",
    "placement",
    "queue",
    "sched",
    "eager_threshold",
    "horizon",
    "max_events",
    "bin_width",
    "record_latencies",
    "record_ports",
    "rates",
    "jobs",
    "apps",
    "sizes",
    "targets",
    "train",
    "snapshot",
    "trace",
    "cache",
    "threads",
];

/// Every CLI flag the workspace binaries parse, in sorted order.
///
/// This is the machine-checked half of the dead-knob contract for the
/// command line: `dfsim-lint` parses this table out of the source and
/// fails the build when a registered flag has no read site left (a knob
/// users can pass that does nothing), or when a binary parses a
/// flag-shaped string that was never registered here. Spec keys and env
/// vars get the same treatment through [`SPEC_KEYS`], [`CORE_ENV`] and
/// [`EXTENDED_ENV`].
pub const CLI_FLAGS: [&str; 32] = [
    "--apps",
    "--cache",
    "--contiguous",
    "--csv",
    "--engine-stats",
    "--globals",
    "--groups",
    "--horizon",
    "--jobs",
    "--max-age",
    "--max-bytes",
    "--no-cache",
    "--nodes",
    "--placement",
    "--qtable",
    "--queue",
    "--rate",
    "--rates",
    "--replay",
    "--routers",
    "--routing",
    "--scale",
    "--sched",
    "--seed",
    "--sizes",
    "--smoke",
    "--snapshot",
    "--spec",
    "--targets",
    "--threads",
    "--trace",
    "--train",
];

impl ExperimentSpec {
    // -- format ------------------------------------------------------------

    /// Parse a spec file's text over the built-in defaults. Keys the file
    /// omits keep their default; see [`Self::parsed_over`] for layering
    /// over caller defaults.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        Self::default().parsed_over(text)
    }

    /// Parse `text` as a layer over `self`: every key present replaces the
    /// current value, everything else is kept. Unknown keys, duplicate
    /// keys and malformed values are named errors, never ignored.
    pub fn parsed_over(mut self, text: &str) -> Result<Self, SpecError> {
        const _: () = assert!(SPEC_KEYS.len() <= u64::BITS as usize);
        let mut seen = 0u64; // bit i: SPEC_KEYS[i] already set by this text
        let mut header_ok = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !header_ok {
                if line != SPEC_HEADER {
                    return Err(SpecError::Version { found: line.to_string() });
                }
                header_ok = true;
                continue;
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            let Some(idx) = SPEC_KEYS.iter().position(|k| *k == key) else {
                return Err(SpecError::UnknownKey { line: line_no, key: key.to_string() });
            };
            if seen & (1 << idx) != 0 {
                return Err(SpecError::DuplicateKey { line: line_no, key: key.to_string() });
            }
            seen |= 1 << idx;
            self.apply_key(key, rest).map_err(|msg| SpecError::Value {
                line: line_no,
                key: key.to_string(),
                msg,
            })?;
        }
        if !header_ok {
            return Err(SpecError::Malformed {
                line: text.lines().count().max(1),
                msg: format!("empty spec (missing '{SPEC_HEADER}' header)"),
            });
        }
        Ok(self)
    }

    /// [`Self::parsed_over`] from a file on disk.
    pub fn loaded_over(self, path: impl Into<PathBuf>) -> Result<Self, SpecError> {
        let path = path.into();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::Io { path: path.clone(), msg: e.to_string() })?;
        self.parsed_over(&text)
    }

    /// Set one spec key from its text value: the only place a key's text is
    /// parsed. The error is the bare reason; each layer wraps it with its
    /// own source (file line, env var, flag).
    fn apply_key(&mut self, key: &str, rest: &str) -> Result<(), String> {
        match key {
            "workload" => self.workload = Workload::parse(rest)?,
            "topology" => parse_kv_line(rest, |k, v| {
                let n: u32 = v.parse().map_err(|_| format!("invalid topology {k} '{v}' (u32)"))?;
                match k {
                    "groups" => self.params.groups = n,
                    "routers_per_group" => self.params.routers_per_group = n,
                    "nodes_per_router" => self.params.nodes_per_router = n,
                    "globals_per_router" => self.params.globals_per_router = n,
                    other => return Err(format!("unknown topology field '{other}'")),
                }
                Ok(())
            })?,
            "timing" => parse_kv_line(rest, |k, v| {
                // Byte/packet fields are u32 in `LinkTiming`; parse at the
                // field's width so an out-of-range value is a named error
                // instead of a silent truncation.
                let n64 = |v: &str| {
                    v.parse::<u64>().map_err(|_| format!("invalid timing {k} '{v}' (u64)"))
                };
                let n32 = |v: &str| {
                    v.parse::<u32>().map_err(|_| format!("invalid timing {k} '{v}' (u32)"))
                };
                match k {
                    "bandwidth_gbps" => self.timing.bandwidth_gbps = n64(v)?,
                    "local_latency_ps" => self.timing.local_latency_ps = n64(v)?,
                    "global_latency_ps" => self.timing.global_latency_ps = n64(v)?,
                    "terminal_latency_ps" => self.timing.terminal_latency_ps = n64(v)?,
                    "flit_bytes" => self.timing.flit_bytes = n32(v)?,
                    "packet_bytes" => self.timing.packet_bytes = n32(v)?,
                    "buffer_packets" => self.timing.buffer_packets = n32(v)?,
                    other => return Err(format!("unknown timing field '{other}'")),
                }
                Ok(())
            })?,
            "routing" => self.routings = lookup_list(rest)?,
            "ugal_bias" => self.ugal_bias = parse_int(rest, "bias")?,
            "nonmin_samples" => self.nonmin_samples = parse_int(rest, "count")?,
            "qa_alpha" => self.qa_alpha = parse_f64(rest)?,
            "qa_epsilon" => self.qa_epsilon = parse_f64(rest)?,
            "qtable_load" => self.qtable_load = Some(parse_path(rest)?),
            "qtable_save" => self.qtable_save = Some(parse_path(rest)?),
            "scale" => self.scale = parse_f64(rest)?,
            "seed" => self.seed = parse_int(rest, "seed")?,
            "placement" => self.placement = lookup(rest)?,
            "queue" => self.queue = rest.parse()?,
            "sched" => self.sched = lookup(rest)?,
            "eager_threshold" => self.eager_threshold = parse_int(rest, "bytes")?,
            "horizon" => self.horizon = Some(parse_duration(rest)?),
            "max_events" => self.max_events = parse_int(rest, "count")?,
            "bin_width" => self.bin_width = parse_duration(rest)?,
            "record_latencies" => self.record_latencies = parse_bool(rest)?,
            "record_ports" => self.record_ports = parse_bool(rest)?,
            "rates" => self.rates = parse_f64_list(rest)?,
            "jobs" => self.jobs = parse_int(rest, "count")?,
            "apps" => self.apps = lookup_list(rest)?,
            "sizes" => self.sizes = parse_u32_list(rest)?,
            "targets" => self.targets = lookup_list(rest)?,
            "train" => self.train = lookup(rest)?,
            "snapshot" => self.snapshot = Some(parse_path(rest)?),
            "trace" => self.trace = Some(parse_path(rest)?),
            "cache" => self.cache = CacheMode::parse(rest)?,
            "threads" => self.threads = parse_int(rest, "count")?,
            _ => unreachable!("key membership checked by the caller"),
        }
        Ok(())
    }

    /// Canonical text rendering: header, every field in [`SPEC_KEYS`]
    /// order, optional fields (`qtable_*`, `horizon`, `sizes`, `targets`,
    /// `snapshot`) omitted when unset. `parse(emit(s)) == s` for every
    /// spec, and `emit(parse(t)) == t` for canonical files.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(SPEC_HEADER.to_string());
        line(format!("workload {}", self.workload.describe()));
        line(format!(
            "topology groups={} routers_per_group={} nodes_per_router={} globals_per_router={}",
            self.params.groups,
            self.params.routers_per_group,
            self.params.nodes_per_router,
            self.params.globals_per_router
        ));
        line(format!(
            "timing bandwidth_gbps={} local_latency_ps={} global_latency_ps={} \
             terminal_latency_ps={} flit_bytes={} packet_bytes={} buffer_packets={}",
            self.timing.bandwidth_gbps,
            self.timing.local_latency_ps,
            self.timing.global_latency_ps,
            self.timing.terminal_latency_ps,
            self.timing.flit_bytes,
            self.timing.packet_bytes,
            self.timing.buffer_packets
        ));
        line(format!(
            "routing {}",
            self.routings.iter().map(|r| r.label()).collect::<Vec<_>>().join(",")
        ));
        line(format!("ugal_bias {}", self.ugal_bias));
        line(format!("nonmin_samples {}", self.nonmin_samples));
        line(format!("qa_alpha {}", self.qa_alpha));
        line(format!("qa_epsilon {}", self.qa_epsilon));
        if let Some(p) = &self.qtable_load {
            line(format!("qtable_load {}", p.display()));
        }
        if let Some(p) = &self.qtable_save {
            line(format!("qtable_save {}", p.display()));
        }
        line(format!("scale {}", self.scale));
        line(format!("seed {}", self.seed));
        line(format!("placement {}", self.placement.label()));
        line(format!("queue {}", self.queue.describe()));
        line(format!("sched {}", self.sched.label()));
        line(format!("eager_threshold {}", self.eager_threshold));
        if let Some(h) = self.horizon {
            line(format!("horizon {h}ps"));
        }
        line(format!("max_events {}", self.max_events));
        line(format!("bin_width {}ps", self.bin_width));
        line(format!("record_latencies {}", self.record_latencies));
        line(format!("record_ports {}", self.record_ports));
        line(format!(
            "rates {}",
            self.rates.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(",")
        ));
        line(format!("jobs {}", self.jobs));
        line(format!("apps {}", self.apps.iter().map(|a| a.name()).collect::<Vec<_>>().join(",")));
        if !self.sizes.is_empty() {
            line(format!(
                "sizes {}",
                self.sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",")
            ));
        }
        if !self.targets.is_empty() {
            line(format!(
                "targets {}",
                self.targets.iter().map(|a| a.name()).collect::<Vec<_>>().join(",")
            ));
        }
        line(format!("train {}", self.train.name()));
        if let Some(p) = &self.snapshot {
            line(format!("snapshot {}", p.display()));
        }
        if let Some(p) = &self.trace {
            line(format!("trace {}", p.display()));
        }
        if self.cache.enabled() {
            line(format!("cache {}", self.cache.describe()));
        }
        line(format!("threads {}", self.threads));
        out
    }

    // -- layering ----------------------------------------------------------

    /// Resolve the effective spec for a binary: `self` (the binary's
    /// defaults) `< --spec FILE < environment < command line`, then
    /// validate. The one place every knob source meets — binaries never
    /// read `std::env::var` themselves. Only the core environment
    /// variables ([`CORE_ENV`]) are consulted; front-ends that
    /// historically listened to the generic workload/sweep names
    /// ([`EXTENDED_ENV`]) opt in via [`Self::resolve_env`].
    pub fn resolve(self, args: &[String]) -> Result<Self, SpecError> {
        self.resolve_env(&[], args)
    }

    /// [`Self::resolve`] plus the listed [`EXTENDED_ENV`] variables. The
    /// extended names (`TARGET`, `JOBS`, `APPS`, …) are generic enough to
    /// collide with unrelated shell/CI variables, so each front-end names
    /// exactly the ones it documents instead of all of them ambient.
    pub fn resolve_env(self, extra_env: &[&str], args: &[String]) -> Result<Self, SpecError> {
        self.resolve_env_with(extra_env, |var| std::env::var(var).ok(), args)
    }

    /// [`Self::resolve`] with an injectable environment (tests layer over
    /// a map instead of mutating the process environment).
    pub fn resolve_with<F>(self, env: F, args: &[String]) -> Result<Self, SpecError>
    where
        F: Fn(&str) -> Option<String>,
    {
        self.resolve_env_with(&[], env, args)
    }

    /// [`Self::resolve_env`] with an injectable environment.
    pub fn resolve_env_with<F>(
        self,
        extra_env: &[&str],
        env: F,
        args: &[String],
    ) -> Result<Self, SpecError>
    where
        F: Fn(&str) -> Option<String>,
    {
        let mut spec = self;
        // Layer 2: spec files, in command-line order.
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--spec" {
                let path = args.get(i + 1).ok_or_else(|| SpecError::Flag {
                    flag: "--spec".to_string(),
                    msg: "needs a file path".to_string(),
                })?;
                spec = spec.loaded_over(path)?;
                i += 1;
            }
            i += 1;
        }
        // Layer 3: environment. Layer 4: command line.
        spec = spec.apply_env(&env, extra_env)?;
        spec = spec.apply_cli(args)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Apply the environment layer: every [`CORE_ENV`] variable plus the
    /// [`EXTENDED_ENV`] subset the front-end opted into. A variable whose
    /// lower-case name is a spec key is that key's text; every variable is
    /// parsed strictly — an invalid value is a named hard error, never a
    /// silent default.
    fn apply_env<F>(mut self, env: &F, extra_env: &[&str]) -> Result<Self, SpecError>
    where
        F: Fn(&str) -> Option<String>,
    {
        for var in extra_env {
            if !EXTENDED_ENV.contains(var) {
                return Err(SpecError::Invalid {
                    msg: format!(
                        "unknown extended env var '{var}' (valid: {})",
                        EXTENDED_ENV.join(", ")
                    ),
                });
            }
        }
        let opted = EXTENDED_ENV.iter().filter(|v| extra_env.contains(v));
        for &var in CORE_ENV.iter().chain(opted) {
            let Some(v) = env(var) else { continue };
            let applied = match var {
                "TARGET" => match (lookup(&v), &mut self.workload) {
                    (Err(e), _) => Err(e),
                    (Ok(kind), Workload::Standalone(target))
                    | (Ok(kind), Workload::Pairwise { target, .. }) => {
                        *target = kind;
                        Ok(())
                    }
                    _ => Err("only applies to standalone/pairwise workloads".to_string()),
                },
                "BG" => {
                    let none = v.eq_ignore_ascii_case("none");
                    let parsed = if none { Ok(None) } else { lookup(&v).map(Some) };
                    match (parsed, &mut self.workload) {
                        (Err(e), _) => Err(e),
                        (Ok(bg), Workload::Pairwise { background, .. }) => {
                            *background = bg;
                            Ok(())
                        }
                        _ => Err("only applies to the pairwise workload".to_string()),
                    }
                }
                _ => self.apply_key(&var.to_ascii_lowercase(), &v),
            };
            applied.map_err(|msg| SpecError::Env { var: var.to_string(), value: v, msg })?;
        }
        Ok(self)
    }

    /// Apply the command-line layer. A registered value flag whose name
    /// minus `--` is a spec key is that key's text; the rest are shorthands
    /// onto keys. Presentation flags (`--csv`, `--engine-stats`, `--smoke`
    /// interception by smoke binaries) are the caller's business;
    /// everything unknown is a named error.
    fn apply_cli(mut self, args: &[String]) -> Result<Self, SpecError> {
        let mut smoke = false;
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            let flag_err = |msg: String| SpecError::Flag { flag: a.to_string(), msg };
            let mut value = || {
                i += 1;
                args.get(i).ok_or_else(|| flag_err("needs a value".to_string()))
            };
            match a {
                "--spec" => {
                    value()?; // file layer already applied in resolve()
                }
                "--contiguous" => self.placement = Placement::Contiguous,
                "--no-cache" => self.cache = CacheMode::Off,
                "--cache" => {
                    // The value is optional: bare `--cache` (next arg absent
                    // or another flag) means `on`; otherwise `on`/`off`/DIR.
                    match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                        Some(v) => {
                            self.apply_key("cache", v).map_err(flag_err)?;
                            i += 1;
                        }
                        None => self.cache = CacheMode::On,
                    }
                }
                "--rate" => {
                    let v = value()?;
                    self.apply_key("rates", v).map_err(flag_err)?;
                }
                "--groups" | "--routers" | "--nodes" | "--globals" => {
                    let field = match a {
                        "--groups" => "groups",
                        "--routers" => "routers_per_group",
                        "--nodes" => "nodes_per_router",
                        _ => "globals_per_router",
                    };
                    let v = value()?;
                    self.apply_key("topology", &format!("{field}={v}")).map_err(flag_err)?;
                }
                "--qtable" => {
                    let v = value()?;
                    match v.split_once('=') {
                        Some(("save", p)) => self.apply_key("qtable_save", p),
                        Some(("load", p)) => self.apply_key("qtable_load", p),
                        _ => Err(format!("invalid '{v}'")),
                    }
                    .map_err(|m| {
                        flag_err(format!(
                            "{m} (valid forms: --qtable save=PATH, --qtable load=PATH)"
                        ))
                    })?;
                }
                "--smoke" => smoke = true,
                // Presentation flags other layers own; accepted so every
                // binary can combine them freely with spec flags.
                "--csv" | "--engine-stats" => {}
                key_flag
                    if CLI_FLAGS.contains(&key_flag) && SPEC_KEYS.contains(&&key_flag[2..]) =>
                {
                    let v = value()?;
                    self.apply_key(&key_flag[2..], v).map_err(flag_err)?;
                }
                other if other.starts_with("--") => {
                    return Err(SpecError::UnknownFlag { flag: other.to_string() })
                }
                _ => return Err(flag_err("unexpected argument".to_string())),
            }
            i += 1;
        }
        if smoke {
            // CI smoke override: the 72-node test system at a fast scale,
            // applied after every other layer so any spec smokes quickly.
            self.params = DragonflyParams::tiny_72();
            self.scale = self.scale.max(2_048.0);
        }
        Ok(self)
    }

    // -- validation & projection -------------------------------------------

    /// Validate the resolved spec (semantic constraints; the parse layers
    /// already rejected syntactic problems).
    pub fn validate(&self) -> Result<(), SpecError> {
        let invalid = |msg: String| SpecError::Invalid { msg };
        self.params.validate().map_err(|e| invalid(e.to_string()))?;
        if self.scale < 1.0 || !self.scale.is_finite() {
            return Err(invalid(format!("scale must be ≥ 1, got {}", self.scale)));
        }
        if self.timing.bandwidth_gbps == 0
            || self.timing.flit_bytes == 0
            || self.timing.packet_bytes == 0
        {
            return Err(invalid(
                "timing bandwidth_gbps, flit_bytes and packet_bytes must be positive".into(),
            ));
        }
        if !self.timing.packet_bytes.is_multiple_of(self.timing.flit_bytes) {
            return Err(invalid("packet size must be a multiple of the flit size".into()));
        }
        if self.max_events == 0 {
            return Err(invalid("max_events must be positive".into()));
        }
        if self.bin_width == 0 {
            return Err(invalid("bin_width must be positive".into()));
        }
        if self.routings.is_empty() {
            return Err(invalid("the routing set must not be empty".into()));
        }
        if !(self.qa_alpha > 0.0 && self.qa_alpha <= 1.0) {
            return Err(invalid(format!("qa_alpha must be in (0, 1], got {}", self.qa_alpha)));
        }
        if !(0.0..=1.0).contains(&self.qa_epsilon) {
            return Err(invalid(format!("qa_epsilon must be in [0, 1], got {}", self.qa_epsilon)));
        }
        if (self.qtable_load.is_some() || self.qtable_save.is_some())
            && !self.routings.contains(&RoutingAlgo::QAdaptive)
        {
            return Err(invalid(format!(
                "Q-table lifecycle knobs (qtable_load/qtable_save) require Q-adaptive routing, \
                 got {}",
                self.routings.iter().map(|r| r.label()).collect::<Vec<_>>().join(",")
            )));
        }
        if let Some(bad) = self.rates.iter().find(|r| !(**r > 0.0 && r.is_finite())) {
            return Err(invalid(format!("every rate must be a positive arrival rate, got {bad}")));
        }
        if self.apps.is_empty() {
            return Err(invalid("the app set must not be empty".into()));
        }
        if let Some(bad) = self.sizes.iter().find(|&&s| s == 0) {
            return Err(invalid(format!("job sizes must be positive, got {bad}")));
        }
        match &self.workload {
            Workload::Jobs(jobs) if jobs.is_empty() => {
                return Err(invalid("the job list must not be empty".into()))
            }
            Workload::Scenario(arrivals) if arrivals.is_empty() => {
                return Err(invalid("the scenario arrival list must not be empty".into()))
            }
            Workload::Poisson => {
                if self.rates.is_empty() {
                    return Err(invalid("a poisson workload needs at least one rate".into()));
                }
                if self.jobs == 0 {
                    return Err(invalid("a poisson workload needs jobs ≥ 1".into()));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The single routing of this spec (sweep binaries iterate
    /// [`Self::routings`] instead).
    pub fn routing(&self) -> RoutingAlgo {
        self.routings.first().copied().unwrap_or(RoutingAlgo::UgalG)
    }

    /// This spec specialized to one sweep cell: the given routing only,
    /// with the Q-table lifecycle knobs kept only on Q-adaptive cells (the
    /// other algorithms carry no Q-tables, and validation rejects lifecycle
    /// knobs on them rather than ignoring them silently).
    pub fn cell(&self, routing: RoutingAlgo) -> ExperimentSpec {
        let mut c = self.clone();
        c.routings = vec![routing];
        // Sweeps parallelize across cells (`threads` sizes that pool); each
        // cell itself runs single-partition so the two levels don't multiply.
        c.threads = 0;
        // One trace path cannot serve many concurrent cells: cells would
        // clobber each other's file, so sweeps drop the knob rather than
        // write a corrupt interleaving.
        c.trace = None;
        if routing != RoutingAlgo::QAdaptive {
            c.qtable_load = None;
            c.qtable_save = None;
        }
        c
    }

    /// The [`SimConfig`] this spec implies under `routing`.
    pub fn sim_for(&self, routing: RoutingAlgo) -> SimConfig {
        SimConfig {
            params: self.params,
            timing: self.timing,
            routing: RoutingConfig {
                algo: routing,
                ugal_bias: self.ugal_bias,
                nonmin_samples: self.nonmin_samples,
                qa: QaParams { alpha: self.qa_alpha, epsilon: self.qa_epsilon },
                qtable_init: match &self.qtable_load {
                    Some(p) => QTableInit::load(p),
                    None => QTableInit::Cold,
                },
            },
            recorder: RecorderConfig {
                bin_width: self.bin_width,
                record_latencies: self.record_latencies,
                record_ports: self.record_ports,
            },
            scale: self.scale,
            seed: self.seed,
            eager_threshold: self.eager_threshold,
            horizon: self.horizon,
            max_events: self.max_events,
            queue: self.queue,
            qtable_save: self.qtable_save.clone(),
            trace: self.trace.clone(),
            threads: self.threads,
        }
    }

    /// The [`SimConfig`] of this spec's first routing.
    pub fn sim(&self) -> SimConfig {
        self.sim_for(self.routing())
    }

    /// Builder-style workload replacement.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }
}

// ---------------------------------------------------------------------------
// Scalar parsers (shared by file, env and CLI layers)
// ---------------------------------------------------------------------------

/// Parse an integer of the field's own type `T`; the error names `what`
/// and the type (`invalid count 'x' (u32)`).
fn parse_int<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what} '{s}' ({})", std::any::type_name::<T>()))
}

/// Parse a finite f64.
fn parse_f64(s: &str) -> Result<f64, String> {
    s.trim()
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("invalid number '{s}'"))
}

/// Parse a comma-separated list of finite f64s (non-empty).
fn parse_f64_list(s: &str) -> Result<Vec<f64>, String> {
    let v: Vec<f64> =
        s.split(',').filter(|p| !p.trim().is_empty()).map(parse_f64).collect::<Result<_, _>>()?;
    if v.is_empty() {
        return Err("empty number list".to_string());
    }
    Ok(v)
}

/// Parse a comma-separated list of u32s (non-empty).
fn parse_u32_list(s: &str) -> Result<Vec<u32>, String> {
    let v: Vec<u32> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| p.trim().parse().map_err(|_| format!("invalid entry '{}' (u32)", p.trim())))
        .collect::<Result<_, _>>()?;
    if v.is_empty() {
        return Err("empty number list".to_string());
    }
    Ok(v)
}

/// Parse a boolean (`true`/`false`).
fn parse_bool(s: &str) -> Result<bool, String> {
    match s.trim() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("invalid boolean '{other}' (true, false)")),
    }
}

/// Parse a non-empty path.
fn parse_path(s: &str) -> Result<PathBuf, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty path".to_string());
    }
    Ok(PathBuf::from(s))
}

/// Parse a `k=v k=v …` line, feeding each pair to `apply`.
fn parse_kv_line(
    rest: &str,
    mut apply: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    if rest.is_empty() {
        return Err("expected key=value pairs".to_string());
    }
    for pair in rest.split_whitespace() {
        let (k, v) =
            pair.split_once('=').ok_or_else(|| format!("expected key=value, got '{pair}'"))?;
        apply(k, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_the_default_configs() {
        let spec = ExperimentSpec::default();
        spec.validate().unwrap();
        // An empty spec projects onto exactly the default engine config.
        assert_eq!(spec.sim(), SimConfig::default());
    }

    #[test]
    fn registry_lookups_are_case_insensitive_and_list_valid_names() {
        assert_eq!(lookup::<RoutingAlgo>("q-ADP").unwrap(), RoutingAlgo::QAdaptive);
        assert_eq!(lookup::<AppKind>("fft3d").unwrap(), AppKind::FFT3D);
        assert_eq!(lookup::<Placement>("Contiguous").unwrap(), Placement::Contiguous);
        assert_eq!(lookup::<SchedPolicy>("easy").unwrap(), SchedPolicy::Backfill);
        let err = lookup::<RoutingAlgo>("warp").unwrap_err();
        for r in RoutingAlgo::ALL {
            assert!(err.contains(r.label()), "error must list {}: {err}", r.label());
        }
        assert!(lookup_list::<AppKind>(" , ,").is_err(), "empty lists must not be silent no-ops");
    }

    #[test]
    fn workload_forms_round_trip() {
        let forms = [
            Workload::Standalone(AppKind::LQCD),
            Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)),
            Workload::pairwise(AppKind::FFT3D, None),
            Workload::Mixed,
            Workload::jobs(vec![JobSpec::sized(AppKind::UR, 36), JobSpec::idle(4)]),
            Workload::Scenario(parse_arrival_list("UR:36@0,LU:16@0.5ms").unwrap()),
            Workload::Poisson,
        ];
        for w in forms {
            let text = w.describe();
            assert_eq!(Workload::parse(&text).unwrap(), w, "{text}");
        }
        assert!(Workload::parse("jobs").is_err(), "empty job list");
        assert!(Workload::parse("mixed extra").is_err());
        assert!(Workload::parse("quantum").is_err());
    }

    #[test]
    fn emit_parse_emit_is_byte_identical() {
        let spec = ExperimentSpec {
            workload: Workload::pairwise(AppKind::LQCD, Some(AppKind::Stencil5D)),
            routings: vec![RoutingAlgo::Par, RoutingAlgo::QAdaptive],
            scale: 4096.0,
            horizon: Some(MILLISECOND),
            sizes: vec![18, 36],
            qtable_load: Some("/tmp/q.snap".into()),
            qtable_save: Some("/tmp/q2.snap".into()),
            cache: CacheMode::Dir("/tmp/cache".into()),
            ..Default::default()
        };
        let text = spec.emit();
        let parsed = ExperimentSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec, "parse(emit(s)) must be the identity");
        assert_eq!(parsed.emit(), text, "emit is canonical");
    }

    #[test]
    fn layering_defaults_file_env_cli() {
        let file = format!("{SPEC_HEADER}\nscale 128\nseed 7\nrouting PAR\n");
        let dir = std::env::temp_dir().join(format!("dfsim_spec_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layering.spec");
        std::fs::write(&path, &file).unwrap();
        let env = |var: &str| match var {
            "SEED" => Some("11".to_string()),
            "ROUTING" => Some("UGALn".to_string()),
            _ => None,
        };
        let args: Vec<String> =
            ["--spec", path.to_str().unwrap(), "--routing", "Q-adp"].map(String::from).to_vec();
        let spec = ExperimentSpec::default().resolve_with(env, &args).unwrap();
        assert_eq!(spec.scale, 128.0, "file overrides defaults");
        assert_eq!(spec.seed, 11, "env overrides the file");
        assert_eq!(spec.routings, vec![RoutingAlgo::QAdaptive], "CLI overrides env");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_env_values_are_hard_errors_naming_the_variable() {
        let env = |var: &str| (var == "SCALE").then(|| "6O".to_string());
        let err = ExperimentSpec::default().resolve_with(env, &[]).unwrap_err();
        match err {
            SpecError::Env { ref var, ref value, .. } => {
                assert_eq!(var, "SCALE");
                assert_eq!(value, "6O");
            }
            other => panic!("expected an Env error, got {other:?}"),
        }
        assert!(err.to_string().contains("SCALE"), "{err}");
        assert!(err.to_string().contains("6O"), "{err}");
    }

    #[test]
    fn named_parse_errors() {
        let hdr = SPEC_HEADER;
        // Version mismatch.
        assert!(matches!(
            ExperimentSpec::parse("dfsim-spec v9\n").unwrap_err(),
            SpecError::Version { .. }
        ));
        // Unknown and duplicate keys.
        assert!(matches!(
            ExperimentSpec::parse(&format!("{hdr}\nwarp 9\n")).unwrap_err(),
            SpecError::UnknownKey { line: 2, .. }
        ));
        assert!(matches!(
            ExperimentSpec::parse(&format!("{hdr}\nseed 1\nseed 2\n")).unwrap_err(),
            SpecError::DuplicateKey { line: 3, .. }
        ));
        // A named value error for every scalar field class.
        for bad in [
            "workload quantum",
            "topology groups=many",
            "timing warp_factor=9",
            "routing warp",
            "ugal_bias x",
            "nonmin_samples x",
            "qa_alpha x",
            "qa_epsilon x",
            "qtable_load ",
            "scale 6O",
            "seed -1",
            "placement sideways",
            "queue abacus",
            "sched lifo",
            "eager_threshold x",
            "horizon fast",
            "max_events x",
            "bin_width fast",
            "record_latencies maybe",
            "record_ports maybe",
            "rates x",
            "jobs x",
            "apps Quake",
            "sizes x",
            "targets Quake",
            "train Quake",
            "snapshot ",
            "trace ",
            "cache ",
            "threads x",
        ] {
            let err = ExperimentSpec::parse(&format!("{hdr}\n{bad}\n")).unwrap_err();
            assert!(
                matches!(err, SpecError::Value { line: 2, .. }),
                "'{bad}' should be a named value error, got {err:?}"
            );
        }
        // Missing header.
        assert!(matches!(
            ExperimentSpec::parse("# only a comment\n").unwrap_err(),
            SpecError::Malformed { .. }
        ));
    }

    #[test]
    fn semantic_validation_names_the_constraint() {
        let spec = ExperimentSpec { scale: 0.5, ..Default::default() };
        assert!(spec.validate().unwrap_err().to_string().contains("scale"));
        let mut spec =
            ExperimentSpec { qtable_load: Some("/tmp/q.snap".into()), ..Default::default() };
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("Q-adaptive"), "{err}");
        spec.routings = vec![RoutingAlgo::QAdaptive];
        spec.validate().unwrap();
    }

    #[test]
    fn cell_strips_lifecycle_knobs_from_non_qadaptive_cells() {
        let spec = ExperimentSpec {
            routings: RoutingAlgo::PAPER_SET.to_vec(),
            qtable_load: Some("/tmp/q.snap".into()),
            cache: CacheMode::On,
            ..Default::default()
        };
        let par = spec.cell(RoutingAlgo::Par);
        assert!(par.qtable_load.is_none());
        assert_eq!(par.cache, spec.cache, "cells keep the cache mode");
        par.sim().validate().unwrap();
        let qadp = spec.cell(RoutingAlgo::QAdaptive);
        assert_eq!(qadp.qtable_load, Some("/tmp/q.snap".into()));
    }

    #[test]
    fn unknown_flags_and_arguments_are_named_errors() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(
            ExperimentSpec::default().resolve_with(|_| None, &args(&["--warp"])).unwrap_err(),
            SpecError::UnknownFlag { .. }
        ));
        assert!(matches!(
            ExperimentSpec::default().resolve_with(|_| None, &args(&["--scale"])).unwrap_err(),
            SpecError::Flag { .. }
        ));
        assert!(matches!(
            ExperimentSpec::default().resolve_with(|_| None, &args(&["stray"])).unwrap_err(),
            SpecError::Flag { .. }
        ));
        // Presentation flags pass through untouched.
        let spec = ExperimentSpec::default()
            .resolve_with(|_| None, &args(&["--csv", "--engine-stats"]))
            .unwrap();
        assert_eq!(spec, ExperimentSpec::default());
    }

    #[test]
    fn cache_flag_forms_and_layering() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let spec = ExperimentSpec::default().resolve_with(|_| None, &args(&["--cache"])).unwrap();
        assert_eq!(spec.cache, CacheMode::On, "bare --cache means on");
        let spec = ExperimentSpec::default()
            .resolve_with(|_| None, &args(&["--cache", "/tmp/c"]))
            .unwrap();
        assert_eq!(spec.cache, CacheMode::Dir("/tmp/c".into()));
        let spec =
            ExperimentSpec::default().resolve_with(|_| None, &args(&["--cache", "--csv"])).unwrap();
        assert_eq!(spec.cache, CacheMode::On, "a following flag is not the cache value");
        let env = |var: &str| (var == "CACHE").then(|| "/env/c".to_string());
        let spec = ExperimentSpec::default().resolve_with(env, &args(&[])).unwrap();
        assert_eq!(spec.cache, CacheMode::Dir("/env/c".into()), "CACHE env layers in");
        let spec = ExperimentSpec::default().resolve_with(env, &args(&["--no-cache"])).unwrap();
        assert_eq!(spec.cache, CacheMode::Off, "CLI overrides env");
    }

    #[test]
    fn smoke_flag_shrinks_to_the_test_system() {
        let args: Vec<String> = vec!["--smoke".to_string()];
        let spec = ExperimentSpec::default().resolve_with(|_| None, &args).unwrap();
        assert_eq!(spec.params, DragonflyParams::tiny_72());
        assert!(spec.scale >= 2_048.0);
    }
}
