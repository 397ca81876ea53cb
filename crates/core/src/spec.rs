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
//!   [`ExperimentSpec::emit`]), hand-rolled like
//!   `dfsim_network::snapshot`'s: versioned header, `key value` lines,
//!   `#` comments. `emit` is canonical — emitting a parsed spec and
//!   re-parsing yields the identical value, and canonical files round-trip
//!   byte-identically.
//! * **named errors** ([`SpecError`]): every malformed line, unknown key,
//!   bad env var or flag is reported with its location and the valid
//!   forms — never silently defaulted.
//! * **one key table** (`KEYS`): each key is one row holding its name,
//!   its result-cache class, its environment variable and flag, and its
//!   parse/emit function pair. `parse`, `emit`, both override layers and
//!   [`crate::cache::cache_key`] walk it, and the [`SPEC_KEYS`],
//!   [`CORE_ENV`], [`EXTENDED_ENV`] and [`CLI_FLAGS`] registries are
//!   compile-time views of it.
//! * **one layering rule** ([`ExperimentSpec::resolve`]): `defaults <
//!   spec file < environment < command line`, implemented once and used by
//!   `dfsim` and every sweep. A key's text is parsed by its row whichever
//!   layer it arrives through (trimmed first, so a padded env var or flag
//!   value means what the file line means); env and flag errors are
//!   re-wrapped as [`SpecError::Env`] / [`SpecError::Flag`].
//! * a label-based **registry** ([`Registered`], [`lookup`],
//!   [`lookup_list`]) for routings, workloads, placements and schedulers,
//!   collapsing the per-binary `parse_*` copies into one case-insensitive
//!   lookup whose errors list the valid names.
//!
//! The session API that runs a spec lives in [`crate::simulation`].

use std::fmt::{Display, Write};
use std::path::PathBuf;

use dfsim_apps::arrivals::{parse_arrival_list, ArrivalSpec};
use dfsim_apps::AppKind;
use dfsim_des::{parse_duration, QueueBackend, Time, MILLISECOND};
use dfsim_metrics::RecorderConfig;
use dfsim_network::{QTableInit, QaParams, RoutingAlgo, RoutingConfig};
use dfsim_topology::{DragonflyParams, LinkTiming};

use crate::cache::{CacheMode, KeyClass};
use crate::config::SimConfig;
use crate::placement::Placement;
use crate::runner::JobSpec;
use crate::scenario::SchedPolicy;

/// Magic first line of every spec file (bump when the format changes; old
/// files are then rejected with [`SpecError::Version`]).
pub const SPEC_HEADER: &str = "dfsim-spec v1";

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

// ---------------------------------------------------------------------------
// The key table
// ---------------------------------------------------------------------------

/// How the environment layer reaches a spec key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyEnv {
    /// No environment variable sets the key.
    None,
    /// A variable every front-end reads (listed in [`CORE_ENV`]).
    Core(&'static str),
    /// A variable a front-end must opt into (listed in [`EXTENDED_ENV`]).
    OptIn(&'static str),
}

/// One spec key: its name, how it enters the result-cache key, the
/// environment variable and flag that set it, and how its text is parsed
/// and rendered. Every layer and the cache key walk [`KEYS`], so a key
/// cannot exist without all of these.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    /// The name that opens the key's spec-file line.
    pub(crate) name: &'static str,
    /// How the key enters the result-cache key.
    pub(crate) class: KeyClass,
    /// The environment variable that sets the key.
    pub(crate) env: KeyEnv,
    /// The flag that sets the key (`--NAME`), if the command line does.
    pub(crate) flag: Option<&'static str>,
    /// Set the key from its trimmed text; the error is the bare reason.
    parse: fn(&mut ExperimentSpec, &str) -> Result<(), String>,
    /// Render the key's value; rendering nothing omits the line.
    emit: fn(&ExperimentSpec, &mut String),
}

impl Key {
    /// Set this key from its text value: the one parse path of the file,
    /// environment and command-line layers. The text is trimmed here, so a
    /// padded env var or flag value means what the same file line means.
    /// Each layer wraps the error with its own source.
    fn apply(&self, spec: &mut ExperimentSpec, text: &str) -> Result<(), String> {
        (self.parse)(spec, text.trim())
    }
}

/// Every key of the spec format, in canonical emission order. Reordering
/// rows reorders `emit` and with it every result-cache key
/// (`tests/cache_roundtrip.rs` pins them).
pub(crate) const KEYS: [Key; 31] = {
    use KeyClass::{Conditional, ContentHashed, Normalized, Relevant};
    use KeyEnv::{Core, OptIn};
    [
        Key {
            name: "workload",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| Workload::parse(v).map(|w| s.workload = w),
            emit: |s, o| o.push_str(&s.workload.describe()),
        },
        Key {
            name: "topology",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: parse_topology,
            emit: emit_topology,
        },
        Key {
            name: "timing",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: parse_timing,
            emit: emit_timing,
        },
        Key {
            name: "routing",
            class: Relevant,
            env: Core("ROUTING"),
            flag: Some("--routing"),
            parse: |s, v| lookup_list(v).map(|r| s.routings = r),
            emit: |s, o| put_list(o, s.routings.iter().map(|r| r.label())),
        },
        Key {
            name: "ugal_bias",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_int(v, "bias").map(|n| s.ugal_bias = n),
            emit: |s, o| put(o, s.ugal_bias),
        },
        Key {
            name: "nonmin_samples",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_int(v, "count").map(|n| s.nonmin_samples = n),
            emit: |s, o| put(o, s.nonmin_samples),
        },
        Key {
            name: "qa_alpha",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_f64(v).map(|x| s.qa_alpha = x),
            emit: |s, o| put(o, s.qa_alpha),
        },
        Key {
            name: "qa_epsilon",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_f64(v).map(|x| s.qa_epsilon = x),
            emit: |s, o| put(o, s.qa_epsilon),
        },
        Key {
            name: "qtable_load",
            class: ContentHashed,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_path(v).map(|p| s.qtable_load = Some(p)),
            emit: |s, o| put_opt(o, s.qtable_load.as_ref().map(|p| p.display())),
        },
        Key {
            name: "qtable_save",
            class: Normalized,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_path(v).map(|p| s.qtable_save = Some(p)),
            emit: |s, o| put_opt(o, s.qtable_save.as_ref().map(|p| p.display())),
        },
        Key {
            name: "scale",
            class: Relevant,
            env: Core("SCALE"),
            flag: Some("--scale"),
            parse: |s, v| parse_f64(v).map(|x| s.scale = x),
            emit: |s, o| put(o, s.scale),
        },
        Key {
            name: "seed",
            class: Relevant,
            env: Core("SEED"),
            flag: Some("--seed"),
            parse: |s, v| parse_int(v, "seed").map(|n| s.seed = n),
            emit: |s, o| put(o, s.seed),
        },
        Key {
            name: "placement",
            class: Relevant,
            env: Core("PLACEMENT"),
            flag: Some("--placement"),
            parse: |s, v| lookup(v).map(|p| s.placement = p),
            emit: |s, o| o.push_str(s.placement.label()),
        },
        Key {
            name: "queue",
            class: Relevant,
            env: Core("QUEUE"),
            flag: Some("--queue"),
            parse: |s, v| v.parse().map(|q| s.queue = q),
            emit: |s, o| o.push_str(&s.queue.describe()),
        },
        Key {
            name: "sched",
            class: Relevant,
            env: Core("SCHED"),
            flag: Some("--sched"),
            parse: |s, v| lookup(v).map(|p| s.sched = p),
            emit: |s, o| o.push_str(s.sched.label()),
        },
        Key {
            name: "eager_threshold",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_int(v, "bytes").map(|n| s.eager_threshold = n),
            emit: |s, o| put(o, s.eager_threshold),
        },
        Key {
            name: "horizon",
            class: Relevant,
            env: KeyEnv::None,
            flag: Some("--horizon"),
            parse: |s, v| parse_duration(v).map(|t| s.horizon = Some(t)),
            emit: |s, o| put_opt(o, s.horizon.map(|t| format!("{t}ps"))),
        },
        Key {
            name: "max_events",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_int(v, "count").map(|n| s.max_events = n),
            emit: |s, o| put(o, s.max_events),
        },
        Key {
            name: "bin_width",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_duration(v).map(|t| s.bin_width = t),
            emit: |s, o| put(o, format_args!("{}ps", s.bin_width)),
        },
        Key {
            name: "record_latencies",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_bool(v).map(|b| s.record_latencies = b),
            emit: |s, o| put(o, s.record_latencies),
        },
        Key {
            name: "record_ports",
            class: Relevant,
            env: KeyEnv::None,
            flag: None,
            parse: |s, v| parse_bool(v).map(|b| s.record_ports = b),
            emit: |s, o| put(o, s.record_ports),
        },
        Key {
            name: "rates",
            class: Conditional,
            env: OptIn("RATES"),
            flag: Some("--rates"),
            parse: |s, v| parse_f64_list(v).map(|r| s.rates = r),
            emit: |s, o| put_list(o, &s.rates),
        },
        Key {
            name: "jobs",
            class: Conditional,
            env: OptIn("JOBS"),
            flag: Some("--jobs"),
            parse: |s, v| parse_int(v, "count").map(|n| s.jobs = n),
            emit: |s, o| put(o, s.jobs),
        },
        Key {
            name: "apps",
            class: Conditional,
            env: OptIn("APPS"),
            flag: Some("--apps"),
            parse: |s, v| lookup_list(v).map(|a| s.apps = a),
            emit: |s, o| put_list(o, s.apps.iter().map(|a| a.name())),
        },
        Key {
            name: "sizes",
            class: Conditional,
            env: OptIn("SIZES"),
            flag: Some("--sizes"),
            parse: |s, v| parse_u32_list(v).map(|n| s.sizes = n),
            emit: |s, o| put_list(o, &s.sizes),
        },
        Key {
            name: "targets",
            class: Normalized,
            env: OptIn("TARGETS"),
            flag: Some("--targets"),
            parse: |s, v| lookup_list(v).map(|a| s.targets = a),
            emit: |s, o| put_list(o, s.targets.iter().map(|a| a.name())),
        },
        Key {
            name: "train",
            class: Normalized,
            env: OptIn("TRAIN"),
            flag: Some("--train"),
            parse: |s, v| lookup(v).map(|a| s.train = a),
            emit: |s, o| o.push_str(s.train.name()),
        },
        Key {
            name: "snapshot",
            class: Normalized,
            env: OptIn("SNAPSHOT"),
            flag: Some("--snapshot"),
            parse: |s, v| parse_path(v).map(|p| s.snapshot = Some(p)),
            emit: |s, o| put_opt(o, s.snapshot.as_ref().map(|p| p.display())),
        },
        Key {
            name: "trace",
            class: Normalized,
            env: KeyEnv::None,
            flag: Some("--trace"),
            parse: |s, v| parse_path(v).map(|p| s.trace = Some(p)),
            emit: |s, o| put_opt(o, s.trace.as_ref().map(|p| p.display())),
        },
        Key {
            name: "cache",
            class: Normalized,
            env: Core("CACHE"),
            flag: Some("--cache"),
            parse: |s, v| CacheMode::parse(v).map(|c| s.cache = c),
            emit: |s, o| put_opt(o, s.cache.enabled().then(|| s.cache.describe())),
        },
        Key {
            name: "threads",
            class: Normalized,
            env: Core("THREADS"),
            flag: Some("--threads"),
            parse: |s, v| parse_int(v, "count").map(|n| s.threads = n),
            emit: |s, o| put(o, s.threads),
        },
    ]
};

/// Opt-in environment variables that are not a key's text: each sets one
/// part of the `workload` value (an arm of `apply_env`).
const ENV_SHORTHANDS: [&str; 2] = ["TARGET", "BG"];

/// Flags that are not a key's `--NAME`: shorthands onto keys, and the
/// presentation flags front-ends read themselves (each an arm of
/// `apply_cli`).
const CLI_SHORTHANDS: [&str; 12] = [
    "--spec",
    "--rate",
    "--groups",
    "--routers",
    "--nodes",
    "--globals",
    "--qtable",
    "--contiguous",
    "--no-cache",
    "--smoke",
    "--csv",
    "--engine-stats",
];

/// Every spec key name, in `KEYS` (canonical emission) order.
pub const SPEC_KEYS: [&str; 31] = view(View::Name, &[]);

/// Environment variables every front-end consults: invalid values are hard
/// errors naming the variable.
pub const CORE_ENV: [&str; 8] = view(View::CoreEnv, &[]);

/// Workload/sweep environment variables a front-end must opt into via
/// [`ExperimentSpec::resolve_env`]. Their names are generic (`TARGET` and
/// `JOBS` are common shell/CI variables), so only the front-ends that
/// document them listen.
pub const EXTENDED_ENV: [&str; 9] = view(View::OptInEnv, &ENV_SHORTHANDS);

/// Every flag the resolver accepts: each key's `--NAME`, then the
/// shorthands and presentation flags.
pub const CLI_FLAGS: [&str; 29] = view(View::Flag, &CLI_SHORTHANDS);

/// Which spelling of a key a registry view lists.
#[derive(Clone, Copy)]
enum View {
    Name,
    CoreEnv,
    OptInEnv,
    Flag,
}

/// A registry view: the spelling `view` picks from each [`KEYS`] row that
/// has one, in row order, then `extra`. Evaluated at compile time, so a
/// view whose declared length does not match the rows fails the build.
const fn view<const N: usize>(view: View, extra: &[&'static str]) -> [&'static str; N] {
    let mut out = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < KEYS.len() + extra.len() {
        let spelled = if i >= KEYS.len() {
            Some(extra[i - KEYS.len()])
        } else {
            match (view, KEYS[i].env) {
                (View::Name, _) => Some(KEYS[i].name),
                (View::CoreEnv, KeyEnv::Core(var)) | (View::OptInEnv, KeyEnv::OptIn(var)) => {
                    Some(var)
                }
                (View::Flag, _) => KEYS[i].flag,
                _ => None,
            }
        };
        if let Some(s) = spelled {
            out[n] = s;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N, "a registry view's length must match the key table");
    out
}

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
        const _: () = assert!(KEYS.len() <= u64::BITS as usize);
        let mut seen = 0u64; // bit i: KEYS[i] already set by this text
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
            let Some(idx) = KEYS.iter().position(|k| k.name == key) else {
                return Err(SpecError::UnknownKey { line: line_no, key: key.to_string() });
            };
            if seen & (1 << idx) != 0 {
                return Err(SpecError::DuplicateKey { line: line_no, key: key.to_string() });
            }
            seen |= 1 << idx;
            KEYS[idx].apply(&mut self, rest).map_err(|msg| SpecError::Value {
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

    /// Set the key named `name` from its text: how a shorthand reaches the
    /// key it stands for.
    fn set(&mut self, name: &str, text: &str) -> Result<(), String> {
        match KEYS.iter().find(|k| k.name == name) {
            Some(key) => key.apply(self, text),
            None => Err(format!("unknown spec key '{name}'")),
        }
    }

    /// Canonical text rendering: header, then one line per key in
    /// [`SPEC_KEYS`] order; an optional key (`qtable_*`, `horizon`,
    /// `sizes`, `targets`, `snapshot`, `trace`, `cache`) has no line while
    /// unset. `parse(emit(s)) == s` for every spec, and
    /// `emit(parse(t)) == t` for canonical files.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        Self::emit_rows(&mut out, |_| self);
        out
    }

    /// Append the canonical text to `out`, each row rendered from the spec
    /// `source` picks for it: [`Self::emit`] picks `self` for every row,
    /// the result-cache key picks the defaults for the rows that are not
    /// key material.
    pub(crate) fn emit_rows<'a>(out: &mut String, source: impl Fn(&Key) -> &'a ExperimentSpec) {
        out.push_str(SPEC_HEADER);
        out.push('\n');
        for key in &KEYS {
            let line = out.len();
            out.push_str(key.name);
            out.push(' ');
            let value = out.len();
            (key.emit)(source(key), out);
            if out.len() == value {
                out.truncate(line);
            } else {
                out.push('\n');
            }
        }
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the env layer of `defaults < file < env < CLI`: the resolution layers are where ambient env may enter a run"
    )]
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
    /// [`EXTENDED_ENV`] subset the front-end opted into. A key's variable
    /// is that key's text; `TARGET` and `BG` set one part of the workload.
    /// Every variable is parsed strictly — an invalid value is a named hard
    /// error, never a silent default.
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
        let env_err = |var: &str, value, msg| SpecError::Env { var: var.to_string(), value, msg };
        for key in &KEYS {
            let var = match key.env {
                KeyEnv::Core(var) => var,
                KeyEnv::OptIn(var) if extra_env.contains(&var) => var,
                _ => continue,
            };
            if let Some(v) = env(var) {
                let applied = key.apply(&mut self, &v);
                applied.map_err(|msg| env_err(var, v, msg))?;
            }
        }
        let shorthand = |var| env(var).filter(|_| extra_env.contains(&var));
        if let Some(v) = shorthand("TARGET") {
            let applied = match (lookup(&v), &mut self.workload) {
                (Err(e), _) => Err(e),
                (Ok(kind), Workload::Standalone(target))
                | (Ok(kind), Workload::Pairwise { target, .. }) => {
                    *target = kind;
                    Ok(())
                }
                _ => Err("only applies to standalone/pairwise workloads".to_string()),
            };
            applied.map_err(|msg| env_err("TARGET", v, msg))?;
        }
        if let Some(v) = shorthand("BG") {
            let none = v.trim().eq_ignore_ascii_case("none");
            let parsed = if none { Ok(None) } else { lookup(&v).map(Some) };
            let applied = match (parsed, &mut self.workload) {
                (Err(e), _) => Err(e),
                (Ok(bg), Workload::Pairwise { background, .. }) => {
                    *background = bg;
                    Ok(())
                }
                _ => Err("only applies to the pairwise workload".to_string()),
            };
            applied.map_err(|msg| env_err("BG", v, msg))?;
        }
        Ok(self)
    }

    /// Apply the command-line layer. A key's flag (`--NAME`) takes that
    /// key's text; the rest are shorthands onto keys, and presentation
    /// flags (`--csv`, `--engine-stats`) the caller reads itself;
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
                            self.set("cache", v).map_err(flag_err)?;
                            i += 1;
                        }
                        None => self.cache = CacheMode::On,
                    }
                }
                "--rate" => {
                    let v = value()?;
                    self.set("rates", v).map_err(flag_err)?;
                }
                "--groups" | "--routers" | "--nodes" | "--globals" => {
                    let field = match a {
                        "--groups" => "groups",
                        "--routers" => "routers_per_group",
                        "--nodes" => "nodes_per_router",
                        _ => "globals_per_router",
                    };
                    let v = value()?;
                    self.set("topology", &format!("{field}={}", v.trim())).map_err(flag_err)?;
                }
                "--qtable" => {
                    let v = value()?;
                    match v.trim().split_once('=') {
                        Some(("save", p)) => self.set("qtable_save", p),
                        Some(("load", p)) => self.set("qtable_load", p),
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
                other => match KEYS.iter().find(|k| k.flag == Some(other)) {
                    Some(key) => {
                        let v = value()?;
                        key.apply(&mut self, v).map_err(flag_err)?;
                    }
                    None if other.starts_with("--") => {
                        return Err(SpecError::UnknownFlag { flag: other.to_string() })
                    }
                    None => return Err(flag_err("unexpected argument".to_string())),
                },
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

/// Parse a `k=v k=v …` line, feeding each pair to `apply`. A field given
/// twice is an error naming it, as a key given twice is.
fn parse_pairs(
    rest: &str,
    mut apply: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    if rest.is_empty() {
        return Err("expected key=value pairs".to_string());
    }
    let mut seen = Vec::new();
    for pair in rest.split_whitespace() {
        let (k, v) =
            pair.split_once('=').ok_or_else(|| format!("expected key=value, got '{pair}'"))?;
        if seen.contains(&k) {
            return Err(format!("field '{k}' given twice"));
        }
        seen.push(k);
        apply(k, v)?;
    }
    Ok(())
}

/// The `topology` key's parser.
fn parse_topology(s: &mut ExperimentSpec, rest: &str) -> Result<(), String> {
    parse_pairs(rest, |k, v| {
        let n: u32 = v.parse().map_err(|_| format!("invalid topology {k} '{v}' (u32)"))?;
        match k {
            "groups" => s.params.groups = n,
            "routers_per_group" => s.params.routers_per_group = n,
            "nodes_per_router" => s.params.nodes_per_router = n,
            "globals_per_router" => s.params.globals_per_router = n,
            other => return Err(format!("unknown topology field '{other}'")),
        }
        Ok(())
    })
}

/// The `timing` key's parser. Byte/packet fields are u32 in `LinkTiming`;
/// each is parsed at the field's width so an out-of-range value is a named
/// error instead of a silent truncation.
fn parse_timing(s: &mut ExperimentSpec, rest: &str) -> Result<(), String> {
    parse_pairs(rest, |k, v| {
        let n64 = |v: &str| v.parse::<u64>().map_err(|_| format!("invalid timing {k} '{v}' (u64)"));
        let n32 = |v: &str| v.parse::<u32>().map_err(|_| format!("invalid timing {k} '{v}' (u32)"));
        let t = &mut s.timing;
        match k {
            "bandwidth_gbps" => t.bandwidth_gbps = n64(v)?,
            "local_latency_ps" => t.local_latency_ps = n64(v)?,
            "global_latency_ps" => t.global_latency_ps = n64(v)?,
            "terminal_latency_ps" => t.terminal_latency_ps = n64(v)?,
            "flit_bytes" => t.flit_bytes = n32(v)?,
            "packet_bytes" => t.packet_bytes = n32(v)?,
            "buffer_packets" => t.buffer_packets = n32(v)?,
            other => return Err(format!("unknown timing field '{other}'")),
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Value renderers (the emit half of the key table)
// ---------------------------------------------------------------------------

/// The `topology` key's renderer.
fn emit_topology(s: &ExperimentSpec, o: &mut String) {
    let p = &s.params;
    let _ = write!(
        o,
        "groups={} routers_per_group={} nodes_per_router={} globals_per_router={}",
        p.groups, p.routers_per_group, p.nodes_per_router, p.globals_per_router
    );
}

/// The `timing` key's renderer.
fn emit_timing(s: &ExperimentSpec, o: &mut String) {
    let t = &s.timing;
    let _ = write!(
        o,
        "bandwidth_gbps={} local_latency_ps={} global_latency_ps={} terminal_latency_ps={} \
         flit_bytes={} packet_bytes={} buffer_packets={}",
        t.bandwidth_gbps,
        t.local_latency_ps,
        t.global_latency_ps,
        t.terminal_latency_ps,
        t.flit_bytes,
        t.packet_bytes,
        t.buffer_packets
    );
}

/// Append `v` (writing to a `String` cannot fail).
fn put(o: &mut String, v: impl Display) {
    let _ = write!(o, "{v}");
}

/// Append `v` if set: an unset optional key renders nothing.
fn put_opt(o: &mut String, v: Option<impl Display>) {
    if let Some(v) = v {
        put(o, v);
    }
}

/// Append `items` comma-separated.
fn put_list<T: Display>(o: &mut String, items: impl IntoIterator<Item = T>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        put(o, item);
    }
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

    /// Regression: a padded env var or flag value used to be rejected where
    /// the same text on a file line was accepted (`--seed " 7"`,
    /// `THREADS="2 "`, `--queue " calendar"`).
    #[test]
    fn padded_env_and_flag_values_parse_like_the_file_layer() {
        let file = |line: &str| ExperimentSpec::parse(&format!("{SPEC_HEADER}\n{line}\n")).unwrap();
        let flag = |f: &str, v: &str| {
            ExperimentSpec::default().resolve_with(|_| None, &[f.to_string(), v.to_string()])
        };
        assert_eq!(flag("--seed", " 7").unwrap(), file("seed  7 "));
        assert_eq!(flag("--queue", " calendar").unwrap(), file("queue calendar"));
        assert_eq!(flag("--groups", " 9").unwrap().params.groups, 9);
        let env = |var: &str| (var == "THREADS").then(|| "2 ".to_string());
        assert_eq!(ExperimentSpec::default().resolve_with(env, &[]).unwrap(), file("threads 2"));
    }

    #[test]
    fn a_repeated_topology_or_timing_field_is_a_named_value_error() {
        for (line, field) in [
            ("topology groups=5 groups=9", "groups"),
            ("timing flit_bytes=64 flit_bytes=128", "flit_bytes"),
        ] {
            match ExperimentSpec::parse(&format!("{SPEC_HEADER}\n{line}\n")).unwrap_err() {
                SpecError::Value { line: 2, msg, .. } => assert!(msg.contains(field), "{msg}"),
                other => panic!("'{line}' must be a named value error, got {other:?}"),
            }
        }
        // Repeated flags still override: each is its own layer.
        let args: Vec<String> =
            ["--groups", "5", "--groups", "9", "--smoke"].map(String::from).to_vec();
        let spec = ExperimentSpec::default().resolve_with(|_| None, &args).unwrap();
        assert_eq!(spec.params, DragonflyParams::tiny_72(), "--smoke applies last");
        let args: Vec<String> = ["--seed", "5", "--seed", "9"].map(String::from).to_vec();
        assert_eq!(ExperimentSpec::default().resolve_with(|_| None, &args).unwrap().seed, 9);
    }

    /// Every input outside the key table: a shorthand lands on its key, a
    /// presentation flag leaves the spec as it was.
    #[test]
    fn every_shorthand_lands_on_its_key_and_presentation_flags_change_nothing() {
        let dir = std::env::temp_dir().join(format!("dfsim_shorthands_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("seed.spec");
        std::fs::write(&file, format!("{SPEC_HEADER}\nseed 5\n")).unwrap();
        let base = ExperimentSpec {
            workload: Workload::pairwise(AppKind::LU, Some(AppKind::UR)),
            params: DragonflyParams::tiny_72(),
            routings: vec![RoutingAlgo::QAdaptive],
            cache: CacheMode::On,
            ..Default::default()
        };
        type Edit = fn(&mut ExperimentSpec);
        let flags: [(&str, &[&str], Edit); 12] = [
            ("--spec", &[file.to_str().unwrap()], |s| s.seed = 5),
            ("--rate", &["2.5"], |s| s.rates = vec![2.5]),
            ("--groups", &["5"], |s| s.params.groups = 5),
            ("--routers", &["5"], |s| s.params.routers_per_group = 5),
            ("--nodes", &["3"], |s| s.params.nodes_per_router = 3),
            ("--globals", &["3"], |s| s.params.globals_per_router = 3),
            ("--qtable", &["load=/tmp/q.snap"], |s| s.qtable_load = Some("/tmp/q.snap".into())),
            ("--contiguous", &[], |s| s.placement = Placement::Contiguous),
            ("--no-cache", &[], |s| s.cache = CacheMode::Off),
            ("--smoke", &[], |s| s.scale = 2_048.0),
            ("--csv", &[], |_| {}),
            ("--engine-stats", &[], |_| {}),
        ];
        let listed: Vec<&str> = flags.iter().map(|(f, ..)| *f).collect();
        assert_eq!(listed, CLI_SHORTHANDS, "one case per shorthand or presentation flag");
        for (flag, values, edit) in flags {
            let args: Vec<String> =
                std::iter::once(flag).chain(values.iter().copied()).map(String::from).collect();
            let mut want = base.clone();
            edit(&mut want);
            let presentation = matches!(flag, "--csv" | "--engine-stats");
            assert_eq!(
                want == base,
                presentation,
                "{flag}: only presentation flags change nothing"
            );
            let got = base.clone().resolve_with(|_| None, &args);
            assert_eq!(got.unwrap_or_else(|e| panic!("{flag}: {e}")), want, "{flag}");
        }

        let vars: [(&str, &str, Edit); 2] = [
            ("TARGET", "FFT3D", |s| {
                s.workload = Workload::pairwise(AppKind::FFT3D, Some(AppKind::UR))
            }),
            ("BG", "none", |s| s.workload = Workload::pairwise(AppKind::LU, None)),
        ];
        let listed: Vec<&str> = vars.iter().map(|(v, ..)| *v).collect();
        assert_eq!(listed, ENV_SHORTHANDS, "one case per environment shorthand");
        for (var, value, edit) in vars {
            let mut want = base.clone();
            edit(&mut want);
            let env = |v: &str| (v == var).then(|| value.to_string());
            let got = base.clone().resolve_env_with(&ENV_SHORTHANDS, env, &[]).unwrap();
            assert_eq!(got, want, "{var}={value}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
