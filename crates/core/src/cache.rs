//! Content-addressed result cache: canonical-spec hash in, [`RunReport`]
//! out.
//!
//! PR 5 made [`ExperimentSpec::emit`] byte-stable and PR 7 made reports
//! losslessly serializable; this module combines the two into a persistent
//! cache so re-running an experiment whose canonical spec was already
//! simulated is a disk read instead of a simulation:
//!
//! * [`cache_key`] — a stable 128-bit FNV-1a hash over the *normalized*
//!   canonical emit, salted with the [`CACHE_HEADER`] format version. Each
//!   key's cache class (the `class` of its row in `spec.rs`'s `KEYS` table)
//!   decides whether its line comes from the spec or from the defaults:
//!   output-only knobs (`trace`, `qtable_save`, `snapshot`, `threads`,
//!   `cache` itself) and sweep-only fields the run does not consume never
//!   cause spurious misses; the `qtable_load` *file content* (not its
//!   path) is folded in, so a changed snapshot under the same path
//!   invalidates the key.
//! * [`ResultCache`] — the disk store (one `KEY.report` file per entry
//!   under [`CacheMode`]'s directory): a `dfsim-cache v2` header line, the
//!   recorded key, then little-endian blobs over the checked codec of
//!   `dfsim_metrics::trace`, so cached reports replay bit for bit.
//!   Q-adaptive entries embed the learned Q-table snapshot in its binary
//!   form ([`QTableSnapshot::encode`]: the fingerprint, then every table
//!   as raw `f64` bits), so a hit returns the full-fidelity
//!   [`crate::simulation::RunHandle`] for the price of one file read and a
//!   copy — 1.3 MB and well under a millisecond on the paper system.
//! * Named failures ([`CacheError`]); a corrupt, truncated or
//!   version-bumped entry degrades to a **miss with a warning**, never an
//!   error — the cache must only ever make things faster. Entries of an
//!   older format version (`dfsim-cache v1` stored the snapshot as text)
//!   are never addressed again, because the version salts every key;
//!   [`ResultCache::gc`] removes them.
//!
//! [`crate::simulation::Simulation::run`] consults the cache when the
//! spec's `cache` key enables it; the sweep binaries inherit the behavior
//! per cell through [`ExperimentSpec::cell`]. Process-wide hit/miss/store
//! counters ([`session_stats`]) feed the binaries' provenance summaries.

#![expect(
    clippy::disallowed_types,
    reason = "cache GC ages entries by file mtime; the clock never feeds a report"
)]
// Codec over external input: a short or corrupt file must surface as a
// named error, never as a panic or a silently wrapped value.
#![deny(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::integer_division
)]
// Hot path: a panic here is an outage. Rewrite it onto the error enum,
// or waive it with the invariant that rules it out.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dfsim_network::QTableSnapshot;

use crate::report::{
    get_job_reports, put_job_reports, AppReport, EngineReport, LearningReport, NetworkReport,
    RunReport,
};
use crate::spec::{ExperimentSpec, Workload};
use dfsim_des::wire::{len_u32, put_f64, put_str, put_u32, put_u64, put_u8, WireError, WireReader};
use dfsim_metrics::{LatencySummary, Stats};

/// Magic header of every cache entry file, and the version salt of every
/// cache key. Bumping it invalidates the whole cache: old entries fail the
/// header check and old keys never collide with new ones.
pub const CACHE_HEADER: &str = "dfsim-cache v2";

/// The cache directory of `cache on`, relative to the working directory
/// (`cache DIR` picks any other).
pub const DEFAULT_CACHE_DIR: &str = ".dfsim-cache";

/// Version word leading the report blob inside an entry file.
const REPORT_BLOB_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Mode
// ---------------------------------------------------------------------------

/// The spec's `cache` knob: where (and whether) run results are cached.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No caching (the default).
    #[default]
    Off,
    /// Cache under [`DEFAULT_CACHE_DIR`] in the working directory.
    On,
    /// Cache under an explicit directory.
    Dir(PathBuf),
}

impl CacheMode {
    /// Parse the spec/CLI value: `on`, `off`, or a directory path (spell a
    /// literal directory named `on` as `./on`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let t = s.trim();
        if t.is_empty() {
            return Err("empty cache value (valid: on, off, or a directory path)".to_string());
        }
        if t.eq_ignore_ascii_case("on") {
            Ok(CacheMode::On)
        } else if t.eq_ignore_ascii_case("off") {
            Ok(CacheMode::Off)
        } else {
            Ok(CacheMode::Dir(PathBuf::from(t)))
        }
    }

    /// Canonical spec-file rendering (the `cache` line's value).
    pub fn describe(&self) -> String {
        match self {
            CacheMode::Off => "off".to_string(),
            CacheMode::On => "on".to_string(),
            CacheMode::Dir(p) => p.display().to_string(),
        }
    }

    /// Whether this mode caches at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// The directory this mode resolves to (`None` when off).
    pub fn dir(&self) -> Option<PathBuf> {
        match self {
            CacheMode::Off => None,
            CacheMode::On => Some(PathBuf::from(DEFAULT_CACHE_DIR)),
            CacheMode::Dir(p) => Some(p.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a cache operation failed. Lookup paths treat every variant as a
/// miss (with a stderr warning); only the explicit maintenance commands
/// (`dfsim cache …`) surface them.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// A filesystem operation failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error rendering.
        msg: String,
    },
    /// An entry (or blob) carries an unknown format version.
    Version {
        /// What was found instead of [`CACHE_HEADER`] (or the blob
        /// version word).
        found: String,
    },
    /// An entry's recorded key does not match the key that addressed it
    /// (a renamed or hash-collided file).
    HashMismatch {
        /// The key the entry was looked up under.
        expected: String,
        /// The key recorded inside the entry.
        found: String,
    },
    /// An entry is structurally broken (truncated, bad UTF-8, …).
    Malformed {
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io { path, msg } => write!(f, "cache {}: {msg}", path.display()),
            CacheError::Version { found } => {
                write!(
                    f,
                    "cache entry version mismatch: expected '{CACHE_HEADER}', found '{found}'"
                )
            }
            CacheError::HashMismatch { expected, found } => {
                write!(f, "cache entry key mismatch: addressed as {expected}, recorded as {found}")
            }
            CacheError::Malformed { msg } => write!(f, "malformed cache entry: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<WireError> for CacheError {
    fn from(e: WireError) -> Self {
        CacheError::Malformed { msg: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// A content-addressed cache key: FNV-1a-128 over the version-salted,
/// normalized canonical spec emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// 32-char lowercase hex form (the entry's file stem).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// FNV-1a, 128-bit (offset basis and prime per the FNV reference).
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// How one spec key participates in the content-addressed cache key (the
/// `class` of its `KEYS` row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyClass {
    /// Changing the key can change the report: full key material.
    Relevant,
    /// Output-only or host-side knob the report is provably invariant
    /// under: rendered from the defaults in the key material.
    Normalized,
    /// Participates by the *content* of the file it names, not by the
    /// path value itself (`qtable_load`).
    ContentHashed,
    /// Workload-conditional: key material only for the workload forms
    /// that read it, rendered from the defaults otherwise (the Poisson
    /// generator fields).
    Conditional,
}

/// The canonical emit of `spec` projected onto exactly the fields that
/// determine the report: each row whose [`KeyClass`] makes it key material
/// is rendered from `spec`, every other row from
/// [`ExperimentSpec::default`], so those keys never cause spurious misses.
/// (`threads` may be `Normalized` because reports are bit-identical at any
/// partition count, which the `partition_equivalence` suite pins.)
fn emit_key_material(spec: &ExperimentSpec, out: &mut String) {
    let poisson = matches!(spec.workload, Workload::Poisson);
    let mut spec = Cow::Borrowed(spec);
    if poisson {
        spec.to_mut().rates.truncate(1); // the only rate the generator reads
    }
    let default = ExperimentSpec::default();
    ExperimentSpec::emit_rows(out, |key| match key.class {
        KeyClass::Relevant => &*spec,
        KeyClass::Conditional if poisson => &*spec,
        KeyClass::Conditional | KeyClass::Normalized | KeyClass::ContentHashed => &default,
    });
}

/// Compute the content-addressed key of a spec, reading a configured
/// `qtable_load` snapshot for content-hashing. Fails (as a lookup-level
/// miss) only when that file cannot be read.
pub fn cache_key(spec: &ExperimentSpec) -> Result<CacheKey, CacheError> {
    let load = spec.qtable_load.as_ref().map(|path| {
        std::fs::read(path).map_err(|e| CacheError::Io { path: path.clone(), msg: e.to_string() })
    });
    Ok(key_of(spec, load.transpose()?.as_deref()))
}

/// The key of `spec` whose `qtable_load` file holds the bytes `load`
/// (`None` exactly when the spec names no snapshot). A session hashes the
/// bytes it read once and runs from, so its key is [`cache_key`] over the
/// file as it was then.
pub(crate) fn key_of(spec: &ExperimentSpec, load: Option<&[u8]>) -> CacheKey {
    let mut material = String::new();
    material.push_str(CACHE_HEADER);
    material.push('\n');
    if let Some(bytes) = load {
        material.push_str(&format!("qtable_load_content {:032x}\n", fnv1a_128(bytes)));
    }
    emit_key_material(spec, &mut material);
    CacheKey(fnv1a_128(material.as_bytes()))
}

// ---------------------------------------------------------------------------
// Report blob codec
// ---------------------------------------------------------------------------

fn put_stats(b: &mut Vec<u8>, s: &Stats) {
    put_u64(b, s.n as u64);
    put_f64(b, s.mean);
    put_f64(b, s.std);
    put_f64(b, s.min);
    put_f64(b, s.max);
}

fn put_latency(b: &mut Vec<u8>, l: &LatencySummary) {
    put_u64(b, l.n as u64);
    put_f64(b, l.mean);
    put_f64(b, l.q1);
    put_f64(b, l.median);
    put_f64(b, l.q3);
    put_f64(b, l.p95);
    put_f64(b, l.p99);
    put_f64(b, l.max);
}

fn put_series(b: &mut Vec<u8>, s: &[(f64, f64)]) {
    put_u32(b, len_u32(s.len(), "a series length"));
    for &(x, y) in s {
        put_f64(b, x);
        put_f64(b, y);
    }
}

fn put_f64s(b: &mut Vec<u8>, v: &[f64]) {
    put_u32(b, len_u32(v.len(), "a vector length"));
    for &x in v {
        put_f64(b, x);
    }
}

fn put_matrix(b: &mut Vec<u8>, m: &[Vec<f64>]) {
    put_u32(b, len_u32(m.len(), "a matrix row count"));
    for row in m {
        put_f64s(b, row);
    }
}

/// Encode a full [`RunReport`] as a versioned little-endian blob (`f64`s
/// as raw bits, so a decoded report is bit-identical to the original).
/// Tests compare reports by comparing these bytes — the report type itself
/// deliberately has no `PartialEq`.
pub fn encode_report(r: &RunReport) -> Vec<u8> {
    let mut b = Vec::with_capacity(4096);
    put_u32(&mut b, REPORT_BLOB_VERSION);
    put_str(&mut b, &r.routing);
    put_str(&mut b, &r.queue);
    put_u64(&mut b, r.seed);
    put_f64(&mut b, r.scale);
    put_u8(&mut b, u8::from(r.completed));
    put_str(&mut b, &r.stop_reason);
    put_f64(&mut b, r.sim_ms);
    put_u64(&mut b, r.events);
    put_f64(&mut b, r.wall_s);
    put_u32(&mut b, len_u32(r.apps.len(), "the app count"));
    for a in &r.apps {
        put_str(&mut b, &a.name);
        put_u32(&mut b, u32::from(a.app));
        put_u32(&mut b, a.size);
        put_stats(&mut b, &a.comm_ms);
        put_f64(&mut b, a.exec_ms);
        put_f64(&mut b, a.total_msg_mb);
        put_f64(&mut b, a.inj_rate_gbs);
        put_u64(&mut b, a.peak_ingress_bytes);
        put_latency(&mut b, &a.latency_us);
        put_series(&mut b, &a.throughput);
        put_series(&mut b, &a.latency_series);
        put_f64(&mut b, a.delivery_ratio);
        put_f64(&mut b, a.detour_frac);
        put_f64(&mut b, a.mean_hops);
    }
    put_job_reports(&mut b, &r.jobs);
    let n = &r.network;
    put_f64s(&mut b, &n.local_stall_ms);
    put_matrix(&mut b, &n.global_stall_ms);
    put_f64(&mut b, n.avg_local_stall_ms);
    put_f64(&mut b, n.avg_global_stall_ms);
    put_matrix(&mut b, &n.congestion);
    put_f64(&mut b, n.mean_global_congestion);
    put_f64(&mut b, n.std_global_congestion);
    put_latency(&mut b, &n.system_latency_us);
    put_series(&mut b, &n.system_throughput);
    put_f64(&mut b, n.mean_system_throughput);
    put_f64(&mut b, n.total_delivered_gb);
    let e = &r.engine;
    put_str(&mut b, &e.backend);
    put_u64(&mut b, e.events_scheduled);
    put_u64(&mut b, e.peak_pending);
    put_u64(&mut b, e.resizes);
    put_u64(&mut b, e.bucket_scans);
    put_u64(&mut b, e.sparse_jumps);
    put_u64(&mut b, e.final_buckets);
    put_u64(&mut b, e.final_width_ps);
    put_f64(&mut b, e.events_per_sec);
    match &r.learning {
        None => put_u8(&mut b, 0),
        Some(l) => {
            put_u8(&mut b, 1);
            put_str(&mut b, &l.init);
            put_u64(&mut b, l.updates);
            put_f64(&mut b, l.mean_abs_dq1_ns);
            put_series(&mut b, &l.series);
        }
    }
    b
}

fn get_stats(c: &mut WireReader<'_>, what: &'static str) -> Result<Stats, WireError> {
    Ok(Stats {
        n: c.count64(what)?,
        mean: c.f64(what)?,
        std: c.f64(what)?,
        min: c.f64(what)?,
        max: c.f64(what)?,
    })
}

fn get_latency(c: &mut WireReader<'_>, what: &'static str) -> Result<LatencySummary, WireError> {
    Ok(LatencySummary {
        n: c.count64(what)?,
        mean: c.f64(what)?,
        q1: c.f64(what)?,
        median: c.f64(what)?,
        q3: c.f64(what)?,
        p95: c.f64(what)?,
        p99: c.f64(what)?,
        max: c.f64(what)?,
    })
}

fn get_series(c: &mut WireReader<'_>, what: &'static str) -> Result<Vec<(f64, f64)>, WireError> {
    c.list(what, |c| Ok((c.f64(what)?, c.f64(what)?)))
}

fn get_f64s(c: &mut WireReader<'_>, what: &'static str) -> Result<Vec<f64>, WireError> {
    c.list(what, |c| c.f64(what))
}

fn get_matrix(c: &mut WireReader<'_>, what: &'static str) -> Result<Vec<Vec<f64>>, WireError> {
    c.list(what, |c| get_f64s(c, what))
}

/// Decode a blob written by [`encode_report`].
pub fn decode_report(blob: &[u8]) -> Result<RunReport, CacheError> {
    let mut c = WireReader::new(blob);
    let ver = c.u32("the report blob version")?;
    if ver != REPORT_BLOB_VERSION {
        return Err(CacheError::Version { found: format!("report blob v{ver}") });
    }
    let routing = c.str("routing")?;
    let queue = c.str("queue")?;
    let seed = c.u64("seed")?;
    let scale = c.f64("scale")?;
    let completed = c.u8("completed")? != 0;
    let stop_reason = c.str("stop_reason")?;
    let sim_ms = c.f64("sim_ms")?;
    let events = c.u64("events")?;
    let wall_s = c.f64("wall_s")?;
    let napps = c.len("app count")?;
    let mut apps = Vec::with_capacity(napps.min(1 << 16));
    for _ in 0..napps {
        let name = c.str("app.name")?;
        let app_word = c.u32("app.app")?;
        let app = u16::try_from(app_word).map_err(|_| CacheError::Malformed {
            msg: format!("app id {app_word} overflows u16"),
        })?;
        apps.push(AppReport {
            name,
            app,
            size: c.u32("app.size")?,
            comm_ms: get_stats(&mut c, "app.comm_ms")?,
            exec_ms: c.f64("app.exec_ms")?,
            total_msg_mb: c.f64("app.total_msg_mb")?,
            inj_rate_gbs: c.f64("app.inj_rate_gbs")?,
            peak_ingress_bytes: c.u64("app.peak_ingress_bytes")?,
            latency_us: get_latency(&mut c, "app.latency_us")?,
            throughput: get_series(&mut c, "app.throughput")?,
            latency_series: get_series(&mut c, "app.latency_series")?,
            delivery_ratio: c.f64("app.delivery_ratio")?,
            detour_frac: c.f64("app.detour_frac")?,
            mean_hops: c.f64("app.mean_hops")?,
        });
    }
    let jobs = get_job_reports(&mut c)?;
    let network = NetworkReport {
        local_stall_ms: get_f64s(&mut c, "network.local_stall_ms")?,
        global_stall_ms: get_matrix(&mut c, "network.global_stall_ms")?,
        avg_local_stall_ms: c.f64("network.avg_local_stall_ms")?,
        avg_global_stall_ms: c.f64("network.avg_global_stall_ms")?,
        congestion: get_matrix(&mut c, "network.congestion")?,
        mean_global_congestion: c.f64("network.mean_global_congestion")?,
        std_global_congestion: c.f64("network.std_global_congestion")?,
        system_latency_us: get_latency(&mut c, "network.system_latency_us")?,
        system_throughput: get_series(&mut c, "network.system_throughput")?,
        mean_system_throughput: c.f64("network.mean_system_throughput")?,
        total_delivered_gb: c.f64("network.total_delivered_gb")?,
    };
    let engine = EngineReport {
        backend: c.str("engine.backend")?,
        events_scheduled: c.u64("engine.events_scheduled")?,
        peak_pending: c.u64("engine.peak_pending")?,
        resizes: c.u64("engine.resizes")?,
        bucket_scans: c.u64("engine.bucket_scans")?,
        sparse_jumps: c.u64("engine.sparse_jumps")?,
        final_buckets: c.u64("engine.final_buckets")?,
        final_width_ps: c.u64("engine.final_width_ps")?,
        events_per_sec: c.f64("engine.events_per_sec")?,
    };
    let learning = if c.u8("learning flag")? != 0 {
        Some(LearningReport {
            init: c.str("learning.init")?,
            updates: c.u64("learning.updates")?,
            mean_abs_dq1_ns: c.f64("learning.mean_abs_dq1_ns")?,
            series: get_series(&mut c, "learning.series")?,
        })
    } else {
        None
    };
    Ok(RunReport {
        routing,
        queue,
        seed,
        scale,
        completed,
        stop_reason,
        sim_ms,
        events,
        wall_s,
        apps,
        jobs,
        network,
        engine,
        learning,
    })
}

// ---------------------------------------------------------------------------
// The disk store
// ---------------------------------------------------------------------------

/// One decoded cache entry: the report plus the Q-table snapshot a
/// Q-adaptive run learned (embedded so a hit can still honor
/// `qtable_save`).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The cached run report (bit-identical to the original).
    pub report: RunReport,
    /// The learned Q-tables of the original run (Q-adaptive only).
    pub snapshot: Option<QTableSnapshot>,
}

/// Aggregate statistics of a cache directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `.report` entries.
    pub entries: u64,
    /// Total bytes they occupy.
    pub bytes: u64,
}

/// One entry's listing row (`dfsim cache ls`).
#[derive(Debug, Clone)]
pub struct CacheEntryInfo {
    /// The 32-hex-char key (file stem).
    pub key: String,
    /// Entry size, bytes.
    pub bytes: u64,
    /// Seconds since the entry was written (0 when mtime is unavailable).
    pub age_s: u64,
    /// `routing/queue seed scale` of the cached report, or a corruption
    /// note.
    pub describe: String,
}

/// What a [`ResultCache::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries removed.
    pub removed: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Entries kept.
    pub kept: u64,
    /// Bytes kept.
    pub kept_bytes: u64,
}

// Process-wide provenance counters (the binaries' cache summaries).
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);

/// Process-wide cache hit/miss/store counts since startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that fell through to a live simulation (including corrupt
    /// entries degraded to misses).
    pub misses: u64,
    /// Entries written after live runs.
    pub stores: u64,
}

/// Read the process-wide cache counters.
pub fn session_stats() -> SessionStats {
    SessionStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
    }
}

/// A content-addressed report store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if necessary) the store `mode` names. `Ok(None)`
    /// when the mode is [`CacheMode::Off`].
    pub fn open(mode: &CacheMode) -> Result<Option<Self>, CacheError> {
        let Some(dir) = mode.dir() else { return Ok(None) };
        std::fs::create_dir_all(&dir)
            .map_err(|e| CacheError::Io { path: dir.clone(), msg: e.to_string() })?;
        Ok(Some(Self { dir }))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a key addresses.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.report", key.hex()))
    }

    /// Strict load: `Ok(None)` when the entry does not exist, a named
    /// error when it exists but cannot be decoded. The lenient lookup the
    /// run path uses is [`Self::lookup`].
    pub fn load(&self, key: &CacheKey) -> Result<Option<CacheEntry>, CacheError> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CacheError::Io { path, msg: e.to_string() }),
        };
        Ok(Some(decode_entry(&bytes, key)?))
    }

    /// Lenient lookup for the run path: any failure (corrupt entry,
    /// version bump, unreadable file) degrades to a miss with a one-line
    /// stderr warning. Counts into [`session_stats`].
    pub fn lookup(&self, key: &CacheKey) -> Option<CacheEntry> {
        match self.load(key) {
            Ok(Some(entry)) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Ok(None) => {
                MISSES.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                eprintln!(
                    "warning: result cache entry {} unusable ({e}); simulating",
                    self.entry_path(key).display()
                );
                MISSES.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Write an entry (atomically: temp file + rename, so parallel sweep
    /// cells never observe a half-written entry).
    pub fn store(
        &self,
        key: &CacheKey,
        report: &RunReport,
        snapshot: Option<&QTableSnapshot>,
    ) -> Result<(), CacheError> {
        let mut bytes = Vec::with_capacity(4096);
        bytes.extend_from_slice(CACHE_HEADER.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(key.hex().as_bytes());
        bytes.push(b'\n');
        let blob = encode_report(report);
        put_u32(&mut bytes, len_u32(blob.len(), "the report blob length"));
        bytes.extend_from_slice(&blob);
        match snapshot {
            None => put_u8(&mut bytes, 0),
            Some(s) => {
                put_u8(&mut bytes, 1);
                s.encode(&mut bytes);
            }
        }
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            STORES.load(Ordering::Relaxed)
        ));
        let io = |p: &Path, e: std::io::Error| CacheError::Io {
            path: p.to_path_buf(),
            msg: e.to_string(),
        };
        std::fs::write(&tmp, &bytes).map_err(|e| io(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io(&path, e)
        })?;
        STORES.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// [`Self::store`] for the run path: a failed write warns and moves on
    /// (a cache must never fail a run that just succeeded).
    pub fn store_lenient(
        &self,
        key: &CacheKey,
        report: &RunReport,
        snapshot: Option<&QTableSnapshot>,
    ) {
        if let Err(e) = self.store(key, report, snapshot) {
            eprintln!("warning: result cache store failed ({e}); result not cached");
        }
    }

    /// Every `.report` entry's `(path, bytes, modified)`, oldest first.
    fn raw_entries(&self) -> Result<Vec<(PathBuf, u64, std::time::SystemTime)>, CacheError> {
        let io = |e: std::io::Error| CacheError::Io { path: self.dir.clone(), msg: e.to_string() };
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(io)? {
            let entry = entry.map_err(io)?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("report") {
                continue;
            }
            let meta = entry.metadata().map_err(io)?;
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            out.push((path, meta.len(), mtime));
        }
        out.sort_by_key(|(_, _, t)| *t);
        Ok(out)
    }

    /// Aggregate entry count and byte total.
    pub fn stats(&self) -> Result<CacheStats, CacheError> {
        let mut s = CacheStats::default();
        for (_, bytes, _) in self.raw_entries()? {
            s.entries += 1;
            s.bytes += bytes;
        }
        Ok(s)
    }

    /// Listing rows for `dfsim cache ls`, oldest first. Each row decodes
    /// its entry to describe the cached run; undecodable entries are
    /// listed with the failure instead of being hidden.
    pub fn entries(&self) -> Result<Vec<CacheEntryInfo>, CacheError> {
        let now = std::time::SystemTime::now();
        let mut out = Vec::new();
        for (path, bytes, mtime) in self.raw_entries()? {
            let key = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?").to_string();
            let describe = match std::fs::read(&path) {
                Ok(raw) => match decode_entry_unchecked(&raw) {
                    Ok(entry) => {
                        let r = &entry.report;
                        format!(
                            "{}/{} seed {} scale {}{}",
                            r.routing,
                            r.queue,
                            r.seed,
                            r.scale,
                            if entry.snapshot.is_some() { " +qtables" } else { "" }
                        )
                    }
                    Err(e) => format!("(unusable: {e})"),
                },
                Err(e) => format!("(unreadable: {e})"),
            };
            let age_s = now.duration_since(mtime).map(|d| d.as_secs()).unwrap_or(0);
            out.push(CacheEntryInfo { key, bytes, age_s, describe });
        }
        Ok(out)
    }

    /// Evict entries: first every orphan (an entry of an older `dfsim-cache`
    /// format version, which no key addresses any more) and everything
    /// older than `max_age_s` seconds, then (if `max_bytes` is set)
    /// oldest-first until the directory fits.
    pub fn gc(
        &self,
        max_age_s: Option<u64>,
        max_bytes: Option<u64>,
    ) -> Result<GcOutcome, CacheError> {
        let now = std::time::SystemTime::now();
        let mut out = GcOutcome::default();
        let io = |p: &Path, e: std::io::Error| CacheError::Io {
            path: p.to_path_buf(),
            msg: e.to_string(),
        };
        let mut entries = Vec::new();
        for (path, bytes, mtime) in self.raw_entries()? {
            let age_s = now.duration_since(mtime).map(|d| d.as_secs()).unwrap_or(0);
            if is_orphan(&path) || max_age_s.is_some_and(|max| age_s > max) {
                std::fs::remove_file(&path).map_err(|e| io(&path, e))?;
                out.removed += 1;
                out.freed_bytes += bytes;
            } else {
                entries.push((path, bytes, mtime));
            }
        }
        if let Some(cap) = max_bytes {
            let mut total: u64 = entries.iter().map(|(_, b, _)| b).sum();
            let mut evicted = 0;
            for (path, bytes, _) in &entries {
                if total <= cap {
                    break;
                }
                std::fs::remove_file(path).map_err(|e| io(path, e))?;
                out.removed += 1;
                out.freed_bytes += bytes;
                total -= bytes;
                evicted += 1;
            }
            entries.drain(..evicted);
        }
        out.kept = entries.len() as u64;
        out.kept_bytes = entries.iter().map(|(_, b, _)| b).sum();
        Ok(out)
    }
}

/// Whether the entry at `path` opens with an older `dfsim-cache` version's
/// header. Keys are salted with the version, so such an entry is never
/// looked up again. Unreadable files, foreign data and newer versions are
/// not orphans: they stay visible to `dfsim cache ls` as unusable.
fn is_orphan(path: &Path) -> bool {
    use std::io::Read;
    let family = CACHE_HEADER.trim_end_matches(|c: char| c.is_ascii_digit());
    let version = |line: &[u8]| -> Option<u32> {
        std::str::from_utf8(line).ok()?.strip_prefix(family)?.parse().ok()
    };
    let mut head = Vec::with_capacity(64);
    if std::fs::File::open(path).and_then(|f| f.take(64).read_to_end(&mut head)).is_err() {
        return false;
    }
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    matches!((version(line), version(CACHE_HEADER.as_bytes())), (Some(v), Some(cur)) if v < cur)
}

/// Decode an entry file, verifying header and recorded key.
fn decode_entry(bytes: &[u8], key: &CacheKey) -> Result<CacheEntry, CacheError> {
    let (entry, recorded) = decode_entry_inner(bytes)?;
    if recorded != key.hex() {
        return Err(CacheError::HashMismatch { expected: key.hex(), found: recorded });
    }
    Ok(entry)
}

/// Decode an entry file without a key to check against (`dfsim cache ls`).
fn decode_entry_unchecked(bytes: &[u8]) -> Result<CacheEntry, CacheError> {
    decode_entry_inner(bytes).map(|(e, _)| e)
}

fn decode_entry_inner(bytes: &[u8]) -> Result<(CacheEntry, String), CacheError> {
    let malformed = |msg: &str| CacheError::Malformed { msg: msg.to_string() };
    let mut rest = bytes;
    let mut line = |what: &str| -> Result<String, CacheError> {
        let nl = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| malformed(&format!("missing {what} line")))?;
        let (head, tail) = rest.split_at(nl);
        let s = std::str::from_utf8(head)
            .map_err(|_| malformed(&format!("{what} line is not UTF-8")))?
            .to_string();
        // `tail` starts at the newline `position` found, so it is never empty.
        rest = tail.get(1..).unwrap_or(&[]);
        Ok(s)
    };
    let header = line("header")?;
    if header != CACHE_HEADER {
        return Err(CacheError::Version { found: header });
    }
    let recorded_key = line("key")?;
    let mut c = WireReader::new(rest);
    let blob_len = c.len("report blob length")?;
    let blob = c.bytes(blob_len, "report blob")?;
    let report = decode_report(blob)?;
    let snapshot = if c.u8("snapshot flag")? != 0 {
        Some(
            QTableSnapshot::decode(&mut c)
                .map_err(|e| malformed(&format!("embedded snapshot: {e}")))?,
        )
    } else {
        None
    };
    Ok((CacheEntry { report, snapshot }, recorded_key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_apps::AppKind;
    use dfsim_network::RoutingAlgo;

    #[test]
    fn fnv_reference_vectors() {
        // FNV-1a 128 of the empty string is the offset basis; "a" and
        // "foobar" exercise the prime multiply.
        assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
        assert_ne!(fnv1a_128(b"foobar"), fnv1a_128(b"foobaz"));
    }

    #[test]
    fn cache_mode_parses_and_round_trips() {
        assert_eq!(CacheMode::parse("on").unwrap(), CacheMode::On);
        assert_eq!(CacheMode::parse("OFF").unwrap(), CacheMode::Off);
        assert_eq!(CacheMode::parse("/tmp/c").unwrap(), CacheMode::Dir("/tmp/c".into()));
        assert!(CacheMode::parse("  ").is_err());
        for m in [CacheMode::Off, CacheMode::On, CacheMode::Dir("/tmp/c".into())] {
            assert_eq!(CacheMode::parse(&m.describe()).unwrap(), m);
        }
    }

    #[test]
    fn key_is_stable_under_output_knobs_and_distinct_under_inputs() {
        let base = ExperimentSpec { routings: vec![RoutingAlgo::UgalG], ..Default::default() };
        let key = cache_key(&base).unwrap();
        // Output-only knobs must not move the key.
        let mut traced = base.clone();
        traced.trace = Some("/tmp/t.trace".into());
        traced.threads = 4;
        traced.cache = CacheMode::On;
        assert_eq!(cache_key(&traced).unwrap(), key);
        // Inputs must.
        let mut seeded = base.clone();
        seeded.seed += 1;
        assert_ne!(cache_key(&seeded).unwrap(), key);
        let mut scaled = base.clone();
        scaled.scale *= 2.0;
        assert_ne!(cache_key(&scaled).unwrap(), key);
        let mut routed = base.clone();
        routed.routings = vec![RoutingAlgo::Par];
        assert_ne!(cache_key(&routed).unwrap(), key);
    }

    /// Every spec key has exactly one row, listed in row order.
    #[test]
    fn classification_covers_every_spec_key() {
        use crate::spec::{KEYS, SPEC_KEYS};
        assert_eq!(SPEC_KEYS.len(), KEYS.len());
        for (i, key) in KEYS.iter().enumerate() {
            assert_eq!(SPEC_KEYS[i], key.name);
            assert!(!SPEC_KEYS[..i].contains(&key.name), "`{}` has two rows", key.name);
        }
    }

    /// The key material renders every key that is not key material from the
    /// defaults: the defaults are a fixed point, and a spec with every
    /// normalized knob set yields the defaults' material.
    #[test]
    fn classification_matches_normalization_behaviour() {
        let material = |spec: &ExperimentSpec| {
            let mut out = String::new();
            emit_key_material(spec, &mut out);
            out
        };
        let d = ExperimentSpec::default();
        assert_eq!(material(&d), d.emit(), "defaults must be a fixed point");

        let loud = ExperimentSpec {
            trace: Some("/tmp/x.trace".into()),
            qtable_save: Some("/tmp/x.qtable".into()),
            snapshot: Some("/tmp/x.snap".into()),
            threads: 8,
            cache: CacheMode::On,
            targets: vec![AppKind::Halo3D],
            train: AppKind::LQCD,
            qtable_load: Some("/tmp/x.load".into()),
            ..ExperimentSpec::default()
        };
        assert_eq!(material(&loud), d.emit());
    }

    #[test]
    fn poisson_generator_fields_only_key_poisson_runs() {
        let stat = ExperimentSpec { routings: vec![RoutingAlgo::UgalG], ..Default::default() };
        let key = cache_key(&stat).unwrap();
        let mut other = stat.clone();
        other.rates = vec![99.0];
        other.jobs = 123;
        assert_eq!(cache_key(&other).unwrap(), key, "static runs ignore the poisson generator");
        let mut poisson = stat.clone();
        poisson.workload = Workload::Poisson;
        let pkey = cache_key(&poisson).unwrap();
        assert_ne!(pkey, key);
        let mut pj = poisson.clone();
        pj.jobs = 123;
        assert_ne!(cache_key(&pj).unwrap(), pkey, "poisson runs consume jobs");
        let mut extra_rates = poisson.clone();
        extra_rates.rates = vec![1.0, 7.0];
        assert_eq!(
            cache_key(&extra_rates).unwrap(),
            pkey,
            "only the first rate feeds the generator"
        );
    }

    #[test]
    fn gc_by_age_and_size() {
        let dir = std::env::temp_dir().join(format!("dfsim_cache_gc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&CacheMode::Dir(dir.clone())).unwrap().unwrap();
        // Three fake entries of known sizes (gc only looks at fs metadata).
        for (name, len) in [("a", 100usize), ("b", 200), ("c", 300)] {
            std::fs::write(dir.join(format!("{name}.report")), vec![0u8; len]).unwrap();
        }
        let s = cache.stats().unwrap();
        assert_eq!((s.entries, s.bytes), (3, 600));
        // Nothing is older than an hour.
        let out = cache.gc(Some(3600), None).unwrap();
        assert_eq!(out.removed, 0);
        // Size cap evicts oldest-first until under.
        let out = cache.gc(None, Some(350)).unwrap();
        assert!(out.removed >= 1, "{out:?}");
        assert!(out.kept_bytes <= 350, "{out:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_entries_of_older_format_versions() {
        let dir = std::env::temp_dir().join(format!("dfsim_cache_orphans_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&CacheMode::Dir(dir.clone())).unwrap().unwrap();
        for (name, head) in [
            ("old", "dfsim-cache v1\n"),
            ("current", &format!("{CACHE_HEADER}\n")),
            ("future", "dfsim-cache v99\n"),
            ("foreign", "not a cache entry\n"),
        ] {
            std::fs::write(dir.join(format!("{name}.report")), head).unwrap();
        }
        let out = cache.gc(None, None).unwrap();
        assert_eq!((out.removed, out.kept), (1, 3), "{out:?}");
        assert!(!dir.join("old.report").exists(), "the v1 entry is the orphan");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
