//! Q-table lifecycle: versioned snapshots of every per-router [`QTable`],
//! fingerprinted so a stale snapshot is rejected instead of silently
//! misapplied.
//!
//! Q-adaptive routing normally cold-starts from static topology-derived
//! estimates, so every run re-pays the training time and only the paper's
//! "no pre-trained information" condition can be studied. A snapshot
//! captures the learned two-level tables of all routers after a run; a
//! later run can *warm-start* from it ([`QTableInit::Load`] on
//! [`crate::RoutingConfig`]), replacing the static estimates — enabling
//! pre-trained-vs-cold comparisons and cheap sweep restarts.
//!
//! ## Format
//!
//! A snapshot is a deterministic line-oriented text file (the vendored
//! `serde` is an offline API stub, so the format is hand-rolled). All
//! `f64` values are written as the 16-hex-digit big-endian rendering of
//! [`f64::to_bits`], so `save → load → save` is byte-identical and values
//! survive the round trip bit-exactly:
//!
//! ```text
//! dfsim-qtable v1
//! params groups=9 routers_per_group=4 nodes_per_router=2 globals_per_router=2
//! timing bandwidth_gbps=200 local_latency_ps=30000 ... buffer_packets=30
//! alpha 3fc999999999999a
//! tables routers=36 radix=7 groups=9
//! router 0
//! q1 4110a1c800000000 7ff0000000000000 ...
//! q2 ...
//! router 1
//! ...
//! ```
//!
//! ## Binary form
//!
//! The result cache embeds snapshots in a second, binary form
//! ([`QTableSnapshot::encode`] / [`QTableSnapshot::decode`]) over the
//! checked little-endian codec of `dfsim_metrics::trace`: the same
//! fingerprint, then every router's tables as raw `f64` bits — half the
//! bytes of the text and a plain copy to decode. The text file stays the
//! user-facing format; both forms take their table shape from the params
//! through one checked geometry derivation.
//!
//! ## Fingerprint
//!
//! The header carries the structural topology parameters, the full link
//! timing, and the learning rate α. [`QTableSnapshot::verify`] compares all
//! three against the loading run's configuration and returns a *named*
//! error ([`SnapshotError::ParamsMismatch`], [`SnapshotError::TimingMismatch`],
//! [`SnapshotError::AlphaMismatch`]) on any difference — learned delivery
//! estimates are only meaningful on the exact system they were trained on.

use std::path::{Path, PathBuf};

use dfsim_metrics::trace::{put_f64, put_u32, put_u64, Cur, TraceError};
use dfsim_topology::{DragonflyParams, LinkTiming};

use crate::qtable::QTable;

/// Magic first line of every snapshot file (bump the version when the
/// format changes; old files are then rejected with
/// [`SnapshotError::VersionMismatch`]).
pub const SNAPSHOT_HEADER: &str = "dfsim-qtable v1";

/// How Q-adaptive Q-tables are initialized at network construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum QTableInit {
    /// Static topology-derived estimates (the paper's "no pre-trained
    /// information" condition).
    #[default]
    Cold,
    /// Warm-start from a snapshot file previously written with
    /// [`QTableSnapshot::save`]. The snapshot's fingerprint must match the
    /// run's topology parameters, link timing and α exactly.
    Load(PathBuf),
}

impl QTableInit {
    /// Convenience constructor for the load form.
    pub fn load(path: impl Into<PathBuf>) -> Self {
        QTableInit::Load(path.into())
    }

    /// Short label for reports/CLI (`cold` or `warm`).
    pub fn label(&self) -> &'static str {
        match self {
            QTableInit::Cold => "cold",
            QTableInit::Load(_) => "warm",
        }
    }
}

/// Why a snapshot could not be loaded or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error rendering.
        msg: String,
    },
    /// The file is not a well-formed snapshot.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The file's header names another format version.
    VersionMismatch {
        /// The first line actually found.
        found: String,
    },
    /// The snapshot was trained on a different Dragonfly structure.
    ParamsMismatch {
        /// Parameters of the loading run.
        expected: DragonflyParams,
        /// Parameters recorded in the snapshot.
        found: DragonflyParams,
    },
    /// The snapshot was trained under different link timing — the learned
    /// delivery-time estimates would be systematically wrong.
    TimingMismatch {
        /// Name of the first differing [`LinkTiming`] field.
        field: &'static str,
        /// Value in the loading run.
        expected: u64,
        /// Value recorded in the snapshot.
        found: u64,
    },
    /// The snapshot was trained with a different learning rate α.
    AlphaMismatch {
        /// α of the loading run.
        expected: f64,
        /// α recorded in the snapshot.
        found: f64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, msg } => {
                write!(f, "Q-table snapshot I/O error on {}: {msg}", path.display())
            }
            SnapshotError::Malformed { line, msg } => {
                write!(f, "malformed Q-table snapshot (line {line}): {msg}")
            }
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "Q-table snapshot version mismatch: expected '{SNAPSHOT_HEADER}', found '{found}'"
            ),
            SnapshotError::ParamsMismatch { expected, found } => write!(
                f,
                "Q-table snapshot topology fingerprint mismatch: snapshot was trained on \
                 g={} a={} p={} h={}, this run uses g={} a={} p={} h={}",
                found.groups,
                found.routers_per_group,
                found.nodes_per_router,
                found.globals_per_router,
                expected.groups,
                expected.routers_per_group,
                expected.nodes_per_router,
                expected.globals_per_router,
            ),
            SnapshotError::TimingMismatch { field, expected, found } => write!(
                f,
                "Q-table snapshot link-timing fingerprint mismatch: {field} is {found} in the \
                 snapshot but {expected} in this run"
            ),
            SnapshotError::AlphaMismatch { expected, found } => write!(
                f,
                "Q-table snapshot learning-rate fingerprint mismatch: snapshot was trained with \
                 alpha={found}, this run uses alpha={expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The raw two-level tables of one router.
#[derive(Debug, Clone, PartialEq)]
struct RouterTables {
    q1: Vec<f64>,
    q2: Vec<f64>,
}

/// Bytes of the fingerprint that leads the binary form: four params
/// words, four `u64` and three `u32` timing fields, and the α bits.
const FINGERPRINT_BYTES: usize = 4 * 4 + 4 * 8 + 3 * 4 + 8;

/// The table shape a params fingerprint implies, derived with checked
/// arithmetic. Both decoders take every size from here, so params that
/// describe no machine (a zero parameter) or one too large to address
/// fail as a named error before any table is allocated.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    routers: usize,
    radix: usize,
    groups: usize,
    /// Values per router in the level-1 table (`groups × radix`).
    q1_len: usize,
    /// Values per router in the level-2 table (`routers_per_group × radix`).
    q2_len: usize,
    /// Bytes of all routers' tables in the binary form.
    table_bytes: usize,
}

impl Geometry {
    fn of(p: &DragonflyParams) -> Result<Self, String> {
        let fields = [
            ("groups", p.groups),
            ("routers_per_group", p.routers_per_group),
            ("nodes_per_router", p.nodes_per_router),
            ("globals_per_router", p.globals_per_router),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, v)| *v == 0) {
            return Err(format!("params: {name} must be nonzero"));
        }
        let [g, a, n, h] = fields.map(|(_, v)| v as usize);
        let too_large = || {
            format!(
                "params g={g} a={a} p={n} h={h} describe a machine too large to hold its tables"
            )
        };
        // `a >= 1` was checked above.
        let radix = n.checked_add(a - 1).and_then(|r| r.checked_add(h)).ok_or_else(too_large)?;
        let routers = g.checked_mul(a).ok_or_else(too_large)?;
        let q1_len = g.checked_mul(radix).ok_or_else(too_large)?;
        let q2_len = a.checked_mul(radix).ok_or_else(too_large)?;
        let table_bytes = q1_len
            .checked_add(q2_len)
            .and_then(|v| v.checked_mul(routers))
            .and_then(|v| v.checked_mul(8))
            .ok_or_else(too_large)?;
        Ok(Self { routers, radix, groups: g, q1_len, q2_len, table_bytes })
    }
}

/// A versioned snapshot of every per-router Q-table of one network,
/// fingerprinted by topology parameters, link timing and α.
#[derive(Debug, Clone, PartialEq)]
pub struct QTableSnapshot {
    params: DragonflyParams,
    timing: LinkTiming,
    /// α as raw bits so the fingerprint comparison is exact.
    alpha_bits: u64,
    radix: usize,
    groups: usize,
    tables: Vec<RouterTables>,
}

impl QTableSnapshot {
    /// Capture a snapshot from all routers' tables (index = router id).
    /// `tables` must be complete — [`crate::NetworkSim::qtable_snapshot`]
    /// returns `None` when any router lacks a Q-table (non-Q-adaptive runs).
    pub(crate) fn from_tables(
        params: DragonflyParams,
        timing: LinkTiming,
        alpha: f64,
        tables: &[&QTable],
    ) -> Self {
        let radix = params.radix() as usize;
        Self {
            params,
            timing,
            alpha_bits: alpha.to_bits(),
            radix,
            groups: params.groups as usize,
            tables: tables
                .iter()
                .map(|t| RouterTables { q1: t.q1_raw().to_vec(), q2: t.q2_raw().to_vec() })
                .collect(),
        }
    }

    /// The learning rate recorded in the fingerprint.
    pub fn alpha(&self) -> f64 {
        f64::from_bits(self.alpha_bits)
    }

    /// The topology parameters recorded in the fingerprint.
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// The link timing recorded in the fingerprint.
    pub fn timing(&self) -> &LinkTiming {
        &self.timing
    }

    /// Number of routers covered.
    pub fn num_routers(&self) -> usize {
        self.tables.len()
    }

    /// Check this snapshot against a run's configuration. Errors name the
    /// mismatched fingerprint component — a failed check means the learned
    /// estimates are meaningless for that run and must not be applied.
    pub fn verify(
        &self,
        params: &DragonflyParams,
        timing: &LinkTiming,
        alpha: f64,
    ) -> Result<(), SnapshotError> {
        if self.params != *params {
            return Err(SnapshotError::ParamsMismatch { expected: *params, found: self.params });
        }
        let fields: [(&'static str, u64, u64); 7] = [
            ("bandwidth_gbps", timing.bandwidth_gbps, self.timing.bandwidth_gbps),
            ("local_latency_ps", timing.local_latency_ps, self.timing.local_latency_ps),
            ("global_latency_ps", timing.global_latency_ps, self.timing.global_latency_ps),
            ("terminal_latency_ps", timing.terminal_latency_ps, self.timing.terminal_latency_ps),
            ("flit_bytes", timing.flit_bytes as u64, self.timing.flit_bytes as u64),
            ("packet_bytes", timing.packet_bytes as u64, self.timing.packet_bytes as u64),
            ("buffer_packets", timing.buffer_packets as u64, self.timing.buffer_packets as u64),
        ];
        for (field, expected, found) in fields {
            if expected != found {
                return Err(SnapshotError::TimingMismatch { field, expected, found });
            }
        }
        if alpha.to_bits() != self.alpha_bits {
            return Err(SnapshotError::AlphaMismatch { expected: alpha, found: self.alpha() });
        }
        Ok(())
    }

    /// Rebuild router `r`'s [`QTable`] from the snapshot (panics if `r` is
    /// out of range — callers verify the fingerprint first, and parsing
    /// enforces that the table geometry matches the params header, so the
    /// router count is pinned through the topology parameters).
    pub(crate) fn table_for(&self, r: usize) -> QTable {
        let t = &self.tables[r];
        QTable::from_raw(self.radix, self.groups, t.q1.clone(), t.q2.clone(), self.alpha())
    }

    /// Level-1 value `[dst_group][port]` of router `r` (inspection/tests).
    pub fn q1_of(&self, r: usize, dst_group: usize, port: usize) -> f64 {
        self.tables[r].q1[dst_group * self.radix + port]
    }

    // ---- text round trip ---------------------------------------------------

    /// Render the deterministic text form (see the module docs).
    pub fn to_text(&self) -> String {
        let p = &self.params;
        let t = &self.timing;
        let mut out = String::with_capacity(64 + self.tables.len() * (self.groups + 8) * 17);
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "params groups={} routers_per_group={} nodes_per_router={} globals_per_router={}\n",
            p.groups, p.routers_per_group, p.nodes_per_router, p.globals_per_router
        ));
        out.push_str(&format!(
            "timing bandwidth_gbps={} local_latency_ps={} global_latency_ps={} \
             terminal_latency_ps={} flit_bytes={} packet_bytes={} buffer_packets={}\n",
            t.bandwidth_gbps,
            t.local_latency_ps,
            t.global_latency_ps,
            t.terminal_latency_ps,
            t.flit_bytes,
            t.packet_bytes,
            t.buffer_packets
        ));
        out.push_str(&format!("alpha {:016x}\n", self.alpha_bits));
        out.push_str(&format!(
            "tables routers={} radix={} groups={}\n",
            self.tables.len(),
            self.radix,
            self.groups
        ));
        for (r, t) in self.tables.iter().enumerate() {
            out.push_str(&format!("router {r}\n"));
            for (tag, vals) in [("q1", &t.q1), ("q2", &t.q2)] {
                out.push_str(tag);
                for v in vals {
                    out.push(' ');
                    out.push_str(&format!("{:016x}", v.to_bits()));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parse the text form back into a snapshot.
    pub fn from_text(s: &str) -> Result<Self, SnapshotError> {
        let mut lines = s.lines().enumerate();
        let mut next = |what: &str| {
            lines.next().ok_or_else(|| SnapshotError::Malformed {
                line: s.lines().count() + 1,
                msg: format!("unexpected end of file, expected {what}"),
            })
        };

        let (_, header) = next("the version header")?;
        if header.trim_end() != SNAPSHOT_HEADER {
            return Err(SnapshotError::VersionMismatch { found: header.to_string() });
        }
        let (ln, params_line) = next("the params line")?;
        let pv = parse_kv_line(params_line, "params", ln + 1)?;
        let params = DragonflyParams {
            groups: kv(&pv, "groups", ln + 1)? as u32,
            routers_per_group: kv(&pv, "routers_per_group", ln + 1)? as u32,
            nodes_per_router: kv(&pv, "nodes_per_router", ln + 1)? as u32,
            globals_per_router: kv(&pv, "globals_per_router", ln + 1)? as u32,
        };
        let geo =
            Geometry::of(&params).map_err(|msg| SnapshotError::Malformed { line: ln + 1, msg })?;
        let (ln, timing_line) = next("the timing line")?;
        let tv = parse_kv_line(timing_line, "timing", ln + 1)?;
        let timing = LinkTiming {
            bandwidth_gbps: kv(&tv, "bandwidth_gbps", ln + 1)?,
            local_latency_ps: kv(&tv, "local_latency_ps", ln + 1)?,
            global_latency_ps: kv(&tv, "global_latency_ps", ln + 1)?,
            terminal_latency_ps: kv(&tv, "terminal_latency_ps", ln + 1)?,
            flit_bytes: kv(&tv, "flit_bytes", ln + 1)? as u32,
            packet_bytes: kv(&tv, "packet_bytes", ln + 1)? as u32,
            buffer_packets: kv(&tv, "buffer_packets", ln + 1)? as u32,
        };
        let (ln, alpha_line) = next("the alpha line")?;
        let alpha_hex = alpha_line.strip_prefix("alpha ").ok_or_else(|| {
            SnapshotError::Malformed { line: ln + 1, msg: "expected 'alpha <hex>'".into() }
        })?;
        let alpha_bits = u64::from_str_radix(alpha_hex.trim(), 16).map_err(|e| {
            SnapshotError::Malformed { line: ln + 1, msg: format!("bad alpha bits: {e}") }
        })?;
        let (ln, tables_line) = next("the tables line")?;
        let hv = parse_kv_line(tables_line, "tables", ln + 1)?;
        let routers = kv(&hv, "routers", ln + 1)? as usize;
        let radix = kv(&hv, "radix", ln + 1)? as usize;
        let groups = kv(&hv, "groups", ln + 1)? as usize;
        // The table geometry is fully derived from the params header; an
        // inconsistent file must fail *here* with a named error, not pass
        // `verify` and then misindex (or silently misapply) at warm-start.
        if (routers, radix, groups) != (geo.routers, geo.radix, geo.groups) {
            return Err(SnapshotError::Malformed {
                line: ln + 1,
                msg: format!(
                    "table geometry routers={routers} radix={radix} groups={groups} does not \
                     match the params header (expects routers={} radix={} groups={})",
                    geo.routers, geo.radix, geo.groups
                ),
            });
        }

        // Grown as routers parse, not reserved from the header: the text
        // bounds how many tables there can be, the params words do not.
        let mut tables = Vec::new();
        for r in 0..routers {
            let (ln, marker) = next("a router marker")?;
            if marker.trim_end() != format!("router {r}") {
                return Err(SnapshotError::Malformed {
                    line: ln + 1,
                    msg: format!("expected 'router {r}', found '{marker}'"),
                });
            }
            let (ln1, l1) = next("a q1 line")?;
            let q1 = parse_values(l1, "q1", geo.q1_len, ln1 + 1)?;
            let (ln2, l2) = next("a q2 line")?;
            let q2 = parse_values(l2, "q2", geo.q2_len, ln2 + 1)?;
            tables.push(RouterTables { q1, q2 });
        }
        Ok(Self { params, timing, alpha_bits, radix, groups, tables })
    }

    // ---- binary round trip -------------------------------------------------

    /// Append the binary form (the section a result-cache entry embeds):
    /// the fingerprint — params, timing, α bits — then every router's q1
    /// and q2 as raw little-endian `f64` bits. The table geometry is not
    /// written; [`Self::decode`] derives it from the params.
    pub fn encode(&self, b: &mut Vec<u8>) {
        let p = &self.params;
        let t = &self.timing;
        let values: usize = self.tables.iter().map(|r| r.q1.len() + r.q2.len()).sum();
        b.reserve(FINGERPRINT_BYTES + values * 8);
        for v in [p.groups, p.routers_per_group, p.nodes_per_router, p.globals_per_router] {
            put_u32(b, v);
        }
        for v in [t.bandwidth_gbps, t.local_latency_ps, t.global_latency_ps, t.terminal_latency_ps]
        {
            put_u64(b, v);
        }
        for v in [t.flit_bytes, t.packet_bytes, t.buffer_packets] {
            put_u32(b, v);
        }
        put_u64(b, self.alpha_bits);
        for r in &self.tables {
            for &v in r.q1.iter().chain(&r.q2) {
                put_f64(b, v);
            }
        }
    }

    /// Decode the binary form written by [`Self::encode`]. The tables are
    /// bounds-checked against the input in one piece before anything is
    /// allocated, so a truncated section, or params words claiming a huge
    /// machine, is a named [`TraceError`] — never a panic or an allocation
    /// larger than the input.
    pub fn decode(c: &mut Cur<'_>) -> Result<Self, TraceError> {
        let params = DragonflyParams {
            groups: c.u32("snapshot params")?,
            routers_per_group: c.u32("snapshot params")?,
            nodes_per_router: c.u32("snapshot params")?,
            globals_per_router: c.u32("snapshot params")?,
        };
        let timing = LinkTiming {
            bandwidth_gbps: c.u64("snapshot timing")?,
            local_latency_ps: c.u64("snapshot timing")?,
            global_latency_ps: c.u64("snapshot timing")?,
            terminal_latency_ps: c.u64("snapshot timing")?,
            flit_bytes: c.u32("snapshot timing")?,
            packet_bytes: c.u32("snapshot timing")?,
            buffer_packets: c.u32("snapshot timing")?,
        };
        let alpha_bits = c.u64("snapshot alpha")?;
        let geo = Geometry::of(&params).map_err(|msg| c.bad(format!("snapshot {msg}")))?;
        let raw = c.bytes(geo.table_bytes, "snapshot tables")?;
        let mut values = raw.chunks_exact(8).map(|w| {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            f64::from_le_bytes(word)
        });
        let tables = (0..geo.routers)
            .map(|_| RouterTables {
                q1: values.by_ref().take(geo.q1_len).collect(),
                q2: values.by_ref().take(geo.q2_len).collect(),
            })
            .collect();
        Ok(Self { params, timing, alpha_bits, radix: geo.radix, groups: geo.groups, tables })
    }

    /// Write the snapshot to `path`.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_text())
            .map_err(|e| SnapshotError::Io { path: path.to_path_buf(), msg: e.to_string() })
    }

    /// Read and parse a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SnapshotError::Io { path: path.to_path_buf(), msg: e.to_string() })?;
        Self::from_text(&text)
    }
}

/// Parse `tag k=v k=v ...` into the `(k, v)` pairs.
fn parse_kv_line(line: &str, tag: &str, ln: usize) -> Result<Vec<(String, u64)>, SnapshotError> {
    let rest = line.strip_prefix(tag).ok_or_else(|| SnapshotError::Malformed {
        line: ln,
        msg: format!("expected a '{tag}' line, found '{line}'"),
    })?;
    rest.split_whitespace()
        .map(|pair| {
            let (k, v) = pair.split_once('=').ok_or_else(|| SnapshotError::Malformed {
                line: ln,
                msg: format!("expected 'key=value', found '{pair}'"),
            })?;
            let v = v.parse::<u64>().map_err(|e| SnapshotError::Malformed {
                line: ln,
                msg: format!("bad value for {k}: {e}"),
            })?;
            Ok((k.to_string(), v))
        })
        .collect()
}

/// Look up one key of a parsed `k=v` line.
fn kv(pairs: &[(String, u64)], key: &str, ln: usize) -> Result<u64, SnapshotError> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .ok_or_else(|| SnapshotError::Malformed { line: ln, msg: format!("missing field '{key}'") })
}

/// Parse `tag <hex> <hex> ...` into exactly `n` f64 values.
fn parse_values(line: &str, tag: &str, n: usize, ln: usize) -> Result<Vec<f64>, SnapshotError> {
    let rest = line.strip_prefix(tag).ok_or_else(|| SnapshotError::Malformed {
        line: ln,
        msg: format!("expected a '{tag}' line"),
    })?;
    let vals: Vec<f64> = rest
        .split_whitespace()
        .map(|w| {
            u64::from_str_radix(w, 16).map(f64::from_bits).map_err(|e| SnapshotError::Malformed {
                line: ln,
                msg: format!("bad {tag} value '{w}': {e}"),
            })
        })
        .collect::<Result<_, _>>()?;
    if vals.len() != n {
        return Err(SnapshotError::Malformed {
            line: ln,
            msg: format!("{tag} holds {} values, expected {n}", vals.len()),
        });
    }
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_topology::{RouterId, Topology};

    fn snap() -> QTableSnapshot {
        let params = DragonflyParams::tiny_72();
        let topo = Topology::new(params).unwrap();
        let timing = LinkTiming::default();
        let tables: Vec<QTable> = (0..topo.num_routers())
            .map(|r| QTable::new(&topo, RouterId(r), &timing, 0.2))
            .collect();
        let refs: Vec<&QTable> = tables.iter().collect();
        QTableSnapshot::from_tables(params, timing, 0.2, &refs)
    }

    #[test]
    fn text_round_trip_is_exact() {
        let s = snap();
        let text = s.to_text();
        let back = QTableSnapshot::from_text(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(text, back.to_text(), "save -> load -> save must be byte-identical");
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let s = snap();
        let mut bytes = vec![0xAB]; // the decoder starts where the cursor is
        s.encode(&mut bytes);
        let mut c = Cur::new(&bytes);
        assert_eq!(c.u8("lead").unwrap(), 0xAB);
        let back = QTableSnapshot::decode(&mut c).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.to_text(), back.to_text());
        // 36 routers × (9×7 + 4×7) values × 8 bytes, after the fingerprint.
        assert_eq!(bytes.len(), 1 + FINGERPRINT_BYTES + 36 * 91 * 8);
    }

    #[test]
    fn binary_truncation_and_hostile_params_are_named_errors() {
        let mut bytes = Vec::new();
        snap().encode(&mut bytes);
        for cut in (0..bytes.len()).step_by(97).chain(bytes.len() - 16..bytes.len()) {
            let e = QTableSnapshot::decode(&mut Cur::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(e, TraceError::Truncated { .. }), "cut {cut}: {e}");
        }
        // Params claiming a machine far larger than the input: the tables
        // are checked against the input before any of them is allocated.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&1_000_000u32.to_le_bytes());
        huge[4..8].copy_from_slice(&1_000u32.to_le_bytes());
        let e = QTableSnapshot::decode(&mut Cur::new(&huge)).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { what: "snapshot tables", .. }), "{e}");
        // Params whose table size overflows the address space.
        let mut overflow = bytes.clone();
        for w in 0..4 {
            overflow[w * 4..w * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let e = QTableSnapshot::decode(&mut Cur::new(&overflow)).unwrap_err();
        assert!(e.to_string().contains("too large"), "{e}");
        // Params that describe no machine.
        let mut zero = bytes;
        zero[8..12].copy_from_slice(&0u32.to_le_bytes());
        let e = QTableSnapshot::decode(&mut Cur::new(&zero)).unwrap_err();
        assert!(e.to_string().contains("nodes_per_router must be nonzero"), "{e}");
    }

    #[test]
    fn rebuilt_tables_match_originals_bit_exactly() {
        let params = DragonflyParams::tiny_72();
        let topo = Topology::new(params).unwrap();
        let fresh = QTable::new(&topo, RouterId(5), &LinkTiming::default(), 0.2);
        let s = snap();
        let rebuilt = s.table_for(5);
        for g in 0..topo.num_groups() {
            for p in 0..topo.radix() {
                let a = fresh.q1(dfsim_topology::GroupId(g), dfsim_topology::Port(p));
                let b = rebuilt.q1(dfsim_topology::GroupId(g), dfsim_topology::Port(p));
                assert_eq!(a.to_bits(), b.to_bits(), "q1[{g}][{p}]");
            }
        }
    }

    #[test]
    fn verify_accepts_matching_fingerprint() {
        let s = snap();
        s.verify(&DragonflyParams::tiny_72(), &LinkTiming::default(), 0.2).unwrap();
    }

    #[test]
    fn verify_names_each_mismatch() {
        let s = snap();
        let e = s.verify(&DragonflyParams::paper_1056(), &LinkTiming::default(), 0.2).unwrap_err();
        assert!(matches!(e, SnapshotError::ParamsMismatch { .. }), "{e}");
        assert!(e.to_string().contains("topology"), "{e}");

        let t = LinkTiming { global_latency_ps: 300_001, ..LinkTiming::default() };
        let e = s.verify(&DragonflyParams::tiny_72(), &t, 0.2).unwrap_err();
        assert!(
            matches!(e, SnapshotError::TimingMismatch { field: "global_latency_ps", .. }),
            "{e}"
        );

        let e = s.verify(&DragonflyParams::tiny_72(), &LinkTiming::default(), 0.3).unwrap_err();
        assert!(matches!(e, SnapshotError::AlphaMismatch { .. }), "{e}");
        assert!(e.to_string().contains("alpha"), "{e}");
    }

    #[test]
    fn version_and_shape_errors_are_reported() {
        let e = QTableSnapshot::from_text("dfsim-qtable v99\n").unwrap_err();
        assert!(matches!(e, SnapshotError::VersionMismatch { .. }), "{e}");

        let mut text = snap().to_text();
        text = text.replacen("router 1\n", "router 7\n", 1);
        let e = QTableSnapshot::from_text(&text).unwrap_err();
        assert!(matches!(e, SnapshotError::Malformed { .. }), "{e}");

        // Table geometry inconsistent with the params header: a truncated
        // snapshot must fail parsing with a named error, not pass `verify`
        // and misindex at warm-start.
        let text = snap().to_text().replacen("tables routers=36", "tables routers=18", 1);
        let e = QTableSnapshot::from_text(&text).unwrap_err();
        assert!(matches!(e, SnapshotError::Malformed { .. }), "{e}");
        assert!(e.to_string().contains("geometry"), "{e}");
        let text = snap().to_text().replacen("radix=7", "radix=6", 1);
        let e = QTableSnapshot::from_text(&text).unwrap_err();
        assert!(e.to_string().contains("geometry"), "{e}");

        // Truncated value line.
        let s = snap();
        let text = s.to_text();
        let cut = text.rfind(' ').unwrap();
        let e = QTableSnapshot::from_text(&text[..cut]).unwrap_err();
        assert!(matches!(e, SnapshotError::Malformed { .. }), "{e}");
    }

    #[test]
    fn qtable_init_labels() {
        assert_eq!(QTableInit::Cold.label(), "cold");
        assert_eq!(QTableInit::load("/tmp/x").label(), "warm");
        assert_eq!(QTableInit::default(), QTableInit::Cold);
    }
}
