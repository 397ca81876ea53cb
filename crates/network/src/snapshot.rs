//! Q-table lifecycle: versioned snapshots of every per-router [`QTable`],
//! fingerprinted so a stale snapshot is rejected instead of silently
//! misapplied.
//!
//! Q-adaptive routing normally cold-starts from static topology-derived
//! estimates, so every run re-pays the training time and only the paper's
//! "no pre-trained information" condition can be studied. A snapshot
//! captures the learned two-level tables of all routers after a run; a
//! later run can *warm-start* from it (the verified snapshot handed to
//! [`crate::NetworkSim::shard`]), replacing the static estimates —
//! enabling pre-trained-vs-cold comparisons and cheap sweep restarts.
//!
//! The network never opens a snapshot file. A simulation session reads
//! the file once, decodes it with [`QTableSnapshot::from_file_bytes`],
//! verifies it and hands the result to every shard it builds;
//! [`QTableSnapshot::load`] and [`QTableSnapshot::save`] serve tools and
//! tests.
//!
//! ## Format
//!
//! A snapshot file is the header line `dfsim-qtable v2\n`, then exactly the
//! bytes [`QTableSnapshot::encode`] appends to a result-cache entry: the
//! fingerprint, then every router's tables as raw little-endian `f64`
//! bits, so `save → load → save` is byte-identical. The save file and the
//! cache share one checked decoder ([`QTableSnapshot::decode`]), which
//! derives the table shape from the params and bounds it against the input
//! before allocating. Any other first line (a retired v1 text file
//! included) is [`SnapshotError::VersionMismatch`]; a short body or bytes
//! past the last table are [`SnapshotError::Malformed`].
//!
//! ## Fingerprint
//!
//! The body opens with the structural topology parameters, the full link
//! timing, and the learning rate α. [`QTableSnapshot::verify`] compares all
//! three against the loading run's configuration and returns a *named*
//! error ([`SnapshotError::ParamsMismatch`], [`SnapshotError::TimingMismatch`],
//! [`SnapshotError::AlphaMismatch`]) on any difference — learned delivery
//! estimates are only meaningful on the exact system they were trained on.

use std::path::{Path, PathBuf};

use dfsim_des::wire::{put_f64, put_u64, WireError, WireReader};
use dfsim_metrics::trace::{get_machine, put_machine};
use dfsim_topology::{DragonflyParams, LinkTiming};

use crate::qtable::QTable;

/// Magic first line of every snapshot file (bump the version when the
/// format changes; old files are then rejected with
/// [`SnapshotError::VersionMismatch`]).
pub const SNAPSHOT_HEADER: &str = "dfsim-qtable v2";

/// How a run's Q-adaptive Q-tables started: the label reports and trace
/// files carry. It holds no tables; a warm network gets its snapshot at
/// construction ([`crate::NetworkSim::shard`]), so a report rebuilt from a
/// trace can say `warm` without the snapshot it started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QTableInit {
    /// Static topology-derived estimates (the paper's "no pre-trained
    /// information" condition).
    #[default]
    Cold,
    /// Warm-started from a snapshot whose fingerprint matched the run's
    /// topology parameters, link timing and α exactly.
    Warm,
}

impl QTableInit {
    /// Short label for reports/CLI (`cold` or `warm`).
    pub fn label(self) -> &'static str {
        match self {
            QTableInit::Cold => "cold",
            QTableInit::Warm => "warm",
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
    /// The file body is not a well-formed snapshot.
    Malformed {
        /// What was wrong, with the byte offset where it was found.
        msg: String,
    },
    /// The file's header names another format version.
    VersionMismatch {
        /// The first line actually found (lossy UTF-8, at most 64 bytes of
        /// it).
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
            SnapshotError::Malformed { msg } => write!(f, "malformed Q-table snapshot: {msg}"),
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
/// arithmetic. The decoder takes every size from here, so params that
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
    /// out of range — callers verify the fingerprint first, and decoding
    /// derives the table geometry from the params, so the router count is
    /// pinned through the topology parameters).
    pub(crate) fn table_for(&self, r: usize) -> QTable {
        let t = &self.tables[r];
        QTable::from_raw(self.radix, self.groups, t.q1.clone(), t.q2.clone(), self.alpha())
    }

    // ---- binary form ----------------------------------------------------------

    /// Append the binary form (the section a result-cache entry embeds and
    /// the body of a save file):
    /// the fingerprint — params, timing, α bits — then every router's q1
    /// and q2 as raw little-endian `f64` bits. The table geometry is not
    /// written; [`Self::decode`] derives it from the params.
    pub fn encode(&self, b: &mut Vec<u8>) {
        let values: usize = self.tables.iter().map(|r| r.q1.len() + r.q2.len()).sum();
        b.reserve(FINGERPRINT_BYTES + values * 8);
        put_machine(b, &self.params, &self.timing);
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
    /// machine, is a named [`WireError`] — never a panic or an allocation
    /// larger than the input.
    pub fn decode(c: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (params, timing) = get_machine(c)?;
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

    // ---- the save file ------------------------------------------------------

    /// The save file's bytes: the header line, then [`Self::encode`]'s.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut b = SNAPSHOT_HEADER.as_bytes().to_vec();
        b.push(b'\n');
        self.encode(&mut b);
        b
    }

    /// Parse a save file's bytes: the header line, then exactly one
    /// [`Self::decode`] body. Error offsets count from the file's start.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let first_line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let mut c = WireReader::new(bytes);
        if first_line != SNAPSHOT_HEADER.as_bytes()
            || c.bytes(first_line.len() + 1, "the header line").is_err()
        {
            // Bounded: a binary file may have no newline at all.
            let shown = first_line.get(..64).unwrap_or(first_line);
            return Err(SnapshotError::VersionMismatch {
                found: String::from_utf8_lossy(shown).into_owned(),
            });
        }
        let snap = Self::decode(&mut c)?;
        match c.remaining() {
            0 => Ok(snap),
            n => Err(c.bad(format!("{n} trailing bytes after the last table")).into()),
        }
    }

    /// Write the snapshot to `path` (the module-docs format).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_file_bytes())
            .map_err(|e| SnapshotError::Io { path: path.to_path_buf(), msg: e.to_string() })
    }

    /// Read and decode a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io { path: path.to_path_buf(), msg: e.to_string() })?;
        Self::from_file_bytes(&bytes)
    }
}

/// A body decode failure is [`SnapshotError::Malformed`], in the
/// snapshot's own words rather than the codec's.
impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        let msg = match e {
            WireError::Truncated { offset, what } => {
                format!("file ends at byte {offset} while reading {what}")
            }
            WireError::Malformed { offset, msg } => format!("byte {offset}: {msg}"),
        };
        SnapshotError::Malformed { msg }
    }
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
    fn save_file_is_the_header_then_the_cache_section() {
        let s = snap();
        // The section a cache entry embeds after its snapshot flag.
        let mut entry = vec![1u8];
        s.encode(&mut entry);
        let file = s.to_file_bytes();
        let body = file.strip_prefix(b"dfsim-qtable v2\n").expect("header line");
        assert_eq!(body, &entry[1..], "save-file body differs from the cache section");
        let back = QTableSnapshot::from_file_bytes(&file).unwrap();
        assert_eq!(s, back);
        assert_eq!(file, back.to_file_bytes(), "save -> load -> save must be byte-identical");
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let s = snap();
        let mut bytes = vec![0xAB]; // the decoder starts where the cursor is
        s.encode(&mut bytes);
        let mut c = WireReader::new(&bytes);
        assert_eq!(c.u8("lead").unwrap(), 0xAB);
        let back = QTableSnapshot::decode(&mut c).unwrap();
        assert_eq!(s, back);
        // 36 routers × (9×7 + 4×7) values × 8 bytes, after the fingerprint.
        assert_eq!(bytes.len(), 1 + FINGERPRINT_BYTES + 36 * 91 * 8);
    }

    #[test]
    fn binary_truncation_and_hostile_params_are_named_errors() {
        let mut bytes = Vec::new();
        snap().encode(&mut bytes);
        for cut in (0..bytes.len()).step_by(97).chain(bytes.len() - 16..bytes.len()) {
            let e = QTableSnapshot::decode(&mut WireReader::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(e, WireError::Truncated { .. }), "cut {cut}: {e}");
        }
        // Params claiming a machine far larger than the input: the tables
        // are checked against the input before any of them is allocated.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&1_000_000u32.to_le_bytes());
        huge[4..8].copy_from_slice(&1_000u32.to_le_bytes());
        let e = QTableSnapshot::decode(&mut WireReader::new(&huge)).unwrap_err();
        assert!(matches!(e, WireError::Truncated { what: "snapshot tables", .. }), "{e}");
        // Params whose table size overflows the address space.
        let mut overflow = bytes.clone();
        for w in 0..4 {
            overflow[w * 4..w * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let e = QTableSnapshot::decode(&mut WireReader::new(&overflow)).unwrap_err();
        assert!(e.to_string().contains("too large"), "{e}");
        // Params that describe no machine.
        let mut zero = bytes;
        zero[8..12].copy_from_slice(&0u32.to_le_bytes());
        let e = QTableSnapshot::decode(&mut WireReader::new(&zero)).unwrap_err();
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
        let load = QTableSnapshot::from_file_bytes;
        let file = snap().to_file_bytes();

        // Another version, a v1 text file, a binary file without a header
        // line (shown bounded), and a header with nothing after it.
        let headless = vec![0xFF; 200];
        for bytes in
            [&b"dfsim-qtable v99\n"[..], b"dfsim-qtable v1\nparams", &headless, &file[..15]]
        {
            let e = load(bytes).unwrap_err();
            assert!(matches!(e, SnapshotError::VersionMismatch { .. }), "{e}");
        }
        match load(&headless) {
            Err(SnapshotError::VersionMismatch { found }) => assert_eq!(found.chars().count(), 64),
            other => panic!("{other:?}"),
        }
        let e = load(&file[..16]).unwrap_err();
        assert!(e.to_string().contains("file ends at byte 16 while reading params.groups"), "{e}");
    }

    #[test]
    fn qtable_init_labels() {
        assert_eq!(QTableInit::Cold.label(), "cold");
        assert_eq!(QTableInit::Warm.label(), "warm");
        assert_eq!(QTableInit::default(), QTableInit::Cold);
    }
}
