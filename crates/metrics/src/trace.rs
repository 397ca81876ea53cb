//! `dfsim-trace v1`: the compact binary on-disk form of the recorder's
//! event stream.
//!
//! ## Format
//!
//! A trace file is the version header followed by length-prefixed frames:
//!
//! ```text
//! "dfsim-trace v1\n"                      (15-byte magic / version line)
//! frame := kind:u8  len:u32le  payload[len]
//!   kind 1  EVENTS  payload = concatenated encoded events (below)
//!   kind 2  META    payload = opaque run-metadata blob (written by the
//!                   runner; everything a replay needs beyond the events)
//!   kind 3  END     payload empty — marks a complete file; a trace
//!                   without it was truncated mid-write
//! ```
//!
//! Events are packed little-endian, one tag byte then fixed-width fields
//! (`f64` as raw bits, so values survive bit-exactly):
//!
//! ```text
//! 1 Injected      app:u16 t:u64 bytes:u32
//! 2 Delivered     app:u16 inject:u64 deliver:u64 bytes:u32 detoured:u8
//!                 has_hops:u8 hops:u8
//! 3 Forwarded     router:u32 port:u8 busy:u64 bytes:u32
//! 4 Stalled       router:u32 port:u8 dur:u64
//! 5 Q1Updated     t:u64 delta_bits:u64
//! 6 IngressBurst  app:u16 bytes:u64
//! 7 RankFinished  app:u16 rank:u32 comm:u64 exec:u64
//! ```
//!
//! [`TraceWriter`] implements [`EventSink`]: it buffers events into an
//! in-memory frame and flushes whenever the frame reaches
//! [`FLUSH_THRESHOLD`] bytes, so memory stays bounded no matter how long
//! the run is. [`read_trace`] streams a file back out, frame by frame,
//! handing each decoded event to a callback — the reader never holds more
//! than one frame in memory either. Every malformation is a *named*
//! [`TraceError`]. Events are written with [`dfsim_des::wire`]'s `put_*`
//! functions and read with its checked [`WireReader`], the one codec that
//! also carries barrier frames, result-cache entries and `dfsim-qtable`
//! snapshot files.

// Codec over external input: a short or corrupt file must surface as a
// named error, never as a panic or a silently wrapped value.
#![deny(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::integer_division
)]

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dfsim_des::wire::{put_f64, put_u16, put_u32, put_u64, put_u8, WireError, WireReader};
use dfsim_topology::{DragonflyParams, LinkTiming, Port, RouterId};

use crate::recorder::AppId;
use crate::sink::{EventSink, TraceEvent};

/// Magic first bytes of every trace file (bump the version when the format
/// changes; old files are then rejected with [`TraceError::Version`]).
pub const TRACE_HEADER: &[u8] = b"dfsim-trace v1\n";

/// Flush the in-memory events frame once it holds this many bytes. Small
/// enough to bound memory, large enough to amortize the frame header and
/// the `BufWriter` copy.
pub const FLUSH_THRESHOLD: usize = 64 * 1024;

const FRAME_EVENTS: u8 = 1;
const FRAME_META: u8 = 2;
const FRAME_END: u8 = 3;

/// Why a trace could not be written, read or replayed.
#[derive(Debug)]
pub enum TraceError {
    /// Reading or writing the file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error rendering.
        msg: String,
    },
    /// The file does not start with the `dfsim-trace v1` header.
    Version {
        /// What the first bytes actually were.
        found: String,
    },
    /// The file ends mid-frame, or the END marker is missing — the writer
    /// died before finishing.
    Truncated {
        /// Byte offset where the file gave out.
        offset: u64,
        /// What was being read.
        what: &'static str,
    },
    /// A frame or event is structurally invalid.
    Malformed {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { path, msg } => {
                write!(f, "trace I/O error on {}: {msg}", path.display())
            }
            TraceError::Version { found } => write!(
                f,
                "trace version mismatch: expected '{}', found '{found}'",
                String::from_utf8_lossy(TRACE_HEADER).trim_end()
            ),
            TraceError::Truncated { offset, what } => {
                write!(f, "truncated trace: file ends at byte {offset} while reading {what}")
            }
            TraceError::Malformed { offset, msg } => {
                write!(f, "malformed trace (byte {offset}): {msg}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { offset, what } => TraceError::Truncated { offset, what },
            WireError::Malformed { offset, msg } => TraceError::Malformed { offset, msg },
        }
    }
}

impl TraceError {
    fn io(path: &Path, e: std::io::Error) -> Self {
        TraceError::Io { path: path.to_path_buf(), msg: e.to_string() }
    }
}

// ---- the machine fingerprint -------------------------------------------------

/// Append a machine: the four [`DragonflyParams`] words, then the
/// [`LinkTiming`] fields in declaration order. Q-table snapshots and trace
/// META blobs both carry exactly these bytes (see [`get_machine`]).
pub fn put_machine(b: &mut Vec<u8>, p: &DragonflyParams, t: &LinkTiming) {
    for v in [p.groups, p.routers_per_group, p.nodes_per_router, p.globals_per_router] {
        put_u32(b, v);
    }
    for v in [t.bandwidth_gbps, t.local_latency_ps, t.global_latency_ps, t.terminal_latency_ps] {
        put_u64(b, v);
    }
    for v in [t.flit_bytes, t.packet_bytes, t.buffer_packets] {
        put_u32(b, v);
    }
}

/// Read a machine written by [`put_machine`].
pub fn get_machine(c: &mut WireReader<'_>) -> Result<(DragonflyParams, LinkTiming), WireError> {
    let params = DragonflyParams {
        groups: c.u32("params.groups")?,
        routers_per_group: c.u32("params.routers_per_group")?,
        nodes_per_router: c.u32("params.nodes_per_router")?,
        globals_per_router: c.u32("params.globals_per_router")?,
    };
    let timing = LinkTiming {
        bandwidth_gbps: c.u64("timing.bandwidth_gbps")?,
        local_latency_ps: c.u64("timing.local_latency_ps")?,
        global_latency_ps: c.u64("timing.global_latency_ps")?,
        terminal_latency_ps: c.u64("timing.terminal_latency_ps")?,
        flit_bytes: c.u32("timing.flit_bytes")?,
        packet_bytes: c.u32("timing.packet_bytes")?,
        buffer_packets: c.u32("timing.buffer_packets")?,
    };
    Ok((params, timing))
}

// ---- event encoding ---------------------------------------------------------

/// Append one event's binary form to `buf` (the module-docs layout).
pub fn encode_event(buf: &mut Vec<u8>, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Injected { app, t, bytes } => {
            buf.push(1);
            put_u16(buf, app.0);
            put_u64(buf, t);
            put_u32(buf, bytes);
        }
        TraceEvent::Delivered { app, inject, deliver, bytes, detoured, hops } => {
            buf.push(2);
            put_u16(buf, app.0);
            put_u64(buf, inject);
            put_u64(buf, deliver);
            put_u32(buf, bytes);
            buf.push(u8::from(detoured));
            buf.push(u8::from(hops.is_some()));
            buf.push(hops.unwrap_or(0));
        }
        TraceEvent::Forwarded { router, port, busy, bytes } => {
            buf.push(3);
            put_u32(buf, router.0);
            buf.push(port.0);
            put_u64(buf, busy);
            put_u32(buf, bytes);
        }
        TraceEvent::Stalled { router, port, dur } => {
            buf.push(4);
            put_u32(buf, router.0);
            buf.push(port.0);
            put_u64(buf, dur);
        }
        TraceEvent::Q1Updated { t, delta_ps } => {
            buf.push(5);
            put_u64(buf, t);
            put_f64(buf, delta_ps);
        }
        TraceEvent::IngressBurst { app, bytes } => {
            buf.push(6);
            put_u16(buf, app.0);
            put_u64(buf, bytes);
        }
        TraceEvent::RankFinished { app, rank, comm, exec } => {
            buf.push(7);
            put_u16(buf, app.0);
            put_u32(buf, rank);
            put_u64(buf, comm);
            put_u64(buf, exec);
        }
    }
}

/// Decode every event of one EVENTS-frame payload into `on_event`.
fn decode_events(
    payload: &[u8],
    base: u64,
    on_event: &mut dyn FnMut(&TraceEvent),
) -> Result<(), TraceError> {
    let mut c = WireReader::at(payload, base);
    while !c.is_empty() {
        let at = c.offset();
        let tag = c.u8("an event tag")?;
        let ev = match tag {
            1 => TraceEvent::Injected {
                app: AppId(c.u16("Injected.app")?),
                t: c.u64("Injected.t")?,
                bytes: c.u32("Injected.bytes")?,
            },
            2 => {
                let app = AppId(c.u16("Delivered.app")?);
                let inject = c.u64("Delivered.inject")?;
                let deliver = c.u64("Delivered.deliver")?;
                let bytes = c.u32("Delivered.bytes")?;
                let detoured = c.u8("Delivered.detoured")? != 0;
                let has_hops = c.u8("Delivered.has_hops")? != 0;
                let hops = c.u8("Delivered.hops")?;
                TraceEvent::Delivered {
                    app,
                    inject,
                    deliver,
                    bytes,
                    detoured,
                    hops: has_hops.then_some(hops),
                }
            }
            3 => TraceEvent::Forwarded {
                router: RouterId(c.u32("Forwarded.router")?),
                port: Port(c.u8("Forwarded.port")?),
                busy: c.u64("Forwarded.busy")?,
                bytes: c.u32("Forwarded.bytes")?,
            },
            4 => TraceEvent::Stalled {
                router: RouterId(c.u32("Stalled.router")?),
                port: Port(c.u8("Stalled.port")?),
                dur: c.u64("Stalled.dur")?,
            },
            5 => TraceEvent::Q1Updated {
                t: c.u64("Q1Updated.t")?,
                delta_ps: c.f64("Q1Updated.delta")?,
            },
            6 => TraceEvent::IngressBurst {
                app: AppId(c.u16("IngressBurst.app")?),
                bytes: c.u64("IngressBurst.bytes")?,
            },
            7 => TraceEvent::RankFinished {
                app: AppId(c.u16("RankFinished.app")?),
                rank: c.u32("RankFinished.rank")?,
                comm: c.u64("RankFinished.comm")?,
                exec: c.u64("RankFinished.exec")?,
            },
            t => {
                return Err(TraceError::Malformed {
                    offset: at,
                    msg: format!("unknown event tag {t}"),
                })
            }
        };
        on_event(&ev);
    }
    Ok(())
}

// ---- writer ----------------------------------------------------------------

/// Streaming `dfsim-trace v1` writer: buffers events into frames of at most
/// ~[`FLUSH_THRESHOLD`] bytes on top of a [`BufWriter`], so the memory held
/// per attached sink is a small constant.
///
/// The [`EventSink::event`] path never does visible error handling (it is
/// the simulation hot loop); the first I/O failure is remembered and
/// surfaced from [`EventSink::finish`] / [`TraceWriter::finish`].
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    path: PathBuf,
    buf: Vec<u8>,
    err: Option<std::io::Error>,
}

impl TraceWriter {
    /// Create (truncate) `path` and write the version header.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        let file = File::create(path).map_err(|e| TraceError::io(path, e))?;
        let mut out = BufWriter::new(file);
        out.write_all(TRACE_HEADER).map_err(|e| TraceError::io(path, e))?;
        Ok(Self {
            out,
            path: path.to_path_buf(),
            buf: Vec::with_capacity(FLUSH_THRESHOLD + 64),
            err: None,
        })
    }

    fn write_frame(&mut self, kind: u8, payload: &[u8]) {
        if self.err.is_some() {
            return;
        }
        let len = match u32::try_from(payload.len()) {
            Ok(len) => len,
            Err(_) => {
                // A wrapped length word would silently corrupt the file;
                // surface it through the writer's sticky-error path.
                self.err = Some(std::io::Error::other(format!(
                    "frame payload of {} bytes overflows the u32 length word",
                    payload.len()
                )));
                return;
            }
        };
        let mut hdr = Vec::with_capacity(5);
        put_u8(&mut hdr, kind);
        put_u32(&mut hdr, len);
        let r = self.out.write_all(&hdr).and_then(|()| self.out.write_all(payload));
        if let Err(e) = r {
            self.err = Some(e);
        }
    }

    fn flush_events(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        self.write_frame(FRAME_EVENTS, &buf);
        self.buf = buf;
        self.buf.clear();
    }

    /// Observe one event (also the [`EventSink::event`] body).
    pub fn record(&mut self, ev: &TraceEvent) {
        encode_event(&mut self.buf, ev);
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_events();
        }
    }

    /// Flush everything, append the META frame (if given) and the END
    /// marker, and close the file. Returns the first error of the writer's
    /// whole lifetime, with the path attached.
    pub fn finish(mut self, meta: Option<&[u8]>) -> Result<(), TraceError> {
        self.flush_events();
        if let Some(m) = meta {
            self.write_frame(FRAME_META, m);
        }
        self.write_frame(FRAME_END, &[]);
        if let Some(e) = self.err.take() {
            return Err(TraceError::io(&self.path, e));
        }
        self.out.flush().map_err(|e| TraceError::io(&self.path, e))
    }
}

impl EventSink for TraceWriter {
    fn event(&mut self, ev: &TraceEvent) {
        self.record(ev);
    }

    fn finish(self: Box<Self>, meta: Option<&[u8]>) -> std::io::Result<()> {
        TraceWriter::finish(*self, meta).map_err(|e| std::io::Error::other(e.to_string()))
    }
}

// ---- reader ----------------------------------------------------------------

/// What a full scan of a trace file found (besides the events themselves).
#[derive(Debug, Clone, Default)]
pub struct TraceContents {
    /// Total events decoded.
    pub events: u64,
    /// Per-tag event counts, indexed by wire tag − 1 (Injected … RankFinished).
    pub counts: [u64; 7],
    /// The opaque META payload, when the file carries one.
    pub meta: Option<Vec<u8>>,
}

/// Stream a trace file, handing every event to `on_event` in file order.
/// Returns the scan totals and the META blob. A missing END marker, a
/// short frame or an unknown tag is a named [`TraceError`]; the reader
/// holds at most one frame in memory.
pub fn read_trace(
    path: &Path,
    mut on_event: impl FnMut(&TraceEvent),
) -> Result<TraceContents, TraceError> {
    scan(path, Some(&mut on_event))
}

/// Read only the frame structure and the META blob, skipping event payloads
/// without decoding them (used to bootstrap a replay: the metadata is
/// needed before the events can be fed anywhere).
pub fn read_meta(path: &Path) -> Result<TraceContents, TraceError> {
    scan(path, None)
}

fn scan(
    path: &Path,
    mut on_event: Option<&mut dyn FnMut(&TraceEvent)>,
) -> Result<TraceContents, TraceError> {
    let file = File::open(path).map_err(|e| TraceError::io(path, e))?;
    let file_len = file.metadata().map_err(|e| TraceError::io(path, e))?.len();
    let mut rd = BufReader::new(file);

    let mut header = [0u8; TRACE_HEADER.len()];
    let got = read_up_to(&mut rd, &mut header).map_err(|e| TraceError::io(path, e))?;
    #[expect(
        clippy::indexing_slicing,
        reason = "`read_up_to` returns got <= header.len(), so the prefix range is in bounds by construction"
    )]
    let head = &header[..got];
    if head != TRACE_HEADER {
        return Err(TraceError::Version {
            found: String::from_utf8_lossy(head).trim_end().to_string(),
        });
    }

    let mut out = TraceContents::default();
    let mut offset = TRACE_HEADER.len() as u64;
    let mut ended = false;
    let mut payload = Vec::new();
    while !ended {
        let mut hdr = [0u8; 5];
        let got = read_up_to(&mut rd, &mut hdr).map_err(|e| TraceError::io(path, e))?;
        if got == 0 {
            break; // clean EOF between frames; END-marker check below
        }
        let mut h = WireReader::at(hdr.get(..got).unwrap_or_default(), offset);
        let (kind, len) = (h.u8("a frame header")?, h.u32("a frame header")?);
        let body_at = offset + 5;
        if body_at + u64::from(len) > file_len {
            return Err(TraceError::Truncated { offset: file_len, what: "a frame payload" });
        }
        match kind {
            FRAME_EVENTS => {
                if let Some(cb) = on_event.as_deref_mut() {
                    payload.clear();
                    payload.resize(host_len(len, offset)?, 0);
                    rd.read_exact(&mut payload).map_err(|e| TraceError::io(path, e))?;
                    decode_events(&payload, body_at, &mut |ev| {
                        out.events += 1;
                        let idx = usize::from(tag_of(ev)) - 1;
                        if let Some(slot) = out.counts.get_mut(idx) {
                            *slot += 1;
                        }
                        cb(ev);
                    })?;
                } else {
                    rd.seek(SeekFrom::Current(i64::from(len)))
                        .map_err(|e| TraceError::io(path, e))?;
                }
            }
            FRAME_META => {
                let mut m = vec![0u8; host_len(len, offset)?];
                rd.read_exact(&mut m).map_err(|e| TraceError::io(path, e))?;
                if out.meta.replace(m).is_some() {
                    return Err(TraceError::Malformed {
                        offset,
                        msg: "more than one META frame".into(),
                    });
                }
            }
            FRAME_END => {
                if len != 0 {
                    return Err(TraceError::Malformed {
                        offset,
                        msg: format!("END frame carries {len} payload bytes"),
                    });
                }
                ended = true;
            }
            k => {
                return Err(TraceError::Malformed {
                    offset,
                    msg: format!("unknown frame kind {k}"),
                })
            }
        }
        offset = body_at + u64::from(len);
    }
    if !ended {
        return Err(TraceError::Truncated { offset, what: "the END marker" });
    }
    Ok(out)
}

/// A frame length word as a host `usize` (a named error on hosts narrower
/// than 32 bits, never a silent wrap).
fn host_len(len: u32, offset: u64) -> Result<usize, TraceError> {
    usize::try_from(len).map_err(|_| TraceError::Malformed {
        offset,
        msg: format!("frame of {len} bytes exceeds the host address width"),
    })
}

/// Read as many bytes as the stream yields into `buf` (EOF-tolerant
/// `read_exact`): returns how many landed.
fn read_up_to(rd: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "the loop guard keeps got < buf.len(), so the tail range is in bounds"
        )]
        let n = rd.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

fn tag_of(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::Injected { .. } => 1,
        TraceEvent::Delivered { .. } => 2,
        TraceEvent::Forwarded { .. } => 3,
        TraceEvent::Stalled { .. } => 4,
        TraceEvent::Q1Updated { .. } => 5,
        TraceEvent::IngressBurst { .. } => 6,
        TraceEvent::RankFinished { .. } => 7,
    }
}

/// Human-readable event-kind names, indexed like [`TraceContents::counts`].
pub const EVENT_KIND_NAMES: [&str; 7] = [
    "injected",
    "delivered",
    "forwarded",
    "stalled",
    "q1-updated",
    "ingress-burst",
    "rank-finished",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Injected { app: AppId(0), t: 1_000, bytes: 512 },
            TraceEvent::Delivered {
                app: AppId(0),
                inject: 1_000,
                deliver: 5_000,
                bytes: 512,
                detoured: true,
                hops: Some(4),
            },
            TraceEvent::Delivered {
                app: AppId(1),
                inject: 2_000,
                deliver: 3_000,
                bytes: 256,
                detoured: false,
                hops: None,
            },
            TraceEvent::Forwarded { router: RouterId(7), port: Port(3), busy: 20_480, bytes: 512 },
            TraceEvent::Stalled { router: RouterId(7), port: Port(3), dur: 99 },
            TraceEvent::Q1Updated { t: 4_000, delta_ps: -3.75 },
            TraceEvent::IngressBurst { app: AppId(1), bytes: 4096 },
            TraceEvent::RankFinished { app: AppId(0), rank: 2, comm: 10, exec: 20 },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dfsim_trace_test_{name}_{}", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_every_event_bit_exactly() {
        let path = tmp("roundtrip");
        let mut w = TraceWriter::create(&path).unwrap();
        for ev in sample_events() {
            w.record(&ev);
        }
        w.finish(Some(b"meta-blob")).unwrap();

        let mut back = Vec::new();
        let c = read_trace(&path, |ev| back.push(*ev)).unwrap();
        assert_eq!(back, sample_events());
        assert_eq!(c.events, 8);
        assert_eq!(c.counts, [1, 2, 1, 1, 1, 1, 1]);
        assert_eq!(c.meta.as_deref(), Some(&b"meta-blob"[..]));

        // f64 bits survive exactly.
        let TraceEvent::Q1Updated { delta_ps, .. } = back[5] else { panic!() };
        assert_eq!(delta_ps.to_bits(), (-3.75f64).to_bits());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meta_scan_skips_events() {
        let path = tmp("metaonly");
        let mut w = TraceWriter::create(&path).unwrap();
        for ev in sample_events() {
            w.record(&ev);
        }
        w.finish(Some(b"m")).unwrap();
        let c = read_meta(&path).unwrap();
        assert_eq!(c.events, 0, "meta scan must not decode events");
        assert_eq!(c.meta.as_deref(), Some(&b"m"[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_named() {
        let path = tmp("version");
        std::fs::write(&path, b"dfsim-trace v99\nxxxx").unwrap();
        let e = read_trace(&path, |_| {}).unwrap_err();
        assert!(matches!(e, TraceError::Version { .. }), "{e}");
        assert!(e.to_string().contains("version mismatch"), "{e}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_named() {
        let path = tmp("trunc");
        let mut w = TraceWriter::create(&path).unwrap();
        for ev in sample_events() {
            w.record(&ev);
        }
        w.finish(None).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Cut mid-frame: payload shorter than its header claims.
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        let e = read_trace(&path, |_| {}).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");

        // Remove only the END marker: structurally fine but incomplete.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let e = read_trace(&path, |_| {}).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { what: "the END marker", .. }), "{e}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tags_are_named() {
        let path = tmp("corrupt");
        let mut w = TraceWriter::create(&path).unwrap();
        w.record(&TraceEvent::Injected { app: AppId(0), t: 0, bytes: 1 });
        w.finish(None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First byte after the header + frame header is the event tag.
        let tag_at = TRACE_HEADER.len() + 5;
        bytes[tag_at] = 0xEE;
        std::fs::write(&path, &bytes).unwrap();
        let e = read_trace(&path, |_| {}).unwrap_err();
        assert!(matches!(e, TraceError::Malformed { .. }), "{e}");
        assert!(e.to_string().contains("unknown event tag"), "{e}");
        std::fs::remove_file(&path).unwrap();
    }
}
