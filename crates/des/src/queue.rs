//! Pending-event set: the core data structure of the simulator.
//!
//! The default implementation, [`EventQueue`], is a **monotone radix heap**
//! keyed on event time. It realizes the deterministic total order
//! `(time, seq)` — `seq` is a monotonically increasing tie-breaker, so events
//! at equal timestamps pop in scheduling order — without a single key
//! comparison on the pop path:
//!
//! * **64 buckets.** Bucket `b` holds the keys whose time first differs from
//!   the radix reference `last` (the minimum found by the latest refill) at
//!   bit `b`. Every pending time is `>= last`, so the buckets are ordered:
//!   everything in a lower bucket fires before anything in a higher one. A
//!   push is one `xor`, one `leading_zeros` and a `Vec::push`.
//! * **The current run.** Keys at `time == last` sit in a run ordered by
//!   `seq` and pop from its front in O(1).
//! * **Refill.** When the run is exhausted, the lowest occupied bucket (one
//!   `trailing_zeros` on an occupancy mask) is emptied: its minimum time —
//!   tracked per bucket as keys arrive — becomes the new `last`, keys at that
//!   time form the new run, and the rest land in strictly lower buckets.
//!   Each refill moves a key at least one bucket down, so an event is moved
//!   O(log range) times over its life, and usually a handful.
//!
//! Buckets hold 24-byte `(time, seq, slot)` keys; payloads stay put in a
//! slab with a free list. A bucket is a list of 256-key chunks from a pool
//! the buckets share, and a refill hands each chunk back as soon as it is
//! read, so a start-of-run injection burst cascading down through the
//! buckets needs its worth of chunks once instead of leaving a burst-sized
//! buffer behind in every bucket it passed; the pool keeps at most the live
//! population's worth of empty chunks and frees the rest.
//!
//! # The monotone contract
//!
//! A radix heap is only correct if no key is ever pushed below `last`. The
//! engine already promises exactly that — nothing is scheduled before the
//! time of the event being handled — and here the promise is load-bearing:
//! a push into the past would be filed in the wrong bucket, not merely pop
//! next. [`PendingEvents::push`], [`PendingEvents::push_seq`] and
//! [`PendingEvents::advance_clock`] therefore check it in every build and
//! panic naming both times. `advance_clock` moves only the clock, never
//! `last` (`last <= now` is all the buckets need), so jumping an empty
//! window is O(1).
//!
//! # Why it is still spelled `heap`
//!
//! This queue *replaced* the `std::collections::BinaryHeap` that used to
//! back `queue heap`; that implementation survives only as the reference
//! oracle of the differential tests (`tests/oracle/mod.rs`). To a user it is
//! the same thing — a priority queue with no geometry to tune, calendar-only
//! statistics all zero, bit-identical reports — and the `heap` spelling is
//! in specs, cache keys and recorded traces, so the spelling, the `"heap"`
//! label and the `QueueBackend::BinaryHeap` variant name stay. On the
//! paper-scale `fig8_qadp` cell (peak 49,985 pending) the binary heap spent
//! 62% of the run in ~16 mispredicted compare levels per pop; the radix heap
//! runs the same cell ~1.8x faster end to end (`benchmark/README.md` is the
//! instrument, `CHANGES.md` has the runs).
//!
//! An alternative calendar-queue implementation lives in [`crate::calendar`].

use crate::time::Time;

/// Engine-level statistics of a pending-event set: how hard the queue
/// worked over a run. Every backend reports the traffic counters; the
/// calendar-specific fields (`resizes`, `bucket_scans`, `sparse_jumps`,
/// `buckets`, `width_ps`) are zero on the heap backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped so far.
    pub events_processed: u64,
    /// Events pushed so far.
    pub events_scheduled: u64,
    /// Events pending right now.
    pub pending: usize,
    /// Largest pending-set size ever observed.
    pub peak_pending: usize,
    /// Calendar bucket-array rebuilds (adaptive resizes + width retunes).
    pub resizes: u64,
    /// Empty calendar days skipped while looking for the next event.
    pub bucket_scans: u64,
    /// Full-year misses that jumped the calendar straight to the earliest
    /// pending event (the sparse-workload escape hatch).
    pub sparse_jumps: u64,
    /// Current calendar bucket count (0 on the heap).
    pub buckets: usize,
    /// Current calendar bucket width, picoseconds (0 on the heap).
    pub width_ps: Time,
}

/// Tuning of the calendar-queue backend. Each knob is either pinned to a
/// value or left to the queue's self-tuning policy:
///
/// * `width: None` — the bucket width is re-estimated from sampled
///   inter-event gaps (Brown's rule: ~3× the mean gap) whenever the bucket
///   array is rebuilt.
/// * `buckets: None` — the bucket count doubles when the load factor
///   exceeds 2 and halves when it drops below ½ (with hysteresis), keeping
///   pop scans O(1) amortized across load swings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CalendarTuning {
    /// Fixed bucket width in picoseconds; `None` = auto (Brown's rule).
    pub width: Option<Time>,
    /// Fixed bucket count; `None` = auto (load-factor resizing).
    pub buckets: Option<usize>,
}

impl CalendarTuning {
    /// Fully self-tuning: width and bucket count both adapt.
    pub const AUTO: CalendarTuning = CalendarTuning { width: None, buckets: None };

    /// The legacy fixed configuration sized for the Dragonfly network
    /// (16 384 buckets of ~20 ns — a ~0.3 ms horizon).
    pub const FIXED_NETWORK: CalendarTuning =
        CalendarTuning { width: Some(20_480), buckets: Some(16_384) };

    /// Pin both knobs.
    pub fn fixed(width: Time, buckets: usize) -> Self {
        Self { width: Some(width), buckets: Some(buckets) }
    }

    /// Whether any knob is left to the self-tuning policy.
    pub fn is_auto(&self) -> bool {
        self.width.is_none() || self.buckets.is_none()
    }

    /// Compact suffix form (`auto`, `width=..`, `width=..,buckets=..`).
    fn describe(&self) -> String {
        match (self.width, self.buckets) {
            (None, None) => "auto".to_string(),
            (Some(w), None) => format!("width={w}"),
            (None, Some(b)) => format!("buckets={b}"),
            (Some(w), Some(b)) => format!("width={w},buckets={b}"),
        }
    }
}

/// Fieldless discriminant of [`QueueBackend`]: which *implementation* a
/// backend value selects, ignoring tuning. Monomorphized code paths (the
/// world loop) dispatch on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// [`EventQueue`] (monotone radix heap).
    Heap,
    /// [`crate::calendar::CalendarQueue`].
    Calendar,
}

impl QueueKind {
    /// The default backend value of this kind.
    pub fn default_backend(self) -> QueueBackend {
        match self {
            QueueKind::Heap => QueueBackend::BinaryHeap,
            QueueKind::Calendar => QueueBackend::Calendar(CalendarTuning::AUTO),
        }
    }
}

/// Which pending-event set a simulation runs on.
///
/// Threaded from `SimConfig` through the world loop so the event-queue
/// ablation (`DESIGN.md` §7) exercises the real hot path, not a synthetic
/// harness: every backend (and every calendar tuning) realizes the identical
/// deterministic total order, so reports are bit-for-bit equal across
/// backends — the knob is purely about performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// Monotone radix heap ([`EventQueue`]), the default. The variant keeps
    /// the name of the `std` binary heap it replaced (see the module docs).
    #[default]
    BinaryHeap,
    /// `O(1)`-amortized calendar queue
    /// ([`crate::calendar::CalendarQueue`]) under the given tuning.
    Calendar(CalendarTuning),
}

impl QueueBackend {
    /// Every backend the ablation sweeps and smokes iterate: the heap and
    /// the self-tuning calendar. Pinned calendar geometries still parse and
    /// run (`calendar:width=..,buckets=..`); suites that want one name it.
    pub const ALL: [QueueBackend; 2] =
        [QueueBackend::BinaryHeap, QueueBackend::Calendar(CalendarTuning::AUTO)];

    /// The self-tuning calendar backend.
    pub fn calendar_auto() -> Self {
        QueueBackend::Calendar(CalendarTuning::AUTO)
    }

    /// A fully pinned calendar backend.
    pub fn calendar_fixed(width: Time, buckets: usize) -> Self {
        QueueBackend::Calendar(CalendarTuning::fixed(width, buckets))
    }

    /// Short stable name (report fields, bench label prefixes): tuning is
    /// *not* encoded — see [`QueueBackend::describe`] for the full form.
    pub fn label(&self) -> &'static str {
        match self {
            QueueBackend::BinaryHeap => "heap",
            QueueBackend::Calendar(_) => "calendar",
        }
    }

    /// The implementation this backend selects.
    pub fn kind(&self) -> QueueKind {
        match self {
            QueueBackend::BinaryHeap => QueueKind::Heap,
            QueueBackend::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Full round-trippable form (`heap`, `calendar:auto`,
    /// `calendar:width=20480,buckets=16384`, …); parses back via
    /// [`std::str::FromStr`].
    pub fn describe(&self) -> String {
        match self {
            QueueBackend::BinaryHeap => "heap".to_string(),
            QueueBackend::Calendar(t) => format!("calendar:{}", t.describe()),
        }
    }
}

impl std::fmt::Display for QueueBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// The valid `--queue` spellings, kept in one place so every parse error
/// lists them.
const QUEUE_FORMS: &str =
    "heap, calendar, calendar:auto, calendar:width=<ps>, calendar:buckets=<n>, \
     calendar:width=<ps>,buckets=<n>";

impl std::str::FromStr for QueueBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let (head, opts) = match lower.split_once(':') {
            Some((h, o)) => (h, Some(o)),
            None => (lower.as_str(), None),
        };
        match head {
            "heap" | "binary-heap" | "binary_heap" | "binaryheap" => {
                if opts.is_some() {
                    return Err(format!(
                        "the heap backend takes no options in '{s}' (valid: {QUEUE_FORMS})"
                    ));
                }
                Ok(QueueBackend::BinaryHeap)
            }
            "calendar" | "calendar-queue" | "calendar_queue" => {
                let mut tuning = CalendarTuning::AUTO;
                for opt in opts.unwrap_or("auto").split(',') {
                    let opt = opt.trim();
                    match opt.split_once('=') {
                        None if opt == "auto" || opt.is_empty() => {}
                        Some(("width", v)) => {
                            let w: Time = v.parse().map_err(|_| {
                                format!("invalid calendar width '{v}' in '{s}' (picoseconds ≥ 1)")
                            })?;
                            if w == 0 {
                                return Err(format!(
                                    "calendar width must be ≥ 1 ps in '{s}' (valid: {QUEUE_FORMS})"
                                ));
                            }
                            tuning.width = Some(w);
                        }
                        Some(("buckets", v)) => {
                            let b: usize = v.parse().map_err(|_| {
                                format!("invalid calendar bucket count '{v}' in '{s}' (≥ 2)")
                            })?;
                            if b < 2 {
                                return Err(format!(
                                    "calendar needs ≥ 2 buckets in '{s}' (valid: {QUEUE_FORMS})"
                                ));
                            }
                            tuning.buckets = Some(b);
                        }
                        _ => {
                            return Err(format!(
                                "unknown calendar option '{opt}' in '{s}' (valid: {QUEUE_FORMS})"
                            ));
                        }
                    }
                }
                Ok(QueueBackend::Calendar(tuning))
            }
            _ => Err(format!("unknown queue backend '{s}' (valid: {QUEUE_FORMS})")),
        }
    }
}

/// Abstraction over pending-event sets so the world loop can swap
/// implementations (radix heap vs calendar queue).
pub trait PendingEvents<E> {
    /// Insert an event at absolute time `time`.
    ///
    /// `time` must be `>=` [`PendingEvents::now`] (no scheduling into the
    /// past). [`EventQueue`] panics on a violation in every build — its
    /// bucket order depends on it; the calendar debug-asserts it.
    fn push(&mut self, time: Time, event: E);
    /// Remove and return the earliest event, `(time, event)`.
    fn pop(&mut self) -> Option<(Time, E)>;
    /// Earliest pending timestamp, if any.
    fn peek_time(&self) -> Option<Time>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The time of the most recently popped event (the simulation clock).
    fn now(&self) -> Time;
    /// Total events popped so far (run statistics).
    fn events_processed(&self) -> u64;
    /// Total events pushed so far (run statistics).
    fn events_scheduled(&self) -> u64;
    /// Engine statistics (traffic counters plus backend internals).
    fn stats(&self) -> EngineStats;

    // ---- partitioned-execution extensions -------------------------------
    //
    // The partitioned engine (`dfsim-core`) manages `(time, seq)` keys
    // itself: every shard assigns segmented sequence numbers so that the
    // union of all shards' pops realizes the same global total order the
    // single-threaded engine would. That requires scheduling under an
    // explicit tie-breaker, popping the key alongside the event, rewriting
    // provisional tie-breakers after a window merge, and advancing the
    // clock across an empty window.

    /// Insert an event under an explicit tie-breaker `seq` instead of the
    /// queue's internal counter. The internal counter is bumped past `seq`
    /// so later [`PendingEvents::push`] calls cannot collide.
    fn push_seq(&mut self, time: Time, seq: u64, event: E);

    /// Remove and return the earliest event together with its full
    /// `(time, seq)` key.
    fn pop_keyed(&mut self) -> Option<(Time, u64, E)>;

    /// Visit every pending event, allowing its `seq` to be rewritten in
    /// place. The caller must preserve the *relative* `(time, seq)` order
    /// of all pending pairs (monotone renumbering); implementations may
    /// rely on that to keep their internal geometry valid.
    fn for_each_pending_mut(&mut self, f: &mut dyn FnMut(Time, &mut u64));

    /// Advance the clock to `t` without popping (an empty conservative
    /// window). `t` must be `>= now()` and `<=` every pending time.
    fn advance_clock(&mut self, t: Time);
}

/// A pending-event set constructible from a [`QueueBackend`] value — what
/// the config knob resolves to at the type level.
pub trait SimQueue<E>: PendingEvents<E> + Sized {
    /// The implementation this type realizes.
    const KIND: QueueKind;

    /// Construct under `backend`'s tuning. Callers dispatch on
    /// [`QueueBackend::kind`] first; a mismatched kind falls back to this
    /// implementation's defaults (debug-asserted).
    fn for_backend(backend: QueueBackend) -> Self;

    /// Construct with simulation-appropriate defaults.
    fn for_simulation() -> Self {
        Self::for_backend(Self::KIND.default_backend())
    }
}

impl<E> SimQueue<E> for EventQueue<E> {
    const KIND: QueueKind = QueueKind::Heap;

    fn for_backend(backend: QueueBackend) -> Self {
        debug_assert_eq!(backend.kind(), QueueKind::Heap, "backend dispatch mismatch");
        Self::new()
    }
}

/// What a bucket stores: the ordering pair and the slab slot of the payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: Time,
    seq: u64,
    slot: usize,
}

/// One bucket per bit of [`Time`]; the occupancy mask is a `u64`.
const BUCKETS: usize = Time::BITS as usize;
const _: () = assert!(BUCKETS == u64::BITS as usize);

/// Keys per bucket chunk. A bucket is a list of fixed-size chunks drawn from
/// a shared pool, not one growing buffer: a burst that cascades down through
/// k buckets then needs the burst's worth of chunks once — each level hands
/// its chunks back as it drains — instead of pinning a burst-sized buffer in
/// every bucket it passed through, and steady traffic recycles chunks
/// without touching the allocator.
const CHUNK: usize = 256;

/// Monotone radix-heap pending-event set with deterministic FIFO
/// tie-breaking (module docs describe the structure and its contract).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Keys at `time == last`, ascending by `seq`; `run[head..]` is pending.
    /// Cleared the moment it is exhausted, so it is empty iff nothing is
    /// pending at `last`.
    run: Vec<Key>,
    head: usize,
    /// `buckets[b]`: keys whose time first differs from `last` at bit `b`, in
    /// push order, as chunks of at most [`CHUNK`] keys.
    buckets: [Vec<Vec<Key>>; BUCKETS],
    /// Earliest time in each bucket (`Time::MAX` when empty): the refill
    /// minimum and `peek_time` without a scan.
    mins: [Time; BUCKETS],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Radix reference: the minimum found by the latest refill, `<= now`.
    last: Time,
    /// Event payloads; `free` lists the vacant slots.
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    /// Empty chunks waiting for a bucket that needs one; holds at most the
    /// live population's worth, the rest is freed.
    pool: Vec<Vec<Key>>,
    len: usize,
    next_seq: u64,
    now: Time,
    popped: u64,
    pushed: u64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cold]
#[inline(never)]
fn contract_violation(what: &str, time: Time, limit: Time) -> ! {
    // lint: allow(no-panic-paths) — the monotone contract is what keeps the radix buckets ordered; a caller that breaks it has a scheduling bug, and carrying on would silently reorder events
    panic!("{what}: {time} ps against {limit} ps")
}

impl<E> EventQueue<E> {
    /// Create an empty queue starting at time zero.
    pub fn new() -> Self {
        Self {
            run: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [Time::MAX; BUCKETS],
            occupied: 0,
            last: 0,
            slab: Vec::new(),
            free: Vec::new(),
            pool: Vec::new(),
            len: 0,
            next_seq: 0,
            now: 0,
            popped: 0,
            pushed: 0,
            peak: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events popped so far (for run statistics).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Total number of events pushed so far.
    #[inline]
    pub fn events_scheduled(&self) -> u64 {
        self.pushed
    }

    /// File `key`, whose time differs from the radix reference by the
    /// non-zero `diff = key.time ^ last`, in the bucket of the highest
    /// differing bit.
    #[inline]
    fn file(&mut self, diff: u64, key: Key) {
        let b = diff.ilog2() as usize;
        match self.buckets[b].last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(key),
            _ => {
                let mut chunk = self.pool.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
                chunk.push(key);
                self.buckets[b].push(chunk);
            }
        }
        self.mins[b] = self.mins[b].min(key.time);
        self.occupied |= 1 << b;
    }

    #[inline]
    fn insert(&mut self, time: Time, seq: u64, event: E) {
        if time < self.now {
            contract_violation("scheduling into the past", time, self.now);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let key = Key { time, seq, slot };
        let diff = time ^ self.last;
        if diff != 0 {
            self.file(diff, key);
        } else if self.run.last().is_none_or(|tail| tail.seq < seq) {
            // Plain pushes carry ascending seqs, so this is the usual case.
            self.run.push(key);
        } else {
            // An explicit `push_seq` below the run's tail.
            let at = self.head + self.run[self.head..].partition_point(|k| k.seq < seq);
            self.run.insert(at, key);
        }
        self.len += 1;
        self.pushed += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
    }

    /// The run is exhausted: empty the lowest occupied bucket, make its
    /// earliest time the new radix reference and run, and file the rest —
    /// all of which agree with the new reference above the bucket's bit —
    /// into lower buckets. Returns `false` when nothing is pending.
    fn refill(&mut self) -> bool {
        debug_assert!(self.run.is_empty() && self.head == 0, "refill with a live run");
        if self.occupied == 0 {
            return false;
        }
        if self.run.capacity() > CHUNK.max(4 * self.len) {
            // A tie far larger than what is pending now grew it.
            self.run = Vec::new();
        }
        let b = self.occupied.trailing_zeros() as usize;
        let mut chunks = std::mem::take(&mut self.buckets[b]);
        self.last = self.mins[b];
        self.mins[b] = Time::MAX;
        self.occupied &= self.occupied - 1;
        // Keys of one timestamp sit in push order, which is seq order
        // unless `push_seq` keys arrived out of order.
        let mut ascending = true;
        for (i, chunk) in chunks.iter_mut().enumerate() {
            for &key in &*chunk {
                let diff = key.time ^ self.last;
                if diff != 0 {
                    self.file(diff, key);
                } else {
                    ascending &= self.run.last().is_none_or(|tail| tail.seq < key.seq);
                    self.run.push(key);
                }
            }
            chunk.clear();
            // The bucket keeps its first chunk; the rest go back at once, so
            // the buckets being filled can take them.
            if i > 0 && self.pool.len() * CHUNK < self.len {
                self.pool.push(std::mem::take(chunk));
            }
        }
        chunks.truncate(1);
        self.buckets[b] = chunks;
        if !ascending {
            self.run.sort_unstable_by_key(|k| k.seq);
        }
        true
    }

    /// Total capacity, in keys, of every buffer the queue is holding on to.
    #[cfg(test)]
    fn retained_key_slots(&self) -> usize {
        let chunks = self.buckets.iter().flatten().chain(&self.pool);
        self.run.capacity() + chunks.map(Vec::capacity).sum::<usize>()
    }
}

impl<E> PendingEvents<E> for EventQueue<E> {
    #[inline]
    fn push(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, seq, event);
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    #[inline]
    fn peek_time(&self) -> Option<Time> {
        if !self.run.is_empty() {
            Some(self.last)
        } else if self.occupied != 0 {
            Some(self.mins[self.occupied.trailing_zeros() as usize])
        } else {
            None
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn now(&self) -> Time {
        self.now
    }

    #[inline]
    fn events_processed(&self) -> u64 {
        self.popped
    }

    #[inline]
    fn events_scheduled(&self) -> u64 {
        self.pushed
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            events_processed: self.popped,
            events_scheduled: self.pushed,
            pending: self.len,
            peak_pending: self.peak,
            ..EngineStats::default()
        }
    }

    #[inline]
    fn push_seq(&mut self, time: Time, seq: u64, event: E) {
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        self.insert(time, seq, event);
    }

    #[inline]
    fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        if self.run.is_empty() && !self.refill() {
            return None;
        }
        let key = self.run[self.head];
        self.head += 1;
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
        }
        // lint: allow(no-panic-paths) — a key is filed only together with its payload (`insert`) and leaves the run only here, so the slot of a pending key is always occupied
        let event = self.slab[key.slot].take().expect("pending key without a payload");
        self.free.push(key.slot);
        self.len -= 1;
        self.popped += 1;
        self.now = key.time;
        Some((key.time, key.seq, event))
    }

    fn for_each_pending_mut(&mut self, f: &mut dyn FnMut(Time, &mut u64)) {
        // Only seqs change and their relative order is preserved, so every
        // key stays in its bucket and the run stays sorted.
        let pending =
            self.run[self.head..].iter_mut().chain(self.buckets.iter_mut().flatten().flatten());
        for key in pending {
            f(key.time, &mut key.seq);
        }
    }

    #[inline]
    fn advance_clock(&mut self, t: Time) {
        if t < self.now {
            contract_violation("clock moved backwards", t, self.now);
        }
        if let Some(pending) = self.peek_time().filter(|&p| p < t) {
            contract_violation("clock advanced past a pending event", t, pending);
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(5, ());
        q.push(5, ());
        q.push(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 7);
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        assert_eq!(q.events_scheduled(), 2);
        assert_eq!(q.events_processed(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, 10u64);
        q.push(40, 40);
        assert_eq!(q.pop(), Some((10, 10)));
        // Now = 10; schedule more in the future.
        q.push(20, 20);
        q.push(30, 30);
        assert_eq!(q.pop(), Some((20, 20)));
        assert_eq!(q.pop(), Some((30, 30)));
        assert_eq!(q.pop(), Some((40, 40)));
    }

    #[test]
    fn heap_stats_track_peak_and_traffic() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(i, i);
        }
        for _ in 0..7 {
            q.pop();
        }
        let s = q.stats();
        assert_eq!(s.events_scheduled, 10);
        assert_eq!(s.events_processed, 7);
        assert_eq!(s.pending, 3);
        assert_eq!(s.peak_pending, 10);
        assert_eq!(s.resizes, 0);
        assert_eq!(s.buckets, 0);
    }

    /// The monotone contract is checked in every build, at every entry
    /// point: a push below the clock would be filed in the wrong bucket.
    #[test]
    #[should_panic(expected = "scheduling into the past: 9 ps against 10 ps")]
    fn push_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(9, ());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past: 9 ps against 10 ps")]
    fn push_seq_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.advance_clock(10);
        q.push_seq(9, 0, ());
    }

    #[test]
    #[should_panic(expected = "clock advanced past a pending event: 11 ps against 10 ps")]
    fn advance_clock_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.advance_clock(11);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards: 4 ps against 5 ps")]
    fn advance_clock_backwards_panics() {
        let mut q = EventQueue::<()>::new();
        q.advance_clock(5);
        q.advance_clock(4);
    }

    /// A push between the clock and the earliest pending event — legal, and
    /// below everything the buckets hold — still pops first: `advance_clock`
    /// and `peek_time` leave the radix reference alone.
    #[test]
    fn push_below_every_pending_event_pops_first() {
        let mut q = EventQueue::new();
        q.push(5, "first");
        q.push(1_000, "far");
        assert_eq!(q.pop(), Some((5, "first")));
        assert_eq!(q.peek_time(), Some(1_000));
        q.advance_clock(600);
        q.push(700, "near");
        q.push(600, "now");
        assert_eq!(q.peek_time(), Some(600));
        assert_eq!(q.pop(), Some((600, "now")));
        assert_eq!(q.pop(), Some((700, "near")));
        assert_eq!(q.pop(), Some((1_000, "far")));
    }

    /// Bit 63 and equal-to-reference times take the bucket arithmetic to
    /// its edges.
    #[test]
    fn extreme_times_stay_ordered() {
        let mut q = EventQueue::new();
        for (i, t) in [Time::MAX, 0, 1 << 63, Time::MAX - 1, 0, 1].into_iter().enumerate() {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(0, 1), (0, 4), (1, 5), (1 << 63, 2), (Time::MAX - 1, 3), (Time::MAX, 0)]
        );
    }

    /// The radix heap against the retired binary heap on a seeded
    /// push/pop/push_seq stream (the proptests in `tests/` go further; this
    /// one also runs under miri).
    #[test]
    fn matches_the_oracle_on_a_random_stream() {
        use crate::oracle::OracleQueue;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(14);
        let (mut want, mut got) = (OracleQueue::new(), EventQueue::new());
        for step in 0..4_000u64 {
            let now = want.now();
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    let far = if rng.gen_bool(0.02) { 50_000_000u64 } else { 2_000 };
                    let t = now + rng.gen_range(0..far);
                    want.push(t, step);
                    got.push(t, step);
                }
                5 => {
                    // Two explicit seqs at the current timestamp, highest
                    // first.
                    for seq in [2 * step + 4_001, 2 * step + 4_000] {
                        want.push_seq(now, seq, step);
                        got.push_seq(now, seq, step);
                    }
                }
                _ => assert_eq!(want.pop_keyed(), got.pop_keyed(), "step {step}"),
            }
            assert_eq!(want.peek_time(), got.peek_time(), "step {step}");
        }
        while let Some(w) = want.pop_keyed() {
            assert_eq!(Some(w), got.pop_keyed());
        }
        assert_eq!(want.stats(), got.stats());
    }

    /// Guard for the peak-RSS pitfall: a single-horizon burst cascades
    /// through the buckets on its way out and grows a burst-sized buffer in
    /// each; once the population is back to steady state the queue must
    /// not still be holding them.
    #[test]
    #[cfg_attr(miri, ignore)] // 10^5 events; the structure is covered by the smaller tests
    fn burst_buffers_are_given_back() {
        const BURST: u64 = 100_000;
        const STEADY: usize = 1_000;
        let mut rng = crate::SimRng::new(14);
        let mut q = EventQueue::new();
        for i in 0..BURST {
            q.push(5_000_000 + rng.below(1_000_000), i);
        }
        assert!(q.retained_key_slots() >= BURST as usize);
        while q.len() > STEADY {
            q.pop();
        }
        // Hold the steady population for a while: pop one, push one.
        for i in 0..20 * STEADY as u64 {
            let (now, _) = q.pop().unwrap();
            q.push(now + 1 + rng.below(40_000), i);
        }
        assert_eq!(q.len(), STEADY);
        let retained = q.retained_key_slots();
        assert!(
            retained <= 16 * STEADY,
            "{retained} key slots retained for {STEADY} pending events"
        );
    }

    #[test]
    fn backend_labels_and_kinds() {
        assert_eq!(QueueBackend::BinaryHeap.label(), "heap");
        assert_eq!(QueueBackend::calendar_auto().label(), "calendar");
        assert_eq!(QueueBackend::BinaryHeap.kind(), QueueKind::Heap);
        assert_eq!(QueueBackend::calendar_fixed(10, 8).kind(), QueueKind::Calendar);
        assert_eq!(QueueBackend::default(), QueueBackend::BinaryHeap);
        assert_eq!(QueueBackend::ALL.len(), 2);
    }

    #[test]
    fn backend_describe_round_trips() {
        for b in [
            QueueBackend::BinaryHeap,
            QueueBackend::calendar_auto(),
            QueueBackend::calendar_fixed(20_480, 16_384),
            QueueBackend::Calendar(CalendarTuning { width: Some(512), buckets: None }),
            QueueBackend::Calendar(CalendarTuning { width: None, buckets: Some(64) }),
        ] {
            let s = b.describe();
            assert_eq!(s.parse::<QueueBackend>().unwrap(), b, "{s} did not round-trip");
        }
    }

    #[test]
    fn backend_parses_legacy_and_tuned_forms() {
        assert_eq!("heap".parse::<QueueBackend>().unwrap(), QueueBackend::BinaryHeap);
        assert_eq!("Calendar".parse::<QueueBackend>().unwrap(), QueueBackend::calendar_auto());
        assert_eq!(
            "calendar:width=20480,buckets=16384".parse::<QueueBackend>().unwrap(),
            QueueBackend::Calendar(CalendarTuning::FIXED_NETWORK)
        );
        assert_eq!(
            "calendar:buckets=128".parse::<QueueBackend>().unwrap(),
            QueueBackend::Calendar(CalendarTuning { width: None, buckets: Some(128) })
        );
    }

    #[test]
    fn backend_parse_errors_list_valid_forms() {
        for bad in
            ["warp", "calendar:width=0", "calendar:speed=9", "heap:width=3", "calendar:buckets=1"]
        {
            let err = bad.parse::<QueueBackend>().unwrap_err();
            assert!(
                err.contains("calendar:width=<ps>") || err.contains("picoseconds"),
                "error for '{bad}' must list valid forms: {err}"
            );
        }
        let err = "calendar:width=abc".parse::<QueueBackend>().unwrap_err();
        assert!(err.contains("abc"), "{err}");
    }

    /// Both backends honor explicit sequence numbers: pops come out in
    /// global `(time, seq)` order regardless of push order, and `pop_keyed`
    /// reports the key that ordered them.
    #[test]
    fn push_seq_orders_by_explicit_key_on_both_backends() {
        let mut backends: Vec<Box<dyn PendingEvents<u32>>> = vec![
            Box::new(EventQueue::new()),
            Box::new(crate::CalendarQueue::with_tuning(CalendarTuning::default())),
        ];
        for q in &mut backends {
            q.push_seq(50, 7, 1);
            q.push_seq(50, 3, 2);
            q.push_seq(10, 9, 3);
            q.push_seq(50, 5, 4);
            assert_eq!(q.pop_keyed(), Some((10, 9, 3)));
            assert_eq!(q.pop_keyed(), Some((50, 3, 2)));
            assert_eq!(q.pop_keyed(), Some((50, 5, 4)));
            assert_eq!(q.pop_keyed(), Some((50, 7, 1)));
            assert_eq!(q.pop_keyed(), None);
        }
    }

    /// Plain `push` after `push_seq` never reuses a seq at or below the
    /// explicit one, so mixed usage keeps FIFO-at-equal-time semantics.
    #[test]
    fn push_after_push_seq_sorts_later_at_equal_time() {
        let mut backends: Vec<Box<dyn PendingEvents<&'static str>>> = vec![
            Box::new(EventQueue::new()),
            Box::new(crate::CalendarQueue::with_tuning(CalendarTuning::default())),
        ];
        for q in &mut backends {
            q.push_seq(5, 100, "explicit");
            q.push(5, "implicit");
            assert_eq!(q.pop(), Some((5, "explicit")));
            assert_eq!(q.pop(), Some((5, "implicit")));
        }
    }

    /// A monotone renumbering of pending seqs (the partitioned engine's
    /// barrier merge) preserves pop order on both backends.
    #[test]
    fn monotone_renumber_preserves_pop_order() {
        let mut backends: Vec<Box<dyn PendingEvents<u64>>> = vec![
            Box::new(EventQueue::new()),
            Box::new(crate::CalendarQueue::with_tuning(CalendarTuning::default())),
        ];
        for q in &mut backends {
            for i in 0..64u64 {
                // times collide heavily so seq ordering matters
                q.push_seq(i % 4, i, i);
            }
            // Renumber seq s -> s * 3 + 1: monotone, so order is unchanged.
            q.for_each_pending_mut(&mut |_, seq| *seq = *seq * 3 + 1);
            let mut prev: Option<(Time, u64)> = None;
            while let Some((t, s, ev)) = q.pop_keyed() {
                assert_eq!(s, ev * 3 + 1, "renumbering lost an entry");
                if let Some(p) = prev {
                    assert!((t, s) > p, "order broken: {:?} after {:?}", (t, s), p);
                }
                prev = Some((t, s));
            }
        }
    }

    /// `advance_clock` moves `now` across an empty window (no pops) and
    /// subsequent pushes land correctly — the calendar backend must also
    /// re-anchor its cursor so it doesn't rescan dead days.
    #[test]
    fn advance_clock_jumps_empty_windows() {
        let mut backends: Vec<Box<dyn PendingEvents<&'static str>>> = vec![
            Box::new(EventQueue::new()),
            Box::new(crate::CalendarQueue::with_tuning(CalendarTuning::default())),
        ];
        for q in &mut backends {
            q.push(1_000_000, "far");
            q.advance_clock(600_000);
            assert_eq!(q.now(), 600_000);
            q.push(700_000, "near");
            assert_eq!(q.pop(), Some((700_000, "near")));
            assert_eq!(q.pop(), Some((1_000_000, "far")));
            q.advance_clock(2_000_000);
            assert_eq!(q.now(), 2_000_000);
            assert_eq!(q.pop(), None);
        }
    }
}
