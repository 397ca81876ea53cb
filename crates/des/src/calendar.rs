//! Calendar-queue pending-event set, with optional self-tuning.
//!
//! A calendar queue buckets events by time modulo a rotating "year" of
//! fixed-width "days". For workloads whose pending events are spread over a
//! bounded horizon (as in a network simulation where events live at most a
//! few microseconds ahead), `push`/`pop` are O(1) amortized versus the
//! O(log n) of a binary heap — *if* the bucket width and count fit the event
//! mix. This implementation is the ablation partner of
//! [`crate::queue::EventQueue`]; both satisfy [`crate::queue::PendingEvents`]
//! and the `event_queue` bench compares them.
//!
//! # Self-tuning
//!
//! Under [`CalendarTuning::AUTO`] (any knob left `None`) the queue adapts:
//!
//! * **Bucket count** follows the pending-set size: when the load factor
//!   (events per bucket) exceeds 2 the array doubles; when it drops below ½
//!   it halves (hysteresis prevents thrash). The array stays within
//!   `[MIN_BUCKETS, MAX_BUCKETS]`.
//! * **Bucket width** follows the event-time spacing à la Brown's rule: a
//!   ring of recent inter-pop gaps is sampled (falling back to sorted
//!   queue-content sampling during warm-up), and at every rebuild the
//!   width is re-estimated as 3× the mean non-zero gap — rounded up to a
//!   power of two so the day-index hot path shifts instead of dividing —
//!   so a day holds a handful of events regardless of the workload's time
//!   scale. Drift is re-checked at power-of-two pop counts (fast warm-up)
//!   and every 4 096 pops thereafter; the calendar is rebuilt when the
//!   estimate moves by ≥4× (two power-of-two notches, so it cannot flap).
//!
//! Rebuilds reuse the previous bucket allocations through a spare-`Vec`
//! pool, so steady-state operation after warm-up does not allocate.
//!
//! Within a bucket events are kept sorted by `(time, seq)` insertion, so
//! the pop order is exactly the same deterministic total order as the
//! heap's — bucket geometry (and therefore the tuning policy) can never
//! change simulation results, only speed.

use crate::queue::{CalendarTuning, EngineStats, PendingEvents, QueueBackend, QueueKind, SimQueue};
use crate::time::Time;

/// Smallest bucket array the self-tuner will shrink to (also the auto
/// mode's starting size).
pub const MIN_BUCKETS: usize = 16;
/// Largest bucket array the self-tuner will grow to.
pub const MAX_BUCKETS: usize = 1 << 20;
/// Default bucket width when auto mode has no gap samples yet (~one packet
/// serialization time).
pub const DEFAULT_WIDTH: Time = 20_480;
/// Inter-pop gap samples kept for width estimation.
const GAP_WINDOW: usize = 32;
/// Minimum gap samples before an auto width estimate is trusted.
const MIN_GAP_SAMPLES: usize = 8;
/// Spare bucket `Vec`s kept across rebuilds (allocation reuse).
const SPARE_POOL_CAP: usize = 1 << 14;

/// A single scheduled entry within a bucket.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

/// Calendar queue with a fixed or self-tuned bucket width and count.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// Bucket array; index = (time / width) % buckets.len().
    buckets: Vec<Vec<Entry<E>>>,
    /// Width of one bucket (day) in picoseconds.
    width: Time,
    /// `log2(width)` when the width is a power of two (auto-estimated
    /// widths are rounded up to one): day = time >> shift instead of a
    /// u64 division in the per-event hot path.
    width_shift: Option<u32>,
    /// `buckets.len() - 1` when the count is a power of two (always, in
    /// auto mode): index = day & mask instead of a modulo.
    bucket_mask: Option<usize>,
    /// Current day index the cursor is scanning.
    cursor: usize,
    /// Start time of the cursor's day.
    day_start: Time,
    /// Cached time of the earliest pending event (`None` = empty). Kept
    /// exact by every mutation so `peek_time` is O(1): pops re-locate
    /// eagerly (the same cursor walk the next pop would have paid), pushes
    /// fold in a min and re-anchor the cursor when they land earlier.
    next_time: Option<Time>,
    len: usize,
    next_seq: u64,
    now: Time,
    popped: u64,
    pushed: u64,
    /// Self-tuning: adapt the bucket count to the load factor.
    auto_buckets: bool,
    /// Self-tuning: re-estimate the width from sampled gaps at rebuilds.
    auto_width: bool,
    /// Ring buffer of recent inter-pop gaps (width estimator input).
    gaps: [Time; GAP_WINDOW],
    gap_idx: usize,
    gap_count: usize,
    /// Scratch + spare allocations reused across rebuilds.
    scratch: Vec<Entry<E>>,
    spare: Vec<Vec<Entry<E>>>,
    // ---- statistics ----
    peak_len: usize,
    resizes: u64,
    bucket_scans: u64,
    sparse_jumps: u64,
}

impl<E> CalendarQueue<E> {
    /// Create a calendar queue with both knobs pinned.
    ///
    /// `width` is the bucket granularity in picoseconds (e.g. one packet
    /// serialization time, ~20 ns); `num_buckets` sets the year length
    /// `width * num_buckets`, which should exceed the typical scheduling
    /// horizon to avoid long overflow chains.
    pub fn new(width: Time, num_buckets: usize) -> Self {
        Self::with_tuning(CalendarTuning::fixed(width, num_buckets))
    }

    /// Fully self-tuning calendar queue.
    pub fn auto() -> Self {
        Self::with_tuning(CalendarTuning::AUTO)
    }

    /// Create under an arbitrary [`CalendarTuning`]: pinned knobs are
    /// honored exactly, auto knobs start from small defaults and adapt.
    pub fn with_tuning(tuning: CalendarTuning) -> Self {
        let width = tuning.width.unwrap_or(DEFAULT_WIDTH);
        let num_buckets = tuning.buckets.unwrap_or(MIN_BUCKETS);
        assert!(width > 0, "bucket width must be positive");
        assert!(num_buckets >= 2, "need at least two buckets");
        Self {
            buckets: (0..num_buckets).map(|_| Vec::new()).collect(),
            width,
            width_shift: width.is_power_of_two().then(|| width.trailing_zeros()),
            bucket_mask: num_buckets.is_power_of_two().then(|| num_buckets - 1),
            cursor: 0,
            day_start: 0,
            next_time: None,
            len: 0,
            next_seq: 0,
            now: 0,
            popped: 0,
            pushed: 0,
            auto_buckets: tuning.buckets.is_none(),
            auto_width: tuning.width.is_none(),
            gaps: [0; GAP_WINDOW],
            gap_idx: 0,
            gap_count: 0,
            scratch: Vec::new(),
            spare: Vec::new(),
            peak_len: 0,
            resizes: 0,
            bucket_scans: 0,
            sparse_jumps: 0,
        }
    }

    /// The time of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current bucket count (tests, stats).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in picoseconds (tests, stats).
    #[inline]
    pub fn bucket_width(&self) -> Time {
        self.width
    }

    #[inline]
    fn day_of(&self, time: Time) -> u64 {
        match self.width_shift {
            Some(s) => time >> s,
            None => time / self.width,
        }
    }

    #[inline]
    fn bucket_index(&self, time: Time) -> usize {
        let day = self.day_of(time) as usize;
        match self.bucket_mask {
            Some(m) => day & m,
            None => day % self.buckets.len(),
        }
    }

    /// Sorted insert keeping each bucket ordered by (time, seq).
    fn insert_sorted(bucket: &mut Vec<Entry<E>>, entry: Entry<E>) {
        let pos = bucket.partition_point(|e| (e.time, e.seq) < (entry.time, entry.seq));
        bucket.insert(pos, entry);
    }

    fn min_pending_time(&self) -> Option<Time> {
        self.buckets.iter().filter_map(|b| b.first().map(|e| e.time)).min()
    }

    /// Walk the cursor forward to the day holding the earliest pending
    /// event and return that event's time (`None` when empty). Removes
    /// nothing: pops call this to position themselves, then again after
    /// removing so [`CalendarQueue::next_time`] stays exact. The walk is
    /// the calendar's usual amortized day scan; a whole empty year falls
    /// back to one full scan plus a sparse jump.
    fn locate(&mut self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        let mut scanned = 0usize;
        loop {
            let day_end = self.day_start + self.width;
            if let Some(first) = self.buckets[self.cursor].first() {
                if first.time < day_end {
                    return Some(first.time);
                }
            }
            self.cursor += 1;
            if self.cursor == n {
                self.cursor = 0;
            }
            self.day_start += self.width;
            scanned += 1;
            self.bucket_scans += 1;
            if scanned >= n {
                #[expect(
                    clippy::expect_used,
                    reason = "pop is only reached when len > 0 (checked by the caller), so at least one bucket holds a pending event and the scan minimum exists"
                )]
                let min_t = self.min_pending_time().expect("len > 0 but no pending events");
                self.cursor = self.bucket_index(min_t);
                self.day_start = self.day_of(min_t) * self.width;
                scanned = 0;
                self.sparse_jumps += 1;
            }
        }
    }

    /// Fold a fresh push into the earliest-event cache. A push earlier than
    /// the cached minimum also re-anchors the cursor at its day: the cursor
    /// may already have walked ahead to the previous minimum, and a pending
    /// event behind the cursor's day would otherwise only be reachable
    /// through a full-year scan.
    #[inline]
    fn note_push(&mut self, time: Time) {
        if self.next_time.is_none_or(|m| time < m) {
            self.next_time = Some(time);
            self.cursor = self.bucket_index(time);
            self.day_start = self.day_of(time) * self.width;
        }
    }

    /// Record an inter-pop gap sample for the width estimator.
    #[inline]
    fn record_gap(&mut self, gap: Time) {
        self.gaps[self.gap_idx] = gap;
        self.gap_idx = (self.gap_idx + 1) % GAP_WINDOW;
        if self.gap_count < GAP_WINDOW {
            self.gap_count += 1;
        }
    }

    /// Brown's-rule width estimate: 3× the trimmed mean non-zero inter-pop
    /// gap of the sample window. `None` until enough samples exist (or when
    /// every sampled gap is zero — ties tell us nothing about spacing).
    fn estimate_width(&self) -> Option<Time> {
        if self.gap_count < MIN_GAP_SAMPLES {
            return None;
        }
        let (mut sum, mut n) = (0u128, 0u128);
        for &g in &self.gaps[..self.gap_count] {
            if g > 0 {
                sum += g as u128;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        // Trim outlier gaps > 2× the mean: one ms-scale jump (a job
        // arrival, a compute wake-up) in the window would otherwise blow
        // the width up ~1000× and collapse all ns-scale traffic into a
        // single bucket until the next retune.
        let mean = sum / n;
        let (mut tsum, mut tn) = (0u128, 0u128);
        for &g in &self.gaps[..self.gap_count] {
            if g > 0 && (g as u128) <= 2 * mean {
                tsum += g as u128;
                tn += 1;
            }
        }
        if tn > 0 {
            (sum, n) = (tsum, tn);
        }
        // Round to a power of two: the bucket-index hot path then shifts
        // instead of dividing, and geometry cannot affect the pop order.
        Some(((3 * sum / n) as Time).max(1).next_power_of_two())
    }

    /// Width estimate from the queue contents (Brown's original sampling),
    /// used at rebuilds before enough pop gaps exist: sample up to 64
    /// pending times, sort, and take 3× the mean adjacent gap after
    /// trimming outlier gaps > 2× the mean (far-horizon spikes would
    /// otherwise blow the width up).
    fn estimate_width_from(entries: &[Entry<E>]) -> Option<Time> {
        if entries.len() < 4 {
            return None;
        }
        let stride = entries.len().div_ceil(64);
        let mut times = [0 as Time; 64];
        let mut m = 0usize;
        for e in entries.iter().step_by(stride).take(64) {
            times[m] = e.time;
            m += 1;
        }
        let times = &mut times[..m];
        times.sort_unstable();
        let (mut sum, mut n) = (0u128, 0u128);
        for w in times.windows(2) {
            sum += (w[1] - w[0]) as u128;
            n += 1;
        }
        if n == 0 || sum == 0 {
            return None;
        }
        let mean = sum / n;
        let (mut tsum, mut tn) = (0u128, 0u128);
        for w in times.windows(2) {
            let g = (w[1] - w[0]) as u128;
            if g <= 2 * mean {
                tsum += g;
                tn += 1;
            }
        }
        if tn == 0 || tsum == 0 {
            return None;
        }
        Some(((3 * tsum / tn) as Time).max(1).next_power_of_two())
    }

    /// Rebuild the bucket array with `new_buckets` buckets (re-estimating
    /// the width first when in auto-width mode). Entries keep their
    /// `(time, seq)` identity, so the pop order is unchanged; only the
    /// geometry moves. Old bucket allocations are recycled via the spare
    /// pool — steady-state rebuilds do not allocate.
    fn rebuild(&mut self, new_buckets: usize) {
        let new_buckets = new_buckets.clamp(2, MAX_BUCKETS);
        // Drain every entry into the scratch buffer, keeping the emptied
        // bucket Vecs (and their capacity) for reuse.
        let mut old = std::mem::take(&mut self.buckets);
        let mut scratch = std::mem::take(&mut self.scratch);
        for b in &mut old {
            scratch.append(b);
        }
        if self.auto_width {
            // Prefer the inter-pop gap sample (what actually fires, à la
            // Brown's dequeue sampling); fall back to the queue contents
            // during warm-up when too few pops have happened.
            if let Some(w) = self.estimate_width().or_else(|| Self::estimate_width_from(&scratch)) {
                self.width = w;
            }
        }
        self.width_shift = self.width.is_power_of_two().then(|| self.width.trailing_zeros());
        self.bucket_mask = new_buckets.is_power_of_two().then(|| new_buckets - 1);
        let mut pool = std::mem::take(&mut self.spare);
        pool.append(&mut old);
        self.buckets = (0..new_buckets)
            .map(|_| {
                pool.pop()
                    .map(|mut v| {
                        v.clear();
                        v
                    })
                    .unwrap_or_default()
            })
            .collect();
        pool.truncate(SPARE_POOL_CAP);
        self.spare = pool;
        // Distribute by append, then sort each bucket once — O(k log k)
        // per bucket instead of O(k²) repeated sorted-insert shifts.
        for e in scratch.drain(..) {
            let idx = self.bucket_index(e.time);
            self.buckets[idx].push(e);
        }
        for b in &mut self.buckets {
            if b.len() > 1 {
                b.sort_unstable_by_key(|e| (e.time, e.seq));
            }
        }
        self.scratch = scratch;
        // Re-anchor the cursor at the *clock's* day — never further ahead.
        // Every pending event is `>= now`, so scanning forward from here
        // finds them all; anchoring at the earliest pending event instead
        // would strand later pushes that land between `now` and that day
        // behind the cursor, breaking the pop order. A far-ahead earliest
        // event just costs one sparse jump on the next pop.
        self.cursor = self.bucket_index(self.now);
        self.day_start = self.day_of(self.now) * self.width;
        self.resizes += 1;
    }

    /// Width-drift check in fixed-bucket auto-width mode (and as a safety
    /// valve in full auto mode between load changes): rebuild when the
    /// estimate is off by ≥4× in either direction.
    fn maybe_retune_width(&mut self) {
        if let Some(w) = self.estimate_width() {
            // ≥4× hysteresis: power-of-two widths move in 2× notches, so a
            // 2× threshold would flap on estimates near a notch boundary.
            if w >= self.width.saturating_mul(4) || self.width >= w.saturating_mul(4) {
                self.rebuild(self.buckets.len());
            }
        }
    }
}

impl<E> PendingEvents<E> for CalendarQueue<E> {
    fn push(&mut self, time: Time, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.bucket_index(time);
        Self::insert_sorted(&mut self.buckets[idx], Entry { time, seq, event });
        self.len += 1;
        self.pushed += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        self.note_push(time);
        // Load factor > 2: double the bucket array.
        if self.auto_buckets
            && self.len > self.buckets.len() * 2
            && self.buckets.len() < MAX_BUCKETS
        {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        // Position the cursor at the earliest event's day (the walk is free
        // when the cache is fresh — the cursor is already parked there).
        self.locate()?;
        let e = self.buckets[self.cursor].remove(0);
        self.len -= 1;
        self.popped += 1;
        debug_assert!(e.time >= self.now, "time went backwards");
        self.record_gap(e.time.saturating_sub(self.now));
        self.now = e.time;
        // Load factor < ½: halve the bucket array.
        if self.auto_buckets
            && self.buckets.len() > MIN_BUCKETS
            && self.len < self.buckets.len() / 2
        {
            self.rebuild(self.buckets.len() / 2);
        } else if self.auto_width && (self.popped & 0xFFF == 0 || self.popped.is_power_of_two()) {
            // Power-of-two checks adapt quickly out of the default width
            // during warm-up; the periodic check tracks slow drift
            // afterwards.
            self.maybe_retune_width();
        }
        // Eagerly re-locate: the exact scan the next pop would have paid,
        // done now so the cache (and thus `peek_time`) stays O(1) exact.
        self.next_time = self.locate();
        Some((e.time, e.seq, e.event))
    }

    fn peek_time(&self) -> Option<Time> {
        debug_assert_eq!(self.next_time, self.min_pending_time(), "stale earliest-event cache");
        self.next_time
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
            peak_pending: self.peak_len,
            resizes: self.resizes,
            bucket_scans: self.bucket_scans,
            sparse_jumps: self.sparse_jumps,
            buckets: self.buckets.len(),
            width_ps: self.width,
        }
    }

    fn push_seq(&mut self, time: Time, seq: u64, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        let idx = self.bucket_index(time);
        Self::insert_sorted(&mut self.buckets[idx], Entry { time, seq, event });
        self.len += 1;
        self.pushed += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        self.note_push(time);
        if self.auto_buckets
            && self.len > self.buckets.len() * 2
            && self.buckets.len() < MAX_BUCKETS
        {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    fn for_each_pending_mut(&mut self, f: &mut dyn FnMut(Time, &mut u64)) {
        // Buckets are sorted by (time, seq); a monotone renumbering keeps
        // every bucket's order intact, so entries can be rewritten in place.
        for b in &mut self.buckets {
            for e in b {
                f(e.time, &mut e.seq);
            }
        }
    }

    fn advance_clock(&mut self, t: Time) {
        debug_assert!(t >= self.now, "clock went backwards");
        debug_assert!(self.min_pending_time().is_none_or(|p| p >= t), "advancing past an event");
        self.now = t;
        // Re-anchor the cursor at the clock's day, exactly like `rebuild`:
        // every pending event is >= now, so scanning forward finds them all.
        self.cursor = self.bucket_index(self.now);
        self.day_start = self.day_of(self.now) * self.width;
    }
}

impl<E> SimQueue<E> for CalendarQueue<E> {
    const KIND: QueueKind = QueueKind::Calendar;

    fn for_backend(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Calendar(t) => Self::with_tuning(t),
            QueueBackend::BinaryHeap => {
                debug_assert!(false, "backend dispatch mismatch");
                Self::auto()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new(10, 8);
        q.push(95, "d");
        q.push(5, "a");
        q.push(25, "b");
        q.push(90, "c");
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((25, "b")));
        assert_eq!(q.pop(), Some((90, "c")));
        assert_eq!(q.pop(), Some((95, "d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = CalendarQueue::new(10, 8);
        for i in 0..50 {
            q.push(33, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((33, i)));
        }
    }

    #[test]
    fn handles_far_future_events() {
        // Event many "years" ahead of the calendar.
        let mut q = CalendarQueue::new(10, 4);
        q.push(1, "near");
        q.push(100_000, "far");
        assert_eq!(q.pop(), Some((1, "near")));
        assert_eq!(q.pop(), Some((100_000, "far")));
        assert!(q.stats().sparse_jumps > 0, "far event must trigger the sparse jump");
    }

    #[test]
    fn wrap_around_collision_respects_time() {
        // Bucket width 10, 4 buckets => year = 40. Times 5 and 45 share a
        // bucket but must pop in time order.
        let mut q = CalendarQueue::new(10, 4);
        q.push(45, "late");
        q.push(5, "early");
        assert_eq!(q.pop(), Some((5, "early")));
        assert_eq!(q.pop(), Some((45, "late")));
    }

    #[test]
    fn fixed_tuning_never_resizes() {
        let mut q = CalendarQueue::new(10, 4);
        for i in 0..1_000u64 {
            q.push(i * 3, i);
        }
        assert_eq!(q.num_buckets(), 4);
        assert_eq!(q.stats().resizes, 0);
        assert_eq!(q.stats().peak_pending, 1_000);
    }

    #[test]
    fn auto_mode_grows_with_load_and_shrinks_after() {
        let mut q = CalendarQueue::auto();
        for i in 0..10_000u64 {
            q.push(i * 7, i);
        }
        let grown = q.num_buckets();
        assert!(grown > MIN_BUCKETS, "load factor 2 must have forced growth");
        assert!(q.stats().resizes > 0);
        for i in 0..10_000u64 {
            assert_eq!(q.pop(), Some((i * 7, i)));
        }
        assert!(
            q.num_buckets() < grown,
            "draining must shrink the array back ({} vs {grown})",
            q.num_buckets()
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn auto_width_follows_event_spacing() {
        // Events 1 ms apart: the default ~20 ns width would force ~50k
        // bucket scans per pop; the tuner must widen days dramatically.
        let mut q = CalendarQueue::auto();
        let spacing: Time = 1_000_000_000; // 1 ms in ps
        let mut t = 0;
        for i in 0..256u64 {
            t += spacing;
            q.push(t, i);
        }
        for _ in 0..256 {
            q.pop().unwrap();
        }
        assert!(
            q.bucket_width() > DEFAULT_WIDTH,
            "width must have adapted upward: {} ps",
            q.bucket_width()
        );
    }

    #[test]
    fn resize_preserves_exact_order_mid_stream() {
        // Interleave pushes and pops so rebuilds happen while the cursor is
        // mid-year; compare against the heap oracle.
        use crate::oracle::OracleQueue;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let mut heap = OracleQueue::new();
        let mut cal = CalendarQueue::auto();
        let mut now = 0u64;
        for step in 0..30_000u64 {
            if rng.gen_bool(0.55) {
                let t = now + rng.gen_range(0..200_000u64);
                heap.push(t, step);
                cal.push(t, step);
            } else {
                let a = heap.pop();
                assert_eq!(a, cal.pop(), "divergence at step {step}");
                now = a.map(|(t, _)| t).unwrap_or(now);
            }
        }
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), cal.pop());
        }
        assert!(cal.stats().resizes > 0, "workload sized to force rebuilds");
    }

    #[test]
    fn matches_heap_on_random_workload() {
        use crate::oracle::OracleQueue;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut heap = OracleQueue::new();
        let mut cal = CalendarQueue::new(64, 32);
        let mut now = 0u64;
        let mut pending = 0i64;
        for step in 0..20_000 {
            if pending == 0 || (rng.gen_bool(0.6) && pending < 512) {
                let t = now + rng.gen_range(0..5_000u64);
                heap.push(t, step);
                cal.push(t, step);
                pending += 1;
            } else {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b, "divergence at step {step}");
                now = a.map(|(t, _)| t).unwrap_or(now);
                pending -= 1;
            }
        }
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), cal.pop());
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn rebuild_with_far_pending_keeps_later_near_pushes_ordered() {
        // Regression: a rebuild while every pending event is far in the
        // future must anchor the cursor at the clock, not at the earliest
        // pending day — otherwise a near-term push after the rebuild lands
        // "behind" the cursor and pops out of order.
        let mut q = CalendarQueue::auto();
        for i in 0..40u64 {
            q.push(1_000_000_000 + i, i);
        }
        assert!(q.stats().resizes > 0, "40 pushes must outgrow the initial 16 buckets");
        q.push(1, 999);
        assert_eq!(q.pop(), Some((1, 999)), "near event pushed after a rebuild must pop first");
        for i in 0..40u64 {
            assert_eq!(q.pop(), Some((1_000_000_000 + i, i)));
        }
    }

    #[test]
    fn stats_report_geometry_and_scans() {
        let mut q = CalendarQueue::new(10, 4);
        // A lone push anchors the cursor at its own day, so reaching the
        // *second* event is what walks empty days (the re-locate after the
        // first pop).
        q.push(5, ());
        q.push(200, ());
        q.pop().unwrap();
        let s = q.stats();
        assert_eq!(s.buckets, 4);
        assert_eq!(s.width_ps, 10);
        assert!(s.bucket_scans > 0, "empty days were scanned");
        assert_eq!(s.events_processed, 1);
    }
}
