//! `OracleQueue`: the `std::collections::BinaryHeap` implementation that
//! backed `queue heap` until the radix heap replaced it, kept verbatim as
//! the reference the shipped backends are checked against. It orders by an
//! explicit `(time, seq)` comparison and nothing else, so it shares no logic
//! with either of them.
//!
//! Compiled twice: by the integration tests beside it (`mod oracle;`) and by
//! the crate's own unit tests (`#[path]` in `lib.rs`, where `dfsim_des`
//! resolves to the crate itself).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dfsim_des::queue::{EngineStats, PendingEvents};
use dfsim_des::time::Time;

struct Scheduled<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Binary-heap pending-event set with deterministic FIFO tie-breaking.
pub struct OracleQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Time,
    popped: u64,
    pushed: u64,
    peak: usize,
}

impl<E> OracleQueue<E> {
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, now: 0, popped: 0, pushed: 0, peak: 0 }
    }
}

impl<E> PendingEvents<E> for OracleQueue<E> {
    fn push(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.push_seq(time, seq, event);
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn events_processed(&self) -> u64 {
        self.popped
    }

    fn events_scheduled(&self) -> u64 {
        self.pushed
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            events_processed: self.popped,
            events_scheduled: self.pushed,
            pending: self.heap.len(),
            peak_pending: self.peak,
            ..EngineStats::default()
        }
    }

    fn push_seq(&mut self, time: Time, seq: u64, event: E) {
        assert!(time >= self.now, "scheduling into the past: {time} < {}", self.now);
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        self.pushed += 1;
        self.heap.push(Scheduled { time, seq, event });
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        let s = self.heap.pop()?;
        assert!(s.time >= self.now, "time went backwards");
        self.now = s.time;
        self.popped += 1;
        Some((s.time, s.seq, s.event))
    }

    fn for_each_pending_mut(&mut self, f: &mut dyn FnMut(Time, &mut u64)) {
        // Re-heapifying is O(n) and stays correct even if a caller bends
        // the monotone-renumbering contract.
        let mut v = std::mem::take(&mut self.heap).into_vec();
        for s in &mut v {
            f(s.time, &mut s.seq);
        }
        self.heap = BinaryHeap::from(v);
    }

    fn advance_clock(&mut self, t: Time) {
        assert!(t >= self.now, "clock went backwards");
        assert!(self.peek_time().is_none_or(|p| p >= t), "advancing past a pending event");
        self.now = t;
    }
}
