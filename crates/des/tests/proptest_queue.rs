//! Differential property tests: both shipped pending-event sets — the radix
//! heap behind `queue heap` and the calendar queue — against `OracleQueue`,
//! the retired `BinaryHeap` implementation, under one op stream.
//!
//! Every op of the `PendingEvents` surface is in the stream: plain `push`,
//! `push_seq` groups whose explicit seqs *descend* (so they are non-monotone
//! at their timestamp — with delay 0, the current one), `pop_keyed`,
//! `advance_clock` into the gap before the next event or across an empty
//! queue, and a monotone `for_each_pending_mut` renumbering followed by an
//! import under a fresh high seq (the partitioned engine's barrier merge).
//! After every op the queues must agree on `peek_time`, `len` and `now`;
//! pops must agree on `(time, seq, event)`; at the end, on `stats()`.
//!
//! The mixes mirror what the simulator produces: **uniform** short delays,
//! **bursty** fan-out (up to 10^5 events inside one horizon, the t=0
//! injection), **far-horizon** compute wake-ups (~2% of pushes millions of
//! picoseconds ahead), **heavy ties** (thousands of events at one
//! timestamp) and a **churn** mix (ns-scale traffic punctuated by ms-scale
//! job arrivals, a ~1e9 dynamic range in one pending set).

mod oracle;

use dfsim_des::calendar::CalendarQueue;
use dfsim_des::queue::{CalendarTuning, EngineStats, EventQueue, PendingEvents};
use oracle::OracleQueue;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// `push(now + delay)`.
    Push(u64),
    /// `n` pushes at `now + base + r`, `r` drawn below `spread` from a
    /// stream seeded by `seed` (`spread == 1` is an `n`-way tie).
    Burst { n: usize, base: u64, spread: u64, seed: u64 },
    /// `n` `push_seq` at `now + delay` under fresh explicit seqs, highest
    /// first.
    PushSeqDescending { delay: u64, n: u64 },
    /// `pop_keyed()`.
    Pop,
    /// `advance_clock` to `permille`/1000 of the way to the next pending
    /// event — or, on an empty queue, `permille` ps ahead.
    Advance(u64),
    /// Shift every pending seq at or above `permille`/1000 of the seqs
    /// issued so far past all of them (monotone), then `push_seq` one event
    /// `delay` ahead under a seq above the shifted ones.
    Renumber { permille: u64, delay: u64 },
}

/// What one op let the outside see.
#[derive(Debug, PartialEq)]
struct Seen {
    popped: Option<(u64, u64, u64)>,
    peek: Option<u64>,
    len: usize,
    now: u64,
}

fn run<Q: PendingEvents<u64>>(q: &mut Q, ops: &[Op]) -> (Vec<Seen>, EngineStats) {
    let mut out = Vec::new();
    let mut id = 0u64;
    // Exclusive upper bound of every seq issued so far; mirrors the queue's
    // internal counter, so explicit seqs never collide with implicit ones.
    let mut hi = 0u64;
    for op in ops {
        let now = q.now();
        let mut popped = None;
        match *op {
            Op::Push(delay) => {
                q.push(now + delay, id);
                id += 1;
                hi += 1;
            }
            Op::Burst { n, base, spread, seed } => {
                let mut x = seed | 1;
                for _ in 0..n {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    q.push(now + base + (x >> 33) % spread, id);
                    id += 1;
                }
                hi += n as u64;
            }
            Op::PushSeqDescending { delay, n } => {
                for seq in (hi..hi + n).rev() {
                    q.push_seq(now + delay, seq, id);
                    id += 1;
                }
                hi += n;
            }
            Op::Pop => popped = q.pop_keyed(),
            Op::Advance(permille) => {
                let gap = q.peek_time().map_or(1000, |t| t - now);
                q.advance_clock(now + (gap as u128 * permille as u128 / 1000) as u64);
            }
            Op::Renumber { permille, delay } if hi < 1 << 60 => {
                let (from, shift) = ((hi as u128 * permille as u128 / 1000) as u64, hi);
                q.for_each_pending_mut(&mut |_, seq| {
                    if *seq >= from {
                        *seq += shift;
                    }
                });
                q.push_seq(now + delay, 2 * hi, id);
                id += 1;
                hi = 2 * hi + 1;
            }
            Op::Renumber { .. } => {}
        }
        out.push(Seen { popped, peek: q.peek_time(), len: q.len(), now: q.now() });
    }
    while let Some(p) = q.pop_keyed() {
        out.push(Seen { popped: Some(p), peek: q.peek_time(), len: q.len(), now: q.now() });
    }
    (out, q.stats())
}

/// The ops every mix shares, around the mix's own push strategy.
fn ops(pushes: BoxedStrategy<Op>, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            24 => pushes,
            // Explicit out-of-order seqs: at the current timestamp, at a
            // nearby one.
            1 => (2u64..6).prop_map(|n| Op::PushSeqDescending { delay: 0, n }),
            1 => (0u64..500, 1u64..6).prop_map(|(delay, n)| Op::PushSeqDescending { delay, n }),
            16 => Just(Op::Pop),
            2 => (0u64..=1000).prop_map(Op::Advance),
            1 => (0u64..=1000, 0u64..5_000)
                .prop_map(|(permille, delay)| Op::Renumber { permille, delay }),
        ],
        len,
    )
}

fn uniform() -> impl Strategy<Value = Vec<Op>> {
    ops((0u64..10_000).prop_map(Op::Push).boxed(), 1..400)
}

/// Fan-out bursts of up to a few hundred events inside a 200 ps horizon,
/// many of them ties.
fn bursty() -> impl Strategy<Value = Vec<Op>> {
    let burst = (1usize..300, 0u64..200, 1u64..200, 0u64..1 << 32)
        .prop_map(|(n, base, spread, seed)| Op::Burst { n, base, spread, seed });
    ops(prop_oneof![3 => (0u64..200).prop_map(Op::Push), 1 => burst].boxed(), 1..120)
}

/// Mostly short delays, ~2% of the pushes millions of ps ahead.
fn far_horizon() -> impl Strategy<Value = Vec<Op>> {
    let push = prop_oneof![
        49 => (0u64..40_000).prop_map(Op::Push),
        1 => (1_000_000u64..50_000_000).prop_map(Op::Push),
    ];
    ops(push.boxed(), 1..600)
}

/// Thousands of events at single timestamps, with short-delay traffic
/// between them.
fn heavy_ties() -> impl Strategy<Value = Vec<Op>> {
    let tie = (1_000usize..5_000, 0u64..3_000, 0u64..1 << 32)
        .prop_map(|(n, base, seed)| Op::Burst { n, base, spread: 1, seed });
    ops(prop_oneof![12 => (0u64..3_000).prop_map(Op::Push), 1 => tie].boxed(), 1..60)
}

/// ns-scale traffic plus ms-scale arrivals, as a churn scenario produces.
fn churn() -> impl Strategy<Value = Vec<Op>> {
    let push = prop_oneof![
        8 => (0u64..20_000).prop_map(Op::Push),
        1 => (100_000_000u64..2_000_000_000).prop_map(Op::Push),
    ];
    ops(push.boxed(), 1..600)
}

/// The start-of-run injection: 10^5 events inside one 1 µs horizon far from
/// the clock, then traffic while it drains.
fn injection() -> impl Strategy<Value = Vec<Op>> {
    ((0u64..1 << 40, 0u64..1 << 32), uniform()).prop_map(|((base, seed), tail)| {
        let mut v = vec![Op::Burst { n: 100_000, base, spread: 1_000_000, seed }];
        v.extend(std::iter::repeat_n(Op::Pop, 40_000));
        v.extend(tail);
        v
    })
}

/// `run` on a fresh oracle and on `q`: everything observable must agree,
/// step by step, and so must the traffic counters at the end (the other
/// `EngineStats` fields are calendar geometry).
fn check<Q: PendingEvents<u64>>(mut q: Q, ops: &[Op]) -> Result<(), TestCaseError> {
    let traffic =
        |s: EngineStats| (s.events_processed, s.events_scheduled, s.pending, s.peak_pending);
    let (want, want_stats) = run(&mut OracleQueue::new(), ops);
    let (got, got_stats) = run(&mut q, ops);
    prop_assert_eq!(want.len(), got.len());
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        prop_assert_eq!(w, g, "step {}", i);
    }
    prop_assert_eq!(traffic(want_stats), traffic(got_stats));
    Ok(())
}

proptest! {
    #[test]
    fn heap_matches_oracle_uniform(ops in uniform()) {
        check(EventQueue::new(), &ops)?;
    }

    #[test]
    fn heap_matches_oracle_on_bursts(ops in bursty()) {
        check(EventQueue::new(), &ops)?;
    }

    #[test]
    fn heap_matches_oracle_on_far_horizon(ops in far_horizon()) {
        check(EventQueue::new(), &ops)?;
    }

    #[test]
    fn heap_matches_oracle_on_churn_mix(ops in churn()) {
        check(EventQueue::new(), &ops)?;
    }

    /// The fixed calendar produces exactly the oracle's order on any
    /// workload and geometry.
    #[test]
    fn calendar_matches_oracle(ops in uniform(), width in 1u64..512, nbuckets in 2usize..64) {
        check(CalendarQueue::new(width, nbuckets), &ops)?;
    }

    #[test]
    fn auto_calendar_matches_oracle_uniform(ops in uniform()) {
        check(CalendarQueue::auto(), &ops)?;
    }

    #[test]
    fn auto_calendar_matches_oracle_on_bursts(ops in bursty()) {
        check(CalendarQueue::auto(), &ops)?;
    }

    /// The sparse-jump stressor.
    #[test]
    fn auto_calendar_matches_oracle_on_far_horizon(ops in far_horizon()) {
        check(CalendarQueue::auto(), &ops)?;
    }

    /// The mixed-scale stream, for every partial tuning (each knob pinned
    /// or auto independently).
    #[test]
    fn tuned_calendars_match_oracle_on_churn_mix(
        ops in churn(),
        width in prop_oneof![1 => Just(0u64), 3 => 1u64..100_000],
        buckets in prop_oneof![1 => Just(0usize), 3 => 2usize..256],
    ) {
        // 0 encodes "auto" for the knob (the stubbed proptest has no
        // Option strategy).
        let tuning = CalendarTuning {
            width: (width > 0).then_some(width),
            buckets: (buckets > 0).then_some(buckets),
        };
        check(CalendarQueue::with_tuning(tuning), &ops)?;
    }

    /// FIFO tie-break: events at one timestamp pop in push order.
    #[test]
    fn fifo_within_timestamp(n in 1usize..200, t in 0u64..1_000_000) {
        let mut q = EventQueue::new();
        for i in 0..n as u64 {
            q.push(t, i);
        }
        for i in 0..n as u64 {
            prop_assert_eq!(q.pop(), Some((t, i)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn heap_matches_oracle_on_heavy_ties(ops in heavy_ties()) {
        check(EventQueue::new(), &ops)?;
    }

    #[test]
    fn auto_calendar_matches_oracle_on_heavy_ties(ops in heavy_ties()) {
        check(CalendarQueue::auto(), &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn heap_matches_oracle_on_the_injection_burst(ops in injection()) {
        check(EventQueue::new(), &ops)?;
    }
}
