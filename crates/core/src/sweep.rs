//! Deterministic parallel execution of independent simulations.
//!
//! The study's parallelism lives *across* configurations (one simulation
//! per routing × workload combination), never inside one simulation, so
//! determinism is preserved: results land in input order regardless of
//! thread scheduling.
//!
//! Each [`parallel_map`] call spawns its workers in a scope and joins them
//! before returning (a sweep's cells run for seconds; the spawn costs
//! microseconds), so nested and concurrent calls compose freely.

use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Declared lock-acquisition order of this file, parsed out of the source
/// and enforced by `dfsim-lint`'s lock-discipline rule: a thread already
/// holding one of these locks may only take locks that appear *later* in
/// the list. `work` and `results` are the per-slot sweep mutexes,
/// `payload` the first-panic slot.
pub const LOCK_ORDER: [&str; 3] = ["work", "results", "payload"];

/// Map `f` over `items` on up to `threads` worker threads (0 = all
/// available cores; explicit counts are capped at the machine's available
/// parallelism — oversubscribing cores only adds scheduler churn),
/// returning results in input order.
///
/// A panic inside `f` is re-raised on the calling thread with its
/// *original* payload (`std::panic::resume_unwind`), so a failed sweep
/// shows the real assertion message instead of a generic "worker
/// panicked". When several workers panic, the first captured payload wins
/// and the remaining workers stop picking up new items.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let avail = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let threads = if threads == 0 { avail } else { threads.min(avail) };
    parallel_map_at(items, threads, f)
}

/// [`parallel_map`] at an exact worker count (no availability cap). The
/// public entry caps; tests use this to run multi-threaded on any host.
fn parallel_map_at<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    // One worker's share of the sweep: pull the next unclaimed index until
    // the cursor runs dry (or a sibling panicked).
    let worker = || loop {
        if panicked.load(Ordering::Relaxed) {
            break; // drain fast once a sibling failed
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = work[i].lock().take().expect("each slot taken once");
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(r) => *results[i].lock() = Some(r),
            Err(p) => {
                let mut slot = payload.lock();
                if slot.is_none() {
                    *slot = Some(p);
                }
                panicked.store(true, Ordering::Relaxed);
                break;
            }
        }
    };

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| worker());
        }
    })
    .expect("worker thread died outside catch_unwind");

    if let Some(p) = payload.into_inner() {
        std::panic::resume_unwind(p);
    }
    results.into_iter().map(|m| m.into_inner().expect("all slots filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..100).collect(), 8, |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(vec![1, 2, 3], 1, |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |i| i);
        assert!(out.is_empty());
    }

    /// Regression: a worker panic used to die as `.expect("worker
    /// panicked")`, destroying the payload. The caller must see the
    /// original assertion message.
    #[test]
    fn worker_panic_preserves_the_original_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..16).collect::<Vec<i32>>(), 4, |i| {
                assert!(i != 11, "sweep cell {i} exploded");
                i
            })
        })
        .expect_err("the panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload should be a message");
        assert!(msg.contains("sweep cell 11 exploded"), "payload lost: {msg}");
    }

    /// An absurd thread request must not translate into an absurd pool:
    /// the count is capped at the machine's parallelism, and the sweep
    /// still completes in input order.
    #[test]
    fn oversubscribed_thread_count_is_capped_and_correct() {
        let out = parallel_map((0..64).collect(), 100_000, |i: i32| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_ordered() {
        let out = parallel_map((0..32).collect(), 4, |i: u64| {
            // Vary the work per item to shake the scheduler.
            let mut x = i;
            for _ in 0..(i % 7) * 10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, x)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx as u64, *i);
        }
    }

    /// A nested call (bypassing the availability cap, so both levels really
    /// spawn on any host) produces ordered results — never deadlocks.
    #[test]
    fn nested_calls_complete() {
        let out = parallel_map_at((0..8).collect(), 4, |i: u64| {
            let inner = parallel_map_at((0..5).collect(), 2, move |j: u64| i * 10 + j);
            inner.iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }
}
