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

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Map `f` over `items` on up to `threads` worker threads (0 = all
/// available cores; explicit counts are capped at the machine's available
/// parallelism — oversubscribing cores only adds scheduler churn),
/// returning results in input order.
///
/// A panic inside `f` is re-raised on the calling thread with its
/// *original* payload (`std::panic::resume_unwind`), so a failed sweep
/// shows the real assertion message instead of a generic "worker
/// panicked". When several workers panic, the payload of the first one
/// joined wins and the remaining workers stop picking up new items.
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

    // One shared work iterator keeps the load balanced; its lock is held
    // only for `next()`, which cannot panic, so it is never poisoned.
    let work = Mutex::new(items.into_iter().enumerate());
    let failed = AtomicBool::new(false);

    // One worker's share of the sweep: pull the next unclaimed item until
    // the iterator runs dry (or a sibling panicked), returning the results
    // it produced with their input indices.
    let worker = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let next = work.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { break };
            match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => done.push((i, r)),
                Err(p) => {
                    failed.store(true, Ordering::Relaxed); // drain fast
                    panic::resume_unwind(p);
                }
            }
        }
        done
    };

    let mut results = Vec::with_capacity(n);
    let mut first_panic = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            match h.join() {
                Ok(part) => results.extend(part),
                Err(p) => {
                    first_panic.get_or_insert(p);
                }
            }
        }
    });
    if let Some(p) = first_panic {
        panic::resume_unwind(p);
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
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

    /// Several panicking cells: the caller sees one of the original
    /// payloads (not a "worker died" panic of the join itself), and the
    /// call returns instead of hanging on the workers that failed. The
    /// barrier makes cells 0 and 1 panic together on two workers.
    #[test]
    fn several_worker_panics_surface_one_original_payload() {
        let both = std::sync::Barrier::new(2);
        let caught = std::panic::catch_unwind(|| {
            parallel_map_at((0..32).collect::<Vec<i32>>(), 4, |i| {
                if i < 2 {
                    both.wait();
                    panic!("sweep cell {i} exploded");
                }
                i
            })
        })
        .expect_err("the panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload should be a message");
        assert!(
            msg == "sweep cell 0 exploded" || msg == "sweep cell 1 exploded",
            "payload lost: {msg}"
        );
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
