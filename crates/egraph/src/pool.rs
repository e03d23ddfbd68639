//! The workspace's one worker pool: indexed tasks on scoped threads.
//!
//! Every parallel stage — saturation search shards, windows, annealing
//! chains, portfolio engines — runs through [`for_each_indexed`], so the
//! determinism contract is stated (and tested) here and nowhere else:
//!
//! **Bit-identical at any thread count.** Task `i`'s result lands in slot
//! `i` no matter which worker ran it or when, so the returned vector depends
//! only on what `task(i, ..)` computes. A caller gets thread-count
//! independence by keeping `task` a pure function of its index and the
//! shared immutable state: decompose the work (shards, budgets, seeds)
//! *before* the call and never from `threads`, and merge the slots in index
//! order afterwards. The one thing that escapes the contract is a task that
//! reads a clock or an interrupt flag — which tasks a deadline cuts off is
//! timing-dependent by nature.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task(i, &ctx)` for every `i in 0..count` on at most `threads`
/// workers and returns the results in index order.
///
/// * `threads` is clamped to `1..=count`; with one worker everything runs
///   inline on the calling thread, in index order, and no thread is spawned.
/// * `init` builds the per-worker context once per worker (state too costly
///   to rebuild per task and not shareable across threads).
/// * A task may decline its index by returning `None` (a skipped shard, a
///   failed window); the slot stays `None`.
///
/// # Panics
/// A panic inside `init` or `task` is re-raised on the calling thread with
/// its original payload once every worker has stopped.
pub fn for_each_indexed<T, C, I, F>(
    count: usize,
    threads: usize,
    init: I,
    task: F,
) -> Vec<Option<T>>
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(usize, &C) -> Option<T> + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads == 1 {
        let ctx = init();
        return (0..count).map(|i| task(i, &ctx)).collect();
    }

    let next = AtomicUsize::new(0);
    let worker = || {
        let ctx = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break done;
            }
            if let Some(out) = task(i, &ctx) {
                done.push((i, out));
            }
        }
    };
    // Joining every handle by hand keeps a worker's panic payload; a thread
    // the scope joins on its own would surface as a generic scope panic.
    let joined: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for worker_results in joined {
        match worker_results {
            Ok(done) => {
                for (i, out) in done {
                    slots[i] = Some(out);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// `None` on every third index, a value derived from the index otherwise.
    fn sparse(i: usize, offset: &usize) -> Option<usize> {
        (!i.is_multiple_of(3)).then(|| i * i + offset)
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let serial = for_each_indexed(100, 1, || 7, sparse);
        assert_eq!(serial.len(), 100);
        assert_eq!(serial[0], None);
        assert_eq!(serial[4], Some(23));
        assert_eq!(serial.iter().flatten().count(), 66);
        for threads in [2, 8] {
            assert_eq!(for_each_indexed(100, threads, || 7, sparse), serial);
        }
        // More workers than tasks is clamped; no tasks is an empty vector.
        assert_eq!(for_each_indexed(3, 64, || 7, sparse), serial[..3]);
        assert!(for_each_indexed(0, 4, || 7, sparse).is_empty());
    }

    #[test]
    fn init_runs_once_per_worker() {
        for (threads, expected) in [(1, 1), (4, 4), (64, 10)] {
            let inits = AtomicUsize::new(0);
            let out = for_each_indexed(
                10,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |i, _| Some(i),
            );
            assert_eq!(out.len(), 10);
            assert_eq!(inits.load(Ordering::Relaxed), expected, "{threads} threads");
        }
    }

    #[test]
    fn worker_panic_keeps_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        for threads in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for_each_indexed(
                    16,
                    threads,
                    || (),
                    |i, ()| {
                        if i == 11 {
                            std::panic::panic_any(Boom(i));
                        }
                        Some(i)
                    },
                )
            }));
            let payload = caught.expect_err("the task's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(11)),
                "{threads} threads: original payload, not a generic scope panic"
            );
        }
    }
}
