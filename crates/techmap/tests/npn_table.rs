//! The process-wide table behind `techmap::truth::npn_canon4` against the
//! 768-transform search it keeps the results of.
//!
//! Release builds check every 4-variable table. Debug builds check a 1-in-61
//! sample, because the unoptimised search is too slow for all 65 536.
//!
//! This file holds one test on purpose. Each integration test is its own
//! process, so no slot of the table is filled before the test's threads
//! start, and their calls really are the first ones.

use std::sync::Barrier;
use std::thread;
use techmap::truth::{npn_canon4, transform_tt4};

const PERMS4: [[usize; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// The search `npn_canon4` ran on every call before it kept its results:
/// the minimum over all input permutations, input negations and output
/// negation.
fn reference(tt: u16) -> u16 {
    let mut best = u16::MAX;
    for perm in &PERMS4 {
        for flips in 0..16u8 {
            for out_flip in [false, true] {
                let t = transform_tt4(tt, perm, flips, out_flip);
                if t < best {
                    best = t;
                }
            }
        }
    }
    best
}

#[test]
fn shared_table_equals_the_search() {
    let step = if cfg!(debug_assertions) { 61 } else { 1 };
    let tables: Vec<u16> = (0..=u16::MAX).step_by(step).collect();

    // Four threads released together walk the same tables in the same
    // order, so they race on the first call of every slot.
    let barrier = Barrier::new(4);
    let firsts: Vec<Vec<u16>> = thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    tables.iter().map(|&tt| npn_canon4(tt)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });

    for (i, &tt) in tables.iter().enumerate() {
        let want = reference(tt);
        for (thread, got) in firsts.iter().enumerate() {
            assert_eq!(got[i], want, "thread {thread}, table {tt:#06x}");
        }
        assert_eq!(npn_canon4(tt), want, "repeated call, table {tt:#06x}");
    }
}
