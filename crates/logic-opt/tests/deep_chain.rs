//! Deep networks on small stacks.
//!
//! A network is as deep as the circuit it holds — EPFL `hyp` has 24 801 AIG
//! levels — and every pass over one runs wherever its caller does, including
//! the 2 MiB workers of the job server. `balance` used to collect the leaves
//! of an AND tree by recursion, capped at 10 000 levels by calling the node
//! it stopped at a leaf — a node that was never built, so the pass panicked
//! on the first chain longer than that and overflowed a 2 MiB stack in a
//! debug build before reaching the cap; `mffc_size`, which `rewrite` calls
//! per node, recursed once per cone level. These tests drive `balance`,
//! `mffc_size`, `rewrite`, `dch_like` and the flow's `prepare_network` over
//! chains far past 10 000 levels, on 2 MiB threads.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{mffc_size, Aig, SimVector, Simulator};
use emorphic::flow::{prepare_network, FlowConfig};
use logic_opt::{balance, dch_like, rewrite};

/// `acc = and(acc, x_i)` for `i` in `1..=ands`, starting from `x_0`: one
/// maximal AND tree, `ands` levels deep.
fn and_chain(ands: usize) -> Aig {
    let mut aig = Aig::new("and_chain");
    let mut acc = aig.add_input("x0");
    for i in 1..=ands {
        let x = aig.add_input(format!("x{i}"));
        acc = aig.and(acc, x);
    }
    aig.add_output(acc, "f");
    aig
}

/// `acc = !(acc & x_i)`: every AND is read through a complemented edge, so
/// each one is a tree root `balance` cannot flatten, and the MFFC of the last
/// one is the whole chain.
fn nand_chain(ands: usize) -> Aig {
    let mut aig = Aig::new("nand_chain");
    let mut acc = aig.add_input("x0");
    for i in 1..=ands {
        let x = aig.add_input(format!("x{i}"));
        acc = aig.nand(acc, x);
    }
    aig.add_output(acc, "f");
    aig
}

/// Runs `body` on a thread with the default 2 MiB worker stack, whatever
/// stack the test harness gave the calling thread.
fn on_a_2mib_stack(body: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(body)
        .expect("thread spawns")
        .join()
        .expect("the pass returns instead of panicking or overflowing the stack");
}

/// 64 patterns that are all ones except that every 997th input is zero in
/// one of the first 63: uniformly random patterns would drive a conjunction
/// of thousands of inputs to constant false and compare nothing.
fn mostly_ones(num_inputs: usize) -> Vec<SimVector> {
    (0..num_inputs)
        .map(|i| {
            if i % 997 == 0 {
                vec![!(1u64 << (i / 997 % 63))]
            } else {
                vec![u64::MAX]
            }
        })
        .collect()
}

fn assert_same_function_on(a: &Aig, b: &Aig, inputs: &[SimVector]) {
    let of = |aig: &Aig| Simulator::with_inputs(aig, inputs, 1).output_signatures(aig);
    assert_eq!(of(a), of(b));
}

/// The same seed draws the same patterns for the same number of inputs.
fn assert_same_function_on_random_patterns(a: &Aig, b: &Aig) {
    assert_eq!(a.num_inputs(), b.num_inputs());
    let of = |aig: &Aig| Simulator::random(aig, 4, 0x5eed).output_signatures(aig);
    assert_eq!(of(a), of(b));
}

fn balance_reaches_log_depth(ands: usize, depth: u32) {
    on_a_2mib_stack(move || {
        let chain = and_chain(ands);
        assert_eq!(chain.depth() as usize, ands);
        let balanced = balance(&chain);
        assert_eq!(balanced.depth(), depth);
        assert_eq!(balanced.num_ands(), ands);
        let inputs = mostly_ones(chain.num_inputs());
        assert_same_function_on(&chain, &balanced, &inputs);
        // The comparison sees both values of the conjunction.
        let f = Simulator::with_inputs(&chain, &inputs, 1).output_signatures(&chain);
        assert!(f[0][0] != 0 && f[0][0] != u64::MAX);
    });
}

#[test]
fn balance_flattens_a_20k_level_and_chain() {
    balance_reaches_log_depth(20_000, 15);
}

#[test]
fn balance_flattens_a_100k_level_and_chain() {
    balance_reaches_log_depth(100_000, 17);
}

#[test]
fn mffc_of_a_nand_chain_is_the_whole_chain() {
    const ANDS: usize = 100_000;
    on_a_2mib_stack(|| {
        let chain = nand_chain(ANDS);
        let fanouts = chain.fanout_counts();
        let last = chain.outputs()[0].node();
        assert_eq!(mffc_size(&chain, last, &fanouts), ANDS);
    });
}

#[test]
fn rewrite_survives_a_nand_chain_past_10k_levels() {
    const ANDS: usize = 12_000;
    on_a_2mib_stack(|| {
        let chain = nand_chain(ANDS);
        assert_eq!(chain.depth() as usize, ANDS);
        let rewritten = rewrite(&chain);
        assert!(rewritten.num_ands() <= ANDS);
        assert_same_function_on_random_patterns(&chain, &rewritten);
    });
}

#[test]
fn dch_like_survives_a_nand_chain_past_10k_levels() {
    const ANDS: usize = 12_000;
    on_a_2mib_stack(|| {
        let chain = nand_chain(ANDS);
        let reduced = dch_like(&chain);
        assert!(reduced.num_ands() <= ANDS);
        assert_same_function_on_random_patterns(&chain, &reduced);
    });
}

/// 60 000 ANDs leave more than 10 000 levels after the round's `st; if -g`,
/// which is what its `dch` then has to balance. The round's SAT sweep
/// resimulates the 120 000-node stacked network once per refuted pair:
/// seconds with optimizations, minutes without.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two minutes in a debug build; CI runs it with --release"
)]
fn prepare_network_survives_a_60k_level_and_chain() {
    const ANDS: usize = 60_000;
    on_a_2mib_stack(|| {
        let chain = and_chain(ANDS);
        let prepared = prepare_network(&chain, &FlowConfig::fast());
        assert!(prepared.depth() < 10_000, "depth {}", prepared.depth());
        assert_same_function_on(&chain, &prepared, &mostly_ones(chain.num_inputs()));
    });
}
