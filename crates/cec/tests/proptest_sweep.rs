//! The sweeper against an exhaustive oracle. On circuits of at most ten
//! inputs every node's full truth table fits in sixteen simulation words, so
//! the *true* partition of the candidate groups is known, and with an
//! unlimited budget [`SatSweeper::find_equivalences`] must return exactly
//! it — nothing merged that the oracle separates (a wrongly accepted window
//! proof or a wrong `repr` would show here), nothing the oracle equates left
//! unmerged, and in the shape [`SatSweeper::sweep`] merges by:
//! representative first, lowest id, uncomplemented; member phases relative
//! to it; classes sorted by representative.
//!
//! Run with `PROPTEST_CASES=2000` (or higher) for the PR gate.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, Lit as ALit, Simulator};
use cec::{SatSweeper, SweepOptions, SweepStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The candidate groups the sweeper forms — AND and constant nodes grouped
/// by random-simulation signature up to complement, members in id order —
/// restated here, with the sweeper's simulation seed and class-size cap, so
/// the oracle refines the same starting point.
fn candidate_groups(aig: &Aig, options: &SweepOptions) -> Vec<Vec<ALit>> {
    let sim = Simulator::random(aig, options.sim_words, 0x5EED);
    let mut groups: BTreeMap<Vec<u64>, Vec<ALit>> = BTreeMap::new();
    for id in aig.node_ids().filter(|&id| !aig.node(id).is_input()) {
        let sig = sim.node_signature(id);
        let complemented = sig[0] & 1 == 1;
        let key = sim.lit_signature(ALit::new(id, complemented));
        groups
            .entry(key)
            .or_default()
            .push(ALit::new(id, complemented));
    }
    groups
        .into_values()
        .filter(|g| g.len() >= 2 && g.len() <= 64)
        .collect()
}

/// What an exact sweep returns: each candidate group split by full truth
/// table.
fn oracle_classes(aig: &Aig, options: &SweepOptions) -> Vec<Vec<ALit>> {
    let exact = Simulator::exhaustive(aig);
    let mut classes = Vec::new();
    for group in candidate_groups(aig, options) {
        let mut by_function: BTreeMap<Vec<u64>, Vec<ALit>> = BTreeMap::new();
        for &member in &group {
            by_function
                .entry(exact.lit_signature(member))
                .or_default()
                .push(member);
        }
        for members in by_function.into_values() {
            if members.len() < 2 {
                continue;
            }
            let rep = members[0];
            classes.push(
                members
                    .iter()
                    .map(|m| ALit::new(m.node(), m.is_complemented() != rep.is_complemented()))
                    .collect::<Vec<ALit>>(),
            );
        }
    }
    classes.sort_by_key(|c| c[0].node());
    classes
}

/// `aig` with the complement of one fanin edge flipped: a near miss whose
/// cones agree with the original's almost everywhere.
fn flip_one_fanin(aig: &Aig, which: usize) -> Aig {
    let target = aig.and_ids().nth(which % aig.num_ands().max(1));
    let mut fresh = Aig::new(format!("{}_flipped", aig.name()));
    let mut map = vec![ALit::FALSE; aig.num_nodes()];
    for (idx, &input) in aig.inputs().iter().enumerate() {
        map[input.index()] = fresh.add_input(aig.input_name(idx));
    }
    for id in aig.and_ids() {
        let (f0, f1) = aig.fanins(id);
        let a = map[f0.node().index()].xor(f0.is_complemented() != (Some(id) == target));
        let b = map[f1.node().index()].xor(f1.is_complemented());
        map[id.index()] = fresh.and(a, b);
    }
    for (idx, &po) in aig.outputs().iter().enumerate() {
        let lit = map[po.node().index()].xor(po.is_complemented());
        fresh.add_output(lit, aig.output_name(idx));
    }
    fresh
}

fn check_against_oracle(stacked: &Aig, options: SweepOptions) -> Result<SweepStats, TestCaseError> {
    let sweeper = SatSweeper::new(options.clone());
    let (found, stats) = sweeper.find_equivalences(stacked);
    prop_assert_eq!(
        &found.classes,
        &oracle_classes(stacked, &options),
        "sweep differs from the exhaustive partition ({:?})",
        options
    );
    prop_assert_eq!(stats.unknown, 0, "unlimited budget returned Unknown");
    prop_assert_eq!(
        stats.proved + stats.disproved,
        stats.sat_calls + stats.window_proofs,
        "a verdict is unaccounted for: {:?}",
        stats
    );
    prop_assert_eq!(stats.proved, found.num_redundant());

    let (swept, _) = sweeper.sweep(stacked);
    prop_assert_eq!(
        Simulator::exhaustive(&swept).output_signatures(&swept),
        Simulator::exhaustive(stacked).output_signatures(stacked),
        "sweep() changed an output function"
    );
    Ok(stats)
}

fn options(sim_words: usize) -> SweepOptions {
    SweepOptions {
        sim_words,
        conflict_budget: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A circuit stacked with a restructuring of itself — the network `dch`
    /// and the swept verifier hand to the sweeper.
    #[test]
    fn sweep_finds_exactly_the_exhaustive_partition(
        seed in any::<u64>(),
        num_inputs in 1usize..11,
        num_ands in 1usize..200,
        num_outputs in 1usize..5,
        restructuring in 0usize..3,
    ) {
        let base = benchgen::random_aig(num_inputs, num_ands, num_outputs, seed);
        let other = match restructuring {
            0 => logic_opt::balance(&base),
            1 => logic_opt::rewrite(&base),
            _ => logic_opt::rewrite(&logic_opt::balance(&base)),
        };
        let stacked = aig::stack_over_shared_inputs(&base, &other, "_b");
        for sim_words in [1, 8] {
            check_against_oracle(&stacked, options(sim_words))?;
        }
    }

    /// A planted near miss: one flipped fanin complement makes cones that
    /// look alike on a window and under 64 random patterns but are not
    /// equal. No window proof (and no SAT proof) may merge across the flip.
    #[test]
    fn planted_difference_is_never_merged(
        seed in any::<u64>(),
        num_inputs in 2usize..11,
        num_ands in 4usize..200,
        which in any::<usize>(),
    ) {
        let base = benchgen::random_aig(num_inputs, num_ands, 3, seed);
        let stacked = aig::stack_over_shared_inputs(&base, &flip_one_fanin(&base, which), "_b");
        check_against_oracle(&stacked, options(1))?;
    }
}

/// The arithmetic blocks of the ledger at exhaustive size. Random circuits
/// of ten inputs mostly close on windows; these are the cases that also
/// need SAT proofs over merged cones and counterexample splits, so all
/// three kinds of verdict are checked against the oracle here.
#[test]
fn arithmetic_sweeps_are_exact_with_every_kind_of_verdict() {
    let (mut windows, mut sat_proofs, mut refuted) = (0, 0, 0);
    for golden in [
        benchgen::multiplier(5).aig,
        benchgen::divider(5).aig,
        benchgen::square(5).aig,
        benchgen::arbiter(10).aig,
    ] {
        let other = logic_opt::rewrite(&logic_opt::balance(&golden));
        let stacked = aig::stack_over_shared_inputs(&golden, &other, "_b");
        for sim_words in [8, 1] {
            let stats =
                check_against_oracle(&stacked, options(sim_words)).expect("oracle check failed");
            assert!(stats.cnf_nodes_loaded <= stacked.num_nodes());
            windows += stats.window_proofs;
            sat_proofs += stats.proved - stats.window_proofs;
            refuted += stats.disproved;
        }
    }
    assert!(
        windows > 0 && sat_proofs > 0 && refuted > 0,
        "a verdict kind went unexercised: {windows} window / {sat_proofs} SAT / {refuted} refuted"
    );
}
