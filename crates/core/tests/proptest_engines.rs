//! Differential property tests for the [`ExtractionEngine`] implementations.
//!
//! Three guarantees are pinned here, on random circuits pushed through real
//! saturation rather than hand-picked examples:
//!
//! 1. **DAG cost dominance**: the gates the global greedy DAG engine's
//!    selection keeps live never exceed those of the tree-cost bottom-up
//!    selection (the DAG refinement starts from that selection and only
//!    accepts strict live-gate improvements).
//! 2. **Functional soundness**: every engine's extraction is equivalent to
//!    the input circuit (exhaustively evaluated over all input patterns).
//! 3. **Portfolio determinism**: the portfolio winner is bit-identical
//!    whether the member engines race on one thread or many.
//! 4. **Incremental heights are exact**: the greedy DAG engine, which updates
//!    its heights per accepted switch, makes the decisions of the refinement
//!    loop that recomputes heights and liveness from scratch — kept here as
//!    the reference — down to the selection and both counters.
//!
//! `PROPTEST_CASES` scales the random-circuit coverage.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use egraph::{EGraph, FxHashMap, FxHashSet, Id, Language, Runner, Scheduler};
use emorphic::extract::sa::{SaEngine, SaOptions};
use emorphic::extract::{
    bottom_up_extract, try_selection_cost, BottomUpEngine, ExtractBudget, ExtractionCost,
    ExtractionEngine, GlobalGreedyDagEngine, PortfolioEngine, SlackAwareEngine,
};
use emorphic::{aig_to_egraph, all_rules, try_selection_to_aig, BoolLang};
use proptest::prelude::*;
use techmap::library::asap7_like;

/// Saturates a circuit and returns the rewritten conversion result.
fn saturate(aig: &aig::Aig) -> emorphic::convert::ConversionResult {
    let conversion = aig_to_egraph(aig);
    let runner = Runner::with_egraph(conversion.egraph.clone())
        .with_iter_limit(2)
        .with_node_limit(8_000)
        .with_scheduler(Scheduler::Backoff {
            match_limit: 400,
            ban_length: 2,
        })
        .run(&all_rules());
    emorphic::convert::ConversionResult {
        roots: conversion
            .roots
            .iter()
            .map(|&r| runner.egraph.find(r))
            .collect(),
        egraph: runner.egraph,
        ..conversion
    }
}

/// All four concrete engines, boxed for racing or iteration.
fn all_engines() -> Vec<Box<dyn ExtractionEngine>> {
    vec![
        Box::new(BottomUpEngine::new(ExtractionCost::Size)),
        Box::new(GlobalGreedyDagEngine::new()),
        Box::new(SlackAwareEngine::new()),
        Box::new(SaEngine::new(SaOptions::fast(), asap7_like())),
    ]
}

/// Longest selection path from `id` to a leaf, every edge counting.
fn height(
    egraph: &EGraph<BoolLang>,
    selection: &FxHashMap<Id, BoolLang>,
    memo: &mut FxHashMap<Id, u64>,
    id: Id,
) -> u64 {
    if let Some(&known) = memo.get(&id) {
        return known;
    }
    let children = selection[&id].children().iter();
    let heights = children.map(|&c| 1 + height(egraph, selection, memo, egraph.find(c)));
    let h = heights.max().unwrap_or(0);
    memo.insert(id, h);
    h
}

/// The classes reachable from the roots under the selection, and how many of
/// them select a gate.
fn live_classes(
    egraph: &EGraph<BoolLang>,
    selection: &FxHashMap<Id, BoolLang>,
    roots: &[Id],
) -> (FxHashSet<Id>, usize) {
    let mut live = FxHashSet::default();
    let mut gates = 0;
    let mut stack: Vec<Id> = roots.iter().map(|&r| egraph.find(r)).collect();
    while let Some(id) = stack.pop() {
        if !live.insert(id) {
            continue;
        }
        let node = &selection[&id];
        gates += usize::from(matches!(node, BoolLang::And(_) | BoolLang::Or(_)));
        stack.extend(node.children().iter().map(|&c| egraph.find(c)));
    }
    (live, gates)
}

/// The greedy DAG refinement with nothing kept between candidates: heights
/// and liveness are walked out of the selection for every one of them. The
/// engine's decisions — classes in sorted-id order, nodes in class order, a
/// candidate admitted when every child is selected and strictly lower than
/// the class, a switch kept when fewer gates stay live — with none of its
/// bookkeeping. Returns the selection, the evaluations made on top of the
/// tree DP's, and the switches accepted.
fn reference_greedy_dag(
    egraph: &EGraph<BoolLang>,
    roots: &[Id],
) -> (FxHashMap<Id, BoolLang>, usize, usize) {
    let (base, base_stats) = bottom_up_extract(egraph, ExtractionCost::Size);
    let mut selection = base.choices;
    let mut evaluated = base_stats.nodes_evaluated;
    let mut accepted = 0;
    loop {
        let accepted_before_pass = accepted;
        for class_id in egraph.class_ids_sorted() {
            if !live_classes(egraph, &selection, roots)
                .0
                .contains(&class_id)
            {
                continue;
            }
            for node in &egraph.class(class_id).nodes {
                evaluated += 1;
                if *node == selection[&class_id] {
                    continue;
                }
                let mut memo = FxHashMap::default();
                let class_height = height(egraph, &selection, &mut memo, class_id);
                let admissible = node.children().iter().all(|&c| {
                    let c = egraph.find(c);
                    selection.contains_key(&c)
                        && height(egraph, &selection, &mut memo, c) < class_height
                });
                if !admissible {
                    continue;
                }
                let gates = live_classes(egraph, &selection, roots).1;
                let old = selection.insert(class_id, node.clone()).unwrap();
                if live_classes(egraph, &selection, roots).1 < gates {
                    accepted += 1;
                } else {
                    selection.insert(class_id, old);
                }
            }
        }
        if accepted == accepted_before_pass {
            return (selection, evaluated, accepted);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The global greedy DAG engine's true DAG cost — the distinct gates its
    /// selection keeps live, which is what it refines — never exceeds that of
    /// the exact tree-cost DP it starts from. (Gates, not classes: a switch
    /// that saves a gate may reach it through one more inverter.)
    #[test]
    fn greedy_dag_cost_never_exceeds_tree_cost_selection(
        seed in 0u64..10_000,
        num_ands in 8usize..60,
        num_inputs in 3usize..7,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let saturated = saturate(&circuit);
        let budget = ExtractBudget::unlimited();
        let tree = BottomUpEngine::new(ExtractionCost::Size)
            .extract(&saturated.egraph, &saturated.roots, &budget)
            .expect("tree DP extracts");
        let dag = GlobalGreedyDagEngine::new()
            .extract(&saturated.egraph, &saturated.roots, &budget)
            .expect("DAG refinement extracts");
        let gates = |selection| {
            try_selection_cost(&saturated.egraph, selection, &saturated.roots, ExtractionCost::Size)
        };
        let tree_size = gates(&tree.selection).expect("tree selection valid");
        let dag_size = gates(&dag.selection).expect("DAG selection valid");
        prop_assert!(
            dag_size <= tree_size,
            "DAG engine selected {dag_size} gates vs tree DP's {tree_size}"
        );
    }

    /// The engine's incremental heights change no decision: the selection,
    /// the evaluations and the accepted switches are those of the loop that
    /// recomputes everything for every candidate.
    #[test]
    fn greedy_dag_matches_the_full_recompute_reference(
        seed in 0u64..10_000,
        num_ands in 20usize..160,
        num_inputs in 4usize..9,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let saturated = saturate(&circuit);
        let engine = GlobalGreedyDagEngine::new()
            .extract(&saturated.egraph, &saturated.roots, &ExtractBudget::unlimited())
            .expect("DAG refinement extracts");
        let (choices, evaluated, accepted) =
            reference_greedy_dag(&saturated.egraph, &saturated.roots);
        prop_assert_eq!(&engine.selection.choices, &choices);
        prop_assert_eq!(engine.stats.nodes_evaluated, evaluated);
        prop_assert_eq!(engine.stats.improvements, accepted);
    }

    /// Every engine's extraction computes the input circuit's function on
    /// every input pattern.
    #[test]
    fn every_engine_extraction_is_equivalent(
        seed in 0u64..10_000,
        num_ands in 8usize..40,
        num_inputs in 3usize..6,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let saturated = saturate(&circuit);
        let budget = ExtractBudget::unlimited();
        for engine in all_engines() {
            let extraction = engine
                .extract(&saturated.egraph, &saturated.roots, &budget)
                .expect("engine extracts");
            let extracted = try_selection_to_aig(
                &saturated.egraph,
                &extraction.selection,
                &saturated.roots,
                &saturated.input_names,
                &saturated.output_names,
                &saturated.name,
            )
            .expect("selection realizes");
            for pattern in 0..(1usize << num_inputs) {
                let bits: Vec<bool> = (0..num_inputs).map(|i| pattern >> i & 1 == 1).collect();
                prop_assert_eq!(
                    extracted.evaluate(&bits),
                    circuit.evaluate(&bits),
                    "{} pattern {}", engine.name(), pattern
                );
            }
        }
    }

    /// The portfolio winner is bit-identical whether the members race on one
    /// thread or four.
    #[test]
    fn portfolio_winner_is_thread_count_invariant(
        seed in 0u64..10_000,
        num_ands in 8usize..40,
        num_inputs in 3usize..6,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let saturated = saturate(&circuit);
        let budget = ExtractBudget::unlimited();
        let serial = PortfolioEngine::new(all_engines())
            .with_threads(1)
            .extract(&saturated.egraph, &saturated.roots, &budget)
            .expect("serial portfolio extracts");
        let parallel = PortfolioEngine::new(all_engines())
            .with_threads(4)
            .extract(&saturated.egraph, &saturated.roots, &budget)
            .expect("parallel portfolio extracts");
        prop_assert_eq!(
            &serial.selection.choices,
            &parallel.selection.choices,
            "portfolio winner depends on thread count"
        );
    }
}
