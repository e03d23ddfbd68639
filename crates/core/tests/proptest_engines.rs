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
//! 5. **The dense cost kernel is the hash-map kernel**: the bottom-up DP
//!    (pruned and unpruned) and 16-step neighbour chains over a
//!    [`CostGraph`] reproduce the hash-map fixpoint they replaced — kept here
//!    verbatim as the reference — selection, class costs and statistics
//!    alike, and draw the same random numbers.
//!
//! `PROPTEST_CASES` scales the random-circuit coverage.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use egraph::{EClass, EGraph, FxHashMap, FxHashSet, Id, Language, Runner, Scheduler};
use emorphic::extract::sa::{generate_neighbor, SaEngine, SaOptions};
use emorphic::extract::{
    try_selection_cost, BottomUpEngine, CostGraph, ExtractBudget, ExtractStats, ExtractionCost,
    ExtractionEngine, GlobalGreedyDagEngine, PortfolioEngine, Selection, SlackAwareEngine,
};
use emorphic::{aig_to_egraph, all_rules, try_selection_to_aig, BoolLang};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
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
    let graph = CostGraph::new(egraph);
    let base = graph.bottom_up(ExtractionCost::Size);
    let mut selection = base.selection.choices;
    let mut evaluated = base.stats.nodes_evaluated;
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

// The hash-map cost kernel the dense `CostGraph` kernel replaced, verbatim
// but for visibility, as the reference of the last property below.

/// [`EGraph::parent_index`] over the Boolean language: for every class, the
/// `(parent class, parent node)` pairs that reference it.
type ParentIndex = FxHashMap<Id, Vec<(Id, BoolLang)>>;

/// What a cost fixpoint produces: the selection, the per-class costs it
/// realizes, and the work it took.
type Costed = (Selection, FxHashMap<Id, u64>, ExtractStats);

/// Per-node gate cost: AND/OR count as one gate, inverters and leaves are free
/// (inverters are edge attributes in the AIG back-end).
fn node_cost(node: &BoolLang) -> u64 {
    match node {
        BoolLang::And(_) | BoolLang::Or(_) => 1,
        BoolLang::Not(_) | BoolLang::Const(_) | BoolLang::Var(_) => 0,
    }
}

/// The class order every cost fixpoint is seeded and swept in (see the
/// module docs): today the e-graph's own iteration order.
fn classes_in_seed_order(egraph: &EGraph<BoolLang>) -> impl Iterator<Item = &EClass<BoolLang>> {
    egraph.classes()
}

/// Prices `node` from the costs of its children — their sum or their
/// maximum, plus the node's own gate. `None` while a child is uncosted.
fn combine(
    egraph: &EGraph<BoolLang>,
    costs: &FxHashMap<Id, u64>,
    cost_kind: ExtractionCost,
    node: &BoolLang,
) -> Option<u64> {
    let mut combined = 0u64;
    for &child in node.children() {
        let cost = *costs.get(&egraph.find(child))?;
        combined = match cost_kind {
            ExtractionCost::Size => combined.saturating_add(cost),
            ExtractionCost::Depth => combined.max(cost),
        };
    }
    Some(combined.saturating_add(node_cost(node)))
}

/// The worklist kernel (contract in the module docs): the least fixpoint of
/// per-class costs under `accept`, written over `selection`.
fn cost_fixpoint(
    egraph: &EGraph<BoolLang>,
    parents: &ParentIndex,
    cost_kind: ExtractionCost,
    mut selection: Selection,
    mut accept: impl FnMut(Option<u64>, u64) -> bool,
) -> Costed {
    let mut costs: FxHashMap<Id, u64> = FxHashMap::default();
    let mut stats = ExtractStats::default();
    let mut queue: VecDeque<(Id, BoolLang)> = VecDeque::new();
    for class in classes_in_seed_order(egraph) {
        let leaves = class.nodes.iter().filter(|node| node.is_leaf());
        queue.extend(leaves.map(|node| (class.id, node.clone())));
    }
    while let Some((class_id, node)) = queue.pop_front() {
        let Some(new_cost) = combine(egraph, &costs, cost_kind, &node) else {
            continue;
        };
        stats.nodes_evaluated += 1;
        if accept(costs.get(&class_id).copied(), new_cost) {
            costs.insert(class_id, new_cost);
            selection.set(class_id, node);
            stats.improvements += 1;
            queue.extend(parents.get(&class_id).into_iter().flatten().cloned());
        }
    }
    (selection, costs, stats)
}

/// The unpruned baseline the Fig. 6 ablation contrasts against: sweep every
/// e-node of every class until nothing changes, re-evaluating node costs
/// even when nothing changed underneath. Converges to the same per-class
/// costs as [`bottom_up_with_costs`].
fn bottom_up_unpruned(egraph: &EGraph<BoolLang>, cost_kind: ExtractionCost) -> Costed {
    let mut stats = ExtractStats::default();
    let mut costs: FxHashMap<Id, u64> = FxHashMap::default();
    let mut choices: FxHashMap<Id, BoolLang> = FxHashMap::default();
    let mut changed = true;
    while changed {
        changed = false;
        for class in classes_in_seed_order(egraph) {
            for node in &class.nodes {
                let Some(new_cost) = combine(egraph, &costs, cost_kind, node) else {
                    continue;
                };
                stats.nodes_evaluated += 1;
                if costs.get(&class.id).is_none_or(|&prev| new_cost < prev) {
                    costs.insert(class.id, new_cost);
                    choices.insert(class.id, node.clone());
                    stats.improvements += 1;
                    changed = true;
                }
            }
        }
    }
    (Selection { choices }, costs, stats)
}

/// The shared bottom-up dynamic program with **solution-space pruning**
/// (Fig. 6): per-class least-fixpoint cost and the node realizing it. A
/// class's parents are only re-examined when the class's best cost improves,
/// and e-nodes are never re-evaluated when none of their children changed.
fn bottom_up_with_costs(
    egraph: &EGraph<BoolLang>,
    parents: &ParentIndex,
    cost_kind: ExtractionCost,
) -> Costed {
    let empty = Selection {
        choices: FxHashMap::default(),
    };
    cost_fixpoint(egraph, parents, cost_kind, empty, |previous, new_cost| {
        previous.is_none_or(|prev| new_cost < prev)
    })
}

/// Steps of every neighbour chain the kernel property walks.
const CHAIN_STEPS: usize = 16;

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

    /// The dense kernel over a [`CostGraph`] is the hash-map kernel: the
    /// pruned and unpruned DP under both costs, and a chain of neighbours per
    /// `p_random` ∈ {0, 0.1, 0.5}, each generated from the previous one —
    /// selection, class costs and statistics of every run, and the random
    /// numbers the chain drew.
    #[test]
    fn dense_cost_kernel_matches_the_hash_map_reference(
        seed in 0u64..10_000,
        num_ands in 8usize..80,
        num_inputs in 3usize..7,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let saturated = saturate(&circuit);
        let egraph = &saturated.egraph;
        let parents = egraph.parent_index();
        let graph = CostGraph::new(egraph);
        for cost in [ExtractionCost::Size, ExtractionCost::Depth] {
            let dp = graph.bottom_up(cost);
            let (selection, costs, stats) = bottom_up_with_costs(egraph, &parents, cost);
            prop_assert_eq!(&dp.selection.choices, &selection.choices);
            prop_assert_eq!(dp.class_costs(), costs);
            prop_assert_eq!(dp.stats, stats);

            let unpruned = BottomUpEngine::new(cost)
                .with_pruning(false)
                .extract(egraph, &saturated.roots, &ExtractBudget::unlimited())
                .expect("unpruned DP extracts");
            let (u_selection, u_costs, u_stats) = bottom_up_unpruned(egraph, cost);
            prop_assert_eq!(&unpruned.selection.choices, &u_selection.choices);
            prop_assert_eq!(&unpruned.class_costs, &u_costs);
            prop_assert_eq!(unpruned.stats.nodes_evaluated, u_stats.nodes_evaluated);
            prop_assert_eq!(unpruned.stats.improvements, u_stats.improvements);

            for p_random in [0.0, 0.1, 0.5] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let mut current = selection.clone();
                for step in 0..CHAIN_STEPS {
                    let neighbor = generate_neighbor(&graph, cost, p_random, &mut rng);
                    let accept = |previous: Option<u64>, new_cost: u64| match previous {
                        None => true,
                        Some(prev) => new_cost < prev && reference_rng.random::<f64>() >= p_random,
                    };
                    let (n_selection, n_costs, n_stats) =
                        cost_fixpoint(egraph, &parents, cost, current.clone(), accept);
                    prop_assert_eq!(
                        &neighbor.selection.choices, &n_selection.choices,
                        "{:?} p_random {} step {}", cost, p_random, step
                    );
                    prop_assert_eq!(neighbor.class_costs(), n_costs);
                    prop_assert_eq!(neighbor.stats, n_stats);
                    current = n_selection;
                }
                prop_assert_eq!(
                    rng.random::<u64>(),
                    reference_rng.random::<u64>(),
                    "{:?} p_random {}: the chains drew differently", cost, p_random
                );
            }
        }
    }
}
