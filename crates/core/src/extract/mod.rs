//! E-graph extraction: the [`ExtractionEngine`] trait, its engines, and the
//! shared bottom-up dynamic program they build on.
//!
//! Four engines ship behind the one trait:
//!
//! * [`BottomUpEngine`] — the exact greedy DP (pruned worklist or unpruned
//!   fixpoint sweeps) minimizing a structural tree cost.
//! * [`GlobalGreedyDagEngine`] — greedy refinement that charges shared
//!   subgraphs once (true DAG cost instead of tree cost).
//! * [`SlackAwareEngine`] — depth/slack-driven selection: hold the critical
//!   depth, spend per-class slack on smaller structures.
//! * [`sa::SaEngine`] — the paper's simulated-annealing extractor guided by a
//!   [`costmodel::CostEvaluator`].
//!
//! [`PortfolioEngine`] races any set of them in parallel and picks the best
//! result deterministically.

pub mod engine;
pub mod greedy_dag;
pub mod sa;
pub mod slack;

pub use engine::{
    BottomUpEngine, EngineReport, ExtractBudget, ExtractError, Extraction, ExtractionEngine,
    ExtractorKind, PortfolioEngine, PortfolioScorer,
};
pub use greedy_dag::GlobalGreedyDagEngine;
pub use sa::SaEngine;
pub use slack::SlackAwareEngine;

use crate::lang::BoolLang;
use egraph::{DagSelection, EGraph, FxHashMap, FxHashSet, Id, Language, SelectionError};
use std::collections::VecDeque;
use std::time::Duration;

/// A concrete choice of one e-node per e-class over the Boolean language.
pub type Selection = DagSelection<BoolLang>;

/// The structural cost driving bottom-up extraction and neighbor generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionCost {
    /// "Sum cost" in Algorithm 1: total number of gate nodes (circuit size).
    Size,
    /// "Depth cost" in Algorithm 1: longest gate path (circuit depth).
    Depth,
}

/// Per-node gate cost: AND/OR count as one gate, inverters and leaves are free
/// (inverters are edge attributes in the AIG back-end).
pub(crate) fn node_cost(node: &BoolLang) -> u64 {
    match node {
        BoolLang::And(_) | BoolLang::Or(_) => 1,
        BoolLang::Not(_) | BoolLang::Const(_) | BoolLang::Var(_) => 0,
    }
}

/// Statistics of one extraction run, shared by every engine (and used by the
/// solution-space-pruning ablation, Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Number of e-node cost evaluations performed.
    pub nodes_evaluated: usize,
    /// Number of class-cost improvements committed.
    pub improvements: usize,
    /// Wall-clock time of the run ([`Duration::ZERO`] when not measured).
    pub runtime: Duration,
}

/// The shared bottom-up dynamic program: per-class least-fixpoint cost and
/// the node realizing it. `pruned` selects between the worklist algorithm
/// (solution-space pruning, Fig. 6) and the naive fixpoint sweeps it is
/// ablated against; both converge to the same per-class costs.
pub(crate) fn bottom_up_with_costs(
    egraph: &EGraph<BoolLang>,
    cost_kind: ExtractionCost,
    pruned: bool,
) -> (Selection, FxHashMap<Id, u64>, ExtractStats) {
    let mut stats = ExtractStats::default();
    let mut costs: FxHashMap<Id, u64> = FxHashMap::default();
    let mut choices: FxHashMap<Id, BoolLang> = FxHashMap::default();

    if pruned {
        // Worklist seeded with the leaf e-nodes; a class's parents are only
        // re-examined when the class's best cost improves, and e-nodes are
        // never re-evaluated when none of their children changed.
        let parent_index = egraph.parent_index();
        let mut queue: VecDeque<(Id, BoolLang)> = VecDeque::new();
        for class in egraph.classes() {
            for node in &class.nodes {
                if node.is_leaf() {
                    queue.push_back((class.id, node.clone()));
                }
            }
        }
        while let Some((class_id, node)) = queue.pop_front() {
            // All children must already have a cost, otherwise the node will
            // be re-enqueued when the missing child class gets one.
            let mut ready = true;
            let mut combined = 0u64;
            for &child in node.children() {
                match costs.get(&egraph.find(child)) {
                    Some(&c) => {
                        combined = match cost_kind {
                            ExtractionCost::Size => combined.saturating_add(c),
                            ExtractionCost::Depth => combined.max(c),
                        }
                    }
                    None => {
                        ready = false;
                        break;
                    }
                }
            }
            if !ready {
                continue;
            }
            stats.nodes_evaluated += 1;
            let new_cost = combined.saturating_add(node_cost(&node));
            let previous = costs.get(&class_id).copied();
            if previous.is_none_or(|prev| new_cost < prev) {
                costs.insert(class_id, new_cost);
                choices.insert(class_id, node);
                stats.improvements += 1;
                if let Some(parents) = parent_index.get(&class_id) {
                    for (parent_class, parent_node) in parents {
                        queue.push_back((*parent_class, parent_node.clone()));
                    }
                }
            }
        }
    } else {
        // Unpruned baseline: repeatedly sweep every e-node of every class
        // until a fixpoint, re-evaluating node costs even when nothing
        // changed underneath (the behaviour Fig. 6 contrasts against).
        let mut changed = true;
        while changed {
            changed = false;
            for class in egraph.classes() {
                for node in &class.nodes {
                    let mut ready = true;
                    let mut combined = 0u64;
                    for &child in node.children() {
                        match costs.get(&egraph.find(child)) {
                            Some(&c) => {
                                combined = match cost_kind {
                                    ExtractionCost::Size => combined.saturating_add(c),
                                    ExtractionCost::Depth => combined.max(c),
                                }
                            }
                            None => {
                                ready = false;
                                break;
                            }
                        }
                    }
                    if !ready {
                        continue;
                    }
                    stats.nodes_evaluated += 1;
                    let new_cost = combined.saturating_add(node_cost(node));
                    if costs.get(&class.id).is_none_or(|&prev| new_cost < prev) {
                        costs.insert(class.id, new_cost);
                        choices.insert(class.id, node.clone());
                        stats.improvements += 1;
                        changed = true;
                    }
                }
            }
        }
    }

    (Selection { choices }, costs, stats)
}

/// Greedy bottom-up extraction with **solution-space pruning** (Fig. 6).
///
/// Kept as a plain function for the annealing chains and the tests; external
/// callers should go through [`BottomUpEngine`], which also reports the
/// per-class cost map.
pub fn bottom_up_extract(
    egraph: &EGraph<BoolLang>,
    cost_kind: ExtractionCost,
) -> (Selection, ExtractStats) {
    let (selection, _, stats) = bottom_up_with_costs(egraph, cost_kind, true);
    (selection, stats)
}

/// Computes the structural cost of a selection at the given roots, reporting
/// a reachable class without a selected node as a typed error instead of
/// silently treating it as free (which would let an engine bug masquerade as
/// an excellent extraction).
///
/// # Errors
/// Returns [`SelectionError::Missing`] if a reachable class has no selected
/// node, or [`SelectionError::Cyclic`] if the depth cost meets a cycle.
pub fn try_selection_cost(
    egraph: &EGraph<BoolLang>,
    selection: &Selection,
    roots: &[Id],
    cost_kind: ExtractionCost,
) -> Result<u64, SelectionError> {
    match cost_kind {
        ExtractionCost::Size => {
            // Count distinct gate classes reachable under the selection.
            let mut seen: egraph::FxHashSet<Id> = egraph::FxHashSet::default();
            let mut stack: Vec<Id> = roots.iter().map(|&r| egraph.find(r)).collect();
            let mut total = 0u64;
            while let Some(id) = stack.pop() {
                if !seen.insert(id) {
                    continue;
                }
                let node = selection.node(id).ok_or(SelectionError::Missing(id))?;
                total += node_cost(node);
                for &child in node.children() {
                    stack.push(egraph.find(child));
                }
            }
            Ok(total)
        }
        ExtractionCost::Depth => {
            // Two-color memo: `None` marks an in-progress class, so a back
            // edge surfaces as `Cyclic` instead of reading a guard value.
            let mut memo: FxHashMap<Id, Option<u64>> = FxHashMap::default();
            fn depth_of(
                egraph: &EGraph<BoolLang>,
                selection: &Selection,
                id: Id,
                memo: &mut FxHashMap<Id, Option<u64>>,
            ) -> Result<u64, SelectionError> {
                match memo.get(&id) {
                    Some(Some(d)) => return Ok(*d),
                    Some(None) => return Err(SelectionError::Cyclic(id)),
                    None => {}
                }
                memo.insert(id, None);
                let node = selection.node(id).ok_or(SelectionError::Missing(id))?;
                let mut child_max = 0u64;
                for &c in node.children() {
                    child_max = child_max.max(depth_of(egraph, selection, egraph.find(c), memo)?);
                }
                let d = child_max + node_cost(node);
                memo.insert(id, Some(d));
                Ok(d)
            }
            let mut best = 0u64;
            for &r in roots {
                best = best.max(depth_of(egraph, selection, egraph.find(r), &mut memo)?);
            }
            Ok(best)
        }
    }
}

/// Heights of every selected class: leaves are 0, every selection edge adds 1
/// (including through `Not`, which is free in gates but still an edge a cycle
/// could run through), so walking classes in strictly decreasing height order
/// sees every parent before any of its selection children. The selection is
/// acyclic by invariant; a cycle guard still pins in-progress classes re-met
/// by the DFS so a violated invariant terminates (loudly, in debug builds)
/// instead of hanging the walk.
pub(crate) fn selection_heights(
    egraph: &EGraph<BoolLang>,
    selection: &FxHashMap<Id, BoolLang>,
) -> FxHashMap<Id, u64> {
    let mut heights: FxHashMap<Id, u64> = FxHashMap::default();
    let mut open: FxHashSet<Id> = FxHashSet::default();
    let mut stack: Vec<(Id, bool)> = Vec::new();
    for &start in selection.keys() {
        stack.push((start, false));
        while let Some((id, ready)) = stack.pop() {
            if heights.contains_key(&id) {
                continue;
            }
            let Some(node) = selection.get(&id) else {
                // Unreferenced stale entry pointing outside the selection;
                // height 0 keeps it inert (it can never be admitted anyway).
                heights.insert(id, 0);
                continue;
            };
            if ready {
                open.remove(&id);
                let mut h = 0u64;
                for &c in node.children() {
                    h = h.max(1 + heights.get(&egraph.find(c)).copied().unwrap_or(0));
                }
                heights.insert(id, h);
            } else {
                if !open.insert(id) {
                    // Re-met while its own subtree is still being resolved:
                    // the selection contains a cycle through this class.
                    debug_assert!(false, "cycle in selection through class {id}");
                    heights.insert(id, 0);
                    continue;
                }
                stack.push((id, true));
                for &c in node.children() {
                    let c = egraph.find(c);
                    if !heights.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
            }
        }
    }
    heights
}

/// Test-only helper shared by the engine modules' unit tests.
#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::convert::aig_to_egraph;
    use crate::rules::all_rules;
    use egraph::{Runner, Scheduler};

    /// Converts and saturates a circuit with small-test knobs, returning the
    /// e-graph and canonical roots.
    pub(crate) fn saturated_egraph(aig: &aig::Aig, iters: usize) -> (EGraph<BoolLang>, Vec<Id>) {
        let conv = aig_to_egraph(aig);
        let runner = Runner::with_egraph(conv.egraph)
            .with_iter_limit(iters)
            .with_node_limit(20_000)
            .with_scheduler(Scheduler::Backoff {
                match_limit: 2_000,
                ban_length: 2,
            })
            .run(&all_rules());
        let roots = conv.roots.iter().map(|&r| runner.egraph.find(r)).collect();
        (runner.egraph, roots)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::saturated_egraph;
    use super::*;
    use crate::convert::aig_to_egraph;

    /// A selection with the cycle `p -> q -> p` (both classes exist in the
    /// e-graph; only the selection is corrupt).
    fn cyclic_selection() -> (EGraph<BoolLang>, FxHashMap<Id, BoolLang>, [Id; 2]) {
        let mut eg: EGraph<BoolLang> = EGraph::new();
        let x = eg.add(BoolLang::Var(0));
        let p = eg.add(BoolLang::and(x, x));
        let q = eg.add(BoolLang::and(p, x));
        eg.rebuild();
        let mut selection: FxHashMap<Id, BoolLang> = FxHashMap::default();
        selection.insert(p, BoolLang::and(q, q));
        selection.insert(q, BoolLang::and(p, p));
        (eg, selection, [p, q])
    }

    /// The height walk's cycle guard trips in debug builds on a cyclic
    /// selection instead of spinning forever.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cycle in selection")]
    fn selection_heights_flags_a_cyclic_selection() {
        let (eg, selection, _) = cyclic_selection();
        selection_heights(&eg, &selection);
    }

    /// Without debug assertions the same walk terminates and returns a
    /// height for every class (the copy the slack engine used to carry
    /// re-pushed the in-progress class forever).
    #[test]
    #[cfg(not(debug_assertions))]
    fn selection_heights_returns_on_a_cyclic_selection_in_release() {
        let (eg, selection, classes) = cyclic_selection();
        let heights = selection_heights(&eg, &selection);
        assert!(classes.iter().all(|c| heights.contains_key(c)));
    }

    #[test]
    fn pruned_and_unpruned_agree_on_cost() {
        // Both algorithms compute the same per-class least fixpoint; under the
        // depth cost the resulting root cost is identical (the size cost is a
        // tree cost, so equally-optimal selections may differ in DAG sharing).
        let aig = benchgen::adder(4).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let (sel_p, _, _) = bottom_up_with_costs(&egraph, ExtractionCost::Depth, true);
        let (sel_u, _, _) = bottom_up_with_costs(&egraph, ExtractionCost::Depth, false);
        let cost_p = try_selection_cost(&egraph, &sel_p, &roots, ExtractionCost::Depth);
        let cost_u = try_selection_cost(&egraph, &sel_u, &roots, ExtractionCost::Depth);
        assert!(cost_p.is_ok());
        assert_eq!(cost_p, cost_u);
    }

    #[test]
    fn pruning_reduces_evaluations() {
        let aig = benchgen::adder(5).aig;
        let (egraph, _roots) = saturated_egraph(&aig, 3);
        let (_, _, stats_p) = bottom_up_with_costs(&egraph, ExtractionCost::Size, true);
        let (_, _, stats_u) = bottom_up_with_costs(&egraph, ExtractionCost::Size, false);
        assert!(
            stats_p.nodes_evaluated < stats_u.nodes_evaluated,
            "pruned {} vs unpruned {}",
            stats_p.nodes_evaluated,
            stats_u.nodes_evaluated
        );
    }

    #[test]
    fn every_reachable_class_gets_a_choice() {
        let aig = benchgen::multiplier(3).aig;
        let (egraph, roots) = saturated_egraph(&aig, 2);
        let (selection, _) = bottom_up_extract(&egraph, ExtractionCost::Depth);
        // Walk the selection from the roots: every visited class has a node.
        let mut stack: Vec<Id> = roots.clone();
        let mut seen = egraph::FxHashSet::default();
        while let Some(id) = stack.pop() {
            let id = egraph.find(id);
            if !seen.insert(id) {
                continue;
            }
            let node = selection.node(id).expect("reachable class has a selection");
            for &c in node.children() {
                stack.push(c);
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn depth_extraction_not_deeper_than_size_extraction() {
        let aig = benchgen::adder(6).aig;
        let (egraph, roots) = saturated_egraph(&aig, 4);
        let (sel_depth, _) = bottom_up_extract(&egraph, ExtractionCost::Depth);
        let (sel_size, _) = bottom_up_extract(&egraph, ExtractionCost::Size);
        let d_depth =
            try_selection_cost(&egraph, &sel_depth, &roots, ExtractionCost::Depth).unwrap();
        let d_size = try_selection_cost(&egraph, &sel_size, &roots, ExtractionCost::Depth).unwrap();
        assert!(d_depth <= d_size);
    }

    #[test]
    fn extraction_result_converts_to_equivalent_circuit() {
        let aig = benchgen::adder(4).aig;
        let conv = aig_to_egraph(&aig);
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let (selection, _) = bottom_up_extract(&egraph, ExtractionCost::Size);
        let back = crate::convert::selection_to_aig(
            &egraph,
            &selection,
            &roots,
            &conv.input_names,
            &conv.output_names,
            "extracted",
        );
        for p in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn try_selection_cost_reports_missing_classes() {
        let aig = benchgen::adder(3).aig;
        let (egraph, roots) = saturated_egraph(&aig, 2);
        let empty = Selection {
            choices: FxHashMap::default(),
        };
        for kind in [ExtractionCost::Size, ExtractionCost::Depth] {
            let err = try_selection_cost(&egraph, &empty, &roots, kind).unwrap_err();
            assert!(matches!(err, SelectionError::Missing(_)), "{err}");
        }
        // A complete selection reports Ok: at least one gate per root class.
        let (selection, _) = bottom_up_extract(&egraph, ExtractionCost::Size);
        let ok = try_selection_cost(&egraph, &selection, &roots, ExtractionCost::Size).unwrap();
        assert!(ok > 0);
    }
}
