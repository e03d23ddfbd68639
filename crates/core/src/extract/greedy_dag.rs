//! Greedy extraction under **true DAG cost**: shared subgraphs are charged
//! once, so the engine can undo the tree-cost DP's habit of picking locally
//! small nodes that duplicate logic globally.

use crate::extract::engine::{ExtractBudget, ExtractError, Extraction, ExtractionEngine};
use crate::extract::{
    node_cost, selection_heights, CostGraph, ExtractStats, ExtractionCost, Selection,
};
use crate::lang::BoolLang;
use egraph::{EGraph, FxHashMap, Id, Language};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Greedy DAG-cost refinement.
///
/// Starts from the exact tree-cost DP selection and repeatedly tries to
/// switch one class's chosen e-node to an alternative, keeping the switch iff
/// the number of **live gates** (distinct AND/OR classes reachable from the
/// roots) strictly decreases. Liveness is tracked incrementally with
/// reference counts, so each candidate costs O(touched subgraph) instead of
/// O(V).
///
/// Acyclicity is maintained by a height-admission rule: a candidate node is
/// only considered when every child's height (longest selection path to a
/// leaf, every edge counting) is strictly below the class's own height. A
/// hypothetical new cycle through the class would need a selection path from
/// a child back to the class, which would force the class's height below the
/// child's — contradicting the admission check — so no admissible switch can
/// create a cycle.
///
/// Heights are kept exact across switches without being recomputed: the map
/// is seeded once by `selection_heights`, and an accepted switch re-derives
/// only the switched class and those of its transitive users whose height
/// moves (`Heights::switch`). An accepted switch therefore costs the cone it
/// touches, not the size of the selection; a rejected candidate never touches
/// the heights. `selection_heights` stays the seed and, in debug builds, the
/// oracle the kept map is compared with after every accepted switch.
///
/// The refinement loop is deterministic (classes in sorted-id order, nodes in
/// class order) and *anytime*: an exhausted [`ExtractBudget`] simply stops
/// refinement, leaving a valid selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalGreedyDagEngine;

impl GlobalGreedyDagEngine {
    /// Creates the engine (it has no knobs).
    pub fn new() -> Self {
        GlobalGreedyDagEngine
    }
}

/// Incremental liveness tracker over a selection: per-class reference counts
/// from the roots plus the running count of live gate classes.
struct Liveness {
    refs: FxHashMap<Id, u64>,
    live_gates: u64,
}

impl Liveness {
    fn new(egraph: &EGraph<BoolLang>, selection: &FxHashMap<Id, BoolLang>, roots: &[Id]) -> Self {
        let mut live = Liveness {
            refs: FxHashMap::default(),
            live_gates: 0,
        };
        for &root in roots {
            live.inc(egraph, selection, egraph.find(root));
        }
        live
    }

    /// Adds one reference to `id`, cascading into its children when the class
    /// becomes newly live.
    fn inc(&mut self, egraph: &EGraph<BoolLang>, selection: &FxHashMap<Id, BoolLang>, id: Id) {
        let mut stack = vec![id];
        while let Some(x) = stack.pop() {
            let count = self.refs.entry(x).or_insert(0);
            *count += 1;
            if *count == 1 {
                if let Some(node) = selection.get(&x) {
                    self.live_gates += node_cost(node);
                    for &c in node.children() {
                        stack.push(egraph.find(c));
                    }
                }
            }
        }
    }

    /// Removes one reference from `id`, cascading when the class dies.
    fn dec(&mut self, egraph: &EGraph<BoolLang>, selection: &FxHashMap<Id, BoolLang>, id: Id) {
        let mut stack = vec![id];
        while let Some(x) = stack.pop() {
            let count = self
                .refs
                .get_mut(&x)
                .unwrap_or_else(|| unreachable!("decrement of an unreferenced class"));
            *count -= 1;
            if *count == 0 {
                if let Some(node) = selection.get(&x) {
                    self.live_gates -= node_cost(node);
                    for &c in node.children() {
                        stack.push(egraph.find(c));
                    }
                }
            }
        }
    }

    fn is_live(&self, id: Id) -> bool {
        self.refs.get(&id).is_some_and(|&c| c > 0)
    }
}

/// The heights of a selection (`selection_heights`), kept exact while the
/// engine switches one class at a time.
struct Heights {
    heights: FxHashMap<Id, u64>,
    /// Class → the classes whose selected node has it as a child, one entry
    /// per child slot: `And(c, c)` lists its class twice under `c`.
    users: FxHashMap<Id, Vec<Id>>,
    /// Heights re-derived by [`Heights::switch`] so far: the work the
    /// accepted switches cost, as a count.
    pub(crate) rederived: u64,
}

impl Heights {
    fn new(egraph: &EGraph<BoolLang>, selection: &FxHashMap<Id, BoolLang>) -> Self {
        let mut users: FxHashMap<Id, Vec<Id>> = FxHashMap::default();
        for (&class_id, node) in selection {
            for &c in node.children() {
                users.entry(egraph.find(c)).or_default().push(class_id);
            }
        }
        Heights {
            heights: selection_heights(egraph, selection),
            users,
            rederived: 0,
        }
    }

    fn get(&self, id: Id) -> Option<u64> {
        self.heights.get(&id).copied()
    }

    /// Brings the heights up to date after `selection[class_id]` was switched
    /// away from `old`. The admission rule put every new child strictly below
    /// the class, so its height can only fall, and so can those of its
    /// transitive users — which the switch leaves acyclic, with the edges
    /// they had. Their old heights are therefore a topological order of that
    /// cone: popped lowest first, a class is re-derived once, after every
    /// child of it that moves, and the walk stops where a height stays.
    fn switch(
        &mut self,
        egraph: &EGraph<BoolLang>,
        selection: &FxHashMap<Id, BoolLang>,
        class_id: Id,
        old: &BoolLang,
    ) {
        for &c in old.children() {
            let users = self.users.get_mut(&egraph.find(c));
            let users = users.unwrap_or_else(|| unreachable!("a selected child has users"));
            let slot = users.iter().position(|&u| u == class_id);
            users.swap_remove(slot.unwrap_or_else(|| unreachable!("the class used its child")));
        }
        for &c in selection[&class_id].children() {
            self.users.entry(egraph.find(c)).or_default().push(class_id);
        }

        let mut queue = BinaryHeap::from([Reverse((self.heights[&class_id], class_id))]);
        let mut previous = None;
        while let Some(Reverse(entry)) = queue.pop() {
            // A class with two children that moved was queued by both.
            if previous.replace(entry) == Some(entry) {
                continue;
            }
            let (old_height, x) = entry;
            self.rederived += 1;
            let children = selection[&x].children().iter();
            let height = children
                .map(|&c| 1 + self.heights.get(&egraph.find(c)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if height != old_height {
                self.heights.insert(x, height);
                let users = self.users.get(&x).into_iter().flatten();
                queue.extend(users.map(|&u| Reverse((self.heights[&u], u))));
            }
        }
        debug_assert_eq!(self.heights, selection_heights(egraph, selection));
    }
}

impl ExtractionEngine for GlobalGreedyDagEngine {
    fn name(&self) -> &'static str {
        "global-greedy-dag"
    }

    fn extract(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<Extraction, ExtractError> {
        Self::refine(egraph, roots, budget).map(|(extraction, _)| extraction)
    }
}

impl GlobalGreedyDagEngine {
    /// The engine, handing back the heights it kept beside the extraction
    /// (the unit tests read what the accepted switches cost from them).
    fn refine(
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<(Extraction, Heights), ExtractError> {
        let start = Instant::now();
        let (base, class_costs, base_stats) = CostGraph::new(egraph)
            .bottom_up(ExtractionCost::Size)
            .into_parts();
        let mut selection = base.choices;
        let roots: Vec<Id> = roots.iter().map(|&r| egraph.find(r)).collect();
        for &root in &roots {
            if !selection.contains_key(&root) {
                return Err(ExtractError::Unrealizable(root));
            }
        }

        let mut stats = ExtractStats {
            nodes_evaluated: base_stats.nodes_evaluated,
            improvements: 0,
            runtime: Default::default(),
        };
        let mut heights = Heights::new(egraph, &selection);
        let mut live = Liveness::new(egraph, &selection, &roots);
        let class_order = egraph.class_ids_sorted();

        // Each accepted switch strictly decreases `live_gates` (a nonnegative
        // integer), so the refinement terminates; the loop ends at the first
        // full pass with no accepted switch or when the budget runs out.
        let mut evaluations = 0u64;
        'refine: loop {
            let mut accepted_this_pass = false;
            for &class_id in &class_order {
                if !live.is_live(class_id) || !selection.contains_key(&class_id) {
                    continue;
                }
                for node in &egraph.class(class_id).nodes {
                    if budget.exhausted(evaluations, start) {
                        break 'refine;
                    }
                    evaluations += 1;
                    stats.nodes_evaluated += 1;

                    let current = &selection[&class_id];
                    if node == current {
                        continue;
                    }
                    // Height admission: every child must sit strictly below
                    // this class, and be realizable at all. The class's own
                    // height must be re-read for every candidate: an accepted
                    // switch for an earlier node of this same class updates
                    // the heights and can *lower* this class's height, and
                    // admitting against the stale larger value would let a
                    // child whose selection path reaches back here slip
                    // through, creating a cycle.
                    let class_height = heights.get(class_id).unwrap_or(0);
                    let admissible = node.children().iter().all(|&c| {
                        let c = egraph.find(c);
                        selection.contains_key(&c)
                            && heights.get(c).is_some_and(|ch| ch < class_height)
                    });
                    if !admissible {
                        continue;
                    }

                    // Tentatively switch and measure the live-gate delta.
                    let before = live.live_gates;
                    let old = selection
                        .insert(class_id, node.clone())
                        .unwrap_or_else(|| unreachable!("class was selected"));
                    live.live_gates += node_cost(node);
                    live.live_gates -= node_cost(&old);
                    for &c in node.children() {
                        live.inc(egraph, &selection, egraph.find(c));
                    }
                    for &c in old.children() {
                        live.dec(egraph, &selection, egraph.find(c));
                    }

                    if live.live_gates < before {
                        stats.improvements += 1;
                        accepted_this_pass = true;
                        heights.switch(egraph, &selection, class_id, &old);
                    } else {
                        // Revert exactly: put the old node back and undo the
                        // reference-count changes in reverse.
                        for &c in node.children() {
                            live.dec(egraph, &selection, egraph.find(c));
                        }
                        let node_back = selection
                            .insert(class_id, old)
                            .unwrap_or_else(|| unreachable!("class still selected"));
                        let old = &selection[&class_id];
                        live.live_gates += node_cost(old);
                        live.live_gates -= node_cost(&node_back);
                        for &c in old.children() {
                            live.inc(egraph, &selection, egraph.find(c));
                        }
                        debug_assert_eq!(live.live_gates, before, "revert must be exact");
                    }
                }
            }
            if !accepted_this_pass {
                break;
            }
        }

        stats.runtime = start.elapsed();
        let extraction = Extraction {
            selection: Selection { choices: selection },
            class_costs,
            stats,
        };
        Ok((extraction, heights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::test_util::saturated_egraph;
    use crate::extract::{try_selection_cost, BottomUpEngine};

    #[test]
    fn dag_cost_not_worse_than_tree_cost_selection() {
        for (name, aig, iters) in [
            ("adder", benchgen::adder(5).aig, 3),
            ("mult", benchgen::multiplier(3).aig, 2),
        ] {
            let (egraph, roots) = saturated_egraph(&aig, iters);
            let budget = ExtractBudget::unlimited();
            let tree = BottomUpEngine::new(ExtractionCost::Size)
                .extract(&egraph, &roots, &budget)
                .unwrap();
            let dag = GlobalGreedyDagEngine::new()
                .extract(&egraph, &roots, &budget)
                .unwrap();
            let tree_size =
                try_selection_cost(&egraph, &tree.selection, &roots, ExtractionCost::Size).unwrap();
            let dag_size =
                try_selection_cost(&egraph, &dag.selection, &roots, ExtractionCost::Size).unwrap();
            assert!(
                dag_size <= tree_size,
                "{name}: dag {dag_size} vs tree {tree_size}"
            );
        }
    }

    #[test]
    fn selection_stays_acyclic_and_complete() {
        let aig = benchgen::multiplier(3).aig;
        let (egraph, roots) = saturated_egraph(&aig, 2);
        let extraction = GlobalGreedyDagEngine::new()
            .extract(&egraph, &roots, &ExtractBudget::unlimited())
            .unwrap();
        // try_selection_cost(Depth) walks with cycle detection: Ok proves the
        // refined selection is still complete and acyclic from the roots.
        try_selection_cost(
            &egraph,
            &extraction.selection,
            &roots,
            ExtractionCost::Depth,
        )
        .unwrap();
    }

    #[test]
    fn extraction_is_equivalent_to_input() {
        let aig = benchgen::adder(4).aig;
        let conv = crate::convert::aig_to_egraph(&aig);
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let extraction = GlobalGreedyDagEngine::new()
            .extract(&egraph, &roots, &ExtractBudget::unlimited())
            .unwrap();
        let back = crate::convert::try_selection_to_aig(
            &egraph,
            &extraction.selection,
            &roots,
            &conv.input_names,
            &conv.output_names,
            "greedy-dag",
        )
        .unwrap();
        for p in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn exhausted_budget_still_yields_a_valid_selection() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let tight = ExtractBudget::unlimited().with_max_evaluations(1);
        let extraction = GlobalGreedyDagEngine::new()
            .extract(&egraph, &roots, &tight)
            .unwrap();
        try_selection_cost(&egraph, &extraction.selection, &roots, ExtractionCost::Size).unwrap();
    }

    /// Regression: the cap used to be consulted on every 256th evaluation
    /// only, so a budget of 1 admitted 256 refinement evaluations.
    #[test]
    fn a_budget_of_n_admits_exactly_n_refinement_evaluations() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let unlimited = ExtractBudget::unlimited();
        let base = BottomUpEngine::new(ExtractionCost::Size)
            .extract(&egraph, &roots, &unlimited)
            .unwrap();
        for n in [1, 100, 257] {
            let budget = unlimited.with_max_evaluations(n);
            let cut = GlobalGreedyDagEngine::new()
                .extract(&egraph, &roots, &budget)
                .unwrap();
            assert_eq!(
                cut.stats.nodes_evaluated,
                base.stats.nodes_evaluated + n as usize
            );
        }
    }

    const CHAIN: usize = 10_000;

    /// `CHAIN` AND classes stacked on `bottom`; returns the topmost.
    fn chain_over(eg: &mut EGraph<BoolLang>, bottom: Id, y: Id) -> Id {
        (0..CHAIN).fold(bottom, |below, _| eg.add(BoolLang::and(below, y)))
    }

    /// A class the tree DP gives a tall node — five ANDs over `below`, then
    /// `And(_, x)`: height + 6 — and whose other node `And(m, m)`, `m` three
    /// ORs over `below`, costs the tree DP more but leaves two gates fewer
    /// live, at height + 4: the one switch the engine accepts.
    fn class_with_a_profitable_switch(eg: &mut EGraph<BoolLang>, below: Id, x: Id) -> Id {
        let tall = (0..5).fold(below, |a, _| eg.add(BoolLang::and(a, x)));
        let short = (0..3).fold(below, |m, _| eg.add(BoolLang::or(m, x)));
        let class = eg.add(BoolLang::and(tall, x));
        let other = eg.add(BoolLang::and(short, short));
        eg.union(class, other);
        eg.rebuild();
        eg.find(class)
    }

    /// The work an accepted switch costs is the cone above it, as a count:
    /// one height at the top of a 10 000-class chain, the chain above the
    /// switch at its bottom — the selection is as large either way.
    #[test]
    fn an_accepted_switch_rederives_the_cone_above_it_only() {
        let budget = ExtractBudget::unlimited();

        let mut top: EGraph<BoolLang> = EGraph::new();
        let (x, y) = (top.add(BoolLang::Var(0)), top.add(BoolLang::Var(1)));
        let chain = chain_over(&mut top, x, y);
        let root = class_with_a_profitable_switch(&mut top, chain, x);
        let (extraction, heights) = GlobalGreedyDagEngine::refine(&top, &[root], &budget).unwrap();
        assert!(extraction.selection.choices.len() > CHAIN);
        assert_eq!(extraction.stats.improvements, 1);
        assert_eq!(heights.get(root), Some(CHAIN as u64 + 4));
        assert_eq!(heights.rederived, 1);

        let mut bottom: EGraph<BoolLang> = EGraph::new();
        let (x, y) = (bottom.add(BoolLang::Var(0)), bottom.add(BoolLang::Var(1)));
        let switched = class_with_a_profitable_switch(&mut bottom, y, x);
        let root = chain_over(&mut bottom, switched, y);
        let root = bottom.find(root);
        let (extraction, heights) =
            GlobalGreedyDagEngine::refine(&bottom, &[root], &budget).unwrap();
        assert!(extraction.selection.choices.len() > CHAIN);
        assert_eq!(extraction.stats.improvements, 1);
        assert_eq!(heights.get(root), Some(CHAIN as u64 + 4));
        assert_eq!(heights.rederived, CHAIN as u64 + 1);
    }

    /// Regression: the per-class height must be re-read after an accepted
    /// switch. This e-graph is built so the tree DP picks a tall node for
    /// class `C` (height 6), the greedy pass first accepts a short
    /// alternative (dropping `C`'s height to 4), and a later alternative of
    /// `C` has child `D = And(C, x)` whose recomputed height (5) sits below
    /// the stale 6 but above the fresh 4. Admitting it against the stale
    /// height created the cycle `C -> D -> C` and hung `selection_heights`.
    #[test]
    fn stale_class_height_cannot_admit_a_cycle() {
        let mut eg: EGraph<BoolLang> = EGraph::new();
        let x = eg.add(BoolLang::Var(0));
        let y = eg.add(BoolLang::Var(1));
        // Tall AND chain (tree size 5, height 5), reachable only through
        // `C`'s DP pick.
        let mut a = eg.add(BoolLang::and(x, y));
        for _ in 0..4 {
            a = eg.add(BoolLang::and(a, y));
        }
        // Short OR chain (tree size 3, height 3): the first alternative.
        let mut m = eg.add(BoolLang::or(x, y));
        for _ in 0..2 {
            m = eg.add(BoolLang::or(m, y));
        }
        // Class C: DP picks `And(a, x)` (tree cost 6 < 7); `And(m, m)` is the
        // greedy's first accepted switch (kills the 5-gate chain, adds 3).
        let c = eg.add(BoolLang::and(a, x));
        let c1 = eg.add(BoolLang::and(m, m));
        eg.union(c, c1);
        eg.rebuild();
        // D sits above C; the root keeps D (and through it C) live.
        let d = eg.add(BoolLang::and(eg.find(c), x));
        let root = eg.add(BoolLang::or(d, x));
        // The poisoned alternative: switching C to `And(d, x)` closes the
        // cycle C -> D -> C.
        let c2 = eg.add(BoolLang::and(d, x));
        eg.union(c, c2);
        eg.rebuild();

        let roots = vec![eg.find(root)];
        let tree = CostGraph::new(&eg)
            .bottom_up(ExtractionCost::Size)
            .selection;
        let tree_size = try_selection_cost(&eg, &tree, &roots, ExtractionCost::Size).unwrap();
        let extraction = GlobalGreedyDagEngine::new()
            .extract(&eg, &roots, &ExtractBudget::unlimited())
            .unwrap();
        // Depth walks with cycle detection: Ok proves acyclicity.
        try_selection_cost(&eg, &extraction.selection, &roots, ExtractionCost::Depth).unwrap();
        let dag_size =
            try_selection_cost(&eg, &extraction.selection, &roots, ExtractionCost::Size).unwrap();
        assert!(dag_size <= tree_size, "dag {dag_size} vs tree {tree_size}");
    }

    #[test]
    fn deterministic_across_runs() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let budget = ExtractBudget::unlimited();
        let a = GlobalGreedyDagEngine::new()
            .extract(&egraph, &roots, &budget)
            .unwrap();
        let b = GlobalGreedyDagEngine::new()
            .extract(&egraph, &roots, &budget)
            .unwrap();
        assert_eq!(a.selection.choices, b.selection.choices);
        assert_eq!(a.stats.nodes_evaluated, b.stats.nodes_evaluated);
        assert_eq!(a.stats.improvements, b.stats.improvements);
    }
}
