//! E-graph extraction: the [`ExtractionEngine`] trait, its engines, and the
//! two primitives they are all written in.
//!
//! Four engines ship behind the one trait:
//!
//! * [`BottomUpEngine`] — the exact greedy DP (pruned worklist or unpruned
//!   fixpoint sweeps) minimizing a structural tree cost.
//! * [`GlobalGreedyDagEngine`] — greedy refinement that charges shared
//!   subgraphs once (true DAG cost instead of tree cost).
//! * [`SlackAwareEngine`] — depth/slack-driven selection: hold the critical
//!   depth, spend per-class slack on smaller structures.
//! * [`sa::SaEngine`] — the paper's simulated-annealing extractor, scoring
//!   every candidate by mapping it to the standard-cell library.
//!
//! [`PortfolioEngine`] races any set of them in parallel and picks the best
//! result deterministically.
//!
//! # The walk: reading a selection
//!
//! Everything that reads a finished [`Selection`] — [`try_selection_cost`]
//! under both costs, [`crate::convert::try_selection_to_aig`], and
//! `try_to_recexpr` / `try_dag_size` / `try_depth` on the selection itself —
//! is a fold over [`DagSelection::try_fold`], the one iterative post-order
//! walk: roots in the order given, a node's children left to right, every
//! canonical class reachable under the selection exactly once and only after
//! all of its children (which is what fixes the `Aig` node creation order of
//! the back-conversion). It keeps its own stack, so selection depth is never
//! call depth. `Missing(c)` names the first class the walk reaches that has
//! no selected node; `Cyclic(c)` names the class an edge re-enters while the
//! walk is still below it. The only other walk is `selection_heights`,
//! which says why it is not a fold.
//!
//! # The kernel: costing the e-graph
//!
//! The pruned DP ([`CostGraph::bottom_up`]) and Algorithm 1's neighbour
//! generation ([`sa::generate_neighbor`]) are the same least-fixpoint
//! worklist, `CostGraph::fixpoint`, under two acceptance rules. It runs over
//! a [`CostGraph`] — the e-graph numbered densely once per engine run, which
//! the engine builds and lends to every fixpoint it runs (SA to its
//! realizability check, its greedy seed and every neighbour of every chain)
//! — with costs and picks in plain vectors, a queue of node indices, and
//! the [`Selection`] written once at the end of the run.
//!
//! * **Seed order.** The queue starts with every leaf e-node, classes in
//!   `classes_in_seed_order` and nodes in class order. That function is the
//!   single place the extraction order depends on the e-graph's container,
//!   hence the single site a deterministic class order has to pin; the
//!   graph numbers classes in it.
//! * **Pop.** Nodes leave the queue first in, first out. A node with an
//!   uncosted child is dropped — that child's first cost enqueues it again.
//!   Otherwise `combine` prices it from its children (sum or max, plus the
//!   node's own gate) and the caller's `accept(previous cost of the class,
//!   new cost)` decides.
//! * **Tie-break.** The DP accepts strict improvements only, so among
//!   equally cheap nodes of a class the first one popped stays selected.
//!   The neighbour generator additionally vetoes an improvement with
//!   probability `p_random`; it draws from the RNG exactly once per popped
//!   node that strictly improves an already-costed class, and at no other
//!   point.
//! * **Propagate.** An accepted node becomes the class's pick and the
//!   class's parents join the queue, in [`EGraph::parent_index`] order (the
//!   graph keeps that index's lists as node indices).
//!
//! The unpruned sweeps `BottomUpEngine::with_pruning(false)` runs are the
//! Fig. 6 ablation's reference and deliberately not the kernel; they run
//! over the same graph and share its seed order and its `combine`.

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
use egraph::{DagSelection, EClass, EGraph, FxHashMap, FxHashSet, Id, Language, SelectionError};
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

/// The class order every cost fixpoint is seeded and swept in (see the
/// module docs): today the e-graph's own iteration order.
fn classes_in_seed_order(egraph: &EGraph<BoolLang>) -> impl Iterator<Item = &EClass<BoolLang>> {
    egraph.classes()
}

/// A class no node has been picked for (and so has no cost) yet.
const UNPICKED: u32 = u32::MAX;

/// One e-node as the kernel reads it.
#[derive(Debug, Clone)]
struct CostNode {
    /// Dense index of the node's class.
    class: u32,
    /// The canonical node with its children renumbered to dense class
    /// indices ([`CostGraph::term`] turns it back).
    node: BoolLang,
}

/// The e-graph the way the kernel reads it, built once per engine run and
/// lent to every fixpoint over it:
///
/// * classes numbered densely in `classes_in_seed_order`;
/// * every class's nodes, canonical, in class order, with children
///   renumbered to dense class indices;
/// * each class's parents as a CSR list of node indices, in
///   [`EGraph::parent_index`] order — built from the node lists, which a
///   clean e-graph's parent lists agree with (`egraph`'s invariant tests);
/// * the leaf nodes in seed order.
#[derive(Debug, Clone)]
pub struct CostGraph {
    /// Dense class index → canonical class id.
    class_ids: Vec<Id>,
    /// Class `c`'s nodes are `class_nodes[c]..class_nodes[c + 1]`.
    class_nodes: Vec<u32>,
    nodes: Vec<CostNode>,
    /// Class `c`'s parents are `parents[parent_offsets[c]..parent_offsets[c + 1]]`.
    parent_offsets: Vec<u32>,
    parents: Vec<u32>,
    leaves: Vec<u32>,
}

/// Narrows a kernel index; the kernel numbers classes and nodes in `u32`.
fn dense(index: usize) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| unreachable!("more than 2^32 e-nodes"))
}

impl CostGraph {
    /// Numbers `egraph` for the kernel (it must be clean, like
    /// [`EGraph::parent_index`] demands).
    pub fn new(egraph: &EGraph<BoolLang>) -> Self {
        let class_ids: Vec<Id> = classes_in_seed_order(egraph).map(|c| c.id).collect();
        let id_bound = class_ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        // Ids that name no class stay out of range: only canonical children
        // are looked up.
        let mut index_of = vec![u32::MAX; id_bound];
        for (index, id) in (0..).zip(&class_ids) {
            index_of[id.index()] = index;
        }
        let mut class_nodes = vec![0];
        let mut nodes = Vec::new();
        let mut leaves = Vec::new();
        for (class, eclass) in (0..).zip(classes_in_seed_order(egraph)) {
            for node in &eclass.nodes {
                if node.is_leaf() {
                    leaves.push(dense(nodes.len()));
                }
                let node = node.map_children(|child| Id(index_of[egraph.find(child).index()]));
                nodes.push(CostNode { class, node });
            }
            class_nodes.push(dense(nodes.len()));
        }
        let mut graph = CostGraph {
            class_ids,
            class_nodes,
            nodes,
            parent_offsets: Vec::new(),
            parents: Vec::new(),
            leaves,
        };
        graph.index_parents();
        graph
    }

    /// Lists every node under each class it has as a child, ordered and
    /// deduplicated by `(parent class id, node)` as
    /// [`EGraph::parent_index`] orders its lists.
    fn index_parents(&mut self) {
        let mut offsets = vec![0u32; self.num_classes() + 1];
        for node in &self.nodes {
            for child in distinct_children(&node.node) {
                offsets[child.index() + 1] += 1;
            }
        }
        for class in 0..self.num_classes() {
            offsets[class + 1] += offsets[class];
        }
        let mut parents = vec![0u32; offsets[self.num_classes()] as usize];
        let mut cursor = offsets.clone();
        for (index, node) in (0..).zip(&self.nodes) {
            for child in distinct_children(&node.node) {
                parents[cursor[child.index()] as usize] = index;
                cursor[child.index()] += 1;
            }
        }
        let key = |index: u32| {
            let class = self.nodes[index as usize].class as usize;
            (self.class_ids[class], self.term(index))
        };
        let mut kept = 0;
        let mut parent_offsets = vec![0];
        for class in 0..self.num_classes() {
            let segment = &mut parents[offsets[class] as usize..offsets[class + 1] as usize];
            segment.sort_unstable_by_key(|&index| key(index));
            let start = kept;
            for read in offsets[class] as usize..offsets[class + 1] as usize {
                if kept == start || key(parents[kept - 1]) != key(parents[read]) {
                    parents[kept] = parents[read];
                    kept += 1;
                }
            }
            parent_offsets.push(dense(kept));
        }
        parents.truncate(kept);
        self.parent_offsets = parent_offsets;
        self.parents = parents;
    }

    fn num_classes(&self) -> usize {
        self.class_ids.len()
    }

    /// The canonical e-node behind node `index`, as a selection records it.
    fn term(&self, index: u32) -> BoolLang {
        let node = &self.nodes[index as usize].node;
        node.map_children(|child| self.class_ids[child.index()])
    }

    fn parents_of(&self, class: usize) -> &[u32] {
        let range = self.parent_offsets[class] as usize..self.parent_offsets[class + 1] as usize;
        &self.parents[range]
    }

    /// The worklist kernel (contract in the module docs): the least fixpoint
    /// of per-class costs under `accept`, written over `selection`.
    pub(crate) fn fixpoint(
        &self,
        cost_kind: ExtractionCost,
        selection: Selection,
        mut accept: impl FnMut(Option<u64>, u64) -> bool,
    ) -> Costed<'_> {
        let mut costs = vec![0u64; self.num_classes()];
        let mut picks = vec![UNPICKED; self.num_classes()];
        let mut stats = ExtractStats::default();
        let mut queue: VecDeque<u32> = self.leaves.iter().copied().collect();
        while let Some(index) = queue.pop_front() {
            let node = &self.nodes[index as usize];
            let Some(new_cost) = combine(&costs, &picks, cost_kind, node) else {
                continue;
            };
            stats.nodes_evaluated += 1;
            let class = node.class as usize;
            let previous = (picks[class] != UNPICKED).then_some(costs[class]);
            if accept(previous, new_cost) {
                costs[class] = new_cost;
                picks[class] = index;
                stats.improvements += 1;
                queue.extend(self.parents_of(class));
            }
        }
        self.costed(selection, costs, picks, stats)
    }

    /// The shared bottom-up dynamic program with **solution-space pruning**
    /// (Fig. 6): per-class least-fixpoint cost and the node realizing it. A
    /// class's parents are only re-examined when the class's best cost
    /// improves, and e-nodes are never re-evaluated when none of their
    /// children changed.
    pub fn bottom_up(&self, cost_kind: ExtractionCost) -> Costed<'_> {
        self.fixpoint(cost_kind, empty_selection(), |previous, new_cost| {
            previous.is_none_or(|prev| new_cost < prev)
        })
    }

    /// The unpruned baseline the Fig. 6 ablation contrasts against: sweep
    /// every e-node of every class until nothing changes, re-evaluating node
    /// costs even when nothing changed underneath. Converges to the same
    /// per-class costs as [`CostGraph::bottom_up`].
    pub(crate) fn bottom_up_unpruned(&self, cost_kind: ExtractionCost) -> Costed<'_> {
        let mut costs = vec![0u64; self.num_classes()];
        let mut picks = vec![UNPICKED; self.num_classes()];
        let mut stats = ExtractStats::default();
        let mut changed = true;
        while changed {
            changed = false;
            for class in 0..self.num_classes() {
                for index in self.class_nodes[class]..self.class_nodes[class + 1] {
                    let node = &self.nodes[index as usize];
                    let Some(new_cost) = combine(&costs, &picks, cost_kind, node) else {
                        continue;
                    };
                    stats.nodes_evaluated += 1;
                    if picks[class] == UNPICKED || new_cost < costs[class] {
                        costs[class] = new_cost;
                        picks[class] = index;
                        stats.improvements += 1;
                        changed = true;
                    }
                }
            }
        }
        self.costed(empty_selection(), costs, picks, stats)
    }

    /// Writes the picks over `selection`, once, at the end of a run.
    fn costed(
        &self,
        mut selection: Selection,
        costs: Vec<u64>,
        picks: Vec<u32>,
        stats: ExtractStats,
    ) -> Costed<'_> {
        for (&id, &pick) in self.class_ids.iter().zip(&picks) {
            if pick != UNPICKED {
                selection.set(id, self.term(pick));
            }
        }
        Costed {
            selection,
            stats,
            graph: self,
            costs,
            picks,
        }
    }
}

/// The children of `node`, a child it has twice listed once.
fn distinct_children(node: &BoolLang) -> &[Id] {
    match node.children() {
        [a, b] if a == b => std::slice::from_ref(a),
        children => children,
    }
}

fn empty_selection() -> Selection {
    Selection {
        choices: FxHashMap::default(),
    }
}

/// Prices `node` from the costs of its children — their sum or their
/// maximum, plus the node's own gate. `None` while a child is uncosted.
fn combine(
    costs: &[u64],
    picks: &[u32],
    cost_kind: ExtractionCost,
    node: &CostNode,
) -> Option<u64> {
    let mut combined = 0u64;
    for child in node.node.children() {
        let child = child.index();
        if picks[child] == UNPICKED {
            return None;
        }
        combined = match cost_kind {
            ExtractionCost::Size => combined.saturating_add(costs[child]),
            ExtractionCost::Depth => combined.max(costs[child]),
        };
    }
    Some(combined.saturating_add(node_cost(&node.node)))
}

/// What one run of the kernel produces: the selection, the per-class costs
/// it realizes, and the work it took.
#[derive(Debug)]
pub struct Costed<'g> {
    /// The run's selection: the one it started from, with every class it
    /// costed set to the node realizing that cost.
    pub selection: Selection,
    /// The work the run took (`runtime` is not measured).
    pub stats: ExtractStats,
    graph: &'g CostGraph,
    costs: Vec<u64>,
    picks: Vec<u32>,
}

impl Costed<'_> {
    /// The cost of every class the run costed, by canonical class id.
    pub fn class_costs(&self) -> FxHashMap<Id, u64> {
        let costed = self.picks.iter().map(|&pick| pick != UNPICKED);
        let ids = self.graph.class_ids.iter().zip(&self.costs).zip(costed);
        ids.filter(|(_, costed)| *costed)
            .map(|((&id, &cost), _)| (id, cost))
            .collect()
    }

    /// The selection, the class costs and the statistics, letting go of the
    /// graph.
    pub fn into_parts(self) -> (Selection, FxHashMap<Id, u64>, ExtractStats) {
        let class_costs = self.class_costs();
        (self.selection, class_costs, self.stats)
    }
}

/// Computes the structural cost of a selection at the given roots, reporting
/// a reachable class without a selected node as a typed error instead of
/// silently treating it as free (which would let an engine bug masquerade as
/// an excellent extraction).
///
/// # Errors
/// Returns [`SelectionError::Missing`] if a reachable class has no selected
/// node, or [`SelectionError::Cyclic`] if the selection loops.
pub fn try_selection_cost(
    egraph: &EGraph<BoolLang>,
    selection: &Selection,
    roots: &[Id],
    cost_kind: ExtractionCost,
) -> Result<u64, SelectionError> {
    match cost_kind {
        ExtractionCost::Size => {
            // Distinct gate classes reachable under the selection.
            let mut total = 0u64;
            selection.try_fold(egraph, roots, |node, _: &[()]| total += node_cost(node))?;
            Ok(total)
        }
        ExtractionCost::Depth => {
            let depths = selection.try_fold(egraph, roots, |node, children: &[u64]| {
                children.iter().copied().max().unwrap_or(0) + node_cost(node)
            })?;
            Ok(depths.into_iter().max().unwrap_or(0))
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
///
/// The slack-aware engine walks its base selection with it once. The greedy
/// DAG engine seeds the heights it keeps with it and, in debug builds, holds
/// them to it after every accepted switch — it costs the whole selection, so
/// it is not what an engine calls per switch.
///
/// This is the one walk that is not a [`DagSelection::try_fold`]. The fold is
/// strict: it stops at the first `Missing` or `Cyclic` class. This walk
/// answers for every key even over a corrupt selection — an entry pointing
/// outside the selection reads as height 0, a cycle is pinned and walked
/// past, and the two tests below hold it to that — and a fold that carried
/// on past errors would be a second mode of the walk.
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

    /// `asap7_like` without its inverter: every mapping of it fails.
    pub(crate) fn library_without_inverter() -> techmap::CellLibrary {
        let mut library = techmap::CellLibrary::new();
        for cell in techmap::library::asap7_like().cells() {
            if !(cell.num_inputs == 1 && cell.function == 0b01) {
                library.add(cell.clone());
            }
        }
        assert_eq!(library.inverter(), None);
        library
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
        let sel_p = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Depth)
            .selection;
        let sel_u = CostGraph::new(&egraph)
            .bottom_up_unpruned(ExtractionCost::Depth)
            .selection;
        let cost_p = try_selection_cost(&egraph, &sel_p, &roots, ExtractionCost::Depth);
        let cost_u = try_selection_cost(&egraph, &sel_u, &roots, ExtractionCost::Depth);
        assert!(cost_p.is_ok());
        assert_eq!(cost_p, cost_u);
    }

    #[test]
    fn pruning_reduces_evaluations() {
        let aig = benchgen::adder(5).aig;
        let (egraph, _roots) = saturated_egraph(&aig, 3);
        let stats_p = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Size)
            .stats;
        let stats_u = CostGraph::new(&egraph)
            .bottom_up_unpruned(ExtractionCost::Size)
            .stats;
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
        let selection = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Depth)
            .selection;
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
        let sel_depth = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Depth)
            .selection;
        let sel_size = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Size)
            .selection;
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
        let selection = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Size)
            .selection;
        let back = crate::convert::try_selection_to_aig(
            &egraph,
            &selection,
            &roots,
            &conv.input_names,
            &conv.output_names,
            "extracted",
        )
        .unwrap();
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
        let selection = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Size)
            .selection;
        let ok = try_selection_cost(&egraph, &selection, &roots, ExtractionCost::Size).unwrap();
        assert!(ok > 0);
    }
}
