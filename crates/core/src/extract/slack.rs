//! Depth-held, slack-driven extraction: keep the unit-delay critical depth
//! the PR-5 timing work optimizes for, and spend every class's slack on
//! structurally smaller alternatives.

use crate::extract::engine::{ExtractBudget, ExtractError, Extraction, ExtractionEngine};
use crate::extract::{
    node_cost, selection_heights, CostGraph, ExtractStats, ExtractionCost, Selection,
};
use crate::lang::BoolLang;
use egraph::{EGraph, FxHashMap, Id, Language};
use std::time::Instant;

/// Slack-aware selection.
///
/// Runs the depth DP to get per-class unit-delay arrival times `A` and the
/// size DP for per-class tree-size estimates, then walks the depth-optimal
/// selection top-down in strictly decreasing height order propagating
/// **required times** `R` (root required time = the critical arrival). At
/// each class it picks the smallest admissible e-node
/// whose estimated arrival `max_child A + gate` still meets `R`, and tightens
/// the children's required times accordingly — classic required-time area
/// recovery, lifted from mapped netlists to the e-space.
///
/// The depth-optimal node is always admissible (its arrival is `A ≤ R` by
/// construction), so the engine never fails where the depth DP succeeds, and
/// the realized depth never exceeds the target even if the budget cuts the
/// walk short (unprocessed classes keep their depth-optimal nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlackAwareEngine;

impl SlackAwareEngine {
    /// A slack-aware engine that holds the depth-optimal critical path.
    pub fn new() -> Self {
        SlackAwareEngine
    }
}

impl ExtractionEngine for SlackAwareEngine {
    fn name(&self) -> &'static str {
        "slack-aware"
    }

    fn extract(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<Extraction, ExtractError> {
        let start = Instant::now();
        let ((depth_sel, arrivals, depth_stats), (_, size_costs, size_stats)) = {
            let graph = CostGraph::new(egraph);
            let depth = graph.bottom_up(ExtractionCost::Depth).into_parts();
            (depth, graph.bottom_up(ExtractionCost::Size).into_parts())
        };
        let mut selection = depth_sel.choices;
        let roots: Vec<Id> = roots.iter().map(|&r| egraph.find(r)).collect();
        for &root in &roots {
            if !selection.contains_key(&root) {
                return Err(ExtractError::Unrealizable(root));
            }
        }

        let mut stats = ExtractStats {
            nodes_evaluated: depth_stats.nodes_evaluated + size_stats.nodes_evaluated,
            improvements: 0,
            runtime: Default::default(),
        };
        let base_selection = selection.clone();
        let heights = selection_heights(egraph, &selection);

        // Required times, seeded at the roots with the critical arrival.
        let target = roots
            .iter()
            .filter_map(|r| arrivals.get(r).copied())
            .max()
            .unwrap_or(0);
        let mut required: FxHashMap<Id, u64> = FxHashMap::default();
        for &root in &roots {
            required.insert(root, target);
        }

        // Top-down in strictly decreasing (height, id) order: every parent is
        // finalized (its required time fully tightened) before any child.
        let mut order: Vec<Id> = selection.keys().copied().collect();
        order.sort_by_key(|id| {
            (
                std::cmp::Reverse(heights.get(id).copied().unwrap_or(0)),
                *id,
            )
        });

        let mut evaluations = 0u64;
        'walk: for &class_id in &order {
            // Classes never reached from a root under the final selection
            // have no required time and keep their depth-optimal node.
            let Some(&r_x) = required.get(&class_id) else {
                continue;
            };
            let class_height = heights.get(&class_id).copied().unwrap_or(0);

            // Pick the smallest admissible node that still meets R.
            let mut best: Option<(u64, usize)> = None;
            for (pos, node) in egraph.class(class_id).nodes.iter().enumerate() {
                if budget.exhausted(evaluations) {
                    break 'walk;
                }
                evaluations += 1;
                stats.nodes_evaluated += 1;

                let mut admissible = true;
                let mut est_arrival = 0u64;
                let mut est_size = 0u64;
                for &c in node.children() {
                    let c = egraph.find(c);
                    let realizable = selection.contains_key(&c)
                        && heights.get(&c).is_some_and(|&ch| ch < class_height);
                    let Some(&a_c) = arrivals.get(&c).filter(|_| realizable) else {
                        admissible = false;
                        break;
                    };
                    est_arrival = est_arrival.max(a_c);
                    est_size = est_size
                        .saturating_add(size_costs.get(&c).copied().unwrap_or(u64::MAX / 4));
                }
                if !admissible {
                    continue;
                }
                let est_arrival = est_arrival.saturating_add(node_cost(node));
                if est_arrival > r_x {
                    continue;
                }
                let key = est_size.saturating_add(node_cost(node));
                if best.is_none_or(|(bk, bp)| (key, pos) < (bk, bp)) {
                    best = Some((key, pos));
                }
            }

            // The depth-optimal node always meets R (A(x) ≤ R(x) invariant),
            // but it may sit at a non-admissible height only if the class was
            // never live — and live classes inherit their depth-DP node whose
            // children are strictly lower by construction, so `best` is Some.
            let chosen = match best {
                Some((_, pos)) => egraph.class(class_id).nodes[pos].clone(),
                None => selection[&class_id].clone(),
            };
            if chosen != selection[&class_id] {
                stats.improvements += 1;
            }
            // Tighten the children's required times under the chosen node.
            let slack_budget = r_x.saturating_sub(node_cost(&chosen));
            for &c in chosen.children() {
                let c = egraph.find(c);
                let entry = required.entry(c).or_insert(slack_budget);
                *entry = (*entry).min(slack_budget);
            }
            selection.insert(class_id, chosen);
        }

        // Keep-best: the per-class greedy minimizes tree-size estimates, so
        // on rare sharing-heavy graphs it can lose DAG size globally — fall
        // back to the depth-optimal base when it does.
        let refined = Selection { choices: selection };
        let base = Selection {
            choices: base_selection,
        };
        let refined_size =
            crate::extract::try_selection_cost(egraph, &refined, &roots, ExtractionCost::Size);
        let base_size =
            crate::extract::try_selection_cost(egraph, &base, &roots, ExtractionCost::Size)?;
        let selection = match refined_size {
            Ok(size) if size <= base_size => refined,
            _ => {
                stats.improvements = 0;
                base
            }
        };

        stats.runtime = start.elapsed();
        Ok(Extraction {
            selection,
            class_costs: arrivals,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::test_util::saturated_egraph;
    use crate::extract::{try_selection_cost, BottomUpEngine};

    #[test]
    fn holds_depth_optimal_critical_path() {
        for (name, aig, iters) in [
            ("adder", benchgen::adder(5).aig, 3),
            ("mult", benchgen::multiplier(3).aig, 2),
        ] {
            let (egraph, roots) = saturated_egraph(&aig, iters);
            let budget = ExtractBudget::unlimited();
            let depth_opt = BottomUpEngine::new(ExtractionCost::Depth)
                .extract(&egraph, &roots, &budget)
                .unwrap();
            let slack = SlackAwareEngine::new()
                .extract(&egraph, &roots, &budget)
                .unwrap();
            let d_opt =
                try_selection_cost(&egraph, &depth_opt.selection, &roots, ExtractionCost::Depth)
                    .unwrap();
            let d_slack =
                try_selection_cost(&egraph, &slack.selection, &roots, ExtractionCost::Depth)
                    .unwrap();
            assert!(d_slack <= d_opt, "{name}: slack {d_slack} vs opt {d_opt}");
        }
    }

    #[test]
    fn area_recovery_not_worse_than_depth_dp_tree() {
        let aig = benchgen::adder(6).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let budget = ExtractBudget::unlimited();
        let depth_opt = BottomUpEngine::new(ExtractionCost::Depth)
            .extract(&egraph, &roots, &budget)
            .unwrap();
        let slack = SlackAwareEngine::new()
            .extract(&egraph, &roots, &budget)
            .unwrap();
        let s_opt = try_selection_cost(&egraph, &depth_opt.selection, &roots, ExtractionCost::Size)
            .unwrap();
        let s_slack =
            try_selection_cost(&egraph, &slack.selection, &roots, ExtractionCost::Size).unwrap();
        assert!(
            s_slack <= s_opt,
            "slack-aware should recover area: {s_slack} vs {s_opt}"
        );
    }

    #[test]
    fn extraction_is_equivalent_to_input() {
        let aig = benchgen::adder(4).aig;
        let conv = crate::convert::aig_to_egraph(&aig);
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let extraction = SlackAwareEngine::new()
            .extract(&egraph, &roots, &ExtractBudget::unlimited())
            .unwrap();
        let back = crate::convert::try_selection_to_aig(
            &egraph,
            &extraction.selection,
            &roots,
            &conv.input_names,
            &conv.output_names,
            "slack-aware",
        )
        .unwrap();
        for p in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits), "pattern {p}");
        }
    }

    /// Regression: the cap used to be consulted on every 256th evaluation
    /// only, so a budget of 1 admitted 256 of the walk's evaluations.
    #[test]
    fn a_budget_of_n_admits_exactly_n_walk_evaluations() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let unlimited = ExtractBudget::unlimited();
        let dp_evaluations: usize = [ExtractionCost::Depth, ExtractionCost::Size]
            .map(|cost| BottomUpEngine::new(cost).extract(&egraph, &roots, &unlimited))
            .into_iter()
            .map(|base| base.unwrap().stats.nodes_evaluated)
            .sum();
        for n in [1, 100, 257] {
            let budget = unlimited.with_max_evaluations(n);
            let cut = SlackAwareEngine::new()
                .extract(&egraph, &roots, &budget)
                .unwrap();
            assert_eq!(cut.stats.nodes_evaluated, dp_evaluations + n as usize);
        }
    }

    #[test]
    fn exhausted_budget_keeps_depth_guarantee() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let tight = ExtractBudget::unlimited().with_max_evaluations(1);
        let extraction = SlackAwareEngine::new()
            .extract(&egraph, &roots, &tight)
            .unwrap();
        let depth_opt = BottomUpEngine::new(ExtractionCost::Depth)
            .extract(&egraph, &roots, &ExtractBudget::unlimited())
            .unwrap();
        let d_opt =
            try_selection_cost(&egraph, &depth_opt.selection, &roots, ExtractionCost::Depth)
                .unwrap();
        let d_cut = try_selection_cost(
            &egraph,
            &extraction.selection,
            &roots,
            ExtractionCost::Depth,
        )
        .unwrap();
        assert!(d_cut <= d_opt);
    }
}
