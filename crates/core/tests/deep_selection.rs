//! Deep selections on small stacks.
//!
//! A selection is as deep as the circuit it encodes — EPFL `hyp` has 24 801
//! AIG levels — and every walk over one (costing, back-conversion, term
//! building) runs wherever its caller does, including the 2 MiB workers of
//! [`egraph::pool`] that host annealing chains and portfolio engines. The
//! walks used to recurse once per selection level and killed the process
//! with a stack overflow somewhere between 8 000 and 12 000 levels on such a
//! worker; these tests drive the whole extraction path over an
//! alternating-polarity AND chain far past that, on 2 MiB threads.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::Aig;
use emorphic::extract::sa::{SaEngine, SaOptions};
use emorphic::extract::{
    try_selection_cost, CostGraph, ExtractBudget, ExtractionCost, ExtractionEngine,
};
use emorphic::{aig_to_egraph, try_selection_to_aig};
use techmap::library::asap7_like;

/// `acc = and(!acc, x_i)` for `i` in `1..=depth`, starting from `x_0`: one
/// AND and one complemented edge per level, nothing for strashing to fold.
fn alternating_chain(depth: usize) -> Aig {
    let mut aig = Aig::new("chain");
    let mut acc = aig.add_input("x0");
    for i in 1..=depth {
        let x = aig.add_input(format!("x{i}"));
        acc = aig.and(acc.not(), x);
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
        .expect("the walk returns instead of overflowing the stack");
}

#[test]
fn every_selection_walk_survives_100k_levels_on_a_2mib_stack() {
    const DEPTH: usize = 100_000;
    on_a_2mib_stack(|| {
        let space = aig_to_egraph(&alternating_chain(DEPTH));
        let selection = CostGraph::new(&space.egraph)
            .bottom_up(ExtractionCost::Size)
            .selection;
        for cost in [ExtractionCost::Size, ExtractionCost::Depth] {
            let measured = try_selection_cost(&space.egraph, &selection, &space.roots, cost);
            assert_eq!(measured, Ok(DEPTH as u64), "{cost:?}");
        }
        let back = try_selection_to_aig(
            &space.egraph,
            &selection,
            &space.roots,
            &space.input_names,
            &space.output_names,
            "back",
        )
        .unwrap();
        assert_eq!(back.num_ands(), DEPTH);
        assert_eq!(back.depth() as usize, DEPTH);
        // One Var per input, one And and one Not per level; the longest
        // selection path alternates And / Not down to `x0`.
        let term = selection
            .try_to_recexpr(&space.egraph, space.roots[0])
            .unwrap();
        assert_eq!(term.len(), 3 * DEPTH + 1);
        assert_eq!(
            selection.try_dag_size(&space.egraph, &space.roots),
            Ok(3 * DEPTH + 1)
        );
        assert_eq!(
            selection.try_depth(&space.egraph, &space.roots),
            Ok(2 * DEPTH + 1)
        );
    });
}

/// The same walks on the pool's own workers: two annealing chains, each
/// generating, converting and mapping one neighbour of a 20 000-level
/// selection.
#[test]
fn annealing_chains_survive_20k_levels_on_pool_workers() {
    const DEPTH: usize = 20_000;
    on_a_2mib_stack(|| {
        let space = aig_to_egraph(&alternating_chain(DEPTH));
        let options = SaOptions::default().with_threads(2).with_iterations(1);
        let engine = SaEngine::new(options, asap7_like());
        let extraction = engine
            .extract(&space.egraph, &space.roots, &ExtractBudget::unlimited())
            .unwrap();
        assert_eq!(extraction.stats.nodes_evaluated, 2);
        let size = try_selection_cost(
            &space.egraph,
            &extraction.selection,
            &space.roots,
            ExtractionCost::Size,
        );
        assert_eq!(size, Ok(DEPTH as u64));
    });
}
