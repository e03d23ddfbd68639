//! Golden digests of the extraction engines and the neighbour generator.
//!
//! The ledger pins extraction only through the flows' final netlists. This
//! test pins every engine bit for bit on its own: four benchgen circuits,
//! really saturated, pushed through [`BottomUpEngine`] (size / depth ×
//! pruned / unpruned), [`GlobalGreedyDagEngine`], [`SlackAwareEngine`],
//! [`SaEngine`] (2 chains, 4 iterations, fixed seed, `asap7_like`) and a
//! 16-step [`generate_neighbor`] chain at `p_random` 0.1 and 0.3 under both
//! structural costs.
//!
//! A digest folds everything an engine returns, independent of hash-map
//! iteration order: the selection and the class costs as entries sorted by
//! class id, `nodes_evaluated` / `improvements`, the selection's size and
//! depth as `try_selection_cost`, `try_dag_size` and `try_depth` report them,
//! and the AIG `try_selection_to_aig` builds from it, as its
//! `structural_fingerprint` and node by node in creation order. The constants were recorded at commit `659529f` — the last one
//! with seven hand-written selection walkers and three cost-fixpoint loops —
//! so any refactor of `egraph::extract`, `emorphic::extract` or
//! `emorphic::convert` has to reproduce them unchanged.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, AigNode, FxHasher};
use egraph::{Id, Runner, Scheduler};
use emorphic::convert::ConversionResult;
use emorphic::extract::sa::{generate_neighbor, SaEngine, SaOptions};
use emorphic::extract::{
    try_selection_cost, BottomUpEngine, CostGraph, ExtractBudget, Extraction, ExtractionCost,
    ExtractionEngine, GlobalGreedyDagEngine, Selection, SlackAwareEngine,
};
use emorphic::flow::{prepare_network, saturate_network, FlowConfig};
use emorphic::{aig_to_egraph, all_rules, try_selection_to_aig, BoolLang};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::Hasher;
use techmap::library::asap7_like;

const COSTS: [ExtractionCost; 2] = [ExtractionCost::Size, ExtractionCost::Depth];

fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("adder8", benchgen::adder(8).aig),
        ("multiplier5", benchgen::multiplier(5).aig),
        ("arbiter8", benchgen::arbiter(8).aig),
        ("square_root8", benchgen::square_root(8).aig),
    ]
}

/// Saturates a circuit for three iterations under small-test limits.
fn saturate(aig: &Aig) -> ConversionResult {
    let conversion = aig_to_egraph(aig);
    let runner = Runner::with_egraph(conversion.egraph.clone())
        .with_iter_limit(3)
        .with_node_limit(8_000)
        .with_scheduler(Scheduler::Backoff {
            match_limit: 400,
            ban_length: 2,
        })
        .run(&all_rules());
    ConversionResult {
        roots: conversion
            .roots
            .iter()
            .map(|&r| runner.egraph.find(r))
            .collect(),
        egraph: runner.egraph,
        ..conversion
    }
}

fn fold_node(h: &mut FxHasher, node: &BoolLang) {
    match node {
        BoolLang::Const(value) => h.write(&[0, u8::from(*value)]),
        BoolLang::Var(index) => {
            h.write_u8(1);
            h.write_u32(*index);
        }
        BoolLang::Not(child) => {
            h.write_u8(2);
            h.write_usize(child.index());
        }
        BoolLang::And([a, b]) => {
            h.write_u8(3);
            h.write_usize(a.index());
            h.write_usize(b.index());
        }
        BoolLang::Or([a, b]) => {
            h.write_u8(4);
            h.write_usize(a.index());
            h.write_usize(b.index());
        }
    }
}

/// The selection (entries sorted by class id), what every walker says about
/// it, and the circuit it converts back to.
fn fold_selection(h: &mut FxHasher, space: &ConversionResult, selection: &Selection) {
    let mut entries: Vec<(&Id, &BoolLang)> = selection.choices.iter().collect();
    entries.sort();
    h.write_usize(entries.len());
    for (id, node) in entries {
        h.write_usize(id.index());
        fold_node(h, node);
    }
    for cost in COSTS {
        h.write_u64(try_selection_cost(&space.egraph, selection, &space.roots, cost).unwrap());
    }
    h.write_usize(selection.try_dag_size(&space.egraph, &space.roots).unwrap());
    h.write_usize(selection.try_depth(&space.egraph, &space.roots).unwrap());
    for &root in &space.roots {
        let term = selection.try_to_recexpr(&space.egraph, root).unwrap();
        h.write_usize(term.len());
        h.write_u64(term.depth());
    }
    let back = try_selection_to_aig(
        &space.egraph,
        selection,
        &space.roots,
        &space.input_names,
        &space.output_names,
        "golden",
    )
    .unwrap();
    h.write_u128(back.structural_fingerprint());
    // The fingerprint is blind to node numbering; the mappers downstream are
    // not, so the order the conversion creates the ANDs in is folded too.
    for id in back.node_ids() {
        if let AigNode::And { fanin0, fanin1 } = back.node(id) {
            for lit in [fanin0, fanin1] {
                h.write_usize(lit.node().index());
                h.write_u8(u8::from(lit.is_complemented()));
            }
        }
    }
    for lit in back.outputs() {
        h.write_usize(lit.node().index());
        h.write_u8(u8::from(lit.is_complemented()));
    }
}

fn fold_extraction(h: &mut FxHasher, space: &ConversionResult, extraction: &Extraction) {
    fold_selection(h, space, &extraction.selection);
    let mut costs: Vec<(&Id, &u64)> = extraction.class_costs.iter().collect();
    costs.sort();
    h.write_usize(costs.len());
    for (id, cost) in costs {
        h.write_usize(id.index());
        h.write_u64(*cost);
    }
    h.write_usize(extraction.stats.nodes_evaluated);
    h.write_usize(extraction.stats.improvements);
}

fn engine_digest(space: &ConversionResult, engines: &[&dyn ExtractionEngine]) -> u64 {
    let mut h = FxHasher::default();
    for engine in engines {
        let extraction = engine
            .extract(&space.egraph, &space.roots, &ExtractBudget::unlimited())
            .expect("extraction succeeds");
        fold_extraction(&mut h, space, &extraction);
    }
    h.finish()
}

/// Size / depth × pruned / unpruned.
fn bottom_up_digest(space: &ConversionResult) -> u64 {
    let engines: Vec<BottomUpEngine> = COSTS
        .iter()
        .flat_map(|&cost| [true, false].map(|p| BottomUpEngine::new(cost).with_pruning(p)))
        .collect();
    let engines: Vec<&dyn ExtractionEngine> = engines.iter().map(|e| e as _).collect();
    engine_digest(space, &engines)
}

fn sa_digest(space: &ConversionResult) -> u64 {
    let options = SaOptions::new()
        .with_threads(2)
        .with_iterations(4)
        .with_seed(0x5EED);
    let engine = SaEngine::new(options, asap7_like());
    engine_digest(space, &[&engine])
}

/// A 16-step chain of neighbours (each generated from the previous one) per
/// `p_random` ∈ {0.1, 0.3} and structural cost, every step folded.
fn neighbor_digest(space: &ConversionResult) -> u64 {
    let mut h = FxHasher::default();
    let graph = CostGraph::new(&space.egraph);
    for p_random in [0.1, 0.3] {
        for cost in COSTS {
            let mut rng = StdRng::seed_from_u64(0xC4A1);
            let mut current = graph.bottom_up(cost).selection;
            for _ in 0..16 {
                current = generate_neighbor(&graph, &current, cost, p_random, &mut rng).selection;
                fold_selection(&mut h, space, &current);
            }
        }
    }
    h.finish()
}

/// One circuit's row: name, e-classes and e-nodes of the saturated space,
/// then the bottom-up, greedy-DAG, slack-aware, SA and neighbour-chain
/// digests.
type Row = (&'static str, usize, usize, u64, u64, u64, u64, u64);

/// Recorded at `659529f`.
const GOLDEN: [Row; 4] = [
    (
        "adder8",
        2549,
        5842,
        0xf1db_6652_c966_bc91,
        0x1dcd_eb5b_26ff_a8ae,
        0x124b_2b3a_5228_1722,
        0xeb48_275d_89c3_7dca,
        0x4ce9_b328_c7f7_579b,
    ),
    (
        "multiplier5",
        3601,
        8186,
        0xc223_9f78_7d15_f037,
        0x1f8f_0707_f8e7_6445,
        0x3a90_81c5_f6b7_cff4,
        0xc837_1eeb_3f65_c35a,
        0x1149_3e95_177d_7116,
    ),
    (
        "arbiter8",
        3649,
        8339,
        0x0748_5015_44f2_f103,
        0xfbaa_76ff_0209_abb2,
        0x78d3_cc51_1289_2747,
        0x91fe_d955_a879_3097,
        0x4217_3f4f_9cf2_19be,
    ),
    (
        "square_root8",
        3664,
        8320,
        0x8e2a_d2fa_25d8_59bd,
        0xd3ee_aa61_d20b_f191,
        0xb3e4_8653_f3da_3879,
        0x9bff_57d9_39dc_17c0,
        0xf1db_49a2_7e18_8abd,
    ),
];

#[test]
fn extraction_engines_reproduce_the_recorded_digests() {
    let got: Vec<Row> = circuits()
        .iter()
        .map(|(name, aig)| {
            let space = saturate(aig);
            (
                *name,
                space.egraph.num_classes(),
                space.egraph.total_nodes(),
                bottom_up_digest(&space),
                engine_digest(&space, &[&GlobalGreedyDagEngine::new()]),
                engine_digest(&space, &[&SlackAwareEngine::new()]),
                sa_digest(&space),
                neighbor_digest(&space),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}

/// A circuit taken the way the job server takes it under `serve-mix`:
/// `prepare_network` with three rounds, then `saturate_network` under the
/// ledger's `base_flow(1)` limits.
fn saturate_as_served(aig: &Aig) -> ConversionResult {
    let config = FlowConfig {
        rounds: 3,
        rewrite_iterations: 4,
        node_limit: 60_000,
        match_limit: 1_000,
        search_threads: 1,
        ..FlowConfig::paper()
    };
    let state = saturate_network(&prepare_network(aig, &config), &config);
    ConversionResult {
        egraph: state.egraph,
        roots: state.roots,
        name: state.name,
        input_names: state.input_names,
        output_names: state.output_names,
        forward_time: state.conversion_time,
    }
}

/// Name, e-classes and e-nodes of the served space, the greedy-DAG digest and
/// the switches the engine accepted.
type ServedRow = (&'static str, usize, usize, u64, usize);

/// Recorded at `1931a6b`, the last commit whose greedy-DAG engine recomputed
/// every height after each accepted switch.
const GOLDEN_SERVED: [ServedRow; 2] = [
    ("adder48", 18_396, 37_545, 0xcb46_a90b_3385_b3bb, 290),
    ("crossbar12x12", 18_892, 31_526, 0x0c99_4157_524f_6ba0, 312),
];

/// The greedy-DAG engine at the size `serve-mix` re-extracts: the four
/// circuits above give it at most a few dozen accepted switches, these two
/// hundreds, which is what an update of the heights per accepted switch has
/// to reproduce. Release-only: the debug build checks every such update
/// against a whole-selection walk.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn greedy_dag_reproduces_the_recorded_digests_at_serve_mix_size() {
    let circuits = [
        ("adder48", benchgen::adder(48).aig),
        ("crossbar12x12", benchgen::crossbar(12, 12).aig),
    ];
    let got: Vec<ServedRow> = circuits
        .iter()
        .map(|(name, aig)| {
            let space = saturate_as_served(aig);
            let extraction = GlobalGreedyDagEngine::new()
                .extract(&space.egraph, &space.roots, &ExtractBudget::unlimited())
                .expect("extraction succeeds");
            let mut h = FxHasher::default();
            fold_extraction(&mut h, &space, &extraction);
            (
                *name,
                space.egraph.num_classes(),
                space.egraph.total_nodes(),
                h.finish(),
                extraction.stats.improvements,
            )
        })
        .collect();
    assert_eq!(got, GOLDEN_SERVED, "got {got:#x?}");
    // The case is here for the accepted switches; it must not silently stop
    // exercising them.
    assert!(got.iter().all(|row| row.4 >= 200), "got {got:#x?}");
}
