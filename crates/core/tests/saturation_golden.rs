//! Golden digests of saturation itself: the e-graph a run produces, down to
//! the order the store hands its classes out in.
//!
//! Every extraction engine numbers classes in `EGraph::classes()` order, so
//! that order reaches every QoR digest. `extract_golden.rs` pins it only
//! through what the engines select; this test pins it directly. Four
//! benchgen circuits are saturated with `saturate-deep`'s shape (seven
//! iterations, a raised node and match limit) scaled to debug speed. A
//! digest folds, in the order the e-graph yields them:
//!
//! * every class of `classes()` with its id and its nodes, then `class_ids()`;
//! * the roots, `classes_for_op` for `And`, `Or` and `Not`, and
//!   `parent_index()` in its own iteration order;
//! * every count of every `IterationReport` and the stop reason;
//! * the same e-graph fold after `FlowCheckpoint::capture` → `restore`,
//!   which rebuilds the e-graph through `add` and `union`.
//!
//! The constants were recorded at commit `6841594`, the last one whose class
//! store was an `FxHashMap<Id, EClass>`, so a change to the store, rebuild
//! or matcher that is not *meant* to move saturation must reproduce them.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, FxHasher};
use egraph::{EGraph, Id, Language, StopReason};
use emorphic::flow::{saturate_network, FlowConfig, SaturatedState};
use emorphic::{BoolLang, FlowCheckpoint};
use std::hash::Hasher;

fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("multiplier6", benchgen::multiplier(6).aig),
        ("arbiter8", benchgen::arbiter(8).aig),
        ("adder8", benchgen::adder(8).aig),
        ("mem_ctrl5", benchgen::mem_ctrl(5).aig),
    ]
}

/// `saturate-deep`'s knobs (7 iterations; node and match limits raised over
/// the flow's defaults) scaled down to small circuits in a debug build.
fn config() -> FlowConfig {
    FlowConfig {
        rewrite_iterations: 7,
        node_limit: 24_000,
        match_limit: 400,
        search_threads: 2,
        ..FlowConfig::paper()
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
            h.write_u32(child.0);
        }
        BoolLang::And([a, b]) => {
            h.write_u8(3);
            h.write_u32(a.0);
            h.write_u32(b.0);
        }
        BoolLang::Or([a, b]) => {
            h.write_u8(4);
            h.write_u32(a.0);
            h.write_u32(b.0);
        }
    }
}

fn fold_ids(h: &mut FxHasher, ids: impl IntoIterator<Item = Id>) {
    let mut n = 0usize;
    for id in ids {
        h.write_u32(id.0);
        n += 1;
    }
    h.write_usize(n);
}

/// Everything a reader of the e-graph sees, in the order it sees it.
fn fold_egraph(h: &mut FxHasher, egraph: &EGraph<BoolLang>, roots: &[Id]) {
    h.write_usize(egraph.num_classes());
    h.write_usize(egraph.total_nodes());
    for class in egraph.classes() {
        h.write_u32(class.id.0);
        h.write_usize(class.nodes.len());
        for node in &class.nodes {
            fold_node(h, node);
        }
    }
    fold_ids(h, egraph.class_ids());
    fold_ids(h, roots.iter().copied());
    let (a, b) = (Id(0), Id(0));
    for op in [
        BoolLang::And([a, b]),
        BoolLang::Or([a, b]),
        BoolLang::Not(a),
    ] {
        fold_ids(h, egraph.classes_for_op(op.op_key()));
    }
    let parents = egraph.parent_index();
    h.write_usize(parents.len());
    for (class, list) in &parents {
        h.write_u32(class.0);
        h.write_usize(list.len());
        for (pclass, node) in list {
            h.write_u32(pclass.0);
            fold_node(h, node);
        }
    }
}

fn fold_reports(h: &mut FxHasher, state: &SaturatedState) {
    h.write_usize(state.saturation.len());
    for report in &state.saturation {
        h.write_usize(report.iteration);
        h.write_usize(report.egraph_nodes);
        h.write_usize(report.egraph_classes);
        for (rule, count) in report.matched.iter().chain(&report.applied) {
            h.write(rule.as_bytes());
            h.write_usize(*count);
        }
        h.write_usize(report.rebuild_unions);
        h.write_u8(u8::from(report.search_complete));
    }
    let stop = match state.stop_reason {
        None => 0,
        Some(StopReason::Saturated) => 1,
        Some(StopReason::IterationLimit) => 2,
        Some(StopReason::NodeLimit) => 3,
        Some(StopReason::TimeLimit) => 4,
        Some(StopReason::Interrupted) => 5,
    };
    h.write_u8(stop);
}

/// One circuit's row: name, iterations run, e-classes and e-nodes, then the
/// digest of the saturated state and of its capture → restore round trip.
type Row = (&'static str, usize, usize, usize, u64, u64);

/// Recorded at `6841594`.
const GOLDEN: [Row; 4] = [
    (
        "multiplier6",
        7,
        6426,
        15_133,
        0x565c_e1e1_8903_a112,
        0x49db_7162_2ee4_0dae,
    ),
    (
        "arbiter8",
        7,
        6353,
        15_452,
        0x0694_7e0a_0049_c8da,
        0xfc31_1444_48dc_96dd,
    ),
    (
        "adder8",
        7,
        5173,
        12_827,
        0x8a17_605f_10e7_7493,
        0x203b_cad1_d823_1d92,
    ),
    (
        "mem_ctrl5",
        7,
        4834,
        12_206,
        0xb1b9_d993_20ad_5e39,
        0x1110_b14f_11d9_2c53,
    ),
];

#[test]
fn saturation_reproduces_the_recorded_digests() {
    let config = config();
    let got: Vec<Row> = circuits()
        .iter()
        .map(|(name, aig)| {
            let state = saturate_network(aig, &config);
            let mut h = FxHasher::default();
            fold_egraph(&mut h, &state.egraph, &state.roots);
            fold_reports(&mut h, &state);
            let restored = FlowCheckpoint::capture(&state)
                .restore()
                .expect("a captured checkpoint restores");
            let mut r = FxHasher::default();
            fold_egraph(&mut r, &restored.egraph, &restored.roots);
            (
                *name,
                state.saturation.len(),
                state.egraph.num_classes(),
                state.egraph.total_nodes(),
                h.finish(),
                r.finish(),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}
