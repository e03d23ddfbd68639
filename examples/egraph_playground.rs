//! The e-graph engine on its own: build an e-graph from Boolean expressions,
//! apply the Table I rewrite rules, inspect the equivalence classes, extract
//! under the two structural costs, and dump the Fig. 7 intermediate DSL.
//!
//! Run with: `cargo run --example egraph_playground --release`

// Examples abort on broken invariants like test code does; the workspace
// deny on unwrap/expect/panic is relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use egraph::{EGraph, RecExpr, Runner, StopReason};
use emorphic::extract::{CostGraph, ExtractionCost};
use emorphic::lang::BoolLang;
use emorphic::FlowCheckpoint;
use emorphic::{aig_to_egraph, all_rules, table1_rules};

fn main() {
    // 1. Terms can be written directly as s-expressions over the Boolean
    //    language: x<i> are primary inputs.
    let distributed: RecExpr<BoolLang> = "(| (& x0 x1) (& x0 x2))".parse().unwrap();
    let factored: RecExpr<BoolLang> = "(& x0 (| x1 x2))".parse().unwrap();

    let mut egraph: EGraph<BoolLang> = EGraph::new();
    let id_distributed = egraph.add_expr(&distributed);
    let id_factored = egraph.add_expr(&factored);
    egraph.rebuild();
    println!(
        "before rewriting: {} classes, same class? {}",
        egraph.num_classes(),
        egraph.same(id_distributed, id_factored)
    );

    // 2. Equality saturation with the Table I rules proves them equivalent.
    let runner = Runner::with_egraph(egraph)
        .with_root(id_distributed)
        .with_iter_limit(8)
        .run(&table1_rules());
    println!(
        "after rewriting : {} classes / {} e-nodes, stop reason {:?}, equivalent? {}",
        runner.egraph.num_classes(),
        runner.egraph.total_nodes(),
        runner.stop_reason.clone().unwrap_or(StopReason::Saturated),
        runner.egraph.same(id_distributed, id_factored)
    );

    // 3. Extraction under the two structural costs of Algorithm 1: gate
    //    count and gate depth (inverters are free).
    let root = runner.egraph.find(id_distributed);
    let graph = CostGraph::new(&runner.egraph);
    for (label, cost) in [
        ("smallest", ExtractionCost::Size),
        ("shallowest", ExtractionCost::Depth),
    ] {
        let (selection, costs, _) = graph.bottom_up(cost).into_parts();
        let term = selection.try_to_recexpr(&runner.egraph, root).unwrap();
        println!(
            "{label} equivalent term ({cost:?} {}): {term}",
            costs[&root]
        );
    }

    // 4. The same machinery applied to a whole circuit via DAG-to-DAG
    //    conversion, plus the Fig. 7 intermediate DSL.
    let circuit = benchgen::adder(4).aig;
    let conversion = aig_to_egraph(&circuit);
    println!(
        "\nadder(4): {} AND nodes -> {} e-classes ({} e-nodes) in {:?}",
        circuit.num_ands(),
        conversion.egraph.num_classes(),
        conversion.egraph.total_nodes(),
        conversion.forward_time
    );
    let runner = Runner::with_egraph(conversion.egraph.clone())
        .with_iter_limit(3)
        .with_node_limit(20_000)
        .run(&all_rules());
    println!(
        "after 3 rewriting iterations: {} e-classes, {} e-nodes",
        runner.egraph.num_classes(),
        runner.egraph.total_nodes()
    );

    let doc = FlowCheckpoint::from_conversion(&conversion);
    let json = doc.to_json();
    println!(
        "\nintermediate DSL (Fig. 7): {} classes, {} bytes of JSON; first lines:",
        doc.egraph.num_classes(),
        json.len()
    );
    for line in json.lines().take(12) {
        println!("  {line}");
    }
}
