//! Direct DAG-to-DAG conversion between AIGs and e-graphs (Section III-D1).
//!
//! Prior work (E-Syn) flattened the circuit into an S-expression before
//! handing it to the e-graph library, duplicating every shared node. Here the
//! circuit DAG is traversed once and every AIG node becomes exactly one
//! e-node (plus one `Not` e-node per complemented edge polarity actually
//! used), so conversion time and memory are linear in the circuit size in
//! both directions.

use crate::lang::BoolLang;
use aig::{Aig, AigNode, Lit, NodeId};
use egraph::{DagSelection, EGraph, Id, SelectionError};
use std::time::{Duration, Instant};

/// The result of converting a circuit into an e-graph.
#[derive(Debug, Clone)]
pub struct ConversionResult {
    /// The initial e-graph (one class per distinct circuit signal).
    pub egraph: EGraph<BoolLang>,
    /// Root class of every primary output, in output order.
    pub roots: Vec<Id>,
    /// Design name carried over from the AIG.
    pub name: String,
    /// Primary-input names (index `i` corresponds to `BoolLang::Var(i)`).
    pub input_names: Vec<String>,
    /// Primary-output names.
    pub output_names: Vec<String>,
    /// Wall-clock time of the forward conversion.
    pub forward_time: Duration,
}

/// Converts an AIG into an initial e-graph, one e-node per circuit node.
pub fn aig_to_egraph(aig: &Aig) -> ConversionResult {
    let start = Instant::now();
    let mut egraph: EGraph<BoolLang> = EGraph::new();
    // Positive-phase class of every AIG node.
    let mut pos: Vec<Option<Id>> = vec![None; aig.num_nodes()];
    // Lazily created negative-phase (Not) class of every AIG node.
    let mut neg: Vec<Option<Id>> = vec![None; aig.num_nodes()];

    pos[NodeId::CONST.index()] = Some(egraph.add(BoolLang::Const(false)));

    let lit_to_id = |lit: Lit,
                     egraph: &mut EGraph<BoolLang>,
                     pos: &mut Vec<Option<Id>>,
                     neg: &mut Vec<Option<Id>>|
     -> Id {
        let base =
            pos[lit.node().index()].unwrap_or_else(|| unreachable!("fanin visited before fanout"));
        if !lit.is_complemented() {
            return base;
        }
        if let Some(existing) = neg[lit.node().index()] {
            return existing;
        }
        let id = egraph.add(BoolLang::Not(base));
        neg[lit.node().index()] = Some(id);
        id
    };

    for id in aig.node_ids() {
        match aig.node(id) {
            AigNode::Const => {}
            AigNode::Input { index } => {
                pos[id.index()] = Some(egraph.add(BoolLang::Var(*index)));
            }
            AigNode::And { fanin0, fanin1 } => {
                let a = lit_to_id(*fanin0, &mut egraph, &mut pos, &mut neg);
                let b = lit_to_id(*fanin1, &mut egraph, &mut pos, &mut neg);
                pos[id.index()] = Some(egraph.add(BoolLang::And([a, b])));
            }
        }
    }

    let roots: Vec<Id> = aig
        .outputs()
        .iter()
        .map(|&po| lit_to_id(po, &mut egraph, &mut pos, &mut neg))
        .collect();
    egraph.rebuild();
    let roots = roots.into_iter().map(|r| egraph.find(r)).collect();

    ConversionResult {
        egraph,
        roots,
        name: aig.name().to_string(),
        input_names: aig.input_names().to_vec(),
        output_names: aig.output_names().to_vec(),
        forward_time: start.elapsed(),
    }
}

/// Converts a per-class e-node selection back into an AIG (the backward
/// direction of the DAG-to-DAG conversion).
///
/// `input_names` supplies the primary-input list; `Var(i)` maps to input `i`.
///
/// # Errors
/// Returns a [`SelectionError`] if a class reachable from the roots has no
/// selected node or the selection is cyclic.
///
/// # Panics
/// Panics if `roots` and `output_names` differ in length.
pub fn try_selection_to_aig(
    egraph: &EGraph<BoolLang>,
    selection: &DagSelection<BoolLang>,
    roots: &[Id],
    input_names: &[String],
    output_names: &[String],
    name: &str,
) -> Result<Aig, SelectionError> {
    assert_eq!(roots.len(), output_names.len(), "one name per output root");
    let mut aig = Aig::new(name.to_string());
    let inputs: Vec<Lit> = input_names
        .iter()
        .map(|n| aig.add_input(n.clone()))
        .collect();
    // Children before parents, left to right: the order the AIG's nodes are
    // created (and structurally hashed) in.
    let outputs = selection.try_fold(egraph, roots, |node, children: &[Lit]| match node {
        BoolLang::Const(true) => Lit::TRUE,
        BoolLang::Const(false) => Lit::FALSE,
        BoolLang::Var(i) => inputs[*i as usize],
        BoolLang::Not(_) => children[0].not(),
        BoolLang::And(_) => aig.and(children[0], children[1]),
        BoolLang::Or(_) => aig.or(children[0], children[1]),
    })?;
    for (lit, name) in outputs.into_iter().zip(output_names) {
        aig.add_output(lit, name.clone());
    }
    Ok(aig.cleanup())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{CostGraph, ExtractionCost};
    use egraph::FxHashMap;

    /// Converts `conv` back through its size-optimal selection.
    fn size_roundtrip(conv: &ConversionResult) -> Aig {
        let graph = CostGraph::new(&conv.egraph);
        let selection = graph.bottom_up(ExtractionCost::Size).selection;
        try_selection_to_aig(
            &conv.egraph,
            &selection,
            &conv.roots,
            &conv.input_names,
            &conv.output_names,
            &conv.name,
        )
        .unwrap()
    }

    fn sample() -> Aig {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let f = aig.or(ab, c);
        let g = aig.xor(a, c);
        aig.add_output(f, "f");
        aig.add_output(g.not(), "ng");
        aig
    }

    fn check_equiv_exhaustive(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        for p in 0..(1usize << a.num_inputs()) {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn forward_conversion_is_linear_in_circuit_size() {
        let aig = sample();
        let conv = aig_to_egraph(&aig);
        // One class per distinct signal plus Not wrappers: strictly fewer than
        // 2x the node count.
        assert!(conv.egraph.num_classes() <= 2 * aig.num_nodes());
        assert!(conv.egraph.num_classes() >= aig.num_nodes() - 1);
        assert_eq!(conv.roots.len(), 2);
        assert_eq!(conv.input_names.len(), 3);
    }

    #[test]
    fn roundtrip_preserves_function() {
        let aig = sample();
        let conv = aig_to_egraph(&aig);
        let back = size_roundtrip(&conv);
        check_equiv_exhaustive(&aig, &back);
        assert_eq!(back.output_names(), aig.output_names());
    }

    #[test]
    fn roundtrip_on_larger_benchmark_circuits() {
        for circuit in [benchgen::adder(6), benchgen::multiplier(4)] {
            let aig = circuit.aig;
            let conv = aig_to_egraph(&aig);
            let back = size_roundtrip(&conv);
            check_equiv_exhaustive(&aig, &back);
        }
    }

    #[test]
    fn shared_nodes_are_not_duplicated() {
        // (a&b) feeding two outputs must create a single And e-node.
        let mut aig = Aig::new("shared");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let f = aig.and(ab, c);
        let g = aig.or(ab, c);
        aig.add_output(f, "f");
        aig.add_output(g, "g");
        let conv = aig_to_egraph(&aig);
        let and_nodes: usize = conv
            .egraph
            .classes()
            .flat_map(|c| c.nodes.iter())
            .filter(|n| matches!(n, BoolLang::And(_)))
            .count();
        // ab, f, and the AND inside g's OR: exactly 3.
        assert_eq!(and_nodes, 3);
    }

    #[test]
    fn constant_outputs_convert() {
        let mut aig = Aig::new("consts");
        let _x = aig.add_input("x");
        aig.add_output(Lit::TRUE, "one");
        aig.add_output(Lit::FALSE, "zero");
        let conv = aig_to_egraph(&aig);
        let back = size_roundtrip(&conv);
        assert_eq!(back.evaluate(&[true]), vec![true, false]);
        assert_eq!(back.evaluate(&[false]), vec![true, false]);
    }

    #[test]
    fn missing_selection_is_a_typed_error() {
        let aig = sample();
        let conv = aig_to_egraph(&aig);
        // An empty selection cannot realize any root.
        let empty = DagSelection {
            choices: FxHashMap::default(),
        };
        let err = try_selection_to_aig(
            &conv.egraph,
            &empty,
            &conv.roots,
            &conv.input_names,
            &conv.output_names,
            "broken",
        )
        .unwrap_err();
        assert!(matches!(err, SelectionError::Missing(_)));
    }
}
