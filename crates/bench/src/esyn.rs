//! The E-Syn-style S-expression conversion baseline (for Table III).
//!
//! E-Syn [DAC'24] converts the circuit to an equation, flattens it into an
//! S-expression (a tree), and hands that to the e-graph library. Because the
//! flattening duplicates every shared node, the representation grows
//! exponentially with reconvergent sharing; the paper's Table III shows this
//! conversion timing out (3600 s) or exhausting 8 GB on every large EPFL
//! circuit. This module reproduces that baseline faithfully — including its
//! blow-up — with configurable budget limits so the comparison can be run
//! safely inside the benchmark harness.

use aig::{Aig, AigNode, NodeId};
use egraph::{EGraph, Id, RecExpr};
use emorphic::BoolLang;
use std::time::{Duration, Instant};

/// Resource limits for the baseline conversion.
#[derive(Debug, Clone, Copy)]
pub struct EsynLimits {
    /// Maximum number of tree nodes to materialize before giving up
    /// (stand-in for the paper's 8 GB memory limit).
    pub max_tree_nodes: u64,
    /// Wall-clock limit (stand-in for the paper's 3600 s timeout).
    pub time_limit: Duration,
}

impl Default for EsynLimits {
    fn default() -> Self {
        EsynLimits {
            max_tree_nodes: 2_000_000,
            time_limit: Duration::from_secs(10),
        }
    }
}

/// Why the baseline conversion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EsynFailure {
    /// The flattened tree exceeded the node budget ("out of memory").
    MemoryOut {
        /// Number of tree nodes materialized before aborting.
        nodes_built: u64,
    },
    /// The conversion exceeded the time budget.
    TimeOut,
}

impl std::fmt::Display for EsynFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EsynFailure::MemoryOut { nodes_built } => {
                write!(f, "MO (tree exceeded budget after {nodes_built} nodes)")
            }
            EsynFailure::TimeOut => write!(f, "TO"),
        }
    }
}

/// Result of a successful baseline forward conversion.
#[derive(Debug, Clone)]
pub struct EsynConversion {
    /// The e-graph built from the flattened trees.
    pub egraph: EGraph<BoolLang>,
    /// Root class per primary output.
    pub roots: Vec<Id>,
    /// Total number of S-expression tree nodes that were materialized.
    pub tree_nodes: u64,
    /// Forward conversion time.
    pub forward_time: Duration,
}

/// Computes the S-expression (tree) size the flattened circuit would have,
/// without materializing it. Saturates at `u64::MAX`.
pub fn flattened_tree_size(aig: &Aig) -> u64 {
    let mut sizes = vec![0u64; aig.num_nodes()];
    for id in aig.node_ids() {
        sizes[id.index()] = match aig.node(id) {
            AigNode::Const | AigNode::Input { .. } => 1,
            AigNode::And { fanin0, fanin1 } => {
                let mut total = 1u64;
                for lit in [fanin0, fanin1] {
                    let child = sizes[lit.node().index()];
                    // A complemented edge costs an extra NOT tree node.
                    let child = child.saturating_add(u64::from(lit.is_complemented()));
                    total = total.saturating_add(child);
                }
                total
            }
        };
    }
    aig.outputs()
        .iter()
        .map(|po| sizes[po.node().index()].saturating_add(u64::from(po.is_complemented())))
        .fold(0u64, |acc, s| acc.saturating_add(s))
}

/// Flattens one output cone into a tree-shaped [`RecExpr`], duplicating
/// shared nodes (the E-Syn representation), subject to the given limits.
fn flatten_output(
    aig: &Aig,
    output: usize,
    limits: &EsynLimits,
    start: Instant,
    budget_used: &mut u64,
) -> Result<RecExpr<BoolLang>, EsynFailure> {
    let mut expr = RecExpr::default();

    fn rec(
        aig: &Aig,
        node: NodeId,
        complemented: bool,
        expr: &mut RecExpr<BoolLang>,
        limits: &EsynLimits,
        start: &Instant,
        budget_used: &mut u64,
    ) -> Result<Id, EsynFailure> {
        if *budget_used > limits.max_tree_nodes {
            return Err(EsynFailure::MemoryOut {
                nodes_built: *budget_used,
            });
        }
        if (*budget_used).is_multiple_of(4096) && start.elapsed() > limits.time_limit {
            return Err(EsynFailure::TimeOut);
        }
        let base = match aig.node(node) {
            AigNode::Const => {
                *budget_used += 1;
                expr.add(BoolLang::Const(false))
            }
            AigNode::Input { index } => {
                *budget_used += 1;
                expr.add(BoolLang::Var(*index))
            }
            AigNode::And { fanin0, fanin1 } => {
                let a = rec(
                    aig,
                    fanin0.node(),
                    fanin0.is_complemented(),
                    expr,
                    limits,
                    start,
                    budget_used,
                )?;
                let b = rec(
                    aig,
                    fanin1.node(),
                    fanin1.is_complemented(),
                    expr,
                    limits,
                    start,
                    budget_used,
                )?;
                *budget_used += 1;
                expr.add(BoolLang::And([a, b]))
            }
        };
        if complemented {
            *budget_used += 1;
            Ok(expr.add(BoolLang::Not(base)))
        } else {
            Ok(base)
        }
    }

    let po = aig.outputs()[output];
    rec(
        aig,
        po.node(),
        po.is_complemented(),
        &mut expr,
        limits,
        &start,
        budget_used,
    )?;
    Ok(expr)
}

/// The E-Syn-style forward conversion: flatten every output into an
/// S-expression tree and add the trees to an e-graph.
///
/// # Errors
/// Returns an [`EsynFailure`] when the node budget or the time budget is
/// exceeded (the common case for the larger benchmark circuits).
pub fn esyn_forward(aig: &Aig, limits: &EsynLimits) -> Result<EsynConversion, EsynFailure> {
    let start = Instant::now();
    let mut egraph: EGraph<BoolLang> = EGraph::new();
    let mut roots = Vec::with_capacity(aig.num_outputs());
    let mut budget_used = 0u64;
    for output in 0..aig.num_outputs() {
        let expr = flatten_output(aig, output, limits, start, &mut budget_used)?;
        roots.push(egraph.add_expr(&expr));
        if start.elapsed() > limits.time_limit {
            return Err(EsynFailure::TimeOut);
        }
    }
    // The forward conversion only adds (never unions), so the incremental
    // e-graph is already clean: this rebuild drains an empty worklist in
    // O(1) and the roots are already canonical.
    egraph.rebuild();
    debug_assert!(!egraph.is_dirty());
    let roots = roots.into_iter().map(|r| egraph.find(r)).collect();
    Ok(EsynConversion {
        egraph,
        roots,
        tree_nodes: budget_used,
        forward_time: start.elapsed(),
    })
}

/// The E-Syn-style backward conversion: extract a tree per output and rebuild
/// the circuit from the trees (duplicating shared logic again).
///
/// # Errors
/// Returns an [`EsynFailure`] if the extracted trees exceed the limits.
pub fn esyn_backward(
    conversion: &EsynConversion,
    input_names: &[String],
    output_names: &[String],
    limits: &EsynLimits,
) -> Result<(Aig, Duration), EsynFailure> {
    use emorphic::extract::{BottomUpEngine, ExtractBudget, ExtractionCost, ExtractionEngine};
    let start = Instant::now();
    let extraction = BottomUpEngine::new(ExtractionCost::Size)
        .extract(
            &conversion.egraph,
            &conversion.roots,
            &ExtractBudget::unlimited(),
        )
        .unwrap_or_else(|_| unreachable!("forward conversion adds a concrete term per root"));
    let mut aig = Aig::new("esyn_backward");
    let inputs: Vec<aig::Lit> = input_names
        .iter()
        .map(|n| aig.add_input(n.clone()))
        .collect();
    let mut built = 0u64;
    for (root, name) in conversion.roots.iter().zip(output_names) {
        let expr = extraction
            .selection
            .try_to_recexpr(&conversion.egraph, *root)
            .unwrap_or_else(|_| unreachable!("an extraction selects every class it reaches"));
        // Tree-expand the extracted term output by output.
        let mut lits: Vec<aig::Lit> = Vec::with_capacity(expr.len());
        for node in expr.as_ref() {
            built += 1;
            if built > limits.max_tree_nodes {
                return Err(EsynFailure::MemoryOut { nodes_built: built });
            }
            if built.is_multiple_of(4096) && start.elapsed() > limits.time_limit {
                return Err(EsynFailure::TimeOut);
            }
            let lit = match node {
                BoolLang::Const(b) => {
                    if *b {
                        aig::Lit::TRUE
                    } else {
                        aig::Lit::FALSE
                    }
                }
                BoolLang::Var(i) => inputs[*i as usize],
                BoolLang::Not(c) => lits[c.index()].not(),
                BoolLang::And([a, b]) => aig.and(lits[a.index()], lits[b.index()]),
                BoolLang::Or([a, b]) => aig.or(lits[a.index()], lits[b.index()]),
            };
            lits.push(lit);
        }
        let root = *lits.last().unwrap_or_else(|| unreachable!("non-empty"));
        aig.add_output(root, name.clone());
    }
    Ok((aig.cleanup(), start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_circuit_converts_and_roundtrips() {
        let aig = benchgen::adder(3).aig;
        let limits = EsynLimits::default();
        let conv = esyn_forward(&aig, &limits).expect("small circuit fits");
        assert!(conv.tree_nodes >= aig.num_ands() as u64);
        let (back, _) = esyn_backward(&conv, aig.input_names(), aig.output_names(), &limits)
            .expect("backward fits");
        for p in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn tree_size_explodes_on_reconvergent_logic() {
        // A ripple-carry adder has deep reconvergence: the flattened tree is
        // exponentially larger than the DAG.
        let small = benchgen::adder(8).aig;
        let large = benchgen::adder(24).aig;
        let dag_ratio = large.num_ands() as f64 / small.num_ands() as f64;
        let tree_ratio = flattened_tree_size(&large) as f64 / flattened_tree_size(&small) as f64;
        assert!(
            tree_ratio > dag_ratio * 10.0,
            "tree growth {tree_ratio} should far outpace DAG growth {dag_ratio}"
        );
    }

    #[test]
    fn node_budget_reports_memory_out() {
        let aig = benchgen::multiplier(8).aig;
        let limits = EsynLimits {
            max_tree_nodes: 1_000,
            time_limit: Duration::from_secs(60),
        };
        match esyn_forward(&aig, &limits) {
            Err(EsynFailure::MemoryOut { nodes_built }) => assert!(nodes_built >= 1_000),
            other => panic!("expected memory-out, got {other:?}"),
        }
    }

    #[test]
    fn time_budget_reports_timeout() {
        let aig = benchgen::multiplier(10).aig;
        let limits = EsynLimits {
            max_tree_nodes: u64::MAX,
            time_limit: Duration::from_millis(0),
        };
        match esyn_forward(&aig, &limits) {
            Err(EsynFailure::TimeOut) | Err(EsynFailure::MemoryOut { .. }) => {}
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn failure_display_matches_paper_vocabulary() {
        assert_eq!(EsynFailure::TimeOut.to_string(), "TO");
        assert!(EsynFailure::MemoryOut { nodes_built: 5 }
            .to_string()
            .starts_with("MO"));
    }
}
