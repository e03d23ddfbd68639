//! The AIG's own checkers: fanin sanity, topological order,
//! structural-hash consistency, dangling/duplicate/trivial ANDs.

use ::audit::{AuditLevel, AuditReport, RuleId, Severity};
use fxhash::FxHashMap;

use crate::{Aig, AigNode, Lit, NodeId};

/// Iterates `(id, fanin0, fanin1)` over the AND nodes, tolerating corrupted
/// node vectors (no panicking accessors).
fn ands(aig: &Aig) -> impl Iterator<Item = (NodeId, Lit, Lit)> + '_ {
    aig.node_ids().filter_map(|id| match *aig.node(id) {
        AigNode::And { fanin0, fanin1 } => Some((id, fanin0, fanin1)),
        _ => None,
    })
}

/// [`RuleId::AigFaninRange`]: every fanin and output literal references an
/// existing node.
fn fanin_range(aig: &Aig, report: &mut AuditReport) {
    let n = aig.num_nodes();
    for (id, f0, f1) in ands(aig) {
        for (pin, fanin) in [(0, f0), (1, f1)] {
            if fanin.node().index() >= n {
                report.push(
                    RuleId::AigFaninRange,
                    Severity::Error,
                    format!("node {}", id.index()),
                    format!("fanin{pin} references node {} of {n}", fanin.node().index()),
                );
            }
        }
    }
    for (i, output) in aig.outputs().iter().enumerate() {
        if output.node().index() >= n {
            report.push(
                RuleId::AigFaninRange,
                Severity::Error,
                format!("output {i}"),
                format!("references node {} of {n}", output.node().index()),
            );
        }
    }
}

/// [`RuleId::AigTopoOrder`]: fanins reference strictly smaller ids. The node
/// array is creation-ordered, so a forward (or self) reference is the only
/// way a combinational cycle can exist — this check subsumes acyclicity.
fn topo_order(aig: &Aig, report: &mut AuditReport) {
    for (id, f0, f1) in ands(aig) {
        for (pin, fanin) in [(0, f0), (1, f1)] {
            if fanin.node().index() >= id.index() {
                report.push(
                    RuleId::AigTopoOrder,
                    Severity::Error,
                    format!("node {}", id.index()),
                    format!(
                        "fanin{pin} references node {} (not strictly below); \
                         the id order is the topological order",
                        fanin.node().index()
                    ),
                );
            }
        }
    }
}

/// [`RuleId::AigFaninOrder`]: fanin pairs are stored normalized
/// (`fanin0.raw() <= fanin1.raw()`), which strash relies on.
fn fanin_order(aig: &Aig, report: &mut AuditReport) {
    for (id, f0, f1) in ands(aig) {
        if f0.raw() > f1.raw() {
            report.push(
                RuleId::AigFaninOrder,
                Severity::Error,
                format!("node {}", id.index()),
                format!(
                    "fanins ({}, {}) are not in normalized order",
                    f0.raw(),
                    f1.raw()
                ),
            );
        }
    }
}

/// [`RuleId::AigDuplicateAnd`]: structural hashing must have deduplicated
/// ANDs, so no two nodes may share a normalized fanin pair.
fn duplicate_and(aig: &Aig, report: &mut AuditReport) {
    let mut seen: FxHashMap<(u32, u32), NodeId> = FxHashMap::default();
    for (id, f0, f1) in ands(aig) {
        let key = if f0.raw() <= f1.raw() {
            (f0.raw(), f1.raw())
        } else {
            (f1.raw(), f0.raw())
        };
        if let Some(first) = seen.get(&key) {
            report.push(
                RuleId::AigDuplicateAnd,
                Severity::Error,
                format!("node {}", id.index()),
                format!(
                    "duplicates the fanin pair of node {} (strash broken)",
                    first.index()
                ),
            );
        } else {
            seen.insert(key, id);
        }
    }
}

/// [`RuleId::AigTrivialAnd`]: an AND over identical, complementary or
/// constant fanins computes a simpler function and should have been folded
/// by the builder (warning).
fn trivial_and(aig: &Aig, report: &mut AuditReport) {
    for (id, f0, f1) in ands(aig) {
        let reason = if f0.node() == f1.node() {
            Some(if f0 == f1 {
                "identical fanins"
            } else {
                "complementary fanins"
            })
        } else if f0.is_const() || f1.is_const() {
            Some("constant fanin")
        } else {
            None
        };
        if let Some(reason) = reason {
            report.push(
                RuleId::AigTrivialAnd,
                Severity::Warning,
                format!("node {}", id.index()),
                format!("{reason}; the builder should have simplified this gate"),
            );
        }
    }
}

/// [`RuleId::AigDanglingAnd`]: an AND from which no primary output is
/// reachable (warning). Not run on a choice network's member AIG, where
/// alternatives dangle by design.
fn dangling_and(aig: &Aig, report: &mut AuditReport) {
    let n = aig.num_nodes();
    let mut reachable = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    for output in aig.outputs() {
        let node = output.node();
        if node.index() < n && !reachable[node.index()] {
            reachable[node.index()] = true;
            stack.push(node);
        }
    }
    while let Some(id) = stack.pop() {
        if let AigNode::And { fanin0, fanin1 } = *aig.node(id) {
            for fanin in [fanin0, fanin1] {
                let child = fanin.node();
                if child.index() < n && !reachable[child.index()] {
                    reachable[child.index()] = true;
                    stack.push(child);
                }
            }
        }
    }
    for (id, _, _) in ands(aig) {
        if !reachable[id.index()] {
            report.push(
                RuleId::AigDanglingAnd,
                Severity::Warning,
                format!("node {}", id.index()),
                "AND is reachable from no primary output",
            );
        }
    }
}

/// Audits an AIG with all six rules at the given level (every one is
/// cheap).
pub fn audit_aig(aig: &Aig, level: AuditLevel) -> AuditReport {
    let mut report = audit_aig_dag_only(aig, level);
    if level != AuditLevel::Off {
        report.run(|r| trivial_and(aig, r));
        report.run(|r| dangling_and(aig, r));
    }
    report
}

/// Audits an AIG with the four DAG-shape rules only, without the trivial
/// and dangling warnings: the right audit for networks where unused or
/// unsimplified nodes are expected, such as the member AIG underlying a
/// choice network.
pub fn audit_aig_dag_only(aig: &Aig, level: AuditLevel) -> AuditReport {
    let mut report = AuditReport::new();
    if level != AuditLevel::Off {
        report.run(|r| fanin_range(aig, r));
        report.run(|r| topo_order(aig, r));
        report.run(|r| fanin_order(aig, r));
        report.run(|r| duplicate_and(aig, r));
    }
    report
}

/// Mutation tests: each starts from a clean network, corrupts its private
/// node or output vector directly, and asserts the expected rule fires.
#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(stage: &str, report: &AuditReport) {
        assert!(report.is_clean(), "{stage} audit not clean:\n{report}");
    }

    /// `a`, `b`, `g1 = a & b` (node 3), `g2 = g1 & b` (node 4), output `g2`.
    fn aig_chain() -> Aig {
        let mut aig = Aig::new("mutant");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        let g2 = aig.and(g1, b);
        aig.add_output(g2, "f");
        assert_clean("aig base", &audit_aig(&aig, AuditLevel::Paranoid));
        aig
    }

    #[test]
    fn aig_fanin_range_fires_on_out_of_range_output() {
        let mut aig = Aig::new("mutant");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g = aig.and(a, b);
        aig.add_output(g, "f0");
        aig.add_output(g, "f1");
        assert_clean("aig base", &audit_aig(&aig, AuditLevel::Paranoid));

        // Second output now references node 99 of a 4-node network; the first
        // output keeps the AND reachable so the dangling warning stays quiet.
        aig.outputs[1] = Lit::from_raw(99 << 1);
        let report = audit_aig(&aig, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::AigFaninRange]);
    }

    #[test]
    fn aig_topo_order_fires_on_forward_edge() {
        let mut aig = aig_chain();
        // g1 (node 3) now reads g2 (node 4): a forward edge, i.e. a cycle in
        // the id-indexed array. Fanins stay raw-ordered (4 <= 8) and in range.
        aig.nodes[3] = AigNode::And {
            fanin0: Lit::from_raw(2 << 1),
            fanin1: Lit::from_raw(4 << 1),
        };
        let report = audit_aig(&aig, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::AigTopoOrder]);
    }

    #[test]
    fn aig_fanin_order_fires_on_swapped_fanins() {
        let mut aig = aig_chain();
        // g1's fanins stored as (b, a): same normalized pair, wrong raw order.
        aig.nodes[3] = AigNode::And {
            fanin0: Lit::from_raw(2 << 1),
            fanin1: Lit::from_raw(1 << 1),
        };
        let report = audit_aig(&aig, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::AigFaninOrder]);
    }

    #[test]
    fn aig_duplicate_and_fires_on_strash_miss() {
        let mut aig = aig_chain();
        // A second AND with g1's exact fanin pair, kept reachable via a new
        // output so only the strash-consistency rule can fire.
        aig.nodes.push(AigNode::And {
            fanin0: Lit::from_raw(1 << 1),
            fanin1: Lit::from_raw(2 << 1),
        });
        aig.outputs.push(Lit::from_raw(5 << 1));
        let report = audit_aig(&aig, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::AigDuplicateAnd]);
    }

    #[test]
    fn aig_trivial_and_warns_on_identical_fanins() {
        let mut aig = aig_chain();
        aig.nodes.push(AigNode::And {
            fanin0: Lit::from_raw(1 << 1),
            fanin1: Lit::from_raw(1 << 1),
        });
        aig.outputs.push(Lit::from_raw(5 << 1));
        let report = audit_aig(&aig, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::AigTrivialAnd]);
        // Trivial ANDs are a warning, not an error.
        assert!(report.has_no_errors() && !report.is_clean());
    }

    #[test]
    fn aig_dangling_and_warns_on_unreachable_node() {
        let mut aig = aig_chain();
        // !a & b: a fresh pair (so no duplicate), driven by nothing.
        aig.nodes.push(AigNode::And {
            fanin0: Lit::from_raw(1 << 1).not(),
            fanin1: Lit::from_raw(2 << 1),
        });
        let report = audit_aig(&aig, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::AigDanglingAnd]);
        assert!(report.has_no_errors() && !report.is_clean());
    }
}
