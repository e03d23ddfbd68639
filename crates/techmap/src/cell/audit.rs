//! The netlist's own checkers. A [`Netlist`] only carries node ids into the
//! AIG it was mapped from, so the checkers run over a [`MappedDesign`]
//! pairing the two.

use ::audit::{run_checks, AuditLevel, AuditReport, Check, RuleId, Severity};
use aig::{Aig, FxHashMap, NodeId};

use super::{Netlist, OutputDriver};
use crate::{timing, MAX_CUT_LEAVES};

/// A netlist together with the AIG it was mapped from (the netlist's gate
/// roots and leaves index into that AIG's node space).
#[derive(Debug, Clone, Copy)]
pub struct MappedDesign<'a> {
    /// The source network.
    pub aig: &'a Aig,
    /// The mapped result.
    pub netlist: &'a Netlist,
}

/// [`RuleId::NetlistCoverLegal`]: every gate covers an AND node of the
/// source AIG with in-range leaves, no root is covered twice, and gates are
/// emitted in topological (ascending root id) order.
struct CoverLegal;

impl Check<MappedDesign<'_>> for CoverLegal {
    fn rule(&self) -> RuleId {
        RuleId::NetlistCoverLegal
    }

    fn check(&self, design: &MappedDesign<'_>, report: &mut AuditReport) {
        let n = design.aig.num_nodes();
        let mut previous: Option<NodeId> = None;
        let mut seen: FxHashMap<NodeId, usize> = FxHashMap::default();
        for (i, gate) in design.netlist.gates.iter().enumerate() {
            let location = format!("gate {i}");
            if gate.root.index() >= n {
                report.push(
                    self.rule(),
                    Severity::Error,
                    location,
                    format!("root references node {} of {n}", gate.root.index()),
                );
                continue;
            }
            if !design.aig.node(gate.root).is_and() {
                report.push(
                    self.rule(),
                    Severity::Error,
                    location.clone(),
                    format!("root {} is not an AND node", gate.root),
                );
            }
            if let Some(&first) = seen.get(&gate.root) {
                report.push(
                    self.rule(),
                    Severity::Error,
                    location.clone(),
                    format!("root {} is already covered by gate {first}", gate.root),
                );
            } else {
                seen.insert(gate.root, i);
            }
            if let Some(prev) = previous {
                if gate.root <= prev {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        location.clone(),
                        format!(
                            "root {} does not follow {prev} (gates must be topologically ordered)",
                            gate.root
                        ),
                    );
                }
            }
            previous = Some(gate.root);
            for leaf in &gate.leaves {
                if leaf.index() >= n {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        location.clone(),
                        format!("leaf references node {} of {n}", leaf.index()),
                    );
                }
            }
        }
    }
}

/// [`RuleId::NetlistFaninResolved`]: every gate leaf that is an AND node is
/// itself mapped by an earlier gate (inputs and the constant are the only
/// primary values), and every output driver resolves to a mapped node, an
/// input, or a constant.
struct FaninResolved;

impl Check<MappedDesign<'_>> for FaninResolved {
    fn rule(&self) -> RuleId {
        RuleId::NetlistFaninResolved
    }

    fn check(&self, design: &MappedDesign<'_>, report: &mut AuditReport) {
        let n = design.aig.num_nodes();
        let mut mapped: FxHashMap<NodeId, usize> = FxHashMap::default();
        for (i, gate) in design.netlist.gates.iter().enumerate() {
            for leaf in &gate.leaves {
                if leaf.index() >= n {
                    continue; // CoverLegal reports the range error
                }
                if design.aig.node(*leaf).is_and() && !mapped.contains_key(leaf) {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        format!("gate {i}"),
                        format!("leaf {} is an AND with no earlier covering gate", leaf),
                    );
                }
            }
            mapped.insert(gate.root, i);
        }
        for (i, driver) in design.netlist.outputs.iter().enumerate() {
            let node = match driver {
                OutputDriver::Direct(node) | OutputDriver::Inverted(node) => *node,
                OutputDriver::Constant(_) => continue,
            };
            if node.index() >= n {
                report.push(
                    self.rule(),
                    Severity::Error,
                    format!("output {i}"),
                    format!("driver references node {} of {n}", node.index()),
                );
                continue;
            }
            if design.aig.node(node).is_and() && !mapped.contains_key(&node) {
                report.push(
                    self.rule(),
                    Severity::Error,
                    format!("output {i}"),
                    format!("driver {} is an AND with no covering gate", node),
                );
            }
        }
    }
}

/// [`RuleId::NetlistTiming`]: an independent bottom-up arrival recompute
/// (leaves at 0 ps for inputs/constant, [`timing::gate_arrival`] per gate)
/// must reproduce the stored annotations *bitwise*, and no gate's required
/// time may precede its arrival.
struct TimingConsistent;

impl Check<MappedDesign<'_>> for TimingConsistent {
    fn rule(&self) -> RuleId {
        RuleId::NetlistTiming
    }

    fn check(&self, design: &MappedDesign<'_>, report: &mut AuditReport) {
        let n = design.aig.num_nodes();
        let netlist = design.netlist;
        let arrivals = netlist.gate_arrivals_ps();
        let requireds = netlist.gate_requireds_ps();
        if arrivals.len() != netlist.gates.len() || requireds.len() != netlist.gates.len() {
            report.push(
                self.rule(),
                Severity::Error,
                "annotations",
                format!(
                    "{} gates but {} arrival / {} required entries",
                    netlist.gates.len(),
                    arrivals.len(),
                    requireds.len()
                ),
            );
            return;
        }
        let mut recomputed: FxHashMap<NodeId, f64> = FxHashMap::default();
        for (i, gate) in netlist.gates.iter().enumerate() {
            if gate.leaves.len() > MAX_CUT_LEAVES
                || gate.leaves.iter().any(|leaf| leaf.index() >= n)
            {
                // Out of the timing model (CoverLegal owns shape errors) —
                // trust the stored annotation so downstream propagation
                // still compares against something meaningful.
                recomputed.insert(gate.root, arrivals[i]);
                continue;
            }
            let leaf_arrivals: Vec<f64> = gate
                .leaves
                .iter()
                .map(|leaf| recomputed.get(leaf).copied().unwrap_or(0.0))
                .collect();
            let arrival = timing::gate_arrival(&leaf_arrivals, &gate.pin_delays_ps);
            recomputed.insert(gate.root, arrival);
            if arrival.to_bits() != arrivals[i].to_bits() {
                report.push(
                    self.rule(),
                    Severity::Error,
                    format!("gate {i}"),
                    format!(
                        "stored arrival {} ps disagrees with recomputed {arrival} ps at root {}",
                        arrivals[i], gate.root
                    ),
                );
            }
            if requireds[i] < arrivals[i] - 1e-9 {
                report.push(
                    self.rule(),
                    Severity::Error,
                    format!("gate {i}"),
                    format!(
                        "required time {} ps precedes arrival {} ps at root {}",
                        requireds[i], arrivals[i], gate.root
                    ),
                );
            }
        }
    }
}

/// The netlist catalog (three rules, all cheap).
pub fn netlist_catalog<'a>() -> Vec<Box<dyn Check<MappedDesign<'a>>>> {
    vec![
        Box::new(CoverLegal),
        Box::new(FaninResolved),
        Box::new(TimingConsistent),
    ]
}

/// Audits a mapped netlist against its source AIG at the given level.
pub fn audit_netlist(aig: &Aig, netlist: &Netlist, level: AuditLevel) -> AuditReport {
    let design = MappedDesign { aig, netlist };
    run_checks(&design, &netlist_catalog(), level)
}

/// Mutation tests: each starts from a clean mapping, corrupts the netlist
/// (its private timing annotations included) directly, and asserts the
/// expected rule fires.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::map_to_cells;
    use crate::library::asap7_like;
    use crate::MapOptions;
    use aig::FxHashSet;

    fn netlist_base() -> (Aig, Netlist) {
        let aig = benchgen::adder(4).aig;
        let netlist = map_to_cells(&aig, &asap7_like(), &MapOptions::default());
        let report = audit_netlist(&aig, &netlist, AuditLevel::Paranoid);
        assert!(report.is_clean(), "netlist base audit not clean:\n{report}");
        (aig, netlist)
    }

    #[test]
    fn netlist_cover_legal_fires_on_unsorted_gates() {
        let (aig, mut netlist) = netlist_base();
        // Swap two adjacent *independent* gates (annotations move along), so
        // fanins still resolve and timing still recomputes bitwise — only the
        // topological-order rule can fire.
        let idx = (0..netlist.gates.len() - 1)
            .find(|&i| {
                let root = netlist.gates[i].root;
                !netlist.gates[i + 1].leaves.contains(&root)
            })
            .expect("adder netlist has an adjacent independent gate pair");
        netlist.gates.swap(idx, idx + 1);
        netlist.arrival_ps.swap(idx, idx + 1);
        netlist.required_ps.swap(idx, idx + 1);
        let report = audit_netlist(&aig, &netlist, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::NetlistCoverLegal]);
    }

    #[test]
    fn netlist_fanin_resolved_fires_on_unmapped_driver() {
        let (aig, mut netlist) = netlist_base();
        // K-feasible covers leave cut-interior ANDs unmapped; pointing an
        // output at one leaves cover legality and gate timing untouched.
        let roots: FxHashSet<NodeId> = netlist.gates.iter().map(|g| g.root).collect();
        let unmapped = (1..aig.num_nodes())
            .map(|i| NodeId(i as u32))
            .find(|id| aig.node(*id).is_and() && !roots.contains(id))
            .expect("mapper leaves cut-interior ANDs unmapped");
        netlist.outputs[0] = OutputDriver::Direct(unmapped);
        let report = audit_netlist(&aig, &netlist, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::NetlistFaninResolved]);
    }

    #[test]
    fn netlist_timing_fires_on_skewed_arrival() {
        let (aig, mut netlist) = netlist_base();
        let last = netlist.gates.len() - 1;
        netlist.arrival_ps[last] += 5.0;
        let report = audit_netlist(&aig, &netlist, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::NetlistTiming]);
    }
}
