//! Checkers over [`choices::ChoiceAig`]: the class bookkeeping invariants
//! (repr-last ordering, member validity, phase/duplicate hygiene) plus the
//! expensive exhaustive-simulation equivalence check (the public successor
//! of the string-typed `check_members_equivalent`, now a private helper of
//! the `choices` unit tests).

use aig::NodeId;
use choices::ChoiceAig;
use fxhash::{FxHashMap, FxHashSet};

use crate::report::{AuditReport, CheckCost, RuleId, Severity};
use crate::Check;

/// [`RuleId::ChoiceReprLast`]: the representative is the topologically last
/// member of its class (every alternative has a strictly smaller node id).
pub struct ReprLast;

impl Check<ChoiceAig> for ReprLast {
    fn rule(&self) -> RuleId {
        RuleId::ChoiceReprLast
    }

    fn check(&self, choices: &ChoiceAig, report: &mut AuditReport) {
        for (index, class) in choices.classes().iter().enumerate() {
            if class.is_empty() {
                continue; // MemberValid reports the malformed class
            }
            let repr = class.repr().node();
            for member in class.alternatives() {
                if member.node() >= repr {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        format!("class {index}"),
                        format!(
                            "member node {} does not precede representative {}",
                            member.node(),
                            repr
                        ),
                    );
                }
            }
        }
    }
}

/// [`RuleId::ChoiceMemberValid`]: every class has a representative plus at
/// least one alternative, and every member references an AND node in range.
pub struct MemberValid;

impl Check<ChoiceAig> for MemberValid {
    fn rule(&self) -> RuleId {
        RuleId::ChoiceMemberValid
    }

    fn check(&self, choices: &ChoiceAig, report: &mut AuditReport) {
        let aig = choices.aig();
        for (index, class) in choices.classes().iter().enumerate() {
            if class.len() < 2 {
                report.push(
                    self.rule(),
                    Severity::Error,
                    format!("class {index}"),
                    format!(
                        "{} member(s); need a representative plus at least one alternative",
                        class.len()
                    ),
                );
            }
            for &member in &class.members {
                if member.node().index() >= aig.num_nodes() {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        format!("class {index}"),
                        format!(
                            "member references node {} of {}",
                            member.node().index(),
                            aig.num_nodes()
                        ),
                    );
                } else if !aig.node(member.node()).is_and() {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        format!("class {index}"),
                        format!("member {} is not an AND gate", member.node()),
                    );
                }
            }
        }
    }
}

/// [`RuleId::ChoicePhaseConflict`]: within one class a node may occur with
/// only one phase (a node equal to both `f` and `!f` would make `f`
/// constant, which choice classes never record).
pub struct PhaseConflict;

impl Check<ChoiceAig> for PhaseConflict {
    fn rule(&self) -> RuleId {
        RuleId::ChoicePhaseConflict
    }

    fn check(&self, choices: &ChoiceAig, report: &mut AuditReport) {
        for (index, class) in choices.classes().iter().enumerate() {
            let mut phases: FxHashMap<NodeId, bool> = FxHashMap::default();
            for &member in &class.members {
                match phases.get(&member.node()) {
                    Some(&phase) if phase != member.is_complemented() => report.push(
                        self.rule(),
                        Severity::Error,
                        format!("class {index}"),
                        format!("node {} occurs with both phases", member.node()),
                    ),
                    _ => {
                        phases.insert(member.node(), member.is_complemented());
                    }
                }
            }
        }
    }
}

/// [`RuleId::ChoiceDuplicateMember`]: no node appears twice in one class,
/// and no node represents more than one class.
pub struct DuplicateMember;

impl Check<ChoiceAig> for DuplicateMember {
    fn rule(&self) -> RuleId {
        RuleId::ChoiceDuplicateMember
    }

    fn check(&self, choices: &ChoiceAig, report: &mut AuditReport) {
        let mut reprs: FxHashMap<NodeId, usize> = FxHashMap::default();
        for (index, class) in choices.classes().iter().enumerate() {
            let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
            for &member in &class.members {
                if !nodes.insert(member.node()) {
                    report.push(
                        self.rule(),
                        Severity::Error,
                        format!("class {index}"),
                        format!("node {} appears more than once in the class", member.node()),
                    );
                }
            }
            if class.is_empty() {
                continue;
            }
            let repr = class.repr().node();
            if let Some(&other) = reprs.get(&repr) {
                report.push(
                    self.rule(),
                    Severity::Error,
                    format!("class {index}"),
                    format!("representative {repr} already represents class {other}"),
                );
            } else {
                reprs.insert(repr, index);
            }
        }
    }
}

/// [`RuleId::ChoiceMemberEquiv`]: exhaustive simulation proves every member
/// equivalent to its representative. Expensive; skipped above 16 inputs.
pub struct MemberEquiv;

impl Check<ChoiceAig> for MemberEquiv {
    fn rule(&self) -> RuleId {
        RuleId::ChoiceMemberEquiv
    }

    fn cost(&self) -> CheckCost {
        CheckCost::Expensive
    }

    fn check(&self, choices: &ChoiceAig, report: &mut AuditReport) {
        let aig = choices.aig();
        if aig.num_inputs() > 16 {
            return;
        }
        // Range errors belong to MemberValid; simulate only classes whose
        // members all resolve.
        let in_range = |class: &choices::ChoiceClass| {
            class
                .members
                .iter()
                .all(|m| m.node().index() < aig.num_nodes())
        };
        // Report each broken member once, not once per disagreeing pattern.
        let mut reported: FxHashSet<(usize, u32)> = FxHashSet::default();
        for pattern in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs())
                .map(|i| pattern >> i & 1 == 1)
                .collect();
            let values = aig.evaluate_nodes(&bits);
            for (index, class) in choices.classes().iter().enumerate() {
                if class.is_empty() || !in_range(class) {
                    continue;
                }
                let repr = class.repr();
                let expected = values[repr.node().index()] ^ repr.is_complemented();
                for &member in class.alternatives() {
                    let got = values[member.node().index()] ^ member.is_complemented();
                    if got != expected && reported.insert((index, member.raw())) {
                        report.push(
                            self.rule(),
                            Severity::Error,
                            format!("class {index}"),
                            format!(
                                "member {} disagrees with representative {} on input pattern {pattern}",
                                member.node(),
                                repr.node()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The choice-network catalog (five rules; only the equivalence check is
/// expensive).
pub fn choice_catalog() -> Vec<Box<dyn Check<ChoiceAig>>> {
    vec![
        Box::new(ReprLast),
        Box::new(MemberValid),
        Box::new(PhaseConflict),
        Box::new(DuplicateMember),
        Box::new(MemberEquiv),
    ]
}

/// Audits a choice network: the class invariants above plus the DAG-shape
/// rules over the underlying member AIG (alternatives dangle by design, so
/// the dangling-AND warning is excluded; cycle-freedom of the member DAGs is
/// exactly [`RuleId::AigTopoOrder`] on that network).
pub fn audit_choices(choices: &ChoiceAig, level: crate::AuditLevel) -> AuditReport {
    let mut report = crate::run_checks(choices, &choice_catalog(), level);
    report.absorb(
        "member-aig",
        crate::audit_aig_dag_only(choices.aig(), level),
    );
    report
}
