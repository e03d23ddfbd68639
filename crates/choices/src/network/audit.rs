//! The choice network's own checkers: the class bookkeeping invariants
//! (repr-last ordering, member validity, phase/duplicate hygiene) plus the
//! expensive exhaustive-simulation equivalence check.

use ::audit::{AuditLevel, AuditReport, RuleId, Severity};
use aig::{audit_aig_dag_only, NodeId};
use fxhash::{FxHashMap, FxHashSet};

use super::{ChoiceAig, ChoiceClass};

/// [`RuleId::ChoiceReprLast`]: the representative is the topologically last
/// member of its class (every alternative has a strictly smaller node id).
fn repr_last(choices: &ChoiceAig, report: &mut AuditReport) {
    for (index, class) in choices.classes().iter().enumerate() {
        if class.is_empty() {
            continue; // `member_valid` reports the malformed class
        }
        let repr = class.repr().node();
        for member in class.alternatives() {
            if member.node() >= repr {
                report.push(
                    RuleId::ChoiceReprLast,
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

/// [`RuleId::ChoiceMemberValid`]: every class has a representative plus at
/// least one alternative, and every member references an AND node in range.
fn member_valid(choices: &ChoiceAig, report: &mut AuditReport) {
    let aig = choices.aig();
    for (index, class) in choices.classes().iter().enumerate() {
        if class.len() < 2 {
            report.push(
                RuleId::ChoiceMemberValid,
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
                    RuleId::ChoiceMemberValid,
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
                    RuleId::ChoiceMemberValid,
                    Severity::Error,
                    format!("class {index}"),
                    format!("member {} is not an AND gate", member.node()),
                );
            }
        }
    }
}

/// [`RuleId::ChoicePhaseConflict`]: within one class a node may occur with
/// only one phase (a node equal to both `f` and `!f` would make `f`
/// constant, which choice classes never record).
fn phase_conflict(choices: &ChoiceAig, report: &mut AuditReport) {
    for (index, class) in choices.classes().iter().enumerate() {
        let mut phases: FxHashMap<NodeId, bool> = FxHashMap::default();
        for &member in &class.members {
            match phases.get(&member.node()) {
                Some(&phase) if phase != member.is_complemented() => report.push(
                    RuleId::ChoicePhaseConflict,
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

/// [`RuleId::ChoiceDuplicateMember`]: no node appears twice in one class,
/// and no node represents more than one class.
fn duplicate_member(choices: &ChoiceAig, report: &mut AuditReport) {
    let mut reprs: FxHashMap<NodeId, usize> = FxHashMap::default();
    for (index, class) in choices.classes().iter().enumerate() {
        let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
        for &member in &class.members {
            if !nodes.insert(member.node()) {
                report.push(
                    RuleId::ChoiceDuplicateMember,
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
                RuleId::ChoiceDuplicateMember,
                Severity::Error,
                format!("class {index}"),
                format!("representative {repr} already represents class {other}"),
            );
        } else {
            reprs.insert(repr, index);
        }
    }
}

/// [`RuleId::ChoiceMemberEquiv`]: exhaustive simulation proves every member
/// equivalent to its representative. Expensive; skipped above 16 inputs.
fn member_equiv(choices: &ChoiceAig, report: &mut AuditReport) {
    let aig = choices.aig();
    if aig.num_inputs() > 16 {
        return;
    }
    // Range errors belong to `member_valid`; simulate only classes whose
    // members all resolve.
    let in_range = |class: &ChoiceClass| {
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
                        RuleId::ChoiceMemberEquiv,
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

/// Audits a choice network: the class invariants above plus the DAG-shape
/// rules over the underlying member AIG (alternatives dangle by design, so
/// the dangling-AND warning is excluded; cycle-freedom of the member DAGs is
/// exactly [`RuleId::AigTopoOrder`] on that network). The exhaustive
/// simulation of [`RuleId::ChoiceMemberEquiv`] runs only at
/// [`AuditLevel::Paranoid`].
pub fn audit_choices(choices: &ChoiceAig, level: AuditLevel) -> AuditReport {
    let mut report = AuditReport::new();
    if level == AuditLevel::Off {
        return report;
    }
    report.run(|r| repr_last(choices, r));
    report.run(|r| member_valid(choices, r));
    report.run(|r| phase_conflict(choices, r));
    report.run(|r| duplicate_member(choices, r));
    if level == AuditLevel::Paranoid {
        report.run(|r| member_equiv(choices, r));
    }
    report.absorb("member-aig", audit_aig_dag_only(choices.aig(), level));
    report
}

/// Mutation tests: each starts from a clean network, corrupts its private
/// class list directly, and asserts the expected rule fires.
#[cfg(test)]
mod tests {
    use super::*;
    use aig::{Aig, Lit};

    /// One class with two genuinely equivalent structures for `a & b & c`:
    /// representative `s2 = a & (b & c)` (node 7), alternative
    /// `s1 = (a & b) & c` (node 5). Returns the network plus `[t1, s1, t2, s2]`.
    fn choice_base() -> (ChoiceAig, [Lit; 4]) {
        let mut aig = Aig::new("choice-mutant");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let t1 = aig.and(a, b);
        let s1 = aig.and(t1, c);
        let t2 = aig.and(b, c);
        let s2 = aig.and(a, t2);
        aig.add_output(s2, "f");
        let class = ChoiceClass {
            members: vec![s2, s1],
        };
        let choices = ChoiceAig::new(aig, vec![class]).expect("valid choice network");
        let report = audit_choices(&choices, AuditLevel::Paranoid);
        assert!(report.is_clean(), "choice base audit not clean:\n{report}");
        (choices, [t1, s1, t2, s2])
    }

    #[test]
    fn choice_repr_last_fires_on_reordered_members() {
        let (mut choices, _) = choice_base();
        // The alternative (smaller node) becomes the representative.
        choices.classes[0].members.swap(0, 1);
        let report = audit_choices(&choices, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::ChoiceReprLast]);
    }

    #[test]
    fn choice_member_valid_fires_on_non_and_member() {
        let (mut choices, _) = choice_base();
        // The alternative now names input node 1. PhaseBoundaries keeps the
        // expensive equivalence check (which would also catch this) out of
        // the fired set.
        choices.classes[0].members[1] = Lit::from_raw(1 << 1);
        let report = audit_choices(&choices, AuditLevel::PhaseBoundaries);
        assert_eq!(report.fired_rules(), vec![RuleId::ChoiceMemberValid]);
    }

    #[test]
    fn choice_phase_conflict_fires_on_both_phases() {
        let (mut choices, [_, s1, _, _]) = choice_base();
        // s1 joins its own complement: necessarily both a phase conflict and
        // a duplicate node, so the fired pair is pinned exactly.
        choices.classes[0].members.push(s1.not());
        let report = audit_choices(&choices, AuditLevel::PhaseBoundaries);
        assert_eq!(
            report.fired_rules(),
            vec![RuleId::ChoicePhaseConflict, RuleId::ChoiceDuplicateMember]
        );
    }

    #[test]
    fn choice_duplicate_member_fires_on_repeated_member() {
        let (mut choices, [_, s1, _, _]) = choice_base();
        choices.classes[0].members.push(s1);
        let report = audit_choices(&choices, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::ChoiceDuplicateMember]);
    }

    #[test]
    fn choice_member_equiv_fires_on_wrong_function() {
        let (mut choices, [t1, ..]) = choice_base();
        // t1 = a & b is a valid, well-ordered AND — but not a & b & c.
        choices.classes[0].members[1] = t1;
        let report = audit_choices(&choices, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::ChoiceMemberEquiv]);
    }
}
