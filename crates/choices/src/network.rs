//! The choice-annotated AIG network type.

use crate::ChoiceError;
use aig::{Aig, Lit, NodeId};
use fxhash::FxHashMap;

mod audit;

pub use self::audit::audit_choices;

/// One equivalence class of choice representatives.
///
/// Every member literal *evaluates to the class function*: for a member `m`,
/// the Boolean function of node `m.node()` XOR `m.is_complemented()` equals
/// the function of `members[0]` (the representative) interpreted the same
/// way. Fanouts in the network reference the representative node only; the
/// other members exist purely as alternative structures for the mapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceClass {
    /// Member literals; `members[0]` is the representative.
    pub members: Vec<Lit>,
}

impl ChoiceClass {
    /// The representative literal (what the rest of the network references).
    #[inline]
    pub fn repr(&self) -> Lit {
        self.members[0]
    }

    /// The non-representative members.
    #[inline]
    pub fn alternatives(&self) -> &[Lit] {
        &self.members[1..]
    }

    /// Number of members (representative included).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the class has no members (never the case after validation).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A choice-annotated And-Inverter Graph.
///
/// Structurally this is a plain [`Aig`] — alternatives are ordinary AND
/// nodes, usually dangling (not reachable from the outputs) — plus the class
/// annotation that tells a choice-aware mapper which nodes implement the same
/// function. See the crate docs for the ordering invariant.
#[derive(Debug, Clone)]
pub struct ChoiceAig {
    aig: Aig,
    classes: Vec<ChoiceClass>,
    /// Representative node → index into `classes`.
    class_of: FxHashMap<NodeId, usize>,
}

impl ChoiceAig {
    /// Wraps a network with no choices (every node is its own class).
    pub fn trivial(aig: Aig) -> Self {
        ChoiceAig {
            aig,
            classes: Vec::new(),
            class_of: FxHashMap::default(),
        }
    }

    /// Builds a choice network from a network and its classes, validating the
    /// member and ordering invariants.
    ///
    /// # Errors
    /// Returns a [`ChoiceError`] if a member is out of range or not an AND
    /// gate, a node occurs in a class with both phases, two classes share a
    /// representative, or a fanout of a representative precedes a member.
    pub fn new(aig: Aig, classes: Vec<ChoiceClass>) -> Result<Self, ChoiceError> {
        let mut class_of: FxHashMap<NodeId, usize> = FxHashMap::default();
        for (index, class) in classes.iter().enumerate() {
            if class.members.len() < 2 {
                return Err(ChoiceError::InvalidMember(format!(
                    "class {index} has {} member(s); need a representative plus at least one \
                     alternative",
                    class.members.len()
                )));
            }
            let mut phases: FxHashMap<NodeId, bool> = FxHashMap::default();
            for &member in &class.members {
                let node = aig
                    .try_node(member.node())
                    .map_err(|e| ChoiceError::InvalidMember(format!("class {index}: {e}")))?;
                if !node.is_and() {
                    return Err(ChoiceError::InvalidMember(format!(
                        "class {index}: member {} is not an AND gate",
                        member.node()
                    )));
                }
                if let Some(&phase) = phases.get(&member.node()) {
                    if phase != member.is_complemented() {
                        return Err(ChoiceError::PhaseConflict(format!(
                            "class {index}: node {} occurs with both phases",
                            member.node()
                        )));
                    }
                } else {
                    phases.insert(member.node(), member.is_complemented());
                }
            }
            let repr = class.repr().node();
            if class_of.insert(repr, index).is_some() {
                return Err(ChoiceError::DuplicateRepresentative(format!(
                    "node {repr} represents more than one class"
                )));
            }
        }

        // Ordering invariant: the representative is the topologically *last*
        // member of its class. Every alternative (and, because cuts only
        // reach into a node's fanin cone, every cut leaf any member can
        // contribute) then precedes the representative, so a single
        // ascending-id pass over the network sees all member cuts before the
        // class is consumed and mapped covers stay topologically ordered.
        for (index, class) in classes.iter().enumerate() {
            let repr = class.repr().node();
            for member in class.alternatives() {
                if member.node() >= repr {
                    return Err(ChoiceError::OrderingViolation(format!(
                        "class {index}: member {} does not precede representative {repr}",
                        member.node()
                    )));
                }
            }
        }

        Ok(ChoiceAig {
            aig,
            classes,
            class_of,
        })
    }

    /// The underlying network (alternatives included as dangling nodes).
    #[inline]
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// All choice classes.
    #[inline]
    pub fn classes(&self) -> &[ChoiceClass] {
        &self.classes
    }

    /// The class represented by `node`, if it is a representative.
    #[inline]
    pub fn class_of(&self, node: NodeId) -> Option<&ChoiceClass> {
        self.class_of.get(&node).map(|&i| &self.classes[i])
    }

    /// Number of classes with at least one alternative.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total number of alternatives across all classes.
    pub fn num_alternatives(&self) -> usize {
        self.classes.iter().map(|c| c.alternatives().len()).sum()
    }

    /// The choice-free view: only the logic reachable from the outputs (the
    /// representative cone), with all alternatives removed.
    pub fn repr_network(&self) -> Aig {
        self.aig.cleanup()
    }
}

/// Drops members that do not topologically precede their class
/// representative (structural hashing can produce such members when the
/// representative collapses onto pre-existing logic), then drops classes
/// left without alternatives. Returns the surviving classes and the number
/// of dropped members. The result always satisfies the ordering invariant
/// checked by [`ChoiceAig::new`]. Exposed for external builders of choice
/// networks (e.g. the windowed stitcher) that replay logic into a shared
/// host and can hit the same strash collisions as the exporter.
pub fn filter_ordering(classes: Vec<ChoiceClass>) -> (Vec<ChoiceClass>, usize) {
    let mut dropped = 0usize;
    let mut kept: Vec<ChoiceClass> = Vec::new();
    for mut class in classes {
        let repr = class.repr();
        let before = class.members.len();
        class
            .members
            .retain(|m| *m == repr || m.node() < repr.node());
        dropped += before - class.members.len();
        if class.members.len() >= 2 {
            kept.push(class);
        }
    }
    (kept, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(a & b) | c` in SOP and POS shapes; the two forms are equivalent but
    /// structurally different, which is exactly what a choice class records.
    /// The POS cone is built first so the SOP root can serve as the
    /// (topologically last) representative.
    fn two_shapes() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new("shapes");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let a_or_c = aig.or(a, c);
        let b_or_c = aig.or(b, c);
        let f2 = aig.and(a_or_c, b_or_c);
        let ab = aig.and(a, b);
        let f1 = aig.or(ab, c);
        aig.add_output(f1, "f");
        (aig, f1, f2)
    }

    #[test]
    fn trivial_network_has_no_classes() {
        let (aig, _, _) = two_shapes();
        let choices = ChoiceAig::trivial(aig);
        assert_eq!(choices.num_classes(), 0);
        assert_eq!(choices.num_alternatives(), 0);
    }

    #[test]
    fn validation_rejects_phase_conflicts() {
        let (aig, f1, f2) = two_shapes();
        let class = ChoiceClass {
            members: vec![
                Lit::new(f1.node(), false),
                Lit::new(f2.node(), false),
                Lit::new(f2.node(), true),
            ],
        };
        let err = ChoiceAig::new(aig, vec![class]).unwrap_err();
        assert!(matches!(err, ChoiceError::PhaseConflict(_)));
    }

    #[test]
    fn validation_rejects_non_and_members() {
        let (aig, f1, _) = two_shapes();
        let pi = aig.inputs()[0];
        let class = ChoiceClass {
            members: vec![Lit::new(f1.node(), false), Lit::new(pi, false)],
        };
        let err = ChoiceAig::new(aig, vec![class]).unwrap_err();
        assert!(matches!(err, ChoiceError::InvalidMember(_)));
    }

    #[test]
    fn validation_rejects_ordering_violations() {
        // alt is created after n1, so it cannot be an alternative of a class
        // represented by n1: the representative must be the topologically
        // last member.
        let mut aig = Aig::new("order");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let n1 = aig.and(a, b);
        let n2 = aig.and(n1, c);
        let alt = aig.and(a, c);
        aig.add_output(n2, "f");
        let class = ChoiceClass {
            members: vec![Lit::new(n1.node(), false), Lit::new(alt.node(), false)],
        };
        let err = ChoiceAig::new(aig, vec![class]).unwrap_err();
        assert!(matches!(err, ChoiceError::OrderingViolation(_)));
    }
}
