//! The choice-annotated AIG network type.

use crate::ChoiceError;
use aig::{Aig, Lit, NodeId};
use fxhash::{FxHashMap, FxHashSet};

mod audit;

pub use self::audit::{audit_choices, choice_catalog};

/// DFS colors for the cycle-safe rebuild.
const WHITE: u8 = 0;
const GREY: u8 = 1;
const BLACK: u8 = 2;

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

/// Statistics of a [`ChoiceAig::from_network_with_classes`] rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Members dropped because realizing them would create a combinational
    /// cycle through their own class representative.
    pub dropped_cyclic: usize,
    /// Members dropped because structural hashing collapsed them onto the
    /// representative (they brought no new structure).
    pub dropped_duplicate: usize,
    /// Classes that survived with at least one alternative.
    pub classes: usize,
    /// Total alternatives across all surviving classes.
    pub alternatives: usize,
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

    /// Rebuilds `src` into a choice network from proved equivalence classes
    /// (e.g. the output of `cec::SatSweeper::find_equivalences`).
    ///
    /// Each input class lists pairwise-equivalent literals with the
    /// representative first (uncomplemented); a complemented member means the
    /// node equals the *negation* of the representative. The rebuild
    /// redirects every fanin onto class representatives, emits each member's
    /// own structure right after its representative (establishing the
    /// ordering invariant), and *drops* members whose realization would pass
    /// through their own class representative — the cycle-safe selection.
    /// Classes over constants or primary inputs are folded into plain
    /// representative substitution. (Not an [`Aig::rebuild`] rule: the walk is
    /// demand-driven from the outputs, realizes a class's members before its
    /// representative whatever their ids, and backs out of cycles.)
    ///
    /// # Errors
    /// Returns a [`ChoiceError`] if a class literal is out of range or the
    /// same node is claimed by two classes.
    pub fn from_network_with_classes(
        src: &Aig,
        classes: &[Vec<Lit>],
    ) -> Result<(Self, RebuildStats), ChoiceError> {
        let stats = RebuildStats::default();
        // Member substitution: node → literal over its class representative.
        let mut replacement: Vec<Option<Lit>> = vec![None; src.num_nodes()];
        // Representative node → (class index, members in src coordinates).
        let mut src_classes: Vec<(NodeId, Vec<Lit>)> = Vec::new();
        for class in classes {
            let Some((first, rest)) = class.split_first() else {
                continue;
            };
            let repr = first.node();
            if repr.index() >= src.num_nodes() {
                return Err(ChoiceError::InvalidMember(format!(
                    "representative {repr} out of range"
                )));
            }
            let mut members: Vec<Lit> = vec![repr.lit()];
            for &member in rest {
                if member.node().index() >= src.num_nodes() {
                    return Err(ChoiceError::InvalidMember(format!(
                        "member {} out of range",
                        member.node()
                    )));
                }
                if replacement[member.node().index()].is_some() {
                    return Err(ChoiceError::DuplicateRepresentative(format!(
                        "node {} is claimed by two classes",
                        member.node()
                    )));
                }
                replacement[member.node().index()] = Some(Lit::new(repr, member.is_complemented()));
                members.push(member);
            }
            // Choices only make sense on AND representatives; classes rooted
            // at constants or inputs still get the substitution above.
            if src.node(repr).is_and() && members.len() >= 2 {
                src_classes.push((repr, members));
            }
        }
        let class_index: FxHashMap<NodeId, usize> = src_classes
            .iter()
            .enumerate()
            .map(|(i, (repr, _))| (*repr, i))
            .collect();

        let mut rebuild = Rebuild {
            src,
            replacement: &replacement,
            class_index: &class_index,
            src_classes: &src_classes,
            fresh: Aig::new(src.name().to_string()),
            built: vec![None; src.num_nodes()],
            fresh_members: vec![Vec::new(); src_classes.len()],
            color: vec![WHITE; src.num_nodes()],
            stats,
        };
        rebuild.built[NodeId::CONST.index()] = Some(Lit::FALSE);
        rebuild.color[NodeId::CONST.index()] = BLACK;
        for (idx, &pi) in src.inputs().iter().enumerate() {
            rebuild.built[pi.index()] = Some(rebuild.fresh.add_input(src.input_name(idx)));
            rebuild.color[pi.index()] = BLACK;
        }

        let mut outputs: Vec<(Lit, String)> = Vec::new();
        for (idx, &po) in src.outputs().iter().enumerate() {
            let target = rebuild.subst(po);
            let lit = if src.node(target.node()).is_and() {
                // A top-level `None` means the output cone re-reaches its own
                // node through member substitution: the caller listed a
                // representative whose cone contains one of its members, so
                // redirecting the member makes the cone cyclic.
                let built_lit = rebuild.visit(target.node()).ok_or_else(|| {
                    ChoiceError::OrderingViolation(format!(
                        "output {idx}: cone of node {} is cyclic under representative \
                         substitution (a representative lies inside its own member's cone)",
                        target.node()
                    ))
                })?;
                built_lit.xor(target.is_complemented())
            } else {
                rebuild.built[target.node().index()]
                    .unwrap_or_else(|| unreachable!("constant and input nodes are pre-built"))
                    .xor(target.is_complemented())
            };
            outputs.push((lit, src.output_name(idx).to_string()));
        }
        let Rebuild {
            fresh: mut network_aig,
            built,
            fresh_members,
            mut stats,
            ..
        } = rebuild;
        for (lit, name) in outputs {
            network_aig.add_output(lit, name);
        }

        // Assemble the surviving classes in fresh coordinates.
        let mut out_classes: Vec<ChoiceClass> = Vec::new();
        let mut seen_repr: FxHashSet<NodeId> = FxHashSet::default();
        for (ci, (repr, _)) in src_classes.iter().enumerate() {
            let Some(repr_lit) = built[repr.index()] else {
                continue; // representative never reached from the outputs
            };
            if !network_aig.node(repr_lit.node()).is_and() {
                continue; // folded away during reconstruction
            }
            if !seen_repr.insert(repr_lit.node()) {
                continue; // strash merged two representatives; keep the first
            }
            let mut members: Vec<Lit> = vec![repr_lit];
            for &candidate in &fresh_members[ci] {
                let duplicate = !network_aig.node(candidate.node()).is_and()
                    || members.iter().any(|m| m.node() == candidate.node());
                if duplicate {
                    stats.dropped_duplicate += 1;
                } else {
                    members.push(candidate);
                }
            }
            if members.len() >= 2 {
                out_classes.push(ChoiceClass { members });
            }
        }
        let (out_classes, dropped) = filter_ordering(out_classes);
        stats.dropped_cyclic += dropped;
        for class in &out_classes {
            stats.classes += 1;
            stats.alternatives += class.alternatives().len();
        }

        let network = ChoiceAig::new(network_aig, out_classes)?;
        Ok((network, stats))
    }
}

/// One in-flight DFS frame of the rebuild.
struct Frame {
    node: NodeId,
    /// 0, 1: fanins pending; 2..: members pending; last: build the node (so
    /// the representative gets the highest id of its class).
    step: usize,
}

/// State of the cycle-safe rebuild DFS (see
/// [`ChoiceAig::from_network_with_classes`]).
struct Rebuild<'a> {
    src: &'a Aig,
    /// Member substitution: node → literal over its class representative.
    replacement: &'a [Option<Lit>],
    class_index: &'a FxHashMap<NodeId, usize>,
    src_classes: &'a [(NodeId, Vec<Lit>)],
    fresh: Aig,
    built: Vec<Option<Lit>>,
    /// Fresh members per class, filled as the DFS reaches representatives.
    fresh_members: Vec<Vec<Lit>>,
    color: Vec<u8>,
    stats: RebuildStats,
}

impl Rebuild<'_> {
    /// Redirects a literal onto its class representative (identity for
    /// non-members).
    fn subst(&self, lit: Lit) -> Lit {
        match self.replacement[lit.node().index()] {
            Some(repr) => Lit::new(repr.node(), repr.is_complemented() ^ lit.is_complemented()),
            None => lit,
        }
    }

    /// Visits the canonical cone of `start`, building nodes bottom-up and
    /// realizing class members *before* their representative so the
    /// representative is the topologically last member of its class.
    ///
    /// Returns `None` when the cone reaches a grey node (a cycle through an
    /// in-progress representative): nothing on the abort path is built and
    /// its frames are reset to white so later visits can retry them. Member
    /// realization re-enters `visit` recursively; that recursion is bounded
    /// by the class nesting depth, not the circuit depth, because each
    /// nested call walks its own cone iteratively.
    fn visit(&mut self, start: NodeId) -> Option<Lit> {
        if self.color[start.index()] == BLACK {
            return self.built[start.index()];
        }
        if self.color[start.index()] == GREY {
            return None;
        }
        let mut stack = vec![Frame {
            node: start,
            step: 0,
        }];
        self.color[start.index()] = GREY;
        'outer: while let Some(frame) = stack.last_mut() {
            let id = frame.node;
            let (f0, f1) = self.src.fanins(id);
            let fanins = [self.subst(f0), self.subst(f1)];
            while frame.step < 2 {
                let fanin = fanins[frame.step];
                frame.step += 1;
                match self.color[fanin.node().index()] {
                    BLACK => {}
                    GREY => {
                        // Cycle: unwind the whole active path to white.
                        for f in stack.drain(..) {
                            self.color[f.node.index()] = WHITE;
                        }
                        return None;
                    }
                    _ => {
                        self.color[fanin.node().index()] = GREY;
                        stack.push(Frame {
                            node: fanin.node(),
                            step: 0,
                        });
                        continue 'outer;
                    }
                }
            }
            // Realize the members of this class (if any) before building the
            // representative node, so every alternative precedes it. A member
            // whose cone reaches back into the (grey) representative is a
            // class-level cycle and is dropped.
            if let Some(&ci) = self.class_index.get(&id) {
                while frame.step - 2 < self.src_classes[ci].1.len() {
                    let member = self.src_classes[ci].1[frame.step - 2];
                    frame.step += 1;
                    if member.node() == id {
                        continue; // the representative itself
                    }
                    match self.visit(member.node()) {
                        Some(lit) => {
                            // Member convention: the stored literal evaluates
                            // to the class function.
                            self.fresh_members[ci].push(lit.xor(member.is_complemented()));
                        }
                        None => self.stats.dropped_cyclic += 1,
                    }
                }
            }
            let a = self.built[fanins[0].node().index()]
                .unwrap_or_else(|| unreachable!("fanin built"))
                .xor(fanins[0].is_complemented());
            let b = self.built[fanins[1].node().index()]
                .unwrap_or_else(|| unreachable!("fanin built"))
                .xor(fanins[1].is_complemented());
            self.built[id.index()] = Some(self.fresh.and(a, b));
            self.color[id.index()] = BLACK;
            stack.pop();
        }
        self.built[start.index()]
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
    fn from_classes_establishes_invariants() {
        let (aig, f1, f2) = two_shapes();
        // f1 = !n (or is complemented and); its AND node equals !f1.
        let classes = vec![vec![Lit::new(f1.node(), false), Lit::new(f2.node(), true)]];
        let (choices, stats) = ChoiceAig::from_network_with_classes(&aig, &classes).unwrap();
        assert_eq!(stats.classes, 1);
        assert_eq!(stats.alternatives, 1);
        assert_eq!(choices.num_classes(), 1);
        let report = audit_choices(&choices, ::audit::AuditLevel::Paranoid);
        assert!(report.is_clean(), "{report}");
        // The representative cone must still compute (a & b) | c.
        let repr = choices.repr_network();
        for p in 0..8usize {
            let bits = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            let expected = (bits[0] && bits[1]) || bits[2];
            assert_eq!(repr.evaluate(&bits), vec![expected], "pattern {p}");
        }
    }

    #[test]
    fn duplicate_structure_members_are_dropped() {
        let (aig, f1, _) = two_shapes();
        // A "class" whose member is the representative itself adds nothing.
        let classes = vec![vec![Lit::new(f1.node(), false), Lit::new(f1.node(), false)]];
        let (choices, stats) = ChoiceAig::from_network_with_classes(&aig, &classes).unwrap();
        assert_eq!(choices.num_classes(), 0);
        assert_eq!(stats.classes, 0);
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

    #[test]
    fn representative_containing_its_member_is_a_typed_error() {
        // The representative's own cone contains the member; substituting the
        // member by the representative makes the output cone cyclic. This
        // must surface as a typed error, not a panic.
        let mut aig = Aig::new("selfcycle");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let m = aig.and(a, b);
        let x = aig.or(m, b);
        let r = aig.and(m, x); // r's cone contains m
        aig.add_output(r, "f");
        let classes = vec![vec![Lit::new(r.node(), false), Lit::new(m.node(), false)]];
        let err = ChoiceAig::from_network_with_classes(&aig, &classes).unwrap_err();
        assert!(matches!(err, ChoiceError::OrderingViolation(_)), "{err}");
    }

    #[test]
    fn cyclic_member_realization_is_dropped() {
        // m = and(r, x) is (contrived) "equivalent" to r when x ⊇ r; a class
        // {r, m} cannot realize m without passing through r, so the rebuild
        // must drop it rather than loop.
        let mut aig = Aig::new("cyc");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let r = aig.and(a, b);
        let x = aig.or(r, b); // r implies x, so and(r, x) == r
        let m = aig.and(r, x);
        aig.add_output(m, "f");
        let classes = vec![vec![Lit::new(r.node(), false), Lit::new(m.node(), false)]];
        let (choices, stats) = ChoiceAig::from_network_with_classes(&aig, &classes).unwrap();
        assert_eq!(stats.dropped_cyclic, 1);
        assert_eq!(choices.num_classes(), 0);
        // The output must still be correct (m realized through r's class? No:
        // m is substituted by r).
        for p in 0..4usize {
            let bits = [(p & 1) != 0, (p & 2) != 0];
            assert_eq!(
                choices.aig().evaluate(&bits),
                vec![bits[0] && bits[1]],
                "pattern {p}"
            );
        }
    }
}
