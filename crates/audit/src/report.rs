//! The diagnostic model: rule identifiers, severities, diagnostics and the
//! report that aggregates them.

use std::fmt;

/// Identifies one auditable invariant. Every checker in the catalog owns
/// exactly one `RuleId`, and every diagnostic it emits carries it, so a
/// mutation test can corrupt a structure and assert that precisely the
/// expected rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RuleId {
    // ---- AIG ----
    /// Every fanin literal of an AND references an existing node.
    AigFaninRange,
    /// Fanins reference strictly smaller node ids (creation order is
    /// topological, so this subsumes acyclicity: a cycle in the id-indexed
    /// node array would need at least one forward edge).
    AigTopoOrder,
    /// AND fanins are stored in normalized order (`fanin0.raw() <= fanin1.raw()`).
    AigFaninOrder,
    /// No two ANDs share the same normalized fanin pair (structural-hash
    /// consistency: strash must have deduplicated them).
    AigDuplicateAnd,
    /// An AND has identical or complementary fanins and should have been
    /// simplified away (warning).
    AigTrivialAnd,
    /// An AND is reachable from no primary output (warning; suppressed for
    /// choice-network members, which dangle by design).
    AigDanglingAnd,

    // ---- EGraph ----
    /// The dirty worklists are empty (the e-graph has been rebuilt).
    EgraphDirty,
    /// Every class in the class map is keyed canonically, records its own
    /// id, and is non-empty; the dense class store holds a live slot for
    /// exactly the canonical ids.
    EgraphCanonicalClass,
    /// Every node stored in a rebuilt class has canonical children.
    EgraphCanonicalChildren,
    /// Congruence closure: two nodes with equal canonical forms live in the
    /// same class.
    EgraphCongruence,
    /// Hashcons consistency: every class node is present in the memo and
    /// maps back to its owning class; canonical memo entries appear in the
    /// class they name.
    EgraphHashcons,
    /// Parent lists cover every child→user edge found by a full scan.
    EgraphParents,
    /// The operator index covers every (op, class) pair of the live nodes,
    /// and each class's operator signature covers the operators it holds.
    EgraphOpIndex,
    /// The live-node counter matches the summed class sizes.
    EgraphNodeCount,
    /// Union-find sanity: parent chains terminate within a step budget,
    /// parent slots are in range, and root sizes match counted members.
    EgraphUnionFind,

    // ---- ChoiceAig ----
    /// Each choice class stores its representative last-created (every
    /// alternative has a smaller node id than the representative).
    ChoiceReprLast,
    /// Every choice-class member literal references an AND node in range.
    ChoiceMemberValid,
    /// No node appears in one class with both phases.
    ChoicePhaseConflict,
    /// No node appears twice in the same class or across classes.
    ChoiceDuplicateMember,
    /// Exhaustive simulation: every member is logically equivalent to its
    /// representative (expensive; skipped above 16 inputs).
    ChoiceMemberEquiv,

    // ---- Netlist ----
    /// Covers are legal: gate roots are distinct AND nodes, leaves are in
    /// range, and gates appear in topological (ascending root id) order.
    NetlistCoverLegal,
    /// Every fanin resolves: gate leaves that are AND nodes are themselves
    /// mapped, and output drivers reference mapped nodes or primary inputs.
    NetlistFaninResolved,
    /// Timing annotations are consistent: an independent arrival recompute
    /// matches the stored `arrival_ps_of` exactly, and required times are
    /// not earlier than arrivals.
    NetlistTiming,

    // ---- SAT solver ----
    /// Every live long clause is watched exactly twice — on its first two
    /// literals — with blockers that are members of the clause; binary watch
    /// lists are symmetric and sum to twice the binary-clause count.
    SatWatchInvariant,
    /// Trail consistency: every trail literal is assigned true at the level
    /// of its trail segment, no variable appears twice, and `qhead` /
    /// `trail_lim` are within bounds.
    SatTrailConsistent,
    /// The activity heap's position index agrees with the heap array, every
    /// unassigned variable is present, and the max-heap property holds.
    SatHeapIndex,
    /// Every live learnt long clause stores an LBD between 1 and its length.
    SatLbdBounds,

    // ---- Windowed saturation ----
    /// Every AND gate of the host AIG belongs to at least one window volume.
    WindowCoverage,
    /// Window leaves form a true cut: the root is interior and unique to its
    /// window, interior fanins stay in `volume ∪ leaves ∪ {constant}`, no
    /// leaf is interior, and the extracted cone matches the cut.
    WindowLeafCut,
    /// The stitch translation table maps every boundary literal (window
    /// leaves and roots, host inputs and output drivers).
    WindowStitchTable,
    /// The stitched global choice network's AIG passes the structural DAG
    /// catalog.
    WindowChoiceDag,

    /// The rule of a checker outside the shipped catalogs.
    Custom(&'static str),
}

impl RuleId {
    /// Stable kebab-case name used by the CLI and report rendering.
    pub fn name(&self) -> &'static str {
        match self {
            RuleId::AigFaninRange => "aig-fanin-range",
            RuleId::AigTopoOrder => "aig-topo-order",
            RuleId::AigFaninOrder => "aig-fanin-order",
            RuleId::AigDuplicateAnd => "aig-duplicate-and",
            RuleId::AigTrivialAnd => "aig-trivial-and",
            RuleId::AigDanglingAnd => "aig-dangling-and",
            RuleId::EgraphDirty => "egraph-dirty",
            RuleId::EgraphCanonicalClass => "egraph-canonical-class",
            RuleId::EgraphCanonicalChildren => "egraph-canonical-children",
            RuleId::EgraphCongruence => "egraph-congruence",
            RuleId::EgraphHashcons => "egraph-hashcons",
            RuleId::EgraphParents => "egraph-parents",
            RuleId::EgraphOpIndex => "egraph-op-index",
            RuleId::EgraphNodeCount => "egraph-node-count",
            RuleId::EgraphUnionFind => "egraph-unionfind",
            RuleId::ChoiceReprLast => "choice-repr-last",
            RuleId::ChoiceMemberValid => "choice-member-valid",
            RuleId::ChoicePhaseConflict => "choice-phase-conflict",
            RuleId::ChoiceDuplicateMember => "choice-duplicate-member",
            RuleId::ChoiceMemberEquiv => "choice-member-equiv",
            RuleId::NetlistCoverLegal => "netlist-cover-legal",
            RuleId::NetlistFaninResolved => "netlist-fanin-resolved",
            RuleId::NetlistTiming => "netlist-timing",
            RuleId::SatWatchInvariant => "sat-watch-invariant",
            RuleId::SatTrailConsistent => "sat-trail-consistent",
            RuleId::SatHeapIndex => "sat-heap-index",
            RuleId::SatLbdBounds => "sat-lbd-bounds",
            RuleId::WindowCoverage => "window-coverage",
            RuleId::WindowLeafCut => "window-leaf-cut",
            RuleId::WindowStitchTable => "window-stitch-table",
            RuleId::WindowChoiceDag => "window-choice-dag",
            RuleId::Custom(name) => name,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not a correctness violation (e.g. a dangling AND).
    Warning,
    /// A broken invariant: the artifact must not cross a phase boundary.
    Error,
}

/// How expensive a checker is, deciding which [`AuditLevel`] runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckCost {
    /// Linear-ish in the artifact size; runs at `PhaseBoundaries` and above.
    Cheap,
    /// Super-linear or simulation-based; runs only at `Paranoid`.
    Expensive,
}

/// How much auditing the flows perform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditLevel {
    /// No auditing (the default; zero overhead).
    #[default]
    Off,
    /// Run the [`CheckCost::Cheap`] checkers after each flow phase.
    PhaseBoundaries,
    /// Run every checker, including exhaustive-simulation ones.
    Paranoid,
}

impl AuditLevel {
    /// Whether a checker of the given cost runs at this level.
    pub fn runs(&self, cost: CheckCost) -> bool {
        match self {
            AuditLevel::Off => false,
            AuditLevel::PhaseBoundaries => cost == CheckCost::Cheap,
            AuditLevel::Paranoid => true,
        }
    }
}

/// One finding: a violated (or suspicious) invariant at a location.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// Where in the artifact (node id, class id, clause index, …), prefixed
    /// with the flow phase when reports are absorbed across phases.
    pub location: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{tag}[{}] {}: {}",
            self.rule, self.location, self.message
        )
    }
}

/// Aggregated result of running a set of checkers over an artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every finding, in checker order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of checkers that ran (so "clean" can be told from "skipped").
    pub checks_run: usize,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finding.
    pub fn push(
        &mut self,
        rule: RuleId,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            location: location.into(),
            message: message.into(),
        });
    }

    /// `true` when no diagnostics were emitted at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when no [`Severity::Error`] diagnostics were emitted
    /// (warnings allowed).
    pub fn has_no_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// The distinct rules that fired, sorted (mutation tests assert on this).
    pub fn fired_rules(&self) -> Vec<RuleId> {
        let mut rules: Vec<RuleId> = self.diagnostics.iter().map(|d| d.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    }

    /// Merges `other` into `self`, prefixing each absorbed location with
    /// `phase` so flow-level reports say which boundary a finding crossed.
    pub fn absorb(&mut self, phase: &str, other: AuditReport) {
        self.checks_run += other.checks_run;
        for mut diag in other.diagnostics {
            diag.location = format!("{phase}: {}", diag.location);
            self.diagnostics.push(diag);
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean ({} checks)", self.checks_run);
        }
        writeln!(
            f,
            "{} diagnostic(s) from {} checks:",
            self.diagnostics.len(),
            self.checks_run
        )?;
        for diag in &self.diagnostics {
            writeln!(f, "  {diag}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_prefixes_locations_and_sums_checks() {
        let mut inner = AuditReport::new();
        inner.checks_run = 3;
        inner.push(
            RuleId::AigTopoOrder,
            Severity::Error,
            "node 7",
            "forward fanin",
        );
        let mut outer = AuditReport::new();
        outer.checks_run = 1;
        outer.absorb("extract", inner);
        assert_eq!(outer.checks_run, 4);
        assert_eq!(outer.diagnostics[0].location, "extract: node 7");
        assert!(!outer.is_clean());
        assert_eq!(outer.fired_rules(), vec![RuleId::AigTopoOrder]);
    }

    #[test]
    fn levels_gate_costs() {
        assert!(!AuditLevel::Off.runs(CheckCost::Cheap));
        assert!(AuditLevel::PhaseBoundaries.runs(CheckCost::Cheap));
        assert!(!AuditLevel::PhaseBoundaries.runs(CheckCost::Expensive));
        assert!(AuditLevel::Paranoid.runs(CheckCost::Expensive));
    }

    #[test]
    fn warnings_do_not_count_as_errors() {
        let mut report = AuditReport::new();
        report.push(
            RuleId::AigDanglingAnd,
            Severity::Warning,
            "node 3",
            "dangling",
        );
        assert!(!report.is_clean());
        assert!(report.has_no_errors());
        assert_eq!(report.num_errors(), 0);
    }
}
