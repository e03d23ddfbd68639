//! SAT sweeping (fraig-style): detect and merge functionally equivalent
//! internal nodes of an AIG. This is the engine behind the `dch`-style
//! structural choice computation in `logic-opt` and behind
//! [`crate::check_equivalence_swept`].
//!
//! # The engine
//!
//! **Candidates.** Bit-parallel random simulation groups the AND nodes (and
//! the constant) by signature up to complement. Each group is a *candidate
//! class*; its lowest-id member is the representative. Only a proof ever
//! merges anything — simulation merely proposes.
//!
//! **Walk order.** The nodes are visited once, in id (= topological) order.
//! A non-representative candidate is queried against its class
//! representative *when the walk reaches it* — its class is read at that
//! moment, after every split so far — so by then every node of its fanin
//! cone has been queried and, if equivalent to something earlier, merged.
//! Two restructurings of one function therefore meet as small local
//! problems over already-shared fanins instead of as two unrelated cones.
//!
//! **`repr`.** `repr[n]` is the literal node `n` has been *proved* equal
//! to: the class representative (with the member's phase) once a proof
//! succeeded, `n` itself otherwise. It is the only record of a merge: the
//! CNF, the window proofs and the returned classes all read it, and nothing
//! but a proof writes it — a refutation or an exhausted budget leaves
//! `repr[n] = n` and adds no clause.
//!
//! **Window proofs.** Before any SAT call the pair is tried on a small
//! window: starting from the two roots, the largest-id node of the frontier
//! is expanded through its canonical (`repr`) fanins, up to
//! [`WINDOW_INNER`] inner nodes, and whenever the frontier has at most
//! [`WINDOW_LEAVES`] leaves the two roots' truth tables *over the leaves*
//! are compared. Equal for every leaf value implies equal for every input
//! value, so equality counts as proved. The test is one-sided: the leaves
//! are internal nodes, not free variables, so a leaf assignment on which the
//! tables differ may be unreachable from the inputs. A mismatch proves
//! nothing and the pair goes to SAT.
//!
//! **Lazy, merged CNF.** One incremental solver serves the whole sweep, but
//! a node gets a variable only when a query needs its cone
//! ([`ConeCnf::load`]), and the cone is encoded over canonical fanins, so
//! merged logic never enters the formula. After a SAT proof the two (now
//! loaded) roots are tied with `a ↔ b` clauses.
//!
//! **Cone-scoped queries.** Every query is a [`Solver::solve_within`] over
//! the pair's own cone ([`ConeCnf::scope`]): the variables of both loaded
//! cones, walked over the same canonical fanins they were encoded with. The
//! solver decides only on those variables and propagates no implication out
//! of them above level 0, so the rest of the loaded formula — other cones,
//! their fanout, the ties — costs the query nothing. That set is
//! fanin-closed, and every clause outside it defines a gate outside it or is
//! implied (a learnt clause, a tie between proved-equal nodes), which is the
//! contract under which a scoped `Sat` answer extends to a model.
//!
//! **Counterexamples.** A `Sat` answer assigns only the pair's cone.
//! Primary inputs outside it cannot influence either root, so the model is
//! completed by reading every input without a value as `false`; the
//! completed pattern is resimulated through the *original* network
//! ([`Aig::evaluate_nodes`]) and must separate the pair. The pattern then
//! splits every candidate class, ABC-fraig style: in each class the members
//! the walk has not reached yet that disagree with the representative move
//! to a class of their own (members already passed stay where they are —
//! their verdict is in), so one refuted pair prunes every candidate pair the
//! pattern distinguishes without further SAT calls.

use crate::tseitin::{canonical, ConeCnf};
use aig::{Aig, AigNode, FxHashMap, Lit as ALit, NodeId, Simulator};
use sat::{Lit as SLit, SatResult, Solver, Var};
use std::collections::BTreeMap;

/// Most inner nodes a window proof expands before giving up.
const WINDOW_INNER: usize = 64;
/// Most frontier leaves a window proof builds truth tables over.
const WINDOW_LEAVES: usize = 8;
/// Seed of the candidate simulation.
const SIM_SEED: u64 = 0x5EED;
/// Candidate classes larger than this are skipped (guards worst-case blowup).
const MAX_CLASS_SIZE: usize = 64;

/// Options controlling a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Number of 64-bit random simulation words used to form candidates.
    pub sim_words: usize,
    /// Conflict budget per SAT proof (`None` = unlimited).
    pub conflict_budget: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            sim_words: 8,
            conflict_budget: Some(crate::DEFAULT_CONFLICT_BUDGET),
        }
    }
}

/// Statistics of a sweep run. Every queried pair ends in exactly one
/// verdict, so `proved + disproved + unknown == sat_calls + window_proofs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of candidate pairs submitted to SAT.
    pub sat_calls: usize,
    /// Pairs closed by a window truth-table comparison, without SAT.
    pub window_proofs: usize,
    /// Pairs proved equivalent (by SAT or by a window).
    pub proved: usize,
    /// Pairs refuted.
    pub disproved: usize,
    /// Pairs abandoned due to the conflict budget.
    pub unknown: usize,
    /// AND nodes removed by merging (in [`SatSweeper::sweep`]).
    pub merged_nodes: usize,
    /// Counterexample patterns resimulated for class refinement.
    pub resimulations: usize,
    /// Candidate members moved out of their class by a counterexample
    /// (each avoided at least one SAT call).
    pub cex_splits: usize,
    /// AIG nodes (constant, inputs, ANDs) that were given a SAT variable.
    pub cnf_nodes_loaded: usize,
    /// Unit propagations the sweep's solver performed.
    pub propagations: u64,
}

/// Groups of functionally equivalent literals.
///
/// Each class lists literals that are pairwise equivalent; the first entry is
/// the representative (topologically earliest, uncomplemented). Other entries
/// are expressed relative to it: a complemented literal means the node equals
/// the *negation* of the representative.
#[derive(Debug, Clone, Default)]
pub struct EquivClasses {
    /// The proved equivalence classes (each with at least two members).
    pub classes: Vec<Vec<ALit>>,
}

impl EquivClasses {
    /// Total number of non-representative members (i.e. mergeable nodes).
    pub fn num_redundant(&self) -> usize {
        self.classes.iter().map(|c| c.len().saturating_sub(1)).sum()
    }
}

/// SAT sweeping engine.
#[derive(Debug, Clone, Default)]
pub struct SatSweeper {
    /// Options used by this sweeper.
    pub options: SweepOptions,
}

impl SatSweeper {
    /// Creates a sweeper with the given options.
    pub fn new(options: SweepOptions) -> Self {
        SatSweeper { options }
    }

    /// Finds proved equivalence classes among the nodes of `aig`: one walk
    /// in topological order, each candidate tried on a window and then on
    /// the lazily loaded CNF (see the module documentation).
    pub fn find_equivalences(&self, aig: &Aig) -> (EquivClasses, SweepStats) {
        let mut stats = SweepStats::default();
        let Some(mut candidates) = Candidates::from_simulation(aig, &self.options) else {
            return (EquivClasses::default(), stats);
        };

        let mut solver = Solver::new();
        solver.set_conflict_budget(self.options.conflict_budget);
        let mut cnf = ConeCnf::new(aig);
        let mut window = Window::new(aig);
        let mut repr: Vec<ALit> = aig.node_ids().map(NodeId::lit).collect();

        for id in aig.node_ids() {
            let Some((rep, phase)) = candidates.query_of(id) else {
                continue;
            };
            if window.proves_equal(aig, &repr, rep, id, phase) {
                stats.window_proofs += 1;
                stats.proved += 1;
                repr[id.index()] = ALit::new(rep, phase);
                continue;
            }
            let a = cnf.load(&mut solver, aig, &repr, rep);
            let b = cnf.load(&mut solver, aig, &repr, id);
            let b = if phase { !b } else { b };
            let scope = cnf.scope(aig, &repr, [rep, id]);
            match prove_equal(&mut solver, a, b, scope, &mut stats) {
                Verdict::Equal => {
                    repr[id.index()] = ALit::new(rep, phase);
                    solver.add_clause(&[!a, b]);
                    solver.add_clause(&[a, !b]);
                }
                Verdict::Unknown => {}
                Verdict::Different => {
                    // Inputs outside the pair's cone have no value and
                    // cannot influence either root: read them as false.
                    let pattern: Vec<bool> = aig
                        .inputs()
                        .iter()
                        .map(|&i| cnf.get(i).and_then(|l| solver.value(l)).unwrap_or(false))
                        .collect();
                    let values = aig.evaluate_nodes(&pattern);
                    stats.resimulations += 1;
                    // If the pattern did not separate the pair, `id` would
                    // stay in its class, passed by the walk and unproved.
                    debug_assert_ne!(
                        values[rep.index()],
                        values[id.index()] ^ phase,
                        "the completed SAT model must separate the refuted pair"
                    );
                    stats.cex_splits += candidates.refine(&values, id);
                }
            }
        }
        stats.cnf_nodes_loaded = cnf.loaded();
        stats.propagations = solver.stats().propagations;

        // `repr` is the whole result: members in id order under their
        // representative, classes in representative order.
        let mut classes: BTreeMap<NodeId, Vec<ALit>> = BTreeMap::new();
        for id in aig.node_ids() {
            let rep = repr[id.index()];
            if rep.node() != id {
                classes
                    .entry(rep.node())
                    .or_insert_with(|| vec![rep.node().lit()])
                    .push(ALit::new(id, rep.is_complemented()));
            }
        }
        (
            EquivClasses {
                classes: classes.into_values().collect(),
            },
            stats,
        )
    }

    /// Merges proved-equivalent nodes, returning the reduced network.
    pub fn sweep(&self, aig: &Aig) -> (Aig, SweepStats) {
        let (classes, mut stats) = self.find_equivalences(aig);
        // replacement[node] = literal (in the OLD network) it should be
        // replaced with.
        let mut replacement: Vec<Option<ALit>> = vec![None; aig.num_nodes()];
        for class in &classes.classes {
            let rep = class[0];
            for &member in &class[1..] {
                replacement[member.node().index()] =
                    Some(ALit::new(rep.node(), member.is_complemented()));
            }
        }

        // A replaced node points at its representative, which precedes it in
        // topological order and so is already built, instead of a gate.
        let (fresh, _) = aig.rebuild(|fresh, id, view| match replacement[id.index()] {
            Some(rep_lit) => {
                stats.merged_nodes += 1;
                view.lit(rep_lit)
            }
            None => view.copy_gate(fresh, id),
        });
        (fresh.cleanup(), stats)
    }
}

enum Verdict {
    Equal,
    Different,
    Unknown,
}

/// Decides `a == b` with two queries scoped to `scope`, the pair's cone.
fn prove_equal(
    solver: &mut Solver,
    a: SLit,
    b: SLit,
    scope: &[Var],
    stats: &mut SweepStats,
) -> Verdict {
    stats.sat_calls += 1;
    let mut unknown = false;
    for (pa, pb) in [(true, false), (false, true)] {
        let assumptions = [if pa { a } else { !a }, if pb { b } else { !b }];
        match solver.solve_within(&assumptions, scope) {
            SatResult::Sat => {
                stats.disproved += 1;
                return Verdict::Different;
            }
            SatResult::Unknown => unknown = true,
            SatResult::Unsat => {}
        }
    }
    if unknown {
        stats.unknown += 1;
        Verdict::Unknown
    } else {
        stats.proved += 1;
        Verdict::Equal
    }
}

/// The candidate equivalence classes proposed by simulation, refined by
/// counterexamples as the walk proceeds.
struct Candidates {
    /// Members in ascending node order; the complement bit is the phase of
    /// the node's simulation signature, so two members are candidates for
    /// `x == y ^ (phase_x != phase_y)`. `classes[c][0]` is the representative.
    classes: Vec<Vec<ALit>>,
    /// Node index → index into `classes`, [`Candidates::NONE`] if the node
    /// is in no class.
    class_of: Vec<u32>,
}

impl Candidates {
    const NONE: u32 = u32::MAX;

    /// Groups the AND and constant nodes of `aig` by random-simulation
    /// signature up to complement. `None` if no group has two members.
    fn from_simulation(aig: &Aig, options: &SweepOptions) -> Option<Self> {
        if aig.num_inputs() == 0 {
            return None;
        }
        let sim = Simulator::random(aig, options.sim_words, SIM_SEED);
        // Canonical signature: complemented so that bit 0 is 0.
        let mut groups: FxHashMap<Vec<u64>, Vec<ALit>> = FxHashMap::default();
        for id in aig.node_ids() {
            if matches!(aig.node(id), AigNode::Input { .. }) {
                continue;
            }
            let sig = sim.node_signature(id);
            let complemented = sig.first().is_some_and(|w| w & 1 == 1);
            let canon: Vec<u64> = if complemented {
                sig.iter().map(|w| !w).collect()
            } else {
                sig.clone()
            };
            // Ids ascend, so every group is already in node order.
            groups
                .entry(canon)
                .or_default()
                .push(ALit::new(id, complemented));
        }
        let mut classes: Vec<Vec<ALit>> = groups
            .into_values()
            .filter(|g| g.len() >= 2 && g.len() <= MAX_CLASS_SIZE)
            .collect();
        if classes.is_empty() {
            return None;
        }
        // Hash order is arbitrary; class order must not be.
        classes.sort_by_key(|c| c[0].node());
        let mut class_of = vec![Self::NONE; aig.num_nodes()];
        for (c, class) in classes.iter().enumerate() {
            for member in class {
                class_of[member.node().index()] = c as u32;
            }
        }
        Some(Candidates { classes, class_of })
    }

    /// The query the walk owes `node`: its class representative and the
    /// phase under which the two are candidates (`node == rep ^ phase`).
    /// `None` for a node in no class and for a representative.
    fn query_of(&self, node: NodeId) -> Option<(NodeId, bool)> {
        let class = self.classes.get(self.class_of[node.index()] as usize)?;
        let rep = class[0];
        if rep.node() == node {
            return None;
        }
        let member = class[class
            .binary_search_by_key(&node, |m| m.node())
            .unwrap_or_else(|_| unreachable!("class_of points at the class holding the node"))];
        Some((
            rep.node(),
            member.is_complemented() != rep.is_complemented(),
        ))
    }

    /// Splits every class on one simulated pattern (`values[n]` = value of
    /// node `n`): members at or after `from` — those the walk has not passed
    /// — that disagree with their representative leave the class, together
    /// as a new class if there are at least two of them. Returns the number
    /// of members moved. Sound for any pattern: nodes that differ on some
    /// input are not equivalent.
    fn refine(&mut self, values: &[bool], from: NodeId) -> usize {
        let value = |m: ALit| values[m.node().index()] ^ m.is_complemented();
        let mut moved_total = 0;
        // Classes appended below already agree on the pattern.
        for c in 0..self.classes.len() {
            let class = &mut self.classes[c];
            let rep_value = value(class[0]);
            let start = class.partition_point(|m| m.node() < from);
            if class[start..].iter().all(|&m| value(m) == rep_value) {
                continue;
            }
            let (kept, moved): (Vec<ALit>, Vec<ALit>) =
                class.drain(start..).partition(|&m| value(m) == rep_value);
            class.extend(kept);
            moved_total += moved.len();
            let target = if moved.len() >= 2 {
                self.classes.len() as u32
            } else {
                Self::NONE
            };
            for member in &moved {
                self.class_of[member.node().index()] = target;
            }
            if moved.len() >= 2 {
                self.classes.push(moved);
            }
        }
        moved_total
    }
}

/// A truth table over [`WINDOW_LEAVES`] variables.
type TruthTable = [u64; 4];

/// `LEAF_TABLES[i]` is the truth table of variable `i`.
const LEAF_TABLES: [TruthTable; WINDOW_LEAVES] = [
    [0xAAAA_AAAA_AAAA_AAAA; 4],
    [0xCCCC_CCCC_CCCC_CCCC; 4],
    [0xF0F0_F0F0_F0F0_F0F0; 4],
    [0xFF00_FF00_FF00_FF00; 4],
    [0xFFFF_0000_FFFF_0000; 4],
    [0xFFFF_FFFF_0000_0000; 4],
    [0, u64::MAX, 0, u64::MAX],
    [0, 0, u64::MAX, u64::MAX],
];

/// Scratch space of the window proofs (see the module documentation),
/// allocated once per sweep.
struct Window {
    /// AND nodes on the frontier, ascending, so the next to expand is last.
    open: Vec<NodeId>,
    /// Primary inputs on the frontier: leaves that can never be expanded.
    inputs: Vec<NodeId>,
    /// Expanded nodes, in expansion (= descending id) order.
    inner: Vec<NodeId>,
    /// Node index → index into `tables`; valid for the window's nodes only.
    slot: Vec<u32>,
    tables: Vec<TruthTable>,
}

impl Window {
    fn new(aig: &Aig) -> Self {
        Window {
            open: Vec::new(),
            inputs: Vec::new(),
            inner: Vec::new(),
            slot: vec![0; aig.num_nodes()],
            tables: Vec::with_capacity(WINDOW_LEAVES + WINDOW_INNER),
        }
    }

    /// Tries to prove `b == a ^ phase` on a window around the two nodes.
    /// `true` is a proof; `false` says nothing.
    fn proves_equal(
        &mut self,
        aig: &Aig,
        repr: &[ALit],
        a: NodeId,
        b: NodeId,
        phase: bool,
    ) -> bool {
        self.open.clear();
        self.inputs.clear();
        self.inner.clear();
        self.reach(aig, a);
        self.reach(aig, b);
        while self.inner.len() < WINDOW_INNER {
            // Largest id first: every window node that reads `top` has
            // been expanded already, and `top` is never reached again.
            let Some(top) = self.open.pop() else {
                break;
            };
            self.inner.push(top);
            let (f0, f1) = aig.fanins(top);
            self.reach(aig, canonical(repr, f0).node());
            self.reach(aig, canonical(repr, f1).node());
            if self.open.len() + self.inputs.len() <= WINDOW_LEAVES
                && self.tables_agree(aig, repr, a, b, phase)
            {
                return true;
            }
        }
        false
    }

    /// Puts `node` on the frontier unless it is the constant or already there.
    fn reach(&mut self, aig: &Aig, node: NodeId) {
        match aig.node(node) {
            AigNode::Const => {}
            AigNode::Input { .. } => {
                if !self.inputs.contains(&node) {
                    self.inputs.push(node);
                }
            }
            AigNode::And { .. } => {
                if let Err(at) = self.open.binary_search(&node) {
                    self.open.insert(at, node);
                }
            }
        }
    }

    /// Compares the truth tables of `a ^ phase` and `b` over the frontier.
    fn tables_agree(
        &mut self,
        aig: &Aig,
        repr: &[ALit],
        a: NodeId,
        b: NodeId,
        phase: bool,
    ) -> bool {
        self.tables.clear();
        for &leaf in self.inputs.iter().chain(&self.open) {
            self.slot[leaf.index()] = self.tables.len() as u32;
            self.tables.push(LEAF_TABLES[self.tables.len()]);
        }
        // Ascending ids: canonical fanins are leaves or earlier inner nodes.
        for &node in self.inner.iter().rev() {
            let (f0, f1) = aig.fanins(node);
            let t0 = self.table_of(canonical(repr, f0));
            let t1 = self.table_of(canonical(repr, f1));
            self.slot[node.index()] = self.tables.len() as u32;
            self.tables.push(std::array::from_fn(|w| t0[w] & t1[w]));
        }
        self.table_of(ALit::new(a, phase)) == self.table_of(b.lit())
    }

    fn table_of(&self, lit: ALit) -> TruthTable {
        let base = if lit.node() == NodeId::CONST {
            [0; 4]
        } else {
            self.tables[self.slot[lit.node().index()] as usize]
        };
        if lit.is_complemented() {
            base.map(|w| !w)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_equivalence, CecOptions};

    /// A circuit with deliberately duplicated logic in different shapes:
    /// `(a & b) | c` written both in sum-of-products and product-of-sums
    /// form, so structural hashing cannot merge the two cones.
    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new("redundant");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let f1 = aig.or(ab, c);
        let a_or_c = aig.or(a, c);
        let b_or_c = aig.or(b, c);
        let f2 = aig.and(a_or_c, b_or_c); // distributed form of (a & b) | c
        aig.add_output(f1, "f1");
        aig.add_output(f2, "f2");
        aig
    }

    #[test]
    fn finds_equivalent_nodes() {
        let aig = redundant_circuit();
        let sweeper = SatSweeper::default();
        let (classes, stats) = sweeper.find_equivalences(&aig);
        assert!(classes.num_redundant() >= 1, "stats: {stats:?}");
        assert!(stats.proved >= 1);
    }

    #[test]
    fn sweep_reduces_and_preserves_function() {
        let aig = redundant_circuit();
        let sweeper = SatSweeper::default();
        let (reduced, stats) = sweeper.sweep(&aig);
        assert!(stats.merged_nodes >= 1);
        assert!(reduced.num_ands() < aig.num_ands());
        let res = check_equivalence(&aig, &reduced, &CecOptions::default());
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn sweep_handles_antiphase_equivalence() {
        let mut aig = Aig::new("phase");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // x = !(a & b), y = a & b: x == !y.
        let y = aig.and(a, b);
        let na = a.not();
        let nb = b.not();
        let t = aig.or(na, nb); // == !(a&b)
        aig.add_output(y, "y");
        aig.add_output(t, "x");
        let sweeper = SatSweeper::default();
        let (reduced, _) = sweeper.sweep(&aig);
        let res = check_equivalence(&aig, &reduced, &CecOptions::default());
        assert!(res.is_equivalent());
        assert!(reduced.num_ands() <= aig.num_ands());
    }

    #[test]
    fn sweep_of_irredundant_circuit_is_identity_sized() {
        let mut aig = Aig::new("irred");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.mux(a, b, c);
        aig.add_output(f, "f");
        let sweeper = SatSweeper::default();
        let (reduced, _) = sweeper.sweep(&aig);
        assert_eq!(reduced.num_ands(), aig.cleanup().num_ands());
        assert!(check_equivalence(&aig, &reduced, &CecOptions::default()).is_equivalent());
    }

    #[test]
    fn detects_constant_nodes() {
        let mut aig = Aig::new("const");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // (a & b) & (!a) is constant false but is not simplified structurally
        // because the sharing pattern hides it:
        let ab = aig.and(a, b);
        let f = aig.and(ab, a.not());
        let g = aig.or(f, b); // == b
        aig.add_output(g, "g");
        let sweeper = SatSweeper::default();
        let (classes, _) = sweeper.find_equivalences(&aig);
        // The class containing the constant node should include f's node.
        let has_const_class = classes
            .classes
            .iter()
            .any(|c| c.iter().any(|l| l.node() == aig::NodeId::CONST));
        assert!(has_const_class);
        let (reduced, _) = sweeper.sweep(&aig);
        assert!(check_equivalence(&aig, &reduced, &CecOptions::default()).is_equivalent());
    }

    /// XOR of `inputs` associated from the left or from the right: one
    /// function, two cones that share nothing but the inputs.
    fn xor_chains(width: usize) -> (Aig, ALit, ALit) {
        let mut aig = Aig::new("xor_chains");
        let x: Vec<ALit> = (0..width).map(|i| aig.add_input(format!("x{i}"))).collect();
        let left = x[1..].iter().fold(x[0], |acc, &xi| aig.xor(acc, xi));
        let right = x[..width - 1]
            .iter()
            .rev()
            .fold(x[width - 1], |acc, &xi| aig.xor(xi, acc));
        aig.add_output(left, "left");
        aig.add_output(right, "right");
        (aig, left, right)
    }

    fn identity_repr(aig: &Aig) -> Vec<ALit> {
        aig.node_ids().map(NodeId::lit).collect()
    }

    #[test]
    fn window_proves_small_cones_and_gives_up_on_wide_ones() {
        // Eight inputs fit the window's leaves: the truth tables decide.
        let (aig, left, right) = xor_chains(WINDOW_LEAVES);
        let phase = left.is_complemented() != right.is_complemented();
        let mut window = Window::new(&aig);
        let repr = identity_repr(&aig);
        assert!(window.proves_equal(&aig, &repr, left.node(), right.node(), phase));
        assert!(!window.proves_equal(&aig, &repr, left.node(), right.node(), !phase));

        // Twelve do not, and on the way every small frontier holds internal
        // nodes whose tables cannot agree: no proof — and no refutation, the
        // pair is equal and SAT says so.
        let (aig, left, right) = xor_chains(12);
        let phase = left.is_complemented() != right.is_complemented();
        let mut window = Window::new(&aig);
        let repr = identity_repr(&aig);
        assert!(!window.proves_equal(&aig, &repr, left.node(), right.node(), phase));
        let (classes, stats) = SatSweeper::default().find_equivalences(&aig);
        assert!(stats.sat_calls > 0 && stats.disproved == 0, "{stats:?}");
        let merged = classes
            .classes
            .iter()
            .any(|c| c[0].node() == left.node() && c.iter().any(|m| m.node() == right.node()));
        assert!(merged, "the two chains were not merged: {classes:?}");
    }

    #[test]
    fn refine_moves_only_members_the_walk_has_not_passed() {
        let lit = |n: u32| ALit::new(NodeId(n), false);
        let mut candidates = Candidates {
            classes: vec![vec![lit(2), lit(5), lit(7), lit(9), lit(11)]],
            class_of: vec![Candidates::NONE; 12],
        };
        for n in [2, 5, 7, 9, 11] {
            candidates.class_of[n] = 0;
        }
        // 5 (passed) and 9, 11 (ahead) disagree with the representative; 7,
        // the node the walk stands on, does not: a pattern that fails to
        // separate the queried pair.
        let mut values = vec![false; 12];
        for n in [5, 9, 11] {
            values[n] = true;
        }
        assert_eq!(candidates.refine(&values, NodeId(7)), 2);
        assert_eq!(candidates.classes[0], vec![lit(2), lit(5), lit(7)]);
        assert_eq!(candidates.classes[1], vec![lit(9), lit(11)]);
        // 7 is still owed nothing new and stays unproved with its class; 11
        // is now queried against 9.
        assert_eq!(candidates.query_of(NodeId(7)), Some((NodeId(2), false)));
        assert_eq!(candidates.query_of(NodeId(9)), None);
        assert_eq!(candidates.query_of(NodeId(11)), Some((NodeId(9), false)));
    }

    #[test]
    fn exhausted_budget_merges_nothing_it_did_not_prove() {
        // `a * b` stacked with `b * a`: equal output for output, but one
        // conflict is not enough to prove the deep pairs.
        let golden = benchgen::multiplier(4).aig;
        let mut stacked = Aig::new("commuted");
        let inputs: Vec<ALit> = (0..8).map(|i| stacked.add_input(format!("i{i}"))).collect();
        let swapped: Vec<ALit> = inputs[4..].iter().chain(&inputs[..4]).copied().collect();
        for operands in [&inputs, &swapped] {
            let map = golden.copy_logic_into(&mut stacked, operands);
            for &po in golden.outputs() {
                let lit = map[po.node().index()].xor(po.is_complemented());
                stacked.add_output(lit, "p");
            }
        }
        let sweep_with = |conflict_budget| {
            SatSweeper::new(SweepOptions {
                conflict_budget,
                ..SweepOptions::default()
            })
            .find_equivalences(&stacked)
        };
        let (classes, stats) = sweep_with(Some(0));
        assert!(stats.unknown > 0, "{stats:?}");
        assert_eq!(stats.proved, classes.num_redundant());
        let exact = Simulator::exhaustive(&stacked);
        for class in &classes.classes {
            for member in class {
                assert!(exact.lits_equal(class[0], *member), "merged {class:?}");
            }
        }
        let (full, _) = sweep_with(None);
        assert!(classes.num_redundant() < full.num_redundant());
    }
}
