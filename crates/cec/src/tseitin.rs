//! Tseitin encoding of AIGs into CNF: the whole network at once
//! ([`AigCnf`]) or cone by cone as queries need it ([`ConeCnf`]). Both go
//! through the same two node encoders below — this module is the only place
//! in the crate that writes a gate into clauses.

use aig::{Aig, AigNode, Lit as ALit, NodeId};
use sat::{cnf, ClauseSink, Lit as SLit, Var};

/// A fresh variable pinned to constant false (AIG node 0).
fn const_false<S: ClauseSink>(sink: &mut S) -> SLit {
    let lit = SLit::pos(sink.new_var());
    sink.add_clause(&[!lit]);
    lit
}

/// A fresh variable defined as `a AND b`.
fn and_gate<S: ClauseSink>(sink: &mut S, a: SLit, b: SLit) -> SLit {
    let out = SLit::pos(sink.new_var());
    cnf::encode_and(sink, out, a, b);
    out
}

/// `lit` with its node replaced by what the node was proved equal to:
/// `repr` maps each node index to that literal (the node itself if unmerged).
#[inline]
pub(crate) fn canonical(repr: &[ALit], lit: ALit) -> ALit {
    repr[lit.node().index()].xor(lit.is_complemented())
}

#[inline]
fn lift(base: SLit, complemented: bool) -> SLit {
    if complemented {
        !base
    } else {
        base
    }
}

/// The CNF image of an AIG inside a [`ClauseSink`] (a solver, the reference
/// oracle or a plain CNF container): one SAT variable per AIG node plus a
/// constant-false variable.
#[derive(Debug, Clone)]
pub struct AigCnf {
    /// SAT literal corresponding to each AIG node (uncomplemented).
    node_lits: Vec<SLit>,
    /// SAT literals of the primary inputs, in input order.
    pub input_lits: Vec<SLit>,
    /// SAT literals of the primary outputs, in output order.
    pub output_lits: Vec<SLit>,
}

impl AigCnf {
    /// Encodes `aig` into `solver`, sharing input variables if `shared_inputs`
    /// is given (used to build miters over common primary inputs).
    ///
    /// # Panics
    /// Panics if `shared_inputs` is provided with the wrong length.
    pub fn encode<S: ClauseSink>(
        solver: &mut S,
        aig: &Aig,
        shared_inputs: Option<&[SLit]>,
    ) -> Self {
        if let Some(shared) = shared_inputs {
            assert_eq!(
                shared.len(),
                aig.num_inputs(),
                "shared input vector length must match the AIG input count"
            );
        }
        let mut node_lits: Vec<SLit> = Vec::with_capacity(aig.num_nodes());
        node_lits.push(const_false(solver));

        let mut input_lits = Vec::with_capacity(aig.num_inputs());
        for id in aig.node_ids().skip(1) {
            let lit = match aig.node(id) {
                AigNode::Const => unreachable!("constant is node 0"),
                AigNode::Input { index } => {
                    let lit = match shared_inputs {
                        Some(shared) => shared[*index as usize],
                        None => SLit::pos(solver.new_var()),
                    };
                    input_lits.push(lit);
                    lit
                }
                AigNode::And { fanin0, fanin1 } => {
                    let a = Self::lift(&node_lits, *fanin0);
                    let b = Self::lift(&node_lits, *fanin1);
                    and_gate(solver, a, b)
                }
            };
            node_lits.push(lit);
        }
        let output_lits = aig
            .outputs()
            .iter()
            .map(|&po| Self::lift(&node_lits, po))
            .collect();
        AigCnf {
            node_lits,
            input_lits,
            output_lits,
        }
    }

    fn lift(node_lits: &[SLit], lit: ALit) -> SLit {
        lift(node_lits[lit.node().index()], lit.is_complemented())
    }

    /// Returns the SAT literal of an AIG literal.
    pub fn lit(&self, lit: ALit) -> SLit {
        Self::lift(&self.node_lits, lit)
    }

    /// Returns the SAT literal of an AIG node (uncomplemented).
    pub fn node(&self, node: NodeId) -> SLit {
        self.node_lits[node.index()]
    }
}

/// The CNF image of an AIG loaded *cone by cone*: a node gets a SAT variable
/// only when [`ConeCnf::load`] is asked for a cone that contains it, so
/// unit propagation and models never touch logic no query has needed.
///
/// Cones are encoded over *canonical* fanins: the caller passes `repr`, the
/// literal each node has been proved equal to (itself while unmerged), and
/// every AND is written over `repr` of its fanins. A merged node therefore
/// never enters the CNF through its fanout — the sweeper's merges shrink
/// the formula the same way they shrink the network.
#[derive(Debug)]
pub(crate) struct ConeCnf {
    node_lits: Vec<Option<SLit>>,
    loaded: usize,
    stack: Vec<NodeId>,
    /// Node index → the last [`ConeCnf::scope`] walk that visited it.
    visited: Vec<u32>,
    walk: u32,
    /// The variables the last [`ConeCnf::scope`] walk collected.
    scope: Vec<Var>,
}

impl ConeCnf {
    /// An image of `aig` with nothing loaded.
    pub(crate) fn new(aig: &Aig) -> Self {
        ConeCnf {
            node_lits: vec![None; aig.num_nodes()],
            loaded: 0,
            stack: Vec::new(),
            visited: vec![0; aig.num_nodes()],
            walk: 0,
            scope: Vec::new(),
        }
    }

    /// Number of nodes (constant, inputs and ANDs) that have a variable.
    pub(crate) fn loaded(&self) -> usize {
        self.loaded
    }

    /// The SAT literal of `node`, if a cone containing it was loaded.
    pub(crate) fn get(&self, node: NodeId) -> Option<SLit> {
        self.node_lits[node.index()]
    }

    /// Loads the cone of `root` down to the primary inputs, following
    /// `repr[fanin]` instead of each fanin, and returns `root`'s literal.
    /// `repr` is indexed by node id and must map every node to a literal of
    /// an equivalent node with an id no larger than its own.
    pub(crate) fn load<S: ClauseSink>(
        &mut self,
        sink: &mut S,
        aig: &Aig,
        repr: &[ALit],
        root: NodeId,
    ) -> SLit {
        self.stack.push(root);
        while let Some(&node) = self.stack.last() {
            if self.node_lits[node.index()].is_some() {
                self.stack.pop();
                continue;
            }
            let lit = match aig.node(node) {
                AigNode::Const => const_false(sink),
                AigNode::Input { .. } => SLit::pos(sink.new_var()),
                AigNode::And { fanin0, fanin1 } => {
                    let (c0, c1) = (canonical(repr, *fanin0), canonical(repr, *fanin1));
                    match (self.get(c0.node()), self.get(c1.node())) {
                        (Some(a), Some(b)) => and_gate(
                            sink,
                            lift(a, c0.is_complemented()),
                            lift(b, c1.is_complemented()),
                        ),
                        (a, b) => {
                            // Revisit `node` once its missing fanins exist.
                            if a.is_none() {
                                self.stack.push(c0.node());
                            }
                            if b.is_none() {
                                self.stack.push(c1.node());
                            }
                            continue;
                        }
                    }
                }
            };
            self.node_lits[node.index()] = Some(lit);
            self.loaded += 1;
            self.stack.pop();
        }
        self.get(root)
            .unwrap_or_else(|| unreachable!("root was just loaded"))
    }

    /// The variables of the loaded cones of `roots`, walked over the same
    /// canonical fanins [`ConeCnf::load`] encoded: a fanin-closed set of gate
    /// variables, the scope of a [`sat::Solver::solve_within`] query about
    /// the roots. Both roots must be loaded, and `repr` must not have
    /// changed for any node of their cones since they were.
    pub(crate) fn scope(&mut self, aig: &Aig, repr: &[ALit], roots: [NodeId; 2]) -> &[Var] {
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.visited.fill(0);
            self.walk = 1;
        }
        self.scope.clear();
        self.stack.extend(roots);
        while let Some(node) = self.stack.pop() {
            if self.visited[node.index()] == self.walk {
                continue;
            }
            self.visited[node.index()] = self.walk;
            let lit = self
                .get(node)
                .unwrap_or_else(|| unreachable!("the cone of a loaded root is loaded"));
            self.scope.push(lit.var());
            if let AigNode::And { fanin0, fanin1 } = aig.node(node) {
                self.stack.push(canonical(repr, *fanin0).node());
                self.stack.push(canonical(repr, *fanin1).node());
            }
        }
        &self.scope
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{SatResult, Solver};

    fn full_adder() -> Aig {
        let mut aig = Aig::new("fa");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let cin = aig.add_input("cin");
        let axb = aig.xor(a, b);
        let sum = aig.xor(axb, cin);
        let carry = aig.maj3(a, b, cin);
        aig.add_output(sum, "sum");
        aig.add_output(carry, "carry");
        aig
    }

    #[test]
    fn encoding_matches_evaluation() {
        let aig = full_adder();
        for pattern in 0..8u32 {
            let bits = [(pattern & 1) != 0, (pattern & 2) != 0, (pattern & 4) != 0];
            let expected = aig.evaluate(&bits);
            let mut solver = Solver::new();
            let cnf = AigCnf::encode(&mut solver, &aig, None);
            let assumptions: Vec<SLit> = cnf
                .input_lits
                .iter()
                .zip(bits.iter())
                .map(|(&l, &b)| if b { l } else { !l })
                .collect();
            assert_eq!(solver.solve_with_assumptions(&assumptions), SatResult::Sat);
            for (o, &out_lit) in cnf.output_lits.iter().enumerate() {
                assert_eq!(
                    solver.value(out_lit),
                    Some(expected[o]),
                    "pattern {pattern} output {o}"
                );
            }
        }
    }

    #[test]
    fn shared_inputs_are_reused() {
        let aig = full_adder();
        let mut solver = Solver::new();
        let shared: Vec<SLit> = (0..3).map(|_| SLit::pos(solver.new_var())).collect();
        let c1 = AigCnf::encode(&mut solver, &aig, Some(&shared));
        let c2 = AigCnf::encode(&mut solver, &aig, Some(&shared));
        assert_eq!(c1.input_lits, c2.input_lits);
        // Same circuit over the same inputs: outputs must agree; forcing them
        // to differ is UNSAT.
        let diff_assumption = vec![c1.output_lits[0], !c2.output_lits[0]];
        assert_eq!(
            solver.solve_with_assumptions(&diff_assumption),
            SatResult::Unsat
        );
    }

    #[test]
    fn constant_output_encoding() {
        let mut aig = Aig::new("consts");
        let _x = aig.add_input("x");
        aig.add_output(ALit::TRUE, "one");
        aig.add_output(ALit::FALSE, "zero");
        let mut solver = Solver::new();
        let cnf = AigCnf::encode(&mut solver, &aig, None);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.value(cnf.output_lits[0]), Some(true));
        assert_eq!(solver.value(cnf.output_lits[1]), Some(false));
    }
}
