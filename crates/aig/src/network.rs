//! The structurally hashed And-Inverter Graph network.

use crate::{AigError, Lit, NodeId, Result};
use fxhash::FxHashMap;
use serde::{Deserialize, Serialize};

mod audit;

pub use self::audit::{audit_aig, audit_aig_dag_only};

/// A single node of an [`Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AigNode {
    /// The constant-false node (always node 0).
    Const,
    /// A primary input; `index` is the position in the input list.
    Input {
        /// Position of the input in [`Aig::inputs`].
        index: u32,
    },
    /// A two-input AND gate over two (possibly complemented) literals.
    And {
        /// First fanin literal (always `<=` the second after normalization).
        fanin0: Lit,
        /// Second fanin literal.
        fanin1: Lit,
    },
}

impl AigNode {
    /// Returns `true` if the node is an AND gate.
    #[inline]
    pub fn is_and(&self) -> bool {
        matches!(self, AigNode::And { .. })
    }

    /// Returns `true` if the node is a primary input.
    #[inline]
    pub fn is_input(&self) -> bool {
        matches!(self, AigNode::Input { .. })
    }

    /// Returns `true` if the node is the constant node.
    #[inline]
    pub fn is_const(&self) -> bool {
        matches!(self, AigNode::Const)
    }

    /// Returns the fanin literals of an AND node, or an empty slice otherwise.
    #[inline]
    pub fn fanins(&self) -> [Option<Lit>; 2] {
        match self {
            AigNode::And { fanin0, fanin1 } => [Some(*fanin0), Some(*fanin1)],
            _ => [None, None],
        }
    }
}

/// A structurally hashed combinational And-Inverter Graph.
///
/// Nodes are stored in creation order, which is always a valid topological
/// order because an AND gate can only be created after both of its fanins
/// exist. Node `0` is the constant-false node.
///
/// Construction applies *two-level structural hashing*: trivial
/// simplifications (`x & 0`, `x & 1`, `x & x`, `x & !x`) are folded away and
/// identical `(fanin0, fanin1)` pairs are shared.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Aig {
    name: String,
    nodes: Vec<AigNode>,
    #[serde(skip)]
    strash: FxHashMap<(Lit, Lit), NodeId>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<Lit>,
    output_names: Vec<String>,
}

impl Aig {
    /// Creates an empty AIG with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Aig {
            name: name.into(),
            nodes: vec![AigNode::Const],
            strash: FxHashMap::default(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
        }
    }

    /// Returns the design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::Input {
            index: self.inputs.len() as u32,
        });
        self.inputs.push(id);
        self.input_names.push(name.into());
        id.lit()
    }

    /// Adds `count` anonymous inputs named `prefix0 .. prefix{count-1}`.
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Lit> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}{i}")))
            .collect()
    }

    /// Registers a primary output driven by `lit` and returns its index.
    pub fn add_output(&mut self, lit: Lit, name: impl Into<String>) -> usize {
        debug_assert!(lit.node().index() < self.nodes.len());
        self.outputs.push(lit);
        self.output_names.push(name.into());
        self.outputs.len() - 1
    }

    /// Replaces the literal driving output `index`.
    pub fn set_output(&mut self, index: usize, lit: Lit) {
        self.outputs[index] = lit;
    }

    /// Removes all primary outputs (the driving logic stays until a
    /// [`Aig::cleanup`]). Useful for carving out single-output cones.
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
        self.output_names.clear();
    }

    /// Creates (or reuses) the AND of two literals, applying constant folding
    /// and trivial-case simplification before structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial cases.
        if a.is_false() || b.is_false() || a == b.not() {
            return Lit::FALSE;
        }
        if a.is_true() {
            return b;
        }
        if b.is_true() || a == b {
            return a;
        }
        // Canonical ordering so that (a, b) and (b, a) share a node.
        let (f0, f1) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(f0, f1)) {
            return id.lit();
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::And {
            fanin0: f0,
            fanin1: f1,
        });
        self.strash.insert((f0, f1), id);
        id.lit()
    }

    /// Creates the OR of two literals (via De Morgan on the AND).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    /// Creates the NAND of two literals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a, b).not()
    }

    /// Creates the NOR of two literals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(a, b).not()
    }

    /// Creates the XOR of two literals (three AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let ab = self.and(a, b.not());
        let ba = self.and(a.not(), b);
        self.or(ab, ba)
    }

    /// Creates the XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor(a, b).not()
    }

    /// Creates the multiplexer `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let pos = self.and(sel, t);
        let neg = self.and(sel.not(), e);
        self.or(pos, neg)
    }

    /// Creates the three-input majority function.
    pub fn maj3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let bc = self.and(b, c);
        let ac = self.and(a, c);
        let t = self.or(ab, bc);
        self.or(t, ac)
    }

    /// Creates a balanced AND over an arbitrary number of literals.
    ///
    /// Returns constant true for an empty slice.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// Creates a balanced OR over an arbitrary number of literals.
    ///
    /// Returns constant false for an empty slice.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::or)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 2 {
                            next.push(op(self, pair[0], pair[1]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Total number of nodes (constant + inputs + AND gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_and()).count()
    }

    /// Returns the node with the given id.
    pub fn node(&self, id: NodeId) -> &AigNode {
        &self.nodes[id.index()]
    }

    /// Attempts to return the node with the given id.
    pub fn try_node(&self, id: NodeId) -> Result<&AigNode> {
        self.nodes
            .get(id.index())
            .ok_or_else(|| AigError::InvalidNode(format!("{id} out of range")))
    }

    /// Iterates over all node ids in topological order (constant first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over the ids of all AND gates in topological order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| {
            if n.is_and() {
                Some(NodeId(i as u32))
            } else {
                None
            }
        })
    }

    /// Returns the fanin literals of an AND node.
    ///
    /// # Panics
    /// Panics if the node is not an AND gate.
    // The panic is the documented contract of this accessor.
    #[allow(clippy::panic)]
    pub fn fanins(&self, id: NodeId) -> (Lit, Lit) {
        match self.node(id) {
            AigNode::And { fanin0, fanin1 } => (*fanin0, *fanin1),
            other => panic!("node {id} is not an AND gate: {other:?}"),
        }
    }

    /// Returns the primary-input node ids.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Returns the primary-input names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Returns the name of input `index`.
    pub fn input_name(&self, index: usize) -> &str {
        &self.input_names[index]
    }

    /// Returns the literals driving the primary outputs.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Returns the primary-output names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Returns the name of output `index`.
    pub fn output_name(&self, index: usize) -> &str {
        &self.output_names[index]
    }

    // ------------------------------------------------------------------
    // Structural queries
    // ------------------------------------------------------------------

    /// Computes the logic level of every node (inputs and constant are level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let AigNode::And { fanin0, fanin1 } = node {
                levels[i] = 1 + levels[fanin0.node().index()].max(levels[fanin1.node().index()]);
            }
        }
        levels
    }

    /// Returns the depth (number of AND levels on the longest PI→PO path).
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|lit| levels[lit.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Counts the fanouts of every node (including output references).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let AigNode::And { fanin0, fanin1 } = node {
                counts[fanin0.node().index()] += 1;
                counts[fanin1.node().index()] += 1;
            }
        }
        for lit in &self.outputs {
            counts[lit.node().index()] += 1;
        }
        counts
    }

    // ------------------------------------------------------------------
    // Rebuilding (the contract is stated once, on `try_rebuild`)
    // ------------------------------------------------------------------

    /// Rebuilds the network under a rule: the one way a network is rebuilt.
    ///
    /// Makes a fresh network with the same name and inputs, hands every AND
    /// gate, in id order, to `rule(fresh, id, view)`, which returns the
    /// literal of `fresh` the gate becomes, then translates and names the
    /// outputs. Returns the rebuilt network and, for every node of `self`,
    /// the literal it rebuilt to.
    ///
    /// Id order is topological, so when the rule sees a gate every node the
    /// gate can depend on already has its literal, and the rule reads them
    /// through the [`RebuildView`]: the constant, every input and every AND
    /// with a smaller id, never a later one. The rule may add any logic to
    /// the fresh network (a factored cut, a window's replacement) before it
    /// answers. A rule that gives a gate no image of its own (dangling
    /// logic, the interior of a tree it flattens) answers `Lit::FALSE` and
    /// must then never read that gate. Nodes are created in the order the
    /// rule creates them, which is what makes a rebuild reproducible bit
    /// for bit. A rule that can strand logic (it redirects a gate, or skips
    /// some) is followed by [`Aig::cleanup`]; one whose every gate still
    /// feeds an output needs none. [`Aig::copy_logic_into`] is the same walk
    /// into a network that already exists, the inputs driven by literals the
    /// caller supplies.
    ///
    /// # Errors
    /// The first error `rule` returns; it stops the walk.
    pub fn try_rebuild<E>(
        &self,
        rule: impl FnMut(&mut Aig, NodeId, &RebuildView<'_>) -> std::result::Result<Lit, E>,
    ) -> std::result::Result<(Aig, Vec<Lit>), E> {
        let mut fresh = Aig::new(self.name.clone());
        let inputs: Vec<Lit> = self
            .input_names
            .iter()
            .map(|name| fresh.add_input(name.clone()))
            .collect();
        let table = self.replay(&mut fresh, &inputs, rule)?;
        for (lit, name) in self.outputs.iter().zip(&self.output_names) {
            let mapped = table[lit.node().index()].xor(lit.is_complemented());
            fresh.add_output(mapped, name.clone());
        }
        Ok((fresh, table))
    }

    /// [`Aig::try_rebuild`] under a rule that cannot fail.
    pub fn rebuild(
        &self,
        mut rule: impl FnMut(&mut Aig, NodeId, &RebuildView<'_>) -> Lit,
    ) -> (Aig, Vec<Lit>) {
        infallible(self.try_rebuild(|fresh, id, view| Ok(rule(fresh, id, view))))
    }

    /// The one walk: seeds the table with the constant and the input
    /// drivers, then asks `rule` for every AND gate in id order.
    fn replay<E>(
        &self,
        dst: &mut Aig,
        inputs: &[Lit],
        mut rule: impl FnMut(&mut Aig, NodeId, &RebuildView<'_>) -> std::result::Result<Lit, E>,
    ) -> std::result::Result<Vec<Lit>, E> {
        let mut table: Vec<Lit> = vec![Lit::FALSE; self.nodes.len()];
        for (&pi, &driver) in self.inputs.iter().zip(inputs) {
            table[pi.index()] = driver;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_and() {
                let id = NodeId(i as u32);
                let view = RebuildView {
                    source: self,
                    table: &table,
                    current: id,
                };
                table[i] = rule(dst, id, &view)?;
            }
        }
        Ok(table)
    }

    /// Produces a structurally hashed copy containing only the logic
    /// reachable from the primary outputs (the ABC `strash`/sweep analogue).
    pub fn strash_copy(&self) -> Aig {
        self.rebuild(|fresh, id, view| view.copy_gate(fresh, id))
            .0
            .cleanup()
    }

    /// Removes dangling nodes (not reachable from any output), preserving the
    /// input list, and returns the compacted network.
    pub fn cleanup(&self) -> Aig {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|l| l.node()).collect();
        while let Some(id) = stack.pop() {
            if reachable[id.index()] {
                continue;
            }
            reachable[id.index()] = true;
            if let AigNode::And { fanin0, fanin1 } = self.node(id) {
                stack.push(fanin0.node());
                stack.push(fanin1.node());
            }
        }
        self.rebuild(|fresh, id, view| {
            if reachable[id.index()] {
                view.copy_gate(fresh, id)
            } else {
                Lit::FALSE
            }
        })
        .0
    }

    /// Replays this network's AND gates into `dst`, driving the primary
    /// inputs with the given literals (one per input, in order). Returns,
    /// for every node of `self`, the literal in `dst` computing its function
    /// — callers derive output or internal-signal literals by indexing the
    /// map and applying the edge complement. The shared building block
    /// behind circuit stacking, window replacement and input renaming.
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn copy_logic_into(&self, dst: &mut Aig, inputs: &[Lit]) -> Vec<Lit> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "one driving literal per primary input"
        );
        infallible(self.replay(dst, inputs, |dst, id, view| Ok(view.copy_gate(dst, id))))
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluates the network on a single Boolean input assignment.
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.evaluate_nodes(inputs);
        self.outputs
            .iter()
            .map(|lit| values[lit.node().index()] ^ lit.is_complemented())
            .collect()
    }

    /// Evaluates the network on a single Boolean input assignment, returning
    /// the value of *every node* (indexed by node id, uncomplemented). Used
    /// by counterexample-guided sweeping to split candidate equivalence
    /// classes on a distinguishing input pattern.
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate_nodes(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} input values, got {}",
            self.inputs.len(),
            inputs.len()
        );
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                AigNode::Const => false,
                AigNode::Input { index } => inputs[*index as usize],
                AigNode::And { fanin0, fanin1 } => {
                    let a = values[fanin0.node().index()] ^ fanin0.is_complemented();
                    let b = values[fanin1.node().index()] ^ fanin1.is_complemented();
                    a && b
                }
            };
        }
        values
    }
}

/// The result of a walk whose rule cannot fail.
fn infallible<T>(result: std::result::Result<T, std::convert::Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// What a rebuild rule may read (see [`Aig::try_rebuild`]): where the nodes
/// of the source network that precede the current gate went.
#[derive(Debug, Clone, Copy)]
pub struct RebuildView<'a> {
    source: &'a Aig,
    table: &'a [Lit],
    current: NodeId,
}

impl RebuildView<'_> {
    /// The literal source node `id` rebuilt to. `id` must be the constant,
    /// an input or an AND gate before the current one.
    #[inline]
    pub fn node(&self, id: NodeId) -> Lit {
        debug_assert!(
            id < self.current || !self.source.node(id).is_and(),
            "gate {id} is rebuilt after gate {}",
            self.current
        );
        self.table[id.index()]
    }

    /// The translation of a source literal (complement carried over).
    #[inline]
    pub fn lit(&self, lit: Lit) -> Lit {
        self.node(lit.node()).xor(lit.is_complemented())
    }

    /// The rule that changes nothing: source gate `id` as an AND of its
    /// translated fanins in `dst`.
    #[inline]
    pub fn copy_gate(&self, dst: &mut Aig, id: NodeId) -> Lit {
        let (f0, f1) = self.source.fanins(id);
        dst.and(self.lit(f0), self.lit(f1))
    }
}

/// Builds one network computing both circuits over a shared set of primary
/// inputs (matched by position, named after `a`'s inputs). Outputs of `a`
/// come first, then the outputs of `b` with `b_suffix` appended to their
/// names. Used to seed equivalence detection (SAT sweeping, structural
/// choices) and miter-style comparisons.
///
/// # Panics
/// Panics if the input counts differ.
pub fn stack_over_shared_inputs(a: &Aig, b: &Aig, b_suffix: &str) -> Aig {
    assert_eq!(
        a.num_inputs(),
        b.num_inputs(),
        "both circuits must have the same inputs"
    );
    let mut out = Aig::new(a.name().to_string());
    let inputs: Vec<Lit> = a
        .input_names()
        .iter()
        .map(|n| out.add_input(n.clone()))
        .collect();
    let map_a = a.copy_logic_into(&mut out, &inputs);
    let map_b = b.copy_logic_into(&mut out, &inputs);
    for (i, po) in a.outputs().iter().enumerate() {
        let lit = map_a[po.node().index()].xor(po.is_complemented());
        out.add_output(lit, a.output_name(i));
    }
    for (i, po) in b.outputs().iter().enumerate() {
        let lit = map_b[po.node().index()].xor(po.is_complemented());
        out.add_output(lit, format!("{}{b_suffix}", b.output_name(i)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net() -> (Aig, Lit) {
        let mut aig = Aig::new("xor");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output(x, "y");
        (aig, x)
    }

    #[test]
    fn constant_folding() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, a.not()), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn xor_truth_table() {
        let (aig, _) = xor_net();
        assert_eq!(aig.evaluate(&[false, false]), vec![false]);
        assert_eq!(aig.evaluate(&[true, false]), vec![true]);
        assert_eq!(aig.evaluate(&[false, true]), vec![true]);
        assert_eq!(aig.evaluate(&[true, true]), vec![false]);
    }

    #[test]
    fn mux_and_maj_semantics() {
        let mut aig = Aig::new("t");
        let s = aig.add_input("s");
        let t = aig.add_input("t");
        let e = aig.add_input("e");
        let m = aig.mux(s, t, e);
        let j = aig.maj3(s, t, e);
        aig.add_output(m, "mux");
        aig.add_output(j, "maj");
        for bits in 0..8u32 {
            let s_v = bits & 1 != 0;
            let t_v = bits & 2 != 0;
            let e_v = bits & 4 != 0;
            let out = aig.evaluate(&[s_v, t_v, e_v]);
            assert_eq!(out[0], if s_v { t_v } else { e_v });
            let maj = (s_v && t_v) || (e_v && (s_v || t_v));
            assert_eq!(out[1], maj);
        }
    }

    #[test]
    fn and_many_balanced_depth() {
        let mut aig = Aig::new("t");
        let lits = aig.add_inputs("x", 16);
        let all = aig.and_many(&lits);
        aig.add_output(all, "y");
        assert_eq!(aig.depth(), 4);
        assert_eq!(aig.num_ands(), 15);
        assert_eq!(aig.and_many(&[]), Lit::TRUE);
        assert_eq!(aig.or_many(&[]), Lit::FALSE);
    }

    #[test]
    fn levels_and_fanouts() {
        let (aig, x) = xor_net();
        let levels = aig.levels();
        assert_eq!(levels[x.node().index()], 2);
        let fanouts = aig.fanout_counts();
        // Each input feeds two AND gates.
        assert_eq!(fanouts[aig.inputs()[0].index()], 2);
        assert_eq!(fanouts[aig.inputs()[1].index()], 2);
    }

    #[test]
    fn cleanup_removes_dangling() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let keep = aig.and(a, b);
        let _dangling = aig.xor(a, b);
        aig.add_output(keep, "y");
        assert!(aig.num_ands() > 1);
        let clean = aig.cleanup();
        assert_eq!(clean.num_ands(), 1);
        assert_eq!(clean.num_inputs(), 2);
        assert_eq!(clean.evaluate(&[true, true]), vec![true]);
        assert_eq!(clean.evaluate(&[true, false]), vec![false]);
    }

    #[test]
    fn strash_copy_preserves_function() {
        let (aig, _) = xor_net();
        let copy = aig.strash_copy();
        for bits in 0..4u32 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            assert_eq!(aig.evaluate(&[a, b]), copy.evaluate(&[a, b]));
        }
    }

    /// An input declared after a gate that does not read it: ids are still
    /// topological, but inputs and gates interleave.
    fn late_input_net() -> Aig {
        let mut aig = Aig::new("late");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let ab = aig.and(a, b);
        let c = aig.add_input("c");
        let f = aig.and(ab.not(), c);
        aig.add_output(f, "f");
        aig.add_output(ab, "g");
        aig
    }

    #[test]
    fn rebuild_hands_every_gate_to_the_rule_in_id_order() {
        let aig = late_input_net();
        let mut seen = Vec::new();
        let (copy, table) = aig.rebuild(|fresh, id, view| {
            seen.push(id);
            view.copy_gate(fresh, id)
        });
        assert_eq!(seen, aig.and_ids().collect::<Vec<_>>());
        assert_eq!(copy.name(), "late");
        assert_eq!(copy.input_names(), aig.input_names());
        assert_eq!(copy.output_names(), aig.output_names());
        // Inputs come first in the rebuilt network, whatever their old ids.
        assert_eq!(copy.inputs(), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(table.len(), aig.num_nodes());
        assert_eq!(table[aig.inputs()[2].index()], copy.inputs()[2].lit());
        for bits in 0..8u32 {
            let pattern = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            assert_eq!(aig.evaluate(&pattern), copy.evaluate(&pattern));
        }
    }

    #[test]
    fn rebuild_rule_may_redirect_a_gate_and_build_logic_first() {
        let (aig, x) = xor_net();
        // Replace the XOR's top gate by an OR built from scratch.
        let (rebuilt, _) = aig.rebuild(|fresh, id, view| {
            if id == x.node() {
                let a = view.node(aig.inputs()[0]);
                let b = view.node(aig.inputs()[1]);
                fresh.or(a, b).xor(x.is_complemented())
            } else {
                view.copy_gate(fresh, id)
            }
        });
        assert_eq!(rebuilt.evaluate(&[true, true]), vec![true]);
        assert_eq!(rebuilt.evaluate(&[false, false]), vec![false]);
        // The two gates under the old XOR dangle until a cleanup.
        assert_eq!(rebuilt.num_ands(), 3);
        assert_eq!(rebuilt.cleanup().num_ands(), 1);
    }

    #[test]
    fn try_rebuild_stops_at_the_first_error() {
        let (aig, _) = xor_net();
        let mut calls = 0;
        let result = aig.try_rebuild(|fresh, id, view| {
            calls += 1;
            if calls == 2 {
                Err(id)
            } else {
                Ok(view.copy_gate(fresh, id))
            }
        });
        assert_eq!(result.map(|_| ()), Err(aig.and_ids().nth(1).unwrap()));
        assert_eq!(calls, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is rebuilt after gate")]
    fn rebuild_view_refuses_a_later_gate() {
        let (aig, x) = xor_net();
        aig.rebuild(|_, _, view| view.node(x.node()));
    }

    #[test]
    fn copy_logic_into_replays_over_caller_supplied_drivers() {
        let (aig, x) = xor_net();
        let mut dst = Aig::new("dst");
        let p = dst.add_input("p");
        let map = aig.copy_logic_into(&mut dst, &[p, p.not()]);
        // a ^ !a is constant true, folded while replaying.
        assert_eq!(map[x.node().index()].xor(x.is_complemented()), Lit::TRUE);
    }

    #[test]
    fn complemented_output() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output(a.not(), "na");
        assert_eq!(aig.evaluate(&[true]), vec![false]);
        assert_eq!(aig.evaluate(&[false]), vec![true]);
    }
}
