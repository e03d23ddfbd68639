//! Depth-oriented balancing of AND trees (the ABC `balance` command).
//!
//! The pass collects, for every multi-input conjunction, the set of leaves of
//! its maximal single-fanout AND tree and rebuilds the tree so that
//! earlier-arriving operands are combined first, minimizing the depth of the
//! result.

use aig::{Aig, Lit};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Rebuilds `aig` with every AND tree balanced by arrival time.
///
/// The result is functionally equivalent; its depth is never larger than a
/// freshly strashed copy of the input on typical circuits, and is usually
/// smaller for skewed chains.
pub fn balance(aig: &Aig) -> Aig {
    let fanouts = aig.fanout_counts();

    // Which nodes must be materialized as balanced tree roots: multi-fanout
    // nodes, nodes referenced through a complemented edge (tree boundaries in
    // an AIG), and output drivers.
    let mut is_root = vec![false; aig.num_nodes()];
    for id in aig.and_ids() {
        if fanouts[id.index()] > 1 {
            is_root[id.index()] = true;
        }
        let (f0, f1) = aig.fanins(id);
        for lit in [f0, f1] {
            if lit.is_complemented() && aig.node(lit.node()).is_and() {
                is_root[lit.node().index()] = true;
            }
        }
    }
    for po in aig.outputs() {
        is_root[po.node().index()] = true;
    }

    // Arrival level of every tree root in the rebuilt network.
    let mut level: Vec<u32> = vec![0; aig.num_nodes()];
    // Scratch reused across roots: the leaf collection's stack, the operands
    // of the reduction, and their queue of (arrival level, operand index).
    let mut pending: Vec<Lit> = Vec::new();
    let mut operands: Vec<Lit> = Vec::new();
    let mut queue: BinaryHeap<(Reverse<u32>, usize)> = BinaryHeap::new();
    let (fresh, _) = aig.rebuild(|fresh, id, view| {
        if !is_root[id.index()] {
            // Interior to some root's tree: flattened into that root, never
            // read on its own.
            return Lit::FALSE;
        }
        // Collect the leaves of the maximal AND tree rooted here, left to
        // right: descend through non-complemented, single-fanout AND fanins.
        // A tree is as deep as the network, so the walk keeps its own stack.
        operands.clear();
        let (f0, f1) = aig.fanins(id);
        pending.extend([f1, f0]);
        while let Some(lit) = pending.pop() {
            let child = lit.node();
            let expandable =
                !lit.is_complemented() && aig.node(child).is_and() && !is_root[child.index()];
            if expandable {
                let (f0, f1) = aig.fanins(child);
                pending.extend([f1, f0]);
            } else {
                queue.push((Reverse(level[child.index()]), operands.len()));
                operands.push(view.lit(lit));
            }
        }
        // Huffman-style reduction: combine the two earliest operands first;
        // among operands of one level the latest made (for leaves, the
        // rightmost) goes first.
        let (lit, lev) = loop {
            let Some((Reverse(la), a)) = queue.pop() else {
                break (Lit::TRUE, 0);
            };
            let Some((Reverse(lb), b)) = queue.pop() else {
                break (operands[a], la);
            };
            queue.push((Reverse(la.max(lb) + 1), operands.len()));
            operands.push(fresh.and(operands[a], operands[b]));
        };
        level[id.index()] = lev;
        lit
    });
    fresh.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_equiv_exhaustive(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert!(a.num_inputs() <= 14);
        for p in 0..(1usize << a.num_inputs()) {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn chain_becomes_logarithmic() {
        let mut aig = Aig::new("chain");
        let inputs = aig.add_inputs("x", 13);
        let mut acc = inputs[0];
        for &lit in &inputs[1..] {
            acc = aig.and(acc, lit);
        }
        aig.add_output(acc, "f");
        assert_eq!(aig.depth(), 12);
        let balanced = balance(&aig);
        assert!(balanced.depth() <= 4, "depth {}", balanced.depth());
        check_equiv_exhaustive(&aig, &balanced);
    }

    #[test]
    fn or_chains_balance_through_complemented_edges() {
        // An OR chain in an AIG is an AND chain of complemented literals with
        // a complemented output; balance still reduces its depth.
        let mut aig = Aig::new("orchain");
        let inputs = aig.add_inputs("x", 12);
        let mut acc = inputs[0];
        for &lit in &inputs[1..] {
            acc = aig.or(acc, lit);
        }
        aig.add_output(acc, "f");
        let balanced = balance(&aig);
        assert!(balanced.depth() <= 5, "depth {}", balanced.depth());
        check_equiv_exhaustive(&aig, &balanced);
    }

    #[test]
    fn multi_fanout_nodes_are_preserved() {
        let mut aig = Aig::new("shared");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let shared = aig.and(a, b);
        let f = aig.and(shared, c);
        let g = aig.and(shared, d);
        aig.add_output(f, "f");
        aig.add_output(g, "g");
        let balanced = balance(&aig);
        check_equiv_exhaustive(&aig, &balanced);
        // Sharing must not be duplicated: the balanced network is not larger.
        assert!(balanced.num_ands() <= aig.num_ands());
    }

    #[test]
    fn skewed_arrival_times_respected() {
        // h = ((((a&b)&c)&d) & deep) where `deep` is itself a chain: the
        // balanced form should put `deep` near the root.
        let mut aig = Aig::new("skew");
        let inputs = aig.add_inputs("x", 6);
        let deep1 = aig.and(inputs[0], inputs[1]);
        let deep2 = aig.and(deep1, inputs[2]);
        let flat = aig.and(inputs[3], inputs[4]);
        let flat2 = aig.and(flat, inputs[5]);
        let out = aig.and(deep2, flat2);
        aig.add_output(out, "f");
        let balanced = balance(&aig);
        check_equiv_exhaustive(&aig, &balanced);
        assert!(balanced.depth() <= aig.depth());
    }

    #[test]
    fn balance_is_idempotent_on_depth() {
        let mut aig = Aig::new("c");
        let inputs = aig.add_inputs("x", 10);
        let mut acc = inputs[0];
        for &lit in &inputs[1..] {
            acc = aig.and(acc, lit);
        }
        aig.add_output(acc, "f");
        let once = balance(&aig);
        let twice = balance(&once);
        assert_eq!(once.depth(), twice.depth());
        check_equiv_exhaustive(&once, &twice);
    }

    #[test]
    fn handles_constant_and_passthrough_outputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output(Lit::TRUE, "one");
        aig.add_output(a.not(), "na");
        let balanced = balance(&aig);
        assert_eq!(balanced.evaluate(&[true]), vec![true, false]);
        assert_eq!(balanced.evaluate(&[false]), vec![true, true]);
    }
}
