//! SOP balancing: delay-driven resynthesis of an AIG from the balanced
//! sum-of-products forms of mapped cuts.
//!
//! This reproduces the role of `if -g` in the paper's baseline flow
//! (Mishchenko et al., "Delay optimization using SOP balancing", ICCAD'11):
//! the network is first covered with K-input cuts by a delay-oriented LUT
//! mapping, each cut function is converted to an irredundant sum-of-products,
//! and the new AIG is rebuilt from AND/OR trees that are balanced with
//! respect to the arrival times of the cut leaves.

use crate::lut::map_to_luts;
use crate::truth::{isop, Cube};
use crate::MapOptions;
use aig::{Aig, Lit};

/// Rebuilds `aig` by SOP-balancing every mapped cut.
///
/// The result is functionally equivalent to the input and usually has a
/// smaller AND-level depth on arithmetic-style circuits.
pub fn sop_balance(aig: &Aig, options: &MapOptions) -> Aig {
    let mapping = map_to_luts(aig, options);

    // Arrival level estimate of every LUT root in the rebuilt network.
    let mut level: Vec<u32> = vec![0; aig.num_nodes()];
    // LUTs are stored in topological order, as the walk visits their roots.
    let mut luts = mapping.luts.iter().peekable();
    let (fresh, _) = aig.rebuild(|fresh, id, view| {
        let Some(lut) = luts.next_if(|lut| lut.root == id) else {
            // Interior to the LUTs that cover it, never read on its own.
            return Lit::FALSE;
        };
        let leaves = lut.cut.leaves();
        let leaf_lits: Vec<Lit> = leaves.iter().map(|&l| view.node(l)).collect();
        let leaf_levels: Vec<u32> = leaves.iter().map(|l| level[l.index()]).collect();
        let (lit, lev) =
            build_balanced_sop(fresh, lut.cut.truth, leaves.len(), &leaf_lits, &leaf_levels);
        level[id.index()] = lev;
        lit
    });
    debug_assert!(luts.next().is_none(), "LUT roots out of id order");
    fresh.cleanup()
}

/// Builds a balanced AND/OR implementation of `truth` over the given leaves,
/// returning the output literal and its estimated level.
fn build_balanced_sop(
    aig: &mut Aig,
    truth: u64,
    nvars: usize,
    leaves: &[Lit],
    leaf_levels: &[u32],
) -> (Lit, u32) {
    use crate::truth::full_mask;
    let mask = full_mask(nvars);
    let truth = truth & mask;
    if truth == 0 {
        return (Lit::FALSE, 0);
    }
    if truth == mask {
        return (Lit::TRUE, 0);
    }
    // Implement whichever of f / !f has the cheaper cover, then fix the phase.
    let cover_pos = isop(truth, nvars);
    let cover_neg = isop(!truth & mask, nvars);
    let (cover, complemented) = if cost_of(&cover_neg) < cost_of(&cover_pos) {
        (cover_neg, true)
    } else {
        (cover_pos, false)
    };

    // Build each cube as a balanced AND tree over its literals.
    let mut products: Vec<(Lit, u32)> = Vec::with_capacity(cover.len());
    for cube in &cover {
        let mut operands: Vec<(Lit, u32)> = Vec::new();
        for v in 0..nvars {
            if cube.pos >> v & 1 == 1 {
                operands.push((leaves[v], leaf_levels[v]));
            }
            if cube.neg >> v & 1 == 1 {
                operands.push((leaves[v].not(), leaf_levels[v]));
            }
        }
        products.push(balanced_reduce(aig, operands, true));
    }
    // Sum the products with a balanced OR tree.
    let (sum, lev) = balanced_reduce(aig, products, false);
    (sum.xor(complemented), lev)
}

fn cost_of(cover: &[Cube]) -> usize {
    cover
        .iter()
        .map(|c| c.num_literals() as usize)
        .sum::<usize>()
        + cover.len()
}

/// Combines operands two at a time, always pairing the two earliest-arriving
/// ones (Huffman-style), with `and = true` for AND and `false` for OR.
fn balanced_reduce(aig: &mut Aig, mut operands: Vec<(Lit, u32)>, and: bool) -> (Lit, u32) {
    if operands.is_empty() {
        return (if and { Lit::TRUE } else { Lit::FALSE }, 0);
    }
    while operands.len() > 1 {
        // Pick the two operands with the smallest levels.
        operands.sort_by_key(|(_, lev)| std::cmp::Reverse(*lev));
        let (a, la) = operands.pop().unwrap_or_else(|| unreachable!("len > 1"));
        let (b, lb) = operands.pop().unwrap_or_else(|| unreachable!("len > 1"));
        let lit = if and { aig.and(a, b) } else { aig.or(a, b) };
        operands.push((lit, la.max(lb) + 1));
    }
    operands[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbalanced_chain(width: usize) -> Aig {
        // A deliberately skewed AND chain: depth == width - 1.
        let mut aig = Aig::new("chain");
        let inputs = aig.add_inputs("x", width);
        let mut acc = inputs[0];
        for &lit in &inputs[1..] {
            acc = aig.and(acc, lit);
        }
        aig.add_output(acc, "f");
        aig
    }

    fn adder(width: usize) -> Aig {
        let mut aig = Aig::new("adder");
        let a: Vec<_> = (0..width).map(|i| aig.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..width).map(|i| aig.add_input(format!("b{i}"))).collect();
        let mut carry = Lit::FALSE;
        for i in 0..width {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let cout = aig.maj3(a[i], b[i], carry);
            aig.add_output(sum, format!("s{i}"));
            carry = cout;
        }
        aig.add_output(carry, "cout");
        aig
    }

    fn check_equiv_exhaustive(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert!(a.num_inputs() <= 12);
        for pattern in 0..(1usize << a.num_inputs()) {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| pattern >> i & 1 == 1).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {pattern}");
        }
    }

    #[test]
    fn balancing_preserves_function_on_chain() {
        let aig = unbalanced_chain(9);
        let balanced = sop_balance(&aig, &MapOptions::lut6());
        check_equiv_exhaustive(&aig, &balanced);
    }

    #[test]
    fn balancing_reduces_depth_of_chain() {
        let aig = unbalanced_chain(12);
        assert_eq!(aig.depth(), 11);
        let balanced = sop_balance(&aig, &MapOptions::lut6());
        assert!(balanced.depth() <= 5, "depth {}", balanced.depth());
    }

    #[test]
    fn balancing_preserves_adder_function() {
        let aig = adder(4);
        let balanced = sop_balance(&aig, &MapOptions::lut6());
        check_equiv_exhaustive(&aig, &balanced);
    }

    #[test]
    fn balancing_does_not_blow_up_size() {
        let aig = adder(8);
        let balanced = sop_balance(&aig, &MapOptions::lut6());
        // SOP forms of 6-input cuts can add some nodes but must stay in the
        // same order of magnitude.
        assert!(balanced.num_ands() <= aig.num_ands() * 3);
    }

    #[test]
    fn repeated_balancing_is_stable() {
        let aig = adder(4);
        let once = sop_balance(&aig, &MapOptions::lut6());
        let twice = sop_balance(&once, &MapOptions::lut6());
        check_equiv_exhaustive(&aig, &twice);
        assert!(twice.depth() <= once.depth() + 1);
    }

    #[test]
    fn constant_and_trivial_outputs_survive() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        aig.add_output(Lit::TRUE, "one");
        aig.add_output(a.not(), "na");
        aig.add_output(f, "f");
        let balanced = sop_balance(&aig, &MapOptions::default());
        check_equiv_exhaustive(&aig, &balanced);
    }
}
