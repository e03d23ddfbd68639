//! Cut-based resynthesis: DAG-aware rewriting and refactoring.
//!
//! For every AND node we enumerate K-feasible cuts, re-implement the cut
//! function from an algebraically factored SOP, and keep the new structure if
//! it does not cost more nodes than the logic it makes redundant (the node's
//! maximum fanout-free cone). This mirrors the intent of ABC's `rewrite` /
//! `refactor`: local, function-preserving restructuring that shrinks the
//! network and diversifies its shape before mapping.

use crate::factor::{factor_cover, FactorCube};
use aig::{mffc_size, Aig, Lit};
use techmap::cuts::{enumerate_cuts, CutsOptions};
use techmap::truth::isop;

/// Options for the resynthesis passes.
#[derive(Debug, Clone, Copy)]
pub struct ResynthOptions {
    /// Maximum cut size used for re-expression (4 for rewrite, 6 for refactor).
    pub cut_size: usize,
    /// Maximum number of cuts considered per node.
    pub cut_limit: usize,
    /// Accept re-implementations that are the same size as the logic they
    /// replace (increases structural diversity at no size cost).
    pub zero_gain: bool,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        ResynthOptions {
            cut_size: 4,
            cut_limit: 5,
            zero_gain: true,
        }
    }
}

/// 4-input cut rewriting (the ABC `rw` analogue).
pub fn rewrite(aig: &Aig) -> Aig {
    resynthesize(aig, &ResynthOptions::default())
}

/// 6-input cut refactoring (the ABC `rf` analogue).
pub fn refactor(aig: &Aig) -> Aig {
    resynthesize(
        aig,
        &ResynthOptions {
            cut_size: 6,
            cut_limit: 4,
            zero_gain: false,
        },
    )
}

/// Rebuilds the network, re-expressing each node from the best factored form
/// of one of its cuts when that is no larger than the logic it replaces.
pub fn resynthesize(aig: &Aig, options: &ResynthOptions) -> Aig {
    let cut_options = CutsOptions {
        cut_size: options.cut_size.clamp(2, 6),
        cut_limit: options.cut_limit,
    };
    let cuts = enumerate_cuts(aig, &cut_options);
    let fanouts = aig.fanout_counts();

    let (fresh, _) = aig.rebuild(|fresh, id, view| {
        // Budget: how many nodes the old implementation of this cone pays for.
        let budget = mffc_size(aig, id, &fanouts);

        // Try the factored form of each non-trivial cut with more than two
        // leaves; keep the cheapest one measured in newly created nodes.
        let mut best: Option<(Lit, usize)> = None;
        for cut in cuts.cuts(id) {
            if cut.leaves() == [id] || cut.leaves().len() < 3 {
                continue;
            }
            let leaf_lits: Vec<Lit> = cut.leaves().iter().map(|&l| view.node(l)).collect();
            let cubes: Vec<FactorCube> = isop(cut.truth, cut.leaves().len())
                .iter()
                .map(|c| FactorCube {
                    pos: c.pos as u16,
                    neg: c.neg as u16,
                })
                .collect();
            let tree = factor_cover(&cubes);
            let before = fresh.num_nodes();
            let lit = tree.build(fresh, &leaf_lits);
            let cost = fresh.num_nodes() - before;
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((lit, cost));
            }
        }

        let accepted = match best {
            Some((lit, cost)) => {
                let ok = if options.zero_gain {
                    cost <= budget
                } else {
                    cost < budget
                };
                ok.then_some(lit)
            }
            None => None,
        };
        match accepted {
            Some(lit) => lit,
            None => view.copy_gate(fresh, id),
        }
    });
    let result = fresh.cleanup();
    // The per-node gain estimate is a heuristic (shared trial structures can
    // make candidates look cheaper than they end up being); guarantee the
    // pass never grows the network by falling back to the input if it did.
    if result.num_ands() > aig.num_ands() {
        aig.cleanup()
    } else {
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_equiv_exhaustive(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        assert!(a.num_inputs() <= 12);
        for p in 0..(1usize << a.num_inputs()) {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p}");
        }
    }

    /// A circuit with a redundantly expressed cone: f = (a&b) | (a&c),
    /// built literally (4 AND nodes) instead of the factored a&(b|c) (2).
    fn redundant() -> Aig {
        let mut aig = Aig::new("red");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let f = aig.or(ab, ac);
        aig.add_output(f, "f");
        aig
    }

    #[test]
    fn rewrite_preserves_function() {
        let aig = redundant();
        let out = rewrite(&aig);
        check_equiv_exhaustive(&aig, &out);
    }

    #[test]
    fn rewrite_reduces_redundant_cone() {
        let aig = redundant();
        assert_eq!(aig.num_ands(), 3);
        let out = rewrite(&aig);
        // a & (b | c) needs only 2 AND nodes.
        assert!(out.num_ands() <= aig.num_ands());
        check_equiv_exhaustive(&aig, &out);
    }

    #[test]
    fn refactor_preserves_function_on_adder() {
        let mut aig = Aig::new("adder");
        let a: Vec<_> = (0..3).map(|i| aig.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..3).map(|i| aig.add_input(format!("b{i}"))).collect();
        let mut carry = Lit::FALSE;
        for i in 0..3 {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            carry = aig.maj3(a[i], b[i], carry);
            aig.add_output(sum, format!("s{i}"));
        }
        aig.add_output(carry, "cout");
        let out = refactor(&aig);
        check_equiv_exhaustive(&aig, &out);
        let rewritten = rewrite(&aig);
        check_equiv_exhaustive(&aig, &rewritten);
    }

    #[test]
    fn resynthesis_never_grows_much() {
        let mut aig = Aig::new("mixed");
        let inputs = aig.add_inputs("x", 8);
        let mut acc = inputs[0];
        for (i, &lit) in inputs[1..].iter().enumerate() {
            acc = if i % 2 == 0 {
                aig.or(acc, lit)
            } else {
                aig.xor(acc, lit)
            };
        }
        aig.add_output(acc, "f");
        let out = rewrite(&aig);
        check_equiv_exhaustive(&aig, &out);
        assert!(out.num_ands() <= aig.num_ands());
    }

    #[test]
    fn strict_gain_never_increases_size() {
        let aig = redundant();
        let out = resynthesize(
            &aig,
            &ResynthOptions {
                cut_size: 4,
                cut_limit: 5,
                zero_gain: false,
            },
        );
        assert!(out.num_ands() <= aig.num_ands());
        check_equiv_exhaustive(&aig, &out);
    }

    #[test]
    fn handles_trivial_networks() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output(a.not(), "na");
        aig.add_output(Lit::FALSE, "zero");
        let out = rewrite(&aig);
        assert_eq!(out.evaluate(&[true]), vec![false, false]);
        assert_eq!(out.evaluate(&[false]), vec![true, false]);
    }
}
