//! Structural-choice computation: the `dch` analogue.
//!
//! ABC's `dch` accumulates structural choices by rewriting the network in
//! several ways and detecting functionally equivalent nodes across the
//! snapshots by simulation and SAT. Our substitute produces the same net
//! effect for the downstream mapper: it derives an alternative structure
//! (balance + rewrite), stacks it next to the original over shared inputs,
//! and SAT-sweeps the combined network so that equivalent cones collapse onto
//! a single (usually better) implementation.

use crate::{balance, rewrite};
use aig::Aig;
use cec::{SatSweeper, SweepOptions};

/// Computes structural choices and returns the functionally reduced network.
///
/// The alternative structure is `rewrite(balance(aig))`, stacked after the
/// original over shared inputs; the combined network is swept under
/// [`SweepOptions::default`]. The result is combinationally equivalent to the
/// input; redundant functionally equivalent cones (including those only
/// exposed by the alternative structure) are merged.
pub fn dch_like(aig: &Aig) -> Aig {
    let alternative = rewrite(&balance(aig));
    let combined = aig::stack_over_shared_inputs(aig, &alternative, "_alt");
    let (swept, _stats) = SatSweeper::new(SweepOptions::default()).sweep(&combined);
    // Keep only the original outputs (the alternative copies were appended
    // after them and exist purely to seed equivalences).
    keep_first_outputs(&swept, aig.num_outputs())
}

/// Keeps only the first `count` outputs of a network and the logic they
/// reach.
fn keep_first_outputs(aig: &Aig, count: usize) -> Aig {
    let mut trimmed = aig.clone();
    trimmed.clear_outputs();
    for (idx, &po) in aig.outputs().iter().take(count).enumerate() {
        trimmed.add_output(po, aig.output_name(idx));
    }
    trimmed.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cec::{check_equivalence, CecOptions};

    fn sample() -> Aig {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let f = aig.or(ab, ac);
        let g = aig.mux(d, f, c);
        aig.add_output(f, "f");
        aig.add_output(g, "g");
        aig
    }

    #[test]
    fn dch_preserves_function() {
        let aig = sample();
        let out = dch_like(&aig);
        assert_eq!(out.num_outputs(), aig.num_outputs());
        assert_eq!(out.num_inputs(), aig.num_inputs());
        assert!(check_equivalence(&aig, &out, &CecOptions::default()).is_equivalent());
    }

    #[test]
    fn stacking_shares_inputs_and_concatenates_outputs() {
        let aig = sample();
        let alt = balance(&aig);
        let stacked = aig::stack_over_shared_inputs(&aig, &alt, "_alt");
        assert_eq!(stacked.num_inputs(), aig.num_inputs());
        assert_eq!(stacked.num_outputs(), aig.num_outputs() * 2);
        // Both halves implement the same functions.
        for p in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|i| p >> i & 1 == 1).collect();
            let out = stacked.evaluate(&bits);
            assert_eq!(out[0], out[2], "pattern {p}");
            assert_eq!(out[1], out[3], "pattern {p}");
        }
    }

    #[test]
    fn dch_does_not_grow_the_network() {
        let aig = sample();
        let out = dch_like(&aig);
        // Sweeping the stacked structure must fold the duplicate back in.
        assert!(
            out.num_ands() <= aig.num_ands() + 2,
            "{} vs {}",
            out.num_ands(),
            aig.num_ands()
        );
    }
}
