//! Bit-parallel (64 patterns per word) simulation of AIGs.
//!
//! Simulation is used for candidate-equivalence detection in SAT sweeping
//! and for random functional checks in tests.

use crate::{Aig, AigNode, Lit};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A simulation signature: one 64-bit word per simulated pattern block.
pub type SimVector = Vec<u64>;

/// Bit-parallel simulator holding one signature per AIG node.
#[derive(Debug, Clone)]
pub struct Simulator {
    words: usize,
    values: Vec<SimVector>,
}

impl Simulator {
    /// Simulates `aig` on explicit input signatures.
    ///
    /// `inputs[i]` is the signature of primary input `i`; each must contain
    /// exactly `words` 64-bit words.
    ///
    /// # Panics
    /// Panics if the number of signatures does not match the number of inputs
    /// or if any signature has the wrong length.
    pub fn with_inputs(aig: &Aig, inputs: &[SimVector], words: usize) -> Self {
        assert_eq!(
            inputs.len(),
            aig.num_inputs(),
            "one signature per input required"
        );
        for sig in inputs {
            assert_eq!(sig.len(), words, "signature length mismatch");
        }
        let mut values = vec![vec![0u64; words]; aig.num_nodes()];
        for (i, node) in aig.node_ids().zip(0..aig.num_nodes()) {
            let _ = i;
            let id = crate::NodeId(node as u32);
            match aig.node(id) {
                AigNode::Const => {}
                AigNode::Input { index } => {
                    values[node] = inputs[*index as usize].clone();
                }
                AigNode::And { fanin0, fanin1 } => {
                    let mut out = vec![0u64; words];
                    for (w, slot) in out.iter_mut().enumerate() {
                        let a = Self::lit_word(&values, *fanin0, w);
                        let b = Self::lit_word(&values, *fanin1, w);
                        *slot = a & b;
                    }
                    values[node] = out;
                }
            }
        }
        Simulator { words, values }
    }

    /// Simulates `aig` on `words * 64` uniformly random patterns drawn from a
    /// seeded generator (deterministic for a given seed).
    pub fn random(aig: &Aig, words: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<SimVector> = (0..aig.num_inputs())
            .map(|_| (0..words).map(|_| rng.random::<u64>()).collect())
            .collect();
        Self::with_inputs(aig, &inputs, words)
    }

    /// Simulates all `2^n` input combinations of a small network (`n <= 16`),
    /// producing exhaustive signatures. Patterns are packed in counting order.
    pub fn exhaustive(aig: &Aig) -> Self {
        let n = aig.num_inputs();
        assert!(n <= 16, "exhaustive simulation limited to 16 inputs");
        let patterns = 1usize << n;
        let words = patterns.div_ceil(64);
        let mut inputs = vec![vec![0u64; words]; n];
        for p in 0..patterns {
            for (i, input) in inputs.iter_mut().enumerate() {
                if p >> i & 1 == 1 {
                    input[p / 64] |= 1u64 << (p % 64);
                }
            }
        }
        Self::with_inputs(aig, &inputs, words)
    }

    #[inline]
    fn lit_word(values: &[SimVector], lit: Lit, word: usize) -> u64 {
        let v = values[lit.node().index()][word];
        if lit.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// Number of 64-bit words per signature.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Returns the signature of a node (uncomplemented).
    pub fn node_signature(&self, node: crate::NodeId) -> &SimVector {
        &self.values[node.index()]
    }

    /// Returns the signature of a literal (complement applied).
    pub fn lit_signature(&self, lit: Lit) -> SimVector {
        let base = &self.values[lit.node().index()];
        if lit.is_complemented() {
            base.iter().map(|w| !w).collect()
        } else {
            base.clone()
        }
    }

    /// Returns the signatures of all primary outputs of `aig`.
    ///
    /// The simulator must have been built from the same network.
    pub fn output_signatures(&self, aig: &Aig) -> Vec<SimVector> {
        aig.outputs()
            .iter()
            .map(|&l| self.lit_signature(l))
            .collect()
    }

    /// Checks whether two literals have identical signatures (a necessary
    /// condition for functional equivalence).
    pub fn lits_equal(&self, a: Lit, b: Lit) -> bool {
        self.lit_signature(a) == self.lit_signature(b)
    }
}

/// Extracts the truth table of output `output` of a small network as a bit
/// string over its `n <= 6` inputs (bit `p` is the value on input pattern `p`).
pub fn small_truth_table(aig: &Aig, output: usize) -> u64 {
    assert!(aig.num_inputs() <= 6, "truth table limited to 6 inputs");
    let sim = Simulator::exhaustive(aig);
    let sig = sim.lit_signature(aig.outputs()[output]);
    let patterns = 1usize << aig.num_inputs();
    let mask = if patterns == 64 {
        u64::MAX
    } else {
        (1u64 << patterns) - 1
    };
    sig[0] & mask
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn exhaustive_matches_evaluate() {
        let aig = full_adder();
        let sim = Simulator::exhaustive(&aig);
        let outs = sim.output_signatures(&aig);
        for p in 0..8usize {
            let bits = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            let expect = aig.evaluate(&bits);
            for (o, sig) in outs.iter().enumerate() {
                let got = sig[0] >> p & 1 == 1;
                assert_eq!(got, expect[o], "pattern {p} output {o}");
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let aig = full_adder();
        let s1 = Simulator::random(&aig, 4, 7);
        let s2 = Simulator::random(&aig, 4, 7);
        let s3 = Simulator::random(&aig, 4, 8);
        assert_eq!(s1.output_signatures(&aig), s2.output_signatures(&aig));
        assert_ne!(s1.output_signatures(&aig), s3.output_signatures(&aig));
    }

    #[test]
    fn lit_signature_complements() {
        let aig = full_adder();
        let sim = Simulator::random(&aig, 2, 1);
        let lit = aig.outputs()[0];
        let pos = sim.lit_signature(lit);
        let neg = sim.lit_signature(lit.not());
        for (p, n) in pos.iter().zip(neg.iter()) {
            assert_eq!(*p, !*n);
        }
        assert!(sim.lits_equal(lit, lit));
        assert!(!sim.lits_equal(lit, lit.not()));
    }

    #[test]
    fn small_truth_table_of_and() {
        let mut aig = Aig::new("and2");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let y = aig.and(a, b);
        aig.add_output(y, "y");
        // Patterns: 00,01(a=1),10(b=1),11 -> AND true only on pattern 3.
        assert_eq!(small_truth_table(&aig, 0), 0b1000);
    }

    #[test]
    fn constant_node_signature_is_zero() {
        let mut aig = Aig::new("c");
        let a = aig.add_input("a");
        aig.add_output(Lit::FALSE, "zero");
        aig.add_output(Lit::TRUE, "one");
        aig.add_output(a, "a");
        let sim = Simulator::random(&aig, 3, 11);
        let outs = sim.output_signatures(&aig);
        assert!(outs[0].iter().all(|w| *w == 0));
        assert!(outs[1].iter().all(|w| *w == u64::MAX));
    }
}
