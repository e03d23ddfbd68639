//! Word-level arithmetic building blocks over vectors of AIG literals.
//!
//! All words are little-endian: index 0 is the least-significant bit.

use aig::{Aig, Lit};

/// Adds two equal-width words, returning the sum bits and the carry-out.
pub fn ripple_add(aig: &mut Aig, a: &[Lit], b: &[Lit], carry_in: Lit) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len(), "ripple_add requires equal widths");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = carry_in;
    for i in 0..a.len() {
        let axb = aig.xor(a[i], b[i]);
        sum.push(aig.xor(axb, carry));
        carry = aig.maj3(a[i], b[i], carry);
    }
    (sum, carry)
}

/// Subtracts `b` from `a` (two's complement), returning the difference and a
/// borrow flag that is true when `a < b`.
pub fn ripple_sub(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
    let nb: Vec<Lit> = b.iter().map(|l| l.not()).collect();
    let (diff, carry) = ripple_add(aig, a, &nb, Lit::TRUE);
    (diff, carry.not())
}

/// Bitwise multiplexer between two words: `sel ? t : e`.
pub fn mux_word(aig: &mut Aig, sel: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
    assert_eq!(t.len(), e.len());
    t.iter()
        .zip(e)
        .map(|(&ti, &ei)| aig.mux(sel, ti, ei))
        .collect()
}

/// Unsigned comparison `a >= b`.
pub fn greater_equal(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    let (_, borrow) = ripple_sub(aig, a, b);
    borrow.not()
}

/// Equality comparison of two words.
pub fn equal(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len());
    let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect();
    aig.and_many(&bits)
}

/// Shifts a word left by a constant amount, dropping overflowing bits.
pub fn shift_left_const(a: &[Lit], amount: usize) -> Vec<Lit> {
    let mut out = vec![Lit::FALSE; a.len()];
    for (i, &bit) in a.iter().enumerate() {
        if i + amount < a.len() {
            out[i + amount] = bit;
        }
    }
    out
}

/// Shifts a word right by a constant amount (logical).
pub fn shift_right_const(a: &[Lit], amount: usize) -> Vec<Lit> {
    let mut out = vec![Lit::FALSE; a.len()];
    if amount < a.len() {
        out[..a.len() - amount].copy_from_slice(&a[amount..]);
    }
    out
}

/// Multiplies two words (array multiplier), returning a product of width
/// `a.len() + b.len()`.
pub fn multiply(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let width = a.len() + b.len();
    let mut acc: Vec<Lit> = vec![Lit::FALSE; width];
    for (j, &bj) in b.iter().enumerate() {
        // Partial product: (a & bj) << j, extended to full width.
        let mut partial = vec![Lit::FALSE; width];
        for (i, &ai) in a.iter().enumerate() {
            partial[i + j] = aig.and(ai, bj);
        }
        let (sum, _) = ripple_add(aig, &acc, &partial, Lit::FALSE);
        acc = sum;
    }
    acc
}

/// Zero-extends or truncates a word to the given width.
pub fn resize(a: &[Lit], width: usize) -> Vec<Lit> {
    let mut out = a.to_vec();
    out.resize(width, Lit::FALSE);
    out.truncate(width);
    out
}

/// Converts a constant integer into a word of literals.
pub fn constant_word(value: u64, width: usize) -> Vec<Lit> {
    (0..width)
        .map(|i| {
            if value >> i & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_inputs(aig: &mut Aig, prefix: &str, width: usize) -> Vec<Lit> {
        (0..width)
            .map(|i| aig.add_input(format!("{prefix}{i}")))
            .collect()
    }

    fn to_bits(value: u64, width: usize) -> Vec<bool> {
        (0..width).map(|i| value >> i & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    #[test]
    fn adder_matches_integer_addition() {
        let width = 5;
        let mut aig = Aig::new("add");
        let a = word_inputs(&mut aig, "a", width);
        let b = word_inputs(&mut aig, "b", width);
        let (sum, cout) = ripple_add(&mut aig, &a, &b, Lit::FALSE);
        for &s in &sum {
            aig.add_output(s, "s");
        }
        aig.add_output(cout, "cout");
        for x in [0u64, 1, 7, 13, 31] {
            for y in [0u64, 2, 15, 30, 31] {
                let mut inputs = to_bits(x, width);
                inputs.extend(to_bits(y, width));
                let out = aig.evaluate(&inputs);
                let total = from_bits(&out[..width]) + ((out[width] as u64) << width);
                assert_eq!(total, x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn subtractor_and_comparison() {
        let width = 4;
        let mut aig = Aig::new("sub");
        let a = word_inputs(&mut aig, "a", width);
        let b = word_inputs(&mut aig, "b", width);
        let (diff, borrow) = ripple_sub(&mut aig, &a, &b);
        let ge = greater_equal(&mut aig, &a, &b);
        let eq = equal(&mut aig, &a, &b);
        for &d in &diff {
            aig.add_output(d, "d");
        }
        aig.add_output(borrow, "borrow");
        aig.add_output(ge, "ge");
        aig.add_output(eq, "eq");
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut inputs = to_bits(x, width);
                inputs.extend(to_bits(y, width));
                let out = aig.evaluate(&inputs);
                let diff_val = from_bits(&out[..width]);
                assert_eq!(diff_val, x.wrapping_sub(y) & 0xF, "{x}-{y}");
                assert_eq!(out[width], x < y, "borrow {x} {y}");
                assert_eq!(out[width + 1], x >= y, "ge {x} {y}");
                assert_eq!(out[width + 2], x == y, "eq {x} {y}");
            }
        }
    }

    #[test]
    fn multiplier_matches_integer_multiplication() {
        let width = 4;
        let mut aig = Aig::new("mul");
        let a = word_inputs(&mut aig, "a", width);
        let b = word_inputs(&mut aig, "b", width);
        let product = multiply(&mut aig, &a, &b);
        for &p in &product {
            aig.add_output(p, "p");
        }
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut inputs = to_bits(x, width);
                inputs.extend(to_bits(y, width));
                let out = aig.evaluate(&inputs);
                assert_eq!(from_bits(&out), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn constant_shift_and_mux_words() {
        let width = 6;
        let mut aig = Aig::new("misc");
        let a = word_inputs(&mut aig, "a", width);
        let sel = aig.add_input("sel");
        let shifted = shift_left_const(&a, 2);
        let muxed = mux_word(&mut aig, sel, &shifted, &a);
        for &m in &muxed {
            aig.add_output(m, "m");
        }
        for value in [0u64, 1, 5, 21, 63] {
            for s in [false, true] {
                let mut inputs = to_bits(value, width);
                inputs.push(s);
                let out = aig.evaluate(&inputs);
                let expect = if s { (value << 2) & 0x3F } else { value };
                assert_eq!(from_bits(&out), expect);
            }
        }
    }

    /// Two's-complement negation of a word: `0 - a`.
    fn negate(aig: &mut Aig, a: &[Lit]) -> Vec<Lit> {
        let zeros = vec![Lit::FALSE; a.len()];
        let (diff, _) = ripple_sub(aig, &zeros, a);
        diff
    }

    #[test]
    fn negate_is_twos_complement() {
        let width = 4;
        let mut aig = Aig::new("neg");
        let a = word_inputs(&mut aig, "a", width);
        let n = negate(&mut aig, &a);
        for &bit in &n {
            aig.add_output(bit, "n");
        }
        for x in 0..16u64 {
            let out = aig.evaluate(&to_bits(x, width));
            assert_eq!(from_bits(&out), x.wrapping_neg() & 0xF, "-{x}");
        }
    }

    #[test]
    fn constant_word_roundtrip() {
        let w = constant_word(0b1011, 6);
        assert_eq!(w.len(), 6);
        assert_eq!(w[0], Lit::TRUE);
        assert_eq!(w[1], Lit::TRUE);
        assert_eq!(w[2], Lit::FALSE);
        assert_eq!(w[3], Lit::TRUE);
        assert_eq!(w[4], Lit::FALSE);
        assert_eq!(resize(&w, 3).len(), 3);
        assert_eq!(resize(&w, 8).len(), 8);
    }
}
