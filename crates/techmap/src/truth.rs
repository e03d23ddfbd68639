//! Truth-table utilities for functions of up to six variables.
//!
//! Truth tables are stored in a `u64`: bit `m` is the function value on the
//! input minterm `m` (variable `i` contributes bit `i` of `m`). Functions of
//! fewer than six variables only use the low `2^n` bits.

use std::sync::atomic::{AtomicU16, Ordering};

/// Standard projection masks: `VAR_MASK[i]` is the truth table of variable
/// `i` over six variables.
pub const VAR_MASK: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Returns the all-ones mask for an `nvars`-variable truth table.
#[inline]
pub fn full_mask(nvars: usize) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << nvars)) - 1
    }
}

/// Positive cofactor with respect to variable `var` (result is independent of
/// `var`, replicated across both halves).
#[inline]
fn cofactor1(tt: u64, var: usize) -> u64 {
    let shift = 1usize << var;
    let hi = tt & VAR_MASK[var];
    hi | (hi >> shift)
}

/// Negative cofactor with respect to variable `var`.
#[inline]
fn cofactor0(tt: u64, var: usize) -> u64 {
    let shift = 1usize << var;
    let lo = tt & !VAR_MASK[var];
    lo | (lo << shift)
}

/// Returns `true` if the function depends on variable `var`.
#[inline]
fn depends_on(tt: u64, var: usize, nvars: usize) -> bool {
    let mask = full_mask(nvars);
    (cofactor0(tt, var) ^ cofactor1(tt, var)) & mask != 0
}

/// Returns the indices of the variables the function actually depends on.
pub fn support(tt: u64, nvars: usize) -> Vec<usize> {
    (0..nvars).filter(|&v| depends_on(tt, v, nvars)).collect()
}

/// Number of minterms (ones) of an `nvars`-variable function.
#[inline]
pub fn count_ones(tt: u64, nvars: usize) -> u32 {
    (tt & full_mask(nvars)).count_ones()
}

/// Evaluates the function on a single input assignment (bit `i` of `minterm`
/// is the value of variable `i`).
#[inline]
pub fn eval(tt: u64, minterm: usize) -> bool {
    tt >> minterm & 1 == 1
}

// ---------------------------------------------------------------------------
// Cubes and irredundant sum-of-products (Minato-Morreale)
// ---------------------------------------------------------------------------

/// A product term over at most six variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    /// Bit `i` set: variable `i` appears positively.
    pub pos: u8,
    /// Bit `i` set: variable `i` appears negatively.
    pub neg: u8,
}

impl Cube {
    /// The constant-true cube (no literals).
    pub const TRUE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// Truth table of the cube over `nvars` variables.
    pub fn truth(&self, nvars: usize) -> u64 {
        let mut tt = full_mask(nvars);
        for (v, &mask) in VAR_MASK.iter().enumerate().take(nvars) {
            if self.pos >> v & 1 == 1 {
                tt &= mask;
            }
            if self.neg >> v & 1 == 1 {
                tt &= !mask;
            }
        }
        tt & full_mask(nvars)
    }
}

impl std::fmt::Display for Cube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pos == 0 && self.neg == 0 {
            return write!(f, "1");
        }
        for v in 0..6 {
            if self.pos >> v & 1 == 1 {
                write!(f, "{}", (b'a' + v) as char)?;
            }
            if self.neg >> v & 1 == 1 {
                write!(f, "!{}", (b'a' + v) as char)?;
            }
        }
        Ok(())
    }
}

/// Computes an irredundant sum-of-products cover of `tt` over `nvars`
/// variables using the Minato-Morreale ISOP recursion.
pub fn isop(tt: u64, nvars: usize) -> Vec<Cube> {
    let mask = full_mask(nvars);
    let tt = tt & mask;
    let (cubes, cover) = isop_rec(tt, tt, nvars);
    debug_assert_eq!(cover & mask, tt);
    cubes
}

/// ISOP over an interval: lower bound `l` (must cover) and upper bound `u`
/// (may cover). Returns the cubes and the function they cover.
fn isop_rec(l: u64, u: u64, nvars: usize) -> (Vec<Cube>, u64) {
    let mask = full_mask(nvars);
    let l = l & mask;
    let u = u & mask;
    debug_assert_eq!(l & !u, 0, "lower bound must imply upper bound");
    if l == 0 {
        return (Vec::new(), 0);
    }
    if u == mask {
        return (vec![Cube::TRUE], mask);
    }
    // Pick the topmost variable in the support of either bound.
    let var = (0..nvars)
        .rev()
        .find(|&v| depends_on(l, v, nvars) || depends_on(u, v, nvars))
        .unwrap_or_else(|| unreachable!("non-constant interval must depend on some variable"));

    let l0 = cofactor0(l, var) & mask;
    let l1 = cofactor1(l, var) & mask;
    let u0 = cofactor0(u, var) & mask;
    let u1 = cofactor1(u, var) & mask;

    // Cubes that must contain the literal !var.
    let (cubes_neg, f_neg) = isop_rec(l0 & !u1, u0, nvars);
    // Cubes that must contain the literal var.
    let (cubes_pos, f_pos) = isop_rec(l1 & !u0, u1, nvars);
    // Remaining minterms, coverable without mentioning var.
    let l_rest = (l0 & !f_neg) | (l1 & !f_pos);
    let (cubes_rest, f_rest) = isop_rec(l_rest, u0 & u1, nvars);

    let mut cubes = Vec::with_capacity(cubes_neg.len() + cubes_pos.len() + cubes_rest.len());
    for mut c in cubes_neg {
        c.neg |= 1 << var;
        cubes.push(c);
    }
    for mut c in cubes_pos {
        c.pos |= 1 << var;
        cubes.push(c);
    }
    cubes.extend(cubes_rest);

    let vmask = VAR_MASK[var];
    let cover = ((f_neg & !vmask) | (f_pos & vmask) | f_rest) & mask;
    debug_assert_eq!(l & !cover, 0);
    debug_assert_eq!(cover & !u, 0);
    (cubes, cover)
}

// ---------------------------------------------------------------------------
// NPN canonicalization for functions of up to four variables
// ---------------------------------------------------------------------------

/// Applies an input permutation, input phase flips and an output phase to a
/// 4-variable truth table.
pub fn transform_tt4(tt: u16, perm: &[usize; 4], input_flips: u8, output_flip: bool) -> u16 {
    let mut out: u16 = 0;
    for minterm in 0..16u16 {
        // Build the source minterm: variable perm[i] of the source takes the
        // (possibly flipped) value of variable i of the destination.
        let mut src = 0u16;
        for (dst_var, &src_var) in perm.iter().enumerate() {
            let mut bit = minterm >> dst_var & 1;
            if input_flips >> dst_var & 1 == 1 {
                bit ^= 1;
            }
            if bit == 1 {
                src |= 1 << src_var;
            }
        }
        let mut value = tt >> src & 1;
        if output_flip {
            value ^= 1;
        }
        if value == 1 {
            out |= 1 << minterm;
        }
    }
    out
}

const PERMS4: [[usize; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// The complement of each 4-variable table's NPN representative, filled on
/// first use. Stored complemented so the zero-initialised static reads as
/// "not computed yet": a table or its output negation has bit 15 clear, so a
/// representative is at most `0x7FFF` and its complement is never zero.
static NPN4: [AtomicU16; 1 << 16] = [const { AtomicU16::new(0) }; 1 << 16];

/// Computes the NPN-canonical representative of a 4-variable truth table:
/// the minimum value over all input permutations, input negations and output
/// negation. Functions of fewer variables should be zero-extended to four
/// variables (i.e. made independent of the unused variables) first.
///
/// The 768-transform search runs once per table per process; later calls,
/// from any thread, read the result from a shared table.
pub fn npn_canon4(tt: u16) -> u16 {
    // Relaxed: a slot publishes nothing but its own value, and threads racing
    // on an empty slot compute and store the same one.
    let slot = &NPN4[usize::from(tt)];
    let stored = slot.load(Ordering::Relaxed);
    if stored != 0 {
        return !stored;
    }
    let canon = npn_search4(tt);
    slot.store(!canon, Ordering::Relaxed);
    canon
}

/// The minimum over all 768 NPN transforms of `tt`.
fn npn_search4(tt: u16) -> u16 {
    let mut best = u16::MAX;
    for perm in &PERMS4 {
        for flips in 0..16u8 {
            for out_flip in [false, true] {
                let t = transform_tt4(tt, perm, flips, out_flip);
                if t < best {
                    best = t;
                }
            }
        }
    }
    best
}

/// Expands an `nvars`-variable truth table (`nvars <= 4`) into a 4-variable
/// table that ignores the extra variables.
pub fn expand_to_4(tt: u64, nvars: usize) -> u16 {
    assert!(nvars <= 4, "expand_to_4 requires at most 4 variables");
    // Minterm `m` reads bit `m mod 2^nvars`: the low `2^nvars` bits repeat
    // across the 16, doubling the filled width each step.
    let mut out = tt & full_mask(nvars);
    let mut width = 1usize << nvars;
    while width < 16 {
        out |= out << width;
        width *= 2;
    }
    out as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates a cube cover back into a truth table.
    fn cover_truth(cubes: &[Cube], nvars: usize) -> u64 {
        cubes.iter().fold(0u64, |acc, c| acc | c.truth(nvars))
    }

    const AND2: u64 = 0b1000;
    const OR2: u64 = 0b1110;
    const XOR2: u64 = 0b0110;

    #[test]
    fn masks_are_projections() {
        for (v, &mask) in VAR_MASK.iter().enumerate() {
            for m in 0..64usize {
                assert_eq!(eval(mask, m), m >> v & 1 == 1);
            }
        }
    }

    #[test]
    fn cofactors_of_and() {
        // f = a & b (2 vars): f|a=1 is b, f|a=0 is 0.
        let f = AND2;
        assert_eq!(cofactor1(f, 0) & full_mask(2), 0b1100);
        assert_eq!(cofactor0(f, 0) & full_mask(2), 0);
        assert_eq!(cofactor1(f, 1) & full_mask(2), 0b1010);
    }

    #[test]
    fn support_detection() {
        assert_eq!(support(AND2, 2), vec![0, 1]);
        assert_eq!(support(VAR_MASK[0], 3), vec![0]);
        assert_eq!(support(0, 4), Vec::<usize>::new());
        assert_eq!(support(full_mask(4), 4), Vec::<usize>::new());
    }

    #[test]
    fn isop_of_simple_functions() {
        // AND: one cube with two positive literals.
        let cubes = isop(AND2, 2);
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].num_literals(), 2);
        assert_eq!(cover_truth(&cubes, 2), AND2);
        // OR: two cubes of one literal each.
        let cubes = isop(OR2, 2);
        assert_eq!(cover_truth(&cubes, 2), OR2);
        assert!(cubes.len() <= 2);
        // XOR: two cubes of two literals.
        let cubes = isop(XOR2, 2);
        assert_eq!(cubes.len(), 2);
        assert_eq!(cover_truth(&cubes, 2), XOR2);
        // Constants.
        assert!(isop(0, 3).is_empty());
        assert_eq!(isop(full_mask(3), 3), vec![Cube::TRUE]);
    }

    #[test]
    fn isop_covers_random_functions_exactly() {
        // Deterministic pseudo-random functions over 4..6 variables.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for nvars in 2..=6usize {
            for _ in 0..50 {
                let tt = next() & full_mask(nvars);
                let cubes = isop(tt, nvars);
                assert_eq!(cover_truth(&cubes, nvars), tt, "nvars={nvars} tt={tt:#x}");
            }
        }
    }

    #[test]
    fn isop_is_irredundant_for_majority() {
        // MAJ3 = ab + bc + ac: exactly three 2-literal cubes.
        let a = VAR_MASK[0];
        let b = VAR_MASK[1];
        let c = VAR_MASK[2];
        let maj = (a & b | b & c | a & c) & full_mask(3);
        let cubes = isop(maj, 3);
        assert_eq!(cubes.len(), 3);
        assert!(cubes.iter().all(|c| c.num_literals() == 2));
    }

    #[test]
    fn cube_truth_and_display() {
        let cube = Cube {
            pos: 0b001,
            neg: 0b010,
        };
        // a & !b over 2 vars: minterm 1 only.
        assert_eq!(cube.truth(2), 0b0010);
        assert_eq!(cube.to_string(), "a!b");
        assert_eq!(Cube::TRUE.to_string(), "1");
        assert_eq!(Cube::TRUE.truth(2), full_mask(2));
    }

    #[test]
    fn npn_groups_related_functions_together() {
        // AND with any input/output phases is NPN-equivalent to NOR, NAND, etc.
        let and4 = expand_to_4(AND2, 2);
        let nand4 = expand_to_4(!AND2 & full_mask(2), 2);
        let or4 = expand_to_4(OR2, 2);
        let nor4 = expand_to_4(!OR2 & full_mask(2), 2);
        let canon = npn_canon4(and4);
        assert_eq!(npn_canon4(nand4), canon);
        assert_eq!(npn_canon4(or4), canon);
        assert_eq!(npn_canon4(nor4), canon);
        // XOR is in a different class.
        assert_ne!(npn_canon4(expand_to_4(XOR2, 2)), canon);
    }

    #[test]
    fn npn_is_invariant_under_permutation() {
        // f = a & !b & c  vs  g = c & !a & b (a permutation + phases of f).
        let f = VAR_MASK[0] & !VAR_MASK[1] & VAR_MASK[2] & full_mask(3);
        let g = VAR_MASK[2] & !VAR_MASK[0] & VAR_MASK[1] & full_mask(3);
        assert_eq!(npn_canon4(expand_to_4(f, 3)), npn_canon4(expand_to_4(g, 3)));
    }

    #[test]
    fn transform_identity_is_noop() {
        for tt in [0x8000u16, 0x6996, 0x1234, 0xFFFF, 0x0000] {
            assert_eq!(transform_tt4(tt, &[0, 1, 2, 3], 0, false), tt);
        }
    }

    #[test]
    fn expand_to_4_ignores_missing_vars() {
        let and4 = expand_to_4(AND2, 2);
        // The expanded function must not depend on variables 2 and 3.
        assert!(!depends_on(and4 as u64, 2, 4));
        assert!(!depends_on(and4 as u64, 3, 4));
        assert!(depends_on(and4 as u64, 0, 4));
    }

    #[test]
    fn expand_to_4_is_the_minterm_definition_on_every_table() {
        // Bits above the low `2^nvars` must not leak into the expansion.
        let garbage = 0xA5A5_5A5A_C3C3_3C3C_u64;
        for nvars in 0..=4usize {
            let bits = 1usize << nvars;
            for tt in 0..1u64 << bits {
                let expected = (0..16usize).fold(0u16, |acc, m| {
                    acc | (u16::from(tt >> (m % bits) & 1 == 1) << m)
                });
                let noisy = tt | (garbage & !full_mask(nvars));
                assert_eq!(expand_to_4(tt, nvars), expected, "{nvars} vars, {tt:#x}");
                assert_eq!(
                    expand_to_4(noisy, nvars),
                    expected,
                    "{nvars} vars, {noisy:#x}"
                );
            }
        }
    }
}
