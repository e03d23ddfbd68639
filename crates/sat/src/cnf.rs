//! CNF construction helpers: Tseitin encodings of common gates.
//!
//! These helpers add the clauses that define a fresh output literal as a
//! Boolean function of input literals, which is how AIGs are translated to
//! CNF by the `cec` crate. They are generic over [`ClauseSink`], so the same
//! encoding can target the main [`Solver`], a plain
//! [`crate::dimacs::CnfFormula`], or a solver outside this crate.

use crate::{Lit, Solver, Var};

/// Anything clauses can be encoded into: a solver or a CNF container.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;
    /// Adds a clause. Returns `false` if the sink has become trivially
    /// unsatisfiable (containers always return `true`).
    fn add_clause(&mut self, lits: &[Lit]) -> bool;
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits)
    }
}

/// Adds clauses asserting `out = a AND b`.
pub fn encode_and<S: ClauseSink>(sink: &mut S, out: Lit, a: Lit, b: Lit) {
    // out -> a, out -> b, (a & b) -> out
    sink.add_clause(&[!out, a]);
    sink.add_clause(&[!out, b]);
    sink.add_clause(&[out, !a, !b]);
}

/// Adds clauses asserting `out = a OR b`.
pub fn encode_or<S: ClauseSink>(sink: &mut S, out: Lit, a: Lit, b: Lit) {
    encode_and(sink, !out, !a, !b);
}

/// Adds clauses asserting `out = a XOR b`.
pub fn encode_xor<S: ClauseSink>(sink: &mut S, out: Lit, a: Lit, b: Lit) {
    sink.add_clause(&[!out, a, b]);
    sink.add_clause(&[!out, !a, !b]);
    sink.add_clause(&[out, !a, b]);
    sink.add_clause(&[out, a, !b]);
}

/// Adds clauses asserting `out = (a == b)`.
pub fn encode_equiv<S: ClauseSink>(sink: &mut S, out: Lit, a: Lit, b: Lit) {
    encode_xor(sink, !out, a, b);
}

/// Adds clauses asserting `out = sel ? t : e` (a 2:1 multiplexer).
pub fn encode_mux<S: ClauseSink>(sink: &mut S, out: Lit, sel: Lit, t: Lit, e: Lit) {
    sink.add_clause(&[!sel, !t, out]);
    sink.add_clause(&[!sel, t, !out]);
    sink.add_clause(&[sel, !e, out]);
    sink.add_clause(&[sel, e, !out]);
}

/// Adds clauses asserting that at least one of `lits` is true.
pub fn encode_at_least_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    sink.add_clause(lits);
}

/// Adds pairwise clauses asserting that at most one of `lits` is true.
pub fn encode_at_most_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    for i in 0..lits.len() {
        for j in (i + 1)..lits.len() {
            sink.add_clause(&[!lits[i], !lits[j]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SatResult, Solver, Var};

    fn fresh(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(solver.new_var())).collect()
    }

    /// Checks that `encode` defines exactly the truth table `expect`, where
    /// `expect[i]` is the output for the input pattern `i` over `n` inputs.
    fn check_gate(n: usize, expect: &[bool], encode: impl Fn(&mut Solver, Lit, &[Lit])) {
        assert_eq!(expect.len(), 1 << n);
        for (pattern, &expect_out) in expect.iter().enumerate() {
            for force_out in [false, true] {
                let mut s = Solver::new();
                let inputs = fresh(&mut s, n);
                let out = Lit::pos(s.new_var());
                encode(&mut s, out, &inputs);
                let mut assumptions: Vec<Lit> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| if pattern >> i & 1 == 1 { l } else { !l })
                    .collect();
                assumptions.push(if force_out { out } else { !out });
                let result = s.solve_with_assumptions(&assumptions);
                let expected_sat = expect_out == force_out;
                assert_eq!(
                    result,
                    if expected_sat {
                        SatResult::Sat
                    } else {
                        SatResult::Unsat
                    },
                    "pattern {pattern:b}, out={force_out}"
                );
            }
        }
    }

    #[test]
    fn and_gate_truth_table() {
        check_gate(2, &[false, false, false, true], |s, out, ins| {
            encode_and(s, out, ins[0], ins[1])
        });
    }

    #[test]
    fn or_gate_truth_table() {
        check_gate(2, &[false, true, true, true], |s, out, ins| {
            encode_or(s, out, ins[0], ins[1])
        });
    }

    #[test]
    fn xor_gate_truth_table() {
        check_gate(2, &[false, true, true, false], |s, out, ins| {
            encode_xor(s, out, ins[0], ins[1])
        });
    }

    #[test]
    fn equiv_gate_truth_table() {
        check_gate(2, &[true, false, false, true], |s, out, ins| {
            encode_equiv(s, out, ins[0], ins[1])
        });
    }

    #[test]
    fn mux_gate_truth_table() {
        // Inputs ordered (sel, t, e): out = sel ? t : e.
        let mut expect = vec![false; 8];
        for (p, slot) in expect.iter_mut().enumerate() {
            let sel = p & 1 == 1;
            let t = p & 2 == 2;
            let e = p & 4 == 4;
            *slot = if sel { t } else { e };
        }
        check_gate(3, &expect, |s, out, ins| {
            encode_mux(s, out, ins[0], ins[1], ins[2])
        });
    }

    #[test]
    fn cardinality_helpers() {
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..4).map(|_| Lit::pos(s.new_var())).collect();
        encode_at_least_one(&mut s, &lits);
        encode_at_most_one(&mut s, &lits);
        assert_eq!(s.solve(), SatResult::Sat);
        let ones = lits.iter().filter(|&&l| s.value(l) == Some(true)).count();
        assert_eq!(ones, 1);
        // Forcing two of them true is UNSAT.
        assert_eq!(
            s.solve_with_assumptions(&[lits[0], lits[1]]),
            SatResult::Unsat
        );
        let _ = Var(0);
    }
}
