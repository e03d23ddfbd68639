//! CNF construction: the Tseitin encoding of an AND gate.
//!
//! [`encode_and`] adds the clauses that define a fresh output literal as the
//! conjunction of two input literals, which is how AIGs are translated to
//! CNF by the `cec` crate. It is generic over [`ClauseSink`], so the same
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SatResult, Solver};

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
}
