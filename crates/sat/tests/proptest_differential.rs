//! Differential property tests: the modern CDCL engine ([`sat::Solver`])
//! against the first-generation solver kept as its oracle
//! ([`sat_oracle::ReferenceSolver`]).
//!
//! On random CNFs, with and without assumptions, across incremental
//! clause-addition/solve interleavings:
//! * verdicts must be identical (budgets are unlimited, so `Unknown` never
//!   appears);
//! * every `Sat` model must satisfy every clause of the formula, checked by
//!   direct clause evaluation on each engine's own model;
//! * every failed-assumption core returned by the new engine must itself be
//!   unsatisfiable together with the formula (validated on both engines).
//!
//! A scoped query over every variable, `Solver::solve_within(a, all)`, must
//! be `Solver::solve_with_assumptions(a)` bit for bit: verdict, every model
//! value, failed core and `SolverStats`, one query after another.
//!
//! Run with `PROPTEST_CASES=2000` (or higher) for the PR gate.

use proptest::prelude::*;
use sat::{Lit, SatResult, Solver, Var};
use sat_oracle::ReferenceSolver;

type RawClause = Vec<(u32, bool)>;

/// Random CNF: `num_vars` in 1..=16, clauses of length 1..=4. Densities span
/// under- and over-constrained, so both verdicts are well represented.
fn cnf_strategy() -> impl Strategy<Value = (u32, Vec<RawClause>)> {
    (1u32..17).prop_flat_map(|num_vars| {
        let lit = (0..num_vars, any::<bool>());
        let clause = proptest::collection::vec(lit, 1..=4);
        let clauses = proptest::collection::vec(clause, 1..=64);
        (Just(num_vars), clauses)
    })
}

fn assumption_strategy(num_vars: u32) -> impl Strategy<Value = Vec<(u32, bool)>> {
    proptest::collection::vec((0..num_vars, any::<bool>()), 0..=4)
}

fn build_both(num_vars: u32, clauses: &[RawClause]) -> (Solver, ReferenceSolver, Vec<Vec<Lit>>) {
    let mut solver = Solver::new();
    let mut oracle = ReferenceSolver::new();
    for _ in 0..num_vars {
        solver.new_var();
        oracle.new_var();
    }
    let lit_clauses: Vec<Vec<Lit>> = clauses
        .iter()
        .map(|cl| cl.iter().map(|&(v, neg)| Lit::new(Var(v), neg)).collect())
        .collect();
    for cl in &lit_clauses {
        solver.add_clause(cl);
        oracle.add_clause(cl);
    }
    (solver, oracle, lit_clauses)
}

/// Every clause must contain a literal that is true in the model. A literal
/// left unassigned counts as satisfiable (its variable is free), though both
/// engines in fact produce total assignments.
fn model_satisfies(clauses: &[Vec<Lit>], value: impl Fn(Lit) -> Option<bool>) -> bool {
    clauses
        .iter()
        .all(|cl| cl.iter().any(|&l| value(l).unwrap_or(true)))
}

proptest! {
    #[test]
    fn verdicts_agree_on_random_cnfs(cnf_input in cnf_strategy()) {
        let (num_vars, clauses) = cnf_input;
        let (mut solver, mut oracle, lit_clauses) = build_both(num_vars, &clauses);
        let new_verdict = solver.solve();
        let old_verdict = oracle.solve();
        prop_assert_eq!(new_verdict, old_verdict, "verdict disagreement");
        if new_verdict == SatResult::Sat {
            prop_assert!(
                model_satisfies(&lit_clauses, |l| solver.value(l)),
                "new engine returned a non-model"
            );
            prop_assert!(
                model_satisfies(&lit_clauses, |l| oracle.value(l)),
                "reference returned a non-model"
            );
        }
    }

    #[test]
    fn verdicts_agree_under_assumptions(
        cnf_input in cnf_strategy(),
        raw_assumptions in assumption_strategy(16),
    ) {
        let (num_vars, clauses) = cnf_input;
        let assumptions: Vec<Lit> = raw_assumptions
            .iter()
            .filter(|&&(v, _)| v < num_vars)
            .map(|&(v, neg)| Lit::new(Var(v), neg))
            .collect();
        let (mut solver, mut oracle, lit_clauses) = build_both(num_vars, &clauses);
        let new_verdict = solver.solve_with_assumptions(&assumptions);
        let old_verdict = oracle.solve_with_assumptions(&assumptions);
        prop_assert_eq!(new_verdict, old_verdict, "verdict disagreement under assumptions");
        match new_verdict {
            SatResult::Sat => {
                prop_assert!(model_satisfies(&lit_clauses, |l| solver.value(l)));
                for &a in &assumptions {
                    prop_assert_eq!(solver.value(a), Some(true), "assumption not honored");
                }
            }
            SatResult::Unsat => {
                let core: Vec<Lit> = solver.failed_assumptions().to_vec();
                for l in &core {
                    prop_assert!(
                        assumptions.contains(l),
                        "core literal {} is not among the assumptions", l
                    );
                }
                // The core alone must reproduce Unsat — on both engines.
                prop_assert_eq!(
                    solver.solve_with_assumptions(&core),
                    SatResult::Unsat,
                    "core is not unsatisfiable on the new engine"
                );
                prop_assert_eq!(
                    oracle.solve_with_assumptions(&core),
                    SatResult::Unsat,
                    "core is not unsatisfiable on the reference"
                );
            }
            SatResult::Unknown => prop_assert!(false, "unlimited budget returned Unknown"),
        }
    }

    /// Incremental use: interleave clause additions with assumption solves on
    /// ONE solver instance per engine, as the CEC sweep does.
    #[test]
    fn incremental_interleavings_agree(
        cnf_input in cnf_strategy(),
        assumption_rounds in proptest::collection::vec(assumption_strategy(16), 1..=4),
    ) {
        let (num_vars, clauses) = cnf_input;
        let mut solver = Solver::new();
        let mut oracle = ReferenceSolver::new();
        for _ in 0..num_vars {
            solver.new_var();
            oracle.new_var();
        }
        let chunk = clauses.len().div_ceil(assumption_rounds.len());
        let mut added: Vec<Vec<Lit>> = Vec::new();
        for (round, raw_assumptions) in assumption_rounds.iter().enumerate() {
            for cl in clauses.iter().skip(round * chunk).take(chunk) {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(v, neg)| Lit::new(Var(v), neg))
                    .collect();
                solver.add_clause(&lits);
                oracle.add_clause(&lits);
                added.push(lits);
            }
            let assumptions: Vec<Lit> = raw_assumptions
                .iter()
                .filter(|&&(v, _)| v < num_vars)
                .map(|&(v, neg)| Lit::new(Var(v), neg))
                .collect();
            let new_verdict = solver.solve_with_assumptions(&assumptions);
            let old_verdict = oracle.solve_with_assumptions(&assumptions);
            prop_assert_eq!(new_verdict, old_verdict, "round {} disagreement", round);
            if new_verdict == SatResult::Sat {
                prop_assert!(model_satisfies(&added, |l| solver.value(l)));
            }
        }
    }

    /// Two solvers fed the same clauses and assumption rounds, one asked
    /// plainly, one scoped to every variable, must never diverge.
    #[test]
    fn scope_over_every_variable_is_the_plain_query(
        cnf_input in cnf_strategy(),
        assumption_rounds in proptest::collection::vec(assumption_strategy(16), 1..=4),
    ) {
        let (num_vars, clauses) = cnf_input;
        let mut plain = Solver::new();
        let mut scoped = Solver::new();
        let all: Vec<Var> = (0..num_vars).map(|_| {
            plain.new_var();
            scoped.new_var()
        }).collect();
        let chunk = clauses.len().div_ceil(assumption_rounds.len());
        for (round, raw_assumptions) in assumption_rounds.iter().enumerate() {
            for cl in clauses.iter().skip(round * chunk).take(chunk) {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(v, neg)| Lit::new(Var(v), neg))
                    .collect();
                plain.add_clause(&lits);
                scoped.add_clause(&lits);
            }
            let assumptions: Vec<Lit> = raw_assumptions
                .iter()
                .filter(|&&(v, _)| v < num_vars)
                .map(|&(v, neg)| Lit::new(Var(v), neg))
                .collect();
            let verdict = plain.solve_with_assumptions(&assumptions);
            prop_assert_eq!(
                scoped.solve_within(&assumptions, &all),
                verdict,
                "round {} verdict", round
            );
            for &v in &all {
                prop_assert_eq!(
                    scoped.value(Lit::pos(v)),
                    plain.value(Lit::pos(v)),
                    "round {} value of {}", round, Lit::pos(v)
                );
            }
            prop_assert_eq!(scoped.failed_assumptions(), plain.failed_assumptions());
            prop_assert_eq!(scoped.stats(), plain.stats(), "round {} stats", round);
        }
    }
}
