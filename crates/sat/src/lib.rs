//! A CDCL SAT solver.
//!
//! This crate provides the Boolean-satisfiability substrate used by the
//! equivalence checker (`cec`) and by the structural-choice computation in
//! `logic-opt`. The solver implements the standard conflict-driven
//! clause-learning loop: two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS-style activity decision ordering, phase saving, Luby
//! restarts and periodic deletion of inactive learnt clauses. Solving under
//! assumptions is supported for incremental use, and
//! [`Solver::failed_assumptions`] exposes an unsatisfiable assumption core
//! after an `Unsat`-under-assumptions answer. [`Solver::solve_within`] runs
//! the same search scoped to a variable set (a query's cone), deciding and
//! propagating only there.
//!
//! The previous-generation solver lives outside this crate, in the
//! workspace's `sat-oracle` crate: an independent implementation the
//! property tests and the `repro sat` gate check this one against.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, Lit, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[Lit::pos(a), Lit::pos(b)]);   // a | b
//! solver.add_clause(&[Lit::neg(a)]);                // !a
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert_eq!(solver.value(Lit::pos(b)), Some(true));
//! solver.add_clause(&[Lit::neg(b)]);                // !b -> UNSAT
//! assert_eq!(solver.solve(), SatResult::Unsat);
//! ```

#![warn(missing_docs)]

pub mod cnf;
pub mod dimacs;
mod literal;
mod solver;

pub use cnf::ClauseSink;
pub use literal::{Lit, Var};
pub use solver::{audit_solver, SatResult, Solver, SolverStats};
