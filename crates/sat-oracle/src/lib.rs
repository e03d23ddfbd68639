//! The solver `sat` shipped before its modern engine, kept as an independent
//! differential oracle for that engine: `sat`'s and `cec`'s differential
//! tests and the `repro sat` gate load the same clauses into both and compare
//! verdicts, models and conflict counts. Nothing on a flow path uses it.

#![warn(missing_docs)]

mod reference;

pub use reference::ReferenceSolver;
