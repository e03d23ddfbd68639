//! Combinational equivalence checking (CEC) and SAT sweeping over AIGs.
//!
//! This crate plays the role of ABC's `cec` and `fraig`/`dch` machinery in
//! the E-morphic reproduction:
//!
//! * [`check_equivalence`] builds a miter between two AIGs and decides output
//!   equivalence with random simulation (fast refutation) followed by SAT
//!   (proof), returning a counterexample when the circuits differ.
//! * [`check_equivalence_swept`] stacks the two AIGs over shared inputs and
//!   SAT-sweeps the stack first, so structurally related cones merge
//!   bottom-up as small local proofs before the surviving output pairs are
//!   decided.
//! * [`SatSweeper`] detects internal functionally equivalent nodes of a
//!   single AIG by simulation-guided candidate grouping plus SAT proofs,
//!   each query scoped to the pair's own fanin cone — the engine behind the
//!   swept check and behind structural *choice* computation in `logic-opt`.
//!
//! Every circuit that E-morphic produces is verified against the original
//! with [`check_equivalence_swept`], mirroring the paper's use of `cec` in
//! ABC.

#![warn(missing_docs)]

/// Default per-SAT-call conflict budget shared by [`CecOptions`] and
/// [`SweepOptions`]: verification is bounded by default, so a hard miter
/// returns [`CecResult::Unknown`] instead of spinning when callers forget to
/// thread an explicit budget.
pub const DEFAULT_CONFLICT_BUDGET: u64 = 10_000;

mod miter;
mod sweep;
mod tseitin;

pub use miter::{
    check_equivalence, check_equivalence_swept, CecOptions, CecResult, Counterexample,
};
pub use sweep::{EquivClasses, SatSweeper, SweepOptions, SweepStats};
pub use tseitin::AigCnf;
