//! Readers and writers for circuit exchange formats.
//!
//! Two formats are supported:
//!
//! * [`aiger`] — the ASCII AIGER format (`.aag`), the standard exchange
//!   format for And-Inverter Graphs.
//! * [`eqn`] — the ABC-style equation format, a list of Boolean assignments
//!   over `!`, `*`, `+`, `^` used by the E-morphic pre-/post-processing.

pub mod aiger;
pub mod eqn;

pub use aiger::{read_aiger, write_aiger};
pub use eqn::{read_eqn, write_eqn};
