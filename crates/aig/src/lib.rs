//! And-Inverter Graph (AIG) package.
//!
//! This crate provides the circuit substrate used throughout the E-morphic
//! reproduction: a structurally hashed [`Aig`] network with constant
//! propagation, depth/fanout queries, 64-bit parallel simulation, cone
//! extraction, and readers/writers for the ASCII AIGER (`.aag`) and the
//! ABC-style equation (`.eqn`) formats.
//!
//! # Quick example
//!
//! ```
//! use aig::Aig;
//!
//! let mut aig = Aig::new("majority");
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let c = aig.add_input("c");
//! let ab = aig.and(a, b);
//! let bc = aig.and(b, c);
//! let ac = aig.and(a, c);
//! let ab_or_bc = aig.or(ab, bc);
//! let maj = aig.or(ab_or_bc, ac);
//! aig.add_output(maj, "maj");
//! assert_eq!(aig.num_inputs(), 3);
//! assert!(aig.num_ands() >= 4);
//! ```

#![warn(missing_docs)]

mod cone;
mod fingerprint;
pub mod io;
mod lit;
mod network;
mod sim;

pub use cone::{mffc_size, try_extract_cone, Cone};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use lit::{Lit, NodeId};
pub use network::{
    audit_aig, audit_aig_dag_only, stack_over_shared_inputs, Aig, AigNode, RebuildView,
};
pub use sim::{small_truth_table, SimVector, Simulator};

/// Errors produced while parsing or manipulating AIGs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AigError {
    /// The input text could not be parsed.
    Parse(String),
    /// The operation referenced a node that does not exist.
    InvalidNode(String),
    /// The network contains features this crate does not support (e.g. latches).
    Unsupported(String),
    /// A literal, variable or index lies outside the range the file's own
    /// header (or declarations) admits.
    OutOfRange(String),
    /// A signal, variable or declaration is defined more than once.
    Duplicate(String),
    /// An explicit cut (leaf set) does not dominate the requested roots:
    /// some path from a root to a primary input misses every leaf.
    InvalidCut(String),
}

impl std::fmt::Display for AigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AigError::Parse(msg) => write!(f, "parse error: {msg}"),
            AigError::InvalidNode(msg) => write!(f, "invalid node: {msg}"),
            AigError::Unsupported(msg) => write!(f, "unsupported feature: {msg}"),
            AigError::OutOfRange(msg) => write!(f, "out of range: {msg}"),
            AigError::Duplicate(msg) => write!(f, "duplicate definition: {msg}"),
            AigError::InvalidCut(msg) => write!(f, "invalid cut: {msg}"),
        }
    }
}

impl std::error::Error for AigError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, AigError>;
