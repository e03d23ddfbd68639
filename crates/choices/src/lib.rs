//! Choice networks: map the whole e-space, not one extracted design.
//!
//! A saturated e-graph holds *many* structurally different implementations of
//! every signal, but a conventional flow collapses it to a single circuit
//! before technology mapping ever sees it — discarding exactly the structural
//! diversity the saturation paid for. This crate keeps that diversity alive
//! across the extraction boundary as a [`ChoiceAig`]: an ordinary
//! [`aig::Aig`] whose nodes are grouped into *choice classes* of functionally
//! equivalent representatives, so a choice-aware mapper (see
//! `techmap::cell::try_map_to_cells_with_choices`) can pick the best
//! structure per cut instead of per circuit.
//!
//! Two choice sources are supported behind the same type:
//!
//! * [`egraph_to_choices`] exports a saturated e-graph: each live e-class
//!   becomes a class of top-K representatives ranked by a configurable
//!   structural cost, realized cycle-safely against the class-representative
//!   DAG and structurally hashed into one network.
//! * [`ChoiceAig::from_network_with_classes`] ingests proved equivalence
//!   classes over an existing network (the `dch`/SAT-sweeping route; see
//!   `logic_opt::dch_choices`), rebuilding the network so that the choice
//!   ordering invariant holds and dropping members that would create
//!   combinational cycles.
//!
//! # The choice ordering invariant
//!
//! Every [`ChoiceAig`] guarantees that *all members of a class precede every
//! fanout of the class representative* in topological (node-id) order. A
//! choice-aware cut enumerator can therefore run a single bottom-up pass:
//! when a node first consumes the cuts of a choice class, the cut sets of
//! every member of that class are already available. [`ChoiceAig::new`]
//! validates the invariant, so a mapper may rely on it unconditionally.

#![warn(missing_docs)]

mod export;
mod network;

pub use export::{
    egraph_to_choices, egraph_to_choices_with_selection, BoolExpr, BoolNode, ChoiceConfig,
    ChoiceCost, ClassSelection, ExportStats,
};
pub use network::{audit_choices, filter_ordering, ChoiceAig, ChoiceClass, RebuildStats};

/// Errors produced while building or validating a choice network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChoiceError {
    /// A class member references a node that does not exist or is not an AND
    /// gate.
    InvalidMember(String),
    /// The same node occurs in one class with both phases (it would have to
    /// equal both the class function and its complement).
    PhaseConflict(String),
    /// Two classes share the same representative node.
    DuplicateRepresentative(String),
    /// A fanout of a class representative precedes a member of the class,
    /// violating the choice ordering invariant.
    OrderingViolation(String),
    /// A root e-class has no realizable selection (no finite-cost term).
    NoSelection(String),
    /// The e-graph references a primary input outside the provided name list.
    UnknownInput(String),
    /// The e-graph contains an operator the Boolean exporter cannot
    /// interpret.
    UnsupportedOp(String),
}

impl std::fmt::Display for ChoiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChoiceError::InvalidMember(msg) => write!(f, "invalid choice member: {msg}"),
            ChoiceError::PhaseConflict(msg) => write!(f, "choice phase conflict: {msg}"),
            ChoiceError::DuplicateRepresentative(msg) => {
                write!(f, "duplicate choice representative: {msg}")
            }
            ChoiceError::OrderingViolation(msg) => {
                write!(f, "choice ordering violation: {msg}")
            }
            ChoiceError::NoSelection(msg) => write!(f, "no selection: {msg}"),
            ChoiceError::UnknownInput(msg) => write!(f, "unknown input: {msg}"),
            ChoiceError::UnsupportedOp(msg) => write!(f, "unsupported operator: {msg}"),
        }
    }
}

impl std::error::Error for ChoiceError {}
