//! Workspace facade for the E-morphic reproduction.
//!
//! This crate re-exports the workspace members under one roof so the
//! examples and integration tests can use a single dependency. Library users
//! should depend on the individual crates (`emorphic`, `aig`, `egraph`, ...)
//! directly.

pub use aig;
pub use benchgen;
pub use cec;
pub use egraph;
pub use emorphic;
pub use logic_opt;
pub use sat;
pub use techmap;
