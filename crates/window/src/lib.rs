//! Windowed saturation substrate: carve, then stitch.
//!
//! A monolithic e-graph must hold an entire design, so saturation budgets
//! bite long before industrial sizes. This crate provides the escape hatch
//! used by ABC-style choice flows and partitioned eqsat mappers: carve the
//! AIG into overlapping, reconvergence-bounded *windows*, let the caller
//! saturate each window as an independent (small, cheap) e-graph, and stitch
//! the per-window choice spaces back into one global [`choices::ChoiceAig`]
//! through a boundary-literal translation table.
//!
//! The two halves live in [`mod@partition`] and [`mod@stitch`]:
//!
//! * [`partition()`] seeds windows at output drivers and multi-fanout
//!   nodes, grows each window downward while the cut stays within
//!   [`WindowOptions::max_leaves`] and the interior within
//!   [`WindowOptions::max_volume`], and guarantees every AND gate of the
//!   host is covered by at least one window volume.
//! * [`stitch()`] rebuilds the host network, replays each window's exported
//!   choice alternatives at the window root, and links them into choice
//!   classes whose representative is the host node — producing a single
//!   [`choices::ChoiceAig`] a choice-aware mapper consumes directly.
//!
//! Windows overlap by design (a node may sit in several volumes); only the
//! *root* association is unique, which is what the stitcher keys on.

#![warn(missing_docs)]

mod audit;
pub mod partition;
pub mod stitch;

pub use audit::{audit_partition, audit_stitched};
pub use partition::{partition, Partition, PartitionStats, Window};
pub use stitch::{stitch, StitchStats, Stitched, WindowChoiceSpace};

use aig::AigError;
use choices::ChoiceError;

/// Knobs bounding window growth.
///
/// | knob | meaning | default |
/// |------|---------|---------|
/// | `max_leaves` | cut width ceiling (window input count) | 8 |
/// | `max_volume` | interior AND-gate ceiling per window | 64 |
///
/// Coverage is unconditional: ANDs left over after the primary seeding pass
/// are swept up by fallback windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOptions {
    /// Maximum number of cut leaves (window inputs).
    pub max_leaves: usize,
    /// Maximum number of interior AND gates per window.
    pub max_volume: usize,
}

impl Default for WindowOptions {
    fn default() -> Self {
        WindowOptions {
            max_leaves: 8,
            max_volume: 64,
        }
    }
}

impl WindowOptions {
    /// Validates the knob combination.
    ///
    /// # Errors
    /// [`WindowError::InvalidOptions`] when `max_leaves < 2` (an AND gate
    /// alone needs two leaves) or `max_volume < 1` (a window must hold its
    /// root).
    pub fn validate(&self) -> Result<(), WindowError> {
        if self.max_leaves < 2 {
            return Err(WindowError::InvalidOptions(format!(
                "max_leaves must be at least 2 (an AND root alone has two fanins), got {}",
                self.max_leaves
            )));
        }
        if self.max_volume < 1 {
            return Err(WindowError::InvalidOptions(
                "max_volume must be at least 1 (a window must contain its root)".into(),
            ));
        }
        Ok(())
    }
}

/// Errors produced while partitioning or stitching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowError {
    /// The [`WindowOptions`] combination is unsatisfiable.
    InvalidOptions(String),
    /// Cone extraction rejected a window cut (propagated from [`aig`]).
    Cone(AigError),
    /// The stitched choice network failed validation (propagated from
    /// [`choices`]).
    Stitch(ChoiceError),
    /// A boundary literal could not be translated through the stitch table.
    Translation(String),
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::InvalidOptions(msg) => write!(f, "invalid window options: {msg}"),
            WindowError::Cone(e) => write!(f, "window cone extraction failed: {e}"),
            WindowError::Stitch(e) => write!(f, "stitched choice network invalid: {e}"),
            WindowError::Translation(msg) => write!(f, "boundary translation failed: {msg}"),
        }
    }
}

impl std::error::Error for WindowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WindowError::Cone(e) => Some(e),
            WindowError::Stitch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AigError> for WindowError {
    fn from(e: AigError) -> Self {
        WindowError::Cone(e)
    }
}

impl From<ChoiceError> for WindowError {
    fn from(e: ChoiceError) -> Self {
        WindowError::Stitch(e)
    }
}
