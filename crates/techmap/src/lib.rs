//! Technology mapping for And-Inverter Graphs.
//!
//! This crate is the mapping substrate of the E-morphic reproduction. It
//! provides the pieces the paper's synthesis flows are built from:
//!
//! * [`cuts`] — K-feasible *priority cut* enumeration with per-cut truth
//!   tables (the `if -K 6 -C 8` machinery), plain or pooled over choice
//!   classes: an allocation-free kernel over inline-leaf cuts in one arena.
//! * `cover` (crate-private) — the one statement of the covering algorithm
//!   both mappers run: every cut matched once, then delay-optimal
//!   selection, backward required times, area-flow recovery passes that are
//!   measured exactly and rolled back unless they help. [`lut`] and [`cell`]
//!   are a cost model and an emitter over it.
//! * [`lut`] — delay-oriented LUT mapping with area-flow recovery.
//! * [`sop`] — SOP balancing (`if -g`): delay-driven resynthesis of the
//!   network from balanced sum-of-products forms of the selected cuts.
//! * [`cell`] — standard-cell mapping by NPN Boolean matching against a
//!   built-in 7-nm-style [`library`], producing area (µm²), delay (ps) and
//!   level numbers — the QoR metrics reported throughout the paper. A
//!   caller that only scores a mapping ([`cell::try_map_cost`]) gets the
//!   delay and area without the netlist being emitted.
//! * [`truth`] — small truth-table utilities (cofactors, NPN canonical forms,
//!   irredundant sum-of-products).
//!
//! # Quick example
//!
//! ```
//! use aig::Aig;
//! use techmap::{cell::map_to_cells, library::asap7_like};
//!
//! let mut aig = Aig::new("demo");
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let c = aig.add_input("c");
//! let f = aig.maj3(a, b, c);
//! aig.add_output(f, "maj");
//! let library = asap7_like();
//! let netlist = map_to_cells(&aig, &library, &techmap::MapOptions::default());
//! let qor = netlist.qor();
//! assert!(qor.area_um2 > 0.0);
//! assert!(qor.delay_ps > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub(crate) mod cover;
pub mod cuts;
pub mod library;
pub mod lut;
mod qor;
pub mod sop;
pub mod timing;
pub mod truth;

pub use cell::{audit_netlist, MappedGate, Netlist};
pub use cuts::{Cut, CutSet, CutsOptions, MAX_CUT_LEAVES};
pub use library::{Cell, CellLibrary};
pub use lut::{Lut, LutMapping};
pub use qor::Qor;

/// Typed mapping failures, so unmappable inputs fail cleanly through the
/// flows instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// A node has no cut the library can realize (a well-formed library can
    /// always realize the 2-input AND, so this indicates a broken library).
    NoMatchableCut {
        /// The unmappable node.
        node: aig::NodeId,
    },
    /// The cell library contains no inverter.
    MissingInverter,
    /// The requested cut sets do not fit the enumerator's index types:
    /// `cut_limit` is beyond what its 16-bit parent-cut indices reach, or
    /// `nodes × (cut_limit + 1)` cuts are beyond its 32-bit arena offsets.
    /// Refused before any cut is computed.
    CutSetTooLarge {
        /// Number of nodes of the network.
        nodes: usize,
        /// The requested priority-cut limit.
        cut_limit: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::NoMatchableCut { node } => write!(
                f,
                "node {node} has no matchable cut; the library cannot realize AND2"
            ),
            MapError::MissingInverter => write!(f, "cell library must contain an inverter"),
            MapError::CutSetTooLarge { nodes, cut_limit } => write!(
                f,
                "cut limit {cut_limit} over {nodes} nodes exceeds the cut enumerator's index range"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// Options shared by the mapping passes.
#[derive(Debug, Clone, PartialEq)]
pub struct MapOptions {
    /// Maximum cut size (K).
    pub cut_size: usize,
    /// Maximum number of priority cuts stored per node (C).
    pub cut_limit: usize,
    /// Number of area-recovery passes after the delay-oriented pass. Each
    /// pass is measured exactly and kept only if it strictly reduces area
    /// without exceeding the delay target, so more passes are never worse.
    pub area_passes: usize,
    /// Delay target for standard-cell mapping in ps. `None` (the default)
    /// holds the delay-optimal critical path; a looser target lets the
    /// recovery passes trade the extra slack for area. Targets below the
    /// achievable critical path are floored at it.
    pub delay_target_ps: Option<f64>,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            cut_size: 4,
            cut_limit: 8,
            area_passes: 1,
            delay_target_ps: None,
        }
    }
}

impl MapOptions {
    /// The paper's LUT-mapping configuration: `if -K 6 -C 8`.
    pub fn lut6() -> Self {
        MapOptions {
            cut_size: 6,
            ..MapOptions::default()
        }
    }

    /// Sets the standard-cell delay target in ps.
    #[must_use]
    pub fn with_delay_target_ps(mut self, target: f64) -> Self {
        self.delay_target_ps = Some(target);
        self
    }

    /// Sets the number of area-recovery passes.
    #[must_use]
    pub fn with_area_passes(mut self, passes: usize) -> Self {
        self.area_passes = passes;
        self
    }
}
