//! E-morphic: scalable equality saturation for structural exploration in
//! logic synthesis.
//!
//! This crate implements the paper's primary contribution on top of the
//! workspace substrates (`aig`, `egraph`, `logic-opt`, `techmap`, `cec`):
//!
//! * [`lang`] — the Boolean term language used inside the e-graph and the
//!   Table-I rewrite-rule set ([`rules`]).
//! * [`convert`] — **direct DAG-to-DAG conversion** between AIGs and e-graphs
//!   (Section III-D1). (The S-expression-based E-Syn baseline it is compared
//!   against in Table III lives with that table, in `emorphic-bench`.)
//! * [`checkpoint`] — the intermediate JSON DSL of Fig. 7, which is also the
//!   checkpoint format of a saturated e-graph.
//! * [`extract`] — the [`ExtractionEngine`] API over bottom-up extraction
//!   with **solution-space pruning** (Fig. 6), DAG-cost and slack-aware
//!   refinement, and the **simulated-annealing extractor** of Algorithm 1 /
//!   Fig. 4, raced in parallel by [`PortfolioEngine`].
//! * [`flow`] — the end-to-end synthesis flows: the delay-oriented baseline
//!   `(st; if -g -K 6 -C 8)(st; dch; map)×4` and the E-morphic flow that
//!   inserts e-graph resynthesis before the final mapping round, with the
//!   runtime breakdown instrumentation used for Fig. 9.
//!
//! # Quickstart
//!
//! ```
//! use emorphic::flow::{emorphic_flow, FlowConfig};
//!
//! // A small adder stands in for an EPFL circuit.
//! let circuit = benchgen::adder(8).aig;
//! let config = FlowConfig::fast();
//! let result = emorphic_flow(&circuit, &config);
//! assert!(result.verified);
//! assert!(result.qor.delay_ps > 0.0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod convert;
pub mod extract;
pub mod flow;
pub mod lang;
pub mod report;
pub mod rules;
pub mod windowed;

pub use audit::{AuditLevel, AuditReport};
pub use checkpoint::FlowCheckpoint;
pub use convert::{aig_to_egraph, try_selection_to_aig, ConversionResult};
pub use extract::sa::{SaEngine, SaOptions, SaResult};
pub use extract::{
    BottomUpEngine, EngineReport, ExtractBudget, ExtractError, ExtractStats, Extraction,
    ExtractionCost, ExtractionEngine, ExtractorKind, GlobalGreedyDagEngine, PortfolioEngine,
    PortfolioScorer, Selection, SlackAwareEngine,
};
pub use flow::{
    baseline_flow, emorphic_flow, emorphic_map_flow, extract_network, map_network, prepare_network,
    saturate_network, saturate_network_with_interrupt, verify_and_map, FlowConfig, FlowResult,
    MapFlowConfig, MapFlowError, MapFlowResult, SaturatedState,
};
pub use lang::BoolLang;
pub use rules::{all_rules, rule_set_id, table1_rules};
pub use windowed::{saturate_windows, WindowReport};
