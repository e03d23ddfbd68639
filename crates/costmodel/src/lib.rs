//! Dual cost models for E-morphic's extraction loop.
//!
//! The paper evaluates extracted circuits in two modes (Section III-C):
//!
//! * **Quality-prioritized** — run the real technology mapper and use the
//!   post-mapping delay as the cost ([`TechMapCost`]). Accurate but slow.
//! * **Runtime-prioritized** — use a learned model that predicts the
//!   post-mapping delay from cheap structural features ([`LearnedCost`]).
//!   The paper uses the HOGA graph neural network; we reproduce its role
//!   with graph feature extraction ([`features`]) plus ridge regression
//!   ([`regression`]), trained on structural variants labelled by the real
//!   mapper and evaluated with the same metrics the paper reports
//!   (MAPE and Kendall's τ, [`metrics`]).
//!
//! Both models implement the [`CostEvaluator`] trait that the simulated
//! annealing extractor in the `emorphic` crate consumes.

#![warn(missing_docs)]

mod evaluator;
pub mod features;
pub mod metrics;
pub mod regression;

pub use evaluator::{CostEvaluator, LearnedCost, TechMapCost};
pub use features::CircuitFeatures;
pub use regression::RidgeModel;
