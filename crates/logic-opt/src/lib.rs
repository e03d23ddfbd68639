//! Technology-independent logic optimization passes over AIGs.
//!
//! These passes reproduce the role of ABC's pre-mapping script commands in
//! the E-morphic flows:
//!
//! * [`balance`] — depth-oriented rebalancing of AND/OR trees (ABC `b`).
//! * [`rewrite`] / [`refactor`] — cut-based resynthesis from factored forms
//!   (ABC `rw` / `rf`): each node's cut function is re-implemented from an
//!   algebraically factored sum-of-products and the cheaper structure wins.
//! * [`dch_like`] — the structural-choice substitute for ABC `dch`: random
//!   simulation plus SAT sweeping merges functionally equivalent nodes so the
//!   mapper sees a functionally reduced network.
//!
//! The flows in the `emorphic` crate call the passes in the paper's
//! `(st; if -g -K 6 -C 8)(st; dch; map)` order directly.

#![warn(missing_docs)]

mod balance;
mod choices;
mod factor;
mod resynth;

pub use balance::balance;
pub use choices::dch_like;
pub use factor::{factor_cover, FactorTree};
pub use resynth::{refactor, rewrite};
