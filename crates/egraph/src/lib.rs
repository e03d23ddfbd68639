//! A from-scratch e-graph / equality-saturation engine.
//!
//! This crate replaces the `egg` library that the E-morphic paper builds on.
//! It provides the same conceptual API surface:
//!
//! * [`Language`] / [`FromOp`] — the term language an e-graph is built over,
//!   plus [`RecExpr`] terms and s-expression parsing/printing.
//! * [`EGraph`] — the e-graph itself: hash-consed e-nodes grouped into
//!   e-classes, with union-find and *incremental*, worklist-driven
//!   congruence-closure rebuilding (egg-style deferred parent repair), plus
//!   an operator index that prunes pattern search.
//! * [`Pattern`] / [`Rewrite`] — syntactic rewrite rules applied by
//!   e-matching; rewriting is non-destructive (it only adds equalities).
//! * [`Runner`] — the equality-saturation loop with node/iteration/time
//!   limits and match-throttling schedulers.
//! * [`pool`] — the one indexed worker pool every parallel stage of the
//!   workspace runs on, and the home of the thread-count-independence
//!   contract.
//! * [`DagSelection`] — one chosen e-node per e-class, and
//!   [`DagSelection::try_fold`], the one walk over it. The extraction
//!   engines that choose the nodes live in the `emorphic` crate.
//! * [`serialize`] — a JSON-serializable snapshot of an e-graph, the basis of
//!   E-morphic's intermediate DSL (paper Fig. 7).
//!
//! # Example
//!
//! ```
//! use egraph::{DagSelection, RecExpr, Rewrite, Runner, SymbolLang};
//!
//! // (/ (* a 2) 2)  ==>  a, via commutativity and cancellation
//! let rules = vec![
//!     Rewrite::parse("comm-mul", "(* ?x ?y)", "(* ?y ?x)").unwrap(),
//!     Rewrite::parse("cancel", "(/ (* ?x ?y) ?y)", "?x").unwrap(),
//! ];
//! let expr: RecExpr<SymbolLang> = "(/ (* 2 a) 2)".parse().unwrap();
//! let runner = Runner::default().with_expr(&expr).run(&rules);
//! let root = runner.roots[0];
//! // The leaf `a` now sits in the root's class ...
//! let a = SymbolLang::leaf("a");
//! assert_eq!(runner.egraph.lookup(&a), Some(root));
//! // ... so a selection may pick it there.
//! let mut selection = DagSelection { choices: Default::default() };
//! selection.set(root, a);
//! assert_eq!(selection.try_to_recexpr(&runner.egraph, root).unwrap().to_string(), "a");
//! ```

#![warn(missing_docs)]

mod egraph;
mod extract;
mod id;
mod language;
mod pattern;
pub mod pool;
mod rewrite;
mod runner;
pub mod serialize;
mod unionfind;

pub use egraph::{audit_egraph, EClass, EGraph};
pub use extract::{DagSelection, SelectionError};
pub use fxhash::{FxHashMap, FxHashSet};
pub use id::Id;
pub use language::{op_key_of, FromOp, Language, RecExpr, SymbolLang};
pub use pattern::{ENodeOrVar, MatchScratch, Pattern, SearchMatches, Subst, Var};
pub use rewrite::Rewrite;
pub use runner::{IterationReport, Runner, RunnerLimits, Scheduler, StopReason};
pub use unionfind::UnionFind;

/// Errors produced while parsing terms, patterns or rewrite rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}
