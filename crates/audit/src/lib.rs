//! The shared vocabulary of the workspace's invariant audits.
//!
//! Every artifact that crosses a phase boundary in the E-morphic pipeline —
//! AIGs, e-graphs, choice networks, mapped netlists, window partitions, SAT
//! solver state — has structural invariants that, when silently violated,
//! surface much later as wrong QoR numbers or verification failures. The
//! crate that owns a structure audits it: a private `audit` module beside
//! the type holds one checker function per invariant and the crate's entry
//! point (`aig::audit_aig`, `egraph::audit_egraph`, `sat::audit_solver`,
//! `choices::audit_choices`, `techmap::audit_netlist`,
//! `window::audit_partition` and `window::audit_stitched`). The checkers read
//! the structure's private fields, and the unit tests of that module corrupt
//! those fields and assert that exactly the expected rule fires.
//!
//! This crate holds only what the owning crates share, and it depends on no
//! workspace crate: the typed diagnostic model ([`RuleId`], [`Severity`],
//! [`Diagnostic`], [`AuditReport`]) and the [`AuditLevel`] the flows thread
//! through (`emorphic::FlowConfig::audit_level`). `Off` costs nothing,
//! `PhaseBoundaries` runs the cheap checkers after each phase, and
//! `Paranoid` adds the expensive simulation-based one.
//!
//! # Adding a checker
//!
//! A checker lives in the crate that owns the structure it checks. Write it
//! as a function in that crate's `audit` module that takes the artifacts it
//! reads plus the report and pushes its own [`RuleId`]; call it from the
//! entry point through [`AuditReport::run`], which counts it in
//! `checks_run`; and plant the corruption it must catch in a unit test of
//! the same module. The shape, on a toy artifact:
//!
//! ```
//! use audit::{AuditLevel, AuditReport, RuleId, Severity};
//!
//! /// [`RuleId::AigDanglingAnd`], on a toy artifact: the number of gates
//! /// no output reaches.
//! fn dangling(unreached: usize, report: &mut AuditReport) {
//!     if unreached > 0 {
//!         report.push(
//!             RuleId::AigDanglingAnd,
//!             Severity::Warning,
//!             "design",
//!             format!("{unreached} gate(s) reach no output"),
//!         );
//!     }
//! }
//!
//! fn audit_design(unreached: usize, level: AuditLevel) -> AuditReport {
//!     let mut report = AuditReport::new();
//!     if level != AuditLevel::Off {
//!         report.run(|r| dangling(unreached, r));
//!     }
//!     report
//! }
//!
//! assert_eq!(audit_design(2, AuditLevel::Off).checks_run, 0);
//! let report = audit_design(2, AuditLevel::PhaseBoundaries);
//! assert_eq!(report.checks_run, 1);
//! assert_eq!(report.fired_rules(), vec![RuleId::AigDanglingAnd]);
//! assert!(report.has_no_errors());
//! ```

#![warn(missing_docs)]

mod report;

pub use report::{AuditLevel, AuditReport, Diagnostic, RuleId, Severity};
