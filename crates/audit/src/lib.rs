//! The shared vocabulary of the workspace's invariant audits.
//!
//! Every artifact that crosses a phase boundary in the E-morphic pipeline —
//! AIGs, e-graphs, choice networks, mapped netlists, window partitions, SAT
//! solver state — has structural invariants that, when silently violated,
//! surface much later as wrong QoR numbers or verification failures. The
//! crate that owns a structure audits it: a private `audit` module beside
//! the type holds one checker per invariant, the crate's catalog and its
//! entry point (`aig::audit_aig`, `egraph::audit_egraph`,
//! `sat::audit_solver`, `choices::audit_choices`, `techmap::audit_netlist`,
//! `window::audit_partition` and `window::audit_stitched`). The checkers read
//! the structure's private fields, and the unit tests of that module corrupt
//! those fields and assert that exactly the expected rule fires.
//!
//! This crate holds only what the owning crates share, and it depends on no
//! workspace crate: the typed diagnostic model ([`RuleId`], [`Severity`],
//! [`Diagnostic`], [`AuditReport`]), the [`Check`] trait, and the cost gate
//! ([`CheckCost`], [`AuditLevel`], [`run_checks`]).
//!
//! The flows thread an [`AuditLevel`] through
//! (`emorphic::FlowConfig::audit_level`): `Off` costs nothing,
//! `PhaseBoundaries` runs the [`CheckCost::Cheap`] checkers after each phase,
//! and `Paranoid` adds the expensive simulation-based ones.
//!
//! # Adding a checker
//!
//! A checker lives in the crate that owns the structure it checks. Implement
//! [`Check`] in that crate's `audit` module, add the instance to the catalog
//! there, and plant the corruption it must catch in a unit test of the same
//! module. A caller may also run a catalog of its own through
//! [`run_checks`]:
//!
//! ```
//! use audit::{run_checks, AuditLevel, AuditReport, Check, CheckCost, RuleId, Severity};
//!
//! /// A toy artifact: a design summary.
//! struct Design {
//!     outputs: usize,
//! }
//!
//! /// Flags designs that drive no primary output at all.
//! struct HasOutputs;
//!
//! impl Check<Design> for HasOutputs {
//!     fn rule(&self) -> RuleId {
//!         RuleId::Custom("design-has-outputs")
//!     }
//!     fn cost(&self) -> CheckCost {
//!         CheckCost::Cheap
//!     }
//!     fn check(&self, design: &Design, report: &mut AuditReport) {
//!         if design.outputs == 0 {
//!             report.push(self.rule(), Severity::Warning, "design", "no primary outputs");
//!         }
//!     }
//! }
//!
//! let checks: Vec<Box<dyn Check<Design>>> = vec![Box::new(HasOutputs)];
//! let report = run_checks(&Design { outputs: 0 }, &checks, AuditLevel::PhaseBoundaries);
//! assert_eq!(report.checks_run, 1);
//! assert_eq!(report.fired_rules(), vec![RuleId::Custom("design-has-outputs")]);
//! ```

#![warn(missing_docs)]

mod report;

pub use report::{AuditLevel, AuditReport, CheckCost, Diagnostic, RuleId, Severity};

/// One invariant checker over artifact type `T`.
///
/// A checker owns exactly one [`RuleId`] and pushes a [`Diagnostic`] per
/// violation it finds; it must never panic on corrupted input (the whole
/// point is diagnosing structures other code would crash on).
pub trait Check<T: ?Sized> {
    /// The rule this checker enforces.
    fn rule(&self) -> RuleId;

    /// How expensive the check is; decides the minimum [`AuditLevel`].
    fn cost(&self) -> CheckCost {
        CheckCost::Cheap
    }

    /// Inspects `artifact`, pushing one diagnostic per violation.
    fn check(&self, artifact: &T, report: &mut AuditReport);
}

/// Runs every checker in `checks` whose cost the `level` admits, returning
/// the aggregated report. At [`AuditLevel::Off`] nothing runs and the report
/// is empty with `checks_run == 0`.
pub fn run_checks<T: ?Sized>(
    artifact: &T,
    checks: &[Box<dyn Check<T>>],
    level: AuditLevel,
) -> AuditReport {
    let mut report = AuditReport::new();
    for check in checks {
        if level.runs(check.cost()) {
            report.checks_run += 1;
            check.check(artifact, &mut report);
        }
    }
    report
}
