//! Property tests of the auditor as a *negative* oracle: random circuits
//! pushed through the real pipeline — parse-shaped AIGs, saturation,
//! choice export, technology mapping, CNF solving — must produce zero
//! diagnostics at [`AuditLevel::Paranoid`] at every stage. Any firing rule
//! here is either a pipeline bug or an over-eager checker; both are worth
//! a counterexample.
//!
//! `PROPTEST_CASES` scales coverage (the deep-sweep workflow runs this
//! suite at thousands of cases in release mode).

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{audit_aig, Aig};
use audit::AuditLevel;
use cec::AigCnf;
use choices::{audit_choices, egraph_to_choices, ChoiceAig, ChoiceConfig};
use egraph::{audit_egraph, Runner, Scheduler};
use emorphic::convert::ConversionResult;
use emorphic::flow::{emorphic_flow, FlowConfig};
use emorphic::{aig_to_egraph, all_rules};
use proptest::prelude::*;
use sat::dimacs::CnfFormula;
use sat::{audit_solver, ClauseSink, Lit as SatLit};
use techmap::cell::map_to_cells;
use techmap::library::asap7_like;
use techmap::{audit_netlist, MapOptions};

/// Saturates a circuit with the paper's rule set at a budget small enough
/// to keep thousands of cases tractable.
fn saturate(aig: &Aig) -> ConversionResult {
    let conversion = aig_to_egraph(aig);
    let runner = Runner::with_egraph(conversion.egraph)
        .with_iter_limit(2)
        .with_node_limit(8_000)
        .with_scheduler(Scheduler::Backoff {
            match_limit: 400,
            ban_length: 2,
        })
        .run(&all_rules());
    ConversionResult {
        roots: conversion
            .roots
            .iter()
            .map(|&r| runner.egraph.find(r))
            .collect(),
        egraph: runner.egraph,
        ..conversion
    }
}

fn export_choices(saturated: &ConversionResult) -> ChoiceAig {
    let (network, _stats) = egraph_to_choices(
        &saturated.egraph,
        &saturated.roots,
        &saturated.input_names,
        &saturated.output_names,
        &saturated.name,
        &ChoiceConfig {
            max_choices: 4,
            ..ChoiceConfig::default()
        },
    )
    .expect("export succeeds on realizable circuits");
    network
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every artifact a random circuit produces on its way through the
    /// pipeline audits clean at Paranoid: the input AIG, the saturated
    /// e-graph, the exported choice network, the mapped netlist, and the
    /// post-solve CDCL state of its CNF image.
    #[test]
    fn pipeline_artifacts_audit_clean_at_paranoid(
        seed in 0u64..100_000,
        num_ands in 8usize..48,
        num_inputs in 3usize..7,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let input_audit = audit_aig(&circuit, AuditLevel::Paranoid);
        prop_assert!(input_audit.has_no_errors(), "input AIG:\n{input_audit}");

        let saturated = saturate(&circuit);
        let egraph_audit = audit_egraph(&saturated.egraph, AuditLevel::Paranoid);
        prop_assert!(egraph_audit.is_clean(), "saturated e-graph:\n{egraph_audit}");

        let choices = export_choices(&saturated);
        let choice_audit = audit_choices(&choices, AuditLevel::Paranoid);
        prop_assert!(choice_audit.is_clean(), "choice network:\n{choice_audit}");

        let netlist = map_to_cells(&circuit, &asap7_like(), &MapOptions::default());
        let netlist_audit = audit_netlist(&circuit, &netlist, AuditLevel::Paranoid);
        prop_assert!(netlist_audit.is_clean(), "mapped netlist:\n{netlist_audit}");

        let mut cnf = CnfFormula::default();
        let inputs: Vec<SatLit> = (0..circuit.num_inputs())
            .map(|_| SatLit::pos(cnf.new_var()))
            .collect();
        let image = AigCnf::encode(&mut cnf, &circuit, Some(&inputs));
        let mut solver = cnf.to_solver();
        let assumptions: Vec<SatLit> = image.output_lits.iter().take(1).copied().collect();
        let _ = solver.solve_with_assumptions(&assumptions);
        let solver_audit = audit_solver(&solver, AuditLevel::Paranoid);
        prop_assert!(solver_audit.is_clean(), "post-solve solver:\n{solver_audit}");
    }

    /// The end-to-end flow with `audit_level = Paranoid` surfaces an empty
    /// report: every phase boundary (saturate / extract / sweep / map)
    /// audits clean in place.
    #[test]
    fn emorphic_flow_audits_clean_at_paranoid(
        seed in 0u64..100_000,
        num_ands in 8usize..40,
        num_inputs in 3usize..6,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let config = FlowConfig::fast().with_audit_level(AuditLevel::Paranoid);
        let result = emorphic_flow(&circuit, &config);
        prop_assert!(result.audit.is_clean(), "flow audit:\n{}", result.audit);
    }
}
