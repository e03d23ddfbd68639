//! Regression tests locking in the incremental e-graph core end to end:
//!
//! * `emorphic_flow` on a cross-section of `benchgen` circuits stays
//!   equivalence-preserving (internal CEC verification *and* an independent
//!   `cec` check of the final network against the input), and its saturation
//!   reports behave sanely — non-decreasing e-node counts across iterations.
//! * Randomized saturation runs over the Boolean logic language keep the
//!   e-graph invariants intact after every single `rebuild()`.

use audit::AuditLevel;
use cec::{check_equivalence, CecOptions};
use egraph::{audit_egraph, EGraph, Language};
use emorphic::flow::{emorphic_flow, FlowConfig};
use emorphic::{aig_to_egraph, all_rules};
use proptest::prelude::*;

/// Every e-graph invariant, through the typed auditor with all of its rules
/// on; the failure text lists each diagnostic.
fn check_invariants<L: Language>(egraph: &EGraph<L>) -> Result<(), String> {
    let report = audit_egraph(egraph, AuditLevel::Paranoid);
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.to_string())
    }
}

#[test]
fn emorphic_flow_verified_with_monotone_saturation_reports() {
    let config = FlowConfig::fast();
    let circuits = vec![
        benchgen::adder(6),
        benchgen::multiplier(4),
        benchgen::arbiter(8),
        benchgen::mem_ctrl(5),
    ];
    for circuit in circuits {
        let result = emorphic_flow(&circuit.aig, &config);
        assert!(
            result.verified,
            "{}: internal CEC verification failed",
            circuit.name
        );
        // Independent end-to-end check: the final technology-independent
        // network is equivalent to the input circuit.
        let check = check_equivalence(&circuit.aig, &result.final_aig, &CecOptions::default());
        assert!(check.is_equivalent(), "{}: {:?}", circuit.name, check);

        // The saturation phase ran and reported per-iteration statistics.
        assert!(
            !result.saturation.is_empty(),
            "{}: no saturation iterations recorded",
            circuit.name
        );
        // Equality saturation only adds equalities: the e-node count after
        // each rebuild must never shrink from one iteration to the next.
        for pair in result.saturation.windows(2) {
            assert!(
                pair[1].egraph_nodes >= pair[0].egraph_nodes,
                "{}: e-node count decreased between iterations {} ({}) and {} ({})",
                circuit.name,
                pair[0].iteration,
                pair[0].egraph_nodes,
                pair[1].iteration,
                pair[1].egraph_nodes,
            );
        }
        assert_eq!(
            result.saturation.last().unwrap().egraph_nodes,
            result.egraph_nodes,
            "{}: final report disagrees with the flow summary",
            circuit.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Convert a random circuit, then saturate it with the full Table-I rule
    /// set one rule at a time, checking the e-graph invariants after every
    /// rebuild along the way.
    #[test]
    fn invariants_hold_after_every_rebuild_over_bool_lang(
        inputs in 3usize..7,
        ands in 8usize..40,
        seed in 0u64..500,
    ) {
        let circuit = benchgen::random_aig(inputs, ands, 2, seed);
        let conversion = aig_to_egraph(&circuit);
        let mut egraph = conversion.egraph;
        check_invariants(&egraph).map_err(TestCaseError)?;
        let rules = all_rules();
        for iteration in 0..2usize {
            for rule in &rules {
                rule.run(&mut egraph, 100);
                egraph.rebuild();
                check_invariants(&egraph)
                    .map_err(|e| TestCaseError(format!(
                        "iteration {iteration}, rule {}: {e}", rule.name
                    )))?;
            }
        }
        // The roots must still resolve to live classes holding the circuit.
        for root in &conversion.roots {
            let class = egraph.class(*root);
            prop_assert!(!class.is_empty());
        }
        // Parent lists cover every child edge (spot check via parent_index).
        let parents = egraph.parent_index();
        for class in egraph.classes() {
            for node in class.iter() {
                for &child in node.children() {
                    prop_assert!(
                        parents.get(&egraph.find(child)).is_some_and(|list| {
                            list.iter().any(|(pclass, _)| *pclass == class.id)
                        }),
                        "missing parent edge {child} -> {}", class.id
                    );
                }
            }
        }
    }
}
