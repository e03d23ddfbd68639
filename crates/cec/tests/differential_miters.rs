//! Differential testing of the two SAT engines on *miter* workloads: the
//! exact CNFs the equivalence checker produces, rather than random clause
//! soup. A benchgen circuit is Tseitin-encoded twice over shared inputs into
//! a [`CnfFormula`] (via the [`ClauseSink`] abstraction), the formula is
//! loaded into both the modern [`Solver`] and the [`ReferenceSolver`]
//! oracle, and every output-pair query must agree: same verdict, models
//! validated by clause evaluation, and matching-output pairs proved `Unsat`.
//!
//! The sweeper's cone-scoped queries are held to the same oracle: a
//! `Solver::solve_within` scoped to the fanin cones of the two outputs
//! must give the reference's verdict on the whole CNF, and its `Sat` model,
//! read back as an input pattern, must drive the outputs to the assumed
//! values under `Aig::evaluate`.
//!
//! Run with `PROPTEST_CASES=2000` (or higher) for the PR gate.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, AigNode, Lit as ALit};
use cec::AigCnf;
use proptest::prelude::*;
use sat::dimacs::CnfFormula;
use sat::{ClauseSink, Lit as SLit, SatResult, Var};
use sat_oracle::ReferenceSolver;

struct MiterInstance {
    cnf: CnfFormula,
    outputs_a: Vec<SLit>,
    outputs_b: Vec<SLit>,
}

/// Encodes `aig` twice over shared inputs — the standard miter construction.
fn encode_images(aig: &Aig) -> (CnfFormula, AigCnf, AigCnf) {
    let mut cnf = CnfFormula::default();
    let shared: Vec<SLit> = (0..aig.num_inputs())
        .map(|_| SLit::pos(cnf.new_var()))
        .collect();
    let image_a = AigCnf::encode(&mut cnf, aig, Some(&shared));
    let image_b = AigCnf::encode(&mut cnf, aig, Some(&shared));
    (cnf, image_a, image_b)
}

fn encode_miter(aig: &Aig) -> MiterInstance {
    let (cnf, image_a, image_b) = encode_images(aig);
    MiterInstance {
        cnf,
        outputs_a: image_a.output_lits,
        outputs_b: image_b.output_lits,
    }
}

fn clauses_satisfied(cnf: &CnfFormula, value: impl Fn(SLit) -> Option<bool>) -> bool {
    cnf.clauses
        .iter()
        .all(|cl| cl.iter().any(|&l| value(l).unwrap_or(true)))
}

/// Runs the two-phase output-pair query on both engines and cross-checks.
fn check_pair(instance: &MiterInstance, oa: usize, ob: usize) -> Result<(), TestCaseError> {
    let mut solver = instance.cnf.to_solver();
    let mut oracle = ReferenceSolver::new();
    instance.cnf.load_into(&mut oracle);
    let (a, b) = (instance.outputs_a[oa], instance.outputs_b[ob]);
    let mut any_sat = false;
    for (pa, pb) in [(true, false), (false, true)] {
        let assumptions = [if pa { a } else { !a }, if pb { b } else { !b }];
        let new_verdict = solver.solve_with_assumptions(&assumptions);
        let old_verdict = oracle.solve_with_assumptions(&assumptions);
        prop_assert_eq!(new_verdict, old_verdict, "miter verdict disagreement");
        match new_verdict {
            SatResult::Sat => {
                any_sat = true;
                prop_assert!(
                    clauses_satisfied(&instance.cnf, |l| solver.value(l)),
                    "new engine model violates a miter clause"
                );
                prop_assert!(
                    clauses_satisfied(&instance.cnf, |l| oracle.value(l)),
                    "reference model violates a miter clause"
                );
            }
            SatResult::Unsat => {
                // The failed-assumption core must itself be unsatisfiable.
                let core: Vec<SLit> = solver.failed_assumptions().to_vec();
                for l in &core {
                    prop_assert!(assumptions.contains(l));
                }
                prop_assert_eq!(
                    solver.solve_with_assumptions(&core),
                    SatResult::Unsat,
                    "assumption core is not unsatisfiable"
                );
            }
            SatResult::Unknown => prop_assert!(false, "unlimited budget returned Unknown"),
        }
    }
    if oa == ob {
        prop_assert!(!any_sat, "same output pair must be equivalent");
    }
    Ok(())
}

/// The variables of the fanin cones of `roots`, each read through its own
/// image's [`AigCnf::node`]: a fanin-closed set of gate variables.
fn cone_scope(aig: &Aig, roots: [(&AigCnf, ALit); 2]) -> Vec<Var> {
    let mut scope = Vec::new();
    for (image, root) in roots {
        let mut seen = vec![false; aig.num_nodes()];
        let mut stack = vec![root.node()];
        while let Some(node) = stack.pop() {
            if std::mem::replace(&mut seen[node.index()], true) {
                continue;
            }
            scope.push(image.node(node).var());
            if let AigNode::And { fanin0, fanin1 } = aig.node(node) {
                stack.extend([fanin0.node(), fanin1.node()]);
            }
        }
    }
    scope
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    /// Every output of image A against every output of image B, on one
    /// incremental solver, each query scoped to the pair's two cones.
    #[test]
    fn cone_scoped_queries_are_sound(seed in proptest::prelude::any::<u64>()) {
        let aig = benchgen::random_aig(6, 60, 4, seed);
        let (cnf, image_a, image_b) = encode_images(&aig);
        let mut solver = cnf.to_solver();
        let mut oracle = ReferenceSolver::new();
        cnf.load_into(&mut oracle);
        let outputs = aig.outputs();
        for oa in 0..outputs.len() {
            for ob in 0..outputs.len() {
                let scope = cone_scope(&aig, [(&image_a, outputs[oa]), (&image_b, outputs[ob])]);
                let (a, b) = (image_a.output_lits[oa], image_b.output_lits[ob]);
                for (pa, pb) in [(true, false), (false, true)] {
                    let assumptions = [if pa { a } else { !a }, if pb { b } else { !b }];
                    let verdict = solver.solve_within(&assumptions, &scope);
                    prop_assert_eq!(
                        verdict,
                        oracle.solve_with_assumptions(&assumptions),
                        "outputs {} / {} scoped verdict", oa, ob
                    );
                    if verdict == SatResult::Sat {
                        let pattern: Vec<bool> = image_a
                            .input_lits
                            .iter()
                            .map(|&l| solver.value(l).unwrap_or(false))
                            .collect();
                        let values = aig.evaluate(&pattern);
                        prop_assert_eq!(
                            (values[oa], values[ob]),
                            (pa, pb),
                            "outputs {} / {}: the scoped model does not separate them", oa, ob
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_aig_miters_agree(seed in proptest::prelude::any::<u64>()) {
        let aig = benchgen::random_aig(5, 30, 3, seed);
        let instance = encode_miter(&aig);
        for oa in 0..instance.outputs_a.len() {
            for ob in 0..instance.outputs_b.len() {
                check_pair(&instance, oa, ob)?;
            }
        }
    }
}

#[test]
fn arithmetic_miters_agree() {
    for aig in [
        benchgen::adder(4).aig,
        benchgen::multiplier(3).aig,
        benchgen::square(3).aig,
    ] {
        let instance = encode_miter(&aig);
        for o in 0..instance.outputs_a.len() {
            check_pair(&instance, o, o).expect("differential check failed");
        }
        // At least one cross-output pair exercises the Sat path.
        if instance.outputs_a.len() >= 2 {
            check_pair(&instance, 0, 1).expect("differential check failed");
        }
    }
}
