//! Differential testing of the two SAT engines on *miter* workloads: the
//! exact CNFs the equivalence checker produces, rather than random clause
//! soup. A benchgen circuit is Tseitin-encoded twice over shared inputs into
//! a [`CnfFormula`] (via the [`ClauseSink`] abstraction), the formula is
//! loaded into both the modern [`Solver`] and the [`ReferenceSolver`]
//! oracle, and every output-pair query must agree: same verdict, models
//! validated by clause evaluation, and matching-output pairs proved `Unsat`.
//!
//! Run with `PROPTEST_CASES=2000` (or higher) for the PR gate.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use cec::AigCnf;
use proptest::prelude::*;
use sat::dimacs::CnfFormula;
use sat::{ClauseSink, Lit as SLit, SatResult};
use sat_oracle::ReferenceSolver;

struct MiterInstance {
    cnf: CnfFormula,
    outputs_a: Vec<SLit>,
    outputs_b: Vec<SLit>,
}

/// Encodes `aig` twice over shared inputs — the standard miter construction.
fn encode_miter(aig: &aig::Aig) -> MiterInstance {
    let mut cnf = CnfFormula::default();
    let shared: Vec<SLit> = (0..aig.num_inputs())
        .map(|_| SLit::pos(cnf.new_var()))
        .collect();
    let image_a = AigCnf::encode(&mut cnf, aig, Some(&shared));
    let image_b = AigCnf::encode(&mut cnf, aig, Some(&shared));
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
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
