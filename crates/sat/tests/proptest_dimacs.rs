//! DIMACS round-trip property tests plus typed-error rejection cases for
//! `sat::dimacs`, matching the reader-hardening pattern from the AIGER work:
//! well-formed text must round-trip losslessly, malformed text must fail
//! with the *specific* [`DimacsError`] variant, never panic or silently
//! repair.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use proptest::prelude::*;
use sat::dimacs::{CnfFormula, DimacsError};
use sat::{ClauseSink, Lit, SatResult, Var};
use sat_oracle::ReferenceSolver;

fn formula_strategy() -> impl Strategy<Value = (u32, Vec<Vec<(u32, bool)>>)> {
    (1u32..25).prop_flat_map(|num_vars| {
        let lit = (0..num_vars, any::<bool>());
        let clause = proptest::collection::vec(lit, 0..=6);
        let clauses = proptest::collection::vec(clause, 0..=32);
        (Just(num_vars), clauses)
    })
}

fn build(num_vars: u32, raw: &[Vec<(u32, bool)>]) -> CnfFormula {
    let mut cnf = CnfFormula::default();
    for _ in 0..num_vars {
        cnf.new_var();
    }
    for cl in raw {
        let lits: Vec<Lit> = cl.iter().map(|&(v, n)| Lit::new(Var(v), n)).collect();
        cnf.add_clause(&lits);
    }
    cnf
}

proptest! {
    #[test]
    fn roundtrip_is_lossless(formula_input in formula_strategy()) {
        let (num_vars, raw) = formula_input;
        let cnf = build(num_vars, &raw);
        let text = cnf.to_dimacs();
        let parsed = CnfFormula::parse(&text).expect("own output must parse");
        prop_assert_eq!(&cnf, &parsed);
        // And a second trip is a fixpoint.
        prop_assert_eq!(parsed.to_dimacs(), text);
    }

    #[test]
    fn roundtrip_preserves_verdict(formula_input in formula_strategy()) {
        let (num_vars, raw) = formula_input;
        let cnf = build(num_vars, &raw);
        let parsed = CnfFormula::parse(&cnf.to_dimacs()).expect("parse");
        let mut direct = cnf.to_solver();
        let mut reparsed = parsed.to_solver();
        prop_assert_eq!(direct.solve(), reparsed.solve());
    }

    /// Appending a clause with an out-of-header-range literal must be
    /// rejected with the typed variant, not absorbed by growing `num_vars`.
    #[test]
    fn out_of_range_literal_is_rejected(
        formula_input in formula_strategy(),
        excess in 1u32..6,
    ) {
        let (num_vars, raw) = formula_input;
        let cnf = build(num_vars, &raw);
        let bad = num_vars + excess;
        let text = format!("{}{} 0\n", cnf.to_dimacs(), bad);
        prop_assert_eq!(
            CnfFormula::parse(&text),
            Err(DimacsError::LiteralOutOfRange {
                literal: i64::from(bad),
                num_vars: num_vars as usize,
            })
        );
    }

    /// Dropping the final terminating 0 must be detected.
    #[test]
    fn unterminated_final_clause_is_rejected(formula_input in formula_strategy()) {
        let (num_vars, raw) = formula_input;
        let cnf = build(num_vars, &raw);
        let text = format!("{}1\n", cnf.to_dimacs());
        prop_assert_eq!(
            CnfFormula::parse(&text),
            Err(DimacsError::UnterminatedClause)
        );
    }
}

#[test]
fn rejection_cases_are_typed() {
    // Malformed or missing headers.
    assert_eq!(CnfFormula::parse(""), Err(DimacsError::MissingHeader));
    assert_eq!(
        CnfFormula::parse("c only comments\n"),
        Err(DimacsError::MissingHeader)
    );
    assert_eq!(
        CnfFormula::parse("1 -2 0\np cnf 2 1\n"),
        Err(DimacsError::MissingHeader),
        "clause data before the header"
    );
    for bad_header in [
        "p cnf\n",
        "p cnf 2\n",
        "p cnf 2 1 7\n",
        "p sat 2 1\n",
        "p cnf two 1\n",
        "p cnf 2 one\n",
        "p cnf -2 1\n",
    ] {
        assert!(
            matches!(
                CnfFormula::parse(bad_header),
                Err(DimacsError::BadHeader(_))
            ),
            "{bad_header:?} should be a BadHeader"
        );
    }
    assert_eq!(
        CnfFormula::parse("p cnf 1 1\np cnf 1 1\n1 0\n"),
        Err(DimacsError::DuplicateHeader)
    );
    // Literal errors.
    assert!(matches!(
        CnfFormula::parse("p cnf 2 1\n1 x 0\n"),
        Err(DimacsError::BadLiteral(_))
    ));
    assert_eq!(
        CnfFormula::parse("p cnf 2 1\n-3 0\n"),
        Err(DimacsError::LiteralOutOfRange {
            literal: -3,
            num_vars: 2
        })
    );
    // Missing terminating zero.
    assert_eq!(
        CnfFormula::parse("p cnf 2 1\n1 -2"),
        Err(DimacsError::UnterminatedClause)
    );
}

/// More variables than a [`Lit`] encodes. Read modulo the encoding, 2³² + 1
/// aliases onto variable 1 (`1 0 / -4294967297 0` becomes x₁ ∧ ¬x₁, a
/// satisfiable formula read as UNSAT) and 2³¹ + 1 overflows the literal.
#[test]
fn header_beyond_the_literal_encoding_is_rejected() {
    for n in [(1u64 << 31) + 1, (1u64 << 32) + 1] {
        assert_eq!(
            CnfFormula::parse(&format!("p cnf {n} 2\n1 0\n-{n} 0\n")),
            Err(DimacsError::TooManyVariables(n as usize))
        );
    }
    let largest = CnfFormula::parse("p cnf 2147483648 1\n-2147483648 0\n").unwrap();
    assert_eq!(largest.clauses, vec![vec![Lit(u32::MAX)]]);
}

#[test]
fn parsed_formula_loads_into_both_engines() {
    let text = "p cnf 3 3\n1 -2 0\n2 3 0\n-3 0\n";
    let cnf = CnfFormula::parse(text).unwrap();
    assert_eq!(cnf.to_solver().solve(), SatResult::Sat);
    let mut oracle = ReferenceSolver::new();
    cnf.load_into(&mut oracle);
    assert_eq!(oracle.solve(), SatResult::Sat);
}
